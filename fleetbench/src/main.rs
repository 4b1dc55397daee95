//! `fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process, prints every metric by name with
//! its unit, checks the outputs, and ends with one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.

use fleetbench::report::{Metric, Report};
use fleetbench::workloads::{Workload, DEFAULT_SEED, WORKLOAD_NAMES};
use fleetbench::{e2e, layers, stats::Summary};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: fleetbench --workload <{}> [--seed <u64, default {DEFAULT_SEED}>] \
         [--seconds <1..=60, default 20>] [--trace <0|1>]",
        WORKLOAD_NAMES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err(bad("1..=60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The end-to-end pass. `--seconds` is split evenly between the
/// closed-loop saturation phase and the open-loop paced phase, cut into
/// slices that alternate, so that a disturbance of a few seconds hits a
/// few repetitions and one round, and the medians over repetitions and
/// rounds ignore it. Set-up, warm-up and the output check come on top.
fn end_to_end(workload: &Workload, args: &Args, report: &mut Report) -> nebula::Result<()> {
    let budget = Duration::from_secs(args.seconds) / 2;
    let (ds, setup_s) = e2e::setup(workload, args.seed)?;
    let plan = e2e::PacedPlan::new(&ds, workload, budget);
    let slices = plan.rounds as u32;
    let reps = (
        e2e::REPS.0.div_ceil(plan.rounds),
        e2e::REPS.1.div_ceil(plan.rounds),
    );
    let mut sat = e2e::Saturation::warm_up(&ds, workload, args.seed);
    let mut paced = e2e::Paced::default();
    for slice in 1..=slices {
        sat.slice(&ds, workload, args.seed, budget * slice / slices, reps);
        paced.round(&ds, workload, args.seed, plan);
    }
    // Read before the reference runs of the output check allocate.
    let peak_rss_mb = e2e::peak_rss_mb();
    let (ops, references) = e2e::verify(&ds, workload, args.seed, &sat, &paced)?;

    let summary = |values: &[f64]| Summary::of(values).unwrap_or(Summary::single(f64::NAN));
    report.push(Metric::new("setup_s", "s", summary(&setup_s)));
    report.push(Metric::new(
        "throughput_keps",
        "1e3/s",
        summary(&sat.rep_keps()),
    ));
    for (i, cell) in workload.cells.iter().enumerate() {
        let s = summary(&sat.cell_keps(i));
        report.info(format!(
            "saturation {}: {:.1} keps, q1 {:.1}, q3 {:.1}",
            cell.label(),
            s.value,
            s.q1,
            s.q3
        ));
    }
    let no_rows = || nebula::NebulaError::Plan("a paced round delivered no result row".into());
    let p50_ms = paced.round_p50_ms().ok_or_else(no_rows)?;
    report.push(Metric::new("latency_p50_ms", "ms", summary(&p50_ms)));
    let peak_rss_mb = peak_rss_mb.ok_or_else(|| {
        nebula::NebulaError::Io("cannot read VmHWM from /proc/self/status".into())
    })?;
    report.push(Metric::new(
        "peak_rss_mb",
        "MB",
        Summary::single(peak_rss_mb),
    ));
    let (samples, percentile, tail) = paced.tail().ok_or_else(no_rows)?;
    report.info(format!(
        "paced: {} runs in {} rounds ({} discarded for a late generator), {samples} latency \
         samples, p{percentile:.2} {tail:.4} ms (latency.p99_ms, a per-layer metric), \
         source.lag_max_ms {:.3}, generator.late_max_ms {:.3}",
        paced.runs.len(),
        paced.rounds,
        paced.discarded,
        paced.max_ms(|r| r.source_lag_max),
        paced.max_ms(|r| r.generator_late_max),
    ));
    for (cell, latency) in workload
        .cells
        .iter()
        .zip(paced.per_cell(workload.cells.len()))
    {
        report.info(match latency {
            Some((n, p50, percentile, tail)) => format!(
                "paced {}: {n} rows, p50 {p50:.4} ms, p{percentile:.2} {tail:.4} ms",
                cell.label()
            ),
            None => format!("paced {}: fewer than eleven rows", cell.label()),
        });
    }
    for (cell, reference) in workload.cells.iter().zip(references) {
        report.info(format!(
            "reference {}: records_in {}, late_drops {}, rows {}, digest {:016x}",
            cell.label(),
            reference.records_in,
            reference.late_drops,
            reference.rows,
            reference.digest
        ));
    }
    report.ops(ops);
    Ok(())
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("fleetbench measures release builds only; run with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{}", args.workload, usage());
        return ExitCode::from(2);
    };
    let mut report = Report::new(&workload, args.seed, args.seconds, args.trace);
    let pass = if args.trace {
        layers::traced(&workload, args.seed, args.seconds, &mut report)
    } else {
        end_to_end(&workload, &args, &mut report)
    };
    if let Err(e) = pass {
        eprintln!("fleetbench: {}: {e}", workload.name);
        return ExitCode::FAILURE;
    }
    report.finish()
}
