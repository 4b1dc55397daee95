//! The end-to-end pass: set-up, the closed-loop saturation phase, the
//! open-loop paced phase and the output check. Tracing is off here;
//! per-layer numbers come from [`crate::layers`] only.

use crate::check::{self, Outcome};
use crate::engine::{checked_run, run_cell, timed_run};
use crate::paced::{
    burst_len, spawn_generator, stamp_column, LatencySink, PacedSource, Schedule, LOOKAHEAD_BURSTS,
};
use crate::stats;
use crate::workloads::{Dataset, Mode, Workload, BUFFER_SIZE, PACED_RATE};
use nebula::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times the set-up is repeated; the median is reported.
pub const SETUP_REPS: usize = 5;
/// Timed saturation repetitions over the whole pass: at least / at most.
pub const REPS: (usize, usize) = (5, 15);
/// Rounds of the paced phase; the latency metrics are medians over them.
pub const PACED_ROUNDS: usize = 5;
/// A paced run is at least this many bursts long.
pub const MIN_PACED_BURSTS: usize = 16;
/// The generator may run this late before its run is discarded.
pub const GENERATOR_LATE_LIMIT: Duration = Duration::from_millis(1);
/// Attempts at one paced run before its events count as failed.
pub const PACED_ATTEMPTS: usize = 3;

/// Everything set-up produces once: the dataset. What it *times* is
/// dataset generation, environment, plugin and codec registration, and
/// `analyze` + `compile` of every cell; output checking is not part.
pub fn setup_once(workload: &Workload, seed: u64) -> Result<(Dataset, Duration)> {
    let start = Instant::now();
    let ds = Dataset::generate(workload.dataset, seed);
    let empty = || Box::new(VecSource::new(sncb::fleet_schema(), Vec::new()));
    let local = ds.local_env(empty(), ColumnarMode::Auto, true)?;
    let placed = workload
        .cells
        .iter()
        .any(|c| matches!(c.mode, Mode::Placed(_)));
    let cluster = placed.then(|| ds.cluster_env(empty(), true)).transpose()?;
    for cell in &workload.cells {
        match (cell.mode, &cluster) {
            (Mode::Placed(strategy), Some(cluster)) => cluster.analyze(&cell.query, strategy)?,
            _ => local.analyze(&cell.query)?,
        }
        .into_accepted()?;
        compile(&cell.query, sncb::fleet_schema(), local.registry())?;
    }
    Ok((ds, start.elapsed()))
}

/// Runs the set-up [`SETUP_REPS`] times; returns the last dataset and
/// the seconds each took.
pub fn setup(workload: &Workload, seed: u64) -> Result<(Dataset, Vec<f64>)> {
    let mut seconds = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take()); // one dataset alive at a time
        let (ds, took) = setup_once(workload, seed)?;
        seconds.push(took.as_secs_f64());
        last = Some(ds);
    }
    Ok((last.expect("SETUP_REPS > 0"), seconds))
}

/// Counts of one timed run, compared with the reference afterwards.
#[derive(Debug, Clone, Copy)]
pub struct RepCell {
    /// Events ingested.
    pub events: u64,
    /// Events dropped as late.
    pub late_drops: u64,
    /// Result rows delivered.
    pub rows: u64,
    /// Wall time of the `run*` call.
    pub wall: Duration,
}

/// What the saturation phase measured.
#[derive(Default)]
pub struct Saturation {
    /// Per cell: the outcome of the run whose output was collected.
    pub checked: Vec<Outcome>,
    /// Timed repetitions, each one run per cell in bundle order.
    pub reps: Vec<Vec<RepCell>>,
    /// Runs that returned an error.
    pub errors: Vec<String>,
    /// Time the timed repetitions took, input clones included.
    spent: Duration,
}

impl Saturation {
    /// The two warm-ups of the closed-loop phase: one run per cell whose
    /// output is collected and checked, then one untimed repetition.
    pub fn warm_up(ds: &Dataset, workload: &Workload, seed: u64) -> Saturation {
        let mut sat = Saturation::default();
        for cell in &workload.cells {
            match checked_run(ds, workload, cell, seed) {
                Ok((_, outcome)) => sat.checked.push(outcome),
                Err(e) => sat
                    .errors
                    .push(format!("{}: checked run: {e}", cell.label())),
            }
        }
        sat.repetition(ds, workload, seed);
        sat.reps.clear();
        sat
    }

    /// One timed repetition: the pre-materialised dataset replayed
    /// through every cell as fast as the engine polls it, one caller.
    fn repetition(&mut self, ds: &Dataset, workload: &Workload, seed: u64) {
        let mut cells = Vec::with_capacity(workload.cells.len());
        for cell in &workload.cells {
            match timed_run(ds, workload, cell, seed, true) {
                Ok(run) => cells.push(RepCell {
                    events: run.metrics.records_in,
                    late_drops: run.metrics.late_drops,
                    rows: run.metrics.records_out,
                    wall: run.wall,
                }),
                Err(e) => self
                    .errors
                    .push(format!("{}: timed run: {e}", cell.label())),
            }
        }
        if cells.len() == workload.cells.len() {
            self.reps.push(cells);
        }
    }

    /// Timed repetitions for one slice of the phase: at least
    /// `at_least`, then more while the next one is expected to end
    /// before the phase as a whole has spent `until`, at most `at_most`.
    pub fn slice(
        &mut self,
        ds: &Dataset,
        workload: &Workload,
        seed: u64,
        until: Duration,
        (at_least, at_most): (usize, usize),
    ) {
        for rep in 0..at_most {
            let mean = self.spent.checked_div(self.reps.len() as u32);
            if rep >= at_least && self.spent + mean.unwrap_or_default() > until {
                break;
            }
            let start = Instant::now();
            self.repetition(ds, workload, seed);
            self.spent += start.elapsed();
        }
    }

    /// Per repetition, the rate of cell `cell` alone, in 10³ events/s.
    pub fn cell_keps(&self, cell: usize) -> Vec<f64> {
        self.reps
            .iter()
            .map(|cells| cells[cell].events as f64 / cells[cell].wall.as_secs_f64() / 1e3)
            .collect()
    }

    /// Per repetition: Σ events ÷ Σ wall over the bundle, in 10³ events/s.
    pub fn rep_keps(&self) -> Vec<f64> {
        self.reps
            .iter()
            .map(|cells| {
                let events: u64 = cells.iter().map(|c| c.events).sum();
                let wall: f64 = cells.iter().map(|c| c.wall.as_secs_f64()).sum();
                events as f64 / wall / 1e3
            })
            .collect()
    }
}

/// One paced run of one cell.
pub struct PacedRun {
    /// Index of the cell in the bundle.
    pub cell: usize,
    /// Events the generator offered.
    pub offered: u64,
    /// Events the engine reported as ingested.
    pub ingested: u64,
    /// Events the source handed over before the run ended.
    pub polled: u64,
    /// Result rows delivered.
    pub rows: u64,
    /// One latency per stamped row, ms.
    pub latencies_ms: Vec<f64>,
    /// Largest `poll returned − burst due`.
    pub source_lag_max: Duration,
    /// Largest `burst released − burst due`.
    pub generator_late_max: Duration,
}

/// Offers the first `events` events of the dataset to `cell` at
/// [`PACED_RATE`], through the workload's input disorder.
pub fn paced_run(
    ds: &Dataset,
    workload: &Workload,
    cell_idx: usize,
    events: usize,
    seed: u64,
) -> Result<PacedRun> {
    let cell = &workload.cells[cell_idx];
    let schema = sncb::fleet_schema();
    let ts_col = schema.index_of("ts").expect("fleet schema has ts");
    let out_schema = compile(&cell.query, schema.clone(), &ds.registry()?)?.output_schema;
    let stamp_col = stamp_column(&out_schema).ok_or_else(|| {
        NebulaError::Plan(format!("{}: output has no timestamp column", cell.label()))
    })?;

    // The clone happens before the schedule's clock starts.
    let len = burst_len(ds.events_per_tick, BUFFER_SIZE);
    let bursts: Vec<Vec<Record>> = ds.records[..events / len * len]
        .chunks(len)
        .map(<[Record]>::to_vec)
        .collect();
    let offered = (bursts.len() * len) as u64;
    let lead = Duration::from_secs_f64((LOOKAHEAD_BURSTS + 2) as f64 * len as f64 / PACED_RATE);
    let schedule = Arc::new(Schedule::new(
        &bursts,
        ts_col,
        PACED_RATE,
        Instant::now() + lead,
    ));
    let mut sink = LatencySink::new(stamp_col, schedule.clone(), offered as usize);
    let (queue, generator) = spawn_generator(bursts, schedule);
    let (source, stats) = PacedSource::new(schema, queue);
    let run = run_cell(ds, cell, workload.wrap(source, seed), &mut sink, true);
    // An engine error drops the source, which ends the generator.
    let generator_late_max = generator
        .join()
        .map_err(|_| NebulaError::Io("generator thread panicked".into()))?;
    let run = run?;
    Ok(PacedRun {
        cell: cell_idx,
        offered,
        ingested: run.metrics.records_in,
        polled: stats.events(),
        rows: sink.rows,
        latencies_ms: sink.latencies_ms,
        source_lag_max: stats.lag_max(),
        generator_late_max,
    })
}

/// What the paced phase measured.
#[derive(Default)]
pub struct Paced {
    /// The runs that completed on schedule, tagged with their round.
    pub runs: Vec<(usize, PacedRun)>,
    /// Rounds started.
    pub rounds: usize,
    /// Runs discarded and repeated because the generator ran late.
    pub discarded: usize,
    /// Events offered in runs that failed, with the reason.
    pub errors: Vec<(u64, String)>,
}

/// How the open-loop phase is cut up: up to [`PACED_ROUNDS`] rounds,
/// each running every cell of the bundle once, together offering
/// `PACED_RATE · budget` events. A run replays a prefix of the dataset,
/// a whole number of bursts and at least [`MIN_PACED_BURSTS`]; short
/// budgets get fewer rounds rather than shorter runs.
#[derive(Debug, Clone, Copy)]
pub struct PacedPlan {
    /// Rounds.
    pub rounds: usize,
    /// Events offered to each cell in each round.
    pub events: usize,
}

impl PacedPlan {
    /// The plan for `budget` seconds of paced load.
    pub fn new(ds: &Dataset, workload: &Workload, budget: Duration) -> PacedPlan {
        let len = burst_len(ds.events_per_tick, BUFFER_SIZE);
        let cells = workload.cells.len();
        let total = (PACED_RATE * budget.as_secs_f64()) as usize;
        let rounds = (total / (cells * MIN_PACED_BURSTS * len)).clamp(1, PACED_ROUNDS);
        let events = (total / (rounds * cells)).clamp(MIN_PACED_BURSTS * len, ds.records.len());
        PacedPlan {
            rounds,
            events: events / len * len,
        }
    }
}

impl Paced {
    /// Runs every cell once. A run whose generator fell behind its
    /// schedule (the host stalled for longer than the generator's
    /// lead) says nothing about the engine: it is discarded, counted,
    /// and repeated, at most [`PACED_ATTEMPTS`] times.
    pub fn round(&mut self, ds: &Dataset, workload: &Workload, seed: u64, plan: PacedPlan) {
        let round = self.rounds;
        self.rounds += 1;
        for cell in 0..workload.cells.len() {
            for attempt in 1..=PACED_ATTEMPTS {
                match paced_run(ds, workload, cell, plan.events, seed) {
                    Ok(run) if run.generator_late_max > GENERATOR_LATE_LIMIT => {
                        self.discarded += 1;
                        if attempt == PACED_ATTEMPTS {
                            self.errors.push((
                                run.offered,
                                format!(
                                    "{}: generator ran {:?} late in every attempt",
                                    workload.cells[cell].label(),
                                    run.generator_late_max
                                ),
                            ));
                        }
                    }
                    Ok(run) => {
                        self.runs.push((round, run));
                        break;
                    }
                    Err(e) => {
                        let label = workload.cells[cell].label();
                        self.errors
                            .push((plan.events as u64, format!("{label}: paced run: {e}")));
                        break;
                    }
                }
            }
        }
    }

    /// The latencies of the runs `keep(round, run)` selects, sorted.
    fn pooled_sorted(&self, keep: impl Fn(usize, &PacedRun) -> bool) -> Vec<f64> {
        let runs = self.runs.iter().filter(|(round, run)| keep(*round, run));
        let pooled: Vec<f64> = runs
            .flat_map(|(_, run)| run.latencies_ms.iter().copied())
            .collect();
        stats::sorted(&pooled)
    }

    /// Largest value of `f` over the runs, in ms.
    pub fn max_ms(&self, f: fn(&PacedRun) -> Duration) -> f64 {
        let max = self.runs.iter().map(|(_, r)| f(r)).max();
        max.unwrap_or_default().as_secs_f64() * 1e3
    }

    /// Per cell, over all rounds: samples, median and tail percentile
    /// with its value. Printed beside the pooled metrics, which the
    /// cells with many result rows dominate.
    pub fn per_cell(&self, cells: usize) -> Vec<Option<(usize, f64, f64, f64)>> {
        (0..cells)
            .map(|cell| {
                let sorted = self.pooled_sorted(|_, run| run.cell == cell);
                let p50 = stats::percentile_sorted(&sorted, 50.0)?;
                let (percentile, tail) = stats::tail_percentile_sorted(&sorted)?;
                Some((sorted.len(), p50, percentile, tail))
            })
            .collect()
    }

    /// Per round, the median of the latencies pooled over the bundle;
    /// `latency_p50_ms` is the median over rounds, so that one host
    /// stall, which lands in one round, cannot move it. `None` when a
    /// round delivered no row.
    pub fn round_p50_ms(&self) -> Option<Vec<f64>> {
        (0..self.rounds)
            .map(|round| stats::percentile_sorted(&self.pooled_sorted(|r, _| r == round), 50.0))
            .collect()
    }

    /// The tail of all latencies pooled over rounds and bundle: samples,
    /// the percentile read (the 99th, or below 1 000 samples the highest
    /// with ten samples beyond it) and its value.
    pub fn tail(&self) -> Option<(usize, f64, f64)> {
        let sorted = self.pooled_sorted(|_, _| true);
        let (percentile, tail) = stats::tail_percentile_sorted(&sorted)?;
        Some((sorted.len(), percentile, tail))
    }
}

/// The open-loop phase on its own, as the traced pass runs it.
pub fn paced(ds: &Dataset, workload: &Workload, seed: u64, budget: Duration) -> Paced {
    let plan = PacedPlan::new(ds, workload, budget);
    let mut phase = Paced::default();
    for _ in 0..plan.rounds {
        phase.round(ds, workload, seed, plan);
    }
    phase
}

/// Totals of offered events and the reasons any of them failed.
#[derive(Debug)]
pub struct Ops {
    /// Events offered to the engine over both phases.
    pub attempted: u64,
    /// Events whose run failed, was cut short, or whose output was wrong.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Default for Ops {
    /// Nothing attempted yet, nothing wrong yet.
    fn default() -> Ops {
        Ops {
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
        }
    }
}

impl Ops {
    /// Counts `events` as failed; `wrong_output` when an output check
    /// (rather than a run) failed.
    pub fn fail(&mut self, events: u64, wrong_output: bool, note: String) {
        self.failed += events;
        self.correct &= !wrong_output;
        self.notes.push(note);
    }
}

/// Checks both phases against a reference `run` with `ColumnarMode::Off`
/// per cell and counts attempted and failed events. An event fails if
/// its run returned an error, if it was still un-polled when its paced
/// run ended, if its paced run was discarded at every attempt, or if its
/// run's output check failed, in which case all of that run's events fail.
/// Also returns each cell's reference outcome.
pub fn verify(
    ds: &Dataset,
    workload: &Workload,
    seed: u64,
    sat: &Saturation,
    phase: &Paced,
) -> Result<(Ops, Vec<Outcome>)> {
    let full = ds.records.len() as u64;
    let mut ops = Ops::default();
    // One reference per query: the cells of a query differ in mode only.
    let mut references: Vec<Outcome> = Vec::with_capacity(workload.cells.len());

    for e in &sat.errors {
        ops.attempted += full;
        ops.fail(full, false, e.clone());
    }
    for (i, cell) in workload.cells.iter().enumerate() {
        let same_query = workload.cells[..i]
            .iter()
            .position(|c| c.query_name == cell.query_name);
        let reference = match same_query {
            Some(earlier) => references[earlier],
            None => check::reference(ds, workload, cell, seed)?,
        };
        if let Some(checked) = sat.checked.get(i) {
            ops.attempted += full;
            if *checked != reference {
                let note = format!("{}: {checked:?} != reference {reference:?}", cell.label());
                ops.fail(full, true, note);
            }
        }
        for (r, rep) in sat.reps.iter().enumerate() {
            let c = rep[i];
            ops.attempted += full;
            if (c.events, c.late_drops, c.rows)
                != (reference.records_in, reference.late_drops, reference.rows)
            {
                let note = format!(
                    "{}: rep {r}: {c:?} != reference {reference:?}",
                    cell.label()
                );
                ops.fail(full, true, note);
            }
        }
        references.push(reference);
    }

    for (events, e) in &phase.errors {
        ops.attempted += events;
        ops.fail(*events, false, e.clone());
    }
    for (_, run) in &phase.runs {
        let label = workload.cells[run.cell].label();
        ops.attempted += run.offered;
        if run.ingested != run.offered || run.polled != run.offered {
            let missing = run.offered - run.ingested.min(run.polled).min(run.offered);
            let note = format!(
                "{label}: offered {} polled {} ingested {}",
                run.offered, run.polled, run.ingested
            );
            ops.fail(missing.max(1), true, note);
        } else if run.latencies_ms.len() as u64 != run.rows {
            let note = format!(
                "{label}: {} of {} rows carry no event-time stamp",
                run.rows - run.latencies_ms.len() as u64,
                run.rows
            );
            ops.fail(run.offered, true, note);
        }
    }
    Ok((ops, references))
}

/// `VmHWM` of this process in MB (10⁶ bytes): the high-water mark of its
/// resident set. The driver starts one process per workload, so marks
/// do not leak between workloads.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}
