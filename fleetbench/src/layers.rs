//! The traced pass (`--trace 1`): every per-layer metric, taken from
//! the benchmark's own code around calls into each layer's public
//! functions. Nothing is added inside the engine.
//!
//! Two instruments:
//! 1. the **outside driver** ([`crate::trace`]), run for every query of
//!    the bundle and checked against the engine's own output;
//! 2. **engine runs** through the real `run*` entry points, whose
//!    reports supply what cannot be timed from outside (queue depths,
//!    link bytes, frontier lag), and micro-measurements of single
//!    public functions (transposition, expressions, MEOS calls, wire).
//!
//! End-to-end metrics are never taken here.

use crate::check::Outcome;
use crate::e2e::{self, Ops};
use crate::engine::{checked_run, timed_run, CellRun};
use crate::report::{Metric, Report};
use crate::stats::{self, Summary};
use crate::trace::{drive, Layer, Layers, Tracer};
use crate::workloads::{Cell, Dataset, Mode, Workload, BUFFER_SIZE, PAPER_KEPS, QUERY_NAMES};
use nebula::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `reps` timings of `f`, each over `n` items, in ns per item.
fn ns_per_item(reps: usize, n: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64 / n.max(1) as f64
        })
        .collect();
    stats::median(&samples).unwrap_or(f64::NAN)
}

/// Micro-measurements of single public functions on the workload's own
/// data: the first 64 buffers of the dataset.
fn micro(ds: &Dataset, reps: usize, out: &mut Values) -> Result<()> {
    let schema = sncb::fleet_schema();
    let bursts: Vec<&[Record]> = ds.records.chunks(BUFFER_SIZE).take(64).collect();
    let events: usize = bursts.iter().map(|b| b.len()).sum();
    let mut put = |name: &str, unit: &'static str, v: f64| out.push((name.into(), unit, v));
    let meta = BufferMeta::default();

    // buffer: rows → columns and back.
    let buffers: Vec<TupleBuffer> = bursts
        .iter()
        .map(|b| TupleBuffer::from_records(schema.clone(), b, meta))
        .collect();
    let transpose = ns_per_item(reps, events, || {
        for b in &bursts {
            black_box(TupleBuffer::from_records(
                schema.clone(),
                black_box(b),
                meta,
            ));
        }
    });
    put("buffer.transpose_ns_per_event", "ns", transpose);
    let to_rows = ns_per_item(reps, events, || {
        for tb in &buffers {
            black_box(black_box(tb).to_record_buffer());
        }
    });
    put("buffer.to_rows_ns_per_event", "ns", to_rows);

    // expr: Q1's alert predicate, per record and as a vectorised mask.
    let registry = ds.registry()?;
    let alert = col("speed_kmh").gt(lit(160.0)).or(col("brake_bar")
        .lt(lit(3.0))
        .or(col("battery_v").lt(lit(63.0))));
    let (alert, _) = alert.bind(&schema, &registry)?;
    let mut failed = false;
    let row = ns_per_item(reps, events, || {
        for rec in bursts.iter().flat_map(|b| b.iter()) {
            failed |= black_box(alert.eval_predicate(black_box(rec))).is_err();
        }
    });
    put("expr.eval_row_ns", "ns", row);
    let mask = ns_per_item(reps, events, || {
        for tb in &buffers {
            failed |= black_box(alert.eval_mask(black_box(tb))).is_err();
        }
    });
    put("expr.eval_mask_ns_per_event", "ns", mask);

    // meos: the zone, weather and workshop functions on real positions.
    let calls = [
        ("meos.zone_call_ns", "in_maintenance", false),
        ("meos.weather_call_ns", "weather_speed_factor", true),
        ("meos.nearest_workshop_ns", "nearest_workshop_m", false),
    ];
    let (pos_col, ts_col) = (2, 0);
    for (metric, function, with_ts) in calls {
        let f = registry
            .get(function)
            .ok_or_else(|| NebulaError::Plan(format!("function '{function}' not registered")))?;
        let args: Vec<Vec<Value>> = bursts
            .iter()
            .flat_map(|b| b.iter())
            .map(|rec| {
                let mut a = vec![rec.values()[pos_col].clone()];
                if with_ts {
                    a.push(rec.values()[ts_col].clone());
                }
                a
            })
            .collect();
        let ns = ns_per_item(reps, args.len(), || {
            for a in &args {
                failed |= black_box(f.invoke(black_box(a))).is_err();
            }
        });
        put(metric, "ns", ns);
    }

    // wire: fleet frames of one buffer each, MEOS codecs registered.
    let codecs = nebulameos::meos_wire_registry();
    let frames: Vec<Frame> = bursts.iter().map(|b| Frame::Data(b.to_vec())).collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode = ns_per_item(reps, events, || {
        encoded.clear();
        for frame in &frames {
            match encode_frame(black_box(frame), &schema, &codecs) {
                Ok(bytes) => encoded.push(bytes),
                Err(_) => failed = true,
            }
        }
    });
    put("wire.encode_ns_per_event", "ns", encode);
    let decode = ns_per_item(reps, events, || {
        for bytes in &encoded {
            failed |= black_box(decode_frame(black_box(bytes), &schema, &codecs)).is_err();
        }
    });
    put("wire.decode_ns_per_event", "ns", decode);
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    put(
        "wire.bytes_per_event",
        "bytes",
        bytes as f64 / events as f64,
    );
    let envelope = ns_per_item(reps, encoded.len(), || {
        for (seq, payload) in encoded.iter().enumerate() {
            black_box(crc32(black_box(payload)));
            let env = encode_envelope(nebula::wire::ENV_PAYLOAD, seq as u64, payload);
            failed |= black_box(decode_envelope(&env)).is_err();
        }
    });
    put("wire.envelope_ns_per_frame", "ns", envelope);

    if failed {
        return Err(NebulaError::Plan("a micro-measured call failed".into()));
    }
    Ok(())
}

/// Per-layer values on their way into the report.
type Values = Vec<(String, &'static str, f64)>;

/// State shared by the steps of one traced pass.
struct Pass<'a> {
    ds: &'a Dataset,
    workload: &'a Workload,
    seed: u64,
    /// Runs per side of a ratio; medians are taken over them.
    reps: usize,
    ops: Ops,
    values: Values,
}

impl Pass<'_> {
    fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.values.push((name.into(), unit, value));
    }

    /// `reps` timed engine runs of `cell`.
    fn timed(&mut self, cell: &Cell, telemetry: bool) -> Result<Vec<CellRun>> {
        self.ops.attempted += (self.reps * self.ds.records.len()) as u64;
        (0..self.reps)
            .map(|_| timed_run(self.ds, self.workload, cell, self.seed, telemetry))
            .collect()
    }

    /// [`Self::timed`] for every distinct query of the bundle.
    fn timed_queries(&mut self, mode: Mode) -> Result<Vec<Vec<CellRun>>> {
        let queries = self.workload.queries();
        queries
            .into_iter()
            .map(|(query_name, query)| {
                let cell = Cell {
                    query_name,
                    query,
                    mode,
                };
                self.timed(&cell, true)
            })
            .collect()
    }

    /// [`Self::timed`] for every cell of the bundle in its own mode.
    fn timed_bundle(&mut self, telemetry: bool) -> Result<Vec<Vec<CellRun>>> {
        let workload = self.workload;
        workload
            .cells
            .iter()
            .map(|cell| self.timed(cell, telemetry))
            .collect()
    }

    /// One whole run's output was wrong.
    fn wrong(&mut self, note: String) {
        self.ops.fail(self.ds.records.len() as u64, true, note);
    }
}

fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    stats::median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Σ events ÷ Σ wall over repetition `r` of every cell, in 10³ events/s;
/// the median over repetitions.
fn rate<'a>(cells: impl IntoIterator<Item = &'a Vec<CellRun>> + Clone) -> f64 {
    let reps = cells.clone().into_iter().map(Vec::len).min().unwrap_or(0);
    median_of((0..reps).map(|r| {
        let (events, wall) = cells.clone().into_iter().fold((0, 0.0), |(e, w), runs| {
            (
                e + runs[r].metrics.records_in,
                w + runs[r].wall.as_secs_f64(),
            )
        });
        events as f64 / wall / 1e3
    }))
}

/// Step 1: the outside driver against the engine's `run`, per query.
/// Returns the engine's `run`-mode runs, the base of the mode ratios.
fn drive_bundle(
    pass: &mut Pass,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<Vec<CellRun>>> {
    let mut layers = Layers::default();
    let (mut driver_wall, mut engine_wall) = (0.0, 0.0);
    let (mut batches, mut state_bytes_max, mut late_drops) = (0, 0, 0);
    let mut query_keps = Vec::new();
    let mut run_mode = Vec::new();
    for (query_name, query) in pass.workload.queries() {
        let cell = Cell {
            query_name,
            query,
            mode: Mode::Run,
        };
        let (_, engine) = checked_run(pass.ds, pass.workload, &cell, pass.seed)?;
        let driven = drive(
            pass.ds,
            pass.workload,
            query_name,
            &cell.query,
            pass.seed,
            tracer,
        )?;
        pass.ops.attempted += 2 * pass.ds.records.len() as u64;
        if driven.outcome != engine {
            let outcome = driven.outcome;
            pass.wrong(format!(
                "{query_name}: outside driver {outcome:?} != engine {engine:?}"
            ));
        }
        let runs = pass.timed(&cell, true)?;
        query_keps.push((query_name, rate([&runs])));
        engine_wall += median_of(runs.iter().map(|r| r.wall.as_secs_f64()));
        driver_wall += driven.wall.as_secs_f64();
        layers.add(&driven.layers);
        batches += driven.batches;
        state_bytes_max = state_bytes_max.max(driven.state_bytes_max);
        late_drops += driven.outcome.late_drops;
        run_mode.push(runs);
    }

    for (metric, layer) in [
        ("source", Layer::SourcePoll),
        ("buffer.transpose", Layer::Transpose),
        ("ops.filter", Layer::Filter),
        ("ops.map", Layer::Map),
        ("ops.window.absorb", Layer::WindowAbsorb),
        ("ops.window.materialize", Layer::WindowMaterialize),
        ("ops.cep", Layer::Cep),
        ("sink", Layer::Sink),
    ] {
        let stat = layers.get(layer);
        let share = stat.ns as f64 / 1e9 / driver_wall;
        pass.put(format!("{metric}.busy_share"), "ratio", share);
        if metric.starts_with("ops.") {
            pass.put(
                format!("{metric}.records_in"),
                "count",
                stat.records_in as f64,
            );
            pass.put(
                format!("{metric}.records_out"),
                "count",
                stat.records_out as f64,
            );
        }
    }
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    let (poll, sink) = (layers.get(Layer::SourcePoll), layers.get(Layer::Sink));
    let progress = layers.get(Layer::Progress);
    let layer_seconds = layers.total_ns() as f64 / 1e9;
    let coverage = layer_seconds / engine_wall;
    pass.put(
        "source.poll_ns_per_event",
        "ns",
        per(poll.ns, poll.records_out),
    );
    pass.put(
        "sink.consume_ns_per_row",
        "ns",
        per(sink.ns, sink.records_in),
    );
    pass.put("ops.late_drops", "count", late_drops as f64);
    pass.put("window.state_bytes_max", "bytes", state_bytes_max as f64);
    pass.put(
        "runtime.progress_ns_per_batch",
        "ns",
        per(progress.ns, batches),
    );
    pass.put("trace.coverage", "ratio", coverage);
    pass.put("runtime.driver_share", "ratio", 1.0 - coverage);
    for (i, name) in QUERY_NAMES.into_iter().enumerate() {
        let keps = query_keps.iter().find(|(n, _)| *n == name);
        pass.put(
            format!("query.{name}.keps"),
            "1e3/s",
            keps.map_or(0.0, |q| q.1),
        );
        if let (Some((_, keps)), Some(paper)) = (keps, PAPER_KEPS.get(i)) {
            report.info(format!(
                "query.{name}.keps {keps:.1}; the paper's Table 1 reports {paper} keps"
            ));
        }
    }
    report.info(format!(
        "trace.coverage = {layer_seconds:.4} s of layer self time / {engine_wall:.4} s engine \
         `run` wall; outside driver wall {driver_wall:.4} s"
    ));
    Ok(run_mode)
}

/// The cluster counters of a set of placed cells, from each cell's first
/// run: apart from the telemetry frames they repeat exactly.
struct Traffic {
    uplink_bytes: f64,
    uplink_frames: f64,
    max_queue_depth: f64,
    simulated_transfer_ms: f64,
}

impl Traffic {
    fn of(cells: &[&Vec<CellRun>]) -> Traffic {
        let metrics: Vec<&ClusterMetrics> =
            cells.iter().filter_map(|c| c[0].cluster.as_ref()).collect();
        let links = || metrics.iter().flat_map(|m| m.links.iter());
        Traffic {
            uplink_bytes: metrics.iter().map(|m| m.uplink_bytes).sum::<u64>() as f64,
            uplink_frames: metrics.iter().map(|m| m.uplink_frames).sum::<u64>() as f64,
            max_queue_depth: links().map(|l| l.max_queue_depth).max().unwrap_or(0) as f64,
            simulated_transfer_ms: links().map(|l| l.simulated_transfer_ms).sum(),
        }
    }
}

/// The fixed light fault plan of `cluster.chaos.*`: 2 % drops, 1 %
/// duplicates, and the edge box killed after 100 frames.
fn light_faults(seed: u64, edge: NodeId) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop_frames(0.02)
        .duplicate_frames(0.01)
        .crash_node(edge, 100)
}

/// One `run_placed_chaos` of `cell` under `plan`, collecting its output.
fn chaos_run(
    pass: &mut Pass,
    cell: &Cell,
    plan: impl FnOnce(NodeId) -> FaultPlan,
) -> Result<(Duration, ClusterMetrics, Outcome)> {
    let Mode::Placed(strategy) = cell.mode else {
        return Err(NebulaError::Plan("chaos runs need a placed cell".into()));
    };
    pass.ops.attempted += pass.ds.records.len() as u64;
    let source = pass.workload.source(pass.ds.records.clone(), pass.seed);
    let mut env = pass.ds.cluster_env(source, true)?;
    let edge = env
        .topology()
        .nodes()
        .iter()
        .find(|n| n.kind == NodeKind::Edge)
        .map(|n| n.id)
        .ok_or_else(|| NebulaError::Plan("topology has no edge node".into()))?;
    let plan = plan(edge);
    let (mut sink, rows) = CollectingSink::new();
    let start = Instant::now();
    let report = env.run_placed_chaos(&cell.query, strategy, &plan, &mut sink)?;
    let wall = start.elapsed();
    let outcome = Outcome::of(&report.metrics, rows.records());
    Ok((wall, report.cluster, outcome))
}

/// Step 3: what the `ClusterReport`s of the placed cells say, and the
/// chaos runs. All 0 on a workload without placed cells.
fn cluster(pass: &mut Pass, on: &[Vec<CellRun>], report: &mut Report) -> Result<()> {
    let placed = |strategy| -> Vec<&Vec<CellRun>> {
        let cells = pass.workload.cells.iter().zip(on);
        cells
            .filter(|(cell, _)| cell.mode == Mode::Placed(strategy))
            .map(|(_, runs)| runs)
            .collect()
    };
    let edge = placed(PlacementStrategy::EdgeFirst);
    let cloud = placed(PlacementStrategy::CloudOnly);
    let mut values = [0.0; 12];
    if let (Some(plain), false) = (edge.first(), cloud.is_empty()) {
        let events = |cells: &[&Vec<CellRun>]| (cells.len() * pass.ds.records.len()) as f64;
        let (edge_traffic, cloud_traffic) = (Traffic::of(&edge), Traffic::of(&cloud));
        values[..8].copy_from_slice(&[
            rate(edge.iter().copied()),
            rate(cloud.iter().copied()),
            edge_traffic.uplink_bytes / events(&edge),
            cloud_traffic.uplink_bytes / events(&cloud),
            cloud_traffic.uplink_bytes / edge_traffic.uplink_bytes.max(1.0),
            edge_traffic.uplink_frames,
            edge_traffic
                .max_queue_depth
                .max(cloud_traffic.max_queue_depth),
            edge_traffic.simulated_transfer_ms,
        ]);

        // Chaos: the first EdgeFirst cell under an empty plan (what the
        // resilient links cost when nothing fails), then under the
        // light plan, whose output must still equal the fault-free one.
        let plain_wall = median_of(plain.iter().map(|r| r.wall.as_secs_f64()));
        let workload = pass.workload;
        let cell = workload
            .cells
            .iter()
            .find(|c| c.mode == Mode::Placed(PlacementStrategy::EdgeFirst))
            .expect("an EdgeFirst cell produced `plain`");
        let seed = pass.seed;
        let mut empty_walls = Vec::new();
        let mut fault_free = None;
        for _ in 0..pass.reps {
            let (wall, _, outcome) = chaos_run(pass, cell, |_| FaultPlan::seeded(seed))?;
            empty_walls.push(wall.as_secs_f64());
            fault_free = Some(outcome);
        }
        let (_, faulty, outcome) = chaos_run(pass, cell, |edge| light_faults(seed, edge))?;
        if Some(outcome) != fault_free {
            pass.wrong(format!(
                "{}: chaos run {outcome:?} != fault-free {fault_free:?}",
                cell.label()
            ));
        }
        report.info(format!(
            "cluster.chaos_overhead_ratio = run_placed_chaos(empty plan) / run_placed \
             {plain_wall:.4} s, on {}",
            cell.label()
        ));
        values[8..].copy_from_slice(&[
            median_of(empty_walls) / plain_wall,
            faulty.retransmits as f64,
            faulty.checkpoints_taken as f64,
            faulty.recovery_ms,
        ]);
    }
    let metrics = [
        ("cluster.edge_first_keps", "1e3/s"),
        ("cluster.cloud_only_keps", "1e3/s"),
        ("cluster.uplink_bytes_per_event.edge_first", "bytes"),
        ("cluster.uplink_bytes_per_event.cloud_only", "bytes"),
        ("cluster.uplink_reduction", "ratio"),
        ("cluster.uplink_frames", "count"),
        ("cluster.max_queue_depth", "count"),
        ("cluster.simulated_transfer_ms", "ms"),
        ("cluster.chaos_overhead_ratio", "ratio"),
        ("cluster.chaos.retransmits", "count"),
        ("cluster.chaos.checkpoints_taken", "count"),
        ("cluster.chaos.recovery_ms", "ms"),
    ];
    for ((name, unit), value) in metrics.into_iter().zip(values) {
        pass.put(name, unit, value);
    }
    Ok(())
}

/// Runs the traced pass of `workload` and fills `report` with every
/// per-layer metric (0 where a layer does not occur in the workload).
pub fn traced(workload: &Workload, seed: u64, seconds: u64, report: &mut Report) -> Result<()> {
    let (ds, _) = e2e::setup_once(workload, seed)?;
    let mut pass = Pass {
        ds: &ds,
        workload,
        seed,
        reps: if seconds >= 10 { 3 } else { 1 },
        ops: Ops::default(),
        values: Vec::new(),
    };
    let mut tracer = Tracer::new();
    let run_mode = drive_bundle(&mut pass, &mut tracer, report)?;

    // Step 2: the bundle in its own mode with telemetry on and off, and
    // the same queries threaded and partitioned, against `run`.
    let on = pass.timed_bundle(true)?;
    let off = pass.timed_bundle(false)?;
    let threaded = pass.timed_queries(Mode::Threaded)?;
    let partitioned = pass.timed_queries(Mode::Partitioned)?;
    let base = rate(&run_mode);
    report.info(format!(
        "bases: `run` {base:.1} keps (runtime.threaded_ratio, runtime.par_speedup); \
         bundle with telemetry on {:.1} keps, off {:.1} keps (telemetry.overhead_ratio = off / on)",
        rate(&on),
        rate(&off)
    ));
    let frontier_lag = [&on, &off, &threaded, &partitioned]
        .into_iter()
        .flatten()
        .flatten()
        .map(|r| r.metrics.frontier_lag_max_us)
        .max();
    pass.put("runtime.threaded_ratio", "ratio", rate(&threaded) / base);
    pass.put("runtime.par_speedup", "ratio", rate(&partitioned) / base);
    pass.put("telemetry.overhead_ratio", "ratio", rate(&off) / rate(&on));
    pass.put(
        "runtime.frontier_lag_max_us",
        "us",
        frontier_lag.unwrap_or(0) as f64,
    );
    cluster(&mut pass, &on, report)?;

    // Step 4: pre-flight analysis per cell, by the analyzer's own clock.
    let analysis_us = workload
        .cells
        .iter()
        .map(|cell| {
            let empty = Box::new(VecSource::new(sncb::fleet_schema(), Vec::new()));
            let analysis = match cell.mode {
                Mode::Placed(strategy) => {
                    ds.cluster_env(empty, true)?.analyze(&cell.query, strategy)
                }
                _ => ds
                    .local_env(empty, ColumnarMode::Auto, true)?
                    .analyze(&cell.query),
            }?;
            Ok(analysis.elapsed_us as f64)
        })
        .collect::<Result<Vec<_>>>()?;
    pass.put("analysis.preflight_us", "us", median_of(analysis_us));

    // Step 5: single public functions, and a short paced phase for the
    // lag of the source and of the generator.
    micro(&ds, pass.reps, &mut pass.values)?;
    let paced = e2e::paced(&ds, workload, seed, Duration::from_secs(seconds) / 4);
    let tail = paced.tail().map_or(0.0, |(_, _, tail)| tail);
    pass.put("latency.p99_ms", "ms", tail);
    pass.put(
        "source.lag_max_ms",
        "ms",
        paced.max_ms(|r| r.source_lag_max),
    );
    pass.put(
        "generator.late_max_ms",
        "ms",
        paced.max_ms(|r| r.generator_late_max),
    );
    for (_, run) in &paced.runs {
        pass.ops.attempted += run.offered;
        pass.ops.failed += run.offered - run.ingested.min(run.offered);
    }
    for (events, error) in paced.errors {
        pass.ops.attempted += events;
        pass.ops.fail(events, false, error);
    }

    Report::write_result(
        &format!("trace_{}.json", workload.name),
        &tracer.to_json(workload, seed),
    )?;
    for (name, unit, value) in pass.values {
        report.push(Metric::new(name, unit, Summary::single(value)));
    }
    report.ops(pass.ops);
    Ok(())
}
