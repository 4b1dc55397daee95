//! Calls into the engine's `run*` entry points, timed from outside the
//! call: pre-flight analysis, taking the source and thread spawn/join
//! are inside the measured time; building the environment and cloning
//! the input are not.

use crate::check::Outcome;
use crate::workloads::{Cell, Dataset, Mode, Workload};
use nebula::prelude::*;
use std::time::{Duration, Instant};

/// One engine run of one cell.
pub struct CellRun {
    /// Wall time of the `run*` call.
    pub wall: Duration,
    /// The engine's own counters.
    pub metrics: QueryMetrics,
    /// Link traffic, for placed cells.
    pub cluster: Option<ClusterMetrics>,
}

/// Runs `cell` in its mode over `source` into `sink` with the fixed
/// settings.
pub fn run_cell(
    ds: &Dataset,
    cell: &Cell,
    source: Box<dyn Source>,
    sink: &mut dyn Sink,
    telemetry: bool,
) -> Result<CellRun> {
    match cell.mode {
        Mode::Placed(strategy) => {
            let mut env = ds.cluster_env(source, telemetry)?;
            let start = Instant::now();
            let report = env.run_placed(&cell.query, strategy, sink)?;
            Ok(CellRun {
                wall: start.elapsed(),
                metrics: report.metrics,
                cluster: Some(report.cluster),
            })
        }
        local => {
            let mut env = ds.local_env(source, ColumnarMode::Auto, telemetry)?;
            let start = Instant::now();
            let metrics = match local {
                Mode::Threaded => env.run_threaded(&cell.query, sink),
                Mode::Partitioned => env.run_partitioned(&cell.query, sink),
                _ => env.run(&cell.query, sink),
            }?;
            Ok(CellRun {
                wall: start.elapsed(),
                metrics,
                cluster: None,
            })
        }
    }
}

/// Runs `cell` over the whole dataset, collecting its output: the run
/// whose digest is checked. Also the first warm-up of the saturation
/// phase.
pub fn checked_run(
    ds: &Dataset,
    workload: &Workload,
    cell: &Cell,
    seed: u64,
) -> Result<(CellRun, Outcome)> {
    let (mut sink, rows) = CollectingSink::new();
    let source = workload.source(ds.records.clone(), seed);
    let run = run_cell(ds, cell, source, &mut sink, true)?;
    let outcome = Outcome::of(&run.metrics, rows.records());
    Ok((run, outcome))
}

/// One timed saturation run of `cell` into a counting sink. The clone
/// of the dataset happens before the clock starts.
pub fn timed_run(
    ds: &Dataset,
    workload: &Workload,
    cell: &Cell,
    seed: u64,
    telemetry: bool,
) -> Result<CellRun> {
    let source = workload.source(ds.records.clone(), seed);
    let (mut sink, _) = CountingSink::new();
    run_cell(ds, cell, source, &mut sink, telemetry)
}
