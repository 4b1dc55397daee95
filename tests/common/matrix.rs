//! The matrix: every catalog plan × feed × entry point, each cell run
//! against `run` as the reference.
//!
//! A cell runs one or more configs (records per poll × [`ColumnarMode`]).
//! A *default* cell runs its feed's default config, `(feed.batch(),
//! Auto)`, against `run` at that config and compares rows in `run`'s raw
//! delivery order. A *sweep* cell runs every sweep batch size × `Off` /
//! `Force` / `Auto` against `run` with the columnar gate off — at the
//! feed's default batch size, or at the cell's own batch size where the
//! plan is order-sensitive and the feed jittered (the jitter buffer
//! drains per poll, so arrival order changes with the batch size) — and
//! compares order-normalized rows. Chaos cells compare normalized rows,
//! crash cells raw rows. Every cell also compares `records_in`,
//! `records_out` and `late_drops` and finds no absent column at the
//! sink.

use super::catalog::{catalog, Plan, Slot};
use super::*;
use std::collections::HashMap;

/// An execution entry point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Entry {
    Run,
    Threaded,
    Partitioned(usize),
    Placed(PlacementStrategy),
    /// `run_placed_chaos` with resilient links and no injected fault.
    Resilient(PlacementStrategy),
    /// `run_placed_chaos` over seeded lossy links ([`lossy_plan`]);
    /// under `EdgeFirst` train 0's edge box also dies at its 12th
    /// frame, and recovery replays from the last sealed checkpoint.
    PlacedChaos(PlacementStrategy, u64),
    /// `run_placed_chaos` under `EdgeFirst` on clean links: train 0's
    /// edge box dies after it has handled this many frames.
    Crash(u64),
}

use PlacementStrategy::{CloudOnly, EdgeFirst};

/// The three configurations of the local executor.
pub const LOCAL: [Entry; 5] = [
    Entry::Run,
    Entry::Threaded,
    Entry::Partitioned(1),
    Entry::Partitioned(2),
    Entry::Partitioned(4),
];

pub const PLACED: [Entry; 2] = [Entry::Placed(EdgeFirst), Entry::Placed(CloudOnly)];

/// Crash frame counts. With `buffer_size` 32, `watermark_every` 2 and
/// the runtime's barrier every 4 batches, an edge stage handles one to
/// three frames per source batch (its data, every 2nd batch a
/// watermark, every 4th a barrier); an edge the plan only routes
/// through (stateless queries run on the sensor) counts one per batch
/// at stage 0. Either way 0 and 3 kill it before the first barrier —
/// recovery **restores epoch 0**, the run's start, and replays from
/// batch 0 — and 11 only after batch 4's barrier has sealed epoch 1 —
/// recovery **restores that sealed epoch**. Both go through the same
/// restore; the crash cells check which epoch it took.
pub const CRASH_AFTER_FRAMES: [u64; 3] = [0, 3, 11];

/// Every entry point of the matrix.
pub fn entries() -> Vec<Entry> {
    let mut all = LOCAL.to_vec();
    all.extend(PLACED);
    all.extend([Entry::Resilient(EdgeFirst), Entry::Resilient(CloudOnly)]);
    for seed in chaos_seeds() {
        all.extend([
            Entry::PlacedChaos(EdgeFirst, seed),
            Entry::PlacedChaos(CloudOnly, seed),
        ]);
    }
    all.extend(CRASH_AFTER_FRAMES.map(Entry::Crash));
    all
}

/// Entries that run alike, for row ownership.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Group {
    Local,
    Placed,
    /// `Resilient` and `PlacedChaos`.
    Faults,
    Crash,
}

impl Entry {
    pub fn group(self) -> Group {
        match self {
            Entry::Run | Entry::Threaded | Entry::Partitioned(_) => Group::Local,
            Entry::Placed(_) => Group::Placed,
            Entry::Resilient(_) | Entry::PlacedChaos(..) => Group::Faults,
            Entry::Crash(_) => Group::Crash,
        }
    }

    /// Runs `query` into `sink` on a local environment.
    pub fn run_local(
        self,
        env: &mut StreamEnvironment,
        query: &Query,
        sink: &mut dyn Sink,
    ) -> Result<QueryMetrics> {
        match self {
            Entry::Run => env.run(query, sink),
            Entry::Threaded => env.run_threaded(query, sink),
            Entry::Partitioned(n) => {
                env.config_mut().parallelism = n;
                env.run_partitioned(query, sink)
            }
            placed => panic!("{placed:?} is not a local entry"),
        }
    }

    /// Runs `query` into `sink` on a cluster whose train 0 hosts the
    /// sensor `sensor`.
    pub fn run_placed(
        self,
        env: &mut ClusterEnvironment,
        sensor: NodeId,
        query: &Query,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        let edge = || edge_node(env.topology(), sensor);
        let (strategy, plan) = match self {
            Entry::Placed(strategy) => return env.run_placed(query, strategy, sink),
            Entry::Resilient(strategy) => (strategy, FaultPlan::seeded(1)),
            Entry::PlacedChaos(EdgeFirst, seed) => {
                (EdgeFirst, lossy_plan(seed).crash_node(edge(), 12))
            }
            Entry::PlacedChaos(strategy, seed) => (strategy, lossy_plan(seed)),
            Entry::Crash(frames) => (EdgeFirst, FaultPlan::seeded(0).crash_node(edge(), frames)),
            local => panic!("{local:?} is not a placed entry"),
        };
        env.run_placed_chaos(query, strategy, &plan, sink)
    }
}

/// Records per source poll and the columnar gate of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Config {
    pub batch: usize,
    pub columnar: ColumnarMode,
}

impl Config {
    /// The default config of the synthetic feeds.
    pub const DEFAULT: Config = Config {
        batch: 32,
        columnar: ColumnarMode::Auto,
    };
}

/// What one run delivered.
pub struct Outcome {
    /// The sink's rows in raw delivery order.
    pub rows: Vec<Record>,
    /// Sink buffers that arrived with an absent column.
    pub absent: usize,
    pub metrics: QueryMetrics,
    /// The local executor's telemetry report.
    pub report: Option<QueryReport>,
    pub cluster: Option<ClusterReport>,
}

/// Runs `query` over `feed` through `entry` at `config`.
pub fn execute(
    query: &Query,
    watermark: &WatermarkStrategy,
    feed: Feed,
    entry: Entry,
    config: Config,
) -> Result<Outcome> {
    let mut sink = CheckingSink::default();
    let (metrics, report, cluster) = if entry.group() == Group::Local {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: config.batch,
            watermark_every: feed.watermark_every(),
            columnar: config.columnar,
            parallelism: 1,
            ..EnvConfig::default()
        });
        feed.load_plugins(&mut |p| env.load_plugin(p));
        for source in feed.sources(config.batch) {
            env.add_source(feed.stream(), source, watermark.clone());
        }
        let metrics = entry.run_local(&mut env, query, &mut sink)?;
        (metrics, env.take_report(), None)
    } else {
        let trains = if feed == Feed::Fleet { 1 } else { 3 };
        let config = EnvConfig {
            buffer_size: config.batch,
            watermark_every: feed.watermark_every(),
            columnar: config.columnar,
            ..EnvConfig::default()
        };
        let (mut env, sensor) = cluster_env(feed, trains, config, watermark);
        let report = entry.run_placed(&mut env, sensor, query, &mut sink)?;
        (report.metrics.clone(), None, Some(report))
    };
    Ok(Outcome {
        rows: sink.rows,
        absent: sink.absent,
        metrics,
        report,
        cluster,
    })
}

/// One cell: a plan on a feed through an entry point, at each of its
/// configs, owned by the test that runs it.
pub struct Cell<'a> {
    pub plan: &'a Plan,
    pub feed: Feed,
    pub entry: Entry,
    /// Whether the configs are a sweep (compared against the row path,
    /// order-normalized) rather than the feed's default config.
    pub sweep: bool,
    pub configs: Vec<Config>,
    pub owner: &'static str,
}

impl Cell<'_> {
    pub fn name(&self) -> String {
        format!("{} / {:?} / {:?}", self.plan.name, self.feed, self.entry)
    }

    /// The reference config of `config`.
    fn reference(&self, config: Config) -> Config {
        if !self.sweep {
            return config;
        }
        let per_batch = self.plan.order_sensitive && self.feed.jittered();
        Config {
            batch: if per_batch {
                config.batch
            } else {
                self.feed.batch()
            },
            columnar: ColumnarMode::Off,
        }
    }
}

/// The catch-all row of a slot: it owns every cell no named row claims,
/// so a new plan runs everywhere without a new test.
fn catch_all(slot: Slot) -> &'static str {
    match slot {
        Slot::Local => "catalog_plans_match_run_in_every_local_mode",
        Slot::LocalSweep => "catalog_sweeps_match_run_in_every_local_mode",
        Slot::Placed | Slot::PlacedSweep => "catalog_plans_match_run_when_placed",
        Slot::Faults => "catalog_plans_match_run_under_chaos",
    }
}

/// Every cell of `plan`.
pub fn cells_of(plan: &Plan) -> Vec<Cell<'_>> {
    let mut cells = Vec::new();
    let default = |feed: Feed, columnar| Config {
        batch: feed.batch(),
        columnar,
    };
    let faulted = |columnar| Config {
        batch: plan.home_feed().fault_batch(),
        columnar,
    };
    for entry in entries() {
        let mut cell = |feed, sweep, configs, slot| {
            let owner = plan.owner(slot).unwrap_or_else(|| catch_all(slot));
            cells.push(Cell {
                plan,
                feed,
                entry,
                sweep,
                configs,
                owner,
            });
        };
        match entry.group() {
            Group::Local | Group::Placed => {
                let local = entry.group() == Group::Local;
                for &feed in plan.feeds {
                    let slot = if local { Slot::Local } else { Slot::Placed };
                    cell(feed, false, vec![default(feed, ColumnarMode::Auto)], slot);
                }
                // Placed entries sweep only where a row asks for it, and
                // otherwise run the sweep feeds at their default config.
                let slot = if local {
                    Slot::LocalSweep
                } else {
                    Slot::PlacedSweep
                };
                let sweeps = local || plan.owner(slot).is_some();
                for &feed in plan.sweep {
                    let mut configs = if sweeps {
                        plan.sweep_configs(feed)
                    } else {
                        Vec::new()
                    };
                    if !(plan.feeds.contains(&feed) || sweeps && plan.fails) {
                        configs.insert(0, default(feed, ColumnarMode::Auto));
                    }
                    if sweeps {
                        cell(feed, true, configs, slot);
                    } else if !configs.is_empty() {
                        cell(feed, false, configs, Slot::Placed);
                    }
                }
            }
            Group::Faults => {
                let feed = plan.home_feed();
                cell(feed, false, vec![faulted(ColumnarMode::Auto)], Slot::Faults);
            }
            Group::Crash => {
                let feed = plan.home_feed();
                for (columnar, owner) in [
                    (ColumnarMode::Auto, "failure_replanning_mid_run_equivalence"),
                    (
                        ColumnarMode::Force,
                        "batched_failure_replanning_equivalence",
                    ),
                ] {
                    cells.push(Cell {
                        plan,
                        feed,
                        entry,
                        sweep: false,
                        configs: vec![faulted(columnar)],
                        owner,
                    });
                }
            }
        }
    }
    cells
}

/// Runs every cell `owner` owns; a name that owns none fails, so a row
/// cannot silently lose its cells.
pub fn run_owned(owner: &str) {
    let plans = catalog();
    let mut references = HashMap::new();
    let mut ran = 0;
    for plan in &plans {
        for cell in cells_of(plan) {
            if cell.owner == owner {
                check(&cell, &mut references);
                ran += 1;
            }
        }
    }
    assert!(ran > 0, "{owner} owns no cell of the matrix");
}

type References = HashMap<String, Result<Outcome>>;

/// Runs every config of `cell` and compares it with `run` at the
/// config's reference; `references` caches those runs across cells.
pub fn check(cell: &Cell, references: &mut References) {
    let plan = cell.plan;
    let query = (plan.query)();
    let watermark = (plan.watermark)();
    for &config in &cell.configs {
        let name = format!("{} @ {config:?}", cell.name());
        let ref_config = cell.reference(config);
        let reference = references
            .entry(format!("{} {:?} {ref_config:?}", plan.name, cell.feed))
            .or_insert_with(|| execute(&query, &watermark, cell.feed, Entry::Run, ref_config));
        let got = execute(&query, &watermark, cell.feed, cell.entry, config);
        if plan.fails {
            // The same typed error on every path: only one check fails
            // on the fleet-with-nulls feed, so every path raises the
            // same variant.
            let want = reference.as_ref().err().unwrap_or_else(|| {
                panic!("{name}: the reference must fail");
            });
            let got = got.err().unwrap_or_else(|| panic!("{name}: ran clean"));
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(want),
                "{name}: raised {got}, the reference {want}"
            );
            continue;
        }
        let reference = reference
            .as_ref()
            .unwrap_or_else(|e| panic!("{name}: reference failed: {e}"));
        let got = got.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            reference.rows.is_empty(),
            plan.empty,
            "{name}: rows of the reference"
        );
        assert_eq!(got.absent, 0, "{name}: absent column at the sink");
        let unordered = cell.sweep
            || match cell.entry {
                Entry::PlacedChaos(..) => true,
                Entry::Partitioned(_) => plan.reorders_across_partitions,
                _ => false,
            };
        if unordered {
            let (got_rows, want) = (
                normalized(got.rows.clone()),
                normalized(reference.rows.clone()),
            );
            assert_same_rows(&got_rows, &want, &name);
        } else {
            assert_same_rows(&got.rows, &reference.rows, &name);
        }
        let (m, r) = (&got.metrics, &reference.metrics);
        assert_eq!(m.records_in, r.records_in, "{name}: records_in");
        assert_eq!(m.records_out, r.records_out, "{name}: records_out");
        assert_eq!(m.late_drops, r.late_drops, "{name}: late_drops");
        match &got.cluster {
            Some(report) => check_placed(cell, &name, report),
            None => assert_conserved(&name, &got),
        }
    }
}

/// Asserts record conservation through an instrumented chain:
/// `records_in` entering the chain equals sink records plus every drop
/// the chain accounted for, and consecutive operators telescope —
/// operator N's `records_out` is exactly operator N+1's `records_in`.
pub fn assert_conserved(name: &str, out: &Outcome) {
    let (metrics, sink_records) = (&out.metrics, out.rows.len() as u64);
    let report = out.report.as_ref().expect("telemetry enabled by default");
    assert!(!report.operators.is_empty(), "{name}: report has operators");
    let first = &report.operators[0];
    let last = report.operators.last().unwrap();
    assert_eq!(
        first.records_in, metrics.records_in,
        "{name}: chain head consumes every source record"
    );
    assert_eq!(
        last.records_out, metrics.records_out,
        "{name}: chain tail produced the delivered records"
    );
    assert_eq!(
        metrics.records_out, sink_records,
        "{name}: metrics.records_out matches the sink"
    );
    for pair in report.operators.windows(2) {
        assert_eq!(
            pair[0].records_out,
            pair[1].records_in,
            "{name}: {} out -> {} in telescopes",
            pair[0].id(),
            pair[1].id()
        );
    }
    let report_late: u64 = report.operators.iter().map(|op| op.late_drops).sum();
    assert_eq!(
        report_late, metrics.late_drops,
        "{name}: per-operator late drops sum to the aggregate"
    );
    // Exact conservation: every record entering the chain either
    // reaches the sink or is attributable to a specific operator — a
    // filter rejection (records_in - records_out on a 1:1 operator) or
    // a late drop. Stateful operators change cardinality, so the
    // general form telescopes per-operator deltas instead of assuming
    // pass-through.
    let stateless_dropped: u64 = report
        .operators
        .iter()
        .filter(|op| op.name == "filter")
        .map(|op| op.records_in - op.records_out)
        .sum();
    if report
        .operators
        .iter()
        .all(|op| matches!(op.name.as_str(), "filter" | "map"))
    {
        assert_eq!(
            metrics.records_in,
            sink_records + stateless_dropped + metrics.late_drops,
            "{name}: records_in == sink + filter-dropped + late_drops"
        );
    }
}

/// The entry's own promises: where the window ran, that faults were
/// injected, and that a crash was recovered on the right path.
fn check_placed(cell: &Cell, name: &str, report: &ClusterReport) {
    let c = &report.cluster;
    match cell.entry {
        Entry::Placed(strategy) => assert_eq!(
            c.preaggregated,
            strategy == EdgeFirst && cell.plan.splits,
            "{name}: the edge split"
        ),
        Entry::PlacedChaos(strategy, _) => {
            assert!(c.faults_injected > 0, "{name}: the plan injected nothing");
            if strategy == EdgeFirst {
                assert_eq!(
                    c.replans, 1,
                    "{name}: the crash forces one re-planning round"
                );
                assert!(c.recovery_ms > 0.0, "{name}: recovery must be timed");
            }
        }
        Entry::Crash(frames) => {
            assert_eq!(c.replans, 1, "{name}: one re-planning round");
            let trains = if cell.feed == Feed::Fleet { 1 } else { 3 };
            let (topo, sensors) = Topology::train_fleet(trains);
            let crashed = edge_node(&topo, sensors[0]);
            for pl in &report.placements {
                assert!(
                    !pl.stages.contains(&crashed),
                    "{name}: stage on the crashed node"
                );
            }
            if cell.feed.watermark_every() == 2 {
                assert_eq!(
                    sealed_before_crash(report),
                    frames == 11,
                    "{name}: crash at frame {frames} took the wrong recovery path"
                );
            }
        }
        _ => {}
    }
}

/// The matrix, one line per cell: plan, feed, entry, configs and the
/// row (test) that owns it. Fails if a plan has no cell under some
/// entry — every plan runs under every entry, and one that cannot is a
/// finding — or if a cell's owner is no row of the suites.
pub fn list_every_cell() -> usize {
    const SUITES: [&str; 4] = [
        include_str!("../engine_equivalence.rs"),
        include_str!("../cluster_equivalence.rs"),
        include_str!("../chaos_equivalence.rs"),
        include_str!("../read_sets.rs"),
    ];
    let mut lines = 0;
    for plan in &catalog() {
        let cells = cells_of(plan);
        for entry in entries() {
            assert!(
                cells.iter().any(|c| c.entry == entry),
                "{}: no cell under {entry:?}",
                plan.name
            );
        }
        for cell in &cells {
            let configs: Vec<String> = cell
                .configs
                .iter()
                .map(|c| format!("{}/{:?}", c.batch, c.columnar))
                .collect();
            println!(
                "{}\t{:?}\t{:?}\t{}\t{}",
                plan.name,
                cell.feed,
                cell.entry,
                configs.join(","),
                cell.owner
            );
            assert!(
                SUITES.iter().any(|s| s.contains(cell.owner)),
                "{}: owner {} is no row of the suites",
                cell.name(),
                cell.owner
            );
            lines += 1;
        }
    }
    lines
}
