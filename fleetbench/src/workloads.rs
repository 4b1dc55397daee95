//! What the benchmark runs: the fixed engine settings, the two seeded
//! datasets, the ten named queries and the four workloads built from
//! them. Later issues refer to every name in this file.

use meos::time::TimeDelta;
use nebula::prelude::*;
use nebulameos::{DemoContext, MeosPlugin};
use sncb::{FleetConfig, FleetSimulator, RailNetwork, WeatherField};
use std::sync::Arc;

/// Default `--seed`: the one every number in the README was taken on.
pub const DEFAULT_SEED: u64 = 20_250_622;
/// The held-out seed a later performance claim must also hold on.
pub const HELD_OUT_SEED: u64 = 7_919;

/// Records per source poll (`EnvConfig::buffer_size`).
pub const BUFFER_SIZE: usize = 1024;
/// A watermark every this many source batches.
pub const WATERMARK_EVERY: u64 = 4;
/// Frames per inter-thread channel.
pub const CHANNEL_CAPACITY: usize = 8;
/// Workers of `run_partitioned`: the two cores of the reference host,
/// never `EnvConfig::default()`'s host-dependent value.
pub const PARALLELISM: usize = 2;
/// Bounded out-of-orderness slack on `ts`.
pub const SLACK_US: i64 = 5 * MICROS_PER_SEC;
/// Reorder window of the jittered input: two engine buffers, so records
/// move across batch boundaries by up to about 20 s of `fleet24` event
/// time against 5 s of slack and the late-record path runs (Q2 drops
/// about 1 400 records, `sliding_profile` about 1 100). A window of one
/// buffer only shuffles inside each batch, and no record is ever late.
pub const JITTER_WINDOW: usize = 2 * BUFFER_SIZE;
/// Open-loop rate of the paced phase, events per second: ten times the
/// paper's 20 Ke/s per-query rate.
pub const PACED_RATE: f64 = 200_000.0;

/// The paper's reported ingest rate per query, in thousands of events
/// per second ("Table 1", §3.1–§3.2), indexed by query number − 1.
pub const PAPER_KEPS: [f64; 8] = [20.0, 20.0, 20.0, 20.0, 8.0, 32.0, 10.0, 20.0];

/// The ten named queries, in the order their `query.<name>.keps`
/// metrics are listed.
pub const QUERY_NAMES: [&str; 10] = [
    "q1",
    "q2",
    "q3",
    "q4",
    "q5",
    "q6",
    "q7",
    "q8",
    "fleet_profile",
    "sliding_profile",
];

/// Builds a named query with the demo parameterisation.
pub fn named_query(name: &str) -> Option<Query> {
    Some(match name {
        "q1" => nebulameos::q1_alert_filtering(160.0),
        "q2" => nebulameos::q2_noise_monitoring(80.0),
        "q3" => nebulameos::q3_dynamic_speed_limit(),
        "q4" => nebulameos::q4_weather_speed_zones(160.0),
        "q5" => nebulameos::q5_battery_monitoring(),
        "q6" => nebulameos::q6_heavy_load(500, 30),
        "q7" => nebulameos::q7_unscheduled_stops(120),
        "q8" => nebulameos::q8_brake_monitoring(30),
        // Per-train one-minute tumbling profile: the partitionable
        // query the repository's scaling measurements have always used.
        "fleet_profile" => Query::from(nebulameos::FLEET_STREAM).window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_speed", AggSpec::Avg(col("speed_kmh"))),
                WindowAgg::new("max_passengers", AggSpec::Max(col("passengers"))),
            ],
        ),
        // 64 s window sliding by 4 s: every record lies in 16 windows.
        "sliding_profile" => Query::from(nebulameos::FLEET_STREAM).window(
            vec![("train", col("train_id"))],
            WindowSpec::Sliding {
                size: 64 * MICROS_PER_SEC,
                slide: 4 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_speed", AggSpec::Avg(col("speed_kmh"))),
                WindowAgg::new("max_noise", AggSpec::Max(col("noise_db"))),
            ],
        ),
        _ => return None,
    })
}

/// How a cell is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `StreamEnvironment::run`: one thread.
    Run,
    /// `StreamEnvironment::run_threaded`: the source on its own thread.
    /// No workload runs in it; the traced pass compares it with `run`.
    Threaded,
    /// `StreamEnvironment::run_partitioned` at [`PARALLELISM`].
    Partitioned,
    /// `ClusterEnvironment::run_placed` on `Topology::train_fleet(1)`.
    Placed(PlacementStrategy),
}

impl Mode {
    /// Short label used in cell names.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Threaded => "threaded",
            Mode::Partitioned => "par2",
            Mode::Placed(PlacementStrategy::EdgeFirst) => "edge_first",
            Mode::Placed(PlacementStrategy::CloudOnly) => "cloud_only",
        }
    }
}

/// One query in one execution mode: the unit that is run and checked.
pub struct Cell {
    /// Name of the query (one of [`QUERY_NAMES`]).
    pub query_name: &'static str,
    /// The query.
    pub query: Query,
    /// How it runs.
    pub mode: Mode,
}

impl Cell {
    /// `<query>/<mode>`, unique within a workload.
    pub fn label(&self) -> String {
        format!("{}/{}", self.query_name, self.mode.label())
    }
}

/// The two datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 24 trains × 1 h × 250 ms = 345 600 events.
    Fleet24,
    /// 48 trains × 30 min × 250 ms = 345 600 events, the ids of trains
    /// 0–19 rewritten to 0: one hot key with about 42 % of the events
    /// and 28 cold keys.
    Fleet48Skew,
}

impl DatasetKind {
    /// The dataset's name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Fleet24 => "fleet24",
            DatasetKind::Fleet48Skew => "fleet48_skew",
        }
    }

    /// Trains and simulated minutes.
    fn shape(&self) -> (usize, i64) {
        match self {
            DatasetKind::Fleet24 => (24, 60),
            DatasetKind::Fleet48Skew => (48, 30),
        }
    }
}

/// A generated dataset with the context its queries need.
pub struct Dataset {
    /// The rail network behind the zones.
    pub net: Arc<RailNetwork>,
    /// The weather field Q4 reads.
    pub weather: Arc<WeatherField>,
    /// The events, in event-time order.
    pub records: Vec<Record>,
    /// Events sharing one timestamp (one per train).
    pub events_per_tick: usize,
}

impl Dataset {
    /// Generates the dataset from `seed`; the same seed gives the same
    /// records.
    pub fn generate(kind: DatasetKind, seed: u64) -> Dataset {
        Dataset::with_minutes(kind, seed, kind.shape().1)
    }

    /// The dataset cut to `minutes` of simulated time (the harness's own
    /// tests run on two).
    pub fn with_minutes(kind: DatasetKind, seed: u64, minutes: i64) -> Dataset {
        let events_per_tick = kind.shape().0;
        let sim = FleetSimulator::new(FleetConfig {
            num_trains: events_per_tick,
            tick: TimeDelta::from_millis(250),
            duration: TimeDelta::from_minutes(minutes),
            seed,
            ..FleetConfig::demo_hour()
        });
        let net = sim.network();
        let weather = Arc::new(sim.weather().clone());
        let mut records = sim.into_records();
        if kind == DatasetKind::Fleet48Skew {
            for rec in &mut records {
                let id = rec.get_mut(1).expect("fleet schema has train_id");
                if id.as_int().is_some_and(|t| t < 20) {
                    *id = Value::Int(0);
                }
            }
        }
        Dataset {
            net,
            weather,
            records,
            events_per_tick,
        }
    }

    fn load_plugins(&self, load: &mut dyn FnMut(&dyn Plugin) -> Result<()>) -> Result<()> {
        load(&MeosPlugin)?;
        load(&DemoContext::new(sncb::demo_zones(&self.net)).with_weather(self.weather.clone()))
    }

    /// A function registry with the MEOS and demo-context plugins.
    pub fn registry(&self) -> Result<FunctionRegistry> {
        let mut reg = FunctionRegistry::with_builtins();
        self.load_plugins(&mut |p| reg.load_plugin(p))?;
        Ok(reg)
    }

    /// A local environment with the fixed settings, reading `source`.
    pub fn local_env(
        &self,
        source: Box<dyn Source>,
        columnar: ColumnarMode,
        telemetry: bool,
    ) -> Result<StreamEnvironment> {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: BUFFER_SIZE,
            watermark_every: WATERMARK_EVERY,
            channel_capacity: CHANNEL_CAPACITY,
            parallelism: PARALLELISM,
            columnar,
            telemetry: telemetry_config(telemetry),
            ..EnvConfig::default()
        });
        self.load_plugins(&mut |p| env.load_plugin(p))?;
        env.add_source(nebulameos::FLEET_STREAM, source, watermark_strategy());
        Ok(env)
    }

    /// A cluster environment over one sensors → edge → cloud train with
    /// the fixed settings and the MEOS wire codecs, hosting `source`.
    pub fn cluster_env(
        &self,
        source: Box<dyn Source>,
        telemetry: bool,
    ) -> Result<ClusterEnvironment> {
        let (topo, sensors) = Topology::train_fleet(1);
        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: BUFFER_SIZE,
                watermark_every: WATERMARK_EVERY,
                channel_capacity: CHANNEL_CAPACITY,
                columnar: ColumnarMode::Auto,
                telemetry: telemetry_config(telemetry),
                ..ClusterConfig::default()
            },
        );
        self.load_plugins(&mut |p| env.load_plugin(p))?;
        nebulameos::register_meos_codecs(env.wire_registry_mut());
        env.add_source(
            nebulameos::FLEET_STREAM,
            sensors[0],
            source,
            watermark_strategy(),
        );
        Ok(env)
    }
}

fn telemetry_config(enabled: bool) -> TelemetryConfig {
    TelemetryConfig {
        enabled,
        ..TelemetryConfig::default()
    }
}

/// `BoundedOutOfOrder { ts, 5 s }`, the strategy of every run.
fn watermark_strategy() -> WatermarkStrategy {
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: SLACK_US,
    }
}

/// One workload: a bundle of cells over one dataset.
pub struct Workload {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// Its dataset.
    pub dataset: DatasetKind,
    /// Whether the input passes through `JitterSource`.
    pub jitter: bool,
    /// The bundle.
    pub cells: Vec<Cell>,
}

/// The workload names, in the order of `BENCHMARK.json`.
pub const WORKLOAD_NAMES: [&str; 4] = [
    "geofence_local",
    "stateful_local",
    "partitioned_skew",
    "edge_cloud",
];

fn cells(modes: &[Mode], queries: &[&'static str]) -> Vec<Cell> {
    queries
        .iter()
        .flat_map(|name| {
            modes.iter().map(|mode| Cell {
                query_name: name,
                query: named_query(name).expect("bundles name known queries"),
                mode: *mode,
            })
        })
        .collect()
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        use PlacementStrategy::{CloudOnly, EdgeFirst};
        Some(match name {
            // Stateless filter/map chains: the MEOS zone and weather
            // predicates, expression evaluation and the record→column
            // transposition. The only queries on the columnar path.
            "geofence_local" => Workload {
                name: "geofence_local",
                dataset: DatasetKind::Fleet24,
                jitter: false,
                cells: cells(&[Mode::Run], &["q1", "q3", "q4"]),
            },
            // Windows, threshold windows and CEP on the row path, fed
            // out of order far enough that records arrive late.
            "stateful_local" => Workload {
                name: "stateful_local",
                dataset: DatasetKind::Fleet24,
                jitter: true,
                cells: cells(
                    &[Mode::Run],
                    &["q2", "q5", "q6", "q7", "q8", "sliding_profile"],
                ),
            },
            // Routing, work stealing, the emission ledger and progress
            // tracking under one hot key.
            "partitioned_skew" => Workload {
                name: "partitioned_skew",
                dataset: DatasetKind::Fleet48Skew,
                jitter: false,
                cells: cells(&[Mode::Partitioned], &["fleet_profile", "q2", "q6"]),
            },
            // The paper's deployment: wire encode → link → decode, edge
            // pre-aggregation and the cloud fan-in, under both
            // placements.
            "edge_cloud" => Workload {
                name: "edge_cloud",
                dataset: DatasetKind::Fleet24,
                jitter: false,
                cells: cells(
                    &[Mode::Placed(EdgeFirst), Mode::Placed(CloudOnly)],
                    &["fleet_profile", "q1", "q2"],
                ),
            },
            _ => return None,
        })
    }

    /// The distinct queries of the bundle, in bundle order.
    pub fn queries(&self) -> Vec<(&'static str, Query)> {
        let mut seen: Vec<&'static str> = Vec::new();
        self.cells
            .iter()
            .filter(|c| {
                let new = !seen.contains(&c.query_name);
                seen.push(c.query_name);
                new
            })
            .map(|c| (c.query_name, c.query.clone()))
            .collect()
    }

    /// A source replaying `records` the way this workload feeds them: in
    /// order, or through `JitterSource` seeded with `seed`.
    pub fn source(&self, records: Vec<Record>, seed: u64) -> Box<dyn Source> {
        self.wrap(VecSource::new(sncb::fleet_schema(), records), seed)
    }

    /// Applies the workload's input disorder to any source.
    pub fn wrap<S: Source + 'static>(&self, inner: S, seed: u64) -> Box<dyn Source> {
        if self.jitter {
            Box::new(JitterSource::new(inner, JITTER_WINDOW, seed))
        } else {
            Box::new(inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundles_name_known_queries_and_distinct_cells() {
        for name in WORKLOAD_NAMES {
            let w = Workload::by_name(name).expect("listed workloads exist");
            assert_eq!(w.name, name);
            let mut labels: Vec<String> = w.cells.iter().map(Cell::label).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), w.cells.len(), "{name}: cell labels repeat");
            for (query, _) in w.queries() {
                assert!(QUERY_NAMES.contains(&query), "{name}: {query}");
            }
        }
        assert!(Workload::by_name("nope").is_none());
        assert!(named_query("q9").is_none());
    }

    #[test]
    fn skewed_dataset_has_one_hot_key() {
        let ds = Dataset::with_minutes(DatasetKind::Fleet48Skew, DEFAULT_SEED, 1);
        assert_eq!(ds.records.len(), 48 * 4 * 60);
        let hot = ds
            .records
            .iter()
            .filter(|r| r.get(1).and_then(Value::as_int) == Some(0))
            .count();
        assert_eq!(hot * 48, ds.records.len() * 20, "trains 0-19 share id 0");
        let mut ids: Vec<i64> = ds
            .records
            .iter()
            .filter_map(|r| r.get(1).and_then(Value::as_int))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 29, "one hot key and 28 cold ones");
    }
}
