//! The one test matrix behind the equivalence and failure suites. Every
//! suite states the house invariant — the same results in every
//! execution mode — through this module:
//!
//! - [`catalog`]: every plan shape, once;
//! - [`Feed`]: the streams they run on;
//! - [`matrix`]: the entry points ([`matrix::Entry`]), `run` as the one
//!   reference, and the cell checks;
//! - [`failures`]: the failure table over the same entry points.
//!
//! A test in `tests/*.rs` is either one row of the matrix (it runs the
//! cells the catalog assigns to it) or a hand-written check built from
//! these fixtures. A new plan goes in [`catalog::catalog`], a new feed
//! in [`Feed`], a new entry point in [`matrix::Entry`]: every cell they
//! add runs without touching a suite.

#![allow(dead_code)]

pub mod catalog;
pub mod failures;
pub mod matrix;

/// One `#[test]` per row name, each running the matrix cells the
/// catalog gives that row.
#[allow(unused_macros)]
macro_rules! matrix_rows {
    ($($row:ident),* $(,)?) => {
        $(
            #[test]
            fn $row() {
                $crate::common::matrix::run_owned(stringify!($row));
            }
        )*
    };
}

use nebula::prelude::*;
use nebulameos::{DemoContext, DemoZones, MeosPlugin, WeatherProvider};
use sncb::{FleetConfig, FleetSimulator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train", DataType::Int),
        ("speed", DataType::Float),
        ("load", DataType::Int),
    ])
}

/// A deterministic 600-record stream: 5 trains, speeds cycling 0..80,
/// passenger loads cycling 0..200.
pub fn records() -> Vec<Record> {
    records_n(600)
}

/// The first `n` records of that stream's pattern.
pub fn records_n(n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            Record::new(vec![
                Value::Timestamp(i * MICROS_PER_SEC),
                Value::Int(i % 5),
                Value::Float(((i * 7) % 80) as f64),
                Value::Int((i * 13) % 200),
            ])
        })
        .collect()
}

/// Event time on `ts` with `secs` seconds of slack.
pub fn bounded(secs: i64) -> WatermarkStrategy {
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: secs * MICROS_PER_SEC,
    }
}

/// Slack far above the jitter window (8 records * 1 s), so no record is
/// ever late and jittered results stay complete.
pub fn generous_watermark() -> WatermarkStrategy {
    bounded(60)
}

/// The streams a plan runs on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Feed {
    /// [`records`] in order.
    InOrder,
    /// [`records`] shuffled within a window of 8.
    Jittered(u64),
    /// Jittered within a window of twice the poll size — the benchmark's
    /// shape: every emitted batch mixes records of two source batches,
    /// and records wait across batch boundaries.
    JitteredTwoPolls(u64),
    /// Jittered within a window of 64 (seed 7): displacements far past
    /// any tight slack, so records outlive all their windows.
    Wild,
    /// The simulated fleet stream (stream `fleet`, the twelve-field
    /// fleet schema, the demo's zone and weather functions loaded) with
    /// nulls sprinkled into `ts`, `pos` and `speed_kmh` — what the
    /// simulator itself never emits.
    FleetWithNulls,
    /// Thirty minutes of the simulated fleet as the demo environments
    /// host it (their defaults: polls of 1 024, a watermark every 4th).
    Fleet,
    /// [`records`] split over the sensors of three trains, train `t`
    /// hosting the records with `train % 3 == t`.
    MultiSource,
}

impl Feed {
    /// The stream name its queries read from.
    pub fn stream(self) -> &'static str {
        match self {
            Feed::FleetWithNulls | Feed::Fleet => nebulameos::FLEET_STREAM,
            _ => "s",
        }
    }

    /// Records per source poll of the feed's default cells.
    pub fn batch(self) -> usize {
        if self == Feed::Fleet {
            1024
        } else {
            32
        }
    }

    /// Records per poll of its fault and crash cells: enough polls for
    /// every crash frame count to trip, and on the synthetic feeds the
    /// polls [`matrix::CRASH_AFTER_FRAMES`] counts in. The demo fleet's
    /// 10 800 records make 43 polls of 256.
    pub fn fault_batch(self) -> usize {
        if self == Feed::Fleet {
            256
        } else {
            32
        }
    }

    pub fn watermark_every(self) -> u64 {
        if self == Feed::Fleet {
            4
        } else {
            2
        }
    }

    /// The batch sizes of its batch-size × columnar-mode sweep: for the
    /// synthetic feeds degenerate single-record buffers, a prime that
    /// never divides the stream, the watermark-cadence default, and one
    /// larger than the whole stream.
    pub fn sweep_batches(self) -> &'static [usize] {
        if self == Feed::Fleet {
            &[1024]
        } else {
            &[1, 7, 64, 1024]
        }
    }

    /// Whether arrival order depends on the poll size: the jitter
    /// buffer drains per poll.
    pub fn jittered(self) -> bool {
        matches!(
            self,
            Feed::Jittered(_) | Feed::JitteredTwoPolls(_) | Feed::Wild
        )
    }

    fn is_fleet(self) -> bool {
        matches!(self, Feed::FleetWithNulls | Feed::Fleet)
    }

    /// The feed's source(s), polled `batch` records at a time: one per
    /// train for [`Feed::MultiSource`], one otherwise.
    pub fn sources(self, batch: usize) -> Vec<Box<dyn Source>> {
        let synthetic = || VecSource::new(schema(), records());
        match self {
            Feed::InOrder => vec![Box::new(synthetic())],
            Feed::Jittered(seed) => vec![Box::new(JitterSource::new(synthetic(), 8, seed))],
            Feed::JitteredTwoPolls(seed) => {
                vec![Box::new(JitterSource::new(synthetic(), 2 * batch, seed))]
            }
            Feed::Wild => vec![Box::new(JitterSource::new(synthetic(), 64, 7))],
            Feed::FleetWithNulls | Feed::Fleet => vec![Box::new(VecSource::new(
                sncb::fleet_schema(),
                fleet(self).records.clone(),
            ))],
            Feed::MultiSource => train_slices(&records(), 3)
                .into_iter()
                .map(|slice| Box::new(VecSource::new(schema(), slice)) as Box<dyn Source>)
                .collect(),
        }
    }

    /// Loads what the feed's queries bind against: the test functions
    /// everywhere, the MEOS plugin and the demo's zones and weather on
    /// the fleet feeds.
    pub fn load_plugins(self, load: &mut dyn FnMut(&dyn Plugin) -> Result<()>) {
        load(&TestFunctions).unwrap();
        if self.is_fleet() {
            let f = fleet(self);
            load(&MeosPlugin).unwrap();
            load(&DemoContext::new(f.zones.clone()).with_weather(f.weather.clone())).unwrap();
        }
        if self == Feed::FleetWithNulls {
            load(&NullTolerantPositions).unwrap();
        }
    }
}

/// `records` split by `train % trains`, one slice per train.
pub fn train_slices(records: &[Record], trains: usize) -> Vec<Vec<Record>> {
    (0..trains)
        .map(|t| {
            records
                .iter()
                .filter(|r| r.get(1).and_then(Value::as_int).unwrap() as usize % trains == t)
                .cloned()
                .collect()
        })
        .collect()
}

/// A simulated fleet stream and the context its queries bind against,
/// built once per feed.
pub struct FleetData {
    pub records: Vec<Record>,
    pub zones: DemoZones,
    pub weather: Arc<dyn WeatherProvider>,
}

pub fn fleet(feed: Feed) -> &'static FleetData {
    static NULLS: OnceLock<FleetData> = OnceLock::new();
    static DEMO: OnceLock<FleetData> = OnceLock::new();
    let simulate = |minutes: i64| {
        let sim = FleetSimulator::new(FleetConfig::test_minutes(minutes));
        let zones = sncb::demo_zones(&sim.network());
        let weather = Arc::new(sim.weather().clone());
        FleetData {
            records: sim.into_records(),
            zones,
            weather,
        }
    };
    if feed == Feed::Fleet {
        return DEMO.get_or_init(|| simulate(30));
    }
    NULLS.get_or_init(|| {
        let mut data = simulate(10);
        // Nulls at co-prime strides, so they land alone, in pairs and
        // all three in one record, first at row 0 (a leading null).
        let (ts, pos, speed) = (0, 2, 3);
        for (i, rec) in data.records.iter_mut().enumerate() {
            for (col, stride) in [(ts, 11), (pos, 7), (speed, 5)] {
                if i % stride == 0 {
                    *rec.get_mut(col).unwrap() = Value::Null;
                }
            }
        }
        data
    })
}

/// Makes the demo's position functions answer null for a null position
/// instead of failing the run, so records with a null `pos` flow through
/// Q1/Q3/Q4 and every expression downstream sees the null.
struct NullTolerantPositions;

impl Plugin for NullTolerantPositions {
    fn name(&self) -> &str {
        "null-tolerant-positions"
    }

    fn register(&self, reg: &mut FunctionRegistry) -> Result<()> {
        for name in ["in_maintenance", "risk_speed_limit", "weather_speed_factor"] {
            let inner = reg.get(name).expect("demo context loaded first");
            let types = [DataType::Point, DataType::Timestamp];
            let arity = inner.min_args();
            let ret = inner.return_type(&types[..arity])?;
            reg.register_or_replace(ClosureFunction::new(name, arity, ret, move |args| {
                if args[0].is_null() {
                    Ok(Value::Null)
                } else {
                    inner.invoke(args)
                }
            }));
        }
        Ok(())
    }
}

/// The test functions every feed loads:
///
/// - `fast_or_fail(speed)`: true for a speed above 60, an evaluation
///   error for any other row. Behind `speed > 60 AND ...` it only ever
///   sees rows the left side lets through, so it errors exactly where
///   the reference short-circuits;
/// - `heavy_load(load)`: a plugin function with no columnar kernel —
///   the shape of the paper's zone predicates (`in_noise_zone(pos)`),
///   which a columnar filter or map evaluates row by row inside its
///   batch.
struct TestFunctions;

impl Plugin for TestFunctions {
    fn name(&self) -> &str {
        "test-functions"
    }

    fn register(&self, reg: &mut FunctionRegistry) -> Result<()> {
        reg.register_or_replace(ClosureFunction::new(
            "fast_or_fail",
            1,
            DataType::Bool,
            |args| match args[0].as_float() {
                Some(speed) if speed > 60.0 => Ok(Value::Bool(true)),
                _ => Err(NebulaError::Eval(format!(
                    "fast_or_fail evaluated on {}",
                    args[0]
                ))),
            },
        ));
        reg.register_or_replace(ClosureFunction::new(
            "heavy_load",
            1,
            DataType::Bool,
            |args| {
                Ok(match args[0].as_int() {
                    Some(load) => Value::Bool(load >= 120),
                    None => Value::Null,
                })
            },
        ));
        Ok(())
    }
}

/// A plugin operator: stateless record expansion via [`FlatMapOp`],
/// entering the plan through [`OperatorFactory`] like any external
/// extension. Its state is opaque, so it routes `Single` and runs whole
/// at its placed node.
pub struct DuplicateHighSpeed;

impl OperatorFactory for DuplicateHighSpeed {
    fn name(&self) -> &str {
        "duplicate_high_speed"
    }

    fn create(&self, input: SchemaRef, _registry: &FunctionRegistry) -> Result<Box<dyn Operator>> {
        let speed_col = input
            .index_of("speed")
            .ok_or_else(|| NebulaError::Plan("needs 'speed'".into()))?;
        Ok(Box::new(FlatMapOp::new(
            "duplicate_high_speed",
            input,
            move |rec, out| {
                out.push(rec.clone());
                if rec
                    .get(speed_col)
                    .and_then(Value::as_float)
                    .is_some_and(|s| s > 70.0)
                {
                    out.push(rec.clone());
                }
                Ok(())
            },
        )))
    }
}

/// A plugin operator that forwards every record unchanged.
pub struct Passthrough;

impl OperatorFactory for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn create(&self, input: SchemaRef, _registry: &FunctionRegistry) -> Result<Box<dyn Operator>> {
        Ok(Box::new(FlatMapOp::new(
            "passthrough",
            input,
            |rec, out| {
                out.push(rec.clone());
                Ok(())
            },
        )))
    }
}

/// A plugin aggregate that does not opt into the partial contract:
/// `splittable()` stays false, so its window must run whole on one node.
pub struct OpaqueCountAgg;

impl AggregatorFactory for OpaqueCountAgg {
    fn output_type(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<DataType> {
        Ok(DataType::Int)
    }

    fn create(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<Box<dyn Aggregator>> {
        struct Acc(i64);
        impl Aggregator for Acc {
            fn update(&mut self, _row: Row<'_>) -> Result<()> {
                self.0 += 1;
                Ok(())
            }
            fn partial(&self) -> Result<Vec<Value>> {
                Ok(vec![Value::Int(self.0)])
            }
            fn merge_partial(&mut self, partial: &[Value]) -> Result<()> {
                self.0 += partial.first().and_then(Value::as_int).unwrap_or(0);
                Ok(())
            }
            fn finish(&mut self) -> Result<Value> {
                Ok(Value::Int(self.0))
            }
        }
        Ok(Box::new(Acc(0)))
    }
}

/// A `VecSource` that publishes how many times it has been polled — a
/// logical clock a sink can read instead of the wall clock. Crash
/// recovery replays from the engine's own log, so a poll is counted
/// once however often its batch is re-run.
pub struct ClockedSource {
    pub inner: VecSource,
    pub polls: Arc<AtomicU64>,
}

impl ClockedSource {
    /// `records` behind a fresh clock, and the clock.
    pub fn boxed(records: Vec<Record>) -> (Box<dyn Source>, Arc<AtomicU64>) {
        let polls = Arc::new(AtomicU64::new(0));
        let source = ClockedSource {
            inner: VecSource::new(schema(), records),
            polls: Arc::clone(&polls),
        };
        (Box::new(source), polls)
    }
}

impl Source for ClockedSource {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        self.polls.fetch_add(1, Ordering::SeqCst);
        self.inner.poll(max)
    }
}

/// Keeps every row it receives in raw delivery order and counts the
/// columnar buffers that arrived with an absent column (which `deliver`
/// also debug-asserts).
#[derive(Default)]
pub struct CheckingSink {
    pub rows: Vec<Record>,
    pub absent: usize,
}

impl Sink for CheckingSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.rows.extend_from_slice(buf.records());
        Ok(())
    }

    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        if buf.columns().iter().any(Column::is_absent) {
            self.absent += 1;
        }
        self.consume(&buf.to_record_buffer())
    }
}

/// Canonical order, for comparisons across executions that may differ
/// in interleaving.
pub fn normalized(mut recs: Vec<Record>) -> Vec<Record> {
    normalize_records(&mut recs);
    recs
}

/// Asserts `got` equals `reference` row for row, both as values (opaque
/// payloads compare by content; NaN matches NaN) and as canonical bytes
/// (each value's type tag and exact bits).
pub fn assert_same_rows(got: &[Record], reference: &[Record], cell: &str) {
    let same = |a: &Value, b: &Value| {
        a == b || a.as_float().is_some_and(f64::is_nan) && b.as_float().is_some_and(f64::is_nan)
    };
    let bytes_of = |recs: &[Record]| recs.iter().map(record_sort_key).collect::<Vec<_>>();
    assert_eq!(
        bytes_of(got),
        bytes_of(reference),
        "{cell} is not byte-identical to the reference"
    );
    let values_match = got.iter().zip(reference).all(|(g, r)| {
        g.len() == r.len() && g.values().iter().zip(r.values()).all(|(a, b)| same(a, b))
    });
    assert!(values_match, "{cell} diverges from the reference");
}

/// The rows whose `train_col` holds `train`, in the order given.
pub fn rows_of_train(recs: &[Record], train_col: usize, train: i64) -> Vec<Record> {
    recs.iter()
        .filter(|r| r.get(train_col).and_then(Value::as_int) == Some(train))
        .cloned()
        .collect()
}

/// The edge box of the train `sensor` belongs to — the box failure
/// cells kill mid-run.
pub fn edge_node(topo: &Topology, sensor: NodeId) -> NodeId {
    topo.first_ancestor_of_kind(sensor, NodeKind::Edge)
        .expect("edge exists")
}

/// Whether the cloud sealed a checkpoint before the crash, so recovery
/// restored it; otherwise it restored epoch 0, the run's start, which
/// emits no `CheckpointSealed` event.
pub fn sealed_before_crash(report: &ClusterReport) -> bool {
    let events = &report.telemetry.events;
    let crash = events
        .iter()
        .position(|e| e.kind == TraceKind::NodeDown)
        .expect("the crash is in the trace");
    events[..crash]
        .iter()
        .any(|e| e.kind == TraceKind::CheckpointSealed)
}

/// The headline fault schedule: ≥5% drops, ≥2% duplicates, plus
/// corruption and reordering, seeded for determinism.
pub fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drop_frames(0.08)
        .duplicate_frames(0.04)
        .reorder_frames(0.03)
        .corrupt_frames(0.03)
}

/// Seeds of the chaos cells. `NEBULA_CHAOS_SEED` overrides them so CI
/// can soak the suite across distinct fault schedules without a code
/// change.
pub fn chaos_seeds() -> Vec<u64> {
    match std::env::var("NEBULA_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("NEBULA_CHAOS_SEED must be a u64")],
        Err(_) => vec![3, 41],
    }
}

/// A `train_fleet(trains)` cluster at `config` with `feed` hosted on
/// its sensors (each train its slice for [`Feed::MultiSource`], train 0
/// otherwise) and the feed's functions loaded. Returns train 0's sensor.
pub fn cluster_env(
    feed: Feed,
    trains: usize,
    config: EnvConfig,
    watermark: &WatermarkStrategy,
) -> (ClusterEnvironment, NodeId) {
    let (topo, sensors) = Topology::train_fleet(trains);
    let mut env = ClusterEnvironment::with_config(topo, config);
    feed.load_plugins(&mut |p| env.load_plugin(p));
    if feed.is_fleet() {
        nebulameos::register_meos_codecs(env.wire_registry_mut());
    }
    for (sensor, source) in sensors
        .iter()
        .zip(feed.sources(env.config_mut().buffer_size))
    {
        env.add_source(feed.stream(), *sensor, source, watermark.clone());
    }
    (env, sensors[0])
}

/// The default cluster config of the synthetic feeds.
pub fn cluster_config() -> EnvConfig {
    EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    }
}

/// `feed`'s one source, polled `batch` records at a time.
pub fn source(feed: Feed, batch: usize) -> Box<dyn Source> {
    feed.sources(batch).remove(0)
}
