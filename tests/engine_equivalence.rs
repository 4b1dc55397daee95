//! Differential engine-equivalence suite: every query shape the engine
//! supports (filter, map, map_extend, tumbling/sliding/threshold window,
//! CEP, plugin operator, and composites) is run through all three
//! execution modes — `run`, `run_threaded`, and the work-stealing
//! `run_partitioned` at parallelism 1, 2 and 4 — over both an in-order
//! `VecSource` and a seeded out-of-order `JitterSource`.
//! Order-normalized results and the `records_in` / `records_out`
//! counters must agree exactly across every mode: the parallel executor
//! is only correct if it is observationally identical to the
//! single-threaded reference loop. The partitioned executor completes
//! tasks out of order and releases output in frontier order through its
//! emission ledger, with no post-hoc global sort — so beyond normalized
//! equality, its *raw* delivery order is pinned to the sync run's.

use nebula::prelude::*;
use nebulameos::{DemoContext, DemoZones, MeosPlugin, WeatherProvider};
use sncb::{FleetConfig, FleetSimulator};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train", DataType::Int),
        ("speed", DataType::Float),
        ("load", DataType::Int),
    ])
}

/// A deterministic 600-record stream: 5 trains, speeds cycling 0..80,
/// passenger loads cycling 0..200.
fn records() -> Vec<Record> {
    (0..600)
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

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    Sync,
    Threaded,
    Partitioned(usize),
}

const ALL_MODES: [Mode; 5] = [
    Mode::Sync,
    Mode::Threaded,
    Mode::Partitioned(1),
    Mode::Partitioned(2),
    Mode::Partitioned(4),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Feed {
    InOrder,
    Jittered(u64),
    /// Jittered within a window of twice the poll size — the benchmark's
    /// shape: every emitted batch mixes records of two source batches,
    /// and records wait across batch boundaries.
    JitteredTwoPolls(u64),
    /// The simulated fleet stream (stream `fleet`, the twelve-field
    /// fleet schema, the demo's zone and weather functions loaded) with
    /// nulls sprinkled into `ts`, `pos` and `speed_kmh` — what the
    /// simulator itself never emits.
    FleetWithNulls,
}

/// `feed`'s source, polled `buffer_size` records at a time.
fn source(feed: Feed, buffer_size: usize) -> Box<dyn Source> {
    let inner = VecSource::new(schema(), records());
    match feed {
        Feed::InOrder => Box::new(inner),
        Feed::Jittered(seed) => Box::new(JitterSource::new(inner, 8, seed)),
        Feed::JitteredTwoPolls(seed) => Box::new(JitterSource::new(inner, 2 * buffer_size, seed)),
        Feed::FleetWithNulls => Box::new(VecSource::new(
            sncb::fleet_schema(),
            fleet_fixture().records.clone(),
        )),
    }
}

/// The fleet stream and the context its queries bind against, built
/// once.
struct FleetFixture {
    records: Vec<Record>,
    zones: DemoZones,
    weather: Arc<dyn WeatherProvider>,
}

fn fleet_fixture() -> &'static FleetFixture {
    static FIXTURE: OnceLock<FleetFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let sim = FleetSimulator::new(FleetConfig::test_minutes(10));
        let zones = sncb::demo_zones(&sim.network());
        let weather = Arc::new(sim.weather().clone());
        // Nulls at co-prime strides, so they land alone, in pairs and
        // all three in one record, first at row 0 (a leading null).
        let (ts, pos, speed) = (0, 2, 3);
        let mut records = sim.into_records();
        for (i, rec) in records.iter_mut().enumerate() {
            for (col, stride) in [(ts, 11), (pos, 7), (speed, 5)] {
                if i % stride == 0 {
                    *rec.get_mut(col).unwrap() = Value::Null;
                }
            }
        }
        FleetFixture {
            records,
            zones,
            weather,
        }
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

/// Adds `feed`'s stream, polled `buffer_size` records at a time, to
/// `env` under the name its queries read from, with whatever plugins
/// they bind against.
fn add_feed(
    env: &mut StreamEnvironment,
    feed: Feed,
    watermark: WatermarkStrategy,
    buffer_size: usize,
) {
    if feed == Feed::FleetWithNulls {
        let fixture = fleet_fixture();
        env.load_plugin(&MeosPlugin).unwrap();
        env.load_plugin(
            &DemoContext::new(fixture.zones.clone()).with_weather(fixture.weather.clone()),
        )
        .unwrap();
        env.load_plugin(&NullTolerantPositions).unwrap();
        env.add_source(
            nebulameos::FLEET_STREAM,
            source(feed, buffer_size),
            watermark,
        );
    } else {
        env.add_source("s", source(feed, buffer_size), watermark);
    }
}

/// Runs `query` under one mode/feed combination and returns the
/// order-normalized results plus the metrics.
fn execute(
    query: &Query,
    mode: Mode,
    feed: Feed,
    watermark: WatermarkStrategy,
) -> (Vec<Record>, QueryMetrics) {
    execute_cfg(query, mode, feed, watermark, 32, ColumnarMode::Auto)
}

/// [`execute`] with explicit source batch size and columnar mode, for the
/// batched-vs-per-record differential matrix. `ColumnarMode::Off` is the
/// per-record reference path; `Force` pins the columnar kernels on even
/// where the `Auto` cost gate would decline them.
fn execute_cfg(
    query: &Query,
    mode: Mode,
    feed: Feed,
    watermark: WatermarkStrategy,
    buffer_size: usize,
    columnar: ColumnarMode,
) -> (Vec<Record>, QueryMetrics) {
    try_execute_cfg(query, mode, feed, watermark, buffer_size, columnar).unwrap_or_else(|e| {
        panic!("{mode:?}/{feed:?}/batch={buffer_size}/{columnar:?} failed: {e}")
    })
}

/// [`execute_cfg`] that hands a failed run's error back instead of
/// panicking.
fn try_execute_cfg(
    query: &Query,
    mode: Mode,
    feed: Feed,
    watermark: WatermarkStrategy,
    buffer_size: usize,
    columnar: ColumnarMode,
) -> Result<(Vec<Record>, QueryMetrics)> {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size,
        columnar,
        watermark_every: 2,
        parallelism: match mode {
            Mode::Partitioned(p) => p,
            _ => 1,
        },
        ..EnvConfig::default()
    });
    add_feed(&mut env, feed, watermark, buffer_size);
    env.load_plugin(&ShortCircuitProbe)?;
    let (mut sink, got) = CollectingSink::new();
    let metrics = match mode {
        Mode::Sync => env.run(query, &mut sink),
        Mode::Threaded => env.run_threaded(query, &mut sink),
        Mode::Partitioned(_) => env.run_partitioned(query, &mut sink),
    }?;
    let mut recs = got.records();
    normalize_records(&mut recs);
    Ok((recs, metrics))
}

/// Registers `fast_or_fail(speed)`: true for a speed above 60, an
/// evaluation error for any other row. Behind `speed > 60 AND ...` it
/// only ever sees rows the left side lets through, so it errors exactly
/// where the reference short-circuits.
struct ShortCircuitProbe;

impl Plugin for ShortCircuitProbe {
    fn name(&self) -> &str {
        "short-circuit-probe"
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
        Ok(())
    }
}

/// Asserts that every execution mode agrees with the synchronous
/// reference on normalized results and in/out counters.
fn assert_equivalent(name: &str, query: &Query, feed: Feed, watermark: &WatermarkStrategy) {
    let (reference, ref_metrics) = execute(query, Mode::Sync, feed, watermark.clone());
    for mode in ALL_MODES {
        let (got, metrics) = execute(query, mode, feed, watermark.clone());
        assert_eq!(
            got, reference,
            "{name}: {mode:?}/{feed:?} results diverge from sync reference"
        );
        assert_eq!(
            metrics.records_in, ref_metrics.records_in,
            "{name}: {mode:?}/{feed:?} records_in"
        );
        assert_eq!(
            metrics.records_out, ref_metrics.records_out,
            "{name}: {mode:?}/{feed:?} records_out"
        );
    }
}

/// In-order and jittered feeds for shapes that are order-insensitive
/// under the given watermark strategy.
fn assert_equivalent_both_feeds(name: &str, query: &Query, watermark: &WatermarkStrategy) {
    assert_equivalent(name, query, Feed::InOrder, watermark);
    for seed in [7, 99] {
        assert_equivalent(name, query, Feed::Jittered(seed), watermark);
    }
}

fn generous_watermark() -> WatermarkStrategy {
    // Slack far above the jitter window (8 records * 1 s), so no record
    // is ever late and jittered results stay complete.
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 60 * MICROS_PER_SEC,
    }
}

#[test]
fn filter_equivalence() {
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    assert_equivalent_both_feeds("filter", &q, &WatermarkStrategy::None);
}

#[test]
fn map_equivalence() {
    let q = Query::from("s").map(vec![
        ("train", col("train")),
        ("kmh", col("speed").mul(lit(3.6))),
    ]);
    assert_equivalent_both_feeds("map", &q, &WatermarkStrategy::None);
}

#[test]
fn map_extend_equivalence() {
    let q = Query::from("s")
        .filter(col("load").gt(lit(50)))
        .map_extend(vec![("over", col("speed").sub(lit(40.0)))]);
    assert_equivalent_both_feeds("map_extend", &q, &WatermarkStrategy::None);
}

#[test]
fn tumbling_window_equivalence() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("max_load", AggSpec::Max(col("load"))),
        ],
    );
    assert_equivalent_both_feeds("tumbling", &q, &generous_watermark());
    assert_equivalent(
        "tumbling/no-wm",
        &q,
        Feed::InOrder,
        &WatermarkStrategy::None,
    );
}

#[test]
fn sliding_window_equivalence() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 20 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_equivalent_both_feeds("sliding", &q, &generous_watermark());
}

#[test]
fn keyless_window_equivalence() {
    // Keyless windows exercise the Single-routing fallback: sharding
    // them would emit one row per partition instead of one per window.
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_equivalent_both_feeds("keyless", &q, &generous_watermark());
}

#[test]
fn threshold_window_equivalence() {
    // Threshold windows are order-sensitive per key, but keyed routing
    // preserves per-key order, so in-order feeds must agree exactly.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("speed").gt(lit(80.0 * 0.7)),
            min_count: 2,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("peak", AggSpec::Max(col("speed"))),
        ],
    );
    assert_equivalent("threshold", &q, Feed::InOrder, &WatermarkStrategy::None);
}

#[test]
fn cep_equivalence() {
    // Per-key sequence pattern: accelerate (>60) then drop (<10) within
    // two minutes. Keyed routing keeps each train's history intact.
    let pattern = Pattern::new(
        "speed-drop",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"));
    let q = Query::from("s").cep(pattern);
    assert_equivalent("cep", &q, Feed::InOrder, &WatermarkStrategy::None);
}

/// A plugin operator: stateless record expansion via [`FlatMapOp`],
/// entering the plan through [`OperatorFactory`] like any external
/// extension (trajectory assembly, geofence events, …).
struct DuplicateHighSpeed;

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

#[test]
fn plugin_operator_equivalence() {
    // Plugin operators route Single (opaque state), so all modes agree
    // even though the engine cannot prove the operator stateless.
    let q = Query::from("s").apply(Arc::new(DuplicateHighSpeed));
    assert_equivalent_both_feeds("plugin", &q, &WatermarkStrategy::None);
}

#[test]
fn keyed_cep_then_keyless_window_equivalence() {
    // A keyed CEP stage feeding a keyless global count: the keyed CEP
    // suggests key routing, but the keyless window downstream must force
    // Single routing or partitions would each emit their own count rows.
    let pattern = Pattern::new(
        "fast-slow",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"));
    let q = Query::from("s").cep(pattern).window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_equivalent("cep+keyless", &q, Feed::InOrder, &WatermarkStrategy::None);
}

#[test]
fn composite_pipeline_equivalence() {
    // The common fleet-analytics shape: filter, derive, keyed window —
    // partition-key extraction must see through the safe prefix.
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 120 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh"))),
            ],
        );
    assert!(
        matches!(q.partition_scheme(), PartitionScheme::Key(_)),
        "safe prefix keeps key routing"
    );
    assert_equivalent_both_feeds("composite", &q, &generous_watermark());
}

#[test]
fn partitioned_output_is_deterministic_across_parallelism() {
    // Beyond matching the sync reference after normalization: the
    // partitioned mode's *raw* delivered order must equal the sync
    // run's at every parallelism degree. The emission ledger releases
    // steps in frontier order and merges concurrent owners with the
    // window emission comparator — there is no post-hoc global sort to
    // hide arrival-order nondeterminism behind.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let sync_raw = {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let (mut sink, got) = CollectingSink::new();
        env.run(&q, &mut sink).unwrap();
        got.records() // NOT normalized: raw delivery order
    };
    let raw = |p: usize| {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            parallelism: p,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let (mut sink, got) = CollectingSink::new();
        env.run_partitioned(&q, &mut sink).unwrap();
        got.records()
    };
    for p in [1, 2, 4, 8] {
        assert_eq!(raw(p), sync_raw, "parallelism {p} delivery order");
    }
}

/// Keeps raw delivery order and counts which `Sink` entry point each
/// buffer arrived through.
#[derive(Default)]
struct LayoutSink {
    rows: Vec<Record>,
    row_calls: usize,
    columnar_calls: usize,
}

impl Sink for LayoutSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.row_calls += 1;
        self.rows.extend_from_slice(buf.records());
        Ok(())
    }

    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        self.columnar_calls += 1;
        self.rows.extend(buf.to_record_buffer().into_records());
        Ok(())
    }
}

#[test]
fn partitioned_ledger_delivers_the_layout_the_chain_emitted() {
    // The emission ledger holds each step's terminal messages by value:
    // a single-owner step reaches the sink exactly as the chain emitted
    // it (columnar stays columnar), and only a multi-owner step, whose
    // owners' rows must be merged, is materialized to rows.
    let deliver = |q: &Query, parallelism: Option<usize>| {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            parallelism: parallelism.unwrap_or(1),
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let mut sink = LayoutSink::default();
        match parallelism {
            None => env.run(q, &mut sink),
            Some(_) => env.run_partitioned(q, &mut sink),
        }
        .unwrap();
        sink
    };
    let bytes_of = |sink: &LayoutSink| sink.rows.iter().map(record_sort_key).collect::<Vec<_>>();

    // Q1-shaped: a vectorizable filter into a map, so `Auto` transposes.
    let stateless = Query::from("s")
        .filter(col("speed").ge(lit(40.0)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    let sync = deliver(&stateless, None);
    assert!(sync.columnar_calls > 0, "the chain emits columnar buffers");
    assert_eq!(sync.row_calls, 0);
    let par = deliver(&stateless, Some(2));
    assert_eq!(
        (par.row_calls, par.columnar_calls),
        (0, sync.columnar_calls),
        "round-robin steps have one owner: buffers pass through as emitted"
    );
    assert_eq!(bytes_of(&par), bytes_of(&sync), "stateless raw order");

    let keyed = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let sync = deliver(&keyed, None);
    let par = deliver(&keyed, Some(2));
    assert!(par.row_calls > 0, "windows closed on both partitions");
    assert_eq!(par.columnar_calls, 0, "multi-owner steps merge as rows");
    assert_eq!(bytes_of(&par), bytes_of(&sync), "keyed-window raw order");
}

/// How long the fenced source waits for the sink before it gives up.
const FENCE_DEADLINE: Duration = Duration::from_secs(10);

/// Yields its first batch at once; its second poll blocks until the
/// sink has received `expect` rows, and fails with an `Io` error if
/// that takes longer than [`FENCE_DEADLINE`]. Then it yields the rest.
struct FencedSource {
    batches: VecDeque<Vec<Record>>,
    polls: usize,
    delivered: Arc<AtomicUsize>,
    expect: usize,
}

impl Source for FencedSource {
    fn schema(&self) -> SchemaRef {
        schema()
    }

    fn poll(&mut self, _max: usize) -> Result<SourceBatch> {
        self.polls += 1;
        if self.polls == 2 {
            let deadline = Instant::now() + FENCE_DEADLINE;
            while self.delivered.load(Ordering::SeqCst) < self.expect {
                if Instant::now() > deadline {
                    return Err(NebulaError::Io(format!(
                        "sink had {} of batch 1's {} rows after {FENCE_DEADLINE:?}",
                        self.delivered.load(Ordering::SeqCst),
                        self.expect
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(self
            .batches
            .pop_front()
            .map_or(SourceBatch::Exhausted, SourceBatch::Data))
    }
}

/// Counts the rows it receives where the fenced source can see them.
struct FenceSink(Arc<AtomicUsize>);

impl Sink for FenceSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.0.fetch_add(buf.len(), Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn released_results_reach_the_sink_before_the_next_poll() {
    // Batch 1 (16 records, 0..15 s) crosses the first 10 s window end,
    // and with one punctuation per batch and no slack its watermark
    // closes that window. Whatever batch 1 released — its 16 rows on
    // the stateless plan, the first window's 5 rows on the keyed one —
    // must reach the sink while the source is still blocked in its
    // next poll: in every mode, the thread that completes a step
    // delivers it.
    let stateless = Query::from("s")
        .filter(col("speed").ge(lit(0.0)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    let keyed = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    for (name, q, expect, total) in [
        ("stateless", &stateless, 16, 600),
        ("keyed window", &keyed, 5, 300),
    ] {
        for mode in ALL_MODES {
            let mut env = StreamEnvironment::with_config(EnvConfig {
                buffer_size: 16,
                watermark_every: 1,
                parallelism: match mode {
                    Mode::Partitioned(p) => p,
                    _ => 1,
                },
                ..EnvConfig::default()
            });
            let delivered = Arc::new(AtomicUsize::new(0));
            let mut recs = records();
            let rest = recs.split_off(16);
            env.add_source(
                "s",
                Box::new(FencedSource {
                    batches: VecDeque::from([recs, rest]),
                    polls: 0,
                    delivered: delivered.clone(),
                    expect,
                }),
                WatermarkStrategy::BoundedOutOfOrder {
                    ts_field: "ts".into(),
                    slack: 0,
                },
            );
            let mut sink = FenceSink(delivered.clone());
            let result = match mode {
                Mode::Sync => env.run(q, &mut sink),
                Mode::Threaded => env.run_threaded(q, &mut sink),
                Mode::Partitioned(_) => env.run_partitioned(q, &mut sink),
            };
            let m = result.unwrap_or_else(|e| panic!("{name} / {mode:?}: {e}"));
            assert_eq!(m.records_in, 600, "{name} / {mode:?}");
            assert_eq!(delivered.load(Ordering::SeqCst), total, "{name} / {mode:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Batched (columnar) vs per-record differential matrix
// ---------------------------------------------------------------------------

/// Batch sizes crossing every interesting boundary: degenerate single-record
/// buffers, a prime that never divides the stream, the watermark-cadence
/// default, and one larger than the whole 600-record stream.
const BATCH_SIZES: [usize; 4] = [1, 7, 64, 1024];

/// Asserts `got` equals the per-record `reference` row for row, both as
/// values (opaque payloads compare by content; NaN matches NaN) and as
/// canonical bytes (each value's type tag and exact bits).
fn assert_same_rows(got: &[Record], reference: &[Record], cell: &str) {
    let same = |a: &Value, b: &Value| {
        a == b || a.as_float().is_some_and(f64::is_nan) && b.as_float().is_some_and(f64::is_nan)
    };
    let bytes_of = |recs: &[Record]| recs.iter().map(record_sort_key).collect::<Vec<_>>();
    assert_eq!(
        bytes_of(got),
        bytes_of(reference),
        "{cell} is not byte-identical to the per-record sync reference"
    );
    let values_match = got.iter().zip(reference).all(|(g, r)| {
        g.len() == r.len() && g.values().iter().zip(r.values()).all(|(a, b)| same(a, b))
    });
    assert!(
        values_match,
        "{cell} diverges from the per-record sync reference"
    );
}

/// Runs `query` through every batch size x columnar mode x execution mode
/// and asserts each cell agrees with one per-record sync reference.
///
/// Valid whenever no record is late under `watermark`: watermark *cadence*
/// varies with batch size (one clock update per polled batch), but with
/// nothing dropped the final flush makes results batch-size independent.
fn assert_batch_matrix(name: &str, query: &Query, feed: Feed, watermark: &WatermarkStrategy) {
    let (reference, ref_metrics) = execute_cfg(
        query,
        Mode::Sync,
        feed,
        watermark.clone(),
        32,
        ColumnarMode::Off,
    );
    for batch in BATCH_SIZES {
        for columnar in [ColumnarMode::Off, ColumnarMode::Force, ColumnarMode::Auto] {
            for mode in ALL_MODES {
                let (got, metrics) =
                    execute_cfg(query, mode, feed, watermark.clone(), batch, columnar);
                assert_same_rows(
                    &got,
                    &reference,
                    &format!("{name}: {mode:?}/{feed:?}/batch={batch}/{columnar:?}"),
                );
                assert_eq!(
                    metrics.records_in, ref_metrics.records_in,
                    "{name}: {mode:?}/{feed:?}/batch={batch}/{columnar:?} records_in"
                );
                assert_eq!(
                    metrics.records_out, ref_metrics.records_out,
                    "{name}: {mode:?}/{feed:?}/batch={batch}/{columnar:?} records_out"
                );
                assert_eq!(
                    metrics.late_drops, ref_metrics.late_drops,
                    "{name}: {mode:?}/{feed:?}/batch={batch}/{columnar:?} late_drops"
                );
            }
        }
    }
}

/// [`assert_batch_matrix`] for order-sensitive operators (CEP,
/// threshold windows, float sums, `first`/`last` ties) under a jittered
/// feed. The jitter buffer drains per poll, so arrival order — and with
/// it every order-sensitive result — changes with the batch size: each
/// batch size gets its own per-record sync reference, which every
/// columnar mode in every execution mode must match byte for byte.
fn assert_batch_matrix_per_batch(
    name: &str,
    query: &Query,
    feed: Feed,
    watermark: &WatermarkStrategy,
) {
    for batch in BATCH_SIZES {
        let (reference, ref_metrics) = execute_cfg(
            query,
            Mode::Sync,
            feed,
            watermark.clone(),
            batch,
            ColumnarMode::Off,
        );
        for columnar in [ColumnarMode::Off, ColumnarMode::Force, ColumnarMode::Auto] {
            for mode in ALL_MODES {
                let cell = format!("{name}: {mode:?}/{feed:?}/batch={batch}/{columnar:?}");
                let (got, metrics) =
                    execute_cfg(query, mode, feed, watermark.clone(), batch, columnar);
                assert_same_rows(&got, &reference, &cell);
                assert_eq!(metrics.records_in, ref_metrics.records_in, "{cell} in");
                assert_eq!(metrics.records_out, ref_metrics.records_out, "{cell} out");
                assert_eq!(metrics.late_drops, ref_metrics.late_drops, "{cell} late");
            }
        }
    }
}

/// One stateful cell, in order (one reference across batch sizes) and
/// jittered, within 8 records and within two polls (a reference per
/// batch size). Asserts the in-order
/// reference is not empty, so the cell compares something.
fn assert_stateful_matrix(name: &str, query: &Query, watermark: &WatermarkStrategy) {
    let (reference, _) = execute_cfg(
        query,
        Mode::Sync,
        Feed::InOrder,
        watermark.clone(),
        32,
        ColumnarMode::Off,
    );
    assert!(!reference.is_empty(), "{name}: no rows, nothing compared");
    assert_batch_matrix(name, query, Feed::InOrder, watermark);
    assert_batch_matrix_per_batch(name, query, Feed::Jittered(7), watermark);
    assert_batch_matrix_per_batch(name, query, Feed::JitteredTwoPolls(7), watermark);
}

#[test]
fn batched_filter_matrix() {
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    assert_batch_matrix("filter", &q, Feed::InOrder, &WatermarkStrategy::None);
    assert_batch_matrix("filter", &q, Feed::Jittered(7), &WatermarkStrategy::None);
    assert_batch_matrix(
        "filter",
        &q,
        Feed::JitteredTwoPolls(7),
        &WatermarkStrategy::None,
    );
}

#[test]
fn batched_map_matrix() {
    let q = Query::from("s").map(vec![
        ("train", col("train")),
        ("kmh", col("speed").mul(lit(3.6))),
    ]);
    assert_batch_matrix("map", &q, Feed::InOrder, &WatermarkStrategy::None);
    assert_batch_matrix("map", &q, Feed::Jittered(99), &WatermarkStrategy::None);
}

#[test]
fn batched_filter_map_matrix() {
    // Filter shrinks buffers in place; the map after it must see the
    // compacted columns, not the original row indexes.
    let q = Query::from("s")
        .filter(col("load").gt(lit(50)))
        .map_extend(vec![("over", col("speed").sub(lit(40.0)))]);
    assert_batch_matrix("filter+map", &q, Feed::InOrder, &WatermarkStrategy::None);
    assert_batch_matrix(
        "filter+map",
        &q,
        Feed::Jittered(7),
        &WatermarkStrategy::None,
    );
}

#[test]
fn batched_fleet_nulls_matrix() {
    // The schema-typed transposition on what the simulator never emits:
    // null `ts` (no event time for that row), null `pos` (every zone
    // and weather call answers null) and null `speed_kmh` (every
    // comparison on it is null, so false as a predicate), through the
    // three geofencing chains.
    let watermark = WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 5 * MICROS_PER_SEC,
    };
    for (name, q) in [
        ("q1", nebulameos::q1_alert_filtering(120.0)),
        ("q3", nebulameos::q3_dynamic_speed_limit()),
        ("q4", nebulameos::q4_weather_speed_zones(120.0)),
    ] {
        let (reference, _) = execute_cfg(
            &q,
            Mode::Sync,
            Feed::FleetWithNulls,
            watermark.clone(),
            32,
            ColumnarMode::Off,
        );
        assert!(!reference.is_empty(), "{name}: no rows, nothing compared");
        assert_batch_matrix(name, &q, Feed::FleetWithNulls, &watermark);
    }
}

#[test]
fn batched_tumbling_window_matrix() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("max_load", AggSpec::Max(col("load"))),
        ],
    );
    assert_batch_matrix("tumbling", &q, Feed::InOrder, &generous_watermark());
    // Jittered arrival order varies WITH BATCH SIZE (the jitter buffer
    // drains per poll), and float Avg is not associative, so the jittered
    // matrix sticks to order-independent aggregates for exact equality.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("min_speed", AggSpec::Min(col("speed"))),
            WindowAgg::new("max_load", AggSpec::Max(col("load"))),
            WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
        ],
    );
    assert_batch_matrix(
        "tumbling/jitter",
        &q,
        Feed::Jittered(7),
        &generous_watermark(),
    );
}

#[test]
fn batched_sliding_window_matrix() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 20 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("first_speed", AggSpec::First(col("speed"))),
            WindowAgg::new("last_load", AggSpec::Last(col("load"))),
        ],
    );
    assert_batch_matrix("sliding", &q, Feed::InOrder, &generous_watermark());
    assert_batch_matrix("sliding", &q, Feed::Jittered(99), &generous_watermark());
}

#[test]
fn batched_keyless_window_matrix() {
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_batch_matrix("keyless", &q, Feed::InOrder, &generous_watermark());
}

#[test]
fn batched_threshold_window_matrix() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("speed").gt(lit(80.0 * 0.7)),
            min_count: 2,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("peak", AggSpec::Max(col("speed"))),
        ],
    );
    assert_batch_matrix("threshold", &q, Feed::InOrder, &WatermarkStrategy::None);
}

#[test]
fn batched_cep_matrix() {
    let pattern = Pattern::new(
        "speed-drop",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"));
    let q = Query::from("s").cep(pattern);
    assert_batch_matrix("cep", &q, Feed::InOrder, &WatermarkStrategy::None);
}

#[test]
fn batched_plugin_matrix() {
    let q = Query::from("s").apply(Arc::new(DuplicateHighSpeed));
    assert_batch_matrix("plugin", &q, Feed::InOrder, &WatermarkStrategy::None);
    assert_batch_matrix("plugin", &q, Feed::Jittered(7), &WatermarkStrategy::None);
}

#[test]
fn batched_composite_matrix() {
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 120 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh"))),
            ],
        );
    assert_batch_matrix("composite", &q, Feed::InOrder, &generous_watermark());
    // Same composite shape, order-independent aggregates for the jittered
    // cross-batch comparison (see batched_tumbling_window_matrix).
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 120 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("max_kmh", AggSpec::Max(col("kmh"))),
                WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
            ],
        );
    assert_batch_matrix(
        "composite/jitter",
        &q,
        Feed::Jittered(99),
        &generous_watermark(),
    );
}

#[test]
fn stateful_cep_matrix() {
    // Q5-shaped: two steps, at most one partial per train, and a
    // `within` short enough that most partials expire.
    let stressed = col("speed").gt(lit(60.0)).or(col("load").lt(lit(30)));
    let q5 = |within_s: i64| {
        Pattern::new(
            "battery-shaped",
            vec![
                PatternStep::new("stressed", stressed.clone()),
                PatternStep::new("critical", col("speed").lt(lit(10.0))),
            ],
            within_s * MICROS_PER_SEC,
        )
        .keyed_by(col("train"))
    };
    let q = Query::from("s").cep(q5(20).with_max_partials(1));
    assert_stateful_matrix("cep/q5-shaped", &q, &WatermarkStrategy::None);
    // Uncapped: overlapping partials complete on one record.
    let q = Query::from("s").cep(q5(60));
    assert_stateful_matrix("cep/q5-uncapped", &q, &generous_watermark());
    // Keyless: one automaton over the whole stream.
    let mut keyless = q5(20);
    keyless.key = None;
    let q = Query::from("s").cep(keyless);
    assert_stateful_matrix("cep/keyless", &q, &WatermarkStrategy::None);
    // Q8-shaped: five alternating steps, one partial, expiring.
    let low = || col("speed").lt(lit(10.0)).or(col("load").gt(lit(190)));
    let recovered = || col("speed").gt(lit(60.0));
    let q8 = Pattern::new(
        "brakes-shaped",
        vec![
            PatternStep::new("e1", low()),
            PatternStep::new("r1", recovered()),
            PatternStep::new("e2", low()),
            PatternStep::new("r2", recovered()),
            PatternStep::new("e3", low()),
        ],
        70 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"))
    .with_max_partials(1);
    let q = Query::from("s").cep(q8);
    assert_stateful_matrix("cep/q8-shaped", &q, &generous_watermark());
}

#[test]
fn stateful_threshold_matrix() {
    // Q6-shaped: at end of stream trains 3 and 4 hold an open window of
    // two records (flushed, `min_count` 2) and trains 0-2 one of one
    // (dropped).
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("load").ge(lit(100)),
            min_count: 2,
        },
        vec![
            WindowAgg::new("peak", AggSpec::Max(col("load"))),
            WindowAgg::new("avg", AggSpec::Avg(col("load"))),
            WindowAgg::new("ticks", AggSpec::Count),
            WindowAgg::new("at", AggSpec::Last(col("speed"))),
        ],
    );
    assert_stateful_matrix("threshold/q6-shaped", &q, &WatermarkStrategy::None);
    // Q7-shaped: `And(And(Lt, Not(Call)), Not(Call))` — the calls run
    // only on rows the comparison lets through.
    let flag = |cond: Expr| call("if", vec![cond, lit(true), lit(false)]);
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("speed")
                .lt(lit(40.0))
                .and(flag(col("load").gt(lit(150))).not())
                .and(flag(col("train").eq(lit(3))).not()),
            min_count: 2,
        },
        vec![
            WindowAgg::new("stop_speed", AggSpec::First(col("speed"))),
            WindowAgg::new("ticks", AggSpec::Count),
        ],
    );
    assert_stateful_matrix("threshold/q7-shaped", &q, &generous_watermark());
}

#[test]
fn stateful_time_window_matrix() {
    // `sliding_profile`-shaped: 64 s sliding by 4 s, 16 windows per
    // record, float averages.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 64 * MICROS_PER_SEC,
            slide: 4 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("max_load", AggSpec::Max(col("load"))),
        ],
    );
    assert_stateful_matrix("sliding/profile-shaped", &q, &generous_watermark());
    // Event time on `load` ((13 i) mod 200): every (train, load) pair
    // occurs three times, so `first`/`last` meet equal timestamps; an
    // integer `sum`; `min`/`max` over a column with NaN rows.
    let q = Query::from("s")
        .map_extend(vec![(
            "nan_speed",
            call(
                "if",
                vec![col("load").gt(lit(150)), lit(f64::NAN), col("speed")],
            ),
        )])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling { size: 50 },
            vec![
                WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
                WindowAgg::new("min_nan", AggSpec::Min(col("nan_speed"))),
                WindowAgg::new("max_nan", AggSpec::Max(col("nan_speed"))),
                WindowAgg::new("first", AggSpec::First(col("speed"))),
                WindowAgg::new("last", AggSpec::Last(col("ts"))),
            ],
        )
        .with_ts_field("load");
    assert_stateful_matrix("tumbling/ties-nan-int", &q, &WatermarkStrategy::None);
}

#[test]
fn stateful_errors_match_across_paths() {
    // Null `ts` rows: CEP, threshold and time windows fail with the same
    // typed error on the per-record and the columnar path, in every mode.
    // Only one check fails here: when two checks fail on different rows
    // of one buffer, the kernels (one check over the whole buffer at a
    // time) may raise the other check's variant.
    let watermark = WatermarkStrategy::None;
    for (name, q) in [
        ("q6", nebulameos::q6_heavy_load(300, 3)),
        ("q8", nebulameos::q8_brake_monitoring(30)),
        (
            "window",
            Query::from(nebulameos::FLEET_STREAM).window(
                vec![("train", col("train_id"))],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            ),
        ),
    ] {
        let reference = try_execute_cfg(
            &q,
            Mode::Sync,
            Feed::FleetWithNulls,
            watermark.clone(),
            32,
            ColumnarMode::Off,
        )
        .err()
        .unwrap_or_else(|| panic!("{name}: a null event time must fail the run"));
        for columnar in [ColumnarMode::Off, ColumnarMode::Force] {
            for mode in ALL_MODES {
                let got = try_execute_cfg(
                    &q,
                    mode,
                    Feed::FleetWithNulls,
                    watermark.clone(),
                    32,
                    columnar,
                )
                .err()
                .unwrap_or_else(|| panic!("{name}: {mode:?}/{columnar:?} ran clean"));
                assert_eq!(
                    std::mem::discriminant(&got),
                    std::mem::discriminant(&reference),
                    "{name}: {mode:?}/{columnar:?} raised {got}, the reference {reference}"
                );
            }
        }
    }
    // A right operand that errors only on rows its left side
    // short-circuits surfaces on neither path.
    let guarded = col("speed")
        .gt(lit(60.0))
        .and(call("fast_or_fail", vec![col("speed")]));
    let cep = Query::from("s").cep(
        Pattern::new(
            "guarded",
            vec![
                PatternStep::new("fast", guarded.clone()),
                PatternStep::new("slow", col("speed").lt(lit(10.0))),
            ],
            120 * MICROS_PER_SEC,
        )
        .keyed_by(col("train")),
    );
    let threshold = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: guarded,
            min_count: 1,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    for (name, q) in [("guarded cep", cep), ("guarded threshold", threshold)] {
        assert_batch_matrix(name, &q, Feed::InOrder, &WatermarkStrategy::None);
    }
}

#[test]
fn columnar_matches_row_under_late_drops() {
    // Tight slack + jitter makes some records genuinely late: polls of
    // four from a jitter window of eight carry records across batch
    // boundaries, behind watermarks that already passed them. At a
    // FIXED batch size the watermark clock advances identically on both
    // paths, so the columnar absorb must drop exactly the same records
    // as the per-record reference — the late-drop triage of the batch
    // kernel included.
    let tight = WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 4 * MICROS_PER_SEC,
    };
    let tumbling = Query::from("s")
        .filter(col("load").ge(lit(10)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 30 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh"))),
            ],
        );
    // Sliding: a record is late only once every window holding it has
    // closed.
    let sliding = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 8 * MICROS_PER_SEC,
            slide: 2 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
        ],
    );
    for (name, q) in [("tumbling", &tumbling), ("sliding", &sliding)] {
        let mut dropped = 0;
        for seed in [7, 99] {
            let feed = Feed::Jittered(seed);
            for mode in ALL_MODES {
                let cell = format!("late-drop {name}: {mode:?}/seed={seed}");
                let (row, row_m) = execute_cfg(q, mode, feed, tight.clone(), 4, ColumnarMode::Off);
                let (col, col_m) =
                    execute_cfg(q, mode, feed, tight.clone(), 4, ColumnarMode::Force);
                assert_same_rows(&col, &row, &cell);
                assert_eq!(col_m.records_in, row_m.records_in, "{cell} in");
                assert_eq!(col_m.records_out, row_m.records_out, "{cell} out");
                assert_eq!(col_m.late_drops, row_m.late_drops, "{cell} late_drops");
                dropped += row_m.late_drops;
            }
        }
        assert!(
            dropped > 0,
            "late-drop {name}: the tight watermark drops records"
        );
    }
}

#[test]
fn auto_mode_matches_forced_paths() {
    // `Auto` picks per-query; whatever it picks must be observationally
    // identical to both pinned paths.
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    for mode in ALL_MODES {
        let (auto, _) = execute_cfg(
            &q,
            mode,
            Feed::InOrder,
            WatermarkStrategy::None,
            64,
            ColumnarMode::Auto,
        );
        for pinned in [ColumnarMode::Off, ColumnarMode::Force] {
            let (got, _) =
                execute_cfg(&q, mode, Feed::InOrder, WatermarkStrategy::None, 64, pinned);
            assert_eq!(got, auto, "auto-vs-{pinned:?}: {mode:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry conservation invariants
// ---------------------------------------------------------------------------

/// Runs `query` in one mode and returns the metrics, the telemetry
/// report, and the raw count of records the sink received.
fn execute_with_report(
    query: &Query,
    mode: Mode,
    feed: Feed,
    watermark: WatermarkStrategy,
) -> (QueryMetrics, QueryReport, u64) {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        parallelism: match mode {
            Mode::Partitioned(p) => p,
            _ => 1,
        },
        ..EnvConfig::default()
    });
    env.add_source("s", source(feed, 32), watermark);
    let (mut sink, got) = CollectingSink::new();
    let metrics = match mode {
        Mode::Sync => env.run(query, &mut sink),
        Mode::Threaded => env.run_threaded(query, &mut sink),
        Mode::Partitioned(_) => env.run_partitioned(query, &mut sink),
    }
    .unwrap_or_else(|e| panic!("{mode:?}/{feed:?} failed: {e}"));
    let report = env.take_report().expect("telemetry enabled by default");
    let sink_records = got.records().len() as u64;
    (metrics, report, sink_records)
}

/// Asserts record conservation through an instrumented chain:
/// `records_in` entering the chain equals sink records plus every drop
/// the chain accounted for, and consecutive operators telescope —
/// operator N's `records_out` is exactly operator N+1's `records_in`.
fn assert_conserved(
    name: &str,
    mode: Mode,
    metrics: &QueryMetrics,
    report: &QueryReport,
    sink_records: u64,
) {
    assert!(
        !report.operators.is_empty(),
        "{name}: {mode:?} report has operators"
    );
    let first = &report.operators[0];
    let last = report.operators.last().unwrap();
    assert_eq!(
        first.records_in, metrics.records_in,
        "{name}: {mode:?} chain head consumes every source record"
    );
    assert_eq!(
        last.records_out, metrics.records_out,
        "{name}: {mode:?} chain tail produced the delivered records"
    );
    assert_eq!(
        metrics.records_out, sink_records,
        "{name}: {mode:?} metrics.records_out matches the sink"
    );
    for pair in report.operators.windows(2) {
        assert_eq!(
            pair[0].records_out,
            pair[1].records_in,
            "{name}: {mode:?} {} out -> {} in telescopes",
            pair[0].id(),
            pair[1].id()
        );
    }
    let report_late: u64 = report.operators.iter().map(|op| op.late_drops).sum();
    assert_eq!(
        report_late, metrics.late_drops,
        "{name}: {mode:?} per-operator late drops sum to the aggregate"
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
            "{name}: {mode:?} records_in == sink + filter-dropped + late_drops"
        );
    }
}

#[test]
fn conservation_stateless_chain_all_modes() {
    // filter -> map: nothing is stateful, so conservation is exact in
    // every mode — source records either reach the sink or were
    // rejected by the filter.
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    for mode in ALL_MODES {
        let (metrics, report, sink_records) =
            execute_with_report(&q, mode, Feed::InOrder, WatermarkStrategy::None);
        assert_conserved("stateless", mode, &metrics, &report, sink_records);
        assert_eq!(metrics.late_drops, 0, "stateless: {mode:?} no late drops");
    }
}

#[test]
fn conservation_windowed_chain_all_modes() {
    // filter -> map -> keyed tumbling window under a generous watermark:
    // the window changes cardinality but the telescoping invariant must
    // still hold through it, and late drops stay zero.
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 120 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh"))),
            ],
        );
    for mode in ALL_MODES {
        let (metrics, report, sink_records) =
            execute_with_report(&q, mode, Feed::InOrder, generous_watermark());
        assert_conserved("windowed", mode, &metrics, &report, sink_records);
    }
}

#[test]
fn conservation_accounts_late_drops() {
    // Tight slack + jitter forces genuine late drops; the window
    // operator's per-op late_drops must account for every record the
    // chain consumed but never aggregated, in every mode.
    let tight = WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 4 * MICROS_PER_SEC,
    };
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 30 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let mut saw_drops = false;
    for mode in ALL_MODES {
        // A jitter window far wider than the slack guarantees genuinely
        // late records (the shared `source` helper's window of 8 is too
        // tame for a 4 s slack).
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            parallelism: match mode {
                Mode::Partitioned(p) => p,
                _ => 1,
            },
            ..EnvConfig::default()
        });
        env.add_source(
            "s",
            Box::new(JitterSource::new(
                VecSource::new(schema(), records()),
                64,
                7,
            )),
            tight.clone(),
        );
        let (mut sink, got) = CollectingSink::new();
        let metrics = match mode {
            Mode::Sync => env.run(&q, &mut sink),
            Mode::Threaded => env.run_threaded(&q, &mut sink),
            Mode::Partitioned(_) => env.run_partitioned(&q, &mut sink),
        }
        .unwrap_or_else(|e| panic!("late/{mode:?} failed: {e}"));
        let report = env.take_report().expect("telemetry enabled by default");
        let sink_records = got.records().len() as u64;
        assert_conserved("late", mode, &metrics, &report, sink_records);
        saw_drops |= metrics.late_drops > 0;
    }
    assert!(saw_drops, "tight slack produced at least one late drop");
}

#[test]
fn report_modes_and_sampling_are_labelled() {
    // Every mode stamps its own label, records at least the forced
    // end-of-run sample, and logs the deployment trace event.
    let q = Query::from("s").filter(col("load").ge(lit(20)));
    for (mode, label) in [
        (Mode::Sync, "run"),
        (Mode::Threaded, "run_threaded"),
        (Mode::Partitioned(2), "run_partitioned"),
    ] {
        let (_, report, _) = execute_with_report(&q, mode, Feed::InOrder, WatermarkStrategy::None);
        assert_eq!(report.mode, label, "{mode:?} mode label");
        assert!(
            !report.samples.is_empty(),
            "{mode:?} records the forced final sample"
        );
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == TraceKind::QueryDeployed),
            "{mode:?} logs the deployment event"
        );
        let final_sample = report.samples.last().unwrap();
        assert_eq!(
            final_sample.records_in, report.metrics.records_in,
            "{mode:?} final sample carries the final counters"
        );
        // The JSON export round-trips the whole report without panicking
        // and names the mode.
        let json = serde_json::to_string(&report.to_json()).unwrap();
        assert!(json.contains(label), "{mode:?} JSON names the mode");
    }
}

#[test]
fn partition_fallback_warning_lands_in_report_without_changing_results() {
    // A keyless window has no partitioning key: `run_partitioned`
    // degrades to a single worker and the pre-flight analyzer says so
    // (W010). The warning must land in the telemetry report, must not
    // reject the plan, and the degraded run must still match the sync
    // reference exactly.
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("top", AggSpec::Max(col("speed"))),
        ],
    );
    let (reference, _) = execute(&q, Mode::Sync, Feed::InOrder, generous_watermark());
    let (_, report, _) = execute_with_report(
        &q,
        Mode::Partitioned(4),
        Feed::InOrder,
        generous_watermark(),
    );
    assert!(
        report
            .analysis
            .iter()
            .any(|d| d.code == nebula::analysis::Code::PartitionFallback),
        "keyless plan under run_partitioned reports W010: {:?}",
        report.analysis
    );
    assert!(
        report
            .analysis
            .iter()
            .all(|d| d.severity == nebula::analysis::Severity::Warning),
        "fallback is a warning, not an error"
    );
    let (got, _) = execute(
        &q,
        Mode::Partitioned(4),
        Feed::InOrder,
        generous_watermark(),
    );
    assert_eq!(got, reference, "degraded plan still matches sync results");

    // A keyed sibling of the same plan stays W010-free.
    let keyed = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let (_, keyed_report, _) = execute_with_report(
        &keyed,
        Mode::Partitioned(4),
        Feed::InOrder,
        generous_watermark(),
    );
    assert!(
        keyed_report
            .analysis
            .iter()
            .all(|d| d.code != nebula::analysis::Code::PartitionFallback),
        "keyed plan does not warn W010: {:?}",
        keyed_report.analysis
    );
}
