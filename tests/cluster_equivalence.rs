//! Differential cluster-equivalence suite: every query shape the engine
//! supports is run through `ClusterEnvironment::run_placed` on the
//! `train_fleet` topology — under both placement strategies, over
//! in-order and jittered feeds, and with the edge box crashing mid-run
//! — and must produce results and `records_in`/`records_out`
//! counters identical to the single-threaded `StreamEnvironment::run`
//! reference: row for row in `run`'s own delivery order when one
//! pipeline feeds the cloud, order-normalized (with each pipeline's
//! rows still in that pipeline's order) when several interleave there. The distributed runtime is only
//! correct if crossing node boundaries (wire encoding, bounded link
//! channels, cross-boundary watermarks, edge pre-aggregation, crash
//! recovery) is observationally invisible.
//!
//! Beyond equivalence, the suite asserts the paper's headline number
//! from measured traffic: an edge-placed pre-aggregating windowed query
//! moves a fraction of the uplink bytes of cloud-only placement.

use nebula::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train", DataType::Int),
        ("speed", DataType::Float),
        ("load", DataType::Int),
    ])
}

/// The same deterministic 600-record stream as `engine_equivalence`.
fn records() -> Vec<Record> {
    records_n(600)
}

/// The first `n` records of that stream's pattern.
fn records_n(n: i64) -> Vec<Record> {
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

#[derive(Clone, Copy, Debug, PartialEq)]
enum Feed {
    InOrder,
    Jittered(u64),
}

fn source(feed: Feed) -> Box<dyn Source> {
    let inner = VecSource::new(schema(), records());
    match feed {
        Feed::InOrder => Box::new(inner),
        Feed::Jittered(seed) => Box::new(JitterSource::new(inner, 8, seed)),
    }
}

fn generous_watermark() -> WatermarkStrategy {
    WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 60 * MICROS_PER_SEC,
    }
}

/// Canonical order, for comparisons across executions that may differ
/// in interleaving (several pipelines, different batch sizes).
fn normalized(mut recs: Vec<Record>) -> Vec<Record> {
    normalize_records(&mut recs);
    recs
}

/// The synchronous single-process reference, in `run`'s raw delivery
/// order: a one-pipeline placed run must reproduce it row for row.
/// [`HeavyLoad`] is loaded, as in [`cluster_run_cfg`].
fn sync_reference(
    query: &Query,
    feed: Feed,
    watermark: WatermarkStrategy,
) -> (Vec<Record>, QueryMetrics) {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    env.load_plugin(&HeavyLoad).expect("plugin");
    env.add_source("s", source(feed), watermark);
    let (mut sink, got) = CollectingSink::new();
    let metrics = env.run(query, &mut sink).expect("sync run");
    (got.records(), metrics)
}

fn fleet_env(feed: Feed, watermark: WatermarkStrategy) -> (ClusterEnvironment, NodeId) {
    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    env.add_source("s", sensors[0], source(feed), watermark);
    (env, sensors[0])
}

fn cluster_run(
    query: &Query,
    strategy: PlacementStrategy,
    feed: Feed,
    watermark: WatermarkStrategy,
) -> (Vec<Record>, ClusterReport) {
    let (mut env, _) = fleet_env(feed, watermark);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(query, strategy, &mut sink)
        .unwrap_or_else(|e| panic!("{strategy:?}/{feed:?} cluster run failed: {e}"));
    (got.records(), report)
}

/// Both strategies, one feed, must agree with the sync reference.
fn assert_cluster_equivalent(name: &str, query: &Query, feed: Feed, watermark: &WatermarkStrategy) {
    let (reference, ref_metrics) = sync_reference(query, feed, watermark.clone());
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let (got, report) = cluster_run(query, strategy, feed, watermark.clone());
        assert_eq!(
            got, reference,
            "{name}: {strategy:?}/{feed:?} diverges from sync reference"
        );
        assert_eq!(
            report.metrics.records_in, ref_metrics.records_in,
            "{name}: {strategy:?}/{feed:?} records_in"
        );
        assert_eq!(
            report.metrics.records_out, ref_metrics.records_out,
            "{name}: {strategy:?}/{feed:?} records_out"
        );
    }
}

fn assert_cluster_equivalent_both_feeds(name: &str, query: &Query, watermark: &WatermarkStrategy) {
    assert_cluster_equivalent(name, query, Feed::InOrder, watermark);
    for seed in [7, 99] {
        assert_cluster_equivalent(name, query, Feed::Jittered(seed), watermark);
    }
}

/// The edge node of train 0 — the box failure tests kill mid-run.
fn edge_node(env: &ClusterEnvironment, sensor: NodeId) -> NodeId {
    env.topology()
        .first_ancestor_of_kind(sensor, NodeKind::Edge)
        .expect("edge exists")
}

/// An edge-first placed run whose only fault is train 0's edge box
/// crashing after it has handled `after_frames` frames (clean links,
/// `run_placed_chaos`). Returns the raw delivery, the report and the
/// crashed node.
fn crash_run(
    query: &Query,
    watermark: WatermarkStrategy,
    columnar: ColumnarMode,
    after_frames: u64,
) -> (Vec<Record>, ClusterReport, NodeId) {
    let (mut env, sensor) = fleet_env(Feed::InOrder, watermark);
    env.config_mut().columnar = columnar;
    let edge = edge_node(&env, sensor);
    let plan = FaultPlan::seeded(0).crash_node(edge, after_frames);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(query, PlacementStrategy::EdgeFirst, &plan, &mut sink)
        .unwrap_or_else(|e| panic!("crash after {after_frames} frames: {e}"));
    (got.records(), report, edge)
}

/// Whether the cloud sealed a checkpoint before the crash, so recovery
/// restored it; otherwise it restored epoch 0, the run's start, which
/// emits no `CheckpointSealed` event.
fn sealed_before_crash(report: &ClusterReport) -> bool {
    let events = &report.telemetry.events;
    let crash = events
        .iter()
        .position(|e| e.kind == TraceKind::NodeDown)
        .expect("the crash is in the trace");
    events[..crash]
        .iter()
        .any(|e| e.kind == TraceKind::CheckpointSealed)
}

/// Crash frame counts for the failure suites. With `buffer_size` 32,
/// `watermark_every` 2 and the runtime's barrier every 4 batches, an
/// edge stage handles one to three frames per source batch (its data,
/// every 2nd batch a watermark, every 4th a barrier); an edge the plan
/// only routes through (stateless queries run on the sensor) counts one
/// per batch at stage 0. Either way 0 and 3 kill it before the first
/// barrier — recovery **restores epoch 0**, the run's start, and
/// replays from batch 0 — and 11 only after batch 4's barrier has
/// sealed epoch 1 — recovery **restores that sealed epoch**. Both go
/// through the same restore; `assert_crash_recovered` checks which
/// epoch it took.
const CRASH_AFTER_FRAMES: [u64; 3] = [0, 3, 11];

/// A crash run must be invisible in the results: `run`'s rows in `run`'s
/// raw order (one pipeline), the same counters, one re-planning round,
/// and no stage left on the dead node.
fn assert_crash_recovered(
    name: &str,
    (got, report, crashed): (Vec<Record>, ClusterReport, NodeId),
    (reference, ref_metrics): &(Vec<Record>, QueryMetrics),
    after_frames: u64,
) {
    assert_eq!(
        &got, reference,
        "{name}: results diverge from `run` after the edge crashed at frame {after_frames}"
    );
    assert_eq!(report.metrics.records_in, ref_metrics.records_in, "{name}");
    assert_eq!(
        report.metrics.records_out, ref_metrics.records_out,
        "{name}"
    );
    assert_eq!(report.cluster.replans, 1, "{name}: one re-planning round");
    // The re-planned placement no longer references the crashed node.
    for pl in &report.placements {
        assert!(
            !pl.stages.contains(&crashed),
            "{name}: stage still on the crashed node"
        );
    }
    assert_eq!(
        sealed_before_crash(&report),
        after_frames == 11,
        "{name}: crash at frame {after_frames} took the wrong recovery path"
    );
}

/// A mid-run crash of the edge box must be invisible in the results,
/// on both recovery paths.
fn assert_failure_equivalent(name: &str, query: &Query, watermark: &WatermarkStrategy) {
    let reference = sync_reference(query, Feed::InOrder, watermark.clone());
    for after_frames in CRASH_AFTER_FRAMES {
        let run = crash_run(query, watermark.clone(), ColumnarMode::Auto, after_frames);
        assert_crash_recovered(name, run, &reference, after_frames);
    }
}

/// The rows whose `train_col` holds `train`, in the order given.
fn rows_of_train(recs: &[Record], train_col: usize, train: i64) -> Vec<Record> {
    recs.iter()
        .filter(|r| r.get(train_col).and_then(Value::as_int) == Some(train))
        .cloned()
        .collect()
}

fn splittable_window_query() -> Query {
    Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
            WindowAgg::new("min_speed", AggSpec::Min(col("speed"))),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    )
}

#[test]
fn filter_cluster_equivalence() {
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    assert_cluster_equivalent_both_feeds("filter", &q, &WatermarkStrategy::None);
}

#[test]
fn map_cluster_equivalence() {
    let q = Query::from("s").map(vec![
        ("train", col("train")),
        ("kmh", col("speed").mul(lit(3.6))),
    ]);
    assert_cluster_equivalent_both_feeds("map", &q, &WatermarkStrategy::None);
}

#[test]
fn map_extend_cluster_equivalence() {
    let q = Query::from("s")
        .filter(col("load").gt(lit(50)))
        .map_extend(vec![("over", col("speed").sub(lit(40.0)))]);
    assert_cluster_equivalent_both_feeds("map_extend", &q, &WatermarkStrategy::None);
}

#[test]
fn tumbling_window_cluster_equivalence() {
    // Avg decomposes into a (sum, count) partial, so this splits too:
    // the edge ships slice partials including the decomposed mean.
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
    let (_, report) = cluster_run(
        &q,
        PlacementStrategy::EdgeFirst,
        Feed::InOrder,
        generous_watermark(),
    );
    assert!(report.cluster.preaggregated, "avg splits via (sum, count)");
    assert_cluster_equivalent_both_feeds("tumbling", &q, &generous_watermark());
    assert_cluster_equivalent(
        "tumbling/no-wm",
        &q,
        Feed::InOrder,
        &WatermarkStrategy::None,
    );
}

/// A plugin aggregate that does not opt into the partial contract:
/// `splittable()` stays false, so its window must run whole on one node
/// (the unsplit window-at-the-edge path).
struct OpaqueCountAgg;

impl AggregatorFactory for OpaqueCountAgg {
    fn output_type(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<DataType> {
        Ok(DataType::Int)
    }

    fn create(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<Box<dyn Aggregator>> {
        struct Acc(i64);
        impl Aggregator for Acc {
            fn update(&mut self, _rec: &Record) -> Result<()> {
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

#[test]
fn unsplittable_custom_window_cluster_equivalence() {
    // The custom aggregate keeps `splittable()` false: no pre-aggregation
    // split engages and the window runs whole at its placed node.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new(
            "n",
            AggSpec::Custom(Arc::new(OpaqueCountAgg)),
        )],
    );
    let (_, report) = cluster_run(
        &q,
        PlacementStrategy::EdgeFirst,
        Feed::InOrder,
        generous_watermark(),
    );
    assert!(!report.cluster.preaggregated, "split must not engage");
    assert_cluster_equivalent("unsplittable", &q, Feed::InOrder, &generous_watermark());
}

#[test]
fn splittable_window_cluster_equivalence() {
    // All-splittable aggregates: exercises edge partials + cloud merge.
    let q = splittable_window_query();
    let (_, report) = cluster_run(
        &q,
        PlacementStrategy::EdgeFirst,
        Feed::InOrder,
        generous_watermark(),
    );
    assert!(report.cluster.preaggregated, "split must engage");
    assert_cluster_equivalent_both_feeds("splittable", &q, &generous_watermark());
    assert_cluster_equivalent(
        "splittable/no-wm",
        &q,
        Feed::InOrder,
        &WatermarkStrategy::None,
    );
}

#[test]
fn sliding_window_cluster_equivalence() {
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 20 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_cluster_equivalent_both_feeds("sliding", &q, &generous_watermark());
}

#[test]
fn keyless_window_cluster_equivalence() {
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_cluster_equivalent_both_feeds("keyless", &q, &generous_watermark());
}

#[test]
fn threshold_window_cluster_equivalence() {
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
    assert_cluster_equivalent("threshold", &q, Feed::InOrder, &WatermarkStrategy::None);
}

fn cep_query() -> Query {
    let pattern = Pattern::new(
        "speed-drop",
        vec![
            PatternStep::new("fast", col("speed").gt(lit(60.0))),
            PatternStep::new("slow", col("speed").lt(lit(10.0))),
        ],
        120 * MICROS_PER_SEC,
    )
    .keyed_by(col("train"));
    Query::from("s").cep(pattern)
}

#[test]
fn cep_cluster_equivalence() {
    assert_cluster_equivalent("cep", &cep_query(), Feed::InOrder, &WatermarkStrategy::None);
}

#[test]
fn cep_then_keyless_window_cluster_equivalence() {
    let q = cep_query().window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    assert_cluster_equivalent("cep+window", &q, Feed::InOrder, &WatermarkStrategy::None);
}

/// A plugin operator crossing node boundaries (opaque state: the chain
/// runs whole at its placed node).
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
fn plugin_operator_cluster_equivalence() {
    let q = Query::from("s").apply(Arc::new(DuplicateHighSpeed));
    assert_cluster_equivalent_both_feeds("plugin", &q, &WatermarkStrategy::None);
}

#[test]
fn composite_pipeline_cluster_equivalence() {
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
                WindowAgg::new("top_kmh", AggSpec::Max(col("kmh"))),
            ],
        );
    assert_cluster_equivalent_both_feeds("composite", &q, &generous_watermark());
}

#[test]
fn failure_replanning_mid_run_equivalence() {
    assert_failure_equivalent(
        "filter",
        &Query::from("s").filter(col("speed").ge(lit(40.0))),
        &WatermarkStrategy::None,
    );
    assert_failure_equivalent(
        "splittable",
        &splittable_window_query(),
        &generous_watermark(),
    );
    assert_failure_equivalent(
        "tumbling-avg",
        &Query::from("s").window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            ],
        ),
        &generous_watermark(),
    );
    assert_failure_equivalent("cep", &cep_query(), &WatermarkStrategy::None);
    assert_failure_equivalent(
        "threshold",
        &Query::from("s").window(
            vec![("train", col("train"))],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(56.0)),
                min_count: 2,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        ),
        &WatermarkStrategy::None,
    );
}

#[test]
fn edge_preaggregation_cuts_measured_uplink_bytes() {
    let q = splittable_window_query();
    let wm = generous_watermark();
    let (edge_recs, edge) =
        cluster_run(&q, PlacementStrategy::EdgeFirst, Feed::InOrder, wm.clone());
    let (cloud_recs, cloud) = cluster_run(&q, PlacementStrategy::CloudOnly, Feed::InOrder, wm);
    assert_eq!(edge_recs, cloud_recs, "strategies agree on results");
    assert!(edge.cluster.preaggregated);
    assert!(!cloud.cluster.preaggregated);
    assert!(
        edge.cluster.uplink_bytes * 5 < cloud.cluster.uplink_bytes,
        "edge pre-aggregation must cut measured uplink bytes >5x: edge {} vs cloud {}",
        edge.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes
    );
    assert!(
        edge.cluster.uplink_records < cloud.cluster.uplink_records,
        "aggregated rows, not raw records, cross the uplink"
    );
    // Cloud-only ships everything over both hops; per-link accounting
    // must show the raw stream on the sensor link in both strategies.
    let topo_links = edge.cluster.links.len();
    assert_eq!(topo_links, cloud.cluster.links.len());
    assert!(edge.cluster.links.iter().any(|l| l.records == 600));
    // Simulated transfer time tracks the byte difference.
    let sim = |m: &ClusterMetrics| -> f64 { m.links.iter().map(|l| l.simulated_transfer_ms).sum() };
    assert!(sim(&edge.cluster) < sim(&cloud.cluster));

    // Uplink classification happens at send time. The edge crashes at
    // frame 11, after sealing epoch 1 (see `CRASH_AFTER_FRAMES`):
    // recovery re-attaches the sensors straight to the cloud and replays
    // batches 5..=19 — 472 of the 600 records — over that link, which is
    // now an uplink. With C the cloud-only uplink above (every raw
    // record), correct accounting reports about 472/600 C = 0.79 C, plus
    // ~1% of envelope bytes and the few partial rows shipped before the
    // crash. Re-labelling the old onboard-bus link as uplink after the
    // re-attachment would add its pre-crash raw traffic: batches 1..=8
    // at least (the edge died at batch 8's data frame), 256/600 C =
    // 0.43 C, for 1.2 C or more. So `< C` holds with ~20% to spare and a
    // mislabelling breaks it — as would an epoch-0 restore replaying
    // all 600 records, hence the sealed-epoch check.
    let (_, crashed, _) = crash_run(&q, generous_watermark(), ColumnarMode::Auto, 11);
    assert!(
        sealed_before_crash(&crashed),
        "the crash must restore epoch 1, not epoch 0"
    );
    assert!(
        crashed.cluster.uplink_bytes < cloud.cluster.uplink_bytes,
        "crash-run uplink {} must stay below cloud-only {} (bus bytes \
         must not be re-labelled as uplink after re-attachment)",
        crashed.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes
    );
}

#[test]
fn multi_source_placements_report_cloud_for_the_shared_tail() {
    // With several pipelines fanning into one stateful tail, the tail
    // runs once at the cloud; the reported placements must say so even
    // though `place()` would have put the (non-splittable) window on
    // each train's edge box. The custom aggregate keeps the window
    // unsplittable (Avg now splits via its (sum, count) partial).
    let q = Query::from("s").filter(col("load").ge(lit(0))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new(
            "n",
            AggSpec::Custom(Arc::new(OpaqueCountAgg)),
        )],
    );
    let (topo, sensors) = Topology::train_fleet(2);
    let cloud = topo.cloud().unwrap();
    let mut env = ClusterEnvironment::new(topo);
    for sensor in &sensors {
        env.add_source("s", *sensor, source(Feed::InOrder), generous_watermark());
    }
    let (mut sink, _) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("multi-source run");
    for pl in &report.placements {
        // stages: [source, filter, window, sink] — the window (first
        // stateful op) and sink must be reported at the cloud.
        assert_eq!(pl.stages.len(), 4);
        assert_eq!(pl.stages[2], cloud, "stateful tail runs at the cloud");
        assert_eq!(pl.stages[3], cloud);
        assert_ne!(pl.stages[0], cloud, "source stays on its sensor");
    }
}

#[test]
fn multi_source_fleet_merges_at_cloud() {
    // Three trains, each hosting its own slice of the stream on its own
    // sensors: per-edge partial windows must merge at the cloud into
    // exactly the rows a single-process run over the union produces.
    let q = splittable_window_query();
    let (reference, ref_metrics) = sync_reference(&q, Feed::InOrder, generous_watermark());

    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records()
            .into_iter()
            .filter(|r| {
                let train = r.get(1).unwrap().as_int().unwrap();
                (train as usize) % sensors.len() == t
            })
            .collect();
        assert!(!slice.is_empty());
        env.add_source(
            "s",
            *sensor,
            Box::new(VecSource::new(schema(), slice)),
            generous_watermark(),
        );
    }
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("multi-source run");
    assert_eq!(
        normalized(got.records()),
        normalized(reference.clone()),
        "fan-in merge matches the union reference"
    );
    // Pipelines interleave at the cloud in arrival order, but each
    // train lives on one pipeline and its windows still come out in
    // that pipeline's order.
    for train in 0..5 {
        assert_eq!(
            rows_of_train(&got.records(), 0, train),
            rows_of_train(&reference, 0, train),
            "train {train}: per-pipeline delivery order"
        );
    }
    assert_eq!(report.metrics.records_in, ref_metrics.records_in);
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    assert!(report.cluster.preaggregated);
    assert_eq!(report.placements.len(), 3);
}

#[test]
fn early_finished_source_does_not_stall_or_regress_the_fleet_clock() {
    // One train's slice is tiny — its pipeline reaches end-of-stream
    // within the first couple of epochs while the other two keep
    // feeding for the whole run. The cloud fan-in must drop the
    // finished origin out of its frontier min (a finished input
    // promises everything) instead of letting its last small watermark
    // pin the fleet clock, and the frontier handed downstream must
    // never regress — either failure mode leaves windows open or
    // double-closes them, diverging from the union reference.
    let q = splittable_window_query();
    let (reference, ref_metrics) = sync_reference(&q, Feed::InOrder, generous_watermark());

    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    let all = records();
    let slices: [Vec<Record>; 3] = [
        // Exhausts mid-run: only the first 40 of 600 records.
        all[..40].to_vec(),
        all[40..].iter().step_by(2).cloned().collect(),
        all[41..].iter().step_by(2).cloned().collect(),
    ];
    for (sensor, slice) in sensors.iter().zip(slices) {
        assert!(!slice.is_empty());
        env.add_source(
            "s",
            *sensor,
            Box::new(VecSource::new(schema(), slice)),
            generous_watermark(),
        );
    }
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("early-finish run");
    assert_eq!(
        normalized(got.records()),
        normalized(reference),
        "early finish diverges from union reference"
    );
    assert_eq!(report.metrics.records_in, ref_metrics.records_in);
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    // The long pipelines kept punctuating after the short one finished,
    // so the fleet clock must have kept advancing (watermarks crossed
    // the wire well beyond the short slice's two epochs).
    assert!(
        report.metrics.watermarks > 6,
        "fleet clock stalled after early finish: only {} watermarks",
        report.metrics.watermarks
    );
}

#[test]
fn meos_sequence_append_crosses_the_wire() {
    // A trajectory-assembling window: the MEOS sequence payload must
    // survive the wire via the plugin codec, and per-edge sub-sequences
    // must append into the same sequences a single-process run builds.
    use meos::geo::Point;
    use nebulameos::values::as_tpoint;
    use nebulameos::TrajectoryAgg;

    let schema = Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train_id", DataType::Int),
        ("pos", DataType::Point),
    ]);
    let records: Vec<Record> = (0..240)
        .map(|i| {
            Record::new(vec![
                Value::Timestamp(i * MICROS_PER_SEC),
                Value::Int(i % 2),
                Value::Point {
                    x: 4.30 + i as f64 * 0.001,
                    y: 50.85,
                },
            ])
        })
        .collect();
    let q = Query::from("fleet").window(
        vec![("train", col("train_id"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new(
                "traj",
                AggSpec::Custom(Arc::new(TrajectoryAgg::new("pos", "ts"))),
            ),
            WindowAgg::new("n", AggSpec::Count),
        ],
    );

    let mut sync_env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    sync_env.add_source(
        "fleet",
        Box::new(VecSource::new(schema.clone(), records.clone())),
        generous_watermark(),
    );
    let (mut sink, sync_got) = CollectingSink::new();
    sync_env.run(&q, &mut sink).expect("sync run");

    let (topo, sensors) = Topology::train_fleet(2);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    nebulameos::register_meos_codecs(env.wire_registry_mut());
    // Each train's samples stream from its own sensors.
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records
            .iter()
            .filter(|r| r.get(1).unwrap().as_int().unwrap() as usize % 2 == t)
            .cloned()
            .collect();
        env.add_source(
            "fleet",
            *sensor,
            Box::new(VecSource::new(schema.clone(), slice)),
            generous_watermark(),
        );
    }
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("cluster run with MEOS payloads");
    assert!(
        report.cluster.preaggregated,
        "sequence-append split engaged"
    );

    // Opaque columns tie under the canonical sort key; compare via the
    // (train, window) identity instead of full record order.
    let index = |recs: Vec<Record>| -> std::collections::HashMap<(i64, i64), Record> {
        recs.into_iter()
            .map(|r| {
                let train = r.get(0).unwrap().as_int().unwrap();
                let start = r.get(1).unwrap().as_timestamp().unwrap();
                ((train, start), r)
            })
            .collect()
    };
    let sync_rows = index(sync_got.records());
    let cluster_rows = index(got.records());
    assert_eq!(sync_rows.len(), cluster_rows.len());
    assert!(!sync_rows.is_empty());
    for (key, sync_row) in &sync_rows {
        let cluster_row = cluster_rows.get(key).unwrap_or_else(|| panic!("{key:?}"));
        assert_eq!(cluster_row.get(4), sync_row.get(4), "{key:?}: count");
        let a = as_tpoint(sync_row.get(3).unwrap()).unwrap();
        let b = as_tpoint(cluster_row.get(3).unwrap()).unwrap();
        assert_eq!(a.num_instants(), b.num_instants(), "{key:?}");
        assert_eq!(a.start_timestamp(), b.start_timestamp(), "{key:?}");
        assert_eq!(a.end_timestamp(), b.end_timestamp(), "{key:?}");
        let pa: Point = a.start_value();
        let pb: Point = b.start_value();
        assert_eq!((pa.x, pa.y), (pb.x, pb.y), "{key:?}");
    }
}

#[test]
fn plan_error_keeps_sources_hosted() {
    let (mut env, _) = fleet_env(Feed::InOrder, WatermarkStrategy::None);
    let bad = Query::from("s").filter(col("no_such_column").gt(lit(1.0)));
    let (mut sink, _) = CollectingSink::new();
    assert!(env
        .run_placed(&bad, PlacementStrategy::EdgeFirst, &mut sink)
        .is_err());
    // The hosted source survived; a good query still runs.
    let good = Query::from("s").filter(col("speed").ge(lit(0.0)));
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(&good, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("source survived the plan error");
    assert_eq!(report.metrics.records_in, 600);
    assert_eq!(got.len(), 600);
}

/// The analytic estimator (`measure_stage_bytes` + `network_cost`) must
/// reconcile with the bytes actually measured on the wire. Stated
/// tolerance: measured bytes may exceed the estimate by at most 15%
/// (frame headers, per-field validity flags and bitmaps, control
/// frames) and never undercut it by more than 5%.
#[test]
fn analytic_network_cost_reconciles_with_measured_wire_bytes() {
    let q = Query::from("s").filter(col("speed").ge(lit(40.0))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    );
    let reg = FunctionRegistry::with_builtins();
    let stages = measure_stage_bytes(Box::new(VecSource::new(schema(), records())), &q, &reg, 32)
        .expect("stage measurement");

    for strategy in [PlacementStrategy::CloudOnly, PlacementStrategy::EdgeFirst] {
        let (topo, sensors) = Topology::train_fleet(3);
        let placement = place(&q, &topo, sensors[0], strategy).expect("placement");
        let analytic = network_cost(&topo, &placement, &stages).expect("network cost");

        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: 32,
                watermark_every: 2,
                ..ClusterConfig::default()
            },
        );
        env.add_source(
            "s",
            sensors[0],
            source(Feed::InOrder),
            WatermarkStrategy::None,
        );
        let (mut sink, _) = CollectingSink::new();
        let report = env
            .run_placed(&q, strategy, &mut sink)
            .expect("cluster run");
        assert_eq!(
            report.cluster.preaggregated,
            strategy == PlacementStrategy::EdgeFirst,
            "{strategy:?}: the split engages exactly under EdgeFirst"
        );

        for (i, link) in report.cluster.links.iter().enumerate() {
            let estimate = analytic.bytes_per_link[i];
            let measured = link.bytes;
            if estimate == 0 {
                // Only control frames (Eos) may cross an "idle" link.
                assert!(
                    measured < 64,
                    "{strategy:?} link {i}: {measured} bytes on a zero-estimate link"
                );
                continue;
            }
            let ratio = measured as f64 / estimate as f64;
            assert!(
                (0.95..=1.15).contains(&ratio),
                "{strategy:?} link {i}: measured {measured} vs estimate {estimate} \
                 (ratio {ratio:.3}) outside the stated 15% tolerance"
            );
        }
        let uplink_ratio =
            report.cluster.uplink_bytes as f64 / analytic.cloud_uplink_bytes.max(1) as f64;
        assert!(
            (0.95..=1.15).contains(&uplink_ratio),
            "{strategy:?}: uplink measured {} vs estimate {} (ratio {uplink_ratio:.3})",
            report.cluster.uplink_bytes,
            analytic.cloud_uplink_bytes
        );
    }
}

#[test]
fn avg_query_preaggregates_and_cuts_uplink() {
    // Avg used to forfeit pre-aggregation (no single-column merge); the
    // (sum, count) slice partial ships it like any other aggregate.
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("avg_load", AggSpec::Avg(col("load"))),
        ],
    );
    let wm = generous_watermark();
    let (edge_recs, edge) =
        cluster_run(&q, PlacementStrategy::EdgeFirst, Feed::InOrder, wm.clone());
    let (cloud_recs, cloud) = cluster_run(&q, PlacementStrategy::CloudOnly, Feed::InOrder, wm);
    assert_eq!(edge_recs, cloud_recs, "strategies agree on avg results");
    assert!(edge.cluster.preaggregated, "avg splits at the edge");
    assert!(!cloud.cluster.preaggregated);
    assert!(
        edge.cluster.uplink_bytes * 5 < cloud.cluster.uplink_bytes,
        "avg pre-aggregation must cut measured uplink bytes >5x: edge {} vs cloud {}",
        edge.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes
    );
}

#[test]
fn sliding_uplink_does_not_scale_with_overlap() {
    // The slice refactor's uplink claim: an edge ships one partial per
    // slice, not one per overlapping window, so a content-carrying
    // sliding window (MEOS sequence assembly) costs about the same
    // uplink as its tumbling counterpart instead of `size/slide` times
    // more. 600 s of per-train float samples, windowed as tfloat
    // sequences.
    use nebulameos::TFloatSeqAgg;

    let run_uplink = |spec: WindowSpec| -> u64 {
        let (topo, sensors) = Topology::train_fleet(3);
        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: 32,
                watermark_every: 2,
                ..ClusterConfig::default()
            },
        );
        nebulameos::register_meos_codecs(env.wire_registry_mut());
        env.add_source("s", sensors[0], source(Feed::InOrder), generous_watermark());
        let q = Query::from("s").window(
            vec![("train", col("train"))],
            spec,
            vec![WindowAgg::new(
                "speed_seq",
                AggSpec::Custom(Arc::new(TFloatSeqAgg::linear(col("speed"), "ts"))),
            )],
        );
        let (mut sink, _) = CollectingSink::new();
        let report = env
            .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
            .expect("tfloat cluster run");
        assert!(report.cluster.preaggregated, "sequence append splits");
        report.cluster.uplink_bytes
    };

    let tumbling = run_uplink(WindowSpec::Tumbling {
        size: 60 * MICROS_PER_SEC,
    });
    let overlap4 = run_uplink(WindowSpec::Sliding {
        size: 60 * MICROS_PER_SEC,
        slide: 15 * MICROS_PER_SEC,
    });
    let ratio = overlap4 as f64 / tumbling as f64;
    assert!(
        ratio < 2.0,
        "4x-overlap sliding uplink must stay near tumbling (per-slice \
         shipping), got {overlap4} vs {tumbling} (ratio {ratio:.2}; \
         per-window shipping would be ~4x)"
    );
}

#[test]
fn late_drops_reported_identically_across_runtimes() {
    // Jitter larger than the watermark slack forces genuinely late
    // records. Every runtime — sync, threaded, the work-stealing
    // partitioned executor at several widths, placed under both
    // strategies — sees the same record/watermark interleaving, so all
    // must report the same (at-most-once-per-record) late count through
    // QueryMetrics. Out-of-order task completion must not double-count
    // a record that is late in more than one partition step.
    let tight = WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 2 * MICROS_PER_SEC,
    };
    // 64-record jitter against 2 s slack: displacements far exceed what
    // the watermark tolerates, every runtime sees the same deterministic
    // shuffle (seeded), and plenty of records outlive all their windows.
    let wild = || -> Box<dyn Source> {
        Box::new(JitterSource::new(
            VecSource::new(schema(), records()),
            64,
            7,
        ))
    };
    let q = splittable_window_query();

    let sync_metrics = {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source("s", wild(), tight.clone());
        let (mut sink, _) = CollectingSink::new();
        env.run(&q, &mut sink).expect("sync run")
    };
    assert!(
        sync_metrics.late_drops > 0,
        "jitter 64 with 2 s slack must drop something"
    );

    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    env.add_source("s", wild(), tight.clone());
    let (mut sink, _) = CollectingSink::new();
    let threaded = env.run_threaded(&q, &mut sink).expect("threaded run");
    assert_eq!(threaded.late_drops, sync_metrics.late_drops, "threaded");

    for p in [1, 2, 4, 8] {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            parallelism: p,
            ..EnvConfig::default()
        });
        env.add_source("s", wild(), tight.clone());
        let (mut sink, _) = CollectingSink::new();
        let m = env.run_partitioned(&q, &mut sink).expect("partitioned run");
        assert_eq!(m.late_drops, sync_metrics.late_drops, "partitioned({p})");
    }

    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let (topo, sensors) = Topology::train_fleet(3);
        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: 32,
                watermark_every: 2,
                ..ClusterConfig::default()
            },
        );
        env.add_source("s", sensors[0], wild(), tight.clone());
        let (mut sink, _) = CollectingSink::new();
        let report = env.run_placed(&q, strategy, &mut sink).expect("placed run");
        assert_eq!(
            report.metrics.late_drops, sync_metrics.late_drops,
            "{strategy:?}"
        );
    }
}

#[test]
fn watermark_every_zero_reads_as_one_in_run_and_run_placed() {
    // `watermark_every: 0` must mean the same thing to every executor:
    // a watermark after every batch. With zero slack, one-batch
    // cadence and 8-record jitter, that cadence decides which records
    // are late, so a mode that never punctuated would emit more rows
    // and drop none.
    let exact = WatermarkStrategy::BoundedOutOfOrder {
        ts_field: "ts".into(),
        slack: 0,
    };
    let q = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 10 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let run = |watermark_every: u64| {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 4,
            watermark_every,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::Jittered(3)), exact.clone());
        let (mut sink, got) = CollectingSink::new();
        let metrics = env.run(&q, &mut sink).expect("sync run");
        (normalized(got.records()), metrics.late_drops)
    };
    let (reference, late) = run(1);
    assert!(late > 0, "zero slack under jitter must drop something");
    assert_eq!(run(0), (reference.clone(), late), "run: 0 reads as 1");
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let (topo, sensors) = Topology::train_fleet(3);
        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: 4,
                watermark_every: 0,
                ..ClusterConfig::default()
            },
        );
        env.add_source("s", sensors[0], source(Feed::Jittered(3)), exact.clone());
        let (mut sink, got) = CollectingSink::new();
        let report = env.run_placed(&q, strategy, &mut sink).expect("placed run");
        assert_eq!(
            (normalized(got.records()), report.metrics.late_drops),
            (reference.clone(), late),
            "run_placed {strategy:?}: 0 reads as 1"
        );
    }
}

// ---------------------------------------------------------------------------
// Streaming delivery: results leave the cloud as they are produced
// ---------------------------------------------------------------------------

/// A `VecSource` that publishes how many times it has been polled — a
/// logical clock a sink can read without looking at the wall clock.
struct ClockedSource {
    inner: VecSource,
    polls: Arc<AtomicU64>,
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

/// Notes the source's poll count at the first delivery.
struct FirstDeliverySink {
    polls: Arc<AtomicU64>,
    first_at: Option<u64>,
}

impl Sink for FirstDeliverySink {
    fn consume(&mut self, _buf: &RecordBuffer) -> Result<()> {
        self.first_at
            .get_or_insert_with(|| self.polls.load(Ordering::SeqCst));
        Ok(())
    }
}

#[test]
fn first_delivery_happens_while_the_source_still_has_batches() {
    // 200 batches of 32. `run` hands the sink its first buffer right
    // after the poll that produced it (poll `k`); a placed run may have
    // polled further ahead by then, but only by what fits between the
    // source and the sink: one frame in hand per thread plus the bounded
    // channels (one into the edge stage at most, one cloud inbox).
    let total_polls = 200;
    let clocked = || {
        let polls = Arc::new(AtomicU64::new(0));
        let source = Box::new(ClockedSource {
            inner: VecSource::new(schema(), records_n(32 * total_polls as i64)),
            polls: Arc::clone(&polls),
        });
        let sink = FirstDeliverySink {
            polls,
            first_at: None,
        };
        (source, sink)
    };
    let cases = [
        (
            "q1-shaped",
            Query::from("s").filter(col("speed").ge(lit(40.0))),
            WatermarkStrategy::None,
        ),
        (
            "keyed window",
            splittable_window_query(),
            generous_watermark(),
        ),
    ];
    for (name, q, watermark) in cases {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        let (source, mut sink) = clocked();
        env.add_source("s", source, watermark.clone());
        env.run(&q, &mut sink).expect("sync run");
        let k = sink.first_at.expect("the reference delivers");

        for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
            let (topo, sensors) = Topology::train_fleet(3);
            let config = ClusterConfig {
                buffer_size: 32,
                watermark_every: 2,
                ..ClusterConfig::default()
            };
            let in_flight = 2 * config.channel_capacity as u64 + 3;
            let mut env = ClusterEnvironment::with_config(topo, config);
            let (source, mut sink) = clocked();
            env.add_source("s", sensors[0], source, watermark.clone());
            env.run_placed(&q, strategy, &mut sink)
                .unwrap_or_else(|e| panic!("{name}/{strategy:?}: {e}"));
            let first_at = sink.first_at.expect("the placed run delivers");
            assert!(
                first_at <= k + in_flight + 1,
                "{name}/{strategy:?}: first delivery at poll {first_at}, `run` delivers at \
                 poll {k} and only {in_flight} frames fit in flight"
            );
            assert!(
                first_at < total_polls / 2,
                "{name}/{strategy:?}: first delivery only at poll {first_at} of {total_polls}"
            );
        }
    }
}

#[test]
fn multi_source_stateless_rows_keep_their_pipeline_order() {
    // Three stateless pipelines interleave at the cloud in arrival
    // order — compare normalized — but the cloud never reorders what
    // one pipeline sent: each train slice arrives in source order.
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    let (reference, ref_metrics) = sync_reference(&q, Feed::InOrder, WatermarkStrategy::None);

    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            ..ClusterConfig::default()
        },
    );
    // Trains 0 and 3 on pipeline 0, 1 and 4 on pipeline 1, 2 on pipeline 2.
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records()
            .into_iter()
            .filter(|r| r.get(1).unwrap().as_int().unwrap() as usize % sensors.len() == t)
            .collect();
        env.add_source(
            "s",
            *sensor,
            Box::new(VecSource::new(schema(), slice)),
            WatermarkStrategy::None,
        );
    }
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(&q, PlacementStrategy::EdgeFirst, &mut sink)
        .expect("multi-source stateless run");
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    assert_eq!(normalized(got.records()), normalized(reference.clone()));
    for train in 0..5 {
        assert_eq!(
            rows_of_train(&got.records(), 1, train),
            rows_of_train(&reference, 1, train),
            "train {train}: per-pipeline delivery order"
        );
    }
}

// ---------------------------------------------------------------------------
// Batched (columnar) wire-path coverage
// ---------------------------------------------------------------------------

/// A plugin function with no columnar kernel — the shape of the paper's
/// zone predicates (`in_noise_zone(pos)`), which a columnar filter or
/// map evaluates row by row inside its batch.
struct HeavyLoad;

impl Plugin for HeavyLoad {
    fn name(&self) -> &str {
        "heavy-load"
    }

    fn register(&self, reg: &mut FunctionRegistry) -> Result<()> {
        reg.register(ClosureFunction::new(
            "heavy_load",
            1,
            DataType::Bool,
            |args| {
                Ok(match args[0].as_int() {
                    Some(load) => Value::Bool(load >= 120),
                    None => Value::Null,
                })
            },
        ))
    }
}

/// [`cluster_run`] with explicit batch size and columnar mode (and
/// [`HeavyLoad`] loaded): data frames are column-major whatever the
/// mode, and each receiving tail takes them columnar or as rows by the
/// same gate as the source, so results must not depend on either.
fn cluster_run_cfg(
    query: &Query,
    strategy: PlacementStrategy,
    feed: Feed,
    watermark: WatermarkStrategy,
    buffer_size: usize,
    columnar: ColumnarMode,
) -> (Vec<Record>, ClusterReport) {
    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size,
            columnar,
            watermark_every: 2,
            ..ClusterConfig::default()
        },
    );
    env.load_plugin(&HeavyLoad).expect("plugin");
    env.add_source("s", sensors[0], source(feed), watermark);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed(query, strategy, &mut sink)
        .unwrap_or_else(|e| {
            panic!("{strategy:?}/{feed:?}/batch={buffer_size}/{columnar:?} cluster run failed: {e}")
        });
    // Batch size shapes the jittered feed and the watermark cadence,
    // so runs at different sizes compare in canonical order.
    (normalized(got.records()), report)
}

/// Batched cluster execution vs the per-record sync reference, across
/// batch sizes, every columnar mode (`Auto` is the default and what the
/// benchmark runs), placement strategies and jittered feeds.
fn assert_batched_cluster_equivalent(
    name: &str,
    query: &Query,
    feed: Feed,
    watermark: &WatermarkStrategy,
) {
    let (reference, ref_metrics) = sync_reference(query, feed, watermark.clone());
    let reference = normalized(reference);
    for batch in [1, 7, 64, 1024] {
        for columnar in [ColumnarMode::Off, ColumnarMode::Force, ColumnarMode::Auto] {
            for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
                let (got, report) =
                    cluster_run_cfg(query, strategy, feed, watermark.clone(), batch, columnar);
                assert_eq!(
                    got, reference,
                    "{name}: {strategy:?}/{feed:?}/batch={batch}/{columnar:?} diverges"
                );
                assert_eq!(
                    report.metrics.records_in, ref_metrics.records_in,
                    "{name}: {strategy:?}/batch={batch}/{columnar:?} records_in"
                );
                assert_eq!(
                    report.metrics.records_out, ref_metrics.records_out,
                    "{name}: {strategy:?}/batch={batch}/{columnar:?} records_out"
                );
                assert_eq!(
                    report.metrics.late_drops, ref_metrics.late_drops,
                    "{name}: {strategy:?}/batch={batch}/{columnar:?} late_drops"
                );
            }
        }
    }
}

#[test]
fn batched_stateless_cluster_equivalence() {
    let q = Query::from("s")
        .filter(col("load").gt(lit(50)))
        .map_extend(vec![("over", col("speed").sub(lit(40.0)))]);
    assert_batched_cluster_equivalent("stateless", &q, Feed::InOrder, &WatermarkStrategy::None);
    assert_batched_cluster_equivalent("stateless", &q, Feed::Jittered(7), &WatermarkStrategy::None);
}

#[test]
fn batched_cloud_tail_cluster_equivalence() {
    // Under `CloudOnly` the whole chain is the cloud tail fed by decoded
    // frames. Q1's shape: computed flags and a plugin call, a filter on
    // them, then a text-valued `if`.
    let q1 = Query::from("s")
        .map_extend(vec![
            ("fast", col("speed").gt(lit(60.0))),
            ("heavy", call("heavy_load", vec![col("load")])),
        ])
        .filter(col("fast").or(col("heavy")))
        .map_extend(vec![(
            "alert",
            call("if", vec![col("heavy"), lit("load"), lit("speed")]),
        )]);
    for feed in [Feed::InOrder, Feed::Jittered(7)] {
        assert_batched_cluster_equivalent("q1-shaped", &q1, feed, &WatermarkStrategy::None);
    }
    // Q2's shape: a plugin-call filter ahead of a tumbling window.
    let q2 = Query::from("s")
        .filter(call("heavy_load", vec![col("load")]))
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("peak", AggSpec::Max(col("speed"))),
            ],
        );
    for feed in [Feed::InOrder, Feed::Jittered(99)] {
        assert_batched_cluster_equivalent("q2-shaped", &q2, feed, &generous_watermark());
    }
}

#[test]
fn batched_splittable_window_cluster_equivalence() {
    // Exact (order-independent) aggregates, so jittered feeds compare
    // bit-for-bit across batch sizes despite per-batch watermark cadence.
    let q = splittable_window_query();
    assert_batched_cluster_equivalent("splittable", &q, Feed::InOrder, &generous_watermark());
    assert_batched_cluster_equivalent("splittable", &q, Feed::Jittered(99), &generous_watermark());
}

#[test]
fn batched_failure_replanning_equivalence() {
    // An edge crash under forced-columnar execution at `run`'s batch
    // size: checkpoints snapshot window state after buffers were
    // absorbed columnar-side, and recovery (a restore of epoch 1 for 11
    // frames, of epoch 0 for 0 and 3) continues from it in
    // `run`'s raw order.
    let q = splittable_window_query();
    let reference = sync_reference(&q, Feed::InOrder, generous_watermark());
    for after_frames in CRASH_AFTER_FRAMES {
        let run = crash_run(&q, generous_watermark(), ColumnarMode::Force, after_frames);
        assert_crash_recovered("columnar", run, &reference, after_frames);
    }
}

#[test]
fn batched_wire_bytes_match_row_wire_bytes() {
    // Rows and buffers encode to the same column-major bytes, so
    // per-link traffic must be byte-identical to the per-record path,
    // keeping the analytic `network_cost` reconciliation valid for
    // batched runs too.
    let q = Query::from("s").filter(col("speed").ge(lit(40.0))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    );
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let (row_recs, row) = cluster_run_cfg(
            &q,
            strategy,
            Feed::InOrder,
            WatermarkStrategy::None,
            32,
            ColumnarMode::Off,
        );
        let (col_recs, col) = cluster_run_cfg(
            &q,
            strategy,
            Feed::InOrder,
            WatermarkStrategy::None,
            32,
            ColumnarMode::Force,
        );
        assert_eq!(col_recs, row_recs, "{strategy:?}: results");
        assert_eq!(
            col.cluster.uplink_bytes, row.cluster.uplink_bytes,
            "{strategy:?}: uplink bytes"
        );
        assert_eq!(
            col.cluster.links.len(),
            row.cluster.links.len(),
            "{strategy:?}: link count"
        );
        for (i, (lc, lr)) in col
            .cluster
            .links
            .iter()
            .zip(row.cluster.links.iter())
            .enumerate()
        {
            assert_eq!(lc.bytes, lr.bytes, "{strategy:?} link {i}: bytes");
            assert_eq!(lc.records, lr.records, "{strategy:?} link {i}: records");
        }
    }
}

#[test]
fn batched_wire_bytes_reconcile_with_analytic_network_cost() {
    // The analytic estimator was validated against the per-record wire
    // path; the batched path must land inside the same stated tolerance.
    let q = Query::from("s").filter(col("speed").ge(lit(40.0))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    );
    let reg = FunctionRegistry::with_builtins();
    let stages = measure_stage_bytes(Box::new(VecSource::new(schema(), records())), &q, &reg, 32)
        .expect("stage measurement");

    for strategy in [PlacementStrategy::CloudOnly, PlacementStrategy::EdgeFirst] {
        let (topo, sensors) = Topology::train_fleet(3);
        let placement = place(&q, &topo, sensors[0], strategy).expect("placement");
        let analytic = network_cost(&topo, &placement, &stages).expect("network cost");

        let mut env = ClusterEnvironment::with_config(
            topo,
            ClusterConfig {
                buffer_size: 32,
                watermark_every: 2,
                columnar: ColumnarMode::Force,
                ..ClusterConfig::default()
            },
        );
        env.add_source(
            "s",
            sensors[0],
            source(Feed::InOrder),
            WatermarkStrategy::None,
        );
        let (mut sink, _) = CollectingSink::new();
        let report = env
            .run_placed(&q, strategy, &mut sink)
            .expect("columnar cluster run");
        assert_eq!(
            report.cluster.preaggregated,
            strategy == PlacementStrategy::EdgeFirst,
            "{strategy:?}: the split engages exactly under EdgeFirst"
        );

        for (i, link) in report.cluster.links.iter().enumerate() {
            let estimate = analytic.bytes_per_link[i];
            let measured = link.bytes;
            if estimate == 0 {
                assert!(
                    measured < 64,
                    "{strategy:?} link {i}: {measured} bytes on a zero-estimate link"
                );
                continue;
            }
            let ratio = measured as f64 / estimate as f64;
            assert!(
                (0.95..=1.15).contains(&ratio),
                "{strategy:?} link {i}: columnar measured {measured} vs estimate {estimate} \
                 (ratio {ratio:.3}) outside the stated 15% tolerance"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Telemetry: cluster-side conservation and node snapshot fan-in
// ---------------------------------------------------------------------------

/// Runs one placed query with sub-interval sampling so every node ships
/// snapshots, returning the full cluster report.
fn telemetry_cluster_run(query: &Query, strategy: PlacementStrategy) -> ClusterReport {
    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            telemetry: TelemetryConfig {
                sample_every: std::time::Duration::ZERO,
                ..TelemetryConfig::default()
            },
            ..ClusterConfig::default()
        },
    );
    env.add_source("s", sensors[0], source(Feed::InOrder), generous_watermark());
    let (mut sink, _got) = CollectingSink::new();
    env.run_placed(query, strategy, &mut sink)
        .unwrap_or_else(|e| panic!("{strategy:?} telemetry run failed: {e}"))
}

#[test]
fn cluster_telemetry_reports_operators_and_snapshots() {
    // Under both placements the distributed run must account for every
    // source record at the chain head, attribute late drops
    // per-operator, sample the coordinator series, fan in node
    // snapshots over the wire, and log the deployment event.
    let q = Query::from("s").filter(col("load").ge(lit(20))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 120 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let report = telemetry_cluster_run(&q, strategy);
        let tel = &report.telemetry;
        assert_eq!(tel.mode, "run_placed", "{strategy:?} mode label");
        assert!(!tel.operators.is_empty(), "{strategy:?} has operators");
        assert_eq!(
            tel.operators[0].records_in, report.metrics.records_in,
            "{strategy:?} chain head consumes every source record"
        );
        let late: u64 = tel.operators.iter().map(|op| op.late_drops).sum();
        assert_eq!(
            late, report.metrics.late_drops,
            "{strategy:?} per-operator late drops sum to the aggregate"
        );
        assert!(!tel.samples.is_empty(), "{strategy:?} sampled the series");
        assert!(
            !tel.node_snapshots.is_empty(),
            "{strategy:?} nodes shipped snapshots to the cloud"
        );
        assert!(
            tel.events
                .iter()
                .any(|e| e.kind == TraceKind::QueryDeployed),
            "{strategy:?} logged the deployment event"
        );
    }
}

#[test]
fn cluster_cloud_only_chain_telescopes() {
    // CloudOnly keeps the whole chain at the cloud in plan order, so
    // the strict single-process invariant carries over: consecutive
    // operators telescope and the tail's output is what the sink saw.
    let q = Query::from("s")
        .filter(col("load").ge(lit(20)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 120 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
    let report = telemetry_cluster_run(&q, PlacementStrategy::CloudOnly);
    let tel = &report.telemetry;
    for pair in tel.operators.windows(2) {
        assert_eq!(
            pair[0].records_out,
            pair[1].records_in,
            "cloud-only {} out -> {} in telescopes",
            pair[0].id(),
            pair[1].id()
        );
    }
    assert_eq!(
        tel.operators.last().unwrap().records_out,
        report.metrics.records_out,
        "cloud-only chain tail produced the delivered records"
    );
}

// ---------------------------------------------------------------------------
// Link traffic: fault-free placed runs move the same frames every time
// ---------------------------------------------------------------------------

/// `(frames, records, bytes)` over one link.
type Traffic = (u64, u64, u64);

/// Per-link `(frames, records, bytes)` of one telemetry-free placed run
/// over `trains` trains (each hosting its `train % trains` slice of the
/// stream), then the uplink's `(frames, records, bytes)`.
fn link_traffic(
    query: &Query,
    strategy: PlacementStrategy,
    trains: usize,
) -> (Vec<Traffic>, Traffic) {
    let (topo, sensors) = Topology::train_fleet(trains);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size: 32,
            watermark_every: 2,
            telemetry: TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            ..ClusterConfig::default()
        },
    );
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records()
            .into_iter()
            .filter(|r| r.get(1).unwrap().as_int().unwrap() as usize % trains == t)
            .collect();
        env.add_source(
            "s",
            *sensor,
            Box::new(VecSource::new(schema(), slice)),
            generous_watermark(),
        );
    }
    let (mut sink, _) = CollectingSink::new();
    let report = env
        .run_placed(query, strategy, &mut sink)
        .unwrap_or_else(|e| panic!("{strategy:?}/{trains} trains: {e}"));
    let c = &report.cluster;
    let links = c.links.iter().map(|l| (l.frames, l.records, l.bytes));
    (
        links.collect(),
        (c.uplink_frames, c.uplink_records, c.uplink_bytes),
    )
}

/// Every fault-free cell's link traffic: `(query, strategy, trains,
/// per-link traffic, uplink traffic)`. Links follow
/// `Topology::train_fleet`: per train, the edge → cloud uplink, then the
/// sensor → edge bus.
const PINNED_TRAFFIC: [(&str, PlacementStrategy, usize, &[Traffic], Traffic); 8] = {
    use PlacementStrategy::{CloudOnly, EdgeFirst};
    const RAW_1: Traffic = (29, 600, 19_569);
    const RAW_2: Traffic = (13, 240, 7_841);
    const RAW_3: Traffic = (7, 120, 3_923);
    [
        (
            "filter",
            EdgeFirst,
            1,
            &[(29, 297, 9_873); 2],
            (29, 297, 9_873),
        ),
        (
            "filter",
            EdgeFirst,
            3,
            &[
                (13, 118, 3_937),
                (13, 118, 3_937),
                (13, 120, 4_001),
                (13, 120, 4_001),
                (7, 59, 1_971),
                (7, 59, 1_971),
            ],
            (33, 297, 9_909),
        ),
        ("filter", CloudOnly, 1, &[RAW_1; 2], RAW_1),
        (
            "filter",
            CloudOnly,
            3,
            &[RAW_2, RAW_2, RAW_2, RAW_2, RAW_3, RAW_3],
            (33, 600, 19_605),
        ),
        (
            "window",
            EdgeFirst,
            1,
            &[(19, 50, 3_066), RAW_1],
            (19, 50, 3_066),
        ),
        (
            "window",
            EdgeFirst,
            3,
            &[
                (10, 20, 1_257),
                RAW_2,
                (10, 20, 1_257),
                RAW_2,
                (6, 10, 639),
                RAW_3,
            ],
            (26, 50, 3_153),
        ),
        ("window", CloudOnly, 1, &[RAW_1; 2], RAW_1),
        (
            "window",
            CloudOnly,
            3,
            &[RAW_2, RAW_2, RAW_2, RAW_2, RAW_3, RAW_3],
            (33, 600, 19_605),
        ),
    ]
};

#[test]
fn fault_free_link_traffic_is_pinned() {
    // Without faults or telemetry snapshots, the frames every hop sends
    // are a function of the plan and the feed: each stage forwards
    // every frame its operators hand it, repeated watermarks included.
    // A hop that drops, merges or adds frames moves these counts.
    let filter = Query::from("s").filter(col("speed").ge(lit(40.0)));
    let window = splittable_window_query();
    for (name, strategy, trains, links, uplink) in PINNED_TRAFFIC {
        let q = if name == "filter" { &filter } else { &window };
        let (got_links, got_uplink) = link_traffic(q, strategy, trains);
        let cell = format!("{name}/{strategy:?}/{trains} train(s)");
        assert_eq!(
            got_links, links,
            "{cell}: per-link (frames, records, bytes)"
        );
        assert_eq!(
            got_uplink, uplink,
            "{cell}: uplink (frames, records, bytes)"
        );
    }
}

/// `explain` renders the placed plan: one line per pipeline stage
/// (pipeline, stage, node, operators, output schema, the columns read
/// of its input), then the cloud's line with its role.
#[test]
fn explain_prints_the_placed_plan() {
    use PlacementStrategy::{CloudOnly, EdgeFirst};
    const FLEET: &str = "(ts: TIMESTAMP, train_id: INT, pos: POINT, speed_kmh: FLOAT, \
        battery_v: FLOAT, battery_temp_c: FLOAT, brake_bar: FLOAT, noise_db: FLOAT, \
        passengers: INT, doors_open: BOOL, odometer_m: FLOAT, cabin_temp_c: FLOAT)";
    const Q2_OUT: &str = "(train_id: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, \
        avg_db: FLOAT, peak_db: FLOAT, samples: INT, at: POINT)";
    let sim = sncb::FleetSimulator::new(sncb::FleetConfig::test_minutes(1));
    let env = sncb::demo::demo_cluster_with(&sim.network(), sim.weather().clone(), Vec::new());
    let q2 = nebulameos::q2_noise_monitoring(80.0);

    // Q2 under EdgeFirst: the filter stays on the sensors, the window
    // splits into the edge's partial and the cloud's merge, and the
    // cloud runs the filter after it.
    let partial = "(train_id: INT, slice_start: TIMESTAMP, slice_end: TIMESTAMP, \
        avg_db_p0: FLOAT, avg_db_p1: INT, peak_db: FLOAT, samples: INT, at_p0: TIMESTAMP, \
        at_p1: POINT)";
    let q2_reads = "ts, train_id, pos, noise_db";
    assert_eq!(
        env.explain(&q2, EdgeFirst)
            .unwrap()
            .lines()
            .collect::<Vec<_>>(),
        [
            format!("pipe0 stage0 train-0-sensors [filter] {FLEET} reads: {q2_reads}"),
            format!("pipe0 stage1 train-0-edge [window] {partial} reads: {q2_reads}"),
            format!(
                "cloud role: merge op1 [window, filter] {Q2_OUT} reads: train_id, \
                 slice_start, slice_end, avg_db_p0, avg_db_p1, peak_db, samples, at_p0, at_p1"
            ),
        ]
    );
    // Q2 under CloudOnly: one pipeline folds its whole chain into the
    // cloud, and the sensors ship only what it reads.
    assert_eq!(
        env.explain(&q2, CloudOnly)
            .unwrap()
            .lines()
            .collect::<Vec<_>>(),
        [
            format!("pipe0 stage0 train-0-sensors [] {FLEET} reads: {q2_reads}"),
            format!("cloud role: none [filter, window, filter] {Q2_OUT} reads: {q2_reads}"),
        ]
    );

    // Three trains fanning into a threshold window, which cannot split:
    // each train filters, and the cloud runs the window once for all.
    let q = Query::from("s").filter(col("load").ge(lit(0))).window(
        vec![("train", col("train"))],
        WindowSpec::Threshold {
            predicate: col("speed").gt(lit(40.0)),
            min_count: 2,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::new(topo);
    for sensor in &sensors {
        env.add_source("s", *sensor, source(Feed::InOrder), generous_watermark());
    }
    let input =
        "(ts: TIMESTAMP, train: INT, speed: FLOAT, load: INT) reads: ts, train, speed, load";
    assert_eq!(
        env.explain(&q, EdgeFirst)
            .unwrap()
            .lines()
            .collect::<Vec<_>>(),
        [
            format!("pipe0 stage0 train-0-sensors [filter] {input}"),
            format!("pipe1 stage0 train-1-sensors [filter] {input}"),
            format!("pipe2 stage0 train-2-sensors [filter] {input}"),
            "cloud role: plain [window] (train: INT, window_start: TIMESTAMP, window_end: \
             TIMESTAMP, n: INT) reads: ts, train, speed"
                .to_string(),
        ]
    );
}
