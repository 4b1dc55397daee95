//! The placed rows of the test matrix (`tests/common`): every catalog
//! plan through `ClusterEnvironment::run_placed` on the `train_fleet`
//! topology under both placement strategies, and with train 0's edge
//! box crashing mid-run (`run_placed_chaos` on clean links, restoring
//! epoch 0 or a sealed epoch), against the single-threaded `run`: row
//! for row in `run`'s raw delivery order at the default config,
//! order-normalized over the batch-size × columnar-mode sweep. The
//! distributed runtime is only correct if crossing node boundaries
//! (wire encoding, bounded link channels, cross-boundary watermarks,
//! edge pre-aggregation, crash recovery) is observationally invisible.
//!
//! The hand-written checks below pin what only a cluster has: measured
//! uplink bytes, per-link traffic, fan-in of several trains, streaming
//! delivery, and `explain`.

#[macro_use]
mod common;

use common::catalog::{composite, splittable_window_query};
use common::matrix::{execute, run_owned, Config, Entry, LOCAL};
use common::*;
use nebula::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

matrix_rows!(
    catalog_plans_match_run_when_placed,
    filter_cluster_equivalence,
    map_cluster_equivalence,
    map_extend_cluster_equivalence,
    tumbling_window_cluster_equivalence,
    unsplittable_custom_window_cluster_equivalence,
    splittable_window_cluster_equivalence,
    sliding_window_cluster_equivalence,
    keyless_window_cluster_equivalence,
    threshold_window_cluster_equivalence,
    cep_cluster_equivalence,
    cep_then_keyless_window_cluster_equivalence,
    plugin_operator_cluster_equivalence,
    composite_pipeline_cluster_equivalence,
    failure_replanning_mid_run_equivalence,
    batched_stateless_cluster_equivalence,
    batched_cloud_tail_cluster_equivalence,
    batched_splittable_window_cluster_equivalence,
);

#[test]
fn batched_failure_replanning_equivalence() {
    // An edge crash under forced-columnar execution: checkpoints
    // snapshot window state after buffers were absorbed columnar-side,
    // and recovery continues from it in `run`'s raw order.
    run_owned("batched_failure_replanning_equivalence");
}

/// Runs `query` over `feed` through `entry` at the default config.
fn placed(query: &Query, watermark: &WatermarkStrategy, feed: Feed, entry: Entry) -> ClusterReport {
    execute(query, watermark, feed, entry, Config::DEFAULT)
        .unwrap_or_else(|e| panic!("{entry:?}/{feed:?}: {e}"))
        .cluster
        .expect("a placed run")
}

/// The edge-first and cloud-only runs of `query` must agree on their
/// rows, and the edge's pre-aggregation cut the measured uplink bytes
/// more than fivefold.
fn assert_preaggregation_cuts_uplink(query: &Query) -> (ClusterReport, ClusterReport) {
    let wm = generous_watermark();
    let [edge, cloud] = [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly]
        .map(|s| execute(query, &wm, Feed::InOrder, Entry::Placed(s), Config::DEFAULT).unwrap());
    assert_eq!(edge.rows, cloud.rows, "strategies agree on results");
    let (edge, cloud) = (edge.cluster.unwrap(), cloud.cluster.unwrap());
    assert!(edge.cluster.preaggregated);
    assert!(!cloud.cluster.preaggregated);
    assert!(
        edge.cluster.uplink_bytes * 5 < cloud.cluster.uplink_bytes,
        "edge pre-aggregation must cut measured uplink bytes >5x: edge {} vs cloud {}",
        edge.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes
    );
    (edge, cloud)
}

#[test]
fn edge_preaggregation_cuts_measured_uplink_bytes() {
    let q = splittable_window_query();
    let (edge, cloud) = assert_preaggregation_cuts_uplink(&q);
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
    let crashed = placed(&q, &generous_watermark(), Feed::InOrder, Entry::Crash(11));
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
    assert_preaggregation_cuts_uplink(&q);
}

#[test]
fn multi_source_placements_report_cloud_for_the_shared_tail() {
    // With several pipelines fanning into one stateful tail, the tail
    // runs once at the cloud; the reported placements must say so even
    // though `place()` would have put the (non-splittable) window on
    // each train's edge box. The custom aggregate keeps the window
    // unsplittable.
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
        env.add_source(
            "s",
            *sensor,
            source(Feed::InOrder, 32),
            generous_watermark(),
        );
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

/// Three trains, each hosting its own slice of the stream: the fan-in
/// must deliver exactly `run`'s rows over the union, and each train —
/// which lives on one pipeline — in `run`'s order, in whatever order
/// the pipelines interleave at the cloud.
fn assert_fan_in_matches_run(
    query: &Query,
    watermark: &WatermarkStrategy,
    train_col: usize,
) -> ClusterReport {
    let run = |feed, entry| execute(query, watermark, feed, entry, Config::DEFAULT).expect("run");
    let reference = run(Feed::InOrder, Entry::Run);
    let got = run(
        Feed::MultiSource,
        Entry::Placed(PlacementStrategy::EdgeFirst),
    );
    assert_eq!(
        normalized(got.rows.clone()),
        normalized(reference.rows.clone()),
        "fan-in merge matches the union reference"
    );
    for train in 0..5 {
        assert_eq!(
            rows_of_train(&got.rows, train_col, train),
            rows_of_train(&reference.rows, train_col, train),
            "train {train}: per-pipeline delivery order"
        );
    }
    assert_eq!(got.metrics.records_in, reference.metrics.records_in);
    assert_eq!(got.metrics.records_out, reference.metrics.records_out);
    let report = got.cluster.unwrap();
    assert_eq!(report.placements.len(), 3);
    report
}

#[test]
fn multi_source_fleet_merges_at_cloud() {
    // Per-edge partial windows must merge at the cloud.
    let report = assert_fan_in_matches_run(&splittable_window_query(), &generous_watermark(), 0);
    assert!(report.cluster.preaggregated);
}

#[test]
fn multi_source_stateless_rows_keep_their_pipeline_order() {
    // The cloud never reorders what one pipeline sent.
    let q = Query::from("s").filter(col("speed").ge(lit(40.0)));
    assert_fan_in_matches_run(&q, &WatermarkStrategy::None, 1);
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
    let reference = execute(
        &q,
        &generous_watermark(),
        Feed::InOrder,
        Entry::Run,
        Config::DEFAULT,
    )
    .expect("sync run");
    let (reference, ref_metrics) = (reference.rows, reference.metrics);

    let (topo, sensors) = Topology::train_fleet(3);
    let mut env = ClusterEnvironment::with_config(topo, cluster_config());
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
    let mut env = ClusterEnvironment::with_config(topo, cluster_config());
    nebulameos::register_meos_codecs(env.wire_registry_mut());
    // Each train's samples stream from its own sensors.
    for (sensor, slice) in sensors.iter().zip(train_slices(&records, 2)) {
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
    let (mut env, _) = cluster_env(Feed::InOrder, 3, cluster_config(), &WatermarkStrategy::None);
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

/// A filtered per-train window: count and max speed per minute.
fn filtered_window() -> Query {
    Query::from("s").filter(col("speed").ge(lit(40.0))).window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
        ],
    )
}

#[test]
fn batched_wire_bytes_match_row_wire_bytes() {
    // Rows and buffers encode to the same column-major bytes, so
    // per-link traffic must be byte-identical to the per-record path.
    let q = filtered_window();
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let [row, col] = [ColumnarMode::Off, ColumnarMode::Force].map(|columnar| {
            let config = Config {
                batch: 32,
                columnar,
            };
            let entry = Entry::Placed(strategy);
            execute(&q, &WatermarkStrategy::None, Feed::InOrder, entry, config).unwrap()
        });
        assert_eq!(
            normalized(col.rows),
            normalized(row.rows),
            "{strategy:?}: results"
        );
        let (row, col) = (row.cluster.unwrap(), col.cluster.unwrap());
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
fn sliding_uplink_does_not_scale_with_overlap() {
    // The slice refactor's uplink claim: an edge ships one partial per
    // slice, not one per overlapping window, so a content-carrying
    // sliding window (MEOS sequence assembly) costs about the same
    // uplink as its tumbling counterpart instead of `size/slide` times
    // more. 600 s of per-train float samples, windowed as tfloat
    // sequences.
    use nebulameos::TFloatSeqAgg;

    let run_uplink = |spec: WindowSpec| -> u64 {
        let (mut env, sensor) =
            cluster_env(Feed::InOrder, 3, cluster_config(), &generous_watermark());
        let _ = sensor;
        nebulameos::register_meos_codecs(env.wire_registry_mut());
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
    let q = splittable_window_query();
    let late = |entry| {
        execute(&q, &bounded(2), Feed::Wild, entry, Config::DEFAULT)
            .unwrap_or_else(|e| panic!("{entry:?}: {e}"))
            .metrics
            .late_drops
    };
    let sync = late(Entry::Run);
    assert!(sync > 0, "jitter 64 with 2 s slack must drop something");
    let mut entries = LOCAL.to_vec();
    entries.extend([
        Entry::Partitioned(8),
        Entry::Placed(PlacementStrategy::EdgeFirst),
        Entry::Placed(PlacementStrategy::CloudOnly),
    ]);
    for entry in entries {
        assert_eq!(late(entry), sync, "{entry:?}");
    }
}

#[test]
fn watermark_every_zero_reads_as_one_in_run_and_run_placed() {
    // `watermark_every: 0` must mean the same thing to every executor:
    // a watermark after every batch. With zero slack, one-batch
    // cadence and 8-record jitter, that cadence decides which records
    // are late, so a mode that never punctuated would emit more rows
    // and drop none.
    let exact = bounded(0);
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
        env.add_source("s", source(Feed::Jittered(3), 4), exact.clone());
        let (mut sink, got) = CollectingSink::new();
        let metrics = env.run(&q, &mut sink).expect("sync run");
        (normalized(got.records()), metrics.late_drops)
    };
    let (reference, late) = run(1);
    assert!(late > 0, "zero slack under jitter must drop something");
    assert_eq!(run(0), (reference.clone(), late), "run: 0 reads as 1");
    for strategy in [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly] {
        let config = EnvConfig {
            buffer_size: 4,
            watermark_every: 0,
            ..EnvConfig::default()
        };
        let (mut env, _) = cluster_env(Feed::Jittered(3), 3, config, &exact);
        let (mut sink, got) = CollectingSink::new();
        let report = env.run_placed(&q, strategy, &mut sink).expect("placed run");
        assert_eq!(
            (normalized(got.records()), report.metrics.late_drops),
            (reference.clone(), late),
            "run_placed {strategy:?}: 0 reads as 1"
        );
    }
}

/// Notes the source's poll count at the first delivery.
struct FirstDeliverySink {
    polls: Arc<std::sync::atomic::AtomicU64>,
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
        let (source, polls) = ClockedSource::boxed(records_n(32 * total_polls as i64));
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
            let config = cluster_config();
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

/// Runs one placed query with sub-interval sampling so every node ships
/// snapshots, returning the full cluster report.
fn telemetry_cluster_run(query: &Query, strategy: PlacementStrategy) -> ClusterReport {
    let config = EnvConfig {
        telemetry: TelemetryConfig {
            sample_every: std::time::Duration::ZERO,
            ..TelemetryConfig::default()
        },
        ..cluster_config()
    };
    let (mut env, _) = cluster_env(Feed::InOrder, 3, config, &generous_watermark());
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
    let q = composite(Vec::new());
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
        EnvConfig {
            telemetry: TelemetryConfig {
                enabled: false,
                ..TelemetryConfig::default()
            },
            ..cluster_config()
        },
    );
    for (sensor, slice) in sensors.iter().zip(train_slices(&records(), trains)) {
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
        env.add_source(
            "s",
            *sensor,
            source(Feed::InOrder, 32),
            generous_watermark(),
        );
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
