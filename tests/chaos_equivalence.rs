//! The fault rows of the test matrix (`tests/common`): every catalog
//! plan through `ClusterEnvironment::run_placed_chaos` on the
//! `train_fleet` topology — with resilient links and no fault, and
//! while a seeded [`FaultPlan`] mangles every link (dropping,
//! duplicating, reordering and bit-corrupting frames) and, under
//! `EdgeFirst`, abruptly kills train 0's edge box mid-run — must still
//! produce results, counters and late-drop totals identical to `run`.
//! The resilient wire protocol (CRC32 envelopes, sequence numbers,
//! ack/retransmit) plus barrier checkpointing with source replay are
//! only correct if all of that is observationally invisible.

#[macro_use]
mod common;

use common::catalog::{catalog, splittable_window_query};
use common::matrix::{cells_of, check, execute, Config, Entry};
use common::*;
use nebula::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

matrix_rows!(
    catalog_plans_match_run_under_chaos,
    q1_filter_chaos_equivalence,
    q2_map_chaos_equivalence,
    q3_filter_map_extend_chaos_equivalence,
    q4_splittable_window_chaos_equivalence,
    q5_sliding_window_chaos_equivalence,
    q6_keyless_window_chaos_equivalence,
    q7_threshold_window_chaos_equivalence,
    q8_cep_chaos_equivalence,
);

/// `query` edge-first over `feed` at the default config, under `plan`.
fn chaos_run(
    query: &Query,
    watermark: &WatermarkStrategy,
    feed: Feed,
    plan: &FaultPlan,
) -> (Vec<Record>, ClusterReport) {
    let (mut env, _) = cluster_env(feed, 3, cluster_config(), watermark);
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(query, PlacementStrategy::EdgeFirst, plan, &mut sink)
        .unwrap_or_else(|e| panic!("chaos run (seed {}) failed: {e}", plan.seed));
    (normalized(got.records()), report)
}

/// `run`'s order-normalized rows and metrics over `feed`.
fn reference(query: &Query, watermark: &WatermarkStrategy) -> (Vec<Record>, QueryMetrics) {
    let out =
        execute(query, watermark, Feed::InOrder, Entry::Run, Config::DEFAULT).expect("sync run");
    (normalized(out.rows), out.metrics)
}

/// Train 0's edge box on the three-train fleet.
fn edge() -> NodeId {
    let (topo, sensors) = Topology::train_fleet(3);
    edge_node(&topo, sensors[0])
}

/// The acceptance run: lossy links plus an abrupt mid-run kill of the
/// edge box. The output is identical to the clean reference and the
/// fault-tolerance machinery demonstrably engaged.
#[test]
fn chaos_headline_counters_engage() {
    let q = splittable_window_query();
    let (reference, _) = reference(&q, &generous_watermark());
    let plan = lossy_plan(7).crash_node(edge(), 12);
    let (got, report) = chaos_run(&q, &generous_watermark(), Feed::InOrder, &plan);
    assert_eq!(got, reference, "headline chaos run diverges");
    let c = &report.cluster;
    assert!(c.faults_injected > 0, "faults: {c:?}");
    assert!(c.retransmits > 0, "drops must force retransmits: {c:?}");
    assert!(c.corrupt_dropped > 0, "CRC must catch corruption: {c:?}");
    assert!(
        c.duplicates_suppressed > 0,
        "dup injection must be suppressed: {c:?}"
    );
    assert!(c.checkpoints_taken > 0, "checkpoints must seal: {c:?}");
    assert_eq!(c.replans, 1, "the kill must re-plan once");
    assert!(c.recovery_ms > 0.0, "recovery must be timed");
    assert!(
        !report
            .placements
            .iter()
            .any(|pl| pl.stages.contains(&plan.crash.expect("set").node)),
        "no stage may remain on the killed node"
    );
}

/// Link flaps and added latency stall frames without losing them.
#[test]
fn flapping_lagging_links_chaos_equivalence() {
    let q = splittable_window_query();
    let (reference, ref_metrics) = reference(&q, &generous_watermark());
    let plan = FaultPlan::seeded(11)
        .drop_frames(0.05)
        .duplicate_frames(0.02)
        .flap_links(16, 3)
        .add_latency(Duration::from_micros(200));
    let (got, report) = chaos_run(&q, &generous_watermark(), Feed::InOrder, &plan);
    assert_eq!(got, reference, "flapping links diverge");
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
}

/// A chain containing a plugin operator (a closure-driven `FlatMapOp`)
/// snapshots like any other: the crash restores the newest sealed
/// epoch through the one recovery path and still matches.
#[test]
fn plugin_chain_crash_restores_the_newest_sealed_epoch() {
    let plans = catalog();
    let plugin = plans
        .iter()
        .find(|p| p.name == "plugin")
        .expect("cataloged");
    let mut cells = cells_of(plugin);
    let cell = cells
        .iter_mut()
        .find(|c| matches!(c.entry, Entry::PlacedChaos(PlacementStrategy::EdgeFirst, _)))
        .expect("a chaos cell");
    cell.entry = Entry::PlacedChaos(PlacementStrategy::EdgeFirst, 19);
    check(cell, &mut HashMap::new());
}

/// Multi-source chaos: three trains each pumping their own slice while
/// one train's edge box dies mid-run. Recovery rewinds every pipeline
/// to a consistent cut.
#[test]
fn multi_source_chaos_crash_equivalence() {
    let q = splittable_window_query();
    let (reference, ref_metrics) = reference(&q, &generous_watermark());
    let failed = edge();
    let plan = lossy_plan(5).crash_node(failed, 8);
    let (recs, report) = chaos_run(&q, &generous_watermark(), Feed::MultiSource, &plan);
    assert_eq!(recs, reference, "multi-source crash diverges");
    assert_eq!(report.metrics.records_in, ref_metrics.records_in);
    assert_eq!(report.metrics.records_out, ref_metrics.records_out);
    assert_eq!(report.cluster.replans, 1);
    for pl in &report.placements {
        assert!(!pl.stages.contains(&failed), "stage still on failed node");
    }
}

/// Logs every delivery: the source's poll count at the call, and the
/// rows.
struct CallLogSink {
    polls: Arc<AtomicU64>,
    calls: Vec<(u64, Vec<Record>)>,
}

impl Sink for CallLogSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.calls
            .push((self.polls.load(Ordering::SeqCst), buf.records().to_vec()));
        Ok(())
    }
}

const LONG_BATCHES: u64 = 400;
/// The edge box dies at the 300th frame it sees.
const CRASH_AFTER_FRAMES: u64 = 300;
/// A batch puts at most three frames on a link (data, every second one
/// a watermark, every fourth a barrier; telemetry is off), so the
/// source has been polled at least this often when the box dies: a
/// delivery that reads a smaller poll count happened before the crash.
const POLLS_BEFORE_CRASH: u64 = CRASH_AFTER_FRAMES / 3;

/// Runs `query` edge-first over `LONG_BATCHES` batches of 32 while
/// lossy links mangle frames and the edge box dies mid-run; returns the
/// delivery log and `run`'s order-normalized output of the same query.
fn crash_run_logged(
    query: &Query,
    watermark: WatermarkStrategy,
    seed: u64,
) -> (Vec<(u64, Vec<Record>)>, Vec<Record>) {
    let long_records = || records_n(32 * LONG_BATCHES as i64);
    let mut sync_env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    sync_env.add_source(
        "s",
        Box::new(VecSource::new(schema(), long_records())),
        watermark.clone(),
    );
    let (mut sink, reference) = CollectingSink::new();
    sync_env.run(query, &mut sink).expect("sync run");
    let reference = normalized(reference.records());

    let (topo, sensors) = Topology::train_fleet(3);
    let edge = edge_node(&topo, sensors[0]);
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
    let (source, polls) = ClockedSource::boxed(long_records());
    env.add_source("s", sensors[0], source, watermark);
    let mut sink = CallLogSink {
        polls,
        calls: Vec::new(),
    };
    let plan = lossy_plan(seed).crash_node(edge, CRASH_AFTER_FRAMES);
    let report = env
        .run_placed_chaos(query, PlacementStrategy::EdgeFirst, &plan, &mut sink)
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"));
    assert_eq!(report.cluster.replans, 1, "seed {seed}: the box must die");
    assert_eq!(
        report.metrics.records_out as usize,
        reference.len(),
        "seed {seed}: records_out"
    );
    (sink.calls, reference)
}

/// Every plan commits at every sealed epoch — a plugin chain included:
/// the sink is fed before the crash, and the restore — to the very
/// epoch whose rows the sink already holds, the newest sealed one —
/// neither re-delivers those rows nor loses the ones the dead cloud had
/// produced past the cut.
#[test]
fn snapshottable_plans_stream_before_the_crash_exactly_once() {
    let cases = [
        (
            "q1/filter",
            Query::from("s").filter(col("speed").ge(lit(40.0))),
            WatermarkStrategy::None,
        ),
        (
            "q4/splittable",
            splittable_window_query(),
            generous_watermark(),
        ),
        (
            "plugin/passthrough",
            Query::from("s")
                .filter(col("speed").ge(lit(40.0)))
                .apply(Arc::new(Passthrough)),
            WatermarkStrategy::None,
        ),
    ];
    for (name, q, watermark) in cases {
        for seed in chaos_seeds() {
            let (calls, reference) = crash_run_logged(&q, watermark.clone(), seed);
            let first_at = calls.first().expect("delivers").0;
            assert!(
                first_at < POLLS_BEFORE_CRASH,
                "{name}/seed {seed}: first delivery at poll {first_at}, the crash cannot \
                 come before poll {POLLS_BEFORE_CRASH}: nothing streamed ahead of it"
            );
            assert!(
                calls.last().expect("delivers").0 > POLLS_BEFORE_CRASH,
                "{name}/seed {seed}: and the run went on past the crash"
            );
            // Every row of either query is distinct, so equality with
            // the reference rules out a row delivered twice.
            let rows = calls.into_iter().flat_map(|(_, r)| r).collect();
            assert_eq!(
                normalized(rows),
                reference,
                "{name}/seed {seed}: not exactly-once across the crash"
            );
        }
    }
}

/// The four MEOS operator factories, each placed on the train's edge
/// box, which dies after the cloud has sealed a checkpoint: the restore
/// resumes the operators' per-train state (open sequences, buffered
/// fixes, fence membership, latest positions) from the epoch's
/// snapshots, and the results equal `run`'s.
#[test]
fn meos_operators_restore_a_sealed_epoch_after_an_edge_crash() {
    let sim = sncb::FleetSimulator::new(sncb::FleetConfig::test_minutes(10));
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();
    let stations = nebulameos::GeofenceSet::new(
        "stations",
        net.zones_of(sncb::ZoneKind::StationArea)
            .map(|z| (z.name.clone(), z.geometry.clone())),
    );
    let factories: [Arc<dyn OperatorFactory>; 4] = [
        Arc::new(nebulameos::TrajectoryBuilderFactory {
            max_instants: 64,
            ..nebulameos::TrajectoryBuilderFactory::standard()
        }),
        Arc::new(nebulameos::ImputationFactory::standard()),
        Arc::new(nebulameos::GeofenceEventsFactory {
            set: stations,
            key_field: "train_id".into(),
            pos_field: "pos".into(),
        }),
        Arc::new(nebulameos::KNearestFactory::standard(3)),
    ];
    for factory in factories {
        let name = factory.name().to_string();
        let q = Query::from("fleet").apply(factory);
        let mut local = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        local.add_source(
            "fleet",
            Box::new(VecSource::new(sncb::fleet_schema(), records.clone())),
            bounded(5),
        );
        let (mut sink, reference) = CollectingSink::new();
        local.run(&q, &mut sink).expect("sync run");
        let reference = normalized(reference.records());
        assert!(!reference.is_empty(), "{name}: the reference emits rows");

        let mut env = sncb::demo::demo_cluster_with(&net, weather.clone(), records.clone());
        let cfg = env.config_mut();
        cfg.buffer_size = 32;
        cfg.watermark_every = 2;
        let edge = env
            .topology()
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Edge)
            .map(|n| n.id)
            .expect("the train has an edge box");
        let plan = FaultPlan::seeded(0).crash_node(edge, 40);
        let (mut sink, got) = CollectingSink::new();
        let report = env
            .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &plan, &mut sink)
            .unwrap_or_else(|e| panic!("{name}: chaos run failed: {e}"));
        assert_eq!(
            normalized(got.records()),
            reference,
            "{name}: diverges from `run` across the crash"
        );
        assert_eq!(report.cluster.replans, 1, "{name}: the edge must die");
        let events = &report.telemetry.events;
        let sealed = events
            .iter()
            .position(|e| e.kind == TraceKind::CheckpointSealed);
        let down = events.iter().position(|e| e.kind == TraceKind::NodeDown);
        assert!(
            matches!((sealed, down), (Some(s), Some(d)) if s < d),
            "{name}: the cloud must seal a checkpoint before the edge dies \
             (sealed at {sealed:?}, down at {down:?})"
        );
    }
}

/// Ineligible fault plans fail fast with every offending node named,
/// and leave the hosted sources registered for a corrected retry.
#[test]
fn ineligible_fault_plans_are_rejected_up_front() {
    let q = Query::from("s").filter(col("speed").ge(lit(0.0)));
    let (mut env, sensor) =
        cluster_env(Feed::InOrder, 3, cluster_config(), &WatermarkStrategy::None);
    let cloud = env.topology().cloud().expect("cloud exists");
    // The source streams from train 0; train 2's edge box carries none
    // of its frames, so crashing it could never trip.
    let off_route = env
        .topology()
        .nodes()
        .iter()
        .find(|n| n.name == "train-2-edge")
        .map(|n| n.id)
        .expect("train 2 has an edge box");

    for (plan, needle) in [
        (FaultPlan::seeded(1).crash_node(cloud, 5), "cloud"),
        (FaultPlan::seeded(1).crash_node(sensor, 5), "source"),
        (
            FaultPlan::seeded(1).crash_node(NodeId(9999), 5),
            "does not exist",
        ),
        (
            FaultPlan::seeded(1).crash_node(off_route, 5),
            "'train-2-edge' lies on no pipeline's frame route",
        ),
    ] {
        let (mut sink, _) = CollectingSink::new();
        let err = env
            .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &plan, &mut sink)
            .expect_err("ineligible plan must be rejected");
        assert!(
            matches!(
                err,
                NebulaError::Cluster(ClusterError::IneligibleFault { .. })
            ),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(needle),
            "error must name the offence ({needle}): {msg}"
        );
    }

    // The rejections were pre-flight: the source is still hosted.
    let (mut sink, got) = CollectingSink::new();
    let report = env
        .run_placed_chaos(&q, PlacementStrategy::EdgeFirst, &lossy_plan(1), &mut sink)
        .expect("valid plan after rejections");
    assert_eq!(report.metrics.records_in, 600);
    assert_eq!(got.len(), 600);
}

/// The resilience tax on the wire. A fault-free plan still runs the
/// whole resilient protocol, so its reverse channel (acks plus heartbeat
/// envelopes) must stay under 5 % of what it protects: the payload
/// uplink under `CloudOnly`, which ships every record over it, and all
/// forward link bytes under `EdgeFirst`, whose pre-aggregated uplink is
/// deliberately tiny. Over ten demo minutes (3 600 records) of the keyed
/// fleet window: 900 B / 362 364 B = 0.25 % and 1 377 B / 367 522 B =
/// 0.37 %.
#[test]
fn ack_and_heartbeat_bytes_stay_under_five_percent_of_the_wire() {
    let sim = sncb::FleetSimulator::new(sncb::FleetConfig::test_minutes(10));
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();
    let q = Query::from("fleet").window(
        vec![("train", col("train_id"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed_kmh"))),
            WindowAgg::new("max_passengers", AggSpec::Max(col("passengers"))),
        ],
    );
    let wire_bytes = |strategy: PlacementStrategy| {
        let mut env = sncb::demo::demo_cluster_with(&net, weather.clone(), records.clone());
        let cfg = env.config_mut();
        cfg.buffer_size = 64;
        cfg.watermark_every = 2;
        let (mut sink, _) = CountingSink::new();
        let c = env
            .run_placed_chaos(&q, strategy, &FaultPlan::seeded(11), &mut sink)
            .expect("fault-free resilient run")
            .cluster;
        let reverse = c.ack_bytes + c.heartbeats * ENVELOPE_OVERHEAD as u64;
        let forward: u64 = c.links.iter().map(|l| l.bytes).sum();
        (reverse, c.uplink_bytes, forward)
    };

    let (reverse, uplink, _) = wire_bytes(PlacementStrategy::CloudOnly);
    assert!(reverse > 0, "a resilient run acknowledges its frames");
    assert!(
        reverse * 20 < uplink,
        "CloudOnly: {reverse} B reverse vs {uplink} B uplink is not under 5 %"
    );
    let (reverse, _, forward) = wire_bytes(PlacementStrategy::EdgeFirst);
    assert!(reverse > 0, "a resilient run acknowledges its frames");
    assert!(
        reverse * 20 < forward,
        "EdgeFirst: {reverse} B reverse vs {forward} B forward is not under 5 %"
    );
}

/// Chaos metrics stay zero on the clean path (no plan, no envelopes):
/// the resilient protocol is strictly opt-in, so legacy byte accounting
/// is untouched.
#[test]
fn clean_runs_report_no_chaos_metrics() {
    let c = execute(
        &splittable_window_query(),
        &generous_watermark(),
        Feed::InOrder,
        Entry::Placed(PlacementStrategy::EdgeFirst),
        Config::DEFAULT,
    )
    .expect("clean run")
    .cluster
    .unwrap()
    .cluster;
    assert_eq!(c.retransmits, 0);
    assert_eq!(c.corrupt_dropped, 0);
    assert_eq!(c.duplicates_suppressed, 0);
    assert_eq!(c.checkpoints_taken, 0);
    assert_eq!(c.faults_injected, 0);
    assert_eq!(c.recovery_ms, 0.0);
}
