//! Distributed fleet analytics: the cluster runtime executing a placed
//! plan across the sensors → edge → cloud topology, with every link's
//! traffic measured on the wire.
//!
//! Six trains each host their own slice of the fleet stream on their
//! onboard sensors. A per-train window profile is placed edge-first:
//! each train's edge box pre-aggregates its windows and only the merged
//! partials cross the cellular uplink. The run reports measured
//! per-link traffic and the uplink reduction versus shipping everything
//! to the cloud — then a failover drill crashes an edge box mid-stream
//! and recovers (re-plan, restore the last checkpoint, replay), with
//! results provably unchanged, and a chaos drill does it again over
//! lossy links.
//!
//! ```text
//! cargo run --release --example distributed_fleet
//! ```

use nebula::prelude::*;
use sncb::FleetConfig;

fn fleet_query() -> Query {
    // Count / sum / min / max are splittable: each edge aggregates its
    // local records, the cloud merges per-(train, window) partials.
    Query::from("fleet").window(
        vec![("train", col("train_id"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("max_kmh", AggSpec::Max(col("speed_kmh"))),
            WindowAgg::new("min_battery", AggSpec::Min(col("battery_v"))),
            WindowAgg::new("pax_ticks", AggSpec::Sum(col("passengers"))),
        ],
    )
}

const NUM_TRAINS: usize = 6;

fn fleet_env(records: &[Record]) -> (ClusterEnvironment, Vec<NodeId>) {
    let (topo, sensors) = Topology::train_fleet(NUM_TRAINS);
    let mut env = ClusterEnvironment::with_config(
        topo,
        EnvConfig {
            buffer_size: 256,
            watermark_every: 2,
            ..EnvConfig::default()
        },
    );
    let train_col = sncb::fleet_schema().index_of("train_id").expect("train_id");
    for (t, sensor) in sensors.iter().enumerate() {
        let slice: Vec<Record> = records
            .iter()
            .filter(|r| r.get(train_col).unwrap().as_int().unwrap() as usize == t)
            .cloned()
            .collect();
        env.add_source(
            "fleet",
            *sensor,
            Box::new(VecSource::new(sncb::fleet_schema(), slice)),
            WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "ts".into(),
                slack: 5 * MICROS_PER_SEC,
            },
        );
    }
    (env, sensors)
}

fn print_links(topo: &Topology, metrics: &ClusterMetrics) {
    println!(
        "  {:<28} {:>9} {:>9} {:>12} {:>7} {:>12}",
        "link", "frames", "records", "bytes", "queue", "transfer ms"
    );
    for (i, link) in topo.links().iter().enumerate() {
        let m = &metrics.links[i];
        if m.frames == 0 {
            continue;
        }
        println!(
            "  {:<28} {:>9} {:>9} {:>12} {:>7} {:>12.1}",
            format!(
                "{} -> {}",
                topo.node(link.from).name,
                topo.node(link.to).name
            ),
            m.frames,
            m.records,
            m.bytes,
            m.max_queue_depth,
            m.simulated_transfer_ms
        );
    }
}

fn main() -> nebula::Result<()> {
    let records = sncb::generate(FleetConfig::test_minutes(30));
    println!(
        "fleet workload: {} records over 30 simulated minutes, {NUM_TRAINS} trains\n",
        records.len()
    );
    let query = fleet_query();

    // Edge-first: pre-aggregated partials cross the uplink.
    let (mut env, _) = fleet_env(&records);
    let (mut sink, edge_results) = CollectingSink::new();
    let edge = env.run_placed(&query, PlacementStrategy::EdgeFirst, &mut sink)?;
    println!(
        "edge-first   : {} windows from {} records (pre-aggregated: {}, sites: {})",
        edge.metrics.records_out,
        edge.metrics.records_in,
        edge.cluster.preaggregated,
        edge.cluster.sites
    );
    print_links(env.topology(), &edge.cluster);

    // Cloud-only: every raw record crosses the uplink.
    let (mut env, _) = fleet_env(&records);
    let (mut sink, cloud_results) = CollectingSink::new();
    let cloud = env.run_placed(&query, PlacementStrategy::CloudOnly, &mut sink)?;
    println!(
        "\ncloud-only   : {} windows from {} records",
        cloud.metrics.records_out, cloud.metrics.records_in
    );
    print_links(env.topology(), &cloud.cluster);

    assert_eq!(
        edge_results.records(),
        cloud_results.records(),
        "placement must not change results"
    );
    println!(
        "\nmeasured uplink: edge-first {} B vs cloud-only {} B -> {:.1}x reduction",
        edge.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes,
        cloud.cluster.uplink_bytes as f64 / edge.cluster.uplink_bytes.max(1) as f64
    );

    // Failover drill: one train's stream, its edge box crashes mid-run
    // on otherwise clean links.
    println!("\nfailover drill: crashing train-0's edge box after 10 frames...");
    let (topo, sensors) = Topology::train_fleet(1);
    let edge_box = topo
        .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
        .expect("edge exists");
    let mut env = ClusterEnvironment::with_config(
        topo,
        EnvConfig {
            // Small batches so the failure lands mid-stream.
            buffer_size: 64,
            watermark_every: 2,
            ..EnvConfig::default()
        },
    );
    let train0: Vec<Record> = {
        let train_col = sncb::fleet_schema().index_of("train_id").unwrap();
        records
            .iter()
            .filter(|r| r.get(train_col).unwrap().as_int().unwrap() == 0)
            .cloned()
            .collect()
    };
    env.add_source(
        "fleet",
        sensors[0],
        Box::new(VecSource::new(sncb::fleet_schema(), train0.clone())),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    let (mut sink, failed_results) = CollectingSink::new();
    let crash = FaultPlan::seeded(0).crash_node(edge_box, 10);
    let report = env.run_placed_chaos(&query, PlacementStrategy::EdgeFirst, &crash, &mut sink)?;
    println!(
        "  re-planned {} round(s), migrated {} stage(s); {} windows delivered",
        report.cluster.replans, report.cluster.migrated_stages, report.metrics.records_out
    );

    // Reference: the same stream without the failure.
    let mut ref_env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 64,
        watermark_every: 2,
        ..EnvConfig::default()
    });
    ref_env.add_source(
        "fleet",
        Box::new(VecSource::new(sncb::fleet_schema(), train0)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    let (mut ref_sink, reference) = CollectingSink::new();
    ref_env.run(&query, &mut ref_sink)?;
    let mut a = failed_results.records();
    let mut b = reference.records();
    normalize_records(&mut a);
    normalize_records(&mut b);
    assert_eq!(a, b, "crash recovery must not change results");
    println!("  results identical to an undisturbed run — recovered exactly once");

    // Chaos drill: the same failover while seeded faults mangle every
    // link — drops, duplicates, reordering, bit corruption. CRC
    // envelopes, ack/retransmit, barrier checkpoints and source replay
    // must make all of it invisible.
    println!("\nchaos drill: lossy links + edge crash after 4 frames (seed 41)...");
    let (mut env, _) = fleet_env(&records);
    let edge_box = env
        .topology()
        .nodes()
        .iter()
        .find(|n| n.kind == NodeKind::Edge)
        .map(|n| n.id)
        .expect("edge exists");
    let plan = FaultPlan::seeded(41)
        .drop_frames(0.05)
        .duplicate_frames(0.02)
        .reorder_frames(0.02)
        .corrupt_frames(0.02)
        .crash_node(edge_box, 4);
    let (mut sink, chaos_results) = CollectingSink::new();
    let chaos = env.run_placed_chaos(&query, PlacementStrategy::EdgeFirst, &plan, &mut sink)?;
    let m = &chaos.cluster;
    println!(
        "  {} faults injected: {} retransmits, {} corrupt dropped, {} duplicates suppressed",
        m.faults_injected, m.retransmits, m.corrupt_dropped, m.duplicates_suppressed
    );
    println!(
        "  {} checkpoints; crash recovered in {:.2} ms ({} re-plan)",
        m.checkpoints_taken, m.recovery_ms, m.replans
    );
    let mut c = chaos_results.records();
    normalize_records(&mut c);
    let mut clean = edge_results.records();
    normalize_records(&mut clean);
    assert_eq!(c, clean, "chaos must not change results");
    println!("  results identical to the clean run — exactly-once under chaos");
    Ok(())
}
