//! Edge placement: the distributed story behind Figure 1. Builds the
//! sensors→edge→cloud fleet topology, places Q1 edge-first versus
//! cloud-only, measures the bytes each stage actually produces on the
//! simulated stream, and compares uplink usage — then fails the edge box
//! and re-places incrementally.
//!
//! ```text
//! cargo run --release --example edge_placement
//! ```

use nebula::prelude::*;
use nebulameos::q2_noise_monitoring;
use sncb::FleetConfig;

fn main() -> nebula::Result<()> {
    let (env, _) = sncb::demo_environment(FleetConfig::test_minutes(30));
    // Q2 has a stateful window stage, so edge-first placement actually
    // uses the onboard edge box (stateless stages stay on the sensors).
    let query = q2_noise_monitoring(75.0);

    // Measure per-stage data volumes on the real stream.
    let cfg = FleetConfig::test_minutes(30);
    let records = sncb::generate(cfg);
    let stages = measure_stage_bytes(
        Box::new(VecSource::new(sncb::fleet_schema(), records)),
        &query,
        env.registry(),
        1024,
    )?;
    println!("per-stage volumes for Q2 (30 simulated minutes):");
    let labels = [
        "source",
        "filter quiet zones",
        "window 60s stats",
        "filter peaks",
    ];
    for (i, (bytes, recs)) in stages
        .stage_bytes
        .iter()
        .zip(&stages.stage_records)
        .enumerate()
    {
        println!(
            "  {:<20} {:>9} records {:>12.2} KB",
            labels.get(i).unwrap_or(&"stage"),
            recs,
            *bytes as f64 / 1e3
        );
    }

    // The fleet topology: 6 trains, each sensors -> edge -> cloud.
    let (mut topo, sensors) = Topology::train_fleet(6);
    let edge_pl = place(&query, &topo, sensors[0], PlacementStrategy::EdgeFirst)?;
    let cloud_pl = place(&query, &topo, sensors[0], PlacementStrategy::CloudOnly)?;

    let edge_cost = network_cost(&topo, &edge_pl, &stages)?;
    let cloud_cost = network_cost(&topo, &cloud_pl, &stages)?;
    println!("\nnetwork cost (train 0):");
    println!(
        "  edge-first : {:>12.2} KB total, {:>12.2} KB over the cellular uplink",
        edge_cost.total_bytes as f64 / 1e3,
        edge_cost.cloud_uplink_bytes as f64 / 1e3
    );
    println!(
        "  cloud-only : {:>12.2} KB total, {:>12.2} KB over the cellular uplink",
        cloud_cost.total_bytes as f64 / 1e3,
        cloud_cost.cloud_uplink_bytes as f64 / 1e3
    );
    println!(
        "  uplink reduction from edge processing: {:.1}x",
        cloud_cost.cloud_uplink_bytes as f64 / edge_cost.cloud_uplink_bytes.max(1) as f64
    );

    // Node churn: the onboard edge box dies; re-place incrementally.
    let edge_node = topo
        .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
        .expect("edge exists");
    let cloud = topo.cloud().expect("cloud exists");
    println!("\nfailing {} ...", topo.node(edge_node).name);
    topo.fail_node(edge_node);
    let (replaced, migrated) = replace_after_failure(&edge_pl, edge_node, cloud);
    println!(
        "  incremental re-placement migrated {migrated} stage(s); new stages: {:?}",
        replaced
            .stages
            .iter()
            .map(|n| topo.node(*n).name.clone())
            .collect::<Vec<_>>()
    );
    let degraded = network_cost(&topo, &replaced, &stages)?;
    println!(
        "  degraded uplink usage: {:.2} KB (was {:.2} KB)",
        degraded.cloud_uplink_bytes as f64 / 1e3,
        edge_cost.cloud_uplink_bytes as f64 / 1e3
    );
    Ok(())
}
