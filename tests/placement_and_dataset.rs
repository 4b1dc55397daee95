//! Integration: the distributed-edge economics (the uplink bytes a
//! placed run measures under each strategy, and re-planning after an
//! edge failure) and dataset materialization (CSV round trip at fleet
//! scale, result equivalence from file replay).

use nebula::prelude::*;
use nebulameos::{all_demo_queries, q1_alert_filtering, q2_noise_monitoring};
use sncb::FleetConfig;

#[test]
fn edge_placement_beats_cloud_on_every_query_with_reduction() {
    let cfg = FleetConfig::test_minutes(20);
    let sim = sncb::FleetSimulator::new(cfg);
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();

    for (name, query) in all_demo_queries() {
        let [edge, cloud] =
            [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly].map(|strategy| {
                let mut env = sncb::demo::demo_cluster_with(&net, weather.clone(), records.clone());
                let mut sink = NullSink;
                let report = env.run_placed(&query, strategy, &mut sink).unwrap();
                report.cluster.uplink_bytes
            });
        assert!(edge < cloud, "{name}: edge {edge} >= cloud {cloud}");
        // The paper's claim is a *substantial* reduction.
        if name.starts_with("Q1") || name.starts_with("Q2") {
            assert!(
                edge * 5 < cloud,
                "{name}: only {:.1}x",
                cloud as f64 / edge.max(1) as f64
            );
        }
    }
}

#[test]
fn failure_replacement_keeps_query_placeable() {
    let (mut topo, sensors) = Topology::train_fleet(2);
    let query = q2_noise_monitoring(75.0);
    let plan = plan_placed(&query, &topo, &sensors[..1], PlacementStrategy::EdgeFirst).unwrap();
    let edge = topo
        .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
        .unwrap();
    let cloud = topo.cloud().unwrap();
    assert!(
        plan.placements()[0].stages.contains(&edge),
        "window stage on the edge"
    );

    let (next, migrated) = plan.after_failure(&mut topo, edge).unwrap();
    assert!(migrated >= 1);
    // Every remaining stage can still route to the cloud.
    for stage in &next.placements()[0].stages {
        assert!(topo.path_up(*stage, cloud).is_ok() || *stage == cloud);
    }
}

#[test]
fn csv_export_replay_gives_identical_query_results() {
    let cfg = FleetConfig::test_minutes(10);
    let sim = sncb::FleetSimulator::new(cfg);
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();

    // In-memory run.
    let mut env1 = sncb::demo::demo_environment_with(&net, weather, records.clone());
    let q = q1_alert_filtering(160.0);
    let (mut s1, mem_results) = CollectingSink::new();
    env1.run(&q, &mut s1).unwrap();

    // Export, replay from CSV.
    let path = std::env::temp_dir().join("nebulameos_fleet_replay.csv");
    sncb::export_csv(&records, &path).unwrap();
    let mut env2 = StreamEnvironment::new();
    env2.load_plugin(&nebulameos::MeosPlugin).unwrap();
    env2.load_plugin(&nebulameos::DemoContext::new(sncb::demo_zones(&net)))
        .unwrap();
    env2.add_source(
        "fleet",
        Box::new(sncb::open_csv(&path).unwrap()),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    let (mut s2, csv_results) = CollectingSink::new();
    let m = env2.run(&q, &mut s2).unwrap();
    assert_eq!(m.records_in as usize, records.len());

    // Q1 doesn't involve the weather, so results must match exactly up
    // to float printing precision; compare alert count and train ids.
    assert_eq!(mem_results.len(), csv_results.len());
    let ids = |c: &Collected| {
        c.records()
            .iter()
            .map(|r| r.get(1).unwrap().as_int().unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(ids(&mem_results), ids(&csv_results));
    std::fs::remove_file(&path).ok();
}

#[test]
fn dataset_summary_reflects_faults() {
    let records = sncb::generate(FleetConfig::demo_hour());
    let s = sncb::summarize(&records);
    assert_eq!(s.events, 3_600 * 6);
    assert_eq!(s.per_train.len(), 6);
    assert!(s.per_train.iter().all(|n| *n == 3_600));
    assert!(
        s.emergency_brake_events > 50,
        "train 2's three emergency brakes leave a pressure signature: {}",
        s.emergency_brake_events
    );
    assert!(s.door_open_events > 500, "dwell time at stations");
    let span_s = (s.t_max - s.t_min) / 1_000_000;
    assert_eq!(span_s, 3_599, "one hour of 1 Hz ticks");
}

#[test]
fn threaded_execution_matches_sync_on_fleet() {
    let q = q1_alert_filtering(160.0);
    let (mut env1, _) = sncb::demo_environment(FleetConfig::test_minutes(10));
    let (mut s1, r1) = CollectingSink::new();
    env1.run(&q, &mut s1).unwrap();

    let (mut env2, _) = sncb::demo_environment(FleetConfig::test_minutes(10));
    let (mut s2, r2) = CollectingSink::new();
    env2.run_threaded(&q, &mut s2).unwrap();

    assert_eq!(r1.records(), r2.records());
}
