//! Integration: the distributed-edge economics (placement strategies
//! over real measured stage volumes) and dataset materialization
//! (CSV round trip at fleet scale, result equivalence from file replay).

use nebula::prelude::*;
use nebulameos::{q1_alert_filtering, q2_noise_monitoring};
use sncb::FleetConfig;

#[test]
fn edge_placement_beats_cloud_on_every_query_with_reduction() {
    let cfg = FleetConfig::test_minutes(20);
    let sim = sncb::FleetSimulator::new(cfg);
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();

    let env = sncb::demo::demo_environment_with(&net, weather, records.clone());
    let (topo, sensors) = Topology::train_fleet(6);

    for (name, query) in [
        ("q1", q1_alert_filtering(160.0)),
        ("q2", q2_noise_monitoring(75.0)),
    ] {
        let stages = measure_stage_bytes(
            Box::new(VecSource::new(sncb::fleet_schema(), records.clone())),
            &query,
            env.registry(),
            1024,
        )
        .unwrap();
        // Selectivity: the pipeline reduces volume front to back.
        assert!(
            *stages.stage_bytes.last().unwrap() < stages.stage_bytes[0],
            "{name}: output should be smaller than input"
        );
        let edge = place(&query, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
        let cloud = place(&query, &topo, sensors[0], PlacementStrategy::CloudOnly).unwrap();
        let ce = network_cost(&topo, &edge, &stages).unwrap();
        let cc = network_cost(&topo, &cloud, &stages).unwrap();
        assert!(
            ce.cloud_uplink_bytes < cc.cloud_uplink_bytes,
            "{name}: edge {} >= cloud {}",
            ce.cloud_uplink_bytes,
            cc.cloud_uplink_bytes
        );
        // The paper's claim is a *substantial* reduction.
        assert!(
            ce.cloud_uplink_bytes * 5 < cc.cloud_uplink_bytes,
            "{name}: only {:.1}x",
            cc.cloud_uplink_bytes as f64 / ce.cloud_uplink_bytes.max(1) as f64
        );
    }
}

#[test]
fn failure_replacement_keeps_query_placeable() {
    let (mut topo, sensors) = Topology::train_fleet(2);
    let query = q2_noise_monitoring(75.0);
    let pl = place(&query, &topo, sensors[0], PlacementStrategy::EdgeFirst).unwrap();
    let edge = topo
        .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
        .unwrap();
    let cloud = topo.cloud().unwrap();
    assert!(pl.stages.contains(&edge), "window stage on the edge");

    assert!(topo.fail_node(edge));
    let (new_pl, migrated) = replace_after_failure(&pl, edge, cloud);
    assert!(migrated >= 1);
    // Every remaining stage can still route to the cloud.
    for stage in &new_pl.stages {
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
