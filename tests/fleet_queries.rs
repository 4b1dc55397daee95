//! End-to-end integration: the paper's eight queries over the simulated
//! SNCB fleet. The simulation is seeded, so alert counts are asserted
//! against deterministic expectations: the injected faults (battery on
//! train 1, emergency brakes + leak on train 2, unscheduled stops on
//! train 3) must be found by exactly the queries designed to catch them.

use nebula::prelude::*;
use nebulameos::{all_demo_queries, DemoContext, MeosPlugin};
use sncb::{demo_environment, demo_zones, FleetConfig, FleetSimulator};

/// One fully wired environment over a fresh simulated stream: the demo
/// wiring the examples and the benchmark use (`sncb::demo`), the lazy
/// weather provider included.
fn demo_env(minutes: i64) -> StreamEnvironment {
    demo_environment(FleetConfig::test_minutes(minutes)).0
}

fn run_query(q: &Query, minutes: i64) -> (Collected, QueryMetrics) {
    let mut env = demo_env(minutes);
    let (mut sink, got) = CollectingSink::new();
    let m = env.run(q, &mut sink).unwrap();
    (got, m)
}

fn column(records: &[Record], idx: usize) -> Vec<Value> {
    records
        .iter()
        .map(|r| r.get(idx).cloned().unwrap())
        .collect()
}

#[test]
fn all_queries_compile_and_run_on_fleet() {
    for (name, q) in all_demo_queries() {
        let mut env = demo_env(5);
        let (mut sink, _) = CollectingSink::new();
        let m = env.run(&q, &mut sink);
        assert!(m.is_ok(), "{name}: {:?}", m.err());
        assert_eq!(m.unwrap().records_in, 5 * 60 * 6, "{name} ingests all");
    }
}

#[test]
fn q5_battery_alerts_point_at_faulty_train() {
    let (got, _) = run_query(&nebulameos::q5_battery_monitoring(), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "battery fault must be detected");
    // Every alert names train 1 (the injected battery fault).
    for id in column(&recs, 1) {
        assert_eq!(id, Value::Int(1), "only train 1 degrades");
    }
    // Workshop annotation present and finite.
    let last = &recs[0];
    let w_m = last.get(last.len() - 2).unwrap().as_float().unwrap();
    assert!(w_m.is_finite() && w_m > 0.0);
    let w_name = last.get(last.len() - 1).unwrap().as_text().unwrap();
    assert!(w_name.starts_with("workshop:"), "{w_name}");
}

#[test]
fn q7_detects_only_injected_unscheduled_stops() {
    let (got, _) = run_query(&nebulameos::q7_unscheduled_stops(120), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "unscheduled stops must be detected");
    for id in column(&recs, 0) {
        assert_eq!(id, Value::Int(3), "only train 3 has unscheduled stops");
    }
    // The first injected stop lasts 6 minutes -> >= 300 ticks.
    let ticks: Vec<i64> = recs
        .iter()
        .map(|r| r.get(4).unwrap().as_int().unwrap())
        .collect();
    assert!(ticks.iter().any(|t| *t >= 300), "{ticks:?}");
}

#[test]
fn q8_detects_repeated_emergency_brakes() {
    let (got, _) = run_query(&nebulameos::q8_brake_monitoring(30), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "brake pattern must fire");
    for id in column(&recs, 1) {
        assert_eq!(id, Value::Int(2), "only train 2 emergency-brakes");
    }
}

#[test]
fn q6_heavy_load_fires_at_peak() {
    let (got, _) = run_query(&nebulameos::q6_heavy_load(500, 30), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "8-9 AM peak must produce heavy loads");
    for r in &recs {
        let peak = r.get(3).unwrap().as_int().unwrap();
        assert!(peak >= 500, "peak {peak}");
        let ticks = r.get(5).unwrap().as_int().unwrap();
        assert!(ticks >= 30);
    }
}

#[test]
fn q1_alerts_exclude_maintenance_speeding() {
    let (got, m) = run_query(&nebulameos::q1_alert_filtering(140.0), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "alerts expected in an hour of operation");
    // Alerts are a minority of the stream (the battery fault alarms
    // continuously once triggered, so "rare" means < 1/3 here).
    assert!(m.records_out < m.records_in / 3, "alerts are a minority");
    // No record may be a suppressed speeding alert: inside maintenance
    // implies equipment alert.
    let schema = sncb::fleet_schema();
    let in_maint = schema.len() + 2;
    let equipment = schema.len() + 1;
    for r in &recs {
        if r.get(in_maint).unwrap() == &Value::Bool(true) {
            assert_eq!(r.get(equipment).unwrap(), &Value::Bool(true));
        }
    }
}

#[test]
fn q2_noise_windows_only_in_quiet_zones() {
    let (got, _) = run_query(&nebulameos::q2_noise_monitoring(60.0), 60);
    let recs = got.records();
    assert!(!recs.is_empty(), "trains pass through noise zones hourly");
    for r in &recs {
        let peak = r.get(4).unwrap().as_float().unwrap();
        assert!(peak > 60.0);
        let samples = r.get(5).unwrap().as_int().unwrap();
        assert!(samples >= 1);
    }
}

#[test]
fn q3_speeding_in_risk_zones() {
    let (got, _) = run_query(&nebulameos::q3_dynamic_speed_limit(), 60);
    // Trains respect zone limits by design, so excess events come only
    // from braking-entry overshoot; zero alerts is acceptable, but the
    // pipeline must have executed without error and schema must be right.
    let recs = got.records();
    let schema_len = sncb::fleet_schema().len();
    for r in &recs {
        let excess = r.get(schema_len + 1).unwrap().as_float().unwrap();
        assert!(excess > 0.0);
    }
}

#[test]
fn q4_weather_alerts_respect_factor() {
    let (got, _) = run_query(&nebulameos::q4_weather_speed_zones(160.0), 60);
    let recs = got.records();
    let schema_len = sncb::fleet_schema().len();
    for r in &recs {
        let factor = r.get(schema_len).unwrap().as_float().unwrap();
        assert!(factor < 1.0, "only degraded weather emits");
        let suggested = r.get(schema_len + 1).unwrap().as_float().unwrap();
        let speed = r.get(3).unwrap().as_float().unwrap();
        assert!(speed > suggested);
    }
}

#[test]
fn deterministic_across_runs() {
    let (a, _) = run_query(&nebulameos::q5_battery_monitoring(), 20);
    let (b, _) = run_query(&nebulameos::q5_battery_monitoring(), 20);
    assert_eq!(a.records(), b.records());
}

#[test]
fn queries_survive_gps_dropouts_and_jitter() {
    // Heavier dropout + out-of-order arrival: queries must not error and
    // threshold queries must still find the anomalies.
    let cfg = FleetConfig {
        gps_dropout: 0.05,
        ..FleetConfig::test_minutes(60)
    };
    let sim = FleetSimulator::new(cfg);
    let net = sim.network();
    let records = sim.into_records();
    let mut env = StreamEnvironment::new();
    env.load_plugin(&MeosPlugin).unwrap();
    env.load_plugin(&DemoContext::new(demo_zones(&net)))
        .unwrap();
    env.add_source(
        "fleet",
        Box::new(JitterSource::new(
            VecSource::new(sncb::fleet_schema(), records),
            24,
            7,
        )),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 30 * MICROS_PER_SEC,
        },
    );
    let (mut sink, got) = CollectingSink::new();
    env.run(&nebulameos::q5_battery_monitoring(), &mut sink)
        .unwrap();
    assert!(!got.is_empty(), "fault still detected under jitter");
}
