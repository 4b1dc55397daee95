//! Integration coverage for the mandatory pre-flight analyzer: the
//! demo suite Q1–Q8 must stay free of error-severity diagnostics under
//! every execution target (local, partitioned, placed on the cluster),
//! the analysis itself must stay cheap (well under a millisecond per
//! plan), and a rejected plan must be refused identically by every
//! entry point before any operator is instantiated.

use nebula::prelude::*;
use sncb::{FleetConfig, FleetSimulator};

/// Analysis needs only schemas and registries, not data volume: one
/// simulated minute.
fn environment() -> StreamEnvironment {
    sncb::demo_environment(FleetConfig::test_minutes(1)).0
}

/// The same minute hosted on a one-train cluster.
fn cluster_environment() -> ClusterEnvironment {
    let sim = FleetSimulator::new(FleetConfig::test_minutes(1));
    let (net, weather) = (sim.network(), sim.weather().clone());
    sncb::demo::demo_cluster_with(&net, weather, sim.into_records())
}

#[test]
fn demo_queries_are_error_free_under_every_target() {
    let env = environment();
    let cluster = cluster_environment();
    for (name, query) in nebulameos::all_demo_queries() {
        let reports = [
            ("local", env.analyze(&query).expect("source registered")),
            (
                "partitioned",
                env.analyze_for(&query, Target::Partitioned { parallelism: 4 })
                    .expect("source registered"),
            ),
            (
                "placed",
                cluster
                    .analyze(&query, PlacementStrategy::EdgeFirst)
                    .expect("source hosted"),
            ),
            (
                "placed-cloud",
                cluster
                    .analyze(&query, PlacementStrategy::CloudOnly)
                    .expect("source hosted"),
            ),
        ];
        for (target, report) in reports {
            assert!(
                !report.has_errors(),
                "{name} under {target} must be error-free:\n{}",
                report.render()
            );
            // The acceptance bound is 1 ms; assert with headroom so a
            // slow CI machine cannot flake the suite.
            assert!(
                report.elapsed_us < 5_000,
                "{name} under {target} took {} µs",
                report.elapsed_us
            );
            assert!(
                report.output_schema.is_some(),
                "{name} under {target} infers an output schema"
            );
        }
    }
}

#[test]
fn rejected_plan_is_refused_by_every_entry_point() {
    let bad = Query::from("fleet").filter(col("no_such_column").gt(lit(0)));

    let mut env = environment();
    let report = env.analyze(&bad).expect("source registered");
    assert!(report.has_errors(), "unknown column is an error");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnknownColumn),
        "E001 names the missing column: {}",
        report.render()
    );

    let (mut sink, collected) = CollectingSink::new();
    for mode in ["run", "run_threaded", "run_partitioned"] {
        let result = match mode {
            "run" => env.run(&bad, &mut sink),
            "run_threaded" => env.run_threaded(&bad, &mut sink),
            _ => env.run_partitioned(&bad, &mut sink),
        };
        match result {
            Err(NebulaError::Analysis(e)) => {
                assert!(
                    e.diagnostics.iter().any(|d| d.code == Code::UnknownColumn),
                    "{mode} rejection carries E001"
                );
            }
            other => panic!("{mode} must reject with AnalysisError, got {other:?}"),
        }
    }
    assert!(
        collected.records().is_empty(),
        "a rejected plan never reaches the sink"
    );

    let mut cluster = cluster_environment();
    let (mut csink, _) = CollectingSink::new();
    match cluster.run_placed(&bad, PlacementStrategy::EdgeFirst, &mut csink) {
        Err(NebulaError::Analysis(e)) => assert!(!e.diagnostics.is_empty()),
        other => panic!("cluster must reject with AnalysisError, got {other:?}"),
    }
}

#[test]
fn warning_severity_is_configurable_per_environment() {
    let keyless = Query::from("fleet").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );

    // Default: W010 is a warning, plan accepted.
    let env = environment();
    let report = env
        .analyze_for(&keyless, Target::Partitioned { parallelism: 4 })
        .expect("source registered");
    assert!(!report.has_errors());
    assert!(report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::PartitionFallback));

    // Promoted to deny: the same plan is rejected.
    let mut strict = environment();
    strict.config_mut().analysis =
        AnalysisOptions::new().set(Code::PartitionFallback, LintLevel::Deny);
    let report = strict
        .analyze_for(&keyless, Target::Partitioned { parallelism: 4 })
        .expect("source registered");
    assert!(report.has_errors(), "denied W010 rejects the plan");

    // Allowed: the diagnostic disappears entirely.
    let mut lax = environment();
    lax.config_mut().analysis =
        AnalysisOptions::new().set(Code::PartitionFallback, LintLevel::Allow);
    let report = lax
        .analyze_for(&keyless, Target::Partitioned { parallelism: 4 })
        .expect("source registered");
    assert!(report.is_clean(), "allowed W010 is silenced");
}

#[test]
fn meos_capabilities_type_opaque_plans_for_the_wire() {
    // A plan producing an opaque MEOS value (`tpoint_simplify` returns
    // a temporal point) crosses node boundaries when placed. The
    // MeosPlugin's capability registry tags the column as
    // `meos.tgeompoint` and the cluster has a codec for that tag, so
    // the placed analysis stays completely clean — no W012.
    let cluster = cluster_environment();
    let q = Query::from("fleet").map_extend(vec![(
        "traj",
        call("tpoint_simplify", vec![col("pos"), lit(5.0)]),
    )]);
    let report = cluster
        .analyze(&q, PlacementStrategy::EdgeFirst)
        .expect("source hosted");
    assert!(
        report.is_clean(),
        "known opaque tag with a registered codec is clean:\n{}",
        report.render()
    );
    let schema = report.output_schema.expect("schema inferred");
    assert_eq!(
        schema.field("traj").map(|f| f.dtype),
        Some(DataType::Opaque),
        "opaque MEOS output is typed, not guessed"
    );

    // The same plan through an environment with no MEOS capabilities
    // fails fast at E002: the function itself is unknown there.
    let mut bare = StreamEnvironment::new();
    bare.add_source(
        "fleet",
        Box::new(VecSource::new(sncb::fleet_schema(), Vec::new())),
        WatermarkStrategy::None,
    );
    let report = bare.analyze(&q).expect("source registered");
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::UnknownFunction),
        "without the plugin the call is E002: {}",
        report.render()
    );
}

/// The source columns every row-preserving demo query keeps.
const FLEET: &str = "ts: TIMESTAMP, train_id: INT, pos: POINT, speed_kmh: FLOAT, \
     battery_v: FLOAT, battery_temp_c: FLOAT, brake_bar: FLOAT, noise_db: FLOAT, \
     passengers: INT, doors_open: BOOL, odometer_m: FLOAT, cabin_temp_c: FLOAT";

const W011_THRESHOLD: &str = "W011 op0:window: threshold windows close on predicate \
     transitions and cannot pre-aggregate at the edge; raw records ship to the cloud";

#[test]
fn analyze_bin_rows_are_pinned() {
    // The `analyze` bin's 24 rows — Q1–Q8 under local, partitioned(4)
    // and placed(edge-first) — pinned by every diagnostic's code, path
    // and message and by the inferred output schema.
    let fleet = |extra: &str| format!("({FLEET}, {extra})");
    let expected: [(&str, String, &[&str]); 8] = [
        (
            "Q1",
            fleet("speeding: BOOL, equipment: BOOL, in_maintenance: BOOL, alert: TEXT"),
            &[],
        ),
        (
            "Q2",
            "(train_id: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, avg_db: FLOAT, \
             peak_db: FLOAT, samples: INT, at: POINT)"
                .into(),
            &[],
        ),
        ("Q3", fleet("zone_limit_kmh: FLOAT, excess_kmh: FLOAT"), &[]),
        (
            "Q4",
            fleet("weather_factor: FLOAT, suggested_kmh: FLOAT"),
            &[],
        ),
        (
            "Q5",
            fleet(
                "pattern: TEXT, match_start: TIMESTAMP, match_end: TIMESTAMP, \
                 workshop_m: FLOAT, workshop: TEXT",
            ),
            &[],
        ),
        (
            "Q6",
            "(train_id: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, \
             peak_passengers: INT, avg_passengers: FLOAT, ticks: INT, at: POINT)"
                .into(),
            &[W011_THRESHOLD],
        ),
        (
            "Q7",
            "(train_id: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, stop_pos: POINT, \
             ticks: INT)"
                .into(),
            &[W011_THRESHOLD],
        ),
        (
            "Q8",
            fleet("pattern: TEXT, match_start: TIMESTAMP, match_end: TIMESTAMP"),
            &[],
        ),
    ];
    let env = environment();
    let cluster = cluster_environment();
    let queries = nebulameos::all_demo_queries();
    assert_eq!(queries.len(), expected.len());
    let mut rows = 0;
    for ((name, query), (id, schema, placed)) in queries.into_iter().zip(&expected) {
        assert!(name.starts_with(id), "{name} is {id}");
        let reports = [
            (
                "local",
                env.analyze(&query).expect("source registered"),
                &[][..],
            ),
            (
                "partitioned(4)",
                env.analyze_for(&query, Target::Partitioned { parallelism: 4 })
                    .expect("source registered"),
                &[][..],
            ),
            (
                "placed(edge-first)",
                cluster
                    .analyze(&query, PlacementStrategy::EdgeFirst)
                    .expect("source hosted"),
                *placed,
            ),
        ];
        for (target, report, diags) in reports {
            let got: Vec<String> = report
                .diagnostics
                .iter()
                .map(|d| format!("{} {}: {}", d.code, d.path, d.message))
                .collect();
            assert_eq!(got, *diags, "{name} under {target}");
            assert_eq!(
                report.output_schema.map(|s| s.to_string()).as_deref(),
                Some(schema.as_str()),
                "{name} under {target}"
            );
            rows += 1;
        }
    }
    assert_eq!(rows, 24);
}
