//! Runtime telemetry across every execution mode: one fleet-analytics
//! query is run synchronously, pipeline-parallel, data-parallel, and
//! distributed across the sensors → edge → cloud topology — and each
//! run yields a [`QueryReport`]: per-operator records/selectivity/
//! service-time breakdowns, a periodically sampled time series of
//! throughput, queue depth and frontier lag, per-node snapshots fanned
//! in over the wire (cluster mode), and a causally-ordered trace log.
//! The final report is also exported as JSON.
//!
//! ```text
//! cargo run --release --example telemetry_fleet
//! ```

use nebula::prelude::*;
use sncb::FleetConfig;
use std::time::Duration;

const NUM_TRAINS: usize = 4;

fn fleet_query() -> Query {
    // The common shape: filter, derive, keyed window — three operators
    // with distinct selectivity and service-time profiles.
    Query::from("fleet")
        .filter(col("speed_kmh").gt(lit(5.0)))
        .map_extend(vec![("ms", col("speed_kmh").mul(lit(1.0 / 3.6)))])
        .window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_ms", AggSpec::Avg(col("ms"))),
                WindowAgg::new("max_kmh", AggSpec::Max(col("speed_kmh"))),
            ],
        )
}

/// Sub-millisecond sampling so even a fast example run records a
/// multi-point series (production default is 100 ms).
fn telemetry() -> TelemetryConfig {
    TelemetryConfig {
        sample_every: Duration::from_millis(1),
        ..TelemetryConfig::default()
    }
}

fn local_env(records: Vec<Record>) -> StreamEnvironment {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 256,
        watermark_every: 2,
        parallelism: 4,
        telemetry: telemetry(),
        ..EnvConfig::default()
    });
    env.add_source(
        "fleet",
        Box::new(VecSource::new(sncb::fleet_schema(), records)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    env
}

fn main() -> nebula::Result<()> {
    let records = sncb::generate(FleetConfig {
        num_trains: NUM_TRAINS,
        ..FleetConfig::test_minutes(30)
    });
    println!(
        "fleet workload: {} records over 30 simulated minutes, {NUM_TRAINS} trains\n",
        records.len()
    );
    let query = fleet_query();

    // The three single-process modes: same query, same telemetry
    // pipeline, three executors.
    for mode in ["run", "run_threaded", "run_partitioned"] {
        let mut env = local_env(records.clone());
        let mut sink = NullSink;
        match mode {
            "run" => env.run(&query, &mut sink)?,
            "run_threaded" => env.run_threaded(&query, &mut sink)?,
            _ => env.run_partitioned(&query, &mut sink)?,
        };
        let report = env.take_report().expect("telemetry is enabled");
        print!("{}", report.render());
        println!();
    }

    // The distributed mode: each train's sensors feed its edge box,
    // pre-aggregated partials cross the uplink, and every node ships
    // periodic snapshots to the cloud alongside the data.
    let (topo, sensors) = Topology::train_fleet(NUM_TRAINS);
    let mut env = ClusterEnvironment::with_config(
        topo,
        EnvConfig {
            buffer_size: 256,
            watermark_every: 2,
            telemetry: telemetry(),
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
    let mut sink = NullSink;
    let placed = env.run_placed(&fleet_query(), PlacementStrategy::EdgeFirst, &mut sink)?;
    print!("{}", placed.telemetry.render());

    let by_node: std::collections::BTreeMap<&str, usize> = placed
        .telemetry
        .node_snapshots
        .iter()
        .fold(std::collections::BTreeMap::new(), |mut acc, s| {
            *acc.entry(s.node.as_str()).or_default() += 1;
            acc
        });
    println!("  per-node snapshot counts:");
    for (node, count) in by_node {
        println!("    {node:<24} {count:>5}");
    }

    // The whole report is one JSON document — print a truncated view.
    let json =
        serde_json::to_string_pretty(&placed.telemetry.to_json()).expect("report serializes");
    let head: String = json.chars().take(1200).collect();
    println!(
        "\nJSON export (first 1200 chars of {} total):\n{head}...",
        json.len()
    );
    Ok(())
}
