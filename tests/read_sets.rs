//! Read sets: the plan decides which columns exist. A backward liveness
//! pass over the bound plan gives each source the fields something
//! downstream reads; sources build only those, every other field is a
//! storage-free `Column::Absent`, and links ship only what the stages
//! behind them read. Pinned here over the simulated SNCB fleet:
//!
//! - `explain` prints the read set of the paper's narrow queries and of
//!   Q1, which passes every field on to its sink;
//! - no absent column reaches a sink, in any entry point or columnar
//!   mode, and every cell's results equal the row path's.

use nebula::prelude::*;
use sncb::demo::{demo_cluster_with, demo_environment_with};
use sncb::{demo_environment, FleetConfig, FleetSimulator, RailNetwork, WeatherField};
use std::sync::Arc;

/// The benchmark's per-train one-minute tumbling profile.
fn fleet_profile() -> Query {
    Query::from(nebulameos::FLEET_STREAM).window(
        vec![("train", col("train_id"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed_kmh"))),
            WindowAgg::new("max_passengers", AggSpec::Max(col("passengers"))),
        ],
    )
}

/// Q1–Q8, plus `fleet_profile`. Q6 and Q7 lower their thresholds so
/// that [`MINUTES`] of fleet data yield episodes.
fn queries() -> Vec<(&'static str, Query)> {
    vec![
        ("Q1", nebulameos::q1_alert_filtering(160.0)),
        ("Q2", nebulameos::q2_noise_monitoring(80.0)),
        ("Q3", nebulameos::q3_dynamic_speed_limit()),
        ("Q4", nebulameos::q4_weather_speed_zones(160.0)),
        ("Q5", nebulameos::q5_battery_monitoring()),
        ("Q6", nebulameos::q6_heavy_load(150, 3)),
        ("Q7", nebulameos::q7_unscheduled_stops(3)),
        ("Q8", nebulameos::q8_brake_monitoring(30)),
        ("fleet_profile", fleet_profile()),
        ("cep_projected", cep_projected()),
    ]
}

/// A CEP stage whose matches are narrowed to four columns: the match
/// carries `pos`, which no step reads, and eight dead fields, which it
/// emits as nulls.
fn cep_projected() -> Query {
    let pattern = Pattern::new(
        "slow-down",
        vec![
            PatternStep::new("fast", col("speed_kmh").gt(lit(100.0))),
            PatternStep::new("slow", col("speed_kmh").lt(lit(50.0))),
        ],
        10 * 60 * MICROS_PER_SEC,
    )
    .keyed_by(col("train_id"));
    Query::from(nebulameos::FLEET_STREAM).cep(pattern).map(vec![
        ("train_id", col("train_id")),
        ("pos", col("pos")),
        ("match_start", col("match_start")),
        ("match_end", col("match_end")),
    ])
}

/// The `reads:` part of the `Source[...]` line of `query`'s plan.
fn explained_reads(env: &StreamEnvironment, query: &Query) -> String {
    let plan = env.explain(query).expect("demo queries compile");
    let source_line = plan.lines().next().unwrap_or_default();
    let (_, reads) = source_line
        .split_once(" reads: ")
        .unwrap_or_else(|| panic!("no read set in '{source_line}'"));
    reads.to_string()
}

#[test]
fn explain_prints_each_sources_read_set() {
    let (env, _) = demo_environment(FleetConfig::test_minutes(1));
    let cases = [
        (fleet_profile(), "ts, train_id, speed_kmh, passengers"),
        (
            nebulameos::q2_noise_monitoring(80.0),
            "ts, train_id, pos, noise_db",
        ),
        (
            nebulameos::q6_heavy_load(500, 30),
            "ts, train_id, pos, passengers",
        ),
    ];
    for (query, want) in cases {
        assert_eq!(explained_reads(&env, &query), want);
    }
    // Q1 extends and filters every reading into its sink: all 12 fields.
    let schema = sncb::fleet_schema();
    let every: Vec<&str> = schema.fields().iter().map(|f| f.name.as_str()).collect();
    let q1 = nebulameos::q1_alert_filtering(160.0);
    assert_eq!(explained_reads(&env, &q1), every.join(", "));
}

/// Collects every row it receives and counts the columnar buffers that
/// arrived with an absent column (which `deliver` also debug-asserts).
#[derive(Default)]
struct CheckingSink {
    rows: Vec<Record>,
    absent: usize,
}

impl Sink for CheckingSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.rows.extend_from_slice(buf.records());
        Ok(())
    }

    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        if buf.columns().iter().any(Column::is_absent) {
            self.absent += 1;
        }
        self.consume(&buf.to_record_buffer())
    }
}

/// Where a cell runs.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Run,
    Threaded,
    Partitioned,
    Placed(PlacementStrategy),
}

const MINUTES: i64 = 30;

/// One seeded simulation, replayed by every cell.
struct Fleet {
    net: Arc<RailNetwork>,
    weather: WeatherField,
    records: Vec<Record>,
}

impl Fleet {
    fn simulate() -> Fleet {
        let sim = FleetSimulator::new(FleetConfig::test_minutes(MINUTES));
        let (net, weather) = (sim.network(), sim.weather().clone());
        let records = sim.into_records();
        Fleet {
            net,
            weather,
            records,
        }
    }
}

/// Runs `query` over `fleet` through `entry` under `mode`; returns the
/// order-normalized rows and the count of sink buffers with an absent
/// column.
fn run_cell(
    fleet: &Fleet,
    query: &Query,
    entry: Entry,
    mode: ColumnarMode,
) -> (Vec<Record>, usize) {
    let (net, weather, records) = (&fleet.net, fleet.weather.clone(), fleet.records.clone());
    let mut sink = CheckingSink::default();
    match entry {
        Entry::Placed(strategy) => {
            let mut env = demo_cluster_with(net, weather, records);
            env.config_mut().columnar = mode;
            env.run_placed(query, strategy, &mut sink)
                .map(drop)
                .unwrap_or_else(|e| panic!("{entry:?}/{mode:?}: {e}"));
        }
        local => {
            let mut env = demo_environment_with(net, weather, records);
            env.config_mut().columnar = mode;
            env.config_mut().parallelism = 2;
            match local {
                Entry::Run => env.run(query, &mut sink),
                Entry::Threaded => env.run_threaded(query, &mut sink),
                _ => env.run_partitioned(query, &mut sink),
            }
            .unwrap_or_else(|e| panic!("{entry:?}/{mode:?}: {e}"));
        }
    }
    normalize_records(&mut sink.rows);
    (sink.rows, sink.absent)
}

#[test]
fn no_absent_column_reaches_a_sink_in_any_mode() {
    let entries = [
        Entry::Run,
        Entry::Threaded,
        Entry::Partitioned,
        Entry::Placed(PlacementStrategy::EdgeFirst),
        Entry::Placed(PlacementStrategy::CloudOnly),
    ];
    let modes = [ColumnarMode::Off, ColumnarMode::Auto, ColumnarMode::Force];
    let fleet = Fleet::simulate();
    for (name, query) in queries() {
        let (reference, _) = run_cell(&fleet, &query, Entry::Run, ColumnarMode::Off);
        for entry in entries {
            for mode in modes {
                let (rows, absent) = run_cell(&fleet, &query, entry, mode);
                assert_eq!(
                    absent, 0,
                    "{name} {entry:?}/{mode:?}: absent column at the sink"
                );
                assert!(
                    rows == reference,
                    "{name} {entry:?}/{mode:?}: {} rows vs {} on the row path",
                    rows.len(),
                    reference.len()
                );
            }
        }
    }
}
