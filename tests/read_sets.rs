//! Read sets: the plan decides which columns exist. A backward liveness
//! pass over the bound plan gives each source the fields something
//! downstream reads; sources build only those, every other field is a
//! storage-free `Column::Absent`, and links ship only what the stages
//! behind them read. Pinned here over the simulated SNCB fleet:
//!
//! - `explain` prints the read set of the paper's narrow queries and of
//!   Q1, which passes every field on to its sink;
//! - the fleet rows of the test matrix (`tests/common`): Q1–Q8,
//!   `fleet_profile` and `cep_projected` in every local and placed entry
//!   and columnar mode equal the row path, and no absent column reaches
//!   a sink (every cell of the matrix checks that).

#[macro_use]
mod common;

use common::catalog::fleet_profile;
use nebula::prelude::*;
use sncb::{demo_environment, FleetConfig};

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

matrix_rows!(no_absent_column_reaches_a_sink_in_any_mode,);
