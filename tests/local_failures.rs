//! The local rows of the failure table (`tests/common/failures.rs`):
//! every failure × plan through `run`, `run_threaded` and
//! `run_partitioned(1/2/4)`, each cell behind a deadline; a rejected
//! plan must leave the source registered, and `buffer_size: 0` must run
//! as 1 instead of polling for nothing forever.

mod common;

use common::failures::{
    assert_every_failure_is_typed, assert_healthy, local_env, FailPlan, FailingSink, RECORDS,
};
use common::matrix::LOCAL;
use nebula::prelude::*;

#[test]
fn every_failure_returns_its_typed_error_in_every_mode() {
    assert_every_failure_is_typed(&LOCAL);
}

#[test]
fn healthy_run_of_the_same_table_succeeds() {
    assert_healthy(&LOCAL, 16);
}

#[test]
fn zero_buffer_size_reads_as_one_in_every_mode() {
    assert_healthy(&LOCAL, 0);
}

#[test]
fn rejected_plan_leaves_the_source_registered_in_every_mode() {
    // Three ways to be rejected before the source is taken: an unknown
    // column (E001), a window downstream of a projection that dropped
    // the event-time field (E008), and an unknown source name. The same
    // environment must then run a good plan.
    let rejected = [
        Query::from("s").filter(col("no_such_column").gt(lit(0i64))),
        Query::from("s").map(vec![("v", col("v"))]).window(
            vec![],
            WindowSpec::Tumbling {
                size: MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        ),
        Query::from("nowhere").filter(lit(true)),
    ];
    for mode in LOCAL {
        let mut env = local_env(None, 16);
        for (i, bad) in rejected.iter().enumerate() {
            let mut sink = FailingSink::default();
            let err = mode
                .run_local(&mut env, bad, &mut sink)
                .expect_err("a rejected plan must not run");
            assert!(
                matches!(err, NebulaError::Analysis(_) | NebulaError::Plan(_)),
                "{mode:?}: rejected plan {i} failed with {err}"
            );
            assert_eq!(
                sink.calls, 0,
                "{mode:?}: rejected plan {i} reached the sink"
            );
        }
        let mut sink = FailingSink::default();
        let m = mode
            .run_local(&mut env, &FailPlan::Stateless.query(None), &mut sink)
            .unwrap_or_else(|e| panic!("{mode:?}: source lost to a rejected plan: {e}"));
        assert_eq!(m.records_in, RECORDS as u64, "{mode:?}");
    }
}
