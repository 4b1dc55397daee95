//! The placed rows of the failure table (`tests/common/failures.rs`):
//! every failure × plan through `run_placed` and through
//! `run_placed_chaos` with an empty fault plan (resilient links,
//! barriers and commit-on-checkpoint, no injected fault), under
//! `EdgeFirst` and `CloudOnly`, each cell behind a deadline.
//!
//! Since results leave the cloud site as they are produced, the sink
//! fails *while* the pipeline stages are still running: the source is
//! long and the channels two frames deep, so when the error fires every
//! upstream thread is parked on a full channel and must wake with a
//! hang-up (or `Aborted`) that never masks the root cause. The failing
//! call runs in the cloud tail under `CloudOnly` and behind a split
//! window, and on the source node for the stateless `EdgeFirst` plan.

mod common;

use common::failures::{assert_every_failure_is_typed, assert_healthy};
use common::matrix::Entry;
use nebula::prelude::PlacementStrategy::{CloudOnly, EdgeFirst};

const PLACED: [Entry; 4] = [
    Entry::Placed(EdgeFirst),
    Entry::Placed(CloudOnly),
    Entry::Resilient(EdgeFirst),
    Entry::Resilient(CloudOnly),
];

#[test]
fn every_failure_returns_its_typed_error_in_every_cell() {
    assert_every_failure_is_typed(&PLACED);
}

#[test]
fn healthy_run_of_the_same_table_succeeds() {
    assert_healthy(&PLACED, 16);
}

#[test]
fn zero_buffer_size_reads_as_one_when_placed() {
    // Stage 0 polls through the same source stage as the local
    // executor, on resilient links as on plain ones: `run_placed`
    // covers it without 20 000 acknowledged one-record frames per cell.
    assert_healthy(&PLACED[..2], 0);
}
