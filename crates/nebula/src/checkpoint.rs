//! Checkpoint storage for the chaos-hardened cluster runtime.
//!
//! A chaos run's store is created holding **epoch 0**, the run's start:
//! the coordinator's snapshots of the freshly compiled chains, every
//! source at batch 0 and nothing owed to the sink. It is sealed from
//! the outset, so a crash always has an epoch to restore, but it is not
//! counted in `checkpoints_taken` — only epochs the run itself took
//! are.
//!
//! After that, stage 0 of every pipeline emits a
//! [`crate::wire::Frame::Barrier`] every few source batches. The barrier
//! flows through the pipeline like any other frame (so it cuts the
//! stream at a well-defined point on every link), and each participant
//! deposits its part of the epoch here as the barrier passes: each
//! stage, keyed by `(pipe, stage)`, its operator-chain snapshot — stage
//! 0 also the source cut (replay cursor and counters); and the cloud —
//! once the barrier has *aligned* across all live pipelines — the
//! shared-tail operators, the uncommitted results, and watermark state.
//!
//! An epoch is **complete** when the cloud part is present and every
//! pipeline that was still live at the cloud's cut has contributed all
//! its stage parts. Every operator snapshots, so a complete epoch
//! is restorable: completing seals it and prunes everything older, and
//! recovery consumes the newest sealed epoch.
//!
//! An epoch completed by its cloud part is also the **commit point** of
//! result delivery: restore never goes back past it, so no recovery can
//! replay a row produced before its cut. `CheckpointStore::put_cloud`
//! tells the cloud, which hands those rows to the sink; the store drops
//! them from the part (restoring that very epoch must not deliver them
//! again).

use crate::metrics::{Histogram, QueryMetrics};
use crate::ops::Operator;
use crate::record::StreamMessage;
use crate::runtime::ProgressTracker;
use crate::value::EventTime;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};

/// Where a pipeline's source stood at the cut: the replay cursor and
/// the ingest counters that drive watermark cadence.
pub(crate) struct SourceCut {
    /// Data batches emitted when the barrier was sent (the
    /// [`crate::source::ReplaySource`] rewind target).
    pub batches: u64,
    /// Maximum event time seen (watermark generator state).
    pub max_ts: EventTime,
    /// Ingest-side counters at the cut.
    pub stats: QueryMetrics,
}

/// One pipeline stage's contribution to an epoch.
pub(crate) struct StagePart {
    /// Snapshot of the stage's operator chain.
    pub ops: Vec<Box<dyn Operator>>,
    /// The source cut — stage 0 only.
    pub source: Option<SourceCut>,
}

/// The cloud's contribution: shared-tail operators plus everything
/// [`crate::cluster`] keeps in its cloud state.
pub(crate) struct CloudPart {
    /// Snapshot of the shared-tail chain.
    pub ops: Vec<Box<dyn Operator>>,
    /// Rows emitted before the cut that no commit has handed to the
    /// sink — what a restore to this epoch still owes it.
    pub uncommitted: Vec<StreamMessage>,
    /// Per-pipeline progress (frontiers, finished flags, combined
    /// clock) at the cut.
    pub progress: ProgressTracker,
    /// Per-buffer processing latency samples.
    pub latency: Histogram,
}

/// All parts deposited for one epoch.
#[derive(Default)]
pub(crate) struct EpochState {
    /// Stage parts keyed by `(pipe, stage)`.
    pub stages: HashMap<(usize, usize), StagePart>,
    pub cloud: Option<CloudPart>,
}

impl EpochState {
    /// Complete: the cloud aligned, and every pipeline live at the cut
    /// contributed the parts of all its `expected_stages`.
    fn is_complete(&self, expected_stages: &[usize]) -> bool {
        let Some(cloud) = &self.cloud else {
            return false;
        };
        expected_stages.iter().enumerate().all(|(p, n)| {
            cloud.progress.is_done(p as u64) || (0..*n).all(|s| self.stages.contains_key(&(p, s)))
        })
    }
}

/// Per-pipeline totals deposited when a pipe finishes, so a pipeline
/// that is already done when a crash hits still reports accurate
/// metrics (its live operator state is gone with the threads).
#[derive(Default, Clone)]
pub(crate) struct PipeFinal {
    /// Stage 0's ingest stats.
    pub stats: QueryMetrics,
    /// Late drops summed over the pipeline's stages.
    pub late: u64,
}

struct StoreInner {
    epochs: BTreeMap<u64, EpochState>,
    /// Stage count per pipeline for the current phase (regrouping after
    /// a crash re-plan changes it).
    expected_stages: Vec<usize>,
    finals: Vec<Option<PipeFinal>>,
    taken: u64,
    last_sealed: u64,
}

/// Thread-shared checkpoint storage for one chaos run.
pub(crate) struct CheckpointStore {
    inner: Mutex<StoreInner>,
}

impl CheckpointStore {
    /// A store holding `start` as the sealed epoch 0, with
    /// `expected_stages` stages per pipeline.
    pub fn new(start: EpochState, expected_stages: Vec<usize>) -> Self {
        let n_pipes = expected_stages.len();
        CheckpointStore {
            inner: Mutex::new(StoreInner {
                epochs: BTreeMap::from([(0, start)]),
                expected_stages,
                finals: vec![None; n_pipes],
                taken: 0,
                last_sealed: 0,
            }),
        }
    }

    /// Declares how many stages each pipeline runs this phase.
    pub fn set_expected_stages(&self, stages: Vec<usize>) {
        self.inner.lock().expected_stages = stages;
    }

    /// Deposits one stage's part of `epoch`.
    pub fn put(&self, epoch: u64, pipe: usize, stage: usize, part: StagePart) {
        let mut g = self.inner.lock();
        g.epochs
            .entry(epoch)
            .or_default()
            .stages
            .insert((pipe, stage), part);
        g.seal(epoch);
    }

    /// Deposits the cloud's part; `true` means the epoch is complete —
    /// committed: the caller hands `part.uncommitted` to the sink and
    /// the store keeps none of it.
    pub fn put_cloud(&self, epoch: u64, part: CloudPart) -> bool {
        let mut g = self.inner.lock();
        let g = &mut *g;
        let st = g.epochs.entry(epoch).or_default();
        st.cloud = Some(part);
        let complete = st.is_complete(&g.expected_stages);
        if complete {
            if let Some(cloud) = &mut st.cloud {
                cloud.uncommitted.clear();
            }
        }
        g.seal(epoch);
        complete
    }

    /// Adds one stage's end-of-stream totals to `pipe`'s final: its
    /// late drops and, from stage 0, the ingest stats. A restore voids
    /// the finals of every pipeline it re-runs.
    pub fn add_final(&self, pipe: usize, stats: Option<QueryMetrics>, late: u64) {
        let mut g = self.inner.lock();
        let fin = g.finals[pipe].get_or_insert_with(PipeFinal::default);
        if let Some(stats) = stats {
            fin.stats = stats;
        }
        fin.late += late;
    }

    pub fn final_for(&self, pipe: usize) -> Option<PipeFinal> {
        self.inner.lock().finals[pipe].clone()
    }

    /// Checkpoints the run took (sealed epochs past the start).
    pub fn checkpoints_taken(&self) -> u64 {
        self.inner.lock().taken
    }

    /// Consumes the newest complete epoch for restore — `None` only if
    /// the store never held one. Clears all stored epochs (phase 2
    /// re-deposits under its own grouping) and voids the finals of every
    /// pipeline not done at the cut, so a re-run pipeline cannot
    /// double-report stale totals.
    pub fn take_for_restore(&self) -> Option<(u64, EpochState)> {
        let mut g = self.inner.lock();
        let epoch = g
            .epochs
            .iter()
            .rev()
            .find(|(_, st)| st.is_complete(&g.expected_stages))
            .map(|(e, _)| *e)?;
        let st = g.epochs.remove(&epoch)?;
        g.epochs.clear();
        if let Some(cloud) = &st.cloud {
            for p in 0..g.finals.len() {
                if !cloud.progress.is_done(p as u64) {
                    g.finals[p] = None;
                }
            }
        }
        Some((epoch, st))
    }
}

impl StoreInner {
    /// Checks whether `epoch` just became complete; if so, counts it
    /// and prunes every older epoch (recovery only ever wants the
    /// newest complete one). A redundant part deposited into an
    /// already-sealed epoch must not double-count.
    fn seal(&mut self, epoch: u64) {
        let complete = self
            .epochs
            .get(&epoch)
            .is_some_and(|st| st.is_complete(&self.expected_stages));
        if complete && epoch > self.last_sealed {
            self.epochs.retain(|e, _| *e >= epoch);
            self.taken += 1;
            self.last_sealed = epoch;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage 0's part: no operators, and the source cut.
    fn head_part() -> StagePart {
        StagePart {
            ops: Vec::new(),
            source: Some(SourceCut {
                batches: 4,
                max_ts: 0,
                stats: QueryMetrics::default(),
            }),
        }
    }

    /// A later stage's part.
    fn stage_part() -> StagePart {
        StagePart {
            ops: Vec::new(),
            source: None,
        }
    }

    fn cloud_part(done: &[bool]) -> CloudPart {
        let mut progress = ProgressTracker::with_origins(done.len() as u64);
        for (p, d) in done.iter().enumerate() {
            if *d {
                progress.finish(p as u64);
            }
        }
        CloudPart {
            ops: Vec::new(),
            uncommitted: Vec::new(),
            progress,
            latency: Histogram::new(),
        }
    }

    /// A cloud part whose chain had emitted `rows` uncommitted rows.
    fn cloud_part_owing(done: &[bool], rows: &[i64]) -> CloudPart {
        use crate::record::{Record, RecordBuffer};
        use crate::schema::Schema;
        use crate::value::{DataType, Value};
        let schema = Schema::of(&[("v", DataType::Int)]);
        CloudPart {
            uncommitted: rows
                .iter()
                .map(|v| {
                    let rec = Record::new(vec![Value::Int(*v)]);
                    StreamMessage::Data(RecordBuffer::new(schema.clone(), vec![rec]))
                })
                .collect(),
            ..cloud_part(done)
        }
    }

    /// A store whose epoch 0 holds no parts, so restore can only find
    /// the epochs a test deposits.
    fn store(expected_stages: Vec<usize>) -> CheckpointStore {
        CheckpointStore::new(EpochState::default(), expected_stages)
    }

    #[test]
    fn start_epoch_restores_without_counting() {
        // The run's start, as the coordinator deposits it: every part
        // present, nothing owed. A crash before the first barrier
        // restores it; it never counts as a checkpoint taken.
        let start = EpochState {
            stages: HashMap::from([((0, 0), head_part()), ((0, 1), stage_part())]),
            cloud: Some(cloud_part(&[false])),
        };
        let store = CheckpointStore::new(start, vec![2]);
        assert_eq!(store.checkpoints_taken(), 0);
        let (epoch, st) = store.take_for_restore().expect("the start is sealed");
        assert_eq!(epoch, 0);
        assert!(st.cloud.expect("cloud part").uncommitted.is_empty());

        // The first sealed barrier counts and supersedes the start.
        let start = EpochState {
            stages: HashMap::from([((0, 0), head_part())]),
            cloud: Some(cloud_part(&[false])),
        };
        let store = CheckpointStore::new(start, vec![1]);
        store.put(1, 0, 0, head_part());
        assert!(store.put_cloud(1, cloud_part(&[false])));
        assert_eq!(store.checkpoints_taken(), 1);
        assert_eq!(store.inner.lock().epochs.len(), 1, "epoch 0 pruned");
        let (epoch, _) = store.take_for_restore().expect("sealed");
        assert_eq!(epoch, 1);
    }

    #[test]
    fn usable_epoch_commits_and_keeps_no_rows() {
        let store = store(vec![1]);
        store.put(1, 0, 0, head_part());
        assert!(
            store.put_cloud(1, cloud_part_owing(&[false], &[1, 2])),
            "all parts in: the cloud may commit"
        );
        assert_eq!(store.checkpoints_taken(), 1);
        // Restoring the committed epoch itself must not re-deliver.
        let (epoch, st) = store.take_for_restore().expect("usable");
        assert_eq!(epoch, 1);
        assert!(st.cloud.expect("cloud part").uncommitted.is_empty());
    }

    #[test]
    fn unusable_epoch_commits_nothing_and_keeps_the_uncommitted_suffix() {
        // A cloud part that lands before its epoch is complete is not a
        // commit; once the late part arrives the epoch restores with
        // the rows the sink has not seen.
        let store = store(vec![1]);
        assert!(!store.put_cloud(2, cloud_part_owing(&[false], &[7, 8, 9])));
        assert_eq!(store.checkpoints_taken(), 0);
        store.put(2, 0, 0, head_part());
        assert_eq!(store.checkpoints_taken(), 1);
        let (_, st) = store.take_for_restore().expect("usable once complete");
        assert_eq!(st.cloud.expect("cloud part").uncommitted.len(), 3);
    }

    #[test]
    fn committed_epoch_outlives_a_newer_unrestorable_one() {
        // Epoch 1 commits; epoch 2 has only its stage part, so it
        // cannot be restored yet. Restore must still find epoch 1.
        let store = store(vec![1]);
        store.put(1, 0, 0, head_part());
        assert!(store.put_cloud(1, cloud_part(&[false])));
        store.put(2, 0, 0, head_part());
        assert_eq!(store.checkpoints_taken(), 1);
        let (epoch, _) = store.take_for_restore().expect("committed epoch kept");
        assert_eq!(epoch, 1);
        // A newer commit releases it.
        let store = self::store(vec![1]);
        for epoch in 1..=2 {
            store.put(epoch, 0, 0, head_part());
            assert!(store.put_cloud(epoch, cloud_part(&[false])));
        }
        assert_eq!(store.checkpoints_taken(), 2);
        assert_eq!(store.inner.lock().epochs.len(), 1);
    }

    #[test]
    fn epoch_completes_only_with_all_parts() {
        let store = store(vec![2, 2]);
        store.put(1, 0, 0, head_part());
        store.put(1, 0, 1, stage_part());
        store.put_cloud(1, cloud_part(&[false, false]));
        assert!(store.take_for_restore().is_none(), "pipe 1 parts missing");
        store.put(1, 0, 0, head_part());
        store.put(1, 0, 1, stage_part());
        store.put_cloud(1, cloud_part(&[false, false]));
        store.put(1, 1, 0, head_part());
        store.put(1, 1, 1, stage_part());
        let (epoch, _) = store.take_for_restore().expect("complete now");
        assert_eq!(epoch, 1);
        assert!(store.checkpoints_taken() >= 1);
    }

    #[test]
    fn done_pipes_need_no_parts() {
        let store = store(vec![2, 2]);
        store.put(3, 0, 0, head_part());
        store.put(3, 0, 1, stage_part());
        // Pipe 1 already finished at the cloud's cut.
        store.put_cloud(3, cloud_part(&[false, true]));
        let (epoch, st) = store.take_for_restore().expect("pipe 1 exempt");
        assert_eq!(epoch, 3);
        assert!(st.cloud.unwrap().progress.is_done(1));
    }

    #[test]
    fn restore_takes_newest_and_voids_live_finals() {
        let store = store(vec![1, 1]);
        store.add_final(0, Some(QueryMetrics::default()), 0);
        store.add_final(1, Some(QueryMetrics::default()), 2);
        store.add_final(1, None, 3);
        for epoch in 1..=3 {
            store.put(epoch, 0, 0, head_part());
            store.put(epoch, 1, 0, head_part());
            store.put_cloud(epoch, cloud_part(&[false, true]));
        }
        let (epoch, _) = store.take_for_restore().expect("usable");
        assert_eq!(epoch, 3, "newest sealed epoch wins");
        assert!(
            store.final_for(0).is_none(),
            "live pipe re-runs: its stale final is void"
        );
        let kept = store
            .final_for(1)
            .expect("done pipe keeps its final totals");
        assert_eq!(kept.late, 5);
        assert!(store.take_for_restore().is_none(), "store drained");
    }
}
