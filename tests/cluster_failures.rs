//! Failure surface of mid-run delivery in the cluster runtime,
//! table-driven like `local_failures`: `Source::poll` erring at its
//! first or 300th call, a source that never becomes ready (stage 0
//! gives up with an `Io` error naming its origin instead of ending the
//! stream early), `Sink::consume` erring at its third call,
//! `Sink::finish` erring, and an operator erring mid-stream must each
//! come back as the typed error it raised, and an operator or
//! `Sink::consume` panicking as the `Eval` error carrying the panic
//! message, as in `local_failures` — under `EdgeFirst`
//! and `CloudOnly`, on a stateless and a keyed-window plan, through
//! `run_placed` and through `run_placed_chaos` with an empty fault plan
//! (resilient links, barriers and commit-on-checkpoint, no injected
//! fault). `buffer_size: 0` must run as 1 under `run_placed` instead
//! of polling for nothing forever.
//!
//! Since results leave the cloud site as they are produced, the sink
//! fails *while* the pipeline stages are still running: the source is
//! long and the channels two frames deep, so when the error fires every
//! upstream thread is parked on a full channel and must wake with a
//! hang-up (or `Aborted`) that never masks the root cause. The erring
//! operator runs in the cloud tail in three of the four plan ×
//! strategy cells (`CloudOnly` places everything there; `EdgeFirst`
//! splits the window and runs the merge and the filter behind it at the
//! cloud) and on the source node for the stateless `EdgeFirst` plan —
//! the same rule seen from the other end of the pipeline. Every run
//! happens on a spawned thread behind `recv_timeout`, so a hang fails
//! the cell instead of stalling the suite.

use nebula::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);
const RECORDS: i64 = 20_000;
/// The value `trip` refuses: far enough in that every queue is full.
const POISON: i64 = 3_000;

const STRATEGIES: [PlacementStrategy; 2] =
    [PlacementStrategy::EdgeFirst, PlacementStrategy::CloudOnly];

#[derive(Clone, Copy, Debug)]
enum Entry {
    Placed,
    /// `run_placed_chaos` with a plan that injects nothing.
    ChaosNoFaults,
}

#[derive(Clone, Copy, Debug)]
enum Plan {
    Stateless,
    KeyedWindow,
}

#[derive(Clone, Copy, Debug)]
enum Failure {
    /// `Source::poll` errs on its k-th call.
    SourcePoll(usize),
    /// The source never becomes ready: every poll is `Idle`.
    SourceIdle,
    /// An operator's expression errs on the row carrying `POISON`.
    Operator,
    /// An operator's expression panics on the row carrying `POISON`.
    OperatorPanic,
    /// `Sink::consume` errs on its k-th call.
    SinkConsume(usize),
    /// `Sink::consume` panics on its k-th call.
    SinkPanic(usize),
    SinkFinish,
}

impl Failure {
    fn error(self) -> NebulaError {
        match self {
            Failure::SourcePoll(k) => NebulaError::Io(format!("source failed at poll {k}")),
            Failure::SourceIdle => {
                NebulaError::Io("source of origin 0 stayed idle for more than 100000 polls".into())
            }
            Failure::Operator => NebulaError::Eval(format!("trip: refused {POISON}")),
            Failure::OperatorPanic => {
                NebulaError::Eval(format!("task panicked: explode: refused {POISON}"))
            }
            Failure::SinkConsume(k) => NebulaError::Io(format!("sink refused call {k}")),
            Failure::SinkPanic(k) => {
                NebulaError::Eval(format!("task panicked: sink exploded at call {k}"))
            }
            Failure::SinkFinish => NebulaError::Io("sink failed to finish".into()),
        }
    }

    /// The registry function this failure puts in the plan's filter.
    fn operator(self) -> Option<&'static str> {
        match self {
            Failure::Operator => Some("trip"),
            Failure::OperatorPanic => Some("explode"),
            _ => None,
        }
    }
}

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("k", DataType::Int),
        ("v", DataType::Int),
    ])
}

fn records() -> Vec<Record> {
    (0..RECORDS)
        .map(|i| {
            Record::new(vec![
                Value::Timestamp(i * MICROS_PER_SEC),
                Value::Int(i % 4),
                Value::Int(i),
            ])
        })
        .collect()
}

/// A `VecSource` that plays `failure` when it is a source failure.
struct FailingSource {
    inner: VecSource,
    polls: usize,
    failure: Option<Failure>,
}

impl Source for FailingSource {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        self.polls += 1;
        match self.failure {
            Some(Failure::SourcePoll(k)) if k == self.polls => {
                return Err(Failure::SourcePoll(k).error())
            }
            Some(Failure::SourceIdle) => return Ok(SourceBatch::Idle),
            _ => {}
        }
        self.inner.poll(max)
    }
}

#[derive(Default)]
struct FailingSink {
    calls: usize,
    fail_at: Option<usize>,
    panic_at: Option<usize>,
    fail_finish: bool,
}

impl Sink for FailingSink {
    fn consume(&mut self, _buf: &RecordBuffer) -> Result<()> {
        self.calls += 1;
        if Some(self.calls) == self.fail_at {
            return Err(Failure::SinkConsume(self.calls).error());
        }
        if Some(self.calls) == self.panic_at {
            panic!("sink exploded at call {}", self.calls);
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        if self.fail_finish {
            return Err(Failure::SinkFinish.error());
        }
        Ok(())
    }
}

/// One train, small buffers and two-frame channels: over a thousand
/// batches, every hop at its backpressure cap when the failure strikes.
/// The source plays `failure` if it is one of its own.
fn env(failure: Option<Failure>) -> ClusterEnvironment {
    env_polling(failure, 16)
}

/// [`env`] with `buffer_size` records per source poll.
fn env_polling(failure: Option<Failure>, buffer_size: usize) -> ClusterEnvironment {
    let (topo, sensors) = Topology::train_fleet(1);
    let mut env = ClusterEnvironment::with_config(
        topo,
        ClusterConfig {
            buffer_size,
            watermark_every: 2,
            channel_capacity: 2,
            ..ClusterConfig::default()
        },
    );
    env.registry_mut()
        .register(ClosureFunction::new(
            "trip",
            1,
            DataType::Int,
            |args| match &args[0] {
                Value::Int(v) if *v == POISON => Err(Failure::Operator.error()),
                other => Ok(other.clone()),
            },
        ))
        .expect("trip registers once");
    env.registry_mut()
        .register(ClosureFunction::new(
            "explode",
            1,
            DataType::Int,
            |args| match &args[0] {
                Value::Int(v) if *v == POISON => panic!("explode: refused {POISON}"),
                other => Ok(other.clone()),
            },
        ))
        .expect("explode registers once");
    env.add_source(
        "s",
        sensors[0],
        Box::new(FailingSource {
            inner: VecSource::new(schema(), records()),
            polls: 0,
            failure,
        }),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    env
}

/// `trip` names the failing function to route one column through;
/// without one the plan cannot fail by itself. The window plan trips
/// *behind* the window, on the one output row whose minimum is
/// `POISON`.
fn query(plan: Plan, trip: Option<&str>) -> Query {
    let through = |column: &str| match trip {
        Some(f) => call(f, vec![col(column)]),
        None => col(column),
    };
    match plan {
        Plan::Stateless => Query::from("s")
            .filter(through("v").ge(lit(0i64)))
            .map_extend(vec![("double", col("v").mul(lit(2i64)))]),
        Plan::KeyedWindow => Query::from("s")
            .window(
                vec![("k", col("k"))],
                WindowSpec::Tumbling {
                    size: 10 * MICROS_PER_SEC,
                },
                vec![
                    WindowAgg::new("n", AggSpec::Count),
                    WindowAgg::new("lo", AggSpec::Min(col("v"))),
                ],
            )
            .filter(through("lo").ge(lit(0i64))),
    }
}

fn run_in(
    entry: Entry,
    strategy: PlacementStrategy,
    q: &Query,
    failure: Option<Failure>,
    sink: &mut dyn Sink,
) -> Result<ClusterReport> {
    let mut env = env(failure);
    match entry {
        Entry::Placed => env.run_placed(q, strategy, sink),
        Entry::ChaosNoFaults => env.run_placed_chaos(q, strategy, &FaultPlan::seeded(1), sink),
    }
}

/// Runs `f` on its own thread; a result that does not arrive within
/// the deadline is a hang and fails the cell.
fn within_deadline<T: Send + 'static>(cell: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(DEADLINE) {
        Ok(result) => result,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{cell}: hung for {DEADLINE:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{cell}: the run panicked"),
    }
}

#[test]
fn every_failure_returns_its_typed_error_in_every_cell() {
    let failures = [
        Failure::SourcePoll(1),
        Failure::SourcePoll(300),
        Failure::SourceIdle,
        Failure::Operator,
        Failure::OperatorPanic,
        Failure::SinkConsume(3),
        Failure::SinkPanic(3),
        Failure::SinkFinish,
    ];
    for entry in [Entry::Placed, Entry::ChaosNoFaults] {
        for strategy in STRATEGIES {
            for plan in [Plan::Stateless, Plan::KeyedWindow] {
                for failure in failures {
                    let cell = format!("{entry:?} x {strategy:?} x {plan:?} x {failure:?}");
                    let result = within_deadline(&cell, move || {
                        let mut sink = FailingSink {
                            fail_at: match failure {
                                Failure::SinkConsume(k) => Some(k),
                                _ => None,
                            },
                            panic_at: match failure {
                                Failure::SinkPanic(k) => Some(k),
                                _ => None,
                            },
                            fail_finish: matches!(failure, Failure::SinkFinish),
                            ..FailingSink::default()
                        };
                        let q = query(plan, failure.operator());
                        run_in(entry, strategy, &q, Some(failure), &mut sink)
                            .map(|report| report.metrics)
                    });
                    assert_eq!(result.err(), Some(failure.error()), "{cell}");
                }
            }
        }
    }
}

#[test]
fn healthy_run_of_the_same_table_succeeds() {
    // The control row: with nothing failing, every cell completes,
    // conserves its input and hands the sink what it reports — the
    // errors above come from the injected faults, not from the harness.
    for entry in [Entry::Placed, Entry::ChaosNoFaults] {
        for strategy in STRATEGIES {
            for plan in [Plan::Stateless, Plan::KeyedWindow] {
                let cell = format!("{entry:?} x {strategy:?} x {plan:?}");
                let (calls, m) = within_deadline(&cell, move || {
                    let mut sink = FailingSink::default();
                    let report = run_in(entry, strategy, &query(plan, None), None, &mut sink);
                    (sink.calls, report.map(|report| report.metrics))
                });
                let m = m.unwrap_or_else(|e| panic!("{cell}: {e}"));
                assert_eq!(m.records_in, RECORDS as u64, "{cell}");
                assert_eq!(m.late_drops, 0, "{cell}");
                assert!(m.records_out > 0, "{cell}");
                assert!(calls > 3, "{cell}: only {calls} deliveries");
            }
        }
    }
}

#[test]
fn zero_buffer_size_reads_as_one_when_placed() {
    // Stage 0 polls through the same source stage as the local
    // executor: `buffer_size: 0` runs as 1 instead of spinning on empty
    // batches.
    for strategy in STRATEGIES {
        for plan in [Plan::Stateless, Plan::KeyedWindow] {
            let cell = format!("{strategy:?} x {plan:?} x buffer_size 0");
            let m = within_deadline(&cell, move || {
                let mut sink = FailingSink::default();
                env_polling(None, 0)
                    .run_placed(&query(plan, None), strategy, &mut sink)
                    .map(|report| report.metrics)
            })
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(m.records_in, RECORDS as u64, "{cell}");
            assert_eq!(m.late_drops, 0, "{cell}");
        }
    }
}
