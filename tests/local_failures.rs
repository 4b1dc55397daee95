//! Failure surface of the one local executor, table-driven over its
//! three configurations: a failing `Source::poll`, operator,
//! `Sink::consume` or `Sink::finish` must come back as the typed error
//! it raised, a panicking operator or `Sink::consume` as the `Eval`
//! error carrying the panic message, and a source that never becomes
//! ready as the `Io` error naming its origin — in `run`, `run_threaded`
//! and `run_partitioned(1/2/4)`,
//! on a stateless plan (round-robin routing, single-owner ledger steps)
//! and a keyed-window plan (hash routing, multi-owner steps) — and a
//! rejected plan must leave the source registered, and `buffer_size: 0`
//! must run as 1 instead of polling for nothing forever. Every run
//! happens on
//! a spawned thread behind `recv_timeout`, so a hang (the
//! `run_threaded` × sink-error cell used to block forever: the producer
//! parked on the full channel while the scope waited to join it; the
//! `run_partitioned(1)` × panic cells did too: the one worker died
//! without raising the abort flag) fails the cell instead of stalling
//! the suite.

use nebula::prelude::*;
use std::sync::mpsc;
use std::time::Duration;

const DEADLINE: Duration = Duration::from_secs(30);
const RECORDS: i64 = 20_000;
/// The value `trip` refuses: far enough in that every queue is full.
const POISON: i64 = 3_000;

#[derive(Clone, Copy, Debug)]
enum Mode {
    Run,
    Threaded,
    Partitioned(usize),
}

const MODES: [Mode; 5] = [
    Mode::Run,
    Mode::Threaded,
    Mode::Partitioned(1),
    Mode::Partitioned(2),
    Mode::Partitioned(4),
];

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
    /// An operator's expression errs on the record carrying `POISON`.
    Operator,
    /// An operator's expression panics on the record carrying `POISON`.
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

/// Small buffers and a two-slot channel: thousands of batches, every
/// queue at its backpressure cap when the failure strikes. The source
/// plays `failure` if it is one of its own.
fn env(mode: Mode, failure: Option<Failure>) -> StreamEnvironment {
    env_polling(mode, failure, 16)
}

/// [`env`] with `buffer_size` records per source poll.
fn env_polling(mode: Mode, failure: Option<Failure>, buffer_size: usize) -> StreamEnvironment {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size,
        watermark_every: 2,
        channel_capacity: 2,
        parallelism: match mode {
            Mode::Partitioned(n) => n,
            _ => 1,
        },
        ..EnvConfig::default()
    });
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

/// `trip` names the failing function to put in the plan's filter;
/// without one the plan cannot fail by itself.
fn query(plan: Plan, trip: Option<&str>) -> Query {
    let v = match trip {
        Some(f) => call(f, vec![col("v")]),
        None => col("v"),
    };
    let q = Query::from("s").filter(v.ge(lit(0i64)));
    match plan {
        Plan::Stateless => q.map_extend(vec![("double", col("v").mul(lit(2i64)))]),
        Plan::KeyedWindow => q.window(
            vec![("k", col("k"))],
            WindowSpec::Tumbling {
                size: 10 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        ),
    }
}

fn run_in(
    mode: Mode,
    env: &mut StreamEnvironment,
    q: &Query,
    sink: &mut dyn Sink,
) -> Result<QueryMetrics> {
    match mode {
        Mode::Run => env.run(q, sink),
        Mode::Threaded => env.run_threaded(q, sink),
        Mode::Partitioned(_) => env.run_partitioned(q, sink),
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
fn every_failure_returns_its_typed_error_in_every_mode() {
    let failures = [
        Failure::SourcePoll(40),
        Failure::SourceIdle,
        Failure::Operator,
        Failure::OperatorPanic,
        Failure::SinkConsume(3),
        Failure::SinkPanic(3),
        Failure::SinkFinish,
    ];
    for mode in MODES {
        for plan in [Plan::Stateless, Plan::KeyedWindow] {
            for failure in failures {
                let cell = format!("{mode:?} x {plan:?} x {failure:?}");
                let (result, calls) = within_deadline(&cell, move || {
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
                    let result = run_in(mode, &mut env(mode, Some(failure)), &q, &mut sink);
                    (result, sink.calls)
                });
                assert_eq!(result.err(), Some(failure.error()), "{cell}");
                // Workers deliver concurrently, but a sink that failed
                // or panicked is never called again.
                if let Failure::SinkConsume(k) | Failure::SinkPanic(k) = failure {
                    assert_eq!(calls, k, "{cell}: sink calls");
                }
            }
        }
    }
}

#[test]
fn healthy_run_of_the_same_table_succeeds() {
    // The control row: with nothing failing, every cell completes and
    // conserves its input — the errors above come from the injected
    // faults, not from the harness.
    for mode in MODES {
        for plan in [Plan::Stateless, Plan::KeyedWindow] {
            let cell = format!("{mode:?} x {plan:?}");
            let m = within_deadline(&cell, move || {
                let mut sink = FailingSink::default();
                run_in(mode, &mut env(mode, None), &query(plan, None), &mut sink)
            })
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(m.records_in, RECORDS as u64, "{cell}");
            assert_eq!(m.late_drops, 0, "{cell}");
        }
    }
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
    for mode in MODES {
        let mut env = env(mode, None);
        for (i, bad) in rejected.iter().enumerate() {
            let mut sink = FailingSink::default();
            let err =
                run_in(mode, &mut env, bad, &mut sink).expect_err("a rejected plan must not run");
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
        let m = run_in(mode, &mut env, &query(Plan::Stateless, None), &mut sink)
            .unwrap_or_else(|e| panic!("{mode:?}: source lost to a rejected plan: {e}"));
        assert_eq!(m.records_in, RECORDS as u64, "{mode:?}");
    }
}

#[test]
fn zero_buffer_size_reads_as_one_in_every_mode() {
    // A poll for no records answers an empty batch, so `buffer_size: 0`
    // used to spin on empty batches and never end the run.
    for mode in MODES {
        for plan in [Plan::Stateless, Plan::KeyedWindow] {
            let cell = format!("{mode:?} x {plan:?} x buffer_size 0");
            let m = within_deadline(&cell, move || {
                let mut sink = FailingSink::default();
                let mut env = env_polling(mode, None, 0);
                run_in(mode, &mut env, &query(plan, None), &mut sink)
            })
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(m.records_in, RECORDS as u64, "{cell}");
            assert_eq!(m.late_drops, 0, "{cell}");
        }
    }
}
