//! The failure table over [`Entry`]: a failing `Source::poll`, operator,
//! `Sink::consume` or `Sink::finish` must come back as the typed error
//! it raised, a panicking operator or `Sink::consume` as the `Eval`
//! error carrying the panic message, and a source that never becomes
//! ready as the `Io` error naming its origin — in every entry point, on
//! a stateless plan and on a keyed window with the failing call before
//! and behind it.
//!
//! Small buffers and two-slot channels: over a thousand batches, every
//! queue at its backpressure cap when the failure strikes. Every run
//! happens on a spawned thread behind `recv_timeout`, so a hang (the
//! `run_threaded` × sink-error cell used to block forever: the producer
//! parked on the full channel while the scope waited to join it; the
//! `run_partitioned(1)` × panic cells did too: the one worker died
//! without raising the abort flag) fails the cell instead of stalling
//! the suite.

use super::matrix::{Entry, Group};
use super::*;
use std::sync::mpsc;
use std::time::Duration;

pub const DEADLINE: Duration = Duration::from_secs(30);
pub const RECORDS: i64 = 20_000;
/// The value `trip` refuses: far enough in that every queue is full.
const POISON: i64 = 3_000;

#[derive(Clone, Copy, Debug)]
pub enum Failure {
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

pub const FAILURES: [Failure; 9] = [
    Failure::SourcePoll(1),
    Failure::SourcePoll(40),
    Failure::SourcePoll(300),
    Failure::SourceIdle,
    Failure::Operator,
    Failure::OperatorPanic,
    Failure::SinkConsume(3),
    Failure::SinkPanic(3),
    Failure::SinkFinish,
];

impl Failure {
    pub fn error(self) -> NebulaError {
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

    /// The registry function this failure puts in the plan.
    fn operator(self) -> Option<&'static str> {
        match self {
            Failure::Operator => Some("trip"),
            Failure::OperatorPanic => Some("explode"),
            _ => None,
        }
    }
}

/// The plans of the failure table, over `(ts, k, v)`.
#[derive(Clone, Copy, Debug)]
pub enum FailPlan {
    /// A filter through the failing call, then a map.
    Stateless,
    /// A filter through the failing call ahead of a keyed window.
    TripThenWindow,
    /// A keyed window, then a filter through the failing call on the
    /// one output row whose minimum is `POISON`.
    WindowThenTrip,
}

pub const FAIL_PLANS: [FailPlan; 3] = [
    FailPlan::Stateless,
    FailPlan::TripThenWindow,
    FailPlan::WindowThenTrip,
];

impl FailPlan {
    /// `trip` names the failing function to route one column through;
    /// without one the plan cannot fail by itself.
    pub fn query(self, trip: Option<&str>) -> Query {
        let through = |column: &str| match trip {
            Some(f) => call(f, vec![col(column)]),
            None => col(column),
        };
        let window = |q: Query| {
            q.window(
                vec![("k", col("k"))],
                WindowSpec::Tumbling {
                    size: 10 * MICROS_PER_SEC,
                },
                vec![
                    WindowAgg::new("n", AggSpec::Count),
                    WindowAgg::new("lo", AggSpec::Min(col("v"))),
                ],
            )
        };
        let s = Query::from("s");
        match self {
            FailPlan::Stateless => s
                .filter(through("v").ge(lit(0i64)))
                .map_extend(vec![("double", col("v").mul(lit(2i64)))]),
            FailPlan::TripThenWindow => window(s.filter(through("v").ge(lit(0i64)))),
            FailPlan::WindowThenTrip => window(s).filter(through("lo").ge(lit(0i64))),
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

/// A `VecSource` of `RECORDS` rows that plays `failure` when it is a
/// source failure.
struct FailingSource {
    inner: VecSource,
    polls: usize,
    failure: Option<Failure>,
}

impl FailingSource {
    fn boxed(failure: Option<Failure>) -> Box<dyn Source> {
        let records = (0..RECORDS)
            .map(|i| {
                Record::new(vec![
                    Value::Timestamp(i * MICROS_PER_SEC),
                    Value::Int(i % 4),
                    Value::Int(i),
                ])
            })
            .collect();
        Box::new(FailingSource {
            inner: VecSource::new(schema(), records),
            polls: 0,
            failure,
        })
    }
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
pub struct FailingSink {
    pub calls: usize,
    fail_at: Option<usize>,
    panic_at: Option<usize>,
    fail_finish: bool,
}

impl FailingSink {
    /// A sink that plays `failure` when it is a sink failure.
    pub fn playing(failure: Option<Failure>) -> FailingSink {
        FailingSink {
            fail_at: match failure {
                Some(Failure::SinkConsume(k)) => Some(k),
                _ => None,
            },
            panic_at: match failure {
                Some(Failure::SinkPanic(k)) => Some(k),
                _ => None,
            },
            fail_finish: matches!(failure, Some(Failure::SinkFinish)),
            ..FailingSink::default()
        }
    }
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

/// `trip` errs and `explode` panics on `POISON`; both pass every other
/// value through.
fn register_failing_functions(reg: &mut FunctionRegistry) {
    reg.register(ClosureFunction::new(
        "trip",
        1,
        DataType::Int,
        |args| match &args[0] {
            Value::Int(v) if *v == POISON => Err(Failure::Operator.error()),
            other => Ok(other.clone()),
        },
    ))
    .expect("trip registers once");
    reg.register(ClosureFunction::new(
        "explode",
        1,
        DataType::Int,
        |args| match &args[0] {
            Value::Int(v) if *v == POISON => panic!("explode: refused {POISON}"),
            other => Ok(other.clone()),
        },
    ))
    .expect("explode registers once");
}

/// A local environment polling `buffer_size` records at a time from a
/// source that plays `failure` if it is one of its own.
pub fn local_env(failure: Option<Failure>, buffer_size: usize) -> StreamEnvironment {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size,
        watermark_every: 2,
        channel_capacity: 2,
        ..EnvConfig::default()
    });
    register_failing_functions(env.registry_mut());
    env.add_source("s", FailingSource::boxed(failure), bounded(5));
    env
}

/// One train, polling `buffer_size` records at a time from a source
/// that plays `failure` if it is one of its own.
fn cluster_env(failure: Option<Failure>, buffer_size: usize) -> (ClusterEnvironment, NodeId) {
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
    register_failing_functions(env.registry_mut());
    env.add_source("s", sensors[0], FailingSource::boxed(failure), bounded(5));
    (env, sensors[0])
}

/// Runs `query` through `entry` into `sink` over the failure table's
/// source, playing `failure`.
pub fn run_in(
    entry: Entry,
    query: &Query,
    failure: Option<Failure>,
    buffer_size: usize,
    sink: &mut dyn Sink,
) -> Result<QueryMetrics> {
    if entry.group() == Group::Local {
        entry.run_local(&mut local_env(failure, buffer_size), query, sink)
    } else {
        let (mut env, sensor) = cluster_env(failure, buffer_size);
        entry
            .run_placed(&mut env, sensor, query, sink)
            .map(|report| report.metrics)
    }
}

/// Runs `f` on its own thread; a result that does not arrive within
/// the deadline is a hang and fails the cell.
pub fn within_deadline<T: Send + 'static>(cell: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
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

/// Every failure × plan through each of `entries`: the typed error, and
/// a sink that failed or panicked is never called again.
pub fn assert_every_failure_is_typed(entries: &[Entry]) {
    for &entry in entries {
        for plan in FAIL_PLANS {
            for failure in FAILURES {
                let cell = format!("{entry:?} x {plan:?} x {failure:?}");
                let (result, calls) = within_deadline(&cell, move || {
                    let mut sink = FailingSink::playing(Some(failure));
                    let q = plan.query(failure.operator());
                    let result = run_in(entry, &q, Some(failure), 16, &mut sink);
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

/// The control row: with nothing failing, every cell completes,
/// conserves its input and hands the sink what it reports — the errors
/// of the table come from the injected faults, not from the harness.
/// At `buffer_size: 0` too, which reads as 1 instead of polling for
/// nothing forever.
pub fn assert_healthy(entries: &[Entry], buffer_size: usize) {
    for &entry in entries {
        for plan in FAIL_PLANS {
            let cell = format!("{entry:?} x {plan:?} x buffer_size {buffer_size}");
            let (calls, m) = within_deadline(&cell, move || {
                let mut sink = FailingSink::default();
                let m = run_in(entry, &plan.query(None), None, buffer_size, &mut sink);
                (sink.calls, m)
            });
            let m = m.unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(m.records_in, RECORDS as u64, "{cell}");
            assert_eq!(m.late_drops, 0, "{cell}");
            assert!(m.records_out > 0, "{cell}");
            assert!(calls > 3, "{cell}: only {calls} deliveries");
        }
    }
}
