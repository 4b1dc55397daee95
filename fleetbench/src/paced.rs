//! The open-loop half of the harness: a generator thread that releases
//! bursts on a fixed schedule, the source that hands each burst to the
//! engine once it is due, and the sink that times every result row from
//! the due instant of the event that completed it.
//!
//! Latency is timed from when a burst was *due*, not from when the
//! engine got round to polling it, so a stall charges every event
//! queued behind it. The generator runs ahead of the schedule and never
//! waits for the engine; how late it ran is reported separately.

use nebula::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bursts the generator stays ahead of the schedule: 8 bursts are about
/// 40 ms at the paced rate, far beyond a scheduler hiccup.
pub const LOOKAHEAD_BURSTS: usize = 8;

/// How long before a due instant the source stops sleeping and spins:
/// `thread::sleep` overshoots by tens of microseconds, a spin does not.
const SPIN: Duration = Duration::from_micros(150);

/// Burst length for a dataset with `events_per_tick` events per
/// timestamp: the largest whole number of ticks within one engine
/// buffer. Keeping a tick inside one burst makes "the last event at or
/// before a result's event time" fall in one well-defined burst.
pub fn burst_len(events_per_tick: usize, buffer_size: usize) -> usize {
    (buffer_size / events_per_tick).max(1) * events_per_tick
}

/// The fixed schedule of one paced run and the mapping from a result's
/// event time back to the instant its last contributing event was due.
#[derive(Debug)]
pub struct Schedule {
    t0: Instant,
    interval: Duration,
    /// `prefix_max[k]`: the largest event time in bursts `0..=k`.
    /// Non-decreasing whatever the order of the input.
    prefix_max: Vec<EventTime>,
}

impl Schedule {
    /// Burst `k` of `bursts` is due at `t0 + k · len / rate`, `len`
    /// being the length of the first burst.
    pub fn new(bursts: &[Vec<Record>], ts_col: usize, rate: f64, t0: Instant) -> Schedule {
        let len = bursts.first().map_or(0, Vec::len);
        let mut max = EventTime::MIN;
        let prefix_max = bursts
            .iter()
            .map(|burst| {
                for rec in burst {
                    if let Some(t) = rec.get(ts_col).and_then(Value::as_timestamp) {
                        max = max.max(t);
                    }
                }
                max
            })
            .collect();
        Schedule {
            t0,
            interval: Duration::from_secs_f64(len as f64 / rate),
            prefix_max,
        }
    }

    /// Number of bursts.
    pub fn len(&self) -> usize {
        self.prefix_max.len()
    }

    /// True iff the schedule holds no burst.
    pub fn is_empty(&self) -> bool {
        self.prefix_max.is_empty()
    }

    /// Time between two bursts.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// The instant burst `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.t0 + self.interval.mul_f64(k as f64)
    }

    /// The burst in which the generator's event-time clock reached
    /// `stamp`: the first whose prefix maximum is at or past it (the
    /// last burst for a stamp beyond the input, as the windows flushed
    /// at end of stream carry). For in-order input with whole ticks per
    /// burst this is the burst holding the last event at or before
    /// `stamp`; under disorder it stays monotone in `stamp` and never
    /// names a burst created after the result could have been emitted.
    pub fn burst_for(&self, stamp: EventTime) -> usize {
        self.prefix_max
            .partition_point(|m| *m < stamp)
            .min(self.len().saturating_sub(1))
    }

    /// [`Self::due`] of [`Self::burst_for`].
    pub fn due_for(&self, stamp: EventTime) -> Instant {
        self.due(self.burst_for(stamp))
    }
}

/// One burst on its way from the generator to the engine.
pub struct Burst {
    /// When it is due; its records count as created at this instant.
    pub due: Instant,
    /// The records.
    pub records: Vec<Record>,
}

/// Starts the generator thread. It releases burst `k`
/// [`LOOKAHEAD_BURSTS`] intervals before it is due, into an unbounded
/// queue, so a slow engine never slows it. The handle returns the
/// largest `release instant − due instant` seen (zero when the
/// generator was never late).
pub fn spawn_generator(
    bursts: Vec<Vec<Record>>,
    schedule: Arc<Schedule>,
) -> (Receiver<Burst>, JoinHandle<Duration>) {
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let lead = schedule.interval().mul_f64(LOOKAHEAD_BURSTS as f64);
        let mut late_max = Duration::ZERO;
        for (k, records) in bursts.into_iter().enumerate() {
            let due = schedule.due(k);
            if let Some(wait) = due
                .checked_sub(lead)
                .map(|release| release.saturating_duration_since(Instant::now()))
            {
                std::thread::sleep(wait);
            }
            if tx.send(Burst { due, records }).is_err() {
                break; // the run ended early; its error is reported there
            }
            late_max = late_max.max(Instant::now().saturating_duration_since(due));
        }
        late_max
    });
    (rx, handle)
}

/// What a [`PacedSource`] observed, readable after the engine consumed
/// the source.
#[derive(Debug, Default)]
pub struct PacedStats {
    lag_max_ns: AtomicU64,
    events: AtomicU64,
}

impl PacedStats {
    /// Largest `instant poll returned a burst − its due instant`.
    pub fn lag_max(&self) -> Duration {
        Duration::from_nanos(self.lag_max_ns.load(Ordering::Relaxed))
    }

    /// Events handed to the engine.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

/// Hands each burst to the engine once it is due. `poll` blocks (sleeps,
/// then spins the last 150 µs) and never returns `Idle`: the engine
/// busy-spins on `Idle` and abandons the stream after `idle_limit`
/// polls.
pub struct PacedSource {
    schema: SchemaRef,
    bursts: Receiver<Burst>,
    stats: Arc<PacedStats>,
}

impl PacedSource {
    /// A source over the generator's queue.
    pub fn new(schema: SchemaRef, bursts: Receiver<Burst>) -> (PacedSource, Arc<PacedStats>) {
        let stats = Arc::new(PacedStats::default());
        let source = PacedSource {
            schema,
            bursts,
            stats: stats.clone(),
        };
        (source, stats)
    }
}

fn wait_until(due: Instant) {
    loop {
        let left = due.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Source for PacedSource {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    /// Bursts are at most one engine buffer long, so `max` never splits
    /// one.
    fn poll(&mut self, _max: usize) -> Result<SourceBatch> {
        let Ok(burst) = self.bursts.recv() else {
            return Ok(SourceBatch::Exhausted);
        };
        wait_until(burst.due);
        let lag = Instant::now().saturating_duration_since(burst.due);
        // Statistics only: nothing is published through these.
        self.stats
            .lag_max_ns
            .fetch_max(lag.as_nanos() as u64, Ordering::Relaxed);
        self.stats
            .events
            .fetch_add(burst.records.len() as u64, Ordering::Relaxed);
        Ok(SourceBatch::Data(burst.records))
    }
}

/// The column whose event time stamps a result row: `window_end` when
/// the output schema has it, otherwise the row's last `Timestamp`
/// column (`ts` for the stateless queries, `match_end` for CEP).
pub fn stamp_column(schema: &Schema) -> Option<usize> {
    schema.index_of("window_end").or_else(|| {
        schema
            .fields()
            .iter()
            .rposition(|f| f.dtype == DataType::Timestamp)
    })
}

/// Stamps `Instant::now()` once per `consume` call and records, per row,
/// `emission instant − due instant of the burst in which the row's
/// event time was reached`, in milliseconds.
pub struct LatencySink {
    stamp_col: usize,
    schedule: Arc<Schedule>,
    /// One latency per stamped row, in arrival order.
    pub latencies_ms: Vec<f64>,
    /// Rows consumed, stamped or not.
    pub rows: u64,
}

impl LatencySink {
    /// A sink with room for `capacity` rows, so recording a latency
    /// does not reallocate inside the measured path.
    pub fn new(stamp_col: usize, schedule: Arc<Schedule>, capacity: usize) -> LatencySink {
        LatencySink {
            stamp_col,
            schedule,
            latencies_ms: Vec::with_capacity(capacity),
            rows: 0,
        }
    }
}

impl LatencySink {
    fn record(&mut self, emitted: Instant, stamp: Option<EventTime>) {
        if let Some(stamp) = stamp {
            let due = self.schedule.due_for(stamp);
            self.latencies_ms
                .push(emitted.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
    }
}

impl Sink for LatencySink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        let now = Instant::now();
        self.rows += buf.len() as u64;
        for rec in buf.records() {
            self.record(now, rec.get(self.stamp_col).and_then(Value::as_timestamp));
        }
        Ok(())
    }

    /// Reads the stamp column in place: materialising rows only to time
    /// them would charge the harness's own work to the engine.
    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        let now = Instant::now();
        self.rows += buf.len() as u64;
        for row in 0..buf.len() {
            self.record(now, buf.event_time(row, self.stamp_col));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{named_query, Dataset, DatasetKind, DEFAULT_SEED, QUERY_NAMES};

    fn schema() -> SchemaRef {
        Schema::of(&[("ts", DataType::Timestamp), ("k", DataType::Int)])
    }

    /// `n` bursts of `len` records; record `i` of the stream has event
    /// time `ts(i)` and carries `i`.
    fn bursts(n: usize, len: usize, ts: impl Fn(usize) -> i64) -> Vec<Vec<Record>> {
        (0..n)
            .map(|b| {
                (b * len..(b + 1) * len)
                    .map(|i| Record::new(vec![Value::Timestamp(ts(i)), Value::Int(i as i64)]))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bursts_hold_whole_ticks() {
        assert_eq!(burst_len(24, 1024), 1008);
        assert_eq!(burst_len(48, 1024), 1008);
        assert_eq!(burst_len(6, 1024), 1020);
        assert_eq!(burst_len(2000, 1024), 2000, "never an empty burst");
    }

    #[test]
    fn paced_source_never_idles_and_releases_in_order_never_early() {
        let data = bursts(12, 4, |i| i as i64);
        // 4 records every 2 ms.
        let schedule = Arc::new(Schedule::new(
            &data,
            0,
            2_000.0,
            Instant::now() + Duration::from_millis(30),
        ));
        let (queue, generator) = spawn_generator(data, schedule.clone());
        let (mut source, stats) = PacedSource::new(schema(), queue);
        let mut next = 0;
        for k in 0..12 {
            match source.poll(1024).expect("poll succeeds") {
                SourceBatch::Data(recs) => {
                    assert!(Instant::now() >= schedule.due(k), "burst {k} came early");
                    for rec in recs {
                        assert_eq!(rec.get(1).and_then(Value::as_int), Some(next));
                        next += 1;
                    }
                }
                other => panic!("burst {k}: {other:?}"),
            }
        }
        assert!(matches!(source.poll(1024), Ok(SourceBatch::Exhausted)));
        assert_eq!(stats.events(), 48);
        let late = generator.join().expect("generator ends");
        assert!(late < Duration::from_millis(30), "generator {late:?} late");
    }

    #[test]
    fn due_mapping_is_monotone_under_disorder() {
        // Event times jump back and forth by up to 7 around the index.
        let jitter = |i: usize| i as i64 + [0, 5, -7, 3, -2, 7, -5][i % 7];
        let data = bursts(20, 10, jitter);
        let schedule = Schedule::new(&data, 0, 1_000.0, Instant::now());
        assert_eq!(schedule.len(), 20);
        let mut last = 0;
        for stamp in -10..220 {
            let k = schedule.burst_for(stamp);
            assert!(k >= last, "burst_for({stamp}) went back");
            last = k;
            // The clock had not reached `stamp` in any earlier burst...
            let earlier = data[..k].iter().flatten();
            assert!(earlier
                .clone()
                .all(|r| r.get(0).and_then(Value::as_timestamp) < Some(stamp)));
            // ...and reaches it in burst k, unless it lies beyond the input.
            let reached = data[k]
                .iter()
                .any(|r| r.get(0).and_then(Value::as_timestamp) >= Some(stamp));
            assert!(reached || k == 19, "stamp {stamp} -> burst {k}");
            assert_eq!(schedule.due_for(stamp), schedule.due(k));
        }
        assert_eq!(schedule.burst_for(i64::MAX), 19);
        assert_eq!(schedule.burst_for(i64::MIN), 0);
    }

    #[test]
    fn in_order_ticks_map_to_the_burst_that_holds_them() {
        // 4 events per tick, 3 ticks per burst, ticks 250 apart.
        let data = bursts(5, 12, |i| (i / 4) as i64 * 250);
        let schedule = Schedule::new(&data, 0, 1_000.0, Instant::now());
        for tick in 0..15 {
            assert_eq!(schedule.burst_for(tick * 250), tick as usize / 3);
        }
    }

    #[test]
    fn stamp_column_of_each_named_query() {
        let ds = Dataset::with_minutes(DatasetKind::Fleet24, DEFAULT_SEED, 1);
        let registry = ds.registry().expect("plugins load");
        for name in QUERY_NAMES {
            let query = named_query(name).expect("named");
            let out = compile(&query, sncb::fleet_schema(), &registry)
                .expect("compiles")
                .output_schema;
            let col = stamp_column(&out).expect("every output has a timestamp");
            let expected = match name {
                "q1" | "q3" | "q4" => "ts",
                "q5" | "q8" => "match_end",
                _ => "window_end",
            };
            assert_eq!(out.fields()[col].name, expected, "{name}");
        }
        assert_eq!(stamp_column(&Schema::of(&[("v", DataType::Float)])), None);
    }

    #[test]
    fn latency_sink_times_rows_from_their_bursts_due_instant() {
        let data = bursts(4, 5, |i| i as i64 * 10);
        let t0 = Instant::now() - Duration::from_secs(1);
        // 5 records every 100 ms, all due in the past.
        let schedule = Arc::new(Schedule::new(&data, 0, 50.0, t0));
        let out = Schema::of(&[
            ("window_start", DataType::Timestamp),
            ("window_end", DataType::Timestamp),
        ]);
        let col = stamp_column(&out).expect("window_end");
        let mut sink = LatencySink::new(col, schedule, 8);
        let row = |end: Value| Record::new(vec![Value::Timestamp(0), end]);
        // window_end 60 is reached in burst 1 (event times 50..=90),
        // window_end 1000 lies beyond the input: the last burst.
        let rows = vec![
            row(Value::Timestamp(60)),
            row(Value::Timestamp(1_000)),
            row(Value::Null),
        ];
        let rows = RecordBuffer::new(out, rows);
        sink.consume(&rows).expect("consume");
        assert_eq!(sink.rows, 3);
        assert_eq!(sink.latencies_ms.len(), 2, "the null stamp is not sampled");
        // The columnar path samples the same rows.
        let columnar = TupleBuffer::from_record_buffer(&rows, None, 0, 1);
        sink.consume_columnar(&columnar).expect("consume_columnar");
        assert_eq!((sink.rows, sink.latencies_ms.len()), (6, 4));
        sink.latencies_ms.truncate(2);
        let since = |burst: u32| Instant::now() - (t0 + Duration::from_millis(100) * burst);
        for (latency, burst) in sink.latencies_ms.iter().zip([1, 3]) {
            let upper = since(burst).as_secs_f64() * 1e3;
            assert!(
                *latency <= upper && *latency > upper - 50.0,
                "{latency} vs {upper}"
            );
        }
    }
}
