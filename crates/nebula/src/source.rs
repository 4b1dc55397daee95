//! Stream sources: batch-polling producers, fault-injection wrappers
//! (out-of-order jitter, connectivity gaps) for testing edge conditions,
//! and the `SourceDriver` — the source stage every executor, local
//! and cluster, polls through.

use crate::buffer::{BufferMeta, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::ops::Operator;
use crate::record::{Record, RecordBuffer, StreamMessage};
use crate::runtime::ColumnarMode;
use crate::schema::{ReadSet, SchemaRef};
use crate::value::{DataType, DurationUs, EventTime, Value};
use std::collections::VecDeque;
use std::io::BufRead;
use std::path::Path;

/// What a poll produced: rows from [`Source::poll`], one columnar
/// [`TupleBuffer`] from [`Source::poll_columnar`].
#[derive(Debug)]
pub enum SourceBatch<T = Vec<Record>> {
    /// Records ready for processing.
    Data(T),
    /// Nothing right now, but the stream is alive.
    Idle,
    /// The stream has ended.
    Exhausted,
}

impl<T> SourceBatch<T> {
    /// Converts the data of a `Data` batch; `Idle` and `Exhausted` pass
    /// through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SourceBatch<U> {
        match self {
            SourceBatch::Data(data) => SourceBatch::Data(f(data)),
            SourceBatch::Idle => SourceBatch::Idle,
            SourceBatch::Exhausted => SourceBatch::Exhausted,
        }
    }
}

/// A pollable record producer.
pub trait Source: Send {
    /// The schema of produced records.
    fn schema(&self) -> SchemaRef;
    /// Produces up to `max` records.
    fn poll(&mut self, max: usize) -> Result<SourceBatch>;
    /// Produces up to `max` records as one columnar buffer — what the
    /// executors poll when the chain's columnar gate is open. `reads` is
    /// the plan's read set over [`Source::schema`]: only those fields
    /// must be built, every other one may be [`Column::Absent`]
    /// (nothing downstream reads it). The default transposes
    /// [`Source::poll`]'s rows with [`TupleBuffer::transpose`], building
    /// exactly the read fields. Override it when the source can build
    /// the columns more cheaply than from its own rows — it holds or
    /// decodes its data column-wise, can skip the dead fields before
    /// parsing them, or reorders records it has already polled
    /// ([`JitterSource`]) — yielding the same records in the same order
    /// as `poll` would. An override may build more than `reads` (a
    /// field it cannot skip), never less. The executor stamps the
    /// buffer's [`BufferMeta`], so an override may leave it default.
    ///
    /// [`Column::Absent`]: crate::buffer::Column::Absent
    fn poll_columnar(&mut self, max: usize, reads: &ReadSet) -> Result<SourceBatch<TupleBuffer>> {
        let schema = self.schema();
        Ok(self
            .poll(max)?
            .map(|recs| TupleBuffer::transpose(schema, recs, reads)))
    }
    /// Repositions the stream at data batch `to_batch`, if the source
    /// supports replay. Returns `false` (the default) when it cannot;
    /// [`ReplaySource`] overrides this for the cluster runtime's crash
    /// recovery.
    fn rewind(&mut self, to_batch: usize) -> bool {
        let _ = to_batch;
        false
    }
}

/// How the runtime derives watermarks from a source.
#[derive(Debug, Clone)]
pub enum WatermarkStrategy {
    /// No watermarks (windows only close at end-of-stream).
    None,
    /// `watermark = max(event time seen) − slack`; the standard bounded
    /// out-of-orderness model.
    BoundedOutOfOrder {
        /// Event-time field name.
        ts_field: String,
        /// Allowed lateness in µs.
        slack: DurationUs,
    },
}

/// An in-memory source over a prepared record vector.
pub struct VecSource {
    schema: SchemaRef,
    records: VecDeque<Record>,
}

impl VecSource {
    /// Builds a source that replays `records` once.
    pub fn new(schema: SchemaRef, records: Vec<Record>) -> Self {
        VecSource {
            schema,
            records: records.into(),
        }
    }
}

impl Source for VecSource {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        if self.records.is_empty() {
            return Ok(SourceBatch::Exhausted);
        }
        let n = max.min(self.records.len());
        Ok(SourceBatch::Data(self.records.drain(..n).collect()))
    }

    /// Drains the queue straight into the columns: each record is
    /// transposed and dropped in turn, with no batch of rows between.
    fn poll_columnar(&mut self, max: usize, reads: &ReadSet) -> Result<SourceBatch<TupleBuffer>> {
        if self.records.is_empty() {
            return Ok(SourceBatch::Exhausted);
        }
        let n = max.min(self.records.len());
        let drained = self.records.drain(..n);
        Ok(SourceBatch::Data(TupleBuffer::transpose(
            self.schema.clone(),
            drained,
            reads,
        )))
    }
}

/// A source producing records from a closure, up to a count.
pub struct GeneratorSource<F: FnMut(u64) -> Record + Send> {
    schema: SchemaRef,
    next: u64,
    count: u64,
    gen: F,
}

impl<F: FnMut(u64) -> Record + Send> GeneratorSource<F> {
    /// Builds a generator emitting `count` records via `gen(i)`.
    pub fn new(schema: SchemaRef, count: u64, gen: F) -> Self {
        GeneratorSource {
            schema,
            next: 0,
            count,
            gen,
        }
    }
}

impl<F: FnMut(u64) -> Record + Send> Source for GeneratorSource<F> {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        if self.next >= self.count {
            return Ok(SourceBatch::Exhausted);
        }
        let n = (max as u64).min(self.count - self.next);
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push((self.gen)(self.next));
            self.next += 1;
        }
        Ok(SourceBatch::Data(out))
    }
}

/// A CSV file source. Values are parsed per the schema's field types;
/// timestamps accept integer epoch-µs. Points are encoded as two columns
/// `<name>_x,<name>_y` is *not* assumed — a point field parses `"x;y"`.
pub struct CsvSource {
    schema: SchemaRef,
    lines: std::io::Lines<std::io::BufReader<std::fs::File>>,
    line_no: usize,
}

impl CsvSource {
    /// Opens `path`, skipping a header row when `has_header`.
    pub fn open(schema: SchemaRef, path: impl AsRef<Path>, has_header: bool) -> Result<Self> {
        let file = std::fs::File::open(path.as_ref())?;
        let mut lines = std::io::BufReader::new(file).lines();
        if has_header {
            let _ = lines.next().transpose()?;
        }
        Ok(CsvSource {
            schema,
            lines,
            line_no: 0,
        })
    }

    fn parse_line(&self, line: &str) -> Result<Record> {
        let fields = self.schema.fields();
        let mut values = Vec::with_capacity(fields.len());
        let mut cols = line.split(',');
        for f in fields {
            let raw = cols.next().ok_or_else(|| {
                NebulaError::Io(format!(
                    "csv line {}: missing column '{}'",
                    self.line_no, f.name
                ))
            })?;
            let raw = raw.trim();
            let bad = || {
                NebulaError::Io(format!(
                    "csv line {}: cannot parse '{}' as {} for '{}'",
                    self.line_no, raw, f.dtype, f.name
                ))
            };
            let v = if raw.is_empty() {
                Value::Null
            } else {
                match f.dtype {
                    DataType::Bool => match raw {
                        "true" | "t" | "1" => Value::Bool(true),
                        "false" | "f" | "0" => Value::Bool(false),
                        _ => return Err(bad()),
                    },
                    DataType::Int => Value::Int(raw.parse().map_err(|_| bad())?),
                    DataType::Float => Value::Float(raw.parse().map_err(|_| bad())?),
                    DataType::Timestamp => Value::Timestamp(raw.parse().map_err(|_| bad())?),
                    DataType::Text => Value::text(raw),
                    DataType::Point => {
                        let (x, y) = raw.split_once(';').ok_or_else(bad)?;
                        Value::Point {
                            x: x.trim().parse().map_err(|_| bad())?,
                            y: y.trim().parse().map_err(|_| bad())?,
                        }
                    }
                    DataType::Opaque | DataType::Null => Value::Null,
                }
            };
            values.push(v);
        }
        Ok(Record::new(values))
    }
}

impl Source for CsvSource {
    fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        let mut out = Vec::with_capacity(max);
        for _ in 0..max {
            match self.lines.next() {
                Some(line) => {
                    self.line_no += 1;
                    let line = line?;
                    if line.trim().is_empty() {
                        continue;
                    }
                    out.push(self.parse_line(&line)?);
                }
                None => {
                    return Ok(if out.is_empty() {
                        SourceBatch::Exhausted
                    } else {
                        SourceBatch::Data(out)
                    });
                }
            }
        }
        Ok(SourceBatch::Data(out))
    }
}

/// Deterministic xorshift64* PRNG — keeps the engine free of external
/// randomness dependencies while making fault injection reproducible.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeds the generator (0 is remapped).
    pub fn new(seed: u64) -> Self {
        XorShift(if seed == 0 { 0x9E3779B97F4A7C15 } else { seed })
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    pub fn next_below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// Wraps a source, locally shuffling records within a bounded reorder
/// buffer to simulate out-of-order arrival. Each poll refills the
/// buffer to at least `max(window, max)` records (unless the inner
/// source is idle or ended), shuffles its first `window` records and
/// emits the first `max`; the rest stay queued. [`Source::poll`] queues
/// the inner source's rows; [`Source::poll_columnar`] appends its
/// columns (the read set's) to one buffer in arrival order, queues row
/// indices into it and gathers each emitted buffer by index, compacting
/// the buffer only once its emitted rows outnumber the queued ones. Both
/// draw the one permutation, so they emit the same records
/// in the same order, and switching between them mid-stream (the
/// cluster runtime decides the columnar gate per phase) carries the
/// queue over; rows taken from a columnar queue read a field outside
/// the read set as null.
pub struct JitterSource<S: Source> {
    inner: S,
    /// The queue as rows, when read through `poll`.
    rows: Vec<Record>,
    /// The rows read through `poll_columnar`, in arrival order, emitted
    /// ones included until the next compaction.
    columns: TupleBuffer,
    /// The queue as indices into `columns`; at most one of `rows` and
    /// `queue` holds records.
    queue: Vec<usize>,
    window: usize,
    rng: XorShift,
    inner_done: bool,
}

impl<S: Source> JitterSource<S> {
    /// Reorders within windows of `window` records, seeded for
    /// reproducibility.
    pub fn new(inner: S, window: usize, seed: u64) -> Self {
        JitterSource {
            columns: TupleBuffer::from_records(inner.schema(), &[], BufferMeta::default()),
            inner,
            rows: Vec::new(),
            queue: Vec::new(),
            window: window.max(2),
            rng: XorShift::new(seed),
            inner_done: false,
        }
    }

    /// The order in which to emit the `len` queued records:
    /// Fisher–Yates within the jitter window at the queue head.
    fn shuffled(&mut self, len: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..self.window.min(len)).rev() {
            order.swap(i, self.rng.next_below(i + 1));
        }
        order
    }

    /// Whether the queue needs another inner batch before a poll of
    /// `max` emits.
    fn wants(&self, queued: usize, max: usize) -> bool {
        !self.inner_done && queued < max.max(self.window)
    }

    /// What an empty queue answers.
    fn drained<T>(&self) -> SourceBatch<T> {
        if self.inner_done {
            SourceBatch::Exhausted
        } else {
            SourceBatch::Idle
        }
    }
}

impl<S: Source> Source for JitterSource<S> {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        if !self.queue.is_empty() {
            let queued = self.columns.gather(&std::mem::take(&mut self.queue));
            self.rows = queued.to_rows_unread_as_null().into_records();
            self.columns = self.columns.gather(&[]);
        }
        while self.wants(self.rows.len(), max) {
            match self.inner.poll(max)? {
                SourceBatch::Data(mut recs) => self.rows.append(&mut recs),
                SourceBatch::Idle => break,
                SourceBatch::Exhausted => self.inner_done = true,
            }
        }
        if self.rows.is_empty() {
            return Ok(self.drained());
        }
        let order = self.shuffled(self.rows.len());
        let n = max.min(order.len());
        let mut queued = std::mem::take(&mut self.rows);
        let mut take = |&i: &usize| std::mem::take(&mut queued[i]);
        let out = order[..n].iter().map(&mut take).collect();
        self.rows = order[n..].iter().map(take).collect();
        Ok(SourceBatch::Data(out))
    }

    fn poll_columnar(&mut self, max: usize, reads: &ReadSet) -> Result<SourceBatch<TupleBuffer>> {
        if !self.rows.is_empty() {
            let rows = std::mem::take(&mut self.rows);
            self.queue = (0..rows.len()).collect();
            self.columns = TupleBuffer::transpose(self.schema(), rows, reads);
        }
        while self.wants(self.queue.len(), max) {
            match self.inner.poll_columnar(max, reads)? {
                SourceBatch::Data(tb) => {
                    self.queue
                        .extend(self.columns.len()..self.columns.len() + tb.len());
                    self.columns.append(&tb);
                }
                SourceBatch::Idle => break,
                SourceBatch::Exhausted => self.inner_done = true,
            }
        }
        if self.queue.is_empty() {
            return Ok(self.drained());
        }
        let order = self.shuffled(self.queue.len());
        let n = max.min(order.len());
        let emit: Vec<usize> = order[..n].iter().map(|&i| self.queue[i]).collect();
        self.queue = order[n..].iter().map(|&i| self.queue[i]).collect();
        let out = self.columns.gather(&emit);
        if self.columns.len() - self.queue.len() > self.queue.len() {
            self.columns = self.columns.gather(&self.queue);
            self.queue = (0..self.queue.len()).collect();
        }
        Ok(SourceBatch::Data(out))
    }
}

/// Wraps a source, periodically swallowing whole polls to simulate
/// connectivity gaps (the train entering a tunnel).
pub struct GapSource<S: Source> {
    inner: S,
    rng: XorShift,
    gap_probability: f64,
    dropped: u64,
}

impl<S: Source> GapSource<S> {
    /// Drops each polled batch with probability `gap_probability`.
    pub fn new(inner: S, gap_probability: f64, seed: u64) -> Self {
        GapSource {
            inner,
            rng: XorShift::new(seed),
            gap_probability: gap_probability.clamp(0.0, 1.0),
            dropped: 0,
        }
    }

    /// Records dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Swallows a data batch of `len(data)` records with probability
    /// `gap_probability`, answering `Idle` in its place.
    fn gap<T>(&mut self, batch: SourceBatch<T>, len: fn(&T) -> usize) -> SourceBatch<T> {
        match batch {
            SourceBatch::Data(data) if self.rng.next_f64() < self.gap_probability => {
                self.dropped += len(&data) as u64;
                SourceBatch::Idle
            }
            other => other,
        }
    }
}

impl<S: Source> Source for GapSource<S> {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        let batch = self.inner.poll(max)?;
        Ok(self.gap(batch, Vec::len))
    }

    fn poll_columnar(&mut self, max: usize, reads: &ReadSet) -> Result<SourceBatch<TupleBuffer>> {
        let batch = self.inner.poll_columnar(max, reads)?;
        Ok(self.gap(batch, TupleBuffer::len))
    }
}

/// Wraps a source, logging every emitted batch so the stream can be
/// rewound and replayed deterministically — the source-side half of the
/// cluster runtime's crash recovery. After a checkpoint restore,
/// [`ReplaySource::rewind_to`] repositions the cursor at the restored
/// batch count and subsequent polls re-emit the logged batches with
/// their original boundaries, reproducing the exact frame and watermark
/// cadence of the first run.
pub struct ReplaySource {
    inner: Box<dyn Source>,
    log: Vec<Vec<Record>>,
    cursor: usize,
    inner_exhausted: bool,
}

impl ReplaySource {
    /// Wraps `inner` with an initially empty replay log.
    pub fn new(inner: Box<dyn Source>) -> Self {
        ReplaySource {
            inner,
            log: Vec::new(),
            cursor: 0,
            inner_exhausted: false,
        }
    }

    /// Number of data batches emitted so far (the replay cursor).
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Repositions the stream at batch `cursor` (0 = start of stream).
    /// Only positions at or before the current one are meaningful.
    pub fn rewind_to(&mut self, cursor: usize) {
        self.cursor = cursor.min(self.log.len());
    }
}

impl Source for ReplaySource {
    fn schema(&self) -> SchemaRef {
        self.inner.schema()
    }

    fn rewind(&mut self, to_batch: usize) -> bool {
        self.rewind_to(to_batch);
        true
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        if self.cursor < self.log.len() {
            // Replaying: original batch boundaries, regardless of `max`.
            let batch = self.log[self.cursor].clone();
            self.cursor += 1;
            return Ok(SourceBatch::Data(batch));
        }
        if self.inner_exhausted {
            return Ok(SourceBatch::Exhausted);
        }
        match self.inner.poll(max)? {
            SourceBatch::Data(recs) => {
                self.log.push(recs.clone());
                self.cursor += 1;
                Ok(SourceBatch::Data(recs))
            }
            SourceBatch::Idle => Ok(SourceBatch::Idle),
            SourceBatch::Exhausted => {
                self.inner_exhausted = true;
                Ok(SourceBatch::Exhausted)
            }
        }
    }
}

/// One polled source batch as the [`SourceDriver`] yields it: the data
/// message plus the origin-relative sequence and punctuation stamps
/// that row messages cannot carry inline (columnar buffers also carry
/// them in their [`BufferMeta`]).
pub(crate) struct Stamped {
    pub(crate) msg: StreamMessage,
    pub(crate) sequence: u64,
    pub(crate) punctuation: Option<EventTime>,
}

/// The outcome of one [`SourceDriver::poll`].
pub(crate) enum Polled {
    Batch(Stamped),
    /// Nothing available right now; carries the count of consecutive
    /// idle polls so far.
    Idle(u64),
    /// The source is exhausted.
    End,
}

/// Consecutive idle polls after which [`SourceDriver::poll`] gives up on
/// a source that never becomes ready, failing the run instead of
/// hanging it.
const IDLE_LIMIT: u64 = 100_000;

/// The source stage of every executor, local and cluster: apart from
/// source wrappers, the only caller of [`Source::poll`] and [`Source::poll_columnar`].
/// Owns what turns a polled batch into stamped work — the batch
/// sequence, the origin's event-time clock, idle counting, and the
/// [`ColumnarMode`] gate decision that picks which of the two it polls.
pub(crate) struct SourceDriver {
    source: Box<dyn Source>,
    watermark: WatermarkStrategy,
    schema: SchemaRef,
    ts_col: Option<usize>,
    origin: u64,
    buffer_size: usize,
    watermark_every: u64,
    columnar: bool,
    /// What a columnar poll builds (see [`SourceDriver::gate`]).
    reads: ReadSet,
    /// Batches yielded so far — the sequence of the latest one.
    batches: u64,
    max_ts: EventTime,
    idle: u64,
}

impl SourceDriver {
    /// A `watermark_every` of 0 is read as 1: every batch punctuates. A
    /// `buffer_size` of 0 is read as 1: a poll for no records would
    /// yield an empty batch forever.
    pub(crate) fn new(
        source: Box<dyn Source>,
        watermark: WatermarkStrategy,
        ts_col: Option<usize>,
        origin: u64,
        buffer_size: usize,
        watermark_every: u64,
    ) -> Self {
        let schema = source.schema();
        SourceDriver {
            reads: ReadSet::all(schema.len()),
            schema,
            source,
            watermark,
            ts_col,
            origin,
            buffer_size: buffer_size.max(1),
            watermark_every: watermark_every.max(1),
            columnar: false,
            batches: 0,
            max_ts: EventTime::MIN,
            idle: 0,
        }
    }

    /// Decides whether to poll columnar [`TupleBuffer`]s
    /// ([`Source::poll_columnar`]) or rows for `ops`, the chain that
    /// consumes them, and what a columnar poll builds: `reads`, the
    /// plan's read set, plus the time column the watermark reads.
    pub(crate) fn gate(&mut self, mode: ColumnarMode, ops: &[Box<dyn Operator>], reads: ReadSet) {
        self.columnar = chain_wants_columnar(mode, ops);
        self.reads = reads;
        if let Some(col) = self.ts_col {
            self.reads.insert(col);
        }
    }

    pub(crate) fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    pub(crate) fn origin(&self) -> u64 {
        self.origin
    }

    /// The origin's event-time clock (checkpointed with the batch count).
    pub(crate) fn max_ts(&self) -> EventTime {
        self.max_ts
    }

    /// Resets the driver to a checkpointed cut and rewinds the source
    /// to it. False when the source cannot replay.
    pub(crate) fn restore(&mut self, batches: u64, max_ts: EventTime) -> bool {
        self.batches = batches;
        self.max_ts = max_ts;
        self.idle = 0;
        self.source.rewind(batches as usize)
    }

    /// Polls the source once. A source idle for more than
    /// [`IDLE_LIMIT`] consecutive polls fails with an `Io` error naming
    /// its origin: a stream cut short must not look like one that ended.
    pub(crate) fn poll(&mut self) -> Result<Polled> {
        let batch = if self.columnar {
            self.source
                .poll_columnar(self.buffer_size, &self.reads)?
                .map(StreamMessage::Columnar)
        } else {
            self.source
                .poll(self.buffer_size)?
                .map(|recs| StreamMessage::Data(RecordBuffer::new(self.schema.clone(), recs)))
        };
        Ok(match batch {
            SourceBatch::Data(msg) => {
                self.idle = 0;
                self.batches += 1;
                Polled::Batch(self.stamp(msg))
            }
            SourceBatch::Idle => {
                self.idle += 1;
                if self.idle > IDLE_LIMIT {
                    return Err(NebulaError::Io(format!(
                        "source of origin {} stayed idle for more than {IDLE_LIMIT} polls",
                        self.origin
                    )));
                }
                Polled::Idle(self.idle)
            }
            SourceBatch::Exhausted => Polled::End,
        })
    }

    /// Polls until a batch arrives (`None` at end of stream).
    pub(crate) fn next_batch(&mut self) -> Result<Option<Stamped>> {
        loop {
            match self.poll()? {
                Polled::Batch(b) => return Ok(Some(b)),
                Polled::Idle(_) => std::thread::yield_now(),
                Polled::End => return Ok(None),
            }
        }
    }

    /// Stamps one polled data message, columnar or rows: updates the
    /// origin's event-time clock and sets the punctuation — every
    /// `watermark_every`-th sequence under
    /// [`WatermarkStrategy::BoundedOutOfOrder`] promises
    /// `max_ts - slack`. Columnar buffers carry
    /// origin/sequence/time bounds/punctuation inline in their
    /// [`BufferMeta`] (the NebulaStream TupleBuffer header), which this
    /// overwrites whatever the source left there; for row buffers the
    /// stamps ride the [`Stamped`].
    fn stamp(&mut self, mut msg: StreamMessage) -> Stamped {
        let sequence = self.batches;
        let track_ts = matches!(self.watermark, WatermarkStrategy::BoundedOutOfOrder { .. });
        let max_ts = match &mut msg {
            StreamMessage::Columnar(tb) => {
                *tb.meta_mut() = BufferMeta {
                    origin: self.origin,
                    sequence,
                    ..BufferMeta::default()
                };
                if let Some(col) = self.ts_col {
                    tb.recompute_time_bounds(col);
                }
                tb.meta().max_ts
            }
            StreamMessage::Data(buf) if track_ts => {
                self.ts_col.and_then(|col| buf.max_event_time(col))
            }
            _ => None,
        };
        if let Some(t) = max_ts.filter(|_| track_ts) {
            self.max_ts = self.max_ts.max(t);
        }
        let punctuation = match &self.watermark {
            WatermarkStrategy::BoundedOutOfOrder { slack, .. }
                if sequence.is_multiple_of(self.watermark_every)
                    && self.max_ts != EventTime::MIN =>
            {
                Some(self.max_ts - *slack)
            }
            _ => None,
        };
        if let StreamMessage::Columnar(tb) = &mut msg {
            tb.meta_mut().watermark = punctuation;
        }
        Stamped {
            msg,
            sequence,
            punctuation,
        }
    }
}

/// The source-side gate for building [`TupleBuffer`]s. Columnar flow
/// ends at the first row-only operator (plugin operators — their
/// buffers materialize back to rows) and after the first operator that
/// emits rows (windows and CEP consume buffers but emit rows), so under
/// [`ColumnarMode::Auto`] the transpose is worth paying only if some
/// operator up to that point runs a vectorized kernel.
pub(crate) fn chain_wants_columnar(mode: ColumnarMode, ops: &[Box<dyn Operator>]) -> bool {
    match mode {
        ColumnarMode::Off => false,
        ColumnarMode::Force => ops.first().is_some_and(|op| op.supports_columnar()),
        ColumnarMode::Auto => {
            for op in ops {
                if !op.supports_columnar() {
                    return false;
                }
                if op.columnar_benefit() {
                    return true;
                }
                if !op.propagates_columnar() {
                    // Columnar flow ends here (e.g. a window emits row
                    // aggregates) and nothing so far wanted vectors.
                    return false;
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn schema() -> SchemaRef {
        Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Float)])
    }

    fn rec(ts: i64, v: f64) -> Record {
        Record::new(vec![Value::Timestamp(ts), Value::Float(v)])
    }

    #[test]
    fn vec_source_drains() {
        let mut s = VecSource::new(schema(), vec![rec(1, 0.0), rec(2, 0.0), rec(3, 0.0)]);
        match s.poll(2).unwrap() {
            SourceBatch::Data(d) => assert_eq!(d.len(), 2),
            other => panic!("{other:?}"),
        }
        match s.poll(2).unwrap() {
            SourceBatch::Data(d) => assert_eq!(d.len(), 1),
            other => panic!("{other:?}"),
        }
        assert!(matches!(s.poll(2).unwrap(), SourceBatch::Exhausted));
    }

    #[test]
    fn replay_source_rewinds_with_original_batch_boundaries() {
        let recs: Vec<Record> = (0..10).map(|i| rec(i, i as f64)).collect();
        let mut s = ReplaySource::new(Box::new(VecSource::new(schema(), recs.clone())));
        // First pass: batches of 3 (3, 3, 3, 1).
        let mut first = Vec::new();
        loop {
            match s.poll(3).unwrap() {
                SourceBatch::Data(d) => first.push(d),
                SourceBatch::Exhausted => break,
                SourceBatch::Idle => {}
            }
        }
        assert_eq!(first.len(), 4);
        assert_eq!(s.position(), 4);
        // Rewind to batch 1 and replay with a different max: boundaries
        // must match the first pass, not the new max.
        s.rewind_to(1);
        let mut replayed = Vec::new();
        loop {
            match s.poll(100).unwrap() {
                SourceBatch::Data(d) => replayed.push(d),
                SourceBatch::Exhausted => break,
                SourceBatch::Idle => {}
            }
        }
        assert_eq!(replayed, first[1..].to_vec());
        // Rewind to the very start reproduces the whole stream.
        s.rewind_to(0);
        let mut all = Vec::new();
        while let SourceBatch::Data(d) = s.poll(1).unwrap() {
            all.extend(d);
        }
        assert_eq!(all, recs);
    }

    #[test]
    fn generator_source_counts() {
        let mut s = GeneratorSource::new(schema(), 5, |i| rec(i as i64, i as f64));
        let mut total = 0;
        loop {
            match s.poll(3).unwrap() {
                SourceBatch::Data(d) => total += d.len(),
                SourceBatch::Exhausted => break,
                SourceBatch::Idle => {}
            }
        }
        assert_eq!(total, 5);
    }

    #[test]
    fn csv_source_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("nebula_csv_source_test.csv");
        std::fs::write(
            &path,
            "ts,v,name,pos\n1000,2.5,alpha,4.3;50.8\n2000,,beta,\n",
        )
        .unwrap();
        let schema = Schema::of(&[
            ("ts", DataType::Timestamp),
            ("v", DataType::Float),
            ("name", DataType::Text),
            ("pos", DataType::Point),
        ]);
        let mut s = CsvSource::open(schema, &path, true).unwrap();
        match s.poll(10).unwrap() {
            SourceBatch::Data(d) => {
                assert_eq!(d.len(), 2);
                assert_eq!(d[0].get(0), Some(&Value::Timestamp(1000)));
                assert_eq!(d[0].get(3), Some(&Value::Point { x: 4.3, y: 50.8 }));
                assert!(d[1].get(1).unwrap().is_null());
                assert!(d[1].get(3).unwrap().is_null());
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(s.poll(10).unwrap(), SourceBatch::Exhausted));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csv_source_reports_bad_rows() {
        let dir = std::env::temp_dir();
        let path = dir.join("nebula_csv_bad_test.csv");
        std::fs::write(&path, "1000,notafloat\n").unwrap();
        let mut s = CsvSource::open(schema(), &path, false).unwrap();
        assert!(s.poll(10).is_err());
        std::fs::remove_file(&path).ok();

        // BOOL accepts exactly true|t|1 and false|f|0; any other token is
        // an error naming its line and column, like every other type.
        let bools = Schema::of(&[("ts", DataType::Timestamp), ("ok", DataType::Bool)]);
        let path = dir.join("nebula_csv_bad_bool_test.csv");
        std::fs::write(&path, "1,true\n2,t\n3,1\n4,false\n5,f\n6,0\n").unwrap();
        let mut s = CsvSource::open(bools.clone(), &path, false).unwrap();
        match s.poll(10).unwrap() {
            SourceBatch::Data(d) => {
                let got: Vec<Value> = d.iter().map(|r| r.get(1).unwrap().clone()).collect();
                let want = [true, true, true, false, false, false].map(Value::Bool);
                assert_eq!(got, want);
            }
            other => panic!("{other:?}"),
        }
        for token in ["yes", "TRUE", "2"] {
            std::fs::write(&path, format!("1,true\n2,{token}\n")).unwrap();
            let mut s = CsvSource::open(bools.clone(), &path, false).unwrap();
            match s.poll(10) {
                Err(NebulaError::Io(msg)) => {
                    assert!(msg.contains("line 2"), "{token}: {msg}");
                    assert!(msg.contains("'ok'"), "{token}: {msg}");
                }
                other => panic!("{token}: {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn jitter_source_preserves_multiset() {
        let recs: Vec<Record> = (0..100).map(|i| rec(i, 0.0)).collect();
        let mut s = JitterSource::new(VecSource::new(schema(), recs), 8, 42);
        let mut seen = Vec::new();
        loop {
            match s.poll(16).unwrap() {
                SourceBatch::Data(d) => {
                    seen.extend(d.iter().map(|r| r.get(0).unwrap().as_timestamp().unwrap()))
                }
                SourceBatch::Exhausted => break,
                SourceBatch::Idle => {}
            }
        }
        assert_eq!(seen.len(), 100);
        let sorted = {
            let mut s2 = seen.clone();
            s2.sort_unstable();
            s2
        };
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(seen, sorted, "ordering was actually disturbed");
        // Bounded displacement: at most the jitter window.
        for (i, ts) in seen.iter().enumerate() {
            assert!((*ts - i as i64).unsigned_abs() <= 16, "at {i}: {ts}");
        }
    }

    #[test]
    fn gap_source_drops_batches() {
        let recs: Vec<Record> = (0..100).map(|i| rec(i, 0.0)).collect();
        let mut s = GapSource::new(VecSource::new(schema(), recs), 0.5, 7);
        let mut got = 0u64;
        loop {
            match s.poll(10).unwrap() {
                SourceBatch::Data(d) => got += d.len() as u64,
                SourceBatch::Exhausted => break,
                SourceBatch::Idle => {}
            }
        }
        assert_eq!(got + s.dropped(), 100);
        assert!(s.dropped() > 0, "seed 7 must drop something");
    }

    #[test]
    fn xorshift_deterministic() {
        let mut a = XorShift::new(123);
        let mut b = XorShift::new(123);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let f = a.next_f64();
        assert!((0.0..1.0).contains(&f));
        assert!(a.next_below(10) < 10);
    }
}
