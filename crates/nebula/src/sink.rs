//! Stream sinks: result collection and counting.

use crate::error::Result;
use crate::record::{Record, RecordBuffer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A consumer of result buffers.
///
/// Under [`crate::runtime::StreamEnvironment::run_partitioned`] the
/// sink may be called from a pool worker — whichever completed the step
/// that released the result — but never concurrently: one call at a
/// time, in dispatch order. [`Sink::finish`] runs on the caller.
pub trait Sink: Send {
    /// Consumes one buffer.
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()>;
    /// Consumes one columnar buffer. The default materializes rows and
    /// delegates to [`Sink::consume`]; counting-style sinks override to
    /// skip the conversion.
    fn consume_columnar(&mut self, buf: &crate::buffer::TupleBuffer) -> Result<()> {
        self.consume(&buf.to_record_buffer())
    }
    /// Called once after end-of-stream.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Shared handle to records gathered by a [`CollectingSink`].
#[derive(Debug, Clone, Default)]
pub struct Collected {
    inner: Arc<Mutex<Vec<Record>>>,
}

impl Collected {
    /// Snapshot of the collected records.
    pub fn records(&self) -> Vec<Record> {
        self.inner.lock().clone()
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True iff nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Collects all records into shared memory (tests, small result sets).
#[derive(Default)]
pub struct CollectingSink {
    handle: Collected,
}

impl CollectingSink {
    /// Builds a sink and its read handle.
    pub fn new() -> (Self, Collected) {
        let sink = CollectingSink::default();
        let h = sink.handle.clone();
        (sink, h)
    }
}

impl Sink for CollectingSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.handle.inner.lock().extend_from_slice(buf.records());
        Ok(())
    }
}

/// Shared counters exposed by a [`CountingSink`].
#[derive(Debug, Clone, Default)]
pub struct SinkCounters {
    records: Arc<AtomicU64>,
    bytes: Arc<AtomicU64>,
}

impl SinkCounters {
    /// Records consumed.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Estimated bytes consumed.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Counts records/bytes without retaining data (benchmark sink).
#[derive(Default)]
pub struct CountingSink {
    counters: SinkCounters,
}

impl CountingSink {
    /// Builds a sink and its counter handle.
    pub fn new() -> (Self, SinkCounters) {
        let sink = CountingSink::default();
        let c = sink.counters.clone();
        (sink, c)
    }
}

impl Sink for CountingSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.counters
            .records
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(buf.est_bytes() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn consume_columnar(&mut self, buf: &crate::buffer::TupleBuffer) -> Result<()> {
        self.counters
            .records
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(buf.est_bytes() as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// Sorts records into the canonical order (by their byte encoding — see
/// `ops::record_sort_key`). Executions that only differ in interleaving
/// (threaded, partitioned at any parallelism) produce identical record
/// multisets; normalizing both sides makes them comparable with `==`.
pub fn normalize_records(records: &mut [Record]) {
    records.sort_by_cached_key(crate::ops::record_sort_key);
}

/// Discards everything (pure pipeline-cost benchmarks).
#[derive(Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn consume(&mut self, _buf: &RecordBuffer) -> Result<()> {
        Ok(())
    }

    fn consume_columnar(&mut self, _buf: &crate::buffer::TupleBuffer) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn buf(vals: &[i64]) -> RecordBuffer {
        RecordBuffer::new(
            Schema::of(&[("v", DataType::Int)]),
            vals.iter()
                .map(|v| Record::new(vec![Value::Int(*v)]))
                .collect(),
        )
    }

    #[test]
    fn collecting_sink_gathers() {
        let (mut sink, handle) = CollectingSink::new();
        sink.consume(&buf(&[1, 2])).unwrap();
        sink.consume(&buf(&[3])).unwrap();
        assert_eq!(handle.len(), 3);
        assert_eq!(handle.records()[2].get(0), Some(&Value::Int(3)));
        assert!(!handle.is_empty());
    }

    #[test]
    fn counting_sink_counts() {
        let (mut sink, counters) = CountingSink::new();
        sink.consume(&buf(&[1, 2, 3])).unwrap();
        assert_eq!(counters.records(), 3);
        assert_eq!(counters.bytes(), 24);
    }

    #[test]
    fn null_sink_accepts() {
        let mut sink = NullSink;
        sink.consume(&buf(&[1])).unwrap();
        sink.finish().unwrap();
    }
}
