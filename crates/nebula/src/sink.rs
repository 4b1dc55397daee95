//! Stream sinks: result collection, counting, CSV export and callbacks.

use crate::error::Result;
use crate::record::{Record, RecordBuffer};
use parking_lot::Mutex;
use std::io::Write;
use std::path::Path;
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

/// Writes records as CSV (header from the first buffer's schema).
pub struct CsvSink {
    writer: std::io::BufWriter<std::fs::File>,
    wrote_header: bool,
}

impl CsvSink {
    /// Creates/truncates `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::create(path.as_ref())?;
        Ok(CsvSink {
            writer: std::io::BufWriter::new(file),
            wrote_header: false,
        })
    }
}

impl Sink for CsvSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        if !self.wrote_header {
            let header: Vec<&str> = buf
                .schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect();
            writeln!(self.writer, "{}", header.join(","))?;
            self.wrote_header = true;
        }
        for rec in buf.records() {
            let row: Vec<String> = rec.values().iter().map(|v| v.to_string()).collect();
            writeln!(self.writer, "{}", row.join(","))?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<()> {
        self.writer.flush()?;
        Ok(())
    }
}

/// Invokes a callback per buffer (live dashboards, alert fan-out).
pub struct CallbackSink {
    f: Box<dyn FnMut(&RecordBuffer) + Send>,
}

impl CallbackSink {
    /// Builds a callback sink.
    pub fn new(f: impl FnMut(&RecordBuffer) + Send + 'static) -> Self {
        CallbackSink { f: Box::new(f) }
    }
}

impl Sink for CallbackSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        (self.f)(buf);
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
    fn csv_sink_writes() {
        let path = std::env::temp_dir().join("nebula_csv_sink_test.csv");
        {
            let mut sink = CsvSink::create(&path).unwrap();
            sink.consume(&buf(&[7, 8])).unwrap();
            sink.finish().unwrap();
        }
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "v\n7\n8\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn callback_sink_invokes() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let mut sink = CallbackSink::new(move |b| {
            seen2.fetch_add(b.len() as u64, Ordering::Relaxed);
        });
        sink.consume(&buf(&[1, 2, 3, 4])).unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn null_sink_accepts() {
        let mut sink = NullSink;
        sink.consume(&buf(&[1])).unwrap();
        sink.finish().unwrap();
    }
}
