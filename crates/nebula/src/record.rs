//! Records and buffer-batched record containers.
//!
//! NebulaStream processes *TupleBuffers* — fixed-capacity batches — rather
//! than record-at-a-time, which is where its edge efficiency comes from.
//! [`RecordBuffer`] is the analogue: a schema plus a batch of records,
//! recycled through the runtime's buffer pool.

use crate::buffer::TupleBuffer;
use crate::schema::SchemaRef;
use crate::value::{EventTime, Value};
use std::fmt;

/// One tuple.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Record {
    values: Vec<Value>,
}

impl Record {
    /// Builds a record from values (positionally matching a schema).
    pub fn new(values: Vec<Value>) -> Self {
        Record { values }
    }

    /// The values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Mutable value at position `idx`.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Value> {
        self.values.get_mut(idx)
    }

    /// Appends a value (schema evolution during projection).
    pub fn push(&mut self, v: Value) {
        self.values.push(v);
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True iff the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Estimated size in bytes (sum of field estimates).
    pub fn est_bytes(&self) -> usize {
        self.values.iter().map(Value::est_bytes).sum()
    }

    /// Consumes into the value vector.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }
}

impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// One row as per-row code reads it — expressions, group keys and
/// aggregates — whichever layout holds it: a [`Record`], or one row of
/// a column-major [`TupleBuffer`], read in place without building a
/// `Record`. A `&Record` converts into it, so a caller that holds one
/// passes it as is.
#[derive(Debug, Clone, Copy)]
pub enum Row<'a> {
    /// A boxed row.
    Record(&'a Record),
    /// Row `.1` of a columnar buffer.
    Buffer(&'a TupleBuffer, usize),
}

impl Row<'_> {
    /// Value of field `idx`, `None` when the row has no such field.
    pub fn get(self, idx: usize) -> Option<Value> {
        match self {
            Row::Record(r) => r.get(idx).cloned(),
            Row::Buffer(buf, row) => buf.value_at(row, idx),
        }
    }

    /// Number of fields.
    pub fn width(self) -> usize {
        match self {
            Row::Record(r) => r.len(),
            Row::Buffer(buf, _) => buf.columns().len(),
        }
    }
}

impl<'a> From<&'a Record> for Row<'a> {
    fn from(rec: &'a Record) -> Self {
        Row::Record(rec)
    }
}

/// A batch of records sharing a schema — the engine's unit of work.
#[derive(Debug, Clone)]
pub struct RecordBuffer {
    schema: SchemaRef,
    records: Vec<Record>,
}

impl RecordBuffer {
    /// Builds a buffer over `schema` holding `records`.
    pub fn new(schema: SchemaRef, records: Vec<Record>) -> Self {
        RecordBuffer { schema, records }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(schema: SchemaRef, cap: usize) -> Self {
        RecordBuffer {
            schema,
            records: Vec::with_capacity(cap),
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True iff no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record.
    pub fn push(&mut self, r: Record) {
        self.records.push(r);
    }

    /// Estimated payload size in bytes.
    pub fn est_bytes(&self) -> usize {
        self.records.iter().map(Record::est_bytes).sum()
    }

    /// Consumes into the record vector.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }

    /// Event time of a record given the timestamp column index.
    pub fn event_time(&self, record_idx: usize, ts_col: usize) -> Option<EventTime> {
        self.records
            .get(record_idx)
            .and_then(|r| r.get(ts_col))
            .and_then(Value::as_timestamp)
    }

    /// Maximum event time in the buffer for watermark generation.
    pub fn max_event_time(&self, ts_col: usize) -> Option<EventTime> {
        self.records
            .iter()
            .filter_map(|r| r.get(ts_col).and_then(Value::as_timestamp))
            .max()
    }
}

/// Messages flowing between operators: data (row- or column-oriented),
/// watermark advances, and end-of-stream.
#[derive(Debug, Clone)]
pub enum StreamMessage {
    /// A batch of records in row layout.
    Data(RecordBuffer),
    /// A batch in columnar layout (see [`TupleBuffer`]).
    Columnar(TupleBuffer),
    /// No record with event time `< wm` will arrive anymore.
    Watermark(EventTime),
    /// The stream has ended.
    Eos,
}

impl StreamMessage {
    /// Number of records carried by a data message (0 otherwise).
    pub fn record_count(&self) -> usize {
        match self {
            StreamMessage::Data(b) => b.len(),
            StreamMessage::Columnar(b) => b.len(),
            StreamMessage::Watermark(_) | StreamMessage::Eos => 0,
        }
    }

    /// Estimated payload bytes of a data message (0 otherwise). The
    /// columnar estimate equals the row estimate for the same rows, so
    /// byte-based metrics agree across both layouts.
    pub fn data_bytes(&self) -> usize {
        match self {
            StreamMessage::Data(b) => b.est_bytes(),
            StreamMessage::Columnar(b) => b.est_bytes(),
            StreamMessage::Watermark(_) | StreamMessage::Eos => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Float)])
    }

    fn rec(ts: i64, v: f64) -> Record {
        Record::new(vec![Value::Timestamp(ts), Value::Float(v)])
    }

    #[test]
    fn record_accessors() {
        let mut r = rec(5, 1.5);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(1), Some(&Value::Float(1.5)));
        assert!(r.get(9).is_none());
        *r.get_mut(1).unwrap() = Value::Float(2.0);
        assert_eq!(r.get(1), Some(&Value::Float(2.0)));
        r.push(Value::Bool(true));
        assert_eq!(r.len(), 3);
        assert_eq!(r.est_bytes(), 8 + 8 + 1);
        assert_eq!(r.to_string(), "[ts:5, 2, true]");
    }

    #[test]
    fn buffer_event_times() {
        let buf = RecordBuffer::new(schema(), vec![rec(10, 0.0), rec(30, 0.0), rec(20, 0.0)]);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.event_time(1, 0), Some(30));
        assert_eq!(buf.max_event_time(0), Some(30));
        assert_eq!(buf.est_bytes(), 3 * 16);
    }

    #[test]
    fn empty_buffer() {
        let buf = RecordBuffer::with_capacity(schema(), 16);
        assert!(buf.is_empty());
        assert_eq!(buf.max_event_time(0), None);
    }
}
