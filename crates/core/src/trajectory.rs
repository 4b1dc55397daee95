//! Streaming trajectory assembly and spatiotemporal imputation.
//!
//! Two plugin operators:
//!
//! - [`TrajectoryBuilderFactory`] — incrementally assembles per-key MEOS
//!   sequences from a GPS stream (via [`meos::agg::SequenceBuilder`]),
//!   emitting a trajectory record whenever a sequence closes (gap split,
//!   length cap, end of stream).
//! - [`ImputationFactory`] — the paper's "real-time spatiotemporal
//!   imputation": reorders records within the watermark horizon and fills
//!   sampling gaps with linearly interpolated positions.

use crate::values::{as_point, tpoint_value};
use meos::agg::{PushResult, SequenceBuilder};
use meos::geo::{Metric, Point};
use meos::temporal::{Interp, TSequence, Temporal};
use meos::time::{TimeDelta, TimestampTz};
use nebula::prelude::{
    DataType, Field, FunctionRegistry, NebulaError, Operator, OperatorFactory, Record,
    RecordBuffer, Schema, SchemaRef, StreamMessage, Value,
};
use std::collections::HashMap;

/// Factory for the per-key trajectory builder.
pub struct TrajectoryBuilderFactory {
    /// Key column (e.g. `train_id`, must be INT).
    pub key_field: String,
    /// Position column.
    pub pos_field: String,
    /// Event-time column.
    pub ts_field: String,
    /// Split sequences when consecutive fixes are further apart (µs).
    pub max_gap_us: i64,
    /// Close and emit a sequence after this many fixes.
    pub max_instants: usize,
}

impl TrajectoryBuilderFactory {
    /// Standard fleet configuration: 60 s gap split, 512-fix sequences.
    pub fn standard() -> Self {
        TrajectoryBuilderFactory {
            key_field: "train_id".into(),
            pos_field: "pos".into(),
            ts_field: "ts".into(),
            max_gap_us: 60_000_000,
            max_instants: 512,
        }
    }
}

impl OperatorFactory for TrajectoryBuilderFactory {
    fn name(&self) -> &str {
        "trajectory_builder"
    }

    fn create(
        &self,
        input: SchemaRef,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Operator>> {
        let resolve = |f: &str| match (input.index_of(f), input.field(f)) {
            (Some(idx), Some(field)) => Ok((idx, field.dtype)),
            _ => Err(NebulaError::Plan(format!(
                "trajectory_builder: unknown field '{f}'"
            ))),
        };
        let (key_col, key_type) = resolve(&self.key_field)?;
        let (pos_col, _) = resolve(&self.pos_field)?;
        let (ts_col, _) = resolve(&self.ts_field)?;
        let output = Schema::new(vec![
            Field::new(self.key_field.clone(), key_type),
            Field::new("ts", DataType::Timestamp),
            Field::new("trajectory", DataType::Opaque),
            Field::new("length_m", DataType::Float),
            Field::new("num_points", DataType::Int),
        ]);
        Ok(Box::new(TrajectoryBuilderOp {
            key_col,
            pos_col,
            ts_col,
            max_gap: TimeDelta::from_micros(self.max_gap_us),
            max_instants: self.max_instants,
            output,
            builders: HashMap::new(),
        }))
    }
}

#[derive(Clone)]
struct TrajectoryBuilderOp {
    key_col: usize,
    pos_col: usize,
    ts_col: usize,
    max_gap: TimeDelta,
    max_instants: usize,
    output: SchemaRef,
    builders: HashMap<i64, (Value, SequenceBuilder<Point>)>,
}

impl TrajectoryBuilderOp {
    fn emit(&self, key: &Value, seq: TSequence<Point>) -> Record {
        let length = meos::tpoint::length_with(&seq, Metric::Haversine);
        let end = seq.end_timestamp().micros();
        let n = seq.num_instants() as i64;
        Record::new(vec![
            key.clone(),
            Value::Timestamp(end),
            tpoint_value(Temporal::Sequence(seq)),
            Value::Float(length),
            Value::Int(n),
        ])
    }
}

impl Operator for TrajectoryBuilderOp {
    fn name(&self) -> &str {
        "trajectory_builder"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        let mut emitted = Vec::new();
        for rec in buf.records() {
            let key_val = rec.get(self.key_col).cloned().unwrap_or(Value::Null);
            let key = key_val
                .as_int()
                .ok_or_else(|| NebulaError::Eval("trajectory_builder: non-int key".into()))?;
            let ts = rec
                .get(self.ts_col)
                .and_then(Value::as_timestamp)
                .ok_or_else(|| NebulaError::Eval("trajectory_builder: missing ts".into()))?;
            let pos = match rec.get(self.pos_col) {
                Some(v) if !v.is_null() => as_point(v)?,
                _ => continue,
            };
            let (stored_key, builder) = self.builders.entry(key).or_insert_with(|| {
                (
                    key_val.clone(),
                    SequenceBuilder::new(Interp::Linear)
                        .with_max_gap(self.max_gap)
                        .with_max_instants(self.max_instants),
                )
            });
            if let PushResult::Emitted(done) = builder.push(pos, TimestampTz::from_micros(ts)) {
                let key = stored_key.clone();
                emitted.push(self.emit(&key, done));
            }
        }
        if !emitted.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                emitted,
            )));
        }
        Ok(())
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        let mut emitted = Vec::new();
        let mut open: Vec<_> = self.builders.drain().collect();
        open.sort_unstable_by_key(|(k, _)| *k);
        for (_, (key, mut builder)) in open {
            if let Some(done) = builder.flush() {
                emitted.push(self.emit(&key, done));
            }
        }
        if !emitted.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                emitted,
            )));
        }
        out.push(StreamMessage::Eos);
        Ok(())
    }

    fn snapshot(&self) -> nebula::Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

/// Factory for the imputation operator.
pub struct ImputationFactory {
    /// Key column.
    pub key_field: String,
    /// Position column.
    pub pos_field: String,
    /// Event-time column.
    pub ts_field: String,
    /// Expected sampling interval (µs); gaps larger than this are filled.
    pub tick_us: i64,
    /// Gaps beyond this are treated as genuine interruptions and left
    /// unfilled (µs).
    pub max_fill_us: i64,
}

impl ImputationFactory {
    /// Standard fleet configuration: 1 s ticks, fill gaps up to 30 s.
    pub fn standard() -> Self {
        ImputationFactory {
            key_field: "train_id".into(),
            pos_field: "pos".into(),
            ts_field: "ts".into(),
            tick_us: 1_000_000,
            max_fill_us: 30_000_000,
        }
    }
}

impl OperatorFactory for ImputationFactory {
    fn name(&self) -> &str {
        "imputation"
    }

    fn create(
        &self,
        input: SchemaRef,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Operator>> {
        let resolve = |f: &str| {
            input
                .index_of(f)
                .ok_or_else(|| NebulaError::Plan(format!("imputation: unknown field '{f}'")))
        };
        let key_col = resolve(&self.key_field)?;
        let pos_col = resolve(&self.pos_field)?;
        let ts_col = resolve(&self.ts_field)?;
        if self.tick_us <= 0 || self.max_fill_us < self.tick_us {
            return Err(NebulaError::Plan(
                "imputation: tick must be positive and <= max_fill".into(),
            ));
        }
        let output = input.extend(vec![Field::new("imputed", DataType::Bool)]);
        Ok(Box::new(ImputationOp {
            key_col,
            pos_col,
            ts_col,
            tick_us: self.tick_us,
            max_fill_us: self.max_fill_us,
            output,
            pending: HashMap::new(),
            last_emitted: HashMap::new(),
        }))
    }
}

/// Buffers records per key until the watermark passes them, then emits
/// them in event-time order with gap-filling synthetic records (marked
/// `imputed = true`; non-interpolatable fields copy the predecessor).
#[derive(Clone)]
struct ImputationOp {
    key_col: usize,
    pos_col: usize,
    ts_col: usize,
    tick_us: i64,
    max_fill_us: i64,
    output: SchemaRef,
    pending: HashMap<i64, Vec<Record>>,
    /// Last emitted record per key (interpolation anchor).
    last_emitted: HashMap<i64, Record>,
}

impl ImputationOp {
    fn interpolate(&self, a: &Record, b: &Record, out: &mut Vec<Record>) {
        let (Some(ta), Some(tb)) = (
            a.get(self.ts_col).and_then(Value::as_timestamp),
            b.get(self.ts_col).and_then(Value::as_timestamp),
        ) else {
            return;
        };
        let gap = tb - ta;
        if gap <= self.tick_us || gap > self.max_fill_us {
            return;
        }
        let (Ok(pa), Ok(pb)) = (
            a.get(self.pos_col)
                .map(as_point)
                .unwrap_or_else(|| Err(NebulaError::Eval("no pos".into()))),
            b.get(self.pos_col)
                .map(as_point)
                .unwrap_or_else(|| Err(NebulaError::Eval("no pos".into()))),
        ) else {
            return;
        };
        let mut t = ta + self.tick_us;
        while t < tb {
            let frac = (t - ta) as f64 / gap as f64;
            let p = pa.lerp(&pb, frac);
            let mut values = a.values().to_vec();
            values[self.ts_col] = Value::Timestamp(t);
            values[self.pos_col] = Value::Point { x: p.x, y: p.y };
            values.push(Value::Bool(true));
            out.push(Record::new(values));
            t += self.tick_us;
        }
    }

    fn drain_up_to(&mut self, wm: i64, out: &mut Vec<StreamMessage>) {
        let mut emitted: Vec<Record> = Vec::new();
        let mut keys: Vec<i64> = self.pending.keys().copied().collect();
        keys.sort_unstable();
        for key in keys {
            let Some(buf) = self.pending.get_mut(&key) else {
                continue;
            };
            buf.sort_by_key(|r| {
                r.get(self.ts_col)
                    .and_then(Value::as_timestamp)
                    .unwrap_or(0)
            });
            let split = buf.partition_point(|r| {
                r.get(self.ts_col)
                    .and_then(Value::as_timestamp)
                    .unwrap_or(0)
                    <= wm
            });
            let ready: Vec<Record> = buf.drain(..split).collect();
            for rec in ready {
                if let Some(prev) = self.last_emitted.get(&key) {
                    let prev = prev.clone();
                    self.interpolate(&prev, &rec, &mut emitted);
                }
                let mut values = rec.values().to_vec();
                values.push(Value::Bool(false));
                emitted.push(Record::new(values));
                self.last_emitted.insert(key, rec);
            }
        }
        if !emitted.is_empty() {
            emitted.sort_by_key(|r| {
                r.get(self.ts_col)
                    .and_then(Value::as_timestamp)
                    .unwrap_or(0)
            });
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.output.clone(),
                emitted,
            )));
        }
    }
}

impl Operator for ImputationOp {
    fn name(&self) -> &str {
        "imputation"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, _out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        for rec in buf.into_records() {
            let key = rec
                .get(self.key_col)
                .and_then(Value::as_int)
                .ok_or_else(|| NebulaError::Eval("imputation: non-int key".into()))?;
            self.pending.entry(key).or_default().push(rec);
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: i64, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        self.drain_up_to(wm, out);
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        self.drain_up_to(i64::MAX, out);
        out.push(StreamMessage::Eos);
        Ok(())
    }

    fn snapshot(&self) -> nebula::Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::meos_registry;
    use crate::testing::assert_snapshot_resumes;
    use crate::values::as_tpoint;
    use nebula::prelude::*;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
            ("speed_kmh", DataType::Float),
        ])
    }

    fn rec(ts_s: i64, id: i64, x: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(id),
            Value::Point { x, y: 50.85 },
            Value::Float(80.0),
        ])
    }

    fn data_records(msgs: &[StreamMessage]) -> Vec<Record> {
        msgs.iter()
            .filter_map(|m| match m {
                StreamMessage::Data(b) => Some(b.records().to_vec()),
                _ => None,
            })
            .flatten()
            .collect()
    }

    #[test]
    fn trajectory_builder_splits_on_gap_and_flushes() {
        let reg = meos_registry().unwrap();
        let factory = TrajectoryBuilderFactory {
            max_gap_us: 10 * MICROS_PER_SEC,
            ..TrajectoryBuilderFactory::standard()
        };
        let mut op = factory.create(schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(0, 1, 4.30),
                    rec(5, 1, 4.31),
                    rec(100, 1, 4.40), // gap -> closes first sequence
                    rec(105, 1, 4.41),
                ],
            ),
            &mut out,
        )
        .unwrap();
        let first = data_records(&out);
        assert_eq!(first.len(), 1, "gap split emitted one trajectory");
        let tp = as_tpoint(first[0].get(2).unwrap()).unwrap();
        assert_eq!(tp.num_instants(), 2);
        assert_eq!(first[0].get(4), Some(&Value::Int(2)));

        let mut out2 = Vec::new();
        op.on_eos(&mut out2).unwrap();
        let rest = data_records(&out2);
        assert_eq!(rest.len(), 1, "flush emits the open sequence");
        let len = rest[0].get(3).unwrap().as_float().unwrap();
        assert!(len > 100.0, "0.01 deg of longitude ≈ 700 m, got {len}");
    }

    #[test]
    fn trajectory_builder_per_key() {
        let reg = meos_registry().unwrap();
        let mut op = TrajectoryBuilderFactory::standard()
            .create(schema(), &reg)
            .unwrap();
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(0, 1, 4.30),
                    rec(0, 2, 5.30),
                    rec(5, 1, 4.31),
                    rec(5, 2, 5.31),
                ],
            ),
            &mut out,
        )
        .unwrap();
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 2);
        let ids: Vec<i64> = recs
            .iter()
            .map(|r| r.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(ids, vec![1, 2], "deterministic key order on flush");
    }

    #[test]
    fn imputation_fills_gaps() {
        let reg = meos_registry().unwrap();
        let mut op = ImputationFactory {
            tick_us: MICROS_PER_SEC,
            max_fill_us: 10 * MICROS_PER_SEC,
            ..ImputationFactory::standard()
        }
        .create(schema(), &reg)
        .unwrap();
        let mut out = Vec::new();
        // 4 s gap between t=1 and t=5.
        op.process(
            RecordBuffer::new(schema(), vec![rec(1, 1, 4.30), rec(5, 1, 4.34)]),
            &mut out,
        )
        .unwrap();
        assert!(data_records(&out).is_empty(), "buffered until watermark");
        op.on_watermark(10 * MICROS_PER_SEC, &mut out).unwrap();
        let recs = data_records(&out);
        // 2 originals + 3 synthetic (t=2,3,4).
        assert_eq!(recs.len(), 5);
        let imputed: Vec<bool> = recs
            .iter()
            .map(|r| r.get(4).unwrap().as_bool().unwrap())
            .collect();
        assert_eq!(imputed, vec![false, true, true, true, false]);
        // Linear interpolation of x.
        let x3 = recs[2].get(2).unwrap().as_point().unwrap().0;
        assert!((x3 - 4.32).abs() < 1e-9, "{x3}");
        // Timestamps strictly increasing.
        let ts: Vec<i64> = recs
            .iter()
            .map(|r| r.get(0).unwrap().as_timestamp().unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn imputation_respects_max_fill_and_reorders() {
        let reg = meos_registry().unwrap();
        let mut op = ImputationFactory {
            tick_us: MICROS_PER_SEC,
            max_fill_us: 5 * MICROS_PER_SEC,
            ..ImputationFactory::standard()
        }
        .create(schema(), &reg)
        .unwrap();
        let mut out = Vec::new();
        // Out of order + a 60 s gap (beyond max_fill).
        op.process(
            RecordBuffer::new(
                schema(),
                vec![rec(2, 1, 4.31), rec(1, 1, 4.30), rec(62, 1, 4.50)],
            ),
            &mut out,
        )
        .unwrap();
        op.on_eos(&mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 3, "no synthetic fill across the long gap");
        let ts: Vec<i64> = recs
            .iter()
            .map(|r| r.get(0).unwrap().as_timestamp().unwrap() / MICROS_PER_SEC)
            .collect();
        assert_eq!(ts, vec![1, 2, 62], "reordered by event time");
    }

    #[test]
    fn imputation_watermark_incremental() {
        let reg = meos_registry().unwrap();
        let mut op = ImputationFactory::standard()
            .create(schema(), &reg)
            .unwrap();
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(schema(), vec![rec(1, 1, 4.30), rec(20, 1, 4.33)]),
            &mut out,
        )
        .unwrap();
        op.on_watermark(5 * MICROS_PER_SEC, &mut out).unwrap();
        let first = data_records(&out);
        assert_eq!(first.len(), 1, "only t=1 passed the watermark");
        out.clear();
        op.on_eos(&mut out).unwrap();
        let rest = data_records(&out);
        // t=20 plus 18 synthetic records (t=2..=19).
        assert_eq!(rest.len(), 19);
    }

    #[test]
    fn trajectory_builder_snapshot_resumes_identically() {
        let reg = meos_registry().unwrap();
        let mut op = TrajectoryBuilderFactory {
            max_gap_us: 10 * MICROS_PER_SEC,
            max_instants: 3,
            ..TrajectoryBuilderFactory::standard()
        }
        .create(schema(), &reg)
        .unwrap();
        // Open sequences on both keys at the snapshot.
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(
                schema(),
                vec![rec(0, 1, 4.30), rec(0, 2, 5.30), rec(5, 1, 4.31)],
            ),
            &mut out,
        )
        .unwrap();
        let rest = [
            rec(6, 1, 4.32),
            rec(7, 2, 5.31),
            rec(60, 1, 4.40),
            rec(61, 2, 5.40),
        ];
        let rows = assert_snapshot_resumes(op.as_mut(), &schema(), &rest);
        let fixes: i64 = rows
            .iter()
            .map(|r| r.get(4).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(fixes, 7, "every fix, before and after the snapshot");
    }

    #[test]
    fn imputation_snapshot_resumes_identically() {
        let reg = meos_registry().unwrap();
        let mut op = ImputationFactory {
            tick_us: MICROS_PER_SEC,
            max_fill_us: 10 * MICROS_PER_SEC,
            ..ImputationFactory::standard()
        }
        .create(schema(), &reg)
        .unwrap();
        // One fix emitted (the interpolation anchor), one still pending.
        let mut out = Vec::new();
        op.process(
            RecordBuffer::new(schema(), vec![rec(1, 1, 4.30), rec(8, 1, 4.37)]),
            &mut out,
        )
        .unwrap();
        op.on_watermark(2 * MICROS_PER_SEC, &mut out).unwrap();
        let rows = assert_snapshot_resumes(op.as_mut(), &schema(), &[rec(4, 1, 4.33)]);
        // t=2 and t=3 fill the gap to the late fix, t=5..=7 the next one.
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn factories_validate() {
        let reg = meos_registry().unwrap();
        let bad = TrajectoryBuilderFactory {
            key_field: "nope".into(),
            ..TrajectoryBuilderFactory::standard()
        };
        assert!(bad.create(schema(), &reg).is_err());
        let bad = ImputationFactory {
            tick_us: 0,
            ..ImputationFactory::standard()
        };
        assert!(bad.create(schema(), &reg).is_err());
    }
}
