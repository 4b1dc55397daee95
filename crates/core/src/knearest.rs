//! Top-k nearest neighbours over the live fleet — the aggregation the
//! paper names as future work ("identifying the top-k nearest trains").
//!
//! The operator maintains the latest known position per key and, at a
//! configurable cadence per key, emits one record per neighbour with its
//! rank and distance. With a fleet-sized key domain the scan is exact and
//! cheap; the cadence keeps output volume proportional to fleet size
//! rather than to the sensor rate.

use crate::values::as_point;
use meos::geo::{Metric, Point};
use nebula::prelude::{
    DataType, Field, FunctionRegistry, NebulaError, Operator, OperatorFactory, Record,
    RecordBuffer, Schema, SchemaRef, StreamMessage, Value,
};
use std::collections::HashMap;

/// Factory for the k-nearest-trains operator.
pub struct KNearestFactory {
    /// Key column (train id, INT).
    pub key_field: String,
    /// Position column.
    pub pos_field: String,
    /// Event-time column.
    pub ts_field: String,
    /// Number of neighbours to report.
    pub k: usize,
    /// Minimum event-time gap between reports for the same key (µs).
    pub emit_every_us: i64,
    /// Neighbour positions older than this are considered stale and
    /// skipped (µs).
    pub staleness_us: i64,
}

impl KNearestFactory {
    /// Fleet defaults: 3 neighbours, report every 10 s, 60 s staleness.
    pub fn standard(k: usize) -> Self {
        KNearestFactory {
            key_field: "train_id".into(),
            pos_field: "pos".into(),
            ts_field: "ts".into(),
            k,
            emit_every_us: 10_000_000,
            staleness_us: 60_000_000,
        }
    }
}

impl OperatorFactory for KNearestFactory {
    fn name(&self) -> &str {
        "k_nearest"
    }

    fn create(
        &self,
        input: SchemaRef,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Operator>> {
        let resolve = |f: &str| {
            input
                .index_of(f)
                .ok_or_else(|| NebulaError::Plan(format!("k_nearest: unknown field '{f}'")))
        };
        let key_col = resolve(&self.key_field)?;
        let pos_col = resolve(&self.pos_field)?;
        let ts_col = resolve(&self.ts_field)?;
        if self.k == 0 {
            return Err(NebulaError::Plan("k_nearest: k must be >= 1".into()));
        }
        let output = Schema::new(vec![
            Field::new("ts", DataType::Timestamp),
            Field::new(self.key_field.clone(), DataType::Int),
            Field::new("pos", DataType::Point),
            Field::new("neighbor_id", DataType::Int),
            Field::new("neighbor_pos", DataType::Point),
            Field::new("distance_m", DataType::Float),
            Field::new("rank", DataType::Int),
        ]);
        Ok(Box::new(KNearestOp {
            key_col,
            pos_col,
            ts_col,
            k: self.k,
            emit_every_us: self.emit_every_us.max(0),
            staleness_us: self.staleness_us.max(1),
            output,
            latest: HashMap::new(),
            last_emit: HashMap::new(),
        }))
    }
}

#[derive(Clone)]
struct KNearestOp {
    key_col: usize,
    pos_col: usize,
    ts_col: usize,
    k: usize,
    emit_every_us: i64,
    staleness_us: i64,
    output: SchemaRef,
    latest: HashMap<i64, (Point, i64)>,
    last_emit: HashMap<i64, i64>,
}

impl Operator for KNearestOp {
    fn name(&self) -> &str {
        "k_nearest"
    }

    fn output_schema(&self) -> SchemaRef {
        self.output.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> nebula::Result<()> {
        let mut emitted: Vec<Record> = Vec::new();
        for rec in buf.records() {
            let key = rec
                .get(self.key_col)
                .and_then(Value::as_int)
                .ok_or_else(|| NebulaError::Eval("k_nearest: non-int key".into()))?;
            let ts = rec
                .get(self.ts_col)
                .and_then(Value::as_timestamp)
                .ok_or_else(|| NebulaError::Eval("k_nearest: missing ts".into()))?;
            let pos = match rec.get(self.pos_col) {
                Some(v) if !v.is_null() => as_point(v)?,
                _ => continue,
            };
            self.latest.insert(key, (pos, ts));

            let due = match self.last_emit.get(&key) {
                Some(last) => ts - last >= self.emit_every_us,
                None => true,
            };
            if !due {
                continue;
            }
            self.last_emit.insert(key, ts);

            let mut neighbours: Vec<(i64, Point, f64)> = self
                .latest
                .iter()
                .filter(|(id, (_, seen))| **id != key && ts - seen <= self.staleness_us)
                .map(|(id, (p, _))| (*id, *p, Metric::Haversine.distance(&pos, p)))
                .collect();
            // NaN distances (a NaN position) rank last, whatever their
            // sign bit, so they never displace a measurable neighbour.
            neighbours.sort_by(|a, b| {
                a.2.is_nan()
                    .cmp(&b.2.is_nan())
                    .then_with(|| a.2.total_cmp(&b.2))
            });
            for (rank, (id, npos, dist)) in neighbours.into_iter().take(self.k).enumerate() {
                emitted.push(Record::new(vec![
                    Value::Timestamp(ts),
                    Value::Int(key),
                    Value::Point { x: pos.x, y: pos.y },
                    Value::Int(id),
                    Value::Point {
                        x: npos.x,
                        y: npos.y,
                    },
                    Value::Float(dist),
                    Value::Int(rank as i64 + 1),
                ]));
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

    fn snapshot(&self) -> nebula::Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::meos_registry;
    use crate::testing::assert_snapshot_resumes;
    use nebula::prelude::*;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
        ])
    }

    fn rec(ts_s: i64, id: i64, x: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(id),
            Value::Point { x, y: 50.85 },
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

    fn op(k: usize, emit_s: i64) -> Box<dyn Operator> {
        KNearestFactory {
            k,
            emit_every_us: emit_s * MICROS_PER_SEC,
            staleness_us: 60 * MICROS_PER_SEC,
            ..KNearestFactory::standard(k)
        }
        .create(schema(), &meos_registry().unwrap())
        .unwrap()
    }

    #[test]
    fn ranks_neighbours_by_distance() {
        let mut o = op(2, 0);
        let mut out = Vec::new();
        // Trains at x = 4.30, 4.31, 4.35; query train 0 at 4.30.
        o.process(
            RecordBuffer::new(
                schema(),
                vec![rec(0, 1, 4.31), rec(0, 2, 4.35), rec(1, 0, 4.30)],
            ),
            &mut out,
        )
        .unwrap();
        let recs = data_records(&out);
        // Records for trains 1 (no neighbours yet... train 1 first: sees
        // none), train 2 (sees train 1), train 0 (sees both).
        let train0: Vec<&Record> = recs
            .iter()
            .filter(|r| r.get(1) == Some(&Value::Int(0)))
            .collect();
        assert_eq!(train0.len(), 2);
        assert_eq!(train0[0].get(3), Some(&Value::Int(1)), "nearest first");
        assert_eq!(train0[0].get(6), Some(&Value::Int(1)), "rank 1");
        assert_eq!(train0[1].get(3), Some(&Value::Int(2)));
        let d1 = train0[0].get(5).unwrap().as_float().unwrap();
        let d2 = train0[1].get(5).unwrap().as_float().unwrap();
        assert!(d1 < d2);
        assert!((d1 - 700.0).abs() < 50.0, "0.01° lon at 50.85°N ≈ 703 m");
    }

    #[test]
    fn snapshot_resumes_identically() {
        let mut o = op(2, 10);
        // Latest positions and emit cadences of three trains at the
        // snapshot.
        let mut out = Vec::new();
        o.process(
            RecordBuffer::new(
                schema(),
                vec![rec(0, 1, 4.31), rec(0, 2, 4.35), rec(1, 0, 4.30)],
            ),
            &mut out,
        )
        .unwrap();
        // Train 0 at t=5 is throttled by its t=1 report; at t=12 it
        // reports against the positions remembered from before.
        let rest = [rec(5, 0, 4.30), rec(12, 0, 4.30), rec(12, 1, 4.32)];
        let rows = assert_snapshot_resumes(o.as_mut(), &schema(), &rest);
        assert_eq!(rows.len(), 4, "two reports of two neighbours each");
    }

    #[test]
    fn respects_k() {
        let mut o = op(1, 0);
        let mut out = Vec::new();
        o.process(
            RecordBuffer::new(
                schema(),
                vec![rec(0, 1, 4.31), rec(0, 2, 4.32), rec(1, 0, 4.30)],
            ),
            &mut out,
        )
        .unwrap();
        let recs = data_records(&out);
        let train0: Vec<&Record> = recs
            .iter()
            .filter(|r| r.get(1) == Some(&Value::Int(0)))
            .collect();
        assert_eq!(train0.len(), 1, "k=1");
    }

    #[test]
    fn emit_cadence_throttles() {
        let mut o = op(1, 10);
        let mut out = Vec::new();
        // Train 1 first so train 0's t=0 report already has a neighbour.
        let rows: Vec<Record> = (0..20)
            .flat_map(|s| vec![rec(s, 1, 4.31), rec(s, 0, 4.30)])
            .collect();
        o.process(RecordBuffer::new(schema(), rows), &mut out)
            .unwrap();
        let recs = data_records(&out);
        let train0 = recs
            .iter()
            .filter(|r| r.get(1) == Some(&Value::Int(0)))
            .count();
        // 20 s of data, 10 s cadence -> reports at t=0 and t=10.
        assert_eq!(train0, 2);
    }

    #[test]
    fn stale_neighbours_skipped() {
        let mut o = op(3, 0);
        let mut out = Vec::new();
        o.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(0, 1, 4.31),
                    rec(100, 0, 4.30), // train 1's fix is 100 s old > 60 s
                ],
            ),
            &mut out,
        )
        .unwrap();
        let recs = data_records(&out);
        let train0 = recs
            .iter()
            .filter(|r| r.get(1) == Some(&Value::Int(0)))
            .count();
        assert_eq!(train0, 0, "stale neighbour not reported");
    }

    #[test]
    fn nan_positions_rank_last() {
        // A NaN neighbour sorts after every measurable one (x86's
        // default NaN is negative, so `total_cmp` alone would rank it
        // first), and a NaN query position ranks without panicking.
        let mut o = op(3, 0);
        let mut out = Vec::new();
        let nan = -f64::NAN;
        o.process(
            RecordBuffer::new(
                schema(),
                vec![
                    rec(0, 1, nan),
                    rec(0, 2, 4.35),
                    rec(0, 3, 4.31),
                    rec(1, 0, 4.30),
                    rec(2, 4, f64::NAN),
                ],
            ),
            &mut out,
        )
        .unwrap();
        let recs = data_records(&out);
        let neighbours = |train: i64| -> Vec<Value> {
            recs.iter()
                .filter(|r| r.get(1) == Some(&Value::Int(train)))
                .map(|r| r.get(3).unwrap().clone())
                .collect()
        };
        assert_eq!(
            neighbours(0),
            [3, 2, 1].map(Value::Int),
            "NaN neighbour last"
        );
        assert_eq!(neighbours(4).len(), 3, "a NaN query position still ranks");
    }

    #[test]
    fn factory_validates() {
        let reg = meos_registry().unwrap();
        assert!(KNearestFactory {
            k: 0,
            ..KNearestFactory::standard(1)
        }
        .create(schema(), &reg)
        .is_err());
        assert!(KNearestFactory {
            key_field: "nope".into(),
            ..KNearestFactory::standard(1)
        }
        .create(schema(), &reg)
        .is_err());
    }

    #[test]
    fn end_to_end_in_query() {
        use std::sync::Arc;
        let mut env = StreamEnvironment::new();
        env.load_plugin(&crate::functions::MeosPlugin).unwrap();
        let rows: Vec<Record> = (0..60)
            .flat_map(|s| (0..3).map(move |id| rec(s, id, 4.30 + id as f64 * 0.01)))
            .collect();
        env.add_source(
            "fleet",
            Box::new(VecSource::new(schema(), rows)),
            WatermarkStrategy::None,
        );
        let q = Query::from("fleet")
            .apply(Arc::new(KNearestFactory::standard(2)))
            .filter(col("rank").eq(lit(1i64)));
        let (mut sink, got) = CollectingSink::new();
        env.run(&q, &mut sink).unwrap();
        assert!(!got.is_empty());
        for r in got.records() {
            assert_eq!(r.get(6), Some(&Value::Int(1)));
        }
    }
}
