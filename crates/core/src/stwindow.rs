//! Spatiotemporal window aggregation.
//!
//! The paper extends NebulaStream's "tumbling, sliding, and threshold
//! windows over spatiotemporal data streams" (§2.3): a window's records
//! are assembled into MEOS temporal values instead of scalar aggregates.
//! [`TrajectoryAgg`] produces a `tgeompoint` per window, [`TFloatSeqAgg`]
//! a `tfloat` — both plug into any [`nebula::window::WindowSpec`] via the
//! engine's custom-aggregator extension point.

use crate::values::{as_tfloat, as_tpoint, tfloat_value, tpoint_value};
use meos::geo::Point;
use meos::temporal::{Interp, TInstant, TSequence, TempValue, Temporal};
use meos::time::TimestampTz;
use nebula::prelude::{
    Aggregator, AggregatorFactory, BoundExpr, DataType, Expr, FunctionRegistry, NebulaError, Row,
    Schema, Value,
};

/// Collects a temporal value's (timestamp, sample) pairs — how a
/// partial sequence snapshot folds back into an accumulator's sample
/// pool (MEOS sequence-append: per-slice or per-edge sub-sequences
/// concatenate, duplicates resolved by "first sample wins" at finish).
fn collect_samples<V: TempValue>(t: &Temporal<V>, out: &mut Vec<(i64, V)>) {
    for seq in t.to_sequences() {
        out.extend(
            seq.instants()
                .iter()
                .map(|i| (i.t.micros(), i.value.clone())),
        );
    }
}

/// Builds the canonical sequence from pooled samples: sorted by
/// timestamp, first sample winning on duplicates.
fn build_sequence<V: TempValue>(
    mut samples: Vec<(i64, V)>,
    interp: Interp,
) -> nebula::Result<Temporal<V>> {
    samples.sort_by_key(|(t, _)| *t);
    samples.dedup_by_key(|(t, _)| *t);
    let instants: Vec<TInstant<V>> = samples
        .into_iter()
        .map(|(t, v)| TInstant::new(v, TimestampTz::from_micros(t)))
        .collect();
    let seq = TSequence::new(instants, true, true, interp)
        .map_err(|e| NebulaError::Eval(e.to_string()))?;
    Ok(Temporal::Sequence(seq))
}

/// Builds a `tgeompoint` sequence from the window's (ts, position)
/// samples. Out-of-order samples inside the window are sorted at window
/// close; duplicate timestamps keep the first sample.
pub struct TrajectoryAgg {
    /// Position column name.
    pub pos_field: String,
    /// Event-time column name.
    pub ts_field: String,
}

impl TrajectoryAgg {
    /// Standard fleet layout constructor.
    pub fn new(pos_field: impl Into<String>, ts_field: impl Into<String>) -> Self {
        TrajectoryAgg {
            pos_field: pos_field.into(),
            ts_field: ts_field.into(),
        }
    }
}

impl AggregatorFactory for TrajectoryAgg {
    fn output_type(
        &self,
        input: &nebula::schema::Schema,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<DataType> {
        for f in [&self.pos_field, &self.ts_field] {
            if input.index_of(f).is_none() {
                return Err(NebulaError::Plan(format!(
                    "trajectory aggregator: unknown field '{f}'"
                )));
            }
        }
        Ok(DataType::Opaque)
    }

    fn create(
        &self,
        input: &nebula::schema::Schema,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Aggregator>> {
        let pos_col = input
            .index_of(&self.pos_field)
            .ok_or_else(|| NebulaError::Plan(format!("unknown field '{}'", self.pos_field)))?;
        let ts_col = input
            .index_of(&self.ts_field)
            .ok_or_else(|| NebulaError::Plan(format!("unknown field '{}'", self.ts_field)))?;
        Ok(Box::new(SeqAccum::<Point>::new(
            BoundExpr::Column(pos_col),
            ts_col,
            Interp::Linear,
        )))
    }

    fn splittable(&self) -> bool {
        true
    }

    fn partial_types(
        &self,
        _input: &Schema,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Option<Vec<DataType>>> {
        Ok(Some(vec![DataType::Opaque]))
    }
}

/// Builds a `tfloat` sequence from an expression sampled at event time.
pub struct TFloatSeqAgg {
    /// The sampled expression.
    pub expr: Expr,
    /// Event-time column name.
    pub ts_field: String,
    /// Interpolation for the produced sequence.
    pub interp: Interp,
}

impl TFloatSeqAgg {
    /// Linear-interpolated sampling of `expr`.
    pub fn linear(expr: Expr, ts_field: impl Into<String>) -> Self {
        TFloatSeqAgg {
            expr,
            ts_field: ts_field.into(),
            interp: Interp::Linear,
        }
    }
}

impl AggregatorFactory for TFloatSeqAgg {
    fn output_type(
        &self,
        input: &nebula::schema::Schema,
        registry: &FunctionRegistry,
    ) -> nebula::Result<DataType> {
        self.expr.bind(input, registry)?;
        if input.index_of(&self.ts_field).is_none() {
            return Err(NebulaError::Plan(format!(
                "tfloat aggregator: unknown ts field '{}'",
                self.ts_field
            )));
        }
        Ok(DataType::Opaque)
    }

    fn create(
        &self,
        input: &nebula::schema::Schema,
        registry: &FunctionRegistry,
    ) -> nebula::Result<Box<dyn Aggregator>> {
        let (bound, _) = self.expr.bind(input, registry)?;
        let ts_col = input
            .index_of(&self.ts_field)
            .ok_or_else(|| NebulaError::Plan(format!("unknown ts field '{}'", self.ts_field)))?;
        Ok(Box::new(SeqAccum::<f64>::new(bound, ts_col, self.interp)))
    }

    fn splittable(&self) -> bool {
        true
    }

    fn partial_types(
        &self,
        _input: &Schema,
        _registry: &FunctionRegistry,
    ) -> nebula::Result<Option<Vec<DataType>>> {
        Ok(Some(vec![DataType::Opaque]))
    }
}

/// A value a sequence aggregate samples per row: a `Point` for a
/// trajectory, an `f64` for a `tfloat`.
trait Sample: TempValue {
    /// The sample an evaluated row value holds, if any.
    fn from_value(v: &Value) -> Option<Self>;
    /// A built sequence as an engine value.
    fn seq_value(t: Temporal<Self>) -> Value;
    /// The sequence a partial snapshot holds.
    fn as_seq(v: &Value) -> nebula::Result<&Temporal<Self>>;
}

impl Sample for Point {
    fn from_value(v: &Value) -> Option<Self> {
        v.as_point().map(|(x, y)| Point::new(x, y))
    }

    fn seq_value(t: Temporal<Self>) -> Value {
        tpoint_value(t)
    }

    fn as_seq(v: &Value) -> nebula::Result<&Temporal<Self>> {
        as_tpoint(v)
    }
}

impl Sample for f64 {
    fn from_value(v: &Value) -> Option<Self> {
        v.as_float()
    }

    fn seq_value(t: Temporal<Self>) -> Value {
        tfloat_value(t)
    }

    fn as_seq(v: &Value) -> nebula::Result<&Temporal<Self>> {
        as_tfloat(v)
    }
}

/// The accumulator of both sequence aggregates: pools the window's
/// (event time, `expr`) samples and builds the sequence at finish. A
/// row with no event time or no sample contributes nothing.
struct SeqAccum<V> {
    expr: BoundExpr,
    ts_col: usize,
    interp: Interp,
    samples: Vec<(i64, V)>,
}

impl<V> SeqAccum<V> {
    fn new(expr: BoundExpr, ts_col: usize, interp: Interp) -> Self {
        SeqAccum {
            expr,
            ts_col,
            interp,
            samples: Vec::new(),
        }
    }
}

impl<V: Sample> Aggregator for SeqAccum<V> {
    fn update(&mut self, row: Row<'_>) -> nebula::Result<()> {
        let ts = row.get(self.ts_col).and_then(|v| v.as_timestamp());
        let v = self.expr.eval(row)?;
        if let (Some(ts), Some(v)) = (ts, V::from_value(&v)) {
            self.samples.push((ts, v));
        }
        Ok(())
    }

    fn partial(&self) -> nebula::Result<Vec<Value>> {
        if self.samples.is_empty() {
            return Ok(vec![Value::Null]);
        }
        Ok(vec![V::seq_value(build_sequence(
            self.samples.clone(),
            self.interp,
        )?)])
    }

    fn merge_partial(&mut self, partial: &[Value]) -> nebula::Result<()> {
        match partial.first() {
            None | Some(Value::Null) => Ok(()),
            Some(v) => {
                collect_samples(V::as_seq(v)?, &mut self.samples);
                Ok(())
            }
        }
    }

    /// Slice-to-window materialization pools the other accumulator's raw
    /// samples directly — building (and immediately flattening) a
    /// validated sequence per covering slice would erase the shared-slice
    /// savings for sequence aggregates.
    fn merge(&mut self, other: &dyn Aggregator) -> nebula::Result<()> {
        match other.as_any().and_then(|a| a.downcast_ref::<SeqAccum<V>>()) {
            Some(o) => {
                self.samples.extend(o.samples.iter().cloned());
                Ok(())
            }
            None => self.merge_partial(&other.partial()?),
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn finish(&mut self) -> nebula::Result<Value> {
        if self.samples.is_empty() {
            return Ok(Value::Null);
        }
        let samples = std::mem::take(&mut self.samples);
        Ok(V::seq_value(build_sequence(samples, self.interp)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::meos_registry;
    use crate::values::{as_tfloat, as_tpoint};
    use nebula::prelude::*;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
            ("speed_kmh", DataType::Float),
        ])
    }

    fn rec(ts_s: i64, id: i64, x: f64, speed: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(id),
            Value::Point { x, y: 50.85 },
            Value::Float(speed),
        ])
    }

    #[test]
    fn trajectory_agg_builds_sequence() {
        let reg = meos_registry().unwrap();
        let factory = TrajectoryAgg::new("pos", "ts");
        let mut agg = factory.create(&schema(), &reg).unwrap();
        for (i, x) in [(0, 4.30), (2, 4.32), (1, 4.31)] {
            agg.update((&rec(i, 1, x, 0.0)).into()).unwrap();
        }
        let v = agg.finish().unwrap();
        let tp = as_tpoint(&v).unwrap();
        assert_eq!(tp.num_instants(), 3, "out-of-order sample sorted in");
        assert_eq!(tp.start_value().x, 4.30);
        assert_eq!(tp.end_value().x, 4.32);
    }

    #[test]
    fn trajectory_agg_empty_is_null() {
        let reg = meos_registry().unwrap();
        let mut agg = TrajectoryAgg::new("pos", "ts")
            .create(&schema(), &reg)
            .unwrap();
        assert!(agg.finish().unwrap().is_null());
    }

    #[test]
    fn tfloat_agg_collects_expression() {
        let reg = meos_registry().unwrap();
        let factory = TFloatSeqAgg::linear(col("speed_kmh").div(lit(3.6)), "ts");
        let mut agg = factory.create(&schema(), &reg).unwrap();
        agg.update((&rec(0, 1, 4.3, 36.0)).into()).unwrap();
        agg.update((&rec(10, 1, 4.31, 72.0)).into()).unwrap();
        let v = agg.finish().unwrap();
        let tf = as_tfloat(&v).unwrap();
        assert_eq!(tf.start_value(), 10.0);
        assert_eq!(tf.end_value(), 20.0);
    }

    #[test]
    fn window_query_with_trajectory_agg_end_to_end() {
        use std::sync::Arc;
        let mut env = StreamEnvironment::new();
        env.load_plugin(&crate::functions::MeosPlugin).unwrap();
        let records: Vec<Record> = (0..120)
            .map(|i| rec(i, i % 2, 4.30 + i as f64 * 0.001, 50.0))
            .collect();
        env.add_source(
            "fleet",
            Box::new(VecSource::new(schema(), records)),
            WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "ts".into(),
                slack: 2 * MICROS_PER_SEC,
            },
        );
        let q = Query::from("fleet").window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new(
                    "traj",
                    AggSpec::Custom(Arc::new(TrajectoryAgg::new("pos", "ts"))),
                ),
                WindowAgg::new("n", AggSpec::Count),
            ],
        );
        let (mut sink, got) = CollectingSink::new();
        env.run(&q, &mut sink).unwrap();
        // 2 keys × 2 windows.
        assert_eq!(got.len(), 4);
        for r in got.records() {
            let tp = as_tpoint(r.get(3).unwrap()).unwrap();
            let n = r.get(4).unwrap().as_int().unwrap();
            assert_eq!(tp.num_instants() as i64, n);
            // Trajectory confined to its window.
            let start = r.get(1).unwrap().as_timestamp().unwrap();
            let end = r.get(2).unwrap().as_timestamp().unwrap();
            assert!(tp.start_timestamp().micros() >= start);
            assert!(tp.end_timestamp().micros() < end);
        }
    }

    #[test]
    fn trajectory_partials_merge_like_one_accumulator() {
        // Sequence-append: two half-streams snapshot into partials that
        // merge into the same trajectory a single accumulator builds.
        let reg = meos_registry().unwrap();
        let factory = TrajectoryAgg::new("pos", "ts");
        let mut whole = factory.create(&schema(), &reg).unwrap();
        let mut left = factory.create(&schema(), &reg).unwrap();
        let mut right = factory.create(&schema(), &reg).unwrap();
        for i in 0..10 {
            let r = rec(i, 1, 4.30 + i as f64 * 0.01, 0.0);
            whole.update((&r).into()).unwrap();
            if i % 2 == 0 { &mut left } else { &mut right }
                .update((&r).into())
                .unwrap();
        }
        let mut merged = factory.create(&schema(), &reg).unwrap();
        merged.merge_partial(&left.partial().unwrap()).unwrap();
        merged.merge_partial(&right.partial().unwrap()).unwrap();
        let a = as_tpoint(&merged.finish().unwrap()).unwrap().clone();
        let b = as_tpoint(&whole.finish().unwrap()).unwrap().clone();
        assert_eq!(a.num_instants(), b.num_instants());
        assert_eq!(a.start_timestamp(), b.start_timestamp());
        assert_eq!(a.end_timestamp(), b.end_timestamp());
        assert_eq!(a.start_value().x, b.start_value().x);
        assert_eq!(a.end_value().x, b.end_value().x);
        assert!(factory.splittable(), "factory opts into the split");
        assert_eq!(
            factory.partial_types(&schema(), &reg).unwrap(),
            Some(vec![DataType::Opaque])
        );
    }

    #[test]
    fn tfloat_partials_merge_and_empty_partials_are_noops() {
        let reg = meos_registry().unwrap();
        let factory = TFloatSeqAgg::linear(col("speed_kmh"), "ts");
        let mut merged = factory.create(&schema(), &reg).unwrap();
        // An empty accumulator snapshots as a null partial; merging it
        // must not disturb the other side.
        let empty = factory.create(&schema(), &reg).unwrap();
        merged.merge_partial(&empty.partial().unwrap()).unwrap();
        let mut half = factory.create(&schema(), &reg).unwrap();
        half.update((&rec(0, 1, 4.3, 10.0)).into()).unwrap();
        half.update((&rec(5, 1, 4.3, 20.0)).into()).unwrap();
        merged.merge_partial(&half.partial().unwrap()).unwrap();
        let v = merged.finish().unwrap();
        let tf = as_tfloat(&v).unwrap();
        assert_eq!(tf.num_instants(), 2);
        assert_eq!(tf.start_value(), 10.0);
        assert_eq!(tf.end_value(), 20.0);
        assert!(factory.splittable());
    }

    #[test]
    fn factories_validate_fields() {
        let reg = meos_registry().unwrap();
        assert!(TrajectoryAgg::new("nope", "ts")
            .output_type(&schema(), &reg)
            .is_err());
        assert!(TFloatSeqAgg::linear(col("nope"), "ts")
            .output_type(&schema(), &reg)
            .is_err());
    }
}
