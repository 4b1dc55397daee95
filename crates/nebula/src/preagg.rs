//! Edge pre-aggregation: shipping per-slice window partials from edge
//! nodes and merging them at the cloud.
//!
//! The paper's uplink-saving move is running window aggregation *at the
//! edge* so only aggregated rows cross the cellular uplink. Stream
//! slicing (see [`crate::window::SliceLayout`]) sharpens that: an edge
//! ships **one partial row per `gcd(size, slide)`-wide slice** instead
//! of one row per (overlapping) window, so sliding windows stop
//! re-shipping the data their overlaps share — for content-carrying
//! aggregates such as MEOS sequence assembly the uplink shrinks by the
//! overlap factor `size/slide` on top of plain pre-aggregation.
//!
//! That is sound exactly for **splittable** aggregates — those whose
//! accumulators snapshot into partial values and merge losslessly (the
//! core [`Aggregator`](crate::window::Aggregator) contract): `count` and
//! `sum` partials add, `min`/`max` compare, `avg` decomposes into a
//! (sum, count) partial, order-dependent `first`/`last` carry a
//! (timestamp, value) partial, and plugin aggregates that declare
//! [`AggregatorFactory::splittable`](crate::window::AggregatorFactory::splittable)
//! merge their own snapshots (MEOS sequence-append: per-edge
//! sub-sequences concatenate). Non-time windows (threshold) are
//! predicate-delimited and never split; queries using an unsplittable
//! custom aggregate run their window whole on one node.
//!
//! [`split_window`] decides whether a query's first stateful operator
//! can be split; [`WindowPartialOp`] is the edge-side physical operator
//! emitting per-slice partial rows, and [`WindowMergeOp`] is the
//! cloud-side operator that folds incoming partials into shared slices
//! and materializes finished windows when the cluster-wide watermark
//! closes them.

use crate::error::{NebulaError, Result};
use crate::expr::{BoundExpr, Expr, FunctionRegistry};
use crate::ops::{GroupKey, Operator, SliceStore};
use crate::query::{LogicalOp, Query};
use crate::record::{Record, RecordBuffer, StreamMessage};
use crate::schema::{Field, Schema, SchemaRef};
use crate::value::{DataType, EventTime, Value};
use crate::window::{SliceLayout, WindowAgg, WindowSpec};

/// A splittable window found in a query plan, with everything needed to
/// instantiate the edge partial and cloud merge operators.
#[derive(Debug, Clone)]
pub struct SplitWindow {
    /// Index of the window in `query.ops()`.
    pub window_idx: usize,
    /// Grouping keys as `(output name, expression)`.
    pub keys: Vec<(String, Expr)>,
    /// The window shape (tumbling or sliding).
    pub spec: WindowSpec,
    /// The aggregates, all splittable.
    pub aggs: Vec<WindowAgg>,
}

/// Decides whether `query`'s first stateful operator is a time window
/// whose aggregates are all splittable. The stateless prefix (filters
/// and maps) runs unchanged before the partial window; everything after
/// the window consumes merged rows and moves to the merge node.
pub fn split_window(query: &Query) -> Option<SplitWindow> {
    for (i, op) in query.ops().iter().enumerate() {
        match op {
            LogicalOp::Filter(_) | LogicalOp::Map { .. } => continue,
            LogicalOp::Window { keys, spec, aggs } => {
                if !matches!(
                    spec,
                    WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
                ) {
                    return None;
                }
                if !aggs.iter().all(|a| a.spec.splittable()) {
                    return None;
                }
                return Some(SplitWindow {
                    window_idx: i,
                    keys: keys.clone(),
                    spec: spec.clone(),
                    aggs: aggs.clone(),
                });
            }
            LogicalOp::Cep(_) | LogicalOp::Custom(_) => return None,
        }
    }
    None
}

/// Everything the partial/merge operator pair shares: bound keys, the
/// slice layout, per-aggregate partial arities and both schemas.
struct SplitPlan {
    ts_col: usize,
    key_exprs: Vec<BoundExpr>,
    key_count: usize,
    layout: SliceLayout,
    /// Partial-snapshot column count per aggregate, in spec order.
    arities: Vec<usize>,
    /// Wire schema of partial rows: keys, slice bounds, partial columns.
    partial_schema: SchemaRef,
    /// Final window schema: keys, window bounds, aggregate columns.
    final_schema: SchemaRef,
    store: SliceStore,
}

impl SplitPlan {
    fn new(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: &WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        spec.validate()?;
        let layout = SliceLayout::of(spec)
            .ok_or_else(|| NebulaError::Plan("threshold windows cannot pre-aggregate".into()))?;
        let ts_col = input.index_of(ts_field).ok_or_else(|| {
            NebulaError::Plan(format!("window split: unknown ts field '{ts_field}'"))
        })?;
        let mut key_exprs = Vec::with_capacity(keys.len());
        let mut partial_fields = Vec::new();
        let mut final_fields = Vec::new();
        for (name, e) in keys {
            let (b, t) = e.bind(&input, registry)?;
            key_exprs.push(b);
            partial_fields.push(Field::new(name.clone(), t));
            final_fields.push(Field::new(name.clone(), t));
        }
        partial_fields.push(Field::new("slice_start", DataType::Timestamp));
        partial_fields.push(Field::new("slice_end", DataType::Timestamp));
        final_fields.push(Field::new("window_start", DataType::Timestamp));
        final_fields.push(Field::new("window_end", DataType::Timestamp));
        let mut arities = Vec::with_capacity(aggs.len());
        for agg in &aggs {
            final_fields.push(Field::new(
                agg.name.clone(),
                agg.spec.output_type(&input, registry)?,
            ));
            let partial_types = agg.spec.partial_types(&input, registry)?.ok_or_else(|| {
                NebulaError::Plan(format!(
                    "aggregate '{}' is not splittable across node boundaries",
                    agg.name
                ))
            })?;
            arities.push(partial_types.len());
            for (j, t) in partial_types.into_iter().enumerate() {
                let name = if arities.last() == Some(&1) {
                    agg.name.clone()
                } else {
                    format!("{}_p{j}", agg.name)
                };
                partial_fields.push(Field::new(name, t));
            }
        }
        let store = SliceStore::new(layout, ts_field, keys.len(), aggs, input, registry.clone())?;
        Ok(SplitPlan {
            ts_col,
            key_count: keys.len(),
            key_exprs,
            layout,
            arities,
            partial_schema: Schema::new(partial_fields),
            final_schema: Schema::new(final_fields),
            store,
        })
    }

    /// Deep copy for checkpointing (see [`SliceStore::snapshot`]).
    fn snapshot(&self) -> Result<SplitPlan> {
        Ok(SplitPlan {
            ts_col: self.ts_col,
            key_exprs: self.key_exprs.clone(),
            key_count: self.key_count,
            layout: self.layout,
            arities: self.arities.clone(),
            partial_schema: self.partial_schema.clone(),
            final_schema: self.final_schema.clone(),
            store: self.store.snapshot()?,
        })
    }
}

/// Edge-side partial window: aggregates records into shared slices and
/// ships one partial row per slice once the first window covering the
/// slice closes. Output schema: key columns, `slice_start`, `slice_end`,
/// then the flattened partial columns of every aggregate. A slice that
/// keeps receiving (out-of-order but non-late) records after its first
/// flush ships *delta* partials; the cloud merge folds them together.
pub struct WindowPartialOp {
    plan: SplitPlan,
    last_watermark: EventTime,
    late_drops: u64,
}

impl WindowPartialOp {
    /// Builds the operator against the schema entering the window.
    pub fn new(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: &WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        Ok(WindowPartialOp {
            plan: SplitPlan::new(ts_field, keys, spec, aggs, input, registry)?,
            last_watermark: EventTime::MIN,
            late_drops: 0,
        })
    }

    /// Records dropped because every window that could have held them
    /// had closed (counted once per record).
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    fn emit(&self, records: Vec<Record>, out: &mut Vec<StreamMessage>) {
        if !records.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.plan.partial_schema.clone(),
                records,
            )));
        }
    }
}

impl Operator for WindowPartialOp {
    fn name(&self) -> &str {
        "window_partial"
    }

    fn output_schema(&self) -> SchemaRef {
        self.plan.partial_schema.clone()
    }

    fn process(&mut self, buf: RecordBuffer, _out: &mut Vec<StreamMessage>) -> Result<()> {
        for rec in buf.records() {
            let ts = rec
                .get(self.plan.ts_col)
                .and_then(Value::as_timestamp)
                .ok_or_else(|| {
                    NebulaError::Eval("window partial: record missing event time".into())
                })?;
            if self
                .plan
                .store
                .absorb(&self.plan.key_exprs, rec, ts, self.last_watermark)?
            {
                self.late_drops += 1;
            }
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.last_watermark = self.last_watermark.max(wm);
        // Ship every dirty slice some window needs before this watermark
        // reaches the cloud (FIFO channels deliver the data first), then
        // retire slices no open window can ever read again.
        let records = self.plan.store.flush_dirty(Some(self.last_watermark))?;
        self.plan.store.retire(self.last_watermark);
        self.emit(records, out);
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> Result<()> {
        let records = self.plan.store.flush_dirty(None)?;
        self.emit(records, out);
        out.push(StreamMessage::Eos);
        Ok(())
    }

    fn late_drops(&self) -> u64 {
        self.late_drops
    }

    fn state_bytes(&self) -> usize {
        self.plan.store.est_state_bytes()
    }

    fn snapshot(&self) -> Option<Box<dyn Operator>> {
        let plan = self.plan.snapshot().ok()?;
        Some(Box::new(WindowPartialOp {
            plan,
            last_watermark: self.last_watermark,
            late_drops: self.late_drops,
        }))
    }
}

/// Cloud-side merge of per-edge slice partials.
///
/// Input schema is [`WindowPartialOp`]'s output; the output schema is
/// the final window schema (key columns, `window_start`, `window_end`,
/// one column per aggregate) — identical to what a single-process
/// [`crate::ops::WindowOp`] emits. Incoming partial rows fold into
/// shared slices; windows materialize when the cluster-wide watermark
/// passes their end, exactly once, in deterministic (start, key) order.
/// Since every upstream edge flushes a slice's partial *before*
/// forwarding the watermark that closes any window over it, and the
/// cluster runtime only advances the merged watermark to the minimum
/// across inputs, no partial can arrive after its windows were emitted
/// on any FIFO topology channel. Late partials are counted and dropped
/// as a safety net.
pub struct WindowMergeOp {
    plan: SplitPlan,
    last_watermark: EventTime,
    late_partials: u64,
}

impl WindowMergeOp {
    /// Builds the operator. `input` is the schema entering the *window*
    /// (the edge prefix's output), against which aggregates rebind.
    pub fn new(
        ts_field: &str,
        keys: &[(String, Expr)],
        spec: &WindowSpec,
        aggs: Vec<WindowAgg>,
        input: SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        Ok(WindowMergeOp {
            plan: SplitPlan::new(ts_field, keys, spec, aggs, input, registry)?,
            last_watermark: EventTime::MIN,
            late_partials: 0,
        })
    }

    /// The wire schema of the partial rows this operator consumes.
    pub fn partial_schema(&self) -> SchemaRef {
        self.plan.partial_schema.clone()
    }

    /// Partial rows that arrived after their last covering window was
    /// already emitted (zero on FIFO channels with min-combined
    /// watermarks).
    pub fn late_partials(&self) -> u64 {
        self.late_partials
    }
}

impl Operator for WindowMergeOp {
    fn name(&self) -> &str {
        "window_merge"
    }

    fn output_schema(&self) -> SchemaRef {
        self.plan.final_schema.clone()
    }

    fn process(&mut self, buf: RecordBuffer, _out: &mut Vec<StreamMessage>) -> Result<()> {
        let expected = self.plan.partial_schema.len();
        for rec in buf.into_records() {
            if rec.len() != expected {
                return Err(NebulaError::Eval(format!(
                    "window merge: partial row has {} columns, schema {expected}",
                    rec.len()
                )));
            }
            let values = rec.into_values();
            let k = self.plan.key_count;
            let slice = values[k].as_timestamp().ok_or_else(|| {
                NebulaError::Eval("window merge: partial row missing slice start".into())
            })?;
            if self.plan.layout.last_close(slice) <= self.last_watermark {
                self.late_partials += 1;
                continue;
            }
            let key = GroupKey::from_values(&values[..k]);
            let mut partials: Vec<&[Value]> = Vec::with_capacity(self.plan.arities.len());
            let mut off = k + 2;
            for arity in &self.plan.arities {
                partials.push(&values[off..off + arity]);
                off += arity;
            }
            self.plan
                .store
                .merge_partials(key, &values[..k], slice, &partials)?;
        }
        Ok(())
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        let prev = self.last_watermark;
        self.last_watermark = self.last_watermark.max(wm);
        let records = self
            .plan
            .store
            .close_windows(prev, Some(self.last_watermark))?;
        if !records.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.plan.final_schema.clone(),
                records,
            )));
        }
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> Result<()> {
        let records = self.plan.store.close_windows(self.last_watermark, None)?;
        if !records.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.plan.final_schema.clone(),
                records,
            )));
        }
        out.push(StreamMessage::Eos);
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        self.plan.store.est_state_bytes()
    }

    fn snapshot(&self) -> Option<Box<dyn Operator>> {
        let plan = self.plan.snapshot().ok()?;
        Some(Box::new(WindowMergeOp {
            plan,
            last_watermark: self.last_watermark,
            late_partials: self.late_partials,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::value::MICROS_PER_SEC;
    use crate::window::AggSpec;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
            ("load", DataType::Int),
        ])
    }

    fn rec(ts_s: i64, train: i64, speed: f64, load: i64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(train),
            Value::Float(speed),
            Value::Int(load),
        ])
    }

    fn aggs() -> Vec<WindowAgg> {
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("sum_load", AggSpec::Sum(col("load"))),
            WindowAgg::new("min_speed", AggSpec::Min(col("speed"))),
            WindowAgg::new("max_speed", AggSpec::Max(col("speed"))),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("last_speed", AggSpec::Last(col("speed"))),
        ]
    }

    fn keys() -> Vec<(String, Expr)> {
        vec![("train".to_string(), col("train"))]
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

    /// Drives records through one edge partial op and the cloud merge,
    /// with a watermark after every batch and Eos at the end.
    fn split_run(
        spec: &WindowSpec,
        batches: Vec<Vec<Record>>,
        watermarks: Vec<EventTime>,
    ) -> Vec<Record> {
        let reg = FunctionRegistry::with_builtins();
        let mut edge = WindowPartialOp::new("ts", &keys(), spec, aggs(), schema(), &reg).unwrap();
        let mut cloud = WindowMergeOp::new("ts", &keys(), spec, aggs(), schema(), &reg).unwrap();
        let mut cloud_in = Vec::new();
        for (batch, wm) in batches.into_iter().zip(watermarks) {
            edge.process(RecordBuffer::new(schema(), batch), &mut cloud_in)
                .unwrap();
            edge.on_watermark(wm, &mut cloud_in).unwrap();
        }
        edge.on_eos(&mut cloud_in).unwrap();
        let mut out = Vec::new();
        for msg in cloud_in {
            match msg {
                StreamMessage::Data(b) => cloud.process(b, &mut out).unwrap(),
                StreamMessage::Columnar(b) => cloud.process_columnar(b, &mut out).unwrap(),
                StreamMessage::Watermark(w) => cloud.on_watermark(w, &mut out).unwrap(),
                StreamMessage::Eos => cloud.on_eos(&mut out).unwrap(),
            }
        }
        assert_eq!(cloud.late_partials(), 0);
        data_records(&out)
    }

    /// The single-process reference over the same feed.
    fn local_run(
        spec: WindowSpec,
        records: Vec<Record>,
        watermarks: Vec<EventTime>,
    ) -> Vec<Record> {
        let reg = FunctionRegistry::with_builtins();
        let mut op =
            crate::ops::WindowOp::new("ts", &keys(), spec, aggs(), schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.process(RecordBuffer::new(schema(), records), &mut out)
            .unwrap();
        for wm in watermarks {
            op.on_watermark(wm, &mut out).unwrap();
        }
        op.on_eos(&mut out).unwrap();
        data_records(&out)
    }

    #[test]
    fn split_equals_local_for_tumbling_and_sliding() {
        for spec in [
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            WindowSpec::Sliding {
                size: 60 * MICROS_PER_SEC,
                slide: 15 * MICROS_PER_SEC,
            },
            WindowSpec::Sliding {
                size: 60 * MICROS_PER_SEC,
                slide: 25 * MICROS_PER_SEC,
            },
        ] {
            let records: Vec<Record> = (0..240)
                .map(|i| rec(i, i % 3, ((i * 7) % 80) as f64, (i * 13) % 200))
                .collect();
            let split = split_run(
                &spec,
                records.chunks(60).map(<[Record]>::to_vec).collect(),
                vec![
                    20 * MICROS_PER_SEC,
                    80 * MICROS_PER_SEC,
                    140 * MICROS_PER_SEC,
                    200 * MICROS_PER_SEC,
                ],
            );
            let local = local_run(
                spec,
                records,
                vec![
                    20 * MICROS_PER_SEC,
                    80 * MICROS_PER_SEC,
                    140 * MICROS_PER_SEC,
                    200 * MICROS_PER_SEC,
                ],
            );
            assert_eq!(split, local, "split pipeline ≡ local window");
        }
    }

    #[test]
    fn sliding_edge_ships_one_partial_per_slice() {
        // 240 s of data, sliding 60/15: 16 slices per key must cross the
        // boundary, not 16 windows × 4 covering rows.
        let reg = FunctionRegistry::with_builtins();
        let spec = WindowSpec::Sliding {
            size: 60 * MICROS_PER_SEC,
            slide: 15 * MICROS_PER_SEC,
        };
        let mut edge = WindowPartialOp::new("ts", &keys(), &spec, aggs(), schema(), &reg).unwrap();
        let mut out = Vec::new();
        let records: Vec<Record> = (0..240).map(|i| rec(i, 0, 1.0, 1)).collect();
        edge.process(RecordBuffer::new(schema(), records), &mut out)
            .unwrap();
        edge.on_eos(&mut out).unwrap();
        let partials = data_records(&out);
        assert_eq!(partials.len(), 240 / 15, "one partial row per slice");
        // Slice bounds are width apart, and each carries its own count.
        for (i, p) in partials.iter().enumerate() {
            let start = p.get(1).unwrap().as_timestamp().unwrap();
            let end = p.get(2).unwrap().as_timestamp().unwrap();
            assert_eq!(start, i as i64 * 15 * MICROS_PER_SEC);
            assert_eq!(end - start, 15 * MICROS_PER_SEC);
            assert_eq!(p.get(3), Some(&Value::Int(15)), "15 records per slice");
        }
    }

    #[test]
    fn delta_partials_merge_for_out_of_order_records() {
        // A slice flushed once must ship a *delta* when a late-but-live
        // record lands in it afterwards, and the cloud must fold both.
        let spec = WindowSpec::Sliding {
            size: 40 * MICROS_PER_SEC,
            slide: 10 * MICROS_PER_SEC,
        };
        let batches = vec![
            (0..30).map(|i| rec(i, 0, 1.0, 1)).collect::<Vec<_>>(),
            // ts=5 is late for [?..) windows closed by wm=40 but live
            // for [ -20..20 )-style later windows? No: for size 40 the
            // record at 5 is live while any window containing it is
            // open; wm=40 closes [ -30..10 ) ... [0, 40). Window
            // [ -10..30 ) etc. — keep it simple: ts=25 after wm=40 is
            // late for [0,40) but live for [10,50), [20,60).
            vec![rec(25, 0, 9.0, 5)],
            (40..70).map(|i| rec(i, 0, 1.0, 1)).collect::<Vec<_>>(),
        ];
        let wms = vec![
            40 * MICROS_PER_SEC,
            40 * MICROS_PER_SEC,
            100 * MICROS_PER_SEC,
        ];
        let split = split_run(&spec, batches.clone(), wms.clone());
        let local = {
            let reg = FunctionRegistry::with_builtins();
            let mut op =
                crate::ops::WindowOp::new("ts", &keys(), spec, aggs(), schema(), &reg).unwrap();
            let mut out = Vec::new();
            for (batch, wm) in batches.into_iter().zip(wms) {
                op.process(RecordBuffer::new(schema(), batch), &mut out)
                    .unwrap();
                op.on_watermark(wm, &mut out).unwrap();
            }
            op.on_eos(&mut out).unwrap();
            assert_eq!(op.late_drops(), 0, "ts=25 is live for open windows");
            data_records(&out)
        };
        assert_eq!(split, local);
        // The delta record's load must be visible in the open windows.
        let w10 = split
            .iter()
            .find(|r| r.get(1) == Some(&Value::Timestamp(10 * MICROS_PER_SEC)))
            .expect("[10,50) emitted");
        let sum = w10.get(4).unwrap().as_int().unwrap();
        assert!(sum > 30, "delta load folded in: {sum}");
    }

    #[test]
    fn late_partial_dropped_and_counted() {
        let reg = FunctionRegistry::with_builtins();
        let spec = WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        };
        let mut edge = WindowPartialOp::new("ts", &keys(), &spec, aggs(), schema(), &reg).unwrap();
        let mut cloud = WindowMergeOp::new("ts", &keys(), &spec, aggs(), schema(), &reg).unwrap();
        // Produce one partial row, then deliver it after the cloud's
        // watermark has already passed the slice's last window.
        let mut edge_out = Vec::new();
        edge.process(
            RecordBuffer::new(schema(), vec![rec(1, 0, 1.0, 1)]),
            &mut edge_out,
        )
        .unwrap();
        edge.on_eos(&mut edge_out).unwrap();
        let mut out = Vec::new();
        cloud.on_watermark(120 * MICROS_PER_SEC, &mut out).unwrap();
        for msg in edge_out {
            if let StreamMessage::Data(b) = msg {
                cloud.process(b, &mut out).unwrap();
            }
        }
        cloud.on_eos(&mut out).unwrap();
        assert!(data_records(&out).is_empty());
        assert_eq!(cloud.late_partials(), 1);
    }

    #[test]
    fn partial_schema_flattens_aggregate_snapshots() {
        let reg = FunctionRegistry::with_builtins();
        let op = WindowPartialOp::new(
            "ts",
            &keys(),
            &WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            aggs(),
            schema(),
            &reg,
        )
        .unwrap();
        assert_eq!(
            op.output_schema().to_string(),
            "(train: INT, slice_start: TIMESTAMP, slice_end: TIMESTAMP, n: INT, \
             sum_load: INT, min_speed: FLOAT, max_speed: FLOAT, avg_speed_p0: FLOAT, \
             avg_speed_p1: INT, last_speed_p0: TIMESTAMP, last_speed_p1: FLOAT)"
        );
    }

    #[test]
    fn split_window_detects_splittable_plans() {
        let keyed = Query::from("s").filter(col("speed").gt(lit(1.0))).window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("top", AggSpec::Max(col("speed"))),
            ],
        );
        let sw = split_window(&keyed).expect("splittable");
        assert_eq!(sw.window_idx, 1);
        assert_eq!(sw.keys.len(), 1);
        assert_eq!(sw.aggs.len(), 2);

        // Avg decomposes into a (sum, count) partial and now splits.
        let avg = Query::from("s").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("a", AggSpec::Avg(col("speed")))],
        );
        assert!(split_window(&avg).is_some(), "avg is edge-splittable");

        // Threshold windows are predicate-delimited, never split.
        let threshold = Query::from("s").window(
            vec![],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(1.0)),
                min_count: 1,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        assert!(split_window(&threshold).is_none());

        // A stateless plan has no window to split.
        let stateless = Query::from("s").filter(col("speed").gt(lit(1.0)));
        assert!(split_window(&stateless).is_none());
    }
}
