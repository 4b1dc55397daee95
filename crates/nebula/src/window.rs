//! Event-time windowing: tumbling, sliding and threshold windows with
//! pluggable aggregators.
//!
//! Tumbling and sliding windows are closed by watermarks and evaluated
//! by *stream slicing* ([`SliceLayout`]): each record aggregates into
//! exactly one `gcd(size, slide)`-wide slice per key, and closed windows
//! materialize by merging the covering slices — O(1) amortized work per
//! record however much the windows overlap. The merge rides on the
//! [`Aggregator`] partial contract, which the cluster runtime reuses to
//! ship per-slice partials across node boundaries. *Threshold windows* —
//! a NebulaStream signature feature — are predicate-delimited: a window
//! opens while the predicate holds and closes (emitting, if it saw at
//! least `min_count` records) when it stops holding.

use crate::analysis::Code;
use crate::buffer::{Column, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::expr::{col, numeric, Binder, BoundExpr, Expr, FunctionRegistry};
use crate::record::{Record, Row};
use crate::schema::{ReadSet, Schema};
use crate::value::{DataType, DurationUs, EventTime, Value};
use std::sync::Arc;

/// Window shape.
#[derive(Debug, Clone)]
pub enum WindowSpec {
    /// Fixed-size, non-overlapping windows aligned to the epoch.
    Tumbling {
        /// Window length (µs).
        size: DurationUs,
    },
    /// Fixed-size windows advancing by `slide` (µs).
    Sliding {
        /// Window length (µs).
        size: DurationUs,
        /// Slide step (µs).
        slide: DurationUs,
    },
    /// Predicate-delimited windows (NebulaStream threshold windows): the
    /// window spans a maximal run of records satisfying the predicate.
    Threshold {
        /// Open/extend condition, evaluated per record.
        predicate: Expr,
        /// Minimum record count for the window to emit.
        min_count: usize,
    },
}

impl WindowSpec {
    /// Validates the spec's invariants.
    pub fn validate(&self) -> Result<()> {
        match self {
            WindowSpec::Tumbling { size } if *size <= 0 => Err(NebulaError::Plan(
                "tumbling window size must be positive".into(),
            )),
            WindowSpec::Sliding { size, slide } if *size <= 0 || *slide <= 0 => Err(
                NebulaError::Plan("sliding window size and slide must be positive".into()),
            ),
            _ => Ok(()),
        }
    }

    /// Window starts containing event time `ts` (time-based specs only).
    pub fn assign(&self, ts: EventTime) -> Vec<EventTime> {
        match *self {
            WindowSpec::Tumbling { size } => {
                vec![ts.div_euclid(size) * size]
            }
            WindowSpec::Sliding { size, slide } => {
                let mut starts = Vec::with_capacity((size / slide).max(1) as usize);
                let mut start = ts.div_euclid(slide) * slide;
                while start + size > ts {
                    starts.push(start);
                    start -= slide;
                }
                starts
            }
            WindowSpec::Threshold { .. } => Vec::new(),
        }
    }

    /// Window length for time-based specs.
    pub fn size(&self) -> Option<DurationUs> {
        match self {
            WindowSpec::Tumbling { size } | WindowSpec::Sliding { size, .. } => Some(*size),
            WindowSpec::Threshold { .. } => None,
        }
    }
}

/// Total over every `i64`: the analyzer lays out windows whose
/// geometry it has just rejected.
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a.wrapping_rem(b));
    }
    a.wrapping_abs()
}

/// The stream-slicing geometry of a time window: event time partitions
/// into non-overlapping *slices* of `gcd(size, slide)` µs, each record
/// aggregates into exactly one slice per key, and windows materialize by
/// merging the `size / width` slices they cover — the shared-aggregation
/// scheme of the NebulaStream platform paper (Zeuch et al.). Tumbling
/// windows degenerate to one slice per window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceLayout {
    /// Window length (µs).
    pub size: DurationUs,
    /// Slide step (µs); equals `size` for tumbling windows.
    pub slide: DurationUs,
    /// Slice width: `gcd(size, slide)` (µs).
    pub width: DurationUs,
}

impl SliceLayout {
    /// The layout of a time-based spec (`None` for threshold windows).
    pub fn of(spec: &WindowSpec) -> Option<SliceLayout> {
        match *spec {
            WindowSpec::Tumbling { size } => Some(SliceLayout::new(size, size)),
            WindowSpec::Sliding { size, slide } => Some(SliceLayout::new(size, slide)),
            WindowSpec::Threshold { .. } => None,
        }
    }

    /// The layout of `size`-long windows advancing by `slide` (a
    /// tumbling window slides by its size).
    pub fn new(size: DurationUs, slide: DurationUs) -> SliceLayout {
        SliceLayout {
            size,
            slide,
            width: gcd(size, slide),
        }
    }

    /// Start of the slice containing `ts` (floors correctly for negative
    /// event times via `div_euclid`).
    pub fn slice_of(&self, ts: EventTime) -> EventTime {
        ts.div_euclid(self.width) * self.width
    }

    /// End of the latest window containing `ts`, or `None` when `ts`
    /// falls in a coverage gap (`slide > size`) and belongs to no window.
    /// A record is late exactly when this end is `<=` the watermark.
    pub fn latest_close(&self, ts: EventTime) -> Option<EventTime> {
        let w = ts.div_euclid(self.slide) * self.slide;
        (w + self.size > ts).then_some(w + self.size)
    }

    /// When the *first* window covering the slice closes — the earliest
    /// watermark at which an edge must ship the slice's partial.
    pub fn first_close(&self, slice: EventTime) -> EventTime {
        // Smallest covering start: ceil((slice + width - size) / slide).
        let need = slice + self.width - self.size;
        let w = -((-need).div_euclid(self.slide)) * self.slide;
        w + self.size
    }

    /// When the *last* window covering the slice closes — after this
    /// watermark the slice can never be read again and is retired.
    pub fn last_close(&self, slice: EventTime) -> EventTime {
        // Slices are multiples of `width`: when it equals the slide
        // (`slide` divides `size`), the slice starts the last window.
        if self.width == self.slide {
            return slice + self.size;
        }
        slice.div_euclid(self.slide) * self.slide + self.size
    }

    /// True when some window ends in `(after, upto]`. Windows close,
    /// and slices retire, only at window ends, so a watermark advancing
    /// across none of them changes no window state.
    pub fn ends_in(&self, after: EventTime, upto: EventTime) -> bool {
        let (size, slide) = (i128::from(self.size), i128::from(self.slide));
        // The first end past `after`: W + size, W the smallest multiple
        // of `slide` above `after - size`.
        let w = ((i128::from(after) - size).div_euclid(slide) + 1) * slide;
        upto > after && w + size <= i128::from(upto)
    }
}

/// Incremental aggregation state with partial-merge as part of the core
/// contract: every accumulator can snapshot its state as *partial
/// values* and absorb another accumulator's snapshot. Stream slicing
/// (see [`SliceLayout`]) materializes windows by merging the covering
/// slices' accumulators, and edge pre-aggregation ships the same
/// snapshots across the wire (see [`crate::preagg`]) — one contract
/// serves both.
///
/// The algebraic requirement: folding records into several accumulators
/// and merging their partials must equal folding all records into one
/// accumulator. Order-dependent aggregates satisfy it by carrying event
/// time in the partial (`first`/`last` keep the sample with the
/// extremal timestamp).
pub trait Aggregator: Send {
    /// Folds one row in: a [`Record`] on the row path, a row of a
    /// columnar buffer ([`Row::Buffer`]) when the window reads columns.
    /// [`Row::get`] reads a field in either layout, and
    /// [`BoundExpr::eval`] evaluates an expression over it.
    fn update(&mut self, row: Row<'_>) -> Result<()>;
    /// Folds rows `rows` of a columnar buffer in, in the listed order —
    /// how the window kernels feed one (key, slice) group at a time. The
    /// default calls [`Aggregator::update`] on each row in place, with
    /// no [`Record`] built; the built-ins override it with typed loops
    /// over the operand column.
    fn update_rows(&mut self, buf: &TupleBuffer, rows: &[u32]) -> Result<()> {
        for &row in rows {
            self.update(Row::Buffer(buf, row as usize))?;
        }
        Ok(())
    }
    /// Snapshots the accumulated state as partial values. The arity is
    /// fixed per aggregate (see [`AggSpec::partial_types`]); an empty
    /// accumulator snapshots as nulls.
    fn partial(&self) -> Result<Vec<Value>>;
    /// Folds a snapshot produced by [`Aggregator::partial`] back in.
    fn merge_partial(&mut self, partial: &[Value]) -> Result<()>;
    /// Non-destructively merges another accumulator of the same
    /// aggregate into this one (slice → window materialization).
    fn merge(&mut self, other: &dyn Aggregator) -> Result<()> {
        self.merge_partial(&other.partial()?)
    }
    /// The accumulator as `Any`, letting implementations fast-path
    /// [`Aggregator::merge`] between accumulators of their own type
    /// without materializing the partial snapshot. The default (`None`)
    /// keeps merges on the snapshot path.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
    /// Produces the final value.
    fn finish(&mut self) -> Result<Value>;
}

/// Creates aggregators and reports their output type; implemented by
/// plugins for custom window semantics (e.g. "assemble a MEOS sequence").
pub trait AggregatorFactory: Send + Sync {
    /// Output type given the input schema.
    fn output_type(&self, input: &Schema, registry: &FunctionRegistry) -> Result<DataType>;
    /// Creates one accumulator.
    fn create(&self, input: &Schema, registry: &FunctionRegistry) -> Result<Box<dyn Aggregator>>;
    /// True when this aggregate's partial snapshots may cross node
    /// boundaries (the values survive the wire, e.g. via a registered
    /// [`crate::wire::OpaqueWireCodec`]). Must agree with
    /// [`AggregatorFactory::partial_types`] returning `Some`. The
    /// default — `false` — keeps the aggregate whole: the cluster
    /// runtime then runs the entire window on a single node instead of
    /// pre-aggregating at the edge.
    fn splittable(&self) -> bool {
        false
    }
    /// The wire layout of this aggregate's partial snapshot — one
    /// [`DataType`] per partial column — or `None` when partials cannot
    /// cross node boundaries.
    fn partial_types(
        &self,
        input: &Schema,
        registry: &FunctionRegistry,
    ) -> Result<Option<Vec<DataType>>> {
        let _ = (input, registry);
        Ok(None)
    }
}

/// A window aggregate: what to compute and the output column name.
#[derive(Clone)]
pub struct WindowAgg {
    /// Output column name.
    pub name: String,
    /// Aggregate definition.
    pub spec: AggSpec,
}

impl WindowAgg {
    /// Builds a named aggregate.
    pub fn new(name: impl Into<String>, spec: AggSpec) -> Self {
        WindowAgg {
            name: name.into(),
            spec,
        }
    }
}

impl std::fmt::Debug for WindowAgg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WindowAgg({})", self.name)
    }
}

/// Built-in and custom aggregate functions.
#[derive(Clone)]
pub enum AggSpec {
    /// Record count.
    Count,
    /// Sum of an expression.
    Sum(Expr),
    /// Minimum of an expression.
    Min(Expr),
    /// Maximum of an expression.
    Max(Expr),
    /// Mean of an expression.
    Avg(Expr),
    /// First value in arrival order.
    First(Expr),
    /// Last value in arrival order.
    Last(Expr),
    /// Plugin-provided aggregator.
    Custom(Arc<dyn AggregatorFactory>),
}

impl AggSpec {
    /// Output type of the aggregate over `input`.
    pub fn output_type(&self, input: &Schema, registry: &FunctionRegistry) -> Result<DataType> {
        // The output type never depends on the event-time column.
        let ts = BoundExpr::Literal(Value::Null);
        let (_, t) = self.bind(input, &ts, &mut Binder::fail_fast(registry))?;
        Ok(t.unwrap_or(DataType::Null))
    }

    /// The wire layout of the aggregate's partial snapshot, or `None`
    /// when it cannot be split across node boundaries. `avg` decomposes
    /// into a (sum, count) partial; order-dependent `first`/`last`
    /// carry a (timestamp, value) partial.
    pub fn partial_types(
        &self,
        input: &Schema,
        registry: &FunctionRegistry,
    ) -> Result<Option<Vec<DataType>>> {
        let out = self.output_type(input, registry)?;
        Ok(match self {
            AggSpec::Count => Some(vec![DataType::Int]),
            AggSpec::Sum(_) | AggSpec::Min(_) | AggSpec::Max(_) => Some(vec![out]),
            AggSpec::Avg(_) => Some(vec![DataType::Float, DataType::Int]),
            AggSpec::First(_) | AggSpec::Last(_) => Some(vec![DataType::Timestamp, out]),
            AggSpec::Custom(f) => f.partial_types(input, registry)?,
        })
    }

    /// True when partial snapshots of this aggregate may cross node
    /// boundaries (schema-free check; see [`AggSpec::partial_types`]).
    pub fn splittable(&self) -> bool {
        match self {
            AggSpec::Custom(f) => f.splittable(),
            _ => true,
        }
    }

    /// Creates the accumulator. `ts_field` names the event-time column
    /// (order-dependent `first`/`last` track it in their partials).
    pub fn create(
        &self,
        input: &Schema,
        registry: &FunctionRegistry,
        ts_field: &str,
    ) -> Result<Box<dyn Aggregator>> {
        let (ts, _) = col(ts_field).bind(input, registry)?;
        match self.bind(input, &ts, &mut Binder::fail_fast(registry))?.0 {
            AggTemplate::Builtin(agg) => Ok(Box::new(BuiltinAccumulator {
                agg,
                state: AggState::EMPTY,
            })),
            AggTemplate::Custom(f) => f.create(input, registry),
        }
    }

    /// Binds the aggregate against `input` once, through `b`: the
    /// accumulator template (see [`AggTemplate`]) and the output type
    /// (`None` when poisoned). `ts` is the event-time column `first` and
    /// `last` order by.
    pub(crate) fn bind(
        &self,
        input: &Schema,
        ts: &BoundExpr,
        b: &mut Binder,
    ) -> Result<(AggTemplate, Option<DataType>)> {
        let (kind, e) = match self {
            AggSpec::Count => {
                let count = AggTemplate::Builtin(BuiltinAgg::count());
                return Ok((count, Some(DataType::Int)));
            }
            AggSpec::Sum(e) => (AggKind::Sum, e),
            AggSpec::Min(e) => (AggKind::Min, e),
            AggSpec::Max(e) => (AggKind::Max, e),
            AggSpec::Avg(e) => (AggKind::Avg, e),
            AggSpec::First(e) => (AggKind::First, e),
            AggSpec::Last(e) => (AggKind::Last, e),
            AggSpec::Custom(f) => {
                let t = f.output_type(input, b.registry());
                if let Err(e) = &t {
                    let msg = format!("aggregate factory rejected the input schema: {e}");
                    b.report(Code::OperatorInstantiation, msg)?;
                }
                return Ok((AggTemplate::Custom(f.clone()), t.ok()));
            }
        };
        let (expr, t) = e.bind_with(input, b)?;
        if let (AggKind::Sum | AggKind::Avg, Some(t)) = (kind, t.filter(|&t| !numeric(t))) {
            // The folds are numeric: any other input fails on its first row.
            let name = if kind == AggKind::Sum { "sum" } else { "avg" };
            let msg = format!("aggregate '{name}' requires numeric input, got {t}");
            b.report(Code::TypeMismatch, msg)?;
        }
        let agg = match kind {
            AggKind::First | AggKind::Last => BuiltinAgg::timed(expr, ts.clone(), kind),
            _ => BuiltinAgg::new(expr, kind),
        };
        let out = if kind == AggKind::Avg {
            Some(DataType::Float)
        } else {
            t
        };
        Ok((AggTemplate::Builtin(agg), out))
    }
}

/// An aggregate bound against its input schema once. Windows keep one
/// [`Acc`] per aggregate per slice, threshold window and materialized
/// window: a built-in's is plain [`AggState`] that the bound template
/// folds and merges, a plugin's comes from its factory.
#[derive(Clone)]
pub(crate) enum AggTemplate {
    Builtin(BuiltinAgg),
    Custom(Arc<dyn AggregatorFactory>),
}

/// One aggregate's accumulator, held inline by the window state. The
/// built-in arm is plain state — creating, copying, folding and merging
/// it allocates nothing and dispatches by `match`; the plugin arm is the
/// factory's boxed [`Aggregator`]. An `Acc` is only ever handed to the
/// [`AggTemplate`] that made it.
pub(crate) enum Acc {
    Builtin(AggState),
    Plugin(Box<dyn Aggregator>),
}

/// A built-in aggregate's accumulated state.
#[derive(Clone)]
pub(crate) struct AggState {
    count: u64,
    sum: f64,
    int_only: bool,
    best: Option<Value>,
    /// Event time of `best` (`first`/`last` only; meaningful when
    /// `best` is `Some`).
    best_ts: EventTime,
}

impl AggState {
    /// The state of an accumulator that has seen nothing.
    pub(crate) const EMPTY: AggState = AggState {
        count: 0,
        sum: 0.0,
        int_only: true,
        best: None,
        best_ts: EventTime::MIN,
    };
}

fn mismatched() -> NebulaError {
    NebulaError::Eval("accumulator does not belong to its aggregate".into())
}

impl AggTemplate {
    /// Marks the input columns the aggregate folds: a built-in's operand
    /// (and the event time `first`/`last` order by); every column for a
    /// plugin's, whose reads the engine cannot see.
    pub(crate) fn mark_reads(&self, reads: &mut ReadSet) {
        match self {
            AggTemplate::Builtin(agg) => {
                for e in agg.expr.iter().chain(&agg.ts) {
                    e.mark_reads(reads);
                }
            }
            AggTemplate::Custom(_) => reads.insert_all(),
        }
    }

    /// A fresh, empty accumulator (`input`/`registry`: what the
    /// template was bound against).
    pub(crate) fn empty(&self, input: &Schema, registry: &FunctionRegistry) -> Result<Acc> {
        match self {
            AggTemplate::Builtin(_) => Ok(Acc::Builtin(AggState::EMPTY)),
            AggTemplate::Custom(f) => Ok(Acc::Plugin(f.create(input, registry)?)),
        }
    }

    /// A deep copy of `acc`: a built-in's state clones, a plugin's
    /// fresh accumulator absorbs the original through
    /// [`Aggregator::merge`] (no `Clone` asked of plugins).
    pub(crate) fn copy(
        &self,
        acc: &Acc,
        input: &Schema,
        registry: &FunctionRegistry,
    ) -> Result<Acc> {
        match (self, acc) {
            (_, Acc::Builtin(st)) => Ok(Acc::Builtin(st.clone())),
            (AggTemplate::Custom(f), Acc::Plugin(p)) => {
                let mut fresh = f.create(input, registry)?;
                fresh.merge(p.as_ref())?;
                Ok(Acc::Plugin(fresh))
            }
            _ => Err(mismatched()),
        }
    }

    /// Folds one record in (the row path).
    pub(crate) fn update(&self, acc: &mut Acc, rec: &Record) -> Result<()> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => b.fold(st, rec.into()),
            (_, Acc::Plugin(p)) => p.update(rec.into()),
            _ => Err(mismatched()),
        }
    }

    /// Folds rows `rows` of `buf` in, in the listed order.
    pub(crate) fn update_rows(&self, acc: &mut Acc, buf: &TupleBuffer, rows: &[u32]) -> Result<()> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => b.update_rows(st, buf, rows),
            (_, Acc::Plugin(p)) => p.update_rows(buf, rows),
            _ => Err(mismatched()),
        }
    }

    /// Merges `others` (accumulators of this aggregate) into `acc`, in
    /// order — slice → window materialization: one typed loop per
    /// aggregate for a built-in, [`Aggregator::merge`] per accumulator
    /// for a plugin.
    pub(crate) fn merge_all<'a>(
        &self,
        acc: &mut Acc,
        mut others: impl Iterator<Item = &'a Acc>,
    ) -> Result<()> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => b.merge_all(
                st,
                others.map(|o| match o {
                    Acc::Builtin(o) => Ok(o),
                    Acc::Plugin(_) => Err(mismatched()),
                }),
            ),
            (_, Acc::Plugin(p)) => others.try_for_each(|o| match o {
                Acc::Plugin(o) => p.merge(o.as_ref()),
                Acc::Builtin(_) => Err(mismatched()),
            }),
            _ => Err(mismatched()),
        }
    }

    /// Folds a partial snapshot (see [`Aggregator::partial`]) in.
    pub(crate) fn merge_partial(&self, acc: &mut Acc, partial: &[Value]) -> Result<()> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => b.merge_partial(st, partial),
            (_, Acc::Plugin(p)) => p.merge_partial(partial),
            _ => Err(mismatched()),
        }
    }

    /// Appends `acc`'s partial snapshot to `out`.
    pub(crate) fn partial_into(&self, acc: &Acc, out: &mut Vec<Value>) -> Result<()> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => b.partial_into(st, out),
            (_, Acc::Plugin(p)) => out.extend(p.partial()?),
            _ => return Err(mismatched()),
        }
        Ok(())
    }

    /// The final value.
    pub(crate) fn finish(&self, acc: &mut Acc) -> Result<Value> {
        match (self, acc) {
            (AggTemplate::Builtin(b), Acc::Builtin(st)) => Ok(b.finish(st)),
            (_, Acc::Plugin(p)) => p.finish(),
            _ => Err(mismatched()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
pub(crate) enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
    First,
    Last,
}

/// A built-in aggregate bound against its input: the operand, the event
/// time `first`/`last` order by, and the kind. Its state lives apart, in
/// an [`AggState`].
#[derive(Clone)]
pub(crate) struct BuiltinAgg {
    expr: Option<BoundExpr>,
    /// Event-time expression (`first`/`last` only).
    ts: Option<BoundExpr>,
    kind: AggKind,
}

impl BuiltinAgg {
    fn count() -> Self {
        BuiltinAgg {
            expr: None,
            ts: None,
            kind: AggKind::Count,
        }
    }

    fn new(expr: BoundExpr, kind: AggKind) -> Self {
        BuiltinAgg {
            expr: Some(expr),
            ts: None,
            kind,
        }
    }

    fn timed(expr: BoundExpr, ts: BoundExpr, kind: AggKind) -> Self {
        BuiltinAgg {
            expr: Some(expr),
            ts: Some(ts),
            kind,
        }
    }

    /// `first`/`last` keep the sample at the extremal event time, so
    /// out-of-order delivery and slice/edge merging agree on one
    /// answer. Equal timestamps keep the incumbent for `first` and take
    /// the newcomer for `last` — arrival order, both when folding
    /// records directly and when merging partials: within one pipeline
    /// slice deltas arrive over FIFO channels in the order the edge
    /// absorbed them, and merges across *different* slices can never
    /// tie (their timestamp ranges are disjoint). When one group key
    /// spans several pipelines, equal-timestamp ties resolve in cloud
    /// fan-in arrival order — inherently race-ordered, exactly as they
    /// would be if the raw records themselves were interleaved at the
    /// cloud.
    fn takes_sample(&self, has_best: bool, ts: EventTime, best_ts: EventTime) -> bool {
        !has_best
            || if self.kind == AggKind::First {
                ts < best_ts
            } else {
                ts >= best_ts
            }
    }

    fn absorb_sample(&self, st: &mut AggState, ts: EventTime, v: &Value) {
        if self.takes_sample(st.best.is_some(), ts, st.best_ts) {
            st.best = Some(v.clone());
            st.best_ts = ts;
        }
    }

    /// The ordering a `min`/`max` candidate must have against the
    /// incumbent to replace it.
    fn wanted(&self) -> std::cmp::Ordering {
        if self.kind == AggKind::Min {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Greater
        }
    }

    /// Offers `v` as a `min`/`max` candidate.
    fn offer_extreme(&self, st: &mut AggState, v: &Value) {
        let replace = match &st.best {
            Some(b) => v.partial_cmp_num(b) == Some(self.wanted()),
            None => true,
        };
        if replace {
            st.best = Some(v.clone());
        }
    }

    /// The per-row fold behind the row path and the per-row fallback
    /// of [`BuiltinAgg::update_rows`]: evaluates the operand, and lazily
    /// the event time (first/last only), over `row`, so both layouts
    /// fold byte-identically. `count` has no operand.
    fn fold(&self, st: &mut AggState, row: Row<'_>) -> Result<()> {
        let Some(expr) = &self.expr else {
            st.count += 1;
            return Ok(());
        };
        let v = expr.eval(row)?;
        if v.is_null() {
            return Ok(());
        }
        st.count += 1;
        match self.kind {
            AggKind::Sum | AggKind::Avg => {
                if !matches!(v, Value::Int(_) | Value::Timestamp(_)) {
                    st.int_only = false;
                }
                st.sum += v
                    .as_float()
                    .ok_or_else(|| NebulaError::Eval(format!("aggregate over non-numeric {v}")))?;
            }
            AggKind::Min | AggKind::Max => self.offer_extreme(st, &v),
            AggKind::First | AggKind::Last => {
                let ts = match &self.ts {
                    Some(ts) => ts.eval(row)?.as_timestamp(),
                    None => None,
                }
                .ok_or_else(missing_event_time)?;
                self.absorb_sample(st, ts, &v);
            }
            // Counted above, as it has no operand.
            AggKind::Count => {}
        }
        Ok(())
    }

    /// A column-reference operand folds through a typed loop over the
    /// buffer's column; any other operand evaluates row by row, so only
    /// the listed rows ever evaluate — as on the row path.
    fn update_rows(&self, st: &mut AggState, buf: &TupleBuffer, rows: &[u32]) -> Result<()> {
        let col = match &self.expr {
            None => {
                st.count += rows.len() as u64;
                return Ok(());
            }
            Some(BoundExpr::Column(idx)) => buf.column(*idx),
            Some(_) => None,
        };
        if let Some(col) = col {
            if self.fold_column(st, col, buf, rows)? {
                return Ok(());
            }
        }
        for &row in rows {
            self.fold(st, Row::Buffer(buf, row as usize))?;
        }
        Ok(())
    }

    /// The typed fold of `rows` of the operand column `col`: the row
    /// path's fold, value for value and in the same order, without a
    /// boxed `Value` per row. Returns `false` when this aggregate has no
    /// typed loop for the column's layout, leaving the rows unfolded.
    fn fold_column(
        &self,
        st: &mut AggState,
        col: &Column,
        buf: &TupleBuffer,
        rows: &[u32],
    ) -> Result<bool> {
        let rows = rows.iter().map(|&r| r as usize);
        match self.kind {
            AggKind::Sum | AggKind::Avg => {
                let Some((nums, validity)) = Nums::of(col) else {
                    return Ok(false);
                };
                for r in rows.filter(|&r| validity.is_none_or(|m| m[r])) {
                    st.count += 1;
                    st.sum += nums.at(r);
                    if let Nums::Float(_) = nums {
                        st.int_only = false;
                    }
                }
            }
            AggKind::Min | AggKind::Max => {
                let Some((nums, validity)) = Nums::of(col) else {
                    return Ok(false);
                };
                // The incumbent as the row path compares it: `None` while
                // empty, `Some(None)` when it is not numeric (no number
                // ever replaces it).
                let mut best = st.best.as_ref().map(Value::as_float);
                let mut best_row = None;
                for r in rows.filter(|&r| validity.is_none_or(|m| m[r])) {
                    st.count += 1;
                    let x = nums.at(r);
                    let replace = match best {
                        None => true,
                        Some(b) => b.and_then(|b| x.partial_cmp(&b)) == Some(self.wanted()),
                    };
                    if replace {
                        best = Some(Some(x));
                        best_row = Some(r);
                    }
                }
                if let Some(r) = best_row {
                    st.best = Some(col.value_at(r));
                }
            }
            AggKind::First | AggKind::Last => {
                let Some(BoundExpr::Column(ts_col)) = self.ts else {
                    return Ok(false);
                };
                let (mut has_best, mut best_ts, mut best_row) =
                    (st.best.is_some(), st.best_ts, None);
                for r in rows.filter(|&r| !col.is_null(r)) {
                    st.count += 1;
                    let ts = buf.event_time(r, ts_col).ok_or_else(missing_event_time)?;
                    if self.takes_sample(has_best, ts, best_ts) {
                        (has_best, best_ts, best_row) = (true, ts, Some(r));
                    }
                }
                if let Some(r) = best_row {
                    st.best = Some(col.value_at(r));
                    st.best_ts = best_ts;
                }
            }
            AggKind::Count => st.count += rows.len() as u64,
        }
        Ok(true)
    }

    /// Appends the partial snapshot: the arity is fixed per kind (see
    /// [`AggSpec::partial_types`]), an empty state snapshots as nulls.
    fn partial_into(&self, st: &AggState, out: &mut Vec<Value>) {
        match self.kind {
            AggKind::Count => out.push(Value::Int(st.count as i64)),
            AggKind::Sum => out.push(self.finish(st)),
            AggKind::Avg => {
                out.push(Value::Float(st.sum));
                out.push(Value::Int(st.count as i64));
            }
            AggKind::Min | AggKind::Max => out.push(st.best.clone().unwrap_or(Value::Null)),
            AggKind::First | AggKind::Last => match &st.best {
                Some(v) => out.extend([Value::Timestamp(st.best_ts), v.clone()]),
                None => out.extend([Value::Null, Value::Null]),
            },
        }
    }

    fn merge_partial(&self, st: &mut AggState, partial: &[Value]) -> Result<()> {
        let arity_err = || NebulaError::Eval("aggregate partial has wrong arity".into());
        let p0 = partial.first().ok_or_else(arity_err)?;
        match self.kind {
            AggKind::Count => {
                st.count += p0.as_int().ok_or_else(arity_err)? as u64;
            }
            AggKind::Sum => match p0 {
                Value::Null => {}
                Value::Int(i) => {
                    st.count += 1;
                    st.sum += *i as f64;
                }
                other => {
                    st.count += 1;
                    st.int_only = false;
                    st.sum += other.as_float().ok_or_else(|| {
                        NebulaError::Eval(format!("cannot merge sum partial '{other}'"))
                    })?;
                }
            },
            AggKind::Avg => {
                let n = partial
                    .get(1)
                    .and_then(Value::as_int)
                    .ok_or_else(arity_err)?;
                if n > 0 {
                    st.sum += p0.as_float().ok_or_else(arity_err)?;
                    st.count += n as u64;
                }
            }
            AggKind::Min | AggKind::Max => {
                if !p0.is_null() {
                    st.count += 1;
                    self.offer_extreme(st, p0);
                }
            }
            AggKind::First | AggKind::Last => {
                if let Some(ts) = p0.as_timestamp() {
                    let v = partial.get(1).ok_or_else(arity_err)?;
                    self.absorb_sample(st, ts, v);
                }
            }
        }
        Ok(())
    }

    /// Merges other states of this aggregate in, in order: plain field
    /// arithmetic, observably identical to merging each one's partial
    /// snapshot in turn. The kind is matched once, and a `min`/`max` or
    /// `first`/`last` winner is cloned once, at the end.
    fn merge_all<'a>(
        &self,
        st: &mut AggState,
        others: impl Iterator<Item = Result<&'a AggState>>,
    ) -> Result<()> {
        match self.kind {
            AggKind::Count => {
                for o in others {
                    st.count += o?.count;
                }
            }
            AggKind::Sum | AggKind::Avg => {
                for o in others {
                    let o = o?;
                    if o.count > 0 {
                        st.count += o.count;
                        st.int_only &= o.int_only;
                        st.sum += o.sum;
                    }
                }
            }
            AggKind::Min | AggKind::Max => {
                let mut won: Option<&Value> = None;
                for o in others {
                    let o = o?;
                    let Some(v) = &o.best else { continue };
                    st.count += o.count;
                    let replace = match won.or(st.best.as_ref()) {
                        Some(b) => v.partial_cmp_num(b) == Some(self.wanted()),
                        None => true,
                    };
                    if replace {
                        won = Some(v);
                    }
                }
                if let Some(v) = won {
                    st.best = Some(v.clone());
                }
            }
            AggKind::First | AggKind::Last => {
                let mut won: Option<(EventTime, &Value)> = None;
                for o in others {
                    let o = o?;
                    let Some(v) = &o.best else { continue };
                    let (has_best, best_ts) = match won {
                        Some((ts, _)) => (true, ts),
                        None => (st.best.is_some(), st.best_ts),
                    };
                    if self.takes_sample(has_best, o.best_ts, best_ts) {
                        won = Some((o.best_ts, v));
                    }
                }
                if let Some((ts, v)) = won {
                    st.best = Some(v.clone());
                    st.best_ts = ts;
                }
            }
        }
        Ok(())
    }

    fn finish(&self, st: &AggState) -> Value {
        match self.kind {
            AggKind::Count => Value::Int(st.count as i64),
            AggKind::Sum => {
                if st.count == 0 {
                    Value::Null
                } else if st.int_only {
                    Value::Int(st.sum as i64)
                } else {
                    Value::Float(st.sum)
                }
            }
            AggKind::Avg => {
                if st.count == 0 {
                    Value::Null
                } else {
                    Value::Float(st.sum / st.count as f64)
                }
            }
            AggKind::Min | AggKind::Max | AggKind::First | AggKind::Last => {
                st.best.clone().unwrap_or(Value::Null)
            }
        }
    }
}

fn missing_event_time() -> NebulaError {
    NebulaError::Eval("first/last: record missing event time".into())
}

/// A numeric operand column as the typed folds read it: `f64` elements,
/// or `i64` ones (`Int`, `Timestamp`) widened at the read exactly like
/// [`Value::as_float`].
#[derive(Clone, Copy)]
enum Nums<'a> {
    Float(&'a [f64]),
    Int(&'a [i64]),
}

impl<'a> Nums<'a> {
    /// The column's numbers and validity; `None` for other layouts.
    fn of(col: &'a Column) -> Option<(Nums<'a>, Option<&'a [bool]>)> {
        match col {
            Column::Float { data, validity } => Some((Nums::Float(data), validity.as_deref())),
            Column::Int { data, validity } | Column::Timestamp { data, validity } => {
                Some((Nums::Int(data), validity.as_deref()))
            }
            _ => None,
        }
    }

    fn at(self, r: usize) -> f64 {
        match self {
            Nums::Float(d) => d[r],
            Nums::Int(d) => d[r] as f64,
        }
    }
}

/// A built-in aggregate as a standalone [`Aggregator`], what
/// [`AggSpec::create`] returns. Windows do not use it: they keep the
/// [`AggState`] inline.
struct BuiltinAccumulator {
    agg: BuiltinAgg,
    state: AggState,
}

impl Aggregator for BuiltinAccumulator {
    fn update(&mut self, row: Row<'_>) -> Result<()> {
        self.agg.fold(&mut self.state, row)
    }

    fn update_rows(&mut self, buf: &TupleBuffer, rows: &[u32]) -> Result<()> {
        self.agg.update_rows(&mut self.state, buf, rows)
    }

    fn partial(&self) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(2);
        self.agg.partial_into(&self.state, &mut out);
        Ok(out)
    }

    fn merge_partial(&mut self, partial: &[Value]) -> Result<()> {
        self.agg.merge_partial(&mut self.state, partial)
    }

    fn finish(&mut self) -> Result<Value> {
        Ok(self.agg.finish(&self.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn tumbling_assignment() {
        let w = WindowSpec::Tumbling { size: 10 };
        assert_eq!(w.assign(0), vec![0]);
        assert_eq!(w.assign(9), vec![0]);
        assert_eq!(w.assign(10), vec![10]);
        assert_eq!(w.assign(25), vec![20]);
        assert_eq!(w.assign(-1), vec![-10], "negative times floor correctly");
    }

    #[test]
    fn sliding_assignment() {
        let w = WindowSpec::Sliding { size: 10, slide: 5 };
        // ts=12 belongs to [10,20) and [5,15).
        let mut got = w.assign(12);
        got.sort_unstable();
        assert_eq!(got, vec![5, 10]);
        // slide == size behaves like tumbling.
        let t = WindowSpec::Sliding {
            size: 10,
            slide: 10,
        };
        assert_eq!(t.assign(12), vec![10]);
    }

    #[test]
    fn sliding_overlap_count() {
        let w = WindowSpec::Sliding {
            size: 60,
            slide: 15,
        };
        assert_eq!(
            w.assign(100).len(),
            4,
            "size/slide windows cover each instant"
        );
    }

    #[test]
    fn spec_validation() {
        assert!(WindowSpec::Tumbling { size: 0 }.validate().is_err());
        assert!(WindowSpec::Sliding { size: 10, slide: 0 }
            .validate()
            .is_err());
        assert!(WindowSpec::Tumbling { size: 1 }.validate().is_ok());
        assert!(WindowSpec::Threshold {
            predicate: lit(true),
            min_count: 0
        }
        .validate()
        .is_ok());
    }

    fn agg_schema() -> crate::schema::SchemaRef {
        Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Float)])
    }

    /// Records (ts = index, value) in arrival order.
    fn agg_recs(vals: &[Value]) -> Vec<Record> {
        vals.iter()
            .enumerate()
            .map(|(i, v)| Record::new(vec![Value::Timestamp(i as i64), v.clone()]))
            .collect()
    }

    fn run_agg(spec: &AggSpec, vals: &[Value]) -> Value {
        let reg = FunctionRegistry::with_builtins();
        let mut agg = spec.create(&agg_schema(), &reg, "ts").unwrap();
        for rec in agg_recs(vals) {
            agg.update((&rec).into()).unwrap();
        }
        agg.finish().unwrap()
    }

    #[test]
    fn builtin_aggregates() {
        let vals = [Value::Float(1.0), Value::Float(3.0), Value::Float(2.0)];
        assert_eq!(run_agg(&AggSpec::Count, &vals), Value::Int(3));
        assert_eq!(run_agg(&AggSpec::Sum(col("v")), &vals), Value::Float(6.0));
        assert_eq!(run_agg(&AggSpec::Min(col("v")), &vals), Value::Float(1.0));
        assert_eq!(run_agg(&AggSpec::Max(col("v")), &vals), Value::Float(3.0));
        assert_eq!(run_agg(&AggSpec::Avg(col("v")), &vals), Value::Float(2.0));
        assert_eq!(run_agg(&AggSpec::First(col("v")), &vals), Value::Float(1.0));
        assert_eq!(run_agg(&AggSpec::Last(col("v")), &vals), Value::Float(2.0));
    }

    #[test]
    fn aggregates_skip_nulls() {
        let vals = [Value::Null, Value::Float(4.0), Value::Null];
        assert_eq!(run_agg(&AggSpec::Avg(col("v")), &vals), Value::Float(4.0));
        assert_eq!(run_agg(&AggSpec::Min(col("v")), &vals), Value::Float(4.0));
        assert_eq!(
            run_agg(&AggSpec::Sum(col("v")), &[Value::Null]),
            Value::Null
        );
    }

    #[test]
    fn sum_stays_integer_for_ints() {
        let schema = Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Int)]);
        let reg = FunctionRegistry::with_builtins();
        let mut agg = AggSpec::Sum(col("v")).create(&schema, &reg, "ts").unwrap();
        for i in 1..=3i64 {
            let rec = Record::new(vec![Value::Timestamp(i), Value::Int(i)]);
            agg.update((&rec).into()).unwrap();
        }
        assert_eq!(agg.finish().unwrap(), Value::Int(6));
    }

    #[test]
    fn first_last_are_event_time_ordered() {
        // Out-of-order arrival: first/last pick the extremal event time,
        // not the extremal arrival position.
        let reg = FunctionRegistry::with_builtins();
        let rec = |ts: i64, v: f64| Record::new(vec![Value::Timestamp(ts), Value::Float(v)]);
        let feed = [rec(5, 50.0), rec(2, 20.0), rec(9, 90.0), rec(7, 70.0)];
        let mut first = AggSpec::First(col("v"))
            .create(&agg_schema(), &reg, "ts")
            .unwrap();
        let mut last = AggSpec::Last(col("v"))
            .create(&agg_schema(), &reg, "ts")
            .unwrap();
        for r in &feed {
            first.update(r.into()).unwrap();
            last.update(r.into()).unwrap();
        }
        assert_eq!(first.finish().unwrap(), Value::Float(20.0));
        assert_eq!(last.finish().unwrap(), Value::Float(90.0));
    }

    /// Split the values across two accumulators, merge the partials into
    /// a third, and compare with single-accumulator folding.
    fn assert_partials_merge(spec: &AggSpec, vals: &[Value]) {
        let reg = FunctionRegistry::with_builtins();
        let schema = agg_schema();
        let make = || spec.create(&schema, &reg, "ts").unwrap();
        let mut whole = make();
        let mut left = make();
        let mut right = make();
        for (i, rec) in agg_recs(vals).iter().enumerate() {
            whole.update(rec.into()).unwrap();
            if i % 2 == 0 { &mut left } else { &mut right }
                .update(rec.into())
                .unwrap();
        }
        let mut merged = make();
        merged.merge(&*left).unwrap();
        merged.merge(&*right).unwrap();
        assert_eq!(merged.finish().unwrap(), whole.finish().unwrap());
        let arity = spec.partial_types(&schema, &reg).unwrap().unwrap().len();
        assert_eq!(left.partial().unwrap().len(), arity, "declared arity");
    }

    #[test]
    fn every_builtin_aggregate_merges_partials() {
        let vals: Vec<Value> = [1.5, -3.0, 2.0, 2.0, 8.25].map(Value::Float).to_vec();
        assert_partials_merge(&AggSpec::Count, &vals);
        assert_partials_merge(&AggSpec::Sum(col("v")), &vals);
        assert_partials_merge(&AggSpec::Min(col("v")), &vals);
        assert_partials_merge(&AggSpec::Max(col("v")), &vals);
        assert_partials_merge(&AggSpec::Avg(col("v")), &vals);
        assert_partials_merge(&AggSpec::First(col("v")), &vals);
        assert_partials_merge(&AggSpec::Last(col("v")), &vals);
        // Empty partials merge as no-ops.
        assert_partials_merge(&AggSpec::Avg(col("v")), &[]);
        assert_partials_merge(&AggSpec::Sum(col("v")), &[Value::Null]);
        assert_partials_merge(&AggSpec::First(col("v")), &[]);
    }

    #[test]
    fn avg_partial_decomposes_into_sum_and_count() {
        let reg = FunctionRegistry::with_builtins();
        let mut agg = AggSpec::Avg(col("v"))
            .create(&agg_schema(), &reg, "ts")
            .unwrap();
        for rec in agg_recs(&[Value::Float(1.0), Value::Float(2.0)]) {
            agg.update((&rec).into()).unwrap();
        }
        assert_eq!(
            agg.partial().unwrap(),
            vec![Value::Float(3.0), Value::Int(2)]
        );
        assert_eq!(
            AggSpec::Avg(col("v"))
                .partial_types(&agg_schema(), &reg)
                .unwrap(),
            Some(vec![DataType::Float, DataType::Int])
        );
    }

    #[test]
    fn slice_layout_geometry() {
        let tumbling = SliceLayout::of(&WindowSpec::Tumbling { size: 10 }).unwrap();
        assert_eq!(tumbling.width, 10, "tumbling: one slice per window");
        assert_eq!(tumbling.slice_of(-1), -10, "negative times floor");
        assert_eq!(tumbling.first_close(20), 30);
        assert_eq!(tumbling.last_close(20), 30);

        let sliding = SliceLayout::of(&WindowSpec::Sliding {
            size: 60,
            slide: 25,
        })
        .unwrap();
        assert_eq!(sliding.width, 5, "gcd(60, 25)");
        // Windows and slices share the `width` alignment, so the windows
        // covering a slice are exactly the windows containing its start.
        let covering = WindowSpec::Sliding {
            size: 60,
            slide: 25,
        }
        .assign(50);
        assert_eq!(covering, vec![50, 25, 0], "windows containing the slice");
        assert_eq!(sliding.first_close(50), 60, "window [0,60) closes first");
        assert_eq!(sliding.last_close(50), 110, "window [50,110) closes last");
        assert_eq!(sliding.latest_close(50), Some(110));

        // Coverage gaps when slide > size: no window contains ts.
        let gappy = SliceLayout::of(&WindowSpec::Sliding {
            size: 10,
            slide: 15,
        })
        .unwrap();
        assert_eq!(gappy.width, 5);
        assert_eq!(gappy.latest_close(12), None, "12 falls between windows");
        assert_eq!(gappy.latest_close(16), Some(25));

        // Negative slices cover negative windows.
        let s = SliceLayout::of(&WindowSpec::Sliding { size: 10, slide: 5 }).unwrap();
        assert_eq!(s.first_close(-10), -5, "window [-15,-5) closes first");
        assert_eq!(s.last_close(-10), 0, "window [-10,0) closes last");
        assert!(SliceLayout::of(&WindowSpec::Threshold {
            predicate: lit(true),
            min_count: 1
        })
        .is_none());
    }

    #[test]
    fn output_types() {
        let schema = Schema::of(&[("v", DataType::Int)]);
        let reg = FunctionRegistry::with_builtins();
        assert_eq!(
            AggSpec::Count.output_type(&schema, &reg).unwrap(),
            DataType::Int
        );
        assert_eq!(
            AggSpec::Avg(col("v")).output_type(&schema, &reg).unwrap(),
            DataType::Float
        );
        assert_eq!(
            AggSpec::Max(col("v")).output_type(&schema, &reg).unwrap(),
            DataType::Int
        );
        assert!(AggSpec::Sum(col("missing"))
            .output_type(&schema, &reg)
            .is_err());
    }
}
