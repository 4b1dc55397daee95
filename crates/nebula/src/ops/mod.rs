//! Physical operators: push-based, buffer-batched, watermark-aware.
//!
//! An operator consumes [`StreamMessage`]s and pushes results into an
//! output vector; the runtime threads messages through the operator chain.
//! Custom operators enter plans through [`OperatorFactory`] — the second
//! half of the plugin mechanism (functions extend expressions, factories
//! extend the operator set).

mod cep;
mod window_op;

pub use cep::{CepOp, Pattern, PatternStep};
pub(crate) use window_op::sort_emission;
pub use window_op::WindowOp;

use crate::analysis::Code;
use crate::buffer::{Column, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::expr::{Binder, BoundExpr, Expr, FunctionRegistry};
use crate::record::{Record, RecordBuffer, Row, StreamMessage};
use crate::schema::{Field, ReadSet, Schema, SchemaRef};
use crate::value::{DataType, EventTime, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// A physical streaming operator.
pub trait Operator: Send {
    /// Operator name for plans and diagnostics.
    fn name(&self) -> &str;

    /// Output schema.
    fn output_schema(&self) -> SchemaRef;

    /// Processes one data buffer, pushing zero or more messages.
    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()>;

    /// True iff the operator has a native columnar kernel. The source
    /// builds [`TupleBuffer`]s only for a chain whose columnar-capable
    /// prefix starts at its first operator: `Force` needs just that
    /// head to opt in, `Auto` also needs some operator of the prefix to
    /// report [`Operator::columnar_benefit`]. An operator that does not
    /// opt in receives buffers through the default conversion.
    fn supports_columnar(&self) -> bool {
        false
    }

    /// Processes one columnar buffer. The default converts to the row
    /// layout and delegates to [`Operator::process`], so the per-record
    /// path stays the reference implementation every operator falls
    /// back to — and the batched kernels stay differentially testable
    /// against it.
    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.process(buf.to_record_buffer(), out)
    }

    /// True iff columnar input actually buys this operator vectorized
    /// work (as opposed to merely being accepted and evaluated per
    /// row). Drives [`crate::runtime::ColumnarMode::Auto`]'s decision
    /// whether transposing at the source pays for itself; a filter
    /// whose predicate is one opaque-geometry call accepts buffers but
    /// reports no benefit.
    fn columnar_benefit(&self) -> bool {
        false
    }

    /// Whether columnar buffers keep flowing out of this operator. Windows
    /// and CEP accept buffers but emit row aggregates / row matches, so
    /// the `Auto` gate stops scanning for downstream benefit past them.
    fn propagates_columnar(&self) -> bool {
        true
    }

    /// One step of the backward liveness pass behind every source's read
    /// set ([`crate::query::compile`]): marks in `reads`, sized to the
    /// input schema, the input columns this operator reads when the
    /// stages after it read the output columns in `live`. An operator
    /// reads the inputs of everything it evaluates — whether or not its
    /// result is live, so errors do not depend on the plan's tail — plus
    /// the input columns it passes through to a live output column. The
    /// default reads every input column: right for any operator whose
    /// column accesses the engine cannot see (plugin and row-only
    /// operators).
    fn reads(&self, live: &ReadSet, reads: &mut ReadSet) {
        let _ = live;
        reads.insert_all();
    }

    /// Handles a watermark; the default forwards it downstream. Stateful
    /// operators emit closed windows/matches first.
    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        out.push(StreamMessage::Watermark(wm));
        Ok(())
    }

    /// Handles end-of-stream; the default forwards it. Stateful operators
    /// flush remaining state first.
    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> Result<()> {
        out.push(StreamMessage::Eos);
        Ok(())
    }

    /// Records this operator dropped because they arrived after the
    /// watermark had closed every window that could have held them
    /// (stateless operators report 0). Each dropped record counts once,
    /// however many windows it missed; the runtimes sum the chain into
    /// [`crate::metrics::QueryMetrics::late_drops`].
    fn late_drops(&self) -> u64 {
        0
    }

    /// An estimate of the bytes of mutable state this operator currently
    /// holds (window slice stores, open CEP partials, …). Stateless
    /// operators report 0. The telemetry layer polls this as a gauge, so
    /// it should be cheap — an O(state entries) walk over container
    /// lengths, not a deep serialization.
    fn state_bytes(&self) -> usize {
        0
    }

    /// A deep copy of this operator including all mutable state. The
    /// cluster runtime copies every operator at the start of a chaos run
    /// (epoch 0) and at each checkpoint barrier, and a crash restores
    /// the newest sealed epoch's copies — the one recovery path, so
    /// every operator must provide it. Stateless operators copy their
    /// configuration; an error (a window aggregator that cannot merge)
    /// fails the run that asked for the copy.
    fn snapshot(&self) -> Result<Box<dyn Operator>>;
}

/// Sums the late-record drops of a compiled operator chain — how every
/// runtime folds per-operator counters into
/// [`crate::metrics::QueryMetrics::late_drops`].
pub(crate) fn chain_late_drops(ops: &[Box<dyn Operator>]) -> u64 {
    ops.iter().map(|o| o.late_drops()).sum()
}

/// Creates operators from an input schema — how plugins contribute whole
/// operators (trajectory assembly, geofencing, imputation) to query plans.
pub trait OperatorFactory: Send + Sync {
    /// Factory/operator name.
    fn name(&self) -> &str;
    /// Instantiates the operator against the upstream schema.
    fn create(&self, input: SchemaRef, registry: &FunctionRegistry) -> Result<Box<dyn Operator>>;
}

/// A canonical, hashable grouping key built from evaluated expressions.
/// Floats are encoded by bit pattern, so `-0.0` and `0.0` group apart —
/// acceptable for key use (keys are IDs, not measures). The encoding of
/// each value is self-delimiting (a type tag, then fixed-size or
/// length-prefixed bytes; only an opaque value's type tag is not), so a
/// key's bytes are the leading bytes of its emitted row's
/// [`record_sort_key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey(Box<[u8]>);

/// Lets key maps be probed with a borrowed byte string, so a lookup
/// builds no `GroupKey` (both hash as the same `[u8]`).
impl std::borrow::Borrow<[u8]> for GroupKey {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

impl GroupKey {
    /// Evaluates `exprs` on `rec` and encodes the results.
    pub fn evaluate(exprs: &[BoundExpr], rec: &Record) -> Result<(GroupKey, Vec<Value>)> {
        let mut values = Vec::with_capacity(exprs.len());
        let mut bytes = Vec::with_capacity(exprs.len() * 9);
        for e in exprs {
            let v = e.eval(rec)?;
            encode_value(&v, &mut bytes);
            values.push(v);
        }
        Ok((GroupKey(bytes.into_boxed_slice()), values))
    }

    /// Builds a key directly from already-evaluated values — how the
    /// cloud-side window merge regroups partial rows whose key columns
    /// arrive materialized instead of as expressions.
    pub fn from_values(values: &[Value]) -> GroupKey {
        let mut bytes = Vec::with_capacity(values.len() * 9);
        for v in values {
            encode_value(v, &mut bytes);
        }
        GroupKey(bytes.into_boxed_slice())
    }

    /// The canonical byte encoding — the hash input for partitioning.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// A multiplicative (Fx-style) hasher for the engine's key maps. Keys are
/// canonical byte strings the engine encodes itself and hashes a word at
/// a time: far cheaper per probe than the std SipHash, with no defence
/// against keys crafted to collide.
#[derive(Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    /// The product's high bits are its well-mixed ones; rotating them
    /// down serves tables that index by the low bits.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by [`GroupKey`] through [`KeyHasher`].
pub(crate) type KeyMap<V> = HashMap<GroupKey, V, std::hash::BuildHasherDefault<KeyHasher>>;

fn hash_key(bytes: &[u8]) -> u64 {
    let mut h = KeyHasher::default();
    std::hash::Hasher::write(&mut h, bytes);
    std::hash::Hasher::finish(&h)
}

fn hash_int(k: i64) -> u64 {
    (k as u64)
        .wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
        .rotate_left(26)
}

/// The group keys of one [`TupleBuffer`]: `ids[row]` names the row's
/// distinct key, and each distinct key's canonical bytes and values are
/// kept once, in first-appearance order. Stateful columnar kernels
/// resolve their per-key state once per distinct key per buffer and then
/// work on integer ids. An operator keeps one `BufferKeys` and refills it
/// per buffer ([`BufferKeys::evaluate`]), so steady state allocates
/// nothing: the distinct keys resolve through a small open-addressing
/// table of ids, probed with [`KeyHasher`], not a map of boxed keys.
#[derive(Default)]
pub(crate) struct BufferKeys {
    pub(crate) ids: Vec<u32>,
    /// Every distinct key's canonical bytes, back to back; key `i` ends
    /// at `ends[i]`.
    bytes: Vec<u8>,
    ends: Vec<usize>,
    /// Every distinct key's values, `arity` per key.
    values: Vec<Value>,
    arity: usize,
    /// The `Int` fast path's distinct keys, by id.
    ints: Vec<i64>,
    /// Open-addressing slots, a power of two at least twice the distinct
    /// keys: 0 is empty, `id + 1` names a key.
    table: Vec<u32>,
    /// The row being keyed, encoded.
    row: Vec<u8>,
}

impl BufferKeys {
    /// The id the general path gives a row outside the `live`
    /// selection (the fast paths key every row).
    pub(crate) const UNKEYED: u32 = u32::MAX;

    /// Distinct keys in the buffer.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Key `id`'s canonical bytes ([`GroupKey::bytes`]).
    pub(crate) fn bytes(&self, id: usize) -> &[u8] {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.bytes[start..self.ends[id]]
    }

    /// Key `id`'s values.
    pub(crate) fn values(&self, id: usize) -> &[Value] {
        &self.values[id * self.arity..(id + 1) * self.arity]
    }

    /// Key `id` as an owned [`GroupKey`] — for a key new to the state.
    pub(crate) fn key(&self, id: usize) -> GroupKey {
        GroupKey(self.bytes(id).into())
    }

    /// Evaluates `exprs` once over `buf`, replacing the previous buffer's
    /// keys. Callers read the ids of rows with `live[row]` only (every
    /// row when `live` is `None`); a key expression that errors on
    /// another row stays silent, exactly as on the row path, which never
    /// evaluates it there.
    pub(crate) fn evaluate(
        &mut self,
        exprs: &[BoundExpr],
        buf: &TupleBuffer,
        live: Option<&[bool]>,
    ) -> Result<()> {
        self.ids.clear();
        self.bytes.clear();
        self.ends.clear();
        self.values.clear();
        self.ints.clear();
        let size = self.table.len().max(16);
        self.table.clear();
        self.table.resize(size, 0);
        self.arity = exprs.len();
        let mut row_bytes = std::mem::take(&mut self.row);
        let keyed = self.key_rows(exprs, buf, live, &mut row_bytes);
        self.row = row_bytes;
        keyed
    }

    fn key_rows(
        &mut self,
        exprs: &[BoundExpr],
        buf: &TupleBuffer,
        live: Option<&[bool]>,
        row_bytes: &mut Vec<u8>,
    ) -> Result<()> {
        if exprs.is_empty() {
            self.ids.resize(buf.len(), 0);
            if !buf.is_empty() {
                self.intern(&[], |_| {});
            }
            return Ok(());
        }
        // Fast path: one null-free `Int` column (a train id) keys by its
        // `i64` slice, with no value materialized per row.
        if let [BoundExpr::Column(idx)] = exprs {
            if let Some(Column::Int {
                data,
                validity: None,
            }) = buf.column(*idx)
            {
                for &k in data {
                    let id = self.intern_int(k);
                    self.ids.push(id);
                }
                return Ok(());
            }
        }
        // General path: each expression evaluates once as a column; if
        // that fails on some row, key the selected rows one at a time so
        // only their errors surface.
        let columns: Option<Vec<Column>> = exprs.iter().map(|e| e.eval_column(buf).ok()).collect();
        for row in 0..buf.len() {
            if live.is_some_and(|m| !m[row]) {
                self.ids.push(Self::UNKEYED);
                continue;
            }
            row_bytes.clear();
            let id = match &columns {
                Some(cols) => {
                    for c in cols {
                        encode_value(&c.value_at(row), row_bytes);
                    }
                    self.intern(row_bytes, |v| {
                        v.extend(cols.iter().map(|c| c.value_at(row)))
                    })
                }
                None => {
                    let values = exprs
                        .iter()
                        .map(|e| e.eval(Row::Buffer(buf, row)))
                        .collect::<Result<Vec<_>>>()?;
                    for v in &values {
                        encode_value(v, row_bytes);
                    }
                    self.intern(row_bytes, |v| v.extend(values))
                }
            };
            self.ids.push(id);
        }
        Ok(())
    }

    /// The id of the key encoded as `key`: an existing one, or a new one
    /// whose values `push_values` appends.
    fn intern(&mut self, key: &[u8], push_values: impl FnOnce(&mut Vec<Value>)) -> u32 {
        let mask = self.table.len() - 1;
        let mut slot = hash_key(key) as usize & mask;
        loop {
            match self.table[slot] {
                0 => break,
                id if self.bytes(id as usize - 1) == key => return id - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.ends.len() as u32;
        self.bytes.extend_from_slice(key);
        self.ends.push(self.bytes.len());
        push_values(&mut self.values);
        self.table[slot] = id + 1;
        if self.ends.len() * 2 > self.table.len() {
            self.grow();
        }
        id
    }

    /// [`BufferKeys::intern`] for the `Int` fast path: probes by the
    /// integer itself, hashed by one multiplication.
    fn intern_int(&mut self, k: i64) -> u32 {
        let mask = self.table.len() - 1;
        let mut slot = hash_int(k) as usize & mask;
        loop {
            match self.table[slot] {
                0 => break,
                id if self.ints[id as usize - 1] == k => return id - 1,
                _ => slot = (slot + 1) & mask,
            }
        }
        let id = self.ends.len() as u32;
        encode_value(&Value::Int(k), &mut self.bytes);
        self.ends.push(self.bytes.len());
        self.values.push(Value::Int(k));
        self.ints.push(k);
        self.table[slot] = id + 1;
        if self.ends.len() * 2 > self.table.len() {
            self.grow();
        }
        id
    }

    /// Doubles the table and re-places every key.
    fn grow(&mut self) {
        let size = self.table.len() * 2;
        self.table.clear();
        self.table.resize(size, 0);
        for id in 0..self.ends.len() {
            let hash = match self.ints.get(id) {
                Some(&k) => hash_int(k),
                None => hash_key(self.bytes(id)),
            };
            let mut slot = hash as usize & (size - 1);
            while self.table[slot] != 0 {
                slot = (slot + 1) & (size - 1);
            }
            self.table[slot] = id as u32 + 1;
        }
    }
}

/// Every row's event time as one slice: borrowed from a null-free
/// `Timestamp`/`Int` column, otherwise gathered with the row path's
/// coercions. A row without an event time fails with the operator's
/// row-path error, `"<what>: record missing event time"`.
pub(crate) fn event_times<'a>(
    buf: &'a TupleBuffer,
    ts_col: usize,
    what: &str,
) -> Result<Cow<'a, [EventTime]>> {
    match buf.column(ts_col) {
        Some(
            Column::Timestamp {
                data,
                validity: None,
            }
            | Column::Int {
                data,
                validity: None,
            },
        ) => Ok(Cow::Borrowed(data)),
        _ => (0..buf.len())
            .map(|row| {
                buf.event_time(row, ts_col)
                    .ok_or_else(|| NebulaError::Eval(format!("{what}: record missing event time")))
            })
            .collect::<Result<Vec<_>>>()
            .map(Cow::Owned),
    }
}

/// Canonical byte encoding of a whole record: a total, deterministic sort
/// key so result sets from differently-ordered executions (threaded,
/// partitioned) can be order-normalized and compared.
///
/// Caveat: [`Value::Opaque`] encodes by type tag only (plugin payloads
/// have no stable byte form), so records that differ *only* in an opaque
/// payload tie under this key and keep their arrival order. Order
/// normalization is exact for primitive-typed columns; result sets
/// carrying opaque columns normalize up to those ties.
pub fn record_sort_key(rec: &Record) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(rec.len() * 9);
    for v in rec.values() {
        encode_value(v, &mut bytes);
    }
    bytes
}

pub(crate) fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(3);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Text(s) => {
            out.push(4);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Timestamp(t) => {
            out.push(5);
            out.extend_from_slice(&t.to_le_bytes());
        }
        Value::Point { x, y } => {
            out.push(6);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
            out.extend_from_slice(&y.to_bits().to_le_bytes());
        }
        Value::Opaque(o) => {
            out.push(7);
            out.extend_from_slice(o.type_tag().as_bytes());
        }
    }
}

/// Selection: keeps records satisfying a predicate.
#[derive(Clone)]
pub struct FilterOp {
    predicate: BoundExpr,
    schema: SchemaRef,
}

impl FilterOp {
    /// Binds `predicate` against `input`.
    pub fn new(predicate: &Expr, input: SchemaRef, registry: &FunctionRegistry) -> Result<Self> {
        Self::bind(predicate, input, &mut Binder::fail_fast(registry))
    }

    pub(crate) fn bind(predicate: &Expr, input: SchemaRef, b: &mut Binder) -> Result<Self> {
        b.at("filter");
        let (predicate, t) = predicate.bind_with(&input, b)?;
        if let Some(t) = t.filter(|&t| t != DataType::Bool && t != DataType::Null) {
            let msg = format!("filter predicate must be BOOL, got {t}");
            b.report(Code::PredicateNotBool, msg)?;
        }
        Ok(FilterOp {
            predicate,
            schema: input,
        })
    }
}

impl Operator for FilterOp {
    fn name(&self) -> &str {
        "filter"
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let schema = buf.schema().clone();
        let mut kept = Vec::with_capacity(buf.len());
        for rec in buf.into_records() {
            if self.predicate.eval_predicate(&rec)? {
                kept.push(rec);
            }
        }
        if !kept.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(schema, kept)));
        }
        Ok(())
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    fn columnar_benefit(&self) -> bool {
        self.predicate.vectorizes()
    }

    /// The predicate's columns, and every live column it passes on.
    fn reads(&self, live: &ReadSet, reads: &mut ReadSet) {
        self.predicate.mark_reads(reads);
        live.iter().for_each(|c| reads.insert(c));
    }

    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let mask = self.predicate.eval_mask(&buf)?;
        match mask.iter().filter(|&&k| k).count() {
            0 => {}
            kept if kept == buf.len() => out.push(StreamMessage::Columnar(buf)),
            _ => out.push(StreamMessage::Columnar(buf.filter(&mask))),
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        // Stateless: a copy of the configuration is a complete snapshot.
        Ok(Box::new(self.clone()))
    }
}

/// Projection: computes named expressions, optionally keeping the input
/// columns (`extend` mode, NebulaStream's `map` that adds attributes).
#[derive(Clone)]
pub struct MapOp {
    projections: Vec<BoundExpr>,
    extend: bool,
    schema: SchemaRef,
}

impl MapOp {
    /// Binds the projection list against `input`.
    pub fn new(
        projections: &[(String, Expr)],
        extend: bool,
        input: &SchemaRef,
        registry: &FunctionRegistry,
    ) -> Result<Self> {
        Self::bind(projections, extend, input, &mut Binder::fail_fast(registry))
    }

    pub(crate) fn bind(
        projections: &[(String, Expr)],
        extend: bool,
        input: &SchemaRef,
        b: &mut Binder,
    ) -> Result<Self> {
        let mut bound = Vec::with_capacity(projections.len());
        let mut fields: Vec<Field> = if extend {
            input.fields().to_vec()
        } else {
            Vec::new()
        };
        for (j, (name, e)) in projections.iter().enumerate() {
            b.at(format_args!("map/proj[{j}]"));
            let (e, t) = e.bind_with(input, b)?;
            bound.push(e);
            fields.push(Field::new(name.clone(), t.unwrap_or(DataType::Null)));
        }
        Ok(MapOp {
            projections: bound,
            extend,
            schema: Schema::new(fields),
        })
    }
}

impl Operator for MapOp {
    fn name(&self) -> &str {
        "map"
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let mut mapped = Vec::with_capacity(buf.len());
        for rec in buf.into_records() {
            let mut values = if self.extend {
                let mut v = rec.values().to_vec();
                v.reserve(self.projections.len());
                v
            } else {
                Vec::with_capacity(self.projections.len())
            };
            for p in &self.projections {
                values.push(p.eval(&rec)?);
            }
            mapped.push(Record::new(values));
        }
        if !mapped.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.schema.clone(),
                mapped,
            )));
        }
        Ok(())
    }

    fn supports_columnar(&self) -> bool {
        true
    }

    fn columnar_benefit(&self) -> bool {
        self.projections.iter().any(BoundExpr::vectorizes)
    }

    /// Every projection's columns (each is evaluated, live or not), and
    /// in extend mode the live input columns it keeps, which lead the
    /// output in input order.
    fn reads(&self, live: &ReadSet, reads: &mut ReadSet) {
        for p in &self.projections {
            p.mark_reads(reads);
        }
        if self.extend {
            live.iter().for_each(|c| reads.insert(c));
        }
    }

    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut projected = Vec::with_capacity(
            self.projections.len() + if self.extend { buf.columns().len() } else { 0 },
        );
        for p in &self.projections {
            projected.push(p.eval_column(&buf)?);
        }
        let (_, input_columns, meta) = buf.into_parts();
        let columns = if self.extend {
            // Extend mode reuses the input columns wholesale — the win
            // over the row path's per-record value-vector clone.
            let mut cols = input_columns;
            cols.extend(projected);
            cols
        } else {
            projected
        };
        out.push(StreamMessage::Columnar(TupleBuffer::new(
            self.schema.clone(),
            columns,
            meta,
        )));
        Ok(())
    }

    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

/// Stateless record-to-records expansion driven by a closure; the generic
/// escape hatch custom operators build on. The closure is shared, not
/// called mutably, so a snapshot is a second handle on it.
#[derive(Clone)]
pub struct FlatMapOp {
    name: String,
    schema: SchemaRef,
    #[allow(clippy::type_complexity)]
    f: Arc<dyn Fn(&Record, &mut Vec<Record>) -> Result<()> + Send + Sync>,
}

impl FlatMapOp {
    /// Builds a flat-map with an explicit output schema.
    pub fn new(
        name: impl Into<String>,
        schema: SchemaRef,
        f: impl Fn(&Record, &mut Vec<Record>) -> Result<()> + Send + Sync + 'static,
    ) -> Self {
        FlatMapOp {
            name: name.into(),
            schema,
            f: Arc::new(f),
        }
    }
}

impl Operator for FlatMapOp {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SchemaRef {
        self.schema.clone()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        let mut produced = Vec::new();
        for rec in buf.records() {
            (self.f)(rec, &mut produced)?;
        }
        if !produced.is_empty() {
            out.push(StreamMessage::Data(RecordBuffer::new(
                self.schema.clone(),
                produced,
            )));
        }
        Ok(())
    }

    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        Ok(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    fn schema() -> SchemaRef {
        Schema::of(&[("id", DataType::Int), ("v", DataType::Float)])
    }

    fn buf(rows: &[(i64, f64)]) -> RecordBuffer {
        RecordBuffer::new(
            schema(),
            rows.iter()
                .map(|&(id, v)| Record::new(vec![Value::Int(id), Value::Float(v)]))
                .collect(),
        )
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
    fn filter_keeps_matching() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = FilterOp::new(&col("v").gt(lit(1.0)), schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.process(buf(&[(1, 0.5), (2, 1.5), (3, 2.5)]), &mut out)
            .unwrap();
        let recs = data_records(&out);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].get(0), Some(&Value::Int(2)));
    }

    #[test]
    fn filter_empty_result_emits_nothing() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = FilterOp::new(&col("v").gt(lit(100.0)), schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.process(buf(&[(1, 0.5)]), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn filter_rejects_non_bool_predicate() {
        let reg = FunctionRegistry::with_builtins();
        assert!(FilterOp::new(&col("v").add(lit(1.0)), schema(), &reg).is_err());
    }

    #[test]
    fn map_projects() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = MapOp::new(
            &[("double".into(), col("v").mul(lit(2.0)))],
            false,
            &schema(),
            &reg,
        )
        .unwrap();
        assert_eq!(op.output_schema().to_string(), "(double: FLOAT)");
        let mut out = Vec::new();
        op.process(buf(&[(1, 1.5)]), &mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs[0].get(0), Some(&Value::Float(3.0)));
        assert_eq!(recs[0].len(), 1);
    }

    #[test]
    fn map_extend_keeps_input() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = MapOp::new(
            &[("flag".into(), col("v").gt(lit(1.0)))],
            true,
            &schema(),
            &reg,
        )
        .unwrap();
        assert_eq!(op.output_schema().len(), 3);
        let mut out = Vec::new();
        op.process(buf(&[(7, 2.0)]), &mut out).unwrap();
        let recs = data_records(&out);
        assert_eq!(recs[0].get(0), Some(&Value::Int(7)));
        assert_eq!(recs[0].get(2), Some(&Value::Bool(true)));
    }

    #[test]
    fn flatmap_expands() {
        let mut op = FlatMapOp::new("dup", schema(), |rec, out| {
            out.push(rec.clone());
            out.push(rec.clone());
            Ok(())
        });
        let mut out = Vec::new();
        op.process(buf(&[(1, 1.0)]), &mut out).unwrap();
        assert_eq!(data_records(&out).len(), 2);
    }

    #[test]
    fn default_watermark_and_eos_forward() {
        let reg = FunctionRegistry::with_builtins();
        let mut op = FilterOp::new(&lit(true), schema(), &reg).unwrap();
        let mut out = Vec::new();
        op.on_watermark(42, &mut out).unwrap();
        op.on_eos(&mut out).unwrap();
        assert!(matches!(out[0], StreamMessage::Watermark(42)));
        assert!(matches!(out[1], StreamMessage::Eos));
    }

    #[test]
    fn group_key_distinguishes_types_and_values() {
        let reg = FunctionRegistry::with_builtins();
        let (b, _) = col("id").bind(&schema(), &reg).unwrap();
        let exprs = vec![b];
        let r1 = Record::new(vec![Value::Int(1), Value::Float(0.0)]);
        let r2 = Record::new(vec![Value::Int(2), Value::Float(0.0)]);
        let (k1, v1) = GroupKey::evaluate(&exprs, &r1).unwrap();
        let (k1b, _) = GroupKey::evaluate(&exprs, &r1).unwrap();
        let (k2, _) = GroupKey::evaluate(&exprs, &r2).unwrap();
        assert_eq!(k1, k1b);
        assert_ne!(k1, k2);
        assert_eq!(v1, vec![Value::Int(1)]);
    }
}
