//! The columnar execution unit: [`TupleBuffer`].
//!
//! NebulaStream's runtime moves schema-typed *TupleBuffers* — fixed
//! capacity batches laid out column-wise — task-per-buffer through its
//! pipelines. [`TupleBuffer`] is the analogue: each field of the schema
//! is stored as one contiguous [`Column`] (fixed-width types in typed
//! vectors, varsized text in a side byte arena, opaque plugin payloads
//! as refcounted handles), together with per-buffer [`BufferMeta`]
//! (origin, sequence number, event-time bounds, watermark).
//!
//! The row-oriented [`crate::record::RecordBuffer`] remains the
//! reference representation: `from_records`/`to_record_buffer` convert
//! losslessly in both directions, which is what the differential test
//! suites pin the batched kernels against. A buffer built for a plan's
//! read set holds only the fields the plan reads; the rest are
//! [`Column::Absent`].

use crate::record::{Record, RecordBuffer};
use crate::schema::{ReadSet, Schema, SchemaRef};
use crate::value::{DataType, EventTime, OpaqueValue, Value};
use std::borrow::Borrow;
use std::sync::Arc;

/// One field of a [`TupleBuffer`], stored contiguously.
///
/// Typed variants carry an optional validity mask (`None` = no nulls;
/// `Some(mask)` with `mask[i] == false` marks row `i` null). A column
/// whose runtime values do not fit a single primitive type (mixed
/// actual types, e.g. an `if` call returning different branches) falls
/// back to the boxed [`Column::Values`] form, keeping conversion
/// lossless for every value the row engine can produce.
#[derive(Debug, Clone)]
pub enum Column {
    /// Booleans.
    Bool {
        /// Packed values (`false` at null rows).
        data: Vec<bool>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// 64-bit integers.
    Int {
        /// Packed values (`0` at null rows).
        data: Vec<i64>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// 64-bit floats.
    Float {
        /// Packed values (`0.0` at null rows).
        data: Vec<f64>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// Event timestamps (microseconds).
    Timestamp {
        /// Packed values (`0` at null rows).
        data: Vec<i64>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// 2-D points, split into coordinate planes.
    Point {
        /// X coordinates.
        xs: Vec<f64>,
        /// Y coordinates.
        ys: Vec<f64>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// Varsized UTF-8 text in a side arena with per-row offsets.
    Text {
        /// Concatenated bytes of every non-null row.
        arena: Vec<u8>,
        /// `offsets[i]..offsets[i+1]` is row `i`'s slice of the arena.
        offsets: Vec<u32>,
        /// Validity mask; `None` when no row is null.
        validity: Option<Vec<bool>>,
    },
    /// Opaque plugin payloads (MEOS temporals etc.), `None` = null.
    Opaque(Vec<Option<Arc<dyn OpaqueValue>>>),
    /// Fallback: boxed values for columns with mixed runtime types.
    Values(Vec<Value>),
    /// A field nothing downstream reads (outside the plan's
    /// [`ReadSet`]): its row count and no storage. It keeps the field's
    /// position, so column indices do not change; gathers, splits and
    /// appends keep it absent in O(1), and a value read from it is
    /// null. The wire ships it as its type tag and length.
    Absent(usize),
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool { data, .. } => data.len(),
            Column::Int { data, .. } | Column::Timestamp { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Point { xs, .. } => xs.len(),
            Column::Text { offsets, .. } => offsets.len().saturating_sub(1),
            Column::Opaque(v) => v.len(),
            Column::Values(v) => v.len(),
            Column::Absent(n) => *n,
        }
    }

    /// True iff the field was not built (see [`Column::Absent`]).
    pub fn is_absent(&self) -> bool {
        matches!(self, Column::Absent(_))
    }

    /// True iff the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty column laid out for `dtype` with room for `cap` rows —
    /// how a column whose type is known up front (a schema field, a
    /// call's bind-time return type) starts. `Null` names no layout and
    /// starts in the boxed fallback.
    pub fn with_type(dtype: DataType, cap: usize) -> Column {
        match dtype {
            DataType::Bool => Column::Bool {
                data: Vec::with_capacity(cap),
                validity: None,
            },
            DataType::Int => Column::Int {
                data: Vec::with_capacity(cap),
                validity: None,
            },
            DataType::Float => Column::Float {
                data: Vec::with_capacity(cap),
                validity: None,
            },
            DataType::Timestamp => Column::Timestamp {
                data: Vec::with_capacity(cap),
                validity: None,
            },
            DataType::Point => Column::Point {
                xs: Vec::with_capacity(cap),
                ys: Vec::with_capacity(cap),
                validity: None,
            },
            DataType::Text => {
                let mut offsets = Vec::with_capacity(cap + 1);
                offsets.push(0u32);
                Column::Text {
                    arena: Vec::new(),
                    offsets,
                    validity: None,
                }
            }
            DataType::Opaque => Column::Opaque(Vec::with_capacity(cap)),
            DataType::Null => Column::Values(Vec::with_capacity(cap)),
        }
    }

    /// Appends one row without taking ownership of `v`: a value of the
    /// column's own type lands in the typed storage, a null in the
    /// validity mask, and a value whose runtime type contradicts the
    /// layout degrades the whole column to [`Column::Values`] (lossless
    /// fallback) before it is appended.
    pub fn push(&mut self, v: &Value) {
        match (&mut *self, v) {
            (Column::Bool { data, validity }, Value::Bool(b)) => {
                push_validity(validity, data.len(), true);
                data.push(*b);
            }
            (Column::Int { data, validity }, Value::Int(i)) => {
                push_validity(validity, data.len(), true);
                data.push(*i);
            }
            (Column::Float { data, validity }, Value::Float(f)) => {
                push_validity(validity, data.len(), true);
                data.push(*f);
            }
            (Column::Timestamp { data, validity }, Value::Timestamp(t)) => {
                push_validity(validity, data.len(), true);
                data.push(*t);
            }
            (Column::Point { xs, ys, validity }, Value::Point { x, y }) => {
                push_validity(validity, xs.len(), true);
                xs.push(*x);
                ys.push(*y);
            }
            (
                Column::Text {
                    arena,
                    offsets,
                    validity,
                },
                Value::Text(s),
            ) => {
                push_validity(validity, offsets.len().saturating_sub(1), true);
                arena.extend_from_slice(s.as_bytes());
                offsets.push(arena.len() as u32);
            }
            (Column::Opaque(data), Value::Opaque(o)) => data.push(Some(o.clone())),
            (Column::Values(data), v) => data.push(v.clone()),
            (_, Value::Null) => self.push_null(),
            (Column::Absent(n), _) => *n += 1,
            (_, v) => {
                *self = Column::Values((0..self.len()).map(|i| self.value_at(i)).collect());
                self.push(v);
            }
        }
    }

    /// Appends one null row.
    fn push_null(&mut self) {
        match self {
            Column::Bool { data, validity } => {
                push_validity(validity, data.len(), false);
                data.push(false);
            }
            Column::Int { data, validity } | Column::Timestamp { data, validity } => {
                push_validity(validity, data.len(), false);
                data.push(0);
            }
            Column::Float { data, validity } => {
                push_validity(validity, data.len(), false);
                data.push(0.0);
            }
            Column::Point { xs, ys, validity } => {
                push_validity(validity, xs.len(), false);
                xs.push(0.0);
                ys.push(0.0);
            }
            Column::Text {
                arena,
                offsets,
                validity,
            } => {
                push_validity(validity, offsets.len().saturating_sub(1), false);
                offsets.push(arena.len() as u32);
            }
            Column::Opaque(data) => data.push(None),
            Column::Values(data) => data.push(Value::Null),
            Column::Absent(n) => *n += 1,
        }
    }

    /// Materializes row `idx` as a [`Value`]. Panics if out of range.
    pub fn value_at(&self, idx: usize) -> Value {
        fn valid(validity: &Option<Vec<bool>>, idx: usize) -> bool {
            validity.as_ref().is_none_or(|m| m[idx])
        }
        match self {
            Column::Bool { data, validity } => {
                if valid(validity, idx) {
                    Value::Bool(data[idx])
                } else {
                    Value::Null
                }
            }
            Column::Int { data, validity } => {
                if valid(validity, idx) {
                    Value::Int(data[idx])
                } else {
                    Value::Null
                }
            }
            Column::Float { data, validity } => {
                if valid(validity, idx) {
                    Value::Float(data[idx])
                } else {
                    Value::Null
                }
            }
            Column::Timestamp { data, validity } => {
                if valid(validity, idx) {
                    Value::Timestamp(data[idx])
                } else {
                    Value::Null
                }
            }
            Column::Point { xs, ys, validity } => {
                if valid(validity, idx) {
                    Value::Point {
                        x: xs[idx],
                        y: ys[idx],
                    }
                } else {
                    Value::Null
                }
            }
            Column::Text {
                arena,
                offsets,
                validity,
            } => {
                if valid(validity, idx) {
                    text_value(&arena[offsets[idx] as usize..offsets[idx + 1] as usize])
                } else {
                    Value::Null
                }
            }
            Column::Opaque(v) => match &v[idx] {
                Some(o) => Value::Opaque(o.clone()),
                None => Value::Null,
            },
            Column::Values(v) => v[idx].clone(),
            Column::Absent(_) => Value::Null,
        }
    }

    /// True iff row `idx` is null.
    pub fn is_null(&self, idx: usize) -> bool {
        match self {
            Column::Bool { validity, .. }
            | Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Timestamp { validity, .. }
            | Column::Point { validity, .. }
            | Column::Text { validity, .. } => validity.as_ref().is_some_and(|m| !m[idx]),
            Column::Opaque(v) => v[idx].is_none(),
            Column::Values(v) => v[idx].is_null(),
            Column::Absent(_) => true,
        }
    }

    /// Estimated payload bytes, matching the row path's
    /// [`Value::est_bytes`] sum exactly (nulls count 1 byte).
    pub fn est_bytes(&self) -> usize {
        let fixed = |validity: &Option<Vec<bool>>, n: usize, w: usize| -> usize {
            match validity {
                None => n * w,
                Some(m) => m.iter().map(|&v| if v { w } else { 1 }).sum(),
            }
        };
        match self {
            Column::Bool { data, .. } => data.len(),
            Column::Int { data, validity } | Column::Timestamp { data, validity } => {
                fixed(validity, data.len(), 8)
            }
            Column::Float { data, validity } => fixed(validity, data.len(), 8),
            Column::Point { xs, validity, .. } => fixed(validity, xs.len(), 16),
            Column::Text {
                arena,
                offsets,
                validity,
            } => match validity {
                None => arena.len() + 4 * (offsets.len().saturating_sub(1)),
                Some(m) => {
                    let nulls = m.iter().filter(|&&v| !v).count();
                    arena.len() + 4 * (m.len() - nulls) + nulls
                }
            },
            Column::Opaque(v) => v
                .iter()
                .map(|o| o.as_ref().map_or(1, |o| o.est_bytes()))
                .sum(),
            Column::Values(v) => v.iter().map(Value::est_bytes).sum(),
            Column::Absent(_) => 0,
        }
    }

    /// Appends row `i`'s value to `rows[i]`, for every row — the
    /// column-at-a-time half of [`TupleBuffer::to_record_buffer`].
    fn append_to_rows(&self, rows: &mut [Record]) {
        /// Spreads a typed sequence with its validity over the rows.
        fn spread<T>(
            rows: &mut [Record],
            items: impl Iterator<Item = T>,
            validity: &Option<Vec<bool>>,
            make: impl Fn(T) -> Value,
        ) {
            match validity {
                None => {
                    for (row, x) in rows.iter_mut().zip(items) {
                        row.push(make(x));
                    }
                }
                Some(m) => {
                    for ((row, x), &ok) in rows.iter_mut().zip(items).zip(m) {
                        row.push(if ok { make(x) } else { Value::Null });
                    }
                }
            }
        }
        match self {
            Column::Bool { data, validity } => {
                spread(rows, data.iter(), validity, |&b| Value::Bool(b))
            }
            Column::Int { data, validity } => {
                spread(rows, data.iter(), validity, |&i| Value::Int(i))
            }
            Column::Float { data, validity } => {
                spread(rows, data.iter(), validity, |&f| Value::Float(f))
            }
            Column::Timestamp { data, validity } => {
                spread(rows, data.iter(), validity, |&t| Value::Timestamp(t))
            }
            Column::Point { xs, ys, validity } => {
                spread(rows, xs.iter().zip(ys), validity, |(&x, &y)| Value::Point {
                    x,
                    y,
                })
            }
            Column::Text {
                arena,
                offsets,
                validity,
            } => spread(rows, offsets.windows(2), validity, |w| {
                text_value(&arena[w[0] as usize..w[1] as usize])
            }),
            Column::Opaque(data) => {
                for (row, o) in rows.iter_mut().zip(data) {
                    row.push(o.clone().map_or(Value::Null, Value::Opaque));
                }
            }
            Column::Values(data) => {
                for (row, v) in rows.iter_mut().zip(data) {
                    row.push(v.clone());
                }
            }
            Column::Absent(_) => rows.iter_mut().for_each(|row| row.push(Value::Null)),
        }
    }

    /// Rows at `indices`, in order (partition gather).
    pub fn gather(&self, indices: &[usize]) -> Column {
        let gv = |validity: &Option<Vec<bool>>| -> Option<Vec<bool>> {
            validity
                .as_ref()
                .map(|m| indices.iter().map(|&i| m[i]).collect())
        };
        match self {
            Column::Bool { data, validity } => Column::Bool {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: gv(validity),
            },
            Column::Int { data, validity } => Column::Int {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: gv(validity),
            },
            Column::Float { data, validity } => Column::Float {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: gv(validity),
            },
            Column::Timestamp { data, validity } => Column::Timestamp {
                data: indices.iter().map(|&i| data[i]).collect(),
                validity: gv(validity),
            },
            Column::Point { xs, ys, validity } => Column::Point {
                xs: indices.iter().map(|&i| xs[i]).collect(),
                ys: indices.iter().map(|&i| ys[i]).collect(),
                validity: gv(validity),
            },
            Column::Text {
                arena,
                offsets,
                validity,
            } => {
                let mut new_arena = Vec::new();
                let mut new_offsets = Vec::with_capacity(indices.len() + 1);
                new_offsets.push(0u32);
                for &i in indices {
                    new_arena
                        .extend_from_slice(&arena[offsets[i] as usize..offsets[i + 1] as usize]);
                    new_offsets.push(new_arena.len() as u32);
                }
                Column::Text {
                    arena: new_arena,
                    offsets: new_offsets,
                    validity: gv(validity),
                }
            }
            Column::Opaque(v) => Column::Opaque(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Values(v) => Column::Values(indices.iter().map(|&i| v[i].clone()).collect()),
            Column::Absent(_) => Column::Absent(indices.len()),
        }
    }

    /// Splits into rows `[0, at)` and `[at, len)`.
    pub fn split_at(&self, at: usize) -> (Column, Column) {
        let n = self.len();
        if self.is_absent() {
            return (Column::Absent(at), Column::Absent(n - at));
        }
        let head: Vec<usize> = (0..at).collect();
        let tail: Vec<usize> = (at..n).collect();
        (self.gather(&head), self.gather(&tail))
    }

    /// Appends all rows of `other` (same logical field). Matching
    /// layouts extend their typed storage in one pass each — values,
    /// validity masks, text arenas (offsets shifted by the arena
    /// length), opaque handles; an empty side takes the other's layout;
    /// any other mismatch degrades the column to [`Column::Values`]
    /// (lossless), as [`Column::push`] does. A field absent on either
    /// side is absent in the result: nothing reads it.
    pub fn append(&mut self, other: &Column) {
        let len = self.len();
        if other.is_empty() {
            return;
        }
        if len == 0 {
            *self = other.clone();
            return;
        }
        match (&mut *self, other) {
            (Column::Absent(n), o) => *n += o.len(),
            (_, Column::Absent(m)) => *self = Column::Absent(len + m),
            (
                Column::Bool { data, validity },
                Column::Bool {
                    data: d,
                    validity: v,
                },
            ) => {
                extend_validity(validity, len, v.as_deref(), d.len());
                data.extend_from_slice(d);
            }
            (
                Column::Int { data, validity },
                Column::Int {
                    data: d,
                    validity: v,
                },
            )
            | (
                Column::Timestamp { data, validity },
                Column::Timestamp {
                    data: d,
                    validity: v,
                },
            ) => {
                extend_validity(validity, len, v.as_deref(), d.len());
                data.extend_from_slice(d);
            }
            (
                Column::Float { data, validity },
                Column::Float {
                    data: d,
                    validity: v,
                },
            ) => {
                extend_validity(validity, len, v.as_deref(), d.len());
                data.extend_from_slice(d);
            }
            (
                Column::Point { xs, ys, validity },
                Column::Point {
                    xs: oxs,
                    ys: oys,
                    validity: v,
                },
            ) => {
                extend_validity(validity, len, v.as_deref(), oxs.len());
                xs.extend_from_slice(oxs);
                ys.extend_from_slice(oys);
            }
            (
                Column::Text {
                    arena,
                    offsets,
                    validity,
                },
                Column::Text {
                    arena: a,
                    offsets: o,
                    validity: v,
                },
            ) => {
                extend_validity(validity, len, v.as_deref(), other.len());
                let (first, last) = (o[0], o[o.len() - 1]);
                let base = arena.len() as u32;
                arena.extend_from_slice(&a[first as usize..last as usize]);
                offsets.extend(o[1..].iter().map(|&end| end - first + base));
            }
            (Column::Opaque(data), Column::Opaque(o)) => data.extend_from_slice(o),
            (Column::Values(data), other) => {
                data.extend((0..other.len()).map(|i| other.value_at(i)))
            }
            (_, other) => {
                *self = Column::Values((0..len).map(|i| self.value_at(i)).collect());
                self.append(other);
            }
        }
    }
}

/// One row's slice of a text arena as a [`Value`]. The arena only ever
/// receives `&str` bytes, sliced back at the offsets recorded with them,
/// so the lossy conversion never replaces anything — it only spares the
/// hot path a panic site.
fn text_value(bytes: &[u8]) -> Value {
    Value::Text(Arc::from(&*String::from_utf8_lossy(bytes)))
}

/// Records row number `rows` (0-based) as valid or null in a validity
/// mask that only comes into being at the column's first null.
#[inline]
fn push_validity(validity: &mut Option<Vec<bool>>, rows: usize, valid: bool) {
    match validity {
        Some(m) => m.push(valid),
        None if valid => {}
        None => {
            let mut m = vec![true; rows];
            m.push(false);
            *validity = Some(m);
        }
    }
}

/// Extends the validity mask of a `rows`-row column by `other`'s mask
/// over `added` rows (`None` = all valid); the mask comes into being
/// only when `other` has one.
fn extend_validity(
    validity: &mut Option<Vec<bool>>,
    rows: usize,
    other: Option<&[bool]>,
    added: usize,
) {
    match (validity.as_mut(), other) {
        (None, None) => {}
        (Some(m), None) => m.resize(rows + added, true),
        (Some(m), Some(o)) => m.extend_from_slice(o),
        (None, Some(o)) => {
            let mut m = Vec::with_capacity(rows + added);
            m.resize(rows, true);
            m.extend_from_slice(o);
            *validity = Some(m);
        }
    }
}

/// Incrementally builds a [`Column`] whose type is *not* known up front
/// (an expression result without a bind-time type),
/// inferring the densest representation: the first non-null value fixes
/// the typed layout; a later value of a different runtime type degrades
/// the whole column to [`Column::Values`] (lossless fallback). When the
/// type is known — a schema field, a call's return type — seed the
/// layout with [`Column::with_type`] and [`Column::push`] into it
/// directly.
pub struct ColumnBuilder {
    col: Option<Column>,
    /// Leading nulls seen before the type was decided.
    leading_nulls: usize,
    cap: usize,
}

impl ColumnBuilder {
    /// A builder expecting about `cap` rows.
    pub fn with_capacity(cap: usize) -> Self {
        ColumnBuilder {
            col: None,
            leading_nulls: 0,
            cap,
        }
    }

    /// Appends one value.
    pub fn push(&mut self, v: &Value) {
        match &mut self.col {
            Some(col) => col.push(v),
            None if v.is_null() => self.leading_nulls += 1,
            None => {
                let cap = self.cap.max(self.leading_nulls + 1);
                let mut col = Column::with_type(v.data_type(), cap);
                for _ in 0..self.leading_nulls {
                    col.push_null();
                }
                col.push(v);
                self.col = Some(col);
            }
        }
    }

    /// Finishes the column, resolving an all-null column to the boxed
    /// fallback.
    pub fn finish(self) -> Column {
        match self.col {
            Some(c) => c,
            None => Column::Values(vec![Value::Null; self.leading_nulls]),
        }
    }
}

/// The one rows→columns routine: every transposition of records —
/// [`TupleBuffer::from_records`], the sources' columnar reads, the wire
/// encoder's row batches — goes through it. Row-major: each record is
/// read once, its fields in `reads` pushed into their columns in one
/// pass (an owned record is dropped right after, while still in cache),
/// and every other field is built as [`Column::Absent`]. Each column is
/// laid out for its field's type; a null or missing field (a record
/// shorter than the schema, as the row path's out-of-range reads) goes
/// to the validity mask, and a value whose runtime type contradicts the
/// field's type degrades that one column to [`Column::Values`]
/// ([`Column::push`]). Returns the row count and the columns.
pub(crate) fn transpose<R: Borrow<Record>>(
    schema: &Schema,
    records: impl IntoIterator<Item = R>,
    reads: &ReadSet,
) -> (usize, Vec<Column>) {
    let records = records.into_iter();
    let cap = records.size_hint().0;
    let mut live: Vec<(usize, Column)> = (schema.fields().iter().enumerate())
        .filter(|&(idx, _)| reads.contains(idx))
        .map(|(idx, f)| (idx, Column::with_type(f.dtype, cap)))
        .collect();
    let mut rows = 0;
    for rec in records {
        let values = rec.borrow().values();
        for (idx, col) in &mut live {
            match (col, values.get(*idx).unwrap_or(&Value::Null)) {
                // The common case, a non-null value of a null-free
                // column's own type, without `push`'s general dispatch.
                (
                    Column::Float {
                        data,
                        validity: None,
                    },
                    Value::Float(f),
                ) => data.push(*f),
                (
                    Column::Int {
                        data,
                        validity: None,
                    },
                    Value::Int(i),
                )
                | (
                    Column::Timestamp {
                        data,
                        validity: None,
                    },
                    Value::Timestamp(i),
                ) => data.push(*i),
                (
                    Column::Point {
                        xs,
                        ys,
                        validity: None,
                    },
                    Value::Point { x, y },
                ) => {
                    xs.push(*x);
                    ys.push(*y);
                }
                (
                    Column::Bool {
                        data,
                        validity: None,
                    },
                    Value::Bool(b),
                ) => data.push(*b),
                (col, v) => col.push(v),
            }
        }
        rows += 1;
    }
    let mut live = live.into_iter().peekable();
    let columns = (0..schema.len())
        .map(|idx| match live.next_if(|(i, _)| *i == idx) {
            Some((_, col)) => col,
            None => Column::Absent(rows),
        })
        .collect();
    (rows, columns)
}

/// Per-buffer metadata, mirroring NebulaStream's TupleBuffer header.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferMeta {
    /// Which source/pipeline produced the buffer.
    pub origin: u64,
    /// Monotonic per-origin sequence number.
    pub sequence: u64,
    /// Smallest event time among the rows (conservative lower bound
    /// after row-dropping transforms), `None` when unknown.
    pub min_ts: Option<EventTime>,
    /// Largest event time among the rows (conservative upper bound
    /// after row-dropping transforms), `None` when unknown.
    pub max_ts: Option<EventTime>,
    /// The watermark in force when the buffer was emitted.
    pub watermark: Option<EventTime>,
}

/// A schema-typed columnar batch — the batched execution unit.
#[derive(Debug, Clone)]
pub struct TupleBuffer {
    schema: SchemaRef,
    len: usize,
    columns: Vec<Column>,
    meta: BufferMeta,
}

impl TupleBuffer {
    /// Builds a buffer from columns (must share one length).
    pub fn new(schema: SchemaRef, columns: Vec<Column>, meta: BufferMeta) -> Self {
        let len = columns.first().map_or(0, Column::len);
        debug_assert!(columns.iter().all(|c| c.len() == len));
        debug_assert_eq!(columns.len(), schema.len());
        TupleBuffer {
            schema,
            len,
            columns,
            meta,
        }
    }

    /// Transposes row records into columns laid out by the schema's
    /// field types, reading each [`Value`] in place, every field built
    /// (see [`TupleBuffer::transpose`]). Nulls go to the validity masks;
    /// records shorter than the schema pad with nulls (mirroring the row
    /// path's out-of-range column reads); a value whose runtime type
    /// contradicts its field's declared type degrades that one column to
    /// [`Column::Values`].
    pub fn from_records(schema: SchemaRef, records: &[Record], meta: BufferMeta) -> Self {
        let reads = ReadSet::all(schema.len());
        TupleBuffer {
            meta,
            ..TupleBuffer::transpose(schema, records, &reads)
        }
    }

    /// Transposes records as [`TupleBuffer::from_records`] does, but
    /// builds only the fields in `reads`: every other one is
    /// [`Column::Absent`]. Owned records are consumed one at a time, so
    /// a source can drain its queue straight into the buffer. Default
    /// metadata (the executor stamps it).
    pub fn transpose<R: Borrow<Record>>(
        schema: SchemaRef,
        records: impl IntoIterator<Item = R>,
        reads: &ReadSet,
    ) -> Self {
        let (len, columns) = transpose(&schema, records, reads);
        TupleBuffer {
            schema,
            len,
            columns,
            meta: BufferMeta::default(),
        }
    }

    /// Converts a row buffer, computing event-time bounds from `ts_col`
    /// when given.
    pub fn from_record_buffer(
        buf: &RecordBuffer,
        ts_col: Option<usize>,
        origin: u64,
        sequence: u64,
    ) -> Self {
        let mut tb = TupleBuffer::from_records(
            buf.schema().clone(),
            buf.records(),
            BufferMeta {
                origin,
                sequence,
                ..BufferMeta::default()
            },
        );
        if let Some(col) = ts_col {
            tb.recompute_time_bounds(col);
        }
        tb
    }

    /// The schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// One column by index.
    pub fn column(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx)
    }

    /// The buffer metadata.
    pub fn meta(&self) -> &BufferMeta {
        &self.meta
    }

    /// The buffer metadata (mutable).
    pub fn meta_mut(&mut self) -> &mut BufferMeta {
        &mut self.meta
    }

    /// Consumes into schema, columns and metadata.
    pub fn into_parts(self) -> (SchemaRef, Vec<Column>, BufferMeta) {
        (self.schema, self.columns, self.meta)
    }

    /// Materializes row `idx`.
    pub fn row(&self, idx: usize) -> Record {
        Record::new(self.columns.iter().map(|c| c.value_at(idx)).collect())
    }

    /// Value at `(row, col)`, `None` when out of range.
    pub fn value_at(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.len {
            return None;
        }
        self.columns.get(col).map(|c| c.value_at(row))
    }

    /// Event time at `(row, ts_col)` with the row path's coercions
    /// (`Timestamp` or `Int`), `None` when null/non-temporal.
    pub fn event_time(&self, row: usize, ts_col: usize) -> Option<EventTime> {
        match self.columns.get(ts_col)? {
            Column::Timestamp { data, validity } | Column::Int { data, validity } => {
                if validity.as_ref().is_none_or(|m| m[row]) {
                    Some(data[row])
                } else {
                    None
                }
            }
            other => other.value_at(row).as_timestamp(),
        }
    }

    /// `(min, max)` event time over all rows in one pass over the typed
    /// `Timestamp`/`Int` slice (boxed columns coerce value by value);
    /// `None` when no row carries an event time.
    fn event_time_bounds(&self, ts_col: usize) -> Option<(EventTime, EventTime)> {
        fn min_max(mut times: impl Iterator<Item = EventTime>) -> Option<(EventTime, EventTime)> {
            let first = times.next()?;
            Some(times.fold((first, first), |(lo, hi), t| (lo.min(t), hi.max(t))))
        }
        match self.columns.get(ts_col)? {
            Column::Timestamp { data, validity } | Column::Int { data, validity } => match validity
            {
                None => min_max(data.iter().copied()),
                Some(m) => min_max(data.iter().zip(m).filter(|&(_, &ok)| ok).map(|(&t, _)| t)),
            },
            other => min_max((0..other.len()).filter_map(|r| other.value_at(r).as_timestamp())),
        }
    }

    /// Maximum event time over all rows (watermark generation).
    pub fn max_event_time(&self, ts_col: usize) -> Option<EventTime> {
        self.event_time_bounds(ts_col).map(|(_, hi)| hi)
    }

    /// Minimum event time over all rows.
    pub fn min_event_time(&self, ts_col: usize) -> Option<EventTime> {
        self.event_time_bounds(ts_col).map(|(lo, _)| lo)
    }

    /// Recomputes `meta.min_ts`/`meta.max_ts` exactly from `ts_col`.
    pub fn recompute_time_bounds(&mut self, ts_col: usize) {
        let bounds = self.event_time_bounds(ts_col);
        self.meta.min_ts = bounds.map(|(lo, _)| lo);
        self.meta.max_ts = bounds.map(|(_, hi)| hi);
    }

    /// Replaces every column outside `reads` with [`Column::Absent`],
    /// dropping its storage — what a link ships when the stages behind
    /// it read only `reads`.
    pub fn narrow(&mut self, reads: &ReadSet) {
        for (idx, col) in self.columns.iter_mut().enumerate() {
            if !reads.contains(idx) {
                *col = Column::Absent(self.len);
            }
        }
    }

    /// Converts back to the row representation, column by column: each
    /// column's layout is matched once and its typed slice spread over
    /// the pre-sized records. Every column must be present: an absent
    /// one here means a consumer reads a field the plan's read set
    /// left out (a debug assertion).
    pub fn to_record_buffer(&self) -> RecordBuffer {
        debug_assert!(
            !self.columns.iter().any(Column::is_absent),
            "an absent column reached to_record_buffer: {}",
            self.schema
        );
        self.to_rows_unread_as_null()
    }

    /// [`TupleBuffer::to_record_buffer`] that reads an absent column as
    /// nulls: for a consumer that reads no more than the set the buffer
    /// was narrowed to (a row-mode tail behind a link, a row poll of
    /// [`crate::source::JitterSource`]'s columnar queue), so those nulls
    /// are never read.
    pub(crate) fn to_rows_unread_as_null(&self) -> RecordBuffer {
        let width = self.columns.len();
        let mut records: Vec<Record> = (0..self.len)
            .map(|_| Record::new(Vec::with_capacity(width)))
            .collect();
        for col in &self.columns {
            col.append_to_rows(&mut records);
        }
        RecordBuffer::new(self.schema.clone(), records)
    }

    /// Estimated payload bytes; equal to the row path's estimate.
    pub fn est_bytes(&self) -> usize {
        self.columns.iter().map(Column::est_bytes).sum()
    }

    /// Keeps rows with `mask[i] == true`, preserving metadata (time
    /// bounds stay as conservative bounds). The kept row indices are
    /// found once and every column gathers them, instead of each column
    /// walking the whole mask.
    pub fn filter(&self, mask: &[bool]) -> TupleBuffer {
        debug_assert_eq!(mask.len(), self.len);
        let kept: Vec<usize> = (0..self.len).filter(|&i| mask[i]).collect();
        self.gather(&kept)
    }

    /// Rows at `indices`, in order.
    pub fn gather(&self, indices: &[usize]) -> TupleBuffer {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(indices)).collect();
        TupleBuffer {
            schema: self.schema.clone(),
            len: indices.len(),
            columns,
            meta: self.meta,
        }
    }

    /// Splits into rows `[0, at)` and `[at, len)`; both halves keep the
    /// metadata (bounds remain conservative).
    pub fn split_at(&self, at: usize) -> (TupleBuffer, TupleBuffer) {
        let at = at.min(self.len);
        let mut heads = Vec::with_capacity(self.columns.len());
        let mut tails = Vec::with_capacity(self.columns.len());
        for c in &self.columns {
            let (h, t) = c.split_at(at);
            heads.push(h);
            tails.push(t);
        }
        (
            TupleBuffer {
                schema: self.schema.clone(),
                len: at,
                columns: heads,
                meta: self.meta,
            },
            TupleBuffer {
                schema: self.schema.clone(),
                len: self.len - at,
                columns: tails,
                meta: self.meta,
            },
        )
    }

    /// Concatenates buffers over one schema in one pass: the first
    /// buffer's columns, then each later buffer [`TupleBuffer::append`]ed.
    pub fn concat(schema: SchemaRef, bufs: &[TupleBuffer]) -> TupleBuffer {
        let Some((first, rest)) = bufs.split_first() else {
            let columns = (0..schema.len())
                .map(|_| Column::Values(Vec::new()))
                .collect();
            return TupleBuffer::new(schema, columns, BufferMeta::default());
        };
        let mut out = TupleBuffer {
            schema,
            ..first.clone()
        };
        for b in rest {
            out.append(b);
        }
        out
    }

    /// Appends `other`'s rows (same schema) column by column
    /// ([`Column::append`]). Metadata: origin/sequence stay this
    /// buffer's, time bounds are unioned, watermarks min-combined — a
    /// merged buffer can only promise the progress that *every* input
    /// promised, so two watermarks fold to the smaller one and an input
    /// without a watermark leaves the merge without one. (Max-combining
    /// here would let a fast input's punctuation close windows that
    /// still await the slow input's rows.)
    pub fn append(&mut self, other: &TupleBuffer) {
        let meta = &mut self.meta;
        meta.min_ts = match (meta.min_ts, other.meta.min_ts) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, c) => a.or(c),
        };
        meta.max_ts = match (meta.max_ts, other.meta.max_ts) {
            (Some(a), Some(c)) => Some(a.max(c)),
            (a, c) => a.or(c),
        };
        meta.watermark = match (meta.watermark, other.meta.watermark) {
            (Some(a), Some(c)) => Some(a.min(c)),
            _ => None,
        };
        for (col, o) in self.columns.iter_mut().zip(&other.columns) {
            col.append(o);
        }
        self.len += other.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("id", DataType::Int),
            ("v", DataType::Float),
            ("name", DataType::Text),
            ("ok", DataType::Bool),
            ("pos", DataType::Point),
        ])
    }

    fn rec(i: i64) -> Record {
        Record::new(vec![
            Value::Timestamp(i * 1000),
            Value::Int(i),
            if i % 3 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.5)
            },
            Value::text(format!("r{i}")),
            Value::Bool(i % 2 == 0),
            Value::Point {
                x: i as f64,
                y: -i as f64,
            },
        ])
    }

    fn buffer(n: i64) -> TupleBuffer {
        let records: Vec<Record> = (0..n).map(rec).collect();
        TupleBuffer::from_record_buffer(&RecordBuffer::new(schema(), records), Some(0), 7, 42)
    }

    #[test]
    fn round_trip_preserves_rows() {
        let records: Vec<Record> = (0..20).map(rec).collect();
        let tb = buffer(20);
        assert_eq!(tb.len(), 20);
        let back = tb.to_record_buffer();
        assert_eq!(back.records(), &records[..]);
    }

    #[test]
    fn metadata_bounds_and_est_bytes() {
        let tb = buffer(10);
        assert_eq!(tb.meta().origin, 7);
        assert_eq!(tb.meta().sequence, 42);
        assert_eq!(tb.meta().min_ts, Some(0));
        assert_eq!(tb.meta().max_ts, Some(9000));
        let rows = RecordBuffer::new(schema(), (0..10).map(rec).collect());
        assert_eq!(tb.est_bytes(), rows.est_bytes());
    }

    #[test]
    fn filter_and_gather_match_row_semantics() {
        let tb = buffer(10);
        let mask: Vec<bool> = (0..10).map(|i| i % 2 == 0).collect();
        let filtered = tb.filter(&mask);
        assert_eq!(filtered.len(), 5);
        assert_eq!(filtered.row(1), rec(2));
        let gathered = tb.gather(&[9, 0, 3]);
        assert_eq!(gathered.row(0), rec(9));
        assert_eq!(gathered.row(2), rec(3));
    }

    #[test]
    fn split_concat_identity() {
        let tb = buffer(11);
        let (a, b) = tb.split_at(4);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 7);
        let joined = TupleBuffer::concat(schema(), &[a, b]);
        assert_eq!(
            joined.to_record_buffer().records(),
            tb.to_record_buffer().records()
        );
    }

    #[test]
    fn concat_watermark_is_conservative_min() {
        // Regression: the merged watermark used to take the max of the
        // inputs. With a fast shard punctuated at t=100s and a slow
        // shard at t=50s, a max-combined watermark of 100s would let a
        // downstream window over (50s, 100s] close before the slow
        // shard's in-flight rows arrive — silently dropping them as
        // late. The merge may only promise what every input promised.
        let sec = 1_000_000;
        let mk = |wm: Option<i64>| {
            let mut tb = buffer(4);
            tb.meta_mut().watermark = wm;
            tb
        };
        let fast = mk(Some(100 * sec));
        let slow = mk(Some(50 * sec));
        let merged = TupleBuffer::concat(schema(), &[fast.clone(), slow]);
        assert_eq!(merged.meta().watermark, Some(50 * sec));

        // An input with no watermark makes no promise at all, so the
        // merge must not carry one either.
        let silent = mk(None);
        let merged = TupleBuffer::concat(schema(), &[fast, silent]);
        assert_eq!(merged.meta().watermark, None);
    }

    #[test]
    fn mixed_type_column_degrades_losslessly() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let recs = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Float(2.5)]),
            Record::new(vec![Value::Null]),
        ];
        let tb = TupleBuffer::from_records(s, &recs, BufferMeta::default());
        assert!(matches!(tb.column(0), Some(Column::Values(_))));
        assert_eq!(tb.to_record_buffer().records(), &recs[..]);
    }

    #[test]
    fn all_null_column_round_trips() {
        let s = Schema::of(&[("x", DataType::Int)]);
        let recs = vec![Record::new(vec![Value::Null]); 3];
        let tb = TupleBuffer::from_records(s, &recs, BufferMeta::default());
        assert_eq!(tb.to_record_buffer().records(), &recs[..]);
        assert_eq!(tb.est_bytes(), 3);
    }

    #[test]
    fn absent_fields_stay_absent_through_every_reshape() {
        let records: Vec<Record> = (0..10).map(rec).collect();
        let full = TupleBuffer::from_records(schema(), &records, BufferMeta::default());
        let reads = ReadSet::of(6, [0, 2]);
        let tb = TupleBuffer::transpose(schema(), &records, &reads);
        assert_eq!(tb.len(), 10);
        let mut narrowed = full.clone();
        narrowed.narrow(&reads);
        assert_eq!(
            format!("{:?}", tb.columns()),
            format!("{:?}", narrowed.columns())
        );
        assert!(matches!(tb.column(1), Some(Column::Absent(10))));
        assert_eq!(tb.value_at(4, 1), Some(Value::Null));
        assert_eq!(tb.est_bytes(), 10 * 8 + 6 * 8 + 4);

        let absent =
            |b: &TupleBuffer| -> Vec<bool> { b.columns().iter().map(Column::is_absent).collect() };
        let dead = absent(&tb);
        let mask: Vec<bool> = (0..10).map(|i| i % 3 == 0).collect();
        let filtered = tb.filter(&mask);
        assert_eq!(absent(&filtered), dead);
        assert!(matches!(filtered.column(3), Some(Column::Absent(4))));
        let (head, tail) = tb.split_at(3);
        assert!(matches!(head.column(1), Some(Column::Absent(3))));
        assert!(matches!(tail.column(1), Some(Column::Absent(7))));
        let joined = TupleBuffer::concat(schema(), &[head, tail]);
        assert_eq!(
            format!("{:?}", joined.columns()),
            format!("{:?}", tb.columns())
        );
        // A field absent on either side of an append is absent after it.
        for (mut left, right) in [(tb.clone(), &full), (full.clone(), &tb)] {
            left.append(right);
            assert_eq!(absent(&left), dead);
            assert!(matches!(left.column(1), Some(Column::Absent(20))));
            assert_eq!(left.column(0).map(Column::len), Some(20));
        }
        // Rows read the dead fields as nulls.
        let row = tb.to_rows_unread_as_null().records()[2].clone();
        assert_eq!(row.get(0), Some(&Value::Timestamp(2000)));
        assert_eq!(row.get(1), Some(&Value::Null));
    }

    #[test]
    fn event_time_accepts_int_column() {
        let s = Schema::of(&[("ts", DataType::Int)]);
        let recs = vec![Record::new(vec![Value::Int(5)])];
        let tb = TupleBuffer::from_records(s, &recs, BufferMeta::default());
        assert_eq!(tb.event_time(0, 0), Some(5));
    }
}
