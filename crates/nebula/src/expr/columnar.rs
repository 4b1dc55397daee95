//! Columnar expression kernels over [`TupleBuffer`]s.
//!
//! Vectorized evaluation of [`BoundExpr`] against whole columns, with
//! per-row fallbacks that reuse the scalar evaluator, so the batched
//! path is semantically identical to the per-record reference: null
//! propagation, the Int/Int wrapping fast path, float promotion (any
//! Timestamp or Float operand), division-by-zero-is-null, short-circuit
//! `And`/`Or` (errors on short-circuited rows never surface), and
//! predicate truth (`as_bool().unwrap_or(false)`).

use super::eval::eval_binary;
use super::{BinOp, BoundExpr, ColumnArg, UnOp};
use crate::buffer::{Column, ColumnBuilder, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::record::Row;
use crate::value::Value;
use std::borrow::Cow;

impl BoundExpr {
    /// True iff evaluating this expression over a column runs an engine
    /// kernel somewhere — i.e. the tree is not *entirely* calls.
    /// [`BoundExpr::eval_column`] hands a [`BoundExpr::Call`] node to
    /// [`super::ScalarFunction::invoke_columnar`], which is a typed
    /// kernel for some functions and argument shapes and the per-row
    /// `invoke` loop for the rest; which one runs is known only per
    /// buffer, so a call counts as per-row work here. Two rules read
    /// this: a chain head whose expressions are pure calls (e.g. an
    /// opaque-geometry predicate) does not ask the source to transpose
    /// for it, and the right side of an `And`/`Or` that is a call runs
    /// only on the rows its left side leaves undecided (a zone test
    /// behind a selective speed test runs on the few rows that pass
    /// it), not over the whole buffer.
    pub fn vectorizes(&self) -> bool {
        match self {
            BoundExpr::Literal(_) | BoundExpr::Column(_) => true,
            BoundExpr::Binary { lhs, rhs, .. } => lhs.vectorizes() && rhs.vectorizes(),
            BoundExpr::Unary { expr, .. } => expr.vectorizes(),
            BoundExpr::Call { .. } => false,
        }
    }

    /// Evaluates over every row, producing one result [`Column`].
    pub fn eval_column(&self, buf: &TupleBuffer) -> Result<Column> {
        Ok(self.eval_operand(buf)?.into_column(buf.len()))
    }

    /// Evaluates over every row without copying what already exists: a
    /// column reference borrows the buffer's column and a literal stays
    /// one scalar; only kernels and calls produce new columns.
    fn eval_operand<'a>(&'a self, buf: &'a TupleBuffer) -> Result<Operand<'a>> {
        let n = buf.len();
        match self {
            BoundExpr::Literal(v) => Ok(Operand::Scalar(v)),
            BoundExpr::Column(idx) => {
                let col = buf.column(*idx).ok_or_else(|| {
                    NebulaError::Eval(format!(
                        "record has {} fields, column #{idx} missing",
                        buf.columns().len()
                    ))
                })?;
                debug_assert!(!col.is_absent(), "column #{idx} is read but absent");
                Ok(Operand::borrowed(col))
            }
            BoundExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => Ok(Operand::owned(Column::Bool {
                    data: self.eval_mask(buf)?,
                    validity: None,
                })),
                _ => {
                    let l = lhs.eval_operand(buf)?;
                    let r = rhs.eval_operand(buf)?;
                    let kernel = if op.is_arith() {
                        arith_kernel(*op, &l, &r, n)
                    } else {
                        cmp_kernel(*op, &l, &r, n)
                    };
                    match kernel {
                        Some(c) => Ok(Operand::owned(c)),
                        None => per_row_binary(*op, &l, &r, n).map(Operand::owned),
                    }
                }
            },
            BoundExpr::Unary { op, expr } => {
                let operand = expr.eval_operand(buf)?;
                match op {
                    UnOp::Not => {
                        let mut data = truth_mask(operand, n);
                        data.iter_mut().for_each(|b| *b = !*b);
                        Ok(Operand::owned(Column::Bool {
                            data,
                            validity: None,
                        }))
                    }
                    UnOp::Neg => neg_kernel(&operand, n).map(Operand::owned),
                }
            }
            BoundExpr::Call { func, args, ret } => {
                // Vector-evaluate the arguments, then hand the function
                // the whole buffer: a typed kernel where it has one, the
                // per-row `invoke` loop otherwise.
                let mut operands = Vec::with_capacity(args.len());
                for a in args {
                    operands.push(a.eval_operand(buf)?);
                }
                let args: Vec<ColumnArg<'_>> = operands.iter().map(Operand::as_arg).collect();
                func.invoke_columnar(&args, *ret, n).map(Operand::owned)
            }
        }
    }

    /// Evaluates as a predicate over every row: `mask[i]` is true iff
    /// row `i` passes. Errors on short-circuited rows never surface,
    /// exactly as in the scalar evaluator.
    pub fn eval_mask(&self, buf: &TupleBuffer) -> Result<Vec<bool>> {
        match self {
            BoundExpr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
            } => {
                // The left truth value that decides a row on its own.
                let decides = *op == BinOp::Or;
                let mut mask = lhs.eval_mask(buf)?;
                // A right side that is per-row work anyway (a call) runs
                // only on the rows the left side left undecided, as in
                // the scalar evaluator; a vectorized one runs whole.
                let rm = if rhs.vectorizes() {
                    rhs.eval_mask(buf).ok()
                } else {
                    None
                };
                match rm {
                    Some(rm) if decides => mask.iter_mut().zip(&rm).for_each(|(a, &b)| *a |= b),
                    Some(rm) => mask.iter_mut().zip(&rm).for_each(|(a, &b)| *a &= b),
                    None => {
                        // Also the fallback when the vectorized right
                        // side errored: the failing row may be one the
                        // reference would have short-circuited.
                        for (row, m) in mask.iter_mut().enumerate() {
                            if *m != decides {
                                *m = rhs.eval_predicate(Row::Buffer(buf, row))?;
                            }
                        }
                    }
                }
                Ok(mask)
            }
            _ => Ok(truth_mask(self.eval_operand(buf)?, buf.len())),
        }
    }
}

/// One evaluated operand of a columnar kernel.
enum Operand<'a> {
    /// A column: borrowed from the input buffer and read in place, or
    /// owned because some kernel or call produced it.
    Col(Cow<'a, Column>),
    /// A literal: the same value at every row.
    Scalar(&'a Value),
}

impl<'a> Operand<'a> {
    fn borrowed(c: &'a Column) -> Self {
        Operand::Col(Cow::Borrowed(c))
    }

    fn owned(c: Column) -> Self {
        Operand::Col(Cow::Owned(c))
    }

    /// An owned `n`-row column (clones a borrowed one, repeats a
    /// literal).
    fn into_column(self, n: usize) -> Column {
        match self {
            Operand::Col(c) => c.into_owned(),
            Operand::Scalar(v) => {
                let mut c = Column::with_type(v.data_type(), n);
                for _ in 0..n {
                    c.push(v);
                }
                c
            }
        }
    }

    /// The argument view a function's columnar call reads.
    fn as_arg(&self) -> ColumnArg<'_> {
        match self {
            Operand::Col(c) => ColumnArg::Column(c),
            Operand::Scalar(v) => ColumnArg::Literal(v),
        }
    }

    /// The value at `row` (the scalar fallbacks' view).
    fn value_at(&self, row: usize) -> Cow<'_, Value> {
        match self {
            Operand::Scalar(v) => Cow::Borrowed(*v),
            Operand::Col(c) => Cow::Owned(c.value_at(row)),
        }
    }

    /// The numeric view (`Int`, `Float`, `Timestamp` columns and
    /// non-null literals of those types); `None` for anything else.
    fn numeric(&self) -> Option<Numeric<'_>> {
        let (nums, validity) = match self {
            Operand::Scalar(Value::Int(i)) => (Nums::Int(Elems::Const(*i)), None),
            Operand::Scalar(Value::Float(f)) => (Nums::Float(Elems::Const(*f)), None),
            Operand::Scalar(Value::Timestamp(t)) => (Nums::Timestamp(Elems::Const(*t)), None),
            Operand::Scalar(_) => return None,
            Operand::Col(c) => match c.as_ref() {
                Column::Int { data, validity } => {
                    (Nums::Int(Elems::Slice(data)), validity.as_deref())
                }
                Column::Float { data, validity } => {
                    (Nums::Float(Elems::Slice(data)), validity.as_deref())
                }
                Column::Timestamp { data, validity } => {
                    (Nums::Timestamp(Elems::Slice(data)), validity.as_deref())
                }
                _ => return None,
            },
        };
        Some(Numeric { nums, validity })
    }
}

/// A run of elements: a typed slice, or one scalar at every index.
#[derive(Clone, Copy)]
enum Elems<'a, T> {
    Slice(&'a [T]),
    Const(T),
}

impl<T: Copy> Elems<'_, T> {
    #[inline(always)]
    fn at(self, i: usize) -> T {
        match self {
            Elems::Slice(s) => s[i],
            Elems::Const(c) => c,
        }
    }
}

/// The elements of a numeric operand in their stored type; integers
/// widen to `f64` at the read ([`Nums::at`], the `as` conversion of
/// [`Value::as_float`]), never into a scratch vector.
#[derive(Clone, Copy)]
enum Nums<'a> {
    Int(Elems<'a, i64>),
    Float(Elems<'a, f64>),
    Timestamp(Elems<'a, i64>),
}

impl Nums<'_> {
    #[inline(always)]
    fn at(self, i: usize) -> f64 {
        match self {
            Nums::Float(e) => e.at(i),
            Nums::Int(e) | Nums::Timestamp(e) => e.at(i) as f64,
        }
    }
}

/// A borrowed numeric operand with its validity (`None` = no nulls).
struct Numeric<'a> {
    nums: Nums<'a>,
    validity: Option<&'a [bool]>,
}

/// Predicate truth of an operand: `Bool` rows pass when valid and true;
/// every non-bool value (incl. null) is false, matching
/// `as_bool().unwrap_or(false)`. A null-free boolean column a kernel
/// produced becomes the mask as it is.
fn truth_mask(operand: Operand<'_>, n: usize) -> Vec<bool> {
    let col = match operand {
        Operand::Scalar(v) => return vec![v.as_bool().unwrap_or(false); n],
        Operand::Col(Cow::Owned(Column::Bool {
            data,
            validity: None,
        })) => return data,
        Operand::Col(c) => c,
    };
    match col.as_ref() {
        Column::Bool { data, validity } => match validity {
            None => data.clone(),
            Some(m) => data.iter().zip(m).map(|(&b, &v)| b && v).collect(),
        },
        Column::Values(vals) => vals.iter().map(|v| v.as_bool().unwrap_or(false)).collect(),
        other => vec![false; other.len()],
    }
}

/// The validity of a binary kernel's result before the kernel adds its
/// own nulls (`/0`, NaN ordering): null wherever either input is.
fn joint_validity(l: Option<&[bool]>, r: Option<&[bool]>) -> Option<Vec<bool>> {
    match (l, r) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(&x, &y)| x && y).collect()),
    }
}

/// Computes `f` at every row valid in both inputs; `None` from `f`
/// nulls the row.
fn binary_rows<T: Copy>(
    n: usize,
    zero: T,
    lv: Option<&[bool]>,
    rv: Option<&[bool]>,
    f: impl Fn(usize) -> Option<T>,
) -> (Vec<T>, Option<Vec<bool>>) {
    let mut validity = joint_validity(lv, rv);
    let mut data = vec![zero; n];
    for (i, slot) in data.iter_mut().enumerate() {
        if validity.as_ref().is_none_or(|m| m[i]) {
            match f(i) {
                Some(v) => *slot = v,
                None => mark_null(&mut validity, n, i),
            }
        }
    }
    (data, validity)
}

/// Vectorized arithmetic; `None` when operand types need the scalar
/// fallback. `Int ⊕ Int` stays integer (wrapping, `/0`→null); any
/// `Float`/`Timestamp` operand promotes the whole kernel to f64,
/// exactly like the scalar evaluator does per row.
fn arith_kernel(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    let (l, r) = (l.numeric()?, r.numeric()?);
    if let (Nums::Int(la), Nums::Int(ra)) = (l.nums, r.nums) {
        let (data, validity) = binary_rows(n, 0i64, l.validity, r.validity, |i| {
            let (a, b) = (la.at(i), ra.at(i));
            match op {
                BinOp::Add => Some(a.wrapping_add(b)),
                BinOp::Sub => Some(a.wrapping_sub(b)),
                BinOp::Mul => Some(a.wrapping_mul(b)),
                BinOp::Div => (b != 0).then(|| a.wrapping_div(b)),
                BinOp::Mod => (b != 0).then(|| a.wrapping_rem(b)),
                _ => unreachable!(),
            }
        });
        return Some(Column::Int { data, validity });
    }
    let (data, validity) = binary_rows(n, 0f64, l.validity, r.validity, |i| {
        let (a, b) = (l.nums.at(i), r.nums.at(i));
        match op {
            BinOp::Add => Some(a + b),
            BinOp::Sub => Some(a - b),
            BinOp::Mul => Some(a * b),
            BinOp::Div => (b != 0.0).then(|| a / b),
            BinOp::Mod => (b != 0.0).then(|| a % b),
            _ => unreachable!(),
        }
    });
    Some(Column::Float { data, validity })
}

/// Vectorized comparison over numeric operands; `None` when either side
/// needs the scalar fallback (text, bool, points, mixed columns, a null
/// literal). Both sides compare as `f64` whatever their stored type —
/// integers past 2⁵³ that round to the same float are *equal*, as in
/// the scalar evaluator.
fn cmp_kernel(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Option<Column> {
    let (l, r) = (l.numeric()?, r.numeric()?);
    let (data, validity) = binary_rows(n, false, l.validity, r.validity, |i| {
        let (a, b) = (l.nums.at(i), r.nums.at(i));
        match op {
            // Numeric equality mirrors `Value::eq`: plain f64 compare,
            // so NaN != NaN is false, not null.
            BinOp::Eq => Some(a == b),
            BinOp::Ne => Some(a != b),
            // Ordering mirrors `partial_cmp_num`: NaN is incomparable
            // and yields null.
            _ => a.partial_cmp(&b).map(|ord| {
                use std::cmp::Ordering::*;
                match op {
                    BinOp::Lt => ord == Less,
                    BinOp::Le => ord != Greater,
                    BinOp::Gt => ord == Greater,
                    BinOp::Ge => ord != Less,
                    _ => unreachable!(),
                }
            }),
        }
    });
    Some(Column::Bool { data, validity })
}

fn neg_kernel(operand: &Operand<'_>, n: usize) -> Result<Column> {
    let col = match operand {
        Operand::Col(c) => Some(c.as_ref()),
        Operand::Scalar(_) => None,
    };
    match col {
        Some(Column::Int { data, validity }) => Ok(Column::Int {
            data: data.iter().map(|&i| i.wrapping_neg()).collect(),
            validity: validity.clone(),
        }),
        Some(Column::Float { data, validity }) => Ok(Column::Float {
            data: data.iter().map(|&f| -f).collect(),
            validity: validity.clone(),
        }),
        _ => {
            let mut b = ColumnBuilder::with_capacity(n);
            for i in 0..n {
                match operand.value_at(i).as_ref() {
                    Value::Int(v) => b.push(&Value::Int(v.wrapping_neg())),
                    Value::Float(v) => b.push(&Value::Float(-v)),
                    Value::Null => b.push(&Value::Null),
                    v => return Err(NebulaError::Eval(format!("cannot negate {v}"))),
                }
            }
            Ok(b.finish())
        }
    }
}

/// Scalar fallback: applies `eval_binary` row by row.
fn per_row_binary(op: BinOp, l: &Operand<'_>, r: &Operand<'_>, n: usize) -> Result<Column> {
    let mut b = ColumnBuilder::with_capacity(n);
    for i in 0..n {
        b.push(&eval_binary(op, &l.value_at(i), &r.value_at(i))?);
    }
    Ok(b.finish())
}

fn mark_null(validity: &mut Option<Vec<bool>>, n: usize, i: usize) {
    validity.get_or_insert_with(|| vec![true; n])[i] = false;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferMeta;
    use crate::expr::{col, lit, Expr, FunctionRegistry};
    use crate::record::Record;
    use crate::schema::{Schema, SchemaRef};
    use crate::value::DataType;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("t", DataType::Text),
            ("ts", DataType::Timestamp),
        ])
    }

    fn buffer() -> TupleBuffer {
        let recs: Vec<Record> = (0..20)
            .map(|i| {
                Record::new(vec![
                    if i == 7 { Value::Null } else { Value::Int(i) },
                    Value::Float(i as f64 * 0.5),
                    Value::text(format!("t{}", i % 3)),
                    Value::Timestamp(i * 1000),
                ])
            })
            .collect();
        TupleBuffer::from_records(schema(), &recs, BufferMeta::default())
    }

    fn bind(e: &Expr) -> BoundExpr {
        let reg = FunctionRegistry::with_builtins();
        e.bind(&schema(), &reg).unwrap().0
    }

    /// The columnar result must equal per-record scalar evaluation.
    fn assert_matches_scalar(e: &Expr) {
        let b = bind(e);
        let tb = buffer();
        let colr = b.eval_column(&tb).unwrap();
        for i in 0..tb.len() {
            let rec = tb.row(i);
            let want = b.eval(&rec).unwrap();
            assert_eq!(colr.value_at(i), want, "row {i} of {e:?}");
            assert_eq!(b.eval(Row::Buffer(&tb, i)).unwrap(), want, "buffer row {i}");
        }
        let mask = b.eval_mask(&tb).unwrap();
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(m, b.eval_predicate(&tb.row(i)).unwrap(), "mask {i}");
        }
    }

    #[test]
    fn kernels_match_scalar_reference() {
        for e in [
            col("a").add(lit(3i64)),
            col("a").mul(col("a")),
            col("a").div(lit(0i64)),
            col("a").modulo(lit(4i64)),
            col("b").add(col("a")),
            col("ts").add(col("a")),
            col("b").div(lit(0.0)),
            col("a").ge(lit(10i64)),
            col("b").lt(lit(5.0)),
            col("a").eq(col("b").mul(lit(2.0))),
            col("a").ne(lit(7i64)),
            col("t").eq(lit("t1")),
            col("t").lt(lit("t2")),
            col("a").gt(lit(5i64)).and(col("b").lt(lit(8.0))),
            col("a").gt(lit(5i64)).or(col("t").eq(lit("t0"))),
            col("a").gt(lit(5i64)).not(),
            col("a").neg(),
            col("b").neg(),
            lit(2.5).mul(col("a")),
        ] {
            assert_matches_scalar(&e);
        }
        edge_operands_match_scalar(&edge_buffer());
        edge_operands_match_scalar(&edge_buffer().filter(&[false; EDGE_ROWS]));
    }

    /// Equal values of equal runtime type, floats by bit pattern (so a
    /// NaN result equals itself and `Int` never passes for `Float`).
    fn same_value(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a.data_type() == b.data_type() && a == b,
        }
    }

    /// Column, mask and buffer-row results of `b` against the scalar
    /// evaluator row by row. The scalar path fails per row and a kernel
    /// per buffer, so one failing row must fail the whole column.
    fn assert_bound_matches_scalar(b: &BoundExpr, tb: &TupleBuffer) {
        let rows: Vec<Result<Value>> = (0..tb.len()).map(|i| b.eval(&tb.row(i))).collect();
        match b.eval_column(tb) {
            Ok(c) => {
                assert_eq!(c.len(), tb.len(), "{b:?}");
                for (i, want) in rows.iter().enumerate() {
                    let want = want
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{b:?} row {i}: {e}"));
                    let got = c.value_at(i);
                    assert!(same_value(&got, want), "{b:?} row {i}: {got} vs {want}");
                    let got = b.eval(Row::Buffer(tb, i)).unwrap();
                    assert!(
                        same_value(&got, want),
                        "{b:?} buffer row {i}: {got} vs {want}"
                    );
                }
            }
            Err(_) => assert!(
                rows.iter().any(|r| r.is_err()),
                "{b:?} failed columnar only"
            ),
        }
        match b.eval_mask(tb) {
            Ok(mask) => {
                assert_eq!(mask.len(), tb.len(), "{b:?}");
                for (i, &m) in mask.iter().enumerate() {
                    assert_eq!(m, b.eval_predicate(&tb.row(i)).unwrap(), "{b:?} mask {i}");
                }
            }
            Err(_) => assert!(rows.iter().any(|r| r.is_err()), "{b:?} mask failed only"),
        }
    }

    const EDGE_ROWS: usize = 13;
    const TWO_53: i64 = 1 << 53;

    /// `(i: Int, t: Timestamp, f: Float, j: Int)` over magnitudes at and
    /// past 2⁵³ (where `as f64` stops being injective), the extremes,
    /// NaN, infinities, signed zero and nulls, rotated against each
    /// other so every pairing of neighbours-past-2⁵³ occurs.
    fn edge_buffer() -> TupleBuffer {
        let ints = [
            Value::Int(TWO_53),
            Value::Int(TWO_53 + 1),
            Value::Int(TWO_53 + 2),
            Value::Int(-TWO_53 - 1),
            Value::Int(i64::MAX),
            Value::Int(i64::MAX - 1),
            Value::Int(i64::MIN),
            Value::Int(0),
            Value::Int(7),
            Value::Null,
            Value::Int(-TWO_53),
            Value::Int(TWO_53 - 1),
            Value::Int(1),
        ];
        let floats = [
            Value::Float(TWO_53 as f64),
            Value::Float(f64::NAN),
            Value::Float((TWO_53 + 2) as f64),
            Value::Float(f64::INFINITY),
            Value::Float(i64::MAX as f64),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Float(7.0),
            Value::Float(1.5),
            Value::Null,
            Value::Float(-(TWO_53 as f64)),
            Value::Float(f64::NAN),
        ];
        assert_eq!((ints.len(), floats.len()), (EDGE_ROWS, EDGE_ROWS));
        let as_ts = |v: &Value| v.as_int().map_or(Value::Null, Value::Timestamp);
        let recs: Vec<Record> = (0..EDGE_ROWS)
            .map(|k| {
                Record::new(vec![
                    ints[k].clone(),
                    as_ts(&ints[(k + 1) % EDGE_ROWS]),
                    floats[k].clone(),
                    ints[(k + 2) % EDGE_ROWS].clone(),
                ])
            })
            .collect();
        let schema = Schema::of(&[
            ("i", DataType::Int),
            ("t", DataType::Timestamp),
            ("f", DataType::Float),
            ("j", DataType::Int),
        ]);
        TupleBuffer::from_records(schema, &recs, BufferMeta::default())
    }

    /// Every operator over every ordered pair of: the four columns, and
    /// literals `Int`/`Timestamp` past 2⁵³, a `Float` at 2⁵³, NaN, zero,
    /// `-1` (the divisor `i64::MIN / b` and `i64::MIN % b` overflow on),
    /// `Null`, and a `Bool` and a `Text` (which no numeric kernel takes:
    /// the scalar fallback must give the scalar answer, or its error).
    /// A literal so lands on the left, on the right and on both sides.
    fn edge_operands_match_scalar(tb: &TupleBuffer) {
        let operands: Vec<BoundExpr> = (0..4)
            .map(BoundExpr::Column)
            .chain(
                [
                    Value::Int(TWO_53 + 1),
                    Value::Timestamp(TWO_53 + 2),
                    Value::Float(TWO_53 as f64),
                    Value::Float(f64::NAN),
                    Value::Int(0),
                    Value::Int(-1),
                    Value::Null,
                    Value::Bool(true),
                    Value::text("7"),
                ]
                .map(BoundExpr::Literal),
            )
            .collect();
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Mod, Eq, Ne, Lt, Le, Gt, Ge] {
            for lhs in &operands {
                for rhs in &operands {
                    let b = BoundExpr::Binary {
                        op,
                        lhs: Box::new(lhs.clone()),
                        rhs: Box::new(rhs.clone()),
                    };
                    assert_bound_matches_scalar(&b, tb);
                    // As a predicate operand too: `NOT (l op r)` and a
                    // comparison of the result keep the null/NaN rows
                    // honest one level up.
                    let not = BoundExpr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(b.clone()),
                    };
                    assert_bound_matches_scalar(&not, tb);
                    let nested = BoundExpr::Binary {
                        op: Ge,
                        lhs: Box::new(b),
                        rhs: Box::new(BoundExpr::Column(2)),
                    };
                    assert_bound_matches_scalar(&nested, tb);
                }
            }
        }
        // Negation of every operand: the integer columns hold
        // `i64::MIN`, which wraps to itself in both evaluators.
        for operand in &operands {
            let neg = BoundExpr::Unary {
                op: UnOp::Neg,
                expr: Box::new(operand.clone()),
            };
            assert_bound_matches_scalar(&neg, tb);
        }
    }

    #[test]
    fn short_circuit_suppresses_rhs_errors() {
        // rhs is a missing column: scalar short-circuit hides the error
        // when lhs decides; the mask path must do the same.
        let bad = BoundExpr::Column(99);
        let and = BoundExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(BoundExpr::Literal(Value::Bool(false))),
            rhs: Box::new(bad.clone()),
        };
        let tb = buffer();
        assert_eq!(and.eval_mask(&tb).unwrap(), vec![false; tb.len()]);
        let or = BoundExpr::Binary {
            op: BinOp::Or,
            lhs: Box::new(BoundExpr::Literal(Value::Bool(true))),
            rhs: Box::new(bad),
        };
        assert_eq!(or.eval_mask(&tb).unwrap(), vec![true; tb.len()]);
    }

    #[test]
    fn non_short_circuited_error_surfaces() {
        let bad = BoundExpr::Column(99);
        let and = BoundExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(BoundExpr::Literal(Value::Bool(true))),
            rhs: Box::new(bad),
        };
        assert!(and.eval_mask(&buffer()).is_err());
    }

    #[test]
    fn call_vectorizes_arguments() {
        // if(a > 10, "hi", "lo") via the builtin registry: mixed-branch
        // text output exercises the per-row invoke with vector args.
        let e = crate::expr::call("if", vec![col("a").gt(lit(10i64)), lit("hi"), lit("lo")]);
        assert_matches_scalar(&e);
    }
}
