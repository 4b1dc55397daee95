//! Bound (index-resolved, type-checked) expressions and their evaluator.

use super::registry::ScalarFunction;
use super::{BinOp, UnOp};
use crate::error::{NebulaError, Result};
use crate::record::Row;
use crate::schema::ReadSet;
use crate::value::{DataType, Value};
use std::sync::Arc;

/// A bound expression: columns are positional, functions resolved.
#[derive(Clone)]
pub enum BoundExpr {
    /// A constant.
    Literal(Value),
    /// A column by index.
    Column(usize),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<BoundExpr>,
        /// Right operand.
        rhs: Box<BoundExpr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<BoundExpr>,
    },
    /// A resolved function call.
    Call {
        /// The function handle.
        func: Arc<dyn ScalarFunction>,
        /// Bound arguments.
        args: Vec<BoundExpr>,
        /// The result type the function declared at bind time (lays out
        /// the columnar result).
        ret: DataType,
    },
}

impl std::fmt::Debug for BoundExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundExpr::Literal(v) => write!(f, "lit({v})"),
            BoundExpr::Column(i) => write!(f, "col#{i}"),
            BoundExpr::Binary { op, lhs, rhs } => {
                write!(f, "({lhs:?} {op} {rhs:?})")
            }
            BoundExpr::Unary { op, expr } => write!(f, "({op:?} {expr:?})"),
            BoundExpr::Call { func, args, .. } => {
                write!(f, "{}({args:?})", func.name())
            }
        }
    }
}

impl BoundExpr {
    /// Marks in `reads` every input column the expression reads — the
    /// expression's share of an operator's [`crate::ops::Operator::reads`].
    pub fn mark_reads(&self, reads: &mut ReadSet) {
        match self {
            BoundExpr::Literal(_) => {}
            BoundExpr::Column(idx) => reads.insert(*idx),
            BoundExpr::Binary { lhs, rhs, .. } => {
                lhs.mark_reads(reads);
                rhs.mark_reads(reads);
            }
            BoundExpr::Unary { expr, .. } => expr.mark_reads(reads),
            BoundExpr::Call { args, .. } => args.iter().for_each(|a| a.mark_reads(reads)),
        }
    }

    /// Evaluates against one row: a [`crate::record::Record`] (a
    /// `&Record` converts) or a row of a columnar buffer
    /// ([`Row::Buffer`]). The per-row interpreter: the columnar kernels
    /// are tested against it, and fall back to it where no kernel
    /// applies.
    pub fn eval<'a>(&self, row: impl Into<Row<'a>>) -> Result<Value> {
        let row = row.into();
        match self {
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Column(idx) => row.get(*idx).ok_or_else(|| {
                NebulaError::Eval(format!(
                    "record has {} fields, column #{idx} missing",
                    row.width()
                ))
            }),
            BoundExpr::Binary { op, lhs, rhs } => {
                // Short-circuit logic operators.
                match op {
                    BinOp::And => {
                        let l = lhs.eval(row)?.as_bool().unwrap_or(false);
                        if !l {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(rhs.eval(row)?.as_bool().unwrap_or(false)));
                    }
                    BinOp::Or => {
                        let l = lhs.eval(row)?.as_bool().unwrap_or(false);
                        if l {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(rhs.eval(row)?.as_bool().unwrap_or(false)));
                    }
                    _ => {}
                }
                let l = lhs.eval(row)?;
                let r = rhs.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnOp::Not => Ok(Value::Bool(!v.as_bool().unwrap_or(false))),
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        Value::Null => Ok(Value::Null),
                        other => Err(NebulaError::Eval(format!("cannot negate {other}"))),
                    },
                }
            }
            BoundExpr::Call { func, args, .. } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(a.eval(row)?);
                }
                func.invoke(&values)
            }
        }
    }

    /// Evaluates as a predicate: non-true (false or null) drops.
    pub fn eval_predicate<'a>(&self, row: impl Into<Row<'a>>) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }
}

pub(crate) fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            // Integer fast path.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Ok(match op {
                    BinOp::Add => Value::Int(a.wrapping_add(*b)),
                    BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
                    BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
                    BinOp::Div => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a.wrapping_div(*b))
                        }
                    }
                    BinOp::Mod => {
                        if *b == 0 {
                            Value::Null
                        } else {
                            Value::Int(a.wrapping_rem(*b))
                        }
                    }
                    _ => unreachable!(),
                });
            }
            let (a, b) = (float_of(l)?, float_of(r)?);
            Ok(match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a % b)
                    }
                }
                _ => unreachable!(),
            })
        }
        BinOp::Eq => Ok(Value::Bool(l == r)),
        BinOp::Ne => Ok(Value::Bool(l != r)),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => match l.partial_cmp_num(r) {
            Some(ord) => {
                use std::cmp::Ordering::*;
                let b = match op {
                    BinOp::Lt => ord == Less,
                    BinOp::Le => ord != Greater,
                    BinOp::Gt => ord == Greater,
                    BinOp::Ge => ord != Less,
                    _ => unreachable!(),
                };
                Ok(Value::Bool(b))
            }
            None => Ok(Value::Null),
        },
        BinOp::And | BinOp::Or => unreachable!("handled in eval"),
    }
}

fn float_of(v: &Value) -> Result<f64> {
    v.as_float()
        .ok_or_else(|| NebulaError::Eval(format!("expected numeric, got {v}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, FunctionRegistry};
    use crate::record::Record;
    use crate::schema::Schema;
    use crate::value::DataType;

    fn eval_on(e: &crate::expr::Expr, rec: &Record) -> Value {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Float)]);
        let reg = FunctionRegistry::with_builtins();
        let (b, _) = e.bind(&schema, &reg).unwrap();
        b.eval(rec).unwrap()
    }

    fn rec(a: i64, b: f64) -> Record {
        Record::new(vec![Value::Int(a), Value::Float(b)])
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(
            eval_on(&col("a").div(lit(0i64)), &rec(10, 0.0)),
            Value::Null
        );
        assert_eq!(eval_on(&col("b").div(lit(0.0)), &rec(0, 5.0)), Value::Null);
        assert_eq!(
            eval_on(&col("a").modulo(lit(0i64)), &rec(10, 0.0)),
            Value::Null
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = col("a").div(lit(0i64)).add(lit(5i64));
        assert_eq!(eval_on(&e, &rec(1, 0.0)), Value::Null);
    }

    #[test]
    fn null_predicate_is_false() {
        let schema = Schema::of(&[("a", DataType::Int)]);
        let reg = FunctionRegistry::with_builtins();
        let (b, _) = col("a")
            .div(lit(0i64))
            .gt(lit(1i64))
            .bind(&schema, &reg)
            .unwrap();
        let r = Record::new(vec![Value::Int(5)]);
        assert!(!b.eval_predicate(&r).unwrap());
    }

    #[test]
    fn mixed_numeric_promotion() {
        assert_eq!(
            eval_on(&col("a").add(col("b")), &rec(2, 0.5)),
            Value::Float(2.5)
        );
        assert_eq!(
            eval_on(&col("a").mul(lit(3i64)), &rec(2, 0.0)),
            Value::Int(6)
        );
    }

    #[test]
    fn short_circuit_logic() {
        // The right side would error (column out of range) if evaluated.
        let bad = BoundExpr::Column(99);
        let and = BoundExpr::Binary {
            op: BinOp::And,
            lhs: Box::new(BoundExpr::Literal(Value::Bool(false))),
            rhs: Box::new(bad.clone()),
        };
        assert_eq!(and.eval(&rec(0, 0.0)).unwrap(), Value::Bool(false));
        let or = BoundExpr::Binary {
            op: BinOp::Or,
            lhs: Box::new(BoundExpr::Literal(Value::Bool(true))),
            rhs: Box::new(bad),
        };
        assert_eq!(or.eval(&rec(0, 0.0)).unwrap(), Value::Bool(true));
    }

    #[test]
    fn missing_column_is_eval_error() {
        let b = BoundExpr::Column(5);
        assert!(b.eval(&rec(0, 0.0)).is_err());
    }
}
