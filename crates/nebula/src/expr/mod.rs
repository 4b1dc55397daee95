//! The expression framework: an AST with a fluent builder, a bind/type
//! check phase, and a vectorizable evaluator.
//!
//! Functions are resolved by name against the [`FunctionRegistry`], which
//! plugins extend at runtime — NebulaStream's "dynamic registration"
//! mechanism that NebulaMEOS uses to surface MEOS operations
//! (`edwithin`, `tpoint_at_stbox`, …) inside queries.

mod binder;
mod builtins;
mod columnar;
mod eval;
mod registry;

pub(crate) use binder::Binder;
pub use builtins::register_builtins;
pub use eval::BoundExpr;
pub use registry::{
    invoke_rows, ClosureFunction, ColumnArg, FunctionRegistry, Plugin, ScalarFunction,
};

use crate::analysis::Code;
use crate::error::Result;
use crate::schema::Schema;
use crate::value::{DataType, Value};
use std::fmt;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// logical AND (nulls coerce to false)
    And,
    /// logical OR (nulls coerce to false)
    Or,
}

impl BinOp {
    pub(crate) fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    pub(crate) fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Logical negation.
    Not,
    /// Numeric negation.
    Neg,
}

/// An unbound expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A constant.
    Literal(Value),
    /// A column reference by name.
    Column(String),
    /// A binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A registered function call.
    Call {
        /// Function name (registry key).
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

/// Column reference.
pub fn col(name: impl Into<String>) -> Expr {
    Expr::Column(name.into())
}

/// Literal value.
pub fn lit(v: impl Into<Value>) -> Expr {
    Expr::Literal(v.into())
}

/// Function call.
pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
    Expr::Call {
        name: name.into(),
        args,
    }
}

macro_rules! binop_method {
    ($fn_name:ident, $op:expr) => {
        /// Builds the corresponding binary expression.
        #[allow(clippy::should_implement_trait)]
        pub fn $fn_name(self, rhs: Expr) -> Expr {
            Expr::Binary {
                op: $op,
                lhs: Box::new(self),
                rhs: Box::new(rhs),
            }
        }
    };
}

impl Expr {
    binop_method!(add, BinOp::Add);
    binop_method!(sub, BinOp::Sub);
    binop_method!(mul, BinOp::Mul);
    binop_method!(div, BinOp::Div);
    binop_method!(modulo, BinOp::Mod);
    binop_method!(eq, BinOp::Eq);
    binop_method!(ne, BinOp::Ne);
    binop_method!(lt, BinOp::Lt);
    binop_method!(le, BinOp::Le);
    binop_method!(gt, BinOp::Gt);
    binop_method!(ge, BinOp::Ge);
    binop_method!(and, BinOp::And);
    binop_method!(or, BinOp::Or);

    /// Logical negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// Numeric negation.
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `lo <= self AND self <= hi`.
    pub fn between(self, lo: Expr, hi: Expr) -> Expr {
        self.clone().ge(lo).and(self.le(hi))
    }

    /// Binds the expression against a schema and function registry,
    /// resolving columns to indices and names to function handles, and
    /// type-checks the tree. Returns the bound tree and its result type.
    pub fn bind(
        &self,
        schema: &Schema,
        registry: &FunctionRegistry,
    ) -> Result<(BoundExpr, DataType)> {
        let (bound, t) = self.bind_with(schema, &mut Binder::fail_fast(registry))?;
        Ok((bound, t.unwrap_or(DataType::Null)))
    }

    /// [`Expr::bind`] through `b`. The type is `None` — poisoned — when
    /// a check below failed while collecting.
    pub(crate) fn bind_with(
        &self,
        schema: &Schema,
        b: &mut Binder,
    ) -> Result<(BoundExpr, Option<DataType>)> {
        let poisoned = || (BoundExpr::Literal(Value::Null), None);
        Ok(match self {
            Expr::Literal(v) => (BoundExpr::Literal(v.clone()), Some(v.data_type())),
            Expr::Column(name) => match schema.index_of(name).zip(schema.field(name)) {
                Some((idx, f)) => (BoundExpr::Column(idx), Some(f.dtype)),
                None => {
                    let msg = format!("unknown column '{name}' in schema {schema}");
                    b.report(Code::UnknownColumn, msg)?;
                    poisoned()
                }
            },
            Expr::Binary { op, lhs, rhs } => {
                let (bl, tl) = lhs.bind_with(schema, b)?;
                let (br, tr) = rhs.bind_with(schema, b)?;
                let out = binary_result_type(*op, tl, tr, b)?;
                let (lhs, rhs) = (Box::new(bl), Box::new(br));
                (BoundExpr::Binary { op: *op, lhs, rhs }, out)
            }
            Expr::Unary { op, expr } => {
                let (be, te) = expr.bind_with(schema, b)?;
                let out = match op {
                    UnOp::Not => {
                        if let Some(t) = te.filter(|&t| t != DataType::Bool && t != DataType::Null)
                        {
                            b.report(Code::TypeMismatch, format!("NOT requires BOOL, got {t}"))?;
                        }
                        Some(DataType::Bool)
                    }
                    UnOp::Neg => match te {
                        Some(DataType::Int | DataType::Float) | None => te,
                        Some(other) => {
                            let msg = format!("negation requires numeric, got {other}");
                            b.report(Code::TypeMismatch, msg)?;
                            None
                        }
                    },
                };
                let expr = Box::new(be);
                (BoundExpr::Unary { op: *op, expr }, out)
            }
            Expr::Call { name, args } => {
                let func = b.registry().get(name);
                if func.is_none() {
                    b.report(Code::UnknownFunction, format!("unknown function '{name}'"))?;
                }
                let (args, types): (Vec<_>, Vec<_>) = args
                    .iter()
                    .map(|a| a.bind_with(schema, b))
                    .collect::<Result<Vec<_>>>()?
                    .into_iter()
                    .unzip();
                let Some(func) = func else {
                    return Ok(poisoned());
                };
                if args.len() < func.min_args() || args.len() > func.max_args() {
                    let (min, max) = (func.min_args(), func.max_args());
                    let msg = format!(
                        "function '{name}' expects {min}..={max} args, got {}",
                        args.len()
                    );
                    b.report(Code::BadArity, msg)?;
                    return Ok(poisoned());
                }
                let Some(types) = types.into_iter().collect::<Option<Vec<_>>>() else {
                    return Ok(poisoned());
                };
                match func.return_type(&types) {
                    Ok(ret) => (BoundExpr::Call { func, args, ret }, Some(ret)),
                    Err(e) => {
                        let msg = format!("function '{name}' rejects these argument types: {e}");
                        b.report(Code::TypeMismatch, msg)?;
                        poisoned()
                    }
                }
            }
        })
    }
}

/// The types arithmetic and the `sum`/`avg` folds accept.
pub(crate) fn numeric(t: DataType) -> bool {
    use DataType::*;
    matches!(t, Int | Float | Timestamp | Null)
}

/// The result type of `tl op tr`. A poisoned operand types as NULL,
/// which every rule accepts.
fn binary_result_type(
    op: BinOp,
    tl: Option<DataType>,
    tr: Option<DataType>,
    b: &mut Binder,
) -> Result<Option<DataType>> {
    use DataType::*;
    let (tl, tr) = (tl.unwrap_or(Null), tr.unwrap_or(Null));
    if op.is_arith() {
        if !numeric(tl) || !numeric(tr) {
            let msg = format!("operator {op} requires numeric operands, got {tl} and {tr}");
            b.report(Code::TypeMismatch, msg)?;
            return Ok(None);
        }
        return Ok(Some(if tl == Float || tr == Float {
            Float
        } else {
            Int
        }));
    }
    if op.is_cmp() {
        let comparable = (numeric(tl) && numeric(tr)) || (tl == tr) || tl == Null || tr == Null;
        if !comparable {
            b.report(Code::TypeMismatch, format!("cannot compare {tl} with {tr}"))?;
        }
        return Ok(Some(Bool));
    }
    // And / Or
    for t in [tl, tr] {
        if t != Bool && t != Null {
            let msg = format!("operator {op} requires BOOL operands, got {t}");
            b.report(Code::TypeMismatch, msg)?;
        }
    }
    Ok(Some(Bool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NebulaError;
    use crate::record::Record;
    use crate::schema::Schema;

    fn schema() -> crate::schema::SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("speed", DataType::Float),
            ("train", DataType::Int),
            ("name", DataType::Text),
            ("ok", DataType::Bool),
        ])
    }

    fn rec() -> Record {
        Record::new(vec![
            Value::Timestamp(1_000),
            Value::Float(120.5),
            Value::Int(7),
            Value::text("IC-540"),
            Value::Bool(true),
        ])
    }

    fn eval(e: &Expr) -> Value {
        let reg = FunctionRegistry::with_builtins();
        let (b, _) = e.bind(&schema(), &reg).unwrap();
        b.eval(&rec()).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval(&col("speed").mul(lit(2.0))), Value::Float(241.0));
        assert_eq!(eval(&col("train").add(lit(1i64))), Value::Int(8));
        assert_eq!(eval(&col("speed").gt(lit(100.0))), Value::Bool(true));
        assert_eq!(eval(&col("train").le(lit(3i64))), Value::Bool(false));
        assert_eq!(eval(&col("name").eq(lit("IC-540"))), Value::Bool(true));
    }

    #[test]
    fn logic_and_unary() {
        let e = col("ok").and(col("speed").gt(lit(100.0)));
        assert_eq!(eval(&e), Value::Bool(true));
        assert_eq!(eval(&col("ok").not()), Value::Bool(false));
        assert_eq!(eval(&col("train").neg()), Value::Int(-7));
        let between = col("speed").between(lit(100.0), lit(130.0));
        assert_eq!(eval(&between), Value::Bool(true));
    }

    #[test]
    fn bind_rejects_unknown_column() {
        let reg = FunctionRegistry::with_builtins();
        let err = col("missing").bind(&schema(), &reg).unwrap_err();
        assert!(matches!(err, NebulaError::Type(_)));
    }

    #[test]
    fn bind_rejects_type_mismatch() {
        let reg = FunctionRegistry::with_builtins();
        assert!(col("name").add(lit(1i64)).bind(&schema(), &reg).is_err());
        assert!(col("name").and(col("ok")).bind(&schema(), &reg).is_err());
        assert!(col("name").neg().bind(&schema(), &reg).is_err());
        assert!(col("name").gt(lit(1i64)).bind(&schema(), &reg).is_err());
    }

    #[test]
    fn result_types() {
        let reg = FunctionRegistry::with_builtins();
        let (_, t) = col("train").add(lit(1i64)).bind(&schema(), &reg).unwrap();
        assert_eq!(t, DataType::Int);
        let (_, t) = col("train").add(lit(0.5)).bind(&schema(), &reg).unwrap();
        assert_eq!(t, DataType::Float);
        let (_, t) = col("speed").gt(lit(1i64)).bind(&schema(), &reg).unwrap();
        assert_eq!(t, DataType::Bool);
    }

    #[test]
    fn call_binds_against_registry() {
        let e = call("abs", vec![col("train").neg()]);
        assert_eq!(eval(&e), Value::Int(7));
        let reg = FunctionRegistry::with_builtins();
        assert!(call("nope", vec![]).bind(&schema(), &reg).is_err());
        assert!(call("abs", vec![]).bind(&schema(), &reg).is_err(), "arity");
    }
}
