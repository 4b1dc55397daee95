//! The function registry — NebulaStream's runtime extension point.
//!
//! Operators and expressions never hard-code domain logic; they call
//! functions resolved by name at bind time. Plugins (the MEOS integration
//! being the motivating one) implement [`Plugin`] and register
//! [`ScalarFunction`]s, making new operations available to every query
//! without engine changes.

use crate::buffer::Column;
use crate::error::{NebulaError, Result};
use crate::value::{DataType, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A scalar function callable from expressions.
///
/// [`ScalarFunction::invoke`] is the definition: one call, one row.
/// The columnar evaluator calls [`ScalarFunction::invoke_columnar`]
/// once per buffer instead; its default runs [`invoke_rows`], the
/// `invoke`-per-row loop, so a function that implements only `invoke`
/// behaves exactly as the row path does. Override it when the
/// function's body can read typed argument columns directly (a point
/// function over the `xs`/`ys` planes of a [`Column::Point`]): a typed
/// loop skips building a [`Value`] per argument and per result, which
/// for a cheap body is most of the per-row cost. The contract is the
/// row loop's result: the same values at every row, laid out so
/// `value_at` reads them back, and an error wherever the loop would
/// fail. The simple way to keep it is to handle only the argument
/// shapes the kernel cannot get wrong (typically null-free typed
/// columns) and to hand everything else — validity masks, boxed
/// [`Column::Values`], literals — to [`invoke_rows`].
pub trait ScalarFunction: Send + Sync {
    /// Registry key (lower-case by convention).
    fn name(&self) -> &str;
    /// Minimum argument count.
    fn min_args(&self) -> usize;
    /// Maximum argument count (defaults to `min_args`).
    fn max_args(&self) -> usize {
        self.min_args()
    }
    /// Result type given argument types (bind-time check).
    fn return_type(&self, arg_types: &[DataType]) -> Result<DataType>;
    /// Evaluates the function.
    fn invoke(&self, args: &[Value]) -> Result<Value>;
    /// Evaluates the function at each of `rows` rows of evaluated
    /// arguments, into a column laid out for `ret` (the return type
    /// bound for the call). Defaults to [`invoke_rows`]; see the trait
    /// documentation for when to override it and what an override must
    /// keep.
    fn invoke_columnar(
        &self,
        args: &[ColumnArg<'_>],
        ret: DataType,
        rows: usize,
    ) -> Result<Column> {
        invoke_rows(self, args, ret, rows)
    }
}

/// One evaluated argument of a columnar call.
#[derive(Debug, Clone, Copy)]
pub enum ColumnArg<'a> {
    /// One value per row.
    Column(&'a Column),
    /// The same value at every row.
    Literal(&'a Value),
}

/// Evaluates `func` one [`ScalarFunction::invoke`] per row, with a
/// reused argument vector into which literals are written once: the
/// default [`ScalarFunction::invoke_columnar`] and the fallback of every
/// override. Fails at the first row whose call fails.
pub fn invoke_rows<F: ScalarFunction + ?Sized>(
    func: &F,
    args: &[ColumnArg<'_>],
    ret: DataType,
    rows: usize,
) -> Result<Column> {
    let mut scratch: Vec<Value> = args
        .iter()
        .map(|a| match a {
            ColumnArg::Literal(v) => (*v).clone(),
            ColumnArg::Column(_) => Value::Null,
        })
        .collect();
    let mut out = Column::with_type(ret, rows);
    for row in 0..rows {
        for (slot, a) in scratch.iter_mut().zip(args) {
            if let ColumnArg::Column(c) = a {
                *slot = c.value_at(row);
            }
        }
        out.push(&func.invoke(&scratch)?);
    }
    Ok(out)
}

/// Boxed return-type inference function.
type RetFn = Box<dyn Fn(&[DataType]) -> Result<DataType> + Send + Sync>;
/// Boxed evaluation body.
type BodyFn = Box<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// A [`ScalarFunction`] assembled from closures — the concise way for
/// plugins and builtins to define functions.
pub struct ClosureFunction {
    name: String,
    min_args: usize,
    max_args: usize,
    ret: RetFn,
    body: BodyFn,
}

impl ClosureFunction {
    /// Builds a function with a fixed arity and constant return type.
    /// Returns the trait-object handle registries store.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        name: impl Into<String>,
        arity: usize,
        ret: DataType,
        body: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Arc<dyn ScalarFunction> {
        Arc::new(ClosureFunction {
            name: name.into(),
            min_args: arity,
            max_args: arity,
            ret: Box::new(move |_| Ok(ret)),
            body: Box::new(body),
        })
    }

    /// Builds a function with an argument-count range and a computed
    /// return type.
    pub fn new_variadic(
        name: impl Into<String>,
        min_args: usize,
        max_args: usize,
        ret: impl Fn(&[DataType]) -> Result<DataType> + Send + Sync + 'static,
        body: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Arc<dyn ScalarFunction> {
        Arc::new(ClosureFunction {
            name: name.into(),
            min_args,
            max_args,
            ret: Box::new(ret),
            body: Box::new(body),
        })
    }
}

impl ScalarFunction for ClosureFunction {
    fn name(&self) -> &str {
        &self.name
    }

    fn min_args(&self) -> usize {
        self.min_args
    }

    fn max_args(&self) -> usize {
        self.max_args
    }

    fn return_type(&self, arg_types: &[DataType]) -> Result<DataType> {
        (self.ret)(arg_types)
    }

    fn invoke(&self, args: &[Value]) -> Result<Value> {
        (self.body)(args)
    }
}

/// Named scalar functions available to expressions. Queries bind against
/// one registry; plugins extend it at startup.
#[derive(Default, Clone)]
pub struct FunctionRegistry {
    funcs: HashMap<String, Arc<dyn ScalarFunction>>,
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// A registry preloaded with the engine builtins.
    pub fn with_builtins() -> Self {
        let mut reg = FunctionRegistry::new();
        super::builtins::register_builtins(&mut reg);
        reg
    }

    /// Registers a function; fails on a duplicate name so plugin
    /// collisions surface at startup rather than as silently shadowed
    /// semantics.
    pub fn register(&mut self, f: Arc<dyn ScalarFunction>) -> Result<()> {
        let name = f.name().to_string();
        if self.funcs.contains_key(&name) {
            return Err(NebulaError::Plan(format!(
                "function '{name}' already registered"
            )));
        }
        self.funcs.insert(name, f);
        Ok(())
    }

    /// Registers or replaces (for tests / deliberate overrides).
    pub fn register_or_replace(&mut self, f: Arc<dyn ScalarFunction>) {
        self.funcs.insert(f.name().to_string(), f);
    }

    /// Resolves a function by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ScalarFunction>> {
        self.funcs.get(name).cloned()
    }

    /// True iff `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.funcs.contains_key(name)
    }

    /// Registered function names (sorted, for diagnostics).
    pub fn names(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.funcs.keys().map(String::as_str).collect();
        v.sort_unstable();
        v
    }

    /// Loads a plugin's functions.
    pub fn load_plugin(&mut self, plugin: &dyn Plugin) -> Result<()> {
        plugin.register(self)
    }
}

/// A runtime extension bundling function registrations — the engine-side
/// half of NebulaStream's plugin mechanism.
pub trait Plugin {
    /// Plugin name for diagnostics.
    fn name(&self) -> &str;
    /// Registers the plugin's functions.
    fn register(&self, registry: &mut FunctionRegistry) -> Result<()>;
    /// Static-analysis capabilities the plugin contributes: which of
    /// its functions produce opaque values (and their type tags), and
    /// which tags it ships wire codecs for. Environments merge this
    /// into their [`crate::analysis::CapabilityRegistry`] on load.
    fn capabilities(&self) -> crate::analysis::CapabilityRegistry {
        crate::analysis::CapabilityRegistry::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double_fn() -> Arc<dyn ScalarFunction> {
        ClosureFunction::new("double", 1, DataType::Float, |args| {
            let v = args[0]
                .as_float()
                .ok_or_else(|| NebulaError::Eval("double: non-numeric".into()))?;
            Ok(Value::Float(v * 2.0))
        })
    }

    #[test]
    fn register_and_invoke() {
        let mut reg = FunctionRegistry::new();
        reg.register(double_fn()).unwrap();
        let f = reg.get("double").unwrap();
        assert_eq!(f.invoke(&[Value::Int(4)]).unwrap(), Value::Float(8.0));
        assert_eq!(f.return_type(&[DataType::Int]).unwrap(), DataType::Float);
    }

    #[test]
    fn duplicate_registration_fails() {
        let mut reg = FunctionRegistry::new();
        reg.register(double_fn()).unwrap();
        assert!(reg.register(double_fn()).is_err());
        reg.register_or_replace(double_fn());
        assert!(reg.contains("double"));
    }

    #[test]
    fn plugin_loading() {
        struct P;
        impl Plugin for P {
            fn name(&self) -> &str {
                "test-plugin"
            }
            fn register(&self, reg: &mut FunctionRegistry) -> Result<()> {
                reg.register(double_fn())
            }
        }
        let mut reg = FunctionRegistry::new();
        reg.load_plugin(&P).unwrap();
        assert!(reg.contains("double"));
        assert_eq!(reg.names(), vec!["double"]);
    }

    #[test]
    fn builtins_present() {
        let reg = FunctionRegistry::with_builtins();
        for name in ["abs", "sqrt", "least", "greatest", "coalesce", "if"] {
            assert!(reg.contains(name), "missing builtin '{name}'");
        }
    }
}
