//! Declarative queries: a fluent builder producing a logical plan, and
//! the compiler that binds it into a physical operator chain.
//!
//! Mirrors NebulaStream's query API:
//!
//! ```
//! use nebula::prelude::*;
//!
//! let q = Query::from("trains")
//!     .filter(col("speed").gt(lit(120.0)))
//!     .map_extend(vec![("excess", col("speed").sub(lit(120.0)))])
//!     .window(
//!         vec![("train", col("train_id"))],
//!         WindowSpec::Tumbling { size: 60_000_000 },
//!         vec![WindowAgg::new("n", AggSpec::Count)],
//!     );
//! assert_eq!(q.source(), "trains");
//! ```

use crate::analysis::Code;
use crate::error::{NebulaError, Result};
use crate::expr::{Binder, Expr, FunctionRegistry};
use crate::ops::{CepOp, FilterOp, MapOp, Operator, OperatorFactory, Pattern, WindowOp};
use crate::schema::{ReadSet, SchemaRef};
use crate::window::{WindowAgg, WindowSpec};
use std::sync::Arc;

/// A logical operator in a query plan.
#[derive(Clone)]
pub enum LogicalOp {
    /// Selection.
    Filter(Expr),
    /// Projection (optionally extending the input columns).
    Map {
        /// `(output name, expression)` pairs.
        projections: Vec<(String, Expr)>,
        /// Keep input columns and append.
        extend: bool,
    },
    /// Keyed window aggregation.
    Window {
        /// Grouping keys as `(output name, expression)`.
        keys: Vec<(String, Expr)>,
        /// Window shape.
        spec: WindowSpec,
        /// Aggregates.
        aggs: Vec<WindowAgg>,
    },
    /// Complex event pattern detection.
    Cep(Pattern),
    /// A plugin-provided operator.
    Custom(Arc<dyn OperatorFactory>),
}

impl LogicalOp {
    /// Whether the operator keeps state across buffers: a window, a CEP
    /// pattern, or a plugin operator (whose state is opaque).
    pub fn is_stateful(&self) -> bool {
        matches!(
            self,
            LogicalOp::Window { .. } | LogicalOp::Cep(_) | LogicalOp::Custom(_)
        )
    }
}

impl std::fmt::Debug for LogicalOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogicalOp::Filter(_) => write!(f, "Filter"),
            LogicalOp::Map {
                projections,
                extend,
            } => {
                write!(f, "Map(x{}, extend={extend})", projections.len())
            }
            LogicalOp::Window { keys, .. } => write!(f, "Window(keys={})", keys.len()),
            LogicalOp::Cep(p) => write!(f, "Cep({})", p.name),
            LogicalOp::Custom(c) => write!(f, "Custom({})", c.name()),
        }
    }
}

/// A declarative streaming query.
#[derive(Debug, Clone)]
pub struct Query {
    source: String,
    ts_field: String,
    ops: Vec<LogicalOp>,
}

impl Query {
    /// Starts a query over the named stream. The event-time field
    /// defaults to `"ts"`.
    pub fn from(source: impl Into<String>) -> Self {
        Query {
            source: source.into(),
            ts_field: "ts".into(),
            ops: Vec::new(),
        }
    }

    /// Overrides the event-time field name.
    pub fn with_ts_field(mut self, ts_field: impl Into<String>) -> Self {
        self.ts_field = ts_field.into();
        self
    }

    /// The source stream name.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The event-time field name.
    pub fn ts_field(&self) -> &str {
        &self.ts_field
    }

    /// The logical operators in order.
    pub fn ops(&self) -> &[LogicalOp] {
        &self.ops
    }

    /// Appends a selection.
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.ops.push(LogicalOp::Filter(predicate));
        self
    }

    /// Appends a narrowing projection.
    pub fn map(mut self, projections: Vec<(&str, Expr)>) -> Self {
        self.ops.push(LogicalOp::Map {
            projections: projections
                .into_iter()
                .map(|(n, e)| (n.to_string(), e))
                .collect(),
            extend: false,
        });
        self
    }

    /// Appends an extending projection (keeps input columns).
    pub fn map_extend(mut self, projections: Vec<(&str, Expr)>) -> Self {
        self.ops.push(LogicalOp::Map {
            projections: projections
                .into_iter()
                .map(|(n, e)| (n.to_string(), e))
                .collect(),
            extend: true,
        });
        self
    }

    /// Appends a keyed window aggregation.
    pub fn window(
        mut self,
        keys: Vec<(&str, Expr)>,
        spec: WindowSpec,
        aggs: Vec<WindowAgg>,
    ) -> Self {
        self.ops.push(LogicalOp::Window {
            keys: keys.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
            spec,
            aggs,
        });
        self
    }

    /// Appends a CEP pattern stage.
    pub fn cep(mut self, pattern: Pattern) -> Self {
        self.ops.push(LogicalOp::Cep(pattern));
        self
    }

    /// Appends a plugin operator.
    pub fn apply(mut self, factory: Arc<dyn OperatorFactory>) -> Self {
        self.ops.push(LogicalOp::Custom(factory));
        self
    }

    /// How this plan may be sharded across parallel workers without
    /// changing its results (see `StreamEnvironment::run_partitioned`).
    ///
    /// The decision walks the operator list up to the first stateful
    /// operator (window or CEP):
    ///
    /// - If the stateful operator is keyed and every operator before it
    ///   preserves source column values (filters and *extending* maps),
    ///   records can be hash-partitioned by the grouping key evaluated on
    ///   source records — each key's full history lands on one worker, so
    ///   per-key state evolves exactly as in a single-worker run.
    /// - A keyless stateful operator, a narrowing map before the stateful
    ///   operator (it may redefine the key columns), or a plugin operator
    ///   (opaque state) forces all data onto a single worker.
    /// - A *second* stateful operator downstream of the first also forces
    ///   a single worker: it consumes the first stage's output, whose
    ///   grouping the source-record key shards cannot be proven to
    ///   respect (e.g. a keyed CEP feeding a keyless global window would
    ///   emit one row per partition instead of one per window).
    /// - A plan with no stateful operators at all is embarrassingly
    ///   parallel: records round-robin across workers.
    pub fn partition_scheme(&self) -> PartitionScheme {
        const NARROWED: &str = "a narrowing projection upstream may redefine the key columns";
        let mut prefix_preserves_columns = true;
        let mut ops = self.ops.iter();
        let candidate = loop {
            let Some(op) = ops.next() else {
                return PartitionScheme::RoundRobin;
            };
            match op {
                LogicalOp::Filter(_) => {}
                LogicalOp::Map { extend, .. } => {
                    if !extend {
                        prefix_preserves_columns = false;
                    }
                }
                LogicalOp::Window { keys, .. } => {
                    break if keys.is_empty() {
                        PartitionScheme::Single("the window is keyless")
                    } else if !prefix_preserves_columns {
                        PartitionScheme::Single(NARROWED)
                    } else {
                        PartitionScheme::Key(keys.iter().map(|(_, e)| e.clone()).collect())
                    };
                }
                LogicalOp::Cep(pattern) => {
                    break match (&pattern.key, prefix_preserves_columns) {
                        (Some(key), true) => PartitionScheme::Key(vec![key.clone()]),
                        (Some(_), false) => PartitionScheme::Single(NARROWED),
                        (None, _) => PartitionScheme::Single("the pattern is keyless"),
                    };
                }
                LogicalOp::Custom(_) => {
                    return PartitionScheme::Single(
                        "a plugin operator's state is opaque to key analysis",
                    )
                }
            }
        };
        if matches!(candidate, PartitionScheme::Key(_)) && ops.any(LogicalOp::is_stateful) {
            return PartitionScheme::Single("a second stateful operator follows the keyed stage");
        }
        candidate
    }
}

/// How records are routed to workers under partitioned execution.
#[derive(Debug, Clone)]
pub enum PartitionScheme {
    /// Hash of these expressions, evaluated on source records; all
    /// records of one key reach the same worker.
    Key(Vec<Expr>),
    /// Stateless plan: records distribute evenly, any worker will do.
    RoundRobin,
    /// Stateful but keyless or opaque: all data on one worker (the rest
    /// only see watermarks and end-of-stream). Carries why.
    Single(&'static str),
}

/// A compiled physical plan.
pub struct CompiledPlan {
    /// The operator chain in execution order.
    pub operators: Vec<Box<dyn Operator>>,
    /// The schema leaving the last operator.
    pub output_schema: SchemaRef,
    /// The input columns the plan reads, by the backward liveness pass
    /// over `operators`: the source's read set, before an executor adds
    /// the columns its watermark and routing read.
    pub reads: ReadSet,
}

/// Compiles a query against the source schema and registry, binding every
/// expression and instantiating physical operators.
pub fn compile(
    query: &Query,
    input: SchemaRef,
    registry: &FunctionRegistry,
) -> Result<CompiledPlan> {
    if query.ops.is_empty() {
        return Err(NebulaError::Plan(
            "query has no operators; add at least a filter/map/window".into(),
        ));
    }
    compile_ops(&query.ops, &query.ts_field, input, registry)
}

/// Compiles a slice of logical operators — the building block behind
/// [`compile`] and the cluster runtime's chain splitting (a placed plan
/// compiles each node's sub-chain separately). Unlike [`compile`], an
/// empty slice is valid and yields a pass-through plan.
pub(crate) fn compile_ops(
    ops: &[LogicalOp],
    ts_field: &str,
    input: SchemaRef,
    registry: &FunctionRegistry,
) -> Result<CompiledPlan> {
    bind_ops(ops, ts_field, input, &mut Binder::fail_fast(registry))
}

/// Binds `ops` in order through `b`, each against its predecessor's
/// output schema. A collecting binder stops only at a plugin operator
/// that fails to instantiate: no schema follows it, so the plan ends
/// there.
pub(crate) fn bind_ops(
    ops: &[LogicalOp],
    ts_field: &str,
    input: SchemaRef,
    b: &mut Binder,
) -> Result<CompiledPlan> {
    let mut operators: Vec<Box<dyn Operator>> = Vec::with_capacity(ops.len());
    let width = input.len();
    let mut schema = input;
    for (i, op) in ops.iter().enumerate() {
        b.enter(i);
        let physical: Box<dyn Operator> = match op {
            LogicalOp::Filter(pred) => Box::new(FilterOp::bind(pred, schema.clone(), b)?),
            LogicalOp::Map {
                projections,
                extend,
            } => Box::new(MapOp::bind(projections, *extend, &schema, b)?),
            LogicalOp::Window { keys, spec, aggs } => Box::new(WindowOp::bind(
                ts_field,
                keys,
                spec.clone(),
                aggs.clone(),
                schema.clone(),
                b,
            )?),
            LogicalOp::Cep(pattern) => Box::new(CepOp::bind(pattern, ts_field, &schema, b)?),
            LogicalOp::Custom(factory) => match factory.create(schema.clone(), b.registry()) {
                Ok(op) => op,
                Err(e) => {
                    let name = factory.name();
                    b.at(name);
                    let msg = format!("operator '{name}' failed to instantiate: {e}");
                    b.report(Code::OperatorInstantiation, msg)?;
                    break;
                }
            },
        };
        schema = physical.output_schema();
        operators.push(physical);
    }
    let chain: Vec<&dyn Operator> = operators.iter().map(|op| op.as_ref()).collect();
    let reads = liveness(&chain, width).swap_remove(0);
    Ok(CompiledPlan {
        operators,
        output_schema: schema,
        reads,
    })
}

/// The backward liveness pass over a bound chain `width` columns wide
/// at its input. The sink reads every column it receives; walking back,
/// each operator turns the columns read after it into the input columns
/// it reads ([`Operator::reads`]). Entry `i` is what is read of operator
/// `i`'s input — entry 0 the source's read set — and the last entry the
/// chain's output, read whole.
pub(crate) fn liveness(ops: &[&dyn Operator], width: usize) -> Vec<ReadSet> {
    let width_at = |i: usize| match i {
        0 => width,
        i => ops[i - 1].output_schema().len(),
    };
    let mut live = vec![ReadSet::all(width_at(ops.len()))];
    for (i, op) in ops.iter().enumerate().rev() {
        let mut reads = ReadSet::none(width_at(i));
        op.reads(&live[live.len() - 1], &mut reads);
        live.push(reads);
    }
    live.reverse();
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::schema::Schema;
    use crate::value::DataType;
    use crate::window::AggSpec;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    #[test]
    fn builder_accumulates_ops() {
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(1.0)))
            .map(vec![("s2", col("speed").mul(lit(2.0)))]);
        assert_eq!(q.source(), "trains");
        assert_eq!(q.ops().len(), 2);
        assert_eq!(q.ts_field(), "ts");
        let q = q.with_ts_field("event_time");
        assert_eq!(q.ts_field(), "event_time");
    }

    #[test]
    fn compile_threads_schemas() {
        let reg = FunctionRegistry::with_builtins();
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(1.0)))
            .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
        let plan = compile(&q, schema(), &reg).unwrap();
        assert_eq!(plan.operators.len(), 2);
        assert_eq!(plan.output_schema.len(), 4);
        assert_eq!(plan.output_schema.index_of("kmh"), Some(3));
    }

    #[test]
    fn compile_window_output() {
        let reg = FunctionRegistry::with_builtins();
        let q = Query::from("trains").window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling { size: 60_000_000 },
            vec![WindowAgg::new("max_speed", AggSpec::Max(col("speed")))],
        );
        let plan = compile(&q, schema(), &reg).unwrap();
        assert_eq!(
            plan.output_schema.to_string(),
            "(train: INT, window_start: TIMESTAMP, window_end: TIMESTAMP, \
             max_speed: FLOAT)"
        );
    }

    #[test]
    fn compile_rejects_unknown_column_early() {
        let reg = FunctionRegistry::with_builtins();
        let q = Query::from("trains").filter(col("missing").gt(lit(1.0)));
        assert!(compile(&q, schema(), &reg).is_err());
    }

    #[test]
    fn compile_rejects_empty_query() {
        let reg = FunctionRegistry::with_builtins();
        assert!(compile(&Query::from("trains"), schema(), &reg).is_err());
    }

    #[test]
    fn partition_scheme_keyed_window_is_key() {
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(1.0)))
            .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
            .window(
                vec![("train", col("train_id"))],
                WindowSpec::Tumbling { size: 60_000_000 },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        match q.partition_scheme() {
            PartitionScheme::Key(exprs) => assert_eq!(exprs.len(), 1),
            other => panic!("expected Key, got {other:?}"),
        }
    }

    #[test]
    fn partition_scheme_stateless_is_round_robin() {
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(1.0)))
            .map(vec![("t", col("train_id"))]);
        assert!(matches!(q.partition_scheme(), PartitionScheme::RoundRobin));
    }

    #[test]
    fn partition_scheme_keyless_window_is_single() {
        let q = Query::from("trains").window(
            vec![],
            WindowSpec::Tumbling { size: 60_000_000 },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        assert!(matches!(q.partition_scheme(), PartitionScheme::Single(_)));
    }

    #[test]
    fn partition_scheme_narrowing_map_before_window_is_single() {
        // A narrowing map may redefine the key column; partitioning on
        // the source value would split groups, so it must be Single.
        let q = Query::from("trains")
            .map(vec![("train_id", col("speed"))])
            .window(
                vec![("train", col("train_id"))],
                WindowSpec::Tumbling { size: 60_000_000 },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        assert!(matches!(q.partition_scheme(), PartitionScheme::Single(_)));
    }

    #[test]
    fn partition_scheme_keyed_cep_is_key() {
        use crate::ops::{Pattern, PatternStep};
        let keyed = Query::from("trains").cep(
            Pattern::new(
                "p",
                vec![PatternStep::new("hi", col("speed").gt(lit(50.0)))],
                1_000_000,
            )
            .keyed_by(col("train_id")),
        );
        assert!(matches!(keyed.partition_scheme(), PartitionScheme::Key(_)));
        let keyless = Query::from("trains").cep(Pattern::new(
            "p",
            vec![PatternStep::new("hi", col("speed").gt(lit(50.0)))],
            1_000_000,
        ));
        assert!(matches!(
            keyless.partition_scheme(),
            PartitionScheme::Single(_)
        ));
    }

    #[test]
    fn partition_scheme_second_stateful_forces_single() {
        use crate::ops::{Pattern, PatternStep};
        // Keyed CEP feeding a keyless global window: sharding by the CEP
        // key would emit one count row per partition, so routing must
        // fall back to Single (the review-probe regression).
        let q = Query::from("trains")
            .cep(
                Pattern::new(
                    "p",
                    vec![PatternStep::new("hi", col("speed").gt(lit(50.0)))],
                    1_000_000,
                )
                .keyed_by(col("train_id")),
            )
            .window(
                vec![],
                WindowSpec::Tumbling { size: 60_000_000 },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        assert!(matches!(q.partition_scheme(), PartitionScheme::Single(_)));
        // Same for stacked keyed windows: correctness over parallelism.
        let q = Query::from("trains")
            .window(
                vec![("train", col("train_id"))],
                WindowSpec::Tumbling { size: 60_000_000 },
                vec![WindowAgg::new("n", AggSpec::Count)],
            )
            .window(
                vec![("train", col("train"))],
                WindowSpec::Tumbling { size: 120_000_000 },
                vec![WindowAgg::new("m", AggSpec::Count)],
            );
        assert!(matches!(q.partition_scheme(), PartitionScheme::Single(_)));
    }

    /// The plan's read set over [`schema`] (`ts`, `train_id`, `speed`),
    /// as column positions.
    fn reads(q: &Query) -> Vec<usize> {
        let reg = FunctionRegistry::with_builtins();
        compile(q, schema(), &reg).unwrap().reads.iter().collect()
    }

    #[test]
    fn liveness_follows_each_operator_rule() {
        let minute = WindowSpec::Tumbling { size: 60_000_000 };
        let count = || vec![WindowAgg::new("n", AggSpec::Count)];
        // The sink reads everything a filter passes on.
        assert_eq!(
            reads(&Query::from("t").filter(col("speed").gt(lit(1.0)))),
            [0, 1, 2]
        );
        // A narrowing map reads its projections only; a filter before it
        // adds its predicate.
        assert_eq!(reads(&Query::from("t").map(vec![("s", col("speed"))])), [2]);
        let q = Query::from("t")
            .filter(col("train_id").gt(lit(1)))
            .map(vec![("s", col("speed"))]);
        assert_eq!(reads(&q), [1, 2]);
        // A window reads its time column, keys and aggregate operands;
        // an extending map before it still evaluates its unread column.
        let keyed = Query::from("t").window(vec![("k", col("train_id"))], minute.clone(), count());
        assert_eq!(reads(&keyed), [0, 1]);
        let q = Query::from("t")
            .map_extend(vec![("x", col("speed").mul(lit(2.0)))])
            .window(vec![], minute, count());
        assert_eq!(reads(&q), [0, 2]);
        // A threshold predicate is read.
        let q = Query::from("t").window(
            vec![],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(1.0)),
                min_count: 2,
            },
            count(),
        );
        assert_eq!(reads(&q), [0, 2]);
        // CEP reads its steps, key and time column, plus the live
        // columns its matches carry on.
        use crate::ops::{Pattern, PatternStep};
        let pattern = Pattern::new(
            "p",
            vec![PatternStep::new("hi", col("speed").gt(lit(50.0)))],
            1_000_000,
        );
        let q = (Query::from("t").cep(pattern.clone())).map(vec![("at", col("match_end"))]);
        assert_eq!(reads(&q), [0, 2]);
        let q = Query::from("t")
            .cep(pattern)
            .map(vec![("train", col("train_id"))]);
        assert_eq!(reads(&q), [0, 1, 2]);
        // A plugin operator reads everything.
        struct Pass;
        impl OperatorFactory for Pass {
            fn name(&self) -> &str {
                "pass"
            }
            fn create(&self, input: SchemaRef, _: &FunctionRegistry) -> Result<Box<dyn Operator>> {
                let f = |r: &crate::record::Record, out: &mut Vec<_>| {
                    out.push(r.clone());
                    Ok(())
                };
                Ok(Box::new(crate::ops::FlatMapOp::new("pass", input, f)))
            }
        }
        let q = Query::from("t")
            .apply(Arc::new(Pass))
            .map(vec![("s", col("speed"))]);
        assert_eq!(reads(&q), [0, 1, 2]);
    }

    #[test]
    fn downstream_ops_see_projected_schema() {
        let reg = FunctionRegistry::with_builtins();
        // After a narrowing map, "speed" is gone; a filter on it must fail.
        let q = Query::from("trains")
            .map(vec![("train", col("train_id"))])
            .filter(col("speed").gt(lit(1.0)));
        assert!(compile(&q, schema(), &reg).is_err());
    }
}
