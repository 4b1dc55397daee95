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
use crate::schema::SchemaRef;
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
        if matches!(candidate, PartitionScheme::Key(_))
            && ops.any(|op| {
                matches!(
                    op,
                    LogicalOp::Window { .. } | LogicalOp::Cep(_) | LogicalOp::Custom(_)
                )
            })
        {
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
    Ok(CompiledPlan {
        operators,
        output_schema: schema,
    })
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
