//! Pre-flight static query analysis.
//!
//! A multi-pass analyzer over [`Query`] plans that runs *before*
//! execution in every mode ([`crate::runtime::StreamEnvironment`] and
//! [`crate::cluster::ClusterEnvironment`] call it from their run
//! entry points; it is also available standalone via [`analyze`]):
//!
//! 1. **Typed schema inference** (`schema_pass`) — threads a schema
//!    through the operator chain, resolving every expression to a
//!    concrete [`crate::value::DataType`] (including opaque MEOS
//!    types, via a [`CapabilityRegistry`] the `nebulameos` crate
//!    populates), so type errors surface as diagnostics instead of
//!    runtime failures.
//! 2. **Watermark-safety analysis** (`watermark_pass`) — event-time
//!    fields must resolve, window geometry must be well-formed, and
//!    plans whose output timestamps could regress the frontier are
//!    flagged.
//! 3. **Partitioning & placement capability analysis**
//!    (`placement_pass`) — per-operator capabilities
//!    (keyed-partitionable, edge-splittable aggregate, wire-codec
//!    availability for cross-boundary types) checked against the
//!    requested execution [`Target`], replacing silent single-worker
//!    fallbacks with explicit warnings.
//!
//! Findings carry stable codes (`E0xx` errors, `W0xx` lints — see
//! [`Code`]), span-like operator paths (`op3:window`), and deny/warn
//! levels ([`AnalysisOptions`]). Errors come from the compiler's own
//! binder — the schema pass binds the plan through the operator
//! constructors `compile` uses, collecting instead of failing fast — so
//! a plan that analyzes clean compiles, and a rejected plan fails to
//! compile with the first diagnostic's message (the `prop_analysis`
//! suite pins both). See `docs/analysis.md` for the full code table.

mod diagnostics;
mod placement_pass;
mod schema_pass;
mod watermark_pass;

pub use diagnostics::{
    AnalysisError, AnalysisOptions, AnalysisReport, Code, Diagnostic, LintLevel, Severity,
    ALL_CODES,
};
pub use schema_pass::{OpaqueCol, PlanFacts};

use crate::expr::FunctionRegistry;
use crate::query::Query;
use crate::schema::SchemaRef;
use crate::source::WatermarkStrategy;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Which execution mode the plan is being admitted for; drives the
/// partitioning/placement pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Target {
    /// `run` / `run_threaded`: a single operator chain.
    Local,
    /// `run_partitioned` with the given worker count.
    Partitioned {
        /// Requested parallelism (workers).
        parallelism: usize,
    },
    /// `run_placed` / `run_placed_chaos` across a cluster topology.
    Placed {
        /// Edge-first placement (operators pushed toward sources).
        edge_first: bool,
        /// Number of source pipelines fanning into the cloud.
        pipelines: usize,
    },
}

/// Static capabilities the analyzer cannot derive from the plan
/// itself: which opaque type tags have wire codecs, and which
/// registered functions produce which opaque types. The `nebulameos`
/// crate populates one for the MEOS extension
/// (`nebulameos::meos_capabilities`); the cluster runtime merges in
/// the tags of its live [`crate::wire::WireRegistry`].
#[derive(Debug, Clone, Default)]
pub struct CapabilityRegistry {
    wire_tags: BTreeSet<String>,
    opaque_fns: BTreeMap<String, String>,
}

impl CapabilityRegistry {
    /// An empty registry (no codecs, no known opaque producers).
    pub fn new() -> Self {
        CapabilityRegistry::default()
    }

    /// Declares that a wire codec exists for `tag`.
    pub fn register_wire_tag(&mut self, tag: impl Into<String>) {
        self.wire_tags.insert(tag.into());
    }

    /// Declares that function `name` produces opaque values of `tag`.
    pub fn register_opaque_fn(&mut self, name: impl Into<String>, tag: impl Into<String>) {
        self.opaque_fns.insert(name.into(), tag.into());
    }

    /// The set of opaque type tags with wire codecs.
    pub fn wire_tags(&self) -> &BTreeSet<String> {
        &self.wire_tags
    }

    /// The opaque type tag produced by function `name`, if known.
    pub fn opaque_fn_tag(&self, name: &str) -> Option<&str> {
        self.opaque_fns.get(name).map(String::as_str)
    }

    /// Merges `other` into `self` (tags and producers union).
    pub fn merge(&mut self, other: &CapabilityRegistry) {
        self.wire_tags.extend(other.wire_tags.iter().cloned());
        self.opaque_fns
            .extend(other.opaque_fns.iter().map(|(k, v)| (k.clone(), v.clone())));
    }
}

/// Everything the analyzer needs to know about where and how the plan
/// will run.
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    /// The execution mode being admitted.
    pub target: Target,
    /// The watermark strategies of the plan's sources (one per hosted
    /// pipeline; empty when unknown, which skips watermark-presence
    /// lints).
    pub watermarks: Vec<WatermarkStrategy>,
    /// Wire/opaque-type capabilities.
    pub capabilities: CapabilityRegistry,
    /// Lint-level overrides.
    pub options: AnalysisOptions,
}

impl AnalysisContext {
    /// A context for single-chain local execution.
    pub fn local() -> Self {
        AnalysisContext {
            target: Target::Local,
            watermarks: Vec::new(),
            capabilities: CapabilityRegistry::new(),
            options: AnalysisOptions::new(),
        }
    }

    /// A context for `run_partitioned` with `parallelism` workers.
    pub fn partitioned(parallelism: usize) -> Self {
        AnalysisContext {
            target: Target::Partitioned { parallelism },
            ..AnalysisContext::local()
        }
    }

    /// A context for placed cluster execution (single pipeline).
    pub fn placed(edge_first: bool) -> Self {
        AnalysisContext {
            target: Target::Placed {
                edge_first,
                pipelines: 1,
            },
            ..AnalysisContext::local()
        }
    }
}

/// Analyzes `query` against the source schema and function registry
/// for the given context. Never executes anything: the plan's
/// operators — plugin operators included — are instantiated exactly as
/// compilation would, read for their output schemas, and dropped.
pub fn analyze(
    query: &Query,
    input: SchemaRef,
    registry: &FunctionRegistry,
    ctx: &AnalysisContext,
) -> AnalysisReport {
    let start = Instant::now();
    let mut diags = Vec::new();
    if query.ops().is_empty() {
        diags.push(Diagnostic::new(
            Code::EmptyPlan,
            "plan",
            "query has no operators; add at least a filter/map/window",
        ));
    }
    let facts = schema_pass::run(
        query.ops(),
        query.ts_field(),
        input,
        registry,
        &ctx.capabilities,
        &mut diags,
    );
    watermark_pass::run(
        query.ops(),
        query.ts_field(),
        &facts,
        &ctx.watermarks,
        &mut diags,
    );
    placement_pass::run(query, &facts, registry, ctx, &mut diags);

    // Apply lint levels: drop allowed warnings, promote denied ones.
    let diagnostics = diags
        .into_iter()
        .filter_map(|mut d| match ctx.options.level(d.code) {
            LintLevel::Allow => None,
            LintLevel::Warn => Some(d),
            LintLevel::Deny => {
                d.severity = Severity::Error;
                Some(d)
            }
        })
        .collect();
    let output_schema = facts.after.last().cloned().flatten();
    AnalysisReport {
        diagnostics,
        output_schema,
        elapsed_us: start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{NebulaError, Result};
    use crate::expr::{call, col, lit, ClosureFunction};
    use crate::ops::{Operator, OperatorFactory, Pattern, PatternStep};
    use crate::query::compile;
    use crate::schema::Schema;
    use crate::value::{DataType, Value, MICROS_PER_SEC};
    use crate::window::{AggSpec, Aggregator, AggregatorFactory, WindowAgg, WindowSpec};
    use std::sync::Arc;

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("speed", DataType::Float),
            ("name", DataType::Text),
        ])
    }

    fn registry() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    fn codes(report: &AnalysisReport) -> Vec<Code> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    fn analyze_local(q: &Query) -> AnalysisReport {
        analyze(q, schema(), &registry(), &AnalysisContext::local())
    }

    /// Every rejection must mirror a compile failure and vice versa.
    fn assert_mirrors_compile(q: &Query) {
        let report = analyze_local(q);
        let compiled = compile(q, schema(), &registry());
        assert_eq!(
            report.has_errors(),
            compiled.is_err(),
            "analysis and compile disagree on {q:?}: {report:?}",
        );
    }

    #[test]
    fn e001_unknown_column() {
        let q = Query::from("s").filter(col("missing").gt(lit(1.0)));
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::UnknownColumn]);
        assert_eq!(report.diagnostics[0].path, "op0:filter");
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e002_unknown_function() {
        let q = Query::from("s").map_extend(vec![("x", call("no_such_fn", vec![col("speed")]))]);
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::UnknownFunction]);
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e003_type_mismatch() {
        let q = Query::from("s").map_extend(vec![("x", col("name").add(lit(1)))]);
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::TypeMismatch]);
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e004_bad_arity() {
        let mut reg = registry();
        reg.register(ClosureFunction::new(
            "one_arg",
            1,
            DataType::Float,
            |args| Ok(args[0].clone()),
        ))
        .unwrap();
        let q =
            Query::from("s").map_extend(vec![("x", call("one_arg", vec![col("speed"), lit(1.0)]))]);
        let report = analyze(&q, schema(), &reg, &AnalysisContext::local());
        assert_eq!(codes(&report), vec![Code::BadArity]);
        assert_eq!(
            report.has_errors(),
            compile(&q, schema(), &reg).is_err(),
            "mirror"
        );
    }

    #[test]
    fn e005_predicate_not_bool() {
        let q = Query::from("s").filter(col("speed").add(lit(1.0)));
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::PredicateNotBool]);
        assert_mirrors_compile(&q);

        // CEP step predicates are strict too.
        let q = Query::from("s").cep(Pattern::new(
            "p",
            vec![PatternStep::new("bad", col("speed"))],
            MICROS_PER_SEC,
        ));
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::PredicateNotBool]);
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e003_non_numeric_aggregate() {
        // sum/avg fold numerically: over TEXT they would fail on the
        // first row, so binding rejects them — in compile too.
        for (name, spec) in [
            ("sum", AggSpec::Sum(col("name"))),
            ("avg", AggSpec::Avg(col("name"))),
        ] {
            let q = Query::from("s").window(
                vec![],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("total", spec)],
            );
            let report = analyze_local(&q);
            assert_eq!(codes(&report), vec![Code::TypeMismatch]);
            assert_eq!(report.diagnostics[0].path, "op0:window/agg[0]");
            let message = format!("aggregate '{name}' requires numeric input, got TEXT");
            assert_eq!(report.diagnostics[0].message, message);
            assert_eq!(
                compile(&q, schema(), &registry()).err(),
                Some(NebulaError::Type(message))
            );
        }

        // min/max tolerate any comparable input; no diagnostic.
        let q = Query::from("s").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("last_name", AggSpec::Max(col("name")))],
        );
        assert!(analyze_local(&q).is_clean());
    }

    #[test]
    fn a_failed_subtree_reports_once() {
        // The missing column poisons its subtree: no E003 for negating
        // it, no E005 for a predicate made of it.
        let missing = || col("missing");
        let queries = [
            Query::from("s").map_extend(vec![("x", missing().neg())]),
            Query::from("s").window(
                vec![],
                WindowSpec::Threshold {
                    predicate: missing(),
                    min_count: 1,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            ),
            Query::from("s").cep(Pattern::new(
                "p",
                vec![PatternStep::new("step", missing())],
                MICROS_PER_SEC,
            )),
        ];
        for q in &queries {
            assert_eq!(codes(&analyze_local(q)), vec![Code::UnknownColumn], "{q:?}");
            assert_mirrors_compile(q);
        }

        // A NULL literal is a type, not a failure: negating it is E003.
        let q = Query::from("s").map_extend(vec![("x", lit(Value::Null).neg())]);
        assert_eq!(codes(&analyze_local(&q)), vec![Code::TypeMismatch]);
        assert!(matches!(
            compile(&q, schema(), &registry()),
            Err(NebulaError::Type(_))
        ));
    }

    #[test]
    fn e006_empty_plan() {
        let q = Query::from("s");
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::EmptyPlan]);
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e007_bad_window_geometry() {
        // The extremes too: the analyzer builds the window it rejects.
        for spec in [
            WindowSpec::Tumbling { size: 0 },
            WindowSpec::Tumbling { size: i64::MIN },
            WindowSpec::Sliding {
                size: i64::MIN,
                slide: -1,
            },
        ] {
            let q =
                Query::from("s").window(vec![], spec, vec![WindowAgg::new("n", AggSpec::Count)]);
            let report = analyze_local(&q);
            assert_eq!(codes(&report), vec![Code::BadWindowGeometry]);
            assert_mirrors_compile(&q);
        }

        let q = Query::from("s").cep(Pattern::new(
            "p",
            vec![PatternStep::new("hi", col("speed").gt(lit(1.0)))],
            0,
        ));
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::BadWindowGeometry]);
        assert_mirrors_compile(&q);
    }

    #[test]
    fn e008_missing_time_field() {
        // A narrowing map drops "ts"; the window downstream cannot
        // resolve its event-time column.
        let q = Query::from("s")
            .map(vec![("train", col("train_id"))])
            .window(
                vec![],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::MissingTimeField]);
        assert_mirrors_compile(&q);

        // Watermark strategy naming a missing field.
        let q = Query::from("s").filter(col("speed").gt(lit(1.0)));
        let ctx = AnalysisContext {
            watermarks: vec![WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "event_time".into(),
                slack: MICROS_PER_SEC,
            }],
            ..AnalysisContext::local()
        };
        let report = analyze(&q, schema(), &registry(), &ctx);
        assert_eq!(codes(&report), vec![Code::MissingTimeField]);
        assert_eq!(report.diagnostics[0].path, "source");
    }

    struct FailingFactory;
    impl OperatorFactory for FailingFactory {
        fn name(&self) -> &str {
            "failing"
        }
        fn create(&self, _: SchemaRef, _: &FunctionRegistry) -> Result<Box<dyn Operator>> {
            Err(NebulaError::Plan("needs column 'nope'".into()))
        }
    }

    #[test]
    fn e009_operator_instantiation() {
        let q = Query::from("s").apply(Arc::new(FailingFactory));
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::OperatorInstantiation]);
        assert!(report.output_schema.is_none());
        assert_mirrors_compile(&q);
    }

    fn keyless_window() -> Query {
        Query::from("s").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        )
    }

    #[test]
    fn w010_partition_fallback() {
        let report = analyze(
            &keyless_window(),
            schema(),
            &registry(),
            &AnalysisContext::partitioned(4),
        );
        assert_eq!(codes(&report), vec![Code::PartitionFallback]);
        assert!(!report.has_errors(), "W010 must not reject the plan");
        assert!(report.diagnostics[0].message.contains("keyless"));

        // Parallelism 1 degrades nothing.
        let report = analyze(
            &keyless_window(),
            schema(),
            &registry(),
            &AnalysisContext::partitioned(1),
        );
        assert!(report.is_clean());

        // A keyed window partitions fine.
        let keyed = Query::from("s").window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let report = analyze(
            &keyed,
            schema(),
            &registry(),
            &AnalysisContext::partitioned(4),
        );
        assert!(report.is_clean());
    }

    struct OpaqueAggFactory;
    impl AggregatorFactory for OpaqueAggFactory {
        fn output_type(&self, _: &Schema, _: &FunctionRegistry) -> Result<DataType> {
            Ok(DataType::Opaque)
        }
        fn create(&self, _: &Schema, _: &FunctionRegistry) -> Result<Box<dyn Aggregator>> {
            Err(NebulaError::Plan("not needed for analysis".into()))
        }
    }

    #[test]
    fn w011_unsplittable_aggregate() {
        let q = Query::from("s").window(
            vec![("train", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new(
                "blob",
                AggSpec::Custom(Arc::new(OpaqueAggFactory)),
            )],
        );
        let report = analyze(&q, schema(), &registry(), &AnalysisContext::placed(true));
        assert!(codes(&report).contains(&Code::UnsplittableAggregate));
        assert!(!report.has_errors());

        // Cloud-only placement never pre-aggregates; no warning.
        let report = analyze(&q, schema(), &registry(), &AnalysisContext::placed(false));
        assert!(!codes(&report).contains(&Code::UnsplittableAggregate));
    }

    #[test]
    fn w012_missing_wire_codec() {
        let mut reg = registry();
        reg.register(ClosureFunction::new(
            "make_blob",
            1,
            DataType::Opaque,
            |_| Ok(Value::Null),
        ))
        .unwrap();
        let q = Query::from("s").map_extend(vec![("blob", call("make_blob", vec![col("speed")]))]);

        let mut caps = CapabilityRegistry::new();
        caps.register_opaque_fn("make_blob", "test.blob");
        let ctx = AnalysisContext {
            capabilities: caps.clone(),
            ..AnalysisContext::placed(true)
        };
        let report = analyze(&q, schema(), &reg, &ctx);
        assert_eq!(codes(&report), vec![Code::MissingWireCodec]);
        assert!(report.diagnostics[0].message.contains("test.blob"));

        // With the codec registered the plan is clean.
        caps.register_wire_tag("test.blob");
        let ctx = AnalysisContext {
            capabilities: caps,
            ..AnalysisContext::placed(true)
        };
        let report = analyze(&q, schema(), &reg, &ctx);
        assert!(report.is_clean());
    }

    #[test]
    fn w013_timestamp_redefined() {
        let q = Query::from("s")
            .map_extend(vec![("ts", col("ts").add(lit(5)))])
            .window(
                vec![],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::TimestampRedefined]);
        assert!(!report.has_errors());

        // An identity re-projection is not a redefinition.
        let q = Query::from("s")
            .map(vec![("ts", col("ts")), ("speed", col("speed"))])
            .window(
                vec![],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );
        assert!(analyze_local(&q).is_clean());
    }

    #[test]
    fn w014_slide_coverage_gap() {
        let q = Query::from("s").window(
            vec![],
            WindowSpec::Sliding {
                size: 10 * MICROS_PER_SEC,
                slide: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let report = analyze_local(&q);
        assert_eq!(codes(&report), vec![Code::SlideCoverageGap]);
        assert!(!report.has_errors());
    }

    #[test]
    fn w015_no_watermark_strategy() {
        let ctx = AnalysisContext {
            watermarks: vec![WatermarkStrategy::None],
            ..AnalysisContext::local()
        };
        let report = analyze(&keyless_window(), schema(), &registry(), &ctx);
        assert_eq!(codes(&report), vec![Code::NoWatermarkStrategy]);
        assert!(!report.has_errors(), "legal for finite replays");
    }

    #[test]
    fn lint_levels_promote_and_silence_warnings() {
        let deny = AnalysisContext {
            options: AnalysisOptions::new().set(Code::PartitionFallback, LintLevel::Deny),
            ..AnalysisContext::partitioned(4)
        };
        let report = analyze(&keyless_window(), schema(), &registry(), &deny);
        assert!(report.has_errors());
        assert!(report.into_accepted().is_err());

        let allow = AnalysisContext {
            options: AnalysisOptions::new().set(Code::PartitionFallback, LintLevel::Allow),
            ..AnalysisContext::partitioned(4)
        };
        let report = analyze(&keyless_window(), schema(), &registry(), &allow);
        assert!(report.is_clean());
    }

    #[test]
    fn multiple_findings_reported_together() {
        // compile() stops at the first error; the analyzer reports all.
        let q = Query::from("s")
            .filter(col("missing").gt(lit(1.0)))
            .map_extend(vec![("x", call("no_such_fn", vec![]))]);
        let report = analyze_local(&q);
        assert_eq!(
            codes(&report),
            vec![Code::UnknownColumn, Code::UnknownFunction]
        );
        assert_mirrors_compile(&q);
    }

    #[test]
    fn clean_plan_infers_output_schema() {
        let q = Query::from("s")
            .filter(col("speed").gt(lit(1.0)))
            .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
            .window(
                vec![("train", col("train_id"))],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![
                    WindowAgg::new("n", AggSpec::Count),
                    WindowAgg::new("top", AggSpec::Max(col("kmh"))),
                ],
            );
        let report = analyze_local(&q);
        assert!(report.is_clean(), "{report:?}");
        let out = report.output_schema.expect("inference reached the end");
        let compiled = compile(&q, schema(), &registry()).unwrap();
        assert!(out.same_layout(&compiled.output_schema));
        assert!(report.elapsed_us < 10_000, "analysis must be cheap");
    }

    #[test]
    fn report_renders_and_exports_json() {
        let q = Query::from("s").filter(col("missing").gt(lit(1.0)));
        let report = analyze_local(&q);
        let rendered = report.render();
        assert!(rendered.contains("E001"), "{rendered}");
        assert!(rendered.contains("op0:filter"), "{rendered}");
        let json = report.to_json();
        assert_eq!(json["errors"], serde_json::json!(1));
        assert_eq!(json["diagnostics"][0]["code"], serde_json::json!("E001"));
    }

    #[test]
    fn analysis_error_is_typed_and_cloneable() {
        let q = Query::from("s").filter(col("missing").gt(lit(1.0)));
        let err = analyze_local(&q).into_accepted().unwrap_err();
        let NebulaError::Analysis(ae) = &err else {
            panic!("expected Analysis error, got {err:?}");
        };
        assert_eq!(ae.diagnostics.len(), 1);
        assert_eq!(ae.diagnostics[0].code, Code::UnknownColumn);
        assert_eq!(err.clone(), err);
        assert!(err.to_string().contains("E001"));
    }
}
