//! Pass 3: partitioning & placement capability analysis.
//!
//! Computes per-operator capabilities — keyed-partitionable,
//! edge-splittable aggregate, wire-codec availability for every
//! cross-boundary type — and checks them against the requested
//! execution target. The silent degradations this pass surfaces are
//! real runtime behavior today: `run_partitioned` falls back to one
//! worker for keyless/opaque plans (`W010`), the cluster runtime ships
//! raw records to the cloud when a window cannot pre-aggregate at the
//! edge (`W011`), and opaque values without a registered wire codec
//! only fail once a record actually crosses a node boundary (`W012`).

use super::diagnostics::{Code, Diagnostic};
use super::schema_pass::PlanFacts;
use super::{AnalysisContext, Target};
use crate::expr::FunctionRegistry;
use crate::preagg::{edge_split, CloudRole};
use crate::query::{LogicalOp, PartitionScheme, Query};
use crate::topology::PlacementStrategy;
use crate::value::DataType;
use crate::window::WindowSpec;
use std::collections::BTreeSet;

/// Runs the pass for the context's execution target.
pub(super) fn run(
    query: &Query,
    facts: &PlanFacts,
    registry: &FunctionRegistry,
    ctx: &AnalysisContext,
    diags: &mut Vec<Diagnostic>,
) {
    match &ctx.target {
        Target::Local => {}
        Target::Partitioned { parallelism } if *parallelism > 1 => {
            check_partitioning(query, facts, registry, *parallelism, diags);
        }
        Target::Partitioned { .. } => {}
        Target::Placed {
            edge_first,
            pipelines,
        } => {
            if *edge_first {
                check_edge_split(query, *pipelines, diags);
            }
            check_wire_codecs(facts, ctx, diags);
        }
    }
}

/// Mirrors `run_partitioned`'s routing decision and warns when the
/// requested parallelism silently collapses to a single worker.
fn check_partitioning(
    query: &Query,
    facts: &PlanFacts,
    registry: &FunctionRegistry,
    parallelism: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let reason = match query.partition_scheme() {
        PartitionScheme::RoundRobin => return,
        // The runtime binds key expressions against the *source* schema
        // and falls back to Single when any fails to bind.
        PartitionScheme::Key(exprs) => {
            if exprs.iter().all(|e| e.bind(&facts.input, registry).is_ok()) {
                return;
            }
            "the partition key does not bind against the source schema"
        }
        PartitionScheme::Single(reason) => reason,
    };
    diags.push(Diagnostic::new(
        Code::PartitionFallback,
        partition_path(query),
        format!(
            "requested parallelism {parallelism}, but {reason}; all records route to a \
             single worker"
        ),
    ));
}

/// The path of the operator that forces single-worker routing.
fn partition_path(query: &Query) -> String {
    for (i, op) in query.ops().iter().enumerate() {
        match op {
            LogicalOp::Window { .. } => return format!("op{i}:window"),
            LogicalOp::Cep(_) => return format!("op{i}:cep"),
            LogicalOp::Custom(f) => return format!("op{i}:{}", f.name()),
            _ => {}
        }
    }
    "plan".into()
}

/// Warns when an edge-first placement cannot pre-aggregate the first
/// stateful window at the edge, so raw records ship to the cloud. Reads
/// the placed planner's own split.
fn check_edge_split(query: &Query, pipelines: usize, diags: &mut Vec<Diagnostic>) {
    let split = edge_split(query, PlacementStrategy::EdgeFirst, pipelines);
    let (Some(i), CloudRole::None | CloudRole::Plain) = (split.first_stateful, split.cloud) else {
        return;
    };
    let LogicalOp::Window { spec, aggs, .. } = &query.ops()[i] else {
        return; // CEP/plugin stages are not aggregates; nothing to split.
    };
    let message = if matches!(spec, WindowSpec::Threshold { .. }) {
        "threshold windows close on predicate transitions and cannot pre-aggregate \
         at the edge; raw records ship to the cloud"
            .to_string()
    } else {
        let unsplittable: Vec<&str> = aggs
            .iter()
            .filter(|a| !a.spec.splittable())
            .map(|a| a.name.as_str())
            .collect();
        format!(
            "window aggregate(s) [{}] cannot split across node boundaries; the whole \
             window runs at the cloud and raw records ship over the uplink",
            unsplittable.join(", ")
        )
    };
    diags.push(Diagnostic::new(
        Code::UnsplittableAggregate,
        format!("op{i}:window"),
        message,
    ));
}

/// Warns when opaque-typed columns may cross a node boundary without a
/// registered wire codec. Known columns (from the capability registry)
/// are checked tag-by-tag; unknown opaque columns warn only when no
/// codec is registered at all.
fn check_wire_codecs(facts: &PlanFacts, ctx: &AnalysisContext, diags: &mut Vec<Diagnostic>) {
    let tags = ctx.capabilities.wire_tags();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for col in &facts.opaque_cols {
        let path = if col.after_op == usize::MAX {
            "source".to_string()
        } else {
            format!("op{}:map", col.after_op)
        };
        match &col.tag {
            Some(tag) if !tags.contains(tag) && reported.insert(col.column.clone()) => {
                diags.push(Diagnostic::new(
                    Code::MissingWireCodec,
                    path,
                    format!(
                        "opaque column '{}' carries type '{tag}' but no wire codec \
                             for it is registered; values cannot cross node boundaries",
                        col.column
                    ),
                ));
            }
            None if tags.is_empty() && reported.insert(col.column.clone()) => {
                diags.push(Diagnostic::new(
                    Code::MissingWireCodec,
                    path,
                    format!(
                        "opaque column '{}' may cross a node boundary but no wire \
                             codecs are registered",
                        col.column
                    ),
                ));
            }
            _ => {}
        }
    }
    // Opaque columns produced by plugin operators or aggregates are
    // invisible to provenance tracking; sweep the inferred schemas so
    // they are covered by the codec-registry presence check too.
    if tags.is_empty() {
        for (i, schema) in facts.after.iter().enumerate() {
            let Some(schema) = schema else { continue };
            for f in schema.fields() {
                if f.dtype == DataType::Opaque && reported.insert(f.name.clone()) {
                    diags.push(Diagnostic::new(
                        Code::MissingWireCodec,
                        format!("op{i}"),
                        format!(
                            "opaque column '{}' may cross a node boundary but no wire \
                             codecs are registered",
                            f.name
                        ),
                    ));
                }
            }
        }
    }
}
