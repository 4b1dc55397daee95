//! Pass 1: typed schema inference.
//!
//! Binds the operator chain with the binder [`crate::query::compile`]
//! uses, collecting instead of failing fast: every typing rule is the
//! one `compile` applies, so the pass emits an `E` diagnostic exactly
//! where `compile` would fail, and its first diagnostic carries
//! `compile`'s error message. Binding continues past
//! a failed check — a failed subtree gets a poisoned type that no rule
//! reports again — and every finding carries a span-like operator path.
//! The pass then reads what the later passes need off the bound
//! operators: the schema after each one, event-time redefinition, and
//! the provenance of opaque MEOS columns, whose producing functions a
//! [`CapabilityRegistry`] can name.

use super::diagnostics::{Code, Diagnostic};
use super::CapabilityRegistry;
use crate::expr::{Binder, Expr, FunctionRegistry};
use crate::query::{bind_ops, LogicalOp};
use crate::schema::SchemaRef;
use crate::value::DataType;

/// An opaque-typed column whose producing function the capability
/// registry knows, with the wire tag its values will carry.
#[derive(Debug, Clone, PartialEq)]
pub struct OpaqueCol {
    /// Operator index after which the column exists (`usize::MAX` for
    /// source columns).
    pub after_op: usize,
    /// Column name.
    pub column: String,
    /// The opaque type tag (e.g. `meos.tgeompoint`), when known.
    pub tag: Option<String>,
}

/// What schema inference learned about the plan; input to the
/// watermark and placement passes.
#[derive(Debug, Clone)]
pub struct PlanFacts {
    /// The source schema.
    pub input: SchemaRef,
    /// Schema after operator `i`; `None` once inference aborted at a
    /// plugin operator that failed to instantiate.
    pub after: Vec<Option<SchemaRef>>,
    /// Index of the first projection that redefines the event-time
    /// field with a non-identity expression.
    pub ts_redefined_at: Option<usize>,
    /// Opaque-typed columns visible anywhere in the plan.
    pub opaque_cols: Vec<OpaqueCol>,
}

/// Runs inference over `ops`, appending diagnostics and returning the
/// collected facts.
pub(super) fn run(
    ops: &[LogicalOp],
    ts_field: &str,
    input: SchemaRef,
    registry: &FunctionRegistry,
    caps: &CapabilityRegistry,
    diags: &mut Vec<Diagnostic>,
) -> PlanFacts {
    let mut binder = Binder::collect(registry);
    let bound = bind_ops(ops, ts_field, input.clone(), &mut binder);
    diags.extend(binder.into_diagnostics());
    let bound = bound.map(|plan| plan.operators).unwrap_or_else(|e| {
        // A collecting binder records every failed check, so this error
        // is none of them; the plan's schemas end at the source.
        diags.push(Diagnostic::new(
            Code::OperatorInstantiation,
            "plan",
            e.to_string(),
        ));
        Vec::new()
    });
    let mut facts = PlanFacts {
        after: (0..ops.len())
            .map(|i| bound.get(i).map(|op| op.output_schema()))
            .collect(),
        ts_redefined_at: None,
        opaque_cols: input
            .fields()
            .iter()
            .filter(|f| f.dtype == DataType::Opaque)
            .map(|f| OpaqueCol {
                after_op: usize::MAX,
                column: f.name.clone(),
                tag: None,
            })
            .collect(),
        input,
    };
    for (i, op) in ops.iter().enumerate() {
        let (LogicalOp::Map { projections, .. }, Some(out)) = (op, &facts.after[i]) else {
            continue;
        };
        // The projections are the map's last output columns.
        let first = out.len() - projections.len();
        for (j, (name, e)) in projections.iter().enumerate() {
            if name == ts_field && !matches!(e, Expr::Column(c) if c == ts_field) {
                facts.ts_redefined_at.get_or_insert(i);
            }
            if out.field_at(first + j).map(|f| f.dtype) != Some(DataType::Opaque) {
                continue;
            }
            let tag = match e {
                Expr::Call { name: fname, .. } => caps.opaque_fn_tag(fname).map(str::to_string),
                // Identity projections carry the original column's tag.
                Expr::Column(c) => facts
                    .opaque_cols
                    .iter()
                    .rev()
                    .find(|o| &o.column == c)
                    .and_then(|o| o.tag.clone()),
                _ => None,
            };
            facts.opaque_cols.push(OpaqueCol {
                after_op: i,
                column: name.clone(),
                tag,
            });
        }
    }
    facts
}
