//! Pass 2: watermark-safety dataflow analysis.
//!
//! Verifies the timing side of the plan: the watermark strategy's
//! event-time field must exist in the source schema (mirroring the
//! runtime's `resolve_ts_col`), and flags plans whose timing is legal
//! but degraded — time windows that can only emit at end-of-stream
//! (`W015`), sliding geometry with coverage gaps (`W014`), and
//! projections that redefine the event-time field upstream of a
//! time-sensitive operator so output timestamps could regress the
//! frontier (`W013`). Degenerate geometry itself (`E007`) is caught
//! during schema inference, by the operator constructors themselves.

use super::diagnostics::{Code, Diagnostic};
use super::schema_pass::PlanFacts;
use crate::query::LogicalOp;
use crate::source::WatermarkStrategy;
use crate::window::WindowSpec;

/// True for operators whose emission is driven by watermarks (time
/// windows) or bounded by event time (CEP patterns). Threshold windows
/// close on predicate transitions, not watermarks.
fn time_sensitive(op: &LogicalOp) -> bool {
    match op {
        LogicalOp::Window { spec, .. } => {
            matches!(
                spec,
                WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
            )
        }
        LogicalOp::Cep(_) => true,
        _ => false,
    }
}

fn op_path(i: usize, op: &LogicalOp) -> String {
    let name = match op {
        LogicalOp::Filter(_) => "filter",
        LogicalOp::Map { .. } => "map",
        LogicalOp::Window { .. } => "window",
        LogicalOp::Cep(_) => "cep",
        LogicalOp::Custom(f) => return format!("op{i}:{}", f.name()),
    };
    format!("op{i}:{name}")
}

/// Runs the pass over the plan, appending diagnostics.
pub(super) fn run(
    ops: &[LogicalOp],
    ts_field: &str,
    facts: &PlanFacts,
    watermarks: &[WatermarkStrategy],
    diags: &mut Vec<Diagnostic>,
) {
    // Watermark strategies must resolve against the source schema.
    for w in watermarks {
        if let WatermarkStrategy::BoundedOutOfOrder { ts_field, .. } = w {
            if facts.input.index_of(ts_field).is_none() {
                diags.push(Diagnostic::new(
                    Code::MissingTimeField,
                    "source",
                    format!("watermark ts field '{ts_field}' not in source schema"),
                ));
            }
        }
    }
    let punctuated = watermarks
        .iter()
        .any(|w| matches!(w, WatermarkStrategy::BoundedOutOfOrder { .. }));

    for (i, op) in ops.iter().enumerate() {
        // Windows that only close at end-of-stream: legal (used by
        // finite replays) but surprising on unbounded streams.
        if !watermarks.is_empty() && !punctuated {
            if let LogicalOp::Window { spec, .. } = op {
                if matches!(
                    spec,
                    WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
                ) {
                    diags.push(Diagnostic::new(
                        Code::NoWatermarkStrategy,
                        op_path(i, op),
                        "time window under WatermarkStrategy::None: \
                         windows only close at end-of-stream",
                    ));
                }
            }
        }
        // Sliding coverage gaps: records between window ends and the
        // next window start belong to no window and silently vanish.
        if let LogicalOp::Window {
            spec: WindowSpec::Sliding { size, slide },
            ..
        } = op
        {
            if *size > 0 && *slide > *size {
                diags.push(Diagnostic::new(
                    Code::SlideCoverageGap,
                    op_path(i, op),
                    format!(
                        "sliding window leaves coverage gaps (slide {slide} > size {size}); \
                         records falling in a gap belong to no window"
                    ),
                ));
            }
        }
    }

    // Event-time redefinition upstream of a time-sensitive operator:
    // the rewritten timestamps flow into windows/patterns while the
    // watermark frontier still advances on the source's clock, so
    // "late" decisions and window assignment may disagree with the
    // data — output timestamps can regress the frontier.
    if let Some(redefined_at) = facts.ts_redefined_at {
        if let Some((j, downstream)) = ops
            .iter()
            .enumerate()
            .skip(redefined_at + 1)
            .find(|(_, op)| time_sensitive(op))
        {
            diags.push(Diagnostic::new(
                Code::TimestampRedefined,
                format!("op{redefined_at}:map"),
                format!(
                    "projection redefines event-time field '{ts_field}' upstream of \
                     {}; rewritten timestamps may regress the watermark frontier",
                    op_path(j, downstream)
                ),
            ));
        }
    }
}
