//! Edge pre-aggregation: shipping per-slice window partials from edge
//! nodes and merging them at the cloud.
//!
//! The paper's uplink-saving move is running window aggregation *at the
//! edge* so only aggregated rows cross the cellular uplink. Stream
//! slicing (see [`crate::window::SliceLayout`]) sharpens that: an edge
//! ships **one partial row per `gcd(size, slide)`-wide slice** instead
//! of one row per (overlapping) window, so sliding windows stop
//! re-shipping the data their overlaps share — for content-carrying
//! aggregates such as MEOS sequence assembly the uplink shrinks by the
//! overlap factor `size/slide` on top of plain pre-aggregation.
//!
//! That is sound exactly for **splittable** aggregates — those whose
//! accumulators snapshot into partial values and merge losslessly (the
//! core [`Aggregator`](crate::window::Aggregator) contract): `count` and
//! `sum` partials add, `min`/`max` compare, `avg` decomposes into a
//! (sum, count) partial, order-dependent `first`/`last` carry a
//! (timestamp, value) partial, and plugin aggregates that declare
//! [`AggregatorFactory::splittable`](crate::window::AggregatorFactory::splittable)
//! merge their own snapshots (MEOS sequence-append: per-edge
//! sub-sequences concatenate). Non-time windows (threshold) are
//! predicate-delimited and never split; queries using an unsplittable
//! custom aggregate run their window whole on one node.
//!
//! [`split_window`] decides whether a query's first stateful operator
//! can be split. The split runs one window operator in two roles:
//! [`WindowOp::edge_partial`](crate::ops::WindowOp::edge_partial) emits
//! per-slice partial rows at the edge, and
//! [`WindowOp::cloud_merge`](crate::ops::WindowOp::cloud_merge) folds
//! them into shared slices at the cloud and materializes finished
//! windows when the cluster-wide watermark closes them.

use crate::expr::Expr;
use crate::query::{LogicalOp, Query};
use crate::window::{WindowAgg, WindowSpec};

/// A splittable window found in a query plan, with everything needed to
/// build the edge partial and cloud merge roles of its window.
#[derive(Debug, Clone)]
pub struct SplitWindow {
    /// Index of the window in `query.ops()`.
    pub window_idx: usize,
    /// Grouping keys as `(output name, expression)`.
    pub keys: Vec<(String, Expr)>,
    /// The window shape (tumbling or sliding).
    pub spec: WindowSpec,
    /// The aggregates, all splittable.
    pub aggs: Vec<WindowAgg>,
}

/// Decides whether `query`'s first stateful operator is a time window
/// whose aggregates are all splittable. The stateless prefix (filters
/// and maps) runs unchanged before the partial window; everything after
/// the window consumes merged rows and moves to the merge node.
pub fn split_window(query: &Query) -> Option<SplitWindow> {
    for (i, op) in query.ops().iter().enumerate() {
        match op {
            LogicalOp::Filter(_) | LogicalOp::Map { .. } => continue,
            LogicalOp::Window { keys, spec, aggs } => {
                if !matches!(
                    spec,
                    WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
                ) {
                    return None;
                }
                if !aggs.iter().all(|a| a.spec.splittable()) {
                    return None;
                }
                return Some(SplitWindow {
                    window_idx: i,
                    keys: keys.clone(),
                    spec: spec.clone(),
                    aggs: aggs.clone(),
                });
            }
            LogicalOp::Cep(_) | LogicalOp::Custom(_) => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::value::MICROS_PER_SEC;
    use crate::window::AggSpec;

    #[test]
    fn split_window_detects_splittable_plans() {
        let keyed = Query::from("s").filter(col("speed").gt(lit(1.0))).window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("top", AggSpec::Max(col("speed"))),
            ],
        );
        let sw = split_window(&keyed).expect("splittable");
        assert_eq!(sw.window_idx, 1);
        assert_eq!(sw.keys.len(), 1);
        assert_eq!(sw.aggs.len(), 2);

        // Avg decomposes into a (sum, count) partial and now splits.
        let avg = Query::from("s").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("a", AggSpec::Avg(col("speed")))],
        );
        assert!(split_window(&avg).is_some(), "avg is edge-splittable");

        // Threshold windows are predicate-delimited, never split.
        let threshold = Query::from("s").window(
            vec![],
            WindowSpec::Threshold {
                predicate: col("speed").gt(lit(1.0)),
                min_count: 1,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        assert!(split_window(&threshold).is_none());

        // A stateless plan has no window to split.
        let stateless = Query::from("s").filter(col("speed").gt(lit(1.0)));
        assert!(split_window(&stateless).is_none());
    }
}
