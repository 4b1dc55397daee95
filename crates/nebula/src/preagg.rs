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
//! can be split, and [`edge_split`] what every pipeline and the cloud
//! run of a placed plan. The split runs one window operator in two roles:
//! [`WindowOp::edge_partial`](crate::ops::WindowOp::edge_partial) emits
//! per-slice partial rows at the edge, and
//! [`WindowOp::cloud_merge`](crate::ops::WindowOp::cloud_merge) folds
//! them into shared slices at the cloud and materializes finished
//! windows when the cluster-wide watermark closes them.

use crate::expr::Expr;
use crate::query::{LogicalOp, Query};
use crate::topology::PlacementStrategy;
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
    let (i, op) = (query.ops().iter().enumerate()).find(|(_, op)| op.is_stateful())?;
    let LogicalOp::Window { keys, spec, aggs } = op else {
        return None;
    };
    let timed = matches!(
        spec,
        WindowSpec::Tumbling { .. } | WindowSpec::Sliding { .. }
    );
    (timed && aggs.iter().all(|a| a.spec.splittable())).then(|| SplitWindow {
        window_idx: i,
        keys: keys.clone(),
        spec: spec.clone(),
        aggs: aggs.clone(),
    })
}

/// What the cloud runs of a placed plan for all its pipelines.
#[derive(Debug, Clone)]
pub enum CloudRole {
    /// Nothing shared (one pipeline may fold its tail into the cloud).
    None,
    /// The plan from the first stateful operator on, run once.
    Plain,
    /// The split window's cloud merge, then the plan after it.
    Merge(SplitWindow),
}

/// The topology-free part of a placed plan.
#[derive(Debug, Clone)]
pub struct EdgeSplit {
    /// The first window, CEP or plugin operator.
    pub first_stateful: Option<usize>,
    /// Every pipeline runs `ops[..pipe_end]` (a split window partially).
    pub pipe_end: usize,
    /// What the cloud shares.
    pub cloud: CloudRole,
}

/// Splits `query` between its `pipelines` and the cloud: a split window
/// under `EdgeFirst`, else several pipelines share everything from the
/// first stateful operator on, and one pipeline keeps the whole plan.
pub fn edge_split(query: &Query, strategy: PlacementStrategy, pipelines: usize) -> EdgeSplit {
    let ops = query.ops();
    let first_stateful = ops.iter().position(LogicalOp::is_stateful);
    let split = split_window(query).filter(|_| strategy == PlacementStrategy::EdgeFirst);
    let (pipe_end, cloud) = match (split, first_stateful) {
        (Some(sw), _) => (sw.window_idx + 1, CloudRole::Merge(sw)),
        (None, Some(s)) if pipelines > 1 => (s, CloudRole::Plain),
        (None, _) => (ops.len(), CloudRole::None),
    };
    EdgeSplit {
        first_stateful,
        pipe_end,
        cloud,
    }
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
