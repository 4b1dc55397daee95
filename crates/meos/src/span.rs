//! Generic span (interval) algebra: [`Span`] and normalized [`SpanSet`].
//!
//! MEOS builds its whole time dimension on spans with independently
//! inclusive/exclusive bounds; periods over timestamps are just
//! `Span<TimestampTz>`. The algebra here is exact: bound-flag handling
//! follows MobilityDB semantics (a span is the set of values `x` with
//! `lower < x < upper`, each comparison weakened to `<=` when the
//! corresponding flag is inclusive).

use crate::error::{MeosError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Values usable as span bounds.
///
/// `dist` returns a numeric distance used only for width/duration style
/// accessors; ordering and equality drive all set semantics.
pub trait SpanBound: Copy + PartialOrd + PartialEq + fmt::Debug + Send + Sync + 'static {
    /// Numeric distance from `a` to `b` (may be negative if `b < a`).
    fn dist(a: Self, b: Self) -> f64;
}

impl SpanBound for i64 {
    fn dist(a: Self, b: Self) -> f64 {
        (b - a) as f64
    }
}

impl SpanBound for f64 {
    fn dist(a: Self, b: Self) -> f64 {
        b - a
    }
}

/// A span of `f64` values.
pub type FloatSpan = Span<f64>;
/// A span of `i64` values.
pub type IntSpan = Span<i64>;

/// An interval over an ordered domain with per-bound inclusivity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Span<T: SpanBound> {
    lower: T,
    upper: T,
    lower_inc: bool,
    upper_inc: bool,
}

/// Compares two *lower* bounds; an inclusive lower bound precedes an
/// exclusive one at the same value.
fn lower_le<T: SpanBound>(av: T, ai: bool, bv: T, bi: bool) -> bool {
    av < bv || (av == bv && (ai || !bi))
}

/// Compares two *upper* bounds; an exclusive upper bound precedes an
/// inclusive one at the same value.
fn upper_le<T: SpanBound>(av: T, ai: bool, bv: T, bi: bool) -> bool {
    av < bv || (av == bv && (bi || !ai))
}

impl<T: SpanBound> Span<T> {
    /// Builds a span, validating non-emptiness: `lower < upper`, or
    /// `lower == upper` with both bounds inclusive (a degenerate "instant"
    /// span).
    pub fn new(lower: T, upper: T, lower_inc: bool, upper_inc: bool) -> Result<Self> {
        if lower > upper || (lower == upper && !(lower_inc && upper_inc)) {
            return Err(MeosError::InvalidArgument(format!(
                "empty span: {:?}{:?}, {:?}{:?}",
                if lower_inc { '[' } else { '(' },
                lower,
                upper,
                if upper_inc { ']' } else { ')' },
            )));
        }
        Ok(Span {
            lower,
            upper,
            lower_inc,
            upper_inc,
        })
    }

    /// `[lower, upper]`, both bounds inclusive.
    pub fn inclusive(lower: T, upper: T) -> Result<Self> {
        Span::new(lower, upper, true, true)
    }

    /// The degenerate single-value span `[v, v]`.
    pub fn point(v: T) -> Self {
        Span {
            lower: v,
            upper: v,
            lower_inc: true,
            upper_inc: true,
        }
    }

    /// Lower bound value.
    pub fn lower(&self) -> T {
        self.lower
    }

    /// Upper bound value.
    pub fn upper(&self) -> T {
        self.upper
    }

    /// Whether the lower bound is inclusive.
    pub fn lower_inc(&self) -> bool {
        self.lower_inc
    }

    /// Whether the upper bound is inclusive.
    pub fn upper_inc(&self) -> bool {
        self.upper_inc
    }

    /// Numeric width (`dist(lower, upper)`).
    pub fn width(&self) -> f64 {
        T::dist(self.lower, self.upper)
    }

    /// True iff the span is the degenerate single value.
    pub fn is_instant(&self) -> bool {
        self.lower == self.upper
    }

    /// Membership test honouring bound inclusivity.
    pub fn contains_value(&self, v: T) -> bool {
        (self.lower < v || (self.lower == v && self.lower_inc))
            && (v < self.upper || (v == self.upper && self.upper_inc))
    }

    /// True iff `other ⊆ self`.
    pub fn contains_span(&self, other: &Span<T>) -> bool {
        lower_le(self.lower, self.lower_inc, other.lower, other.lower_inc)
            && upper_le(other.upper, other.upper_inc, self.upper, self.upper_inc)
    }

    /// True iff the spans share at least one value.
    pub fn overlaps(&self, other: &Span<T>) -> bool {
        // max of lowers vs min of uppers
        let (lv, li) = if lower_le(self.lower, self.lower_inc, other.lower, other.lower_inc) {
            (other.lower, other.lower_inc)
        } else {
            (self.lower, self.lower_inc)
        };
        let (uv, ui) = if upper_le(self.upper, self.upper_inc, other.upper, other.upper_inc) {
            (self.upper, self.upper_inc)
        } else {
            (other.upper, other.upper_inc)
        };
        lv < uv || (lv == uv && li && ui)
    }

    /// True iff `self` lies entirely before `other` (no shared values).
    pub fn is_before(&self, other: &Span<T>) -> bool {
        self.upper < other.lower
            || (self.upper == other.lower && !(self.upper_inc && other.lower_inc))
    }

    /// True iff the spans touch without overlapping
    /// (e.g. `[a, b)` and `[b, c]`).
    pub fn is_adjacent(&self, other: &Span<T>) -> bool {
        (self.upper == other.lower && (self.upper_inc != other.lower_inc))
            || (other.upper == self.lower && (other.upper_inc != self.lower_inc))
    }

    /// Set intersection, `None` when disjoint.
    pub fn intersection(&self, other: &Span<T>) -> Option<Span<T>> {
        if !self.overlaps(other) {
            return None;
        }
        let (lv, li) = if lower_le(self.lower, self.lower_inc, other.lower, other.lower_inc) {
            (other.lower, other.lower_inc)
        } else {
            (self.lower, self.lower_inc)
        };
        let (uv, ui) = if upper_le(self.upper, self.upper_inc, other.upper, other.upper_inc) {
            (self.upper, self.upper_inc)
        } else {
            (other.upper, other.upper_inc)
        };
        Some(Span {
            lower: lv,
            upper: uv,
            lower_inc: li,
            upper_inc: ui,
        })
    }

    /// Set union when the spans overlap or are adjacent, else `None`.
    pub fn union(&self, other: &Span<T>) -> Option<Span<T>> {
        if !self.overlaps(other) && !self.is_adjacent(other) {
            return None;
        }
        let (lv, li) = if lower_le(self.lower, self.lower_inc, other.lower, other.lower_inc) {
            (self.lower, self.lower_inc)
        } else {
            (other.lower, other.lower_inc)
        };
        let (uv, ui) = if upper_le(self.upper, self.upper_inc, other.upper, other.upper_inc) {
            (other.upper, other.upper_inc)
        } else {
            (self.upper, self.upper_inc)
        };
        Some(Span {
            lower: lv,
            upper: uv,
            lower_inc: li,
            upper_inc: ui,
        })
    }

    /// Set difference `self \ other`, producing 0, 1 or 2 spans.
    pub fn minus(&self, other: &Span<T>) -> Vec<Span<T>> {
        if !self.overlaps(other) {
            return vec![*self];
        }
        let mut out = Vec::with_capacity(2);
        // Left remainder: [self.lower, other.lower with flipped flag]
        if lower_le(self.lower, self.lower_inc, other.lower, other.lower_inc)
            && !(self.lower == other.lower && self.lower_inc == other.lower_inc)
        {
            if let Ok(left) = Span::new(self.lower, other.lower, self.lower_inc, !other.lower_inc) {
                out.push(left);
            }
        }
        // Right remainder.
        if upper_le(other.upper, other.upper_inc, self.upper, self.upper_inc)
            && !(self.upper == other.upper && self.upper_inc == other.upper_inc)
        {
            if let Ok(right) = Span::new(other.upper, self.upper, !other.upper_inc, self.upper_inc)
            {
                out.push(right);
            }
        }
        out
    }

    /// Shortest distance between the spans (0 when they overlap or touch).
    pub fn distance(&self, other: &Span<T>) -> f64 {
        if self.overlaps(other) || self.is_adjacent(other) {
            0.0
        } else if self.is_before(other) {
            T::dist(self.upper, other.lower)
        } else {
            T::dist(other.upper, self.lower)
        }
    }
}

impl<T: SpanBound + fmt::Display> fmt::Display for Span<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lower_inc { '[' } else { '(' },
            self.lower,
            self.upper,
            if self.upper_inc { ']' } else { ')' },
        )
    }
}

/// A normalized set of pairwise-disjoint, non-adjacent spans kept in
/// ascending order. The canonical representation guarantees `PartialEq`
/// means set equality.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanSet<T: SpanBound> {
    spans: Vec<Span<T>>,
}

impl<T: SpanBound> SpanSet<T> {
    /// The empty set.
    pub fn empty() -> Self {
        SpanSet { spans: Vec::new() }
    }

    /// Builds a set from arbitrary spans, sorting and merging
    /// overlapping/adjacent members.
    pub fn from_spans(mut spans: Vec<Span<T>>) -> Self {
        spans.sort_by(|a, b| {
            a.lower()
                .partial_cmp(&b.lower())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.lower_inc().cmp(&a.lower_inc()))
        });
        let mut out: Vec<Span<T>> = Vec::with_capacity(spans.len());
        for s in spans {
            match out.last_mut() {
                Some(last) if last.overlaps(&s) || last.is_adjacent(&s) => {
                    *last = last.union(&s).expect("overlapping spans union");
                }
                _ => out.push(s),
            }
        }
        SpanSet { spans: out }
    }

    /// A set holding one span.
    pub fn from_span(span: Span<T>) -> Self {
        SpanSet { spans: vec![span] }
    }

    /// The member spans in ascending order.
    pub fn spans(&self) -> &[Span<T>] {
        &self.spans
    }

    /// Number of member spans.
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Tight bounding span, `None` when empty.
    pub fn span(&self) -> Option<Span<T>> {
        match (self.spans.first(), self.spans.last()) {
            (Some(a), Some(b)) => Some(
                Span::new(a.lower(), b.upper(), a.lower_inc(), b.upper_inc())
                    .expect("bounding span valid"),
            ),
            _ => None,
        }
    }

    /// Membership test.
    pub fn contains_value(&self, v: T) -> bool {
        // Binary search on lower bound, then check the candidate span.
        let idx = self.spans.partition_point(|s| s.lower() < v);
        // v may fall in spans[idx] (if lower == v inclusive) or spans[idx-1].
        if idx < self.spans.len() && self.spans[idx].contains_value(v) {
            return true;
        }
        idx > 0 && self.spans[idx - 1].contains_value(v)
    }

    /// Set union.
    pub fn union(&self, other: &SpanSet<T>) -> SpanSet<T> {
        let mut all = self.spans.clone();
        all.extend_from_slice(&other.spans);
        SpanSet::from_spans(all)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &SpanSet<T>) -> SpanSet<T> {
        let mut out = Vec::new();
        // Linear merge: both sides are sorted and disjoint.
        let (mut i, mut j) = (0, 0);
        while i < self.spans.len() && j < other.spans.len() {
            let (a, b) = (&self.spans[i], &other.spans[j]);
            if let Some(x) = a.intersection(b) {
                out.push(x);
            }
            if upper_le(a.upper(), a.upper_inc(), b.upper(), b.upper_inc()) {
                i += 1;
            } else {
                j += 1;
            }
        }
        SpanSet { spans: out }
    }

    /// Set difference `self \ other`.
    pub fn minus(&self, other: &SpanSet<T>) -> SpanSet<T> {
        let mut current: Vec<Span<T>> = self.spans.clone();
        for b in &other.spans {
            let mut next = Vec::with_capacity(current.len() + 1);
            for a in &current {
                next.extend(a.minus(b));
            }
            current = next;
        }
        SpanSet::from_spans(current)
    }

    /// Sum of member widths.
    pub fn total_width(&self) -> f64 {
        self.spans.iter().map(|s| s.width()).sum()
    }
}

impl<T: SpanBound + fmt::Display> fmt::Display for SpanSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(l: f64, u: f64, li: bool, ui: bool) -> Span<f64> {
        Span::new(l, u, li, ui).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Span::new(2.0, 1.0, true, true).is_err());
        assert!(Span::new(1.0, 1.0, true, false).is_err());
        assert!(Span::new(1.0, 1.0, true, true).is_ok());
        assert!(Span::new(1.0, 2.0, false, false).is_ok());
    }

    #[test]
    fn contains_value_respects_bounds() {
        let s = sp(1.0, 2.0, true, false);
        assert!(s.contains_value(1.0));
        assert!(s.contains_value(1.5));
        assert!(!s.contains_value(2.0));
        assert!(!s.contains_value(0.999));
    }

    #[test]
    fn overlap_cases() {
        let a = sp(0.0, 1.0, true, false);
        let b = sp(1.0, 2.0, true, true);
        assert!(!a.overlaps(&b), "touching open/closed do not overlap");
        assert!(a.is_adjacent(&b));
        let c = sp(0.0, 1.0, true, true);
        assert!(c.overlaps(&b), "closed/closed at same point overlap");
        assert!(!c.is_adjacent(&b));
        let d = sp(5.0, 6.0, true, true);
        assert!(!a.overlaps(&d));
        assert!(a.is_before(&d));
        assert!(!d.is_before(&a));
    }

    #[test]
    fn intersection_and_union() {
        let a = sp(0.0, 2.0, true, true);
        let b = sp(1.0, 3.0, false, true);
        let i = a.intersection(&b).unwrap();
        assert_eq!((i.lower(), i.upper()), (1.0, 2.0));
        assert!(!i.lower_inc());
        assert!(i.upper_inc());
        let u = a.union(&b).unwrap();
        assert_eq!((u.lower(), u.upper()), (0.0, 3.0));
        assert!(sp(0.0, 1.0, true, false)
            .union(&sp(2.0, 3.0, true, true))
            .is_none());
    }

    #[test]
    fn minus_produces_remainders() {
        let a = sp(0.0, 10.0, true, true);
        let b = sp(3.0, 5.0, true, false);
        let parts = a.minus(&b);
        assert_eq!(parts.len(), 2);
        assert_eq!((parts[0].lower(), parts[0].upper()), (0.0, 3.0));
        assert!(!parts[0].upper_inc(), "flipped flag at cut point");
        assert_eq!((parts[1].lower(), parts[1].upper()), (5.0, 10.0));
        assert!(parts[1].lower_inc());

        // Full cover -> empty.
        assert!(b.minus(&a).is_empty());
        // Disjoint -> identity.
        assert_eq!(a.minus(&sp(20.0, 30.0, true, true)), vec![a]);
    }

    #[test]
    fn distance() {
        let a = sp(0.0, 1.0, true, true);
        let b = sp(3.0, 4.0, true, true);
        assert_eq!(a.distance(&b), 2.0);
        assert_eq!(b.distance(&a), 2.0);
        assert_eq!(a.distance(&sp(0.5, 2.0, true, true)), 0.0);
    }

    #[test]
    fn spanset_normalizes() {
        let set = SpanSet::from_spans(vec![
            sp(5.0, 6.0, true, true),
            sp(0.0, 2.0, true, false),
            sp(2.0, 3.0, true, true),
            sp(1.0, 1.5, true, true),
        ]);
        // [0,2) + [2,3] merge (adjacent), [1,1.5] absorbed.
        assert_eq!(set.num_spans(), 2);
        assert_eq!(set.spans()[0].lower(), 0.0);
        assert_eq!(set.spans()[0].upper(), 3.0);
        assert!(set.contains_value(2.0));
        assert!(!set.contains_value(4.0));
        assert!(set.contains_value(5.5));
    }

    #[test]
    fn spanset_ops() {
        let a = SpanSet::from_spans(vec![sp(0.0, 4.0, true, true), sp(6.0, 8.0, true, true)]);
        let b = SpanSet::from_spans(vec![sp(3.0, 7.0, true, true)]);
        let i = a.intersection(&b);
        assert_eq!(i.num_spans(), 2);
        assert_eq!((i.spans()[0].lower(), i.spans()[0].upper()), (3.0, 4.0));
        assert_eq!((i.spans()[1].lower(), i.spans()[1].upper()), (6.0, 7.0));

        let m = a.minus(&b);
        assert_eq!(m.num_spans(), 2);
        assert_eq!((m.spans()[0].lower(), m.spans()[0].upper()), (0.0, 3.0));
        assert_eq!((m.spans()[1].lower(), m.spans()[1].upper()), (7.0, 8.0));

        let u = a.union(&b);
        assert_eq!(u.num_spans(), 1);
        assert_eq!((u.spans()[0].lower(), u.spans()[0].upper()), (0.0, 8.0));
    }

    #[test]
    fn spanset_span_and_width() {
        let a = SpanSet::from_spans(vec![sp(0.0, 1.0, true, true), sp(5.0, 7.0, true, true)]);
        let bounding = a.span().unwrap();
        assert_eq!((bounding.lower(), bounding.upper()), (0.0, 7.0));
        assert_eq!(a.total_width(), 3.0);
        assert!(SpanSet::<f64>::empty().span().is_none());
    }

    #[test]
    fn int_spans() {
        let s = Span::<i64>::new(0, 10, true, false).unwrap();
        assert!(s.contains_value(0));
        assert!(!s.contains_value(10));
        assert_eq!(s.width(), 10.0);
    }
}
