//! Temporal aggregation: spatiotemporal extent, temporal count, and the
//! streaming [`SequenceBuilder`] used to assemble sequences from live
//! sensor feeds.

use crate::boxes::STBox;
use crate::geo::Point;
use crate::temporal::{Interp, TInstant, TSequence, TempValue};
use crate::time::{TimeDelta, TimestampTz};

/// Spatiotemporal extent (union box) of a collection of point sequences.
pub fn extent<'a>(seqs: impl IntoIterator<Item = &'a TSequence<Point>>) -> Option<STBox> {
    seqs.into_iter()
        .map(STBox::from_tpoint)
        .reduce(|a, b| a.union(&b))
}

/// Temporal count: a step temporal int giving, at every moment, how many
/// of the input sequences are defined. MEOS `tcount` over sequences.
pub fn tcount<V: TempValue>(seqs: &[TSequence<V>]) -> Option<TSequence<i64>> {
    if seqs.is_empty() {
        return None;
    }
    // Boundary events: +1 at each start, -1 at each end.
    let mut events: Vec<(TimestampTz, i64)> = Vec::with_capacity(seqs.len() * 2);
    for s in seqs {
        events.push((s.start_timestamp(), 1));
        events.push((s.end_timestamp(), -1));
    }
    events.sort_by_key(|&(t, delta)| (t, -delta));
    let mut out: Vec<TInstant<i64>> = Vec::with_capacity(events.len() + 1);
    let mut count = 0i64;
    for (t, delta) in events {
        count += delta;
        match out.last_mut() {
            Some(last) if last.t == t => last.value = count,
            _ => out.push(TInstant::new(count, t)),
        }
    }
    TSequence::new(out, true, true, Interp::Step).ok()
}

/// What [`SequenceBuilder::push`] did with an observation.
#[derive(Debug, Clone, PartialEq)]
pub enum PushResult<V: TempValue> {
    /// The observation extended the open sequence.
    Appended,
    /// The observation arrived at or before the current end and was
    /// dropped (late data is the caller's responsibility to reorder).
    Late,
    /// The gap/length policy closed the previous sequence; the observation
    /// opened a new one.
    Emitted(TSequence<V>),
}

/// Incremental sequence assembly for streaming data.
///
/// Observations are appended in event-time order; a new sequence is opened
/// (and the finished one emitted) whenever the inter-arrival gap exceeds
/// `max_gap` or the open sequence reaches `max_instants`. This is the MEOS
/// pattern for turning an unbounded GPS feed into a `TSequenceSet`.
#[derive(Debug, Clone)]
pub struct SequenceBuilder<V: TempValue> {
    interp: Interp,
    max_gap: Option<TimeDelta>,
    max_instants: Option<usize>,
    current: Vec<TInstant<V>>,
}

impl<V: TempValue> SequenceBuilder<V> {
    /// Builds a builder with the given interpolation.
    pub fn new(interp: Interp) -> Self {
        SequenceBuilder {
            interp,
            max_gap: None,
            max_instants: None,
            current: Vec::new(),
        }
    }

    /// Splits sequences when consecutive observations are more than
    /// `gap` apart (connectivity loss, tunnel, parked vehicle).
    pub fn with_max_gap(mut self, gap: TimeDelta) -> Self {
        self.max_gap = Some(gap);
        self
    }

    /// Bounds the open sequence length (memory cap on edge devices).
    pub fn with_max_instants(mut self, n: usize) -> Self {
        self.max_instants = Some(n.max(1));
        self
    }

    /// Feeds one observation.
    pub fn push(&mut self, value: V, t: TimestampTz) -> PushResult<V> {
        if let Some(last) = self.current.last() {
            if t <= last.t {
                return PushResult::Late;
            }
            let gap_exceeded = self.max_gap.is_some_and(|g| (t - last.t) > g);
            let len_exceeded = self.max_instants.is_some_and(|m| self.current.len() >= m);
            if gap_exceeded || len_exceeded {
                let done = self.take_current();
                self.current.push(TInstant::new(value, t));
                return PushResult::Emitted(done);
            }
        }
        self.current.push(TInstant::new(value, t));
        PushResult::Appended
    }

    /// Closes and returns the open sequence, if any.
    pub fn flush(&mut self) -> Option<TSequence<V>> {
        if self.current.is_empty() {
            None
        } else {
            Some(self.take_current())
        }
    }

    fn take_current(&mut self) -> TSequence<V> {
        let instants = std::mem::take(&mut self.current);
        TSequence::new(instants, true, true, self.interp)
            .expect("builder maintains ordering invariant")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TSequenceSet;

    fn t(sec: i64) -> TimestampTz {
        TimestampTz::from_unix_secs(sec)
    }

    fn pseq(pts: &[(f64, f64, i64)]) -> TSequence<Point> {
        TSequence::linear(
            pts.iter()
                .map(|&(x, y, s)| TInstant::new(Point::new(x, y), t(s)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn extent_unions_boxes() {
        let a = pseq(&[(0.0, 0.0, 0), (1.0, 1.0, 10)]);
        let b = pseq(&[(5.0, -3.0, 20), (6.0, 2.0, 30)]);
        let e = extent([&a, &b]).unwrap();
        assert_eq!((e.xmin(), e.xmax()), (0.0, 6.0));
        assert_eq!((e.ymin(), e.ymax()), (-3.0, 2.0));
        assert!(extent(std::iter::empty()).is_none());
    }

    #[test]
    fn tcount_counts_overlap() {
        let a = pseq(&[(0.0, 0.0, 0), (0.0, 0.0, 10)]);
        let b = pseq(&[(0.0, 0.0, 5), (0.0, 0.0, 15)]);
        let c = tcount(&[a, b]).unwrap();
        assert_eq!(c.value_at(t(2)), Some(1));
        assert_eq!(c.value_at(t(7)), Some(2));
        assert_eq!(c.value_at(t(12)), Some(1));
        assert_eq!(c.value_at(t(15)), Some(0));
        assert!(tcount::<f64>(&[]).is_none());
    }

    #[test]
    fn builder_appends_in_order() {
        let mut b = SequenceBuilder::<f64>::new(Interp::Linear);
        assert_eq!(b.push(1.0, t(0)), PushResult::Appended);
        assert_eq!(b.push(2.0, t(10)), PushResult::Appended);
        assert_eq!(b.push(1.5, t(5)), PushResult::Late);
        let seq = b.flush().unwrap();
        assert_eq!(seq.num_instants(), 2);
        assert!(b.flush().is_none(), "flush drains");
    }

    #[test]
    fn builder_splits_on_gap() {
        let mut b =
            SequenceBuilder::<f64>::new(Interp::Linear).with_max_gap(TimeDelta::from_secs(30));
        b.push(1.0, t(0));
        b.push(2.0, t(20));
        match b.push(3.0, t(100)) {
            PushResult::Emitted(done) => {
                assert_eq!(done.num_instants(), 2);
                assert_eq!(done.end_timestamp(), t(20));
            }
            other => panic!("expected emit, got {other:?}"),
        }
    }

    #[test]
    fn builder_splits_on_length() {
        let mut b = SequenceBuilder::<f64>::new(Interp::Linear).with_max_instants(3);
        b.push(1.0, t(0));
        b.push(2.0, t(1));
        b.push(3.0, t(2));
        match b.push(4.0, t(3)) {
            PushResult::Emitted(done) => assert_eq!(done.num_instants(), 3),
            other => panic!("expected emit, got {other:?}"),
        }
    }

    #[test]
    fn builder_output_forms_valid_seqset() {
        let mut b =
            SequenceBuilder::<Point>::new(Interp::Linear).with_max_gap(TimeDelta::from_secs(10));
        let mut done = Vec::new();
        for (i, sec) in [0i64, 5, 30, 35, 100].iter().enumerate() {
            if let PushResult::Emitted(s) = b.push(Point::new(i as f64, 0.0), t(*sec)) {
                done.push(s);
            }
        }
        done.extend(b.flush());
        assert_eq!(done.len(), 3);
        let ss = TSequenceSet::new(done).unwrap();
        assert_eq!(ss.num_instants(), 5);
    }
}
