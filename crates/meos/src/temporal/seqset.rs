//! [`TSequenceSet`]: a temporal value with gaps.

use super::sequence::TSequence;
use super::value::{Interp, TempValue};
use crate::error::{MeosError, Result};
use crate::time::{Period, TimeDelta, TimestampTz};
use serde::{Deserialize, Serialize};

/// An ordered set of temporally disjoint sequences — the MEOS
/// representation for values observed with interruptions (tunnels,
/// connectivity gaps, parked vehicles).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TSequenceSet<V: TempValue> {
    sequences: Vec<TSequence<V>>,
}

impl<V: TempValue> TSequenceSet<V> {
    /// Builds a set from sequences; sorts by start time and validates
    /// pairwise disjointness and a homogeneous interpolation.
    pub fn new(mut sequences: Vec<TSequence<V>>) -> Result<Self> {
        if sequences.is_empty() {
            return Err(MeosError::Empty("sequence set"));
        }
        sequences.sort_by_key(|s| s.start_timestamp());
        let interp = sequences[0].interp();
        for w in sequences.windows(2) {
            if w.iter().any(|s| s.interp() != interp) {
                return Err(MeosError::InvalidArgument(
                    "mixed interpolations in sequence set".into(),
                ));
            }
            if !w[0].period().is_before(&w[1].period()) {
                return Err(MeosError::InvalidArgument(format!(
                    "overlapping sequences at {}",
                    w[1].start_timestamp()
                )));
            }
        }
        Ok(TSequenceSet { sequences })
    }

    /// The member sequences in time order.
    pub fn sequences(&self) -> &[TSequence<V>] {
        &self.sequences
    }

    /// Consumes the set, yielding the member sequences.
    pub fn into_sequences(self) -> Vec<TSequence<V>> {
        self.sequences
    }

    /// Number of member sequences.
    pub fn num_sequences(&self) -> usize {
        self.sequences.len()
    }

    /// Total number of instants.
    pub fn num_instants(&self) -> usize {
        self.sequences.iter().map(|s| s.num_instants()).sum()
    }

    /// The interpolation shared by all members.
    pub fn interp(&self) -> Interp {
        self.sequences[0].interp()
    }

    /// Bounding period from first start to last end.
    pub fn period(&self) -> Period {
        let first = self.sequences.first().expect("non-empty");
        let last = self.sequences.last().expect("non-empty");
        Period::new(
            first.start_timestamp(),
            last.end_timestamp(),
            first.lower_inc(),
            last.upper_inc(),
        )
        .expect("seqset period valid")
    }

    /// Summed duration of the member sequences (gaps excluded).
    pub fn duration(&self) -> TimeDelta {
        self.sequences
            .iter()
            .fold(TimeDelta::ZERO, |acc, s| acc + s.duration())
    }

    /// First value.
    pub fn start_value(&self) -> V {
        self.sequences[0].start_value()
    }

    /// Last value.
    pub fn end_value(&self) -> V {
        self.sequences.last().expect("non-empty").end_value()
    }

    /// Value at `t`, if some member sequence is defined there.
    pub fn value_at(&self, t: TimestampTz) -> Option<V> {
        let idx = self.sequences.partition_point(|s| s.start_timestamp() <= t);
        if idx == 0 {
            return self.sequences[0].value_at(t);
        }
        self.sequences[idx - 1]
            .value_at(t)
            .or_else(|| self.sequences.get(idx).and_then(|s| s.value_at(t)))
    }

    /// Restricts to a period; `None` when disjoint.
    pub fn at_period(&self, p: &Period) -> Option<TSequenceSet<V>> {
        let kept: Vec<_> = self
            .sequences
            .iter()
            .filter_map(|s| s.at_period(p))
            .collect();
        if kept.is_empty() {
            None
        } else {
            Some(TSequenceSet { sequences: kept })
        }
    }

    /// True iff the predicate holds at some instant.
    pub fn ever(&self, pred: impl Fn(&V) -> bool) -> bool {
        self.sequences.iter().any(|s| s.ever(&pred))
    }

    /// True iff the predicate holds at every instant.
    pub fn always(&self, pred: impl Fn(&V) -> bool) -> bool {
        self.sequences.iter().all(|s| s.always(&pred))
    }

    /// Shifts every member by `delta`.
    pub fn shift(&self, delta: TimeDelta) -> TSequenceSet<V> {
        TSequenceSet {
            sequences: self.sequences.iter().map(|s| s.shift(delta)).collect(),
        }
    }

    /// Maps values, preserving structure.
    pub fn map<U: TempValue>(&self, f: impl Fn(&V) -> U) -> TSequenceSet<U> {
        TSequenceSet {
            sequences: self.sequences.iter().map(|s| s.map(&f)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TInstant;

    fn t(sec: i64) -> TimestampTz {
        TimestampTz::from_unix_secs(sec)
    }

    fn seq(vals: &[(f64, i64)]) -> TSequence<f64> {
        TSequence::linear(vals.iter().map(|&(v, s)| TInstant::new(v, t(s))).collect()).unwrap()
    }

    fn set() -> TSequenceSet<f64> {
        TSequenceSet::new(vec![
            seq(&[(0.0, 0), (10.0, 10)]),
            seq(&[(20.0, 20), (30.0, 30)]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_sorts_and_validates() {
        let ss = TSequenceSet::new(vec![
            seq(&[(20.0, 20), (30.0, 30)]),
            seq(&[(0.0, 0), (10.0, 10)]),
        ])
        .unwrap();
        assert_eq!(ss.sequences()[0].start_timestamp(), t(0));

        assert!(TSequenceSet::<f64>::new(vec![]).is_err());
        assert!(TSequenceSet::new(vec![
            seq(&[(0.0, 0), (10.0, 10)]),
            seq(&[(5.0, 5), (6.0, 15)]),
        ])
        .is_err());
    }

    #[test]
    fn rejects_mixed_interp() {
        let a = seq(&[(0.0, 0), (1.0, 10)]);
        let b =
            TSequence::step(vec![TInstant::new(2.0, t(20)), TInstant::new(3.0, t(30))]).unwrap();
        assert!(TSequenceSet::new(vec![a, b]).is_err());
    }

    #[test]
    fn accessors() {
        let ss = set();
        assert_eq!(ss.num_sequences(), 2);
        assert_eq!(ss.num_instants(), 4);
        assert_eq!(ss.duration(), TimeDelta::from_secs(20));
        assert_eq!(ss.period().duration(), TimeDelta::from_secs(30));
        assert_eq!(ss.start_value(), 0.0);
        assert_eq!(ss.end_value(), 30.0);
    }

    #[test]
    fn value_at_handles_gaps() {
        let ss = set();
        assert_eq!(ss.value_at(t(5)), Some(5.0));
        assert_eq!(ss.value_at(t(15)), None, "inside the gap");
        assert_eq!(ss.value_at(t(20)), Some(20.0));
        assert_eq!(ss.value_at(t(30)), Some(30.0));
        assert_eq!(ss.value_at(t(31)), None);
    }

    #[test]
    fn at_period_drops_and_trims() {
        let ss = set();
        let r = ss
            .at_period(&Period::inclusive(t(5), t(25)).unwrap())
            .unwrap();
        assert_eq!(r.num_sequences(), 2);
        assert_eq!(r.sequences()[0].start_value(), 5.0);
        assert_eq!(r.sequences()[1].end_value(), 25.0);
        assert!(ss
            .at_period(&Period::inclusive(t(12), t(18)).unwrap())
            .is_none());
    }

    #[test]
    fn ever_always_shift_map() {
        let ss = set();
        assert!(ss.ever(|v| *v >= 30.0));
        assert!(!ss.always(|v| *v >= 10.0));
        let sh = ss.shift(TimeDelta::from_secs(100));
        assert_eq!(sh.period().lower(), t(100));
        let m = ss.map(|v| v > &5.0);
        assert_eq!(m.num_instants(), 4);
        assert_eq!(m.interp(), Interp::Step);
    }
}
