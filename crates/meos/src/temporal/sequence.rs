//! [`TSequence`]: a run of instants under one interpolation.

use super::instant::TInstant;
use super::value::{Interp, TempValue};
use crate::error::{MeosError, Result};
use crate::time::{Period, TimeDelta, TimestampTz};
use serde::{Deserialize, Serialize};

/// A temporal sequence: at least one instant, strictly increasing
/// timestamps, an interpolation, and inclusive/exclusive period bounds.
///
/// Invariants (enforced by every constructor):
/// - `instants` is non-empty and strictly increasing in time;
/// - a single-instant sequence has both bounds inclusive;
/// - discrete sequences have both bounds inclusive;
/// - `Interp::Linear` is only used for types with meaningful interpolation
///   ([`TempValue::can_linear`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TSequence<V: TempValue> {
    instants: Vec<TInstant<V>>,
    lower_inc: bool,
    upper_inc: bool,
    interp: Interp,
}

impl<V: TempValue> TSequence<V> {
    /// Builds a sequence, validating all invariants.
    pub fn new(
        instants: Vec<TInstant<V>>,
        lower_inc: bool,
        upper_inc: bool,
        interp: Interp,
    ) -> Result<Self> {
        if instants.is_empty() {
            return Err(MeosError::Empty("sequence"));
        }
        if interp == Interp::Linear && !V::can_linear() {
            return Err(MeosError::InvalidArgument(
                "linear interpolation unsupported for this base type".into(),
            ));
        }
        for w in instants.windows(2) {
            if w[0].t >= w[1].t {
                return Err(MeosError::InvalidArgument(format!(
                    "instants not strictly increasing at {}",
                    w[1].t
                )));
            }
        }
        let (lower_inc, upper_inc) = if instants.len() == 1 || interp == Interp::Discrete {
            (true, true)
        } else {
            (lower_inc, upper_inc)
        };
        Ok(TSequence {
            instants,
            lower_inc,
            upper_inc,
            interp,
        })
    }

    /// Linear sequence with inclusive bounds.
    pub fn linear(instants: Vec<TInstant<V>>) -> Result<Self> {
        TSequence::new(instants, true, true, Interp::Linear)
    }

    /// Step sequence with inclusive bounds.
    pub fn step(instants: Vec<TInstant<V>>) -> Result<Self> {
        TSequence::new(instants, true, true, Interp::Step)
    }

    /// Discrete sequence (isolated samples).
    pub fn discrete(instants: Vec<TInstant<V>>) -> Result<Self> {
        TSequence::new(instants, true, true, Interp::Discrete)
    }

    /// Single-instant sequence.
    pub fn singleton(instant: TInstant<V>, interp: Interp) -> Self {
        TSequence {
            instants: vec![instant],
            lower_inc: true,
            upper_inc: true,
            interp,
        }
    }

    /// The instants in time order.
    pub fn instants(&self) -> &[TInstant<V>] {
        &self.instants
    }

    /// Number of instants.
    pub fn num_instants(&self) -> usize {
        self.instants.len()
    }

    /// The interpolation.
    pub fn interp(&self) -> Interp {
        self.interp
    }

    /// Whether the lower bound is inclusive.
    pub fn lower_inc(&self) -> bool {
        self.lower_inc
    }

    /// Whether the upper bound is inclusive.
    pub fn upper_inc(&self) -> bool {
        self.upper_inc
    }

    /// First instant.
    pub fn start_instant(&self) -> &TInstant<V> {
        &self.instants[0]
    }

    /// Last instant.
    pub fn end_instant(&self) -> &TInstant<V> {
        self.instants.last().expect("sequence non-empty")
    }

    /// First value.
    pub fn start_value(&self) -> V {
        self.start_instant().value.clone()
    }

    /// Last value.
    pub fn end_value(&self) -> V {
        self.end_instant().value.clone()
    }

    /// First timestamp.
    pub fn start_timestamp(&self) -> TimestampTz {
        self.start_instant().t
    }

    /// Last timestamp.
    pub fn end_timestamp(&self) -> TimestampTz {
        self.end_instant().t
    }

    /// Tight period covering the sequence, honouring bound flags.
    pub fn period(&self) -> Period {
        Period::new(
            self.start_timestamp(),
            self.end_timestamp(),
            self.lower_inc,
            self.upper_inc,
        )
        .expect("sequence period valid")
    }

    /// Elapsed time between first and last instant (zero for discrete
    /// sequences, whose value is undefined between samples).
    pub fn duration(&self) -> TimeDelta {
        if self.interp == Interp::Discrete {
            TimeDelta::ZERO
        } else {
            self.end_timestamp() - self.start_timestamp()
        }
    }

    /// The timestamps in order.
    pub fn timestamps(&self) -> impl Iterator<Item = TimestampTz> + '_ {
        self.instants.iter().map(|i| i.t)
    }

    /// The values in time order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.instants.iter().map(|i| &i.value)
    }

    /// Consecutive instant pairs (the linear/step segments).
    pub fn segments(&self) -> impl Iterator<Item = (&TInstant<V>, &TInstant<V>)> + '_ {
        self.instants.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Interpolated value at `t`, assuming
    /// `start_timestamp() <= t <= end_timestamp()`; ignores bound flags.
    pub(crate) fn ivalue(&self, t: TimestampTz) -> V {
        let idx = self.instants.partition_point(|i| i.t <= t);
        if idx == 0 {
            return self.instants[0].value.clone();
        }
        let prev = &self.instants[idx - 1];
        if prev.t == t || idx == self.instants.len() {
            return prev.value.clone();
        }
        match self.interp {
            Interp::Linear => {
                let next = &self.instants[idx];
                let total = (next.t - prev.t).micros() as f64;
                let frac = (t - prev.t).micros() as f64 / total;
                V::lerp(&prev.value, &next.value, frac)
            }
            _ => prev.value.clone(),
        }
    }

    /// Value at `t`, honouring bounds and interpolation; `None` outside
    /// the definition time.
    pub fn value_at(&self, t: TimestampTz) -> Option<V> {
        if self.interp == Interp::Discrete {
            return self
                .instants
                .binary_search_by(|i| i.t.cmp(&t))
                .ok()
                .map(|idx| self.instants[idx].value.clone());
        }
        if !self.period().contains_value(t) {
            return None;
        }
        Some(self.ivalue(t))
    }

    /// Restricts to the period `p`; `None` when disjoint.
    pub fn at_period(&self, p: &Period) -> Option<TSequence<V>> {
        if self.interp == Interp::Discrete {
            let kept: Vec<_> = self
                .instants
                .iter()
                .filter(|i| p.contains_value(i.t))
                .cloned()
                .collect();
            return if kept.is_empty() {
                None
            } else {
                Some(TSequence::discrete(kept).expect("filtered discrete valid"))
            };
        }
        let int = self.period().intersection(p)?;
        if int.is_instant() {
            let v = self.ivalue(int.lower());
            return Some(TSequence::singleton(
                TInstant::new(v, int.lower()),
                self.interp,
            ));
        }
        let mut out: Vec<TInstant<V>> = Vec::with_capacity(self.instants.len() + 2);
        out.push(TInstant::new(self.ivalue(int.lower()), int.lower()));
        for inst in &self.instants {
            if inst.t > int.lower() && inst.t < int.upper() {
                out.push(inst.clone());
            }
        }
        out.push(TInstant::new(self.ivalue(int.upper()), int.upper()));
        Some(
            TSequence::new(out, int.lower_inc(), int.upper_inc(), self.interp)
                .expect("restricted sequence valid"),
        )
    }

    /// Removes the period `p`, producing the surviving pieces in order.
    pub fn minus_period(&self, p: &Period) -> Vec<TSequence<V>> {
        self.period()
            .minus(p)
            .iter()
            .filter_map(|piece| self.at_period(piece))
            .collect()
    }

    /// True iff the predicate holds at some instant.
    pub fn ever(&self, pred: impl Fn(&V) -> bool) -> bool {
        self.instants.iter().any(|i| pred(&i.value))
    }

    /// True iff the predicate holds at every instant.
    pub fn always(&self, pred: impl Fn(&V) -> bool) -> bool {
        self.instants.iter().all(|i| pred(&i.value))
    }

    /// Appends an instant at the end (streaming build). The timestamp must
    /// be strictly after the current end.
    pub fn push(&mut self, inst: TInstant<V>) -> Result<()> {
        if inst.t <= self.end_timestamp() {
            return Err(MeosError::InvalidArgument(format!(
                "appended instant at {} not after sequence end {}",
                inst.t,
                self.end_timestamp()
            )));
        }
        self.instants.push(inst);
        Ok(())
    }

    /// Shifts every instant by `delta`.
    pub fn shift(&self, delta: TimeDelta) -> TSequence<V> {
        TSequence {
            instants: self
                .instants
                .iter()
                .map(|i| TInstant::new(i.value.clone(), i.t + delta))
                .collect(),
            lower_inc: self.lower_inc,
            upper_inc: self.upper_inc,
            interp: self.interp,
        }
    }

    /// Maps values, preserving timestamps. Linear interpolation degrades
    /// to step when the target type cannot interpolate.
    pub fn map<U: TempValue>(&self, f: impl Fn(&V) -> U) -> TSequence<U> {
        let interp = match self.interp {
            Interp::Linear if !U::can_linear() => Interp::Step,
            other => other,
        };
        TSequence {
            instants: self.instants.iter().map(|i| i.map(&f)).collect(),
            lower_inc: self.lower_inc,
            upper_inc: self.upper_inc,
            interp,
        }
    }
}

impl<V: TempValue + PartialOrd> TSequence<V> {
    /// Minimum instant value (exact for step/linear: extrema of a
    /// piecewise-linear function lie at vertices).
    pub fn min_value(&self) -> V {
        self.instants
            .iter()
            .map(|i| &i.value)
            .fold(None::<&V>, |acc, v| match acc {
                Some(m) if m <= v => Some(m),
                _ => Some(v),
            })
            .expect("sequence non-empty")
            .clone()
    }

    /// Maximum instant value.
    pub fn max_value(&self) -> V {
        self.instants
            .iter()
            .map(|i| &i.value)
            .fold(None::<&V>, |acc, v| match acc {
                Some(m) if m >= v => Some(m),
                _ => Some(v),
            })
            .expect("sequence non-empty")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(sec: i64) -> TimestampTz {
        TimestampTz::from_unix_secs(sec)
    }

    fn lin(vals: &[(f64, i64)]) -> TSequence<f64> {
        TSequence::linear(vals.iter().map(|&(v, s)| TInstant::new(v, t(s))).collect()).unwrap()
    }

    fn stp(vals: &[(i64, i64)]) -> TSequence<i64> {
        TSequence::step(vals.iter().map(|&(v, s)| TInstant::new(v, t(s))).collect()).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(TSequence::<f64>::linear(vec![]).is_err());
        let unsorted = vec![TInstant::new(1.0, t(10)), TInstant::new(2.0, t(5))];
        assert!(TSequence::linear(unsorted).is_err());
        let dup = vec![TInstant::new(1.0, t(5)), TInstant::new(2.0, t(5))];
        assert!(TSequence::linear(dup).is_err());
        // bools cannot be linear
        assert!(TSequence::new(
            vec![TInstant::new(true, t(0)), TInstant::new(false, t(1))],
            true,
            true,
            Interp::Linear
        )
        .is_err());
    }

    #[test]
    fn singleton_forces_inclusive() {
        let s =
            TSequence::new(vec![TInstant::new(1.0, t(0))], false, false, Interp::Linear).unwrap();
        assert!(s.lower_inc() && s.upper_inc());
    }

    #[test]
    fn linear_value_at() {
        let s = lin(&[(0.0, 0), (10.0, 10)]);
        assert_eq!(s.value_at(t(0)), Some(0.0));
        assert_eq!(s.value_at(t(5)), Some(5.0));
        assert_eq!(s.value_at(t(10)), Some(10.0));
        assert_eq!(s.value_at(t(11)), None);
    }

    #[test]
    fn step_value_at() {
        let s = stp(&[(1, 0), (2, 10), (3, 20)]);
        assert_eq!(s.value_at(t(0)), Some(1));
        assert_eq!(s.value_at(t(9)), Some(1));
        assert_eq!(s.value_at(t(10)), Some(2));
        assert_eq!(s.value_at(t(19)), Some(2));
        assert_eq!(s.value_at(t(20)), Some(3));
    }

    #[test]
    fn exclusive_upper_bound() {
        let s = TSequence::new(
            vec![TInstant::new(1.0, t(0)), TInstant::new(2.0, t(10))],
            true,
            false,
            Interp::Linear,
        )
        .unwrap();
        assert_eq!(s.value_at(t(10)), None);
        assert_eq!(s.value_at(t(9)), Some(1.9));
    }

    #[test]
    fn discrete_value_at() {
        let s =
            TSequence::discrete(vec![TInstant::new(1.0, t(0)), TInstant::new(2.0, t(10))]).unwrap();
        assert_eq!(s.value_at(t(0)), Some(1.0));
        assert_eq!(s.value_at(t(5)), None);
        assert_eq!(s.duration(), TimeDelta::ZERO);
    }

    #[test]
    fn at_period_interpolates_boundaries() {
        let s = lin(&[(0.0, 0), (10.0, 10)]);
        let r = s
            .at_period(&Period::inclusive(t(2), t(8)).unwrap())
            .unwrap();
        assert_eq!(r.num_instants(), 2);
        assert_eq!(r.start_value(), 2.0);
        assert_eq!(r.end_value(), 8.0);
        assert_eq!(r.start_timestamp(), t(2));
    }

    #[test]
    fn at_period_keeps_interior_instants() {
        let s = lin(&[(0.0, 0), (10.0, 10), (0.0, 20)]);
        let r = s
            .at_period(&Period::inclusive(t(5), t(15)).unwrap())
            .unwrap();
        assert_eq!(r.num_instants(), 3);
        assert_eq!(r.instants()[1].value, 10.0);
        assert_eq!(r.start_value(), 5.0);
        assert_eq!(r.end_value(), 5.0);
    }

    #[test]
    fn at_period_disjoint_and_instant() {
        let s = lin(&[(0.0, 0), (10.0, 10)]);
        assert!(s
            .at_period(&Period::inclusive(t(50), t(60)).unwrap())
            .is_none());
        let single = s.at_period(&Period::point(t(4))).unwrap();
        assert_eq!(single.num_instants(), 1);
        assert_eq!(single.start_value(), 4.0);
    }

    #[test]
    fn at_period_step_boundary_uses_held_value() {
        let s = stp(&[(1, 0), (5, 10)]);
        let r = s
            .at_period(&Period::inclusive(t(3), t(7)).unwrap())
            .unwrap();
        assert_eq!(r.start_value(), 1);
        assert_eq!(r.end_value(), 1, "step holds previous value");
    }

    #[test]
    fn minus_period_splits() {
        let s = lin(&[(0.0, 0), (10.0, 10)]);
        let parts = s.minus_period(&Period::new(t(4), t(6), true, false).unwrap());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].end_timestamp(), t(4));
        assert!(!parts[0].period().upper_inc(), "cut bound flipped");
        assert_eq!(parts[1].start_timestamp(), t(6));
        assert!(parts[1].period().lower_inc());
    }

    #[test]
    fn ever_always_min_max() {
        let s = lin(&[(1.0, 0), (5.0, 10), (3.0, 20)]);
        assert!(s.ever(|v| *v > 4.0));
        assert!(!s.always(|v| *v > 2.0));
        assert_eq!(s.min_value(), 1.0);
        assert_eq!(s.max_value(), 5.0);
    }

    #[test]
    fn push_appends_in_order() {
        let mut s = lin(&[(1.0, 0)]);
        s.push(TInstant::new(2.0, t(10))).unwrap();
        assert_eq!(s.num_instants(), 2);
        assert!(s.push(TInstant::new(3.0, t(10))).is_err());
        assert!(s.push(TInstant::new(3.0, t(5))).is_err());
    }

    #[test]
    fn shift_and_map() {
        let s = lin(&[(1.0, 0), (2.0, 10)]);
        let sh = s.shift(TimeDelta::from_secs(5));
        assert_eq!(sh.start_timestamp(), t(5));
        assert_eq!(sh.end_timestamp(), t(15));
        let mapped: TSequence<i64> = s.map(|v| (*v as i64) * 10);
        assert_eq!(mapped.interp(), Interp::Step, "i64 cannot be linear");
        assert_eq!(mapped.start_value(), 10);
    }

    #[test]
    fn segments_iterate_pairs() {
        let s = lin(&[(0.0, 0), (1.0, 1), (2.0, 2)]);
        let segs: Vec<_> = s.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0.value, 0.0);
        assert_eq!(segs[1].1.value, 2.0);
    }
}
