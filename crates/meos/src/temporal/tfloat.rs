//! Temporal-float specific operations: time-weighted statistics, threshold
//! restriction with exact linear crossings, derivatives and arithmetic.

use super::instant::TInstant;
use super::seqset::TSequenceSet;
use super::sequence::TSequence;
use super::value::Interp;
use crate::time::{Period, PeriodSet, TimestampTz};

impl TSequence<f64> {
    /// Time-weighted average of the value. Linear sequences use exact
    /// trapezoidal integration; step sequences weight each value by its
    /// holding time; discrete sequences degrade to the arithmetic mean.
    pub fn twavg(&self) -> f64 {
        let n = self.num_instants();
        if n == 1 || self.interp() == Interp::Discrete {
            let sum: f64 = self.values().sum();
            return sum / n as f64;
        }
        let total = self.duration().as_secs_f64();
        if total == 0.0 {
            return self.start_value();
        }
        self.integral() / total
    }

    /// Integral of the value over time (value·seconds).
    pub fn integral(&self) -> f64 {
        let mut acc = 0.0;
        for (a, b) in self.segments() {
            let dt = (b.t - a.t).as_secs_f64();
            acc += match self.interp() {
                Interp::Linear => (a.value + b.value) * 0.5 * dt,
                _ => a.value * dt,
            };
        }
        acc
    }

    /// Periods where the value is `>= threshold`. Exact: linear segments
    /// contribute the sub-interval up to/from the crossing time.
    pub fn at_above(&self, threshold: f64) -> PeriodSet {
        self.threshold_periods(threshold, true)
    }

    /// Periods where the value is `<= threshold`.
    pub fn at_below(&self, threshold: f64) -> PeriodSet {
        self.threshold_periods(threshold, false)
    }

    fn threshold_periods(&self, c: f64, above: bool) -> PeriodSet {
        let sat = |v: f64| if above { v >= c } else { v <= c };
        if self.interp() == Interp::Discrete || self.num_instants() == 1 {
            let pts = self
                .instants()
                .iter()
                .filter(|i| sat(i.value))
                .map(|i| Period::point(i.t))
                .collect();
            return PeriodSet::from_spans(pts);
        }
        let mut periods: Vec<Period> = Vec::new();
        for (a, b) in self.segments() {
            match self.interp() {
                Interp::Step => {
                    // a.value holds over [a.t, b.t).
                    if sat(a.value) {
                        periods.push(
                            Period::new(a.t, b.t, true, false).expect("segment period valid"),
                        );
                    }
                }
                _ => {
                    let (sa, sb) = (sat(a.value), sat(b.value));
                    match (sa, sb) {
                        (true, true) => periods.push(Period::inclusive(a.t, b.t).unwrap()),
                        (false, false) => {}
                        _ => {
                            let tc = crossing_time(a, b, c);
                            if sa {
                                periods.push(Period::inclusive(a.t, tc).unwrap());
                            } else {
                                periods.push(Period::inclusive(tc, b.t).unwrap());
                            }
                        }
                    }
                }
            }
        }
        // Final instant of a step sequence holds only at its own timestamp.
        if self.interp() == Interp::Step && sat(self.end_value()) && self.upper_inc() {
            periods.push(Period::point(self.end_timestamp()));
        }
        PeriodSet::from_spans(periods)
    }

    /// Rate of change per second as a step sequence (one rate per segment,
    /// the last instant repeating the final rate). Zero everywhere for
    /// step interpolation.
    pub fn derivative(&self) -> Option<TSequence<f64>> {
        if self.num_instants() < 2 || self.interp() == Interp::Discrete {
            return None;
        }
        let mut out = Vec::with_capacity(self.num_instants());
        let mut last_rate = 0.0;
        for (a, b) in self.segments() {
            let dt = (b.t - a.t).as_secs_f64();
            last_rate = if self.interp() == Interp::Linear && dt > 0.0 {
                (b.value - a.value) / dt
            } else {
                0.0
            };
            out.push(TInstant::new(last_rate, a.t));
        }
        out.push(TInstant::new(last_rate, self.end_timestamp()));
        Some(
            TSequence::new(out, self.lower_inc(), self.upper_inc(), Interp::Step)
                .expect("derivative sequence valid"),
        )
    }

    /// Adds a constant.
    pub fn offset(&self, c: f64) -> TSequence<f64> {
        self.map(|v| v + c)
    }

    /// Multiplies by a constant.
    pub fn scale(&self, c: f64) -> TSequence<f64> {
        self.map(|v| v * c)
    }

    /// Absolute value. NOTE: exact only when the sign is constant per
    /// segment; zero crossings of linear segments are inserted.
    pub fn abs(&self) -> TSequence<f64> {
        if self.interp() != Interp::Linear {
            return self.map(|v| v.abs());
        }
        let mut out: Vec<TInstant<f64>> = Vec::with_capacity(self.num_instants());
        out.push(TInstant::new(
            self.start_value().abs(),
            self.start_timestamp(),
        ));
        for (a, b) in self.segments() {
            if (a.value < 0.0 && b.value > 0.0) || (a.value > 0.0 && b.value < 0.0) {
                let tc = crossing_time(a, b, 0.0);
                if tc > a.t && tc < b.t {
                    out.push(TInstant::new(0.0, tc));
                }
            }
            out.push(TInstant::new(b.value.abs(), b.t));
        }
        TSequence::new(out, self.lower_inc(), self.upper_inc(), Interp::Linear)
            .expect("abs sequence valid")
    }
}

/// Time where the linear segment `a`→`b` attains value `c`.
fn crossing_time(a: &TInstant<f64>, b: &TInstant<f64>, c: f64) -> TimestampTz {
    let dv = b.value - a.value;
    if dv.abs() < f64::EPSILON {
        return a.t;
    }
    let frac = ((c - a.value) / dv).clamp(0.0, 1.0);
    let dt = (b.t - a.t).micros() as f64;
    TimestampTz::from_micros(a.t.micros() + (frac * dt).round() as i64)
}

impl TSequenceSet<f64> {
    /// Duration-weighted average across all member sequences.
    pub fn twavg(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for s in self.sequences() {
            let d = s.duration().as_secs_f64();
            if d > 0.0 {
                num += s.integral();
                den += d;
            }
        }
        if den == 0.0 {
            // All members are instants: plain mean.
            let (sum, n) = self.sequences().iter().fold((0.0, 0usize), |acc, s| {
                (acc.0 + s.values().sum::<f64>(), acc.1 + s.num_instants())
            });
            sum / n as f64
        } else {
            num / den
        }
    }

    /// Periods where the value is `>= threshold`, across all members.
    pub fn at_above(&self, threshold: f64) -> PeriodSet {
        self.sequences().iter().fold(PeriodSet::empty(), |acc, s| {
            acc.union(&s.at_above(threshold))
        })
    }

    /// Periods where the value is `<= threshold`, across all members.
    pub fn at_below(&self, threshold: f64) -> PeriodSet {
        self.sequences().iter().fold(PeriodSet::empty(), |acc, s| {
            acc.union(&s.at_below(threshold))
        })
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

    #[test]
    fn twavg_linear_trapezoid() {
        let s = lin(&[(0.0, 0), (10.0, 10)]);
        assert_eq!(s.twavg(), 5.0);
        let asym = lin(&[(0.0, 0), (10.0, 10), (10.0, 30)]);
        // 50 + 200 over 30 s.
        assert!((asym.twavg() - 250.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    fn twavg_step_weights_holding_time() {
        let s = TSequence::step(vec![
            TInstant::new(10.0, t(0)),
            TInstant::new(0.0, t(30)),
            TInstant::new(0.0, t(40)),
        ])
        .unwrap();
        // 10 held for 30 s, 0 for 10 s.
        assert!((s.twavg() - 300.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn at_above_exact_crossings() {
        let s = lin(&[(0.0, 0), (10.0, 10), (0.0, 20)]);
        let ps = s.at_above(5.0);
        assert_eq!(ps.num_spans(), 1);
        let p = ps.spans()[0];
        assert_eq!(p.lower(), t(5));
        assert_eq!(p.upper(), t(15));
    }

    #[test]
    fn at_above_multiple_excursions() {
        let s = lin(&[(0.0, 0), (10.0, 10), (0.0, 20), (10.0, 30)]);
        let ps = s.at_above(9.0);
        assert_eq!(ps.num_spans(), 2);
        assert_eq!(ps.spans()[0].lower(), t(9));
        assert_eq!(ps.spans()[1].upper(), t(30));
    }

    #[test]
    fn at_below_and_boundaries() {
        let s = lin(&[(10.0, 0), (0.0, 10)]);
        let ps = s.at_below(2.0);
        assert_eq!(ps.num_spans(), 1);
        assert_eq!(ps.spans()[0].lower(), t(8));
        assert_eq!(ps.spans()[0].upper(), t(10));
        // Entirely below.
        assert_eq!(s.at_below(100.0).num_spans(), 1);
        // Never below.
        assert!(s.at_below(-1.0).is_empty());
    }

    #[test]
    fn at_above_step() {
        let s = TSequence::step(vec![
            TInstant::new(1.0, t(0)),
            TInstant::new(5.0, t(10)),
            TInstant::new(1.0, t(20)),
        ])
        .unwrap();
        let ps = s.at_above(3.0);
        assert_eq!(ps.num_spans(), 1);
        assert_eq!(ps.spans()[0].lower(), t(10));
        assert_eq!(ps.spans()[0].upper(), t(20));
        assert!(!ps.spans()[0].upper_inc());
    }

    #[test]
    fn at_above_discrete() {
        let s =
            TSequence::discrete(vec![TInstant::new(1.0, t(0)), TInstant::new(5.0, t(10))]).unwrap();
        let ps = s.at_above(3.0);
        assert_eq!(ps.num_spans(), 1);
        assert!(ps.spans()[0].is_instant());
    }

    #[test]
    fn derivative_rates() {
        let s = lin(&[(0.0, 0), (10.0, 10), (10.0, 20)]);
        let d = s.derivative().unwrap();
        assert_eq!(d.interp(), Interp::Step);
        assert_eq!(d.value_at(t(5)), Some(1.0));
        assert_eq!(d.value_at(t(15)), Some(0.0));
        assert!(lin(&[(0.0, 0)]).derivative().is_none());
    }

    #[test]
    fn arithmetic_and_abs() {
        let s = lin(&[(-5.0, 0), (5.0, 10)]);
        assert_eq!(s.offset(5.0).start_value(), 0.0);
        assert_eq!(s.scale(2.0).end_value(), 10.0);
        let a = s.abs();
        assert_eq!(a.value_at(t(5)), Some(0.0), "zero crossing inserted");
        assert_eq!(a.value_at(t(0)), Some(5.0));
        assert_eq!(a.num_instants(), 3);
    }

    #[test]
    fn seqset_stats() {
        let ss = TSequenceSet::new(vec![
            lin(&[(0.0, 0), (10.0, 10)]),
            lin(&[(20.0, 20), (20.0, 30)]),
        ])
        .unwrap();
        // (50 + 200) / 20s
        assert!((ss.twavg() - 12.5).abs() < 1e-12);
        let above = ss.at_above(15.0);
        assert_eq!(above.num_spans(), 1);
        assert_eq!(above.spans()[0].lower(), t(20));
    }
}
