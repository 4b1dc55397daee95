//! The benchmark's own order statistics. The repository's vendored
//! `criterion` stand-in reports means only, and a mean moves with one
//! slow repetition; everything `fleetbench` prints is a median with its
//! quartiles, so one outlier cannot move it.

/// A sorted copy of `values`. Panics on NaN: every sample here is a
/// measured duration, count or ratio, so a NaN is a bug in the harness.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Linear interpolation at fractional rank `pos` (0-based) of a sorted
/// slice, clamped to its ends.
fn at_rank(sorted: &[f64], pos: f64) -> f64 {
    let last = sorted.len() - 1;
    let pos = pos.clamp(0.0, last as f64);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(last);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let s = sorted(values);
    Some(at_rank(&s, (s.len() - 1) as f64 / 2.0))
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method: rank
/// `k·(n+1)/4`, 1-based), so that a spread printed here is the spread
/// the acceptance check computes. Needs two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let s = sorted(values);
    let n = s.len() as f64;
    Some((
        at_rank(&s, (n + 1.0) / 4.0 - 1.0),
        at_rank(&s, 3.0 * (n + 1.0) / 4.0 - 1.0),
    ))
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Nearest-rank percentile `p` in `(0, 100]` of a **sorted** slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The tail value a latency report may quote from a **sorted** sample:
/// the 99th percentile when at least 1 000 samples back it, otherwise
/// the highest percentile that still has ten samples beyond it. Returns
/// the percentile used and its value; `None` below eleven samples.
pub fn tail_percentile_sorted(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n >= 1_000 {
        return percentile_sorted(sorted, 99.0).map(|v| (99.0, v));
    }
    if n < 11 {
        return None;
    }
    let idx = n - 11;
    Some(((idx + 1) as f64 / n as f64 * 100.0, sorted[idx]))
}

/// Median, quartiles and count of one metric's repetitions — what is
/// printed beside every value.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The median (the reported value).
    pub value: f64,
    /// First quartile (the median itself below two samples).
    pub q1: f64,
    /// Third quartile (the median itself below two samples).
    pub q3: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let value = median(values)?;
        let (q1, q3) = quartiles(values).unwrap_or((value, value));
        Some(Summary {
            value,
            q1,
            q3,
            mad: mad(values).unwrap_or(0.0),
            n: values.len(),
        })
    }

    /// A single measured value with no spread of its own.
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            mad: 0.0,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25], which
        // Python extrapolates; clamping to the sample keeps a spread of
        // two runs inside what was measured.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((1.0, 2.0)));
        // statistics.quantiles([7, 1, 3, 9, 5], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[7.0, 1.0, 3.0, 9.0, 5.0]), Some((2.0, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn mad_ignores_one_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
        assert_eq!(mad(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), Some(50.0));
        assert_eq!(percentile_sorted(&v, 99.0), Some(99.0));
        assert_eq!(percentile_sorted(&v, 100.0), Some(100.0));
        assert_eq!(percentile_sorted(&v, 0.5), Some(1.0));
        assert_eq!(percentile_sorted(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, x) = tail_percentile_sorted(&v).unwrap();
        assert_eq!(x, 190.0);
        assert_eq!(v.iter().filter(|s| **s > x).count(), 10);
        assert!((p - 95.0).abs() < 1e-9);
        let big: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(tail_percentile_sorted(&big), Some((99.0, 1_980.0)));
        assert_eq!(tail_percentile_sorted(&v[..10]), None);
    }

    #[test]
    fn summary_carries_count_and_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!((s.value, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        let one = Summary::of(&[2.0]).unwrap();
        assert_eq!((one.q1, one.q3, one.mad), (2.0, 2.0, 0.0));
        assert!(Summary::of(&[]).is_none());
    }
}
