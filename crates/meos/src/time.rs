//! Time types: [`TimestampTz`] (microsecond-precision UTC instants),
//! [`TimeDelta`] (signed durations), and time-specific aliases of the span
//! algebra ([`Period`], [`PeriodSet`], [`TimestampSet`]).
//!
//! MEOS (following PostgreSQL) represents `timestamptz` as a 64-bit count of
//! microseconds; we adopt the Unix epoch as origin. Calendar conversion uses
//! Howard Hinnant's `days_from_civil` algorithm, exact over the proleptic
//! Gregorian calendar, so no external date-time crate is needed.

use crate::error::{MeosError, Result};
use crate::span::{Span, SpanBound, SpanSet};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Microseconds per second.
pub const MICROS_PER_SEC: i64 = 1_000_000;
/// Microseconds per minute.
pub const MICROS_PER_MIN: i64 = 60 * MICROS_PER_SEC;
/// Microseconds per hour.
pub const MICROS_PER_HOUR: i64 = 60 * MICROS_PER_MIN;
/// Microseconds per day.
pub const MICROS_PER_DAY: i64 = 24 * MICROS_PER_HOUR;

/// A signed duration with microsecond precision.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimeDelta(i64);

impl TimeDelta {
    /// The zero-length duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Builds a delta from raw microseconds.
    pub const fn from_micros(us: i64) -> Self {
        TimeDelta(us)
    }

    /// Builds a delta from milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        TimeDelta(ms * 1_000)
    }

    /// Builds a delta from whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        TimeDelta(s * MICROS_PER_SEC)
    }

    /// Builds a delta from whole minutes.
    pub const fn from_minutes(m: i64) -> Self {
        TimeDelta(m * MICROS_PER_MIN)
    }

    /// Builds a delta from whole hours.
    pub const fn from_hours(h: i64) -> Self {
        TimeDelta(h * MICROS_PER_HOUR)
    }

    /// Builds a delta from fractional seconds (rounded to microseconds).
    pub fn from_secs_f64(s: f64) -> Self {
        TimeDelta((s * MICROS_PER_SEC as f64).round() as i64)
    }

    /// Raw microseconds.
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// The delta expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Absolute value.
    pub const fn abs(self) -> Self {
        TimeDelta(self.0.abs())
    }

    /// True iff this delta is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: Self) -> Self {
        TimeDelta(self.0 + rhs.0)
    }
}

impl Sub for TimeDelta {
    type Output = TimeDelta;
    fn sub(self, rhs: Self) -> Self {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Neg for TimeDelta {
    type Output = TimeDelta;
    fn neg(self) -> Self {
        TimeDelta(-self.0)
    }
}

impl Mul<i64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: i64) -> Self {
        TimeDelta(self.0 * rhs)
    }
}

impl Div<i64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: i64) -> Self {
        TimeDelta(self.0 / rhs)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us.abs() < MICROS_PER_SEC {
            write!(f, "{}us", us)
        } else if us % MICROS_PER_SEC == 0 && us.abs() < MICROS_PER_MIN {
            write!(f, "{}s", us / MICROS_PER_SEC)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

/// A UTC instant with microsecond precision (PostgreSQL `timestamptz`
/// analogue), stored as microseconds since the Unix epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct TimestampTz(i64);

/// Days from civil date, proleptic Gregorian (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = (m + 9) % 12; // [0, 11], March == 0
    let doy = (153 * mp as i64 + 2) / 5 + d as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date from days since epoch (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl TimestampTz {
    /// The Unix epoch.
    pub const EPOCH: TimestampTz = TimestampTz(0);

    /// Builds a timestamp from raw microseconds since the Unix epoch.
    pub const fn from_micros(us: i64) -> Self {
        TimestampTz(us)
    }

    /// Builds a timestamp from whole seconds since the Unix epoch.
    pub const fn from_unix_secs(s: i64) -> Self {
        TimestampTz(s * MICROS_PER_SEC)
    }

    /// Builds a UTC timestamp from calendar components. Fails on
    /// out-of-range months/days/times (leap seconds are not representable).
    pub fn from_ymd_hms(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        min: u32,
        sec: u32,
    ) -> Result<Self> {
        Self::from_ymd_hms_micro(year, month, day, hour, min, sec, 0)
    }

    /// Like [`TimestampTz::from_ymd_hms`] with an explicit sub-second
    /// microsecond component.
    pub fn from_ymd_hms_micro(
        year: i64,
        month: u32,
        day: u32,
        hour: u32,
        min: u32,
        sec: u32,
        micro: u32,
    ) -> Result<Self> {
        if !(1..=12).contains(&month) {
            return Err(MeosError::InvalidArgument(format!(
                "month {month} out of range"
            )));
        }
        if !(1..=31).contains(&day) || day > days_in_month(year, month) {
            return Err(MeosError::InvalidArgument(format!(
                "day {day} out of range for {year}-{month:02}"
            )));
        }
        if hour > 23 || min > 59 || sec > 59 || micro > 999_999 {
            return Err(MeosError::InvalidArgument(format!(
                "time {hour:02}:{min:02}:{sec:02}.{micro:06} out of range"
            )));
        }
        let days = days_from_civil(year, month, day);
        let us = days * MICROS_PER_DAY
            + hour as i64 * MICROS_PER_HOUR
            + min as i64 * MICROS_PER_MIN
            + sec as i64 * MICROS_PER_SEC
            + micro as i64;
        Ok(TimestampTz(us))
    }

    /// Raw microseconds since the Unix epoch.
    pub const fn micros(self) -> i64 {
        self.0
    }

    /// Seconds since the Unix epoch, truncating sub-second precision.
    pub const fn unix_secs(self) -> i64 {
        self.0.div_euclid(MICROS_PER_SEC)
    }

    /// Decomposes into `(year, month, day, hour, minute, second, micros)`.
    pub fn to_civil(self) -> (i64, u32, u32, u32, u32, u32, u32) {
        let days = self.0.div_euclid(MICROS_PER_DAY);
        let mut rem = self.0.rem_euclid(MICROS_PER_DAY);
        let (y, mo, d) = civil_from_days(days);
        let hour = (rem / MICROS_PER_HOUR) as u32;
        rem %= MICROS_PER_HOUR;
        let min = (rem / MICROS_PER_MIN) as u32;
        rem %= MICROS_PER_MIN;
        let sec = (rem / MICROS_PER_SEC) as u32;
        let micro = (rem % MICROS_PER_SEC) as u32;
        (y, mo, d, hour, min, sec, micro)
    }

    /// Parses an ISO-8601-ish literal: `2025-06-22T10:30:00Z`,
    /// `2025-06-22 10:30:00.25+02:00`, `2025-06-22T10:30:00+02`.
    /// A missing offset means UTC (MobilityDB session default).
    pub fn parse(s: &str) -> Result<Self> {
        let s = s.trim();
        let bad = |what: &str| MeosError::Parse(format!("invalid timestamp '{s}': {what}"));
        // Split date / time on 'T' or ' '.
        let split = s
            .find(['T', 't', ' '])
            .ok_or_else(|| bad("missing time separator"))?;
        let (date, rest) = s.split_at(split);
        let rest = &rest[1..];
        let mut dp = date.splitn(3, '-');
        let year: i64 = dp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad year"))?;
        let month: u32 = dp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad month"))?;
        let day: u32 = dp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad day"))?;

        // Find timezone suffix.
        let (time_part, offset_us) = if let Some(st) = rest.strip_suffix(['Z', 'z']) {
            (st, 0i64)
        } else if let Some(pos) = rest.rfind(['+', '-']) {
            let (tp, tz) = rest.split_at(pos);
            let sign: i64 = if tz.starts_with('-') { -1 } else { 1 };
            let tz = &tz[1..];
            let (h, m) = match tz.split_once(':') {
                Some((h, m)) => (
                    h.parse::<i64>().map_err(|_| bad("bad tz hour"))?,
                    m.parse::<i64>().map_err(|_| bad("bad tz minute"))?,
                ),
                None => (tz.parse::<i64>().map_err(|_| bad("bad tz"))?, 0),
            };
            (tp, sign * (h * MICROS_PER_HOUR + m * MICROS_PER_MIN))
        } else {
            (rest, 0)
        };

        let mut tp = time_part.splitn(3, ':');
        let hour: u32 = tp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad hour"))?;
        let min: u32 = tp
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("bad minute"))?;
        let sec_str = tp.next().unwrap_or("0");
        let (sec, micro) = match sec_str.split_once('.') {
            Some((s_int, frac)) => {
                let sec: u32 = s_int.parse().map_err(|_| bad("bad seconds"))?;
                let mut frac = frac.to_string();
                while frac.len() < 6 {
                    frac.push('0');
                }
                frac.truncate(6);
                let micro: u32 = frac.parse().map_err(|_| bad("bad fraction"))?;
                (sec, micro)
            }
            None => (sec_str.parse().map_err(|_| bad("bad seconds"))?, 0),
        };
        let local = Self::from_ymd_hms_micro(year, month, day, hour, min, sec, micro)?;
        Ok(TimestampTz(local.0 - offset_us))
    }
}

/// Days in the given month of the (proleptic Gregorian) year.
fn days_in_month(year: i64, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl fmt::Display for TimestampTz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, mo, d, h, mi, s, us) = self.to_civil();
        if us == 0 {
            write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}Z")
        } else {
            let frac = format!("{us:06}");
            let frac = frac.trim_end_matches('0');
            write!(f, "{y:04}-{mo:02}-{d:02}T{h:02}:{mi:02}:{s:02}.{frac}Z")
        }
    }
}

impl Add<TimeDelta> for TimestampTz {
    type Output = TimestampTz;
    fn add(self, rhs: TimeDelta) -> Self {
        TimestampTz(self.0 + rhs.micros())
    }
}

impl AddAssign<TimeDelta> for TimestampTz {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.micros();
    }
}

impl Sub<TimeDelta> for TimestampTz {
    type Output = TimestampTz;
    fn sub(self, rhs: TimeDelta) -> Self {
        TimestampTz(self.0 - rhs.micros())
    }
}

impl SubAssign<TimeDelta> for TimestampTz {
    fn sub_assign(&mut self, rhs: TimeDelta) {
        self.0 -= rhs.micros();
    }
}

impl Sub for TimestampTz {
    type Output = TimeDelta;
    fn sub(self, rhs: Self) -> TimeDelta {
        TimeDelta::from_micros(self.0 - rhs.0)
    }
}

impl SpanBound for TimestampTz {
    fn dist(a: Self, b: Self) -> f64 {
        (b.0 - a.0) as f64
    }
}

/// A time interval: the MEOS `tstzspan` (historically `period`).
pub type Period = Span<TimestampTz>;

/// A normalized set of disjoint periods: the MEOS `tstzspanset`.
pub type PeriodSet = SpanSet<TimestampTz>;

impl Period {
    /// Duration of the period (upper − lower), ignoring bound inclusivity.
    pub fn duration(&self) -> TimeDelta {
        self.upper() - self.lower()
    }
}

/// An ordered set of distinct timestamps (the MEOS `tstzset`).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TimestampSet {
    times: Vec<TimestampTz>,
}

impl TimestampSet {
    /// Builds a set from arbitrary timestamps: sorts and deduplicates.
    pub fn new(mut times: Vec<TimestampTz>) -> Self {
        times.sort_unstable();
        times.dedup();
        TimestampSet { times }
    }

    /// The member timestamps in ascending order.
    pub fn times(&self) -> &[TimestampTz] {
        &self.times
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True iff the set has no members.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, t: TimestampTz) -> bool {
        self.times.binary_search(&t).is_ok()
    }

    /// Smallest member, if any.
    pub fn start(&self) -> Option<TimestampTz> {
        self.times.first().copied()
    }

    /// Largest member, if any.
    pub fn end(&self) -> Option<TimestampTz> {
        self.times.last().copied()
    }

    /// Tight period covering the set (inclusive bounds).
    pub fn period(&self) -> Option<Period> {
        match (self.start(), self.end()) {
            (Some(a), Some(b)) => Some(Period::inclusive(a, b).unwrap()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(y: i64, mo: u32, d: u32, h: u32, mi: u32, s: u32) -> TimestampTz {
        TimestampTz::from_ymd_hms(y, mo, d, h, mi, s).unwrap()
    }

    #[test]
    fn epoch_is_1970() {
        assert_eq!(ts(1970, 1, 1, 0, 0, 0), TimestampTz::EPOCH);
    }

    #[test]
    fn civil_round_trip() {
        let cases = [
            (2025, 6, 22, 10, 30, 0),
            (2000, 2, 29, 23, 59, 59),
            (1969, 12, 31, 23, 59, 59),
            (1900, 1, 1, 0, 0, 0),
            (2400, 2, 29, 12, 0, 0),
        ];
        for (y, mo, d, h, mi, s) in cases {
            let t = ts(y, mo, d, h, mi, s);
            let (y2, mo2, d2, h2, mi2, s2, us2) = t.to_civil();
            assert_eq!((y, mo, d, h, mi, s, 0), (y2, mo2, d2, h2, mi2, s2, us2));
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        assert!(TimestampTz::from_ymd_hms(2025, 2, 29, 0, 0, 0).is_err());
        assert!(TimestampTz::from_ymd_hms(2025, 13, 1, 0, 0, 0).is_err());
        assert!(TimestampTz::from_ymd_hms(2025, 4, 31, 0, 0, 0).is_err());
        assert!(TimestampTz::from_ymd_hms(2025, 1, 1, 24, 0, 0).is_err());
    }

    #[test]
    fn display_format() {
        assert_eq!(
            ts(2025, 6, 22, 10, 30, 0).to_string(),
            "2025-06-22T10:30:00Z"
        );
        let t = TimestampTz::from_ymd_hms_micro(2025, 6, 22, 10, 30, 0, 250_000).unwrap();
        assert_eq!(t.to_string(), "2025-06-22T10:30:00.25Z");
    }

    #[test]
    fn parse_variants() {
        let want = ts(2025, 6, 22, 10, 30, 0);
        for lit in [
            "2025-06-22T10:30:00Z",
            "2025-06-22 10:30:00",
            "2025-06-22T12:30:00+02",
            "2025-06-22T12:30:00+02:00",
            "2025-06-22T08:30:00-02:00",
            "2025-06-22T10:30",
        ] {
            assert_eq!(TimestampTz::parse(lit).unwrap(), want, "{lit}");
        }
        let frac = TimestampTz::parse("2025-06-22T10:30:00.5Z").unwrap();
        assert_eq!(frac - want, TimeDelta::from_millis(500));
    }

    #[test]
    fn parse_rejects_garbage() {
        for lit in ["", "not a ts", "2025-06-22", "2025-06-22Txx:30:00Z"] {
            assert!(TimestampTz::parse(lit).is_err(), "{lit}");
        }
    }

    #[test]
    fn parse_display_round_trip() {
        let t = TimestampTz::from_ymd_hms_micro(2025, 12, 31, 23, 59, 59, 123_456).unwrap();
        assert_eq!(TimestampTz::parse(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn arithmetic() {
        let t = ts(2025, 6, 22, 10, 0, 0);
        assert_eq!(t + TimeDelta::from_hours(2), ts(2025, 6, 22, 12, 0, 0));
        assert_eq!(t - TimeDelta::from_hours(24), ts(2025, 6, 21, 10, 0, 0));
        assert_eq!(ts(2025, 6, 22, 12, 0, 0) - t, TimeDelta::from_hours(2));
    }

    #[test]
    fn delta_helpers() {
        assert_eq!(TimeDelta::from_minutes(2).micros(), 120 * MICROS_PER_SEC);
        assert_eq!(TimeDelta::from_secs_f64(1.5).micros(), 1_500_000);
        assert_eq!(TimeDelta::from_secs(-3).abs(), TimeDelta::from_secs(3));
        assert!((TimeDelta::from_millis(2500).as_secs_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn period_duration_and_expand() {
        let p = Period::inclusive(ts(2025, 1, 1, 0, 0, 0), ts(2025, 1, 1, 1, 0, 0)).unwrap();
        assert_eq!(p.duration(), TimeDelta::from_hours(1));
    }

    #[test]
    fn timestamp_set_basics() {
        let a = ts(2025, 1, 1, 0, 0, 0);
        let b = ts(2025, 1, 2, 0, 0, 0);
        let set = TimestampSet::new(vec![b, a, b]);
        assert_eq!(set.len(), 2);
        assert!(set.contains(a));
        assert_eq!(set.start(), Some(a));
        assert_eq!(set.end(), Some(b));
        assert_eq!(set.period().unwrap().duration(), TimeDelta::from_hours(24));
        assert!(TimestampSet::new(vec![]).period().is_none());
    }
}
