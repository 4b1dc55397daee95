//! A deterministic synthetic weather field replacing the OpenMeteo API.
//!
//! Query 4 joins train positions against current weather to suggest
//! speed limits. The real demo calls the OpenMeteo web service; here a
//! seeded value-noise field over (lon, lat, time) produces smoothly
//! varying temperature, precipitation and visibility with plausible
//! Belgian statistics — deterministic, offline, and adjustable in tests.

use meos::geo::Point;
use meos::time::TimestampTz;
use serde::{Deserialize, Serialize};

/// One weather observation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WeatherSample {
    /// Air temperature (°C).
    pub temp_c: f64,
    /// Rain intensity (mm/h).
    pub rain_mmh: f64,
    /// Snow intensity (mm/h); only below ~2 °C.
    pub snow_mmh: f64,
    /// Visibility (m); fog when low.
    pub visibility_m: f64,
}

/// Categorical condition, as the demo's Q4 consumes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WeatherCondition {
    /// No hazardous weather.
    Clear,
    /// Sustained rain.
    HeavyRain,
    /// Snowfall.
    HeavySnow,
    /// Visibility under 200 m.
    Fog,
}

impl WeatherSample {
    /// Classifies the sample into the hazard categories Q4 reacts to.
    pub fn condition(&self) -> WeatherCondition {
        if self.visibility_m < 200.0 {
            WeatherCondition::Fog
        } else if self.snow_mmh > 1.0 {
            WeatherCondition::HeavySnow
        } else if self.rain_mmh > 4.0 {
            WeatherCondition::HeavyRain
        } else {
            WeatherCondition::Clear
        }
    }

    /// The demo's recommended speed factor under this condition
    /// (1.0 = no restriction).
    pub fn speed_factor(&self) -> f64 {
        self.condition().speed_factor()
    }
}

impl WeatherCondition {
    /// The demo's recommended speed factor under this condition
    /// (1.0 = no restriction).
    pub fn speed_factor(self) -> f64 {
        match self {
            WeatherCondition::Clear => 1.0,
            WeatherCondition::HeavyRain => 0.8,
            WeatherCondition::HeavySnow => 0.6,
            WeatherCondition::Fog => 0.5,
        }
    }
}

/// Deterministic weather field.
#[derive(Debug, Clone)]
pub struct WeatherField {
    seed: u64,
}

fn hash3(seed: u64, x: i64, y: i64, t: i64) -> f64 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ (t as u64).wrapping_mul(0x165667B19E3779F9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    h as f64 / u64::MAX as f64
}

fn smooth(t: f64) -> f64 {
    t * t * (3.0 - 2.0 * t)
}

impl WeatherField {
    /// Builds a field from a seed.
    pub fn new(seed: u64) -> Self {
        WeatherField { seed }
    }

    /// Trilinear value noise in [0, 1] over scaled (x, y, t) lattices.
    fn noise(&self, channel: u64, x: f64, y: f64, t: f64) -> f64 {
        let seed = self.seed ^ channel.wrapping_mul(0xA24BAED4963EE407);
        let (xi, yi, ti) = (x.floor() as i64, y.floor() as i64, t.floor() as i64);
        // Neighbours wrap: an infinite coordinate saturates to
        // `i64::MAX`, whose `+ 1` must not panic.
        let corner = |dx: i64, dy: i64, dt: i64| {
            hash3(
                seed,
                xi.wrapping_add(dx),
                yi.wrapping_add(dy),
                ti.wrapping_add(dt),
            )
        };
        let (xf, yf, tf) = (
            smooth(x - x.floor()),
            smooth(y - y.floor()),
            smooth(t - t.floor()),
        );
        let mut acc = 0.0;
        for (dx, wx) in [(0, 1.0 - xf), (1, xf)] {
            for (dy, wy) in [(0, 1.0 - yf), (1, yf)] {
                for (dt, wt) in [(0, 1.0 - tf), (1, tf)] {
                    acc += wx * wy * wt * corner(dx, dy, dt);
                }
            }
        }
        acc
    }

    /// Samples the field at a position and time.
    pub fn sample(&self, pos: &Point, at: TimestampTz) -> WeatherSample {
        let (cell, day) = (lattice(pos, at), day_frac(at));
        let temp_c = self.temp_c(cell, day);
        let precip = self.precip_mmh(cell);
        let (rain_mmh, snow_mmh) = if temp_c < 1.5 {
            (0.0, precip)
        } else {
            (precip, 0.0)
        };
        WeatherSample {
            temp_c,
            rain_mmh,
            snow_mmh,
            visibility_m: self.visibility_m(cell, day),
        }
    }

    /// `sample(pos, at).condition()`, evaluating only the channels the
    /// classification reads: visibility only in fog hours, temperature
    /// (rain or snow?) only when precipitation exceeds 1 mm/h.
    pub fn condition_at(&self, pos: &Point, at: TimestampTz) -> WeatherCondition {
        let (cell, day) = (lattice(pos, at), day_frac(at));
        if self.visibility_m(cell, day) < 200.0 {
            return WeatherCondition::Fog;
        }
        let precip = self.precip_mmh(cell);
        if precip > 1.0 {
            if self.temp_c(cell, day) < 1.5 {
                return WeatherCondition::HeavySnow;
            }
            if precip > 4.0 {
                return WeatherCondition::HeavyRain;
            }
        }
        WeatherCondition::Clear
    }

    /// Diurnal + noise temperature (°C).
    fn temp_c(&self, (x, y, t): Lattice, day_frac: f64) -> f64 {
        let diurnal = -4.0 * (2.0 * std::f64::consts::PI * (day_frac - 0.17)).cos();
        8.0 + diurnal + 10.0 * (self.noise(1, x, y, t) - 0.35)
    }

    /// Precipitation (mm/h), rain or snow: skewed so most of the time is
    /// dry.
    fn precip_mmh(&self, (x, y, t): Lattice) -> f64 {
        let wet = self.noise(2, x, y, t);
        ((wet - 0.55).max(0.0) * 25.0).powf(1.3)
    }

    /// Visibility (m). Fog: calm + humid pockets, only at night/morning,
    /// so the fog channel is read only then.
    fn visibility_m(&self, (x, y, t): Lattice, day_frac: f64) -> f64 {
        if day_frac < 0.4 {
            let fog_n = self.noise(3, x * 2.0, y * 2.0, t * 1.5);
            if fog_n > 0.75 {
                return 60.0 + 400.0 * (1.0 - fog_n);
            }
        }
        10_000.0
    }
}

/// Noise-lattice coordinates `(x, y, t)`.
type Lattice = (f64, f64, f64);

/// Space scale ~0.25° (≈20 km cells), time scale 2 h — weather systems
/// larger than a train, evolving over hours.
fn lattice(pos: &Point, at: TimestampTz) -> Lattice {
    (
        pos.x / 0.25,
        pos.y / 0.25,
        at.micros() as f64 / (2.0 * 3_600.0 * 1e6),
    )
}

/// Fraction of the UTC day elapsed at `at`, in `[0, 1)`.
fn day_frac(at: TimestampTz) -> f64 {
    (at.micros() as f64 / (24.0 * 3_600.0 * 1e6)).rem_euclid(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meos::time::TimeDelta;

    fn t0() -> TimestampTz {
        TimestampTz::from_ymd_hms(2025, 1, 15, 6, 0, 0).unwrap()
    }

    #[test]
    fn deterministic() {
        let a = WeatherField::new(42);
        let b = WeatherField::new(42);
        let p = Point::new(4.35, 50.85);
        assert_eq!(a.sample(&p, t0()), b.sample(&p, t0()));
        let c = WeatherField::new(43);
        assert_ne!(a.sample(&p, t0()), c.sample(&p, t0()), "seed matters");
    }

    #[test]
    fn smooth_in_space_and_time() {
        let f = WeatherField::new(42);
        let p = Point::new(4.35, 50.85);
        let q = Point::new(4.351, 50.851); // ~100 m away
        let s1 = f.sample(&p, t0());
        let s2 = f.sample(&q, t0());
        assert!((s1.temp_c - s2.temp_c).abs() < 0.5, "spatially smooth");
        let s3 = f.sample(&p, t0() + TimeDelta::from_secs(60));
        assert!((s1.temp_c - s3.temp_c).abs() < 0.5, "temporally smooth");
    }

    #[test]
    fn plausible_statistics_over_a_year() {
        let f = WeatherField::new(7);
        let p = Point::new(4.35, 50.85);
        let mut temps = Vec::new();
        let mut wet_hours = 0;
        let mut fog_hours = 0;
        let n = 2_000;
        for i in 0..n {
            let t = t0() + TimeDelta::from_hours(i * 4);
            let s = f.sample(&p, t);
            temps.push(s.temp_c);
            if s.rain_mmh > 0.1 || s.snow_mmh > 0.1 {
                wet_hours += 1;
            }
            if s.visibility_m < 200.0 {
                fog_hours += 1;
            }
        }
        let mean = temps.iter().sum::<f64>() / temps.len() as f64;
        assert!((0.0..15.0).contains(&mean), "mean temp {mean}");
        let wet_frac = wet_hours as f64 / n as f64;
        assert!((0.02..0.6).contains(&wet_frac), "wet fraction {wet_frac}");
        assert!(fog_hours > 0, "fog occurs");
        assert!(fog_hours < n / 5, "fog is rare");
    }

    #[test]
    fn condition_classification() {
        let clear = WeatherSample {
            temp_c: 12.0,
            rain_mmh: 0.0,
            snow_mmh: 0.0,
            visibility_m: 10_000.0,
        };
        assert_eq!(clear.condition(), WeatherCondition::Clear);
        assert_eq!(clear.speed_factor(), 1.0);
        let rain = WeatherSample {
            rain_mmh: 6.0,
            ..clear
        };
        assert_eq!(rain.condition(), WeatherCondition::HeavyRain);
        let snow = WeatherSample {
            temp_c: -2.0,
            snow_mmh: 3.0,
            ..clear
        };
        assert_eq!(snow.condition(), WeatherCondition::HeavySnow);
        let fog = WeatherSample {
            visibility_m: 100.0,
            ..clear
        };
        assert_eq!(fog.condition(), WeatherCondition::Fog);
        assert!(fog.speed_factor() < snow.speed_factor());
    }
}
