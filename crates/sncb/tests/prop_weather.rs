//! The lazy weather classification against the full sample.
//!
//! `WeatherField::condition_at` (behind the `WeatherProvider` Q4 reads)
//! evaluates only the noise channels its classification needs: the fog
//! channel only in fog hours (`day_frac < 0.4`), temperature only when
//! precipitation exceeds 1 mm/h. Its speed factor must equal
//! `sample(..).speed_factor()` bit for bit — at arbitrary and
//! non-finite positions, on both sides of the fog-hour boundary and of
//! the wet threshold, and at every event of a simulated fleet.

use meos::geo::Point;
use meos::time::TimestampTz;
use nebulameos::WeatherProvider;
use proptest::prelude::*;
use sncb::{FleetConfig, FleetSimulator, WeatherCondition, WeatherField};

const DAY_US: i64 = 24 * 3_600 * 1_000_000;
/// About 2025-01-01, in microseconds since the Unix epoch.
const Y2025_US: i64 = 55 * 365 * DAY_US;

/// The lazy factor and the full sample's, as bit patterns.
fn factors(f: &WeatherField, p: Point, t: i64) -> (u64, u64) {
    let lazy = WeatherProvider::speed_factor(f, p, t);
    let full = f.sample(&p, TimestampTz::from_micros(t)).speed_factor();
    (lazy.to_bits(), full.to_bits())
}

/// A coordinate: mostly around Belgium, sometimes anywhere on or off
/// the globe, sometimes NaN or infinite.
fn coord() -> impl Strategy<Value = f64> {
    (0u8..10, -400.0f64..400.0, 2.0f64..7.0).prop_map(|(k, wide, near)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 | 4 => wide,
        _ => near,
    })
}

/// A timestamp within ten minutes of a fog-hour boundary of some day
/// (`day_frac` 0 and 0.4), or anywhere in five years around 2025.
fn instant() -> impl Strategy<Value = i64> {
    (
        0u8..3,
        -1_000i64..1_000,
        -600_000_000i64..600_000_000,
        0i64..5 * 365 * DAY_US,
    )
        .prop_map(|(k, day, near, anywhere)| match k {
            0 => Y2025_US + day * DAY_US + near,
            1 => Y2025_US + day * DAY_US + DAY_US * 2 / 5 + near,
            _ => Y2025_US - 2 * 365 * DAY_US + anywhere,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]
    #[test]
    fn lazy_factor_equals_sampled(seed in 0u64..1_000, x in coord(), y in coord(), t in instant()) {
        let f = WeatherField::new(seed);
        let (lazy, full) = factors(&f, Point::new(x, y), t);
        prop_assert_eq!(lazy, full);
    }
}

/// A deterministic sweep that reaches every classification, both sides
/// of the wet threshold and both sides of the fog-hour boundary, so
/// every branch of the lazy path is checked against the sample.
#[test]
fn every_condition_and_threshold_side_is_reached() {
    let f = WeatherField::new(7);
    let mut seen = [false; 4];
    let (mut dry, mut wet, mut fog_hours, mut day_hours) = (0, 0, 0, 0);
    for i in 0..200_000i64 {
        let p = Point::new(2.0 + (i % 97) as f64 * 0.05, 49.5 + (i % 89) as f64 * 0.03);
        let t = Y2025_US + i * 997 * 60_000_000;
        let at = TimestampTz::from_micros(t);
        let (lazy, full) = factors(&f, p, t);
        assert_eq!(lazy, full, "{p:?} at {t}");
        seen[match f.condition_at(&p, at) {
            WeatherCondition::Clear => 0,
            WeatherCondition::HeavyRain => 1,
            WeatherCondition::HeavySnow => 2,
            WeatherCondition::Fog => 3,
        }] = true;
        let s = f.sample(&p, at);
        if s.rain_mmh + s.snow_mmh > 1.0 {
            wet += 1;
        } else {
            dry += 1;
        }
        if (t.rem_euclid(DAY_US) as f64 / DAY_US as f64) < 0.4 {
            fog_hours += 1;
        } else {
            day_hours += 1;
        }
    }
    assert_eq!(seen, [true; 4], "conditions seen");
    assert!(wet > 0 && dry > 0, "wet {wet} dry {dry}");
    assert!(fog_hours > 0 && day_hours > 0);
}

#[test]
fn lazy_factor_equals_sampled_on_every_fleet_event() {
    let sim = FleetSimulator::new(FleetConfig::test_minutes(10));
    let field = sim.weather().clone();
    let readings = sim.into_readings();
    assert_eq!(readings.len(), 6 * 600);
    let mismatches = readings
        .iter()
        .filter(|r| {
            let (lazy, full) = factors(&field, r.pos, r.t.micros());
            lazy != full
        })
        .count();
    assert_eq!(mismatches, 0);
}
