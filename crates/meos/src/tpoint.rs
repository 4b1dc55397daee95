//! Temporal-point operations: the spatiotemporal half of MEOS.
//!
//! Free functions over `TSequence<Point>` / [`Temporal<Point>`]:
//! trajectory accessors (length, speed, azimuth, centroid), restriction
//! (`at_stbox` ≙ MEOS `tpoint_at_stbox`, `at_geometry`), the distance
//! family (`nearest_approach_distance`, `edwithin` ≙ MEOS `edwithin`,
//! `adwithin`, `tdwithin`), stop detection and Douglas–Peucker
//! simplification.
//!
//! ### Exactness notes
//! - `at_stbox` clips linear segments with Liang–Barsky: entry/exit
//!   instants are exact up to timestamp (µs) rounding.
//! - `edwithin` against static geometries is exact: the *ever within
//!   distance* predicate only depends on the spatial trajectory.
//! - `adwithin` and `tdwithin` against non-convex polygons are
//!   approximate between inserted candidate instants (distance to a
//!   non-convex set along a line is piecewise smooth); candidates include
//!   all crossings and per-edge closest approaches, which bounds the error
//!   tightly for rail-scale data.

use crate::boxes::STBox;
use crate::error::Result;
use crate::geo::{segment_intersection_params, Geometry, LineString, Metric, Point};
use crate::temporal::{Interp, TInstant, TSequence, Temporal};
use crate::time::{Period, PeriodSet, TimeDelta, TimestampTz};

/// The purely spatial trace of the sequence.
pub fn trajectory(seq: &TSequence<Point>) -> LineString {
    LineString::new(seq.values().copied().collect())
}

/// Trajectory length under `metric` (metres for haversine).
pub fn length(seq: &TSequence<Point>) -> f64 {
    length_with(seq, Metric::Haversine)
}

/// Trajectory length under an explicit metric.
pub fn length_with(seq: &TSequence<Point>, metric: Metric) -> f64 {
    if seq.interp() == Interp::Discrete {
        return 0.0;
    }
    seq.segments()
        .map(|(a, b)| metric.distance(&a.value, &b.value))
        .sum()
}

/// Speed as a step temporal float (metric units per second, one value per
/// segment). `None` for instants/discrete sequences.
pub fn speed(seq: &TSequence<Point>, metric: Metric) -> Option<TSequence<f64>> {
    if seq.num_instants() < 2 || seq.interp() == Interp::Discrete {
        return None;
    }
    let mut out = Vec::with_capacity(seq.num_instants());
    let mut last = 0.0;
    for (a, b) in seq.segments() {
        let dt = (b.t - a.t).as_secs_f64();
        last = if dt > 0.0 {
            metric.distance(&a.value, &b.value) / dt
        } else {
            0.0
        };
        out.push(TInstant::new(last, a.t));
    }
    out.push(TInstant::new(last, seq.end_timestamp()));
    Some(
        TSequence::new(out, seq.lower_inc(), seq.upper_inc(), Interp::Step)
            .expect("speed sequence valid"),
    )
}

/// Heading in degrees clockwise from north, per segment (step). `None`
/// for instants/discrete sequences.
pub fn azimuth(seq: &TSequence<Point>) -> Option<TSequence<f64>> {
    if seq.num_instants() < 2 || seq.interp() == Interp::Discrete {
        return None;
    }
    let mut out = Vec::with_capacity(seq.num_instants());
    let mut last = 0.0;
    for (a, b) in seq.segments() {
        last = bearing(&a.value, &b.value);
        out.push(TInstant::new(last, a.t));
    }
    out.push(TInstant::new(last, seq.end_timestamp()));
    Some(
        TSequence::new(out, seq.lower_inc(), seq.upper_inc(), Interp::Step)
            .expect("azimuth sequence valid"),
    )
}

/// Initial bearing from `a` to `b` in degrees `[0, 360)`, clockwise from
/// north (planar approximation, adequate at rail scales).
pub fn bearing(a: &Point, b: &Point) -> f64 {
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let deg = dx.atan2(dy).to_degrees();
    (deg + 360.0) % 360.0
}

/// Time-weighted centroid of the trajectory.
pub fn twcentroid(seq: &TSequence<Point>) -> Point {
    let n = seq.num_instants();
    if n == 1 || seq.duration().is_zero() {
        let (mut sx, mut sy) = (0.0, 0.0);
        for p in seq.values() {
            sx += p.x;
            sy += p.y;
        }
        return Point::new(sx / n as f64, sy / n as f64);
    }
    let mut ix = 0.0;
    let mut iy = 0.0;
    for (a, b) in seq.segments() {
        let dt = (b.t - a.t).as_secs_f64();
        match seq.interp() {
            Interp::Linear => {
                ix += (a.value.x + b.value.x) * 0.5 * dt;
                iy += (a.value.y + b.value.y) * 0.5 * dt;
            }
            _ => {
                ix += a.value.x * dt;
                iy += a.value.y * dt;
            }
        }
    }
    let total = seq.duration().as_secs_f64();
    Point::new(ix / total, iy / total)
}

/// Liang–Barsky clip of the unit parameter interval of segment `a`→`b`
/// against the spatial extent of `bx`.
fn clip_params(a: &Point, b: &Point, bx: &STBox) -> Option<(f64, f64)> {
    let (mut u0, mut u1) = (0.0f64, 1.0f64);
    let dx = b.x - a.x;
    let dy = b.y - a.y;
    let checks = [
        (-dx, a.x - bx.xmin()),
        (dx, bx.xmax() - a.x),
        (-dy, a.y - bx.ymin()),
        (dy, bx.ymax() - a.y),
    ];
    for (p, q) in checks {
        if p.abs() < 1e-30 {
            if q < 0.0 {
                return None;
            }
        } else {
            let r = q / p;
            if p < 0.0 {
                u0 = u0.max(r);
            } else {
                u1 = u1.min(r);
            }
        }
    }
    (u0 <= u1).then_some((u0, u1))
}

fn lerp_time(t0: TimestampTz, t1: TimestampTz, frac: f64) -> TimestampTz {
    let dt = (t1 - t0).micros() as f64;
    TimestampTz::from_micros(t0.micros() + (frac * dt).round() as i64)
}

/// Merges absolute-time inside-intervals and restricts the sequence to
/// each; shared by `at_stbox` / `at_geometry`.
fn restrict_to_intervals(
    seq: &TSequence<Point>,
    mut intervals: Vec<(TimestampTz, TimestampTz)>,
) -> Vec<TSequence<Point>> {
    if intervals.is_empty() {
        return Vec::new();
    }
    intervals.sort_by_key(|&(s, _)| s);
    let mut merged: Vec<(TimestampTz, TimestampTz)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
        .into_iter()
        .filter_map(|(s, e)| {
            let p = Period::inclusive(s, e).ok()?;
            seq.at_period(&p)
        })
        .collect()
}

/// Restricts a temporal point to a spatiotemporal box
/// (MEOS `tpoint_at_stbox`). Returns the surviving pieces in time order.
pub fn at_stbox(seq: &TSequence<Point>, bx: &STBox) -> Vec<TSequence<Point>> {
    // Time dimension first.
    let seq_owned;
    let seq = match &bx.t {
        Some(p) => match seq.at_period(p) {
            Some(s) => {
                seq_owned = s;
                &seq_owned
            }
            None => return Vec::new(),
        },
        None => seq,
    };

    match seq.interp() {
        Interp::Discrete => {
            let kept: Vec<_> = seq
                .instants()
                .iter()
                .filter(|i| bx.contains_point(&i.value))
                .cloned()
                .collect();
            if kept.is_empty() {
                Vec::new()
            } else {
                vec![TSequence::discrete(kept).expect("discrete restriction")]
            }
        }
        Interp::Step => {
            let mut intervals = Vec::new();
            for (a, b) in seq.segments() {
                if bx.contains_point(&a.value) {
                    intervals.push((a.t, b.t));
                }
            }
            if bx.contains_point(&seq.end_value()) {
                let t = seq.end_timestamp();
                intervals.push((t, t));
            }
            restrict_to_intervals(seq, intervals)
        }
        Interp::Linear => {
            if seq.num_instants() == 1 {
                return if bx.contains_point(&seq.start_value()) {
                    vec![seq.clone()]
                } else {
                    Vec::new()
                };
            }
            let mut intervals = Vec::new();
            for (a, b) in seq.segments() {
                if let Some((u0, u1)) = clip_params(&a.value, &b.value, bx) {
                    intervals.push((lerp_time(a.t, b.t, u0), lerp_time(a.t, b.t, u1)));
                }
            }
            restrict_to_intervals(seq, intervals)
        }
    }
}

/// Sorted candidate cut fractions of segment `a`→`b` against a polygon
/// boundary (or line), including 0 and 1.
fn polygon_cuts(a: &Point, b: &Point, edges: impl Iterator<Item = (Point, Point)>) -> Vec<f64> {
    let mut cuts = vec![0.0, 1.0];
    for (e0, e1) in edges {
        if let Some((t, _)) = segment_intersection_params(a, b, &e0, &e1) {
            cuts.push(t);
        }
    }
    cuts.sort_by(|x, y| x.partial_cmp(y).expect("finite fractions"));
    cuts.dedup_by(|x, y| (*x - *y).abs() < 1e-12);
    cuts
}

fn geometry_edges(geom: &Geometry) -> Vec<(Point, Point)> {
    match geom {
        Geometry::Polygon(poly) => poly.edges().map(|(a, b)| (*a, *b)).collect(),
        Geometry::Line(l) => l.points.windows(2).map(|w| (w[0], w[1])).collect(),
        _ => Vec::new(),
    }
}

/// Restricts a temporal point to a geometry. Polygons and circles yield
/// the sub-sequences travelled inside; points/lines (measure-zero targets)
/// yield the crossing instants as singleton sequences.
pub fn at_geometry(
    seq: &TSequence<Point>,
    geom: &Geometry,
    metric: Metric,
) -> Vec<TSequence<Point>> {
    match seq.interp() {
        Interp::Discrete => {
            let kept: Vec<_> = seq
                .instants()
                .iter()
                .filter(|i| geom.contains(&i.value, metric))
                .cloned()
                .collect();
            return if kept.is_empty() {
                Vec::new()
            } else {
                vec![TSequence::discrete(kept).expect("discrete restriction")]
            };
        }
        Interp::Step => {
            let mut intervals = Vec::new();
            for (a, b) in seq.segments() {
                if geom.contains(&a.value, metric) {
                    intervals.push((a.t, b.t));
                }
            }
            if geom.contains(&seq.end_value(), metric) {
                let t = seq.end_timestamp();
                intervals.push((t, t));
            }
            return restrict_to_intervals(seq, intervals);
        }
        Interp::Linear => {}
    }
    if seq.num_instants() == 1 {
        return if geom.contains(&seq.start_value(), metric) {
            vec![seq.clone()]
        } else {
            Vec::new()
        };
    }
    let mut intervals: Vec<(TimestampTz, TimestampTz)> = Vec::new();
    match geom {
        Geometry::Polygon(_) | Geometry::Line(_) => {
            let edges = geometry_edges(geom);
            for (a, b) in seq.segments() {
                let cuts = polygon_cuts(&a.value, &b.value, edges.iter().copied());
                for w in cuts.windows(2) {
                    let mid = a.value.lerp(&b.value, (w[0] + w[1]) / 2.0);
                    if geom.contains(&mid, metric) {
                        intervals.push((lerp_time(a.t, b.t, w[0]), lerp_time(a.t, b.t, w[1])));
                    }
                }
                if matches!(geom, Geometry::Line(_)) {
                    // Measure-zero target: crossing instants only.
                    for &c in &cuts[1..cuts.len().saturating_sub(1)] {
                        let tc = lerp_time(a.t, b.t, c);
                        intervals.push((tc, tc));
                    }
                }
            }
        }
        Geometry::Circle { center, radius } => {
            for (a, b) in seq.segments() {
                if let Some((u0, u1)) = circle_clip(&a.value, &b.value, center, *radius, metric) {
                    intervals.push((lerp_time(a.t, b.t, u0), lerp_time(a.t, b.t, u1)));
                }
            }
        }
        Geometry::Point(target) => {
            for (a, b) in seq.segments() {
                let u = metric.closest_point_param(target, &a.value, &b.value);
                let closest = a.value.lerp(&b.value, u);
                if metric.distance(&closest, target) < 1e-9 {
                    let tc = lerp_time(a.t, b.t, u);
                    intervals.push((tc, tc));
                }
            }
        }
    }
    restrict_to_intervals(seq, intervals)
}

/// Parameter interval of segment `a`→`b` inside the circle, in the local
/// planar frame of the circle centre.
fn circle_clip(
    a: &Point,
    b: &Point,
    center: &Point,
    radius: f64,
    metric: Metric,
) -> Option<(f64, f64)> {
    let al = metric.to_local(center, a);
    let bl = metric.to_local(center, b);
    let d = Point::new(bl.x - al.x, bl.y - al.y);
    let qa = d.x * d.x + d.y * d.y;
    let qb = 2.0 * (al.x * d.x + al.y * d.y);
    let qc = al.x * al.x + al.y * al.y - radius * radius;
    if qa < 1e-30 {
        // Stationary segment.
        return (qc <= 0.0).then_some((0.0, 1.0));
    }
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return None;
    }
    let sq = disc.sqrt();
    let u0 = ((-qb - sq) / (2.0 * qa)).max(0.0);
    let u1 = ((-qb + sq) / (2.0 * qa)).min(1.0);
    (u0 <= u1).then_some((u0, u1))
}

/// Temporal distance to a static geometry: a linear temporal float with
/// instants at the sequence vertices plus closest-approach/crossing
/// candidates per segment.
pub fn distance_to_geometry(
    seq: &TSequence<Point>,
    geom: &Geometry,
    metric: Metric,
) -> TSequence<f64> {
    let mut samples: Vec<TInstant<f64>> = Vec::with_capacity(seq.num_instants() * 2);
    let dist = |p: &Point| geom.distance_to_point(p, metric);
    samples.push(TInstant::new(
        dist(&seq.start_value()),
        seq.start_timestamp(),
    ));
    if seq.interp() != Interp::Discrete {
        for (a, b) in seq.segments() {
            let mut fracs: Vec<f64> = Vec::new();
            match geom {
                Geometry::Point(target) => {
                    fracs.push(metric.closest_point_param(target, &a.value, &b.value));
                }
                Geometry::Circle { center, .. } => {
                    fracs.push(metric.closest_point_param(center, &a.value, &b.value));
                }
                Geometry::Polygon(_) | Geometry::Line(_) => {
                    for (e0, e1) in geometry_edges(geom) {
                        if let Some((t, _)) =
                            segment_intersection_params(&a.value, &b.value, &e0, &e1)
                        {
                            fracs.push(t);
                        }
                        fracs.push(metric.closest_point_param(&e0, &a.value, &b.value));
                        fracs.push(metric.closest_point_param(&e1, &a.value, &b.value));
                    }
                }
            }
            fracs.retain(|f| *f > 1e-9 && *f < 1.0 - 1e-9);
            fracs.sort_by(|x, y| x.partial_cmp(y).expect("finite"));
            fracs.dedup_by(|x, y| (*x - *y).abs() < 1e-9);
            for f in fracs {
                let p = a.value.lerp(&b.value, f);
                samples.push(TInstant::new(dist(&p), lerp_time(a.t, b.t, f)));
            }
            samples.push(TInstant::new(dist(&b.value), b.t));
        }
    }
    samples.dedup_by(|x, y| x.t == y.t);
    let interp = if seq.interp() == Interp::Discrete {
        Interp::Discrete
    } else {
        Interp::Linear
    };
    TSequence::new(samples, seq.lower_inc(), seq.upper_inc(), interp)
        .expect("distance sequence valid")
}

/// Smallest distance ever attained between the moving point and a static
/// geometry (MEOS `nearestApproachDistance`). Exact.
pub fn nearest_approach_distance(seq: &TSequence<Point>, geom: &Geometry, metric: Metric) -> f64 {
    if seq.num_instants() == 1 || seq.interp() == Interp::Discrete {
        return seq
            .values()
            .map(|p| geom.distance_to_point(p, metric))
            .fold(f64::INFINITY, f64::min);
    }
    let mut best = f64::INFINITY;
    for (a, b) in seq.segments() {
        let d = match geom {
            Geometry::Point(target) => metric.dist_point_segment(target, &a.value, &b.value),
            Geometry::Circle { center, radius } => {
                (metric.dist_point_segment(center, &a.value, &b.value) - radius).max(0.0)
            }
            Geometry::Polygon(poly) => {
                if poly.contains(&a.value) || poly.contains(&b.value) {
                    0.0
                } else {
                    geometry_edges(geom)
                        .iter()
                        .map(|(e0, e1)| metric.dist_segment_segment(&a.value, &b.value, e0, e1))
                        .fold(f64::INFINITY, f64::min)
                }
            }
            Geometry::Line(_) => geometry_edges(geom)
                .iter()
                .map(|(e0, e1)| metric.dist_segment_segment(&a.value, &b.value, e0, e1))
                .fold(f64::INFINITY, f64::min),
        };
        best = best.min(d);
        if best == 0.0 {
            break;
        }
    }
    best
}

/// MEOS `edwithin`: true iff the moving point is *ever* within distance
/// `d` of the geometry. Exact for static targets.
pub fn edwithin(seq: &TSequence<Point>, geom: &Geometry, d: f64, metric: Metric) -> bool {
    nearest_approach_distance(seq, geom, metric) <= d
}

/// MEOS `adwithin`: true iff the moving point is *always* within distance
/// `d`. Exact for point/circle targets (distance along a segment is
/// convex, maxima at vertices); for polygons/lines midpoints are sampled
/// as a non-convexity guard.
pub fn adwithin(seq: &TSequence<Point>, geom: &Geometry, d: f64, metric: Metric) -> bool {
    let within = |p: &Point| geom.distance_to_point(p, metric) <= d;
    if !seq.values().all(&within) {
        return false;
    }
    if matches!(geom, Geometry::Polygon(_) | Geometry::Line(_)) && seq.interp() == Interp::Linear {
        for (a, b) in seq.segments() {
            let mid = a.value.lerp(&b.value, 0.5);
            if !within(&mid) {
                return false;
            }
        }
    }
    true
}

/// Periods during which the moving point is within distance `d` of the
/// geometry (temporal `tdwithin` collapsed to its true periods).
pub fn tdwithin(seq: &TSequence<Point>, geom: &Geometry, d: f64, metric: Metric) -> PeriodSet {
    distance_to_geometry(seq, geom, metric).at_below(d)
}

/// Detects stops: maximal sub-sequences whose speed stays `<=
/// max_speed_ms` for at least `min_duration`.
pub fn detect_stops(
    seq: &TSequence<Point>,
    max_speed_ms: f64,
    min_duration: TimeDelta,
    metric: Metric,
) -> Vec<TSequence<Point>> {
    let Some(sp) = speed(seq, metric) else {
        return Vec::new();
    };
    sp.at_below(max_speed_ms)
        .spans()
        .iter()
        .filter(|p| p.duration() >= min_duration)
        .filter_map(|p| seq.at_period(p))
        .collect()
}

/// Douglas–Peucker simplification with a spatial tolerance (metric units).
pub fn simplify_dp(seq: &TSequence<Point>, tolerance: f64, metric: Metric) -> TSequence<Point> {
    let pts = seq.instants();
    if pts.len() <= 2 {
        return seq.clone();
    }
    let mut keep = vec![false; pts.len()];
    keep[0] = true;
    keep[pts.len() - 1] = true;
    let mut stack = vec![(0usize, pts.len() - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi <= lo + 1 {
            continue;
        }
        let (mut worst, mut worst_d) = (lo, -1.0f64);
        for i in lo + 1..hi {
            let d = metric.dist_point_segment(&pts[i].value, &pts[lo].value, &pts[hi].value);
            if d > worst_d {
                worst_d = d;
                worst = i;
            }
        }
        if worst_d > tolerance {
            keep[worst] = true;
            stack.push((lo, worst));
            stack.push((worst, hi));
        }
    }
    let kept: Vec<TInstant<Point>> = pts
        .iter()
        .zip(keep.iter())
        .filter(|(_, k)| **k)
        .map(|(i, _)| i.clone())
        .collect();
    TSequence::new(kept, seq.lower_inc(), seq.upper_inc(), seq.interp())
        .expect("simplified sequence valid")
}

// ---------------------------------------------------------------------------
// Temporal<Point> wrappers
// ---------------------------------------------------------------------------

/// Total trajectory length of a temporal point at any granularity.
pub fn temporal_length(tp: &Temporal<Point>, metric: Metric) -> f64 {
    tp.to_sequences()
        .iter()
        .map(|s| length_with(s, metric))
        .sum()
}

/// `tpoint_at_stbox` over any granularity; `None` when nothing survives.
pub fn temporal_at_stbox(tp: &Temporal<Point>, bx: &STBox) -> Option<Temporal<Point>> {
    let pieces: Vec<TSequence<Point>> = tp
        .to_sequences()
        .iter()
        .flat_map(|s| at_stbox(s, bx))
        .collect();
    build_temporal(pieces)
}

/// `at_geometry` over any granularity.
pub fn temporal_at_geometry(
    tp: &Temporal<Point>,
    geom: &Geometry,
    metric: Metric,
) -> Option<Temporal<Point>> {
    let pieces: Vec<TSequence<Point>> = tp
        .to_sequences()
        .iter()
        .flat_map(|s| at_geometry(s, geom, metric))
        .collect();
    build_temporal(pieces)
}

/// `edwithin` over any granularity.
pub fn temporal_edwithin(tp: &Temporal<Point>, geom: &Geometry, d: f64, metric: Metric) -> bool {
    tp.to_sequences()
        .iter()
        .any(|s| edwithin(s, geom, d, metric))
}

/// Nearest approach over any granularity.
pub fn temporal_nad(tp: &Temporal<Point>, geom: &Geometry, metric: Metric) -> f64 {
    tp.to_sequences()
        .iter()
        .map(|s| nearest_approach_distance(s, geom, metric))
        .fold(f64::INFINITY, f64::min)
}

fn build_temporal(pieces: Vec<TSequence<Point>>) -> Option<Temporal<Point>> {
    if pieces.is_empty() {
        return None;
    }
    let merged: Result<Temporal<Point>> = Temporal::from_sequences(pieces);
    merged.ok()
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn trajectory_and_length() {
        let s = pseq(&[(0.0, 0.0, 0), (3.0, 0.0, 10), (3.0, 4.0, 20)]);
        assert_eq!(trajectory(&s).len(), 3);
        assert_eq!(length_with(&s, Metric::Euclidean), 7.0);
    }

    #[test]
    fn speed_step_per_segment() {
        let s = pseq(&[(0.0, 0.0, 0), (10.0, 0.0, 10), (10.0, 0.0, 20)]);
        let sp = speed(&s, Metric::Euclidean).unwrap();
        assert_eq!(sp.value_at(t(5)), Some(1.0));
        assert_eq!(sp.value_at(t(15)), Some(0.0));
        assert!(speed(&pseq(&[(0.0, 0.0, 0)]), Metric::Euclidean).is_none());
    }

    #[test]
    fn azimuth_quadrants() {
        assert_eq!(bearing(&Point::new(0.0, 0.0), &Point::new(0.0, 1.0)), 0.0);
        assert_eq!(bearing(&Point::new(0.0, 0.0), &Point::new(1.0, 0.0)), 90.0);
        assert_eq!(
            bearing(&Point::new(0.0, 0.0), &Point::new(0.0, -1.0)),
            180.0
        );
        assert_eq!(
            bearing(&Point::new(0.0, 0.0), &Point::new(-1.0, 0.0)),
            270.0
        );
        let s = pseq(&[(0.0, 0.0, 0), (1.0, 0.0, 10), (1.0, 1.0, 20)]);
        let az = azimuth(&s).unwrap();
        assert_eq!(az.value_at(t(5)), Some(90.0));
        assert_eq!(az.value_at(t(15)), Some(0.0));
    }

    #[test]
    fn twcentroid_weighted() {
        // Spends 10s moving 0->10 on x, then 30s parked at x=10.
        let s = pseq(&[(0.0, 0.0, 0), (10.0, 0.0, 10), (10.0, 0.0, 40)]);
        let c = twcentroid(&s);
        // (5*10 + 10*30)/40 = 8.75
        assert!((c.x - 8.75).abs() < 1e-9);
        assert_eq!(c.y, 0.0);
    }

    #[test]
    fn at_stbox_clips_segments() {
        let s = pseq(&[(0.0, 0.0, 0), (10.0, 0.0, 10)]);
        let bx = STBox::from_coords(2.0, 6.0, -1.0, 1.0, None).unwrap();
        let pieces = at_stbox(&s, &bx);
        assert_eq!(pieces.len(), 1);
        let p = &pieces[0];
        assert_eq!(p.start_timestamp(), t(2));
        assert_eq!(p.end_timestamp(), t(6));
        assert!((p.start_value().x - 2.0).abs() < 1e-6);
        assert!((p.end_value().x - 6.0).abs() < 1e-6);
    }

    #[test]
    fn at_stbox_multiple_entries() {
        // Zig-zag crossing the box y∈[-1,1] twice.
        let s = pseq(&[(0.0, -5.0, 0), (0.0, 5.0, 10), (0.0, -5.0, 20)]);
        let bx = STBox::from_coords(-1.0, 1.0, -1.0, 1.0, None).unwrap();
        let pieces = at_stbox(&s, &bx);
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].start_timestamp(), t(4));
        assert_eq!(pieces[0].end_timestamp(), t(6));
        assert_eq!(pieces[1].start_timestamp(), t(14));
        assert_eq!(pieces[1].end_timestamp(), t(16));
    }

    #[test]
    fn at_stbox_respects_time_dimension() {
        let s = pseq(&[(0.0, 0.0, 0), (10.0, 0.0, 10)]);
        let bx = STBox::from_coords(
            0.0,
            10.0,
            -1.0,
            1.0,
            Some(Period::inclusive(t(3), t(5)).unwrap()),
        )
        .unwrap();
        let pieces = at_stbox(&s, &bx);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].start_timestamp(), t(3));
        assert_eq!(pieces[0].end_timestamp(), t(5));
        // Disjoint time.
        let bx2 = STBox::from_coords(
            0.0,
            10.0,
            -1.0,
            1.0,
            Some(Period::inclusive(t(100), t(200)).unwrap()),
        )
        .unwrap();
        assert!(at_stbox(&s, &bx2).is_empty());
    }

    #[test]
    fn at_stbox_fully_inside_and_outside() {
        let s = pseq(&[(0.0, 0.0, 0), (1.0, 1.0, 10)]);
        let big = STBox::from_coords(-10.0, 10.0, -10.0, 10.0, None).unwrap();
        let pieces = at_stbox(&s, &big);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].num_instants(), 2);
        let far = STBox::from_coords(100.0, 110.0, 100.0, 110.0, None).unwrap();
        assert!(at_stbox(&s, &far).is_empty());
    }

    #[test]
    fn at_geometry_polygon() {
        let s = pseq(&[(-5.0, 0.5, 0), (5.0, 0.5, 10)]);
        let poly = Geometry::Polygon(crate::geo::Polygon::rect(-1.0, 0.0, 1.0, 1.0));
        let pieces = at_geometry(&s, &poly, Metric::Euclidean);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].start_timestamp(), t(4));
        assert_eq!(pieces[0].end_timestamp(), t(6));
    }

    #[test]
    fn at_geometry_circle() {
        let s = pseq(&[(-10.0, 0.0, 0), (10.0, 0.0, 20)]);
        let c = Geometry::Circle {
            center: Point::new(0.0, 0.0),
            radius: 5.0,
        };
        let pieces = at_geometry(&s, &c, Metric::Euclidean);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].start_timestamp(), t(5));
        assert_eq!(pieces[0].end_timestamp(), t(15));
    }

    #[test]
    fn distance_to_point_has_turning_point() {
        let s = pseq(&[(-10.0, 3.0, 0), (10.0, 3.0, 20)]);
        let g = Geometry::Point(Point::new(0.0, 0.0));
        let d = distance_to_geometry(&s, &g, Metric::Euclidean);
        // Closest approach at t=10, distance 3.
        let min = d.min_value();
        assert!((min - 3.0).abs() < 1e-9, "got {min}");
        assert_eq!(d.value_at(t(10)), Some(3.0));
    }

    #[test]
    fn nad_and_edwithin() {
        let s = pseq(&[(-10.0, 3.0, 0), (10.0, 3.0, 20)]);
        let g = Geometry::Point(Point::new(0.0, 0.0));
        let nad = nearest_approach_distance(&s, &g, Metric::Euclidean);
        assert!((nad - 3.0).abs() < 1e-12);
        assert!(edwithin(&s, &g, 3.0, Metric::Euclidean));
        assert!(!edwithin(&s, &g, 2.9, Metric::Euclidean));
        // Vertices alone would give sqrt(109) ≈ 10.44 — the segment
        // interior matters.
        assert!(edwithin(&s, &g, 3.5, Metric::Euclidean));
    }

    #[test]
    fn adwithin_checks_whole_path() {
        let s = pseq(&[(0.0, 1.0, 0), (10.0, 1.0, 10)]);
        let g = Geometry::Point(Point::new(5.0, 1.0));
        assert!(adwithin(&s, &g, 5.0, Metric::Euclidean));
        assert!(!adwithin(&s, &g, 4.0, Metric::Euclidean));
    }

    #[test]
    fn tdwithin_periods() {
        let s = pseq(&[(-10.0, 0.0, 0), (10.0, 0.0, 20)]);
        let g = Geometry::Point(Point::new(0.0, 0.0));
        let ps = tdwithin(&s, &g, 5.0, Metric::Euclidean);
        assert_eq!(ps.num_spans(), 1);
        let p = ps.spans()[0];
        assert_eq!(p.lower(), t(5));
        assert_eq!(p.upper(), t(15));
    }

    #[test]
    fn detect_stops_finds_dwell() {
        let s = pseq(&[
            (0.0, 0.0, 0),
            (100.0, 0.0, 10),  // 10 u/s
            (100.5, 0.0, 110), // 0.005 u/s for 100 s (stop)
            (200.0, 0.0, 120), // fast again
        ]);
        let stops = detect_stops(&s, 0.1, TimeDelta::from_secs(60), Metric::Euclidean);
        assert_eq!(stops.len(), 1);
        assert_eq!(stops[0].start_timestamp(), t(10));
        assert_eq!(stops[0].end_timestamp(), t(110));
    }

    #[test]
    fn simplify_dp_reduces_collinear() {
        let s = pseq(&[
            (0.0, 0.0, 0),
            (1.0, 0.001, 1),
            (2.0, -0.001, 2),
            (3.0, 0.0, 3),
            (3.0, 5.0, 4),
        ]);
        let simplified = simplify_dp(&s, 0.01, Metric::Euclidean);
        assert_eq!(simplified.num_instants(), 3);
        assert_eq!(simplified.end_value().y, 5.0);
        // Tolerance 0 keeps everything.
        assert_eq!(simplify_dp(&s, 0.0, Metric::Euclidean).num_instants(), 5);
    }

    #[test]
    fn temporal_wrappers() {
        let s = pseq(&[(0.0, 0.0, 0), (10.0, 0.0, 10)]);
        let tp: Temporal<Point> = s.into();
        assert_eq!(temporal_length(&tp, Metric::Euclidean), 10.0);
        let bx = STBox::from_coords(2.0, 4.0, -1.0, 1.0, None).unwrap();
        let inside = temporal_at_stbox(&tp, &bx).unwrap();
        assert_eq!(inside.period().duration(), TimeDelta::from_secs(2));
        let g = Geometry::Point(Point::new(5.0, 0.0));
        assert!(temporal_edwithin(&tp, &g, 0.1, Metric::Euclidean));
        assert_eq!(temporal_nad(&tp, &g, Metric::Euclidean), 0.0);
        let far = STBox::from_coords(50.0, 60.0, 50.0, 60.0, None).unwrap();
        assert!(temporal_at_stbox(&tp, &far).is_none());
    }
}
