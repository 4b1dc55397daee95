//! A synthetic Belgian rail network.
//!
//! Station coordinates approximate the real network (lon/lat degrees,
//! WGS84); track geometry between stations is synthesized
//! deterministically with gentle curvature so that curve-related zones
//! and speed limits have something to bite on. The proprietary SNCB
//! infrastructure data the paper uses is replaced by this generator — the
//! queries only need *consistent* geometry, zones and schedules.

use meos::geo::{Geometry, Metric, Point, Polygon};
use serde::{Deserialize, Serialize};

/// A station.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Station {
    /// Station name.
    pub name: String,
    /// Platform centroid (lon/lat).
    pub pos: Point,
}

/// Zone categories used by the demo queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ZoneKind {
    /// Track maintenance area (Q1 filters alerts inside these).
    Maintenance,
    /// Noise-sensitive neighbourhood (Q2 monitors these).
    NoiseSensitive,
    /// Sharp curve / high-risk segment with a reduced limit (Q3).
    HighRiskCurve,
    /// Station catchment (Q7: stops inside these are scheduled).
    StationArea,
    /// Rolling-stock workshop (Q5 locates the nearest one).
    Workshop,
}

/// A named geographic zone, optionally carrying a speed limit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Zone {
    /// Zone name.
    pub name: String,
    /// Category.
    pub kind: ZoneKind,
    /// Footprint.
    pub geometry: Geometry,
    /// Speed limit inside the zone (km/h), when applicable.
    pub speed_limit_kmh: Option<f64>,
}

/// A route: an ordered station list with synthesized track geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Route {
    /// Route name (e.g. "IC Brussels–Antwerp").
    pub name: String,
    /// Indices into [`RailNetwork::stations`].
    pub stations: Vec<usize>,
    /// Track polyline (lon/lat), densified between stations.
    pub track: Vec<Point>,
    /// Cumulative metres along `track` (same length).
    pub cum_m: Vec<f64>,
    /// Track positions (indices into `track`) of each station stop.
    pub station_track_idx: Vec<usize>,
    /// Line speed limit (km/h).
    pub line_limit_kmh: f64,
}

impl Route {
    /// Total route length in metres.
    pub fn length_m(&self) -> f64 {
        *self.cum_m.last().unwrap_or(&0.0)
    }

    /// Position and local heading at `m` metres along the track
    /// (clamped to the route ends).
    pub fn position_at(&self, m: f64) -> (Point, f64) {
        let m = m.clamp(0.0, self.length_m());
        let idx = self
            .cum_m
            .partition_point(|&c| c <= m)
            .clamp(1, self.track.len() - 1);
        let (c0, c1) = (self.cum_m[idx - 1], self.cum_m[idx]);
        let frac = if c1 > c0 { (m - c0) / (c1 - c0) } else { 0.0 };
        let p = self.track[idx - 1].lerp(&self.track[idx], frac);
        let heading = meos::tpoint::bearing(&self.track[idx - 1], &self.track[idx]);
        (p, heading)
    }

    /// Metres along the route of the `i`-th scheduled station.
    pub fn station_m(&self, i: usize) -> f64 {
        self.cum_m[self.station_track_idx[i]]
    }
}

/// The rail network: stations, routes and query zones.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RailNetwork {
    /// All stations.
    pub stations: Vec<Station>,
    /// All routes.
    pub routes: Vec<Route>,
    /// All zones.
    pub zones: Vec<Zone>,
}

/// Approximate coordinates of major Belgian stations.
const STATIONS: &[(&str, f64, f64)] = &[
    ("Brussels-Midi", 4.3353, 50.8358),
    ("Brussels-Central", 4.3571, 50.8455),
    ("Brussels-North", 4.3604, 50.8603),
    ("Mechelen", 4.4826, 51.0178),
    ("Antwerp-Central", 4.4211, 51.2172),
    ("Leuven", 4.7159, 50.8812),
    ("Liège-Guillemins", 5.5674, 50.6244),
    ("Ghent-Sint-Pieters", 3.7105, 51.0362),
    ("Bruges", 3.2189, 51.1972),
    ("Ostend", 2.9253, 51.2283),
    ("Namur", 4.8622, 50.4686),
    ("Charleroi-Central", 4.4389, 50.4047),
    ("Hasselt", 5.3275, 50.9305),
    ("Tournai", 3.3967, 50.6130),
];

/// Route definitions: name, station indices, line limit (km/h).
const ROUTES: &[(&str, &[usize], f64)] = &[
    ("IC-05 Brussels–Antwerp", &[0, 1, 2, 3, 4], 160.0),
    ("IC-12 Brussels–Liège", &[0, 1, 2, 5, 6], 200.0),
    ("IC-20 Ostend–Brussels", &[9, 8, 7, 0], 160.0),
    ("IC-28 Antwerp–Charleroi", &[4, 3, 2, 1, 0, 11], 140.0),
    ("IC-31 Brussels–Hasselt", &[0, 1, 2, 5, 12], 140.0),
    ("IC-44 Ghent–Namur", &[7, 0, 1, 5, 10], 140.0),
];

/// Deterministic pseudo-random in [-1, 1] from an integer key (keeps the
/// generator dependency-free and stable across runs).
fn wiggle(key: u64) -> f64 {
    let mut x = key.wrapping_mul(0x9E3779B97F4A7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58476D1CE4E5B9);
    x ^= x >> 32;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

/// Densifies the leg between two stations with gentle, deterministic
/// curvature. Points are spaced roughly `step_m` apart.
fn densify_leg(a: &Point, b: &Point, leg_key: u64, step_m: f64) -> Vec<Point> {
    let dist = a.haversine(b);
    let n = ((dist / step_m).ceil() as usize).max(2);
    let mut pts = Vec::with_capacity(n);
    // Perpendicular unit vector in degree space (approximate).
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len = (dx * dx + dy * dy).sqrt().max(1e-12);
    let (px, py) = (-dy / len, dx / len);
    for i in 0..n {
        let t = i as f64 / (n - 1) as f64;
        let base = a.lerp(b, t);
        // Two superposed sine bows with leg-specific amplitude/phase.
        let amp1 = 0.004 * wiggle(leg_key);
        let amp2 = 0.002 * wiggle(leg_key ^ 0xABCD);
        let off = amp1 * (std::f64::consts::PI * t).sin()
            + amp2 * (2.0 * std::f64::consts::PI * t + wiggle(leg_key ^ 0x77)).sin();
        // Zero at endpoints so stations stay put.
        let envelope = (std::f64::consts::PI * t).sin();
        pts.push(Point::new(
            base.x + px * off * envelope,
            base.y + py * off * envelope,
        ));
    }
    pts
}

impl RailNetwork {
    /// Builds the standard demo network: 14 stations, 6 routes and the
    /// zone inventory every query relies on. Fully deterministic.
    pub fn belgium() -> Self {
        let stations: Vec<Station> = STATIONS
            .iter()
            .map(|(n, x, y)| Station {
                name: n.to_string(),
                pos: Point::new(*x, *y),
            })
            .collect();

        let mut routes = Vec::with_capacity(ROUTES.len());
        for (ri, (name, idxs, limit)) in ROUTES.iter().enumerate() {
            let mut track: Vec<Point> = Vec::new();
            let mut station_track_idx = Vec::with_capacity(idxs.len());
            for (li, w) in idxs.windows(2).enumerate() {
                let a = &stations[w[0]].pos;
                let b = &stations[w[1]].pos;
                let leg_key = (ri as u64) << 32 | li as u64;
                let leg = densify_leg(a, b, leg_key, 1_500.0);
                if track.is_empty() {
                    station_track_idx.push(0);
                    track.extend(leg);
                } else {
                    // Skip the duplicated joint point.
                    track.extend(leg.into_iter().skip(1));
                }
                station_track_idx.push(track.len() - 1);
            }
            let mut cum_m = Vec::with_capacity(track.len());
            let mut acc = 0.0;
            cum_m.push(0.0);
            for w in track.windows(2) {
                acc += w[0].haversine(&w[1]);
                cum_m.push(acc);
            }
            routes.push(Route {
                name: name.to_string(),
                stations: idxs.to_vec(),
                track,
                cum_m,
                station_track_idx,
                line_limit_kmh: *limit,
            });
        }

        let mut zones = Vec::new();
        // Station areas: 400 m catchment around every station.
        for s in &stations {
            zones.push(Zone {
                name: format!("station:{}", s.name),
                kind: ZoneKind::StationArea,
                geometry: Geometry::Circle {
                    center: s.pos,
                    radius: 400.0,
                },
                speed_limit_kmh: Some(40.0),
            });
        }
        // Workshops near four stations (slightly offset).
        for (si, dx, dy) in [
            (0usize, 0.012, -0.006),
            (4, -0.010, 0.008),
            (6, 0.008, 0.006),
            (7, -0.011, -0.007),
        ] {
            let p = stations[si].pos;
            zones.push(Zone {
                name: format!("workshop:{}", stations[si].name),
                kind: ZoneKind::Workshop,
                geometry: Geometry::Circle {
                    center: Point::new(p.x + dx, p.y + dy),
                    radius: 500.0,
                },
                speed_limit_kmh: Some(20.0),
            });
        }
        // Maintenance zones: rectangles over mid-leg sections of three
        // routes (deterministic picks).
        for (zi, (ri, frac)) in [(0usize, 0.45), (1, 0.6), (3, 0.3)].iter().enumerate() {
            let route = &routes[*ri];
            let (c, _) = route.position_at(route.length_m() * frac);
            zones.push(Zone {
                name: format!("maintenance-{zi}"),
                kind: ZoneKind::Maintenance,
                geometry: Geometry::Polygon(Polygon::rect(
                    c.x - 0.02,
                    c.y - 0.012,
                    c.x + 0.02,
                    c.y + 0.012,
                )),
                speed_limit_kmh: Some(60.0),
            });
        }
        // High-risk curves: where synthesized track curvature is highest.
        for (ri, route) in routes.iter().enumerate() {
            if let Some(c) = sharpest_curve(route) {
                zones.push(Zone {
                    name: format!("curve:{}", route.name),
                    kind: ZoneKind::HighRiskCurve,
                    geometry: Geometry::Circle {
                        center: c,
                        radius: 1_200.0,
                    },
                    speed_limit_kmh: Some(80.0 + 10.0 * (ri % 3) as f64),
                });
            }
        }
        // Noise-sensitive zones: dense neighbourhoods near three cities.
        for (si, r) in [(1usize, 1_500.0), (4, 1_800.0), (7, 1_500.0)] {
            zones.push(Zone {
                name: format!("quiet:{}", stations[si].name),
                kind: ZoneKind::NoiseSensitive,
                geometry: Geometry::Circle {
                    center: stations[si].pos,
                    radius: r,
                },
                speed_limit_kmh: None,
            });
        }

        RailNetwork {
            stations,
            routes,
            zones,
        }
    }

    /// Zones of one kind.
    pub fn zones_of(&self, kind: ZoneKind) -> impl Iterator<Item = &Zone> {
        self.zones.iter().filter(move |z| z.kind == kind)
    }

    /// True iff `p` is inside any zone of `kind`.
    pub fn in_zone(&self, p: &Point, kind: ZoneKind) -> bool {
        self.zones_of(kind)
            .any(|z| z.geometry.contains(p, Metric::Haversine))
    }

    /// The most restrictive speed limit applying at `p`
    /// (km/h; `line_limit` when no zone applies).
    pub fn speed_limit_at(&self, p: &Point, line_limit: f64) -> f64 {
        self.zones
            .iter()
            .filter(|z| z.geometry.contains(p, Metric::Haversine))
            .filter_map(|z| z.speed_limit_kmh)
            .fold(line_limit, f64::min)
    }
}

/// Track point of maximal turning angle (curve centre candidate).
fn sharpest_curve(route: &Route) -> Option<Point> {
    if route.track.len() < 3 {
        return None;
    }
    let mut best = (0usize, -1.0f64);
    for i in 1..route.track.len() - 1 {
        let b1 = meos::tpoint::bearing(&route.track[i - 1], &route.track[i]);
        let b2 = meos::tpoint::bearing(&route.track[i], &route.track[i + 1]);
        let mut d = (b2 - b1).abs();
        if d > 180.0 {
            d = 360.0 - d;
        }
        if d > best.1 {
            best = (i, d);
        }
    }
    Some(route.track[best.0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_is_deterministic() {
        let a = RailNetwork::belgium();
        let b = RailNetwork::belgium();
        assert_eq!(a.stations.len(), b.stations.len());
        for (ra, rb) in a.routes.iter().zip(&b.routes) {
            assert_eq!(ra.track, rb.track);
        }
    }

    #[test]
    fn routes_have_sane_geometry() {
        let net = RailNetwork::belgium();
        assert_eq!(net.routes.len(), 6);
        for r in &net.routes {
            assert!(r.track.len() >= 10, "{} too sparse", r.name);
            assert_eq!(r.track.len(), r.cum_m.len());
            assert_eq!(r.station_track_idx.len(), r.stations.len());
            // Brussels–Antwerp is ~45 km line distance; all routes should
            // be between 20 km and 250 km.
            let len = r.length_m();
            assert!((20_000.0..250_000.0).contains(&len), "{}: {len}", r.name);
            // Cumulative distances strictly increase.
            for w in r.cum_m.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn stations_anchor_track() {
        let net = RailNetwork::belgium();
        for r in &net.routes {
            for (i, &si) in r.stations.iter().enumerate() {
                let track_pt = r.track[r.station_track_idx[i]];
                let d = track_pt.haversine(&net.stations[si].pos);
                assert!(d < 50.0, "{}: station {i} off by {d} m", r.name);
            }
        }
    }

    #[test]
    fn position_at_interpolates() {
        let net = RailNetwork::belgium();
        let r = &net.routes[0];
        let (start, _) = r.position_at(0.0);
        assert!(start.haversine(&net.stations[r.stations[0]].pos) < 50.0);
        let (end, _) = r.position_at(r.length_m());
        assert!(end.haversine(&net.stations[*r.stations.last().unwrap()].pos) < 50.0);
        let (mid, heading) = r.position_at(r.length_m() / 2.0);
        assert!(mid.x > 2.0 && mid.x < 6.5, "on the map");
        assert!((0.0..360.0).contains(&heading));
        // Clamping.
        let (past, _) = r.position_at(r.length_m() + 10_000.0);
        assert_eq!(past, end);
    }

    #[test]
    fn zone_inventory_complete() {
        let net = RailNetwork::belgium();
        assert_eq!(net.zones_of(ZoneKind::StationArea).count(), 14);
        assert_eq!(net.zones_of(ZoneKind::Workshop).count(), 4);
        assert_eq!(net.zones_of(ZoneKind::Maintenance).count(), 3);
        assert!(net.zones_of(ZoneKind::HighRiskCurve).count() >= 4);
        assert_eq!(net.zones_of(ZoneKind::NoiseSensitive).count(), 3);
    }

    #[test]
    fn station_area_detection() {
        let net = RailNetwork::belgium();
        let midi = net.stations[0].pos;
        assert!(net.in_zone(&midi, ZoneKind::StationArea));
        let nowhere = Point::new(4.0, 50.3);
        assert!(!net.in_zone(&nowhere, ZoneKind::StationArea));
    }

    #[test]
    fn speed_limits_apply() {
        let net = RailNetwork::belgium();
        let midi = net.stations[0].pos;
        // Station zone limit (40) beats the line limit.
        assert_eq!(net.speed_limit_at(&midi, 160.0), 40.0);
        let open_track = net.routes[0].position_at(10_000.0).0;
        let lim = net.speed_limit_at(&open_track, 160.0);
        assert!(lim <= 160.0);
    }
}
