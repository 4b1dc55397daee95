//! Bounding boxes: [`TBox`] (value × time) and [`STBox`] (space × time).
//!
//! Boxes are MEOS's pruning device: every temporal value carries a tight
//! box, and topological predicates (`overlaps`, `contains`) over boxes are
//! evaluated before any exact geometry work.

use crate::error::{MeosError, Result};
use crate::geo::{Point, Polygon};
use crate::span::Span;
use crate::temporal::TSequence;
use crate::time::Period;
use serde::{Deserialize, Serialize};

/// A bounding box over a numeric value dimension and an optional time
/// dimension (the MEOS `tbox`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TBox {
    /// Value extent.
    pub value: Span<f64>,
    /// Time extent, when constrained.
    pub time: Option<Period>,
}

impl TBox {
    /// Builds a box from a value span and optional period.
    pub fn new(value: Span<f64>, time: Option<Period>) -> Self {
        TBox { value, time }
    }

    /// True iff the boxes overlap in every constrained dimension.
    pub fn overlaps(&self, other: &TBox) -> bool {
        if !self.value.overlaps(&other.value) {
            return false;
        }
        match (&self.time, &other.time) {
            (Some(a), Some(b)) => a.overlaps(b),
            _ => true,
        }
    }

    /// True iff `(v, t)` falls inside the box.
    pub fn contains(&self, v: f64, t: Option<crate::time::TimestampTz>) -> bool {
        if !self.value.contains_value(v) {
            return false;
        }
        match (&self.time, t) {
            (Some(p), Some(ts)) => p.contains_value(ts),
            (Some(_), None) => false,
            _ => true,
        }
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &TBox) -> TBox {
        let value = Span::new(
            self.value.lower().min(other.value.lower()),
            self.value.upper().max(other.value.upper()),
            true,
            true,
        )
        .expect("union span valid");
        let time = match (&self.time, &other.time) {
            (Some(a), Some(b)) => Some(
                Period::new(
                    a.lower().min(b.lower()),
                    a.upper().max(b.upper()),
                    true,
                    true,
                )
                .expect("union period valid"),
            ),
            _ => None,
        };
        TBox { value, time }
    }
}

/// A spatiotemporal bounding box (the MEOS `stbox`): X/Y extents plus an
/// optional time extent. Coordinates follow the geometry convention
/// (lon/lat degrees for geodetic data).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct STBox {
    /// X (longitude) extent.
    pub x: Span<f64>,
    /// Y (latitude) extent.
    pub y: Span<f64>,
    /// Time extent, when constrained.
    pub t: Option<Period>,
}

impl STBox {
    /// Builds a box from coordinate extremes and an optional period.
    pub fn from_coords(
        xmin: f64,
        xmax: f64,
        ymin: f64,
        ymax: f64,
        t: Option<Period>,
    ) -> Result<Self> {
        if !(xmin <= xmax && ymin <= ymax) {
            return Err(MeosError::InvalidArgument(format!(
                "invalid stbox extents x=[{xmin},{xmax}] y=[{ymin},{ymax}]"
            )));
        }
        Ok(STBox {
            x: Span::inclusive(xmin, xmax).expect("validated"),
            y: Span::inclusive(ymin, ymax).expect("validated"),
            t,
        })
    }

    /// Tight box of a temporal-point sequence.
    pub fn from_tpoint(seq: &TSequence<Point>) -> Self {
        let mut it = seq.values();
        let first = it.next().expect("sequence non-empty");
        let mut bb = (first.x, first.y, first.x, first.y);
        for p in it {
            bb.0 = bb.0.min(p.x);
            bb.1 = bb.1.min(p.y);
            bb.2 = bb.2.max(p.x);
            bb.3 = bb.3.max(p.y);
        }
        STBox {
            x: Span::inclusive(bb.0, bb.2).expect("bbox valid"),
            y: Span::inclusive(bb.1, bb.3).expect("bbox valid"),
            t: Some(seq.period()),
        }
    }

    /// Minimum X.
    pub fn xmin(&self) -> f64 {
        self.x.lower()
    }

    /// Maximum X.
    pub fn xmax(&self) -> f64 {
        self.x.upper()
    }

    /// Minimum Y.
    pub fn ymin(&self) -> f64 {
        self.y.lower()
    }

    /// Maximum Y.
    pub fn ymax(&self) -> f64 {
        self.y.upper()
    }

    /// True iff the point (ignoring time) is inside.
    pub fn contains_point(&self, p: &Point) -> bool {
        self.x.contains_value(p.x) && self.y.contains_value(p.y)
    }

    /// True iff the timestamped point is inside in all constrained
    /// dimensions.
    pub fn contains(&self, p: &Point, ts: Option<crate::time::TimestampTz>) -> bool {
        if !self.contains_point(p) {
            return false;
        }
        match (&self.t, ts) {
            (Some(period), Some(ts)) => period.contains_value(ts),
            (Some(_), None) => false,
            _ => true,
        }
    }

    /// True iff the boxes overlap in every constrained dimension.
    pub fn overlaps(&self, other: &STBox) -> bool {
        if !self.x.overlaps(&other.x) || !self.y.overlaps(&other.y) {
            return false;
        }
        match (&self.t, &other.t) {
            (Some(a), Some(b)) => a.overlaps(b),
            _ => true,
        }
    }

    /// Smallest box containing both.
    pub fn union(&self, other: &STBox) -> STBox {
        let merge = |a: &Span<f64>, b: &Span<f64>| {
            Span::inclusive(a.lower().min(b.lower()), a.upper().max(b.upper()))
                .expect("union valid")
        };
        let t = match (&self.t, &other.t) {
            (Some(a), Some(b)) => Some(
                Period::new(
                    a.lower().min(b.lower()),
                    a.upper().max(b.upper()),
                    true,
                    true,
                )
                .expect("union period valid"),
            ),
            _ => None,
        };
        STBox {
            x: merge(&self.x, &other.x),
            y: merge(&self.y, &other.y),
            t,
        }
    }

    /// Intersection, `None` when disjoint in some constrained dimension.
    pub fn intersection(&self, other: &STBox) -> Option<STBox> {
        let x = self.x.intersection(&other.x)?;
        let y = self.y.intersection(&other.y)?;
        let t = match (&self.t, &other.t) {
            (Some(a), Some(b)) => Some(a.intersection(b)?),
            (Some(a), None) | (None, Some(a)) => Some(*a),
            (None, None) => None,
        };
        Some(STBox { x, y, t })
    }

    /// The spatial footprint as a rectangle polygon.
    pub fn to_polygon(&self) -> Polygon {
        Polygon::rect(self.xmin(), self.ymin(), self.xmax(), self.ymax())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TInstant;
    use crate::time::TimestampTz;

    fn t(sec: i64) -> TimestampTz {
        TimestampTz::from_unix_secs(sec)
    }

    fn ptseq() -> TSequence<Point> {
        TSequence::linear(vec![
            TInstant::new(Point::new(0.0, 0.0), t(0)),
            TInstant::new(Point::new(10.0, 5.0), t(10)),
            TInstant::new(Point::new(4.0, -2.0), t(20)),
        ])
        .unwrap()
    }

    #[test]
    fn stbox_from_tpoint_is_tight() {
        let b = STBox::from_tpoint(&ptseq());
        assert_eq!((b.xmin(), b.xmax()), (0.0, 10.0));
        assert_eq!((b.ymin(), b.ymax()), (-2.0, 5.0));
        let p = b.t.unwrap();
        assert_eq!(p.lower(), t(0));
        assert_eq!(p.upper(), t(20));
    }

    #[test]
    fn stbox_contains() {
        let b = STBox::from_coords(
            0.0,
            10.0,
            0.0,
            10.0,
            Some(Period::inclusive(t(0), t(100)).unwrap()),
        )
        .unwrap();
        assert!(b.contains(&Point::new(5.0, 5.0), Some(t(50))));
        assert!(!b.contains(&Point::new(5.0, 5.0), Some(t(200))));
        assert!(!b.contains(&Point::new(5.0, 5.0), None), "time-constrained");
        assert!(!b.contains(&Point::new(15.0, 5.0), Some(t(50))));
        assert!(b.contains_point(&Point::new(0.0, 10.0)), "boundary inside");
    }

    #[test]
    fn stbox_overlaps_and_contains_box() {
        let a = STBox::from_coords(0.0, 10.0, 0.0, 10.0, None).unwrap();
        let b = STBox::from_coords(5.0, 15.0, 5.0, 15.0, None).unwrap();
        let c = STBox::from_coords(20.0, 30.0, 20.0, 30.0, None).unwrap();
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn stbox_time_dimension_semantics() {
        let no_t = STBox::from_coords(0.0, 10.0, 0.0, 10.0, None).unwrap();
        let with_t = STBox::from_coords(
            0.0,
            10.0,
            0.0,
            10.0,
            Some(Period::inclusive(t(0), t(10)).unwrap()),
        )
        .unwrap();
        assert!(no_t.overlaps(&with_t));
        assert!(with_t.overlaps(&no_t), "an unconstrained time overlaps any");
    }

    #[test]
    fn union_intersection() {
        let a = STBox::from_coords(0.0, 10.0, 0.0, 10.0, None).unwrap();
        let b = STBox::from_coords(5.0, 15.0, -5.0, 5.0, None).unwrap();
        let u = a.union(&b);
        assert_eq!(
            (u.xmin(), u.xmax(), u.ymin(), u.ymax()),
            (0.0, 15.0, -5.0, 10.0)
        );
        let i = a.intersection(&b).unwrap();
        assert_eq!(
            (i.xmin(), i.xmax(), i.ymin(), i.ymax()),
            (5.0, 10.0, 0.0, 5.0)
        );
        let far = STBox::from_coords(100.0, 110.0, 0.0, 1.0, None).unwrap();
        assert!(a.intersection(&far).is_none());
    }

    #[test]
    fn tbox_basics() {
        let seq =
            TSequence::linear(vec![TInstant::new(1.0, t(0)), TInstant::new(9.0, t(10))]).unwrap();
        let b = TBox::new(
            Span::inclusive(seq.min_value(), seq.max_value()).unwrap(),
            Some(seq.period()),
        );
        assert_eq!(b.value.lower(), 1.0);
        assert_eq!(b.value.upper(), 9.0);
        assert!(b.contains(5.0, Some(t(5))));
        assert!(!b.contains(10.0, Some(t(5))));
        let other = TBox::new(Span::inclusive(8.0, 20.0).unwrap(), None);
        assert!(b.overlaps(&other));
        let u = b.union(&other);
        assert_eq!(u.value.upper(), 20.0);
        assert!(u.time.is_none(), "union drops time when one side lacks it");
    }
}
