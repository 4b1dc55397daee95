//! Wire codecs for MEOS payloads: the plugin half of the cluster wire
//! format.
//!
//! The engine's [`nebula::wire`] codec encodes primitive values itself
//! but delegates [`nebula::prelude::Value::Opaque`] payloads to
//! per-type [`OpaqueWireCodec`]s. This module provides codecs for the
//! four MEOS types the integration carries through tuples — temporal
//! points, temporal floats, geometries and spatiotemporal boxes — so
//! MEOS values survive node boundaries in the distributed runtime
//! (trajectories assembled at the edge travel to the cloud as compact
//! instant lists, not raw sample streams).
//!
//! Layouts are little-endian and mirror the structures losslessly:
//! temporals keep their variant (instant / sequence / sequence set),
//! interpolation and bound inclusivity, so a decoded value compares
//! equal to the original.

use crate::values::{GeometryValue, STBoxValue, TFloatValue, TPointValue};
use meos::geo::{Geometry, LineString, Point, Polygon};
use meos::temporal::{Interp, TInstant, TSequence, TSequenceSet, TempValue, Temporal};
use meos::time::TimestampTz;
use meos::{STBox, Span};
use nebula::prelude::{NebulaError, OpaqueValue, OpaqueWireCodec, Result, WireRegistry};
use nebula::wire::Cursor;
use std::sync::Arc;

/// Registers all MEOS codecs into a wire registry.
pub fn register_meos_codecs(registry: &mut WireRegistry) {
    registry.register(Arc::new(TPointCodec));
    registry.register(Arc::new(TFloatCodec));
    registry.register(Arc::new(GeometryCodec));
    registry.register(Arc::new(STBoxCodec));
}

/// A wire registry preloaded with every MEOS codec.
pub fn meos_wire_registry() -> WireRegistry {
    let mut registry = WireRegistry::new();
    register_meos_codecs(&mut registry);
    registry
}

fn corrupt(msg: impl Into<String>) -> NebulaError {
    NebulaError::Wire(msg.into())
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, p: &Point) {
    put_f64(out, p.x);
    put_f64(out, p.y);
}

fn get_point(c: &mut Cursor<'_>) -> Result<Point> {
    Ok(Point::new(c.f64()?, c.f64()?))
}

fn put_interp(out: &mut Vec<u8>, i: Interp) {
    out.push(match i {
        Interp::Discrete => 0,
        Interp::Step => 1,
        Interp::Linear => 2,
    });
}

fn get_interp(c: &mut Cursor<'_>) -> Result<Interp> {
    match c.u8()? {
        0 => Ok(Interp::Discrete),
        1 => Ok(Interp::Step),
        2 => Ok(Interp::Linear),
        b => Err(corrupt(format!("invalid interpolation byte {b}"))),
    }
}

const TEMPORAL_INSTANT: u8 = 0;
const TEMPORAL_SEQUENCE: u8 = 1;
const TEMPORAL_SEQSET: u8 = 2;

fn encode_sequence<V: TempValue>(
    seq: &TSequence<V>,
    put: &impl Fn(&mut Vec<u8>, &V),
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(&(seq.num_instants() as u32).to_le_bytes());
    put_interp(out, seq.interp());
    out.push(seq.lower_inc() as u8);
    out.push(seq.upper_inc() as u8);
    for inst in seq.instants() {
        put(out, &inst.value);
        out.extend_from_slice(&inst.t.micros().to_le_bytes());
    }
}

fn encode_temporal<V: TempValue>(
    t: &Temporal<V>,
    put: &impl Fn(&mut Vec<u8>, &V),
    out: &mut Vec<u8>,
) {
    match t {
        Temporal::Instant(i) => {
            out.push(TEMPORAL_INSTANT);
            put(out, &i.value);
            out.extend_from_slice(&i.t.micros().to_le_bytes());
        }
        Temporal::Sequence(s) => {
            out.push(TEMPORAL_SEQUENCE);
            encode_sequence(s, put, out);
        }
        Temporal::SequenceSet(ss) => {
            out.push(TEMPORAL_SEQSET);
            out.extend_from_slice(&(ss.sequences().len() as u32).to_le_bytes());
            for s in ss.sequences() {
                encode_sequence(s, put, out);
            }
        }
    }
}

fn decode_temporal<V: TempValue>(
    c: &mut Cursor<'_>,
    val_size: usize,
    get: &impl Fn(&mut Cursor<'_>) -> Result<V>,
) -> Result<Temporal<V>> {
    let seq = |c: &mut Cursor<'_>| -> Result<TSequence<V>> {
        let n = c.checked_count(0)?;
        let interp = get_interp(c)?;
        let lower_inc = c.bool()?;
        let upper_inc = c.bool()?;
        if n.saturating_mul(val_size + 8) > c.remaining() {
            return Err(corrupt(format!("instant count {n} impossible")));
        }
        let mut instants = Vec::with_capacity(n);
        for _ in 0..n {
            let v = get(c)?;
            let t = TimestampTz::from_micros(c.i64()?);
            instants.push(TInstant::new(v, t));
        }
        TSequence::new(instants, lower_inc, upper_inc, interp)
            .map_err(|e| corrupt(format!("invalid sequence: {e}")))
    };
    match c.u8()? {
        TEMPORAL_INSTANT => {
            let v = get(c)?;
            let t = TimestampTz::from_micros(c.i64()?);
            Ok(Temporal::Instant(TInstant::new(v, t)))
        }
        TEMPORAL_SEQUENCE => Ok(Temporal::Sequence(seq(c)?)),
        TEMPORAL_SEQSET => {
            let n = c.checked_count(8)?;
            let mut seqs = Vec::with_capacity(n);
            for _ in 0..n {
                seqs.push(seq(c)?);
            }
            Ok(Temporal::SequenceSet(
                TSequenceSet::new(seqs).map_err(|e| corrupt(format!("invalid set: {e}")))?,
            ))
        }
        b => Err(corrupt(format!("invalid temporal variant {b}"))),
    }
}

fn downcast<'a, T: OpaqueValue + 'static>(value: &'a dyn OpaqueValue, what: &str) -> Result<&'a T> {
    value.as_any().downcast_ref::<T>().ok_or_else(|| {
        NebulaError::Wire(format!(
            "codec for {what} received value tagged '{}'",
            value.type_tag()
        ))
    })
}

/// Codec for `meos.tgeompoint` ([`TPointValue`]).
pub struct TPointCodec;

impl OpaqueWireCodec for TPointCodec {
    fn tag(&self) -> &'static str {
        "meos.tgeompoint"
    }

    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()> {
        let v = downcast::<TPointValue>(value, self.tag())?;
        encode_temporal(&v.0, &|out, p: &Point| put_point(out, p), out);
        Ok(())
    }

    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>> {
        let mut c = Cursor::new(bytes);
        let t = decode_temporal(&mut c, 16, &get_point)?;
        c.done()?;
        Ok(Arc::new(TPointValue(t)))
    }
}

/// Codec for `meos.tfloat` ([`TFloatValue`]).
pub struct TFloatCodec;

impl OpaqueWireCodec for TFloatCodec {
    fn tag(&self) -> &'static str {
        "meos.tfloat"
    }

    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()> {
        let v = downcast::<TFloatValue>(value, self.tag())?;
        encode_temporal(&v.0, &|out, f: &f64| put_f64(out, *f), out);
        Ok(())
    }

    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>> {
        let mut c = Cursor::new(bytes);
        let t = decode_temporal(&mut c, 8, &|c: &mut Cursor<'_>| c.f64())?;
        c.done()?;
        Ok(Arc::new(TFloatValue(t)))
    }
}

const GEOM_POINT: u8 = 0;
const GEOM_CIRCLE: u8 = 1;
const GEOM_LINE: u8 = 2;
const GEOM_POLYGON: u8 = 3;

fn put_ring(out: &mut Vec<u8>, ring: &[Point]) {
    out.extend_from_slice(&(ring.len() as u32).to_le_bytes());
    for p in ring {
        put_point(out, p);
    }
}

fn get_ring(c: &mut Cursor<'_>) -> Result<Vec<Point>> {
    let n = c.checked_count(16)?;
    let mut points = Vec::with_capacity(n);
    for _ in 0..n {
        points.push(get_point(c)?);
    }
    Ok(points)
}

/// Codec for `meos.geometry` ([`GeometryValue`]).
pub struct GeometryCodec;

impl OpaqueWireCodec for GeometryCodec {
    fn tag(&self) -> &'static str {
        "meos.geometry"
    }

    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()> {
        let v = downcast::<GeometryValue>(value, self.tag())?;
        match &v.0 {
            Geometry::Point(p) => {
                out.push(GEOM_POINT);
                put_point(out, p);
            }
            Geometry::Circle { center, radius } => {
                out.push(GEOM_CIRCLE);
                put_point(out, center);
                put_f64(out, *radius);
            }
            Geometry::Line(l) => {
                out.push(GEOM_LINE);
                put_ring(out, &l.points);
            }
            Geometry::Polygon(p) => {
                out.push(GEOM_POLYGON);
                put_ring(out, &p.exterior);
                out.extend_from_slice(&(p.holes.len() as u32).to_le_bytes());
                for hole in &p.holes {
                    put_ring(out, hole);
                }
            }
        }
        Ok(())
    }

    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>> {
        let mut c = Cursor::new(bytes);
        let g = match c.u8()? {
            GEOM_POINT => Geometry::Point(get_point(&mut c)?),
            GEOM_CIRCLE => Geometry::Circle {
                center: get_point(&mut c)?,
                radius: c.f64()?,
            },
            GEOM_LINE => Geometry::Line(LineString::new(get_ring(&mut c)?)),
            GEOM_POLYGON => {
                let exterior = get_ring(&mut c)?;
                let n_holes = c.checked_count(4)?;
                let mut holes = Vec::with_capacity(n_holes);
                for _ in 0..n_holes {
                    holes.push(get_ring(&mut c)?);
                }
                Geometry::Polygon(Polygon::new(exterior, holes))
            }
            b => return Err(corrupt(format!("invalid geometry variant {b}"))),
        };
        c.done()?;
        Ok(Arc::new(GeometryValue(g)))
    }
}

/// Codec for `meos.stbox` ([`STBoxValue`]).
pub struct STBoxCodec;

fn put_fspan(out: &mut Vec<u8>, s: &Span<f64>) {
    put_f64(out, s.lower());
    put_f64(out, s.upper());
    out.push(s.lower_inc() as u8);
    out.push(s.upper_inc() as u8);
}

fn get_fspan(c: &mut Cursor<'_>) -> Result<Span<f64>> {
    let (lower, upper) = (c.f64()?, c.f64()?);
    let (li, ui) = (c.bool()?, c.bool()?);
    Span::new(lower, upper, li, ui).map_err(|e| corrupt(format!("invalid span: {e}")))
}

impl OpaqueWireCodec for STBoxCodec {
    fn tag(&self) -> &'static str {
        "meos.stbox"
    }

    fn encode(&self, value: &dyn OpaqueValue, out: &mut Vec<u8>) -> Result<()> {
        let v = downcast::<STBoxValue>(value, self.tag())?;
        put_fspan(out, &v.0.x);
        put_fspan(out, &v.0.y);
        match &v.0.t {
            None => out.push(0),
            Some(p) => {
                out.push(1);
                out.extend_from_slice(&p.lower().micros().to_le_bytes());
                out.extend_from_slice(&p.upper().micros().to_le_bytes());
                out.push(p.lower_inc() as u8);
                out.push(p.upper_inc() as u8);
            }
        }
        Ok(())
    }

    fn decode(&self, bytes: &[u8]) -> Result<Arc<dyn OpaqueValue>> {
        let mut c = Cursor::new(bytes);
        let x = get_fspan(&mut c)?;
        let y = get_fspan(&mut c)?;
        let t = match c.u8()? {
            0 => None,
            1 => {
                let lower = TimestampTz::from_micros(c.i64()?);
                let upper = TimestampTz::from_micros(c.i64()?);
                let (li, ui) = (c.bool()?, c.bool()?);
                Some(
                    Span::new(lower, upper, li, ui)
                        .map_err(|e| corrupt(format!("invalid period: {e}")))?,
                )
            }
            b => return Err(corrupt(format!("invalid period flag {b}"))),
        };
        c.done()?;
        Ok(Arc::new(STBoxValue(STBox { x, y, t })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::{geometry_value, stbox_value, tfloat_value, tpoint_value};
    use nebula::prelude::{decode_frame, encode_frame, DataType, Frame, Record, Schema, Value};

    fn seq_point() -> Temporal<Point> {
        TSequence::linear(vec![
            TInstant::new(Point::new(4.30, 50.80), TimestampTz::from_unix_secs(0)),
            TInstant::new(Point::new(4.35, 50.85), TimestampTz::from_unix_secs(60)),
            TInstant::new(Point::new(4.40, 50.90), TimestampTz::from_unix_secs(120)),
        ])
        .unwrap()
        .into()
    }

    fn round_trip(v: Value) -> Value {
        let reg = meos_wire_registry();
        let schema = Schema::of(&[("o", DataType::Opaque)]);
        let bytes = encode_frame(&Frame::Data(vec![Record::new(vec![v])]), &schema, &reg).unwrap();
        match decode_frame(&bytes, &schema, &reg).unwrap() {
            Frame::Columnar(tb) => tb.value_at(0, 0).unwrap(),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tpoint_round_trips_exactly() {
        let v = tpoint_value(seq_point());
        assert_eq!(round_trip(v.clone()), v);
        // Instant and sequence-set variants survive too.
        let inst: Temporal<Point> =
            TInstant::new(Point::new(1.0, 2.0), TimestampTz::from_unix_secs(5)).into();
        let v = tpoint_value(inst);
        assert_eq!(round_trip(v.clone()), v);
    }

    #[test]
    fn tfloat_round_trips_exactly() {
        let t: Temporal<f64> = TSequence::new(
            vec![
                TInstant::new(1.5, TimestampTz::from_unix_secs(0)),
                TInstant::new(-2.5, TimestampTz::from_unix_secs(10)),
            ],
            true,
            false,
            Interp::Step,
        )
        .unwrap()
        .into();
        let v = tfloat_value(t);
        assert_eq!(round_trip(v.clone()), v);
    }

    #[test]
    fn geometry_round_trips_exactly() {
        for g in [
            Geometry::Point(Point::new(1.0, 2.0)),
            Geometry::Circle {
                center: Point::new(4.35, 50.85),
                radius: 500.0,
            },
            Geometry::Line(LineString::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
            ])),
            Geometry::Polygon(Polygon::new(
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(2.0, 0.0),
                    Point::new(2.0, 2.0),
                ],
                vec![vec![
                    Point::new(0.5, 0.5),
                    Point::new(1.0, 0.5),
                    Point::new(1.0, 1.0),
                ]],
            )),
        ] {
            let v = geometry_value(g);
            assert_eq!(round_trip(v.clone()), v);
        }
    }

    #[test]
    fn stbox_round_trips_exactly() {
        let no_time = STBox::from_coords(0.0, 1.0, 0.0, 1.0, None).unwrap();
        let v = stbox_value(no_time);
        assert_eq!(round_trip(v.clone()), v);
        let timed = STBox::from_coords(
            4.0,
            5.0,
            50.0,
            51.0,
            Some(
                Span::new(
                    TimestampTz::from_unix_secs(0),
                    TimestampTz::from_unix_secs(60),
                    true,
                    false,
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let v = stbox_value(timed);
        assert_eq!(round_trip(v.clone()), v);
    }

    #[test]
    fn meos_frames_survive_the_resilient_envelope() {
        // The chaos-hardened link wraps frames in a CRC32 + sequence
        // envelope. MEOS opaque payloads must pass through untouched —
        // the envelope carries the exact frame bytes — and any
        // corruption is caught at the envelope layer before the codec
        // ever sees the payload.
        use nebula::prelude::{decode_envelope, encode_envelope};

        let reg = meos_wire_registry();
        let schema = Schema::of(&[("o", DataType::Opaque)]);
        let frame = encode_frame(
            &Frame::Data(vec![Record::new(vec![tpoint_value(seq_point())])]),
            &schema,
            &reg,
        )
        .unwrap();

        let env = encode_envelope(0, 7, &frame);
        let back = decode_envelope(&env).unwrap();
        assert_eq!(back.seq, 7);
        assert_eq!(back.payload, frame, "envelope must not alter codec bytes");
        match decode_frame(&back.payload, &schema, &reg).unwrap() {
            Frame::Columnar(tb) => {
                assert_eq!(tb.value_at(0, 0), Some(tpoint_value(seq_point())));
            }
            other => panic!("{other:?}"),
        }

        // Flip one byte anywhere in the envelope: the CRC rejects it.
        for pos in [0, 5, env.len() / 2, env.len() - 1] {
            let mut bad = env.clone();
            bad[pos] ^= 0x40;
            assert!(
                decode_envelope(&bad).is_err(),
                "corruption at byte {pos} must fail the checksum"
            );
        }
    }

    #[test]
    fn corrupted_payloads_error_not_panic() {
        let reg = meos_wire_registry();
        let schema = Schema::of(&[("o", DataType::Opaque)]);
        let good = encode_frame(
            &Frame::Data(vec![Record::new(vec![tpoint_value(seq_point())])]),
            &schema,
            &reg,
        )
        .unwrap();
        for cut in 0..good.len() {
            let _ = decode_frame(&good[..cut], &schema, &reg);
        }
        let mut bad = good;
        let variant_at = bad.len() - (3 * 24) - 4 - 3 - 1;
        bad[variant_at] = 9; // invalid temporal variant
        assert!(decode_frame(&bad, &schema, &reg).is_err());
    }
}
