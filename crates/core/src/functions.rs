//! The MEOS expression plugin: spatiotemporal functions registered into
//! the engine's function registry at runtime.
//!
//! This is the paper's §2.3 integration point: NebulaMEOS "adds custom
//! operators, including `MeosAtStbox_Expression`, which incorporate
//! spatial predicates such as `edwithin` and `tpoint_at_stbox`". Here
//! every such predicate is a [`ScalarFunction`](nebula::expr::ScalarFunction)
//! resolved by name at query
//! bind time; the engine core never learns about geometry.
//!
//! All geodetic computations use the haversine metric (coordinates are
//! WGS84 lon/lat degrees, distances metres).

#[cfg(test)]
use crate::values::tfloat_value;
use crate::values::{
    as_geometry, as_point, as_stbox, as_tfloat, as_tpoint, geometry_value, stbox_value,
    tpoint_value,
};
use meos::boxes::STBox;
#[cfg(test)]
use meos::geo::Point;
use meos::geo::{Geometry, Metric};
use meos::time::{Period, TimestampTz};
use meos::tpoint;
use nebula::prelude::{
    CapabilityRegistry, ClosureFunction, DataType, Expr, FunctionRegistry, NebulaError, Plugin,
    Value,
};

/// Geometry literal expression (fences, zones in query text).
pub fn geom(g: Geometry) -> Expr {
    Expr::Literal(geometry_value(g))
}

/// STBox literal expression.
pub fn stbox(b: STBox) -> Expr {
    Expr::Literal(stbox_value(b))
}

const METRIC: Metric = Metric::Haversine;

fn num(v: &Value, ctx: &str) -> nebula::Result<f64> {
    v.as_float()
        .ok_or_else(|| NebulaError::Eval(format!("{ctx}: expected numeric, got {v}")))
}

/// The MEOS function plugin.
pub struct MeosPlugin;

impl Plugin for MeosPlugin {
    fn name(&self) -> &str {
        "nebula-meos"
    }

    fn capabilities(&self) -> CapabilityRegistry {
        meos_capabilities()
    }

    fn register(&self, reg: &mut FunctionRegistry) -> nebula::Result<()> {
        // --- static spatial predicates --------------------------------
        reg.register(ClosureFunction::new(
            "st_contains",
            2,
            DataType::Bool,
            |args| {
                let g = as_geometry(&args[0])?;
                let p = as_point(&args[1])?;
                Ok(Value::Bool(g.contains(&p, METRIC)))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "st_distance",
            2,
            DataType::Float,
            |args| {
                let g = as_geometry(&args[0])?;
                let p = as_point(&args[1])?;
                Ok(Value::Float(g.distance_to_point(&p, METRIC)))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "haversine_m",
            2,
            DataType::Float,
            |args| {
                let a = as_point(&args[0])?;
                let b = as_point(&args[1])?;
                Ok(Value::Float(a.haversine(&b)))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "bearing_deg",
            2,
            DataType::Float,
            |args| {
                let a = as_point(&args[0])?;
                let b = as_point(&args[1])?;
                Ok(Value::Float(tpoint::bearing(&a, &b)))
            },
        ))?;

        // --- ever/always within distance (paper's `edwithin`) ---------
        reg.register(ClosureFunction::new(
            "edwithin",
            3,
            DataType::Bool,
            |args| {
                let g = as_geometry(&args[1])?;
                let d = num(&args[2], "edwithin")?;
                // Accepts a temporal point or a plain point.
                if let Ok(tp) = as_tpoint(&args[0]) {
                    Ok(Value::Bool(tpoint::temporal_edwithin(tp, g, d, METRIC)))
                } else {
                    let p = as_point(&args[0])?;
                    Ok(Value::Bool(g.distance_to_point(&p, METRIC) <= d))
                }
            },
        ))?;

        reg.register(ClosureFunction::new(
            "adwithin",
            3,
            DataType::Bool,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let g = as_geometry(&args[1])?;
                let d = num(&args[2], "adwithin")?;
                let all = tp
                    .to_sequences()
                    .iter()
                    .all(|s| tpoint::adwithin(s, g, d, METRIC));
                Ok(Value::Bool(all))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_nad",
            2,
            DataType::Float,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let g = as_geometry(&args[1])?;
                Ok(Value::Float(tpoint::temporal_nad(tp, g, METRIC)))
            },
        ))?;

        // --- restriction (paper's `tpoint_at_stbox`) -------------------
        reg.register(ClosureFunction::new(
            "tpoint_at_stbox",
            2,
            DataType::Opaque,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let bx = as_stbox(&args[1])?;
                Ok(match tpoint::temporal_at_stbox(tp, bx) {
                    Some(t) => tpoint_value(t),
                    None => Value::Null,
                })
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_at_geometry",
            2,
            DataType::Opaque,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let g = as_geometry(&args[1])?;
                Ok(match tpoint::temporal_at_geometry(tp, g, METRIC) {
                    Some(t) => tpoint_value(t),
                    None => Value::Null,
                })
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_simplify",
            2,
            DataType::Opaque,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let tol = num(&args[1], "tpoint_simplify")?;
                let seqs: Vec<_> = tp
                    .to_sequences()
                    .iter()
                    .map(|s| tpoint::simplify_dp(s, tol, METRIC))
                    .collect();
                meos::temporal::Temporal::from_sequences(seqs)
                    .map(tpoint_value)
                    .map_err(|e| NebulaError::Eval(e.to_string()))
            },
        ))?;

        // --- temporal accessors ----------------------------------------
        reg.register(ClosureFunction::new(
            "tpoint_length_m",
            1,
            DataType::Float,
            |args| {
                let tp = as_tpoint(&args[0])?;
                Ok(Value::Float(tpoint::temporal_length(tp, METRIC)))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_duration_s",
            1,
            DataType::Float,
            |args| {
                let tp = as_tpoint(&args[0])?;
                Ok(Value::Float(tp.duration().as_secs_f64()))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_num_instants",
            1,
            DataType::Int,
            |args| {
                let tp = as_tpoint(&args[0])?;
                Ok(Value::Int(tp.num_instants() as i64))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_start_ts",
            1,
            DataType::Timestamp,
            |args| {
                let tp = as_tpoint(&args[0])?;
                Ok(Value::Timestamp(tp.start_timestamp().micros()))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_end_ts",
            1,
            DataType::Timestamp,
            |args| {
                let tp = as_tpoint(&args[0])?;
                Ok(Value::Timestamp(tp.end_timestamp().micros()))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_twcentroid",
            1,
            DataType::Point,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let seqs = tp.to_sequences();
                // Duration-weighted centroid over the sequences.
                let mut num = (0.0, 0.0);
                let mut den = 0.0;
                for s in &seqs {
                    let c = tpoint::twcentroid(s);
                    let w = s.duration().as_secs_f64().max(1e-9);
                    num.0 += c.x * w;
                    num.1 += c.y * w;
                    den += w;
                }
                Ok(Value::Point {
                    x: num.0 / den,
                    y: num.1 / den,
                })
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tpoint_max_speed_kmh",
            1,
            DataType::Float,
            |args| {
                let tp = as_tpoint(&args[0])?;
                let max = tp
                    .to_sequences()
                    .iter()
                    .filter_map(|s| tpoint::speed(s, METRIC))
                    .map(|sp| sp.max_value())
                    .fold(0.0f64, f64::max);
                Ok(Value::Float(max * 3.6))
            },
        ))?;

        // --- temporal floats -------------------------------------------
        reg.register(ClosureFunction::new(
            "tfloat_twavg",
            1,
            DataType::Float,
            |args| {
                let tf = as_tfloat(&args[0])?;
                let seqs = tf.to_sequences();
                let mut num = 0.0;
                let mut den = 0.0;
                for s in &seqs {
                    let d = s.duration().as_secs_f64();
                    if d > 0.0 {
                        num += s.twavg() * d;
                        den += d;
                    }
                }
                Ok(Value::Float(if den > 0.0 {
                    num / den
                } else {
                    seqs.iter().map(|s| s.twavg()).sum::<f64>() / seqs.len().max(1) as f64
                }))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tfloat_min",
            1,
            DataType::Float,
            |args| {
                let tf = as_tfloat(&args[0])?;
                let m = tf
                    .to_sequences()
                    .iter()
                    .map(|s| s.min_value())
                    .fold(f64::INFINITY, f64::min);
                Ok(Value::Float(m))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "tfloat_max",
            1,
            DataType::Float,
            |args| {
                let tf = as_tfloat(&args[0])?;
                let m = tf
                    .to_sequences()
                    .iter()
                    .map(|s| s.max_value())
                    .fold(f64::NEG_INFINITY, f64::max);
                Ok(Value::Float(m))
            },
        ))?;

        // --- constructors ----------------------------------------------
        reg.register(ClosureFunction::new_variadic(
            "make_stbox",
            4,
            6,
            |_| Ok(DataType::Opaque),
            |args| {
                let xmin = num(&args[0], "make_stbox")?;
                let xmax = num(&args[1], "make_stbox")?;
                let ymin = num(&args[2], "make_stbox")?;
                let ymax = num(&args[3], "make_stbox")?;
                let t = if args.len() == 6 {
                    let t0 = args[4]
                        .as_timestamp()
                        .ok_or_else(|| NebulaError::Eval("make_stbox: bad tmin".into()))?;
                    let t1 = args[5]
                        .as_timestamp()
                        .ok_or_else(|| NebulaError::Eval("make_stbox: bad tmax".into()))?;
                    Some(
                        Period::inclusive(
                            TimestampTz::from_micros(t0),
                            TimestampTz::from_micros(t1),
                        )
                        .map_err(|e| NebulaError::Eval(e.to_string()))?,
                    )
                } else {
                    None
                };
                STBox::from_coords(xmin, xmax, ymin, ymax, t)
                    .map(stbox_value)
                    .map_err(|e| NebulaError::Eval(e.to_string()))
            },
        ))?;

        reg.register(ClosureFunction::new(
            "make_circle",
            2,
            DataType::Opaque,
            |args| {
                let center = as_point(&args[0])?;
                let radius = num(&args[1], "make_circle")?;
                Ok(geometry_value(Geometry::Circle { center, radius }))
            },
        ))?;

        Ok(())
    }
}

/// The MEOS extension's static-analysis capabilities: which plugin
/// functions produce opaque spatiotemporal values (with their type
/// tags), and which tags the extension ships wire codecs for (see
/// [`crate::wire::register_meos_codecs`]). Environments pick this up
/// automatically when they load [`MeosPlugin`]; standalone analyzer
/// users set it as `AnalysisContext::capabilities`.
pub fn meos_capabilities() -> CapabilityRegistry {
    let mut caps = CapabilityRegistry::new();
    caps.register_opaque_fn("tpoint_at_stbox", "meos.tgeompoint");
    caps.register_opaque_fn("tpoint_at_geometry", "meos.tgeompoint");
    caps.register_opaque_fn("tpoint_simplify", "meos.tgeompoint");
    caps.register_opaque_fn("make_stbox", "meos.stbox");
    caps.register_opaque_fn("make_circle", "meos.geometry");
    for tag in [
        "meos.tgeompoint",
        "meos.tfloat",
        "meos.geometry",
        "meos.stbox",
    ] {
        caps.register_wire_tag(tag);
    }
    caps
}

/// Convenience: a registry with builtins + the MEOS plugin loaded.
pub fn meos_registry() -> nebula::Result<FunctionRegistry> {
    let mut reg = FunctionRegistry::with_builtins();
    reg.load_plugin(&MeosPlugin)?;
    Ok(reg)
}

/// A point literal helper for queries.
pub fn point_lit(x: f64, y: f64) -> Expr {
    Expr::Literal(Value::Point { x, y })
}

#[cfg(test)]
mod tests {
    use super::*;
    use meos::temporal::{TInstant, TSequence, Temporal};

    fn registry() -> FunctionRegistry {
        meos_registry().unwrap()
    }

    fn tp() -> Value {
        let seq = TSequence::linear(vec![
            TInstant::new(Point::new(4.30, 50.80), TimestampTz::from_unix_secs(0)),
            TInstant::new(Point::new(4.40, 50.80), TimestampTz::from_unix_secs(600)),
        ])
        .unwrap();
        tpoint_value(Temporal::Sequence(seq))
    }

    fn invoke(name: &str, args: &[Value]) -> Value {
        registry().get(name).unwrap().invoke(args).unwrap()
    }

    #[test]
    fn plugin_registers_all_functions() {
        let reg = registry();
        for f in [
            "st_contains",
            "st_distance",
            "edwithin",
            "adwithin",
            "tpoint_at_stbox",
            "tpoint_at_geometry",
            "tpoint_length_m",
            "tpoint_num_instants",
            "tfloat_twavg",
            "make_stbox",
            "haversine_m",
        ] {
            assert!(reg.contains(f), "missing '{f}'");
        }
    }

    #[test]
    fn st_contains_and_distance() {
        let fence = geometry_value(Geometry::Circle {
            center: Point::new(4.35, 50.85),
            radius: 1_000.0,
        });
        let inside = Value::Point {
            x: 4.352,
            y: 50.851,
        };
        let outside = Value::Point { x: 4.50, y: 50.85 };
        assert_eq!(
            invoke("st_contains", &[fence.clone(), inside]),
            Value::Bool(true)
        );
        assert_eq!(
            invoke("st_contains", &[fence.clone(), outside.clone()]),
            Value::Bool(false)
        );
        let d = invoke("st_distance", &[fence, outside]);
        let d = d.as_float().unwrap();
        assert!(d > 5_000.0 && d < 15_000.0, "{d}");
    }

    #[test]
    fn edwithin_on_tpoint_and_point() {
        // Trajectory passes ~0 m from (4.35, 50.80).
        let target = geometry_value(Geometry::Point(Point::new(4.35, 50.80)));
        assert_eq!(
            invoke("edwithin", &[tp(), target.clone(), Value::Float(100.0)]),
            Value::Bool(true)
        );
        // A point 4.35,50.85 is ~5.5 km north of the path.
        let p = Value::Point { x: 4.35, y: 50.85 };
        assert_eq!(
            invoke(
                "edwithin",
                &[p.clone(), target.clone(), Value::Float(1_000.0)]
            ),
            Value::Bool(false)
        );
        assert_eq!(
            invoke("edwithin", &[p, target, Value::Float(10_000.0)]),
            Value::Bool(true)
        );
    }

    #[test]
    fn tpoint_at_stbox_restricts() {
        let bx = stbox_value(STBox::from_coords(4.32, 4.36, 50.0, 51.0, None).unwrap());
        let out = invoke("tpoint_at_stbox", &[tp(), bx]);
        let t = as_tpoint(&out).unwrap();
        // 0.04 of 0.10 degrees -> 40% of 600 s = 240 s.
        let dur = t.duration().as_secs_f64();
        assert!((dur - 240.0).abs() < 2.0, "{dur}");
        // Disjoint box -> Null.
        let far = stbox_value(STBox::from_coords(10.0, 11.0, 10.0, 11.0, None).unwrap());
        assert!(invoke("tpoint_at_stbox", &[tp(), far]).is_null());
    }

    #[test]
    fn accessors() {
        assert_eq!(invoke("tpoint_num_instants", &[tp()]), Value::Int(2));
        let len = invoke("tpoint_length_m", &[tp()]).as_float().unwrap();
        assert!((6_000.0..8_000.0).contains(&len), "{len}");
        assert_eq!(invoke("tpoint_duration_s", &[tp()]), Value::Float(600.0));
        assert_eq!(invoke("tpoint_start_ts", &[tp()]), Value::Timestamp(0));
        let c = invoke("tpoint_twcentroid", &[tp()]);
        let (x, y) = c.as_point().unwrap();
        assert!((x - 4.35).abs() < 1e-9 && (y - 50.80).abs() < 1e-9);
        let v = invoke("tpoint_max_speed_kmh", &[tp()]).as_float().unwrap();
        assert!((40.0..50.0).contains(&v), "~42 km/h, got {v}");
    }

    #[test]
    fn tfloat_stats() {
        let tf = tfloat_value(
            TSequence::linear(vec![
                TInstant::new(10.0, TimestampTz::from_unix_secs(0)),
                TInstant::new(20.0, TimestampTz::from_unix_secs(100)),
            ])
            .unwrap()
            .into(),
        );
        assert_eq!(
            invoke("tfloat_twavg", std::slice::from_ref(&tf)),
            Value::Float(15.0)
        );
        assert_eq!(
            invoke("tfloat_min", std::slice::from_ref(&tf)),
            Value::Float(10.0)
        );
        assert_eq!(invoke("tfloat_max", &[tf]), Value::Float(20.0));
    }

    #[test]
    fn wrong_types_error_cleanly() {
        let reg = registry();
        let f = reg.get("tpoint_length_m").unwrap();
        assert!(f.invoke(&[Value::Int(1)]).is_err());
        let f = reg.get("st_contains").unwrap();
        assert!(f.invoke(&[Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn expressions_bind_against_plugin() {
        use nebula::prelude::*;
        let schema = Schema::of(&[("pos", DataType::Point)]);
        let reg = registry();
        let e = call(
            "st_contains",
            vec![
                geom(Geometry::Circle {
                    center: Point::new(4.35, 50.85),
                    radius: 500.0,
                }),
                col("pos"),
            ],
        );
        let (bound, t) = e.bind(&schema, &reg).unwrap();
        assert_eq!(t, DataType::Bool);
        let rec = Record::new(vec![Value::Point { x: 4.35, y: 50.85 }]);
        assert_eq!(bound.eval(&rec).unwrap(), Value::Bool(true));
    }
}
