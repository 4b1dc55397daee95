//! The eight demonstration queries (paper §3.1–§3.2), expressed against
//! the fleet schema through the registered MEOS/zone functions.
//!
//! Geofencing:
//! - [`q1_alert_filtering`] — suppress non-essential alerts inside
//!   maintenance zones;
//! - [`q2_noise_monitoring`] — windowed noise statistics inside
//!   noise-sensitive zones;
//! - [`q3_dynamic_speed_limit`] — flag trains exceeding zone limits in
//!   high-risk areas;
//! - [`q4_weather_speed_zones`] — weather-conditioned speed suggestions.
//!
//! Geospatial CEP:
//! - [`q5_battery_monitoring`] — battery-curve deviation pattern plus
//!   nearest-workshop lookup;
//! - [`q6_heavy_load`] — sustained heavy passenger load (threshold
//!   window);
//! - [`q7_unscheduled_stops`] — prolonged halts outside station/workshop
//!   areas (threshold window);
//! - [`q8_brake_monitoring`] — repeated emergency brakes within a time
//!   bound (CEP).
//!
//! Queries assume the fleet record layout documented at
//! [`FLEET_FIELDS`]; the geometry/weather context arrives through the
//! [`DemoContext`] plugin so the query text stays declarative.

use crate::values::as_point;
use meos::geo::{Geometry, Metric, Point};
use nebula::prelude::{
    call, col, invoke_rows, lit, AggSpec, ClosureFunction, Column, ColumnArg, DataType, Expr,
    FunctionRegistry, Pattern, PatternStep, Plugin, Query, ScalarFunction, Value, WindowAgg,
    WindowSpec, MICROS_PER_SEC,
};
use std::sync::Arc;

/// The field names every demo query expects on the source stream.
pub const FLEET_FIELDS: &[&str] = &[
    "ts",
    "train_id",
    "pos",
    "speed_kmh",
    "battery_v",
    "battery_temp_c",
    "brake_bar",
    "noise_db",
    "passengers",
    "doors_open",
    "odometer_m",
    "cabin_temp_c",
];

/// The source stream name used by all demo queries.
pub const FLEET_STREAM: &str = "fleet";

/// Zone inventory the queries evaluate against (extracted from whatever
/// infrastructure model the deployment uses — here the sncb simulator).
#[derive(Debug, Clone, Default)]
pub struct DemoZones {
    /// Maintenance areas (Q1 suppression).
    pub maintenance: Vec<(String, Geometry)>,
    /// Noise-sensitive areas (Q2).
    pub noise_sensitive: Vec<(String, Geometry)>,
    /// High-risk areas with their limits in km/h (Q3).
    pub high_risk: Vec<(String, Geometry, f64)>,
    /// Station catchments (Q7 exclusion).
    pub station_areas: Vec<(String, Geometry)>,
    /// Workshops (Q5 lookup, Q7 exclusion).
    pub workshops: Vec<(String, Geometry)>,
}

/// Weather lookup used by Q4 — implemented by the deployment (the sncb
/// crate's field, a live API, …).
pub trait WeatherProvider: Send + Sync {
    /// Recommended speed factor (≤ 1.0) at a position/time; 1.0 = clear.
    fn speed_factor(&self, pos: Point, t_micros: i64) -> f64;
}

/// The demo context plugin: registers the zone and weather functions the
/// queries reference by name.
pub struct DemoContext {
    /// Zone inventory.
    pub zones: Arc<DemoZones>,
    /// Weather source; `None` registers a constant 1.0 (clear skies).
    pub weather: Option<Arc<dyn WeatherProvider>>,
}

impl DemoContext {
    /// Builds a context without weather.
    pub fn new(zones: DemoZones) -> Self {
        DemoContext {
            zones: Arc::new(zones),
            weather: None,
        }
    }

    /// Attaches a weather provider.
    pub fn with_weather(mut self, w: Arc<dyn WeatherProvider>) -> Self {
        self.weather = Some(w);
        self
    }
}

/// A geometry with its precomputed bounding box for cheap pruning.
type BoxedGeom = ((f64, f64, f64, f64), Geometry);
/// A bbox-pruned geometry carrying its speed limit (km/h).
type BoxedLimitedGeom = ((f64, f64, f64, f64), Geometry, f64);

/// True iff `p` lies in `g`, tested only inside `g`'s bbox.
fn boxed_contains(&(x0, y0, x1, y1): &(f64, f64, f64, f64), g: &Geometry, p: &Point) -> bool {
    p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1 && g.contains(p, Metric::Haversine)
}

/// The result of a [`PointFunction`] body: one row of its typed output
/// column.
trait PointOutput: Sized {
    /// The declared return type.
    const TYPE: DataType;
    /// The row call's boxed result.
    fn value(self) -> Value;
    /// The typed, null-free column of a kernel's results.
    fn column(rows: impl ExactSizeIterator<Item = Self>) -> Column;
}

impl PointOutput for bool {
    const TYPE: DataType = DataType::Bool;
    fn value(self) -> Value {
        Value::Bool(self)
    }
    fn column(rows: impl ExactSizeIterator<Item = Self>) -> Column {
        Column::Bool {
            data: rows.collect(),
            validity: None,
        }
    }
}

impl PointOutput for f64 {
    const TYPE: DataType = DataType::Float;
    fn value(self) -> Value {
        Value::Float(self)
    }
    fn column(rows: impl ExactSizeIterator<Item = Self>) -> Column {
        Column::Float {
            data: rows.collect(),
            validity: None,
        }
    }
}

impl PointOutput for Arc<str> {
    const TYPE: DataType = DataType::Text;
    fn value(self) -> Value {
        Value::Text(self)
    }
    fn column(rows: impl ExactSizeIterator<Item = Self>) -> Column {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0u32);
        let mut arena = Vec::new();
        for s in rows {
            arena.extend_from_slice(s.as_bytes());
            offsets.push(arena.len() as u32);
        }
        Column::Text {
            arena,
            offsets,
            validity: None,
        }
    }
}

/// A context function of a point — and, when `timed`, of a timestamp
/// that reads null as 0 — with one per-point `body` behind both the row
/// call and a typed kernel. The kernel reads a null-free
/// [`Column::Point`]'s coordinate planes (and a null-free
/// [`Column::Timestamp`]) straight into the output column; any other
/// argument shape — a validity mask, boxed [`Column::Values`], a
/// literal — goes through [`invoke_rows`], so a null position fails
/// exactly as the row call does.
struct PointFunction<F> {
    name: &'static str,
    timed: bool,
    body: F,
}

impl<O, F> PointFunction<F>
where
    O: PointOutput + 'static,
    F: Fn(&Point, i64) -> O + Send + Sync + 'static,
{
    /// An untimed function of one point.
    fn untimed(name: &'static str, body: F) -> Arc<dyn ScalarFunction> {
        Arc::new(PointFunction {
            name,
            timed: false,
            body,
        })
    }

    /// A function of a point and a timestamp.
    fn timed(name: &'static str, body: F) -> Arc<dyn ScalarFunction> {
        Arc::new(PointFunction {
            name,
            timed: true,
            body,
        })
    }
}

impl<O, F> ScalarFunction for PointFunction<F>
where
    O: PointOutput,
    F: Fn(&Point, i64) -> O + Send + Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn min_args(&self) -> usize {
        1 + usize::from(self.timed)
    }

    fn return_type(&self, _: &[DataType]) -> nebula::Result<DataType> {
        Ok(O::TYPE)
    }

    fn invoke(&self, args: &[Value]) -> nebula::Result<Value> {
        let p = as_point(&args[0])?;
        let t = match args.get(1) {
            Some(t) if self.timed => t.as_timestamp().unwrap_or(0),
            _ => 0,
        };
        Ok((self.body)(&p, t).value())
    }

    fn invoke_columnar(
        &self,
        args: &[ColumnArg<'_>],
        ret: DataType,
        rows: usize,
    ) -> nebula::Result<Column> {
        let (xs, ys) = match args.first() {
            Some(ColumnArg::Column(Column::Point {
                xs,
                ys,
                validity: None,
            })) => (xs, ys),
            _ => return invoke_rows(self, args, ret, rows),
        };
        let points = xs.iter().zip(ys).map(|(&x, &y)| Point::new(x, y));
        if !self.timed {
            return Ok(O::column(points.map(|p| (self.body)(&p, 0))));
        }
        match args.get(1) {
            Some(ColumnArg::Column(Column::Timestamp {
                data,
                validity: None,
            })) => Ok(O::column(
                points.zip(data).map(|(p, &t)| (self.body)(&p, t)),
            )),
            _ => invoke_rows(self, args, ret, rows),
        }
    }
}

/// Registers `name(pos)`: is `pos` inside any of `geoms`?
fn register_containment(
    reg: &mut FunctionRegistry,
    name: &'static str,
    geoms: Vec<Geometry>,
) -> nebula::Result<()> {
    // Precomputed bboxes for pruning.
    let boxed: Vec<BoxedGeom> = geoms
        .into_iter()
        .map(|g| (g.bbox(Metric::Haversine), g))
        .collect();
    reg.register(PointFunction::untimed(name, move |p, _| {
        boxed.iter().any(|(b, g)| boxed_contains(b, g, p))
    }))
}

impl Plugin for DemoContext {
    fn name(&self) -> &str {
        "nebula-meos-demo-context"
    }

    fn register(&self, reg: &mut FunctionRegistry) -> nebula::Result<()> {
        let z = &self.zones;
        register_containment(
            reg,
            "in_maintenance",
            z.maintenance.iter().map(|(_, g)| g.clone()).collect(),
        )?;
        register_containment(
            reg,
            "in_noise_zone",
            z.noise_sensitive.iter().map(|(_, g)| g.clone()).collect(),
        )?;
        register_containment(
            reg,
            "in_station_area",
            z.station_areas.iter().map(|(_, g)| g.clone()).collect(),
        )?;
        register_containment(
            reg,
            "in_workshop",
            z.workshops.iter().map(|(_, g)| g.clone()).collect(),
        )?;

        // Most restrictive high-risk limit at a point; 999 outside.
        let risk: Vec<BoxedLimitedGeom> = z
            .high_risk
            .iter()
            .map(|(_, g, l)| (g.bbox(Metric::Haversine), g.clone(), *l))
            .collect();
        reg.register(PointFunction::untimed("risk_speed_limit", move |p, _| {
            risk.iter()
                .filter(|(b, g, _)| boxed_contains(b, g, p))
                .fold(999.0f64, |limit, (_, _, l)| limit.min(*l))
        }))?;

        // Nearest workshop distance / name.
        let shops: Vec<Geometry> = z.workshops.iter().map(|(_, g)| g.clone()).collect();
        reg.register(PointFunction::untimed("nearest_workshop_m", move |p, _| {
            shops
                .iter()
                .map(|g| g.distance_to_point(p, Metric::Haversine))
                .fold(f64::INFINITY, f64::min)
        }))?;
        let named: Vec<(Arc<str>, Geometry)> = z
            .workshops
            .iter()
            .map(|(n, g)| (Arc::from(n.as_str()), g.clone()))
            .collect();
        let none: Arc<str> = Arc::from("");
        reg.register(PointFunction::untimed(
            "nearest_workshop_name",
            move |p, _| {
                // NaN distances (a NaN position) are skipped, as the
                // `f64::min` fold of `nearest_workshop_m` skips them, so
                // the name and the distance always agree.
                named
                    .iter()
                    .map(|(n, g)| (n, g.distance_to_point(p, Metric::Haversine)))
                    .filter(|(_, d)| !d.is_nan())
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .map_or_else(|| none.clone(), |(n, _)| n.clone())
            },
        ))?;

        // Weather factor.
        match &self.weather {
            Some(w) => {
                let w = w.clone();
                reg.register(PointFunction::timed("weather_speed_factor", move |p, t| {
                    w.speed_factor(*p, t)
                }))?;
            }
            None => {
                reg.register(ClosureFunction::new(
                    "weather_speed_factor",
                    2,
                    DataType::Float,
                    |_| Ok(Value::Float(1.0)),
                ))?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Geofencing queries (§3.1)
// ---------------------------------------------------------------------------

/// Q1 — *Location-Based Alert Filtering*. Raises `speeding` /
/// `equipment` alerts but discards non-essential ones while the train is
/// inside a maintenance zone.
pub fn q1_alert_filtering(line_limit_kmh: f64) -> Query {
    let speeding = col("speed_kmh").gt(lit(line_limit_kmh));
    let equipment = col("brake_bar")
        .lt(lit(3.0))
        .or(col("battery_v").lt(lit(63.0)));
    Query::from(FLEET_STREAM)
        .map_extend(vec![
            ("speeding", speeding.clone()),
            ("equipment", equipment.clone()),
            ("in_maintenance", call("in_maintenance", vec![col("pos")])),
        ])
        .filter(speeding.or(equipment))
        // Inside maintenance zones only *equipment* alerts pass
        // (speeding there is expected and non-essential).
        .filter(col("in_maintenance").not().or(col("equipment")))
        .map_extend(vec![(
            "alert",
            call(
                "if",
                vec![col("equipment"), lit("equipment"), lit("speeding")],
            ),
        )])
}

/// Q2 — *Location-Based Noise Monitoring*. Average/peak noise per train
/// per minute inside noise-sensitive zones; emits windows whose peak
/// exceeds the threshold.
pub fn q2_noise_monitoring(peak_db: f64) -> Query {
    Query::from(FLEET_STREAM)
        .filter(call("in_noise_zone", vec![col("pos")]))
        .window(
            vec![("train_id", col("train_id"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("avg_db", AggSpec::Avg(col("noise_db"))),
                WindowAgg::new("peak_db", AggSpec::Max(col("noise_db"))),
                WindowAgg::new("samples", AggSpec::Count),
                WindowAgg::new("at", AggSpec::Last(col("pos"))),
            ],
        )
        .filter(col("peak_db").gt(lit(peak_db)))
}

/// Q3 — *Dynamic Speed Limit*. Flags trains exceeding the limit of a
/// high-risk zone they are currently inside.
pub fn q3_dynamic_speed_limit() -> Query {
    Query::from(FLEET_STREAM)
        .map_extend(vec![(
            "zone_limit_kmh",
            call("risk_speed_limit", vec![col("pos")]),
        )])
        .filter(
            col("zone_limit_kmh")
                .lt(lit(900.0))
                .and(col("speed_kmh").gt(col("zone_limit_kmh"))),
        )
        .map_extend(vec![(
            "excess_kmh",
            col("speed_kmh").sub(col("zone_limit_kmh")),
        )])
}

/// Q4 — *Weather-Based Speed Zones*. Joins positions against the weather
/// field and flags trains exceeding the weather-adjusted suggestion.
pub fn q4_weather_speed_zones(line_limit_kmh: f64) -> Query {
    Query::from(FLEET_STREAM)
        .map_extend(vec![(
            "weather_factor",
            call("weather_speed_factor", vec![col("pos"), col("ts")]),
        )])
        .filter(col("weather_factor").lt(lit(1.0)))
        .map_extend(vec![(
            "suggested_kmh",
            col("weather_factor").mul(lit(line_limit_kmh)),
        )])
        .filter(col("speed_kmh").gt(col("suggested_kmh")))
}

// ---------------------------------------------------------------------------
// Geospatial CEP queries (§3.2)
// ---------------------------------------------------------------------------

/// Q5 — *Battery Monitoring*. Detects deviation from the expected
/// charge/discharge curve (stress followed by critical voltage) and
/// annotates the alert with the nearest workshop.
pub fn q5_battery_monitoring() -> Query {
    let pattern = Pattern::new(
        "battery-degradation",
        vec![
            PatternStep::new(
                "stressed",
                col("battery_temp_c")
                    .gt(lit(40.0))
                    .or(col("battery_v").lt(lit(66.0))),
            ),
            PatternStep::new("critical", col("battery_v").lt(lit(64.0))),
        ],
        15 * 60 * MICROS_PER_SEC,
    )
    .keyed_by(col("train_id"))
    .with_max_partials(1);
    Query::from(FLEET_STREAM).cep(pattern).map_extend(vec![
        ("workshop_m", call("nearest_workshop_m", vec![col("pos")])),
        ("workshop", call("nearest_workshop_name", vec![col("pos")])),
    ])
}

/// Q6 — *Heavy Passenger Load*. A threshold window that opens while the
/// estimated load stays above `seats` and reports sustained episodes.
pub fn q6_heavy_load(seats: i64, min_ticks: usize) -> Query {
    Query::from(FLEET_STREAM).window(
        vec![("train_id", col("train_id"))],
        WindowSpec::Threshold {
            predicate: col("passengers").ge(lit(seats)),
            min_count: min_ticks,
        },
        vec![
            WindowAgg::new("peak_passengers", AggSpec::Max(col("passengers"))),
            WindowAgg::new("avg_passengers", AggSpec::Avg(col("passengers"))),
            WindowAgg::new("ticks", AggSpec::Count),
            WindowAgg::new("at", AggSpec::Last(col("pos"))),
        ],
    )
}

/// Q7 — *Unscheduled Stops*. A threshold window over "stationary outside
/// any station/workshop area" lasting at least `min_ticks` sensor ticks.
pub fn q7_unscheduled_stops(min_ticks: usize) -> Query {
    Query::from(FLEET_STREAM).window(
        vec![("train_id", col("train_id"))],
        WindowSpec::Threshold {
            predicate: col("speed_kmh")
                .lt(lit(2.0))
                .and(call("in_station_area", vec![col("pos")]).not())
                .and(call("in_workshop", vec![col("pos")]).not()),
            min_count: min_ticks,
        },
        vec![
            WindowAgg::new("stop_pos", AggSpec::First(col("pos"))),
            WindowAgg::new("ticks", AggSpec::Count),
        ],
    )
}

/// Q8 — *Monitoring Brakes*. Detects three distinct emergency-brake
/// applications (pressure collapse below 3 bar, separated by recoveries
/// above 7 bar) within `within_minutes` per train.
pub fn q8_brake_monitoring(within_minutes: i64) -> Query {
    let low = || col("brake_bar").lt(lit(3.0));
    let recovered = || col("brake_bar").gt(lit(7.0));
    let pattern = Pattern::new(
        "repeated-emergency-brakes",
        vec![
            PatternStep::new("e1", low()),
            PatternStep::new("r1", recovered()),
            PatternStep::new("e2", low()),
            PatternStep::new("r2", recovered()),
            PatternStep::new("e3", low()),
        ],
        within_minutes * 60 * MICROS_PER_SEC,
    )
    .keyed_by(col("train_id"))
    .with_max_partials(1);
    Query::from(FLEET_STREAM).cep(pattern)
}

/// All eight queries with the demo parameterization, labelled as in the
/// paper.
pub fn all_demo_queries() -> Vec<(&'static str, Query)> {
    vec![
        ("Q1 alert filtering", q1_alert_filtering(160.0)),
        ("Q2 noise monitoring", q2_noise_monitoring(80.0)),
        ("Q3 dynamic speed limit", q3_dynamic_speed_limit()),
        ("Q4 weather speed zones", q4_weather_speed_zones(160.0)),
        ("Q5 battery monitoring", q5_battery_monitoring()),
        ("Q6 heavy passenger load", q6_heavy_load(500, 30)),
        ("Q7 unscheduled stops", q7_unscheduled_stops(120)),
        ("Q8 brake monitoring", q8_brake_monitoring(30)),
    ]
}

/// A ready demo expression: is the train currently inside the stbox's
/// spatial footprint? (The paper's `MeosAtStbox_Expression` as a filter
/// predicate over point streams.)
pub fn within_stbox(pos_field: &str, bx: &meos::boxes::STBox) -> Expr {
    call(
        "st_contains",
        vec![
            crate::functions::geom(Geometry::Polygon(bx.to_polygon())),
            col(pos_field),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::meos_registry;
    use nebula::prelude::*;

    fn zones() -> DemoZones {
        DemoZones {
            maintenance: vec![(
                "m0".into(),
                Geometry::Circle {
                    center: Point::new(4.35, 50.85),
                    radius: 2_000.0,
                },
            )],
            noise_sensitive: vec![(
                "n0".into(),
                Geometry::Circle {
                    center: Point::new(4.40, 50.90),
                    radius: 1_500.0,
                },
            )],
            high_risk: vec![(
                "c0".into(),
                Geometry::Circle {
                    center: Point::new(4.50, 50.95),
                    radius: 1_000.0,
                },
                80.0,
            )],
            station_areas: vec![(
                "s0".into(),
                Geometry::Circle {
                    center: Point::new(4.30, 50.80),
                    radius: 400.0,
                },
            )],
            workshops: vec![
                (
                    "w0".into(),
                    Geometry::Circle {
                        center: Point::new(4.60, 51.00),
                        radius: 500.0,
                    },
                ),
                (
                    "w1".into(),
                    Geometry::Circle {
                        center: Point::new(4.20, 50.70),
                        radius: 500.0,
                    },
                ),
            ],
        }
    }

    fn registry() -> FunctionRegistry {
        let mut reg = meos_registry();
        reg.load_plugin(&DemoContext::new(zones())).unwrap();
        reg
    }

    fn fleet_schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train_id", DataType::Int),
            ("pos", DataType::Point),
            ("speed_kmh", DataType::Float),
            ("battery_v", DataType::Float),
            ("battery_temp_c", DataType::Float),
            ("brake_bar", DataType::Float),
            ("noise_db", DataType::Float),
            ("passengers", DataType::Int),
            ("doors_open", DataType::Bool),
            ("odometer_m", DataType::Float),
            ("cabin_temp_c", DataType::Float),
        ])
    }

    #[test]
    fn context_functions_registered() {
        let reg = registry();
        for f in [
            "in_maintenance",
            "in_noise_zone",
            "in_station_area",
            "in_workshop",
            "risk_speed_limit",
            "nearest_workshop_m",
            "nearest_workshop_name",
            "weather_speed_factor",
        ] {
            assert!(reg.contains(f), "missing {f}");
        }
    }

    #[test]
    fn zone_functions_evaluate() {
        let reg = registry();
        let inside = Value::Point { x: 4.35, y: 50.85 };
        let outside = Value::Point { x: 5.5, y: 50.0 };
        assert_eq!(
            reg.get("in_maintenance")
                .unwrap()
                .invoke(std::slice::from_ref(&inside))
                .unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            reg.get("in_maintenance")
                .unwrap()
                .invoke(std::slice::from_ref(&outside))
                .unwrap(),
            Value::Bool(false)
        );
        let lim = reg
            .get("risk_speed_limit")
            .unwrap()
            .invoke(&[Value::Point { x: 4.50, y: 50.95 }])
            .unwrap();
        assert_eq!(lim, Value::Float(80.0));
        assert_eq!(
            reg.get("risk_speed_limit")
                .unwrap()
                .invoke(std::slice::from_ref(&outside))
                .unwrap(),
            Value::Float(999.0)
        );
        let name = reg
            .get("nearest_workshop_name")
            .unwrap()
            .invoke(&[Value::Point { x: 4.59, y: 51.0 }])
            .unwrap();
        assert_eq!(name, Value::text("w0"));
        // No weather provider -> constant 1.0.
        assert_eq!(
            reg.get("weather_speed_factor")
                .unwrap()
                .invoke(&[outside, Value::Timestamp(0)])
                .unwrap(),
            Value::Float(1.0)
        );
    }

    #[test]
    fn nearest_workshop_skips_nan_distances() {
        // Point workshops measure a raw haversine distance, which is NaN
        // for a NaN position: no workshop is nearest, and the name and
        // the distance say so together instead of panicking.
        let mut z = zones();
        z.workshops = vec![
            ("p0".into(), Geometry::Point(Point::new(4.60, 51.00))),
            ("p1".into(), Geometry::Point(Point::new(4.20, 50.70))),
        ];
        let mut reg = meos_registry();
        reg.load_plugin(&DemoContext::new(z)).unwrap();
        let call = |f: &str, p: Value| reg.get(f).unwrap().invoke(&[p]).unwrap();
        let nan = Value::Point {
            x: f64::NAN,
            y: 50.85,
        };
        assert_eq!(call("nearest_workshop_name", nan.clone()), Value::text(""));
        assert_eq!(call("nearest_workshop_m", nan), Value::Float(f64::INFINITY));
        let near_p1 = Value::Point { x: 4.21, y: 50.7 };
        assert_eq!(call("nearest_workshop_name", near_p1), Value::text("p1"));
    }

    #[test]
    fn all_queries_compile_against_fleet_schema() {
        let reg = registry();
        for (name, q) in all_demo_queries() {
            let plan = compile(&q, fleet_schema(), &reg);
            assert!(plan.is_ok(), "{name} failed: {:?}", plan.err());
        }
    }

    #[test]
    fn q1_suppression_logic() {
        let reg = registry();
        let q = q1_alert_filtering(160.0);
        let plan = compile(&q, fleet_schema(), &reg).unwrap();
        // 12 input fields + speeding/equipment/in_maintenance + alert.
        assert_eq!(plan.output_schema.index_of("alert"), Some(15));
        // Run a tiny stream: speeding inside maintenance suppressed,
        // equipment alert inside maintenance kept, speeding outside kept.
        let mut env = StreamEnvironment::new();
        *env.registry_mut() = reg;
        let rec = |x: f64, speed: f64, brake: f64| {
            Record::new(vec![
                Value::Timestamp(0),
                Value::Int(1),
                Value::Point { x, y: 50.85 },
                Value::Float(speed),
                Value::Float(70.0),
                Value::Float(20.0),
                Value::Float(brake),
                Value::Float(50.0),
                Value::Int(100),
                Value::Bool(false),
                Value::Float(0.0),
                Value::Float(21.0),
            ])
        };
        env.add_source(
            FLEET_STREAM,
            Box::new(VecSource::new(
                fleet_schema(),
                vec![
                    rec(4.35, 180.0, 9.0), // speeding inside maint: drop
                    rec(4.35, 100.0, 2.0), // equipment inside maint: keep
                    rec(5.00, 180.0, 9.0), // speeding outside: keep
                    rec(5.00, 100.0, 9.0), // no alert: drop
                ],
            )),
            WatermarkStrategy::None,
        );
        let (mut sink, got) = CollectingSink::new();
        env.run(&q, &mut sink).unwrap();
        let alerts: Vec<String> = got
            .records()
            .iter()
            .map(|r| r.get(r.len() - 1).unwrap().as_text().unwrap().to_string())
            .collect();
        assert_eq!(alerts, vec!["equipment", "speeding"]);
    }

    #[test]
    fn within_stbox_predicate() {
        let reg = registry();
        let schema = fleet_schema();
        let bx = meos::boxes::STBox::from_coords(4.0, 5.0, 50.0, 51.0, None).unwrap();
        let e = within_stbox("pos", &bx);
        let (bound, t) = e.bind(&schema, &reg).unwrap();
        assert_eq!(t, DataType::Bool);
        let mk = |x: f64| {
            let mut v = vec![Value::Null; schema.len()];
            v[2] = Value::Point { x, y: 50.5 };
            Record::new(v)
        };
        assert_eq!(bound.eval(&mk(4.5)).unwrap(), Value::Bool(true));
        assert_eq!(bound.eval(&mk(9.0)).unwrap(), Value::Bool(false));
    }
}
