//! The demo context's typed point kernels against the per-row loop.
//!
//! Every `DemoContext` point function overrides
//! `ScalarFunction::invoke_columnar` with a typed loop over a null-free
//! `Column::Point` (and, for the weather factor, a null-free
//! `Column::Timestamp`), falling back to `invoke_rows` for every other
//! argument shape. Each function here runs both ways over fleet-shaped
//! buffers, zone probes, filtered and gathered buffers, NaN and
//! infinite coordinates, null positions and timestamps, a boxed
//! `Column::Values` position column, a literal point and an empty
//! buffer: the results must agree row for row, bit for bit, and a
//! failing row must fail both with the same error. The same calls bound
//! into expressions must also agree with the per-record evaluator.

use meos::geo::Metric;
use meos::time::TimeDelta;
use nebula::prelude::*;
use nebulameos::{DemoContext, MeosPlugin};
use sncb::{demo_zones, fleet_schema, FleetConfig, FleetSimulator};
use std::sync::Arc;

/// The point functions the demo context registers, with their argument
/// counts (the weather factor also reads `ts`).
const FUNCTIONS: [(&str, usize); 8] = [
    ("in_maintenance", 1),
    ("in_noise_zone", 1),
    ("in_station_area", 1),
    ("in_workshop", 1),
    ("risk_speed_limit", 1),
    ("nearest_workshop_m", 1),
    ("nearest_workshop_name", 1),
    ("weather_speed_factor", 2),
];

const TS: usize = 0;
const POS: usize = 2;

/// The fleet dataset's shape (24 trains, 250 ms ticks, 1 024-row
/// buffers), cut to two minutes, with the registry its queries bind
/// against.
struct Fixture {
    registry: FunctionRegistry,
    records: Vec<Record>,
    /// One point inside or at the edge of every zone: bbox centres and
    /// corners.
    probes: Vec<(f64, f64)>,
}

fn fixture() -> Fixture {
    let sim = FleetSimulator::new(FleetConfig {
        num_trains: 24,
        tick: TimeDelta::from_millis(250),
        duration: TimeDelta::from_minutes(2),
        ..FleetConfig::demo_hour()
    });
    let net = sim.network();
    let weather = Arc::new(sim.weather().clone());
    let zones = demo_zones(&net);
    let mut registry = FunctionRegistry::with_builtins();
    registry.load_plugin(&MeosPlugin).unwrap();
    let mut probes = Vec::new();
    let geoms = zones
        .maintenance
        .iter()
        .chain(&zones.noise_sensitive)
        .chain(&zones.station_areas)
        .chain(&zones.workshops)
        .map(|(_, g)| g)
        .chain(zones.high_risk.iter().map(|(_, g, _)| g));
    for g in geoms {
        let (x0, y0, x1, y1) = g.bbox(Metric::Haversine);
        probes.extend([((x0 + x1) / 2.0, (y0 + y1) / 2.0), (x0, y0), (x1, y1)]);
    }
    registry
        .load_plugin(&DemoContext::new(zones).with_weather(weather))
        .unwrap();
    Fixture {
        registry,
        records: sim.into_records(),
        probes,
    }
}

/// A fleet record at `(x, y)` and `ts` (other fields as in `template`).
fn at(template: &Record, pos: Value, ts: Value) -> Record {
    let mut values: Vec<Value> = template.values().to_vec();
    values[POS] = pos;
    values[TS] = ts;
    Record::new(values)
}

fn buffer(records: &[Record]) -> TupleBuffer {
    TupleBuffer::from_records(fleet_schema(), records, BufferMeta::default())
}

/// Equal values of equal runtime type, floats by bit pattern.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.data_type() == b.data_type() && a == b,
    }
}

/// `f`'s kernel and `invoke_rows` over `args`: the same column, or the
/// same error. Returns whether the call succeeded.
fn assert_kernel_matches_rows(f: &dyn ScalarFunction, args: &[ColumnArg<'_>], rows: usize) -> bool {
    let ret = f
        .return_type(&[DataType::Point, DataType::Timestamp][..f.min_args()])
        .unwrap();
    let name = f.name();
    match (
        f.invoke_columnar(args, ret, rows),
        invoke_rows(f, args, ret, rows),
    ) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.len(), rows, "{name}: kernel rows");
            assert_eq!(want.len(), rows, "{name}: row-loop rows");
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "{name}: layout"
            );
            for i in 0..rows {
                let (g, w) = (got.value_at(i), want.value_at(i));
                assert!(same_value(&g, &w), "{name} row {i}: {g} vs {w}");
            }
            true
        }
        (Err(got), Err(want)) => {
            assert!(matches!(got, NebulaError::Eval(_)), "{name}: {got}");
            assert_eq!(got.to_string(), want.to_string(), "{name}: error");
            false
        }
        (got, want) => panic!("{name}: kernel {got:?} vs row loop {want:?}"),
    }
}

/// Every function over `buf`'s `pos` (and `ts`) columns, through the
/// trait and through a bound call expression; returns how many
/// functions succeeded.
fn check_buffer(fx: &Fixture, buf: &TupleBuffer) -> usize {
    let schema = fleet_schema();
    let mut ok = 0;
    for (name, arity) in FUNCTIONS {
        let f = fx.registry.get(name).unwrap();
        let cols = [buf.column(POS).unwrap(), buf.column(TS).unwrap()];
        let args: Vec<ColumnArg<'_>> = cols[..arity].iter().map(|c| ColumnArg::Column(c)).collect();
        let succeeded = assert_kernel_matches_rows(f.as_ref(), &args, buf.len());
        ok += usize::from(succeeded);

        let operands = [col("pos"), col("ts")][..arity].to_vec();
        let (bound, _) = call(name, operands).bind(&schema, &fx.registry).unwrap();
        let rows: Vec<Result<Value>> = (0..buf.len()).map(|i| bound.eval(&buf.row(i))).collect();
        match bound.eval_column(buf) {
            Ok(c) => {
                assert!(succeeded, "{name}: expression succeeded, call failed");
                for (i, want) in rows.iter().enumerate() {
                    let want = want.as_ref().unwrap();
                    let got = c.value_at(i);
                    assert!(
                        same_value(&got, want),
                        "{name} expr row {i}: {got} vs {want}"
                    );
                }
            }
            Err(e) => {
                assert!(!succeeded, "{name}: expression failed, call succeeded");
                let first = rows.iter().find_map(|r| r.as_ref().err()).unwrap();
                assert_eq!(e.to_string(), first.to_string(), "{name}: expr error");
            }
        }
    }
    ok
}

#[test]
fn kernels_match_row_loop_on_fleet_buffers() {
    let fx = fixture();
    assert_eq!(fx.records.len(), 24 * 4 * 120);
    for chunk in fx.records.chunks(1024) {
        let buf = buffer(chunk);
        assert_eq!(check_buffer(&fx, &buf), FUNCTIONS.len());
        // A filtered and a gathered buffer: planes rebuilt by index.
        let mask: Vec<bool> = (0..buf.len()).map(|i| i % 3 != 1).collect();
        assert_eq!(check_buffer(&fx, &buf.filter(&mask)), FUNCTIONS.len());
        let rev: Vec<usize> = (0..buf.len()).rev().step_by(2).collect();
        assert_eq!(check_buffer(&fx, &buf.gather(&rev)), FUNCTIONS.len());
    }
}

#[test]
fn kernels_match_row_loop_at_zone_probes() {
    let fx = fixture();
    let template = &fx.records[0];
    let hour = 3_600 * MICROS_PER_SEC;
    // Every probe at every third hour of a day: fog and dry hours both.
    let recs: Vec<Record> = fx
        .probes
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            let ts = template.get(TS).unwrap().as_timestamp().unwrap();
            at(
                template,
                Value::Point { x, y },
                Value::Timestamp(ts + (i as i64 % 8) * 3 * hour),
            )
        })
        .collect();
    let buf = buffer(&recs);
    assert_eq!(check_buffer(&fx, &buf), FUNCTIONS.len());
    // The probes reach the zones: each containment function is true
    // somewhere and a risk limit applies somewhere.
    for name in [
        "in_maintenance",
        "in_noise_zone",
        "in_station_area",
        "in_workshop",
    ] {
        let f = fx.registry.get(name).unwrap();
        let c = f
            .invoke_columnar(
                &[ColumnArg::Column(buf.column(POS).unwrap())],
                DataType::Bool,
                buf.len(),
            )
            .unwrap();
        assert!(
            (0..c.len()).any(|i| c.value_at(i) == Value::Bool(true)),
            "{name} never true"
        );
    }
}

#[test]
fn kernels_match_row_loop_on_non_finite_coordinates() {
    let fx = fixture();
    let template = &fx.records[0];
    let odd = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        4.35,
        50.85,
        -0.0,
    ];
    let mut recs = Vec::new();
    for &x in &odd {
        for &y in &odd {
            recs.push(at(
                template,
                Value::Point { x, y },
                template.get(TS).unwrap().clone(),
            ));
        }
    }
    assert_eq!(check_buffer(&fx, &buffer(&recs)), FUNCTIONS.len());
}

#[test]
fn null_position_fails_both_ways() {
    let fx = fixture();
    let mut recs = fx.records[..300].to_vec();
    recs[117] = at(&recs[117], Value::Null, recs[117].get(TS).unwrap().clone());
    let buf = buffer(&recs);
    assert!(buf.column(POS).unwrap().is_null(117));
    // Every function but none succeeds: the row loop fails at row 117.
    assert_eq!(check_buffer(&fx, &buf), 0);
}

#[test]
fn null_timestamp_reads_as_zero() {
    let fx = fixture();
    let mut recs = fx.records[..300].to_vec();
    recs[42] = at(&recs[42], recs[42].get(POS).unwrap().clone(), Value::Null);
    let buf = buffer(&recs);
    assert!(buf.column(TS).unwrap().is_null(42));
    assert_eq!(check_buffer(&fx, &buf), FUNCTIONS.len());
    let f = fx.registry.get("weather_speed_factor").unwrap();
    let c = f
        .invoke_columnar(
            &[
                ColumnArg::Column(buf.column(POS).unwrap()),
                ColumnArg::Column(buf.column(TS).unwrap()),
            ],
            DataType::Float,
            buf.len(),
        )
        .unwrap();
    let at_zero = f
        .invoke(&[recs[42].get(POS).unwrap().clone(), Value::Timestamp(0)])
        .unwrap();
    assert!(same_value(&c.value_at(42), &at_zero));
}

#[test]
fn boxed_position_column_takes_the_row_loop() {
    let fx = fixture();
    let buf = buffer(&fx.records[..500]);
    let boxed = Column::Values(
        (0..buf.len())
            .map(|i| buf.column(POS).unwrap().value_at(i))
            .collect(),
    );
    let mut columns = buf.columns().to_vec();
    columns[POS] = boxed;
    let boxed_buf = TupleBuffer::new(fleet_schema(), columns, BufferMeta::default());
    assert_eq!(check_buffer(&fx, &boxed_buf), FUNCTIONS.len());
    // A boxed column holding a non-point fails both ways.
    let mut columns = buf.columns().to_vec();
    let mut vals: Vec<Value> = (0..buf.len())
        .map(|i| buf.column(POS).unwrap().value_at(i))
        .collect();
    vals[250] = Value::Int(7);
    columns[POS] = Column::Values(vals);
    let bad = TupleBuffer::new(fleet_schema(), columns, BufferMeta::default());
    assert_eq!(check_buffer(&fx, &bad), 0);
}

#[test]
fn literal_point_takes_the_row_loop() {
    let fx = fixture();
    let buf = buffer(&fx.records[..64]);
    for (x, y) in fx.probes.iter().copied().chain([(f64::NAN, 50.0)]) {
        let p = Value::Point { x, y };
        for (name, arity) in FUNCTIONS {
            let f = fx.registry.get(name).unwrap();
            let ts = ColumnArg::Column(buf.column(TS).unwrap());
            let args = [ColumnArg::Literal(&p), ts];
            assert!(assert_kernel_matches_rows(
                f.as_ref(),
                &args[..arity],
                buf.len()
            ));
        }
    }
    // A literal null position fails both ways.
    for (name, arity) in FUNCTIONS {
        let f = fx.registry.get(name).unwrap();
        let args = [
            ColumnArg::Literal(&Value::Null),
            ColumnArg::Literal(&Value::Timestamp(0)),
        ];
        assert!(!assert_kernel_matches_rows(f.as_ref(), &args[..arity], 3));
    }
}

#[test]
fn empty_buffer_gives_empty_columns() {
    let fx = fixture();
    let buf = buffer(&[]);
    assert_eq!(buf.len(), 0);
    assert_eq!(check_buffer(&fx, &buf), FUNCTIONS.len());
}
