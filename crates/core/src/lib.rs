//! # nebulameos — mobility stream processing on nebula and meos
//!
//! The Rust reproduction of the SIGMOD 2025 demonstration *"Mobility
//! Stream Processing on NebulaStream and MEOS"*: the [`meos`]
//! spatiotemporal library integrated into the [`nebula`] stream engine
//! through the engine's plugin mechanisms.
//!
//! - [`values`] — MEOS values (temporal points/floats, geometries,
//!   boxes) carried opaquely through engine tuples.
//! - [`functions`] — the [`functions::MeosPlugin`]: `edwithin`,
//!   `tpoint_at_stbox` and friends registered as engine expressions
//!   (the paper's `MeosAtStbox_Expression` integration point).
//! - [`stwindow`] — spatiotemporal windows: tumbling/sliding/threshold
//!   windows whose aggregate *is* a MEOS sequence.
//! - [`geofence`] — fence sets as predicate functions + an enter/leave
//!   event operator.
//! - [`trajectory`] — streaming trajectory assembly and real-time
//!   imputation (gap filling under watermarks).
//! - [`queries`] — the paper's eight demo queries (geofencing Q1–Q4,
//!   geospatial CEP Q5–Q8) as ready query builders over the fleet
//!   schema.
//! - [`viz`] — GeoJSON export replacing the Deck.gl visualization.
//!
//! ## Quick example
//!
//! ```
//! use nebula::prelude::*;
//! use nebulameos::functions::{geom, MeosPlugin};
//! use meos::geo::{Geometry, Point};
//!
//! let mut env = StreamEnvironment::new();
//! env.load_plugin(&MeosPlugin).unwrap();
//!
//! let schema = Schema::of(&[
//!     ("ts", DataType::Timestamp),
//!     ("train_id", DataType::Int),
//!     ("pos", DataType::Point),
//! ]);
//! let records = vec![
//!     Record::new(vec![Value::Timestamp(0), Value::Int(1),
//!                      Value::Point { x: 4.35, y: 50.85 }]),
//!     Record::new(vec![Value::Timestamp(1), Value::Int(1),
//!                      Value::Point { x: 5.00, y: 50.00 }]),
//! ];
//! env.add_source("fleet", Box::new(VecSource::new(schema, records)),
//!                WatermarkStrategy::None);
//!
//! // Geofence filter via the registered MEOS expression.
//! let fence = Geometry::Circle { center: Point::new(4.35, 50.85), radius: 500.0 };
//! let q = Query::from("fleet")
//!     .filter(call("st_contains", vec![geom(fence), col("pos")]));
//! let (mut sink, results) = CollectingSink::new();
//! env.run(&q, &mut sink).unwrap();
//! assert_eq!(results.len(), 1);
//! ```

pub mod functions;
pub mod geofence;
pub mod knearest;
pub mod queries;
pub mod stwindow;
pub mod trajectory;
pub mod values;
pub mod viz;
pub mod wire;

pub use functions::{geom, meos_capabilities, meos_registry, point_lit, stbox, MeosPlugin};
pub use geofence::{Geofence, GeofenceEventsFactory, GeofenceSet};
pub use knearest::KNearestFactory;
pub use queries::{
    all_demo_queries, q1_alert_filtering, q2_noise_monitoring, q3_dynamic_speed_limit,
    q4_weather_speed_zones, q5_battery_monitoring, q6_heavy_load, q7_unscheduled_stops,
    q8_brake_monitoring, within_stbox, DemoContext, DemoZones, WeatherProvider, FLEET_FIELDS,
    FLEET_STREAM,
};
pub use stwindow::{TFloatSeqAgg, TrajectoryAgg};
pub use trajectory::{ImputationFactory, TrajectoryBuilderFactory};
pub use values::{
    as_geometry, as_meos_ts, as_point, as_stbox, as_tfloat, as_tpoint, geometry_value, stbox_value,
    tfloat_value, tpoint_value, GeometryValue, STBoxValue, TFloatValue, TPointValue,
};
pub use wire::{meos_wire_registry, register_meos_codecs};

#[cfg(test)]
pub(crate) mod testing {
    use nebula::prelude::{Operator, Record, RecordBuffer, SchemaRef, StreamMessage};

    /// Snapshots `op`, then feeds `rest` and end-of-stream to the
    /// original and to the copy: both must emit the same rows. Returns
    /// them (non-empty, so the comparison means something).
    pub(crate) fn assert_snapshot_resumes(
        op: &mut dyn Operator,
        input: &SchemaRef,
        rest: &[Record],
    ) -> Vec<Record> {
        let mut copy = op.snapshot().expect("operator snapshots");
        let feed = |op: &mut dyn Operator| {
            let mut out = Vec::new();
            op.process(RecordBuffer::new(input.clone(), rest.to_vec()), &mut out)
                .expect("process");
            op.on_eos(&mut out).expect("eos");
            out.iter()
                .filter_map(|m| match m {
                    StreamMessage::Data(b) => Some(b.records().to_vec()),
                    _ => None,
                })
                .flatten()
                .collect::<Vec<_>>()
        };
        let original = feed(op);
        assert_eq!(feed(copy.as_mut()), original, "the copy diverged");
        assert!(!original.is_empty(), "the rest of the stream emits rows");
        original
    }
}
