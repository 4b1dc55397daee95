//! Demo wiring: connects the simulated SNCB deployment to the
//! NebulaMEOS query context — zone inventory extraction, the weather
//! provider implementation, and one-call local and cluster environment
//! builders used by the examples, integration tests and benchmarks.

use crate::network::{RailNetwork, ZoneKind};
use crate::stream::{fleet_schema, FleetConfig, FleetSimulator};
use crate::weather::WeatherField;
use meos::geo::Point;
use meos::time::TimestampTz;
use nebula::prelude::{
    ClusterEnvironment, Record, StreamEnvironment, Topology, VecSource, WatermarkStrategy,
    MICROS_PER_SEC,
};
use nebulameos::{register_meos_codecs, DemoContext, DemoZones, MeosPlugin, WeatherProvider};
use std::sync::Arc;

impl WeatherProvider for WeatherField {
    fn speed_factor(&self, pos: Point, t_micros: i64) -> f64 {
        self.condition_at(&pos, TimestampTz::from_micros(t_micros))
            .speed_factor()
    }
}

/// Extracts the query-side zone inventory from the simulated network.
pub fn demo_zones(net: &RailNetwork) -> DemoZones {
    let collect = |kind: ZoneKind| {
        net.zones_of(kind)
            .map(|z| (z.name.clone(), z.geometry.clone()))
            .collect::<Vec<_>>()
    };
    DemoZones {
        maintenance: collect(ZoneKind::Maintenance),
        noise_sensitive: collect(ZoneKind::NoiseSensitive),
        high_risk: net
            .zones_of(ZoneKind::HighRiskCurve)
            .map(|z| {
                (
                    z.name.clone(),
                    z.geometry.clone(),
                    z.speed_limit_kmh.unwrap_or(80.0),
                )
            })
            .collect(),
        station_areas: collect(ZoneKind::StationArea),
        workshops: collect(ZoneKind::Workshop),
    }
}

/// Builds a fully wired environment over a fresh simulation: MEOS plugin,
/// zone/weather context, and the `fleet` source (pre-materialized for
/// reproducible throughput measurement). Returns the environment plus the
/// record count.
pub fn demo_environment(cfg: FleetConfig) -> (StreamEnvironment, usize) {
    let sim = FleetSimulator::new(cfg);
    let net = sim.network();
    let weather = Arc::new(sim.weather().clone());
    let records = sim.into_records();
    let n = records.len();
    let mut env = StreamEnvironment::new();
    env.load_plugin(&MeosPlugin).expect("meos plugin");
    env.load_plugin(&DemoContext::new(demo_zones(&net)).with_weather(weather))
        .expect("demo context");
    env.add_source(
        "fleet",
        Box::new(VecSource::new(fleet_schema(), records)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    (env, n)
}

/// Like [`demo_environment`] but over pre-generated records (benchmarks
/// re-run queries over one materialized dataset).
pub fn demo_environment_with(
    net: &RailNetwork,
    weather: WeatherField,
    records: Vec<Record>,
) -> StreamEnvironment {
    let mut env = StreamEnvironment::new();
    env.load_plugin(&MeosPlugin).expect("meos plugin");
    env.load_plugin(&DemoContext::new(demo_zones(net)).with_weather(Arc::new(weather)))
        .expect("demo context");
    env.add_source(
        "fleet",
        Box::new(VecSource::new(fleet_schema(), records)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    env
}

/// The cluster counterpart of [`demo_environment_with`]: a one-train
/// sensors→edge→cloud [`Topology::train_fleet`] with the MEOS plugin,
/// the zone/weather context and the MEOS wire codecs loaded, and the
/// `fleet` source hosted on the train's sensor node.
pub fn demo_cluster_with(
    net: &RailNetwork,
    weather: WeatherField,
    records: Vec<Record>,
) -> ClusterEnvironment {
    let (topo, sensors) = Topology::train_fleet(1);
    let mut env = ClusterEnvironment::new(topo);
    env.load_plugin(&MeosPlugin).expect("meos plugin");
    env.load_plugin(&DemoContext::new(demo_zones(net)).with_weather(Arc::new(weather)))
        .expect("demo context");
    register_meos_codecs(env.wire_registry_mut());
    env.add_source(
        "fleet",
        sensors[0],
        Box::new(VecSource::new(fleet_schema(), records)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use nebula::prelude::CollectingSink;

    #[test]
    fn demo_environment_runs_a_query() {
        let (mut env, n) = demo_environment(FleetConfig::test_minutes(2));
        assert_eq!(n, 720);
        let q = nebulameos::q3_dynamic_speed_limit();
        let (mut sink, _) = CollectingSink::new();
        let m = env.run(&q, &mut sink).unwrap();
        assert_eq!(m.records_in, 720);
    }

    #[test]
    fn zones_extracted_per_kind() {
        let net = RailNetwork::belgium();
        let z = demo_zones(&net);
        assert_eq!(z.maintenance.len(), 3);
        assert_eq!(z.workshops.len(), 4);
        assert_eq!(z.noise_sensitive.len(), 3);
        assert_eq!(z.station_areas.len(), 14);
        assert!(!z.high_risk.is_empty());
    }

    #[test]
    fn weather_provider_adapts_field() {
        let f = WeatherField::new(1);
        let factor = WeatherProvider::speed_factor(&f, Point::new(4.35, 50.85), 0);
        assert!((0.4..=1.0).contains(&factor));
    }
}
