//! Regenerates the paper's figures as data artifacts in `figures/`:
//!
//! - **Figure 1** (architecture): the sensor→edge→cloud topology with
//!   the edge-first operator placement, printed and saved as JSON.
//! - **Figure 2** (SNCB data visualization): train routes, zone
//!   overlays and sampled positions as GeoJSON.
//! - **Figure 3 a–h** (query visualizations): each demo query's alert
//!   stream as a GeoJSON feature collection a Deck.gl-style client can
//!   render directly.
//!
//! ```text
//! cargo run --release --example paper_figures
//! ```

use nebula::prelude::*;
use nebulameos::viz;
use serde_json::{json, Map};
use sncb::{FleetConfig, FleetSimulator};

fn main() {
    let out = std::path::Path::new("figures");
    std::fs::create_dir_all(out).expect("create figures/");
    let queries = nebulameos::all_demo_queries();

    // ------------------------------------------------------------------
    // Figure 1: architecture / topology with placement.
    // ------------------------------------------------------------------
    let (topo, sensors) = Topology::train_fleet(6);
    let plan = plan_placed(
        &queries[0].1,
        &topo,
        &sensors[..1],
        PlacementStrategy::EdgeFirst,
    )
    .unwrap();
    let placement = &plan.placements()[0];
    println!("Figure 1 — topology (6 trains):");
    for node in topo.nodes() {
        println!("  {:?} {}", node.kind, node.name);
    }
    println!(
        "  Q1 edge-first placement: {:?}",
        placement
            .stages
            .iter()
            .map(|n| topo.node(*n).name.clone())
            .collect::<Vec<_>>()
    );
    let fig1 = json!({
        "nodes": topo.nodes().iter().map(|n| json!({
            "name": n.name, "kind": format!("{:?}", n.kind),
        })).collect::<Vec<_>>(),
        "links": topo.links().iter().map(|l| json!({
            "from": topo.node(l.from).name,
            "to": topo.node(l.to).name,
            "bandwidth_mbps": l.bandwidth_mbps,
            "latency_ms": l.latency_ms,
        })).collect::<Vec<_>>(),
        "q1_placement": placement.stages.iter()
            .map(|n| topo.node(*n).name.clone()).collect::<Vec<_>>(),
    });
    viz::write_json(out.join("fig1_architecture.json"), &fig1).unwrap();

    // ------------------------------------------------------------------
    // Figure 2: the fleet dataset on the map.
    // ------------------------------------------------------------------
    eprintln!("simulating one demo hour for figures...");
    let sim = FleetSimulator::new(FleetConfig::demo_hour());
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();
    let schema = sncb::fleet_schema();

    let mut features: Vec<serde_json::Value> = Vec::new();
    // Routes as linestrings.
    for route in &net.routes {
        let mut props = Map::new();
        props.insert("route".into(), json!(route.name));
        props.insert("kind".into(), json!("route"));
        props.insert(
            "length_km".into(),
            json!((route.length_m() / 1000.0).round()),
        );
        features.push(viz::feature(&viz::line_geometry(&route.track), &props));
    }
    // Zones as polygons.
    for zone in &net.zones {
        let mut props = Map::new();
        props.insert("zone".into(), json!(zone.name));
        props.insert("kind".into(), json!(format!("{:?}", zone.kind)));
        features.push(viz::feature(&viz::zone_geometry(&zone.geometry), &props));
    }
    // Train positions sampled every 30 s.
    let sampled: Vec<Record> = records.iter().step_by(30 * 6).cloned().collect();
    features.extend(viz::records_to_features(&sampled, &schema, "pos"));
    let fig2 = viz::feature_collection(&features);
    viz::write_json(out.join("fig2_fleet.geojson"), &fig2).unwrap();
    println!(
        "Figure 2 — fleet map: {} routes, {} zones, {} position samples",
        net.routes.len(),
        net.zones.len(),
        sampled.len()
    );

    // ------------------------------------------------------------------
    // Figure 3 a–h: per-query alert visualizations.
    // ------------------------------------------------------------------
    // Position field in each query's *output* schema.
    let pos_fields = ["pos", "at", "pos", "pos", "pos", "at", "stop_pos", "pos"];
    let letters = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let slugs = [
        "alert_filtering",
        "noise_monitoring",
        "speed_monitoring",
        "weather_speed_zones",
        "battery_monitoring",
        "heavy_load",
        "unscheduled_stops",
        "brake_monitoring",
    ];

    for (i, (name, query)) in queries.into_iter().enumerate() {
        let mut env = sncb::demo::demo_environment_with(&net, weather.clone(), records.clone());
        let (mut sink, got) = CollectingSink::new();
        let metrics = env.run(&query, &mut sink).expect("query runs");
        let out_schema = compile(&query, schema.clone(), env.registry())
            .map(|p| p.output_schema)
            .unwrap_or_else(|_| schema.clone());
        let alerts = got.records();
        // Cap the artifact size; figures are illustrative.
        let cap: Vec<Record> = alerts.iter().take(2_000).cloned().collect();
        let features = viz::records_to_features(&cap, &out_schema, pos_fields[i]);
        let n = features.len();
        let doc = json!({
            "query": name,
            "records_in": metrics.records_in,
            "alerts": alerts.len(),
            "geojson": viz::feature_collection(&features),
        });
        let path = out.join(format!("fig3{}_{}.json", letters[i], slugs[i]));
        viz::write_json(&path, &doc).unwrap();
        println!(
            "Figure 3{} — {name}: {} alerts ({n} plotted) -> {}",
            letters[i],
            alerts.len(),
            path.display()
        );
    }
    println!("done; artifacts in figures/");
}
