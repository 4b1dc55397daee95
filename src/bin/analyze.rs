//! Static pre-flight analysis of the demo queries — no execution.
//!
//! Runs every Q1–Q8 plan through `nebula::analysis` under each
//! execution target (local, partitioned ×4, placed edge-first) and
//! prints the diagnostics with per-plan analysis cost. Exits nonzero
//! if any plan produces an error-severity diagnostic, so CI can gate
//! on the demo suite staying clean.
//!
//! ```text
//! cargo run --release --bin analyze [-- --json]
//! ```

use nebula::prelude::{
    AnalysisReport, ClusterEnvironment, PlacementStrategy, StreamEnvironment, Target,
};
use sncb::{FleetConfig, FleetSimulator};

struct Analyzed {
    query: &'static str,
    target: &'static str,
    report: AnalysisReport,
}

fn analyze_all(env: &StreamEnvironment, cluster: &ClusterEnvironment) -> Vec<Analyzed> {
    let mut out = Vec::new();
    for (name, query) in nebulameos::all_demo_queries() {
        let targets: [(&'static str, AnalysisReport); 3] = [
            ("local", env.analyze(&query).expect("source is registered")),
            (
                "partitioned(4)",
                env.analyze_for(&query, Target::Partitioned { parallelism: 4 })
                    .expect("source is registered"),
            ),
            (
                "placed(edge-first)",
                cluster
                    .analyze(&query, PlacementStrategy::EdgeFirst)
                    .expect("source is hosted"),
            ),
        ];
        for (target, report) in targets {
            out.push(Analyzed {
                query: name,
                target,
                report,
            });
        }
    }
    out
}

fn print_text(results: &[Analyzed]) {
    let mut slowest = 0u64;
    for r in results {
        let status = if r.report.has_errors() {
            "REJECTED"
        } else if r.report.is_clean() {
            "clean"
        } else {
            "warnings"
        };
        println!(
            "{:<26} {:<20} {:>8}  {:>5} µs",
            r.query, r.target, status, r.report.elapsed_us
        );
        for line in r.report.render().lines() {
            println!("    {line}");
        }
        slowest = slowest.max(r.report.elapsed_us);
    }
    println!(
        "\n{} plan/target combinations analyzed; slowest {slowest} µs",
        results.len()
    );
}

fn print_json(results: &[Analyzed]) {
    let plans: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::json!({
                "query": r.query,
                "target": r.target,
                "report": r.report.to_json(),
            })
        })
        .collect();
    let doc = serde_json::json!({ "plans": plans });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serializes")
    );
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    // Analysis never executes the plan; one simulated minute is only
    // needed for the source schemas and loaded plugins.
    let sim = FleetSimulator::new(FleetConfig::test_minutes(1));
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();
    let env = sncb::demo::demo_environment_with(&net, weather.clone(), records.clone());
    let cluster = sncb::demo::demo_cluster_with(&net, weather, records);
    let results = analyze_all(&env, &cluster);

    if json {
        print_json(&results);
    } else {
        print_text(&results);
    }

    let errors: usize = results.iter().map(|r| r.report.errors().count()).sum();
    if errors > 0 {
        eprintln!("{errors} error diagnostic(s) across the demo suite");
        std::process::exit(1);
    }
}
