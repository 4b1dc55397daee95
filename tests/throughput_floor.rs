//! Throughput-floor smoke test: on multi-core hardware, the partitioned
//! runtime must not fall below the single-threaded rate on the canonical
//! keyed-window query. This is the regression guard for the
//! buffer-granularity routing path — per-record routing historically
//! cost par4 ~30% of the single-threaded rate in added router work.
//!
//! The comparison only makes sense where parallel hardware exists and
//! timings mean something:
//! - **Debug builds skip.** Unoptimized rates are dominated by overhead
//!   the release path doesn't have, so the floor would test noise.
//! - **The pool is sized to the host**: `min(4, cores - 1)` workers,
//!   because `run_partitioned(n)` is n + 1 busy threads (the dispatcher
//!   polls, routes and runs the sink). Asserting par4 on a 2-core host
//!   pitted five threads against two cores and failed there for that
//!   reason alone.
//! - **Hosts that leave fewer than 2 workers skip** (1–2 cores): one
//!   worker is no data parallelism at all (a one-partition run routes
//!   everything to it), and on a single core the pool time-slices the
//!   dispatcher's CPU while adding routing + merge work on top of the
//!   identical per-record work (see docs/execution.md).

use nebula::prelude::*;
use sncb::{FleetConfig, FleetSimulator};

/// A per-train tumbling-window speed/load profile, hash-partitioned by
/// `train_id` under `run_partitioned`.
fn keyed_window_query() -> Query {
    Query::from("fleet").window(
        vec![("train", col("train_id"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed_kmh"))),
            WindowAgg::new("max_passengers", AggSpec::Max(col("passengers"))),
        ],
    )
}

#[test]
fn partitioned_sustains_single_threaded_rate() {
    if cfg!(debug_assertions) {
        eprintln!("skipping throughput floor: debug build (run with --release)");
        return;
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let workers = cores.saturating_sub(1).min(4);
    if workers < 2 {
        eprintln!(
            "skipping throughput floor: {cores} core(s) leave {workers} pool worker(s) \
             beside the dispatcher"
        );
        return;
    }

    // One demo hour at 250 ms ticks (~86k events).
    let sim = FleetSimulator::new(FleetConfig {
        tick: meos::time::TimeDelta::from_millis(250),
        ..FleetConfig::demo_hour()
    });
    let net = sim.network();
    let weather = sim.weather().clone();
    let records = sim.into_records();
    let q = keyed_window_query();
    let rate = |parallelism: usize| -> f64 {
        // Best of 3 runs: the floor guards against structural regressions,
        // not scheduler noise.
        (0..3)
            .map(|_| {
                let mut env =
                    sncb::demo::demo_environment_with(&net, weather.clone(), records.clone());
                let (mut sink, _) = CountingSink::new();
                let m = if parallelism == 0 {
                    env.run(&q, &mut sink).expect("single run")
                } else {
                    env.config_mut().parallelism = parallelism;
                    env.run_partitioned(&q, &mut sink).expect("partitioned run")
                };
                m.events_per_sec()
            })
            .fold(0.0, f64::max)
    };

    let single = rate(0);
    let partitioned = rate(workers);
    assert!(
        partitioned >= single,
        "throughput floor violated on a {cores}-core host: \
         par{workers} {:.1} Ke/s < single-threaded {:.1} Ke/s",
        partitioned / 1e3,
        single / 1e3
    );
}
