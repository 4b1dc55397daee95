//! `fleetbench`: one seeded benchmark for throughput, event-time
//! latency and uplink over the demo queries, with a per-layer traced
//! run. See `README.md` beside this crate for every definition.

pub mod check;
pub mod e2e;
pub mod engine;
pub mod layers;
pub mod paced;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
