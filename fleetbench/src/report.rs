//! What a run prints and writes: one line per metric, the stamped JSON
//! result under `bench_results/`, and the final one-line JSON object the
//! driver reads.

use crate::e2e::Ops;
use crate::stats::Summary;
use crate::workloads::{
    Workload, BUFFER_SIZE, CHANNEL_CAPACITY, JITTER_WINDOW, PACED_RATE, PARALLELISM, SLACK_US,
    WATERMARK_EVERY,
};
use serde_json::{json, Map, Value};
use std::process::{Command, ExitCode};

/// Version of the stamped JSON result's layout.
pub const SCHEMA_VERSION: u32 = 1;

/// Directory (in the working directory) results and traces are written
/// to. The repository's `.gitignore` already names it.
pub const RESULTS_DIR: &str = "bench_results";

/// One reported metric.
pub struct Metric {
    name: String,
    unit: &'static str,
    summary: Summary,
}

impl Metric {
    /// A metric with its median, quartiles and sample count.
    pub fn new(name: impl Into<String>, unit: &'static str, summary: Summary) -> Metric {
        Metric {
            name: name.into(),
            unit,
            summary,
        }
    }
}

/// Collects a run's metrics and renders them.
pub struct Report {
    stamp: Map<String, Value>,
    name: String,
    metrics: Vec<Metric>,
    info: Vec<String>,
    ops: Ops,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

impl Report {
    /// Starts a report stamped with everything needed to reproduce it.
    pub fn new(workload: &Workload, seed: u64, seconds: u64, trace: bool) -> Report {
        let cells: Vec<String> = workload.cells.iter().map(|c| c.label()).collect();
        let stamp = json!({
            "schema_version": SCHEMA_VERSION,
            "workload": workload.name,
            "cells": cells,
            "dataset": workload.dataset.name(),
            "jitter_window": if workload.jitter { JITTER_WINDOW } else { 0 },
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "commit": command_line("git", &["rev-parse", "HEAD"]),
            "rustc": command_line("rustc", &["-V"]),
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "settings": {
                "buffer_size": BUFFER_SIZE,
                "watermark_every": WATERMARK_EVERY,
                "channel_capacity": CHANNEL_CAPACITY,
                "parallelism": PARALLELISM,
                "columnar": "Auto",
                "telemetry": "default (on)",
                "watermark": format!("BoundedOutOfOrder {{ ts, {} s }}", SLACK_US / 1_000_000),
                "paced_rate_eps": PACED_RATE,
                "profile": "release",
            },
        });
        let Value::Object(stamp) = stamp else {
            unreachable!("json!({{..}}) builds an object")
        };
        Report {
            stamp,
            name: format!(
                "fleetbench_{}{}",
                workload.name,
                if trace { "_trace" } else { "" }
            ),
            metrics: Vec::new(),
            info: Vec::new(),
            ops: Ops::default(),
        }
    }

    /// Adds a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Adds a line printed above the metrics.
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    /// Sets the operation counts and the outcome of the output check.
    pub fn ops(&mut self, ops: Ops) {
        self.ops = ops;
    }

    /// Writes `value` as `bench_results/<file>`.
    pub fn write_result(file: &str, value: &Value) -> std::io::Result<()> {
        std::fs::create_dir_all(RESULTS_DIR)?;
        let text = serde_json::to_string_pretty(value)?;
        std::fs::write(format!("{RESULTS_DIR}/{file}"), text)
    }

    /// Prints the report, writes the stamped result, and ends with the
    /// driver's JSON line. The exit code is non-zero when an output
    /// check failed.
    pub fn finish(self) -> ExitCode {
        for (key, value) in &self.stamp {
            println!("# {key}: {value}");
        }
        for line in &self.info {
            println!("# {line}");
        }
        let mut full = Map::new();
        let mut brief = Map::new();
        for m in &self.metrics {
            let s = m.summary;
            let spread = match s.n {
                1 => String::new(),
                n => format!(" n={n} q1={:.4} q3={:.4}", s.q1, s.q3),
            };
            println!("{:<44} {:>14.4} {:<6}{spread}", m.name, s.value, m.unit);
            full.insert(
                m.name.clone(),
                json!({
                    "value": s.value, "unit": m.unit, "n": s.n,
                    "q1": s.q1, "q3": s.q3, "mad": s.mad,
                }),
            );
            brief.insert(m.name.clone(), json!({"value": s.value, "unit": m.unit}));
        }
        for note in &self.ops.notes {
            println!("FAILED {note}");
        }
        println!(
            "ops_attempted {}  ops_failed {}  outputs {}",
            self.ops.attempted,
            self.ops.failed,
            if self.ops.correct { "correct" } else { "WRONG" }
        );

        let mut stamped = self.stamp;
        stamped.insert("metrics".into(), Value::Object(full));
        stamped.insert("ops_attempted".into(), json!(self.ops.attempted));
        stamped.insert("ops_failed".into(), json!(self.ops.failed));
        stamped.insert("correct".into(), json!(self.ops.correct));
        if let Err(e) =
            Report::write_result(&format!("{}.json", self.name), &Value::Object(stamped))
        {
            eprintln!(
                "fleetbench: cannot write {RESULTS_DIR}/{}.json: {e}",
                self.name
            );
            return ExitCode::FAILURE;
        }

        println!(
            "{}",
            json!({
                "correct": self.ops.correct,
                "attempted": self.ops.attempted.max(1),
                "failed": self.ops.failed,
                "metrics": Value::Object(brief),
            })
        );
        if self.ops.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
