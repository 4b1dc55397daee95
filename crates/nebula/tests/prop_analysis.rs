//! Property-based soundness tests for the pre-flight static analyzer.
//!
//! Random plans — including deliberately broken ones (unknown columns,
//! type mismatches, degenerate window geometry, narrowing projections
//! that drop the event-time field) — are analyzed and then actually
//! compiled and executed. The pinned properties:
//!
//! 1. **Soundness**: an analyzer-accepted plan compiles and runs clean
//!    in every single-process mode (`run`, `run_threaded`,
//!    `run_partitioned`).
//! 2. **Rejections are real**: an analyzer-rejected plan either fails
//!    to compile or crashes at runtime — never runs clean end to end.
//! 3. **Warnings never reject** and never change results.
//! 4. **One binder**: `compile` fails exactly when the schema pass
//!    reports an `E` code, with the first diagnostic's message.

use nebula::analysis::{analyze, AnalysisContext, AnalysisReport};
use nebula::prelude::*;
use proptest::prelude::*;

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("key", DataType::Int),
        ("v", DataType::Float),
        ("name", DataType::Text),
    ])
}

fn records() -> Vec<Record> {
    (0..120)
        .map(|i| {
            Record::new(vec![
                Value::Timestamp(i * MICROS_PER_SEC),
                Value::Int(i % 4),
                Value::Float((i % 17) as f64 - 8.0),
                Value::Text(format!("n{}", i % 3).into()),
            ])
        })
        .collect()
}

/// A deterministic decision tape: random plans are decoded from a
/// vector of seeds, so every shape is reachable and reproducible.
struct Tape {
    vals: Vec<u64>,
    pos: usize,
}

impl Tape {
    fn new(vals: Vec<u64>) -> Tape {
        Tape { vals, pos: 0 }
    }

    fn next(&mut self) -> u64 {
        let v = self.vals[self.pos % self.vals.len()];
        // Wrap with a stride so reuse of a short tape still varies.
        self.pos += 1;
        v.wrapping_add(self.pos as u64 * 0x9e37_79b9)
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random column reference; one in five names a missing column.
fn rand_col(t: &mut Tape) -> Expr {
    match t.pick(5) {
        0 => col("ts"),
        1 => col("key"),
        2 => col("v"),
        3 => col("name"),
        _ => col("missing"),
    }
}

fn rand_literal(t: &mut Tape) -> Expr {
    match t.pick(4) {
        0 => lit(t.pick(100) as i64),
        1 => lit(t.pick(100) as f64 / 7.0),
        2 => lit(t.pick(2) == 0),
        _ => lit("zone"),
    }
}

/// Random expressions, type errors included by construction.
fn rand_expr(t: &mut Tape, depth: u32) -> Expr {
    if depth == 0 {
        return if t.pick(2) == 0 {
            rand_col(t)
        } else {
            rand_literal(t)
        };
    }
    let l = rand_expr(t, depth - 1);
    let r = rand_expr(t, depth - 1);
    match t.pick(8) {
        0 => l.add(r),
        1 => l.sub(r),
        2 => l.mul(r),
        3 => l.gt(r),
        4 => l.lt(r),
        5 => l.eq(r),
        6 => l.and(r),
        _ => l.or(r),
    }
}

fn rand_agg(t: &mut Tape, i: usize) -> WindowAgg {
    let name = format!("a{i}");
    match t.pick(4) {
        0 => WindowAgg::new(name, AggSpec::Count),
        1 => WindowAgg::new(name, AggSpec::Sum(rand_col(t))),
        2 => WindowAgg::new(name, AggSpec::Avg(rand_col(t))),
        _ => WindowAgg::new(name, AggSpec::Max(rand_col(t))),
    }
}

/// Decodes a random 1–3 operator plan from the tape.
fn rand_query(t: &mut Tape) -> Query {
    let mut q = Query::from("s");
    let n_ops = 1 + t.pick(3);
    for _ in 0..n_ops {
        q = match t.pick(6) {
            0 | 1 => q.filter(rand_expr(t, 1)),
            2 => q.map_extend(vec![("x", rand_expr(t, 1))]),
            // A narrowing map: may drop "ts" ahead of a window (E008)
            // or the key columns ahead of a keyed stage.
            3 => q.map(vec![("key", col("key")), ("y", rand_expr(t, 1))]),
            4 => {
                let keys = if t.pick(2) == 0 {
                    vec![("key", col("key"))]
                } else {
                    vec![]
                };
                let spec = match t.pick(3) {
                    // size 0 is reachable: E007 territory.
                    0 => WindowSpec::Tumbling {
                        size: t.pick(3) as i64 * 30 * MICROS_PER_SEC,
                    },
                    1 => WindowSpec::Sliding {
                        size: 60 * MICROS_PER_SEC,
                        slide: (1 + t.pick(3)) as i64 * 30 * MICROS_PER_SEC,
                    },
                    _ => WindowSpec::Threshold {
                        predicate: rand_expr(t, 1),
                        min_count: 1 + t.pick(3) as usize,
                    },
                };
                let aggs = (0..1 + t.pick(2) as usize)
                    .map(|i| rand_agg(t, i))
                    .collect();
                q.window(keys, spec, aggs)
            }
            _ => q.cep(Pattern::new(
                "p",
                vec![PatternStep::new("step", rand_expr(t, 1))],
                t.pick(2) as i64 * 30 * MICROS_PER_SEC, // 0 reachable: E007.
            )),
        };
    }
    q
}

fn env() -> StreamEnvironment {
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 32,
        watermark_every: 2,
        parallelism: 2,
        ..EnvConfig::default()
    });
    env.add_source(
        "s",
        Box::new(VecSource::new(schema(), records())),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    env
}

fn analyze_local(q: &Query) -> AnalysisReport {
    let ctx = AnalysisContext {
        watermarks: vec![WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        }],
        ..AnalysisContext::local()
    };
    analyze(q, schema(), &FunctionRegistry::with_builtins(), &ctx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accepted_plans_run_clean_in_every_mode(seeds in proptest::collection::vec(0u64..u64::MAX, 4..24)) {
        let q = rand_query(&mut Tape::new(seeds));
        let report = analyze_local(&q);
        if report.has_errors() {
            return Ok(());
        }
        for mode in ["run", "run_threaded", "run_partitioned"] {
            let mut e = env();
            let (mut sink, _) = CollectingSink::new();
            let result = match mode {
                "run" => e.run(&q, &mut sink),
                "run_threaded" => e.run_threaded(&q, &mut sink),
                _ => e.run_partitioned(&q, &mut sink),
            };
            prop_assert!(
                result.is_ok(),
                "analyzer accepted {q:?} but {mode} failed: {:?}\nreport: {}",
                result.err(),
                report.render()
            );
        }
    }

    #[test]
    fn rejected_plans_never_run_clean(seeds in proptest::collection::vec(0u64..u64::MAX, 4..24)) {
        let q = rand_query(&mut Tape::new(seeds));
        let report = analyze_local(&q);
        if !report.has_errors() {
            return Ok(());
        }
        let mut e = env();
        let (mut sink, _) = CollectingSink::new();
        let result = e.run(&q, &mut sink);
        prop_assert!(
            result.is_err(),
            "analyzer rejected {q:?} but it ran clean\nreport: {}",
            report.render()
        );
    }

    #[test]
    fn compile_fails_exactly_where_analysis_errs(seeds in proptest::collection::vec(0u64..u64::MAX, 4..24)) {
        let q = rand_query(&mut Tape::new(seeds));
        let report = analyze_local(&q);
        let compiled = compile(&q, schema(), &FunctionRegistry::with_builtins());
        let first = report.errors().next();
        match (compiled.err(), first) {
            (None, None) => {}
            (Some(NebulaError::Type(m) | NebulaError::Plan(m)), Some(first)) => {
                prop_assert_eq!(&m, &first.message, "{:?}\nreport: {}", q, report.render());
            }
            (err, _) => prop_assert!(
                false,
                "compile gave {err:?} for {q:?}\nreport: {}",
                report.render()
            ),
        }
    }

    #[test]
    fn preflight_rejection_is_the_analysis_error(seeds in proptest::collection::vec(0u64..u64::MAX, 4..24)) {
        // The run entry points reject with the typed AnalysisError and
        // the offline analyzer agrees with the preflight verdict.
        let q = rand_query(&mut Tape::new(seeds));
        let e = env();
        let preflight = e.analyze(&q).expect("source registered");
        let offline = analyze_local(&q);
        prop_assert_eq!(preflight.has_errors(), offline.has_errors());
        if preflight.has_errors() {
            let mut e = env();
            let (mut sink, _) = CollectingSink::new();
            match e.run(&q, &mut sink) {
                Err(NebulaError::Analysis(ae)) => prop_assert!(!ae.diagnostics.is_empty()),
                other => prop_assert!(false, "expected Analysis rejection, got {other:?}"),
            }
        }
    }
}

#[test]
fn warnings_do_not_reject_or_change_results() {
    // A keyless window under partitioned execution: W010 fires, the
    // plan still runs, and results match the single-threaded run.
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    );
    let mut e1 = env();
    e1.config_mut().telemetry.enabled = true;
    let (mut s1, r1) = CollectingSink::new();
    e1.run_partitioned(&q, &mut s1).expect("warned plan runs");
    let report = e1.last_report().expect("telemetry on");
    assert!(
        report
            .analysis
            .iter()
            .any(|d| d.code == Code::PartitionFallback),
        "W010 lands in the query report: {:?}",
        report.analysis
    );

    let mut e2 = env();
    let (mut s2, r2) = CollectingSink::new();
    e2.run(&q, &mut s2).expect("baseline runs");
    let mut partitioned = r1.records();
    normalize_records(&mut partitioned);
    let mut baseline = r2.records();
    normalize_records(&mut baseline);
    assert_eq!(partitioned, baseline, "warning changed nothing");
}
