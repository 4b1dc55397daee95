//! The local rows of the test matrix (`tests/common`): every catalog
//! plan through the three configurations of the local executor — `run`,
//! `run_threaded`, and the work-stealing `run_partitioned` at
//! parallelism 1, 2 and 4 — against `run`, at each feed's default
//! config and over the batch-size × columnar-mode sweep. The
//! partitioned executor completes tasks out of order and releases
//! output in frontier order through its emission ledger, with no
//! post-hoc global sort, so default cells compare rows in `run`'s raw
//! delivery order. The hand-written checks below pin delivery layout
//! and timing, late drops, and telemetry conservation.

#[macro_use]
mod common;

use common::catalog::composite;
use common::matrix::{assert_conserved, execute, list_every_cell, run_owned, Config, Entry, LOCAL};
use common::*;
use nebula::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn matrix_lists_every_cell() {
    assert!(list_every_cell() > 0);
}

matrix_rows!(
    catalog_plans_match_run_in_every_local_mode,
    catalog_sweeps_match_run_in_every_local_mode,
    filter_equivalence,
    map_equivalence,
    map_extend_equivalence,
    tumbling_window_equivalence,
    sliding_window_equivalence,
    keyless_window_equivalence,
    threshold_window_equivalence,
    cep_equivalence,
    plugin_operator_equivalence,
    keyed_cep_then_keyless_window_equivalence,
    batched_filter_matrix,
    batched_map_matrix,
    batched_filter_map_matrix,
    batched_fleet_nulls_matrix,
    batched_tumbling_window_matrix,
    batched_sliding_window_matrix,
    batched_keyless_window_matrix,
    batched_threshold_window_matrix,
    batched_cep_matrix,
    batched_plugin_matrix,
    batched_composite_matrix,
    stateful_cep_matrix,
    stateful_threshold_matrix,
    stateful_time_window_matrix,
    stateful_errors_match_across_paths,
    auto_mode_matches_forced_paths,
);

#[test]
fn composite_pipeline_equivalence() {
    let q = composite(vec![WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh")))]);
    assert!(
        matches!(q.partition_scheme(), PartitionScheme::Key(_)),
        "safe prefix keeps key routing"
    );
    run_owned("composite_pipeline_equivalence");
}

fn keyed_count(secs: i64) -> Query {
    Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: secs * MICROS_PER_SEC,
        },
        vec![WindowAgg::new("n", AggSpec::Count)],
    )
}

#[test]
fn partitioned_output_is_deterministic_across_parallelism() {
    // Beyond matching the sync reference after normalization: the
    // partitioned mode's *raw* delivered order must equal the sync
    // run's at every parallelism degree. The emission ledger releases
    // steps in frontier order and merges concurrent owners with the
    // window emission comparator — there is no post-hoc global sort to
    // hide arrival-order nondeterminism behind.
    let q = keyed_count(60);
    let sync_raw = {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let (mut sink, got) = CollectingSink::new();
        env.run(&q, &mut sink).unwrap();
        got.records() // NOT normalized: raw delivery order
    };
    let raw = |p: usize| {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            parallelism: p,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let (mut sink, got) = CollectingSink::new();
        env.run_partitioned(&q, &mut sink).unwrap();
        got.records()
    };
    for p in [1, 2, 4, 8] {
        assert_eq!(raw(p), sync_raw, "parallelism {p} delivery order");
    }
}

/// Keeps raw delivery order and counts which `Sink` entry point each
/// buffer arrived through.
#[derive(Default)]
struct LayoutSink {
    rows: Vec<Record>,
    row_calls: usize,
    columnar_calls: usize,
}

impl Sink for LayoutSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.row_calls += 1;
        self.rows.extend_from_slice(buf.records());
        Ok(())
    }

    fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
        self.columnar_calls += 1;
        self.rows.extend(buf.to_record_buffer().into_records());
        Ok(())
    }
}

#[test]
fn partitioned_ledger_delivers_the_layout_the_chain_emitted() {
    // The emission ledger holds each step's terminal messages by value:
    // a single-owner step reaches the sink exactly as the chain emitted
    // it (columnar stays columnar), and only a multi-owner step, whose
    // owners' rows must be merged, is materialized to rows.
    let deliver = |q: &Query, entry: Entry| {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source("s", source(Feed::InOrder, 32), generous_watermark());
        let mut sink = LayoutSink::default();
        entry.run_local(&mut env, q, &mut sink).unwrap();
        sink
    };
    let bytes_of = |sink: &LayoutSink| sink.rows.iter().map(record_sort_key).collect::<Vec<_>>();

    // Q1-shaped: a vectorizable filter into a map, so `Auto` transposes.
    let stateless = Query::from("s")
        .filter(col("speed").ge(lit(40.0)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    let sync = deliver(&stateless, Entry::Run);
    assert!(sync.columnar_calls > 0, "the chain emits columnar buffers");
    assert_eq!(sync.row_calls, 0);
    let par = deliver(&stateless, Entry::Partitioned(2));
    assert_eq!(
        (par.row_calls, par.columnar_calls),
        (0, sync.columnar_calls),
        "round-robin steps have one owner: buffers pass through as emitted"
    );
    assert_eq!(bytes_of(&par), bytes_of(&sync), "stateless raw order");

    let keyed = keyed_count(60);
    let sync = deliver(&keyed, Entry::Run);
    let par = deliver(&keyed, Entry::Partitioned(2));
    assert!(par.row_calls > 0, "windows closed on both partitions");
    assert_eq!(par.columnar_calls, 0, "multi-owner steps merge as rows");
    assert_eq!(bytes_of(&par), bytes_of(&sync), "keyed-window raw order");
}

/// How long the fenced source waits for the sink before it gives up.
const FENCE_DEADLINE: Duration = Duration::from_secs(10);

/// Yields its first batch at once; its second poll blocks until the
/// sink has received `expect` rows, and fails with an `Io` error if
/// that takes longer than [`FENCE_DEADLINE`]. Then it yields the rest.
struct FencedSource {
    batches: VecDeque<Vec<Record>>,
    polls: usize,
    delivered: Arc<AtomicUsize>,
    expect: usize,
}

impl Source for FencedSource {
    fn schema(&self) -> SchemaRef {
        schema()
    }

    fn poll(&mut self, _max: usize) -> Result<SourceBatch> {
        self.polls += 1;
        if self.polls == 2 {
            let deadline = Instant::now() + FENCE_DEADLINE;
            while self.delivered.load(Ordering::SeqCst) < self.expect {
                if Instant::now() > deadline {
                    return Err(NebulaError::Io(format!(
                        "sink had {} of batch 1's {} rows after {FENCE_DEADLINE:?}",
                        self.delivered.load(Ordering::SeqCst),
                        self.expect
                    )));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(self
            .batches
            .pop_front()
            .map_or(SourceBatch::Exhausted, SourceBatch::Data))
    }
}

/// Counts the rows it receives where the fenced source can see them.
struct FenceSink(Arc<AtomicUsize>);

impl Sink for FenceSink {
    fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
        self.0.fetch_add(buf.len(), Ordering::SeqCst);
        Ok(())
    }
}

#[test]
fn released_results_reach_the_sink_before_the_next_poll() {
    // Batch 1 (16 records, 0..15 s) crosses the first 10 s window end,
    // and with one punctuation per batch and no slack its watermark
    // closes that window. Whatever batch 1 released — its 16 rows on
    // the stateless plan, the first window's 5 rows on the keyed one —
    // must reach the sink while the source is still blocked in its
    // next poll: in every mode, the thread that completes a step
    // delivers it.
    let stateless = Query::from("s")
        .filter(col("speed").ge(lit(0.0)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
    let keyed = keyed_count(10);
    for (name, q, expect, total) in [
        ("stateless", &stateless, 16, 600),
        ("keyed window", &keyed, 5, 300),
    ] {
        for mode in LOCAL {
            let mut env = StreamEnvironment::with_config(EnvConfig {
                buffer_size: 16,
                watermark_every: 1,
                ..EnvConfig::default()
            });
            let delivered = Arc::new(AtomicUsize::new(0));
            let mut recs = records();
            let rest = recs.split_off(16);
            env.add_source(
                "s",
                Box::new(FencedSource {
                    batches: VecDeque::from([recs, rest]),
                    polls: 0,
                    delivered: delivered.clone(),
                    expect,
                }),
                bounded(0),
            );
            let mut sink = FenceSink(delivered.clone());
            let result = mode.run_local(&mut env, q, &mut sink);
            let m = result.unwrap_or_else(|e| panic!("{name} / {mode:?}: {e}"));
            assert_eq!(m.records_in, 600, "{name} / {mode:?}");
            assert_eq!(delivered.load(Ordering::SeqCst), total, "{name} / {mode:?}");
        }
    }
}

#[test]
fn columnar_matches_row_under_late_drops() {
    // Tight slack + jitter makes some records genuinely late: polls of
    // four from a jitter window of eight carry records across batch
    // boundaries, behind watermarks that already passed them. At a
    // FIXED batch size the watermark clock advances identically on both
    // paths, so the columnar absorb must drop exactly the same records
    // as the per-record reference — the late-drop triage of the batch
    // kernel included.
    let tumbling = Query::from("s")
        .filter(col("load").ge(lit(10)))
        .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))])
        .window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 30 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh"))),
            ],
        );
    // Sliding: a record is late only once every window holding it has
    // closed.
    let sliding = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Sliding {
            size: 8 * MICROS_PER_SEC,
            slide: 2 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
        ],
    );
    let at = |columnar| Config { batch: 4, columnar };
    for (name, q) in [("tumbling", &tumbling), ("sliding", &sliding)] {
        let mut dropped = 0;
        for seed in [7, 99] {
            let feed = Feed::Jittered(seed);
            for mode in LOCAL {
                let cell = format!("late-drop {name}: {mode:?}/seed={seed}");
                let run = |columnar| execute(q, &bounded(4), feed, mode, at(columnar)).unwrap();
                let (row, col) = (run(ColumnarMode::Off), run(ColumnarMode::Force));
                assert_same_rows(&normalized(col.rows), &normalized(row.rows), &cell);
                let (col_m, row_m) = (col.metrics, row.metrics);
                assert_eq!(col_m.records_in, row_m.records_in, "{cell} in");
                assert_eq!(col_m.records_out, row_m.records_out, "{cell} out");
                assert_eq!(col_m.late_drops, row_m.late_drops, "{cell} late_drops");
                dropped += row_m.late_drops;
            }
        }
        assert!(
            dropped > 0,
            "late-drop {name}: the tight watermark drops records"
        );
    }
}

/// The telemetry report of `query` in one mode, in order at the
/// default config.
fn report_of(query: &Query, mode: Entry, watermark: &WatermarkStrategy) -> QueryReport {
    execute(query, watermark, Feed::InOrder, mode, Config::DEFAULT)
        .unwrap_or_else(|e| panic!("{mode:?} failed: {e}"))
        .report
        .expect("telemetry enabled by default")
}

#[test]
fn conservation_stateless_chain_all_modes() {
    // filter -> map: nothing is stateful, so conservation is exact in
    // every mode — source records either reach the sink or were
    // rejected by the filter. Every local cell of the matrix checks it;
    // this row owns the stateless chain's.
    run_owned("conservation_stateless_chain_all_modes");
}

#[test]
fn conservation_windowed_chain_all_modes() {
    // filter -> map -> keyed tumbling window under a generous watermark:
    // the window changes cardinality but the telescoping invariant must
    // still hold through it, and late drops stay zero.
    let q = composite(vec![WindowAgg::new("avg_kmh", AggSpec::Avg(col("kmh")))]);
    for mode in LOCAL {
        let out = execute(
            &q,
            &generous_watermark(),
            Feed::InOrder,
            mode,
            Config::DEFAULT,
        )
        .unwrap();
        assert_conserved(&format!("windowed: {mode:?}"), &out);
        assert_eq!(out.metrics.late_drops, 0, "windowed: {mode:?}");
    }
}

#[test]
fn conservation_accounts_late_drops() {
    // Tight slack + a jitter window far wider than it force genuine
    // late drops; the window operator's per-op late_drops must account
    // for every record the chain consumed but never aggregated, in
    // every mode.
    let q = keyed_count(30);
    let late = execute(&q, &bounded(4), Feed::Wild, Entry::Run, Config::DEFAULT).unwrap();
    assert!(
        late.metrics.late_drops > 0,
        "tight slack produced at least one late drop"
    );
    run_owned("conservation_accounts_late_drops");
}

#[test]
fn report_modes_and_sampling_are_labelled() {
    // Every mode stamps its own label, records at least the forced
    // end-of-run sample, and logs the deployment trace event.
    let q = Query::from("s").filter(col("load").ge(lit(20)));
    for (mode, label) in [
        (Entry::Run, "run"),
        (Entry::Threaded, "run_threaded"),
        (Entry::Partitioned(2), "run_partitioned"),
    ] {
        let report = report_of(&q, mode, &WatermarkStrategy::None);
        assert_eq!(report.mode, label, "{mode:?} mode label");
        assert!(
            !report.samples.is_empty(),
            "{mode:?} records the forced final sample"
        );
        assert!(
            report
                .events
                .iter()
                .any(|e| e.kind == TraceKind::QueryDeployed),
            "{mode:?} logs the deployment event"
        );
        let final_sample = report.samples.last().unwrap();
        assert_eq!(
            final_sample.records_in, report.metrics.records_in,
            "{mode:?} final sample carries the final counters"
        );
        // The JSON export round-trips the whole report without panicking
        // and names the mode.
        let json = serde_json::to_string(&report.to_json()).unwrap();
        assert!(json.contains(label), "{mode:?} JSON names the mode");
    }
}

#[test]
fn partition_fallback_warning_lands_in_report_without_changing_results() {
    // A keyless window has no partitioning key: `run_partitioned`
    // degrades to a single worker and the pre-flight analyzer says so
    // (W010). The warning must land in the telemetry report, must not
    // reject the plan, and the degraded run must still match the sync
    // reference exactly.
    let q = Query::from("s").window(
        vec![],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("top", AggSpec::Max(col("speed"))),
        ],
    );
    let run = |mode| {
        execute(
            &q,
            &generous_watermark(),
            Feed::InOrder,
            mode,
            Config::DEFAULT,
        )
        .unwrap()
    };
    let (reference, degraded) = (run(Entry::Run), run(Entry::Partitioned(4)));
    let report = degraded.report.unwrap();
    assert!(
        report
            .analysis
            .iter()
            .any(|d| d.code == nebula::analysis::Code::PartitionFallback),
        "keyless plan under run_partitioned reports W010: {:?}",
        report.analysis
    );
    assert!(
        report
            .analysis
            .iter()
            .all(|d| d.severity == nebula::analysis::Severity::Warning),
        "fallback is a warning, not an error"
    );
    assert_eq!(
        normalized(degraded.rows),
        normalized(reference.rows),
        "degraded plan still matches sync results"
    );

    // A keyed sibling of the same plan stays W010-free.
    let keyed_report = report_of(
        &keyed_count(60),
        Entry::Partitioned(4),
        &generous_watermark(),
    );
    assert!(
        keyed_report
            .analysis
            .iter()
            .all(|d| d.code != nebula::analysis::Code::PartitionFallback),
        "keyed plan does not warn W010: {:?}",
        keyed_report.analysis
    );
}
