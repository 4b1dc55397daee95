//! Property suite for stream slicing: the slice-based window operator
//! must be observationally identical to a naive per-window reference —
//! one eager accumulator per (key, window), updated on every overlapping
//! window per record — across random window geometries (including
//! coprime size/slide and `slide > size` coverage gaps), random jitter,
//! key cardinalities, watermark schedules and negative event times
//! (`div_euclid` slice assignment). The split pipeline (the window's
//! edge partial → its cloud merge) must match too, from row and from
//! columnar edge input, for every splittable aggregate including the
//! decomposed `avg` and the order-dependent `first`/`last`. Every batch
//! a window emits must already be in the engine's emission order:
//! (window or slice start, canonical record encoding). Extra cases cover
//! a composite `(Int, Text)` key, a key idle for several slices while its
//! older slices stay live, and a plugin aggregate folding beside the
//! built-ins.

use nebula::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const U: i64 = 1_000; // one time unit in µs — keeps geometries readable

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("key", DataType::Int),
        ("v", DataType::Float),
        ("tag", DataType::Text),
    ])
}

/// The `tag` column's values: texts of different lengths, so the key
/// encoding's length prefix takes part in the order.
const TAGS: [&str; 3] = ["b", "a", "aa"];

/// A plugin aggregate beside the built-ins: the sum of squares of `v`,
/// splittable through a one-float partial. It folds through the default
/// per-row `Aggregator` methods, so windows run its boxed accumulator
/// next to the inline built-in state.
struct SumSquares;

impl AggregatorFactory for SumSquares {
    fn output_type(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<DataType> {
        Ok(DataType::Float)
    }

    fn create(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<Box<dyn Aggregator>> {
        struct Acc(f64);
        impl Aggregator for Acc {
            fn update(&mut self, row: Row<'_>) -> Result<()> {
                let v = row.get(2).and_then(|v| v.as_float()).unwrap_or(0.0);
                self.0 += v * v;
                Ok(())
            }
            fn partial(&self) -> Result<Vec<Value>> {
                Ok(vec![Value::Float(self.0)])
            }
            fn merge_partial(&mut self, partial: &[Value]) -> Result<()> {
                self.0 += partial.first().and_then(Value::as_float).unwrap_or(0.0);
                Ok(())
            }
            fn finish(&mut self) -> Result<Value> {
                Ok(Value::Float(self.0))
            }
        }
        Ok(Box::new(Acc(0.0)))
    }

    fn splittable(&self) -> bool {
        true
    }

    fn partial_types(
        &self,
        _input: &Schema,
        _registry: &FunctionRegistry,
    ) -> Result<Option<Vec<DataType>>> {
        Ok(Some(vec![DataType::Float]))
    }
}

fn all_aggs() -> Vec<WindowAgg> {
    vec![
        WindowAgg::new("n", AggSpec::Count),
        WindowAgg::new("sum_v", AggSpec::Sum(col("v"))),
        WindowAgg::new("min_v", AggSpec::Min(col("v"))),
        WindowAgg::new("max_v", AggSpec::Max(col("v"))),
        WindowAgg::new("avg_v", AggSpec::Avg(col("v"))),
        WindowAgg::new("first_v", AggSpec::First(col("v"))),
        WindowAgg::new("last_v", AggSpec::Last(col("v"))),
    ]
}

/// The built-ins plus the plugin aggregate, which holds its sums exactly
/// (the values are small integers), so every grouping agrees bit for bit.
fn mixed_aggs() -> Vec<WindowAgg> {
    let mut aggs = all_aggs();
    aggs.insert(
        2,
        WindowAgg::new("sq_v", AggSpec::Custom(Arc::new(SumSquares))),
    );
    aggs
}

fn keys() -> Vec<(String, Expr)> {
    vec![("key".to_string(), col("key"))]
}

/// The composite key: the `Int` key, then the `Text` tag.
fn composite_keys() -> Vec<(String, Expr)> {
    vec![
        ("key".to_string(), col("key")),
        ("tag".to_string(), col("tag")),
    ]
}

/// One generated scenario: a window geometry, a record stream (possibly
/// out of order, possibly with negative timestamps), and a watermark
/// schedule interleaved every `wm_every` records.
#[derive(Debug, Clone)]
struct Scenario {
    spec: WindowSpec,
    /// (ts µs, key, value, tag index) in arrival order.
    records: Vec<(i64, i64, f64, usize)>,
    wm_every: usize,
    slack: i64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (1i64..7, 1i64..7),
        proptest::collection::vec(
            (-60i64..60, 0i64..4, -9i64..9, 0i64..2, 0usize..TAGS.len()),
            0..200,
        ),
        (1usize..8, 0i64..12),
    )
        .prop_map(|((size_u, slide_u), rows, (wm_every, slack_u))| {
            let spec = if size_u == slide_u {
                WindowSpec::Tumbling { size: size_u * U }
            } else {
                WindowSpec::Sliding {
                    size: size_u * U,
                    slide: slide_u * U,
                }
            };
            // Sub-slice offsets (t * U/2) exercise non-aligned events.
            let records = rows
                .into_iter()
                .map(|(t, k, v, half, tag)| (t * U + half * U / 2, k, v as f64, tag))
                .collect();
            Scenario {
                spec,
                records,
                wm_every,
                slack: slack_u * U,
            }
        })
}

/// The event feed a scenario produces: data batches interleaved with
/// bounded-out-of-orderness watermarks, exactly like the runtime's
/// ingest loop generates them.
fn messages(sc: &Scenario) -> Vec<StreamMessage> {
    let mut out = Vec::new();
    let mut max_ts = i64::MIN;
    for chunk in sc.records.chunks(sc.wm_every.max(1)) {
        let recs: Vec<Record> = chunk.iter().map(|&r| record(r)).collect();
        for r in chunk {
            max_ts = max_ts.max(r.0);
        }
        out.push(StreamMessage::Data(RecordBuffer::new(schema(), recs)));
        if max_ts != i64::MIN {
            out.push(StreamMessage::Watermark(max_ts - sc.slack));
        }
    }
    out.push(StreamMessage::Eos);
    out
}

fn record((ts, k, v, tag): (i64, i64, f64, usize)) -> Record {
    Record::new(vec![
        Value::Timestamp(ts),
        Value::Int(k),
        Value::Float(v),
        Value::text(TAGS[tag]),
    ])
}

/// A scenario whose key 3 goes idle for a stretch of several slices while
/// a wide slack keeps its older slices live, so its slices resume past a
/// gap in the same ring.
fn idle_key_strategy() -> impl Strategy<Value = Scenario> {
    scenario_strategy().prop_map(|mut sc| {
        sc.records
            .retain(|r| !(r.1 == 3 && (-30 * U..10 * U).contains(&r.0)));
        sc.records.insert(0, (-45 * U, 3, 1.0, 0));
        sc.records.push((25 * U, 3, 2.0, 0));
        sc.slack = 40 * U;
        sc
    })
}

/// The same feed with every data batch transposed to a `TupleBuffer`.
fn columnar(feed: Vec<StreamMessage>) -> Vec<StreamMessage> {
    feed.into_iter()
        .map(|msg| match msg {
            StreamMessage::Data(b) => StreamMessage::Columnar(TupleBuffer::from_records(
                b.schema().clone(),
                b.records(),
                BufferMeta::default(),
            )),
            other => other,
        })
        .collect()
}

/// Pushes `feed` through `op`, returning everything it emitted.
fn run_op(op: &mut dyn Operator, feed: Vec<StreamMessage>) -> Vec<StreamMessage> {
    let mut out = Vec::new();
    for msg in feed {
        match msg {
            StreamMessage::Data(b) => op.process(b, &mut out).unwrap(),
            StreamMessage::Columnar(b) => op.process_columnar(b, &mut out).unwrap(),
            StreamMessage::Watermark(w) => op.on_watermark(w, &mut out).unwrap(),
            StreamMessage::Eos => op.on_eos(&mut out).unwrap(),
        }
    }
    out
}

fn data_rows(msgs: &[StreamMessage]) -> Vec<Record> {
    let mut got = Vec::new();
    for msg in msgs {
        if let StreamMessage::Data(b) = msg {
            got.extend(b.records().iter().cloned());
        }
    }
    got
}

fn drive(op: &mut dyn Operator, feed: Vec<StreamMessage>) -> Vec<Record> {
    data_rows(&run_op(op, feed))
}

/// The naive reference: one eager accumulator set per (key, window),
/// every record updates every overlapping open window, windows emit when
/// the watermark passes their end. This is exactly the seed engine's
/// O(size/slide)-per-record evaluation strategy.
/// One naive window's key values and accumulators.
type OpenWindow = (Vec<Value>, Vec<Box<dyn Aggregator>>);

struct NaiveWindows {
    spec: WindowSpec,
    size: i64,
    /// Input columns of the key.
    key_cols: Vec<usize>,
    aggs: Vec<WindowAgg>,
    registry: FunctionRegistry,
    /// Per (key bytes, window start): the key values and accumulators.
    state: HashMap<(Vec<u8>, i64), OpenWindow>,
    wm: i64,
    late: u64,
    emitted: Vec<Record>,
}

impl NaiveWindows {
    fn new(spec: WindowSpec, key_cols: Vec<usize>, aggs: Vec<WindowAgg>) -> Self {
        let size = spec.size().expect("time window");
        NaiveWindows {
            spec,
            size,
            key_cols,
            aggs,
            registry: FunctionRegistry::with_builtins(),
            state: HashMap::new(),
            wm: i64::MIN,
            late: 0,
            emitted: Vec::new(),
        }
    }

    fn record(&mut self, rec: &Record) {
        let ts = rec.get(0).unwrap().as_timestamp().unwrap();
        let key: Vec<Value> = self
            .key_cols
            .iter()
            .map(|&c| rec.get(c).unwrap().clone())
            .collect();
        let key_bytes = record_sort_key(&Record::new(key.clone()));
        let starts = self.spec.assign(ts);
        if starts.is_empty() {
            return; // coverage gap: no window, not late either
        }
        if starts.iter().all(|s| s + self.size <= self.wm) {
            self.late += 1; // late for every window: one drop
            return;
        }
        for start in starts {
            if start + self.size <= self.wm {
                continue; // closed window: silently skip, still absorbed elsewhere
            }
            let (aggs, registry) = (&self.aggs, &self.registry);
            let (_, accs) = self
                .state
                .entry((key_bytes.clone(), start))
                .or_insert_with(|| {
                    let accs = aggs
                        .iter()
                        .map(|a| a.spec.create(&schema(), registry, "ts").expect("create"))
                        .collect();
                    (key.clone(), accs)
                });
            for agg in accs {
                agg.update(rec.into()).expect("update");
            }
        }
    }

    fn watermark(&mut self, wm: i64) {
        self.wm = self.wm.max(wm);
        let due: Vec<(Vec<u8>, i64)> = self
            .state
            .keys()
            .filter(|(_, start)| start + self.size <= self.wm)
            .cloned()
            .collect();
        self.emit(due);
    }

    fn eos(&mut self) {
        let due: Vec<(Vec<u8>, i64)> = self.state.keys().cloned().collect();
        self.emit(due);
    }

    fn emit(&mut self, due: Vec<(Vec<u8>, i64)>) {
        for entry in due {
            let (mut values, mut aggs) = self.state.remove(&entry).expect("due");
            values.push(Value::Timestamp(entry.1));
            values.push(Value::Timestamp(entry.1 + self.size));
            for agg in &mut aggs {
                values.push(agg.finish().expect("finish"));
            }
            self.emitted.push(Record::new(values));
        }
    }
}

fn run_naive(sc: &Scenario, key_cols: Vec<usize>, aggs: Vec<WindowAgg>) -> (Vec<Record>, u64) {
    let mut naive = NaiveWindows::new(sc.spec.clone(), key_cols, aggs);
    for msg in messages(sc) {
        match msg {
            StreamMessage::Data(b) => {
                for r in b.records() {
                    naive.record(r);
                }
            }
            StreamMessage::Columnar(_) => unreachable!("messages() emits row buffers only"),
            StreamMessage::Watermark(w) => naive.watermark(w),
            StreamMessage::Eos => naive.eos(),
        }
    }
    (naive.emitted, naive.late)
}

fn normalized(mut recs: Vec<Record>) -> Vec<Record> {
    recs.sort_by_cached_key(record_sort_key);
    recs
}

/// Fails unless every data batch in `msgs` is in the emission order:
/// by the start after the `key_count` key columns, then the canonical
/// record encoding.
fn assert_emission_order(
    msgs: &[StreamMessage],
    key_count: usize,
) -> std::result::Result<(), String> {
    let order = |r: &Record| {
        let start = r.get(key_count).and_then(Value::as_timestamp);
        (start, record_sort_key(r))
    };
    for msg in msgs {
        if let StreamMessage::Data(b) = msg {
            let keys: Vec<_> = b.records().iter().map(order).collect();
            prop_assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "batch out of emission order: {:?}",
                b.records()
            );
        }
    }
    Ok(())
}

/// A window over `sc` equals the naive reference, row for row and in
/// late drops, and emits every batch in the emission order.
fn check_against_naive(
    sc: &Scenario,
    keys: &[(String, Expr)],
    key_cols: Vec<usize>,
    aggs: &[WindowAgg],
) -> std::result::Result<(), String> {
    let reg = FunctionRegistry::with_builtins();
    let (expect, naive_late) = run_naive(sc, key_cols, aggs.to_vec());
    for feed in [messages(sc), columnar(messages(sc))] {
        let mut op = WindowOp::new("ts", keys, sc.spec.clone(), aggs.to_vec(), schema(), &reg)
            .expect("window op");
        let out = run_op(&mut op, feed);
        assert_emission_order(&out, keys.len())?;
        prop_assert_eq!(normalized(data_rows(&out)), normalized(expect.clone()));
        prop_assert_eq!(op.late_drops(), naive_late);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Slice-based aggregation ≡ naive per-window accumulation, bit for
    // bit, over every aggregate at once, from row and from columnar
    // input; every emitted batch is already in emission order.
    #[test]
    fn slicing_equals_naive_per_window_reference(sc in scenario_strategy()) {
        check_against_naive(&sc, &keys(), vec![1], &all_aggs())?;
    }

    // The same over a composite (Int, Text) key: the general key path,
    // and an emission order decided by multi-column key bytes.
    #[test]
    fn composite_key_slicing_equals_naive(sc in scenario_strategy()) {
        check_against_naive(&sc, &composite_keys(), vec![1, 3], &all_aggs())?;
    }

    // A key idle for several slices resumes past the gap in its ring.
    #[test]
    fn idle_key_slicing_equals_naive(sc in idle_key_strategy()) {
        check_against_naive(&sc, &keys(), vec![1], &all_aggs())?;
    }

    // A plugin aggregate's boxed accumulator folds, merges and finishes
    // beside the built-ins' inline state.
    #[test]
    fn plugin_beside_builtins_equals_naive(sc in scenario_strategy()) {
        check_against_naive(&sc, &keys(), vec![1], &mixed_aggs())?;
    }

    // The edge/cloud split — per-slice partials shipped at watermark
    // boundaries, merged cloud-side — matches the single-process slice
    // operator exactly, covering the decomposed `avg` and the
    // timestamped `first`/`last` partials.
    #[test]
    fn split_pipeline_equals_local_window(sc in scenario_strategy()) {
        let reg = FunctionRegistry::with_builtins();
        let mut local = WindowOp::new("ts", &keys(), sc.spec.clone(), all_aggs(), schema(), &reg)
            .expect("window op");
        let expect = drive(&mut local, messages(&sc));

        // The edge absorbs the feed as rows and, separately, as columnar
        // buffers: both layouts ship the same partial rows and end in the
        // same windows.
        let mut runs = Vec::new();
        for feed in [messages(&sc), columnar(messages(&sc))] {
            let mut edge = WindowOp::edge_partial(
                "ts", &keys(), &sc.spec, all_aggs(), schema(), &reg,
            ).expect("edge partial");
            let mut cloud = WindowOp::cloud_merge(
                "ts", &keys(), &sc.spec, all_aggs(), schema(), &reg,
            ).expect("cloud merge");
            let crossing = run_op(&mut edge, feed);
            assert_emission_order(&crossing, 1)?;
            let partials = data_rows(&crossing);
            let merged = run_op(&mut cloud, crossing);
            assert_emission_order(&merged, 1)?;
            let got = data_rows(&merged);
            prop_assert_eq!(normalized(got.clone()), normalized(expect.clone()));
            prop_assert_eq!(cloud.late_drops(), 0);
            prop_assert_eq!(edge.late_drops(), local.late_drops());
            runs.push((partials, got));
        }
        prop_assert_eq!(&runs[0], &runs[1]);
    }

    // Sharding records across two edges and merging both partial
    // streams reproduces the union run — the multi-train fan-in.
    #[test]
    fn two_edge_fan_in_equals_union(sc in scenario_strategy()) {
        let reg = FunctionRegistry::with_builtins();
        let mut local = WindowOp::new("ts", &keys(), sc.spec.clone(), all_aggs(), schema(), &reg)
            .expect("window op");
        let expect = drive(&mut local, messages(&sc));

        let mut edges = [
            WindowOp::edge_partial("ts", &keys(), &sc.spec, all_aggs(), schema(), &reg)
                .expect("edge 0"),
            WindowOp::edge_partial("ts", &keys(), &sc.spec, all_aggs(), schema(), &reg)
                .expect("edge 1"),
        ];
        let mut cloud = WindowOp::cloud_merge(
            "ts", &keys(), &sc.spec, all_aggs(), schema(), &reg,
        ).expect("cloud merge");
        // Key-shard the feed and broadcast watermarks. Like the cluster
        // fan-in's min-combined watermark, the cloud only advances once
        // BOTH edges have flushed and forwarded a given watermark — so
        // per round, both edges' data reaches the merge before the
        // shared watermark does.
        let mut out = Vec::new();
        for msg in messages(&sc) {
            let mut crossing = Vec::new();
            let mut is_wm = None;
            let mut is_eos = false;
            match msg {
                StreamMessage::Data(b) => {
                    let mut shards: [Vec<Record>; 2] = [Vec::new(), Vec::new()];
                    for r in b.records() {
                        let k = r.get(1).unwrap().as_int().unwrap();
                        shards[(k.rem_euclid(2)) as usize].push(r.clone());
                    }
                    for (e, shard) in edges.iter_mut().zip(shards) {
                        if !shard.is_empty() {
                            e.process(RecordBuffer::new(schema(), shard), &mut crossing)
                                .unwrap();
                        }
                    }
                }
                StreamMessage::Columnar(_) => {
                    unreachable!("messages() emits row buffers only")
                }
                StreamMessage::Watermark(w) => {
                    is_wm = Some(w);
                    for e in &mut edges {
                        e.on_watermark(w, &mut crossing).unwrap();
                    }
                }
                StreamMessage::Eos => {
                    is_eos = true;
                    for e in &mut edges {
                        e.on_eos(&mut crossing).unwrap();
                    }
                }
            }
            for m in crossing {
                if let StreamMessage::Data(b) = m {
                    cloud.process(b, &mut out).unwrap();
                }
            }
            if let Some(w) = is_wm {
                cloud.on_watermark(w, &mut out).unwrap();
            }
            if is_eos {
                cloud.on_eos(&mut out).unwrap();
            }
        }
        let mut got = Vec::new();
        for msg in out {
            if let StreamMessage::Data(b) = msg {
                got.extend(b.records().iter().cloned());
            }
        }
        prop_assert_eq!(normalized(got), normalized(expect));
        prop_assert_eq!(cloud.late_drops(), 0);
    }
}
