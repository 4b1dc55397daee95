//! Property suite for the columnar [`TupleBuffer`]: encode/decode
//! round-trips for every field type (fixed-width scalars, varsized WKT
//! text, opaque plugin payloads, nulls in any column), structural
//! identities (`split_at` + `concat`, `filter`, `gather` against their
//! row-level definitions), and metadata invariants (event-time bounds,
//! watermark/origin/sequence propagation) under randomly generated
//! streams. The buffer is the unit of transfer between source, operators
//! and partitions, so any representational loss here silently corrupts
//! every batched query.

use nebula::prelude::*;
use proptest::prelude::*;
use proptest::BoxedStrategy;
use std::sync::Arc;

/// A stand-in for an opaque MEOS payload (e.g. a serialized temporal
/// sequence): the engine must carry it through transpose, slicing and
/// re-materialization without inspecting it.
#[derive(Debug, PartialEq)]
struct Payload(Vec<u8>);

impl OpaqueValue for Payload {
    fn type_tag(&self) -> &'static str {
        "prop.payload"
    }
    fn est_bytes(&self) -> usize {
        self.0.len()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn opaque_eq(&self, other: &dyn OpaqueValue) -> bool {
        other
            .as_any()
            .downcast_ref::<Payload>()
            .is_some_and(|o| o == self)
    }
}

/// One column of every storable type; nulls can land anywhere.
fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("flag", DataType::Bool),
        ("n", DataType::Int),
        ("x", DataType::Float),
        ("wkt", DataType::Text),
        ("pos", DataType::Point),
        ("payload", DataType::Opaque),
    ])
}

// Int range stays within f64's exact-integer window: Value equality
// routes Int/Int through as_float for cross-type numeric comparison.
fn arb_int() -> impl Strategy<Value = i64> {
    -(1i64 << 40)..(1i64 << 40)
}

fn arb_float() -> impl Strategy<Value = f64> {
    // Finite, non-NaN: NaN breaks the reflexivity the identities assert;
    // one branch pins exact zero to keep the -0.0/0.0 family in play.
    (0u8..8, -1e9..1e9f64).prop_map(|(z, f)| if z == 0 { 0.0 } else { f })
}

/// WKT-style varsized text: points, linestrings, the empty string and
/// short non-ASCII tails — the side-arena cases.
fn arb_wkt() -> impl Strategy<Value = String> {
    (0u8..4, -180.0..180.0f64, -90.0..90.0f64, 0i64..1000).prop_map(|(kind, x, y, n)| match kind {
        0 => format!("POINT({x} {y})"),
        1 => format!("LINESTRING({x} {y}, {y} {n}, {n} {x})"),
        2 => String::new(),
        _ => format!("µ°-{n}"),
    })
}

/// A value of `dt`, null 1 time in 8 (any column, including `ts`).
fn arb_value_of(dt: DataType) -> BoxedStrategy<Value> {
    let typed: BoxedStrategy<Value> = match dt {
        DataType::Timestamp => arb_int().prop_map(Value::Timestamp).boxed(),
        DataType::Bool => proptest::bool::ANY.prop_map(Value::Bool).boxed(),
        DataType::Int => arb_int().prop_map(Value::Int).boxed(),
        DataType::Float => arb_float().prop_map(Value::Float).boxed(),
        DataType::Text => arb_wkt().prop_map(Value::text).boxed(),
        DataType::Point => (arb_float(), arb_float())
            .prop_map(|(x, y)| Value::Point { x, y })
            .boxed(),
        _ => proptest::collection::vec(0u16..256, 0..32)
            .prop_map(|b| {
                Value::Opaque(Arc::new(Payload(b.into_iter().map(|x| x as u8).collect()))
                    as Arc<dyn OpaqueValue>)
            })
            .boxed(),
    };
    (0u8..8, typed)
        .prop_map(|(k, v)| if k == 0 { Value::Null } else { v })
        .boxed()
}

fn arb_record() -> impl Strategy<Value = Record> {
    let f = |i: usize| arb_value_of(schema().fields()[i].dtype);
    (f(0), f(1), f(2), f(3), f(4), f(5), f(6))
        .prop_map(|(a, b, c, d, e, f, g)| Record::new(vec![a, b, c, d, e, f, g]))
}

fn arb_records(max: usize) -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(arb_record(), 0..max)
}

fn arb_opt_ts() -> impl Strategy<Value = Option<EventTime>> {
    (proptest::bool::ANY, arb_int()).prop_map(|(some, t)| some.then_some(t))
}

fn arb_meta() -> impl Strategy<Value = BufferMeta> {
    (
        0u64..1 << 16,
        0u64..1 << 16,
        arb_opt_ts(),
        arb_opt_ts(),
        arb_opt_ts(),
    )
        .prop_map(|(origin, sequence, min_ts, max_ts, watermark)| {
            let (min_ts, max_ts) = match (min_ts, max_ts) {
                (Some(a), Some(b)) => (Some(a.min(b)), Some(a.max(b))),
                other => other,
            };
            BufferMeta {
                origin,
                sequence,
                min_ts,
                max_ts,
                watermark,
            }
        })
}

/// What the fleet data never contains, laid over generated records so
/// the schema-seeded transposition is pinned on it: runs of nulls, a
/// whole null column, records shorter than the schema, and one value
/// whose runtime type contradicts its field's declared type.
#[derive(Debug, Clone)]
struct Shape {
    /// 0 as generated · 1 leading rows all-null · 2 trailing rows
    /// all-null · 3 every value null · 4 column `col` entirely null.
    nulls: u8,
    /// How many rows the leading / trailing run covers.
    run: usize,
    /// The column `nulls == 4` and `short_width` refer to.
    col: usize,
    /// Every `short_every`-th record is cut to `col` fields (0 = none).
    short_every: usize,
    /// 0 none · 1 `Int` in the `Timestamp` column · 2 `Float` in the
    /// `Int` column · 3 `Text` in the `Point` column, at row `at`.
    contradiction: u8,
    /// Row of the contradiction (modulo the record count).
    at: usize,
}

impl Shape {
    /// The shape that leaves the generated records as they are.
    const PLAIN: Shape = Shape {
        nulls: 0,
        run: 0,
        col: 0,
        short_every: 0,
        contradiction: 0,
        at: 0,
    };

    /// The contradicted column and the value planted there.
    fn contradicting(&self) -> Option<(usize, Value)> {
        match self.contradiction {
            1 => Some((0, Value::Int(1_700_000_000_000_000))),
            2 => Some((2, Value::Float(2.5))),
            3 => Some((5, Value::text("POINT(4.35 50.85)"))),
            _ => None,
        }
    }

    fn apply(&self, recs: &mut [Record]) {
        let n = recs.len();
        for (i, rec) in recs.iter_mut().enumerate() {
            let all_null = match self.nulls {
                1 => i < self.run,
                2 => i + self.run >= n,
                3 => true,
                _ => false,
            };
            let mut values = std::mem::take(rec).into_values();
            for (c, v) in values.iter_mut().enumerate() {
                if all_null || (self.nulls == 4 && c == self.col) {
                    *v = Value::Null;
                }
            }
            if let Some((c, v)) = self.contradicting() {
                if i == self.at % n {
                    values[c] = v;
                }
            }
            if self.short_every > 0 && i % self.short_every == 0 {
                values.truncate(self.col);
            }
            *rec = Record::new(values);
        }
    }
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    // Half of all cases stay plain, so the original property keeps its
    // coverage of the generated (nulls 1 in 8, full-width) records.
    (
        proptest::bool::ANY,
        (0u8..5, 0usize..70, 0usize..7),
        (0usize..4, 0u8..4, 0usize..64),
    )
        .prop_map(
            |(plain, (nulls, run, col), (short_every, contradiction, at))| {
                if plain {
                    Shape::PLAIN
                } else {
                    Shape {
                        nulls,
                        run,
                        col,
                        short_every,
                        contradiction,
                        at,
                    }
                }
            },
        )
}

/// Equal values *of equal runtime type*: `Value`'s own equality is
/// numeric across `Int`/`Float`/`Timestamp`, which would let a
/// transposition that re-types a contradicting value pass.
fn same_typed(a: &Record, b: &Record) -> bool {
    a == b
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.data_type() == y.data_type())
}

fn rows_of(tb: &TupleBuffer) -> Vec<Record> {
    (0..tb.len()).map(|i| tb.row(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Transpose then re-materialize is the identity, field by field,
    // through all three read paths (row, value_at, to_record_buffer) —
    // on the generated records and on every `Shape` laid over them. A
    // record shorter than the schema comes back padded with nulls; a
    // value contradicting its field's type comes back with the type it
    // went in with, and costs only its own column the typed layout.
    #[test]
    fn round_trip_all_types(recs in arb_records(64), shape in arb_shape()) {
        let mut recs = recs;
        shape.apply(&mut recs);
        let width = schema().len();
        let padded: Vec<Record> = recs
            .iter()
            .map(|r| {
                let mut v = r.values().to_vec();
                v.resize(width, Value::Null);
                Record::new(v)
            })
            .collect();
        let tb = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        prop_assert_eq!(tb.len(), recs.len());
        prop_assert_eq!(tb.is_empty(), recs.is_empty());
        for (i, rec) in padded.iter().enumerate() {
            prop_assert!(same_typed(&tb.row(i), rec), "row {}: {} vs {}", i, tb.row(i), rec);
            for c in 0..width {
                let got = tb.value_at(i, c);
                prop_assert_eq!(got.as_ref(), rec.get(c), "value_at({}, {})", i, c);
            }
        }
        let rb = tb.to_record_buffer();
        prop_assert_eq!(rb.records().len(), padded.len());
        for (got, want) in rb.records().iter().zip(&padded) {
            prop_assert!(same_typed(got, want), "to_record_buffer: {} vs {}", got, want);
        }
        prop_assert_eq!(rb.schema().len(), width);
        // Size accounting equals the row path's estimate exactly.
        prop_assert_eq!(tb.est_bytes(), rb.est_bytes());
        prop_assert_eq!(tb.est_bytes(), RecordBuffer::new(schema(), padded.clone()).est_bytes());
        // Only a contradicted column gives up its typed layout; nulls
        // (a run, a whole column, padding) never do.
        let contradicted = shape.contradicting().and_then(|(c, v)| {
            let planted = padded.get(shape.at % padded.len().max(1))?.get(c)?;
            (planted.data_type() == v.data_type()).then_some(c)
        });
        for (c, col) in tb.columns().iter().enumerate() {
            prop_assert_eq!(
                matches!(col, Column::Values(_)),
                contradicted == Some(c),
                "column {} layout", c
            );
        }
    }

    // `split_at` then `concat` reconstructs the original buffer exactly:
    // same rows, same length, same metadata.
    #[test]
    fn split_concat_identity(recs in arb_records(64), at in 0usize..80, meta in arb_meta()) {
        let tb = TupleBuffer::from_records(schema(), &recs, meta);
        let (head, tail) = tb.split_at(at);
        prop_assert_eq!(head.len() + tail.len(), tb.len());
        prop_assert_eq!(head.len(), at.min(tb.len()));
        prop_assert_eq!(head.meta(), &meta);
        prop_assert_eq!(tail.meta(), &meta);
        let glued = TupleBuffer::concat(schema(), &[head, tail]);
        prop_assert_eq!(rows_of(&glued), recs);
        prop_assert_eq!(glued.meta(), &meta);
    }

    // Concatenating any chunking of a stream reproduces the unchunked
    // transpose, in its layout, and the merged metadata is the union of
    // time bounds
    // (min of mins, max of maxes) with a *conservative* watermark —
    // min across chunks, and no watermark at all if any chunk lacks
    // one — plus origin/sequence from the head.
    #[test]
    fn chunked_concat_matches_whole(
        recs in arb_records(96),
        cuts in proptest::collection::vec(0usize..96, 0..4),
        metas in proptest::collection::vec(arb_meta(), 5),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(recs.len())).collect();
        cuts.sort_unstable();
        let mut chunks = Vec::new();
        let mut prev = 0;
        for c in cuts.into_iter().chain([recs.len()]) {
            chunks.push((prev, c.max(prev)));
            prev = prev.max(c);
        }
        let bufs: Vec<TupleBuffer> = chunks
            .iter()
            .zip(&metas)
            .map(|(&(a, b), &m)| TupleBuffer::from_records(schema(), &recs[a..b], m))
            .collect();
        let glued = TupleBuffer::concat(schema(), &bufs);
        prop_assert_eq!(rows_of(&glued), recs);
        // Chunks of one typed stream glue into the typed layout of the
        // whole, not into the boxed fallback.
        let whole = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        for (c, (got, want)) in glued.columns().iter().zip(whole.columns()).enumerate() {
            prop_assert_eq!(
                std::mem::discriminant(got),
                std::mem::discriminant(want),
                "column {} layout", c
            );
        }

        let used = &metas[..bufs.len()];
        let fold = |sel: fn(&BufferMeta) -> Option<EventTime>, pick: fn(i64, i64) -> i64| {
            used.iter().filter_map(sel).reduce(pick)
        };
        prop_assert_eq!(glued.meta().min_ts, fold(|m| m.min_ts, i64::min));
        prop_assert_eq!(glued.meta().max_ts, fold(|m| m.max_ts, i64::max));
        let conservative_wm = used
            .iter()
            .map(|m| m.watermark)
            .reduce(|a, c| match (a, c) {
                (Some(a), Some(c)) => Some(a.min(c)),
                _ => None,
            })
            .flatten();
        prop_assert_eq!(glued.meta().watermark, conservative_wm);
        prop_assert_eq!(glued.meta().origin, used[0].origin);
        prop_assert_eq!(glued.meta().sequence, used[0].sequence);
    }

    // `filter` equals the row-level definition: keep row i iff mask[i].
    #[test]
    fn filter_matches_row_reference(recs in arb_records(64), seed in 0u64..u64::MAX) {
        let mask: Vec<bool> = (0..recs.len())
            .map(|i| (seed.rotate_left(i as u32)) & 1 == 1)
            .collect();
        let tb = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        let kept = tb.filter(&mask);
        let expect: Vec<Record> = recs
            .iter()
            .zip(&mask)
            .filter(|(_, &m)| m)
            .map(|(r, _)| r.clone())
            .collect();
        prop_assert_eq!(rows_of(&kept), expect);
        prop_assert_eq!(kept.meta(), tb.meta());
    }

    // `gather` equals indexed row selection, including duplicates and
    // arbitrary permutation order.
    #[test]
    fn gather_matches_row_reference(
        recs in proptest::collection::vec(arb_record(), 1..48),
        picks in proptest::collection::vec(0usize..4096, 0..96),
    ) {
        let idx: Vec<usize> = picks.into_iter().map(|p| p % recs.len()).collect();
        let tb = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        let got = tb.gather(&idx);
        let expect: Vec<Record> = idx.iter().map(|&i| recs[i].clone()).collect();
        prop_assert_eq!(rows_of(&got), expect);
    }

    // `recompute_time_bounds` agrees with a scalar scan over the rows'
    // event times, treating null timestamps as absent — also when the
    // `Timestamp` column arrives `Int`-valued (sources often deliver
    // epoch µs as integers), wholly or from some row on.
    #[test]
    fn time_bounds_match_rows(recs in arb_records(64), ints_from in 0usize..130) {
        let mut recs = recs;
        for rec in recs.iter_mut().skip(ints_from) {
            if let Some(Value::Timestamp(t)) = rec.get(0).cloned() {
                *rec.get_mut(0).unwrap() = Value::Int(t);
            }
        }
        let mut tb = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        tb.recompute_time_bounds(0);
        let times: Vec<EventTime> = recs
            .iter()
            .filter_map(|r| r.get(0).and_then(Value::as_timestamp))
            .collect();
        prop_assert_eq!(tb.meta().min_ts, times.iter().copied().min());
        prop_assert_eq!(tb.meta().max_ts, times.iter().copied().max());
        for (i, rec) in recs.iter().enumerate() {
            prop_assert_eq!(tb.event_time(i, 0), rec.get(0).and_then(Value::as_timestamp));
            if let Some(t) = tb.event_time(i, 0) {
                prop_assert!(tb.meta().min_ts.unwrap() <= t && t <= tb.meta().max_ts.unwrap());
            }
        }
        prop_assert_eq!(tb.max_event_time(0), tb.meta().max_ts);
    }

    // Size accounting: non-empty buffers report nonzero size, filtering
    // all rows away cannot grow the estimate, and the all-true filter is
    // a faithful copy.
    #[test]
    fn est_bytes_is_monotone(recs in arb_records(64)) {
        let tb = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
        if !recs.is_empty() {
            prop_assert!(tb.est_bytes() > 0);
        }
        let none = tb.filter(&vec![false; recs.len()]);
        prop_assert!(none.est_bytes() <= tb.est_bytes());
        let all = tb.filter(&vec![true; recs.len()]);
        prop_assert_eq!(rows_of(&all), recs);
    }
}
