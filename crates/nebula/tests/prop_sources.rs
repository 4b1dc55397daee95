//! Property suite for the source contract: [`Source::poll`] yields
//! rows, [`Source::poll_columnar`] the same records as one columnar
//! [`TupleBuffer`]. The executors poll columns whenever the chain's
//! columnar gate is open and rows otherwise, so a source whose two
//! reads disagree makes `ColumnarMode::Off` and `Auto` compute different
//! results. Pinned here, poll for poll, under random inner batch sizes,
//! `Idle` gaps and an early end of stream:
//!
//! - the default `poll_columnar` is `TupleBuffer::from_records` of
//!   `poll`'s rows;
//! - `JitterSource`'s columnar reorder window emits exactly the rows
//!   its row window emits, in the same order, for any window, poll size
//!   and seed — also under `GapSource`, and when one stream switches
//!   between the two reads mid-way;
//! - a columnar read with a read set is the full read with every field
//!   outside the set replaced by `Column::Absent`, for `VecSource`'s
//!   drain, the trait default, `JitterSource` and `GapSource`.
//!
//! The records carry a column with nulls, a text column and a column
//! whose runtime types contradict its declared type in some batches
//! (the boxed `Column::Values` fallback), so the window's typed appends
//! meet every layout and every layout mismatch.

use nebula::prelude::*;
use proptest::prelude::*;

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("speed", DataType::Float),
        ("name", DataType::Text),
        ("mixed", DataType::Int),
        ("pos", DataType::Point),
    ])
}

/// Record `i` of the stream: `speed` null every 5th row, `name` null
/// every 11th, and `mixed` a `Float` every 97th row, which degrades the
/// column of whichever batch holds it to the boxed fallback.
fn record(i: i64) -> Record {
    Record::new(vec![
        Value::Timestamp(i * 1_000),
        if i % 5 == 0 {
            Value::Null
        } else {
            Value::Float(i as f64 * 0.5)
        },
        if i % 11 == 0 {
            Value::Null
        } else {
            Value::text(format!("train-{}", i % 7))
        },
        if i % 97 == 13 {
            Value::Float(i as f64 + 0.25)
        } else {
            Value::Int(i)
        },
        Value::Point {
            x: i as f64,
            y: -(i as f64),
        },
    ])
}

/// One answer of the scripted inner source.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// The next `n` records (at most the poll's `max`; 0 is an empty
    /// batch).
    Data(usize),
    Idle,
}

/// Plays a script of data batches and idle polls, then ends. Implements
/// only `poll`, so its `poll_columnar` is the trait's default.
struct Scripted {
    steps: std::vec::IntoIter<Step>,
    next: i64,
}

impl Scripted {
    fn new(steps: &[Step]) -> Self {
        Scripted {
            steps: Vec::from(steps).into_iter(),
            next: 0,
        }
    }
}

impl Source for Scripted {
    fn schema(&self) -> SchemaRef {
        schema()
    }

    fn poll(&mut self, max: usize) -> Result<SourceBatch> {
        Ok(match self.steps.next() {
            Some(Step::Data(n)) => {
                let n = n.min(max) as i64;
                let recs = (self.next..self.next + n).map(record).collect();
                self.next += n;
                SourceBatch::Data(recs)
            }
            Some(Step::Idle) => SourceBatch::Idle,
            None => SourceBatch::Exhausted,
        })
    }
}

/// Up to ten steps, one in four idle; data batches of 0..300 records.
/// The script's end is the stream's (early) end.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..4, 0usize..300).prop_map(|(k, n)| if k == 0 { Step::Idle } else { Step::Data(n) }),
        0..10,
    )
}

/// One poll's answer in a layout-free form: the rows of a data batch,
/// or `None` for `Idle`; the stream ends at `Exhausted`.
type Answer = Option<Vec<Record>>;

/// Which read a poll uses.
#[derive(Debug, Clone, Copy)]
enum Read {
    Rows,
    Columns,
}

/// Polls `source` until it is exhausted, with `max` records per poll
/// and the read `pick(poll index)`. Panics after `limit` polls (a source
/// that never ends).
fn drain(source: &mut dyn Source, max: usize, pick: impl Fn(usize) -> Read) -> Vec<Answer> {
    let limit = 100_000;
    let mut answers = Vec::new();
    for i in 0..limit {
        let answer = match pick(i) {
            Read::Rows => match source.poll(max).expect("scripted sources do not fail") {
                SourceBatch::Data(recs) => Some(recs),
                SourceBatch::Idle => None,
                SourceBatch::Exhausted => return answers,
            },
            Read::Columns => match source
                .poll_columnar(max, &ReadSet::all(schema().len()))
                .expect("scripted sources do not fail")
            {
                SourceBatch::Data(tb) => {
                    assert_eq!(tb.schema().len(), schema().len());
                    Some((0..tb.len()).map(|r| tb.row(r)).collect())
                }
                SourceBatch::Idle => None,
                SourceBatch::Exhausted => return answers,
            },
        };
        answers.push(answer);
    }
    panic!("no end of stream after {limit} polls");
}

/// Equal values *of equal runtime type*: `Value`'s own equality is
/// numeric across `Int`/`Float`/`Timestamp`, which would let a read that
/// re-types the fallback column pass.
fn same_answers(a: &[Answer], b: &[Answer]) -> std::result::Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("{} polls vs {}", a.len(), b.len()));
    }
    for (poll, (x, y)) in a.iter().zip(b).enumerate() {
        match (x, y) {
            (None, None) => {}
            (Some(x), Some(y)) if x.len() == y.len() => {
                for (row, (r, s)) in x.iter().zip(y).enumerate() {
                    let typed = r.len() == s.len()
                        && r.values()
                            .iter()
                            .zip(s.values())
                            .all(|(v, w)| v == w && v.data_type() == w.data_type());
                    if !typed {
                        return Err(format!("poll {poll} row {row}: {r} vs {s}"));
                    }
                }
            }
            _ => return Err(format!("poll {poll}: {x:?} vs {y:?}")),
        }
    }
    Ok(())
}

/// A read set over [`schema`]'s five fields from the low bits of `mask`.
fn read_set(mask: u8) -> ReadSet {
    ReadSet::of(
        schema().len(),
        (0..schema().len()).filter(|c| mask >> c & 1 == 1),
    )
}

/// Polls `narrow` with `reads` and `full` with every field, in lockstep
/// until both end: each narrow buffer must be the full one with the
/// fields outside `reads` absent.
fn narrow_reads_match(
    mut narrow: Box<dyn Source>,
    mut full: Box<dyn Source>,
    max: usize,
    reads: &ReadSet,
) -> std::result::Result<(), String> {
    let all = ReadSet::all(schema().len());
    for poll in 0..100_000 {
        match (
            narrow.poll_columnar(max, reads).unwrap(),
            full.poll_columnar(max, &all).unwrap(),
        ) {
            (SourceBatch::Data(got), SourceBatch::Data(mut want)) => {
                want.narrow(reads);
                let absent = |tb: &TupleBuffer| -> Vec<bool> {
                    tb.columns().iter().map(Column::is_absent).collect()
                };
                let dead: Vec<bool> = (0..schema().len()).map(|c| !reads.contains(c)).collect();
                if got.len() != want.len()
                    || absent(&got) != dead
                    || format!("{:?}", got.columns()) != format!("{:?}", want.columns())
                {
                    return Err(format!("poll {poll}: {got:?} vs {want:?}"));
                }
            }
            (SourceBatch::Idle, SourceBatch::Idle) => {}
            (SourceBatch::Exhausted, SourceBatch::Exhausted) => return Ok(()),
            (got, want) => return Err(format!("poll {poll}: {got:?} vs {want:?}")),
        }
    }
    Err("no end of stream".into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Every source builds exactly its read set: the full buffer with
    // the dead fields absent, batch for batch.
    #[test]
    fn read_sets_leave_only_dead_fields_absent(
        steps in arb_steps(),
        window in 2usize..600,
        max in 1usize..400,
        seed in 0u64..u64::MAX,
        mask in 0u8..32,
        rows in 0i64..900,
    ) {
        let reads = read_set(mask);
        let vec_source = || -> Box<dyn Source> {
            Box::new(VecSource::new(schema(), (0..rows).map(record).collect()))
        };
        prop_assert!(narrow_reads_match(vec_source(), vec_source(), max, &reads).is_ok(),
            "VecSource: {:?}", narrow_reads_match(vec_source(), vec_source(), max, &reads));
        let scripted = || -> Box<dyn Source> { Box::new(Scripted::new(&steps)) };
        prop_assert!(narrow_reads_match(scripted(), scripted(), max, &reads).is_ok(),
            "default: {:?}", narrow_reads_match(scripted(), scripted(), max, &reads));
        let jitter = || -> Box<dyn Source> {
            Box::new(JitterSource::new(Scripted::new(&steps), window, seed))
        };
        prop_assert!(narrow_reads_match(jitter(), jitter(), max, &reads).is_ok(),
            "JitterSource: {:?}", narrow_reads_match(jitter(), jitter(), max, &reads));
        let gap = || -> Box<dyn Source> {
            let inner = VecSource::new(schema(), (0..rows).map(record).collect());
            Box::new(GapSource::new(JitterSource::new(inner, window, seed), 0.3, seed ^ 1))
        };
        prop_assert!(narrow_reads_match(gap(), gap(), max, &reads).is_ok(),
            "GapSource: {:?}", narrow_reads_match(gap(), gap(), max, &reads));
    }

    // The trait's default columnar read is the transposition of the
    // row read, batch for batch.
    #[test]
    fn default_poll_columnar_is_from_records_of_poll(
        steps in arb_steps(),
        max in 1usize..1_100,
    ) {
        let mut columnar = Scripted::new(&steps);
        let mut reference = Scripted::new(&steps);
        loop {
            let all = ReadSet::all(schema().len());
            match (columnar.poll_columnar(max, &all).unwrap(), reference.poll(max).unwrap()) {
                (SourceBatch::Data(tb), SourceBatch::Data(recs)) => {
                    let want = TupleBuffer::from_records(schema(), &recs, BufferMeta::default());
                    prop_assert_eq!(tb.meta(), want.meta());
                    prop_assert_eq!(format!("{:?}", tb.columns()), format!("{:?}", want.columns()));
                }
                (SourceBatch::Idle, SourceBatch::Idle) => {}
                (SourceBatch::Exhausted, SourceBatch::Exhausted) => break,
                (got, want) => prop_assert!(false, "{:?} vs {:?}", got, want),
            }
        }
    }

    // `JitterSource` reorders its columns with the permutation it
    // applies to its rows: the two reads agree poll for poll.
    #[test]
    fn jitter_rows_and_columns_agree(
        steps in arb_steps(),
        window in 2usize..4_097,
        max in 1usize..1_100,
        seed in 0u64..u64::MAX,
    ) {
        let jitter = || JitterSource::new(Scripted::new(&steps), window, seed);
        let rows = drain(&mut jitter(), max, |_| Read::Rows);
        let columns = drain(&mut jitter(), max, |_| Read::Columns);
        prop_assert!(same_answers(&columns, &rows).is_ok(), "{:?}", same_answers(&columns, &rows));
        // Nothing is lost or invented: every record comes out once.
        let mut seen: Vec<i64> = rows
            .iter()
            .flatten()
            .flatten()
            .map(|r| r.get(0).and_then(Value::as_timestamp).unwrap() / 1_000)
            .collect();
        seen.sort_unstable();
        let polled = Scripted::new(&steps).steps.fold(0usize, |n, s| match s {
            Step::Data(k) => n + k.min(max),
            Step::Idle => n,
        });
        prop_assert_eq!(seen, (0..polled as i64).collect::<Vec<_>>());
    }

    // A stream that switches between the two reads carries its queue
    // over: it emits what a row-only reader would.
    #[test]
    fn jitter_switching_reads_mid_stream_agrees(
        steps in arb_steps(),
        window in 2usize..600,
        max in 1usize..300,
        seed in 0u64..u64::MAX,
        reads in 0u64..u64::MAX,
    ) {
        let jitter = || JitterSource::new(Scripted::new(&steps), window, seed);
        let rows = drain(&mut jitter(), max, |_| Read::Rows);
        let mixed = drain(&mut jitter(), max, |i| {
            if reads >> (i % 64) & 1 == 1 { Read::Columns } else { Read::Rows }
        });
        prop_assert!(same_answers(&mixed, &rows).is_ok(), "{:?}", same_answers(&mixed, &rows));
    }

    // `GapSource` forwards the columnar read and swallows the same
    // batches in both reads.
    #[test]
    fn gap_over_jitter_rows_and_columns_agree(
        steps in arb_steps(),
        window in 2usize..1_000,
        max in 1usize..1_100,
        seed in 0u64..u64::MAX,
        gap in 0.0f64..1.0,
    ) {
        let source = || GapSource::new(JitterSource::new(Scripted::new(&steps), window, seed), gap, seed ^ 1);
        let mut by_rows = source();
        let rows = drain(&mut by_rows, max, |_| Read::Rows);
        let mut by_columns = source();
        let columns = drain(&mut by_columns, max, |_| Read::Columns);
        prop_assert!(same_answers(&columns, &rows).is_ok(), "{:?}", same_answers(&columns, &rows));
        prop_assert_eq!(by_columns.dropped(), by_rows.dropped());
    }
}
