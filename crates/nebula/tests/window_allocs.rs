//! Allocation tripwire for the window state: a sliding and a tumbling
//! keyed window, and a tumbling window with a plugin aggregate, run
//! under `run` over a synthetic 24-key feed, and the heap allocations
//! the run makes per 1 000 events must stay under a bound. The window
//! state keeps built-in accumulators inline in each key's slice ring
//! and reuses its per-buffer scratch, and a plugin accumulator reads
//! buffer rows in place, so the allocations are per emitted row and per
//! buffer, not per slice or per record; boxing accumulators again, or
//! building a key, sort key or `Record` per row, trips the bound.
//!
//! The counting allocator is this test binary's own `#[global_allocator]`
//! and counts per thread: `run` executes the whole pipeline on the
//! calling thread, so concurrently running tests do not disturb the
//! count.

use nebula::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: i64 = 24;
const TICK_US: i64 = 250_000;
/// Ten minutes of four readings a second from every key.
const TICKS: i64 = 4 * 600;

fn schema() -> SchemaRef {
    Schema::of(&[
        ("ts", DataType::Timestamp),
        ("train", DataType::Int),
        ("speed", DataType::Float),
        ("noise", DataType::Float),
    ])
}

/// One reading per key per tick, in event-time order.
fn feed() -> Vec<Record> {
    (0..TICKS)
        .flat_map(|tick| {
            (0..KEYS).map(move |key| {
                let x = (tick * 31 + key * 17) % 97;
                Record::new(vec![
                    Value::Timestamp(tick * TICK_US),
                    Value::Int(key),
                    Value::Float(x as f64),
                    Value::Float(60.0 + (x % 13) as f64),
                ])
            })
        })
        .collect()
}

fn profile(spec: WindowSpec) -> Query {
    Query::from("s").window(
        vec![("train", col("train"))],
        spec,
        vec![
            WindowAgg::new("n", AggSpec::Count),
            WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            WindowAgg::new("max_noise", AggSpec::Max(col("noise"))),
        ],
    )
}

/// Heap allocations per 1 000 events of one `run` of `query`, and the
/// rows it emitted.
fn allocs_per_kevent(query: &Query) -> (f64, u64) {
    let records = feed();
    let events = records.len() as f64;
    let mut env = StreamEnvironment::with_config(EnvConfig {
        buffer_size: 1024,
        watermark_every: 4,
        ..EnvConfig::default()
    });
    env.add_source(
        "s",
        Box::new(VecSource::new(schema(), records)),
        WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        },
    );
    let (mut sink, rows) = CountingSink::new();
    let before = ALLOCS.with(Cell::get);
    env.run(query, &mut sink).expect("runs");
    let allocs = ALLOCS.with(Cell::get) - before;
    (allocs as f64 * 1_000.0 / events, rows.records())
}

/// A plugin aggregate: the sum of squares of `speed` in a boxed
/// accumulator, folded through the default `Aggregator::update_rows`.
struct SumSquares;

impl AggregatorFactory for SumSquares {
    fn output_type(&self, _input: &Schema, _registry: &FunctionRegistry) -> Result<DataType> {
        Ok(DataType::Float)
    }

    fn create(&self, input: &Schema, _registry: &FunctionRegistry) -> Result<Box<dyn Aggregator>> {
        struct Acc {
            speed: usize,
            sum: f64,
        }
        impl Aggregator for Acc {
            fn update(&mut self, row: Row<'_>) -> Result<()> {
                let v = row
                    .get(self.speed)
                    .and_then(|v| v.as_float())
                    .unwrap_or(0.0);
                self.sum += v * v;
                Ok(())
            }
            fn partial(&self) -> Result<Vec<Value>> {
                Ok(vec![Value::Float(self.sum)])
            }
            fn merge_partial(&mut self, partial: &[Value]) -> Result<()> {
                self.sum += partial.first().and_then(Value::as_float).unwrap_or(0.0);
                Ok(())
            }
            fn finish(&mut self) -> Result<Value> {
                Ok(Value::Float(self.sum))
            }
        }
        let speed = input
            .index_of("speed")
            .ok_or_else(|| NebulaError::Plan("no speed field".into()))?;
        Ok(Box::new(Acc { speed, sum: 0.0 }))
    }
}

#[test]
fn sliding_window_allocations_stay_bounded() {
    // About 69 of the 91 are the emitted rows' own value vectors (3 960
    // rows over 57 600 events); boxed per-slice accumulators cost 771.
    const BOUND: f64 = 100.0;
    let (per_kevent, rows) = allocs_per_kevent(&profile(WindowSpec::Sliding {
        size: 64 * MICROS_PER_SEC,
        slide: 4 * MICROS_PER_SEC,
    }));
    println!("sliding 64 s / 4 s: {per_kevent:.1} allocations per 1 000 events, {rows} rows");
    assert_eq!(rows, 24 * (600 / 4 + 15), "every window of every key");
    assert!(
        per_kevent < BOUND,
        "{per_kevent:.1} allocations per 1 000 events"
    );
}

#[test]
fn tumbling_window_allocations_stay_bounded() {
    // 20 with inline accumulators; boxed per-slice accumulators cost 140.
    const BOUND: f64 = 25.0;
    let (per_kevent, rows) = allocs_per_kevent(&profile(WindowSpec::Tumbling {
        size: 60 * MICROS_PER_SEC,
    }));
    println!("tumbling 60 s: {per_kevent:.1} allocations per 1 000 events, {rows} rows");
    assert_eq!(rows, 24 * 10, "every window of every key");
    assert!(
        per_kevent < BOUND,
        "{per_kevent:.1} allocations per 1 000 events"
    );
}

#[test]
fn plugin_aggregate_allocations_stay_bounded() {
    // 31 with buffer rows read in place; a `Record` built per folded row
    // costs 1 031.
    const BOUND: f64 = 50.0;
    let query = Query::from("s").window(
        vec![("train", col("train"))],
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        },
        vec![WindowAgg::new(
            "speed_sq",
            AggSpec::Custom(std::sync::Arc::new(SumSquares)),
        )],
    );
    let (per_kevent, rows) = allocs_per_kevent(&query);
    println!("tumbling 60 s, plugin aggregate: {per_kevent:.1} allocations per 1 000 events, {rows} rows");
    assert_eq!(rows, 24 * 10, "every window of every key");
    assert!(
        per_kevent < BOUND,
        "{per_kevent:.1} allocations per 1 000 events"
    );
}
