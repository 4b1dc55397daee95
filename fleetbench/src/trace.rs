//! The outside driver of the traced pass: the benchmark drives a
//! compiled operator chain itself, mirroring `StreamEnvironment::run`,
//! and records a span around every call into a layer's public
//! functions. Nothing is added inside the engine; the driver's output
//! must equal the engine's ([`crate::layers`] checks it).

use crate::check::Outcome;
use crate::workloads::{Dataset, Workload, BUFFER_SIZE, SLACK_US, WATERMARK_EVERY};
use nebula::prelude::*;
use serde_json::{json, Value as Json};
use std::time::{Duration, Instant};

/// One recorded call: which layer function, when, under which span, and
/// for which source burst (spans of one burst share its number).
struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    burst: u32,
}

/// Spans are kept in memory and written out when the pass ends.
pub struct Tracer {
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn name(&mut self, name: String) -> u32 {
        self.names.push(name);
        (self.names.len() - 1) as u32
    }

    fn open(&mut self, name: u32, parent: Option<u32>, burst: u32) -> u32 {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            burst,
        });
        let id = self.spans.len() - 1;
        // Read the clock last, so the bookkeeping above is outside.
        self.spans[id].start_ns = self.origin.elapsed().as_nanos() as u64;
        id as u32
    }

    /// Ends span `id`; returns its duration in ns.
    fn close(&mut self, id: u32) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        now - span.start_ns
    }

    pub(crate) fn to_json(&self, workload: &Workload, seed: u64) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .map(|s| json!([s.name, s.start_ns, s.end_ns, s.parent, s.burst]))
            .collect();
        json!({
            "workload": workload.name,
            "seed": seed,
            "fields": ["name", "start_ns", "end_ns", "parent", "burst"],
            "names": self.names,
            "spans": spans,
        })
    }
}

/// The layers the outside driver attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layer {
    SourcePoll,
    Transpose,
    Filter,
    Map,
    WindowAbsorb,
    WindowMaterialize,
    Cep,
    OtherOp,
    Progress,
    Sink,
}
const LAYERS: usize = 10;

/// Time and records through one layer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LayerStat {
    pub(crate) ns: u64,
    pub(crate) records_in: u64,
    pub(crate) records_out: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Layers([LayerStat; LAYERS]);

impl Layers {
    fn at(&mut self, layer: Layer) -> &mut LayerStat {
        &mut self.0[layer as usize]
    }

    pub(crate) fn get(&self, layer: Layer) -> LayerStat {
        self.0[layer as usize]
    }

    pub(crate) fn add(&mut self, other: &Layers) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.ns += b.ns;
            a.records_in += b.records_in;
            a.records_out += b.records_out;
        }
    }

    /// Σ self time of every layer span.
    pub(crate) fn total_ns(&self) -> u64 {
        self.0.iter().map(|l| l.ns).sum()
    }
}

/// What one outside-driver run of one query produced.
pub(crate) struct Driven {
    pub(crate) wall: Duration,
    pub(crate) outcome: Outcome,
    pub(crate) layers: Layers,
    pub(crate) batches: u64,
    pub(crate) state_bytes_max: usize,
}

/// The chain under the outside driver, with what each call is
/// attributed to.
struct Chain<'a> {
    tracer: &'a mut Tracer,
    ops: Vec<Box<dyn Operator>>,
    /// Per operator: span names of `process`, `on_watermark`, `on_eos`,
    /// and the layers of data calls and of watermark/eos calls.
    probes: Vec<([u32; 3], Layer, Layer)>,
    sink: CountingSink,
    sink_name: u32,
    rows: Vec<Record>,
    layers: Layers,
}

impl Chain<'_> {
    /// Mirrors the engine's `feed`: pushes one message through every
    /// operator in turn and delivers what leaves the last one.
    fn feed(&mut self, first: StreamMessage, root: u32, burst: u32) -> Result<()> {
        let mut cur = vec![first];
        let mut next: Vec<StreamMessage> = Vec::new();
        for (op, (names, data_layer, flush_layer)) in self.ops.iter_mut().zip(&self.probes) {
            for msg in cur.drain(..) {
                let before: usize = next.iter().map(StreamMessage::record_count).sum();
                let (name, layer) = match msg {
                    StreamMessage::Data(_) | StreamMessage::Columnar(_) => (names[0], *data_layer),
                    StreamMessage::Watermark(_) => (names[1], *flush_layer),
                    StreamMessage::Eos => (names[2], *flush_layer),
                };
                let records_in = msg.record_count() as u64;
                let span = self.tracer.open(name, Some(root), burst);
                match msg {
                    StreamMessage::Data(b) => op.process(b, &mut next)?,
                    StreamMessage::Columnar(b) => op.process_columnar(b, &mut next)?,
                    StreamMessage::Watermark(w) => op.on_watermark(w, &mut next)?,
                    StreamMessage::Eos => op.on_eos(&mut next)?,
                }
                let stat = self.layers.at(layer);
                stat.ns += self.tracer.close(span);
                stat.records_in += records_in;
                let after: usize = next.iter().map(StreamMessage::record_count).sum();
                stat.records_out += (after - before) as u64;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        for msg in cur {
            let rows = msg.record_count() as u64;
            if rows == 0 && !matches!(msg, StreamMessage::Data(_) | StreamMessage::Columnar(_)) {
                continue;
            }
            let span = self.tracer.open(self.sink_name, Some(root), burst);
            match &msg {
                StreamMessage::Data(b) => self.sink.consume(b)?,
                StreamMessage::Columnar(b) => self.sink.consume_columnar(b)?,
                StreamMessage::Watermark(_) | StreamMessage::Eos => {}
            }
            let stat = self.layers.at(Layer::Sink);
            stat.ns += self.tracer.close(span);
            stat.records_in += rows;
            // Kept for the digest, outside any span.
            match msg {
                StreamMessage::Data(b) => self.rows.extend(b.into_records()),
                StreamMessage::Columnar(b) => {
                    self.rows.extend(b.to_record_buffer().into_records());
                }
                StreamMessage::Watermark(_) | StreamMessage::Eos => {}
            }
        }
        Ok(())
    }
}

/// `ColumnarMode::Auto`'s gate, from the operators' public capability
/// flags: transpose only when some operator of the columnar-capable
/// prefix runs a vectorised kernel.
fn auto_wants_columnar(ops: &[Box<dyn Operator>]) -> bool {
    for op in ops {
        if !op.supports_columnar() {
            return false;
        }
        if op.columnar_benefit() {
            return true;
        }
        if !op.propagates_columnar() {
            return false;
        }
    }
    false
}

/// The outside driver: runs `query` over the workload's input the way
/// `StreamEnvironment::run` does — `Source::poll` → (transposition when
/// the `Auto` gate would) → each operator → `Sink::consume`, a watermark
/// every [`WATERMARK_EVERY`] batches at `max_ts − slack` — with a span
/// around every call.
pub(crate) fn drive(
    ds: &Dataset,
    workload: &Workload,
    query_name: &str,
    query: &Query,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Driven> {
    let schema = sncb::fleet_schema();
    let ts_col = schema.index_of("ts").expect("fleet schema has ts");
    let ops = compile(query, schema.clone(), &ds.registry()?)?.operators;
    let columnar = auto_wants_columnar(&ops);
    let probes = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let names = ["process", "on_watermark", "on_eos"]
                .map(|call| tracer.name(format!("{query_name}/op{i}:{}.{call}", op.name())));
            let (data, flush) = match op.name() {
                "filter" => (Layer::Filter, Layer::Filter),
                "map" => (Layer::Map, Layer::Map),
                "window" => (Layer::WindowAbsorb, Layer::WindowMaterialize),
                "cep" => (Layer::Cep, Layer::Cep),
                _ => (Layer::OtherOp, Layer::OtherOp),
            };
            (names, data, flush)
        })
        .collect();
    let [burst_name, poll_name, transpose_name, progress_name, sink_name] = [
        "burst",
        "source.poll",
        "buffer.transpose",
        "progress.observe",
        "sink.consume",
    ]
    .map(|n| tracer.name(format!("{query_name}/{n}")));
    let mut chain = Chain {
        tracer,
        ops,
        probes,
        sink: CountingSink::new().0,
        sink_name,
        rows: Vec::new(),
        layers: Layers::default(),
    };
    let mut source = workload.source(ds.records.clone(), seed);
    let mut tracker = ProgressTracker::new();
    tracker.register(0);
    let mut max_ts = EventTime::MIN;
    let mut batches: u64 = 0;
    let mut records_in: u64 = 0;
    let mut state_bytes_max = 0;

    let start = Instant::now();
    loop {
        let burst = (batches + 1) as u32;
        let root = chain.tracer.open(burst_name, None, burst);
        let span = chain.tracer.open(poll_name, Some(root), burst);
        let batch = source.poll(BUFFER_SIZE)?;
        let poll_ns = chain.tracer.close(span);
        let recs = match batch {
            SourceBatch::Data(recs) => recs,
            // The workload sources never idle; treat it like the end.
            SourceBatch::Idle | SourceBatch::Exhausted => {
                tracker.finish(0);
                chain.feed(StreamMessage::Eos, root, burst)?;
                chain.sink.finish()?;
                chain.tracer.close(root);
                break;
            }
        };
        batches += 1;
        records_in += recs.len() as u64;
        let stat = chain.layers.at(Layer::SourcePoll);
        stat.ns += poll_ns;
        stat.records_out += recs.len() as u64;

        let punctuation = |max_ts: EventTime| {
            (batches.is_multiple_of(WATERMARK_EVERY) && max_ts != EventTime::MIN)
                .then(|| max_ts - SLACK_US)
        };
        let (msg, punct) = if columnar {
            let span = chain.tracer.open(transpose_name, Some(root), burst);
            let mut tb = TupleBuffer::from_records(
                schema.clone(),
                &recs,
                BufferMeta {
                    origin: 0,
                    sequence: batches,
                    ..BufferMeta::default()
                },
            );
            tb.recompute_time_bounds(ts_col);
            let stat = chain.layers.at(Layer::Transpose);
            stat.ns += chain.tracer.close(span);
            stat.records_in += recs.len() as u64;
            max_ts = max_ts.max(tb.meta().max_ts.unwrap_or(EventTime::MIN));
            let punct = punctuation(max_ts);
            tb.meta_mut().watermark = punct;
            (StreamMessage::Columnar(tb), punct)
        } else {
            let buf = RecordBuffer::new(schema.clone(), recs);
            max_ts = max_ts.max(buf.max_event_time(ts_col).unwrap_or(EventTime::MIN));
            (StreamMessage::Data(buf), punctuation(max_ts))
        };
        chain.feed(msg, root, burst)?;

        let span = chain.tracer.open(progress_name, Some(root), burst);
        tracker.observe(0, batches, punct);
        let stat = chain.layers.at(Layer::Progress);
        stat.ns += chain.tracer.close(span);
        if punct.is_some() {
            if let Some(frontier) = tracker.frontier() {
                chain.feed(StreamMessage::Watermark(frontier), root, burst)?;
                let state: usize = chain.ops.iter().map(|op| op.state_bytes()).sum();
                state_bytes_max = state_bytes_max.max(state);
            }
        }
        chain.tracer.close(root);
    }
    let wall = start.elapsed();
    let late_drops = chain.ops.iter().map(|op| op.late_drops()).sum();
    let rows = chain.rows.len() as u64;
    Ok(Driven {
        wall,
        outcome: Outcome {
            records_in,
            late_drops,
            rows,
            digest: crate::check::digest(chain.rows),
        },
        layers: chain.layers,
        batches,
        state_bytes_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::checked_run;
    use crate::workloads::{Cell, DatasetKind, Mode, DEFAULT_SEED, QUERY_NAMES};

    /// The outside driver mirrors `StreamEnvironment::run`; if the two
    /// ever part ways, every per-layer share is attributed wrongly.
    #[test]
    fn outside_driver_output_equals_the_engines() {
        for name in ["geofence_local", "stateful_local", "partitioned_skew"] {
            let workload = Workload::by_name(name).expect("workload exists");
            let ds = Dataset::with_minutes(workload.dataset, DEFAULT_SEED, 4);
            let mut tracer = Tracer::new();
            for (query_name, query) in workload.queries() {
                let cell = Cell {
                    query_name,
                    query,
                    mode: Mode::Run,
                };
                let (_, engine) =
                    checked_run(&ds, &workload, &cell, DEFAULT_SEED).expect("engine runs");
                let driven = drive(
                    &ds,
                    &workload,
                    query_name,
                    &cell.query,
                    DEFAULT_SEED,
                    &mut tracer,
                )
                .expect("driver runs");
                assert_eq!(driven.outcome, engine, "{name}/{query_name}");
                assert_eq!(engine.records_in as usize, ds.records.len());
            }
            // Every span is closed and lies inside its parent.
            for span in &tracer.spans {
                assert!(span.end_ns >= span.start_ns);
                if let Some(parent) = span.parent {
                    let parent = &tracer.spans[parent as usize];
                    assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
                    assert_eq!(parent.burst, span.burst);
                }
            }
        }
    }

    #[test]
    fn auto_gate_transposes_only_for_the_stateless_queries() {
        let ds = Dataset::with_minutes(DatasetKind::Fleet24, DEFAULT_SEED, 1);
        let registry = ds.registry().expect("plugins load");
        for name in QUERY_NAMES {
            let query = crate::workloads::named_query(name).expect("named");
            let ops = compile(&query, sncb::fleet_schema(), &registry)
                .expect("compiles")
                .operators;
            let stateless = matches!(name, "q1" | "q3" | "q4");
            assert_eq!(auto_wants_columnar(&ops), stateless, "{name}");
        }
    }
}
