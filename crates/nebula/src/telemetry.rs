//! Runtime telemetry: per-operator metrics, periodic sampling, and
//! structured trace export.
//!
//! Every execution mode reports one [`QueryMetrics`] aggregate after
//! the run ends; this module adds the *while it runs* view the elastic
//! runtime (ROADMAP item 5, Nephele direction) needs to react to:
//!
//! - **Per-operator metrics** ([`OperatorReport`]): each compiled
//!   operator is wrapped in an instrumented shell counting records and
//!   buffers in/out, late drops, state size, and a bounded service-time
//!   histogram, keyed by a stable id derived from the operator's plan
//!   position. Reports from partitions, pipelines, and cluster sites
//!   merge exactly like [`QueryMetrics::merge`].
//! - **Periodic sampling** ([`TelemetrySampler`]): throughput, channel
//!   queue depth, progress frontier and lag, backpressure stalls, and
//!   cumulative per-operator counters, snapshotted on a configurable
//!   interval into a bounded in-memory time series. Cluster pipelines
//!   ship per-node [`NodeSnapshot`]s over the wire
//!   ([`crate::wire::Frame::Telemetry`]) for cloud-side fan-in.
//! - **Trace events** ([`TraceRing`]): a bounded ring buffer of
//!   engine-level events (query deployed, checkpoint sealed, node down,
//!   replan, late-drop burst, backpressure stall) with origin/sequence
//!   causality fields.
//! - **Export** ([`QueryReport`]): all three combined, renderable as
//!   text and serializable to JSON via the vendored `serde_json`.
//!
//! Instrumentation is on by default and costs a few atomic increments
//! plus one `Instant` pair per buffer per operator; disable it with
//! [`TelemetryConfig::enabled`] to get the bare pipeline back.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::buffer::TupleBuffer;
use crate::error::Result;
use crate::metrics::{Histogram, QueryMetrics};
use crate::ops::Operator;
use crate::record::{RecordBuffer, StreamMessage};
use crate::schema::{ReadSet, SchemaRef};
use crate::value::EventTime;

/// Telemetry knobs, embedded in [`crate::runtime::EnvConfig`] and
/// [`crate::cluster::ClusterConfig`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch: when false, operators are not wrapped, samplers
    /// never fire, and runs produce no [`QueryReport`].
    pub enabled: bool,
    /// Minimum interval between periodic samples. Sampling piggybacks
    /// on the driver loop (one elapsed-check per source batch), so the
    /// effective cadence is `max(sample_every, batch duration)`.
    pub sample_every: Duration,
    /// Cap on the in-memory sample series; the oldest samples are
    /// dropped (and counted) once the cap is reached.
    pub max_samples: usize,
    /// Cap on the trace-event ring; oldest events drop first.
    pub max_events: usize,
    /// Cap on cloud-side retained per-node snapshots.
    pub max_node_snapshots: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: true,
            sample_every: Duration::from_millis(100),
            max_samples: 4096,
            max_events: 1024,
            max_node_snapshots: 4096,
        }
    }
}

/// Shared counters for one instrumented operator. The execution thread
/// owns the operator; these handles let the coordinator read (and
/// merge) its counters from outside without touching the chain.
#[derive(Debug, Default)]
pub struct OpStats {
    records_in: AtomicU64,
    records_out: AtomicU64,
    buffers_in: AtomicU64,
    buffers_out: AtomicU64,
    /// Mirror of the inner operator's late-drop counter, refreshed
    /// after every call so readers never need the operator itself.
    late_drops: AtomicU64,
    /// Gauge: estimated bytes of operator state after the last call.
    state_bytes: AtomicU64,
    /// Total service time across calls, in nanoseconds.
    service_ns: AtomicU64,
    /// Calls measured (process + watermark + eos).
    calls: AtomicU64,
    /// Per-call service time histogram (µs). Uncontended in practice:
    /// one thread drives a chain; readers only lock to snapshot.
    service: Mutex<Histogram>,
}

/// An operator wrapped with measurement: counts records/buffers in and
/// out, times every call, and mirrors late-drop and state-size gauges
/// into a shared [`OpStats`]. Delegates the full [`Operator`] contract,
/// including columnar support flags, so instrumentation never changes
/// planning or routing decisions. `snapshot()` re-wraps the inner
/// snapshot around the *same* stats handle — checkpoint-restored chains
/// keep reporting into the original registry.
struct InstrumentedOp {
    inner: Box<dyn Operator>,
    stats: Arc<OpStats>,
}

impl InstrumentedOp {
    /// Counts the messages `call` appended to `out` and the time it
    /// took, then refreshes the mirrored gauges.
    fn measure(
        &mut self,
        out: &mut Vec<StreamMessage>,
        call: impl FnOnce(&mut dyn Operator, &mut Vec<StreamMessage>) -> Result<()>,
    ) -> Result<()> {
        let before = out.len();
        let t0 = Instant::now();
        let res = call(self.inner.as_mut(), out);
        let dt = t0.elapsed();
        self.stats
            .service_ns
            .fetch_add(dt.as_nanos() as u64, Relaxed);
        self.stats.calls.fetch_add(1, Relaxed);
        self.stats
            .service
            .lock()
            .record(dt.as_secs_f64() * 1_000_000.0);
        let mut records = 0u64;
        let mut buffers = 0u64;
        for m in &out[before..] {
            let n = m.record_count() as u64;
            if matches!(m, StreamMessage::Data(_) | StreamMessage::Columnar(_)) {
                records += n;
                buffers += 1;
            }
        }
        self.stats.records_out.fetch_add(records, Relaxed);
        self.stats.buffers_out.fetch_add(buffers, Relaxed);
        self.stats
            .late_drops
            .store(self.inner.late_drops(), Relaxed);
        self.stats
            .state_bytes
            .store(self.inner.state_bytes() as u64, Relaxed);
        res
    }
}

impl Operator for InstrumentedOp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn output_schema(&self) -> SchemaRef {
        self.inner.output_schema()
    }

    fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.stats.records_in.fetch_add(buf.len() as u64, Relaxed);
        self.stats.buffers_in.fetch_add(1, Relaxed);
        self.measure(out, |op, out| op.process(buf, out))
    }

    fn supports_columnar(&self) -> bool {
        self.inner.supports_columnar()
    }

    fn process_columnar(&mut self, buf: TupleBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.stats.records_in.fetch_add(buf.len() as u64, Relaxed);
        self.stats.buffers_in.fetch_add(1, Relaxed);
        self.measure(out, |op, out| op.process_columnar(buf, out))
    }

    fn columnar_benefit(&self) -> bool {
        self.inner.columnar_benefit()
    }

    fn propagates_columnar(&self) -> bool {
        self.inner.propagates_columnar()
    }

    fn reads(&self, live: &ReadSet, reads: &mut ReadSet) {
        self.inner.reads(live, reads)
    }

    fn on_watermark(&mut self, wm: EventTime, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.measure(out, |op, out| op.on_watermark(wm, out))
    }

    fn on_eos(&mut self, out: &mut Vec<StreamMessage>) -> Result<()> {
        self.measure(out, |op, out| op.on_eos(out))
    }

    fn late_drops(&self) -> u64 {
        self.inner.late_drops()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn snapshot(&self) -> Result<Box<dyn Operator>> {
        Ok(Box::new(InstrumentedOp {
            inner: self.inner.snapshot()?,
            stats: Arc::clone(&self.stats),
        }))
    }
}

/// One instrumented operator's identity and counter handle.
#[derive(Clone)]
struct OpHandle {
    /// Plan position (chain index, offset by the caller's `index_base`
    /// for cloud-side tails) — the stable half of the operator id.
    index: usize,
    name: String,
    stats: Arc<OpStats>,
}

/// The coordinator-side registry for one instrumented chain: reads and
/// merges per-operator counters while the chain itself lives on an
/// execution thread (or the other side of a checkpoint restore). Clones
/// share the same underlying counters.
#[derive(Clone, Default)]
pub struct ChainTelemetry {
    handles: Vec<OpHandle>,
}

impl ChainTelemetry {
    /// True when the chain was not instrumented (telemetry disabled).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Current per-operator reports, in plan order.
    pub fn reports(&self) -> Vec<OperatorReport> {
        self.handles.iter().map(OpHandle::report).collect()
    }

    /// Sum of the chain's mirrored late-drop counters.
    fn late_drops(&self) -> u64 {
        self.handles
            .iter()
            .map(|h| h.stats.late_drops.load(Relaxed))
            .sum()
    }

    /// Lightweight per-operator readings for a periodic sample:
    /// cumulative counters only, no histogram locking.
    fn op_samples(&self) -> Vec<OpSample> {
        self.handles
            .iter()
            .map(|h| {
                let calls = h.stats.calls.load(Relaxed);
                let service_ns = h.stats.service_ns.load(Relaxed);
                OpSample {
                    id: operator_id(h.index, &h.name),
                    records_in: h.stats.records_in.load(Relaxed),
                    records_out: h.stats.records_out.load(Relaxed),
                    mean_service_us: if calls == 0 {
                        0.0
                    } else {
                        service_ns as f64 / calls as f64 / 1_000.0
                    },
                    state_bytes: h.stats.state_bytes.load(Relaxed),
                }
            })
            .collect()
    }
}

/// The stable operator id: plan position plus operator name, e.g.
/// `op2:window`. Partitions and sites executing copies of the same plan
/// position produce the same id, which is what merging keys on.
pub fn operator_id(index: usize, name: &str) -> String {
    format!("op{index}:{name}")
}

impl OpHandle {
    fn report(&self) -> OperatorReport {
        OperatorReport {
            index: self.index,
            name: self.name.clone(),
            records_in: self.stats.records_in.load(Relaxed),
            records_out: self.stats.records_out.load(Relaxed),
            buffers_in: self.stats.buffers_in.load(Relaxed),
            buffers_out: self.stats.buffers_out.load(Relaxed),
            late_drops: self.stats.late_drops.load(Relaxed),
            state_bytes: self.stats.state_bytes.load(Relaxed),
            calls: self.stats.calls.load(Relaxed),
            service_us: self.stats.service.lock().clone(),
        }
    }
}

/// Wraps every operator of a compiled chain in an instrumented shell,
/// returning the wrapped chain plus the coordinator-side registry.
/// `index_base` offsets the plan position — cluster cloud tails pass
/// the pipeline chain length so edge `op0..opN` and cloud
/// `opN+1..` ids never collide. When `enabled` is false the chain is
/// returned untouched with an empty registry.
pub fn instrument_chain(
    ops: Vec<Box<dyn Operator>>,
    enabled: bool,
    index_base: usize,
) -> (Vec<Box<dyn Operator>>, ChainTelemetry) {
    if !enabled {
        return (ops, ChainTelemetry::default());
    }
    let mut handles = Vec::with_capacity(ops.len());
    let wrapped = ops
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            let stats = Arc::new(OpStats::default());
            handles.push(OpHandle {
                index: index_base + i,
                name: inner.name().to_string(),
                stats: Arc::clone(&stats),
            });
            Box::new(InstrumentedOp { inner, stats }) as Box<dyn Operator>
        })
        .collect();
    (wrapped, ChainTelemetry { handles })
}

/// Final per-operator measurements for one plan position, merged across
/// every partition, pipeline, and site that executed it — the telemetry
/// analogue of [`QueryMetrics`]: counters add, service histograms merge
/// losslessly at bucket granularity, gauges add (concurrent copies hold
/// state simultaneously).
#[derive(Debug, Clone)]
pub struct OperatorReport {
    /// Plan position (see [`operator_id`]).
    pub index: usize,
    /// Operator name as reported by [`Operator::name`].
    pub name: String,
    /// Records consumed.
    pub records_in: u64,
    /// Records produced.
    pub records_out: u64,
    /// Buffers consumed.
    pub buffers_in: u64,
    /// Buffers produced.
    pub buffers_out: u64,
    /// Late records this operator dropped.
    pub late_drops: u64,
    /// Estimated bytes of operator state at last measurement.
    pub state_bytes: u64,
    /// Measured calls (process + watermark + eos).
    pub calls: u64,
    /// Per-call service time, µs.
    pub service_us: Histogram,
}

impl OperatorReport {
    /// The stable operator id, e.g. `op2:window`.
    pub fn id(&self) -> String {
        operator_id(self.index, &self.name)
    }

    /// Output selectivity (records out / records in).
    pub fn selectivity(&self) -> f64 {
        if self.records_in == 0 {
            0.0
        } else {
            self.records_out as f64 / self.records_in as f64
        }
    }

    /// Folds another copy of the same plan position into this one.
    pub fn merge(&mut self, other: &OperatorReport) {
        debug_assert_eq!(self.index, other.index);
        debug_assert_eq!(self.name, other.name);
        self.records_in += other.records_in;
        self.records_out += other.records_out;
        self.buffers_in += other.buffers_in;
        self.buffers_out += other.buffers_out;
        self.late_drops += other.late_drops;
        self.state_bytes += other.state_bytes;
        self.calls += other.calls;
        self.service_us.merge(&other.service_us);
    }

    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "id": self.id(),
            "name": self.name.as_str(),
            "records_in": self.records_in,
            "records_out": self.records_out,
            "buffers_in": self.buffers_in,
            "buffers_out": self.buffers_out,
            "selectivity": self.selectivity(),
            "late_drops": self.late_drops,
            "state_bytes": self.state_bytes,
            "calls": self.calls,
            "service_us": {
                "mean": self.service_us.mean(),
                "p50": self.service_us.percentile(50.0),
                "p99": self.service_us.percentile(99.0),
                "max": self.service_us.max(),
            },
        })
    }
}

/// Merges per-operator reports from many chains (partitions, pipeline
/// stages, the cloud tail) into one plan-ordered list keyed by operator
/// id — the per-operator analogue of summing partition
/// [`QueryMetrics`].
pub fn merge_operator_reports(chains: &[ChainTelemetry]) -> Vec<OperatorReport> {
    let mut acc: BTreeMap<(usize, String), OperatorReport> = BTreeMap::new();
    for chain in chains {
        for report in chain.reports() {
            match acc.entry((report.index, report.name.clone())) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(report);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().merge(&report);
                }
            }
        }
    }
    acc.into_values().collect()
}

/// Engine-level trace event kinds — the taxonomy of "something
/// happened" moments worth correlating with the metric series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A query was compiled and handed to an executor.
    QueryDeployed,
    /// A checkpoint barrier aligned at the cloud and its state was
    /// persisted (chaos/recovery runs).
    CheckpointSealed,
    /// A node crashed or was declared down by heartbeat loss.
    NodeDown,
    /// The placement was re-planned around a crashed node (recovery).
    Replan,
    /// Late-record drops occurred since the previous sample.
    LateDropBurst,
    /// A producer blocked on a full channel since the previous sample.
    BackpressureStall,
}

impl TraceKind {
    /// Stable lowercase identifier used in JSON export.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceKind::QueryDeployed => "query_deployed",
            TraceKind::CheckpointSealed => "checkpoint_sealed",
            TraceKind::NodeDown => "node_down",
            TraceKind::Replan => "replan",
            TraceKind::LateDropBurst => "late_drop_burst",
            TraceKind::BackpressureStall => "backpressure_stall",
        }
    }
}

/// One trace event. `seq` totally orders events within a run (the ring
/// assigns it under its lock); `origin` names the participant that
/// observed the event — pipeline/partition index, or
/// [`COORDINATOR_ORIGIN`] for coordinator- and cloud-side events — so
/// cross-node causality can be reconstructed per origin even after the
/// bounded ring drops old events.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Ring-global monotone sequence number.
    pub seq: u64,
    /// Observing participant (see [`COORDINATOR_ORIGIN`]).
    pub origin: u64,
    /// Milliseconds since the ring (i.e. the run) started.
    pub at_ms: f64,
    /// What happened.
    pub kind: TraceKind,
    /// Free-form context, e.g. the failed node's name.
    pub detail: String,
}

impl TraceEvent {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "seq": self.seq,
            "origin": self.origin,
            "at_ms": self.at_ms,
            "kind": self.kind.as_str(),
            "detail": self.detail.as_str(),
        })
    }
}

/// Origin value for events observed by the coordinator or the cloud
/// fan-in rather than a specific pipeline/partition.
pub const COORDINATOR_ORIGIN: u64 = u64::MAX;

struct TraceRingInner {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

/// A bounded, thread-shared ring buffer of [`TraceEvent`]s. When full,
/// the oldest event is dropped (and counted): recent history wins.
pub struct TraceRing {
    inner: Mutex<TraceRingInner>,
    start: Instant,
    cap: usize,
}

impl TraceRing {
    /// An empty ring holding at most `cap` events (min 1).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            inner: Mutex::new(TraceRingInner {
                events: VecDeque::new(),
                next_seq: 0,
                dropped: 0,
            }),
            start: Instant::now(),
            cap: cap.max(1),
        }
    }

    /// Appends an event, stamping its sequence number and relative time.
    pub fn push(&self, origin: u64, kind: TraceKind, detail: impl Into<String>) {
        let at_ms = self.start.elapsed().as_secs_f64() * 1_000.0;
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() >= self.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(TraceEvent {
            seq,
            origin,
            at_ms,
            kind,
            detail: detail.into(),
        });
    }

    /// Current events in sequence order plus the count dropped to the
    /// ring bound.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let inner = self.inner.lock();
        (inner.events.iter().cloned().collect(), inner.dropped)
    }
}

/// Instantaneous gauges the driver loop hands to the sampler — the
/// values only the executor knows (the sampler owns everything else).
#[derive(Debug, Clone, Default)]
pub struct Gauges {
    /// Records ingested so far (cumulative).
    pub records_in: u64,
    /// Records delivered so far (cumulative).
    pub records_out: u64,
    /// Queued-but-unprocessed items across the mode's channels.
    pub queue_depth: u64,
    /// Current progress frontier, if the mode tracks one.
    pub frontier: Option<EventTime>,
    /// High-water frontier lag observed so far, µs.
    pub frontier_lag_us: u64,
    /// Producer blocks on full channels so far (cumulative).
    pub stalls: u64,
}

/// Cumulative per-operator readings embedded in a sample (cheap: no
/// histogram access).
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Stable operator id (see [`operator_id`]).
    pub id: String,
    /// Records consumed so far.
    pub records_in: u64,
    /// Records produced so far.
    pub records_out: u64,
    /// Mean service time per call so far, µs.
    pub mean_service_us: f64,
    /// Estimated operator state bytes at the last call.
    pub state_bytes: u64,
}

impl OpSample {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "id": self.id.as_str(),
            "records_in": self.records_in,
            "records_out": self.records_out,
            "mean_service_us": self.mean_service_us,
            "state_bytes": self.state_bytes,
        })
    }
}

/// One point of the periodic time series.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// Milliseconds since the run started.
    pub at_ms: f64,
    /// Cumulative records ingested.
    pub records_in: u64,
    /// Cumulative records delivered.
    pub records_out: u64,
    /// Ingest rate since the previous sample, events/s.
    pub throughput_eps: f64,
    /// Channel queue depth at sample time.
    pub queue_depth: u64,
    /// Progress frontier at sample time.
    pub frontier: Option<EventTime>,
    /// High-water frontier lag, µs.
    pub frontier_lag_us: u64,
    /// Cumulative backpressure stalls.
    pub stalls: u64,
    /// Per-operator cumulative readings.
    pub operators: Vec<OpSample>,
}

impl TelemetrySample {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "at_ms": self.at_ms,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "throughput_eps": self.throughput_eps,
            "queue_depth": self.queue_depth,
            "frontier": self.frontier,
            "frontier_lag_us": self.frontier_lag_us,
            "stalls": self.stalls,
            "operators": self.operators.iter().map(OpSample::to_json).collect::<Vec<_>>(),
        })
    }
}

/// Periodically snapshots a running query into a bounded time series,
/// and turns counter deltas into [`TraceKind::LateDropBurst`] /
/// [`TraceKind::BackpressureStall`] events. Owned by whichever thread
/// drives the mode's main loop; call [`TelemetrySampler::maybe_sample`]
/// once per batch and [`TelemetrySampler::force_sample`] at the end so
/// even sub-interval runs record one point. In the cluster modes it
/// also retains the [`NodeSnapshot`]s the nodes ship to the cloud.
pub struct TelemetrySampler {
    enabled: bool,
    every: Duration,
    max_samples: usize,
    start: Instant,
    last: Instant,
    last_records_in: u64,
    last_late: u64,
    last_stalls: u64,
    samples: VecDeque<TelemetrySample>,
    dropped: u64,
    max_snapshots: usize,
    snapshots: VecDeque<NodeSnapshot>,
    snapshots_dropped: u64,
}

impl TelemetrySampler {
    /// A sampler configured from `cfg`; the run clock starts now.
    pub fn new(cfg: &TelemetryConfig) -> Self {
        let now = Instant::now();
        TelemetrySampler {
            enabled: cfg.enabled,
            every: cfg.sample_every,
            max_samples: cfg.max_samples.max(1),
            start: now,
            last: now,
            last_records_in: 0,
            last_late: 0,
            last_stalls: 0,
            samples: VecDeque::new(),
            dropped: 0,
            max_snapshots: cfg.max_node_snapshots.max(1),
            snapshots: VecDeque::new(),
            snapshots_dropped: 0,
        }
    }

    /// Retains a node snapshot under the configured bound (oldest out
    /// first).
    pub(crate) fn keep_snapshot(&mut self, snap: NodeSnapshot) {
        if self.snapshots.len() >= self.max_snapshots {
            self.snapshots.pop_front();
            self.snapshots_dropped += 1;
        }
        self.snapshots.push_back(snap);
    }

    /// Takes a sample if the configured interval elapsed. `trace`, when
    /// provided, receives burst/stall events derived from counter
    /// deltas, attributed to `origin`.
    pub fn maybe_sample(
        &mut self,
        gauges: &Gauges,
        chains: &[ChainTelemetry],
        trace: Option<(&TraceRing, u64)>,
    ) {
        if !self.enabled || self.last.elapsed() < self.every {
            return;
        }
        self.sample_now(gauges, chains, trace);
    }

    /// Takes a sample unconditionally (the end-of-run point).
    pub fn force_sample(
        &mut self,
        gauges: &Gauges,
        chains: &[ChainTelemetry],
        trace: Option<(&TraceRing, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.sample_now(gauges, chains, trace);
    }

    fn sample_now(
        &mut self,
        gauges: &Gauges,
        chains: &[ChainTelemetry],
        trace: Option<(&TraceRing, u64)>,
    ) {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_secs_f64();
        let delta_in = gauges.records_in.saturating_sub(self.last_records_in);
        let throughput_eps = if dt > 0.0 { delta_in as f64 / dt } else { 0.0 };
        let operators: Vec<OpSample> = chains.iter().flat_map(ChainTelemetry::op_samples).collect();

        if let Some((ring, origin)) = trace {
            let late: u64 = chains.iter().map(ChainTelemetry::late_drops).sum();
            let late_delta = late.saturating_sub(self.last_late);
            if late_delta > 0 {
                ring.push(
                    origin,
                    TraceKind::LateDropBurst,
                    format!("{late_delta} late drops since previous sample"),
                );
            }
            self.last_late = late;
            let stall_delta = gauges.stalls.saturating_sub(self.last_stalls);
            if stall_delta > 0 {
                ring.push(
                    origin,
                    TraceKind::BackpressureStall,
                    format!("{stall_delta} producer blocks on full channel"),
                );
            }
            self.last_stalls = gauges.stalls;
        }

        if self.samples.len() >= self.max_samples {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(TelemetrySample {
            at_ms: now.duration_since(self.start).as_secs_f64() * 1_000.0,
            records_in: gauges.records_in,
            records_out: gauges.records_out,
            throughput_eps,
            queue_depth: gauges.queue_depth,
            frontier: gauges.frontier,
            frontier_lag_us: gauges.frontier_lag_us,
            stalls: gauges.stalls,
            operators,
        });
        self.last = now;
        self.last_records_in = gauges.records_in;
    }

    /// Consumes the sampler, yielding the series and the dropped count.
    pub fn into_series(self) -> (Vec<TelemetrySample>, u64) {
        (self.samples.into_iter().collect(), self.dropped)
    }
}

/// A point-in-time snapshot one cluster node ships to the cloud inside
/// a [`crate::wire::Frame::Telemetry`] — the distributed counterpart of
/// [`TelemetrySample`], scoped to what the node can observe locally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The pipeline this node belongs to (its progress origin).
    pub origin: u64,
    /// Topology node name.
    pub node: String,
    /// Per-node monotone snapshot sequence.
    pub seq: u64,
    /// Microseconds since the node's loop started.
    pub at_us: u64,
    /// Records the node has consumed.
    pub records_in: u64,
    /// Records the node has emitted downstream.
    pub records_out: u64,
    /// Outbound (a pipeline's stage 0) or inbound (every later stage)
    /// channel depth.
    pub queue_depth: u64,
    /// The node's local progress frontier, if it tracks one.
    pub frontier: Option<EventTime>,
    /// High-water frontier lag observed locally, µs.
    pub frontier_lag_us: u64,
}

impl NodeSnapshot {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "origin": self.origin,
            "node": self.node.as_str(),
            "seq": self.seq,
            "at_us": self.at_us,
            "records_in": self.records_in,
            "records_out": self.records_out,
            "queue_depth": self.queue_depth,
            "frontier": self.frontier,
            "frontier_lag_us": self.frontier_lag_us,
        })
    }
}

/// Everything telemetry knows about one finished run: the aggregate
/// [`QueryMetrics`], the merged per-operator breakdown, the sampled
/// time series, cluster node snapshots (cluster modes only), and the
/// trace event log. Renderable as text ([`QueryReport::render`]) and as
/// JSON ([`QueryReport::to_json`]).
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Which executor produced the run (`run`, `run_threaded`,
    /// `run_partitioned`, `run_placed`, `run_placed_chaos`).
    pub mode: String,
    /// The run's aggregate metrics (same values the mode returned).
    pub metrics: QueryMetrics,
    /// Per-operator breakdown, merged across partitions/pipelines/sites
    /// and ordered by plan position.
    pub operators: Vec<OperatorReport>,
    /// Periodic samples, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// Samples dropped to the series bound.
    pub samples_dropped: u64,
    /// Per-node snapshots fanned in at the cloud (cluster modes).
    pub node_snapshots: Vec<NodeSnapshot>,
    /// Node snapshots dropped to the retention bound.
    pub snapshots_dropped: u64,
    /// Trace events in sequence order.
    pub events: Vec<TraceEvent>,
    /// Events dropped to the ring bound.
    pub events_dropped: u64,
    /// Warnings from the pre-flight static analyzer (errors reject the
    /// plan before a report exists, so only warnings appear here).
    pub analysis: Vec<crate::analysis::Diagnostic>,
}

impl QueryReport {
    /// The full report as a JSON document (vendored `serde_json`).
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "mode": self.mode.as_str(),
            "metrics": {
                "records_in": self.metrics.records_in,
                "records_out": self.metrics.records_out,
                "bytes_in": self.metrics.bytes_in,
                "bytes_out": self.metrics.bytes_out,
                "watermarks": self.metrics.watermarks,
                "batches": self.metrics.batches,
                "late_drops": self.metrics.late_drops,
                "frontier_lag_max_us": self.metrics.frontier_lag_max_us,
                "wall_s": self.metrics.wall.as_secs_f64(),
                "events_per_sec": self.metrics.events_per_sec(),
                "mb_per_sec": self.metrics.mb_per_sec(),
                "latency_us": {
                    "mean": self.metrics.latency.mean(),
                    "p50": self.metrics.latency.percentile(50.0),
                    "p99": self.metrics.latency.percentile(99.0),
                    "max": self.metrics.latency.max(),
                },
            },
            "operators": self.operators.iter().map(OperatorReport::to_json).collect::<Vec<_>>(),
            "samples": self.samples.iter().map(TelemetrySample::to_json).collect::<Vec<_>>(),
            "samples_dropped": self.samples_dropped,
            "node_snapshots": self.node_snapshots.iter().map(NodeSnapshot::to_json).collect::<Vec<_>>(),
            "node_snapshots_dropped": self.snapshots_dropped,
            "events": self.events.iter().map(TraceEvent::to_json).collect::<Vec<_>>(),
            "events_dropped": self.events_dropped,
            "analysis": self.analysis.iter().map(crate::analysis::Diagnostic::to_json).collect::<Vec<_>>(),
        })
    }

    /// A compact human-readable rendering: the aggregate line, one line
    /// per operator, and the trace log.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "[{}] {}", self.mode, self.metrics);
        for d in &self.analysis {
            let _ = writeln!(s, "  {}", d.render());
        }
        for op in &self.operators {
            let _ = writeln!(
                s,
                "  {:<24} in {:>9} out {:>9} sel {:>6.3} late {:>6} state {:>9} B svc p50 {:>8.1} µs p99 {:>8.1} µs",
                op.id(),
                op.records_in,
                op.records_out,
                op.selectivity(),
                op.late_drops,
                op.state_bytes,
                op.service_us.percentile(50.0).unwrap_or(0.0),
                op.service_us.percentile(99.0).unwrap_or(0.0),
            );
        }
        let _ = writeln!(
            s,
            "  samples: {} ({} dropped), node snapshots: {} ({} dropped)",
            self.samples.len(),
            self.samples_dropped,
            self.node_snapshots.len(),
            self.snapshots_dropped
        );
        for ev in &self.events {
            let _ = writeln!(
                s,
                "  [{:>8.1} ms] #{:<4} origin {:>20} {:<18} {}",
                ev.at_ms,
                ev.seq,
                if ev.origin == COORDINATOR_ORIGIN {
                    "coordinator".to_string()
                } else {
                    ev.origin.to_string()
                },
                ev.kind.as_str(),
                ev.detail
            );
        }
        s
    }
}

/// Assembles a [`QueryReport`] from the pieces each execution mode
/// holds at the end of a run.
pub(crate) fn build_report(
    mode: &str,
    metrics: &QueryMetrics,
    chains: &[ChainTelemetry],
    mut sampler: TelemetrySampler,
    trace: &TraceRing,
    analysis: Vec<crate::analysis::Diagnostic>,
) -> QueryReport {
    let node_snapshots = std::mem::take(&mut sampler.snapshots).into();
    let snapshots_dropped = sampler.snapshots_dropped;
    let (samples, samples_dropped) = sampler.into_series();
    let (events, events_dropped) = trace.snapshot();
    QueryReport {
        mode: mode.to_string(),
        metrics: metrics.clone(),
        operators: merge_operator_reports(chains),
        samples,
        samples_dropped,
        node_snapshots,
        snapshots_dropped,
        events,
        events_dropped,
        analysis,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit, FunctionRegistry};
    use crate::ops::FilterOp;
    use crate::record::Record;
    use crate::schema::Schema;
    use crate::value::{DataType, Value};

    fn filter_chain() -> Vec<Box<dyn Operator>> {
        let schema = Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Int)]);
        let op = FilterOp::new(&col("v").gt(lit(5)), schema, &FunctionRegistry::new()).unwrap();
        vec![Box::new(op)]
    }

    fn buf(n: i64) -> RecordBuffer {
        let schema = Schema::of(&[("ts", DataType::Timestamp), ("v", DataType::Int)]);
        RecordBuffer::new(
            schema,
            (0..n)
                .map(|i| Record::new(vec![Value::Timestamp(i), Value::Int(i)]))
                .collect(),
        )
    }

    #[test]
    fn instrumented_chain_counts_in_and_out() {
        let (mut ops, tel) = instrument_chain(filter_chain(), true, 0);
        let mut out = Vec::new();
        ops[0].process(buf(10), &mut out).unwrap();
        ops[0].on_eos(&mut out).unwrap();
        let reports = tel.reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.id(), "op0:filter");
        assert_eq!(r.records_in, 10);
        assert_eq!(r.records_out, 4, "v in 6..=9 pass");
        assert_eq!(r.buffers_in, 1);
        assert_eq!(r.buffers_out, 1);
        assert_eq!(r.calls, 2, "process + eos");
        assert!(r.service_us.len() == 2);
        assert!((r.selectivity() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn disabled_instrumentation_is_a_no_op() {
        let (ops, tel) = instrument_chain(filter_chain(), false, 0);
        assert_eq!(ops.len(), 1);
        assert!(tel.is_empty());
        assert!(tel.reports().is_empty());
    }

    #[test]
    fn snapshot_shares_stats_handle() {
        let (mut ops, tel) = instrument_chain(filter_chain(), true, 0);
        let mut out = Vec::new();
        ops[0].process(buf(4), &mut out).unwrap();
        // The restored copy keeps reporting into the same registry.
        let mut restored = ops[0].snapshot().expect("filter snapshots");
        restored.process(buf(4), &mut out).unwrap();
        let r = &tel.reports()[0];
        assert_eq!(r.records_in, 8);
    }

    #[test]
    fn operator_report_merge_adds() {
        let (mut a_ops, a_tel) = instrument_chain(filter_chain(), true, 0);
        let (mut b_ops, b_tel) = instrument_chain(filter_chain(), true, 0);
        let mut out = Vec::new();
        a_ops[0].process(buf(10), &mut out).unwrap();
        b_ops[0].process(buf(10), &mut out).unwrap();
        let merged = merge_operator_reports(&[a_tel, b_tel]);
        assert_eq!(merged.len(), 1, "same plan position merges");
        assert_eq!(merged[0].records_in, 20);
        assert_eq!(merged[0].service_us.len(), 2);
    }

    #[test]
    fn trace_ring_bounds_and_orders() {
        let ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(i, TraceKind::Replan, format!("ev{i}"));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(dropped, 2);
        assert_eq!(events[0].seq, 2, "oldest dropped first");
        assert_eq!(events[2].seq, 4);
        assert_eq!(events[2].origin, 4);
    }

    #[test]
    fn sampler_respects_interval_and_bound() {
        let cfg = TelemetryConfig {
            sample_every: Duration::from_secs(3600),
            max_samples: 2,
            ..TelemetryConfig::default()
        };
        let mut sampler = TelemetrySampler::new(&cfg);
        let gauges = Gauges::default();
        // Interval has not elapsed: no sample.
        sampler.maybe_sample(&gauges, &[], None);
        // Forced samples always land, and the series stays bounded.
        for _ in 0..4 {
            sampler.force_sample(&gauges, &[], None);
        }
        let (samples, dropped) = sampler.into_series();
        assert_eq!(samples.len(), 2);
        assert_eq!(dropped, 2);
    }

    #[test]
    fn sampler_emits_burst_events_from_deltas() {
        let cfg = TelemetryConfig::default();
        let mut sampler = TelemetrySampler::new(&cfg);
        let ring = TraceRing::new(16);
        let mut gauges = Gauges::default();
        sampler.force_sample(&gauges, &[], Some((&ring, 7)));
        gauges.stalls = 3;
        sampler.force_sample(&gauges, &[], Some((&ring, 7)));
        // No new stalls: no second event.
        sampler.force_sample(&gauges, &[], Some((&ring, 7)));
        let (events, _) = ring.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, TraceKind::BackpressureStall);
        assert_eq!(events[0].origin, 7);
    }

    #[test]
    fn report_renders_and_serializes() {
        let (mut ops, tel) = instrument_chain(filter_chain(), true, 0);
        let mut out = Vec::new();
        ops[0].process(buf(10), &mut out).unwrap();
        let cfg = TelemetryConfig::default();
        let mut sampler = TelemetrySampler::new(&cfg);
        let ring = TraceRing::new(8);
        ring.push(COORDINATOR_ORIGIN, TraceKind::QueryDeployed, "test");
        sampler.force_sample(
            &Gauges {
                records_in: 10,
                records_out: 4,
                ..Gauges::default()
            },
            std::slice::from_ref(&tel),
            Some((&ring, COORDINATOR_ORIGIN)),
        );
        let report = build_report(
            "run",
            &QueryMetrics::default(),
            &[tel],
            sampler,
            &ring,
            Vec::new(),
        );
        let text = report.render();
        assert!(text.contains("op0:filter"), "{text}");
        assert!(text.contains("query_deployed"), "{text}");
        let json = report.to_json();
        assert_eq!(json["mode"], "run");
        assert_eq!(json["operators"][0]["records_in"], 10);
        assert_eq!(json["samples"][0]["records_in"], 10);
        assert_eq!(json["events"][0]["kind"], "query_deployed");
        // The document serializes through the vendored writer.
        let s = serde_json::to_string_pretty(&json).unwrap();
        assert!(s.contains("\"op0:filter\""), "{s}");
    }
}
