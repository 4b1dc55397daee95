//! The execution runtime: registers sources, compiles queries, drives
//! buffers through operator chains, tracks per-origin punctuated
//! progress, and reports throughput metrics.
//!
//! One executor, three configurations. Every local entry point runs the
//! same loop — a `SourceDriver` yields stamped buffers, a dispatcher
//! routes them to partitions as ledger-ordered tasks and folds their
//! stamps into the progress frontier, and the thread that completes a
//! task hands whatever the emission ledger released to the sink — and
//! differs only in which thread does what (NebulaStream's task-based
//! worker execution model):
//!
//! | entry point | source thread? | pool workers | tasks execute on | sink runs on |
//! |---|---|---|---|---|
//! | [`StreamEnvironment::run`] | no | 0 | the caller, inline | the caller |
//! | [`StreamEnvironment::run_threaded`] | yes, behind a bounded channel | 0 | the caller, inline | the caller |
//! | [`StreamEnvironment::run_partitioned`] | no | one per partition ([`EnvConfig::parallelism`]) | work-stealing workers | the worker whose completion released the result, one call at a time |
//!
//! With workers, buffers are hash-partitioned by the plan's grouping
//! key and tasks complete out of order; the emission ledger releases
//! results in dispatch order once every earlier step has completed, so
//! the delivered stream is identical in every configuration and no
//! end-of-run global sort is needed. A result leaves as soon as its step
//! is released, on the thread that released it, without waiting for the
//! dispatcher's next source poll. A panicking operator or sink fails the
//! run with an [`NebulaError::Eval`] carrying the panic message, in
//! every mode.
//!
//! Progress is *punctuated*: sources stamp every buffer with an
//! origin/sequence/watermark header ([`crate::buffer::BufferMeta`]) and
//! a [`ProgressTracker`] folds those stamps into the event-time
//! frontier that closes windows — there is no global clock besides the
//! per-origin frontiers.

use crate::analysis::{
    self, AnalysisContext, AnalysisOptions, AnalysisReport, CapabilityRegistry, Diagnostic,
};
use crate::buffer::{Column, TupleBuffer};
use crate::error::{NebulaError, Result};
use crate::expr::{BoundExpr, FunctionRegistry, Plugin};
use crate::metrics::QueryMetrics;
use crate::ops::{chain_late_drops, GroupKey, Operator};
use crate::query::{compile, PartitionScheme, Query};
use crate::record::{Record, RecordBuffer, StreamMessage};
use crate::schema::ReadSet;
use crate::sink::Sink;
use crate::source::{Source, SourceDriver, Stamped, WatermarkStrategy};
use crate::telemetry::{
    build_report, instrument_chain, ChainTelemetry, Gauges, QueryReport, TelemetryConfig,
    TelemetrySampler, TraceKind, TraceRing, COORDINATOR_ORIGIN, MAX_EVENTS,
};
use crate::value::EventTime;
use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Runtime tuning knobs.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Records per source poll / buffer (NebulaStream's TupleBuffer
    /// capacity analogue).
    pub buffer_size: usize,
    /// Emit a watermark every N source batches (0 is read as 1).
    pub watermark_every: u64,
    /// Channel capacity (buffers) for threaded execution.
    pub channel_capacity: usize,
    /// Worker count for partitioned execution
    /// ([`StreamEnvironment::run_partitioned`]).
    pub parallelism: usize,
    /// Whether sources build columnar [`TupleBuffer`]s for the operator
    /// chain. `buffer_size = 1` degenerates to record-at-a-time in any
    /// mode.
    pub columnar: ColumnarMode,
    /// Runtime telemetry: per-operator metrics, periodic sampling, and
    /// trace events (see [`crate::telemetry`]). Collected in every
    /// execution mode; the report of the most recent run is available
    /// via [`StreamEnvironment::last_report`].
    pub telemetry: TelemetryConfig,
    /// Lint-level overrides for the pre-flight static analyzer (see
    /// [`crate::analysis`]). Errors are always deny; warnings can be
    /// silenced or promoted per code.
    pub analysis: AnalysisOptions,
}

/// Source-side batching policy: when to transpose polled records into
/// columnar [`TupleBuffer`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnarMode {
    /// Transpose when some operator in the chain's columnar-capable
    /// prefix actually runs a vectorized kernel (see
    /// [`crate::ops::Operator::columnar_benefit`]) — chains that would
    /// only pay the transpose (e.g. an opaque-geometry predicate
    /// straight into a plugin operator) keep the row path.
    #[default]
    Auto,
    /// Never transpose: every mode runs the per-record reference path.
    Off,
    /// Transpose whenever the chain head accepts buffers, benefit or
    /// not — pins the columnar kernels in differential tests.
    Force,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            buffer_size: 1024,
            watermark_every: 4,
            channel_capacity: 8,
            parallelism: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            columnar: ColumnarMode::Auto,
            telemetry: TelemetryConfig::default(),
            analysis: AnalysisOptions::new(),
        }
    }
}

/// The origin id used by the single-source local execution modes.
pub(crate) const LOCAL_ORIGIN: u64 = 0;

/// Per-origin state inside a [`ProgressTracker`].
#[derive(Debug, Clone, Default)]
struct OriginProgress {
    /// Highest sequence number of the contiguous processed prefix
    /// (sequences start at 1; 0 means nothing processed yet).
    processed: u64,
    /// Punctuations of buffers observed ahead of the prefix, keyed by
    /// sequence number, waiting for the gap to close.
    pending: BTreeMap<u64, Option<EventTime>>,
    /// Largest punctuation over the contiguous prefix — this origin's
    /// frontier.
    watermark: Option<EventTime>,
    done: bool,
}

/// Per-origin punctuated progress: the engine-wide event-time clock.
///
/// Each source pipeline (an *origin*) stamps every buffer it emits with
/// a monotonically increasing sequence number and, periodically, a
/// punctuation watermark (the [`crate::buffer::BufferMeta`] header).
/// The tracker folds those per-buffer stamps into frontiers:
///
/// - **Origin frontier** — the largest punctuation seen over the
///   *contiguous* processed-sequence prefix of that origin. Buffers
///   observed out of order park in a pending set until the gap closes,
///   so reordering can neither advance the clock early nor regress it.
/// - **Global frontier** — the minimum origin frontier across live
///   (not-yet-finished) origins, clamped monotone. `None` until every
///   live origin has reported a punctuation, because an origin that
///   has promised nothing may still hold arbitrarily old records.
///
/// Finishing an origin removes it from the minimum — its silence no
/// longer holds progress back — which can only *raise* the frontier: a
/// finished input never moves the clock backwards.
#[derive(Debug, Clone, Default)]
pub struct ProgressTracker {
    origins: BTreeMap<u64, OriginProgress>,
    frontier: Option<EventTime>,
    lag_max_us: u64,
}

impl ProgressTracker {
    /// An empty tracker; origins register lazily or via
    /// [`Self::register`].
    pub fn new() -> Self {
        ProgressTracker::default()
    }

    /// A tracker with origins `0..n` pre-registered.
    pub fn with_origins(n: u64) -> Self {
        let mut t = ProgressTracker::default();
        for origin in 0..n {
            t.register(origin);
        }
        t
    }

    /// Registers an origin so the global minimum waits for it.
    pub fn register(&mut self, origin: u64) {
        self.origins.entry(origin).or_default();
    }

    /// Number of registered origins.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// True iff no origin is registered.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// The global frontier: every record at or before this event time
    /// has been promised complete by all live origins.
    pub fn frontier(&self) -> Option<EventTime> {
        self.frontier
    }

    /// Whether an origin has finished.
    pub fn is_done(&self, origin: u64) -> bool {
        self.origins.get(&origin).is_some_and(|o| o.done)
    }

    /// Whether every registered origin has finished.
    pub fn all_done(&self) -> bool {
        self.origins.values().all(|o| o.done)
    }

    /// Largest observed gap (µs) between the fastest live origin's
    /// frontier and the global frontier — how far one skewed input has
    /// run ahead of the clock.
    pub fn frontier_lag_us(&self) -> u64 {
        self.lag_max_us
    }

    /// Feeds one buffer's punctuation stamp. Out-of-order sequences
    /// park until the gap closes; duplicates and stale sequences are
    /// ignored. Returns the new global frontier iff it strictly
    /// advanced.
    pub fn observe(
        &mut self,
        origin: u64,
        sequence: u64,
        punctuation: Option<EventTime>,
    ) -> Option<EventTime> {
        {
            let o = self.origins.entry(origin).or_default();
            if o.done || sequence <= o.processed || o.pending.contains_key(&sequence) {
                return None;
            }
            o.pending.insert(sequence, punctuation);
            while let Some(p) = o.pending.remove(&(o.processed + 1)) {
                o.processed += 1;
                if let Some(w) = p {
                    o.watermark = Some(o.watermark.map_or(w, |cur| cur.max(w)));
                }
            }
        }
        self.advance()
    }

    /// Advances one origin's frontier directly — for in-order
    /// transports (e.g. cluster watermark frames) that carry the
    /// punctuation value without sequence numbers. Regressions clamp.
    /// Returns the new global frontier iff it strictly advanced.
    pub fn advance_origin(&mut self, origin: u64, watermark: EventTime) -> Option<EventTime> {
        {
            let o = self.origins.entry(origin).or_default();
            if o.done {
                return None;
            }
            o.watermark = Some(o.watermark.map_or(watermark, |cur| cur.max(watermark)));
        }
        self.advance()
    }

    /// Marks an origin finished, removing it from the global minimum.
    /// Returns the new global frontier iff dropping the origin strictly
    /// advanced it (`None` in particular once *no* live origin remains:
    /// the frontier freezes and end-of-stream carries the rest).
    pub fn finish(&mut self, origin: u64) -> Option<EventTime> {
        {
            let o = self.origins.entry(origin).or_default();
            o.done = true;
            o.pending.clear();
        }
        if self.all_done() {
            return None;
        }
        self.advance()
    }

    /// Recomputes the global frontier (min across live origins, clamped
    /// monotone) and the lag high-water mark.
    fn advance(&mut self) -> Option<EventTime> {
        let mut candidate: Option<EventTime> = None;
        for o in self.origins.values() {
            if o.done {
                continue;
            }
            match o.watermark {
                // A live origin with no promise yet blocks the clock.
                None => {
                    candidate = None;
                    break;
                }
                Some(w) => candidate = Some(candidate.map_or(w, |c| c.min(w))),
            }
        }
        let advanced = match (candidate, self.frontier) {
            (Some(c), Some(f)) if c > f => {
                self.frontier = Some(c);
                Some(c)
            }
            (Some(c), None) => {
                self.frontier = Some(c);
                Some(c)
            }
            _ => None,
        };
        if let Some(f) = self.frontier {
            let newest = self
                .origins
                .values()
                .filter(|o| !o.done)
                .filter_map(|o| o.watermark)
                .max();
            if let Some(newest) = newest {
                let lag = newest.saturating_sub(f);
                if lag > 0 {
                    self.lag_max_us = self.lag_max_us.max(lag as u64);
                }
            }
        }
        advanced
    }
}

/// A compiled chain of physical operators, executed in order.
type OperatorChain = Vec<Box<dyn Operator>>;

struct RegisteredSource {
    source: Box<dyn Source>,
    watermark: WatermarkStrategy,
}

/// The top-level runtime object: a function registry (with plugins), a
/// set of named sources, and the configuration.
pub struct StreamEnvironment {
    registry: FunctionRegistry,
    sources: HashMap<String, RegisteredSource>,
    config: EnvConfig,
    /// Static-analysis capabilities (opaque-type producers), merged
    /// from loaded plugins.
    capabilities: CapabilityRegistry,
    /// Telemetry report of the most recent run (any mode), kept until
    /// the next run replaces it or [`Self::take_report`] takes it.
    report: Option<QueryReport>,
}

impl Default for StreamEnvironment {
    fn default() -> Self {
        StreamEnvironment::new()
    }
}

impl StreamEnvironment {
    /// An environment with builtin functions and default config.
    pub fn new() -> Self {
        StreamEnvironment {
            registry: FunctionRegistry::with_builtins(),
            sources: HashMap::new(),
            config: EnvConfig::default(),
            capabilities: CapabilityRegistry::new(),
            report: None,
        }
    }

    /// An environment with a custom configuration.
    pub fn with_config(config: EnvConfig) -> Self {
        StreamEnvironment {
            config,
            ..StreamEnvironment::new()
        }
    }

    /// The function registry (immutable).
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The function registry (for registrations).
    pub fn registry_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.registry
    }

    /// The configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// The configuration (for tuning after construction, e.g. setting
    /// [`EnvConfig::parallelism`] on an already-wired environment).
    pub fn config_mut(&mut self) -> &mut EnvConfig {
        &mut self.config
    }

    /// Loads a plugin's functions into the registry and merges its
    /// static-analysis capabilities.
    pub fn load_plugin(&mut self, plugin: &dyn Plugin) -> Result<()> {
        self.registry.load_plugin(plugin)?;
        self.capabilities.merge(&plugin.capabilities());
        Ok(())
    }

    /// The telemetry report of the most recent run, if telemetry was
    /// enabled ([`TelemetryConfig::enabled`]). Each run replaces it.
    pub fn last_report(&self) -> Option<&QueryReport> {
        self.report.as_ref()
    }

    /// Takes ownership of the most recent run's telemetry report.
    pub fn take_report(&mut self) -> Option<QueryReport> {
        self.report.take()
    }

    /// Registers a named source with its watermark strategy.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        source: Box<dyn Source>,
        watermark: WatermarkStrategy,
    ) {
        self.sources
            .insert(name.into(), RegisteredSource { source, watermark });
    }

    /// Human-readable physical plan for a query: the source with its
    /// read set (the fields the plan and the watermark read; a columnar
    /// poll builds only those), then each operator with its output
    /// schema.
    pub fn explain(&self, query: &Query) -> Result<String> {
        let src = self
            .sources
            .get(query.source())
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))?;
        let schema = src.source.schema();
        let plan = compile(query, schema.clone(), &self.registry)?;
        let mut reads = plan.reads;
        if let Ok(Some(col)) = resolve_ts_col(&src.watermark, &schema) {
            reads.insert(col);
        }
        let mut s = format!(
            "Source[{}] {schema} reads: {}\n",
            query.source(),
            reads.names(&schema)
        );
        for op in &plan.operators {
            s.push_str(&format!("  -> {} {}\n", op.name(), op.output_schema()));
        }
        Ok(s)
    }

    fn take_source(&mut self, name: &str) -> Result<RegisteredSource> {
        self.sources
            .remove(name)
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{name}'")))
    }

    /// Analyzes `query` for the given execution target without running
    /// it. The same pre-flight every run entry point performs; useful
    /// for inspecting diagnostics (including warnings) up front.
    pub fn analyze_for(&self, query: &Query, target: analysis::Target) -> Result<AnalysisReport> {
        let src = self
            .sources
            .get(query.source())
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))?;
        let ctx = AnalysisContext {
            target,
            watermarks: vec![src.watermark.clone()],
            capabilities: self.capabilities.clone(),
            options: self.config.analysis.clone(),
        };
        Ok(analysis::analyze(
            query,
            src.source.schema(),
            &self.registry,
            &ctx,
        ))
    }

    /// Analyzes `query` for local execution (see [`Self::analyze_for`]).
    pub fn analyze(&self, query: &Query) -> Result<AnalysisReport> {
        self.analyze_for(query, analysis::Target::Local)
    }

    /// Pre-flight, routing and compile for `query` against the
    /// registered (still-owned) source's schema. Doing all of it
    /// *before* [`Self::take_source`] means a rejected plan leaves the
    /// source registered, so the caller can fix the query and run again.
    fn prepare(&self, query: &Query, mode: ExecMode) -> Result<Prepared> {
        let warnings = self.analyze_for(query, mode.target())?.into_accepted()?;
        let src = self
            .sources
            .get(query.source())
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))?;
        let schema = src.source.schema();
        let ts_col = resolve_ts_col(&src.watermark, &schema)?;
        // One partition needs no routing decision: it is `Single`, and
        // the router never evaluates a group key. Key expressions that
        // don't bind against the source schema (e.g. keys over
        // map-created columns) also fall back to `Single`, which is
        // always correct.
        let route = if mode.workers <= 1 {
            Route::Single
        } else {
            match query.partition_scheme() {
                PartitionScheme::Key(exprs) => exprs
                    .iter()
                    .map(|e| e.bind(&schema, &self.registry).map(|(b, _)| b))
                    .collect::<Result<Vec<BoundExpr>>>()
                    .map_or(Route::Single, Route::Key),
                PartitionScheme::RoundRobin => Route::RoundRobin,
                PartitionScheme::Single(_) => Route::Single,
            }
        };
        // Single-routed plans get exactly one partition: more would
        // only relay watermarks and inflate the merged metrics.
        let partitions = match route {
            Route::Single => 1,
            _ => mode.workers,
        };
        let first = compile(query, schema.clone(), &self.registry)?;
        // The router evaluates the key on source buffers: its columns
        // are read too.
        let mut reads = first.reads;
        if let Route::Key(exprs) = &route {
            exprs.iter().for_each(|e| e.mark_reads(&mut reads));
        }
        let output_schema = first.output_schema;
        let mut chains = vec![first.operators];
        for _ in 1..partitions {
            chains.push(compile(query, schema.clone(), &self.registry)?.operators);
        }
        Ok(Prepared {
            ts_col,
            reads,
            route,
            chains,
            output_schema,
            warnings,
        })
    }

    /// Runs a query to completion on the caller's thread, delivering
    /// results to `sink` as each buffer is processed. Consumes the
    /// registered source (only on a valid plan; a rejected plan leaves
    /// the source registered).
    pub fn run(&mut self, query: &Query, sink: &mut dyn Sink) -> Result<QueryMetrics> {
        let mode = ExecMode {
            source_thread: false,
            workers: 0,
        };
        self.execute(query, sink, mode)
    }

    /// Runs a query with the source on its own thread, connected to the
    /// operator chain by a bounded channel — pipeline parallelism.
    pub fn run_threaded(&mut self, query: &Query, sink: &mut dyn Sink) -> Result<QueryMetrics> {
        let mode = ExecMode {
            source_thread: true,
            workers: 0,
        };
        self.execute(query, sink, mode)
    }

    /// Runs a query data-parallel across [`EnvConfig::parallelism`]
    /// partitions executed by a work-stealing worker pool —
    /// NebulaStream's task-based worker execution model.
    ///
    /// The caller thread routes each buffer to a partition queue
    /// according to the plan's [`Query::partition_scheme`]: hash of the
    /// grouping key (keyed windows / CEP), whole-buffer round-robin
    /// (stateless plans), or everything to partition 0 (keyless stateful
    /// plans, plugin operators, or keys that don't bind against the
    /// source schema). Any idle worker may claim any partition with
    /// queued tasks, so tasks complete out of order and a skewed hot key
    /// does not serialize the pool behind one slow worker; the emission
    /// ledger releases results in dispatch order, so the delivered
    /// stream is identical to [`Self::run`]'s. The worker whose
    /// completion released a result hands it to `sink` right away, one
    /// sink call at a time, so `sink` runs on pool workers. Per-partition
    /// metrics — including latency histograms and the frontier-lag
    /// high-water mark — merge into the returned report.
    pub fn run_partitioned(&mut self, query: &Query, sink: &mut dyn Sink) -> Result<QueryMetrics> {
        let mode = ExecMode {
            source_thread: false,
            workers: self.config.parallelism.max(1),
        };
        self.execute(query, sink, mode)
    }

    /// The one local executor. A [`SourceDriver`] turns polled batches
    /// into stamped buffers; the dispatch loop below routes each to its
    /// owning partitions as ledger-ordered tasks, folds the stamp into
    /// the [`ProgressTracker`], broadcasts frontier advances to every
    /// partition so each chain's clock moves exactly as in a
    /// one-partition run, and samples telemetry. Whichever thread
    /// completes a task delivers what that completion released from the
    /// [`EmissionLedger`] ([`Pool::flush`]), so results leave as their
    /// step completes. `mode` only decides which thread does what: tasks
    /// execute inline on the caller or on pool workers, and the driver
    /// polls on the caller or on a producer thread behind a bounded
    /// channel. Only [`Sink::finish`] always runs on the caller, after
    /// every thread has joined.
    fn execute(
        &mut self,
        query: &Query,
        sink: &mut dyn Sink,
        mode: ExecMode,
    ) -> Result<QueryMetrics> {
        let Prepared {
            ts_col,
            reads,
            route,
            chains,
            output_schema,
            warnings,
        } = self.prepare(query, mode)?;
        let n = chains.len();
        let threads = if mode.workers == 0 { 0 } else { n };
        let tel_on = self.config.telemetry.enabled;
        let trace = TraceRing::new(MAX_EVENTS);
        if tel_on {
            trace.push(
                COORDINATOR_ORIGIN,
                TraceKind::QueryDeployed,
                format!(
                    "{}: {n} partition(s), {threads} worker thread(s)",
                    mode.name()
                ),
            );
        }
        let mut sampler = TelemetrySampler::new(&self.config.telemetry);
        let RegisteredSource { source, watermark } = self.take_source(query.source())?;
        let mut driver = SourceDriver::new(
            source,
            watermark,
            ts_col,
            LOCAL_ORIGIN,
            self.config.buffer_size,
            self.config.watermark_every,
        );
        driver.gate(self.config.columnar, &chains[0], reads);
        let channel_capacity = self.config.channel_capacity;

        let start = Instant::now();
        // One slot per partition; each chain gets its own
        // instrumentation registry, and the per-operator reports merge
        // at the end exactly like the partition QueryMetrics.
        let mut tels: Vec<ChainTelemetry> = Vec::with_capacity(n);
        let slots = chains
            .into_iter()
            .map(|ops| {
                let (ops, tel) = instrument_chain(ops, tel_on, 0);
                tels.push(tel);
                PartitionSlot {
                    queue: Mutex::new(VecDeque::new()),
                    depth: AtomicUsize::new(0),
                    exec: Mutex::new(PartitionExec {
                        ops,
                        metrics: QueryMetrics::default(),
                    }),
                }
            })
            .collect();
        let key_count = match &route {
            Route::Key(exprs) => exprs.len(),
            _ => 0,
        };
        let pool = Pool {
            slots,
            ledger: Mutex::new(EmissionLedger::new(output_schema, key_count)),
            outlet: Mutex::new(Outlet {
                sink,
                released: Vec::new(),
                broken: false,
            }),
            delivered: AtomicU64::new(0),
            threads,
            capacity: channel_capacity.max(1),
            finished: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
            stalls: AtomicU64::new(0),
            first_err: Mutex::new(None),
        };
        // Mirrors the source channel's occupancy (the vendored channel
        // has no len()). The producer increments *before* sending, so
        // the decrement after a receive can never underflow.
        let channel_depth = AtomicU64::new(0);
        let mut tracker = ProgressTracker::new();
        tracker.register(LOCAL_ORIGIN);

        std::thread::scope(|scope| {
            let (pool, channel_depth) = (&pool, &channel_depth);
            let mut handles = Vec::with_capacity(threads + 1);
            for wid in 0..threads {
                handles.push(scope.spawn(move || partition_worker(wid, pool)));
            }
            let mut next: Box<dyn FnMut() -> Result<Option<Stamped>> + '_> = if mode.source_thread {
                let (tx, rx) = crossbeam::channel::bounded(channel_capacity);
                handles
                    .push(scope.spawn(move || produce(driver, &tx, channel_depth, &pool.stalls)));
                Box::new(move || {
                    let item = rx
                        .recv()
                        .map_err(|_| NebulaError::Eval("source thread hung up".into()))?;
                    channel_depth.fetch_sub(1, Ordering::Relaxed);
                    item
                })
            } else {
                Box::new(move || driver.next_batch())
            };

            let dispatched: Result<()> = (|| {
                let mut rr: usize = 0;
                let mut routed_records: u64 = 0;
                while !pool.abort.load(Ordering::Acquire) {
                    let Some(Stamped {
                        msg,
                        sequence,
                        punctuation,
                    }) = next()?
                    else {
                        pool.broadcast(None)?;
                        break;
                    };
                    routed_records += msg.record_count() as u64;
                    let shards = route.shard(msg, n, &mut rr);
                    if !shards.is_empty() {
                        let step = pool.ledger.lock().open(shards.len(), None);
                        for (p, msg) in shards {
                            pool.submit(p, Task { step, msg })?;
                        }
                    }
                    // Punctuation rides the buffer stamp, not a global
                    // clock: the tracker folds it into the frontier,
                    // and every advance becomes a step owned by all
                    // partitions.
                    tracker.observe(LOCAL_ORIGIN, sequence, punctuation);
                    if punctuation.is_some() {
                        if let Some(w) = tracker.frontier() {
                            pool.broadcast(Some(w))?;
                        }
                    }
                    // Records routed in, records delivered out, tasks
                    // and buffers queued anywhere — the registries are
                    // atomic, so reading them races nothing.
                    sampler.maybe_sample(
                        &Gauges {
                            records_in: routed_records,
                            records_out: pool.delivered.load(Ordering::Relaxed),
                            queue_depth: channel_depth.load(Ordering::Relaxed) + pool.queue_depth(),
                            frontier: tracker.frontier(),
                            frontier_lag_us: tracker.frontier_lag_us(),
                            stalls: pool.stalls.load(Ordering::Relaxed),
                        },
                        &tels,
                        Some((&trace, COORDINATOR_ORIGIN)),
                    );
                }
                Ok(())
            })();

            // One abort protocol for every mode: hang up on the source
            // thread (a producer blocked on a full channel wakes with a
            // send error) and raise the flag the workers watch, *then*
            // join.
            drop(next);
            if dispatched.is_err() {
                pool.abort.store(true, Ordering::Release);
            }
            let mut panicked = false;
            for handle in handles {
                panicked |= handle.join().is_err();
            }
            // A worker's own error is the useful one; a dispatch error
            // matters only if no worker failed first.
            match pool.first_err.lock().take() {
                Some(e) => Err(e),
                None if panicked => Err(NebulaError::Eval("executor thread panicked".into())),
                None => dispatched,
            }
        })?;
        tracker.finish(LOCAL_ORIGIN);

        // Every step completed, and the completion that released the
        // last of them delivered it: the ledger is empty.
        let Pool {
            slots,
            ledger,
            outlet,
            stalls,
            ..
        } = pool;
        let ledger = ledger.into_inner();
        debug_assert!(ledger.steps.is_empty(), "all steps released");
        outlet.into_inner().sink.finish()?;

        let mut metrics = QueryMetrics::default();
        for slot in slots {
            metrics.merge(&slot.exec.into_inner().metrics);
        }
        metrics.frontier_lag_max_us = tracker.frontier_lag_us().max(ledger.lag_max_us);
        metrics.wall = start.elapsed();
        sampler.force_sample(
            &Gauges {
                records_in: metrics.records_in,
                records_out: metrics.records_out,
                queue_depth: 0,
                frontier: tracker.frontier(),
                frontier_lag_us: metrics.frontier_lag_max_us,
                stalls: stalls.into_inner(),
            },
            &tels,
            Some((&trace, COORDINATOR_ORIGIN)),
        );
        self.report =
            tel_on.then(|| build_report(mode.name(), &metrics, &tels, sampler, &trace, warnings));
        Ok(metrics)
    }
}

/// Which thread does what in [`StreamEnvironment::execute`] — the whole
/// difference between the three local entry points.
#[derive(Clone, Copy)]
struct ExecMode {
    /// The [`SourceDriver`] polls on a scoped producer thread behind a
    /// bounded channel instead of on the caller.
    source_thread: bool,
    /// Requested pool workers; 0 executes every task inline on the
    /// caller, as one partition.
    workers: usize,
}

impl ExecMode {
    /// The [`QueryReport`] mode string of the entry point this is.
    fn name(self) -> &'static str {
        match (self.workers, self.source_thread) {
            (0, false) => "run",
            (0, true) => "run_threaded",
            _ => "run_partitioned",
        }
    }

    /// The execution target the pre-flight analyzer checks against.
    fn target(self) -> analysis::Target {
        match self.workers {
            0 => analysis::Target::Local,
            parallelism => analysis::Target::Partitioned { parallelism },
        }
    }
}

/// What [`StreamEnvironment::prepare`] hands the executor: one compiled
/// chain per partition plus how buffers reach them.
struct Prepared {
    ts_col: Option<usize>,
    /// The source's read set (`SourceDriver::gate` adds the time column).
    reads: ReadSet,
    route: Route,
    chains: Vec<OperatorChain>,
    output_schema: crate::schema::SchemaRef,
    /// The analyzer's warnings, for the telemetry report.
    warnings: Vec<Diagnostic>,
}

/// The source stage on its own thread: forwards everything the driver
/// yields — batches, then end-of-stream or the poll error — through the
/// bounded channel, and stops when the dispatcher hangs up. The
/// non-blocking send goes first so a full channel is observable: each
/// fallback to the blocking send counts one backpressure stall.
fn produce(
    mut driver: SourceDriver,
    tx: &crossbeam::channel::Sender<Result<Option<Stamped>>>,
    depth: &AtomicU64,
    stalls: &AtomicU64,
) {
    loop {
        let item = driver.next_batch();
        let last = !matches!(item, Ok(Some(_)));
        depth.fetch_add(1, Ordering::Relaxed);
        let sent = match tx.try_send(item) {
            Ok(()) => true,
            Err(crossbeam::channel::TrySendError::Full(item)) => {
                stalls.fetch_add(1, Ordering::Relaxed);
                tx.send(item).is_ok()
            }
            Err(crossbeam::channel::TrySendError::Disconnected(_)) => false,
        };
        if last || !sent {
            return;
        }
    }
}

/// Hands one released terminal message to the sink in the layout the
/// chain emitted. The sink reads every column it receives, so none may
/// be absent (a debug assertion on the read sets).
pub(crate) fn deliver(sink: &mut dyn Sink, msg: &StreamMessage) -> Result<()> {
    match msg {
        StreamMessage::Data(b) => sink.consume(b),
        StreamMessage::Columnar(b) => {
            debug_assert!(
                !b.columns().iter().any(Column::is_absent),
                "an absent column reached the sink: {}",
                b.schema()
            );
            sink.consume_columnar(b)
        }
        StreamMessage::Watermark(_) | StreamMessage::Eos => Ok(()),
    }
}

/// The bound routing decision for one run.
enum Route {
    /// Hash-partition by these key expressions over source records.
    Key(Vec<BoundExpr>),
    /// Distribute buffers evenly (stateless plans).
    RoundRobin,
    /// Everything to partition 0 (one partition; stateful keyless /
    /// opaque plans).
    Single,
}

impl Route {
    /// Shards one data buffer to its owning partitions. Whole-buffer
    /// transfer wherever possible: the router stays O(1) per buffer,
    /// and a single-owner step preserves source order through the
    /// ledger untouched.
    fn shard(&self, msg: StreamMessage, n: usize, rr: &mut usize) -> Vec<(usize, StreamMessage)> {
        let exprs = match self {
            Route::Single => return vec![(0, msg)],
            Route::RoundRobin => {
                let p = *rr % n;
                *rr += 1;
                return vec![(p, msg)];
            }
            Route::Key(exprs) => exprs,
        };
        match msg {
            StreamMessage::Columnar(tb) => {
                let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n];
                for (row, &p) in columnar_partition_of(exprs, &tb, n).iter().enumerate() {
                    rows[p].push(row);
                }
                rows.iter()
                    .enumerate()
                    .filter(|(_, rows)| !rows.is_empty())
                    .map(|(p, rows)| {
                        let shard = if rows.len() == tb.len() {
                            tb.clone()
                        } else {
                            tb.gather(rows)
                        };
                        (p, StreamMessage::Columnar(shard))
                    })
                    .collect()
            }
            StreamMessage::Data(buf) => {
                let schema = buf.schema().clone();
                let mut shards: Vec<Vec<Record>> = vec![Vec::new(); n];
                for rec in buf.into_records() {
                    let p = match GroupKey::evaluate(exprs, &rec) {
                        Ok((key, _)) => (fnv1a(key.bytes()) % n as u64) as usize,
                        // A record whose key fails to evaluate has no
                        // group; route it to partition 0. If it
                        // survives the plan's filters the stateful
                        // operator raises the same error a
                        // one-partition run would; if it is filtered
                        // out, placement never mattered.
                        Err(_) => 0,
                    };
                    shards[p].push(rec);
                }
                shards
                    .into_iter()
                    .enumerate()
                    .filter(|(_, recs)| !recs.is_empty())
                    .map(|(p, recs)| {
                        let shard = RecordBuffer::new(schema.clone(), recs);
                        (p, StreamMessage::Data(shard))
                    })
                    .collect()
            }
            // The driver yields data only: punctuation and
            // end-of-stream are broadcast, never routed.
            StreamMessage::Watermark(_) | StreamMessage::Eos => Vec::new(),
        }
    }
}

/// A unit of work for one partition: the payload plus the
/// emission-ledger step that orders its output.
struct Task {
    step: u64,
    msg: StreamMessage,
}

/// A partition's operator chain and metrics, owned by whichever thread
/// currently executes the partition.
struct PartitionExec {
    ops: OperatorChain,
    metrics: QueryMetrics,
}

/// One partition. The queue and the chain are separately locked: the
/// dispatcher pushes to the queue while a worker executes the chain,
/// but a partition's tasks always run under the `exec` lock — in queue
/// order, one executor at a time — which keeps per-key state and
/// watermark application sequential even though *which* worker runs the
/// partition changes from task to task.
struct PartitionSlot {
    queue: Mutex<VecDeque<Task>>,
    /// Queue-depth mirror readable without the lock (dispatcher
    /// backpressure and fast skip during work stealing).
    depth: AtomicUsize,
    exec: Mutex<PartitionExec>,
}

/// Where released results leave the pool: the sink and the buffer each
/// flush moves the ledger's released messages into.
struct Outlet<'s> {
    sink: &'s mut dyn Sink,
    released: Vec<StreamMessage>,
    /// Raised for the span of each flush's delivery and lowered once it
    /// succeeds. Still raised on entry means a sink call failed or
    /// panicked: that thread reports it, and the sink is not called
    /// again.
    broken: bool,
}

/// The task pool: every partition's slot, the ledger ordering their
/// outputs, the outlet delivering them, and the state its threads
/// share. With `threads == 0` there are no workers and [`Pool::submit`]
/// executes on the caller.
struct Pool<'s> {
    slots: Vec<PartitionSlot>,
    ledger: Mutex<EmissionLedger>,
    /// Locked before `ledger` whenever both are held, never after.
    outlet: Mutex<Outlet<'s>>,
    /// Records the outlet has handed to the sink. Written under the
    /// outlet lock; the sampler reads it without waiting on a sink call.
    delivered: AtomicU64,
    threads: usize,
    /// Per-partition queue bound.
    capacity: usize,
    /// Partitions whose end-of-stream has executed.
    finished: AtomicUsize,
    /// Raised by whoever fails first; everyone else stops.
    abort: AtomicBool,
    /// Backpressure episodes: the dispatcher waiting on a full
    /// partition queue, the source thread on a full channel.
    stalls: AtomicU64,
    first_err: Mutex<Option<NebulaError>>,
}

impl Pool<'_> {
    /// Executes a task inline when there are no workers; otherwise
    /// queues it to its partition, bounded: waits while the queue is at
    /// capacity — workers drain concurrently, stealing the partition if
    /// its last executor is busy. Each wait episode counts one stall.
    fn submit(&self, p: usize, task: Task) -> Result<()> {
        let slot = &self.slots[p];
        if self.threads == 0 {
            return self.run_task(slot.exec.lock(), task);
        }
        let mut stalled = false;
        while slot.depth.load(Ordering::Acquire) >= self.capacity {
            if !stalled {
                stalled = true;
                self.stalls.fetch_add(1, Ordering::Relaxed);
            }
            if self.abort.load(Ordering::Acquire) {
                return Ok(());
            }
            std::thread::yield_now();
        }
        slot.queue.lock().push_back(task);
        slot.depth.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Opens one step owned by every partition and submits it to each:
    /// a frontier advance, or — `None` — end of stream.
    fn broadcast(&self, frontier: Option<EventTime>) -> Result<()> {
        let step = self.ledger.lock().open(self.slots.len(), frontier);
        for p in 0..self.slots.len() {
            let msg = frontier.map_or(StreamMessage::Eos, StreamMessage::Watermark);
            self.submit(p, Task { step, msg })?;
        }
        Ok(())
    }

    /// Tasks queued across all partitions.
    fn queue_depth(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.depth.load(Ordering::Acquire) as u64)
            .sum()
    }

    /// Executes one task on the partition `exec` guards, lets go of the
    /// partition, and delivers whatever the completion released. This is
    /// every thread's way to run a task — pool workers and the inline
    /// caller alike — so a panic in an operator or the sink is caught
    /// here and becomes an [`NebulaError::Eval`] carrying its message.
    fn run_task(&self, mut exec: MutexGuard<'_, PartitionExec>, task: Task) -> Result<()> {
        catch_unwind(AssertUnwindSafe(move || {
            let released = run_partition_task(&mut exec, task, &self.ledger)?;
            drop(exec);
            if released {
                self.flush()?;
            }
            Ok(())
        }))
        .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())))
    }

    /// Hands everything the ledger has released to the sink. Taking the
    /// messages and delivering them happen under the outlet lock, so
    /// whichever thread flushes, the sink sees dispatch order, one call
    /// at a time.
    fn flush(&self) -> Result<()> {
        let mut outlet = self.outlet.lock();
        let Outlet {
            sink,
            released,
            broken,
        } = &mut *outlet;
        if *broken {
            return Ok(());
        }
        *broken = true;
        self.ledger.lock().take_released(released);
        for msg in released.drain(..) {
            deliver(&mut **sink, &msg)?;
            self.delivered
                .fetch_add(msg.record_count() as u64, Ordering::Relaxed);
        }
        *broken = false;
        Ok(())
    }
}

/// The typed error a caught panic becomes.
pub(crate) fn panic_error(payload: &(dyn Any + Send)) -> NebulaError {
    let msg = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload");
    NebulaError::Eval(format!("task panicked: {msg}"))
}

/// Orders out-of-order task completions back into a deterministic
/// emission stream.
///
/// The dispatcher assigns every unit of work a global *step* index: a
/// data buffer is one step even when sharded across several partitions,
/// and a broadcast punctuation is one step owned by all of them. A
/// step's outputs — the chain's terminal messages, held by value — are
/// released to the sink only when every owner has completed it *and*
/// all earlier steps have been released, so the sink observes results
/// in dispatch order no matter how the pool interleaved execution.
/// Multi-owner steps (sharded keyed buffers; punctuations closing
/// windows on several partitions) merge their outputs as rows in window
/// emission order — each owner's rows arrive already emission-sorted
/// over a disjoint key subset, so re-sorting the union with the same
/// comparator reconstructs exactly the sequence a one-partition run
/// emits for that step. Single-owner steps pass through untouched in
/// the layout the chain emitted, preserving source order for stateless
/// plans. Either way the released stream is identical across
/// parallelism degrees.
struct EmissionLedger {
    schema: crate::schema::SchemaRef,
    /// Leading key-column count of keyed-window output rows — the
    /// emission comparator reads the window-start timestamp right
    /// after them (0 for unkeyed plans).
    key_count: usize,
    /// Index of the front of `steps`: the next step to release.
    next_release: u64,
    /// Open steps, in dispatch order.
    steps: VecDeque<LedgerStep>,
    released: Vec<StreamMessage>,
    /// Punctuation value of the newest fully-released punctuation step.
    released_wm: Option<EventTime>,
    /// Max observed distance (µs) between a newly dispatched
    /// punctuation and the newest released one while earlier steps were
    /// still executing — how far execution trails dispatch under skew.
    lag_max_us: u64,
}

struct LedgerStep {
    owners_remaining: usize,
    multi_owner: bool,
    outputs: Vec<StreamMessage>,
    punctuation: Option<EventTime>,
}

impl EmissionLedger {
    fn new(schema: crate::schema::SchemaRef, key_count: usize) -> Self {
        EmissionLedger {
            schema,
            key_count,
            next_release: 0,
            steps: VecDeque::new(),
            released: Vec::new(),
            released_wm: None,
            lag_max_us: 0,
        }
    }

    /// Opens the next step with `owners` pending completions.
    fn open(&mut self, owners: usize, punctuation: Option<EventTime>) -> u64 {
        debug_assert!(owners > 0, "a step needs at least one owner");
        // Execution trails dispatch only while earlier steps are still
        // open; with none, the new punctuation is simply the next one.
        if let (Some(w), Some(r), Some(_)) = (punctuation, self.released_wm, self.steps.front()) {
            self.lag_max_us = self.lag_max_us.max(w.saturating_sub(r).max(0) as u64);
        }
        self.steps.push_back(LedgerStep {
            owners_remaining: owners,
            multi_owner: owners > 1,
            outputs: Vec::new(),
            punctuation,
        });
        self.next_release + self.steps.len() as u64 - 1
    }

    /// Banks one owner's completion with the terminal messages its
    /// chain emitted, then releases every fully-completed step at the
    /// front of the dispatch order. Returns whether that released any
    /// message for the sink.
    fn complete(&mut self, step: u64, outputs: Vec<StreamMessage>) -> bool {
        let before = self.released.len();
        let open = step.checked_sub(self.next_release);
        if let Some(s) = open.and_then(|i| self.steps.get_mut(i as usize)) {
            s.outputs
                .extend(outputs.into_iter().filter(|m| m.record_count() > 0));
            s.owners_remaining = s.owners_remaining.saturating_sub(1);
        }
        while let Some(s) = self.steps.pop_front_if(|s| s.owners_remaining == 0) {
            self.next_release += 1;
            if let Some(w) = s.punctuation {
                self.released_wm = Some(self.released_wm.map_or(w, |r| r.max(w)));
            }
            if !s.multi_owner {
                self.released.extend(s.outputs);
                continue;
            }
            let mut recs: Vec<Record> = Vec::new();
            for msg in s.outputs {
                match msg {
                    StreamMessage::Data(b) => recs.extend(b.into_records()),
                    StreamMessage::Columnar(b) => {
                        recs.extend(b.to_record_buffer().into_records());
                    }
                    StreamMessage::Watermark(_) | StreamMessage::Eos => {}
                }
            }
            if !recs.is_empty() {
                // Re-establish the window emission order over the
                // union of the owners' outputs: bounded, per-step.
                crate::ops::sort_emission(&mut recs, self.key_count);
                let merged = RecordBuffer::new(self.schema.clone(), recs);
                self.released.push(StreamMessage::Data(merged));
            }
        }
        self.released.len() > before
    }

    /// Moves everything released so far, in dispatch order, to the end
    /// of `out`.
    fn take_released(&mut self, out: &mut Vec<StreamMessage>) {
        out.append(&mut self.released);
    }
}

/// A pool worker: repeatedly claims any partition that has queued
/// tasks and no current executor, then drains its queue. Partitions
/// are scanned starting at the worker's own index, so each worker
/// prefers "its" partition and steals only when otherwise idle. A task
/// is popped only under its partition's `exec` lock, so a partition's
/// tasks run in queue order although the lock is let go after each one
/// while its released results are delivered.
fn partition_worker(wid: usize, pool: &Pool<'_>) {
    let n = pool.slots.len();
    let mut spins: u32 = 0;
    loop {
        if pool.abort.load(Ordering::Acquire) || pool.finished.load(Ordering::Acquire) == n {
            return;
        }
        let mut progressed = false;
        for k in 0..n {
            let slot = &pool.slots[(wid + k) % n];
            while slot.depth.load(Ordering::Acquire) > 0 {
                let Some(exec) = slot.exec.try_lock() else {
                    // Another worker owns this partition right now; its
                    // queue is their problem. Steal elsewhere.
                    break;
                };
                let task = { slot.queue.lock().pop_front() };
                let Some(task) = task else { break };
                slot.depth.fetch_sub(1, Ordering::AcqRel);
                progressed = true;
                let is_eos = matches!(task.msg, StreamMessage::Eos);
                if let Err(e) = pool.run_task(exec, task) {
                    pool.first_err.lock().get_or_insert(e);
                    pool.abort.store(true, Ordering::Release);
                    return;
                }
                if is_eos {
                    pool.finished.fetch_add(1, Ordering::AcqRel);
                }
                if pool.abort.load(Ordering::Acquire) {
                    return;
                }
            }
        }
        if progressed {
            spins = 0;
        } else {
            // Idle: yield briefly, then back off to a short sleep so an
            // empty pool doesn't burn the core the dispatcher needs.
            spins += 1;
            if spins < 64 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
}

/// Executes one task against a partition's chain, accounting it in the
/// partition's metrics and banking the chain's terminal messages in the
/// emission ledger. Returns whether the ledger released anything for
/// the sink.
fn run_partition_task(
    exec: &mut PartitionExec,
    task: Task,
    ledger: &Mutex<EmissionLedger>,
) -> Result<bool> {
    let Task { step, msg } = task;
    let is_eos = matches!(msg, StreamMessage::Eos);
    let is_data = matches!(msg, StreamMessage::Data(_) | StreamMessage::Columnar(_));
    match &msg {
        StreamMessage::Data(_) | StreamMessage::Columnar(_) => {
            exec.metrics.batches += 1;
            exec.metrics.records_in += msg.record_count() as u64;
            exec.metrics.bytes_in += msg.data_bytes() as u64;
        }
        StreamMessage::Watermark(_) => exec.metrics.watermarks += 1,
        StreamMessage::Eos => {}
    }
    let t0 = Instant::now();
    let outputs = drive(&mut exec.ops, msg)?;
    // The latency histogram samples only data buffers — watermark and
    // Eos feeds would skew the per-buffer profile.
    if is_data {
        exec.metrics
            .latency
            .record(t0.elapsed().as_secs_f64() * 1e6);
    }
    for out in &outputs {
        exec.metrics.records_out += out.record_count() as u64;
        exec.metrics.bytes_out += out.data_bytes() as u64;
    }
    if is_eos {
        exec.metrics.late_drops = chain_late_drops(&exec.ops);
    }
    Ok(ledger.lock().complete(step, outputs))
}

/// FNV-1a over the canonical key bytes: deterministic across runs and
/// platforms, so a key's partition assignment is stable.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Assigns each row of a columnar buffer to a partition by hashing its
/// evaluated grouping key. Key evaluation is vectorized when possible;
/// rows whose key fails to evaluate route to partition 0, exactly like
/// the per-record router.
fn columnar_partition_of(exprs: &[BoundExpr], tb: &TupleBuffer, n: usize) -> Vec<usize> {
    let mut cols = Vec::with_capacity(exprs.len());
    let vectorized = exprs.iter().all(|e| match e.eval_column(tb) {
        Ok(c) => {
            cols.push(c);
            true
        }
        Err(_) => false,
    });
    let mut out = Vec::with_capacity(tb.len());
    let mut bytes: Vec<u8> = Vec::with_capacity(exprs.len() * 9);
    for row in 0..tb.len() {
        bytes.clear();
        let ok = if vectorized {
            for c in &cols {
                crate::ops::encode_value(&c.value_at(row), &mut bytes);
            }
            true
        } else {
            // Some row errored during vector evaluation; redo this row
            // scalar so only the failing rows fall back to partition 0.
            exprs.iter().all(|e| match e.eval_row(tb, row) {
                Ok(v) => {
                    crate::ops::encode_value(&v, &mut bytes);
                    true
                }
                Err(_) => false,
            })
        };
        out.push(if ok {
            (fnv1a(&bytes) % n as u64) as usize
        } else {
            0
        });
    }
    out
}

pub(crate) fn resolve_ts_col(
    watermark: &WatermarkStrategy,
    schema: &crate::schema::Schema,
) -> Result<Option<usize>> {
    match watermark {
        WatermarkStrategy::None => Ok(None),
        WatermarkStrategy::BoundedOutOfOrder { ts_field, .. } => {
            let col = schema.index_of(ts_field).ok_or_else(|| {
                NebulaError::Plan(format!(
                    "watermark ts field '{ts_field}' not in source schema"
                ))
            })?;
            Ok(Some(col))
        }
    }
}

/// The one chain walker, local and cluster: pushes one message through
/// a chain and returns the terminal messages in order — what the
/// emission ledger banks for the sink, or what crosses the wire to the
/// next site.
pub(crate) fn drive(
    ops: &mut [Box<dyn Operator>],
    first: StreamMessage,
) -> Result<Vec<StreamMessage>> {
    let mut cur = vec![first];
    let mut next: Vec<StreamMessage> = Vec::new();
    for op in ops.iter_mut() {
        for msg in cur.drain(..) {
            match msg {
                StreamMessage::Data(b) => op.process(b, &mut next)?,
                StreamMessage::Columnar(b) => op.process_columnar(b, &mut next)?,
                StreamMessage::Watermark(w) => op.on_watermark(w, &mut next)?,
                StreamMessage::Eos => op.on_eos(&mut next)?,
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::record::Record;
    use crate::schema::Schema;
    use crate::sink::{CollectingSink, CountingSink};
    use crate::source::{JitterSource, VecSource};
    use crate::value::{DataType, Value, MICROS_PER_SEC};
    use crate::window::{AggSpec, WindowAgg, WindowSpec};

    fn schema() -> crate::schema::SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn rec(ts_s: i64, train: i64, speed: f64) -> Record {
        Record::new(vec![
            Value::Timestamp(ts_s * MICROS_PER_SEC),
            Value::Int(train),
            Value::Float(speed),
        ])
    }

    fn records(n: i64) -> Vec<Record> {
        (0..n).map(|i| rec(i, i % 3, (i % 50) as f64)).collect()
    }

    #[test]
    fn run_filter_query() {
        let mut env = StreamEnvironment::new();
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(100))),
            WatermarkStrategy::None,
        );
        let (mut sink, got) = CollectingSink::new();
        let q = Query::from("trains").filter(col("speed").ge(lit(40.0)));
        let m = env.run(&q, &mut sink).unwrap();
        assert_eq!(m.records_in, 100);
        assert_eq!(m.records_out as usize, got.len());
        assert_eq!(got.len(), 20, "speeds 40..49 of each 50-cycle");
        assert!(m.bytes_in > 0);
    }

    #[test]
    fn run_window_query_with_watermarks() {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 16,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(300))),
            WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "ts".into(),
                slack: 5 * MICROS_PER_SEC,
            },
        );
        let (mut sink, got) = CollectingSink::new();
        let q = Query::from("trains").window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let m = env.run(&q, &mut sink).unwrap();
        assert!(m.watermarks > 0);
        // 300 seconds of data, 60 s windows, 3 keys => 15 windows.
        assert_eq!(got.len(), 15);
        let total: i64 = got
            .records()
            .iter()
            .map(|r| r.get(3).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 300, "every record lands in exactly one window");
    }

    #[test]
    fn unknown_source_errors() {
        let mut env = StreamEnvironment::new();
        let (mut sink, _) = CollectingSink::new();
        let q = Query::from("nope").filter(lit(true));
        assert!(env.run(&q, &mut sink).is_err());
    }

    #[test]
    fn out_of_order_data_still_complete_with_slack() {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 32,
            watermark_every: 1,
            ..EnvConfig::default()
        });
        let src = JitterSource::new(VecSource::new(schema(), records(300)), 8, 99);
        env.add_source(
            "trains",
            Box::new(src),
            WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "ts".into(),
                slack: 40 * MICROS_PER_SEC, // generous slack > jitter
            },
        );
        let (mut sink, got) = CollectingSink::new();
        let q = Query::from("trains").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        env.run(&q, &mut sink).unwrap();
        let total: i64 = got
            .records()
            .iter()
            .map(|r| r.get(2).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 300, "slack absorbs the jitter; nothing dropped");
    }

    #[test]
    fn threaded_run_matches_sync() {
        let q = Query::from("trains")
            .filter(col("speed").ge(lit(25.0)))
            .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);

        let mut env1 = StreamEnvironment::new();
        env1.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(500))),
            WatermarkStrategy::None,
        );
        let (mut s1, c1) = CollectingSink::new();
        env1.run(&q, &mut s1).unwrap();

        let mut env2 = StreamEnvironment::new();
        env2.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(500))),
            WatermarkStrategy::None,
        );
        let (mut s2, c2) = CollectingSink::new();
        let m2 = env2.run_threaded(&q, &mut s2).unwrap();

        assert_eq!(c1.records(), c2.records());
        assert_eq!(m2.records_in, 500);
    }

    #[test]
    fn plan_error_keeps_source_registered() {
        // Regression: compiling used to happen after take_source, so a
        // bad plan permanently dropped the source.
        for mode in 0..3 {
            let mut env = StreamEnvironment::with_config(EnvConfig {
                parallelism: 2,
                ..EnvConfig::default()
            });
            env.add_source(
                "trains",
                Box::new(VecSource::new(schema(), records(50))),
                WatermarkStrategy::None,
            );
            let bad = Query::from("trains").filter(col("no_such_column").gt(lit(1.0)));
            let (mut sink, _) = CollectingSink::new();
            let err = match mode {
                0 => env.run(&bad, &mut sink),
                1 => env.run_threaded(&bad, &mut sink),
                _ => env.run_partitioned(&bad, &mut sink),
            };
            assert!(err.is_err(), "mode {mode}: bad plan must fail");

            // The source must still be registered and usable.
            let good = Query::from("trains").filter(col("speed").ge(lit(0.0)));
            let (mut sink, got) = CollectingSink::new();
            let m = match mode {
                0 => env.run(&good, &mut sink),
                1 => env.run_threaded(&good, &mut sink),
                _ => env.run_partitioned(&good, &mut sink),
            }
            .expect("source survived the plan error");
            assert_eq!(m.records_in, 50, "mode {mode}");
            assert_eq!(got.len(), 50, "mode {mode}");
        }
    }

    fn run_partitioned_with(
        query: &Query,
        parallelism: usize,
        watermark: WatermarkStrategy,
    ) -> (Vec<Record>, QueryMetrics) {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 16,
            watermark_every: 2,
            parallelism,
            ..EnvConfig::default()
        });
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(300))),
            watermark,
        );
        let (mut sink, got) = CollectingSink::new();
        let m = env.run_partitioned(query, &mut sink).unwrap();
        (got.records(), m)
    }

    /// `run`'s output in its native emission order: the partitioned
    /// executor's ledger must reproduce it exactly — no normalization
    /// on either side.
    fn run_sync_raw(query: &Query, watermark: WatermarkStrategy) -> Vec<Record> {
        let mut env = StreamEnvironment::with_config(EnvConfig {
            buffer_size: 16,
            watermark_every: 2,
            ..EnvConfig::default()
        });
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(300))),
            watermark,
        );
        let (mut sink, got) = CollectingSink::new();
        env.run(query, &mut sink).unwrap();
        got.records()
    }

    #[test]
    fn partitioned_stateless_matches_run() {
        let q = Query::from("trains")
            .filter(col("speed").ge(lit(25.0)))
            .map_extend(vec![("kmh", col("speed").mul(lit(3.6)))]);
        let expect = run_sync_raw(&q, WatermarkStrategy::None);
        for p in [1, 2, 4] {
            let (got, m) = run_partitioned_with(&q, p, WatermarkStrategy::None);
            assert_eq!(got, expect, "parallelism {p}");
            assert_eq!(m.records_in, 300, "parallelism {p}");
            assert_eq!(m.records_out as usize, got.len(), "parallelism {p}");
        }
    }

    #[test]
    fn partitioned_keyed_window_matches_run() {
        let wm = || WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        };
        let q = Query::from("trains").window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("avg_speed", AggSpec::Avg(col("speed"))),
            ],
        );
        let expect = run_sync_raw(&q, wm());
        assert_eq!(expect.len(), 15, "300 s / 60 s windows x 3 keys");
        for p in [1, 2, 4] {
            let (got, m) = run_partitioned_with(&q, p, wm());
            assert_eq!(got, expect, "parallelism {p}");
            assert_eq!(m.records_in, 300, "parallelism {p}");
            assert!(!m.latency.is_empty(), "workers recorded latency");
        }
    }

    #[test]
    fn partitioned_keyless_window_falls_back_to_single() {
        // A keyless window must not be sharded (it would emit one row
        // per partition); Single routing keeps results identical.
        let q = Query::from("trains").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let expect = run_sync_raw(&q, WatermarkStrategy::None);
        assert_eq!(expect.len(), 5);
        let (got, m) = run_partitioned_with(&q, 4, WatermarkStrategy::None);
        assert_eq!(got, expect);
        let total: i64 = got
            .iter()
            .map(|r| r.get(2).unwrap().as_int().unwrap())
            .sum();
        assert_eq!(total, 300);
        assert_eq!(m.records_in, 300);
    }

    #[test]
    fn partitioned_watermarks_broadcast_to_all_workers() {
        let q = Query::from("trains").window(
            vec![("train", col("train"))],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let (_, m) = run_partitioned_with(
            &q,
            4,
            WatermarkStrategy::BoundedOutOfOrder {
                ts_field: "ts".into(),
                slack: 5 * MICROS_PER_SEC,
            },
        );
        // 300 records / 16 per batch = 19 batches; a broadcast every 2
        // batches reaches all 4 workers.
        assert_eq!(m.watermarks, 9 * 4, "each watermark counted per worker");
    }

    #[test]
    fn partitioned_key_eval_error_on_filtered_record_matches_run() {
        // The router evaluates the partition key on *pre-filter* source
        // records. A key expression that errors on records the filter
        // would exclude must not fail the partitioned run: such records
        // route to worker 0 and die in the filter there, exactly as in
        // `run`.
        use crate::expr::{call, ClosureFunction};
        let build_env = || {
            let mut env = StreamEnvironment::with_config(EnvConfig {
                buffer_size: 16,
                parallelism: 4,
                ..EnvConfig::default()
            });
            env.registry_mut()
                .register(ClosureFunction::new(
                    "strict_key",
                    1,
                    crate::value::DataType::Int,
                    |args| match &args[0] {
                        Value::Int(i) if *i >= 0 => Ok(Value::Int(*i)),
                        other => Err(NebulaError::Eval(format!("strict_key: bad {other}"))),
                    },
                ))
                .unwrap();
            // Trains 0..2 plus a poison key -1 on every 10th record.
            let recs: Vec<Record> = (0..200)
                .map(|i| rec(i, if i % 10 == 0 { -1 } else { i % 3 }, (i % 50) as f64))
                .collect();
            env.add_source(
                "trains",
                Box::new(VecSource::new(schema(), recs)),
                WatermarkStrategy::None,
            );
            env
        };
        let q = Query::from("trains")
            .filter(col("train").ge(lit(0.0)))
            .window(
                vec![("k", call("strict_key", vec![col("train")]))],
                WindowSpec::Tumbling {
                    size: 60 * MICROS_PER_SEC,
                },
                vec![WindowAgg::new("n", AggSpec::Count)],
            );

        let (mut s1, c1) = CollectingSink::new();
        build_env().run(&q, &mut s1).expect("run succeeds");
        let (mut s2, c2) = CollectingSink::new();
        build_env()
            .run_partitioned(&q, &mut s2)
            .expect("partitioned must not fail on filtered-out poison keys");
        let mut a = c1.records();
        let mut b = c2.records();
        crate::sink::normalize_records(&mut a);
        crate::sink::normalize_records(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn partitioned_single_route_uses_one_worker() {
        // Single-routed plans clamp to one worker, so the merged
        // watermark count matches the synchronous run's instead of
        // being multiplied by the configured parallelism.
        let q = Query::from("trains").window(
            vec![],
            WindowSpec::Tumbling {
                size: 60 * MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let wm = || WatermarkStrategy::BoundedOutOfOrder {
            ts_field: "ts".into(),
            slack: 5 * MICROS_PER_SEC,
        };
        let (_, m) = run_partitioned_with(&q, 4, wm());
        assert_eq!(m.watermarks, 9, "one worker, not 4x broadcast");
    }

    #[test]
    fn partitioned_propagates_worker_errors() {
        // A record with a Null event time makes WindowOp::process fail
        // at eval time — inside a worker thread, not during planning.
        let mut env = StreamEnvironment::with_config(EnvConfig {
            parallelism: 2,
            ..EnvConfig::default()
        });
        let schema = Schema::of(&[("ts", DataType::Timestamp), ("k", DataType::Int)]);
        env.add_source(
            "bad",
            Box::new(VecSource::new(
                schema,
                vec![Record::new(vec![Value::Null, Value::Int(1)])],
            )),
            WatermarkStrategy::None,
        );
        let q = Query::from("bad").window(
            vec![("k", col("k"))],
            WindowSpec::Tumbling {
                size: MICROS_PER_SEC,
            },
            vec![WindowAgg::new("n", AggSpec::Count)],
        );
        let (mut sink, _) = CollectingSink::new();
        assert!(env.run_partitioned(&q, &mut sink).is_err());
    }

    #[test]
    fn counting_sink_and_metrics_agree() {
        let mut env = StreamEnvironment::new();
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), records(200))),
            WatermarkStrategy::None,
        );
        let (mut sink, counters) = CountingSink::new();
        let q = Query::from("trains").filter(lit(true));
        let m = env.run(&q, &mut sink).unwrap();
        assert_eq!(counters.records(), m.records_out);
        assert_eq!(counters.bytes(), m.bytes_out);
    }

    #[test]
    fn explain_renders_plan() {
        let mut env = StreamEnvironment::new();
        env.add_source(
            "trains",
            Box::new(VecSource::new(schema(), vec![])),
            WatermarkStrategy::None,
        );
        let q = Query::from("trains")
            .filter(col("speed").gt(lit(1.0)))
            .map(vec![("t", col("train"))]);
        let plan = env.explain(&q).unwrap();
        assert!(plan.contains("Source[trains]"));
        assert!(plan.contains("filter"));
        assert!(plan.contains("map"));
    }

    // -- ProgressTracker ---------------------------------------------------

    #[test]
    fn tracker_frontier_is_min_across_origins() {
        let mut t = ProgressTracker::with_origins(2);
        assert_eq!(
            t.observe(0, 1, Some(100)),
            None,
            "origin 1 silent: clock blocked"
        );
        assert_eq!(t.frontier(), None);
        assert_eq!(t.observe(1, 1, Some(40)), Some(40), "min of 100 and 40");
        assert_eq!(t.observe(1, 2, Some(70)), Some(70));
        assert_eq!(t.observe(1, 3, Some(90)), Some(90), "still capped by 100");
        assert_eq!(
            t.observe(1, 4, Some(130)),
            Some(100),
            "origin 0 now slowest"
        );
        assert_eq!(t.frontier(), Some(100));
    }

    #[test]
    fn tracker_parks_sequence_gaps() {
        let mut t = ProgressTracker::with_origins(1);
        // Sequence 2 arrives before 1: its punctuation must not count
        // yet — a reordered buffer cannot advance the clock past data
        // still in flight.
        assert_eq!(t.observe(0, 2, Some(200)), None);
        assert_eq!(t.frontier(), None);
        // The gap closes; both parked punctuations apply at once.
        assert_eq!(t.observe(0, 1, Some(100)), Some(200));
        // Duplicates and stale sequences are ignored.
        assert_eq!(t.observe(0, 1, Some(999)), None);
        assert_eq!(t.frontier(), Some(200));
    }

    #[test]
    fn tracker_finish_removes_origin_from_min() {
        let mut t = ProgressTracker::with_origins(2);
        t.observe(0, 1, Some(50));
        t.observe(1, 1, Some(300));
        assert_eq!(t.frontier(), Some(50));
        // Dropping the slow origin can only raise the frontier.
        assert_eq!(t.finish(0), Some(300));
        assert!(t.is_done(0));
        assert!(!t.all_done());
        // The last origin finishing freezes the clock: end-of-stream
        // carries the rest.
        assert_eq!(t.finish(1), None);
        assert!(t.all_done());
        assert_eq!(t.frontier(), Some(300));
    }

    #[test]
    fn tracker_frontier_never_regresses() {
        let mut t = ProgressTracker::new();
        t.advance_origin(0, 500);
        assert_eq!(t.frontier(), Some(500));
        // A regressing report clamps; the frontier holds.
        assert_eq!(t.advance_origin(0, 100), None);
        assert_eq!(t.frontier(), Some(500));
        // A late-registered origin with no report blocks further
        // advances but cannot pull the frontier back.
        t.register(1);
        assert_eq!(t.advance_origin(0, 900), None);
        assert_eq!(t.frontier(), Some(500));
        assert_eq!(t.advance_origin(1, 600), Some(600));
    }

    #[test]
    fn tracker_tracks_frontier_lag() {
        let mut t = ProgressTracker::with_origins(2);
        t.observe(0, 1, Some(1_000));
        t.observe(1, 1, Some(9_000));
        // Frontier 1000, fastest origin 9000: lag 8000 µs.
        assert_eq!(t.frontier(), Some(1_000));
        assert_eq!(t.frontier_lag_us(), 8_000);
        t.observe(0, 2, Some(9_000));
        // Catching up does not erase the high-water mark.
        assert_eq!(t.frontier_lag_us(), 8_000);
    }

    #[test]
    fn ledger_releases_out_of_order_completions_in_dispatch_order() {
        let mut ledger = EmissionLedger::new(schema(), 0);
        let steps: Vec<u64> = (0..3).map(|_| ledger.open(1, None)).collect();
        assert_eq!(steps, [0, 1, 2]);
        let output = |ts_s| {
            let buf = RecordBuffer::new(schema(), vec![rec(ts_s, 0, 1.0)]);
            vec![StreamMessage::Data(buf)]
        };
        let mut released = Vec::new();

        assert!(!ledger.complete(1, output(1)), "step 0 is still open");
        ledger.take_released(&mut released);
        assert!(released.is_empty());

        assert!(ledger.complete(0, output(0)), "step 0 releases 0 and 1");
        ledger.take_released(&mut released);
        let rows: Vec<Record> = released
            .drain(..)
            .flat_map(|m| match m {
                StreamMessage::Data(b) => b.into_records(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(rows, [rec(0, 0, 1.0), rec(1, 0, 1.0)], "dispatch order");
        assert_eq!(ledger.steps.len(), 1, "step 2 stays open");

        assert!(ledger.complete(2, output(2)));
        assert!(ledger.steps.is_empty());
    }
}
