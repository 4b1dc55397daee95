//! The distributed cluster runtime: executing placed query plans across
//! topology nodes.
//!
//! [`crate::topology`] decides where each stage of a query runs; this
//! module runs it there: every node that hosts part of the plan gets its
//! own thread driving its operator sub-chain, and consecutive nodes are
//! joined by bounded channels that carry [`crate::wire`]-encoded frames.
//! Each frame crossing a topology link is accounted — bytes, records,
//! frames, queue depth, and the transfer time the link's bandwidth and
//! latency imply — into [`ClusterMetrics`], turning the paper's "process
//! at the edge to cut uplink traffic" claim into measured numbers.
//!
//! ## Execution model
//!
//! [`ClusterEnvironment::run_placed`] runs the [`PlacedPlan`] that
//! [`crate::topology::plan_placed`] decides (and
//! [`ClusterEnvironment::explain`] prints): one *pipeline* of stages per
//! hosted source, wired source → edge → cloud. A stage is the operators
//! placed on one node, driven on its own thread by the one loop of every
//! stage: take input, drive the operators, hand their output on.
//! Watermarks and end-of-stream travel as control frames, so event-time
//! windows close correctly across node boundaries.
//!
//! - **stage 0** sits on the source node (its operators may be none);
//!   its input is the source itself, and it alone generates watermarks,
//!   exactly like [`crate::runtime::StreamEnvironment::run`];
//! - **every later stage** takes its input from the frames of the stage
//!   before it; every pipeline stage outputs frames for the next hop;
//! - the **cloud** is the last stage of every pipeline. Its input is
//!   their fan-in, which advances the event-time clock to the *minimum*
//!   watermark across live pipelines (the standard distributed
//!   watermark rule) and aligns chaos runs' checkpoint barriers. It runs
//!   the shared tail of the plan; its output is the outbox, which hands
//!   results to the sink under one rule: *a row goes to the sink as
//!   soon as no recovery can replay it* — on emission, or at each
//!   committed checkpoint in a chaos run. One pipeline delivers exactly
//!   `run`'s sequence; several interleave in arrival order (each
//!   keeping its own), so compare those normalized.
//!
//! ## Edge pre-aggregation
//!
//! Under [`PlacementStrategy::EdgeFirst`], a query whose first stateful
//! operator is a splittable time window is split (see [`crate::preagg`]):
//! each edge ships one partial row per slice, and the cloud merges them.
//! The measured [`ClusterMetrics::uplink_bytes`] reduction versus
//! [`PlacementStrategy::CloudOnly`] is the demonstration's headline
//! number.
//!
//! ## Failure and recovery
//!
//! [`ClusterEnvironment::run_placed_chaos`] runs the same placed plan
//! under a seeded [`FaultPlan`]: every inter-stage channel drops,
//! duplicates, reorders, corrupts and delays frames deterministically,
//! and one non-source node on a pipeline's route may be killed
//! *abruptly*, mid-batch — the one way a run fails a node. Three
//! mechanisms keep the output byte-identical to an undisturbed
//! [`crate::runtime::StreamEnvironment::run`]:
//!
//! - every link speaks the resilient wire protocol of the internal
//!   `reliable` module (CRC32 envelopes, per-link sequence numbers,
//!   cumulative acks, NACK/timeout retransmission, heartbeats), so the
//!   operator pipeline sees a perfect in-order exactly-once stream;
//! - every operator snapshots ([`Operator::snapshot`]): before any
//!   thread spawns, the coordinator stores the freshly compiled chains
//!   as epoch 0, the run's start; then each pipeline's stage 0 emits
//!   [`Frame::Barrier`] markers every four source batches, operator
//!   snapshots flow into an internal `CheckpointStore` as the barrier
//!   passes each stage, and the cloud seals the epoch once the barrier
//!   has aligned across all live pipelines — the commit point: restore
//!   never goes back past it, so the rows produced before its cut go to
//!   the sink;
//! - after a crash, the plan moves off the dead node
//!   ([`PlacedPlan::after_failure`]), operator state restores from the newest
//!   sealed epoch (epoch 0 when the crash beat the first barrier),
//!   sources rewind via [`crate::source::ReplaySource`], and the run
//!   resumes — re-emitting exactly the records the crash swallowed,
//!   none of which the sink has seen.

use crate::analysis::{self, AnalysisContext, AnalysisReport, CapabilityRegistry};
use crate::buffer::TupleBuffer;
use crate::chaos::{ChaosStats, CrashSwitch, FaultPlan, LinkChaos};
use crate::checkpoint::{CheckpointStore, CloudPart, EpochState, SourceCut, StagePart};
use crate::error::{ClusterError, NebulaError, Result};
use crate::expr::{FunctionRegistry, Plugin};
use crate::metrics::{Histogram, QueryMetrics};
use crate::ops::{chain_late_drops, Operator, WindowOp};
use crate::preagg::CloudRole;
use crate::query::{compile_ops, liveness, Query};
use crate::record::StreamMessage;
use crate::reliable::{AckMsg, ReliableRx, ReliableTx, RxEvent};
use crate::runtime::{
    deliver, drive, panic_error, resolve_ts_col, ColumnarMode, EnvConfig, ProgressTracker,
};
use crate::schema::{ReadSet, SchemaRef};
use crate::sink::Sink;
use crate::source::{
    chain_wants_columnar, Polled, ReplaySource, Source, SourceDriver, Stamped, WatermarkStrategy,
};
use crate::telemetry::{
    build_report, instrument_chain, ChainTelemetry, Gauges, NodeSnapshot, QueryReport,
    TelemetryConfig, TelemetrySampler, TraceKind, TraceRing, COORDINATOR_ORIGIN, MAX_EVENTS,
};
use crate::topology::{
    plan_placed, NodeId, NodeKind, PlacedPlan, Placement, PlacementStrategy, Topology,
};
use crate::value::EventTime;
use crate::wire::{check_widths, decode_frame, encode_frame, Frame, WireRegistry};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shorthand for coordinator-side bookkeeping invariants that used to
/// be `expect()` panics on cluster hot paths.
fn internal(msg: &str) -> NebulaError {
    ClusterError::Internal(msg.into()).into()
}

/// A peer closed its end of a channel.
fn hung_up(who: &str) -> NebulaError {
    NebulaError::Eval(format!("cluster: {who} hung up"))
}

/// True for what a thread reports because *another* thread failed
/// first: a hang-up, or a chaos run's `Aborted`.
fn is_knock_on(e: &NebulaError) -> bool {
    matches!(e, NebulaError::Cluster(ClusterError::Aborted))
        || matches!(e, NebulaError::Eval(m) if m.starts_with("cluster: ") && m.ends_with(" hung up"))
}

/// Chaos runs: stage 0 emits a checkpoint barrier every this many
/// source batches — barrier `e` right after batch `e * CHECKPOINT_EVERY`
/// (crash recovery restores the newest epoch the cloud sealed).
const CHECKPOINT_EVERY: u64 = 4;

/// The cluster's configuration is [`EnvConfig`]. This alias exists only
/// because the benchmark harness (`fleetbench/src/workloads.rs`) names
/// it; the next change to the benchmark deletes it.
pub type ClusterConfig = EnvConfig;

/// Measured traffic over one topology link (same indexing as
/// [`Topology::links`]).
#[derive(Debug, Clone, Default)]
pub struct LinkMetrics {
    /// Frames (data + control) that crossed the link.
    pub frames: u64,
    /// Records carried by those frames.
    pub records: u64,
    /// Wire-encoded bytes that crossed the link.
    pub bytes: u64,
    /// Maximum observed channel queue depth (frames in flight).
    pub max_queue_depth: u64,
    /// Transfer time the link's bandwidth/latency imply for this
    /// traffic (accounted, not slept: per frame, latency plus
    /// bytes / bandwidth).
    pub simulated_transfer_ms: f64,
}

/// Measured cluster-wide traffic for one placed run.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Per-link traffic, indexed like [`Topology::links`].
    pub links: Vec<LinkMetrics>,
    /// Bytes that crossed any link into a cloud node — the scarce
    /// cellular uplink, and what a placement costs on this run's input.
    pub uplink_bytes: u64,
    /// Records that crossed into a cloud node.
    pub uplink_records: u64,
    /// Frames that crossed into a cloud node.
    pub uplink_frames: u64,
    /// Stages migrated off a crashed node by recovery re-planning.
    pub migrated_stages: usize,
    /// Re-planning rounds triggered by failures.
    pub replans: u32,
    /// Threads spawned over the run (all phases) for pipeline stages
    /// past stage 0, which sits on the source node. The cloud's thread
    /// is not counted.
    pub sites: usize,
    /// True when the run split a window into edge partials + cloud merge.
    pub preaggregated: bool,
    /// Chaos runs: envelopes retransmitted after a NACK or ack timeout.
    pub retransmits: u64,
    /// Chaos runs: envelopes dropped by receivers for CRC mismatch.
    pub corrupt_dropped: u64,
    /// Chaos runs: duplicate envelopes suppressed by receivers.
    pub duplicates_suppressed: u64,
    /// Chaos runs: checkpoints the cloud sealed (complete epochs).
    pub checkpoints_taken: u64,
    /// Chaos runs: heartbeats sent over quiet links.
    pub heartbeats: u64,
    /// Chaos runs: bytes of ack/nack traffic on reverse channels.
    pub ack_bytes: u64,
    /// Chaos runs: faults the plan actually injected (drops +
    /// duplicates + corruptions + reorders across all links).
    pub faults_injected: u64,
    /// Crash recovery time: detection of the dead node to completion
    /// of the state restore (0 when no crash happened).
    pub recovery_ms: f64,
}

/// Everything a placed run reports.
#[derive(Debug)]
pub struct ClusterReport {
    /// End-to-end query metrics (ingest at each stage 0, delivery at the
    /// cloud), comparable with the single-process executors.
    pub metrics: QueryMetrics,
    /// Measured per-link traffic.
    pub cluster: ClusterMetrics,
    /// The placement used per hosted source (post-re-planning).
    pub placements: Vec<Placement>,
    /// Runtime telemetry: the merged per-operator breakdown, the
    /// cloud-side sampled time series, per-node snapshots fanned in
    /// over the wire, and the trace-event log. Empty (no operators, no
    /// samples) when [`TelemetryConfig::enabled`] is off.
    pub telemetry: QueryReport,
}

struct HostedSource {
    node: NodeId,
    source: Box<dyn Source>,
    watermark: WatermarkStrategy,
}

/// The distributed runtime: a topology plus sources hosted on its nodes.
///
/// It takes the local executors' [`EnvConfig`]. Placed runs ignore
/// `parallelism` (each pipeline stage is one thread), and read
/// `channel_capacity` as the capacity, in frames, of each inter-stage
/// channel. `columnar`
/// governs every chain of the plan, each pipeline stage and the cloud
/// tail; data frames are column-major whatever the mode, and a batch
/// encodes to the same bytes from rows or columns, so frame format and
/// byte accounting are identical under every mode.
pub struct ClusterEnvironment {
    topo: Topology,
    registry: FunctionRegistry,
    wire: WireRegistry,
    config: EnvConfig,
    sources: HashMap<String, Vec<HostedSource>>,
    /// Static-analysis capabilities (opaque-type producers), merged
    /// from loaded plugins; live wire-codec tags are added at analysis
    /// time from [`Self::wire`].
    capabilities: CapabilityRegistry,
}

impl ClusterEnvironment {
    /// An environment over `topo` with builtin functions and defaults.
    pub fn new(topo: Topology) -> Self {
        ClusterEnvironment {
            topo,
            registry: FunctionRegistry::with_builtins(),
            wire: WireRegistry::new(),
            config: EnvConfig::default(),
            sources: HashMap::new(),
            capabilities: CapabilityRegistry::new(),
        }
    }

    /// An environment with a custom configuration.
    pub fn with_config(topo: Topology, config: EnvConfig) -> Self {
        ClusterEnvironment {
            config,
            ..ClusterEnvironment::new(topo)
        }
    }

    /// The topology (mutated by failure re-planning).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The function registry.
    pub fn registry(&self) -> &FunctionRegistry {
        &self.registry
    }

    /// The function registry (for registrations).
    pub fn registry_mut(&mut self) -> &mut FunctionRegistry {
        &mut self.registry
    }

    /// The wire codec registry (for opaque plugin payloads).
    pub fn wire_registry_mut(&mut self) -> &mut WireRegistry {
        &mut self.wire
    }

    /// The configuration (for tuning after construction).
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

    /// The sources hosted for `query`'s stream.
    fn hosted(&self, query: &Query) -> Result<&[HostedSource]> {
        let hosted = self.sources.get(query.source());
        hosted
            .map(Vec::as_slice)
            .ok_or_else(|| NebulaError::Plan(format!("unknown source '{}'", query.source())))
    }

    /// Analyzes `query` for placed execution under `strategy` without
    /// running it — the same pre-flight [`Self::run_placed`] performs.
    /// The analyzer sees the hosted sources' watermark strategies, the
    /// loaded plugins' capabilities, and the live wire-codec tags.
    pub fn analyze(&self, query: &Query, strategy: PlacementStrategy) -> Result<AnalysisReport> {
        let hosted = self.hosted(query)?;
        let mut capabilities = self.capabilities.clone();
        for tag in self.wire.tags() {
            capabilities.register_wire_tag(tag);
        }
        let ctx = AnalysisContext {
            target: analysis::Target::Placed {
                edge_first: strategy == PlacementStrategy::EdgeFirst,
                pipelines: hosted.len(),
            },
            watermarks: hosted.iter().map(|h| h.watermark.clone()).collect(),
            capabilities,
            options: self.config.analysis.clone(),
        };
        Ok(analysis::analyze(
            query,
            hosted[0].source.schema(),
            &self.registry,
            &ctx,
        ))
    }

    /// Renders the placed plan of `query` under `strategy`: per pipeline
    /// stage its node, operators, output schema and the columns it reads
    /// of its input, then the cloud's role, operators, schema and reads.
    pub fn explain(&self, query: &Query, strategy: PlacementStrategy) -> Result<String> {
        let hosted = self.hosted(query)?;
        let schema = hosted[0].source.schema();
        let hosts: Vec<NodeId> = hosted.iter().map(|h| h.node).collect();
        let plan = plan_placed(query, &self.topo, &hosts, strategy)?;
        let compiled = compile_chains(&self.registry, query, &schema, &plan)?;
        let line = |ops: &[Box<dyn Operator>], input: &SchemaRef, reads: &ReadSet| {
            let names: Vec<&str> = ops.iter().map(|op| op.name()).collect();
            let out = ops
                .last()
                .map_or_else(|| input.clone(), |op| op.output_schema());
            let reads = reads.names(input);
            (format!("[{}] {out} reads: {reads}", names.join(", ")), out)
        };
        let mut s = String::new();
        let mut cloud_reads = ReadSet::all(compiled.cloud_in.len());
        for (p, (h, chain)) in hosted.iter().zip(compiled.pipe_chains).enumerate() {
            let full: Vec<&dyn Operator> = (chain.iter().chain(&compiled.cloud_ops))
                .map(|op| op.as_ref())
                .collect();
            let mut live = liveness(&full, schema.len());
            if let Some(col) = resolve_ts_col(&h.watermark, &schema)? {
                live[0].insert(col);
            }
            cloud_reads = live[chain.len()].clone();
            let (mut at, mut input) = (0, schema.clone());
            for (i, stage) in cut_stages(chain, &plan.stages(p))?.iter().enumerate() {
                let (text, out) = line(&stage.ops, &input, &live[at]);
                let node = &self.topo.node(stage.node).name;
                writeln!(s, "pipe{p} stage{i} {node} {text}").ok();
                (at, input) = (at + stage.ops.len(), out);
            }
        }
        let role = match &plan.role {
            CloudRole::Merge(sw) => format!("merge op{}", sw.window_idx),
            role => format!("{role:?}").to_lowercase(),
        };
        let (text, _) = line(&compiled.cloud_ops, &compiled.cloud_in, &cloud_reads);
        writeln!(s, "{} role: {role} {text}", self.topo.node(plan.cloud).name).ok();
        Ok(s)
    }

    /// Hosts a source for stream `name` on `node`. A stream may be
    /// hosted on several nodes (one per train): the placed query then
    /// runs one edge pipeline per hosted source, fanning into the cloud.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        node: NodeId,
        source: Box<dyn Source>,
        watermark: WatermarkStrategy,
    ) {
        self.sources
            .entry(name.into())
            .or_default()
            .push(HostedSource {
                node,
                source,
                watermark,
            });
    }

    /// Runs `query` distributed over the topology under `strategy`,
    /// streaming results to `sink` as the cloud site produces them.
    /// Consumes the hosted sources (only on a valid plan; a compile
    /// error leaves them registered). The correctness contract matches
    /// the single-process executors: identical `records_in`/`records_out`
    /// and results — in `run`'s own order with one hosted source,
    /// order-normalized with several.
    pub fn run_placed(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        self.run_inner(query, strategy, None, sink)
    }

    /// Like [`Self::run_placed`], but under a seeded [`FaultPlan`]:
    /// every link deterministically drops, duplicates, reorders,
    /// corrupts and delays frames, and the plan's crash target (if any)
    /// dies abruptly mid-batch. The resilient wire protocol and
    /// checkpointed crash recovery keep the delivered results identical
    /// to an undisturbed run, each row handed to `sink` exactly once (at
    /// the first sealed checkpoint past it); the extra work shows up in
    /// [`ClusterMetrics::retransmits`], [`ClusterMetrics::corrupt_dropped`],
    /// [`ClusterMetrics::duplicates_suppressed`],
    /// [`ClusterMetrics::checkpoints_taken`] and
    /// [`ClusterMetrics::recovery_ms`]. Fault plans are validated up
    /// front: naming the cloud root, a source host, or a node on no
    /// pipeline's frame route (it would never see a frame, so it could
    /// never crash) as the crash target fails fast with
    /// [`ClusterError::IneligibleFault`], leaving the sources hosted.
    pub fn run_placed_chaos(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        plan: &FaultPlan,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        self.run_inner(query, strategy, Some(plan), sink)
    }

    fn run_inner(
        &mut self,
        query: &Query,
        strategy: PlacementStrategy,
        chaos_plan: Option<&FaultPlan>,
        sink: &mut dyn Sink,
    ) -> Result<ClusterReport> {
        let start = Instant::now();
        (self.topo.cloud())
            .ok_or_else(|| NebulaError::Plan("topology has no cloud node".into()))?;
        if query.ops().is_empty() {
            return Err(NebulaError::Plan(
                "query has no operators; add at least a filter/map/window".into(),
            ));
        }
        let hosted_ref = self.hosted(query)?;
        let n_pipes = hosted_ref.len();
        let schema = hosted_ref[0].source.schema();
        for h in &hosted_ref[1..] {
            if !schema.same_layout(&h.source.schema()) {
                return Err(NebulaError::Plan(format!(
                    "hosted sources of '{}' disagree on schema: {} vs {}",
                    query.source(),
                    schema,
                    h.source.schema()
                )));
            }
        }
        // Plan and validate the fault plan before any thread spawns and
        // before the sources are consumed.
        let hosts: Vec<NodeId> = hosted_ref.iter().map(|h| h.node).collect();
        let mut plan = plan_placed(query, &self.topo, &hosts, strategy)?;
        if let Some(faults) = chaos_plan {
            faults.validate(&self.topo, &plan)?;
        }
        // Pre-flight static analysis: errors reject the plan before any
        // thread spawns (the sources stay registered); warnings ride
        // along into the telemetry report.
        let analysis_warnings = self.analyze(query, strategy)?.into_accepted()?;
        // Validate watermark fields before taking the sources, so a plan
        // error leaves them registered.
        let ts_cols = (hosted_ref.iter())
            .map(|h| resolve_ts_col(&h.watermark, &schema))
            .collect::<Result<Vec<_>>>()?;

        // Compile per-pipeline chains and the cloud's, once: crash
        // recovery restores snapshots of these instances.
        let compiled = compile_chains(&self.registry, query, &schema, &plan)?;

        // Instrument every chain. The cloud's operator ids start past
        // the pipeline chain so edge `op0..` and cloud `opN..`
        // positions never collide.
        let tel_on = self.config.telemetry.enabled;
        let cloud_base = compiled.pipe_chains.first().map_or(0, Vec::len);
        let (mut cloud_ops, cloud_tel) = instrument_chain(compiled.cloud_ops, tel_on, cloud_base);
        let mut chains: Vec<ChainTelemetry> = Vec::with_capacity(n_pipes + 1);
        let trace = Arc::new(TraceRing::new(MAX_EVENTS));
        if tel_on {
            trace.push(
                COORDINATOR_ORIGIN,
                TraceKind::QueryDeployed,
                format!("{n_pipes} pipeline(s), {strategy:?} placement"),
            );
        }

        // The plan is valid: consume the sources. Chaos runs wrap each
        // in a replay log so crash recovery can rewind the stream.
        let hosted = self
            .sources
            .remove(query.source())
            .ok_or_else(|| internal("hosted sources vanished mid-plan"))?;

        let mut pipelines = Vec::with_capacity(n_pipes);
        for (p, (h, chain)) in hosted.into_iter().zip(compiled.pipe_chains).enumerate() {
            let (flat, tel) = instrument_chain(chain, tel_on, 0);
            chains.push(tel);
            let source: Box<dyn Source> = if chaos_plan.is_some() {
                Box::new(ReplaySource::new(h.source))
            } else {
                h.source
            };
            pipelines.push(PipelinePlan {
                stages: cut_stages(flat, &plan.stages(p))?,
                source: PipeSource {
                    // The pipeline's index is the punctuation origin
                    // stamped on every buffer it emits.
                    driver: SourceDriver::new(
                        source,
                        h.watermark,
                        ts_cols[p],
                        p as u64,
                        self.config.buffer_size,
                        self.config.watermark_every,
                    ),
                    progress: ProgressTracker::new(),
                    stats: QueryMetrics::default(),
                    eos_sent: false,
                },
            });
        }
        let accounts = Arc::new(TrafficAccounts {
            links: (0..self.topo.links().len())
                .map(|_| LinkAccount::default())
                .collect(),
            uplink: LinkAccount::default(),
        });
        // The cloud's fan-in progress (origin = pipeline index) and its
        // outbox, which also samples the run over every chain registry
        // (pipelines, then the shared cloud tail).
        let mut progress = ProgressTracker::with_origins(n_pipes as u64);
        chains.push(cloud_tel);
        let mut out = Outbox {
            sampler: TelemetrySampler::new(&self.config.telemetry),
            chains,
            trace: tel_on.then(|| Arc::clone(&trace)),
            ..Outbox::new(sink, chaos_plan.is_some())
        };
        let mut cluster = ClusterMetrics {
            preaggregated: matches!(plan.role, CloudRole::Merge(_)),
            ..ClusterMetrics::default()
        };

        // A chaos run's store starts out holding the run's start as
        // epoch 0, so a crash always has a sealed epoch to restore.
        let chaos_run = match chaos_plan {
            Some(plan) => {
                let start = start_epoch(&pipelines, &cloud_ops, &progress)?;
                let store = CheckpointStore::new(start, stage_counts(&pipelines));
                Some(ChaosRun::new(plan, store, &self.topo))
            }
            None => None,
        };

        // Phase 1 runs to completion, or until the plan's crash trips; a
        // crash re-plans and restores, and phase 2 runs to completion.
        let mut resumed: Option<ChaosRun> = None;
        loop {
            let io = PhaseIo {
                topo: &self.topo,
                cfg: &self.config,
                wire: &self.wire,
                accounts: &accounts,
                plan: &plan,
                cloud_in_schema: &compiled.cloud_in,
            };
            let chaos = resumed.as_ref().or(chaos_run.as_ref());
            let phase = run_phase(
                &io,
                &mut pipelines,
                &mut cloud_ops,
                &mut progress,
                &mut out,
                chaos,
            );
            let e = match phase {
                Ok(spawned) => {
                    cluster.sites += spawned;
                    break;
                }
                Err(e) => e,
            };
            // An error with the crash switch tripped IS the injected
            // abrupt node death: detect, re-plan, restore, resume.
            let Some((c, failed)) = chaos.and_then(|c| {
                let switch = c.switch.as_ref().filter(|s| s.tripped())?;
                Some((c, switch.node))
            }) else {
                return Err(e);
            };
            let recovery_t0 = Instant::now();
            if tel_on {
                trace.push(
                    COORDINATOR_ORIGIN,
                    TraceKind::NodeDown,
                    format!("node '{}' crashed", self.topo.node(failed).name),
                );
            }
            let parent = self.topo.parent(failed);
            let (next, migrated) = plan.after_failure(&mut self.topo, failed)?;
            plan = next;
            cluster.replans += 1;
            cluster.migrated_stages += migrated;
            if let (true, Some(parent)) = (tel_on, parent) {
                let to = &self.topo.node(parent).name;
                let detail = format!("{} stage(s) migrated to '{to}'", cluster.migrated_stages);
                trace.push(COORDINATOR_ORIGIN, TraceKind::Replan, detail);
            }
            // Restore the newest sealed epoch (the run's start at
            // the latest): source counters and operator state per
            // live pipeline, cloud tail state, and a source rewind to
            // the checkpointed batch.
            let (_epoch, mut snap) = c
                .store
                .take_for_restore()
                .ok_or_else(|| internal("no sealed epoch to restore"))?;
            let cloud_part = snap
                .cloud
                .take()
                .ok_or_else(|| internal("sealed epoch lacks its cloud part"))?;
            for (p, pipe) in pipelines.iter_mut().enumerate() {
                if cloud_part.progress.is_done(p as u64) {
                    // This pipeline finished before the cut: nothing
                    // to re-run (its totals live on in the store's
                    // finals).
                    pipe.source.eos_sent = true;
                    pipe.stages = Vec::new();
                    continue;
                }
                // Every stage's operators in pipeline order, cut by the
                // re-planned stages; stage 0's part carries the source
                // cut.
                let (mut flat, mut cut) = (Vec::new(), None);
                for part in (0..).map_while(|s| snap.stages.remove(&(p, s))) {
                    flat.extend(part.ops);
                    cut = cut.or(part.source);
                }
                let cut = cut.ok_or_else(|| internal("sealed epoch lacks a stage part"))?;
                pipe.stages = cut_stages(flat, &plan.stages(p))?;
                pipe.source.stats = cut.stats;
                pipe.source.eos_sent = false;
                // Replay re-derives stage 0's punctuation from the
                // cut: a stale tracker would dedup the re-observed
                // sequences, and one still waiting for the cut's
                // batches would park every replayed buffer and hold
                // back every watermark until end-of-stream.
                let origin = pipe.source.driver.origin();
                pipe.source.progress = ProgressTracker::new();
                for sequence in 1..=cut.batches {
                    pipe.source.progress.observe(origin, sequence, None);
                }
                if !pipe.source.driver.restore(cut.batches, cut.max_ts) {
                    return Err(internal("chaos source lost its replay log"));
                }
            }
            // Restored operators are snapshots of the instrumented
            // chain: they keep reporting into the original
            // registries, so per-operator counters survive the crash
            // (including the pre-crash work the replay re-runs — see
            // docs/observability.md). The outbox keeps sampling and
            // retaining snapshots across the crash; the cloud's gauges
            // restart with the phase. The dead phase's held rows are
            // void; the cut owes the sink what it had not committed.
            out.held = cloud_part.uncommitted;
            out.latency = cloud_part.latency;
            cloud_ops = cloud_part.ops;
            progress = cloud_part.progress;
            cluster.recovery_ms = recovery_t0.elapsed().as_secs_f64() * 1e3;

            // Phase 2: chaos continues on the surviving links, but the
            // crash switch is disarmed (the node is dead).
            let next = c.next_phase();
            next.store.set_expected_stages(stage_counts(&pipelines));
            resumed = Some(next);
        }

        out.sink.finish()?;
        let mut metrics = QueryMetrics::default();
        match &chaos_run {
            // Chaos runs: a pipeline finished before a crash no longer
            // owns live operators, so totals come from the finals each
            // pipe deposited at its end-of-stream.
            Some(c) => {
                for p in 0..n_pipes {
                    let fin = c
                        .store
                        .final_for(p)
                        .ok_or_else(|| internal("pipeline finished without final totals"))?;
                    metrics.merge(&fin.stats);
                    metrics.late_drops += fin.late;
                }
            }
            None => {
                for pipe in &pipelines {
                    metrics.merge(&pipe.source.stats);
                    for stage in &pipe.stages {
                        metrics.late_drops += chain_late_drops(&stage.ops);
                    }
                }
            }
        }
        metrics.late_drops += chain_late_drops(&cloud_ops);
        metrics.records_out = out.records_out;
        metrics.bytes_out = out.bytes_out;
        metrics.latency.merge(&out.latency);
        // How far the fastest pipeline's clock ran ahead of the cloud's
        // combined frontier — the fan-in skew the report promises.
        metrics.frontier_lag_max_us = metrics.frontier_lag_max_us.max(progress.frontier_lag_us());
        metrics.wall = start.elapsed();

        cluster.links = accounts
            .links
            .iter()
            .map(|a| LinkMetrics {
                frames: a.frames.load(Ordering::Relaxed),
                records: a.records.load(Ordering::Relaxed),
                bytes: a.bytes.load(Ordering::Relaxed),
                max_queue_depth: a.max_queue.load(Ordering::Relaxed),
                simulated_transfer_ms: a.sim_ns.load(Ordering::Relaxed) as f64 / 1e6,
            })
            .collect();
        cluster.uplink_bytes = accounts.uplink.bytes.load(Ordering::Relaxed);
        cluster.uplink_records = accounts.uplink.records.load(Ordering::Relaxed);
        cluster.uplink_frames = accounts.uplink.frames.load(Ordering::Relaxed);
        if let Some(c) = &chaos_run {
            let o = Ordering::Relaxed;
            cluster.retransmits = c.stats.retransmits.load(o);
            cluster.corrupt_dropped = c.stats.corrupt_dropped.load(o);
            cluster.duplicates_suppressed = c.stats.duplicates_suppressed.load(o);
            cluster.heartbeats = c.stats.heartbeats.load(o);
            cluster.ack_bytes = c.stats.ack_bytes.load(o);
            cluster.faults_injected = c.stats.injected_drops.load(o)
                + c.stats.injected_dups.load(o)
                + c.stats.injected_corruptions.load(o)
                + c.stats.injected_reorders.load(o);
            cluster.checkpoints_taken = c.store.checkpoints_taken();
            // A crashed phase's thread count never returned normally;
            // the shared counter has the true total.
            cluster.sites = c.stats.sites_spawned.load(o) as usize;
        }
        // Fold every registry, series, snapshot and event into the
        // run's telemetry report.
        let mode = if chaos_run.is_some() {
            "run_placed_chaos"
        } else {
            "run_placed"
        };
        let telemetry = build_report(
            mode,
            &metrics,
            &out.chains,
            out.sampler,
            &trace,
            analysis_warnings,
        );
        Ok(ClusterReport {
            metrics,
            cluster,
            placements: plan.placements,
            telemetry,
        })
    }
}

/// The operator instances a placed plan compiles into.
struct CompiledChains {
    pipe_chains: Vec<Vec<Box<dyn Operator>>>,
    cloud_ops: Vec<Box<dyn Operator>>,
    /// The schema of the frames every pipeline delivers to the cloud.
    cloud_in: SchemaRef,
}

/// Compiles `plan`: one chain per pipeline and the cloud's. A split
/// window compiles as its edge partial at the end of each pipeline and
/// as its cloud merge at the head of the cloud's chain.
fn compile_chains(
    registry: &FunctionRegistry,
    query: &Query,
    schema: &SchemaRef,
    plan: &PlacedPlan,
) -> Result<CompiledChains> {
    let (ops, ts) = (query.ops(), query.ts_field());
    let split = match &plan.role {
        CloudRole::Merge(sw) => Some(sw),
        CloudRole::None | CloudRole::Plain => None,
    };
    // The schemas leaving the stateless prefix and every pipeline.
    let (mut prefix_out, mut cloud_in) = (schema.clone(), schema.clone());
    let mut pipe_chains = Vec::with_capacity(plan.placements.len());
    for _ in &plan.placements {
        let chain = compile_ops(&ops[..plan.cloud_ops.start], ts, schema.clone(), registry)?;
        let mut operators = chain.operators;
        prefix_out = chain.output_schema;
        cloud_in = prefix_out.clone();
        if let Some(sw) = split {
            let (keys, aggs, input) = (&sw.keys, sw.aggs.clone(), prefix_out.clone());
            let partial = WindowOp::edge_partial(ts, keys, &sw.spec, aggs, input, registry)?;
            cloud_in = partial.output_schema();
            operators.push(Box::new(partial));
        }
        pipe_chains.push(operators);
    }
    let mut cloud_ops: Vec<Box<dyn Operator>> = Vec::new();
    let mut tail_in = cloud_in.clone();
    if let Some(sw) = split {
        let (keys, aggs, input) = (&sw.keys, sw.aggs.clone(), prefix_out);
        let merge = WindowOp::cloud_merge(ts, keys, &sw.spec, aggs, input, registry)?;
        tail_in = merge.output_schema();
        cloud_ops.push(Box::new(merge));
    }
    let tail = compile_ops(&ops[plan.pipe_ops..], ts, tail_in, registry)?;
    cloud_ops.extend(tail.operators);
    Ok(CompiledChains {
        pipe_chains,
        cloud_ops,
        cloud_in,
    })
}

/// Coordinator-side context for one chaos run: the plan, the shared
/// fault/recovery counters, the checkpoint store, and the crash switch
/// (armed in phase 1, disarmed after recovery).
struct ChaosRun {
    plan: FaultPlan,
    stats: Arc<ChaosStats>,
    store: Arc<CheckpointStore>,
    switch: Option<Arc<CrashSwitch>>,
    /// Set by any thread that errors, so threads blocked on quiet
    /// channels (the cloud between frames, stage 0 between polls) notice
    /// the phase is dying and wind down instead of hanging.
    abort: Arc<AtomicBool>,
    phase: u64,
    doomed_name: String,
}

impl ChaosRun {
    fn new(plan: &FaultPlan, store: CheckpointStore, topo: &Topology) -> ChaosRun {
        let switch = plan.crash.map(|c| Arc::new(CrashSwitch::new(c)));
        let doomed_name = plan
            .crash
            .map(|c| topo.node(c.node).name.clone())
            .unwrap_or_default();
        ChaosRun {
            plan: plan.clone(),
            stats: Arc::new(ChaosStats::default()),
            store: Arc::new(store),
            switch,
            abort: Arc::new(AtomicBool::new(false)),
            phase: 1,
            doomed_name,
        }
    }

    /// The post-recovery continuation: same plan, counters and store,
    /// fresh abort flag, crash switch disarmed (the node already died).
    fn next_phase(&self) -> ChaosRun {
        ChaosRun {
            plan: self.plan.clone(),
            stats: Arc::clone(&self.stats),
            store: Arc::clone(&self.store),
            switch: None,
            abort: Arc::new(AtomicBool::new(false)),
            phase: self.phase + 1,
            doomed_name: String::new(),
        }
    }

    /// A stable per-(phase, pipeline, hop) link id, so each link's fault
    /// stream is independent and each phase faults afresh.
    fn link_id(&self, pipe: usize, level: usize) -> u64 {
        self.phase * 1_000_000 + (pipe as u64) * 1_000 + level as u64
    }
}

/// Snapshots a whole operator chain.
fn snapshot_chain(ops: &[Box<dyn Operator>]) -> Result<Vec<Box<dyn Operator>>> {
    ops.iter().map(|o| o.snapshot()).collect()
}

/// The run's start as checkpoint epoch 0: snapshots of the freshly
/// compiled stage and cloud chains, every source at batch 0 with no
/// event time seen, fresh trackers and no rows owed to the sink.
fn start_epoch(
    pipelines: &[PipelinePlan],
    cloud_ops: &[Box<dyn Operator>],
    progress: &ProgressTracker,
) -> Result<EpochState> {
    let mut epoch = EpochState::default();
    for (p, pipe) in pipelines.iter().enumerate() {
        for (s, stage) in pipe.stages.iter().enumerate() {
            let part = StagePart {
                ops: snapshot_chain(&stage.ops)?,
                source: (s == 0).then(|| pipe.source.cut(0)),
            };
            epoch.stages.insert((p, s), part);
        }
    }
    epoch.cloud = Some(CloudPart {
        ops: snapshot_chain(cloud_ops)?,
        uncommitted: Vec::new(),
        progress: progress.clone(),
        latency: Histogram::new(),
    });
    Ok(epoch)
}

/// Stages per pipeline this phase: how many parts an epoch needs.
fn stage_counts(pipelines: &[PipelinePlan]) -> Vec<usize> {
    pipelines.iter().map(|p| p.stages.len()).collect()
}

/// One stage of a pipeline: the operators placed on one node, driven
/// by one thread.
struct Stage {
    node: NodeId,
    ops: Vec<Box<dyn Operator>>,
}

/// Cuts a pipeline's operator chain into its planned stages, given as
/// (node, operator count).
fn cut_stages(mut flat: Vec<Box<dyn Operator>>, planned: &[(NodeId, usize)]) -> Result<Vec<Stage>> {
    if flat.len() != planned.iter().map(|&(_, n)| n).sum::<usize>() {
        return Err(internal("a chain that does not fit its planned stages"));
    }
    let stages = planned.iter().map(|&(node, n)| {
        let rest = flat.split_off(n);
        let ops = std::mem::replace(&mut flat, rest);
        Stage { node, ops }
    });
    Ok(stages.collect())
}

/// Per-link traffic counters shared across stage threads.
#[derive(Default)]
struct LinkAccount {
    frames: AtomicU64,
    records: AtomicU64,
    bytes: AtomicU64,
    max_queue: AtomicU64,
    sim_ns: AtomicU64,
}

/// All shared traffic counters for one run. Uplink totals are
/// classified at *send time* (was the traversed link pointing into a
/// cloud node when the frame crossed it?) — after a mid-run failure
/// re-attaches an edge's children to the cloud, pre-failure onboard-bus
/// traffic must not be re-labelled as uplink traffic.
#[derive(Default)]
struct TrafficAccounts {
    links: Vec<LinkAccount>,
    uplink: LinkAccount,
}

/// One traversed link in a sender's path, with the parameters frozen
/// at channel-construction time (a re-planning phase rebuilds senders,
/// picking up the post-failure topology).
struct PathLink {
    idx: usize,
    bandwidth_mbps: f64,
    latency_ms: f64,
    /// The link pointed into a cloud node when this sender was built.
    to_cloud: bool,
}

/// The sending half of an inter-stage channel, with link accounting.
/// Frames go out tagged with `slot`, the sender's place at the receiving
/// end: its pipeline at the cloud, 0 on a hop within a pipeline.
struct WireTx {
    tx: Sender<(usize, Vec<u8>)>,
    slot: usize,
    path: Vec<PathLink>,
    accounts: Arc<TrafficAccounts>,
    depth: Arc<AtomicU64>,
}

impl WireTx {
    fn send(&self, bytes: Vec<u8>, records: u64) -> Result<()> {
        let n = bytes.len() as u64;
        for link in &self.path {
            let a = &self.accounts.links[link.idx];
            a.frames.fetch_add(1, Ordering::Relaxed);
            a.records.fetch_add(records, Ordering::Relaxed);
            a.bytes.fetch_add(n, Ordering::Relaxed);
            let ms =
                link.latency_ms + (n as f64 * 8.0) / (link.bandwidth_mbps.max(1e-9) * 1e6) * 1e3;
            a.sim_ns.fetch_add((ms * 1e6) as u64, Ordering::Relaxed);
            if link.to_cloud {
                let u = &self.accounts.uplink;
                u.frames.fetch_add(1, Ordering::Relaxed);
                u.records.fetch_add(records, Ordering::Relaxed);
                u.bytes.fetch_add(n, Ordering::Relaxed);
            }
        }
        let depth = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        for link in &self.path {
            self.accounts.links[link.idx]
                .max_queue
                .fetch_max(depth, Ordering::Relaxed);
        }
        let hung = || hung_up("downstream stage");
        self.tx.send((self.slot, bytes)).map_err(|_| hung())
    }
}

/// A stage's downstream sender: the accounting [`WireTx`] plus, in chaos
/// mode, the resilient-delivery layer wrapped around it (envelopes,
/// acks, retransmission, the chaos injector itself).
struct TxLink {
    wire: WireTx,
    rel: Option<Box<ReliableTx>>,
    /// The columns the stages behind the link read: the only ones it
    /// ships.
    reads: ReadSet,
}

impl TxLink {
    fn send(&mut self, bytes: Vec<u8>, records: u64) -> Result<()> {
        let TxLink { wire, rel, .. } = self;
        match rel {
            Some(r) => r.send(&bytes, records, &mut |b, n| wire.send(b, n)),
            None => wire.send(bytes, records),
        }
    }

    /// Chaos mode: an unsequenced liveness beacon. No-op on plain links
    /// (a plain channel cannot lose frames, so silence is unambiguous).
    fn heartbeat(&mut self) -> Result<()> {
        let TxLink { wire, rel, .. } = self;
        if let Some(r) = rel {
            r.heartbeat(&mut |b, n| wire.send(b, n))?;
        }
        Ok(())
    }

    /// Chaos mode: block until every sent envelope is acknowledged (the
    /// link-level end-of-stream guarantee), then fold this link's
    /// injected-fault counters into the run's stats. No-op on plain
    /// links.
    fn flush(&mut self) -> Result<()> {
        let TxLink { wire, rel, .. } = self;
        if let Some(r) = rel {
            r.flush(&mut |b, n| wire.send(b, n))?;
            r.merge_chaos_counters();
        }
        Ok(())
    }
}

/// A stage's upstream receiver: one channel its senders tag with their
/// slot (every pipeline's last hop at the cloud, else the stage before),
/// read plainly or, in chaos mode, through one resilient layer per
/// sender that reassembles its exactly-once in-order stream from
/// chaos-injected arrivals.
struct RxLink {
    rx: Receiver<(usize, Vec<u8>)>,
    /// Frames in flight, per sender.
    depths: Vec<Arc<AtomicU64>>,
    /// Chaos mode: each sender's resilient receiver, and the phase's
    /// abort flag.
    rel: Option<(Vec<ReliableRx>, Arc<AtomicBool>)>,
    /// The sender whose out-of-order buffer may hold the next payloads.
    due: Option<usize>,
}

impl RxLink {
    /// Builds the receiver for `rx`; in chaos mode every sender gets a
    /// resilient end acknowledging on its `acks` channel (a sender that
    /// spawned nothing this phase, a dead-end one).
    fn new(
        rx: Receiver<(usize, Vec<u8>)>,
        depths: Vec<Arc<AtomicU64>>,
        acks: Vec<Option<Sender<AckMsg>>>,
        chaos: Option<&ChaosRun>,
    ) -> RxLink {
        let rel = chaos.map(|c| {
            let rel = acks.into_iter().map(|ack| {
                let ack = ack.unwrap_or_else(|| bounded::<AckMsg>(1).0);
                ReliableRx::new(ack, Arc::clone(&c.stats))
            });
            (rel.collect(), Arc::clone(&c.abort))
        });
        RxLink {
            rx,
            depths,
            rel,
            due: None,
        }
    }

    /// The next in-order payload and its sender's slot. A plain link
    /// blocks until one comes. A reliable one loops over raw arrivals,
    /// absorbing corruption, duplicates and reordering, and returns
    /// `None` after a few quiet milliseconds unless the phase is
    /// aborting, so a dying phase never hangs a stage on a quiet
    /// channel.
    fn recv(&mut self) -> Result<Option<(usize, Vec<u8>)>> {
        let hung = || hung_up("upstream stage");
        let Some((rel, abort)) = &mut self.rel else {
            let (p, bytes) = self.rx.recv().map_err(|_| hung())?;
            self.depths[p].fetch_sub(1, Ordering::Relaxed);
            return Ok(Some((p, bytes)));
        };
        loop {
            if let Some(p) = self.due {
                match rel[p].next_buffered() {
                    Some(payload) => return Ok(Some((p, payload))),
                    None => self.due = None,
                }
            }
            match self.rx.recv_timeout(Duration::from_millis(2)) {
                Ok((p, raw)) => {
                    self.depths[p].fetch_sub(1, Ordering::Relaxed);
                    if let RxEvent::Payload(payload) = rel[p].on_bytes(&raw) {
                        self.due = Some(p);
                        return Ok(Some((p, payload)));
                    }
                }
                Err(_) if abort.load(Ordering::Relaxed) => return Err(ClusterError::Aborted.into()),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(hung()),
            }
        }
    }

    /// Chaos mode, after end-of-stream: keep absorbing (and re-acking)
    /// stray retransmissions and duplicates until every sender hangs up
    /// or the phase aborts, so no sender's flush emits into a dropped
    /// channel. The reliable layer already delivered every genuine
    /// payload in order, so anything arriving now is bookkeeping. No-op
    /// on plain links (they cannot duplicate).
    fn linger(&mut self) {
        let Some((rel, abort)) = &mut self.rel else {
            return;
        };
        loop {
            match self.rx.recv_timeout(Duration::from_millis(2)) {
                Ok((p, raw)) => {
                    self.depths[p].fetch_sub(1, Ordering::Relaxed);
                    let _ = rel[p].on_bytes(&raw);
                    while rel[p].next_buffered().is_some() {}
                }
                Err(RecvTimeoutError::Timeout) if !abort.load(Ordering::Relaxed) => {}
                Err(_) => return,
            }
        }
    }

    /// Frames in flight toward this stage.
    fn depth(&self) -> u64 {
        self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }
}

/// Passes a thread's result through, first raising the chaos phase's
/// abort flag if it failed, so neighbours blocked on quiet channels
/// wind down instead of hanging.
fn flag_abort<T>(abort: Option<&AtomicBool>, r: Result<T>) -> Result<T> {
    if let (Err(_), Some(a)) = (&r, abort) {
        a.store(true, Ordering::Relaxed);
    }
    r
}

/// The receiving end of the [`ColumnarMode`] gate: a tail takes decoded
/// buffers columnar when its head opts in, exactly as the source gate
/// decides for the chain it feeds, or when there is no tail and the
/// buffer passes straight on (any mode but `Off`). Decided once per
/// phase, like the source's: a re-plan may move stages.
fn tail_wants_columnar(mode: ColumnarMode, ops: &[Box<dyn Operator>]) -> bool {
    chain_wants_columnar(mode, ops) || (ops.is_empty() && mode != ColumnarMode::Off)
}

/// The step one received frame makes; `columnar` is the receiving
/// tail's [`tail_wants_columnar`] gate.
fn frame_step(frame: Frame, columnar: bool) -> Result<Step> {
    Ok(match frame {
        Frame::Data(_) => return Err(internal("a data frame decoded to rows")),
        Frame::Columnar(tb) if columnar => Step::Batch(Some(StreamMessage::Columnar(tb)), None),
        // The sender narrowed the buffer to what this tail reads.
        Frame::Columnar(tb) => {
            let rows = tb.to_rows_unread_as_null();
            Step::Batch(Some(StreamMessage::Data(rows)), None)
        }
        Frame::Watermark(w) => Step::Batch(None, Some(w)),
        Frame::Barrier(epoch) => Step::Barrier(epoch),
        Frame::Telemetry(snap) => Step::Snapshot(snap),
        Frame::Eos => Step::Eos,
    })
}

/// A pipeline's source side, preserved across phases: the input of its
/// stage 0.
struct PipeSource {
    /// Polling, stamping, batch and idle counting.
    driver: SourceDriver,
    /// Stage 0's progress over the source's per-buffer punctuation; its
    /// frontier is what crosses the wire as `Frame::Watermark`.
    progress: ProgressTracker,
    stats: QueryMetrics,
    /// This pipeline's stream already ended (stage 0 sent its Eos);
    /// later phases spawn nothing for it.
    eos_sent: bool,
}

impl PipeSource {
    /// The cut a restore rewinds the source to, after `batches` batches.
    fn cut(&self, batches: u64) -> SourceCut {
        SourceCut {
            batches,
            max_ts: self.driver.max_ts(),
            stats: self.stats.clone(),
        }
    }
}

struct PipelinePlan {
    source: PipeSource,
    stages: Vec<Stage>,
}

/// Chaos-mode context for one stage thread: where its checkpoint parts
/// go (as stage `stage` of pipeline `pipe`; the cloud deposits the
/// cloud part instead), the phase's abort flag, and — when the stage
/// counts frames for the doomed node — the crash switch that kills it.
struct StageChaos {
    store: Arc<CheckpointStore>,
    pipe: usize,
    stage: usize,
    abort: Arc<AtomicBool>,
    doom: Option<Arc<CrashSwitch>>,
    doom_name: String,
}

impl StageChaos {
    /// Counts one frame for the doomed node. Once the switch trips the
    /// node dies abruptly: all operator state and every channel drop
    /// mid-batch, with no Eos.
    fn check_doom(&self) -> Result<()> {
        match &self.doom {
            Some(doom) if doom.observe() => Err(ClusterError::NodeDown {
                node: self.doom_name.clone(),
            }
            .into()),
            _ => Ok(()),
        }
    }
}

/// Telemetry context for one pipeline stage thread: ship a
/// [`NodeSnapshot`] downstream at most once per `every`. The cloud has
/// none; its outbox samples the run instead.
struct StageTel {
    node: String,
    origin: u64,
    every: Duration,
}

/// Where a stage's input comes from.
enum StageInput<'a> {
    /// Stage 0: the pipeline's source. `polled` is the sequence of the
    /// batch last handed out, until the next step.
    Source {
        src: &'a mut PipeSource,
        polled: Option<u64>,
    },
    /// Every later pipeline stage: the upstream link, decoding frames of
    /// `schema`; `columnar` is the [`tail_wants_columnar`] gate.
    Link {
        rx: RxLink,
        schema: SchemaRef,
        columnar: bool,
    },
    /// The cloud: every pipeline's uplink, merged.
    FanIn(FanIn<'a>),
}

/// One step of a stage's input.
enum Step {
    /// A source batch with the watermark it punctuated, or one received
    /// data or watermark frame.
    Batch(Option<StreamMessage>, Option<EventTime>),
    /// A checkpoint barrier: snapshot the stage, then pass it on.
    Barrier(u64),
    /// An upstream node snapshot.
    Snapshot(NodeSnapshot),
    Eos,
}

impl StageInput<'_> {
    /// Stage 0's source side.
    fn source(&self) -> Option<&PipeSource> {
        match self {
            StageInput::Source { src, .. } => Some(src),
            StageInput::Link { .. } | StageInput::FanIn(_) => None,
        }
    }

    /// The cloud's fan-in: the input of the stage that ends at the
    /// outbox.
    fn fan_in(&self) -> Result<&FanIn<'_>> {
        match self {
            StageInput::FanIn(fan) => Ok(fan),
            _ => Err(internal("an outbox without a fan-in")),
        }
    }

    /// The next step. Only the source makes watermarks (the tracker's
    /// frontier, on punctuated sequences) and barriers (every
    /// [`CHECKPOINT_EVERY`] sequences), and only it sends heartbeats
    /// while idle; the fan-in merges what the pipelines made. A stage on
    /// the doomed node counts every frame it receives, before handling
    /// it; a source counts once per batch, after the stage has handled
    /// the batch and before its barrier.
    fn next(
        &mut self,
        chaos: Option<&StageChaos>,
        wire: &WireRegistry,
        output: &mut StageOutput<'_, '_>,
    ) -> Result<Step> {
        let (src, polled) = match self {
            StageInput::FanIn(fan) => return fan.next(wire),
            StageInput::Link {
                rx,
                schema,
                columnar,
            } => loop {
                if let Some((_, bytes)) = rx.recv()? {
                    chaos.map_or(Ok(()), StageChaos::check_doom)?;
                    return frame_step(decode_frame(&bytes, schema, wire)?, *columnar);
                }
            },
            StageInput::Source { src, polled } => (src, polled),
        };
        if let (Some(sequence), Some(c)) = (polled.take(), chaos) {
            c.check_doom()?;
            if sequence.is_multiple_of(CHECKPOINT_EVERY) {
                // Everything up to `sequence` is ahead of the barrier on
                // every downstream link.
                return Ok(Step::Barrier(sequence / CHECKPOINT_EVERY));
            }
        }
        loop {
            if chaos.is_some_and(|c| c.abort.load(Ordering::Relaxed)) {
                return Err(ClusterError::Aborted.into());
            }
            match src.driver.poll()? {
                Polled::Batch(Stamped {
                    msg,
                    sequence,
                    punctuation,
                }) => {
                    src.stats.batches += 1;
                    src.stats.records_in += msg.record_count() as u64;
                    src.stats.bytes_in += msg.data_bytes() as u64;
                    // The per-buffer punctuation stamp is the source of
                    // truth; the wire watermark is the tracker's frontier
                    // over it. Every sequence feeds the tracker —
                    // unpunctuated buffers close gaps — but only
                    // punctuated ones emit.
                    src.progress
                        .observe(src.driver.origin(), sequence, punctuation);
                    let watermark = punctuation.and(src.progress.frontier());
                    src.stats.watermarks += u64::from(watermark.is_some());
                    *polled = Some(sequence);
                    return Ok(Step::Batch(Some(msg), watermark));
                }
                Polled::Idle(idle) => {
                    if let (0, StageOutput::Link(tx)) = (idle % 1024, &mut *output) {
                        // Keep a quiet link observably alive.
                        tx.heartbeat()?;
                    }
                    std::thread::yield_now();
                }
                Polled::End => return Ok(Step::Eos),
            }
        }
    }
}

/// The cloud's input: every pipeline's uplink, merged. Barrier
/// alignment is Chandy–Lamport style: once a barrier arrives from one
/// pipeline, that pipeline's further frames are held back until every
/// live pipeline has presented the same barrier, and the epoch seals at
/// the aligned cut. Only chaos runs send barriers, so in a fault-free
/// run alignment never engages and every frame applies as it arrives.
struct FanIn<'a> {
    rx: RxLink,
    /// Decodes frames of `schema`; `columnar` is the tail's
    /// [`tail_wants_columnar`] gate.
    schema: SchemaRef,
    columnar: bool,
    /// Per-pipeline progress (origin = pipeline index), kept across
    /// phases: each input's frontier, which inputs have ended, and the
    /// min-combined frontier the tail sees. Centralizing the
    /// min/monotone rules in the tracker means an input that finishes
    /// mid-epoch can only *raise* the combined clock, never regress it.
    progress: &'a mut ProgressTracker,
    /// The epoch currently aligning, if any.
    aligning: Option<u64>,
    /// Pipelines that have presented the aligning barrier.
    seen: Vec<bool>,
    /// Frames held back per pipeline during alignment.
    held: Vec<VecDeque<Vec<u8>>>,
}

impl FanIn<'_> {
    /// Whether pipeline `p`'s frames wait for the aligning epoch.
    fn blocked(&self, p: usize) -> bool {
        self.aligning.is_some() && self.seen[p]
    }

    /// The next step: the aligning epoch's barrier once every live
    /// pipeline has presented it (done ones are exempt — their streams
    /// ended), then the frames held back behind it, then new arrivals.
    /// A watermark comes only when the min-combined frontier strictly
    /// advances, and end-of-stream once every pipeline has ended.
    fn next(&mut self, wire: &WireRegistry) -> Result<Step> {
        let n = self.seen.len();
        loop {
            if let Some(epoch) = self.aligning {
                if (0..n).all(|p| self.seen[p] || self.progress.is_done(p as u64)) {
                    self.aligning = None;
                    self.seen.fill(false);
                    return Ok(Step::Barrier(epoch));
                }
            }
            let replay = (0..n).find(|&p| !self.blocked(p) && !self.held[p].is_empty());
            let (p, bytes) = match replay.and_then(|p| Some((p, self.held[p].pop_front()?))) {
                Some(frame) => frame,
                None => match self.rx.recv()? {
                    Some((p, bytes)) if self.blocked(p) => {
                        self.held[p].push_back(bytes);
                        continue;
                    }
                    Some(frame) => frame,
                    None => {
                        // Silent-death backstop: in-process links
                        // normally fail by disconnecting, but a peer
                        // wedged with its channel open (e.g. a link
                        // flapped down indefinitely) only shows up as
                        // 10 s without even a heartbeat.
                        let rel = self.rx.rel.iter().flat_map(|(rel, _)| rel.iter());
                        for (p, r) in rel.enumerate() {
                            if !self.progress.is_done(p as u64) {
                                let patience = Duration::from_secs(10);
                                r.check_liveness(&format!("pipe{p}/uplink"), patience)?;
                            }
                        }
                        continue;
                    }
                },
            };
            let origin = p as u64;
            let advanced =
                match frame_step(decode_frame(&bytes, &self.schema, wire)?, self.columnar)? {
                    Step::Batch(None, Some(w)) => self.progress.advance_origin(origin, w),
                    Step::Barrier(epoch) => {
                        self.aligning.get_or_insert(epoch);
                        self.seen[p] = true;
                        None
                    }
                    // Removing a finished input can only raise the minimum.
                    Step::Eos => {
                        let advanced = self.progress.finish(origin);
                        if self.progress.all_done() {
                            return Ok(Step::Eos);
                        }
                        advanced
                    }
                    step => return Ok(step),
                };
            if let Some(frontier) = advanced {
                return Ok(Step::Batch(None, Some(frontier)));
            }
        }
    }

    /// The cloud's gauges, given its records in and out.
    fn gauges(&self, records_in: u64, records_out: u64) -> Gauges {
        Gauges {
            records_in,
            records_out,
            queue_depth: self.rx.depth(),
            frontier: self.progress.frontier(),
            frontier_lag_us: self.progress.frontier_lag_us(),
            stalls: 0,
        }
    }
}

/// Where a stage's output goes.
enum StageOutput<'a, 's> {
    /// A pipeline stage: the link to the next hop, carrying frames.
    Link(TxLink),
    /// The cloud, the last stage of every pipeline: the run's outbox.
    Outbox(&'a mut Outbox<'s>),
}

impl StageOutput<'_, '_> {
    /// Hands on one step's terminal messages: encoded as frames of
    /// `schema` down a link, skipping empty batches, or emitted into the
    /// outbox. A link ships only the columns the stages behind it read;
    /// rows are transposed to those columns and buffers narrowed to
    /// them, so both encode to the same bytes and byte accounting does
    /// not depend on the layout.
    fn forward(
        &mut self,
        msgs: Vec<StreamMessage>,
        schema: &SchemaRef,
        wire: &WireRegistry,
    ) -> Result<()> {
        let tx = match self {
            StageOutput::Outbox(out) => return out.emit(msgs).map(drop),
            StageOutput::Link(tx) => tx,
        };
        for msg in msgs {
            let records = msg.record_count() as u64;
            // Rows are transposed borrowed and dropped after the send,
            // off the path to the next stage.
            let mut rows = None;
            let frame = match msg {
                StreamMessage::Data(b) if records > 0 => {
                    check_widths(b.records(), schema)?;
                    let tb = TupleBuffer::transpose(schema.clone(), b.records(), &tx.reads);
                    rows = Some(b);
                    Frame::Columnar(tb)
                }
                StreamMessage::Columnar(mut b) if records > 0 => {
                    b.narrow(&tx.reads);
                    Frame::Columnar(b)
                }
                StreamMessage::Data(_) | StreamMessage::Columnar(_) => continue,
                StreamMessage::Watermark(w) => Frame::Watermark(w),
                StreamMessage::Eos => Frame::Eos,
            };
            tx.send(encode_frame(&frame, schema, wire)?, records)?;
            drop(rows);
        }
        Ok(())
    }

    /// Hands on a node snapshot: down a link on the same route (and, in
    /// chaos mode, the same resilient link) as the data it describes —
    /// its layout is schema-independent — or retained by the outbox.
    fn snapshot(
        &mut self,
        snap: NodeSnapshot,
        schema: &SchemaRef,
        wire: &WireRegistry,
    ) -> Result<()> {
        match self {
            StageOutput::Link(tx) => {
                tx.send(encode_frame(&Frame::Telemetry(snap), schema, wire)?, 0)
            }
            StageOutput::Outbox(out) => {
                out.sampler.keep_snapshot(snap);
                Ok(())
            }
        }
    }
}

/// The one loop of every stage, the cloud included: take input steps,
/// drive the operators, and hand their output on. A pipeline stage
/// forwards frames of `out_schema` downstream, with its node snapshots
/// and checkpoint barriers; the cloud emits into the outbox, seals
/// checkpoint epochs, keeps the snapshots that reach it, and samples
/// the run after every step. On end-of-stream, flush and return the
/// operators.
///
/// Thread entry point: every argument is moved out of the spawning
/// closure and owned until the stage shuts down.
#[allow(clippy::needless_pass_by_value)]
fn run_stage(
    mut ops: Vec<Box<dyn Operator>>,
    mut input: StageInput<'_>,
    mut output: StageOutput<'_, '_>,
    out_schema: SchemaRef,
    wire: WireRegistry,
    chaos: Option<StageChaos>,
    tel: Option<StageTel>,
) -> Result<Vec<Box<dyn Operator>>> {
    let started = Instant::now();
    let mut last_snap = Instant::now();
    let (mut records_in, mut records_out, mut snap_seq) = (0u64, 0u64, 0u64);
    loop {
        match input.next(chaos.as_ref(), &wire, &mut output)? {
            Step::Batch(data, watermark) => {
                let had_data = data.is_some();
                for msg in data
                    .into_iter()
                    .chain(watermark.map(StreamMessage::Watermark))
                {
                    records_in += msg.record_count() as u64;
                    let timed = (!matches!(msg, StreamMessage::Watermark(_))).then(Instant::now);
                    let msgs = drive(&mut ops, msg)?;
                    // `metrics.latency`: the cloud's per-buffer service time.
                    if let (Some(t0), StageOutput::Outbox(out)) = (timed, &mut output) {
                        out.latency.record(t0.elapsed().as_secs_f64() * 1e6);
                    }
                    records_out += records_of(&msgs);
                    output.forward(msgs, &out_schema, &wire)?;
                }
                let due = |t: &&StageTel| had_data && last_snap.elapsed() >= t.every;
                if let Some(t) = tel.as_ref().filter(due) {
                    // Stage 0 reports its outbound queue and its tracker;
                    // a later stage its inbound queue and no frontier
                    // (the cloud reads lag off stage 0's).
                    let src = input.source();
                    snap_seq += 1;
                    let snap = NodeSnapshot {
                        origin: t.origin,
                        node: t.node.clone(),
                        seq: snap_seq,
                        at_us: started.elapsed().as_micros() as u64,
                        records_in,
                        records_out,
                        queue_depth: match (&input, &output) {
                            (StageInput::Link { rx, .. }, _) => rx.depth(),
                            (_, StageOutput::Link(tx)) => tx.wire.depth.load(Ordering::Relaxed),
                            _ => 0,
                        },
                        frontier: src.and_then(|s| s.progress.frontier()),
                        frontier_lag_us: src.map_or(0, |s| s.progress.frontier_lag_us()),
                    };
                    output.snapshot(snap, &out_schema, &wire)?;
                    last_snap = Instant::now();
                }
            }
            Step::Barrier(epoch) => {
                let Some(c) = &chaos else {
                    return Err(internal("checkpoint barrier outside a chaos run"));
                };
                // Snapshot at the cut; the barrier is a pipeline-level
                // marker, never driven through operators.
                let ops_at_cut = snapshot_chain(&ops)?;
                match &mut output {
                    StageOutput::Outbox(out) => {
                        let progress = input.fan_in()?.progress.clone();
                        out.seal(epoch, ops_at_cut, progress, &c.store)?;
                    }
                    StageOutput::Link(tx) => {
                        let part = StagePart {
                            ops: ops_at_cut,
                            source: input.source().map(|s| s.cut(epoch * CHECKPOINT_EVERY)),
                        };
                        c.store.put(epoch, c.pipe, c.stage, part);
                        tx.send(encode_frame(&Frame::Barrier(epoch), &out_schema, &wire)?, 0)?;
                    }
                }
            }
            Step::Snapshot(snap) => output.snapshot(snap, &out_schema, &wire)?,
            Step::Eos => {
                let msgs = drive(&mut ops, StreamMessage::Eos)?;
                records_out += records_of(&msgs);
                output.forward(msgs, &out_schema, &wire)?;
                match &mut output {
                    // The run is over: no recovery can replay what is
                    // still held. One forced sample records the end of
                    // even a sub-interval run.
                    StageOutput::Outbox(out) => {
                        out.commit()?;
                        out.sample(&input.fan_in()?.gauges(records_in, records_out), true);
                    }
                    StageOutput::Link(tx) => {
                        tx.flush()?;
                        if let Some(c) = &chaos {
                            let stats = input.source().map(|s| s.stats.clone());
                            c.store.add_final(c.pipe, stats, chain_late_drops(&ops));
                        }
                    }
                }
                // The source is spent; a link lingers.
                match &mut input {
                    StageInput::Source { src, .. } => src.eos_sent = true,
                    StageInput::Link { rx, .. } | StageInput::FanIn(FanIn { rx, .. }) => {
                        rx.linger()
                    }
                }
                return Ok(ops);
            }
        }
        if let StageOutput::Outbox(out) = &mut output {
            out.sample(&input.fan_in()?.gauges(records_in, records_out), false);
        }
    }
}

/// Sums the records carried by a batch of terminal messages.
fn records_of(msgs: &[StreamMessage]) -> u64 {
    msgs.iter().map(|m| m.record_count() as u64).sum()
}

/// Where results leave the engine, under the one delivery rule of every
/// cluster entry point: **a row goes to the sink as soon as no recovery
/// can replay it.** Non-empty terminal messages enter `held` in emission
/// order and layout; [`Outbox::commit`] hands them over. Only a chaos
/// run replays, so it commits when the cloud seals an epoch and at
/// the end of the run; every other run commits on emission. Owned by
/// the coordinator, so its counts survive a crashed cloud thread — as
/// do the cloud's latency histogram and the run's telemetry series,
/// which the cloud stage records here too.
struct Outbox<'a> {
    sink: &'a mut dyn Sink,
    /// Chaos runs: a crash may replay emitted rows until a commit.
    hold: bool,
    /// Emitted, not yet committed.
    held: Vec<StreamMessage>,
    records_out: u64,
    bytes_out: u64,
    /// The cloud's per-buffer service time: the run's `metrics.latency`.
    latency: Histogram,
    /// The run's sampled series and the node snapshots shipped to the
    /// cloud, over every chain registry in `chains`.
    sampler: TelemetrySampler,
    chains: Vec<ChainTelemetry>,
    /// The run's trace ring, when telemetry is on.
    trace: Option<Arc<TraceRing>>,
}

impl<'a> Outbox<'a> {
    fn new(sink: &'a mut dyn Sink, hold: bool) -> Self {
        Outbox {
            sink,
            hold,
            held: Vec::new(),
            records_out: 0,
            bytes_out: 0,
            latency: Histogram::new(),
            sampler: TelemetrySampler::new(&TelemetryConfig::default()),
            chains: Vec::new(),
            trace: None,
        }
    }

    /// Takes one chain step's output; returns the records it carried.
    fn emit(&mut self, msgs: Vec<StreamMessage>) -> Result<u64> {
        let emitted = records_of(&msgs);
        self.held
            .extend(msgs.into_iter().filter(|m| m.record_count() > 0));
        if !self.hold {
            self.commit()?;
        }
        Ok(emitted)
    }

    /// Hands every held row to the sink: nothing can replay them now.
    fn commit(&mut self) -> Result<()> {
        for msg in self.held.drain(..) {
            self.records_out += msg.record_count() as u64;
            self.bytes_out += msg.data_bytes() as u64;
            deliver(self.sink, &msg)?;
        }
        Ok(())
    }

    /// Deposits the cloud's part of `epoch` — the tail at the cut, the
    /// fan-in's `progress`, and what the outbox still owes the sink —
    /// and commits if that completed the epoch: restore never goes back
    /// past this cut.
    fn seal(
        &mut self,
        epoch: u64,
        ops: Vec<Box<dyn Operator>>,
        progress: ProgressTracker,
        store: &CheckpointStore,
    ) -> Result<()> {
        let part = CloudPart {
            ops,
            uncommitted: self.held.clone(),
            progress,
            latency: self.latency.clone(),
        };
        if store.put_cloud(epoch, part) {
            self.commit()?;
        }
        if let Some(trace) = &self.trace {
            let detail = format!("epoch {epoch}");
            trace.push(COORDINATOR_ORIGIN, TraceKind::CheckpointSealed, detail);
        }
        Ok(())
    }

    /// Samples the cloud's `gauges`: interval-gated, or `force`d at the
    /// end of the run.
    fn sample(&mut self, gauges: &Gauges, force: bool) {
        let trace = self.trace.as_deref().map(|t| (t, COORDINATOR_ORIGIN));
        if force {
            self.sampler.force_sample(gauges, &self.chains, trace);
        } else {
            self.sampler.maybe_sample(gauges, &self.chains, trace);
        }
    }
}

/// Shared phase context.
struct PhaseIo<'a> {
    topo: &'a Topology,
    cfg: &'a EnvConfig,
    wire: &'a WireRegistry,
    accounts: &'a Arc<TrafficAccounts>,
    plan: &'a PlacedPlan,
    /// The schema of the frames every pipeline delivers to the cloud.
    cloud_in_schema: &'a SchemaRef,
}

impl PhaseIo<'_> {
    /// Builds an accounting sender for a hop `from → to`, sending as
    /// `slot` on `tx`.
    fn wire_tx(
        &self,
        from: NodeId,
        to: NodeId,
        (tx, slot): (Sender<(usize, Vec<u8>)>, usize),
        depth: Arc<AtomicU64>,
    ) -> Result<WireTx> {
        let path = self
            .topo
            .path_up(from, to)?
            .into_iter()
            .map(|idx| {
                let l = &self.topo.links()[idx];
                PathLink {
                    idx,
                    bandwidth_mbps: l.bandwidth_mbps,
                    latency_ms: l.latency_ms,
                    to_cloud: self.topo.node(l.to).kind == NodeKind::Cloud,
                }
            })
            .collect();
        Ok(WireTx {
            tx,
            slot,
            path,
            accounts: Arc::clone(self.accounts),
            depth,
        })
    }
}

/// A joined stage thread's result. [`run_phase`] catches a panic inside
/// the thread; one that escapes anyway folds into the same error.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    handle
        .join()
        .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())))
}

/// Spawns every pipeline's stages and the cloud — the last stage of
/// every pipeline, fanning them in — and joins everything, restoring
/// operator state into `pipelines` and `cloud_ops`. Returns how many
/// threads past stage 0 the pipelines spawned (the cloud's is not
/// counted). Pipelines whose stream already ended (`eos_sent`) spawn
/// nothing. In chaos mode every hop gets a fault injector, a resilient
/// link, and a reverse ack channel, which the cloud's end joins with
/// the checkpoint store.
fn run_phase(
    io: &PhaseIo<'_>,
    pipelines: &mut [PipelinePlan],
    cloud_ops: &mut Vec<Box<dyn Operator>>,
    progress: &mut ProgressTracker,
    out: &mut Outbox<'_>,
    chaos: Option<&ChaosRun>,
) -> Result<usize> {
    let cap = io.cfg.channel_capacity.max(1);
    let n_pipes = pipelines.len();
    let mut sites_spawned = 0usize;

    // Stage nodes (none for a pipeline that already ended), to rebuild
    // `pipe.stages` after the scope ends (the scoped `&mut` borrows
    // release only at the scope boundary).
    let stage_nodes: Vec<Vec<NodeId>> = pipelines
        .iter()
        .map(|p| p.stages.iter().map(|s| s.node).collect())
        .collect();
    let tail = std::mem::take(cloud_ops);

    type Chain = Vec<Box<dyn Operator>>;
    let scoped: Result<(Chain, Vec<Vec<Chain>>)> = std::thread::scope(|scope| {
        // Every stage thread, the cloud included, starts here: a panic
        // becomes the typed error the local executor raises for one,
        // and any failure raises the chaos phase's abort flag.
        let abort = chaos.map(|c| Arc::clone(&c.abort));
        let spawn = |ops, input, output, out_schema, stage_chaos, tel| {
            let (abort, wire) = (abort.clone(), io.wire.clone());
            scope.spawn(move || {
                let stage = || run_stage(ops, input, output, out_schema, wire, stage_chaos, tel);
                let r = catch_unwind(AssertUnwindSafe(stage))
                    .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
                flag_abort(abort.as_deref(), r)
            })
        };
        let (inbox_tx, inbox_rx) = bounded::<(usize, Vec<u8>)>(cap * n_pipes);
        let mut inbox_depths = Vec::with_capacity(n_pipes);
        // Every pipeline stage thread, as (pipe, stage, handle).
        let mut handles = Vec::new();
        // Per-pipeline reverse ack channel for the hop into the cloud
        // (chaos mode only).
        let mut cloud_acks: Vec<Option<Sender<AckMsg>>> = Vec::with_capacity(n_pipes);

        for (p, pipe) in pipelines.iter_mut().enumerate() {
            let inbox_depth = Arc::new(AtomicU64::new(0));
            inbox_depths.push(Arc::clone(&inbox_depth));
            if pipe.source.eos_sent {
                cloud_acks.push(None);
                continue;
            }
            let stages = std::mem::take(&mut pipe.stages);
            let nodes = &stage_nodes[p];
            // What the source builds and each hop ships: the liveness of
            // the pipeline's whole chain, its stages and then the cloud
            // tail. Entry `i` is what is read past the chain's `i`-th
            // operator.
            let live = {
                let chain: Vec<&dyn Operator> = (stages.iter().flat_map(|s| &s.ops))
                    .chain(&tail)
                    .map(|op| op.as_ref())
                    .collect();
                liveness(&chain, pipe.source.driver.schema().len())
            };
            let mut ops_before = 0;
            // When no stage sits on the doomed node, stage 0 of a pipeline
            // routed through it counts its source batches instead.
            let pass_through = match chaos.and_then(|c| c.switch.as_ref()) {
                Some(sw) => io.plan.passes_through(io.topo, p, sw.node)?,
                None => false,
            };

            // Spawn the stages front to back with forward-threaded
            // schemas. Each builds its outbound hop and leaves the
            // receiving end to the next stage, or past the last one to the
            // cloud's inbox; in chaos mode every hop also gets a reverse
            // ack channel.
            let mut schema = pipe.source.driver.schema().clone();
            let mut src = Some(&mut pipe.source);
            let mut inbound = None;
            let mut cloud_ack = None;
            for (s, Stage { node, ops }) in stages.into_iter().enumerate() {
                let out_schema = ops
                    .last()
                    .map_or_else(|| schema.clone(), |o| o.output_schema());
                let in_schema = std::mem::replace(&mut schema, out_schema.clone());
                // The columnar gate, decided per phase (a re-plan may move
                // stages): the source polls columns only for an operator
                // that consumes the buffer — with none, rows go straight
                // to `forward`, which transposes them to the link's
                // columns — while a link also passes buffers straight on.
                ops_before += ops.len();
                let input = match (inbound.take(), src.take()) {
                    (None, Some(src)) => {
                        src.driver.gate(io.cfg.columnar, &ops, live[0].clone());
                        StageInput::Source { src, polled: None }
                    }
                    (Some((rx, depth, ack_tx)), None) => StageInput::Link {
                        rx: RxLink::new(rx, vec![depth], vec![ack_tx], chaos),
                        schema: in_schema,
                        columnar: tail_wants_columnar(io.cfg.columnar, &ops),
                    },
                    _ => return Err(internal("a stage without an input")),
                };
                let (ack_tx, ack_rx) = chaos.map(|_| bounded::<AckMsg>(cap * 64)).unzip();
                let (to, target, depth) = match nodes.get(s + 1) {
                    Some(&next) => {
                        let (tx, rx) = bounded::<(usize, Vec<u8>)>(cap);
                        let depth = Arc::new(AtomicU64::new(0));
                        inbound = Some((rx, Arc::clone(&depth), ack_tx));
                        (next, (tx, 0), depth)
                    }
                    None => {
                        cloud_ack = ack_tx;
                        let inbox = (inbox_tx.clone(), p);
                        (io.plan.cloud, inbox, Arc::clone(&inbox_depth))
                    }
                };
                let rel = match (chaos, ack_rx) {
                    (Some(c), Some(ack_rx)) => Some(Box::new(ReliableTx::new(
                        format!("pipe{p}/hop{s}"),
                        ack_rx,
                        LinkChaos::new(&c.plan, c.link_id(p, s)),
                        Arc::clone(&c.stats),
                    ))),
                    _ => None,
                };
                let tx = TxLink {
                    wire: io.wire_tx(node, to, target, depth)?,
                    rel,
                    reads: live[ops_before].clone(),
                };
                let stage_chaos = chaos.map(|c| StageChaos {
                    store: Arc::clone(&c.store),
                    pipe: p,
                    stage: s,
                    abort: Arc::clone(&c.abort),
                    doom: (c.switch.as_ref())
                        .filter(|sw| sw.node == node || (s == 0 && pass_through))
                        .map(Arc::clone),
                    doom_name: c.doomed_name.clone(),
                });
                let stage_tel = io.cfg.telemetry.enabled.then(|| StageTel {
                    node: io.topo.node(node).name.clone(),
                    origin: p as u64,
                    every: io.cfg.telemetry.sample_every,
                });
                let output = StageOutput::Link(tx);
                let handle = spawn(ops, input, output, out_schema, stage_chaos, stage_tel);
                handles.push((p, s, handle));
                if s > 0 {
                    sites_spawned += 1;
                    if let Some(c) = chaos {
                        c.stats.sites_spawned.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Chaos mode: the last hop's ack sender belongs to the cloud's
            // end of this pipeline's uplink.
            cloud_acks.push(cloud_ack);
        }

        let fan = FanIn {
            rx: RxLink::new(inbox_rx, inbox_depths, cloud_acks, chaos),
            schema: io.cloud_in_schema.clone(),
            columnar: tail_wants_columnar(io.cfg.columnar, &tail),
            progress,
            aligning: None,
            seen: vec![false; n_pipes],
            held: (0..n_pipes).map(|_| VecDeque::new()).collect(),
        };
        let cloud_chaos = chaos.map(|c| StageChaos {
            store: Arc::clone(&c.store),
            pipe: 0,
            stage: 0,
            abort: Arc::clone(&c.abort),
            doom: None,
            doom_name: String::new(),
        });
        let out_schema =
            (tail.last()).map_or_else(|| io.cloud_in_schema.clone(), |o| o.output_schema());
        let output = StageOutput::Outbox(out);
        let cloud = spawn(
            tail,
            StageInput::FanIn(fan),
            output,
            out_schema,
            cloud_chaos,
            None,
        );
        drop(inbox_tx);

        // Join everything, keeping the first root cause in later stages
        // → cloud → stage 0 order: when one thread fails (the sink at
        // the cloud, an operator anywhere) its neighbours fail with a
        // knock-on error, which only stands in until the cause is joined.
        let mut err: Option<NebulaError> = None;
        let mut note = |e: NebulaError| {
            if err
                .as_ref()
                .is_none_or(|held| is_knock_on(held) && !is_knock_on(&e))
            {
                err = Some(e);
            }
        };
        let mut all_ops: Vec<Vec<Chain>> = (stage_nodes.iter())
            .map(|nodes| nodes.iter().map(|_| Vec::new()).collect())
            .collect();
        let (heads, later): (Vec<_>, Vec<_>) = handles.into_iter().partition(|(_, s, _)| *s == 0);
        for (p, s, handle) in later {
            all_ops[p][s] = joined(handle).unwrap_or_else(|e| {
                note(e);
                Vec::new()
            });
        }
        let tail = joined(cloud).map_err(&mut note).ok();
        for (p, s, handle) in heads {
            all_ops[p][s] = joined(handle).unwrap_or_else(|e| {
                note(e);
                Vec::new()
            });
        }
        if let Some(e) = err {
            return Err(e);
        }
        let tail = tail.ok_or_else(|| internal("cloud thread vanished without an error"))?;
        Ok((tail, all_ops))
    });

    let (tail, all_ops) = scoped?;
    *cloud_ops = tail;
    for (pipe, (nodes, ops)) in pipelines
        .iter_mut()
        .zip(stage_nodes.into_iter().zip(all_ops))
    {
        pipe.stages = (nodes.into_iter().zip(ops))
            .map(|(node, ops)| Stage { node, ops })
            .collect();
    }
    Ok(sites_spawned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::TupleBuffer;
    use crate::ops::OperatorFactory;
    use crate::record::{Record, RecordBuffer};
    use crate::schema::Schema;
    use crate::source::VecSource;
    use crate::value::{DataType, Value};

    fn schema() -> SchemaRef {
        Schema::of(&[("v", DataType::Int)])
    }

    fn rows(vals: std::ops::Range<i64>) -> RecordBuffer {
        RecordBuffer::new(
            schema(),
            vals.map(|v| Record::new(vec![Value::Int(v)])).collect(),
        )
    }

    fn columnar(vals: std::ops::Range<i64>) -> TupleBuffer {
        TupleBuffer::from_record_buffer(&rows(vals), None, 0, 0)
    }

    /// Logs every delivery as (layout, rows).
    #[derive(Default)]
    struct LayoutSink {
        calls: Vec<(&'static str, usize)>,
        bytes: usize,
    }

    impl Sink for LayoutSink {
        fn consume(&mut self, buf: &RecordBuffer) -> Result<()> {
            self.calls.push(("rows", buf.len()));
            self.bytes += buf.est_bytes();
            Ok(())
        }

        fn consume_columnar(&mut self, buf: &TupleBuffer) -> Result<()> {
            self.calls.push(("columnar", buf.len()));
            self.bytes += buf.est_bytes();
            Ok(())
        }
    }

    #[test]
    fn outbox_delivers_both_layouts_in_emission_order_on_commit() {
        let step = || {
            vec![
                StreamMessage::Data(rows(0..2)),
                StreamMessage::Watermark(7),
                StreamMessage::Columnar(columnar(2..5)),
                StreamMessage::Data(rows(0..0)),
            ]
        };
        // A run that cannot replay commits on every emission.
        let mut sink = LayoutSink::default();
        let mut out = Outbox::new(&mut sink, false);
        assert_eq!(out.emit(step()).unwrap(), 5);
        assert!(out.held.is_empty());
        assert_eq!((out.records_out, out.bytes_out), (5, 40));
        assert_eq!(sink.calls, [("rows", 2), ("columnar", 3)]);

        // A chaos run holds rows until a commit, then hands them over
        // once: empty buffers and control messages never reach the sink.
        let mut sink = LayoutSink::default();
        let mut out = Outbox::new(&mut sink, true);
        assert_eq!(out.emit(step()).unwrap(), 5);
        assert_eq!(out.emit(step()).unwrap(), 5);
        assert_eq!((out.held.len(), out.records_out), (4, 0));
        out.commit().unwrap();
        out.commit().unwrap();
        assert_eq!((out.held.len(), out.records_out), (0, 10));
        assert_eq!(
            sink.calls,
            [("rows", 2), ("columnar", 3), ("rows", 2), ("columnar", 3)]
        );
    }

    /// A cloud-tail operator that re-emits its input in the columnar
    /// layout (rows reach the cloud; the tail may still emit buffers).
    struct ToColumnar(SchemaRef);

    impl Operator for ToColumnar {
        fn name(&self) -> &str {
            "to_columnar"
        }

        fn output_schema(&self) -> SchemaRef {
            self.0.clone()
        }

        fn process(&mut self, buf: RecordBuffer, out: &mut Vec<StreamMessage>) -> Result<()> {
            let buf = TupleBuffer::from_record_buffer(&buf, None, 0, 0);
            out.push(StreamMessage::Columnar(buf));
            Ok(())
        }

        fn snapshot(&self) -> Result<Box<dyn Operator>> {
            Ok(Box::new(ToColumnar(self.0.clone())))
        }
    }

    pub(super) struct ToColumnarFactory;

    impl OperatorFactory for ToColumnarFactory {
        fn name(&self) -> &str {
            "to_columnar"
        }

        fn create(&self, input: SchemaRef, _: &FunctionRegistry) -> Result<Box<dyn Operator>> {
            Ok(Box::new(ToColumnar(input)))
        }
    }

    #[test]
    fn terminal_columnar_buffers_reach_the_sink_and_the_counters() {
        // `collect_data` used to keep only `StreamMessage::Data`: a
        // buffer emitted by the cloud tail vanished without a count.
        let (topo, sensors) = Topology::train_fleet(1);
        let mut env = ClusterEnvironment::with_config(
            topo,
            EnvConfig {
                buffer_size: 16,
                ..EnvConfig::default()
            },
        );
        env.add_source(
            "s",
            sensors[0],
            Box::new(VecSource::new(schema(), rows(0..100).into_records())),
            WatermarkStrategy::None,
        );
        let q = Query::from("s").apply(Arc::new(ToColumnarFactory));
        let mut sink = LayoutSink::default();
        let report = env
            .run_placed(&q, PlacementStrategy::CloudOnly, &mut sink)
            .expect("placed run");
        assert!(!sink.calls.is_empty());
        assert!(
            sink.calls.iter().all(|(layout, _)| *layout == "columnar"),
            "delivered in the layout emitted: {:?}",
            sink.calls
        );
        assert_eq!(sink.calls.iter().map(|(_, n)| n).sum::<usize>(), 100);
        assert_eq!(report.metrics.records_out, 100);
        assert_eq!(report.metrics.bytes_out, sink.bytes as u64);
        let last = report.telemetry.samples.last().expect("forced sample");
        assert_eq!(last.records_out, 100, "the cloud gauge counts both");
    }

    #[test]
    fn receiving_tails_apply_the_columnar_gate() {
        // Frames always decode to buffers; a tail drives them columnar
        // exactly when the source gate would open for it (a vectorizing
        // filter at the cloud under `CloudOnly`), and an empty tail (the
        // filter ran upstream under `EdgeFirst`) passes them on — except
        // under `Off`, which keeps every chain on rows.
        use crate::expr::{col, lit};
        use std::collections::BTreeSet;
        let layouts = |strategy: PlacementStrategy, columnar: ColumnarMode| {
            let (topo, sensors) = Topology::train_fleet(1);
            let mut env = ClusterEnvironment::with_config(
                topo,
                EnvConfig {
                    buffer_size: 16,
                    columnar,
                    ..EnvConfig::default()
                },
            );
            env.add_source(
                "s",
                sensors[0],
                Box::new(VecSource::new(schema(), rows(0..100).into_records())),
                WatermarkStrategy::None,
            );
            let q = Query::from("s").filter(col("v").ge(lit(50)));
            let mut sink = LayoutSink::default();
            env.run_placed(&q, strategy, &mut sink).expect("placed run");
            assert_eq!(sink.calls.iter().map(|(_, n)| n).sum::<usize>(), 50);
            sink.calls
                .iter()
                .map(|(layout, _)| *layout)
                .collect::<BTreeSet<_>>()
        };
        for strategy in [PlacementStrategy::CloudOnly, PlacementStrategy::EdgeFirst] {
            let off = layouts(strategy, ColumnarMode::Off);
            assert_eq!(off, BTreeSet::from(["rows"]), "{strategy:?}/Off");
            for mode in [ColumnarMode::Auto, ColumnarMode::Force] {
                let got = layouts(strategy, mode);
                assert_eq!(got, BTreeSet::from(["columnar"]), "{strategy:?}/{mode:?}");
            }
        }
    }
}

/// The placed planner's decisions, pinned per plan shape: each
/// pipeline's stages as (node, operator count), the cloud's operator
/// count and the reported placements, for both strategies on one and
/// on three hosted sources.
#[cfg(test)]
mod plan_tests {
    use super::*;
    use crate::expr::{col, lit};
    use crate::ops::{Pattern, PatternStep};
    use crate::schema::Schema;
    use crate::value::{DataType, MICROS_PER_SEC};
    use crate::window::{AggSpec, WindowAgg, WindowSpec};
    use PlacementStrategy::{CloudOnly, EdgeFirst};

    fn schema() -> SchemaRef {
        Schema::of(&[
            ("ts", DataType::Timestamp),
            ("train", DataType::Int),
            ("speed", DataType::Float),
        ])
    }

    fn window(spec: WindowSpec) -> Query {
        Query::from("s").filter(col("speed").gt(lit(1.0))).window(
            vec![("train", col("train"))],
            spec,
            vec![
                WindowAgg::new("n", AggSpec::Count),
                WindowAgg::new("top", AggSpec::Max(col("speed"))),
            ],
        )
    }

    fn tumbling() -> WindowSpec {
        WindowSpec::Tumbling {
            size: 60 * MICROS_PER_SEC,
        }
    }

    /// One query per plan shape.
    fn shapes() -> Vec<(&'static str, Query)> {
        let pattern = Pattern::new(
            "fast",
            vec![PatternStep::new("a", col("speed").gt(lit(100.0)))],
            60 * MICROS_PER_SEC,
        )
        .keyed_by(col("train"));
        vec![
            (
                "stateless",
                Query::from("s")
                    .filter(col("speed").gt(lit(1.0)))
                    .map_extend(vec![("fast", col("speed").gt(lit(100.0)))]),
            ),
            ("tumbling", window(tumbling())),
            (
                "sliding",
                window(WindowSpec::Sliding {
                    size: 60 * MICROS_PER_SEC,
                    slide: 20 * MICROS_PER_SEC,
                }),
            ),
            (
                "threshold",
                window(WindowSpec::Threshold {
                    predicate: col("speed").gt(lit(100.0)),
                    min_count: 1,
                }),
            ),
            (
                "cep",
                Query::from("s")
                    .filter(col("speed").gt(lit(1.0)))
                    .cep(pattern),
            ),
            (
                "plugin",
                Query::from("s")
                    .filter(col("speed").gt(lit(1.0)))
                    .apply(Arc::new(tests::ToColumnarFactory)),
            ),
            ("suffix", window(tumbling()).filter(col("n").gt(lit(1i64)))),
        ]
    }

    /// `train-0-sensors` → `0s`, `train-0-edge` → `0e`.
    fn short(topo: &Topology, node: NodeId) -> String {
        let name = &topo.node(node).name;
        name.replace("train-", "")
            .replace("-sensors", "s")
            .replace("-edge", "e")
    }

    /// `stages / cloud ops / placements`, pipelines separated by `|`.
    fn shape(
        topo: &Topology,
        query: &Query,
        hosts: &[NodeId],
        strategy: PlacementStrategy,
        failed: Option<NodeId>,
    ) -> String {
        let registry = FunctionRegistry::with_builtins();
        let mut plan = plan_placed(query, topo, hosts, strategy).unwrap();
        let mut migrated = 0;
        if let Some(failed) = failed {
            (plan, migrated) = plan.after_failure(&mut topo.clone(), failed).unwrap();
        }
        // Compile from the plan and cut each chain by its stages.
        let chains = compile_chains(&registry, query, &schema(), &plan).unwrap();
        assert_eq!(chains.cloud_ops.len(), plan.cloud_ops.len());
        let mut pipes = Vec::new();
        for (p, chain) in chains.pipe_chains.into_iter().enumerate() {
            let stages: Vec<String> = (cut_stages(chain, &plan.stages(p)).unwrap().iter())
                .map(|s| format!("{}:{}", short(topo, s.node), s.ops.len()))
                .collect();
            pipes.push(stages.join(" "));
        }
        let placed: Vec<String> = (plan.placements.iter())
            .map(|pl| {
                let nodes: Vec<String> = pl.stages.iter().map(|&n| short(topo, n)).collect();
                nodes.join(" ")
            })
            .collect();
        let shape = format!(
            "{} / {} / {}",
            pipes.join(" | "),
            plan.cloud_ops.len(),
            placed.join(" | ")
        );
        match failed {
            Some(_) => format!("{shape} / {migrated}"),
            None => shape,
        }
    }

    /// `stages / cloud ops / placements` per shape, strategy and
    /// number of hosted sources.
    const PINNED: [&str; 28] = [
        "stateless EdgeFirst 1: 0s:2 / 0 / 0s 0s 0s cloud",
        "stateless EdgeFirst 3: 0s:2 | 1s:2 | 2s:2 / 0 / 0s 0s 0s cloud | 1s 1s 1s cloud | 2s 2s 2s cloud",
        "stateless CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "stateless CloudOnly 3: 0s:0 cloud:2 | 1s:0 cloud:2 | 2s:0 cloud:2 / 0 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "tumbling EdgeFirst 1: 0s:1 0e:1 / 1 / 0s 0s 0e cloud",
        "tumbling EdgeFirst 3: 0s:1 0e:1 | 1s:1 1e:1 | 2s:1 2e:1 / 1 / 0s 0s 0e cloud | 1s 1s 1e cloud | 2s 2s 2e cloud",
        "tumbling CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "tumbling CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "sliding EdgeFirst 1: 0s:1 0e:1 / 1 / 0s 0s 0e cloud",
        "sliding EdgeFirst 3: 0s:1 0e:1 | 1s:1 1e:1 | 2s:1 2e:1 / 1 / 0s 0s 0e cloud | 1s 1s 1e cloud | 2s 2s 2e cloud",
        "sliding CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "sliding CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "threshold EdgeFirst 1: 0s:1 0e:1 / 0 / 0s 0s 0e cloud",
        "threshold EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud",
        "threshold CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "threshold CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "cep EdgeFirst 1: 0s:1 0e:1 / 0 / 0s 0s 0e cloud",
        "cep EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud",
        "cep CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "cep CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "plugin EdgeFirst 1: 0s:1 0e:1 / 0 / 0s 0s 0e cloud",
        "plugin EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud",
        "plugin CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud",
        "plugin CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud",
        "suffix EdgeFirst 1: 0s:1 0e:1 / 2 / 0s 0s 0e cloud cloud",
        "suffix EdgeFirst 3: 0s:1 0e:1 | 1s:1 1e:1 | 2s:1 2e:1 / 2 / 0s 0s 0e cloud cloud | 1s 1s 1e cloud cloud | 2s 2s 2e cloud cloud",
        "suffix CloudOnly 1: 0s:0 / 3 / 0s cloud cloud cloud cloud",
        "suffix CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 2 / 0s cloud cloud cloud cloud | 1s cloud cloud cloud cloud | 2s cloud cloud cloud cloud",
    ];

    #[test]
    fn plan_shapes_are_pinned() {
        let (topo, sensors) = Topology::train_fleet(3);
        let mut got = Vec::new();
        for (name, query) in shapes() {
            for strategy in [EdgeFirst, CloudOnly] {
                for n in [1, 3] {
                    let shape = shape(&topo, &query, &sensors[..n], strategy, None);
                    got.push(format!("{name} {strategy:?} {n}: {shape}"));
                }
            }
        }
        assert_eq!(got, PINNED);
    }

    /// `stages / cloud ops / placements / migrated` after train 0's
    /// edge fails.
    const PINNED_AFTER_FAILURE: [&str; 28] = [
        "stateless EdgeFirst 1: 0s:2 / 0 / 0s 0s 0s cloud / 0",
        "stateless EdgeFirst 3: 0s:2 | 1s:2 | 2s:2 / 0 / 0s 0s 0s cloud | 1s 1s 1s cloud | 2s 2s 2s cloud / 0",
        "stateless CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "stateless CloudOnly 3: 0s:0 cloud:2 | 1s:0 cloud:2 | 2s:0 cloud:2 / 0 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "tumbling EdgeFirst 1: 0s:1 cloud:1 / 1 / 0s 0s cloud cloud / 1",
        "tumbling EdgeFirst 3: 0s:1 cloud:1 | 1s:1 1e:1 | 2s:1 2e:1 / 1 / 0s 0s cloud cloud | 1s 1s 1e cloud | 2s 2s 2e cloud / 1",
        "tumbling CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "tumbling CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "sliding EdgeFirst 1: 0s:1 cloud:1 / 1 / 0s 0s cloud cloud / 1",
        "sliding EdgeFirst 3: 0s:1 cloud:1 | 1s:1 1e:1 | 2s:1 2e:1 / 1 / 0s 0s cloud cloud | 1s 1s 1e cloud | 2s 2s 2e cloud / 1",
        "sliding CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "sliding CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "threshold EdgeFirst 1: 0s:1 cloud:1 / 0 / 0s 0s cloud cloud / 1",
        "threshold EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud / 0",
        "threshold CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "threshold CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "cep EdgeFirst 1: 0s:1 cloud:1 / 0 / 0s 0s cloud cloud / 1",
        "cep EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud / 0",
        "cep CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "cep CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "plugin EdgeFirst 1: 0s:1 cloud:1 / 0 / 0s 0s cloud cloud / 1",
        "plugin EdgeFirst 3: 0s:1 | 1s:1 | 2s:1 / 1 / 0s 0s cloud cloud | 1s 1s cloud cloud | 2s 2s cloud cloud / 0",
        "plugin CloudOnly 1: 0s:0 / 2 / 0s cloud cloud cloud / 0",
        "plugin CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 1 / 0s cloud cloud cloud | 1s cloud cloud cloud | 2s cloud cloud cloud / 0",
        "suffix EdgeFirst 1: 0s:1 cloud:1 / 2 / 0s 0s cloud cloud cloud / 1",
        "suffix EdgeFirst 3: 0s:1 cloud:1 | 1s:1 1e:1 | 2s:1 2e:1 / 2 / 0s 0s cloud cloud cloud | 1s 1s 1e cloud cloud | 2s 2s 2e cloud cloud / 1",
        "suffix CloudOnly 1: 0s:0 / 3 / 0s cloud cloud cloud cloud / 0",
        "suffix CloudOnly 3: 0s:0 cloud:1 | 1s:0 cloud:1 | 2s:0 cloud:1 / 2 / 0s cloud cloud cloud cloud | 1s cloud cloud cloud cloud | 2s cloud cloud cloud cloud / 0",
    ];

    #[test]
    fn plan_after_an_edge_failure_is_pinned() {
        // Train 0's edge box dies: every stage on it migrates to the
        // cloud, its parent; the fold and the cloud's share stay.
        let (topo, sensors) = Topology::train_fleet(3);
        let edge = topo
            .first_ancestor_of_kind(sensors[0], NodeKind::Edge)
            .unwrap();
        let mut got = Vec::new();
        for (name, query) in shapes() {
            for strategy in [EdgeFirst, CloudOnly] {
                for n in [1, 3] {
                    let shape = shape(&topo, &query, &sensors[..n], strategy, Some(edge));
                    got.push(format!("{name} {strategy:?} {n}: {shape}"));
                }
            }
        }
        assert_eq!(got, PINNED_AFTER_FAILURE);
    }
}
