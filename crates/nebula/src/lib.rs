//! # nebula — a NebulaStream-style IoT stream processing engine
//!
//! A from-scratch Rust reimplementation of the architectural skeleton of
//! [NebulaStream] that the SIGMOD 2025 NebulaMEOS demonstration builds
//! on:
//!
//! - **Buffer-batched push pipelines** — operators exchange
//!   [`record::RecordBuffer`]s (the TupleBuffer analogue), not single
//!   records ([`record`], [`runtime`]).
//! - **An expression framework with runtime function registration** —
//!   the plugin mechanism that lets extensions such as MEOS surface new
//!   operations inside queries without engine changes ([`expr`]).
//! - **Event-time windowing by stream slicing** — tumbling, sliding and
//!   NebulaStream's *threshold* windows, closed by watermarks under
//!   bounded out-of-orderness; overlapping sliding windows share
//!   `gcd(size, slide)`-wide slice aggregates, so per-record cost stays
//!   O(1) however large the overlap ([`window`], [`ops`]).
//! - **Complex event processing** — keyed sequence patterns with a time
//!   bound ([`ops::Pattern`]).
//! - **A declarative query builder** compiled into physical operator
//!   chains ([`query`]).
//! - **Topology-aware operator placement** — sensor/edge/cloud tiers,
//!   link cost accounting, edge-first vs cloud-only strategies, and
//!   re-placement under node churn ([`topology`]).
//! - **A distributed cluster runtime** — placed plans actually execute
//!   across topology nodes: per-node stage threads joined by bounded
//!   channels carrying a byte-accounted wire format, cross-boundary
//!   watermark propagation, and edge pre-aggregation of splittable
//!   window aggregates ([`cluster`], [`wire`], [`preagg`]).
//! - **Per-origin punctuated progress tracking** — every buffer is
//!   stamped with its origin, sequence number and watermark
//!   punctuation; [`runtime::ProgressTracker`] folds the stamps into a
//!   gap-aware per-origin frontier (min across live origins, monotone)
//!   that drives window close and late-record decisions identically in
//!   every mode ([`buffer`], [`runtime`]).
//! - **One local executor, three configurations** — `run`,
//!   `run_threaded` and `run_partitioned` share one source driver,
//!   dispatch loop, task pool and emission ledger, and differ only in
//!   whether the source has its own thread and how many workers execute
//!   tasks; out-of-order task completions are re-serialized in dispatch
//!   order with no post-hoc sort ([`runtime`]).
//! - **Runtime telemetry** — per-operator metrics (records, buffers,
//!   selectivity, service-time histograms, state size), periodic
//!   sampling of throughput/queue depth/frontier lag into a bounded
//!   time series, a bounded trace-event ring (deploys, checkpoints,
//!   failures, replans, late-drop bursts, backpressure stalls), and a
//!   JSON-exportable [`telemetry::QueryReport`] — collected uniformly
//!   across all four execution modes, with cluster nodes shipping
//!   per-node snapshots over the wire ([`telemetry`]).
//! - **Pre-flight static query analysis** — every run entry point first
//!   passes the plan through a multi-pass analyzer: typed schema
//!   inference over the whole operator chain, watermark-safety checks,
//!   and partitioning/placement capability analysis. Findings carry
//!   stable `E0xx`/`W0xx` codes and operator paths; errors reject the
//!   plan before any thread spawns, warnings land in the
//!   [`telemetry::QueryReport`] ([`analysis`]).
//! - **Chaos-hardened fault tolerance** — seeded fault injection over
//!   every cluster link (drops, duplicates, reordering, corruption,
//!   flaps, abrupt crashes), a resilient wire protocol (CRC32 envelopes,
//!   sequence numbers, ack/retransmit, heartbeats), and barrier-based
//!   checkpointing with source replay for exactly-once crash recovery —
//!   the one way a placed run survives a failed node: re-plan around
//!   it, restore, replay ([`chaos`], [`checkpoint`], [`cluster`]).
//!
//! [NebulaStream]: https://nebula.stream
//!
//! ## Quick example
//!
//! ```
//! use nebula::prelude::*;
//!
//! // A source of (ts, train, speed) records.
//! let schema = Schema::of(&[
//!     ("ts", DataType::Timestamp),
//!     ("train", DataType::Int),
//!     ("speed", DataType::Float),
//! ]);
//! let records: Vec<Record> = (0..100)
//!     .map(|i| Record::new(vec![
//!         Value::Timestamp(i * 1_000_000),
//!         Value::Int(i % 3),
//!         Value::Float((i % 60) as f64),
//!     ]))
//!     .collect();
//!
//! let mut env = StreamEnvironment::new();
//! env.add_source(
//!     "trains",
//!     Box::new(VecSource::new(schema, records)),
//!     WatermarkStrategy::None,
//! );
//!
//! let query = Query::from("trains").filter(col("speed").gt(lit(50.0)));
//! let (mut sink, results) = CollectingSink::new();
//! let metrics = env.run(&query, &mut sink).unwrap();
//! assert_eq!(metrics.records_in, 100);
//! assert_eq!(results.len(), 9); // speeds 51..=59
//! ```

pub mod analysis;
pub mod buffer;
pub mod chaos;
pub mod checkpoint;
pub mod cluster;
pub mod error;
pub mod expr;
pub mod metrics;
pub mod ops;
pub mod preagg;
pub mod query;
pub mod record;
pub(crate) mod reliable;
pub mod runtime;
pub mod schema;
pub mod sink;
pub mod source;
pub mod telemetry;
pub mod topology;
pub mod value;
pub mod window;
pub mod wire;

pub use error::{NebulaError, Result};

/// The types needed by almost every engine user.
pub mod prelude {
    pub use crate::analysis::{
        analyze, AnalysisContext, AnalysisError, AnalysisOptions, AnalysisReport,
        CapabilityRegistry, Code, Diagnostic, LintLevel, Severity, Target,
    };
    pub use crate::buffer::{BufferMeta, Column, ColumnBuilder, TupleBuffer};
    pub use crate::chaos::{CrashFault, FaultPlan, LinkFlap};
    pub use crate::cluster::{
        ClusterConfig, ClusterEnvironment, ClusterMetrics, ClusterReport, LinkMetrics,
    };
    pub use crate::error::{ClusterError, NebulaError, Result};
    pub use crate::expr::{
        call, col, invoke_rows, lit, BoundExpr, ClosureFunction, ColumnArg, Expr, FunctionRegistry,
        Plugin, ScalarFunction,
    };
    pub use crate::metrics::{Histogram, QueryMetrics};
    pub use crate::ops::{
        record_sort_key, CepOp, FilterOp, FlatMapOp, GroupKey, MapOp, Operator, OperatorFactory,
        Pattern, PatternStep, WindowOp,
    };
    pub use crate::preagg::{split_window, SplitWindow};
    pub use crate::query::{compile, LogicalOp, PartitionScheme, Query};
    pub use crate::record::{Record, RecordBuffer, StreamMessage};
    pub use crate::runtime::{ColumnarMode, EnvConfig, ProgressTracker, StreamEnvironment};
    pub use crate::schema::{Field, ReadSet, Schema, SchemaRef};
    pub use crate::sink::{
        normalize_records, CallbackSink, Collected, CollectingSink, CountingSink, CsvSink,
        NullSink, Sink, SinkCounters,
    };
    pub use crate::source::{
        CsvSource, GapSource, GeneratorSource, JitterSource, ReplaySource, Source, SourceBatch,
        VecSource, WatermarkStrategy, XorShift,
    };
    pub use crate::telemetry::{
        NodeSnapshot, OperatorReport, QueryReport, TelemetryConfig, TelemetrySample, TraceEvent,
        TraceKind,
    };
    pub use crate::topology::{
        plan_placed, Node, NodeId, NodeKind, PlacedPlan, Placement, PlacementStrategy, Topology,
    };
    pub use crate::value::{DataType, DurationUs, EventTime, OpaqueValue, Value, MICROS_PER_SEC};
    pub use crate::window::{
        AggSpec, Aggregator, AggregatorFactory, SliceLayout, WindowAgg, WindowSpec,
    };
    pub use crate::wire::{
        crc32, decode_envelope, decode_frame, encode_envelope, encode_frame, Envelope, Frame,
        OpaqueWireCodec, WireRegistry, ENVELOPE_OVERHEAD,
    };
}
