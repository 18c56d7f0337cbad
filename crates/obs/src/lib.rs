//! # cronus-obs — the flight recorder
//!
//! Observability for the CRONUS reproduction, entirely in simulated time:
//!
//! - [`span`]: hierarchical spans (app → mEnclave → sRPC call → device
//!   kernel → recovery phase) exportable as Chrome trace-event JSON that
//!   loads in Perfetto / `chrome://tracing`.
//! - [`metrics`]: labeled counters, gauges and log-bucketed latency
//!   histograms (p50/p95/p99/max) keyed by partition/stream/device.
//! - [`profile`]: charges every simulated nanosecond to a category
//!   (world-switch, context-switch, crypto, memcpy, ring, kernel, recovery,
//!   mgmt, idle) and emits folded-stack flamegraph lines.
//! - [`recorder`]: the [`FlightRecorder`] handle tying the three together,
//!   plus the [`cronus_sim::EventSink`] bridge that counts the simulator's
//!   events.
//! - [`causal`]: per-request timelines reconstructed from [`span::ReqId`]-
//!   stamped spans, critical-path attribution (which category bounds
//!   latency, per stream and overall) and the p99 outlier report.
//! - [`queue`]: the queueing & saturation observatory — per-queue depth,
//!   wait/service split, USE metrics, Little's-law cross-checks and the
//!   ranked bottleneck-attribution report behind `cargo run --bin obs -- report`.
//! - [`slo`]: per-figure p50/p99 wait budgets with error-budget burn rates,
//!   gated by `scripts/ci.sh --all`.
//! - [`bundle`]: schema-versioned [`bundle::TelemetryBundle`] archives —
//!   headlines, critical-path splits, per-queue USE stats with worst-N wait
//!   exemplars, folded stacks and exemplar timelines — committed per figure
//!   as `BUNDLE_<name>.json`, the bench baseline.
//! - [`diff`]: the differential forensics engine behind
//!   `cargo run --bin obs -- diff` — ranked per-queue/per-category attribution
//!   verdicts, flamegraph frame diffs and bounding-queue transitions that
//!   make a moved baseline self-explaining.
//! - [`meter`]: per-principal resource metering — every simulated quantum
//!   (CPU/SM/NPU time, DMA bytes, ring-slot and arena occupancy, stage-2
//!   pages, world switches, crypto) charged to an owning partition with
//!   stream sub-accounts, balanced against the profiler by an exact
//!   conservation self-test; behind `cargo run --bin obs -- meter`.
//! - [`fairness`]: Jain's index and dominant-resource shares over the meter
//!   ledgers, plus the deterministic noisy-neighbor interference matrix
//!   (backlog waits attributed to the principals occupying the contended
//!   executor, with exemplar ReqIds).
//! - [`intern`]: the name table behind span and track names, so a span
//!   stores an id and a hot site that resolved its names once records
//!   without allocating.
//! - [`json`]: the offline (serde-free) JSON emission and parsing all
//!   exports and the bench baselines use.
//!
//! The crate sits between `cronus-sim` and the policy layers: `spm`, `core`,
//! `devices` and `runtime` take an optional recorder and instrument their
//! hot paths; the bench harness dumps snapshots next to its table output.

pub mod bundle;
pub mod causal;
pub mod diff;
pub mod fairness;
pub mod intern;
pub mod json;
pub mod meter;
pub mod metrics;
pub mod profile;
pub mod queue;
pub mod recorder;
pub mod slo;
pub mod span;

pub use bundle::{
    BundleError, BundleExemplar, BundleQueue, Direction, Headline, TelemetryBundle, BUNDLE_SCHEMA,
};
pub use causal::{canonical_phase, CausalReport, RequestTimeline};
pub use diff::{
    diff, diff_documents, Attribution, AttributionKind, BundleDiff, DiffConfig, DiffError,
    ExemplarDiff, FrameDelta, FrameStatus, HeadlineDelta,
};
pub use fairness::{
    jain_index, DominantShare, FairnessReport, InterferenceCell, InterferenceExemplar,
    InterferenceMatrix,
};
pub use intern::{Interner, IntoName, NameId};
pub use json::{is_well_formed, parse, report_document, Json, REPORT_SCHEMA};
pub use meter::{
    ConservationRow, CountResource, ExecClass, MeterError, MeterScope, Principal, ResourceMeter,
    WorkerId,
};
pub use metrics::{
    bucket_index, labels, CounterId, GaugeId, Histogram, HistogramId, LabelSet, MetricsRegistry,
};
pub use profile::{FrameId, TimeCategory, TimeProfiler};
pub use queue::{
    LittleCheck, QueueKind, QueueObservatory, QueueReport, QueueStation, QueueUse, StationId,
    WaitExemplar, MAX_EXEMPLARS,
};
pub use recorder::{spend, FlightRecorder, RecorderInner, RecorderSink};
pub use slo::{SloEval, SloObjective, SloPolicy, SloReport};
pub use span::{ReqId, Span, SpanId, SpanTracer, TrackId};
