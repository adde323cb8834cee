//! Unified observability for the DirectLoad workspace.
//!
//! The repo grew five disjoint counter systems — `qindb::stats`,
//! `ssd::counters`, `bifrost::monitor`, `serve`'s latency histograms, and
//! the simclock time series — each with its own snapshot shape and no
//! shared naming. This crate is the one place every layer reports into:
//!
//! * [`registry`] — a process-wide metrics [`Registry`] handing out
//!   lock-free [`Counter`] and [`Gauge`] handles under hierarchical dotted
//!   names (`qindb.gc.runs`, `ssd.gc_write_bytes`,
//!   `bifrost.link.0.backlog_bytes`, `serve.shed_total`). A
//!   [`Registry::snapshot`] renders both a structured [`MetricsReport`]
//!   and a Prometheus-style text exposition.
//! * [`hist`] — the log-bucketed [`LatencyHistogram`] (originally
//!   `serve::hist`; it lives here now and `obs::hist` is the one path).
//! * [`trace`] — a bounded ring-buffer [`TraceSink`] of typed spans and
//!   events ([`SpanGuard`] RAII over sim-time or wall-time) emitted by the
//!   pipeline stages (build → dedup → slice → deliver → load → publish)
//!   and by engine maintenance (flush, checkpoint, GC, traceback),
//!   dumpable as JSONL. [`breakdown`] aggregates a window per kind;
//!   [`profile`] turns it into a phase-time profile with *self-time*
//!   attribution (nested spans subtract from their parent, so `load`
//!   stops absorbing the `flush`/`engine_gc` spans inside it) plus the
//!   unattributed remainder, and [`top_self_time`] ranks the individual
//!   spans that dominate the critical path.
//!
//! * [`timeseries`] — the windowed derivative layer: a [`Sampler`]
//!   ticks a clock (sim or wall) over the registry and histogram
//!   sources, diffing each tick against the last to produce
//!   fixed-capacity [`TimeSeries`] rings of rates, deltas, and
//!   per-window percentiles (via [`LatencyHistogram::diff`]), with a
//!   deterministic name-sorted JSON snapshot.
//! * [`slo`] — declarative objectives (`"get_p99: serve.lat.p99 < 5000
//!   over 60s"`) evaluated against those series; breach/recovery
//!   transitions emit trace events and `slo.*` counters.
//! * [`telemetry`] — the typed [`TelemetryFrame`] the network
//!   `Introspect` response carries and `directload-top` renders.
//! * [`sketch`] — the deterministic, mergeable Misra-Gries
//!   [`TopKSketch`]: per-shard hot-key summaries with a proven
//!   frequency error bound, merged into the cluster's hot-key view.
//! * [`cost`] — per-request [`Cost`] records (queue wait, service
//!   time, attributed storage reads) and the mergeable
//!   [`CostAccumulator`] bucketing read cost by group, node, and DC.
//! * [`wan`] — the shared [`WanLedger`]: replication-fabric bytes
//!   attributed to a [`TrafficClass`] (foreground delivery vs. WAL
//!   catch-up vs. migration), charged by bifrost, mint, and placement.
//!
//! * [`scope`] — one observer per component: a [`Scope`] holds its sim
//!   ring (bound to its own clock), the shared wall ring and the WAN
//!   ledger under one label, records every phase once on each ring it
//!   reaches ([`Scope::phase`]), and derives a part's observer with
//!   [`Scope::child`] (cluster → node, engine → device).
//!
//! Request tracing: [`TraceCtx`] carries a `trace_id` allocated at the
//! network edge through every layer; spans emitted with
//! [`TraceSink::span_traced`]/[`TraceSink::event_traced`] share the id,
//! and [`assemble`] stitches them back into one cross-layer
//! [`AssembledTrace`].
//!
//! Every lock in this crate recovers from poisoning: a panic on one
//! thread — a metric-kind clash, say — must not take telemetry down for
//! every later caller.
//!
//! `obs` sits at the bottom of the dependency graph (only `simclock` and
//! the vendored `serde_json` below it) so every other crate can wire its
//! counters in without cycles.

pub mod cost;
pub mod hist;
pub mod registry;
pub mod scope;
pub mod sketch;
pub mod slo;
pub mod telemetry;
pub mod timeseries;
pub mod trace;
pub mod wan;

pub use cost::{Cost, CostAccumulator, CostTotals, ReadAttribution, ReadCost};
pub use hist::LatencyHistogram;
pub use registry::{Counter, Gauge, MetricSample, MetricValue, MetricsReport, Registry};
pub use scope::{Phase, Rings, Scope};
pub use sketch::TopKSketch;
pub use slo::{SloEngine, SloOp, SloSpec, SloStatus};
pub use telemetry::{CtrlDcRow, CtrlSection, LayerRow, TelemetryFrame, TopSpan};
pub use timeseries::{Sampler, SeriesPoint, TimeSeries};
pub use trace::{
    assemble, breakdown, profile, profile_window, top_self_time, AssembledTrace, Profile, SelfTime,
    SpanBreakdown, SpanGuard, SpanKind, TraceCtx, TraceEvent, TraceSink,
};
pub use wan::{TrafficClass, WanDcRow, WanLedger, WanLinkRow};

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the data over from a holder that panicked: every
/// structure behind an `obs` lock stays consistent between statements.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
