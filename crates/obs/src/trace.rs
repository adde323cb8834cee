//! Structured event tracing: a bounded ring buffer of typed spans.
//!
//! Pipeline stages and engine maintenance paths emit [`TraceEvent`]s into
//! a shared [`TraceSink`]. The buffer is a fixed-capacity ring — when
//! full, the oldest event is dropped (and counted), so a long-running
//! system keeps the recent window without unbounded memory.
//!
//! Time comes from the sink's time source: virtual nanoseconds from a
//! [`SimClock`] for simulated components, or wall-clock nanoseconds since
//! sink creation for real threads. Components whose clock differs from
//! the sink's (each Mint node owns its own `SimClock`) call
//! [`TraceSink::with_clock`] to get a handle that shares the buffer but
//! reads their clock.
//!
//! Span taxonomy (see DESIGN.md "Observability"): the update pipeline
//! emits `build → dedup → slice → deliver → load → publish`, the serving
//! path emits `serve`, the storage engines emit `flush`, `checkpoint`,
//! `engine_gc`, `device_gc`, and `traceback`, the chaos subsystem
//! emits `fault`/`repair` for every injected failure and its undo, the
//! placement subsystem emits `migrate`/`drain` for every throttled
//! batch of a live topology change, the network front end emits
//! `accept`/`net_read`/`net_write`/`dispatch` per connection and frame,
//! and the group logs emit `wal_replay` for every catch-up suffix they
//! ship.

use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use simclock::SimClock;

/// The fixed vocabulary of span/event types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Crawl round producing a version's key/value pairs.
    Build,
    /// Transfer deduplication over a version's pairs.
    Dedup,
    /// Cutting deduplicated streams into fixed-size slices.
    Slice,
    /// WAN delivery of slices to the regional centers.
    Deliver,
    /// Loading arrived updates into the Mint clusters.
    Load,
    /// Version publication and retention trimming.
    Publish,
    /// A serving burst through the front-end.
    Serve,
    /// Memtable flush into the appending-only files.
    Flush,
    /// Engine checkpoint write.
    Checkpoint,
    /// Engine (software) garbage collection run.
    EngineGc,
    /// Device (firmware) garbage collection run.
    DeviceGc,
    /// A read that walked the global chain table backwards.
    Traceback,
    /// A fault injected by the chaos subsystem (node crash, link outage,
    /// flash error burst, corruption burst).
    Fault,
    /// A repair undoing an injected fault (node recovery, link restore,
    /// burst expiry).
    Repair,
    /// One throttled catch-up batch copied to a node joining a Mint
    /// group (placement live migration).
    Migrate,
    /// One throttled batch pushed off a node draining out of a Mint
    /// group ahead of decommission.
    Drain,
    /// One TCP connection accepted by the network front end.
    Accept,
    /// One request frame read and decoded off a connection.
    NetRead,
    /// One response frame encoded and written to a connection.
    NetWrite,
    /// One decoded request dispatched into the serve front-end.
    Dispatch,
    /// One replicated storage read (Mint: amount = replicas consulted) on
    /// behalf of a traced request.
    Get,
    /// A service-level objective crossed from meeting to breaching.
    SloBreach,
    /// A breached service-level objective recovered.
    SloRecover,
    /// One suffix replayed out of a write-ahead log (node recovery or
    /// join catch-up shipping the donor's log tail).
    WalReplay,
    /// One placement-controller decision: a control round observed the
    /// cluster and emitted (or declined to emit) a topology plan.
    Control,
}

impl SpanKind {
    /// Every kind, in pipeline-then-maintenance order.
    pub const ALL: [SpanKind; 25] = [
        SpanKind::Build,
        SpanKind::Dedup,
        SpanKind::Slice,
        SpanKind::Deliver,
        SpanKind::Load,
        SpanKind::Publish,
        SpanKind::Serve,
        SpanKind::Flush,
        SpanKind::Checkpoint,
        SpanKind::EngineGc,
        SpanKind::DeviceGc,
        SpanKind::Traceback,
        SpanKind::Fault,
        SpanKind::Repair,
        SpanKind::Migrate,
        SpanKind::Drain,
        SpanKind::Accept,
        SpanKind::NetRead,
        SpanKind::NetWrite,
        SpanKind::Dispatch,
        SpanKind::Get,
        SpanKind::SloBreach,
        SpanKind::SloRecover,
        SpanKind::WalReplay,
        SpanKind::Control,
    ];

    /// Stable lowercase name used in JSONL dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Build => "build",
            SpanKind::Dedup => "dedup",
            SpanKind::Slice => "slice",
            SpanKind::Deliver => "deliver",
            SpanKind::Load => "load",
            SpanKind::Publish => "publish",
            SpanKind::Serve => "serve",
            SpanKind::Flush => "flush",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::EngineGc => "engine_gc",
            SpanKind::DeviceGc => "device_gc",
            SpanKind::Traceback => "traceback",
            SpanKind::Fault => "fault",
            SpanKind::Repair => "repair",
            SpanKind::Migrate => "migrate",
            SpanKind::Drain => "drain",
            SpanKind::Accept => "accept",
            SpanKind::NetRead => "net_read",
            SpanKind::NetWrite => "net_write",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Get => "get",
            SpanKind::SloBreach => "slo_breach",
            SpanKind::SloRecover => "slo_recover",
            SpanKind::WalReplay => "wal_replay",
            SpanKind::Control => "control",
        }
    }

    /// Inverse of [`SpanKind::as_str`].
    pub fn parse(s: &str) -> Option<SpanKind> {
        SpanKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }

    /// The architectural layer a kind belongs to — what
    /// [`AssembledTrace::layers`] reports when it stitches one request's
    /// path across the stack.
    pub fn layer(self) -> &'static str {
        match self {
            SpanKind::Accept | SpanKind::NetRead | SpanKind::NetWrite | SpanKind::Dispatch => "net",
            SpanKind::Serve => "serve",
            SpanKind::Get | SpanKind::Load | SpanKind::Migrate | SpanKind::Drain => "mint",
            SpanKind::Flush | SpanKind::Checkpoint | SpanKind::EngineGc | SpanKind::Traceback => {
                "qindb"
            }
            SpanKind::DeviceGc => "ssd",
            SpanKind::Dedup | SpanKind::Slice | SpanKind::Deliver => "bifrost",
            SpanKind::Build | SpanKind::Publish => "pipeline",
            SpanKind::Fault | SpanKind::Repair => "chaos",
            SpanKind::SloBreach | SpanKind::SloRecover => "slo",
            SpanKind::WalReplay => "wal",
            SpanKind::Control => "ctrl",
        }
    }
}

/// Per-request trace context, allocated at the system's edge (the
/// network server) and threaded through every layer a request touches.
///
/// `trace_id` 0 means "untraced": the hot paths skip per-request span
/// emission entirely, so tracing costs nothing unless a request carries
/// a real id. `origin` identifies the allocating edge (the server's
/// connection counter) and is server-local — only `trace_id` travels on
/// the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Correlation id stitching one request's spans across layers.
    pub trace_id: u64,
    /// Edge-local origin (e.g. the accepting connection's sequence
    /// number); not propagated beyond the allocating process.
    pub origin: u64,
}

impl TraceCtx {
    /// An untraced context (id 0): span emission is skipped.
    pub fn untraced() -> TraceCtx {
        TraceCtx::default()
    }
}

/// One recorded span or instantaneous event.
///
/// `amount` is a kind-specific payload: bytes saved for `dedup`, slices
/// cut for `slice`, keys stored for `load`, chain steps for `traceback`,
/// pages moved for `device_gc`, and so on. Instantaneous events have
/// `end_ns == start_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global emission order (gaps mean the ring dropped events).
    pub seq: u64,
    /// Span type.
    pub kind: SpanKind,
    /// Free-form source label, e.g. `"dc1/node3"` or `"version 7"`.
    pub label: String,
    /// Start time, nanoseconds on the emitter's time source.
    pub start_ns: u64,
    /// End time; equals `start_ns` for instantaneous events.
    pub end_ns: u64,
    /// Kind-specific payload (bytes, items, steps, pages).
    pub amount: u64,
    /// Request correlation id; 0 for spans not tied to any request
    /// (pipeline phases, maintenance, chaos). See [`TraceCtx`].
    pub trace_id: u64,
}

impl TraceEvent {
    /// Span length in nanoseconds (0 for instantaneous events).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// One compact JSON line (no embedded newlines; JSONL-safe).
    pub fn to_json(&self) -> String {
        self.to_value().to_compact_string()
    }

    /// The event as a `serde_json` tree.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("seq".to_string(), Value::Number(self.seq as f64)),
            (
                "kind".to_string(),
                Value::String(self.kind.as_str().to_string()),
            ),
            ("label".to_string(), Value::String(self.label.clone())),
            ("start_ns".to_string(), Value::Number(self.start_ns as f64)),
            ("end_ns".to_string(), Value::Number(self.end_ns as f64)),
            ("amount".to_string(), Value::Number(self.amount as f64)),
            ("trace_id".to_string(), Value::Number(self.trace_id as f64)),
        ])
    }

    /// Rebuilds an event from a parsed JSON tree. Numeric fields follow
    /// JSON number semantics (exact below 2^53). A missing `trace_id`
    /// (dumps from before request tracing) decodes as 0.
    pub fn from_value(v: &serde_json::Value) -> Option<TraceEvent> {
        Some(TraceEvent {
            seq: v.get("seq")?.as_u64()?,
            kind: SpanKind::parse(v.get("kind")?.as_str()?)?,
            label: v.get("label")?.as_str()?.to_string(),
            start_ns: v.get("start_ns")?.as_u64()?,
            end_ns: v.get("end_ns")?.as_u64()?,
            amount: v.get("amount")?.as_u64()?,
            trace_id: v.get("trace_id").and_then(|t| t.as_u64()).unwrap_or(0),
        })
    }

    /// Parses one JSONL line via `serde_json::from_str`.
    pub fn from_json(line: &str) -> Option<TraceEvent> {
        TraceEvent::from_value(&serde_json::from_str(line).ok()?)
    }
}

/// Where a sink reads "now" from.
#[derive(Debug, Clone)]
enum TimeSource {
    /// Wall-clock nanoseconds since the sink was created.
    Wall(Instant),
    /// Virtual nanoseconds from a shared simulation clock.
    Sim(SimClock),
}

struct Buffer {
    events: VecDeque<TraceEvent>,
    next_seq: u64,
    dropped: u64,
}

struct Shared {
    buf: Mutex<Buffer>,
    capacity: usize,
}

/// A bounded, thread-safe ring buffer of trace events.
///
/// Clones share the buffer; each clone carries its own time source (see
/// [`TraceSink::with_clock`]), so components on different clocks can emit
/// into one stream.
#[derive(Clone)]
pub struct TraceSink {
    shared: Arc<Shared>,
    source: TimeSource,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("capacity", &self.shared.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl TraceSink {
    fn with_source(capacity: usize, source: TimeSource) -> TraceSink {
        assert!(capacity > 0, "trace sink needs capacity");
        TraceSink {
            shared: Arc::new(Shared {
                buf: Mutex::new(Buffer {
                    events: VecDeque::with_capacity(capacity),
                    next_seq: 0,
                    dropped: 0,
                }),
                capacity,
            }),
            source,
        }
    }

    /// A sink timestamping with wall-clock time since creation.
    pub fn wall(capacity: usize) -> TraceSink {
        TraceSink::with_source(capacity, TimeSource::Wall(Instant::now()))
    }

    /// A sink timestamping with virtual time from `clock`.
    pub fn sim(capacity: usize, clock: SimClock) -> TraceSink {
        TraceSink::with_source(capacity, TimeSource::Sim(clock))
    }

    /// A handle to the same buffer that reads time from `clock` instead.
    /// Used by components with their own clock (each Mint node's engine
    /// and device advance independently).
    pub fn with_clock(&self, clock: SimClock) -> TraceSink {
        TraceSink {
            shared: Arc::clone(&self.shared),
            source: TimeSource::Sim(clock),
        }
    }

    /// "Now" in nanoseconds on this handle's time source.
    pub fn now_ns(&self) -> u64 {
        match &self.source {
            TimeSource::Wall(epoch) => epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64,
            TimeSource::Sim(clock) => clock.now().as_nanos(),
        }
    }

    fn push(
        &self,
        kind: SpanKind,
        label: String,
        start_ns: u64,
        end_ns: u64,
        amount: u64,
        trace_id: u64,
    ) {
        let mut buf = crate::lock(&self.shared.buf);
        let seq = buf.next_seq;
        buf.next_seq += 1;
        if buf.events.len() == self.shared.capacity {
            buf.events.pop_front();
            buf.dropped += 1;
        }
        buf.events.push_back(TraceEvent {
            seq,
            kind,
            label,
            start_ns,
            end_ns,
            amount,
            trace_id,
        });
    }

    /// Records an instantaneous event (untraced; `trace_id` 0).
    pub fn event(&self, kind: SpanKind, label: &str, amount: u64) {
        self.event_traced(kind, label, amount, 0);
    }

    /// Records an instantaneous event correlated to a request.
    pub fn event_traced(&self, kind: SpanKind, label: &str, amount: u64, trace_id: u64) {
        let now = self.now_ns();
        self.push(kind, label.to_string(), now, now, amount, trace_id);
    }

    /// Opens a span that records itself on drop (untraced; `trace_id` 0).
    pub fn span(&self, kind: SpanKind, label: &str) -> SpanGuard<'_> {
        self.span_traced(kind, label, 0)
    }

    /// Opens a span correlated to a request; [`assemble`] later stitches
    /// every span carrying the same id into one cross-layer trace.
    pub fn span_traced(&self, kind: SpanKind, label: &str, trace_id: u64) -> SpanGuard<'_> {
        SpanGuard {
            sink: self,
            kind,
            label: label.to_string(),
            start_ns: self.now_ns(),
            amount: 0,
            trace_id,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        crate::lock(&self.shared.buf).events.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        crate::lock(&self.shared.buf).dropped
    }

    /// A copy of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        Vec::from(crate::lock(&self.shared.buf).events.clone())
    }

    /// The buffered events as JSONL, one event per line, oldest first.
    pub fn to_jsonl(&self) -> String {
        self.snapshot().iter().map(|e| e.to_json() + "\n").collect()
    }

    /// Publishes the sink's own health on `reg`: the counter
    /// `<prefix>.dropped` (events evicted because the ring was full,
    /// stored as the running total) and the gauge `<prefix>.len`
    /// (current occupancy). Span loss is itself observable — a sampler
    /// watching `<prefix>.dropped`'s rate climb knows the trace window is
    /// shorter than it looks.
    pub fn publish_metrics(&self, reg: &crate::Registry, prefix: &str) {
        let (len, dropped) = {
            let buf = crate::lock(&self.shared.buf);
            (buf.events.len(), buf.dropped)
        };
        reg.counter(&format!("{prefix}.dropped")).store(dropped);
        reg.gauge(&format!("{prefix}.len")).set(len as f64);
    }
}

/// RAII span handle from [`TraceSink::span`]; records a [`TraceEvent`]
/// spanning creation to drop.
pub struct SpanGuard<'a> {
    sink: &'a TraceSink,
    kind: SpanKind,
    label: String,
    start_ns: u64,
    amount: u64,
    trace_id: u64,
}

impl SpanGuard<'_> {
    /// Sets the span's payload amount.
    pub fn set_amount(&mut self, n: u64) {
        self.amount = n;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.sink.now_ns().max(self.start_ns);
        let label = std::mem::take(&mut self.label);
        self.sink.push(
            self.kind,
            label,
            self.start_ns,
            end,
            self.amount,
            self.trace_id,
        );
    }
}

/// One [`SpanKind`]'s share of a [`Profile`].
///
/// `total_ns` sums raw span durations (a parent includes its children);
/// `self_ns` is the *exclusive* time — duration minus the time covered by
/// spans nested inside, which is what a phase-time profile wants: the
/// `load` phase's self time no longer includes the `flush` and
/// `engine_gc` spans that ran within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    /// The kind aggregated.
    pub kind: SpanKind,
    /// Events of this kind (spans and instants).
    pub count: u64,
    /// Summed inclusive durations, nanoseconds.
    pub total_ns: u64,
    /// Summed exclusive (self) durations, nanoseconds.
    pub self_ns: u64,
    /// Summed payload amounts.
    pub total_amount: u64,
}

/// A phase-time profile of a trace: per-kind self time plus the window
/// time no span covered. Produced by [`profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Window start: the earliest event start, nanoseconds on the
    /// events' time source.
    pub start_ns: u64,
    /// Window end: the latest event end.
    pub end_ns: u64,
    /// Per-kind self-time aggregates, sorted by descending `self_ns`.
    pub entries: Vec<SelfTime>,
    /// Window nanoseconds covered by at least one span (the union of all
    /// span intervals).
    pub attributed_ns: u64,
}

impl Profile {
    /// Window length in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Window time covered by no span at all — the "unattributed" bucket
    /// a healthy phase-instrumented trace keeps small.
    pub fn unattributed_ns(&self) -> u64 {
        self.window_ns().saturating_sub(self.attributed_ns)
    }

    /// Fraction of the window covered by named spans, in `[0, 1]`
    /// (1.0 for an empty window).
    pub fn attributed_fraction(&self) -> f64 {
        let w = self.window_ns();
        if w == 0 {
            1.0
        } else {
            self.attributed_ns as f64 / w as f64
        }
    }

    /// The aggregate for one kind, if it appeared in the window.
    pub fn get(&self, kind: SpanKind) -> Option<&SelfTime> {
        self.entries.iter().find(|e| e.kind == kind)
    }
}

/// Every event's self time, as `(index into events, self_ns)` pairs in
/// timeline order: start ascending, an enclosing span before the spans
/// inside it (longer first on a shared start; on an identical interval
/// the earlier event encloses). Instants carry 0.
///
/// One walk over a stack of open spans: a span subtracts the part of it
/// that overlaps the span open on top of the stack when it starts — its
/// direct parent. A parent's next child starts only after the previous
/// one has been popped, so the subtracted parts are disjoint pieces of
/// the parent and a self time never goes negative, even for partially
/// overlapping spans from concurrent threads.
fn self_times(events: &[TraceEvent]) -> Vec<(usize, u64)> {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by_key(|&i| (events[i].start_ns, Reverse(events[i].end_ns)));
    let mut out: Vec<(usize, u64)> = order
        .into_iter()
        .map(|i| (i, events[i].duration_ns()))
        .collect();
    let mut stack: Vec<(u64, usize)> = Vec::new(); // end, position in `out`
    for pos in 0..out.len() {
        let e = &events[out[pos].0];
        if e.duration_ns() == 0 {
            continue; // instants don't participate in attribution
        }
        while stack.last().is_some_and(|&(end, _)| end <= e.start_ns) {
            stack.pop();
        }
        if let Some(&(parent_end, parent)) = stack.last() {
            out[parent].1 -= e.end_ns.min(parent_end) - e.start_ns;
        }
        stack.push((e.end_ns, pos));
    }
    out
}

/// Computes a phase-time [`Profile`] over `events`, windowed to their
/// own extent (earliest start to latest end).
///
/// Attribution assumes the spans come from one logical timeline (one
/// time source): a span nested inside another is subtracted from its
/// direct parent's self time, so per kind the self times sum what the
/// kind itself spent. The union-based `attributed_ns` is exact either
/// way.
pub fn profile(events: &[TraceEvent]) -> Profile {
    let start_ns = events.iter().map(|e| e.start_ns).min().unwrap_or(0);
    let end_ns = events.iter().map(|e| e.end_ns).max().unwrap_or(0);
    let mut entries: Vec<SelfTime> = Vec::new();
    let mut attributed_ns = 0u64;
    let mut covered_until = start_ns;
    for (i, self_ns) in self_times(events) {
        let e = &events[i];
        let at = match entries.iter().position(|x| x.kind == e.kind) {
            Some(at) => at,
            None => {
                entries.push(SelfTime {
                    kind: e.kind,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    total_amount: 0,
                });
                entries.len() - 1
            }
        };
        let entry = &mut entries[at];
        entry.count += 1;
        entry.total_ns += e.duration_ns();
        entry.self_ns += self_ns;
        entry.total_amount += e.amount;
        // Union coverage: timeline order is by start.
        if e.end_ns > covered_until {
            attributed_ns += e.end_ns - covered_until.max(e.start_ns);
            covered_until = e.end_ns;
        }
    }
    entries.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.count.cmp(&b.count)));
    Profile {
        start_ns,
        end_ns,
        entries,
        attributed_ns,
    }
}

/// One request's reconstructed cross-layer path, from [`assemble`].
///
/// Events are ordered by `(start_ns, seq)` so the trace reads as the
/// request's timeline: accept → net_read → dispatch → serve → get →
/// traceback → net_write, with nested spans after their parents.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledTrace {
    /// The correlation id this trace was assembled for.
    pub trace_id: u64,
    /// Every buffered event carrying `trace_id`, ordered by start time.
    pub events: Vec<TraceEvent>,
}

impl AssembledTrace {
    /// True when no buffered event carried the id (evicted or never
    /// emitted).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The architectural layers the request touched, in first-touch
    /// order with duplicates removed — e.g. `["net", "serve", "mint",
    /// "qindb"]` for a Get that missed memory and walked the chain.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for e in &self.events {
            let layer = e.kind.layer();
            if !out.contains(&layer) {
                out.push(layer);
            }
        }
        out
    }

    /// Trace extent: earliest start to latest end, nanoseconds.
    pub fn span_ns(&self) -> u64 {
        let start = self.events.iter().map(|e| e.start_ns).min().unwrap_or(0);
        let end = self.events.iter().map(|e| e.end_ns).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// The trace as a JSON tree: `{trace_id, layers, events}`.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        Value::Object(vec![
            ("trace_id".to_string(), Value::Number(self.trace_id as f64)),
            (
                "layers".to_string(),
                Value::Array(
                    self.layers()
                        .iter()
                        .map(|l| Value::String(l.to_string()))
                        .collect(),
                ),
            ),
            (
                "events".to_string(),
                Value::Array(self.events.iter().map(|e| e.to_value()).collect()),
            ),
        ])
    }

    /// One compact JSON document.
    pub fn to_json(&self) -> String {
        self.to_value().to_compact_string()
    }
}

/// Reconstructs one request's path through the stack: every buffered
/// event whose `trace_id` matches, sorted by `(start_ns, seq)`.
///
/// Caveats inherent to a bounded ring: a busy system may have evicted
/// the request's earliest spans (check [`TraceSink::dropped`]), and the
/// events' timestamps are only mutually comparable when their emitters
/// share a time source — which is why the request path runs entirely on
/// the wall ring (see [`Scope::request`](crate::Scope::request)).
pub fn assemble(sink: &TraceSink, trace_id: u64) -> AssembledTrace {
    let mut events: Vec<TraceEvent> = sink
        .snapshot()
        .into_iter()
        .filter(|e| trace_id != 0 && e.trace_id == trace_id)
        .collect();
    events.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.seq.cmp(&b.seq)));
    AssembledTrace { trace_id, events }
}

/// The `n` spans with the largest *self* time (exclusive of nested
/// spans), largest first — the top of the critical path through a
/// single-timeline trace. Returns `(event, self_ns)` pairs.
pub fn top_self_time(events: &[TraceEvent], n: usize) -> Vec<(TraceEvent, u64)> {
    let mut ranked: Vec<(usize, u64)> = self_times(events)
        .into_iter()
        .filter(|&(i, _)| events[i].duration_ns() > 0)
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(events[a.0].seq.cmp(&events[b.0].seq)));
    ranked.truncate(n);
    ranked
        .into_iter()
        .map(|(i, self_ns)| (events[i].clone(), self_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;

    #[test]
    fn sim_spans_measure_virtual_time() {
        let clock = SimClock::new();
        let sink = TraceSink::sim(16, clock.clone());
        {
            let mut span = sink.span(SpanKind::Deliver, "version 1");
            clock.advance(SimTime::from_millis(5));
            span.set_amount(42);
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, SpanKind::Deliver);
        assert_eq!(events[0].duration_ns(), 5_000_000);
        assert_eq!(events[0].amount, 42);
    }

    #[test]
    fn with_clock_shares_the_buffer() {
        let a = SimClock::new();
        let b = SimClock::new();
        b.advance(SimTime::from_secs(9));
        let sink = TraceSink::sim(16, a);
        sink.event(SpanKind::Flush, "a", 0);
        sink.with_clock(b).event(SpanKind::Flush, "b", 0);
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].start_ns, 0);
        assert_eq!(events[1].start_ns, 9_000_000_000);
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SpanKind::parse("nonsense"), None);
    }

    #[test]
    fn profile_aggregates_by_kind() {
        let sink = TraceSink::wall(16);
        sink.event(SpanKind::Flush, "n0", 10);
        sink.event(SpanKind::Flush, "n1", 20);
        sink.event(SpanKind::DeviceGc, "n0", 3);
        let p = profile(&sink.snapshot());
        assert_eq!(p.entries.len(), 2);
        let flush = p.get(SpanKind::Flush).unwrap();
        assert_eq!((flush.count, flush.total_amount), (2, 30));
        let gc = p.get(SpanKind::DeviceGc).unwrap();
        assert_eq!((gc.count, gc.total_amount), (1, 3));
    }

    #[test]
    fn wall_time_is_monotone() {
        let sink = TraceSink::wall(4);
        let a = sink.now_ns();
        let b = sink.now_ns();
        assert!(b >= a);
    }

    /// Builds a span event directly (tests drive the profiler with exact
    /// intervals rather than real clocks).
    fn ev(seq: u64, kind: SpanKind, start_ns: u64, end_ns: u64) -> TraceEvent {
        TraceEvent {
            seq,
            kind,
            label: String::new(),
            start_ns,
            end_ns,
            amount: 0,
            trace_id: 0,
        }
    }

    #[test]
    fn profile_subtracts_nested_spans_from_parents() {
        // load [0, 100] containing flush [10, 30] and engine_gc [40, 90],
        // with engine_gc itself containing device_gc [50, 70].
        let events = vec![
            ev(0, SpanKind::Load, 0, 100),
            ev(1, SpanKind::Flush, 10, 30),
            ev(2, SpanKind::EngineGc, 40, 90),
            ev(3, SpanKind::DeviceGc, 50, 70),
        ];
        let p = profile(&events);
        assert_eq!(p.window_ns(), 100);
        assert_eq!(p.attributed_ns, 100);
        assert_eq!(p.unattributed_ns(), 0);
        assert_eq!(p.get(SpanKind::Load).unwrap().total_ns, 100);
        assert_eq!(p.get(SpanKind::Load).unwrap().self_ns, 30); // 100-20-50
        assert_eq!(p.get(SpanKind::Flush).unwrap().self_ns, 20);
        assert_eq!(p.get(SpanKind::EngineGc).unwrap().self_ns, 30); // 50-20
        assert_eq!(p.get(SpanKind::DeviceGc).unwrap().self_ns, 20);
        // Self times partition the attributed window exactly.
        let total_self: u64 = p.entries.iter().map(|e| e.self_ns).sum();
        assert_eq!(total_self, 100);
    }

    #[test]
    fn profile_reports_uncovered_window_time() {
        let events = vec![
            ev(0, SpanKind::Build, 0, 40),
            ev(1, SpanKind::Deliver, 60, 80),
            ev(2, SpanKind::Load, 80, 120),
        ];
        let p = profile(&events);
        assert_eq!(p.window_ns(), 120);
        assert_eq!(p.attributed_ns, 100);
        assert_eq!(p.unattributed_ns(), 20);
        assert!((p.attributed_fraction() - 100.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn profile_takes_the_union_of_partly_overlapping_spans() {
        // Two threads: deliver [50, 150] starts inside build [0, 100]
        // and outlasts it; flush [120, 130] nests in deliver.
        let events = vec![
            ev(0, SpanKind::Build, 0, 100),
            ev(1, SpanKind::Deliver, 50, 150),
            ev(2, SpanKind::Flush, 120, 130),
        ];
        let p = profile(&events);
        assert_eq!(p.attributed_ns, 150);
        assert_eq!(p.get(SpanKind::Build).unwrap().self_ns, 50);
        assert_eq!(p.get(SpanKind::Deliver).unwrap().self_ns, 90);
        assert_eq!(p.get(SpanKind::Flush).unwrap().self_ns, 10);
    }

    #[test]
    fn profile_counts_instants_without_attributing_time() {
        let events = vec![
            ev(0, SpanKind::Load, 0, 100),
            ev(1, SpanKind::Publish, 50, 50),
        ];
        let p = profile(&events);
        assert_eq!(p.get(SpanKind::Publish).unwrap().count, 1);
        assert_eq!(p.get(SpanKind::Publish).unwrap().self_ns, 0);
        assert_eq!(p.get(SpanKind::Load).unwrap().self_ns, 100);
    }

    #[test]
    fn profile_entries_sorted_by_self_time() {
        let events = vec![
            ev(0, SpanKind::Build, 0, 10),
            ev(1, SpanKind::Deliver, 10, 100),
            ev(2, SpanKind::Load, 100, 130),
        ];
        let p = profile(&events);
        let kinds: Vec<SpanKind> = p.entries.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [SpanKind::Deliver, SpanKind::Load, SpanKind::Build]);
    }

    #[test]
    fn assemble_stitches_one_request_across_layers() {
        let clock = SimClock::new();
        let sink = TraceSink::sim(64, clock.clone());
        // Interleave two requests plus untraced background noise.
        {
            let _net = sink.span_traced(SpanKind::NetRead, "conn0", 7);
            clock.advance(SimTime::from_micros(10));
        }
        sink.event(SpanKind::Flush, "background", 0);
        {
            let _serve = sink.span_traced(SpanKind::Serve, "dc0", 7);
            clock.advance(SimTime::from_micros(5));
            let _other = sink.span_traced(SpanKind::Serve, "dc0", 8);
            clock.advance(SimTime::from_micros(5));
        }
        sink.event_traced(SpanKind::Traceback, "dc0/node1", 3, 7);
        let t = assemble(&sink, 7);
        assert_eq!(t.trace_id, 7);
        assert_eq!(t.events.len(), 3);
        assert!(t.events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
        assert_eq!(t.layers(), ["net", "serve", "qindb"]);
        assert!(assemble(&sink, 99).is_empty());
        // id 0 never matches: untraced events are not "one request".
        assert!(assemble(&sink, 0).is_empty());
    }

    #[test]
    fn assembled_trace_json_round_trips_events() {
        let sink = TraceSink::wall(8);
        sink.event_traced(SpanKind::Get, "g0", 1, 5);
        let t = assemble(&sink, 5);
        let v: serde_json::Value = serde_json::from_str(&t.to_json()).unwrap();
        assert_eq!(v.get("trace_id").and_then(|x| x.as_u64()), Some(5));
        let events = v.get("events").and_then(|x| x.as_array()).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(TraceEvent::from_value(&events[0]).unwrap(), t.events[0]);
    }

    #[test]
    fn trace_id_absent_in_old_dumps_decodes_as_zero() {
        let line = r#"{"seq":0,"kind":"flush","label":"n0","start_ns":1,"end_ns":2,"amount":3}"#;
        let e = TraceEvent::from_json(line).unwrap();
        assert_eq!(e.trace_id, 0);
    }

    #[test]
    fn publish_metrics_exports_dropped_and_len() {
        let reg = crate::Registry::new();
        let sink = TraceSink::wall(2);
        for i in 0..5 {
            sink.event(SpanKind::Flush, "n", i);
        }
        sink.publish_metrics(&reg, "obs.trace");
        let report = reg.snapshot();
        assert_eq!(
            report.get("obs.trace.dropped").map(|v| v.as_f64()),
            Some(3.0)
        );
        assert_eq!(report.get("obs.trace.len").map(|v| v.as_f64()), Some(2.0));
    }

    #[test]
    fn every_kind_maps_to_a_layer() {
        for kind in SpanKind::ALL {
            assert!(!kind.layer().is_empty());
        }
    }

    #[test]
    fn top_self_time_ranks_by_exclusive_duration() {
        // deliver [0, 100] encloses flush [10, 90]: the child carries 80
        // of the 100, so it outranks its parent (self 20).
        let events = vec![
            ev(0, SpanKind::Deliver, 0, 100),
            ev(1, SpanKind::Flush, 10, 90),
            ev(2, SpanKind::Build, 200, 230),
        ];
        let top = top_self_time(&events, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0.kind, SpanKind::Flush);
        assert_eq!(top[0].1, 80);
        assert_eq!(top[1].0.kind, SpanKind::Build);
        assert_eq!(top[1].1, 30);
    }
}
