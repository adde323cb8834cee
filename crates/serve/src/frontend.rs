//! The concurrent serving front-end.
//!
//! A pool of worker threads pulls requests from bounded per-shard queues
//! and answers them against a shared [`DirectLoad`] engine in two stages:
//! rank (posting lists) then summaries, with the summary stage served
//! read-through from a [`SummaryCache`]. Admission control keeps the
//! system stable under overload:
//!
//! * **enqueue**: a full shard queue sheds the request, handing its
//!   responder back unused ([`Submitted::Shed`]);
//! * **dequeue**: a request whose deadline passed while queued is served
//!   degraded — ranked normally but with summaries from cache only, and
//!   no modeled storage wait. An *accepted* request always gets a
//!   response; only enqueue-time shedding drops work.
//!
//! Queues are bounded, so offered load beyond capacity turns into shed
//! responses, not unbounded memory growth.
//!
//! Storage service time is modeled explicitly: each full-path request
//! sleeps `terms × rank_service + summary_misses × summary_service`. This
//! stands in for the flash + WAN wait that the simulated clocks charge,
//! and (deliberately) does not depend on concurrent load, so worker
//! scaling measures the front-end, not clock-accounting artifacts.

use crate::cache::SummaryCache;
use bifrost::DataCenterId;
use bytes::Bytes;
use directload::{DirectLoad, SearchHit};
use obs::LatencyHistogram;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Capacity (k) of the per-shard hot-key sketches; frequency error is
/// bounded by `terms_offered / (k + 1)` per shard.
const HOT_KEY_CAPACITY: usize = 32;

/// Front-end tuning.
#[derive(Debug, Clone, Copy)]
pub struct FrontendConfig {
    /// Worker threads (one bounded queue each).
    pub workers: usize,
    /// Per-worker queue bound; beyond this, requests are shed.
    pub queue_depth: usize,
    /// Deadline from enqueue; breached requests are served degraded.
    pub deadline: Duration,
    /// Summary-cache capacity in entries.
    pub cache_capacity: usize,
    /// Summary-cache shard count.
    pub cache_shards: usize,
    /// Hits returned per query.
    pub top_k: usize,
    /// Modeled storage wait per query term (rank stage).
    pub rank_service: Duration,
    /// Modeled storage wait per summary-cache miss.
    pub summary_service: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            cache_capacity: 4096,
            cache_shards: 8,
            top_k: 5,
            rank_service: Duration::from_micros(150),
            summary_service: Duration::from_micros(350),
        }
    }
}

/// A completed answer to one admitted query.
#[derive(Debug, Clone)]
pub struct QueryReply {
    /// The ranked hits.
    pub hits: Vec<SearchHit>,
    /// True when the deadline passed while the request queued: the
    /// summaries came from cache only.
    pub degraded: bool,
}

/// Per-request completion callback: every query carries one, so workers
/// can push the answer back to whoever asked (the network server's
/// connection; a no-op for [`ServeExt::serve`](crate::ServeExt::serve)).
/// An accepted request's responder is invoked exactly once, on whichever
/// worker finishes it.
pub type Responder = Box<dyn FnOnce(QueryReply) + Send + 'static>;

/// One query admitted to the front-end.
struct Request {
    dc: DataCenterId,
    terms: Vec<Bytes>,
    version: u64,
    /// Hits to return for this query (generated load uses the
    /// configured default; network clients choose per request).
    top_k: usize,
    enqueued: Instant,
    deadline: Instant,
    /// Request correlation id (0 = untraced); threaded down through
    /// ranking into Mint and the engines so one id stitches the whole
    /// path.
    trace: u64,
    responder: Responder,
}

struct ShardQueue {
    inner: Mutex<QueueState>,
    ready: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<Request>,
    closed: bool,
}

impl ShardQueue {
    fn new(cap: usize) -> Self {
        ShardQueue {
            inner: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Non-blocking bounded push; a full queue hands the request back.
    fn try_push(&self, req: Request) -> Result<(), Request> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if q.items.len() >= self.cap {
            return Err(req);
        }
        q.items.push_back(req);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` once closed and drained.
    fn pop(&self) -> Option<Request> {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(req) = q.items.pop_front() {
                return Some(req);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut q = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        drop(q);
        self.ready.notify_all();
    }
}

/// Aggregate outcome of one front-end run.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Requests offered (submitted) to the front-end.
    pub offered: u64,
    /// Full-path responses.
    pub served: u64,
    /// Deadline-degraded answers (summaries from cache only).
    pub served_stale: u64,
    /// Requests shed at admission with no response.
    pub shed: u64,
    /// Wall time from front-end start to last worker exit.
    pub wall: Duration,
    /// Response latency (enqueue to completion) in µs, over all responses.
    pub hist: LatencyHistogram,
    /// Summary-cache hits during this run.
    pub summary_hits: u64,
    /// Summary-cache misses during this run (each one a storage fetch).
    pub summary_misses: u64,
    /// Load attribution for the run: per-group/node/DC read cost and
    /// the merged hot-key sketch.
    pub attribution: AttributionReport,
    /// How late the load generator offered each request, in ns after its
    /// due time ([`crate::loadgen`]); empty when no generator of this crate
    /// drove the front-end (the network server's).
    pub lateness: LatencyHistogram,
}

impl ServeReport {
    /// Responses produced (full + degraded).
    pub fn responses(&self) -> u64 {
        self.served + self.served_stale
    }

    /// Responses per second of wall time.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.responses() as f64 / secs
        }
    }

    /// Summary-cache hit rate over this run (0.0 before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let (h, m) = (self.summary_hits as f64, self.summary_misses as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Shed requests over offered requests.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Feeds this run's outcome into a metrics registry under `serve.*`:
    /// the tallies [`LiveStats::publish`] writes, under the same names
    /// and with the same `store` semantics, plus what only a finished
    /// run knows — summary-cache hits and misses and throughput.
    pub fn publish_metrics(&self, reg: &obs::Registry) {
        let tallies = [self.offered, self.served, self.served_stale, self.shed];
        publish_tallies(reg, tallies, &self.hist);
        reg.counter("serve.summary_hits_total")
            .store(self.summary_hits);
        reg.counter("serve.summary_misses_total")
            .store(self.summary_misses);
        reg.gauge("serve.throughput_qps").set(self.throughput_qps());
    }
}

/// Stores the request tallies (`[offered, served, served_stale, shed]`)
/// and the latency percentiles of `hist` under `serve.*` — the one
/// spelling of those names for a finished run and a live one.
fn publish_tallies(reg: &obs::Registry, tallies: [u64; 4], hist: &LatencyHistogram) {
    let [offered, served, served_stale, shed] = tallies;
    reg.counter("serve.offered_total").store(offered);
    reg.counter("serve.served_total").store(served);
    reg.counter("serve.served_stale_total").store(served_stale);
    reg.counter("serve.shed_total").store(shed);
    reg.gauge("serve.latency.p50_us").set(hist.p50() as f64);
    reg.gauge("serve.latency.p99_us").set(hist.p99() as f64);
    reg.gauge("serve.latency.p999_us").set(hist.p999() as f64);
    reg.gauge("serve.latency.mean_us").set(hist.mean());
}

/// One shard's attribution state, owned by the worker serving that
/// shard (the mutex is uncontended except for live telemetry reads).
struct ShardAttribution {
    acc: obs::CostAccumulator,
    sketch: obs::TopKSketch,
}

/// Merged load attribution across every serve shard: where the read
/// cost went (group / node / DC) and which terms were hottest.
#[derive(Debug, Clone)]
pub struct AttributionReport {
    /// Per-group / per-node / per-DC cost buckets.
    pub costs: obs::CostAccumulator,
    /// Hot-term sketch (one offer of weight 1 per term per request).
    pub hot_keys: obs::TopKSketch,
}

/// Live, shared serving tallies — readable *while the front-end runs*,
/// which is what the telemetry sampler needs (the per-run
/// [`ServeReport`] only exists after shutdown). Counters are relaxed
/// atomics; the latency histogram sits behind a mutex that each
/// response touches once (negligible next to the modeled storage wait).
pub struct LiveStats {
    offered: AtomicU64,
    accepted: AtomicU64,
    served: AtomicU64,
    served_stale: AtomicU64,
    shed: AtomicU64,
    hist: Mutex<LatencyHistogram>,
    /// One attribution bucket per shard; merged in shard order so the
    /// combined view is deterministic.
    attribution: Vec<Mutex<ShardAttribution>>,
}

impl LiveStats {
    fn new(shards: usize) -> LiveStats {
        LiveStats {
            offered: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            served_stale: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            hist: Mutex::new(LatencyHistogram::new()),
            attribution: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(ShardAttribution {
                        acc: obs::CostAccumulator::new(),
                        sketch: obs::TopKSketch::new(HOT_KEY_CAPACITY),
                    })
                })
                .collect(),
        }
    }

    fn record_latency(&self, us: u64) {
        self.hist
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(us);
    }

    /// Requests offered so far.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// Requests accepted into a queue so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Full-path responses so far.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Deadline-degraded answers so far (summaries from cache only).
    pub fn served_stale(&self) -> u64 {
        self.served_stale.load(Ordering::Relaxed)
    }

    /// Requests shed with no response so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Responses so far (full + degraded).
    pub fn responses(&self) -> u64 {
        self.served() + self.served_stale()
    }

    /// A snapshot of the cumulative response-latency histogram
    /// (enqueue to completion, µs) — the sampler diffs successive
    /// snapshots into per-window percentiles.
    pub fn hist(&self) -> LatencyHistogram {
        self.hist.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// A snapshot of the merged load attribution so far: every shard's
    /// cost accumulator and hot-key sketch folded in shard order, so
    /// identical workloads render identically.
    pub fn attribution(&self) -> AttributionReport {
        let mut costs = obs::CostAccumulator::new();
        let mut hot_keys = obs::TopKSketch::new(HOT_KEY_CAPACITY);
        for shard in &self.attribution {
            let s = shard.lock().unwrap_or_else(|e| e.into_inner());
            costs.merge(&s.acc);
            hot_keys.merge(&s.sketch);
        }
        AttributionReport { costs, hot_keys }
    }

    /// What these tallies saw over `wall`, as a run's report with no
    /// summary-cache traffic of its own.
    pub fn report(&self, wall: Duration) -> ServeReport {
        ServeReport {
            offered: self.offered(),
            served: self.served(),
            served_stale: self.served_stale(),
            shed: self.shed(),
            wall,
            hist: self.hist(),
            summary_hits: 0,
            summary_misses: 0,
            attribution: self.attribution(),
            lateness: LatencyHistogram::new(),
        }
    }

    /// Republishes the cumulative tallies into `reg` under `serve.*`,
    /// the names [`ServeReport::publish_metrics`] uses, with `store`
    /// semantics: an idempotent re-publish of running totals, for the
    /// telemetry loop.
    pub fn publish(&self, reg: &obs::Registry) {
        let tallies = [&self.offered, &self.served, &self.served_stale, &self.shed];
        let tallies = tallies.map(|n| n.load(Ordering::Relaxed));
        publish_tallies(reg, tallies, &self.hist());
        self.attribution().costs.publish(reg, "serve.attr");
    }
}

/// Shared submission state: queues and the live tallies. Owned on the
/// stack by [`run`] and behind an `Arc` by the long-running [`Frontend`].
struct Core {
    cfg: FrontendConfig,
    queues: Vec<ShardQueue>,
    next_shard: AtomicU64,
    live: Arc<LiveStats>,
}

impl Core {
    fn new(cfg: FrontendConfig) -> Core {
        let workers = cfg.workers.max(1);
        Core {
            queues: (0..workers)
                .map(|_| ShardQueue::new(cfg.queue_depth.max(1)))
                .collect(),
            next_shard: AtomicU64::new(0),
            live: Arc::new(LiveStats::new(workers)),
            cfg,
        }
    }

    fn submit(
        &self,
        dc: DataCenterId,
        terms: Vec<Bytes>,
        version: u64,
        top_k: usize,
        trace_id: u64,
        responder: Responder,
    ) -> Submitted {
        self.live.offered.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed) as usize % self.queues.len();
        let req = Request {
            dc,
            terms,
            version,
            top_k: top_k.max(1),
            enqueued: now,
            deadline: now + self.cfg.deadline,
            trace: trace_id,
            responder,
        };
        match self.queues[shard].try_push(req) {
            Ok(()) => {
                self.live.accepted.fetch_add(1, Ordering::Relaxed);
                Submitted::Accepted
            }
            Err(req) => {
                self.live.shed.fetch_add(1, Ordering::Relaxed);
                Submitted::Shed(req.responder)
            }
        }
    }

    fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }
}

/// Handle the load generator uses to offer requests to the running
/// front-end. Submission is admission-controlled and never blocks on a
/// full queue.
pub struct Submitter<'a> {
    core: &'a Core,
}

/// What happened to one submitted request at admission. A shed request
/// hands its responder back, so the caller can still answer the client
/// (the network server turns it into an `Overloaded` frame).
pub enum Submitted {
    /// Queued; a worker will invoke the responder (full or degraded).
    Accepted,
    /// Queue full: the responder comes back unused.
    Shed(Responder),
}

impl Submitter<'_> {
    /// Offers one query whose answer must reach `responder`. See
    /// [`Submitted`] for the shed contract.
    pub fn submit_query(
        &self,
        dc: DataCenterId,
        terms: Vec<Bytes>,
        version: u64,
        top_k: usize,
        responder: Responder,
    ) -> Submitted {
        self.core.submit(dc, terms, version, top_k, 0, responder)
    }

    /// [`Submitter::submit_query`] carrying a request correlation id:
    /// the worker's `serve` span and every storage read below it emit
    /// with `trace_id`, so `obs::assemble` reconstructs the full path.
    pub fn submit_query_traced(
        &self,
        dc: DataCenterId,
        terms: Vec<Bytes>,
        version: u64,
        top_k: usize,
        trace_id: u64,
        responder: Responder,
    ) -> Submitted {
        self.core
            .submit(dc, terms, version, top_k, trace_id, responder)
    }

    /// Requests accepted into a queue so far.
    pub fn accepted(&self) -> u64 {
        self.core.live.accepted()
    }

    /// Requests offered so far.
    pub fn offered(&self) -> u64 {
        self.core.live.offered()
    }
}

/// Folds one completed request into its shard's attribution bucket:
/// every query term feeds the hot-key sketch (weight 1), and the
/// request's cost record lands in the accumulator under the fronting
/// DC's label.
fn record_attribution(
    attr: &Mutex<ShardAttribution>,
    dc: DataCenterId,
    terms: &[Bytes],
    queue_us: u64,
    service_us: u64,
    reads: Vec<obs::ReadAttribution>,
) {
    let mut shard = attr.lock().unwrap_or_else(|e| e.into_inner());
    for term in terms {
        shard.sketch.offer(term, 1);
    }
    shard.acc.record(
        &format!("dc{}.{}", dc.region.0, dc.slot),
        &obs::Cost {
            queue_us,
            service_us,
            reads,
        },
    );
}

fn worker_loop(
    engine: &DirectLoad,
    core: &Core,
    cache: &SummaryCache,
    shard: usize,
    trace: Option<(&obs::TraceSink, &str)>,
) {
    let cfg = &core.cfg;
    let queue = &core.queues[shard];
    let live = &core.live;
    let attr = &live.attribution[shard];
    while let Some(req) = queue.pop() {
        let dequeued = Instant::now();
        let queue_us = dequeued.duration_since(req.enqueued).as_micros() as u64;
        // One wall-clock span per response: the profiler's view of time
        // spent serving (excludes queue wait, which starts at enqueue).
        // A traced request's span carries its id so the storage spans
        // below nest under the same trace.
        let mut span = trace.map(|(t, l)| t.span_traced(obs::SpanKind::Serve, l, req.trace));
        let term_refs: Vec<&[u8]> = req.terms.iter().map(|t| t.as_ref()).collect();
        // Rank errors (e.g. quorum loss mid-run) degrade to an empty
        // ranking; the request still gets a response.
        let (ranked, reads) = engine
            .rank_costed(req.dc, &term_refs, req.version, req.top_k, req.trace)
            .map(|(r, reads)| (r.ranked, reads))
            .unwrap_or_default();
        // Deadline breached while queued: answer degraded — cached
        // summaries only, no storage fetch, no modeled wait.
        let degraded = Instant::now() >= req.deadline;
        let mut misses = 0u32;
        let hits: Vec<SearchHit> = ranked
            .into_iter()
            .map(|(url, matched_terms)| {
                let summary = if degraded {
                    cache.peek(req.dc, &url, req.version).flatten()
                } else {
                    let (summary, hit) = cache
                        .get_or_fetch(engine, req.dc, &url, req.version)
                        .map_or((None, false), |(summary, hit, _sim_latency)| (summary, hit));
                    misses += u32::from(!hit);
                    summary
                };
                SearchHit {
                    url,
                    matched_terms,
                    summary,
                }
            })
            .collect();
        if !degraded {
            let service = cfg.rank_service * req.terms.len() as u32 + cfg.summary_service * misses;
            if !service.is_zero() {
                std::thread::sleep(service);
            }
        }
        // Close the serve span before responding: writing the reply is
        // the net layer's time, and a traced client may assemble the
        // trace the instant the response lands.
        if let Some(mut s) = span.take() {
            s.set_amount(1);
        }
        (req.responder)(QueryReply { hits, degraded });
        let tally = if degraded {
            &live.served_stale
        } else {
            &live.served
        };
        tally.fetch_add(1, Ordering::Relaxed);
        live.record_latency(req.enqueued.elapsed().as_micros() as u64);
        // A degraded answer still ranked, so its storage reads are
        // attributed like any other request's.
        record_attribution(
            attr,
            req.dc,
            &req.terms,
            queue_us,
            dequeued.elapsed().as_micros() as u64,
            reads,
        );
    }
}

/// Runs the front-end: spawns `cfg.workers` workers against `engine`,
/// hands the `generator` a [`Submitter`], and once the generator returns,
/// drains the queues, joins the workers, and reports.
///
/// The summary `cache` is borrowed so callers can keep it warm across
/// runs (and invalidate it on publishes); [`crate::ServeExt::serve`]
/// builds a fresh one per call.
pub fn run<F>(
    engine: &DirectLoad,
    cfg: &FrontendConfig,
    cache: &SummaryCache,
    generator: F,
) -> ServeReport
where
    F: FnOnce(&Submitter<'_>),
{
    let core = Core::new(*cfg);
    let hits_before = cache.hits();
    let misses_before = cache.misses();
    let start = Instant::now();
    let core_ref = &core;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..core.queues.len())
            .map(|i| s.spawn(move || worker_loop(engine, core_ref, cache, i, None)))
            .collect();
        generator(&Submitter { core: core_ref });
        core.close();
        for h in handles {
            h.join().expect("serve worker panicked");
        }
    });
    let wall = start.elapsed();
    finish_report(&core, wall, cache, hits_before, misses_before)
}

/// Snapshots the live tallies into a per-run report.
fn finish_report(
    core: &Core,
    wall: Duration,
    cache: &SummaryCache,
    hits_before: u64,
    misses_before: u64,
) -> ServeReport {
    ServeReport {
        summary_hits: cache.hits() - hits_before,
        summary_misses: cache.misses() - misses_before,
        ..core.live.report(wall)
    }
}

/// A long-running front-end that owns its worker threads — the network
/// server's serving core. Unlike [`run`], which scopes workers to one
/// generator call, this keeps accepting queries until
/// [`Frontend::shutdown`]. The engine and summary cache are shared via
/// `Arc` because connection threads outlive any one stack frame.
pub struct Frontend {
    core: Arc<Core>,
    cache: Arc<SummaryCache>,
    handles: Vec<std::thread::JoinHandle<()>>,
    start: Instant,
    hits_before: u64,
    misses_before: u64,
}

impl Frontend {
    /// Spawns `cfg.workers` owned worker threads against `engine`. Each
    /// worker emits a `serve` span per response into `trace` when given,
    /// labeled `serve/w<worker>`, so the phase profiler can attribute
    /// serving time alongside the pipeline phases.
    pub fn start(
        engine: Arc<DirectLoad>,
        cfg: FrontendConfig,
        cache: Arc<SummaryCache>,
        trace: Option<obs::TraceSink>,
    ) -> Frontend {
        let core = Arc::new(Core::new(cfg));
        let hits_before = cache.hits();
        let misses_before = cache.misses();
        let handles = (0..core.queues.len())
            .map(|i| {
                let engine = Arc::clone(&engine);
                let core = Arc::clone(&core);
                let cache = Arc::clone(&cache);
                let trace = trace.clone();
                std::thread::Builder::new()
                    .name(format!("serve-w{i}"))
                    .spawn(move || {
                        let label = format!("serve/w{i}");
                        let t = trace.as_ref().map(|t| (t, label.as_str()));
                        worker_loop(&engine, &core, &cache, i, t)
                    })
                    .expect("spawn serve worker")
            })
            .collect();
        Frontend {
            core,
            cache,
            handles,
            start: Instant::now(),
            hits_before,
            misses_before,
        }
    }

    /// A submission handle; clone-free and cheap, valid for the
    /// front-end's lifetime.
    pub fn submitter(&self) -> Submitter<'_> {
        Submitter { core: &self.core }
    }

    /// The shared live tallies, readable while the front-end runs. The
    /// handle stays valid (frozen) after [`Frontend::shutdown`], so a
    /// telemetry thread holding one never races the teardown.
    pub fn live(&self) -> Arc<LiveStats> {
        Arc::clone(&self.core.live)
    }

    /// Closes the queues, joins the workers (they drain what was already
    /// accepted), and reports — same accounting as [`run`].
    pub fn shutdown(self) -> ServeReport {
        self.core.close();
        for h in self.handles {
            h.join().expect("serve worker panicked");
        }
        let wall = self.start.elapsed();
        finish_report(
            &self.core,
            wall,
            &self.cache,
            self.hits_before,
            self.misses_before,
        )
    }
}
