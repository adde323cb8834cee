//! The blocking-socket server runtime.
//!
//! Threading model (DESIGN.md §11): one accept thread, one reader
//! thread per connection, and the `serve` crate's worker pool doing the
//! actual query work. A connection thread decodes frames and dispatches;
//! `Get` requests go through [`serve::Frontend`]'s bounded queues with a
//! per-request responder, so the answer is written back by whichever
//! worker finishes it — pipelined responses leave in completion order
//! and the client matches them by request id. `ScanPrefix`, `Status`,
//! and `Introspect` are served inline on the connection thread (pure
//! reads, no service-time model).
//!
//! Backpressure is admission control, not blocking: a full worker queue
//! sheds the request and the client gets an `Overloaded` error frame
//! immediately — the same reject-don't-buffer discipline the in-process
//! front-end enforces, now visible on the wire.
//!
//! Topology awareness lives below the socket: every `Get` ranks and
//! fetches through Mint, which routes each read on its live group
//! tables, so the first request after a placement cutover (or
//! failure/recovery) already avoids the moved node. `Status` reports the
//! per-DC routing generations for clients that watch topology.
//!
//! Telemetry: a background thread ticks an [`obs::Sampler`] over the
//! engine's registry every `telemetry_interval_ms`, deriving windowed
//! rates and percentiles, and evaluates the configured SLOs against
//! those series. `Introspect` answers with a typed
//! [`obs::TelemetryFrame`] (JSON on the wire) — cumulative metrics,
//! series, per-layer health rows, SLO statuses, and top self-time
//! spans — which is what `directload-top` renders.
//!
//! Tracing: every request gets a [`obs::TraceCtx`] — a server-allocated
//! `trace_id` (or the client's own, when its v2 frame carries a nonzero
//! one) plus the connection sequence as origin. The id is threaded
//! through the serve front-end into mint and qindb span labels and
//! echoed in the response frame, so a client can hand it to
//! [`obs::trace::assemble`] and see its request's whole path.

use crate::wire::{self, DcGeneration, ErrorCode, ReadFrame, Request, Response, WireHit};
use directload::DirectLoad;
use obs::{Counter, LayerRow, Sampler, SloEngine, SloStatus, TelemetryFrame, TopSpan, TraceCtx};
use serve::frontend::{Frontend, FrontendConfig, QueryReply, Responder, Submitted};
use serve::{LiveStats, ServeReport, SummaryCache};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The serve front-end behind the socket (workers, queues,
    /// admission, service model).
    pub frontend: FrontendConfig,
    /// Ceiling on accepted frame sizes.
    pub max_frame: usize,
    /// Telemetry sampling period; `0` disables the sampler thread
    /// (Introspect then reports cumulative metrics with empty series).
    pub telemetry_interval_ms: u64,
    /// Service-level objectives, one [`obs::SloSpec`] line each
    /// (blank lines and `#` comments ignored). Evaluated every
    /// telemetry tick against the sampler's windowed series.
    pub slos: String,
}

/// Points retained per derived series (a ring; oldest evicted).
const SERIES_CAPACITY: usize = 512;

/// The objectives a server watches unless told otherwise: windowed
/// serve p99 under a quarter second, and an essentially error-free
/// wire. Loose on purpose — defaults should page on fire, not noise.
pub const DEFAULT_SLOS: &str = "\
serve_p99: serve.latency.p99 < 250000 over 10s
net_errors: net.protocol_errors_total.rate <= 0.5 over 10s
";

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            frontend: FrontendConfig::default(),
            max_frame: wire::DEFAULT_MAX_FRAME,
            telemetry_interval_ms: 1000,
            slos: DEFAULT_SLOS.to_string(),
        }
    }
}

/// Pre-registered `net.*` counter handles (registration is not hot-path
/// safe; updates are one relaxed atomic each).
struct Metrics {
    connections: Counter,
    frames_in: Counter,
    frames_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    requests: Counter,
    protocol_errors: Counter,
    gets: Counter,
    scans: Counter,
    statuses: Counter,
    introspects: Counter,
    overloaded: Counter,
    write_errors: Counter,
}

impl Metrics {
    fn new(reg: &obs::Registry) -> Metrics {
        Metrics {
            connections: reg.counter("net.connections_total"),
            frames_in: reg.counter("net.frames_in_total"),
            frames_out: reg.counter("net.frames_out_total"),
            bytes_in: reg.counter("net.bytes_in_total"),
            bytes_out: reg.counter("net.bytes_out_total"),
            requests: reg.counter("net.requests_total"),
            protocol_errors: reg.counter("net.protocol_errors_total"),
            gets: reg.counter("net.op.get_total"),
            scans: reg.counter("net.op.scan_total"),
            statuses: reg.counter("net.op.status_total"),
            introspects: reg.counter("net.op.introspect_total"),
            overloaded: reg.counter("net.overloaded_total"),
            write_errors: reg.counter("net.write_errors_total"),
        }
    }
}

struct Shared {
    engine: Arc<DirectLoad>,
    /// `None` only during shutdown; requests racing the teardown get a
    /// clean `Internal` error instead of a hang.
    frontend: RwLock<Option<Frontend>>,
    cfg: ServerConfig,
    metrics: Metrics,
    trace: obs::TraceSink,
    shutdown: AtomicBool,
    /// Stream clones for forced close at shutdown (read loops block).
    conns: Mutex<Vec<TcpStream>>,
    /// The front-end's live counters/histogram, shared with the
    /// telemetry thread (valid and frozen after front-end shutdown).
    live: Arc<LiveStats>,
    /// Windowed time series over the registry, fed by the telemetry
    /// thread, read by `Introspect`.
    sampler: Mutex<Sampler>,
    /// Objective evaluator; owns the breach/recovery state machine.
    slo: Mutex<SloEngine>,
    /// Statuses from the most recent telemetry tick.
    last_slos: Mutex<Vec<SloStatus>>,
    /// Telemetry epoch: tick times are nanoseconds since server start.
    started: Instant,
    /// Trace-id allocator. Starts at 1; 0 means untraced on the wire.
    next_trace: AtomicU64,
    /// Connection sequence, recorded as [`TraceCtx::origin`].
    next_conn: AtomicU64,
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_handle: std::thread::JoinHandle<()>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    /// Dropping the sender wakes the telemetry thread to exit.
    telemetry: Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>,
}

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port), starts the
    /// front-end workers and the accept thread, and returns immediately.
    /// Counters register under `net.*` in the engine's registry; spans
    /// go to the engine's wall-clock trace sink.
    pub fn start(
        engine: Arc<DirectLoad>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let cache = Arc::new(SummaryCache::new(
            cfg.frontend.cache_capacity,
            cfg.frontend.cache_shards,
        ));
        let trace = engine.wall_trace().clone();
        let frontend = Frontend::start(
            Arc::clone(&engine),
            cfg.frontend,
            cache,
            Some(trace.clone()),
        );
        let live = frontend.live();
        let metrics = Metrics::new(engine.registry());
        let slo = SloEngine::from_lines(&cfg.slos)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let mut sampler = Sampler::new(engine.registry().clone(), SERIES_CAPACITY);
        {
            let live = Arc::clone(&live);
            sampler.add_histogram("serve.latency", move || live.hist());
        }
        let telemetry_interval = cfg.telemetry_interval_ms;
        let shared = Arc::new(Shared {
            engine,
            frontend: RwLock::new(Some(frontend)),
            cfg,
            metrics,
            trace,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            live,
            sampler: Mutex::new(sampler),
            slo: Mutex::new(slo),
            last_slos: Mutex::new(Vec::new()),
            started: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
        });
        // A thread that cannot be spawned fails the start, and what
        // already runs is stopped first.
        let conn_handles = Arc::new(Mutex::new(Vec::new()));
        let spawned = {
            let (shared, handles) = (Arc::clone(&shared), Arc::clone(&conn_handles));
            std::thread::Builder::new()
                .name("net-accept".into())
                .spawn(move || accept_loop(listener, shared, handles))
        };
        let accept_handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                stop_frontend(&shared);
                return Err(e);
            }
        };
        let mut server = Server {
            shared,
            local_addr,
            accept_handle,
            conn_handles,
            telemetry: None,
        };
        if telemetry_interval > 0 {
            let (tx, rx) = mpsc::channel();
            let shared = Arc::clone(&server.shared);
            let interval = Duration::from_millis(telemetry_interval);
            let spawned = std::thread::Builder::new()
                .name("net-telemetry".into())
                .spawn(move || telemetry_loop(shared, rx, interval));
            match spawned {
                Ok(handle) => server.telemetry = Some((tx, handle)),
                Err(e) => {
                    server.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(server)
    }

    /// The bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every connection, drains the front-end
    /// workers, and returns the serving report (same accounting as the
    /// in-process front-end).
    pub fn shutdown(self) -> ServeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Stop the telemetry ticker first so its final state is what
        // Introspect observers saw last.
        if let Some((tx, handle)) = self.telemetry {
            drop(tx);
            let _ = handle.join();
        }
        // The accept loop blocks in accept(); poke it awake.
        let _ = TcpStream::connect(self.local_addr);
        let _ = self.accept_handle.join();
        // Close both directions of every connection so reader threads
        // fall out of their blocking reads.
        for conn in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        for h in self
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = h.join();
        }
        // Only a failed start takes the front end early, and that leaves
        // no server to shut down; were it gone, its live tallies report.
        let shared = &self.shared;
        stop_frontend(shared).unwrap_or_else(|| shared.live.report(shared.started.elapsed()))
    }
}

/// Takes the front end out of service and drains it: its report, or
/// `None` when it is already gone.
fn stop_frontend(shared: &Shared) -> Option<ServeReport> {
    let frontend = shared
        .frontend
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .take();
    frontend.map(Frontend::shutdown)
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            break; // the wake-up connection itself lands here
        }
        shared.metrics.connections.inc();
        shared
            .trace
            .event(obs::SpanKind::Accept, &format!("net/{peer}"), 1);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(clone);
        }
        let shared_conn = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name(format!("net-conn-{peer}"))
            .spawn(move || connection_loop(stream, shared_conn));
        match spawned {
            Ok(handle) => {
                let mut handles = handles.lock().unwrap_or_else(|e| e.into_inner());
                // Forget connections that already ended, so a long-lived
                // server holds one handle per *live* connection.
                handles.retain(|h| !h.is_finished());
                handles.push(handle);
            }
            Err(_) => {
                // The OS refused a thread. The failed spawn dropped this
                // connection's stream; dropping its registered clone
                // closes the socket, and the server keeps accepting.
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|c| c.peer_addr().ok() != Some(peer));
            }
        }
    }
}

/// Ticks the sampler until the stop sender drops (shutdown) — a
/// `recv_timeout` doubles as the interval timer.
fn telemetry_loop(shared: Arc<Shared>, stop: mpsc::Receiver<()>, interval: Duration) {
    while let Err(mpsc::RecvTimeoutError::Timeout) = stop.recv_timeout(interval) {
        telemetry_tick(&shared);
    }
}

/// One telemetry tick: refresh every cumulative counter in the
/// registry, sample them into the time series, and re-evaluate SLOs.
fn telemetry_tick(shared: &Shared) {
    let now_ns = shared.started.elapsed().as_nanos() as u64;
    // `introspect` republishes qindb/ssd/bifrost/pipeline counters with
    // store semantics (idempotent), so the sampler sees fresh values;
    // the front-end's live stats publish the serve.* side the same way.
    let _ = shared.engine.introspect();
    shared.live.publish(shared.engine.registry());
    let mut sampler = shared.sampler.lock().unwrap_or_else(|e| e.into_inner());
    sampler.tick(now_ns);
    let statuses = shared
        .slo
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .evaluate(
            &sampler,
            now_ns,
            shared.engine.registry(),
            Some(&shared.trace),
        );
    *shared.last_slos.lock().unwrap_or_else(|e| e.into_inner()) = statuses;
}

/// Derives the console's per-layer health rows from the sampler's most
/// recent window. A layer with no matching series yet (sampler warming
/// up, or telemetry disabled) reports `None`s, not zeros — "unknown"
/// and "idle" are different answers.
fn layer_rows(sampler: &Sampler) -> Vec<LayerRow> {
    let v = |name: &str| sampler.latest(name);
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    vec![
        LayerRow {
            layer: "net".into(),
            qps: v("net.requests_total.rate"),
            p99_us: None,
            err_rate: ratio(
                v("net.protocol_errors_total.rate"),
                v("net.requests_total.rate"),
            ),
        },
        LayerRow {
            layer: "serve".into(),
            qps: v("serve.served_total.rate"),
            p99_us: v("serve.latency.p99"),
            err_rate: ratio(v("serve.shed_total.rate"), v("serve.offered_total.rate")),
        },
        // Every Mint read is one engine get per replica it consults, so
        // the engine get rate *is* Mint's storage-read rate.
        LayerRow {
            layer: "mint".into(),
            qps: v("qindb.gets.rate"),
            p99_us: None,
            err_rate: None,
        },
        LayerRow {
            layer: "qindb".into(),
            qps: v("qindb.gets.rate"),
            p99_us: None,
            err_rate: ratio(v("qindb.gets_not_found.rate"), v("qindb.gets.rate")),
        },
        // The log layer below the engines: append rate stands in for
        // QPS; it has no latency histogram or error signal.
        LayerRow {
            layer: "wal".into(),
            qps: v("wal.appends.rate"),
            p99_us: None,
            err_rate: None,
        },
    ]
}

/// Builds the typed `Introspect` payload: cumulative metrics, the
/// sampler's series, layer rows, last-tick SLO statuses, and the top
/// self-time spans from the wall trace.
fn telemetry_frame(shared: &Shared) -> TelemetryFrame {
    let now_ns = shared.started.elapsed().as_nanos() as u64;
    shared.live.publish(shared.engine.registry());
    let report = shared.engine.introspect();
    let (series, layers) = {
        let sampler = shared.sampler.lock().unwrap_or_else(|e| e.into_inner());
        (sampler.to_value(), layer_rows(&sampler))
    };
    let slos = shared
        .last_slos
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let top_spans = TopSpan::rank(&shared.trace.snapshot(), 8);
    // Load attribution: the front-end's merged cost buckets and hot-key
    // sketch, plus the engine's WAN ledger split by traffic class.
    let attribution = shared.live.attribution();
    let mut hot_groups = attribution.costs.group_heat();
    hot_groups.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    hot_groups.retain(|&(_, heat)| heat > 0);
    let hot_keys = attribution
        .hot_keys
        .entries()
        .into_iter()
        .map(|(key, count)| (String::from_utf8_lossy(&key).into_owned(), count))
        .collect();
    let wan = shared.engine.wan().dc_rows();
    TelemetryFrame {
        now_ns,
        metrics: TelemetryFrame::metrics_from_report(&report),
        series,
        layers,
        slos,
        top_spans,
        hot_groups,
        hot_keys,
        wan,
    }
}

/// Writes one response frame to the connection, under the writer lock
/// (workers and the connection thread interleave here).
///
/// An answer larger than `max_frame` is replaced by a `BadRequest`
/// error: the peer's `read_frame` would reject the frame, close the
/// connection, and lose every request pipelined behind this one.
fn send_response(
    shared: &Shared,
    writer: &Mutex<TcpStream>,
    req_id: u64,
    trace_id: u64,
    resp: &Response,
) {
    let mut frame = wire::encode_response(req_id, trace_id, resp);
    if frame.len() - 4 > shared.cfg.max_frame {
        frame = wire::encode_response(
            req_id,
            trace_id,
            &Response::Error {
                code: ErrorCode::BadRequest,
                message: "response exceeds max frame".into(),
            },
        );
    }
    let metrics = &shared.metrics;
    let mut span = shared
        .trace
        .span_traced(obs::SpanKind::NetWrite, "net/write", trace_id);
    span.set_amount(frame.len() as u64);
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    match w.write_all(&frame) {
        Ok(()) => {
            metrics.frames_out.inc();
            metrics.bytes_out.add(frame.len() as u64);
        }
        Err(_) => {
            // The client went away mid-response; its next read (if any)
            // sees the close. Nothing to unwind server-side.
            metrics.write_errors.inc();
        }
    }
}

fn connection_loop(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let conn_seq = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let mut reader = match stream.try_clone() {
        Ok(s) => std::io::BufReader::new(s),
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    loop {
        let body = match wire::read_frame(&mut reader, shared.cfg.max_frame) {
            Ok(ReadFrame::Frame(body)) => body,
            Ok(ReadFrame::Eof) => break,
            Err(e) => {
                // Distinguish protocol damage (count it) from a plain
                // transport teardown (shutdown path, client kill).
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                ) {
                    shared.metrics.protocol_errors.inc();
                }
                break;
            }
        };
        shared.metrics.frames_in.inc();
        shared.metrics.bytes_in.add(body.len() as u64 + 4);
        shared
            .trace
            .event(obs::SpanKind::NetRead, "net/read", body.len() as u64 + 4);
        let (req_id, wire_trace, req) = match wire::decode_request(&body) {
            Ok(decoded) => decoded,
            Err(_) => {
                // Framing is untrustworthy after a bad frame; close.
                shared.metrics.protocol_errors.inc();
                break;
            }
        };
        shared.metrics.requests.inc();
        // A client that already carries a trace id (a relay, a test
        // harness) keeps it; everyone else gets a fresh one. 0 is
        // reserved for "untraced" and never allocated.
        let trace_id = if wire_trace != 0 {
            wire_trace
        } else {
            shared.next_trace.fetch_add(1, Ordering::Relaxed)
        };
        let ctx = TraceCtx {
            trace_id,
            origin: conn_seq,
        };
        dispatch(&shared, &writer, req_id, ctx, req);
    }
    // Drop our registered clone so the shutdown list stays bounded for
    // long-lived servers with connection churn. The client's ephemeral
    // (peer) address identifies the connection; if the socket is already
    // dead the entry stays until shutdown, which is harmless.
    let me = writer
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .peer_addr()
        .ok();
    if let Some(me) = me {
        shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|c| c.peer_addr().ok() != Some(me));
    }
}

fn dispatch(
    shared: &Arc<Shared>,
    writer: &Arc<Mutex<TcpStream>>,
    req_id: u64,
    ctx: TraceCtx,
    req: Request,
) {
    let trace_id = ctx.trace_id;
    let mut span = shared
        .trace
        .span_traced(obs::SpanKind::Dispatch, "net/dispatch", trace_id);
    span.set_amount(ctx.origin);
    match req {
        Request::Get {
            dc,
            terms,
            version,
            top_k,
        } => {
            shared.metrics.gets.inc();
            let version = if version == 0 {
                shared.engine.version()
            } else {
                version
            };
            let top_k = if top_k == 0 {
                shared.cfg.frontend.top_k
            } else {
                top_k as usize
            };
            let responder: Responder = {
                let writer = Arc::clone(writer);
                let shared = Arc::clone(shared);
                Box::new(move |reply: QueryReply| {
                    let hits = reply
                        .hits
                        .iter()
                        .map(|h| WireHit {
                            url: h.url.clone(),
                            matched_terms: h.matched_terms as u32,
                            summary: h.summary.clone(),
                        })
                        .collect();
                    send_response(
                        &shared,
                        &writer,
                        req_id,
                        trace_id,
                        &Response::Hits {
                            degraded: reply.degraded,
                            hits,
                        },
                    );
                })
            };
            let guard = shared.frontend.read().unwrap_or_else(|e| e.into_inner());
            let outcome = match guard.as_ref() {
                Some(frontend) => frontend
                    .submitter()
                    .submit_query_traced(dc, terms, version, top_k, trace_id, responder),
                None => Submitted::Shed(responder),
            };
            if let Submitted::Shed(_) = outcome {
                shared.metrics.overloaded.inc();
                send_response(
                    shared,
                    writer,
                    req_id,
                    trace_id,
                    &Response::Error {
                        code: ErrorCode::Overloaded,
                        message: "shed at admission".into(),
                    },
                );
            }
        }
        Request::ScanPrefix {
            dc,
            kind,
            prefix,
            version,
            limit,
        } => {
            shared.metrics.scans.inc();
            let version = if version == 0 {
                shared.engine.version()
            } else {
                version
            };
            let resp = match shared
                .engine
                .scan_prefix(dc, kind, &prefix, version, limit as usize)
            {
                Ok((items, truncated)) => Response::Scan { items, truncated },
                Err(e) => Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                },
            };
            send_response(shared, writer, req_id, trace_id, &resp);
        }
        Request::Status => {
            shared.metrics.statuses.inc();
            let generations = shared
                .engine
                .dc_ids()
                .into_iter()
                .filter_map(|dc| {
                    shared.engine.cluster(dc).ok().map(|c| DcGeneration {
                        dc,
                        generation: c.routing_generation(),
                    })
                })
                .collect();
            let resp = Response::Status {
                current_version: shared.engine.version(),
                min_live_version: shared.engine.min_live_version(),
                generations,
            };
            send_response(shared, writer, req_id, trace_id, &resp);
        }
        Request::Introspect => {
            shared.metrics.introspects.inc();
            let resp = Response::Introspect {
                json: telemetry_frame(shared).to_json(),
            };
            send_response(shared, writer, req_id, trace_id, &resp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use directload::DirectLoadConfig;
    use std::io::Read;

    #[test]
    fn accept_loop_prunes_finished_connection_handles() {
        let engine = Arc::new(DirectLoad::new(DirectLoadConfig::small()));
        let cfg = ServerConfig {
            telemetry_interval_ms: 0,
            ..ServerConfig::default()
        };
        let server = Server::start(engine, "127.0.0.1:0", cfg).expect("bind");
        for _ in 0..200 {
            let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
            // Half-close and wait for the server's close: its connection
            // thread has then left `connection_loop`.
            conn.shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut buf = [0u8; 1];
            assert_eq!(conn.read(&mut buf).expect("read close"), 0);
        }
        let held = server
            .conn_handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len();
        assert!(
            held <= 8,
            "{held} handles held after 200 closed connections"
        );
        server.shutdown();
    }
}
