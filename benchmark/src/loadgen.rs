//! The benchmark's own load generator.
//!
//! Open loop: requests leave on a fixed schedule whatever the system does,
//! each is timed **from its due time**, and how late the generator ran is
//! reported. Closed loop: a fixed number of requests stay in flight and
//! the next leaves when one returns. Both come in an in-process flavour
//! (`serve::frontend::run` + `Submitter::submit_query`, answers through a
//! `Responder`) and a socket flavour (own framing over a `TcpStream` with
//! `net::wire`), use one generator thread and one connection (the open
//! loop over the socket a second thread to receive), and end on the last
//! response.

use crate::oracle::{Hit, Oracle};
use crate::stats::{latency_from_due, Window};
use bifrost::DataCenterId;
use bytes::Bytes;
use directload::DirectLoad;
use indexgen::Query;
use net::wire::{self, ReadFrame, Request, Response};
use serve::{FrontendConfig, QueryReply, ServeReport, Submitted, Submitter, SummaryCache};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One reply in this many is kept and compared with the oracle.
pub const SAMPLE_EVERY: usize = 16;

/// How long a client waits for a response before the request counts as
/// timed out and the phase stops; later than the front end's deadline.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The seeded query sequence; request `i` asks data center `i mod 6` for
/// query `i mod len`.
pub struct Stream {
    pub queries: Vec<Query>,
    pub dcs: Vec<DataCenterId>,
}

impl Stream {
    pub fn dc(&self, i: usize) -> DataCenterId {
        self.dcs[i % self.dcs.len()]
    }

    pub fn terms(&self, i: usize) -> &[Bytes] {
        &self.queries[i % self.queries.len()].terms
    }

    pub fn request(&self, i: usize, version: u64, top_k: usize) -> Request {
        Request::Get {
            dc: self.dc(i),
            terms: self.terms(i).to_vec(),
            version,
            top_k: top_k as u32,
        }
    }
}

/// An open-loop phase: `warm_s` of untimed traffic, then one window of
/// `window_s` seconds, both at `qps`, starting at request `first` of the
/// stream. A run measures several phases, each with fresh threads and
/// connections, because a phase as a whole can land in a slower scheduling
/// regime; the median over phases is steadier than windows of one phase.
#[derive(Debug, Clone, Copy)]
pub struct OpenPlan {
    pub qps: f64,
    pub warm_s: f64,
    pub window_s: f64,
    pub first: usize,
}

impl OpenPlan {
    pub fn requests(&self) -> usize {
        (self.qps * (self.warm_s + self.window_s)).round() as usize
    }

    fn interval_ns(&self) -> f64 {
        1e9 / self.qps
    }

    fn due_ns(&self, k: usize) -> u64 {
        (k as f64 * self.interval_ns()) as u64
    }

    /// Whether request `k` is due after the warm-up.
    fn timed(&self, k: usize) -> bool {
        self.due_ns(k) as f64 / 1e9 >= self.warm_s
    }
}

/// What an open-loop phase saw.
#[derive(Debug, Default)]
pub struct OpenOutcome {
    pub offered: u64,
    /// Refused at admission (queue full, `Overloaded` frame).
    pub shed: u64,
    /// Answered degraded or with an error frame.
    pub errors: u64,
    /// Never answered.
    pub timeouts: u64,
    pub window: Window,
    /// How late each request left, in nanoseconds after its due time.
    pub lateness_ns: Vec<u64>,
    /// `(request index, reply)` for one reply in [`SAMPLE_EVERY`].
    pub samples: Vec<(usize, Vec<Hit>)>,
}

impl OpenOutcome {
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }
}

/// A closed-loop phase: one client (one connection on the socket path)
/// keeps `in_flight` requests outstanding. The same client, workers and
/// connection run the whole phase; after `warm_s` the answers are counted
/// in `windows` consecutive windows of `window_s` seconds.
#[derive(Debug, Clone, Copy)]
pub struct ClosedPlan {
    pub in_flight: usize,
    pub warm_s: f64,
    pub window_s: f64,
    pub windows: usize,
    pub first: usize,
}

#[derive(Debug, Default)]
pub struct ClosedOutcome {
    pub offered: u64,
    pub shed: u64,
    pub errors: u64,
    pub timeouts: u64,
    /// Answers that arrived inside each window.
    pub answered: Vec<u64>,
    pub samples: Vec<(usize, Vec<Hit>)>,
}

impl ClosedOutcome {
    fn new(plan: &ClosedPlan) -> ClosedOutcome {
        ClosedOutcome {
            answered: vec![0; plan.windows],
            ..ClosedOutcome::default()
        }
    }

    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts
    }
}

/// An in-process reply in the oracle's terms.
pub fn hits_of_reply(reply: &QueryReply) -> Vec<Hit> {
    reply
        .hits
        .iter()
        .map(|h| (h.url.clone(), h.matched_terms as u32, h.summary.clone()))
        .collect()
}

/// A wire reply in the oracle's terms.
pub fn hits_of_wire(hits: &[wire::WireHit]) -> Vec<Hit> {
    hits.iter()
        .map(|h| (h.url.clone(), h.matched_terms, h.summary.clone()))
        .collect()
}

/// Books a response frame: the hits of an answered query, or a shed or
/// failed request counted where it belongs. A degraded answer still has
/// hits but counts as an error.
fn answered_hits(resp: Response, shed: &mut u64, errors: &mut u64) -> Option<Vec<wire::WireHit>> {
    match resp {
        Response::Hits { degraded, hits } => {
            *errors += degraded as u64;
            Some(hits)
        }
        Response::Error {
            code: wire::ErrorCode::Overloaded,
            ..
        } => {
            *shed += 1;
            None
        }
        _ => {
            *errors += 1;
            None
        }
    }
}

/// How long before a due time the generator stops sleeping and polls the
/// clock instead. A plain sleep wakes 90 us late on this sandbox (timer
/// slack plus wake-up), which timing from due time would charge to every
/// request; polling the whole interval would take a core from the system.
const POLL_BEFORE_DUE_NS: u64 = 100_000;

/// Waits until `due_ns` after `epoch`; returns the time it actually is.
fn wait_until(epoch: Instant, due_ns: u64) -> u64 {
    let now = epoch.elapsed().as_nanos() as u64;
    if now + POLL_BEFORE_DUE_NS < due_ns {
        std::thread::sleep(Duration::from_nanos(due_ns - now - POLL_BEFORE_DUE_NS));
    }
    loop {
        let now = epoch.elapsed().as_nanos() as u64;
        if now >= due_ns {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Compares the sampled replies with the oracle; returns the mismatches.
pub fn mismatches(
    samples: &[(usize, Vec<Hit>)],
    stream: &Stream,
    oracle: &Oracle,
    version: u64,
    top_k: usize,
) -> u64 {
    samples
        .iter()
        .filter(|(i, got)| oracle.search(stream.terms(*i), version, top_k).as_ref() != Some(got))
        .count() as u64
}

/// Per-request completion slots shared with the responders: latency from
/// due time (0 = not answered), plus the sampled replies.
struct Slots {
    latency_ns: Vec<AtomicU64>,
    degraded: AtomicU64,
    samples: Mutex<Vec<(usize, Vec<Hit>)>>,
}

impl Slots {
    fn new(n: usize) -> Arc<Slots> {
        Arc::new(Slots {
            latency_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            degraded: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        })
    }

    /// Folds the slots into an outcome once every responder has run.
    fn finish(&self, plan: &OpenPlan, shed: u64, lateness_ns: Vec<u64>) -> OpenOutcome {
        let mut window = Window::default();
        let mut unanswered = 0u64;
        for (k, slot) in self.latency_ns.iter().enumerate() {
            match slot.load(Ordering::Acquire) {
                0 => unanswered += 1,
                ns if plan.timed(k) => window.latencies_ns.push(ns),
                _ => {}
            }
        }
        OpenOutcome {
            offered: self.latency_ns.len() as u64,
            shed,
            errors: self.degraded.load(Ordering::Relaxed),
            timeouts: unanswered - shed,
            window,
            lateness_ns,
            samples: std::mem::take(&mut self.samples.lock().expect("sample lock")),
        }
    }
}

/// Open loop through the in-process front end: one generator thread paces
/// `submit_query`; the responder, run by whichever worker finishes the
/// request, stamps the latency from the request's due time.
pub fn open_inproc(
    engine: &DirectLoad,
    frontend: &FrontendConfig,
    cache: &SummaryCache,
    stream: &Stream,
    version: u64,
    plan: &OpenPlan,
) -> (OpenOutcome, ServeReport) {
    let n = plan.requests();
    let slots = Slots::new(n);
    let mut shed = 0u64;
    let mut lateness_ns = Vec::with_capacity(n);
    let report = serve::frontend::run(engine, frontend, cache, |submitter| {
        let epoch = Instant::now();
        for k in 0..n {
            let i = plan.first + k;
            let due = plan.due_ns(k);
            let sent = wait_until(epoch, due);
            lateness_ns.push(sent - due);
            let slots = Arc::clone(&slots);
            let responder = Box::new(move |reply: QueryReply| {
                let done = epoch.elapsed().as_nanos() as u64;
                if reply.degraded {
                    slots.degraded.fetch_add(1, Ordering::Relaxed);
                }
                if i.is_multiple_of(SAMPLE_EVERY) {
                    let hits = hits_of_reply(&reply);
                    slots.samples.lock().expect("sample lock").push((i, hits));
                }
                slots.latency_ns[k].store(latency_from_due(due, done).max(1), Ordering::Release);
            });
            let submitted = submitter.submit_query(
                stream.dc(i),
                stream.terms(i).to_vec(),
                version,
                frontend.top_k,
                responder,
            );
            if let Submitted::Shed(_) = submitted {
                shed += 1;
            }
        }
    });
    // `run` joined the workers, so every accepted request has responded.
    (slots.finish(plan, shed, lateness_ns), report)
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Reads and decodes one response frame; `None` on timeout, close or a
/// damaged frame (the caller stops and counts what is owed as timed out).
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(u64, Response)> {
    match wire::read_frame(reader, wire::DEFAULT_MAX_FRAME) {
        Ok(ReadFrame::Frame(body)) => wire::decode_response(&body)
            .ok()
            .map(|(id, _, resp)| (id, resp)),
        _ => None,
    }
}

/// Open loop over one loopback connection: a sender thread paces frames
/// onto the socket, this thread receives until the last response.
pub fn open_socket(
    addr: SocketAddr,
    stream: &Stream,
    version: u64,
    top_k: usize,
    plan: &OpenPlan,
) -> std::io::Result<OpenOutcome> {
    let n = plan.requests();
    let (mut writer, mut reader) = connect(addr)?;
    let epoch = Instant::now();
    let mut out = OpenOutcome {
        offered: n as u64,
        ..OpenOutcome::default()
    };
    let mut answered = 0u64;
    let lateness = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut lateness_ns = Vec::with_capacity(n);
            for k in 0..n {
                let due = plan.due_ns(k);
                let sent = wait_until(epoch, due);
                lateness_ns.push(sent - due);
                let req = stream.request(plan.first + k, version, top_k);
                let frame = wire::encode_request(k as u64 + 1, 0, &req);
                if writer.write_all(&frame).is_err() {
                    break;
                }
            }
            lateness_ns
        });
        while answered < n as u64 {
            let Some((id, resp)) = read_response(&mut reader) else {
                break;
            };
            let done = epoch.elapsed().as_nanos() as u64;
            answered += 1;
            let k = (id - 1) as usize;
            if let Some(hits) = answered_hits(resp, &mut out.shed, &mut out.errors) {
                if plan.timed(k) {
                    let ns = latency_from_due(plan.due_ns(k), done);
                    out.window.latencies_ns.push(ns);
                }
                let i = plan.first + k;
                if i.is_multiple_of(SAMPLE_EVERY) {
                    out.samples.push((i, hits_of_wire(&hits)));
                }
            }
        }
        sender.join().expect("sender thread panicked")
    });
    out.lateness_ns = lateness;
    out.timeouts = n as u64 - answered;
    Ok(out)
}

/// The closed-loop client's bookkeeping, shared by both flavours.
struct ClosedClient {
    epoch: Instant,
    warm_ns: u64,
    window_ns: u64,
    out: ClosedOutcome,
}

impl ClosedClient {
    fn new(plan: &ClosedPlan) -> ClosedClient {
        ClosedClient {
            epoch: Instant::now(),
            warm_ns: (plan.warm_s * 1e9) as u64,
            window_ns: (plan.window_s * 1e9) as u64,
            out: ClosedOutcome::new(plan),
        }
    }

    /// Books one answer in the window it arrived in; true while the client
    /// should keep sending.
    fn answered(&mut self) -> bool {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let window = now
            .checked_sub(self.warm_ns)
            .map(|ns| (ns / self.window_ns) as usize);
        match window.and_then(|w| self.out.answered.get_mut(w)) {
            Some(count) => *count += 1,
            None if window.is_some() => return false,
            None => {}
        }
        true
    }
}

/// Closed loop through the in-process front end; the client runs on the
/// calling thread.
pub fn closed_inproc(
    engine: &DirectLoad,
    frontend: &FrontendConfig,
    cache: &SummaryCache,
    stream: &Stream,
    version: u64,
    plan: &ClosedPlan,
) -> ClosedOutcome {
    let mut state = None;
    serve::frontend::run(engine, frontend, cache, |submitter| {
        state = Some(closed_inproc_client(
            submitter, frontend, stream, version, plan,
        ));
    });
    state.expect("the front end ran the client")
}

fn closed_inproc_client(
    submitter: &Submitter<'_>,
    frontend: &FrontendConfig,
    stream: &Stream,
    version: u64,
    plan: &ClosedPlan,
) -> ClosedOutcome {
    let mut state = ClosedClient::new(plan);
    let (tx, rx) = mpsc::channel::<(bool, Option<(usize, Vec<Hit>)>)>();
    let mut outstanding = 0usize;
    let submit = |state: &mut ClosedClient, outstanding: &mut usize| {
        let i = plan.first + state.out.offered as usize;
        state.out.offered += 1;
        let tx = tx.clone();
        let responder = Box::new(move |reply: QueryReply| {
            let sample = i
                .is_multiple_of(SAMPLE_EVERY)
                .then(|| (i, hits_of_reply(&reply)));
            // The receiver only goes away after a timeout ended the phase.
            let _ = tx.send((reply.degraded, sample));
        });
        match submitter.submit_query(
            stream.dc(i),
            stream.terms(i).to_vec(),
            version,
            frontend.top_k,
            responder,
        ) {
            Submitted::Shed(_) => state.out.shed += 1,
            _ => *outstanding += 1,
        }
    };
    for _ in 0..plan.in_flight {
        submit(&mut state, &mut outstanding);
    }
    while outstanding > 0 {
        let Ok((degraded, sample)) = rx.recv_timeout(RESPONSE_TIMEOUT) else {
            state.out.timeouts += outstanding as u64;
            break;
        };
        outstanding -= 1;
        if degraded {
            state.out.errors += 1;
        }
        state.out.samples.extend(sample);
        if state.answered() {
            submit(&mut state, &mut outstanding);
        }
    }
    state.out
}

/// Closed loop over one loopback connection with `in_flight` requests
/// pipelined on it; the client runs on the calling thread.
pub fn closed_socket(
    addr: SocketAddr,
    stream: &Stream,
    version: u64,
    top_k: usize,
    plan: &ClosedPlan,
) -> std::io::Result<ClosedOutcome> {
    let (mut writer, mut reader) = connect(addr)?;
    let mut state = ClosedClient::new(plan);
    let mut outstanding = 0usize;
    let mut send = |state: &mut ClosedClient, outstanding: &mut usize| {
        let i = plan.first + state.out.offered as usize;
        state.out.offered += 1;
        let frame = wire::encode_request(i as u64 + 1, 0, &stream.request(i, version, top_k));
        match writer.write_all(&frame) {
            Ok(()) => *outstanding += 1,
            Err(_) => state.out.errors += 1,
        }
    };
    for _ in 0..plan.in_flight {
        send(&mut state, &mut outstanding);
    }
    while outstanding > 0 {
        let Some((id, resp)) = read_response(&mut reader) else {
            state.out.timeouts += outstanding as u64;
            break;
        };
        outstanding -= 1;
        if let Some(hits) = answered_hits(resp, &mut state.out.shed, &mut state.out.errors) {
            let i = (id - 1) as usize;
            if i.is_multiple_of(SAMPLE_EVERY) {
                state.out.samples.push((i, hits_of_wire(&hits)));
            }
        }
        if state.answered() {
            send(&mut state, &mut outstanding);
        }
    }
    Ok(state.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_plan_times_requests_due_after_warm_up() {
        let plan = OpenPlan {
            qps: 1000.0,
            warm_s: 0.5,
            window_s: 2.0,
            first: 0,
        };
        assert_eq!(plan.requests(), 2500);
        assert!(!plan.timed(0));
        assert!(!plan.timed(499));
        assert!(plan.timed(500));
        assert!(plan.timed(2499));
        assert_eq!(plan.due_ns(2000), 2_000_000_000);
    }
}
