//! The socket flavour of [`serve::loadgen`]: its one open-loop schedule
//! spread over several pipelined TCP connections. Connection `c` carries
//! requests `i ≡ c (mod connections)`. Each connection has a sender thread
//! that paces its share with [`LoadConfig::pace`] and a receiver that
//! matches responses by id, so pipelining depth floats with server
//! latency exactly as it would for a real caller.
//!
//! Each answer is timed from its request's due instant, not from when it
//! was written: a server that stops reading blocks the sender's writes,
//! and the requests queued behind that stall must carry it. Latencies go
//! into the same log-bucketed [`obs::LatencyHistogram`] the in-process
//! front-end uses, merged across connections, beside how late the
//! generator ran.

use crate::wire::{self, ReadFrame, Request, Response};
use indexgen::CrawlSimulator;
use obs::LatencyHistogram;
use serve::LoadConfig;
use std::collections::HashSet;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long a receiver waits for a response before it counts what is
/// still owed as lost. It only bounds a failure, so it is no knob.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Netbench knobs.
#[derive(Debug, Clone, Copy)]
pub struct NetbenchConfig {
    /// Concurrent TCP connections.
    pub connections: usize,
    /// Aggregate offered load and its query stream.
    pub load: LoadConfig,
}

impl Default for NetbenchConfig {
    fn default() -> Self {
        NetbenchConfig {
            connections: 8,
            load: LoadConfig::default(),
        }
    }
}

/// What a netbench run saw.
#[derive(Debug, Clone, Default)]
pub struct NetbenchReport {
    /// Requests written to sockets.
    pub offered: u64,
    /// `Hits` responses received (degraded or not).
    pub completed: u64,
    /// Deadline-degraded `Hits` responses among `completed`.
    pub degraded: u64,
    /// `Overloaded` error responses (admission shed).
    pub overloaded: u64,
    /// Other error responses from the server.
    pub errors: u64,
    /// Locally detected protocol violations (should be 0).
    pub protocol_errors: u64,
    /// Requests never answered: a failed connect, a read timeout or a
    /// dead socket.
    pub transport_errors: u64,
    /// Total hits across all completed responses.
    pub hits_returned: u64,
    /// Wall time from the schedule's epoch to the last receive.
    pub wall: Duration,
    /// Due→receive latency in ns, merged across connections.
    pub hist: LatencyHistogram,
    /// How late each request left the generator, in ns after its due
    /// time.
    pub lateness: LatencyHistogram,
}

impl NetbenchReport {
    /// Greppable summary, one fact per line (CI greps these).
    pub fn render(&self, connections: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "netbench: conns={} offered={} completed={} degraded={} overloaded={} errors={} transport_errors={}\n",
            connections,
            self.offered,
            self.completed,
            self.degraded,
            self.overloaded,
            self.errors,
            self.transport_errors,
        ));
        out.push_str(&format!(
            "histogram: n={} mean_us={:.1} p50_us={} p90_us={} p99_us={} p999_us={}\n",
            self.hist.count(),
            self.hist.mean() / 1_000.0,
            self.hist.p50() / 1_000,
            self.hist.p90() / 1_000,
            self.hist.p99() / 1_000,
            self.hist.p999() / 1_000,
        ));
        out.push_str(&format!(
            "lateness: n={} p50_us={} p99_us={} max_us={}\n",
            self.lateness.count(),
            self.lateness.p50() / 1_000,
            self.lateness.p99() / 1_000,
            self.lateness.max() / 1_000,
        ));
        // Achieved responses/second: every request the server answered.
        let answered = self.completed + self.overloaded + self.errors;
        out.push_str(&format!(
            "wall_ms={:.1} qps={:.0} hits_returned={}\n",
            self.wall.as_secs_f64() * 1_000.0,
            answered as f64 / self.wall.as_secs_f64().max(1e-9),
            self.hits_returned,
        ));
        out.push_str(&format!("protocol_errors: {}\n", self.protocol_errors));
        out
    }

    /// Books one response, `latency_ns` after its request was due.
    fn answered(&mut self, resp: Response, latency_ns: u64) {
        self.hist.record(latency_ns);
        match resp {
            Response::Hits { degraded, hits } => {
                self.completed += 1;
                self.hits_returned += hits.len() as u64;
                self.degraded += degraded as u64;
            }
            Response::Error {
                code: crate::ErrorCode::Overloaded,
                ..
            } => self.overloaded += 1,
            _ => self.errors += 1,
        }
    }
}

/// Drives `addr` with `cfg.load` over `cfg.connections` pipelined
/// connections. The stream is built over the same corpus simulator the
/// server indexed, so queries hit real terms.
pub fn run_netbench(addr: &str, crawler: &CrawlSimulator, cfg: NetbenchConfig) -> NetbenchReport {
    let connections = cfg.connections.max(1);
    let mut shares: Vec<Vec<(usize, Request)>> = (0..connections).map(|_| Vec::new()).collect();
    for (i, (dc, terms)) in cfg.load.stream(crawler).into_iter().enumerate() {
        let get = Request::Get {
            dc,
            terms,
            version: 0,
            top_k: 0,
        };
        shares[i % connections].push((i, get));
    }
    let epoch = Instant::now();
    let report = Mutex::new(NetbenchReport::default());
    std::thread::scope(|s| {
        for share in shares {
            let (load, report) = (&cfg.load, &report);
            s.spawn(move || run_connection(addr, share, load, epoch, report));
        }
    });
    let mut report = report.into_inner().unwrap_or_else(|e| e.into_inner());
    report.wall = epoch.elapsed();
    report
}

/// One connection: a sender thread paces `share` onto the socket; this
/// thread receives until every request of the share is answered, the
/// peer closes, or the read timeout fires, booking into `report`. The
/// connect counts against the schedule: a slow one makes the first
/// requests late.
fn run_connection(
    addr: &str,
    share: Vec<(usize, Request)>,
    load: &LoadConfig,
    epoch: Instant,
    report: &Mutex<NetbenchReport>,
) {
    let book = || report.lock().unwrap_or_else(|e| e.into_inner());
    let split = TcpStream::connect(addr).ok().and_then(|s| {
        s.set_nodelay(true).ok()?;
        s.set_read_timeout(Some(RESPONSE_TIMEOUT)).ok()?;
        Some((s.try_clone().ok()?, BufReader::new(s)))
    });
    let Some((mut writer, mut reader)) = split else {
        book().transport_errors += share.len() as u64;
        return;
    };
    // The share's requests not yet answered; a response whose id names
    // none of them is a protocol error.
    let mut owed: HashSet<usize> = share.iter().map(|&(i, _)| i).collect();
    let (share_len, mut protocol_errors) = (owed.len(), 0);
    let (sent, lateness) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent = 0u64;
            let lateness = load.pace(epoch, share, |i, req| {
                let frame = wire::encode_request(i as u64 + 1, 0, &req);
                // A dead socket stops the offering; the receiver sees EOF.
                let ok = writer.write_all(&frame).is_ok();
                sent += ok as u64;
                ok
            });
            (sent, lateness)
        });
        while !owed.is_empty() {
            let body = match wire::read_frame(&mut reader, wire::DEFAULT_MAX_FRAME) {
                Ok(ReadFrame::Frame(body)) => body,
                Ok(ReadFrame::Eof) => break,
                Err(e) => {
                    // A timeout or a cut frame leaves the rest owed,
                    // counted as lost below.
                    protocol_errors += (e.kind() == ErrorKind::InvalidData) as u64;
                    break;
                }
            };
            let Ok((id, _trace, resp)) = wire::decode_response(&body) else {
                protocol_errors += 1;
                break;
            };
            let i = (id as usize).wrapping_sub(1);
            if !owed.remove(&i) {
                protocol_errors += 1;
                break;
            }
            let latency = load.due(epoch, i).elapsed();
            book().answered(resp, latency.as_nanos() as u64);
        }
        // Unblocks a sender stuck writing to a peer that stopped reading.
        let _ = reader.get_ref().shutdown(Shutdown::Both);
        sender.join().unwrap_or_default()
    });
    let mut report = book();
    report.offered += sent;
    report.protocol_errors += protocol_errors;
    report.transport_errors += sent.saturating_sub((share_len - owed.len()) as u64);
    report.lateness.merge(&lateness);
}
