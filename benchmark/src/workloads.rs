//! The four workloads and the untraced run that yields the end-to-end
//! metrics.

use crate::loadgen::{self, ClosedOutcome, ClosedPlan, OpenOutcome, OpenPlan, Stream};
use crate::mem;
use crate::oracle::Oracle;
use crate::report::Metric;
use crate::stats::{self, WindowSummary};
use crate::system::{self, Counters};
use bifrost::DataCenterId;
use directload::{DirectLoad, VersionReport};
use indexgen::{QueryWorkload, QueryWorkloadConfig};
use net::{Server, ServerConfig};
use serve::{FrontendConfig, SummaryCache};
use std::sync::Arc;
use std::time::Instant;

/// Offered load of every open-loop phase.
pub const OPEN_QPS: f64 = 2000.0;
/// Requests the one closed-loop client keeps in flight: deep enough that no
/// worker waits for the client to wake up, so the phase reads the serving
/// path's capacity, not the scheduler's wake-up latency. A second client
/// would only add a runnable thread to a machine whose cores the workers
/// already fill.
pub const IN_FLIGHT: usize = 32;
/// Queries drawn from the seeded stream; longer phases wrap around.
pub const STREAM_QUERIES: usize = 20_000;
/// `(key, retained version)` pairs read back after the timed rounds.
const READ_BACK_SAMPLES: usize = 2000;
/// Times a run builds the system and runs the timed rounds on it, each time
/// from scratch and with the same seed, so every replica does identical
/// work. The replicas are spread over the run, with the read chunks between
/// them, because this sandbox slows down by a quarter for seconds at a
/// time: each round counts at the fastest of its replicas, and `setup_s` is
/// the fastest of the replicas' set-ups.
pub const REPLICAS: usize = 3;
/// `--seconds` the phase counts below are written for.
const NOMINAL_SECONDS: f64 = 26.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    NetHot,
    StoreCold,
    Update,
    PublishServe,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NetHot,
        Workload::StoreCold,
        Workload::Update,
        Workload::PublishServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetHot => "net_hot",
            Workload::StoreCold => "store_cold",
            Workload::Update => "update",
            Workload::PublishServe => "publish_serve",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether queries travel over the loopback `net::Server`.
    pub fn socket(self) -> bool {
        self == Workload::NetHot
    }

    /// Summary-cache entries and hits per query. `store_cold` keeps the
    /// cache far below the 1000 documents and asks for more abstracts, so
    /// nearly every summary is a storage read.
    pub fn frontend(self) -> FrontendConfig {
        match self {
            Workload::StoreCold => system::frontend_config(64, 10),
            _ => system::frontend_config(4096, 5),
        }
    }

    /// Term popularity: the default Zipf/VIP mix, or near-uniform for
    /// `store_cold`.
    pub fn queries(self, seed: u64) -> QueryWorkloadConfig {
        let base = QueryWorkloadConfig {
            seed,
            ..QueryWorkloadConfig::default()
        };
        match self {
            Workload::StoreCold => QueryWorkloadConfig {
                zipf_s: 0.2,
                vip_fraction: 0.0,
                ..base
            },
            _ => base,
        }
    }

    /// Whether a read chunk follows every timed round of the first replica
    /// (`publish_serve`) instead of all its rounds.
    pub fn publishes(self) -> bool {
        self == Workload::PublishServe
    }

    /// The phases of one run, scaled from the nominal `--seconds`.
    pub fn plan(self, seconds: f64) -> Plan {
        let f = seconds / NOMINAL_SECONDS;
        let count = |n: f64| ((n * f).round() as usize).max(1);
        match self {
            // Mostly reads: three rounds keep the write metrics defined.
            Workload::NetHot | Workload::StoreCold => Plan {
                rounds: count(3.0),
                windows: count(14.0),
                open_chunks: REPLICAS,
            },
            // Mostly writes: the read chunks only probe the result.
            Workload::Update => Plan {
                rounds: count(5.0),
                windows: count(10.0),
                open_chunks: 1,
            },
            // Each cycle publishes a version and serves it straight away.
            Workload::PublishServe => Plan {
                rounds: count(4.0),
                windows: count(8.0),
                open_chunks: usize::MAX,
            },
        }
    }
}

/// How much of each phase a run has. Window and phase lengths are fixed; a
/// longer `--seconds` buys more rounds and windows, not longer ones.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Timed rounds, run once on every replica.
    pub rounds: usize,
    /// Closed-loop windows in every read chunk.
    pub windows: usize,
    /// The first this-many read chunks also have an open-loop phase.
    pub open_chunks: usize,
}

/// Untimed seconds at the head of an open-loop phase.
const OPEN_WARM_S: f64 = 0.3;
/// Timed seconds of an open-loop phase (2000 requests, 20 beyond p99).
const OPEN_WINDOW_S: f64 = 1.0;
/// Untimed seconds at the head of a closed-loop phase, while the fresh
/// workers and the connection spread over the cores, and the length of each
/// window after it.
const CLOSED_WARM_S: f64 = 0.25;
const CLOSED_WINDOW_S: f64 = 0.25;
/// `peak_qps` is this percentile of the per-window rates.
const PEAK_PERCENTILE: f64 = 0.9;

pub fn open_plan(first: usize) -> OpenPlan {
    OpenPlan {
        qps: OPEN_QPS,
        warm_s: OPEN_WARM_S,
        window_s: OPEN_WINDOW_S,
        first,
    }
}

pub fn closed_plan(first: usize, windows: usize) -> ClosedPlan {
    ClosedPlan {
        in_flight: IN_FLIGHT,
        warm_s: CLOSED_WARM_S,
        window_s: CLOSED_WINDOW_S,
        windows,
        first,
    }
}

/// The seeded query stream, drawn from the corpus as it stands after
/// set-up, and the time drawing it took per query.
pub fn stream(workload: Workload, system: &DirectLoad, seed: u64) -> (Stream, f64) {
    let start = Instant::now();
    let queries = QueryWorkload::new(system.crawler(), workload.queries(seed)).take(STREAM_QUERIES);
    let per_query_ns = start.elapsed().as_nanos() as f64 / STREAM_QUERIES as f64;
    let stream = Stream {
        queries,
        dcs: DataCenterId::all(),
    };
    (stream, per_query_ns)
}

/// The timed update rounds of a run: the first replica's reports, and
/// every replica's wall time per round.
#[derive(Default)]
pub struct Rounds {
    pub reports: Vec<VersionReport>,
    /// `wall_s[replica][round]`.
    pub wall_s: Vec<Vec<f64>>,
    /// Rounds of a later replica that did not store what the first stored.
    pub diverged: u64,
}

impl Rounds {
    /// Runs one timed round on the first replica, then lets the oracle
    /// crawl the same round.
    pub fn run(&mut self, system: &mut DirectLoad, oracle: &mut Oracle) {
        let start = Instant::now();
        let report = system::round(system);
        let wall = start.elapsed().as_secs_f64();
        if self.wall_s.is_empty() {
            self.wall_s.push(Vec::new());
        }
        self.wall_s[0].push(wall);
        self.reports.push(report);
        oracle.advance(system::ROUND_CHANGE);
    }

    /// Runs the same rounds on a further replica, fresh from set-up.
    pub fn replay(&mut self, replica: &mut DirectLoad) {
        let mut wall_s = Vec::with_capacity(self.reports.len());
        for first in &self.reports {
            let start = Instant::now();
            let report = system::round(replica);
            wall_s.push(start.elapsed().as_secs_f64());
            let same = report.keys_stored == first.keys_stored
                && report.delivery.dedup.bytes_after == first.delivery.dedup.bytes_after;
            self.diverged += !same as u64;
        }
        self.wall_s.push(wall_s);
    }

    /// Each round's wall time on the replica that ran it fastest.
    pub fn best_wall_s(&self) -> Vec<f64> {
        stats::fastest_repeat(&self.wall_s)
    }

    pub fn keys_per_s(&self) -> f64 {
        let keys: u64 = self.reports.iter().map(|r| r.keys_stored).sum();
        keys as f64 / self.best_wall_s().iter().sum::<f64>()
    }

    pub fn round_ms(&self) -> f64 {
        stats::median(&self.best_wall_s()) * 1e3
    }

    pub fn sim_s(&self) -> f64 {
        let sim: Vec<f64> = self
            .reports
            .iter()
            .map(|r| r.update_time.as_secs_f64())
            .collect();
        stats::median(&sim)
    }

    pub fn wan_bytes_ratio(&self) -> f64 {
        let dedup = |f: fn(&bifrost::DedupStats) -> u64| -> f64 {
            self.reports
                .iter()
                .map(|r| f(&r.delivery.dedup))
                .sum::<u64>() as f64
        };
        dedup(|d| d.bytes_after) / dedup(|d| d.bytes_before)
    }

    pub fn missed(&self) -> u64 {
        self.reports.iter().map(|r| r.delivery.missed as u64).sum()
    }
}

/// Where queries go: the in-process front end with its summary cache, or
/// a loopback server.
enum Path {
    InProcess(SummaryCache),
    Socket(Server),
}

/// The engine plus the serving path in front of it.
pub struct Target {
    engine: Arc<DirectLoad>,
    path: Path,
}

impl Target {
    /// Starts the workload's serving path over `engine`.
    pub fn start(workload: Workload, engine: DirectLoad) -> Target {
        let frontend = workload.frontend();
        let engine = Arc::new(engine);
        let path = if workload.socket() {
            let cfg = ServerConfig {
                frontend,
                ..ServerConfig::default()
            };
            let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", cfg)
                .unwrap_or_else(|e| fatal(&format!("cannot start the loopback server: {e}")));
            Path::Socket(server)
        } else {
            Path::InProcess(SummaryCache::new(
                frontend.cache_capacity,
                frontend.cache_shards,
            ))
        };
        Target { engine, path }
    }

    /// The engine, to publish a version between phases. Only the
    /// in-process path lets go of it; a running server shares it.
    pub fn engine_mut(&mut self) -> &mut DirectLoad {
        Arc::get_mut(&mut self.engine).expect("a running server shares the engine")
    }

    /// The publish hook: drops what retention just retired from the cache.
    pub fn invalidate_retired(&self) {
        if let Path::InProcess(cache) = &self.path {
            cache.invalidate_below(self.engine.min_live_version());
        }
    }

    pub fn engine(&self) -> &DirectLoad {
        &self.engine
    }

    /// The loopback server's address on the socket path.
    pub fn server_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.path {
            Path::InProcess(_) => None,
            Path::Socket(server) => Some(server.local_addr()),
        }
    }

    pub fn open(
        &self,
        frontend: &FrontendConfig,
        stream: &Stream,
        plan: &OpenPlan,
    ) -> (OpenOutcome, Option<serve::ServeReport>) {
        let version = self.engine.version();
        match &self.path {
            Path::InProcess(cache) => {
                let (out, report) =
                    loadgen::open_inproc(&self.engine, frontend, cache, stream, version, plan);
                (out, Some(report))
            }
            Path::Socket(server) => {
                let out = loadgen::open_socket(
                    server.local_addr(),
                    stream,
                    version,
                    frontend.top_k,
                    plan,
                )
                .unwrap_or_else(|e| fatal(&format!("open loop over the socket: {e}")));
                (out, None)
            }
        }
    }

    pub fn closed(
        &self,
        frontend: &FrontendConfig,
        stream: &Stream,
        plan: &ClosedPlan,
    ) -> ClosedOutcome {
        let version = self.engine.version();
        match &self.path {
            Path::InProcess(cache) => {
                loadgen::closed_inproc(&self.engine, frontend, cache, stream, version, plan)
            }
            Path::Socket(server) => {
                loadgen::closed_socket(server.local_addr(), stream, version, frontend.top_k, plan)
                    .unwrap_or_else(|e| fatal(&format!("closed loop over the socket: {e}")))
            }
        }
    }

    /// Stops the server, if any, and returns its serving report.
    pub fn stop(self) -> Option<serve::ServeReport> {
        match self.path {
            Path::InProcess(_) => None,
            Path::Socket(server) => Some(server.shutdown()),
        }
    }
}

pub fn fatal(message: &str) -> ! {
    eprintln!("FATAL: {message}");
    std::process::exit(2);
}

/// What a run reports besides its metrics.
pub struct Verdict {
    /// False when any answer differed from the oracle's.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result.
    pub notes: Vec<String>,
}

/// Query-side tallies of a run: every read chunk folded in.
#[derive(Default)]
pub struct QueryTally {
    /// The next unused request of the stream.
    next: usize,
    /// Read chunks run so far.
    chunks: usize,
    pub offered: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub windows: Vec<WindowSummary>,
    /// `closed_answers[chunk][window]`: answers that arrived in the window.
    pub closed_answers: Vec<Vec<u64>>,
}

impl QueryTally {
    /// Runs one read chunk at the engine's current version: a closed-loop
    /// phase and, in the plan's first `open_chunks` chunks, an open-loop
    /// phase.
    pub fn chunk(
        &mut self,
        target: &Target,
        workload: Workload,
        plan: &Plan,
        stream: &Stream,
        oracle: &Oracle,
    ) {
        self.closed_phase(target, workload, plan.windows, stream, oracle);
        if self.chunks < plan.open_chunks {
            self.open_phase(target, workload, stream, oracle);
        }
        self.chunks += 1;
    }

    /// Runs one open-loop phase and checks its sampled replies.
    fn open_phase(
        &mut self,
        target: &Target,
        workload: Workload,
        stream: &Stream,
        oracle: &Oracle,
    ) {
        let frontend = workload.frontend();
        let plan = open_plan(self.next);
        self.next += plan.requests();
        let (out, _) = target.open(&frontend, stream, &plan);
        self.offered += out.offered;
        self.failed += out.failed();
        self.mismatched += loadgen::mismatches(
            &out.samples,
            stream,
            oracle,
            oracle.version(),
            frontend.top_k,
        );
        self.windows.push(out.window.summarise(0.99));
    }

    /// Runs one closed-loop phase likewise.
    fn closed_phase(
        &mut self,
        target: &Target,
        workload: Workload,
        windows: usize,
        stream: &Stream,
        oracle: &Oracle,
    ) {
        let frontend = workload.frontend();
        let out = target.closed(&frontend, stream, &closed_plan(self.next, windows));
        self.next += out.offered as usize;
        self.offered += out.offered;
        self.failed += out.failed();
        self.mismatched += loadgen::mismatches(
            &out.samples,
            stream,
            oracle,
            oracle.version(),
            frontend.top_k,
        );
        self.closed_answers.push(out.answered);
    }

    /// The rate the serving path reached or passed in a tenth of the run's
    /// closed-loop windows. The sandbox slows down by a quarter for seconds
    /// at a time, which pulls a mean or a median over the windows down by
    /// however much of the run those spells covered; the upper decile reads
    /// the undisturbed windows as long as a few of them exist.
    pub fn peak_qps(&self) -> f64 {
        let mut answered: Vec<u64> = self.closed_answers.iter().flatten().copied().collect();
        answered.sort_unstable();
        stats::percentile(&answered, PEAK_PERCENTILE) as f64 / CLOSED_WINDOW_S
    }
}

/// The untraced run. The first replica is set up, runs the timed rounds and
/// serves the read chunks; the other replicas, set up and run between the
/// chunks, repeat the set-up and the rounds.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Verdict {
    let plan = workload.plan(seconds);
    let mut setup_s = Vec::with_capacity(REPLICAS);
    let (secs, mut system) = system::setup(seed);
    setup_s.push(secs);
    let mut oracle = system::oracle_after_setup(seed);
    let (stream, _) = stream(workload, &system, seed);
    let after_setup = Counters::read(&system);

    let mut rounds = Rounds::default();
    let mut queries = QueryTally::default();
    let mut peak_heap_mb = 0.0f64;
    let target = if workload.publishes() {
        // The cache stays warm across publishes, loses the retired version
        // each time, and serves the new version straight away.
        let mut target = Target::start(workload, system);
        for _ in 0..plan.rounds {
            rounds.run(target.engine_mut(), &mut oracle);
            target.invalidate_retired();
            queries.chunk(&target, workload, &plan, &stream, &oracle);
        }
        target
    } else {
        for _ in 0..plan.rounds {
            rounds.run(&mut system, &mut oracle);
        }
        Target::start(workload, system)
    };
    for _ in 1..REPLICAS {
        if !workload.publishes() {
            queries.chunk(&target, workload, &plan, &stream, &oracle);
        }
        let (secs, mut replica) = system::setup(seed);
        setup_s.push(secs);
        rounds.replay(&mut replica);
        // The fullest moment: the serving system and a replica that has
        // run its rounds.
        peak_heap_mb = peak_heap_mb.max(mem::heap_in_use_mb());
    }
    if !workload.publishes() {
        queries.chunk(&target, workload, &plan, &stream, &oracle);
    }
    peak_heap_mb = peak_heap_mb.max(mem::heap_in_use_mb());
    let after_rounds = Counters::read(target.engine());
    let read_back_wrong = system::read_back(target.engine(), &oracle, seed, READ_BACK_SAMPLES);
    let replicas = system::config(seed).mint.replicas;
    target.stop();

    let (p50_us, p99_us) = stats::window_medians(&queries.windows);
    let update_attempted = (rounds.reports.len() * REPLICAS) as u64 + READ_BACK_SAMPLES as u64;
    let update_failed = rounds.missed() + rounds.diverged + read_back_wrong;
    let query_failed = queries.failed + queries.mismatched;
    let metrics = vec![
        Metric::new("peak_qps", queries.peak_qps(), "1/s"),
        Metric::new("update_keys_per_s", rounds.keys_per_s(), "1/s"),
        Metric::new("update_round_ms", rounds.round_ms(), "ms"),
        Metric::new("update_sim_s", rounds.sim_s(), "s"),
        Metric::new("wan_bytes_ratio", rounds.wan_bytes_ratio(), "ratio"),
        Metric::new(
            "write_amp",
            after_rounds.write_amp_since(&after_setup),
            "ratio",
        ),
        Metric::new(
            "space_amp",
            after_rounds.space_amp(&oracle, replicas),
            "ratio",
        ),
        Metric::new(
            "setup_s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        Metric::new("peak_heap_mb", peak_heap_mb, "MiB"),
    ];
    let samples: usize = queries.windows.iter().map(|w| w.samples).sum();
    let tail = queries
        .windows
        .iter()
        .map(|w| w.tail_percentile)
        .fold(1.0, f64::min);
    let closed_qps: Vec<Vec<f64>> = queries
        .closed_answers
        .iter()
        .map(|chunk| chunk.iter().map(|&n| n as f64 / CLOSED_WINDOW_S).collect())
        .collect();
    let rounded = |series: &[Vec<f64>], scale: f64| -> String {
        let rows: Vec<String> = series
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|v| format!("{:.0}", v * scale)).collect();
                format!("[{}]", cells.join(" "))
            })
            .collect();
        rows.join(" ")
    };
    let notes = vec![
        format!(
            "round wall ms by replica: {}",
            rounded(&rounds.wall_s, 1e3)
        ),
        format!(
            "set-up s by replica: {setup_s:.3?}; closed-loop qps by chunk and window: {}",
            rounded(&closed_qps, 1.0)
        ),
        format!(
            "query_fail_ratio {:.6} ratio ({query_failed} of {} offered; {} oracle mismatches)",
            query_failed as f64 / queries.offered as f64,
            queries.offered,
            queries.mismatched
        ),
        format!(
            "update_fail_ratio {:.6} ratio ({update_failed} of {update_attempted}; {} slices missed, {} replica rounds diverged, {read_back_wrong} read-backs wrong)",
            update_failed as f64 / update_attempted as f64,
            rounds.missed(),
            rounds.diverged
        ),
        format!(
            "query_p50_us {p50_us:.4} us, query_p{}_us {p99_us:.4} us (median of {} open-loop \
             windows, {samples} samples; not gated: neither repeats within 25 % on this \
             sandbox, see serve.p50_us / serve.p99_us in the traced pass)",
            tail * 100.0,
            queries.windows.len(),
        ),
        format!(
            "timed rounds {} (versions {}..={}) on each of {REPLICAS} replicas, {} closed-loop chunks of {} windows, nproc {}",
            rounds.reports.len(),
            rounds.reports.first().map_or(0, |r| r.version),
            rounds.reports.last().map_or(0, |r| r.version),
            queries.closed_answers.len(),
            plan.windows,
            system::nproc()
        ),
    ];
    Verdict {
        correct: queries.mismatched + rounds.diverged + read_back_wrong == 0,
        attempted: queries.offered + update_attempted,
        failed: query_failed + update_failed,
        metrics,
        notes,
    }
}
