//! The system under test: its fixed sizing, the timed set-up, snapshots of
//! the public stats structs, and the oracle read-back.

use crate::oracle::Oracle;
use bifrost::DataCenterId;
use directload::{DirectLoad, DirectLoadConfig, VersionReport};
use indexgen::{CorpusConfig, IndexKind};
use serve::{Frontend, FrontendConfig, SummaryCache};
use std::sync::Arc;
use std::time::Instant;

/// Change fractions of the set-up rounds: a full crawl, then three rounds
/// at the paper's ~70 % duplication, so the four-version retention window
/// is full before anything is timed.
pub const SETUP_ROUNDS: [f64; 4] = [1.0, 0.3, 0.3, 0.3];

/// Change fraction of every timed round.
pub const ROUND_CHANGE: f64 = 0.3;

/// The benchmark's system configuration: 1000 documents of ~1 KiB on
/// `DirectLoadConfig::small()` (6 data centers of 2 groups x 3 nodes, 3
/// replicas, 16 MiB devices, 2 MiB AOFs, serial apply, 4 versions kept).
pub fn config(seed: u64) -> DirectLoadConfig {
    DirectLoadConfig {
        corpus: CorpusConfig {
            num_docs: 1000,
            summary_mean_bytes: 1024,
            vocab_size: 4096,
            terms_per_doc: 16,
            seed,
            ..CorpusConfig::default()
        },
        ..DirectLoadConfig::small()
    }
}

/// Generator threads, connections and serve workers are all sized to this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The serve front end with the modeled storage sleeps off, `nproc`
/// workers, and the workload's cache size and result count. The queues are
/// deep enough and the deadline late enough that a stall of the sandbox
/// (tens of ms often, seconds now and then) shows as latency instead of as
/// shed or degraded requests.
pub fn frontend_config(cache_capacity: usize, top_k: usize) -> FrontendConfig {
    FrontendConfig {
        workers: nproc(),
        queue_depth: 1024,
        deadline: std::time::Duration::from_secs(20),
        cache_capacity,
        top_k,
        rank_service: std::time::Duration::ZERO,
        summary_service: std::time::Duration::ZERO,
        ..FrontendConfig::default()
    }
}

/// Runs one update round, turning any error (the seed runs out of device
/// space around round 35) into a loud failure of the whole run.
pub fn round(system: &mut DirectLoad) -> VersionReport {
    match system.run_version(ROUND_CHANGE) {
        Ok(report) => report,
        Err(e) => {
            eprintln!(
                "FATAL: run_version failed at version {}: {e}",
                system.version() + 1
            );
            std::process::exit(2);
        }
    }
}

/// One set-up: build the system, run the set-up rounds, start and stop a
/// serve front end. Returns the wall time and the system.
pub fn setup(seed: u64) -> (f64, DirectLoad) {
    let start = Instant::now();
    let mut system = DirectLoad::new(config(seed));
    for fraction in SETUP_ROUNDS {
        if let Err(e) = system.run_version(fraction) {
            eprintln!("FATAL: set-up round failed: {e}");
            std::process::exit(2);
        }
    }
    let engine = Arc::new(system);
    let cfg = frontend_config(FrontendConfig::default().cache_capacity, 5);
    let cache = Arc::new(SummaryCache::new(cfg.cache_capacity, cfg.cache_shards));
    Frontend::start(Arc::clone(&engine), cfg, cache, None).shutdown();
    let system = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("the stopped front end still holds the engine"));
    (start.elapsed().as_secs_f64(), system)
}

/// An oracle that has replayed the set-up rounds.
pub fn oracle_after_setup(seed: u64) -> Oracle {
    let cfg = config(seed);
    let mut oracle = Oracle::new(cfg.corpus, cfg.versions_retained);
    for fraction in SETUP_ROUNDS {
        oracle.advance(fraction);
    }
    oracle
}

/// The public stats structs summed over every data center.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub engine: qindb::EngineStats,
    pub device: ssdsim::CounterSnapshot,
    pub wal: wal::WalStats,
    pub disk_bytes: u64,
}

impl Counters {
    pub fn read(system: &DirectLoad) -> Counters {
        let mut c = Counters::default();
        for dc in system.dc_ids() {
            let cluster = system.cluster(dc).expect("listed data center");
            c.engine.accumulate(&cluster.aggregate_stats());
            c.device.accumulate(&cluster.aggregate_device_counters());
            c.wal.accumulate(&cluster.aggregate_wal_stats());
            c.disk_bytes += cluster.total_disk_bytes();
        }
        c
    }

    /// Device bytes written (host + device GC) per user byte since
    /// `earlier`.
    pub fn write_amp_since(&self, earlier: &Counters) -> f64 {
        let sys = self.device.delta(&earlier.device).sys_write_bytes();
        let user = self.engine.delta(&earlier.engine).user_write_bytes;
        sys as f64 / user as f64
    }

    /// Bytes on the devices per byte of one full replicated version: every
    /// data center holds the forward and inverted streams, the summary
    /// hosts also the summary stream, each `replicas` times.
    pub fn space_amp(&self, oracle: &Oracle, replicas: usize) -> f64 {
        let latest = oracle.latest();
        let bytes = |kind: IndexKind| -> u64 {
            latest
                .pairs_of(kind)
                .iter()
                .map(|p| p.payload_bytes())
                .sum()
        };
        let everywhere = (bytes(IndexKind::Forward) + bytes(IndexKind::Inverted))
            * DataCenterId::all().len() as u64;
        let at_hosts = bytes(IndexKind::Summary) * DataCenterId::summary_hosts().len() as u64;
        self.disk_bytes as f64 / ((everywhere + at_hosts) * replicas as u64) as f64
    }
}

/// Reads `samples` seeded `(kind, key, retained version)` triples back
/// from a seeded data center and compares each with the oracle. Returns
/// the number of mismatches.
pub fn read_back(system: &DirectLoad, oracle: &Oracle, seed: u64, samples: usize) -> u64 {
    let versions: Vec<_> = oracle.retained().collect();
    let all = DataCenterId::all();
    let hosts = DataCenterId::summary_hosts();
    let mut rng = seed | 1;
    let mut next = move |bound: usize| {
        // xorshift64: a self-contained seeded stream for the sample choice.
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % bound as u64) as usize
    };
    let mut wrong = 0;
    for _ in 0..samples {
        let index = versions[next(versions.len())];
        let kind = [IndexKind::Forward, IndexKind::Summary, IndexKind::Inverted][next(3)];
        let pairs = index.pairs_of(kind);
        let pair = &pairs[next(pairs.len())];
        let got = match kind {
            IndexKind::Forward => {
                system.get_forward(all[next(all.len())], &pair.key, index.version)
            }
            IndexKind::Inverted => {
                system.get_inverted(all[next(all.len())], &pair.key, index.version)
            }
            IndexKind::Summary => {
                system.get_summary(hosts[next(hosts.len())], &pair.key, index.version)
            }
        };
        if !matches!(got, Ok((Some(ref value), _)) if *value == pair.value) {
            wrong += 1;
        }
    }
    wrong
}
