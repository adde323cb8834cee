//! Figure 8: read latency under two scenarios.
//!
//! The paper measures point-read latency on both engines with the update
//! stream off (8a) and on (8b), reporting average, 99th, and 99.9th
//! percentiles. QinDB's tail advantage comes from its single flash access
//! per read (the skip list resolves the location in memory), where
//! LevelDB may probe several tables down the levels.

use crate::engine::{self, Engine};
use indexgen::{CorpusConfig, CrawlSimulator, IndexVersion};
use lsmtree::{LsmConfig, LsmTree};
use obs::LatencyHistogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use simclock::SimTime;
use wisckey::{WiscKey, WiscKeyConfig};

/// Versions pre-loaded before measuring.
const PRELOAD_VERSIONS: u64 = 3;
/// Read inter-arrival time in µs. Reads arrive on a fixed schedule and
/// queue behind whatever the device is busy with — this is how the
/// baseline's compaction pauses surface in its tail latency.
const ARRIVAL_US: u64 = 700;
/// Update-stream puts issued per read when `with_updates` is on
/// (expressed as one put every N reads).
const READS_PER_PUT: usize = 4;

/// Read-latency experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig8Config {
    /// Keys in the store.
    pub keys: usize,
    /// Mean value bytes.
    pub value_bytes: usize,
    /// Point reads measured.
    pub reads: usize,
    /// Whether an insert stream runs concurrently (Figure 8b).
    pub with_updates: bool,
    /// Device size.
    pub device_bytes: u64,
    /// RNG seed for the read key sequence.
    pub seed: u64,
}

impl Fig8Config {
    /// The read-only scenario (Figure 8a).
    pub fn read_only() -> Self {
        Fig8Config {
            keys: 2000,
            value_bytes: 2048,
            reads: 4000,
            with_updates: false,
            device_bytes: 96 * 1024 * 1024,
            seed: 0x000F_168A,
        }
    }

    /// The mixed scenario (Figure 8b).
    pub fn with_updates() -> Self {
        Fig8Config {
            with_updates: true,
            seed: 0x000F_168B,
            ..Self::read_only()
        }
    }

    /// Scaled down for tests.
    pub fn quick(with_updates: bool) -> Self {
        Fig8Config {
            keys: 800,
            value_bytes: 1024,
            reads: 1500,
            with_updates,
            device_bytes: 24 * 1024 * 1024,
            seed: 0x000F_1680,
        }
    }
}

/// Latency percentiles for one engine.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyReport {
    /// Engine label.
    pub engine: String,
    /// Mean latency in µs.
    pub avg_us: f64,
    /// 99th percentile in µs.
    pub p99_us: u64,
    /// 99.9th percentile in µs.
    pub p999_us: u64,
    /// Reads measured.
    pub reads: usize,
}

fn report(engine: &str, lats: &[SimTime]) -> LatencyReport {
    // The serving front-end's mergeable log-bucketed histogram replaces
    // the old sort-the-samples percentile pass (same figures, ~3%
    // bucket-edge quantization on the tails).
    let mut hist = LatencyHistogram::new();
    for t in lats {
        hist.record(t.as_micros());
    }
    LatencyReport {
        engine: engine.to_string(),
        avg_us: hist.mean(),
        p99_us: hist.p99(),
        p999_us: hist.p999(),
        reads: hist.count() as usize,
    }
}

/// Runs the scenario on QinDB.
pub fn run_qindb(cfg: &Fig8Config) -> LatencyReport {
    run(cfg, engine::qindb(cfg.device_bytes))
}

/// Runs the scenario on the LevelDB-style baseline.
pub fn run_leveldb(cfg: &Fig8Config) -> LatencyReport {
    let bytes = cfg.device_bytes;
    let lsm = table_cache(engine::lsm_config(bytes));
    run(cfg, LsmTree::new(engine::device(bytes), lsm))
}

/// Runs the scenario on the WiscKey-style engine: every read costs a
/// pointer-LSM probe plus a value-log read.
pub fn run_wisckey(cfg: &Fig8Config) -> LatencyReport {
    let bytes = cfg.device_bytes;
    let w = engine::wisckey_config(bytes);
    let w = WiscKeyConfig {
        lsm: table_cache(w.lsm),
        ..w
    };
    run(cfg, WiscKey::new(engine::device(bytes), w))
}

/// Figure 8's one change to the Figure 5 engines: a scaled-down table
/// cache. With ~190 tables on the device, cold probes pay the index-load
/// cost, like LevelDB's max_open_files pressure in production.
fn table_cache(cfg: LsmConfig) -> LsmConfig {
    LsmConfig {
        max_open_tables: 24,
        ..cfg
    }
}

fn run(cfg: &Fig8Config, mut db: impl Engine) -> LatencyReport {
    let mut crawler = CrawlSimulator::new(CorpusConfig {
        num_docs: cfg.keys,
        summary_mean_bytes: cfg.value_bytes,
        ..CorpusConfig::default()
    });
    let mut versions: Vec<IndexVersion> = Vec::new();
    for v in 1..=PRELOAD_VERSIONS {
        let index = crawler.advance_round(1.0);
        for pair in &index.summary {
            db.put(&pair.key, v, &pair.value);
        }
        versions.push(index);
    }
    // Reads must hit flash, not the write buffer.
    db.flush();
    // The concurrent update stream, interleaved one put per read.
    let update_stream: Vec<_> = if cfg.with_updates {
        crawler.advance_round(1.0).summary
    } else {
        Vec::new()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut lats = Vec::with_capacity(cfg.reads);
    let clock = db.device().clock().clone();
    let t_base = clock.now();
    for i in 0..cfg.reads {
        if cfg.with_updates && !update_stream.is_empty() && i % READS_PER_PUT == 0 {
            let pair = &update_stream[(i / READS_PER_PUT) % update_stream.len()];
            db.put(&pair.key, PRELOAD_VERSIONS + 1, &pair.value);
        }
        let v = rng.gen_range(1..=PRELOAD_VERSIONS);
        let key = &versions[v as usize - 1].summary[rng.gen_range(0..cfg.keys)].key;
        // Reads arrive on a fixed schedule; a read issued while the
        // device is still busy (a compaction, a GC pass) queues.
        let arrival = t_base + SimTime::from_micros(ARRIVAL_US) * i as u64;
        clock.advance_to(arrival);
        let got = db.get(key, v);
        assert!(got.is_some(), "preloaded key must resolve");
        lats.push(clock.now().saturating_sub(arrival));
    }
    report(db.label(), &lats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qindb_has_tighter_tail_read_only() {
        let cfg = Fig8Config::quick(false);
        let q = run_qindb(&cfg);
        let l = run_leveldb(&cfg);
        assert!(
            q.p999_us <= l.p999_us,
            "QinDB p99.9 should not exceed the baseline: q={} l={}",
            q.p999_us,
            l.p999_us
        );
        assert!(q.avg_us > 0.0 && l.avg_us > 0.0);
    }

    #[test]
    fn update_stream_inflates_baseline_tail_more() {
        let quiet = run_leveldb(&Fig8Config::quick(false));
        let busy = run_leveldb(&Fig8Config::quick(true));
        assert!(
            busy.p999_us >= quiet.p999_us,
            "updates should not improve the baseline tail: quiet={} busy={}",
            quiet.p999_us,
            busy.p999_us
        );
    }
}
