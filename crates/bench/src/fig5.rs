//! Figures 5 & 6: the summary-index write workload on each engine.
//!
//! The paper replays a 6-hour production summary-index stream — 11
//! versions of ⟨20-byte key, ~20 KB value⟩ pairs, with a deletion thread
//! retiring the oldest version once four are on disk — against LevelDB
//! and QinDB on the same SSD, and plots `User Write`, `Sys Write`, and
//! `Sys Read` throughput per minute. We run the same protocol at reduced
//! scale (the simulator retains page payloads in memory) and sample the
//! same three series each simulated minute.

use crate::engine::{self, Engine};
use indexgen::{CorpusConfig, CrawlSimulator};
use qindb::EngineStats;
use serde::Serialize;
use simclock::{SeriesStats, SimTime};
use ssdsim::CounterSnapshot;

/// Scaled-down Figure 5 workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig5Config {
    /// Keys per version.
    pub keys: usize,
    /// Mean value size in bytes (paper: ~20 KB; scaled down here).
    pub value_bytes: usize,
    /// Versions streamed (paper: 11).
    pub versions: u64,
    /// Versions retained before the deletion thread retires the oldest
    /// (paper: 4).
    pub retain: u64,
    /// Device capacity in bytes.
    pub device_bytes: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Fig5Config {
            keys: 4000,
            value_bytes: 2048,
            versions: 11,
            retain: 4,
            device_bytes: 96 * 1024 * 1024,
        }
    }
}

impl Fig5Config {
    /// A fast variant for tests.
    pub fn quick() -> Self {
        Fig5Config {
            keys: 1200,
            value_bytes: 1024,
            versions: 8,
            retain: 3,
            device_bytes: 12 * 1024 * 1024,
        }
    }
}

/// One per-simulated-second sample of the three throughput series.
///
/// The paper samples per minute over a 6-hour run; our scaled workload
/// compresses to tens of simulated seconds, so the sampling interval
/// scales down with it — the series shapes are what carry over.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TimeSample {
    /// Simulated second index.
    pub second: u64,
    /// Application-payload MB written during the interval.
    pub user_write_mb: f64,
    /// NAND MB programmed during the interval (`Sys Write`).
    pub sys_write_mb: f64,
    /// NAND MB read during the interval (`Sys Read`).
    pub sys_read_mb: f64,
    /// Engine bytes on flash at the end of the interval (Figure 7's series).
    pub disk_mb: f64,
}

/// Complete result of one engine's run.
#[derive(Debug, Clone, Serialize)]
pub struct EngineRun {
    /// Engine label ("qindb", "leveldb-like" or "wisckey").
    pub engine: String,
    /// Per-second samples.
    pub samples: Vec<TimeSample>,
    /// Mean user-write MB/s over the run.
    pub user_write_mbps: f64,
    /// Mean sys-write MB/s over the run.
    pub sys_write_mbps: f64,
    /// Sys-write bytes / user-write bytes (total write amplification).
    pub total_waf: f64,
    /// Standard deviation of the per-interval user-write throughput
    /// (Figure 6's metric).
    pub user_write_stddev: f64,
    /// Total simulated run time in seconds.
    pub elapsed_sec: f64,
    /// Approximate engine memory for its in-RAM index, in MB.
    pub memory_mb: f64,
    /// Erase blocks consumed over the run — the flash-lifetime cost §2.1
    /// cites against building LSM-trees on SSDs.
    pub blocks_erased: u64,
}

/// Runs the workload against QinDB.
pub fn run_qindb(cfg: &Fig5Config) -> EngineRun {
    run(cfg, engine::qindb(cfg.device_bytes))
}

/// Runs the workload against the LevelDB-style baseline.
pub fn run_leveldb(cfg: &Fig5Config) -> EngineRun {
    run(cfg, engine::lsm(cfg.device_bytes))
}

/// Runs the workload against the WiscKey-style engine (§2.1's
/// intermediate design: values out of the tree, keys still LSM-sorted).
pub fn run_wisckey(cfg: &Fig5Config) -> EngineRun {
    run(cfg, engine::wisckey(cfg.device_bytes))
}

/// Figure 6's ratio: the baseline's user-write stddev over QinDB's.
/// `None` when either series has fewer than two samples — the stddev of
/// one sample is 0 whatever the engine did.
pub fn stddev_ratio(baseline: &EngineRun, qindb: &EngineRun) -> Option<f64> {
    if baseline.samples.len() < 2 || qindb.samples.len() < 2 {
        return None;
    }
    Some(baseline.user_write_stddev / qindb.user_write_stddev.max(f64::MIN_POSITIVE))
}

/// Closes each whole simulated second as the clock passes it, taking the
/// interval's deltas of the engine's and the device's counters.
struct Sampler {
    samples: Vec<TimeSample>,
    second: u64,
    stats: EngineStats,
    counters: CounterSnapshot,
}

impl Sampler {
    fn new(target: &impl Engine) -> Self {
        Sampler {
            samples: Vec::new(),
            second: 0,
            stats: EngineStats::default(),
            counters: target.device().counters(),
        }
    }

    fn tick(&mut self, target: &impl Engine) {
        let dev = target.device();
        let now = dev.clock().now().as_nanos() / SimTime::from_secs(1).as_nanos();
        while self.second < now {
            let stats = target.engine_stats();
            let counters = dev.counters();
            let interval = stats.delta(&self.stats);
            let delta = counters.delta(&self.counters);
            self.samples.push(TimeSample {
                second: self.second,
                user_write_mb: interval.user_write_bytes as f64 / 1e6,
                sys_write_mb: delta.sys_write_bytes() as f64 / 1e6,
                sys_read_mb: delta.sys_read_bytes() as f64 / 1e6,
                disk_mb: target.disk_bytes() as f64 / 1e6,
            });
            self.stats = stats;
            self.counters = counters;
            self.second += 1;
        }
    }
}

fn run(cfg: &Fig5Config, mut target: impl Engine) -> EngineRun {
    // The corpus provides deterministic keys and values.
    let mut crawler = CrawlSimulator::new(CorpusConfig {
        num_docs: cfg.keys,
        summary_mean_bytes: cfg.value_bytes,
        ..CorpusConfig::default()
    });
    let mut sampler = Sampler::new(&target);
    for v in 1..=cfg.versions {
        let index = crawler.advance_round(1.0);
        // Insert threads: stream the version's pairs.
        for pair in &index.summary {
            target.put(&pair.key, v, &pair.value);
            sampler.tick(&target);
        }
        // Deletion thread: retire the oldest version once `retain` are on
        // disk.
        if v > cfg.retain {
            let old = v - cfg.retain;
            for pair in &index.summary {
                target.del(&pair.key, old);
                sampler.tick(&target);
            }
        }
    }
    let samples = sampler.samples;
    let elapsed = target.device().clock().now();
    let counters = target.device().counters();
    let user = target.engine_stats().user_write_bytes;
    let secs = elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
    let user_series: Vec<f64> = samples.iter().map(|m| m.user_write_mb).collect();
    let stddev = SeriesStats::compute(&user_series).map_or(0.0, |s| s.stddev);
    EngineRun {
        engine: target.label().to_string(),
        samples,
        user_write_mbps: user as f64 / 1e6 / secs,
        sys_write_mbps: counters.sys_write_bytes() as f64 / 1e6 / secs,
        total_waf: if user == 0 {
            1.0
        } else {
            counters.sys_write_bytes() as f64 / user as f64
        },
        user_write_stddev: stddev,
        elapsed_sec: elapsed.as_secs_f64(),
        memory_mb: target.memory_bytes() as f64 / 1e6,
        blocks_erased: counters.blocks_erased,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qindb_beats_leveldb_on_waf_and_smoothness() {
        let cfg = Fig5Config::quick();
        let q = run_qindb(&cfg);
        let l = run_leveldb(&cfg);
        assert!(
            l.total_waf > 2.0 * q.total_waf,
            "expected LSM WAF >> QinDB WAF: lsm={:.2} qindb={:.2}",
            l.total_waf,
            q.total_waf
        );
        // The intermediate design lands between the two (§2.1's argument).
        let w = run_wisckey(&cfg);
        assert!(
            w.total_waf < l.total_waf,
            "WiscKey should beat the value-carrying LSM: w={:.2} lsm={:.2}",
            w.total_waf,
            l.total_waf
        );
        assert!(
            w.total_waf > q.total_waf,
            "QinDB should still beat WiscKey: w={:.2} qindb={:.2}",
            w.total_waf,
            q.total_waf
        );
        assert!(
            q.user_write_mbps > l.user_write_mbps,
            "QinDB should ingest faster: q={:.3} l={:.3}",
            q.user_write_mbps,
            l.user_write_mbps
        );
        assert!(!q.samples.is_empty() && !l.samples.is_empty());
    }

    #[test]
    fn fig6_ratio_needs_two_samples_per_series() {
        // The quick QinDB run ends inside its second simulated second:
        // one sample, stddev 0, and no ratio to report.
        let cfg = Fig5Config::quick();
        let q = run_qindb(&cfg);
        let l = run_leveldb(&cfg);
        assert_eq!(q.samples.len(), 1, "quick qindb run: {} s", q.elapsed_sec);
        assert!(l.samples.len() >= 2);
        assert_eq!(stddev_ratio(&l, &q), None);
        assert_eq!(stddev_ratio(&q, &l), None);
        assert_eq!(stddev_ratio(&l, &l), Some(1.0));
    }
}
