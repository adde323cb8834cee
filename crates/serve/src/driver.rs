//! Seeded open-loop load generation.
//!
//! The driver offers queries to a running front-end on a fixed arrival
//! schedule (`qps`), *regardless of completions* — the open-loop
//! discipline real serving traffic follows. A closed loop (next request
//! after the previous response) would hide overload: the generator would
//! slow down with the server, queues would never fill, and shedding would
//! never trigger. Open loop is what makes the admission-control behaviour
//! observable.
//!
//! Queries come from [`indexgen`]'s Zipf/VIP workload, seeded, so runs
//! are reproducible query-for-query; requests rotate round-robin across
//! the six serving data centers.

use crate::cache::SummaryCache;
use crate::frontend::{self, FrontendConfig, ServeReport};
use bifrost::DataCenterId;
use directload::DirectLoad;
use indexgen::{QueryWorkload, QueryWorkloadConfig};
use std::time::{Duration, Instant};

/// Load-generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Offered load in queries per second.
    pub qps: f64,
    /// Total requests offered.
    pub requests: usize,
    /// Workload seed (query sequence is a pure function of this).
    pub seed: u64,
    /// Term-selection behaviour (Zipf skew, VIP fraction, terms/query).
    pub workload: QueryWorkloadConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            qps: 1000.0,
            requests: 2000,
            seed: 0x5EED_0001,
            workload: QueryWorkloadConfig::default(),
        }
    }
}

/// Runs one open-loop experiment: pre-generates the query sequence,
/// offers it to a fresh front-end at `driver.qps`, and returns the
/// front-end's report. Queries are served at the engine's current
/// version; their answers are discarded (the report is the result).
pub fn run_open_loop(
    engine: &DirectLoad,
    frontend_cfg: &FrontendConfig,
    cache: &SummaryCache,
    driver: &DriverConfig,
) -> ServeReport {
    assert!(driver.qps > 0.0, "offered load must be positive");
    let version = engine.version();
    assert!(version > 0, "serve after at least one run_version()");
    let mut workload = QueryWorkload::new(
        engine.crawler(),
        QueryWorkloadConfig {
            seed: driver.seed,
            ..driver.workload
        },
    );
    let queries = workload.take(driver.requests);
    let dcs = DataCenterId::all();
    let interval = Duration::from_secs_f64(1.0 / driver.qps);
    frontend::run(engine, frontend_cfg, cache, |submitter| {
        let start = Instant::now();
        for (i, query) in queries.into_iter().enumerate() {
            // Open loop: arrival times are fixed up front; a late
            // generator catches up rather than rescheduling.
            let arrival = interval * i as u32;
            let elapsed = start.elapsed();
            if elapsed < arrival {
                std::thread::sleep(arrival - elapsed);
            }
            let dc = dcs[i % dcs.len()];
            // The driver measures the front-end, not the answers: a
            // no-op responder drops each reply.
            let drop_reply = Box::new(|_| {});
            submitter.submit_query(dc, query.terms, version, frontend_cfg.top_k, drop_reply);
        }
    })
}
