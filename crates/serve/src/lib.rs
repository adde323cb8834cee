//! Query serving for DirectLoad: the reason the indices exist.
//!
//! §1.1.1 describes the read side the update pipeline feeds: queries are
//! split into terms, posting lists are fetched and ranked, and abstracts
//! are "gathered from the summary index". The core crate's
//! [`DirectLoad::search`](directload::DirectLoad) implements one such
//! query; this crate turns it into a *serving system* — many queries per
//! second against one shared engine — and measures it:
//!
//! * [`frontend`] — sharded worker pool over bounded queues, with
//!   admission control that sheds under overload and degrades rather
//!   than drops on deadline breach;
//! * [`cache`] — sharded LRU over summary values keyed
//!   `(region, url, version)`, read-through, invalidated below the
//!   minimum live version on publish;
//! * latency measurement — the mergeable log-bucketed
//!   [`obs::LatencyHistogram`] (p50/p90/p99/p99.9), which lives in
//!   `obs::hist` and is re-exported here because [`ServeReport`] is made
//!   of them;
//! * [`driver`] — seeded open-loop QPS generator over [`indexgen`]'s
//!   Zipf/VIP query workload.
//!
//! Topology changes need nothing here: every rank and summary read goes
//! through Mint, which routes on its live group tables, so a placement
//! cutover is honored by the very next request.
//!
//! The whole stack is deterministic in its inputs (seeded workload,
//! fixed arrival schedule); wall-clock latencies of course vary run to
//! run, which is exactly what the histograms are for.
//!
//! # Quick start
//!
//! ```
//! use directload::{DirectLoad, DirectLoadConfig};
//! use serve::{ServeConfig, ServeExt};
//!
//! let mut system = DirectLoad::new(DirectLoadConfig::small());
//! system.run_version(1.0).unwrap();
//! let mut cfg = ServeConfig::default();
//! cfg.driver.requests = 50;
//! cfg.driver.qps = 2000.0;
//! let report = system.serve(&cfg);
//! assert_eq!(report.offered, 50);
//! assert_eq!(report.responses() + report.shed, report.offered);
//! ```

pub mod cache;
pub mod driver;
pub mod frontend;

pub use cache::{ShardedLru, SummaryCache, SummaryKey};
pub use driver::DriverConfig;
pub use frontend::{
    AttributionReport, Frontend, FrontendConfig, LiveStats, QueryReply, Responder, ServeReport,
    Submitted, Submitter,
};
pub use obs::LatencyHistogram;

use directload::DirectLoad;

/// Everything one serving experiment needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Front-end shape (workers, queues, admission, service model).
    pub frontend: FrontendConfig,
    /// Offered load (QPS, request count, workload seed).
    pub driver: DriverConfig,
}

/// Serving entry points for [`DirectLoad`].
///
/// An extension trait because the dependency points this way: `serve`
/// builds on `directload`, which knows nothing about serving.
pub trait ServeExt {
    /// Runs one open-loop serving experiment with a fresh summary cache.
    fn serve(&self, cfg: &ServeConfig) -> ServeReport;
}

impl ServeExt for DirectLoad {
    fn serve(&self, cfg: &ServeConfig) -> ServeReport {
        let cache = SummaryCache::new(cfg.frontend.cache_capacity, cfg.frontend.cache_shards);
        driver::run_open_loop(self, &cfg.frontend, &cache, &cfg.driver)
    }
}
