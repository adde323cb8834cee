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
//! * [`loadgen`] — the seeded open-loop load: one request stream over
//!   [`indexgen`]'s Zipf/VIP query workload, one schedule and one pacing
//!   loop that reports how late it ran; [`ServeExt::serve`] drives the
//!   front-end with it in process, and the `net` crate's netbench over
//!   sockets.
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
//! cfg.load.requests = 50;
//! cfg.load.qps = 2000.0;
//! let report = system.serve(&cfg);
//! assert_eq!(report.offered, 50);
//! assert_eq!(report.responses() + report.shed, report.offered);
//! assert_eq!(report.lateness.count(), 50, "the generator timed every request");
//! ```

pub mod cache;
pub mod frontend;
pub mod loadgen;

pub use cache::{ShardedLru, SummaryCache, SummaryKey};
pub use frontend::{
    AttributionReport, Frontend, FrontendConfig, LiveStats, QueryReply, Responder, ServeReport,
    Submitted, Submitter,
};
pub use loadgen::LoadConfig;
pub use obs::LatencyHistogram;

use directload::DirectLoad;
use std::time::Instant;

/// Everything one serving experiment needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeConfig {
    /// Front-end shape (workers, queues, admission, service model).
    pub frontend: FrontendConfig,
    /// Offered load (QPS, request count, query stream).
    pub load: LoadConfig,
}

/// Serving entry points for [`DirectLoad`].
///
/// An extension trait because the dependency points this way: `serve`
/// builds on `directload`, which knows nothing about serving.
pub trait ServeExt {
    /// Runs one open-loop serving experiment with a fresh summary cache:
    /// offers `cfg.load`'s stream to a fresh front-end on its schedule and
    /// returns the front-end's report with the generator's lateness.
    /// Queries are served at the engine's current version; their answers
    /// are discarded (the report is the result).
    fn serve(&self, cfg: &ServeConfig) -> ServeReport;
}

impl ServeExt for DirectLoad {
    fn serve(&self, cfg: &ServeConfig) -> ServeReport {
        let version = self.version();
        assert!(version > 0, "serve after at least one run_version()");
        let cache = SummaryCache::new(cfg.frontend.cache_capacity, cfg.frontend.cache_shards);
        let stream = cfg.load.stream(self.crawler()).into_iter().enumerate();
        let mut lateness = LatencyHistogram::new();
        let report = frontend::run(self, &cfg.frontend, &cache, |submitter| {
            // The generator measures the front-end, not the answers: a
            // no-op responder drops each reply.
            let offer = |_, (dc, terms)| {
                submitter.submit_query(dc, terms, version, cfg.frontend.top_k, Box::new(|_| {}));
                true
            };
            lateness = cfg.load.pace(Instant::now(), stream, offer);
        });
        ServeReport { lateness, ..report }
    }
}
