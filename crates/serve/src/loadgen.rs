//! Seeded open-loop load generation: one stream, one schedule and one
//! pacing loop, for the in-process front end ([`ServeExt::serve`]) and for
//! the `net` crate's socket load generator alike.
//!
//! Open loop means requests leave on a fixed schedule *regardless of
//! completions* — the discipline real serving traffic follows. A closed
//! loop (next request after the previous response) would hide overload:
//! the generator would slow down with the server, queues would never
//! fill, and shedding would never trigger.
//!
//! Request `i` is due `i / qps` after one epoch. A generator that falls
//! behind sends at once and never reschedules, and [`LoadConfig::pace`]
//! records how late each request left. A caller that times an answer
//! times it from the request's due instant ([`LoadConfig::due`]), so a stall
//! that holds the generator back counts against every request queued
//! behind it instead of vanishing from the latencies (coordinated
//! omission).
//!
//! The stream is a pure function of the config: request `i` asks data
//! center `i mod 6` for query `i` of [`indexgen`]'s seeded Zipf/VIP
//! workload, so runs are reproducible query for query.
//!
//! [`ServeExt::serve`]: crate::ServeExt::serve

use bifrost::DataCenterId;
use bytes::Bytes;
use indexgen::{CrawlSimulator, QueryWorkload, QueryWorkloadConfig};
use obs::LatencyHistogram;
use std::time::{Duration, Instant};

/// Offered load.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Offered load in requests per second; must be positive.
    pub qps: f64,
    /// Total requests offered.
    pub requests: usize,
    /// The query stream: seed, Zipf skew, VIP fraction.
    pub workload: QueryWorkloadConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            qps: 1000.0,
            requests: 2000,
            workload: QueryWorkloadConfig {
                seed: 0x5EED_0001,
                ..QueryWorkloadConfig::default()
            },
        }
    }
}

impl LoadConfig {
    /// The request stream, in order: request `i` is data center `i mod 6`
    /// and the terms of query `i`. Generated up front, so pacing never
    /// waits on the workload.
    pub fn stream(&self, crawler: &CrawlSimulator) -> Vec<(DataCenterId, Vec<Bytes>)> {
        let dcs = DataCenterId::all();
        let queries = QueryWorkload::new(crawler, self.workload).take(self.requests);
        let stream = queries.into_iter().enumerate();
        stream.map(|(i, q)| (dcs[i % dcs.len()], q.terms)).collect()
    }

    /// The instant request `i` is due: `i / qps` after `epoch`.
    pub fn due(&self, epoch: Instant, i: usize) -> Instant {
        epoch + Duration::from_secs_f64(i as f64 / self.qps)
    }

    /// The pacing loop: offers each `(i, request)` at request `i`'s due
    /// instant after `epoch`, or at once when that has passed, and returns
    /// how late each left, in nanoseconds. Stops after an offer that
    /// returns false.
    pub fn pace<T>(
        &self,
        epoch: Instant,
        requests: impl IntoIterator<Item = (usize, T)>,
        mut offer: impl FnMut(usize, T) -> bool,
    ) -> LatencyHistogram {
        assert!(self.qps > 0.0, "offered load must be positive");
        let mut lateness = LatencyHistogram::new();
        for (i, request) in requests {
            let due = self.due(epoch, i);
            if let Some(early) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(early);
            }
            lateness.record(due.elapsed().as_nanos() as u64);
            if !offer(i, request) {
                break;
            }
        }
        lateness
    }
}
