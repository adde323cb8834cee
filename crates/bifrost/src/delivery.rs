//! Delivery orchestration: slices → scheduled flows → arrival report.

use crate::dedup::{DedupStats, Deduplicator, UpdateEntry};
use crate::monitor::Monitor;
use crate::slice::SliceBuilder;
use crate::topology::{DataCenterId, RegionalTopology, StreamClass, TrunkCapacities};
use indexgen::{IndexKind, IndexVersion};
use netsim::{FlowId, LinkId, NetSim};
use simclock::{SimClock, SimTime};
use std::collections::HashMap;

/// How index data reaches the second data center of each region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// The paper's production design: every data center receives its own
    /// stream through the managed relay groups, whose checksums catch and
    /// repair corruption en route.
    #[default]
    Relay,
    /// The §6.3 alternative: only one data center per region receives
    /// from data center #0; its regional sibling fetches from it
    /// peer-to-peer. Saves roughly half the inverted-stream uplink
    /// bandwidth, but peer transfers bypass the relay checksum/repair
    /// machinery and fail more often.
    P2p,
}

/// Corruption multiplier on peer-to-peer transfers (unmanaged links
/// corrupt more often and lack mid-path detection).
const P2P_CORRUPTION_MULTIPLIER: f64 = 8.0;

/// Bifrost configuration.
#[derive(Debug, Clone, Copy)]
pub struct BifrostConfig {
    /// Target slice size in wire bytes. Production slices are GBs; scale
    /// to the simulated corpus.
    pub slice_bytes: u64,
    /// Trunk capacities and the stream split.
    pub trunks: TrunkCapacities,
    /// A slice that takes longer than this from version start to arrival
    /// counts as missed (the paper's one-hour SLO input to Figure 10b).
    pub deadline: SimTime,
    /// Fault injection: probability that a slice transfer is corrupted in
    /// transit, detected at a relay checksum, and retransmitted (doubling
    /// that transfer's bytes).
    pub corruption_rate: f64,
    /// Seed for the fault-injection stream.
    pub seed: u64,
    /// When false, values are never stripped (the pre-DirectLoad baseline
    /// used by the Figure 10a comparison). Dedup statistics still report
    /// what *could* have been removed.
    pub dedup_enabled: bool,
    /// Delivery mode for the inverted stream's regional fan-out.
    pub mode: DeliveryMode,
    /// The window over which a version's slices are produced and enter
    /// the network. The crawlers and index builders emit data
    /// continuously ("sending slices of index data in GBs every hour"),
    /// so slice starts are spread evenly across this window; each slice's
    /// deadline clock starts when *it* ships.
    pub generation_window: SimTime,
}

impl Default for BifrostConfig {
    fn default() -> Self {
        BifrostConfig {
            slice_bytes: 8 * 1024 * 1024,
            trunks: TrunkCapacities::default(),
            deadline: SimTime::from_hours(1),
            corruption_rate: 0.0,
            seed: 0xB1F0_5731,
            dedup_enabled: true,
            mode: DeliveryMode::Relay,
            generation_window: SimTime::from_mins(25),
        }
    }
}

/// What one version's delivery looked like.
#[derive(Debug, Clone)]
pub struct DeliveryReport {
    /// The version delivered.
    pub version: u64,
    /// Deduplication outcome.
    pub dedup: DedupStats,
    /// Slices cut across both streams.
    pub slices: usize,
    /// Point-to-point transfers scheduled (slices × destinations).
    pub flows: usize,
    /// Wall time from version start until every destination had every
    /// slice — the paper's "update time".
    pub update_time: SimTime,
    /// Transfers that exceeded the deadline.
    pub missed: usize,
    /// `missed / flows`.
    pub miss_ratio: f64,
    /// Corrupted-and-retransmitted transfers.
    pub retransmissions: usize,
    /// Bytes that crossed the data-center-#0 uplinks (the backbone cost
    /// the P2P mode halves for the inverted stream).
    pub uplink_bytes: u64,
    /// When each data center finished receiving the version.
    pub arrivals: Vec<(DataCenterId, SimTime)>,
}

/// Lifetime totals across every delivered version, kept for the metrics
/// export (individual [`DeliveryReport`]s are per-version).
#[derive(Debug, Default, Clone, Copy)]
struct DeliveryTotals {
    versions: u64,
    slices: u64,
    flows: u64,
    missed: u64,
    retransmissions: u64,
    uplink_bytes: u64,
    dedup_pairs_total: u64,
    dedup_pairs_deduped: u64,
    dedup_bytes_before: u64,
    dedup_bytes_after: u64,
}

/// The delivery subsystem: owns the deduplicator, the WAN simulator, and
/// the per-link backlog view of the central monitoring platform.
pub struct Bifrost {
    cfg: BifrostConfig,
    dedup: Deduplicator,
    sim: NetSim,
    topo: RegionalTopology,
    /// The centralized monitoring platform: per-link backlog and
    /// EWMA-predicted available bandwidth.
    monitor: Monitor,
    /// Nominal (configured) capacity per link, for first-sight
    /// initialization and background-traffic scheduling.
    base_capacity: Vec<f64>,
    rng: u64,
    totals: DeliveryTotals,
    /// The observer, labeled `bifrost`: each delivery records one
    /// `dedup`, `slice` and `deliver` phase — on the sim ring in
    /// simulated WAN time, on the wall ring in the compute each phase
    /// cost — and charges every scheduled uplink flow's bytes to the WAN
    /// ledger as [`obs::TrafficClass::Foreground`] per destination DC and
    /// link.
    scope: obs::Scope,
}

impl Bifrost {
    /// Builds the six-DC deployment.
    pub fn new(cfg: BifrostConfig, clock: SimClock) -> Self {
        let (topo, handles) = RegionalTopology::build(cfg.trunks);
        let base_capacity = (0..topo.len())
            .map(|l| topo.capacity(LinkId(l as u32)))
            .collect();
        Bifrost {
            cfg,
            dedup: Deduplicator::new(),
            sim: NetSim::new(topo, clock),
            topo: handles,
            monitor: Monitor::new(),
            base_capacity,
            rng: cfg.seed | 1,
            totals: DeliveryTotals::default(),
            scope: obs::Scope::default(),
        }
    }

    /// Attaches the sim trace ring, re-bound to the delivery clock:
    /// dedup and slicing take no simulated time, the `deliver` span
    /// covers the WAN transfer.
    pub fn attach_trace(&mut self, sink: &obs::TraceSink) {
        let sink = sink.with_clock(self.sim.clock().clone());
        self.scope.set_sim(&sink, "bifrost");
    }

    /// Attaches the wall trace ring: the same phases, measuring the real
    /// compute each cost. Not re-bound — all wall sinks share one epoch,
    /// so these spans nest inside the pipeline's phase spans.
    pub fn attach_wall_trace(&mut self, sink: &obs::TraceSink) {
        self.scope.set_wall(sink, "bifrost");
    }

    /// Attaches the shared WAN ledger; subsequent deliveries charge each
    /// scheduled uplink flow's bytes as foreground traffic, attributed to
    /// the destination DC and the first (uplink) link of its path. The
    /// foreground class total therefore equals the delivery totals'
    /// `uplink_bytes` — a conservation law the chaos checker asserts.
    pub fn attach_wan(&mut self, ledger: &obs::WanLedger) {
        self.scope.set_wan(ledger, "bifrost");
    }

    /// Schedules background traffic: at `at`, every trunk's available
    /// capacity becomes `scale` of its nominal value (diurnal load from
    /// the other applications sharing the relay nodes). The monitoring
    /// platform is not told — it discovers the change from achieved
    /// throughput, exactly as in production.
    pub fn schedule_background(&mut self, at: SimTime, scale: f64) {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        for (l, &base) in self.base_capacity.iter().enumerate() {
            self.sim
                .schedule_capacity_change(at, LinkId(l as u32), base * scale);
        }
    }

    /// Schedules a capacity change on a single trunk: at `at`, `link`'s
    /// available capacity becomes `scale` of its nominal value. `scale`
    /// of `0` models a trunk outage — slices crossing the link stall until
    /// a later scale restores capacity; `1` restores the trunk. The chaos
    /// orchestrator drives targeted outages/degradations through this.
    pub fn schedule_link_scale(&mut self, at: SimTime, link: LinkId, scale: f64) {
        assert!(
            (0.0..=1.0).contains(&scale),
            "scale must be in [0, 1], got {scale}"
        );
        let base = self.base_capacity[link.0 as usize];
        self.sim.schedule_capacity_change(at, link, base * scale);
    }

    /// Number of WAN links in the regional topology (valid targets for
    /// [`Bifrost::schedule_link_scale`]).
    pub fn num_links(&self) -> usize {
        self.base_capacity.len()
    }

    /// Current slice-corruption probability.
    pub fn corruption_rate(&self) -> f64 {
        self.cfg.corruption_rate
    }

    /// Replaces the slice-corruption probability for subsequent
    /// deliveries (a chaos corruption burst raises it, then restores the
    /// configured value). The fault-injection RNG stream is unaffected.
    pub fn set_corruption_rate(&mut self, rate: f64) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "corruption rate must be in [0, 1], got {rate}"
        );
        self.cfg.corruption_rate = rate;
    }

    fn next_rand(&mut self) -> f64 {
        // xorshift64* → uniform in [0, 1).
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Picks the candidate path the monitoring platform predicts to
    /// finish first (per-link backlog plus this transfer over the link's
    /// EWMA-predicted bandwidth, summed over the path).
    fn pick_path(&self, class: StreamClass, dc: DataCenterId, bytes: u64) -> Vec<LinkId> {
        self.topo
            .paths(class, dc)
            .into_iter()
            .min_by(|a, b| {
                let cost = |path: &Vec<LinkId>| -> f64 {
                    path.iter()
                        .map(|l| {
                            self.monitor
                                .predicted_cost(*l, bytes, self.base_capacity[l.0 as usize])
                        })
                        .sum()
                };
                cost(a).total_cmp(&cost(b))
            })
            .expect("at least the direct path exists")
    }

    /// Deduplicates, slices, schedules, and runs one version's delivery to
    /// completion. Returns the report and the wire entries (which the
    /// storage layer then applies to each data center's Mint cluster).
    pub fn deliver_version(
        &mut self,
        version: &IndexVersion,
        at: SimTime,
    ) -> (DeliveryReport, Vec<UpdateEntry>) {
        // Clone the scope so the phases borrow this local rather than
        // `self` (the loop below needs `&mut self`).
        let scope = self.scope.clone();
        let mut phase = scope.phase(obs::SpanKind::Dedup);
        let (mut entries, mut dedup_stats) = self.dedup.process(version);
        if !self.cfg.dedup_enabled {
            // Baseline: ship every value. Restore stripped entries from
            // the version data (same iteration order as the deduplicator).
            for (entry, pair) in entries.iter_mut().zip(version.all_pairs()) {
                debug_assert_eq!(entry.key, pair.key);
                entry.value = Some(pair.value.clone());
            }
            dedup_stats.bytes_after = entries.iter().map(UpdateEntry::wire_bytes).sum();
            dedup_stats.pairs_deduped = 0;
        }
        // Dedup is pure computation — it does not advance the simulated
        // clock, so its sim span is an instant whose amount is the bytes
        // it removed. (Wire framing adds overhead, so an undeduplicated
        // version can ship *more* than its payload — saturate to zero in
        // that case.)
        phase.set_amount(
            dedup_stats
                .bytes_before
                .saturating_sub(dedup_stats.bytes_after),
        );
        drop(phase);
        let mut phase = scope.phase(obs::SpanKind::Slice);
        // Split the wire stream into the two reserved classes.
        let mut summary_slices = SliceBuilder::new(self.cfg.slice_bytes);
        let mut inverted_slices = SliceBuilder::new(self.cfg.slice_bytes);
        for e in &entries {
            match e.kind {
                IndexKind::Summary => summary_slices.push(e.clone()),
                IndexKind::Forward | IndexKind::Inverted => inverted_slices.push(e.clone()),
            }
        }
        // In P2P mode the inverted stream only leaves data center #0 once
        // per region; the slot-1 siblings fetch from their peers.
        let inverted_destinations = match self.cfg.mode {
            DeliveryMode::Relay => DataCenterId::all(),
            DeliveryMode::P2p => DataCenterId::summary_hosts(),
        };
        let streams = [
            (
                StreamClass::Summary,
                summary_slices.finish(),
                DataCenterId::summary_hosts(),
            ),
            (
                StreamClass::Inverted,
                inverted_slices.finish(),
                inverted_destinations,
            ),
        ];
        phase.set_amount(streams.iter().map(|(_, s, _)| s.len() as u64).sum());
        drop(phase);
        // The deliver phase covers everything that advances the simulated
        // clock: flow scheduling, the WAN run, and the P2P second hop.
        let mut phase = scope.phase(obs::SpanKind::Deliver);
        let mut flows: Vec<(FlowId, DataCenterId, SimTime)> = Vec::new();
        // Inverted flows to slot-0 DCs that P2P mode must relay onward:
        // (flow, region, slice bytes, original ship time).
        let mut peer_sources: Vec<(FlowId, crate::RegionId, u64, SimTime)> = Vec::new();
        let mut slices = 0usize;
        let mut retransmissions = 0usize;
        let mut uplink_bytes = 0u64;
        let total_slices: usize = streams.iter().map(|(_, s, _)| s.len()).max().unwrap_or(1);
        let spacing = self.cfg.generation_window / total_slices.max(1) as u64;
        for (class, stream, destinations) in streams {
            slices += stream.len();
            for (slice_idx, slice) in stream.iter().enumerate() {
                let ship_at = at + spacing * slice_idx as u64;
                // Relays recompute the checksum; with the injected fault
                // rate the slice fails verification and is resent, costing
                // a second copy of its bytes on the same path.
                for &dc in &destinations {
                    let corrupted = self.cfg.corruption_rate > 0.0
                        && self.next_rand() < self.cfg.corruption_rate;
                    // A checksum failure at a relay triggers the repair
                    // process (§3): the slice's bytes travel twice and the
                    // repaired copy re-enters the stream only after the
                    // repair latency — this is what makes a slice late.
                    let (bytes, start) = if corrupted {
                        retransmissions += 1;
                        let repair = self.cfg.deadline.mul_f64(0.4 + 0.9 * self.next_rand());
                        (slice.bytes * 2, ship_at + repair)
                    } else {
                        (slice.bytes, ship_at)
                    };
                    let path = self.pick_path(class, dc, bytes);
                    for l in &path {
                        self.monitor
                            .on_scheduled(*l, bytes, self.base_capacity[l.0 as usize]);
                    }
                    uplink_bytes += bytes;
                    scope.charge(
                        obs::TrafficClass::Foreground,
                        &format!("dc{}.{}", dc.region.0, dc.slot),
                        path.first().map(|l| l.0),
                        bytes,
                    );
                    let id = self.sim.schedule_flow(start, path, bytes.max(1));
                    if self.cfg.mode == DeliveryMode::P2p
                        && class == StreamClass::Inverted
                        && dc.slot == 0
                    {
                        peer_sources.push((id, dc.region, slice.bytes, ship_at));
                    }
                    flows.push((id, dc, ship_at));
                }
            }
        }
        self.sim.run_until_idle();
        // P2P second hop: each slice continues from its regional slot-0
        // host to the slot-1 sibling as soon as it arrived. Peer links
        // are unmanaged: corruption is likelier, and without the relays'
        // mid-path checksum there is no early repair — a corrupted peer
        // transfer is discovered at the destination and refetched whole.
        if self.cfg.mode == DeliveryMode::P2p {
            for (flow, region, bytes, ship_at) in peer_sources {
                let arrived = self.sim.completion(flow).expect("phase-one flows complete");
                let p_corrupt = (self.cfg.corruption_rate * P2P_CORRUPTION_MULTIPLIER).min(1.0);
                let corrupted = p_corrupt > 0.0 && self.next_rand() < p_corrupt;
                let (peer_bytes, start) = if corrupted {
                    retransmissions += 1;
                    let repair = self.cfg.deadline.mul_f64(0.8 + 1.2 * self.next_rand());
                    (bytes * 2, arrived + repair)
                } else {
                    (bytes, arrived)
                };
                let link = self.topo.peer_link(region);
                self.monitor
                    .on_scheduled(link, peer_bytes, self.base_capacity[link.0 as usize]);
                let id = self.sim.schedule_flow(start, vec![link], peer_bytes.max(1));
                flows.push((id, DataCenterId { region, slot: 1 }, ship_at));
            }
            self.sim.run_until_idle();
        }
        phase.set_amount(uplink_bytes);
        drop(phase);
        // The relay groups report back: close the monitoring window with
        // the observed busy time.
        self.monitor
            .on_window_complete(self.sim.clock().now().saturating_sub(at));
        let mut arrivals: HashMap<DataCenterId, SimTime> = HashMap::new();
        let mut missed = 0usize;
        for (flow, dc, ship_at) in &flows {
            let done = self
                .sim
                .completion(*flow)
                .expect("run_until_idle completes all flows");
            // The deadline applies per slice, from the moment it shipped.
            let took = done.saturating_sub(*ship_at);
            if took > self.cfg.deadline {
                missed += 1;
            }
            let slot = arrivals.entry(*dc).or_insert(SimTime::ZERO);
            *slot = (*slot).max(done);
        }
        let update_time = arrivals
            .values()
            .map(|&t| t.saturating_sub(at))
            .max()
            .unwrap_or(SimTime::ZERO);
        let mut arrivals: Vec<(DataCenterId, SimTime)> = arrivals.into_iter().collect();
        arrivals.sort_by_key(|(dc, _)| *dc);
        let report = DeliveryReport {
            version: version.version,
            dedup: dedup_stats,
            slices,
            flows: flows.len(),
            update_time,
            missed,
            miss_ratio: if flows.is_empty() {
                0.0
            } else {
                missed as f64 / flows.len() as f64
            },
            retransmissions,
            uplink_bytes,
            arrivals,
        };
        self.totals.versions += 1;
        self.totals.slices += report.slices as u64;
        self.totals.flows += report.flows as u64;
        self.totals.missed += report.missed as u64;
        self.totals.retransmissions += report.retransmissions as u64;
        self.totals.uplink_bytes += report.uplink_bytes;
        self.totals.dedup_pairs_total += report.dedup.pairs_total;
        self.totals.dedup_pairs_deduped += report.dedup.pairs_deduped;
        self.totals.dedup_bytes_before += report.dedup.bytes_before;
        self.totals.dedup_bytes_after += report.dedup.bytes_after;
        (report, entries)
    }

    /// Feeds the lifetime delivery totals and the monitoring platform's
    /// per-link view into a metrics registry under `bifrost.*`. Totals
    /// are cumulative, so republishing is idempotent.
    pub fn publish_metrics(&self, reg: &obs::Registry) {
        let c = |name: &str, v: u64| reg.counter(&format!("bifrost.{name}")).store(v);
        let t = &self.totals;
        c("versions_total", t.versions);
        c("slices_total", t.slices);
        c("flows_total", t.flows);
        c("missed_total", t.missed);
        c("retransmissions_total", t.retransmissions);
        c("uplink_bytes", t.uplink_bytes);
        c("dedup.pairs_total", t.dedup_pairs_total);
        c("dedup.pairs_deduped", t.dedup_pairs_deduped);
        c("dedup.bytes_before", t.dedup_bytes_before);
        c("dedup.bytes_after", t.dedup_bytes_after);
        let ratio = if t.dedup_bytes_before == 0 {
            0.0
        } else {
            1.0 - t.dedup_bytes_after as f64 / t.dedup_bytes_before as f64
        };
        reg.gauge("bifrost.dedup.byte_ratio").set(ratio);
        for (link, backlog, predicted) in self.monitor.link_view() {
            reg.gauge(&format!("bifrost.link.{}.backlog_bytes", link.0))
                .set(backlog);
            reg.gauge(&format!("bifrost.link.{}.predicted_bandwidth", link.0))
                .set(predicted);
        }
    }

    /// The shared clock (advanced by deliveries).
    pub fn clock(&self) -> &SimClock {
        self.sim.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indexgen::{CorpusConfig, CrawlSimulator};

    fn small_cfg() -> BifrostConfig {
        BifrostConfig {
            slice_bytes: 16 * 1024,
            ..Default::default()
        }
    }

    fn corpus() -> CrawlSimulator {
        CrawlSimulator::new(CorpusConfig {
            num_docs: 200,
            summary_mean_bytes: 2048,
            ..CorpusConfig::tiny()
        })
    }

    #[test]
    fn full_version_delivers_to_all_dcs() {
        let mut sim = corpus();
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        let v1 = sim.advance_round(1.0);
        let (report, entries) = bifrost.deliver_version(&v1, SimTime::ZERO);
        assert_eq!(report.version, 1);
        assert_eq!(report.arrivals.len(), 6);
        assert!(report.update_time > SimTime::ZERO);
        assert!(report.slices > 0);
        assert_eq!(report.dedup.pairs_deduped, 0);
        assert_eq!(entries.len(), v1.total_pairs());
        assert_eq!(report.retransmissions, 0);
        assert_eq!(report.missed, 0);
    }

    #[test]
    fn dedup_shrinks_second_version_and_update_time() {
        let mut sim = corpus();
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        let v1 = sim.advance_round(1.0);
        let (r1, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        let v2 = sim.advance_round(0.2);
        let start2 = bifrost.clock().now();
        let (r2, entries2) = bifrost.deliver_version(&v2, start2);
        assert!(
            r2.dedup.byte_ratio() > 0.5,
            "ratio {}",
            r2.dedup.byte_ratio()
        );
        assert!(r2.update_time < r1.update_time);
        // Stripped entries still travel (key + version) for the r-flag.
        assert!(entries2.iter().any(|e| e.value.is_none()));
        assert_eq!(entries2.len(), v2.total_pairs());
    }

    #[test]
    fn corruption_injection_causes_retransmissions() {
        let mut sim = corpus();
        let cfg = BifrostConfig {
            corruption_rate: 0.5,
            ..small_cfg()
        };
        let mut bifrost = Bifrost::new(cfg, SimClock::new());
        let v1 = sim.advance_round(1.0);
        let (report, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        assert!(report.retransmissions > 0);
    }

    #[test]
    fn tight_deadline_produces_misses() {
        let mut sim = corpus();
        let cfg = BifrostConfig {
            deadline: SimTime::from_nanos(1),
            ..small_cfg()
        };
        let mut bifrost = Bifrost::new(cfg, SimClock::new());
        let v1 = sim.advance_round(1.0);
        let (report, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        assert_eq!(report.missed, report.flows);
        assert!((report.miss_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p2p_mode_halves_inverted_uplink_traffic() {
        // An inverted-heavy corpus (many terms, small abstracts), like the
        // paper's inverted stream carrying 60% of the bandwidth.
        let mut sim = CrawlSimulator::new(indexgen::CorpusConfig {
            num_docs: 200,
            terms_per_doc: 30,
            vocab_size: 128,
            summary_mean_bytes: 128,
            ..indexgen::CorpusConfig::tiny()
        });
        let v1 = sim.advance_round(1.0);
        let relay = {
            let mut b = Bifrost::new(small_cfg(), SimClock::new());
            b.deliver_version(&v1, SimTime::ZERO).0
        };
        let p2p = {
            let cfg = BifrostConfig {
                mode: DeliveryMode::P2p,
                ..small_cfg()
            };
            let mut b = Bifrost::new(cfg, SimClock::new());
            b.deliver_version(&v1, SimTime::ZERO).0
        };
        // Every data center still receives everything.
        assert_eq!(p2p.arrivals.len(), 6);
        // The uplinks carry roughly half the inverted stream (summary is
        // unchanged, so the total saving is below a strict half).
        assert!(
            p2p.uplink_bytes < relay.uplink_bytes * 3 / 4,
            "P2P should cut uplink bytes: {} vs {}",
            p2p.uplink_bytes,
            relay.uplink_bytes
        );
        assert!(p2p.uplink_bytes > relay.uplink_bytes / 3);
    }

    #[test]
    fn p2p_mode_is_less_reliable() {
        let mut sim = corpus();
        let v1 = sim.advance_round(1.0);
        let run = |mode: DeliveryMode| {
            let cfg = BifrostConfig {
                mode,
                corruption_rate: 0.05,
                deadline: SimTime::from_secs(30),
                ..small_cfg()
            };
            let mut b = Bifrost::new(cfg, SimClock::new());
            b.deliver_version(&v1, SimTime::ZERO).0
        };
        let relay = run(DeliveryMode::Relay);
        let p2p = run(DeliveryMode::P2p);
        assert!(
            p2p.miss_ratio >= relay.miss_ratio,
            "P2P should not be more reliable: p2p={} relay={}",
            p2p.miss_ratio,
            relay.miss_ratio
        );
        assert!(p2p.retransmissions > 0);
    }

    #[test]
    fn metrics_and_traces_cover_the_delivery() {
        let mut sim = corpus();
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        let sink = obs::TraceSink::sim(256, bifrost.clock().clone());
        bifrost.attach_trace(&sink);
        let v1 = sim.advance_round(1.0);
        let (r1, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        let v2 = sim.advance_round(0.2);
        let now = bifrost.clock().now();
        let (r2, _) = bifrost.deliver_version(&v2, now);
        let reg = obs::Registry::new();
        bifrost.publish_metrics(&reg);
        let report = reg.snapshot();
        assert_eq!(report.counter("bifrost.versions_total"), Some(2));
        assert_eq!(
            report.counter("bifrost.slices_total"),
            Some((r1.slices + r2.slices) as u64)
        );
        assert_eq!(
            report.counter("bifrost.uplink_bytes"),
            Some(r1.uplink_bytes + r2.uplink_bytes)
        );
        // Every WAN link the monitor has seen exports a gauge pair.
        assert!(report.get("bifrost.link.0.predicted_bandwidth").is_some());
        // One dedup event, one slice event, one deliver span per version.
        let events = sink.snapshot();
        for kind in [
            obs::SpanKind::Dedup,
            obs::SpanKind::Slice,
            obs::SpanKind::Deliver,
        ] {
            assert_eq!(
                events.iter().filter(|e| e.kind == kind).count(),
                2,
                "kind {kind:?}"
            );
        }
        // The deliver span actually covers simulated time and carries the
        // version's uplink bytes.
        let deliver: Vec<_> = events
            .iter()
            .filter(|e| e.kind == obs::SpanKind::Deliver)
            .collect();
        assert!(deliver.iter().all(|e| e.duration_ns() > 0));
        assert_eq!(deliver[0].amount, r1.uplink_bytes);
        assert_eq!(deliver[1].amount, r2.uplink_bytes);
    }

    #[test]
    fn wan_ledger_foreground_equals_uplink_totals() {
        let mut sim = corpus();
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        let ledger = obs::WanLedger::new();
        bifrost.attach_wan(&ledger);
        let v1 = sim.advance_round(1.0);
        let (r1, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        let v2 = sim.advance_round(0.2);
        let now = bifrost.clock().now();
        let (r2, _) = bifrost.deliver_version(&v2, now);
        // Conservation: every uplink byte was attributed, nothing else.
        assert_eq!(
            ledger.class_total(obs::TrafficClass::Foreground),
            r1.uplink_bytes + r2.uplink_bytes
        );
        assert_eq!(ledger.total(), r1.uplink_bytes + r2.uplink_bytes);
        // Per-DC rows sum back to the same total and every serving DC
        // received foreground bytes.
        let rows = ledger.dc_rows();
        assert_eq!(rows.len(), DataCenterId::all().len());
        assert_eq!(
            rows.iter().map(|r| r.bytes[0]).sum::<u64>(),
            r1.uplink_bytes + r2.uplink_bytes
        );
        assert!(!ledger.link_rows().is_empty());
    }

    #[test]
    fn corruption_burst_can_be_raised_and_restored() {
        let mut sim = corpus();
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        assert_eq!(bifrost.corruption_rate(), 0.0);
        let v1 = sim.advance_round(1.0);
        let (clean, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        assert_eq!(clean.retransmissions, 0);
        // Burst: raise the rate mid-run, deliver, then restore.
        bifrost.set_corruption_rate(0.5);
        let v2 = sim.advance_round(0.4);
        let (stormy, _) = bifrost.deliver_version(&v2, bifrost.clock().now());
        assert!(stormy.retransmissions > 0);
        bifrost.set_corruption_rate(0.0);
        let v3 = sim.advance_round(0.4);
        let (calm, _) = bifrost.deliver_version(&v3, bifrost.clock().now());
        assert_eq!(calm.retransmissions, 0);
    }

    #[test]
    fn trunk_outage_delays_but_does_not_lose_slices() {
        let mut sim = corpus();
        let v1 = sim.advance_round(1.0);
        let baseline = {
            let mut b = Bifrost::new(small_cfg(), SimClock::new());
            b.deliver_version(&v1, SimTime::ZERO).0
        };
        let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
        assert!(bifrost.num_links() > 0);
        // Every trunk down from just after the start until past the
        // unfaulted completion time, then restored.
        let restore_at = baseline.update_time + SimTime::from_mins(10);
        for l in 0..bifrost.num_links() {
            bifrost.schedule_link_scale(SimTime::from_secs(1), LinkId(l as u32), 0.0);
            bifrost.schedule_link_scale(restore_at, LinkId(l as u32), 1.0);
        }
        let (stalled, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
        // Nothing is lost: every data center still gets every slice, just
        // later than the unfaulted run.
        assert_eq!(stalled.arrivals.len(), baseline.arrivals.len());
        assert!(
            stalled.update_time > baseline.update_time,
            "outage should delay delivery: {:?} vs {:?}",
            stalled.update_time,
            baseline.update_time
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut sim = corpus();
            let mut bifrost = Bifrost::new(small_cfg(), SimClock::new());
            let v1 = sim.advance_round(1.0);
            let (r1, _) = bifrost.deliver_version(&v1, SimTime::ZERO);
            let v2 = sim.advance_round(0.3);
            let (r2, _) = bifrost.deliver_version(&v2, bifrost_now(&bifrost));
            (r1.update_time, r2.update_time, r2.dedup.bytes_after)
        };
        fn bifrost_now(b: &Bifrost) -> SimTime {
            b.clock().now()
        }
        assert_eq!(run(), run());
    }
}
