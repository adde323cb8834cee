//! End-to-end integration: the full DirectLoad pipeline across crates.

use bifrost::{Bifrost, DataCenterId};
use bytes::Bytes;
use directload::{routed_key, DirectLoad, DirectLoadConfig, DirectLoadError, GrayRelease};
use indexgen::{CrawlSimulator, IndexKind, QueryWorkload, QueryWorkloadConfig};
use mint::{Mint, MintError, NodeId, WriteOp};
use simclock::SimClock;
use std::collections::VecDeque;

fn system() -> DirectLoad {
    DirectLoad::new(DirectLoadConfig::small())
}

#[test]
fn multi_version_cycle_preserves_queryability() {
    let mut s = system();
    let changes = [1.0, 0.3, 0.5, 0.2];
    let mut dedup_ratios = Vec::new();
    for change in changes {
        let report = s.run_version(change).unwrap();
        dedup_ratios.push(report.delivery.dedup.pair_ratio());
    }
    // The first version ships full; later versions dedup roughly in
    // proportion to the unchanged fraction.
    assert_eq!(dedup_ratios[0], 0.0);
    assert!(dedup_ratios[1] > 0.4, "day 2 dedup {dedup_ratios:?}");
    // Every version of every summary resolves at a summary host,
    // including deduplicated ones via traceback.
    let dc = DataCenterId::summary_hosts()[1];
    for version in 1..=4u64 {
        for url in s.urls().iter().take(15) {
            let (v, latency) = s.get_summary(dc, url, version).unwrap();
            assert!(v.is_some(), "summary {url:?}@{version} missing");
            assert!(latency.as_micros() > 0);
        }
    }
    // Inverted indices resolve at every data center.
    for dc in DataCenterId::all() {
        let mut found = 0;
        for t in 0..64u32 {
            let key = format!("term:{t:08}");
            if s.get_inverted(dc, key.as_bytes(), 4).unwrap().0.is_some() {
                found += 1;
            }
        }
        assert!(found > 0, "no inverted entries at {dc:?}");
    }
}

#[test]
fn dedup_reduces_update_time() {
    let mut s = system();
    let full = s.run_version(1.0).unwrap();
    let dup = s.run_version(0.05).unwrap();
    assert!(
        dup.delivery.update_time < full.delivery.update_time,
        "dedup'd version should deliver faster: {} vs {}",
        dup.delivery.update_time,
        full.delivery.update_time
    );
    assert!(dup.delivery.dedup.byte_ratio() > 0.5);
}

#[test]
fn gray_release_lifecycle_with_real_content() {
    let mut s = system();
    s.run_version(1.0).unwrap();
    s.run_version(0.4).unwrap();
    let mut gray = GrayRelease::new();
    gray.begin(DataCenterId::all()[0], 1);
    gray.promote();
    let gray_dc = DataCenterId::all()[2];
    gray.begin(gray_dc, 2);
    assert_eq!(gray.active_version(gray_dc), 2);
    assert_eq!(gray.active_version(DataCenterId::all()[0]), 1);
    // Content-level inconsistency is bounded by the change fraction.
    let urls = s.urls();
    let host = DataCenterId::summary_hosts()[0];
    let ratio = gray.inconsistency(&urls, |url, a, b| {
        s.get_summary(host, url, a).unwrap().0 != s.get_summary(host, url, b).unwrap().0
    });
    assert!(ratio < 0.35, "inconsistency too high: {ratio}");
    gray.rollback();
    assert_eq!(gray.active_version(gray_dc), 1);
}

#[test]
fn retention_window_is_enforced_everywhere() {
    let mut s = system();
    for _ in 0..6 {
        s.run_version(0.4).unwrap();
    }
    let url = s.urls()[0].clone();
    let dc = DataCenterId::summary_hosts()[0];
    // Versions 1 and 2 retired (retain 4 of 6); recent versions resolve.
    assert_eq!(s.get_summary(dc, &url, 1).unwrap().0, None);
    assert_eq!(s.get_summary(dc, &url, 2).unwrap().0, None);
    for version in 3..=6u64 {
        assert!(
            s.get_summary(dc, &url, version).unwrap().0.is_some(),
            "version {version} should be retained"
        );
    }
}

#[test]
fn serves_a_realistic_query_stream() {
    // A VIP-skewed, Zipf-distributed query stream (the paper's ">80% of
    // user queries hit VIP data") against the freshly updated indices:
    // every query must complete, hit documents must actually contain the
    // matched terms, and results must agree across data centers.
    let mut s = system();
    s.run_version(1.0).unwrap();
    s.run_version(0.3).unwrap();
    // Rebuild a matching corpus for workload generation (same config and
    // seed ⇒ same term sets as the system's crawler after two rounds).
    let mut twin = CrawlSimulator::new(DirectLoadConfig::small().corpus);
    twin.advance_round(1.0);
    twin.advance_round(0.3);
    let mut workload = QueryWorkload::new(&twin, QueryWorkloadConfig::default());
    let dc_a = DataCenterId::all()[0];
    let dc_b = DataCenterId::all()[3];
    let mut answered = 0;
    for query in workload.take(40) {
        let term_refs: Vec<&[u8]> = query.terms.iter().map(|t| t.as_ref()).collect();
        let ra = s.search(dc_a, &term_refs, 2, 5).unwrap();
        let rb = s.search(dc_b, &term_refs, 2, 5).unwrap();
        let flat = |r: &directload::SearchResponse| -> Vec<(bytes::Bytes, usize)> {
            r.hits
                .iter()
                .map(|h| (h.url.clone(), h.matched_terms))
                .collect()
        };
        assert_eq!(flat(&ra), flat(&rb), "cross-DC result divergence");
        if !ra.hits.is_empty() {
            answered += 1;
            // The top hit's forward index must contain every matched term.
            let top = &ra.hits[0];
            assert!(top.matched_terms >= 1 && top.matched_terms <= term_refs.len());
            assert!(top.summary.is_some(), "hit without an abstract");
        }
    }
    assert!(answered > 20, "too few queries answered: {answered}/40");
}

#[test]
fn corruption_injection_still_delivers_everything() {
    let mut cfg = DirectLoadConfig::small();
    cfg.bifrost.corruption_rate = 0.3;
    let mut s = DirectLoad::new(cfg);
    let report = s.run_version(1.0).unwrap();
    assert!(report.delivery.retransmissions > 0, "fault injection inert");
    // Retransmitted slices still land: every summary resolves.
    let dc = DataCenterId::summary_hosts()[0];
    for url in s.urls().iter().take(20) {
        assert!(s.get_summary(dc, url, 1).unwrap().0.is_some());
    }
}

/// Change fractions of seven rounds: three past the four-version window,
/// so the last three also retire a version.
const ROUNDS: [f64; 7] = [1.0, 0.3, 0.5, 0.2, 0.4, 0.3, 0.6];

/// Everything a cluster's storage state shows from outside: engine,
/// device and WAL totals, group-log heads, disk bytes, and every node's
/// frontier and flash.
fn observe(cluster: &Mint) -> impl PartialEq + std::fmt::Debug {
    let heads: Vec<u64> = (0..cluster.num_groups())
        .map(|g| cluster.group_log_head(g).unwrap())
        .collect();
    let nodes: Vec<_> = (0..cluster.num_nodes() as u32)
        .map(NodeId)
        .map(|n| {
            let flash = cluster.node_device(n).unwrap().raw_digest();
            (cluster.node_wal_frontier(n).ok(), flash)
        })
        .collect();
    (
        cluster.aggregate_stats(),
        cluster.aggregate_device_counters(),
        cluster.aggregate_wal_stats(),
        heads,
        cluster.total_disk_bytes(),
        nodes,
    )
}

/// A sample of routed keys across the three index families.
fn sample_keys(s: &DirectLoad) -> Vec<Bytes> {
    let mut keys = Vec::new();
    for url in s.urls().iter().step_by(7) {
        keys.push(routed_key(IndexKind::Forward, url));
        keys.push(routed_key(IndexKind::Summary, url));
    }
    for t in 0..32u32 {
        keys.push(routed_key(
            IndexKind::Inverted,
            format!("term:{t:08}").as_bytes(),
        ));
    }
    keys
}

#[test]
fn determinism_same_seed_systems_agree_on_reports_traces_and_storage() {
    let run = || {
        let mut s = system();
        let reports: Vec<String> = ROUNDS
            .iter()
            .map(|&change| format!("{:?}", s.run_version(change).unwrap()))
            .collect();
        s.checkpoint_all().expect("checkpoint after the last round");
        (reports, s)
    };
    let (reports_a, a) = run();
    let (reports_b, b) = run();
    assert_eq!(reports_a, reports_b);
    // The simulated-time ring is a pure function of the seed: sequence
    // numbers, order, timestamps and eviction count.
    assert_eq!(a.trace().to_jsonl(), b.trace().to_jsonl());
    assert_eq!(a.trace().dropped(), b.trace().dropped());
    // The wall ring's timestamps are real time, everything else is not.
    let shape = |s: &DirectLoad| -> Vec<(u64, obs::SpanKind, String, u64)> {
        s.wall_trace()
            .snapshot()
            .into_iter()
            .map(|e| (e.seq, e.kind, e.label, e.amount))
            .collect()
    };
    assert_eq!(shape(&a), shape(&b));
    assert_eq!(a.wall_trace().dropped(), b.wall_trace().dropped());
    // Every data center's load is in the ring, grouped by center within
    // a round.
    let loads: Vec<String> = shape(&a)
        .into_iter()
        .filter(|(_, kind, label, _)| *kind == obs::SpanKind::Load && label.starts_with("dc"))
        .map(|(.., label, _)| label)
        .collect();
    let mut first_round: Vec<String> = loads.clone();
    first_round.dedup();
    first_round.truncate(6);
    assert_eq!(
        first_round,
        ["dc0.0", "dc0.1", "dc1.0", "dc1.1", "dc2.0", "dc2.1"]
    );
    for dc in a.dc_ids() {
        assert_eq!(
            observe(a.cluster(dc).unwrap()),
            observe(b.cluster(dc).unwrap()),
            "{dc:?}"
        );
    }
    assert_eq!(a.min_live_version(), 4);
}

/// The storage phase rebuilt from public parts, as a reference: six
/// standalone clusters loaded one after another from the same delivered
/// streams (apply summaries, apply the rest, retire — per data center).
struct StandaloneClusters {
    crawler: CrawlSimulator,
    clock: SimClock,
    bifrost: Bifrost,
    dcs: Vec<(DataCenterId, Mint)>,
    /// `(version, summary keys, other keys)` of the retained versions.
    history: VecDeque<(u64, Vec<Bytes>, Vec<Bytes>)>,
    retained: usize,
}

impl StandaloneClusters {
    fn new(cfg: DirectLoadConfig) -> Self {
        let clock = SimClock::new();
        StandaloneClusters {
            crawler: CrawlSimulator::new(cfg.corpus),
            bifrost: Bifrost::new(cfg.bifrost, clock.clone()),
            clock,
            dcs: DataCenterId::all()
                .into_iter()
                .map(|dc| (dc, Mint::new(cfg.mint)))
                .collect(),
            history: VecDeque::new(),
            retained: cfg.versions_retained,
        }
    }

    fn run_version(&mut self, change_fraction: f64) {
        let index = self.crawler.advance_round(change_fraction);
        let (_, entries) = self.bifrost.deliver_version(&index, self.clock.now());
        let ops_where = |summary: bool| -> Vec<WriteOp> {
            entries
                .iter()
                .filter(|e| (e.kind == IndexKind::Summary) == summary)
                .map(|e| WriteOp {
                    key: routed_key(e.kind, &e.key),
                    version: e.version,
                    value: e.value.clone(),
                })
                .collect()
        };
        let (summary_ops, other_ops) = (ops_where(true), ops_where(false));
        let keys = |ops: &[WriteOp]| ops.iter().map(|op| op.key.clone()).collect();
        self.history
            .push_back((index.version, keys(&summary_ops), keys(&other_ops)));
        let retiring =
            (self.history.len() > self.retained).then(|| self.history.pop_front().unwrap());
        let hosts = DataCenterId::summary_hosts();
        for (dc, cluster) in &mut self.dcs {
            let hosts_summaries = hosts.contains(dc);
            if hosts_summaries {
                cluster.apply(&summary_ops).unwrap();
            }
            cluster.apply(&other_ops).unwrap();
            if let Some((version, summary, other)) = &retiring {
                if hosts_summaries {
                    cluster.retire(summary, *version).unwrap();
                }
                cluster.retire(other, *version).unwrap();
            }
        }
    }
}

#[test]
fn both_rings_record_every_phase_alike() {
    use obs::SpanKind::*;
    let mut s = system();
    s.run_version(0.3).unwrap();
    assert_eq!((s.trace().dropped(), s.wall_trace().dropped()), (0, 0));
    // The phases a scope opens on both rings, in ring order. Each Mint
    // cluster's own `load` is wall-only; the pipeline's is on both.
    let phases = |ring: &obs::TraceSink, kind: obs::SpanKind| -> Vec<(String, u64)> {
        ring.snapshot()
            .into_iter()
            .filter(|e| e.kind == kind && (kind != Load || e.label == "pipeline"))
            .map(|e| (e.label, e.amount))
            .collect()
    };
    for kind in [Build, Dedup, Slice, Deliver, Load, Publish, Flush] {
        let sim = phases(s.trace(), kind);
        let wall = phases(s.wall_trace(), kind);
        assert_eq!(sim, wall, "{kind:?}: the rings disagree");
        if kind == Flush {
            assert!(!sim.is_empty(), "no engine flushed");
        } else {
            assert_eq!(sim.len(), 1, "{kind:?}: one opening a round");
        }
    }
}

#[test]
fn determinism_storage_phase_matches_six_standalone_clusters() {
    let mut s = system();
    let mut reference = StandaloneClusters::new(DirectLoadConfig::small());
    for change in ROUNDS {
        s.run_version(change).unwrap();
        reference.run_version(change);
    }
    let keys = sample_keys(&s);
    for (dc, standalone) in &reference.dcs {
        let piped = s.cluster(*dc).unwrap();
        assert_eq!(observe(piped), observe(standalone), "{dc:?}");
        for key in &keys {
            assert_eq!(
                piped.chain_digests(key),
                standalone.chain_digests(key),
                "{dc:?} {key:?}"
            );
        }
    }
}

/// Fails every member of `group` at `dc`: writes routed there have no
/// replica left.
fn fail_group(s: &mut DirectLoad, dc: DataCenterId, group: usize) -> Vec<NodeId> {
    let cluster = s.cluster_mut(dc).unwrap();
    let members: Vec<NodeId> = cluster
        .group_members(group)
        .iter()
        .map(|&n| NodeId(n))
        .collect();
    for &node in &members {
        cluster.fail_node(node).unwrap();
    }
    members
}

#[test]
fn a_failed_data_center_fails_the_round_and_leaves_the_others_whole() {
    let mut s = system();
    for change in &ROUNDS[..5] {
        s.run_version(*change).unwrap();
    }
    assert_eq!(s.min_live_version(), 2);
    let broken = DataCenterId::all()[3];
    let members = fail_group(&mut s, broken, 0);
    let before = observe(s.cluster(broken).unwrap());
    let error = s.run_version(0.3).unwrap_err();
    assert!(
        matches!(error, DirectLoadError::Mint(MintError::NoReplicaAvailable)),
        "{error}"
    );
    // The window did not move, and the broken center took nothing: its
    // batch was rejected before the first log record.
    assert_eq!(s.min_live_version(), 2);
    assert_eq!(s.version(), 6);
    assert_eq!(observe(s.cluster(broken).unwrap()), before);
    // Every healthy center holds version 6 whole — all three families —
    // and has retired version 2.
    let url = s.urls()[0].clone();
    for dc in DataCenterId::all().into_iter().filter(|dc| *dc != broken) {
        assert!(s.get_forward(dc, &url, 6).unwrap().0.is_some(), "{dc:?}");
        assert_eq!(s.get_forward(dc, &url, 2).unwrap().0, None, "{dc:?}");
        if DataCenterId::summary_hosts().contains(&dc) {
            assert!(s.get_summary(dc, &url, 6).unwrap().0.is_some(), "{dc:?}");
        }
        let healthy = s.cluster(dc).unwrap();
        for key in sample_keys(&s) {
            let digests = healthy.chain_digests(&key);
            assert!(
                digests.windows(2).all(|w| w[0].1 == w[1].1),
                "{dc:?} {key:?}: half-applied batch: {digests:?}"
            );
        }
    }
    // Repair the center: the next round goes through everywhere and the
    // window moves again.
    for node in members {
        s.cluster_mut(broken).unwrap().recover_node(node).unwrap();
    }
    let report = s.run_version(0.3).unwrap();
    assert_eq!(report.version, 7);
    assert_eq!(report.versions_retired, 1);
    assert_eq!(s.min_live_version(), 3);
    assert!(s.get_forward(broken, &url, 7).unwrap().0.is_some());
}

#[test]
fn the_lowest_numbered_failed_data_center_names_the_error() {
    // Two centers fail the same round in different ways: one has a dead
    // group (its batch is rejected while routing), the other's devices
    // are full (its batch fails in an engine, on a node).
    let all = DataCenterId::all();
    for (dead_group_at, full_at) in [(all[1], all[4]), (all[4], all[1])] {
        for _ in 0..3 {
            let mut s = system();
            s.run_version(1.0).unwrap();
            fail_group(&mut s, dead_group_at, 1);
            let cluster = s.cluster_mut(full_at).unwrap();
            let mut version = 1_000;
            let full = loop {
                let junk: Vec<WriteOp> = (0..64u32)
                    .map(|i| WriteOp {
                        key: Bytes::from(format!("junk:{i:04}")),
                        version,
                        value: Some(Bytes::from(vec![i as u8; 32 * 1024])),
                    })
                    .collect();
                version += 1;
                if let Err(error) = cluster.apply(&junk) {
                    break error;
                }
            };
            assert!(matches!(full, MintError::Node { .. }), "{full}");
            let error = s.run_version(0.3).unwrap_err();
            let from_dead_group =
                matches!(error, DirectLoadError::Mint(MintError::NoReplicaAvailable));
            assert_eq!(
                from_dead_group,
                dead_group_at < full_at,
                "dead group at {dead_group_at:?}, full devices at {full_at:?}: {error}"
            );
        }
    }
}
