//! The Jepsen-lite invariant checker.
//!
//! After every pipeline round (and once more after the storm settles)
//! the checker re-derives what must be true of a correct deployment and
//! records a [`Violation`] for every discrepancy:
//!
//! 1. **No acked write lost** — every `(url, version)` the pipeline
//!    published and the checker successfully read back must keep
//!    returning byte-identical values from every data center that
//!    stores it, for as long as the version is retained. This holds
//!    *across topology churn*: a live scale-out or decommission must
//!    never lose an acked value.
//! 2. **No stale reads** — once retention drops a version below the
//!    live floor, reading it must return absent from every data center.
//!    A value resurfacing here means some replica served state it should
//!    have learned was deleted — the classic stale-read failure of a
//!    crash recovery or live migration that skipped anti-entropy.
//! 3. **Replica convergence** — the alive members of a key's group hold
//!    identical `(version, deleted)` chains (compared by digest), at
//!    every data center, whenever the group sits at base width. (A group
//!    an in-flight scale-out widened beyond the replication factor
//!    legitimately diverges: writes land on the top-R of the wider
//!    member set.) A recovered node that skipped anti-entropy diverges
//!    here — recovery syncs *before* serving, so a serving replica with
//!    a short chain is a violation, not a race.
//! 4. **Missed-deadline accounting** — the per-round delivery reports'
//!    missed-slice counts must sum to exactly the `bifrost.missed_total`
//!    metric: no missed slice is dropped from or double-counted in the
//!    system-wide export.
//! 5. **Firmware counters monotonic** — per-DC aggregated device
//!    counters never decrease: crashes and recoveries must not lose or
//!    reset flash-level accounting.
//! 6. **Attribution conservation** — the checker performs its sample
//!    reads through the costed read path and folds every returned
//!    [`obs::ReadAttribution`] into one accumulator for the whole
//!    storm. The per-group and per-node attributed heat must sum
//!    exactly to the request totals (no read cost lost or
//!    double-counted across crashes, retries and churn), and the WAN
//!    ledger's foreground class must equal bifrost's exported delivery
//!    uplink bytes byte-for-byte.
//! 7. **A replica read alone is as good as the group** — Mint answers a
//!    read from one replica when it can prove that replica has applied
//!    its group's whole log. Every retained acked sample is re-read
//!    through the costed path: it must return the acked bytes, and when
//!    the attribution says one replica was consulted in a base-width
//!    group, that node's `(version, deleted)` chain must equal every
//!    other alive member's — a node served alone while its chain
//!    diverges is a stale read waiting to happen. The storm must also
//!    see the single-replica path taken at least once with the whole
//!    group alive, so the proof is not vacuous.

use bytes::Bytes;
use directload::{routed_key, DirectLoad, VersionReport};
use indexgen::IndexKind;
use ssdsim::CounterSnapshot;

/// One invariant breach, attributed to the round that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Round after which the check failed (`u32::MAX` for the final
    /// settle pass).
    pub round: u32,
    /// Which invariant broke.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "round={} invariant={} {}",
            self.round, self.invariant, self.detail
        )
    }
}

/// A successfully published-and-read-back value the system is now on the
/// hook for.
struct AckedSample {
    url: Bytes,
    version: u64,
    summary: Bytes,
    forward: Bytes,
}

/// Cross-layer state checker. Create once per storm; feed it every
/// round's outcome.
pub struct InvariantChecker {
    samples: Vec<AckedSample>,
    urls: Vec<Bytes>,
    counters: Vec<CounterSnapshot>,
    missed_sum: u64,
    /// Attribution from every costed sample read across the storm —
    /// invariant 6 asserts its conservation each round.
    attr: obs::CostAccumulator,
    /// Whether any sample read was answered by one replica while every
    /// member of its group was alive (invariant 7's non-vacuity half).
    lone_read_seen: bool,
    violations: Vec<Violation>,
}

impl InvariantChecker {
    /// Tracks up to `sample_keys` documents through the storm.
    pub fn new(system: &DirectLoad, sample_keys: usize) -> Self {
        let urls: Vec<Bytes> = system.urls().into_iter().take(sample_keys).collect();
        let counters = system
            .dc_ids()
            .iter()
            .map(|&dc| {
                system
                    .cluster(dc)
                    .expect("deployment DC exists")
                    .aggregate_device_counters()
            })
            .collect();
        InvariantChecker {
            samples: Vec::new(),
            urls,
            counters,
            missed_sum: 0,
            attr: obs::CostAccumulator::new(),
            lone_read_seen: false,
            violations: Vec::new(),
        }
    }

    /// Checks every invariant after a completed round.
    pub fn observe_round(&mut self, system: &DirectLoad, report: &VersionReport, round: u32) {
        self.missed_sum += report.delivery.missed as u64;
        self.record_acked(system, report.version, round);
        self.check_acked_stable(system, round);
        self.check_convergence(system, round);
        self.check_missed_accounting(system, round);
        self.check_counters_monotonic(system, round);
        self.check_attribution_conservation(system, report.version, round);
        self.check_lone_reads(system, round);
    }

    /// The full check suite once the storm has settled (every node
    /// recovered, every injection cleared).
    pub fn finalize(&mut self, system: &DirectLoad) {
        const SETTLE: u32 = u32::MAX;
        for &dc in &system.dc_ids() {
            let cluster = system.cluster(dc).expect("deployment DC exists");
            if !cluster.all_alive() {
                self.violations.push(Violation {
                    round: SETTLE,
                    invariant: "all_recovered",
                    detail: format!(
                        "dc {:?} settled with {}/{} nodes alive",
                        dc,
                        cluster.alive_count(),
                        cluster.num_nodes()
                    ),
                });
            }
        }
        self.check_acked_stable(system, SETTLE);
        self.check_convergence(system, SETTLE);
        self.check_counters_monotonic(system, SETTLE);
        self.check_attribution_conservation(system, system.version(), SETTLE);
        self.check_lone_reads(system, SETTLE);
        if !self.lone_read_seen {
            self.violations.push(Violation {
                round: SETTLE,
                invariant: "lone_read_taken",
                detail: "no sample read was answered by a single replica of a fully alive group"
                    .to_string(),
            });
        }
    }

    /// Violations found so far (empty on a correct system).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Records a violation observed outside the checker's own passes
    /// (the orchestrator uses this for failed pipeline rounds, exhausted
    /// recovery retries and events the deployment cannot take).
    pub fn push_violation(&mut self, violation: Violation) {
        self.violations.push(violation);
    }

    /// Read-after-publish: sample this version's values. A value that
    /// reads back now is *acked* — losing it later is a violation.
    /// Values are read from the first hosting DC and must already agree
    /// across the others (checked by `check_acked_stable` this round).
    fn record_acked(&mut self, system: &DirectLoad, version: u64, round: u32) {
        let summary_dc = bifrost::DataCenterId::summary_hosts()[0];
        let forward_dc = system.dc_ids()[0];
        for url in &self.urls {
            let summary = match system.get_summary(summary_dc, url, version) {
                Ok((Some(v), _)) => v,
                Ok((None, _)) => {
                    self.violations.push(Violation {
                        round,
                        invariant: "acked_write_durable",
                        detail: format!(
                            "published version {version} missing summary for {url:?} at {summary_dc:?}"
                        ),
                    });
                    continue;
                }
                Err(e) => {
                    self.violations.push(Violation {
                        round,
                        invariant: "acked_write_durable",
                        detail: format!("read-after-publish failed for {url:?}: {e}"),
                    });
                    continue;
                }
            };
            let forward = match system.get_forward(forward_dc, url, version) {
                Ok((Some(v), _)) => v,
                other => {
                    self.violations.push(Violation {
                        round,
                        invariant: "acked_write_durable",
                        detail: format!(
                            "published version {version} unreadable forward for {url:?}: {other:?}"
                        ),
                    });
                    continue;
                }
            };
            self.samples.push(AckedSample {
                url: url.clone(),
                version,
                summary,
                forward,
            });
        }
    }

    /// Invariant 1: every retained acked sample reads back identical
    /// bytes from every data center that stores it. Invariant 2: a
    /// sample retention just dropped must now read back absent
    /// everywhere — a value resurfacing after its deletion is a stale
    /// read (the deletion fanned out to every alive replica this round,
    /// and recovery/migration anti-entropy replicates deletion marks).
    fn check_acked_stable(&mut self, system: &DirectLoad, round: u32) {
        let min_live = system.min_live_version();
        let (kept, dropped): (Vec<AckedSample>, Vec<AckedSample>) =
            std::mem::take(&mut self.samples)
                .into_iter()
                .partition(|s| s.version >= min_live);
        self.samples = kept;
        let summary_hosts = bifrost::DataCenterId::summary_hosts();
        let all_dcs = system.dc_ids();
        for s in &dropped {
            for &dc in &summary_hosts {
                if let Ok((Some(v), _)) = system.get_summary(dc, &s.url, s.version) {
                    self.violations.push(Violation {
                        round,
                        invariant: "no_stale_reads",
                        detail: format!(
                            "summary {:?}@v{} at {dc:?} still readable ({} bytes) after retention dropped it",
                            s.url,
                            s.version,
                            v.len()
                        ),
                    });
                }
            }
            for &dc in &all_dcs {
                if let Ok((Some(v), _)) = system.get_forward(dc, &s.url, s.version) {
                    self.violations.push(Violation {
                        round,
                        invariant: "no_stale_reads",
                        detail: format!(
                            "forward {:?}@v{} at {dc:?} still readable ({} bytes) after retention dropped it",
                            s.url,
                            s.version,
                            v.len()
                        ),
                    });
                }
            }
        }
        for s in &self.samples {
            for &dc in &summary_hosts {
                match system.get_summary(dc, &s.url, s.version) {
                    Ok((Some(v), _)) if v == s.summary => {}
                    other => self.violations.push(Violation {
                        round,
                        invariant: "acked_write_durable",
                        detail: format!(
                            "summary {:?}@v{} at {dc:?} no longer matches ack: {:?}",
                            s.url,
                            s.version,
                            other.map(|(v, _)| v.map(|b| b.len()))
                        ),
                    }),
                }
            }
            for &dc in &all_dcs {
                match system.get_forward(dc, &s.url, s.version) {
                    Ok((Some(v), _)) if v == s.forward => {}
                    other => self.violations.push(Violation {
                        round,
                        invariant: "acked_write_durable",
                        detail: format!(
                            "forward {:?}@v{} at {dc:?} no longer matches ack: {:?}",
                            s.url,
                            s.version,
                            other.map(|(v, _)| v.map(|b| b.len()))
                        ),
                    }),
                }
            }
        }
    }

    /// Invariant 3: alive replicas of every sampled key hold identical
    /// version chains, in every data center — for groups at base width.
    /// A group a scale-out widened beyond the replication factor
    /// legitimately diverges (writes land on the top-R of the wider
    /// member set), so those groups are skipped until a drain brings
    /// them back to width.
    fn check_convergence(&mut self, system: &DirectLoad, round: u32) {
        let summary_hosts = bifrost::DataCenterId::summary_hosts();
        for &dc in &system.dc_ids() {
            let cluster = system.cluster(dc).expect("deployment DC exists");
            for url in &self.urls {
                let mut keys = vec![routed_key(IndexKind::Forward, url)];
                if summary_hosts.contains(&dc) {
                    keys.push(routed_key(IndexKind::Summary, url));
                }
                for key in keys {
                    let group = cluster.key_group(&key);
                    if cluster.group_members(group).len() > cluster.replicas() {
                        continue;
                    }
                    let digests = cluster.chain_digests(&key);
                    if digests.windows(2).any(|w| w[0].1 != w[1].1) {
                        self.violations.push(Violation {
                            round,
                            invariant: "replicas_converge",
                            detail: format!("{dc:?} {key:?} chains diverge: {digests:?}"),
                        });
                    }
                }
            }
        }
    }

    /// Invariant 7: re-reads every retained acked forward sample through
    /// the costed path at every data center. The bytes must match the
    /// ack; a read one replica answered alone, in a base-width group,
    /// must have come from a node whose chain equals its alive peers'.
    /// The attributions also feed invariant 6's accumulator.
    fn check_lone_reads(&mut self, system: &DirectLoad, round: u32) {
        for &dc in &system.dc_ids() {
            let cluster = system.cluster(dc).expect("deployment DC exists");
            let label = format!("dc{}.{}", dc.region.0, dc.slot);
            for s in &self.samples {
                let key = routed_key(IndexKind::Forward, &s.url);
                let Ok((value, _, read)) = cluster.get_costed(&key, s.version, 0) else {
                    continue; // unreadable samples are invariant 1's to report
                };
                if value.as_ref() != Some(&s.forward) {
                    self.violations.push(Violation {
                        round,
                        invariant: "lone_read_matches_ack",
                        detail: format!(
                            "forward {:?}@v{} at {dc:?} read {:?} bytes via {:?}, acked {}",
                            s.url,
                            s.version,
                            value.map(|b| b.len()),
                            read.per_node.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
                            s.forward.len()
                        ),
                    });
                }
                let members = cluster.group_members(cluster.key_group(&key));
                if read.cost.replicas == 1 {
                    let digests = cluster.chain_digests(&key);
                    self.lone_read_seen |= digests.len() == members.len();
                    let served = read.per_node[0].0;
                    let own = digests.iter().find(|(n, _)| u64::from(n.0) == served);
                    let agrees = own.is_some_and(|own| digests.iter().all(|d| d.1 == own.1));
                    if members.len() <= cluster.replicas() && !agrees {
                        self.violations.push(Violation {
                            round,
                            invariant: "lone_read_converged",
                            detail: format!(
                                "{dc:?} {key:?}@v{} served by node {served} alone while chains \
                                 diverge: {digests:?}",
                                s.version
                            ),
                        });
                    }
                }
                record_read(&mut self.attr, &label, read);
            }
        }
    }

    /// Invariant 4: the metrics export accounts for exactly the missed
    /// slices the per-round reports saw.
    fn check_missed_accounting(&mut self, system: &DirectLoad, round: u32) {
        let snap = system.introspect();
        let exported = snap.counter("bifrost.missed_total");
        if exported != Some(self.missed_sum) {
            self.violations.push(Violation {
                round,
                invariant: "missed_slices_accounted",
                detail: format!(
                    "bifrost.missed_total={exported:?} but reports sum to {}",
                    self.missed_sum
                ),
            });
        }
    }

    /// Invariant 5: per-DC firmware counters never go backwards.
    fn check_counters_monotonic(&mut self, system: &DirectLoad, round: u32) {
        for (i, &dc) in system.dc_ids().iter().enumerate() {
            let now = system
                .cluster(dc)
                .expect("deployment DC exists")
                .aggregate_device_counters();
            if !now.monotonic_from(&self.counters[i]) {
                self.violations.push(Violation {
                    round,
                    invariant: "firmware_counters_monotonic",
                    detail: format!(
                        "dc {dc:?} counters regressed: {:?} -> {now:?}",
                        self.counters[i]
                    ),
                });
            }
            self.counters[i] = now;
        }
    }

    /// Invariant 6: load attribution is conservative. Sample reads go
    /// through the costed path; the accumulator's per-group and
    /// per-node heat must sum exactly to its request totals, and the
    /// WAN ledger's foreground class must equal the delivery layer's
    /// exported uplink bytes.
    fn check_attribution_conservation(&mut self, system: &DirectLoad, version: u64, round: u32) {
        for &dc in &system.dc_ids() {
            let cluster = system.cluster(dc).expect("deployment DC exists");
            let label = format!("dc{}.{}", dc.region.0, dc.slot);
            for url in &self.urls {
                let key = routed_key(IndexKind::Forward, url);
                if let Ok((_, _, read)) = cluster.get_costed(&key, version, 0) {
                    record_read(&mut self.attr, &label, read);
                }
            }
        }
        let (group_err, node_err) = self.attr.conservation_error();
        if group_err != 0 || node_err != 0 {
            self.violations.push(Violation {
                round,
                invariant: "attribution_conserves_cost",
                detail: format!(
                    "attributed heat drifts from request totals: group_err={group_err} \
                     node_err={node_err}"
                ),
            });
        }
        let foreground = system.wan().class_total(obs::TrafficClass::Foreground);
        let exported = system.introspect().counter("bifrost.uplink_bytes");
        if exported != Some(foreground) {
            self.violations.push(Violation {
                round,
                invariant: "wan_foreground_matches_delivery",
                detail: format!(
                    "wan ledger foreground={foreground} but bifrost.uplink_bytes={exported:?}"
                ),
            });
        }
    }
}

/// Folds one costed sample read, served at data center `dc_label`, into
/// the storm's attribution accumulator.
fn record_read(attr: &mut obs::CostAccumulator, dc_label: &str, read: obs::ReadAttribution) {
    attr.record(
        dc_label,
        &obs::Cost {
            queue_us: 0,
            service_us: 0,
            reads: vec![read],
        },
    );
}
