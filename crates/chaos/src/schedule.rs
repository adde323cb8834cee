//! Deterministic fault schedules.
//!
//! A schedule is a timeline of typed fault events, each pinned to a
//! pipeline round, and the number of rounds the storm runs: the
//! orchestrator takes the length from the schedule. Schedules can be
//! authored explicitly (a regression test replaying a specific storm;
//! an event at or past the declared length is refused) or generated
//! from a seed, a length and a churn rate; generation is a pure
//! function of the [`ScheduleConfig`], so the same seed always yields
//! byte-identical timelines — the property the determinism test
//! asserts end to end.
//!
//! The generator maintains a model of cluster state while it rolls dice
//! so it only emits *valid* storms: it never crashes a node whose group
//! already runs at minimum live membership, never crashes a node that is
//! already down or under media-fault injection (recovery replays the AOF
//! from flash — injected read faults would make the recovery itself
//! flaky), and always schedules the matching recovery. The model also
//! tracks topology churn: scale-outs add nodes with deterministic dense
//! ids, decommissions are only rolled against groups an earlier
//! scale-out lifted above the replication floor, and retired nodes drop
//! out of every later candidate pool.

use std::collections::BTreeSet;
use std::fmt;

/// Scale-out cap per DC per storm: churn should reshape the topology,
/// not grow it without bound (each join syncs a full group's footprint).
const MAX_SCALE_OUTS_PER_DC: u32 = 2;

/// One typed fault (or its repair), addressed to a specific layer.
///
/// Fields are integers (permille rather than fractions, seconds rather
/// than durations) so events are `Eq`/`Ord`/hashable and format
/// identically across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Mint layer: crash node `node` of data center `dc` (an index into
    /// the deployment's DC list). Host memory is lost; flash survives.
    NodeCrash { dc: usize, node: u32 },
    /// Mint layer: crash node `node` of DC `dc` mid-program — the page
    /// past the durable tail of its newest AOF file is left torn.
    /// Recovery must detect and cut the tear without losing any acked
    /// record below it.
    NodeCrashTornWal { dc: usize, node: u32 },
    /// Mint layer: crash node `node` of DC `dc` with one byte of a
    /// durable AOF record flipped (a bad cell). Recovery must cut from
    /// the damage onward and re-ship what it lost from the group log —
    /// never claim a frontier above what the node acknowledged.
    NodeCrashCorruptWal { dc: usize, node: u32 },
    /// Mint layer: recover a previously crashed node (AOF replay plus
    /// WAL suffix catch-up from its group peers before it serves).
    NodeRecover { dc: usize, node: u32 },
    /// Netsim layer: WAN trunk `link` loses all capacity for `secs`
    /// simulated seconds, then returns to nominal. In-flight slices
    /// stall and resume; they are never dropped.
    LinkOutage { link: u32, secs: u32 },
    /// Netsim layer: trunk `link` degrades to `scale_permille`/1000 of
    /// nominal capacity for `secs` simulated seconds.
    LinkDegrade {
        link: u32,
        scale_permille: u32,
        secs: u32,
    },
    /// Bifrost layer: slice corruption probability jumps to
    /// `rate_permille`/1000 for the next `rounds` rounds (relay
    /// checksums catch it; slices retransmit and may miss deadlines).
    CorruptionBurst { rate_permille: u32, rounds: u32 },
    /// SSD layer: node `node` of DC `dc` suffers uncorrectable host
    /// reads at a 1-in-`one_in` rate for `rounds` rounds.
    SsdReadFaults {
        dc: usize,
        node: u32,
        one_in: u64,
        rounds: u32,
    },
    /// SSD layer: node `node` of DC `dc` suffers page program failures
    /// (firmware-masked, counted, latency-charged) at a 1-in-`one_in`
    /// rate for `rounds` rounds.
    SsdProgramFaults {
        dc: usize,
        node: u32,
        one_in: u64,
        rounds: u32,
    },
    /// Placement layer: grow group `group` of DC `dc` by one node via a
    /// live throttled migration (join, batched anti-entropy, cutover).
    /// Applied synchronously before the round runs, mid-storm — crashes
    /// and media faults in surrounding rounds land on the churned
    /// topology.
    GroupScaleOut { dc: usize, group: u32 },
    /// Placement layer: drain node `node` of DC `dc` to the survivors
    /// and retire it via a live throttled migration; reads fail over to
    /// the remaining replicas. Only scheduled for groups an earlier
    /// scale-out lifted above the replication floor.
    Decommission { dc: usize, node: u32 },
}

impl FaultKind {
    /// The subsystem the fault lands in — `mint`, `netsim`, `bifrost`,
    /// `ssd`, or `placement`. The chaos example asserts a storm spans
    /// several layers.
    pub fn layer(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. }
            | FaultKind::NodeCrashTornWal { .. }
            | FaultKind::NodeCrashCorruptWal { .. }
            | FaultKind::NodeRecover { .. } => "mint",
            FaultKind::LinkOutage { .. } | FaultKind::LinkDegrade { .. } => "netsim",
            FaultKind::CorruptionBurst { .. } => "bifrost",
            FaultKind::SsdReadFaults { .. } | FaultKind::SsdProgramFaults { .. } => "ssd",
            FaultKind::GroupScaleOut { .. } | FaultKind::Decommission { .. } => "placement",
        }
    }

    /// Short machine-readable name of the fault kind.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::NodeCrashTornWal { .. } => "node_crash_torn_wal",
            FaultKind::NodeCrashCorruptWal { .. } => "node_crash_corrupt_wal",
            FaultKind::NodeRecover { .. } => "node_recover",
            FaultKind::LinkOutage { .. } => "link_outage",
            FaultKind::LinkDegrade { .. } => "link_degrade",
            FaultKind::CorruptionBurst { .. } => "corruption_burst",
            FaultKind::SsdReadFaults { .. } => "ssd_read_faults",
            FaultKind::SsdProgramFaults { .. } => "ssd_program_faults",
            FaultKind::GroupScaleOut { .. } => "group_scale_out",
            FaultKind::Decommission { .. } => "decommission",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())?;
        match *self {
            FaultKind::NodeCrash { dc, node }
            | FaultKind::NodeCrashTornWal { dc, node }
            | FaultKind::NodeCrashCorruptWal { dc, node }
            | FaultKind::NodeRecover { dc, node }
            | FaultKind::Decommission { dc, node } => write!(f, " dc={dc} node={node}"),
            FaultKind::LinkOutage { link, secs } => write!(f, " link={link} secs={secs}"),
            FaultKind::LinkDegrade {
                link,
                scale_permille,
                secs,
            } => write!(
                f,
                " link={link} scale_permille={scale_permille} secs={secs}"
            ),
            FaultKind::CorruptionBurst {
                rate_permille,
                rounds,
            } => write!(f, " rate_permille={rate_permille} rounds={rounds}"),
            FaultKind::SsdReadFaults {
                dc,
                node,
                one_in,
                rounds,
            }
            | FaultKind::SsdProgramFaults {
                dc,
                node,
                one_in,
                rounds,
            } => write!(f, " dc={dc} node={node} one_in={one_in} rounds={rounds}"),
            FaultKind::GroupScaleOut { dc, group } => write!(f, " dc={dc} group={group}"),
        }
    }
}

/// A fault pinned to the pipeline round it fires before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    /// Round index (0-based); the orchestrator applies the event before
    /// running that round's update cycle.
    pub round: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// Data centers in the deployment a storm targets: `DataCenterId::all()`.
const NUM_DCS: usize = 6;
/// Storage nodes per data center: `DirectLoadConfig::small()`'s Mint
/// cluster, two groups of three.
const NODES_PER_DC: u32 = 6;
/// Nodes per Mint group at deployment time (node `n` starts in group
/// `n / NODES_PER_GROUP`; churn reshapes membership from there).
const NODES_PER_GROUP: u32 = 3;
/// Minimum alive nodes per group at all times: two keep reads
/// replicated even mid-crash.
const MIN_ALIVE_PER_GROUP: u32 = 2;
/// Link faults target `LinkId`s below this, and only these four of the
/// regional topology's 33 links: the summary-class uplinks of the three
/// regions and the summary-class backbone from region 0 to region 1.
/// Every inverted-class link, every downlink and the three P2P peer
/// links are never faulted.
const FAULTED_LINKS: u32 = 4;
/// Per-DC, per-round crash probability (permille).
const CRASH_PERMILLE: u32 = 220;
/// Per-round link fault probability (permille).
const LINK_PERMILLE: u32 = 500;
/// Per-round corruption-burst probability (permille).
const CORRUPTION_PERMILLE: u32 = 350;
/// Per-DC, per-round SSD fault probability (permille).
const SSD_PERMILLE: u32 = 260;

/// Generation parameters. The deployment's shape and the crash, link,
/// corruption and SSD fault rates are fixed to the demo deployment
/// (`DirectLoadConfig::small()`: six DCs of 2×3-node clusters), at rates
/// high enough that a ten-round run exercises every fault kind.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleConfig {
    /// Seed for the schedule RNG; same seed + same config → identical
    /// schedule.
    pub seed: u64,
    /// Pipeline rounds the storm spans: the generated schedule's length.
    pub rounds: u32,
    /// Per-DC, per-round topology-churn probability (permille): a
    /// scale-out of a random group or, once an earlier scale-out left a
    /// group above the replication floor, a decommission of one of its
    /// healthy members.
    pub churn_permille: u32,
}

impl ScheduleConfig {
    /// A storm of `rounds` rounds from `seed`, with topology churn on.
    pub fn storm(seed: u64, rounds: u32) -> Self {
        ScheduleConfig {
            seed,
            rounds,
            churn_permille: 140,
        }
    }
}

/// A complete fault timeline of a fixed number of rounds, ordered by
/// round (stable within a round).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    rounds: u32,
    events: Vec<FaultEvent>,
}

/// An explicit schedule's event at or past the schedule's end: it would
/// never fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventPastEnd {
    /// The refused event.
    pub event: FaultEvent,
    /// The schedule's length in rounds.
    pub rounds: u32,
}

impl fmt::Display for EventPastEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (round, kind, rounds) = (self.event.round, self.event.kind, self.rounds);
        write!(f, "{kind} at round {round} of a {rounds}-round schedule")
    }
}

impl std::error::Error for EventPastEnd {}

impl Schedule {
    /// Wraps an explicitly authored timeline of `rounds` rounds. Events
    /// are sorted by round but otherwise taken as-is — the orchestrator
    /// records an event it cannot apply (an address the deployment
    /// lacks, a transition its layer refuses, such as crashing a dead
    /// node) as a `schedule_valid` violation. An event at round `rounds`
    /// or later is refused.
    pub fn from_events(rounds: u32, mut events: Vec<FaultEvent>) -> Result<Self, EventPastEnd> {
        if let Some(&event) = events.iter().find(|e| e.round >= rounds) {
            return Err(EventPastEnd { event, rounds });
        }
        events.sort_by_key(|e| e.round);
        Ok(Schedule { rounds, events })
    }

    /// Pipeline rounds the storm spans.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The timeline.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events firing before round `round`.
    pub fn due(&self, round: u32) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.round == round)
    }

    /// Distinct fault kinds in the schedule (by name, recoveries
    /// excluded — they are repairs, not faults).
    pub fn fault_kinds(&self) -> BTreeSet<&'static str> {
        self.events
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::NodeRecover { .. }))
            .map(|e| e.kind.name())
            .collect()
    }

    /// Distinct layers the schedule's faults land in.
    pub fn layers(&self) -> BTreeSet<&'static str> {
        self.events
            .iter()
            .filter(|e| !matches!(e.kind, FaultKind::NodeRecover { .. }))
            .map(|e| e.kind.layer())
            .collect()
    }

    /// Generates a valid storm from `cfg`. Pure: identical configs
    /// produce identical schedules.
    pub fn generate(cfg: &ScheduleConfig) -> Self {
        let num_groups = (NODES_PER_DC / NODES_PER_GROUP) as usize;
        let mut rng = Rng::new(cfg.seed);
        let mut events = Vec::new();
        // (dc, node) currently crashed, and when each recovers.
        let mut crashed: BTreeSet<(usize, u32)> = BTreeSet::new();
        let mut recoveries: Vec<(u32, usize, u32)> = Vec::new();
        // (dc, node) under SSD fault injection, with expiry round.
        let mut ssd_active: Vec<(u32, usize, u32)> = Vec::new();
        // Live group membership per DC — the churned topology. Churn
        // applies synchronously in the orchestrator, so node ids are
        // deterministic: a scale-out always creates the next dense id.
        let mut members: Vec<Vec<Vec<u32>>> = (0..NUM_DCS)
            .map(|_| {
                (0..num_groups as u32)
                    .map(|g| (g * NODES_PER_GROUP..(g + 1) * NODES_PER_GROUP).collect())
                    .collect()
            })
            .collect();
        let mut next_node: Vec<u32> = vec![NODES_PER_DC; NUM_DCS];
        let mut scale_outs: Vec<u32> = vec![0; NUM_DCS];
        for round in 0..cfg.rounds {
            // Fire due recoveries first so a node can crash again later.
            recoveries.retain(|&(at, dc, node)| {
                if at == round {
                    events.push(FaultEvent {
                        round,
                        kind: FaultKind::NodeRecover { dc, node },
                    });
                    crashed.remove(&(dc, node));
                    false
                } else {
                    true
                }
            });
            ssd_active.retain(|&(expiry, _, _)| expiry > round);
            for dc in 0..NUM_DCS {
                if rng.permille() < CRASH_PERMILLE {
                    // Pick a crashable node: alive, its group above the
                    // floor, and not under media-fault injection (the
                    // recovery AOF scan must be able to read flash).
                    let candidates: Vec<u32> = members[dc]
                        .iter()
                        .flat_map(|group| {
                            let alive = group
                                .iter()
                                .filter(|&&m| !crashed.contains(&(dc, m)))
                                .count() as u32;
                            group
                                .iter()
                                .copied()
                                .filter(move |_| alive > MIN_ALIVE_PER_GROUP)
                        })
                        .filter(|&n| {
                            !crashed.contains(&(dc, n))
                                && !ssd_active.iter().any(|&(_, d, c)| d == dc && c == n)
                        })
                        .collect();
                    if let Some(&node) = candidates.get(rng.below(candidates.len().max(1))) {
                        // Some crashes land mid-program (torn AOF tail) or
                        // take a flash cell with them (flipped byte);
                        // recovery has to cope with all three shapes.
                        let kind = match rng.permille() {
                            p if p < 250 => FaultKind::NodeCrashTornWal { dc, node },
                            p if p < 450 => FaultKind::NodeCrashCorruptWal { dc, node },
                            _ => FaultKind::NodeCrash { dc, node },
                        };
                        events.push(FaultEvent { round, kind });
                        crashed.insert((dc, node));
                        // Recover 1–3 rounds later; anything past the end
                        // is settled by the orchestrator's final drain.
                        let back = round + 1 + rng.below(3) as u32;
                        recoveries.push((back, dc, node));
                    }
                }
                if rng.permille() < SSD_PERMILLE {
                    let candidates: Vec<u32> = members[dc]
                        .iter()
                        .flatten()
                        .copied()
                        .filter(|&n| {
                            !crashed.contains(&(dc, n))
                                && !ssd_active.iter().any(|&(_, d, c)| d == dc && c == n)
                        })
                        .collect();
                    if let Some(&node) = candidates.get(rng.below(candidates.len().max(1))) {
                        let rounds = 1 + rng.below(2) as u32;
                        let kind = if rng.permille() < 500 {
                            FaultKind::SsdReadFaults {
                                dc,
                                node,
                                one_in: 12 + rng.below(20) as u64,
                                rounds,
                            }
                        } else {
                            FaultKind::SsdProgramFaults {
                                dc,
                                node,
                                one_in: 4 + rng.below(12) as u64,
                                rounds,
                            }
                        };
                        events.push(FaultEvent { round, kind });
                        ssd_active.push((round + rounds, dc, node));
                    }
                }
                if rng.permille() < cfg.churn_permille {
                    // Decommission when an earlier scale-out left a group
                    // above the floor and it has a healthy member to
                    // drain (alive, not under media-fault injection, and
                    // leaving at least `MIN_ALIVE_PER_GROUP` behind);
                    // otherwise grow a random group, capped so the storm
                    // does not turn into pure expansion.
                    let mut eligible: Vec<u32> = Vec::new();
                    for group in &members[dc] {
                        if group.len() as u32 <= NODES_PER_GROUP {
                            continue;
                        }
                        let alive = group
                            .iter()
                            .filter(|&&m| !crashed.contains(&(dc, m)))
                            .count() as u32;
                        if alive <= MIN_ALIVE_PER_GROUP {
                            continue;
                        }
                        eligible.extend(group.iter().copied().filter(|&m| {
                            !crashed.contains(&(dc, m))
                                && !ssd_active.iter().any(|&(_, d, c)| d == dc && c == m)
                        }));
                    }
                    if !eligible.is_empty() {
                        let node = eligible[rng.below(eligible.len())];
                        for group in members[dc].iter_mut() {
                            group.retain(|&m| m != node);
                        }
                        events.push(FaultEvent {
                            round,
                            kind: FaultKind::Decommission { dc, node },
                        });
                    } else if scale_outs[dc] < MAX_SCALE_OUTS_PER_DC {
                        let group = rng.below(num_groups) as u32;
                        members[dc][group as usize].push(next_node[dc]);
                        next_node[dc] += 1;
                        scale_outs[dc] += 1;
                        events.push(FaultEvent {
                            round,
                            kind: FaultKind::GroupScaleOut { dc, group },
                        });
                    }
                }
            }
            if rng.permille() < LINK_PERMILLE {
                let link = rng.below(FAULTED_LINKS as usize) as u32;
                let secs = 60 + rng.below(240) as u32;
                let kind = if rng.permille() < 400 {
                    FaultKind::LinkOutage { link, secs }
                } else {
                    FaultKind::LinkDegrade {
                        link,
                        scale_permille: 150 + 50 * rng.below(10) as u32,
                        secs,
                    }
                };
                events.push(FaultEvent { round, kind });
            }
            if rng.permille() < CORRUPTION_PERMILLE {
                events.push(FaultEvent {
                    round,
                    kind: FaultKind::CorruptionBurst {
                        rate_permille: 150 + 50 * rng.below(6) as u32,
                        rounds: 1 + rng.below(2) as u32,
                    },
                });
            }
        }
        Schedule {
            rounds: cfg.rounds,
            events,
        }
    }
}

/// xorshift64* — the same tiny deterministic generator the rest of the
/// workspace uses for seeded fault streams.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1000)`.
    fn permille(&mut self) -> u32 {
        (self.next() % 1000) as u32
    }

    /// Uniform in `[0, n)`; returns 0 for `n == 0`.
    fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_constants_match_the_deployment_they_drive() {
        // A storm addresses DCs, nodes and links by number: a reshaped
        // demo deployment must fail here, not draw faults for nodes and
        // links that do not exist.
        let cfg = directload::DirectLoadConfig::small();
        assert_eq!(NUM_DCS, bifrost::DataCenterId::all().len());
        assert_eq!(NODES_PER_GROUP as usize, cfg.mint.nodes_per_group);
        assert_eq!(
            NODES_PER_DC as usize,
            cfg.mint.groups * cfg.mint.nodes_per_group
        );
        assert!(MIN_ALIVE_PER_GROUP >= 1 && MIN_ALIVE_PER_GROUP as usize <= cfg.mint.replicas);
        let links = bifrost::Bifrost::new(cfg.bifrost, simclock::SimClock::new()).num_links();
        assert_eq!(links, 33, "FAULTED_LINKS's doc counts 33 links");
        assert!(FAULTED_LINKS as usize <= links);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = ScheduleConfig::storm(0xC4A0_5EED, 12);
        assert_eq!(Schedule::generate(&cfg), Schedule::generate(&cfg));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Schedule::generate(&ScheduleConfig::storm(1, 12));
        let b = Schedule::generate(&ScheduleConfig::storm(2, 12));
        assert_ne!(a, b);
    }

    #[test]
    fn storm_covers_multiple_layers_and_kinds() {
        let s = Schedule::generate(&ScheduleConfig::storm(0xC4A0_5EED, 12));
        assert!(s.layers().len() >= 3, "layers: {:?}", s.layers());
        assert!(s.fault_kinds().len() >= 3, "kinds: {:?}", s.fault_kinds());
    }

    #[test]
    fn crashes_always_leave_group_quorum_and_get_recoveries() {
        let cfg = ScheduleConfig::storm(0xDEAD_BEEF, 20);
        let s = Schedule::generate(&cfg);
        // Replay the events against an independent membership model —
        // the schedule must stay valid under its own churn.
        let num_groups = (NODES_PER_DC / NODES_PER_GROUP) as usize;
        let mut members: Vec<Vec<Vec<u32>>> = (0..NUM_DCS)
            .map(|_| {
                (0..num_groups as u32)
                    .map(|g| (g * NODES_PER_GROUP..(g + 1) * NODES_PER_GROUP).collect())
                    .collect()
            })
            .collect();
        let mut next_node: Vec<u32> = vec![NODES_PER_DC; NUM_DCS];
        let mut crashed: BTreeSet<(usize, u32)> = BTreeSet::new();
        let group_of = |members: &Vec<Vec<Vec<u32>>>, dc: usize, node: u32| {
            members[dc].iter().position(|g| g.contains(&node))
        };
        let alive_in = |members: &Vec<Vec<Vec<u32>>>,
                        crashed: &BTreeSet<(usize, u32)>,
                        dc: usize,
                        g: usize| {
            members[dc][g]
                .iter()
                .filter(|&&m| !crashed.contains(&(dc, m)))
                .count() as u32
        };
        for e in s.events() {
            match e.kind {
                FaultKind::NodeCrash { dc, node }
                | FaultKind::NodeCrashTornWal { dc, node }
                | FaultKind::NodeCrashCorruptWal { dc, node } => {
                    let g = group_of(&members, dc, node).expect("crash of a member node");
                    assert!(crashed.insert((dc, node)), "double crash {e:?}");
                    assert!(
                        alive_in(&members, &crashed, dc, g) >= MIN_ALIVE_PER_GROUP,
                        "group under quorum after {e:?}"
                    );
                }
                FaultKind::NodeRecover { dc, node } => {
                    assert!(crashed.remove(&(dc, node)), "recover of alive node {e:?}");
                }
                FaultKind::GroupScaleOut { dc, group } => {
                    members[dc][group as usize].push(next_node[dc]);
                    next_node[dc] += 1;
                }
                FaultKind::Decommission { dc, node } => {
                    assert!(
                        !crashed.contains(&(dc, node)),
                        "decommission of a crashed node {e:?}"
                    );
                    let g = group_of(&members, dc, node).expect("decommission of a member node");
                    assert!(
                        members[dc][g].len() as u32 > NODES_PER_GROUP,
                        "decommission would breach the replication floor {e:?}"
                    );
                    members[dc][g].retain(|&m| m != node);
                    assert!(
                        alive_in(&members, &crashed, dc, g) >= MIN_ALIVE_PER_GROUP,
                        "group under quorum after {e:?}"
                    );
                }
                _ => {}
            }
        }
        // Whatever is still crashed recovers in the orchestrator's final
        // settle phase — but the schedule itself must never recover a
        // node twice or out of order, which the loop above asserted.
    }

    #[test]
    fn storms_churn_the_topology() {
        // Across a handful of seeds, churny storms must exercise both
        // scale-out and decommission, and every decommission must be
        // preceded by a scale-out in the same DC (the floor rule).
        let mut outs = 0u32;
        let mut decoms = 0u32;
        for seed in 1..=8u64 {
            let s = Schedule::generate(&ScheduleConfig::storm(seed, 16));
            let mut grown: BTreeSet<usize> = BTreeSet::new();
            for e in s.events() {
                match e.kind {
                    FaultKind::GroupScaleOut { dc, .. } => {
                        grown.insert(dc);
                        outs += 1;
                    }
                    FaultKind::Decommission { dc, .. } => {
                        assert!(grown.contains(&dc), "decommission before scale-out {e:?}");
                        decoms += 1;
                    }
                    _ => {}
                }
            }
        }
        assert!(outs > 0, "storms never scaled out");
        assert!(decoms > 0, "storms never decommissioned");
    }

    #[test]
    fn storms_exercise_wal_crash_variants() {
        // Across a handful of seeds the crash mix must include both WAL
        // damage shapes — that is what keeps the recovery invariants
        // (no lost acked write, no resurrected suffix) load-bearing.
        let mut kinds: BTreeSet<&'static str> = BTreeSet::new();
        for seed in 1..=8u64 {
            let s = Schedule::generate(&ScheduleConfig::storm(seed, 16));
            kinds.extend(s.fault_kinds());
        }
        assert!(kinds.contains("node_crash_torn_wal"), "kinds: {kinds:?}");
        assert!(kinds.contains("node_crash_corrupt_wal"), "kinds: {kinds:?}");
    }

    #[test]
    fn explicit_schedules_sort_by_round() {
        let s = Schedule::from_events(
            4,
            vec![
                FaultEvent {
                    round: 3,
                    kind: FaultKind::CorruptionBurst {
                        rate_permille: 200,
                        rounds: 1,
                    },
                },
                FaultEvent {
                    round: 1,
                    kind: FaultKind::LinkOutage { link: 0, secs: 90 },
                },
            ],
        )
        .unwrap();
        assert_eq!(s.events()[0].round, 1);
        assert_eq!(s.due(3).count(), 1);
    }
}
