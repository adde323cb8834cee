//! The storm driver: interleaves a fault schedule with pipeline rounds.
//!
//! For each of the schedule's rounds the orchestrator (1) applies the
//! round's due events through the real injection hooks —
//! `Mint::fail_node`/`recover_node`,
//! `Bifrost::schedule_link_scale`/`set_corruption_rate`,
//! `Device::set_fault_injection`, and for topology churn a live
//! throttled `placement::Migration` — (2) runs a full update cycle, and
//! (3) hands the outcome to the [`InvariantChecker`]. Every fault and
//! repair is emitted three ways: a line in the human-readable timeline
//! (the determinism artifact), a [`obs::SpanKind::Fault`]/`Repair`
//! trace event, and a `chaos.*` registry counter. An event addressed to
//! a DC, node or link the deployment lacks, or one its layer refuses,
//! is recorded as a `schedule_valid` violation, not applied.
//!
//! After the last round the orchestrator *settles*: recovers every node
//! still down, clears every active injection, runs one clean round, and
//! runs the checker's final pass. A storm is a pass only if the
//! violation list is empty.

use crate::invariant::{InvariantChecker, Violation};
use crate::schedule::{FaultKind, Schedule};
use directload::DirectLoad;
use mint::{NodeId, WalTamper};
use netsim::LinkId;
use simclock::SimTime;

/// Migrator tuning for churn and actuator plans. The throttle is fast
/// enough that a storm round's churn settles promptly, slow enough to
/// span many batches on the sim clock; the batch budget is small enough
/// that a storm-scale join or drain spans several throttled batches (and
/// thus several `migrate`/`drain` spans), as a production rebalance would.
const CHURN_MIGRATOR: placement::MigratorConfig = placement::MigratorConfig {
    throttle_bytes_per_sec: 8 * 1024 * 1024,
    step_bytes: 16 * 1024,
};
/// Migration batches each in-flight churn migration may move per storm
/// round. Batch-granularity interleaving: a scale-out or drain spans
/// several delivery rounds, its batches contending with foreground WAN
/// traffic, instead of running to completion between rounds.
const CHURN_TICKS_PER_ROUND: u32 = 8;

/// Fraction of pages changed per crawl round.
const CHANGE_FRACTION: f64 = 0.35;
/// Documents the invariant checker tracks.
const SAMPLE_KEYS: usize = 6;
/// Recovery attempts per node (one per round) before the failure is
/// recorded as a violation.
const RECOVERY_RETRIES: u32 = 3;

/// Why an event could not be applied: the `schedule_valid` detail.
type Rejection = Box<dyn std::error::Error>;

/// What the storm did and what it found.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Rounds executed (excluding the final settle round).
    pub rounds: u32,
    /// Faults injected (repairs not included).
    pub faults_injected: u64,
    /// Repairs applied (recoveries, injection clears, burst expiries).
    pub repairs: u64,
    /// One line per fault/repair, in application order. Byte-identical
    /// across same-seed runs — the determinism artifact.
    pub timeline: Vec<String>,
    /// Invariant breaches (empty on a correct system).
    pub violations: Vec<Violation>,
}

/// Drives one storm over a [`DirectLoad`] deployment.
pub struct Orchestrator {
    system: DirectLoad,
    schedule: Schedule,
    timeline: Vec<String>,
    faults: u64,
    repairs: u64,
    /// Corruption rate to restore when a burst expires.
    baseline_corruption: f64,
    /// Remaining rounds of the active corruption burst.
    burst: Option<u32>,
    /// Active SSD injections: (dc index, node, its device, remaining
    /// rounds).
    ssd_active: Vec<(usize, u32, ssdsim::Device, u32)>,
    /// Nodes the storm still has to bring back, in crash order.
    down: Vec<DownNode>,
    /// Churn migrations still in flight, in start order.
    inflight: Vec<InflightChurn>,
    /// The per-round control loop, when one is installed.
    actuator: Option<Actuator>,
}

/// A node that is down: crashed by the storm, or addressed by a
/// recovery that failed and is being retried.
struct DownNode {
    /// DC index in the deployment's `dc_ids` order.
    dc: usize,
    node: u32,
    /// The WAL frontier the node had acknowledged when the storm crashed
    /// it, to check the recovery against; `None` for a node the storm
    /// never crashed.
    committed: Option<u64>,
    /// Whether the crash flipped a byte of an AOF record (not just tore
    /// the tail): the frontier may then roll back, but never forward.
    corrupt: bool,
    /// Failed recovery attempts so far. A node with any is retried at
    /// the start of every round until it comes back or has spent
    /// [`RECOVERY_RETRIES`].
    failed: u32,
}

/// One churn migration being ticked across rounds.
struct InflightChurn {
    /// DC index in the deployment's `dc_ids` order.
    dc: usize,
    /// What started it — the schedule event or the controller plan
    /// (for timeline and violation labels).
    label: String,
    migration: placement::Migration,
}

/// One topology plan an [`Actuator`] wants driven through the storm:
/// the orchestrator ticks it batch-by-batch alongside scheduled churn,
/// its migration traffic contending with foreground WAN bytes.
pub struct ActuatorPlan {
    /// DC index in the deployment's `dc_ids` order.
    pub dc: usize,
    /// Timeline label for the plan (e.g. the controller's policy name).
    pub label: String,
    /// The validated multi-op plan to execute.
    pub plan: placement::MigrationPlan,
}

/// A control loop invoked once per storm round, after the round's
/// scheduled faults land and before churn ticks: it observes the (possibly
/// degraded) deployment and returns the topology plans to actuate. This is
/// how the placement controller runs *inside* the storm without the chaos
/// crate depending on it.
pub type Actuator = Box<dyn FnMut(&mut DirectLoad, u32) -> Vec<ActuatorPlan>>;

impl Orchestrator {
    /// Wraps a freshly built deployment and the schedule to storm it
    /// with, for as many rounds as the schedule spans.
    pub fn new(system: DirectLoad, schedule: Schedule) -> Self {
        Orchestrator {
            system,
            schedule,
            timeline: Vec::new(),
            faults: 0,
            repairs: 0,
            baseline_corruption: 0.0,
            burst: None,
            ssd_active: Vec::new(),
            down: Vec::new(),
            inflight: Vec::new(),
            actuator: None,
        }
    }

    /// The wrapped deployment (for post-storm inspection).
    pub fn system(&self) -> &DirectLoad {
        &self.system
    }

    /// Installs a per-round control loop. Each storm round — after the
    /// round's scheduled faults land, before churn ticks — the actuator
    /// observes the deployment and returns plans; the orchestrator
    /// starts each as a throttled in-flight migration, interleaved
    /// batch-by-batch with scheduled churn and foreground traffic.
    pub fn set_actuator(&mut self, actuator: Actuator) {
        self.actuator = Some(actuator);
    }

    /// Runs the storm to completion and reports.
    pub fn run(&mut self) -> ChaosReport {
        let mut checker = InvariantChecker::new(&self.system, SAMPLE_KEYS);
        let rounds = self.schedule.rounds();
        for round in 0..rounds {
            self.recover_down(round, &mut checker, |d| d.failed > 0);
            let due: Vec<FaultKind> = self.schedule.due(round).map(|e| e.kind).collect();
            for kind in due {
                if let Err(e) = self.apply(round, kind, &mut checker) {
                    let detail = format!("{kind} rejected: {e}");
                    self.note_violation(&mut checker, round, "schedule_valid", detail);
                }
            }
            self.run_actuator(round);
            self.drive_churn(round, None, CHURN_TICKS_PER_ROUND);
            self.run_round(&mut checker, round);
            self.expire(round);
        }
        self.settle(&mut checker, rounds);
        ChaosReport {
            rounds,
            faults_injected: self.faults,
            repairs: self.repairs,
            timeline: self.timeline.clone(),
            violations: checker.violations().to_vec(),
        }
    }

    /// Applies one scheduled event through its layer's hook, one arm per
    /// fault family. An address that does not resolve, or an event the
    /// layer refuses, comes back as the rejection.
    fn apply(
        &mut self,
        round: u32,
        kind: FaultKind,
        checker: &mut InvariantChecker,
    ) -> Result<(), Rejection> {
        match kind {
            FaultKind::NodeCrash { dc, node }
            | FaultKind::NodeCrashTornWal { dc, node }
            | FaultKind::NodeCrashCorruptWal { dc, node } => {
                let seed = wal_seed(dc, node, round);
                let tamper = match kind {
                    FaultKind::NodeCrashTornWal { .. } => Some(WalTamper::TornTail),
                    FaultKind::NodeCrashCorruptWal { .. } => Some(WalTamper::FlipByte { seed }),
                    _ => None,
                };
                self.flush_churn_for_node(round, dc, node)?;
                let cluster = cluster(&mut self.system, dc)?;
                let id = NodeId(node);
                cluster.fail_node(id)?;
                // Ground truth before any damage lands: a torn tail must
                // cost nothing at recovery, a corrupt record may roll the
                // frontier back but never forward.
                let committed = cluster.crashed_wal_frontier(id)?;
                if let Some(tamper) = tamper {
                    cluster.tamper_crashed_wal(id, tamper)?;
                }
                self.down.push(DownNode {
                    dc,
                    node,
                    committed: Some(committed),
                    corrupt: matches!(tamper, Some(WalTamper::FlipByte { .. })),
                    failed: 0,
                });
                self.emit_fault(round, kind);
            }
            FaultKind::NodeRecover { dc, node } => self.try_recover(round, dc, node, checker)?,
            FaultKind::LinkOutage { link, secs } | FaultKind::LinkDegrade { link, secs, .. } => {
                let scale_permille = match kind {
                    FaultKind::LinkDegrade { scale_permille, .. } => scale_permille,
                    _ => 0,
                };
                let now = self.system.clock().now();
                let bifrost = self.system.bifrost_mut();
                let links = bifrost.num_links();
                if link as usize >= links {
                    return Err(format!("no link {link} among the deployment's {links}").into());
                }
                if scale_permille > 1000 {
                    return Err("scale_permille above 1000".into());
                }
                let scale = scale_permille as f64 / 1000.0;
                bifrost.schedule_link_scale(now, LinkId(link), scale);
                let end = now + SimTime::from_secs(secs as u64);
                bifrost.schedule_link_scale(end, LinkId(link), 1.0);
                self.emit_fault(round, kind);
            }
            FaultKind::CorruptionBurst {
                rate_permille,
                rounds,
            } => {
                if rate_permille > 1000 {
                    return Err("rate_permille above 1000".into());
                }
                let bifrost = self.system.bifrost_mut();
                if self.burst.is_none() {
                    self.baseline_corruption = bifrost.corruption_rate();
                }
                bifrost.set_corruption_rate(rate_permille as f64 / 1000.0);
                self.burst = Some(rounds);
                self.emit_fault(round, kind);
            }
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
            } => {
                self.flush_churn_for_node(round, dc, node)?;
                let device = cluster(&mut self.system, dc)?.node_device(NodeId(node))?;
                let reads = matches!(kind, FaultKind::SsdReadFaults { .. });
                device.set_fault_injection(ssdsim::FaultInjection {
                    read_fail_one_in: if reads { one_in } else { 0 },
                    program_fail_one_in: if reads { 0 } else { one_in },
                    seed: ssd_seed(dc, node, round),
                });
                self.ssd_active.push((dc, node, device, rounds));
                self.emit_fault(round, kind);
            }
            FaultKind::GroupScaleOut { dc, group } => {
                let op = placement::PlanOp::Join {
                    group: group as usize,
                };
                self.start_churn(round, kind, dc, op)?;
            }
            FaultKind::Decommission { dc, node } => {
                let op = placement::PlanOp::Drain { node: NodeId(node) };
                self.start_churn(round, kind, dc, op)?;
            }
        }
        Ok(())
    }

    /// Starts one topology-churn op as a live throttled migration, to be
    /// ticked batch by batch across the coming rounds. The migrator
    /// writes its `migrate`/`drain` spans and `placement.*` counters
    /// into the system's shared trace ring and registry, so churn shows
    /// up in `introspect()` exactly as an operator-driven rebalance
    /// would. The op itself begins on the first tick: a join allocates
    /// its node id then, so ids stay dense in event order — the
    /// assumption the schedule generator's membership model makes.
    fn start_churn(
        &mut self,
        round: u32,
        kind: FaultKind,
        dc: usize,
        op: placement::PlanOp,
    ) -> Result<(), Rejection> {
        cluster(&mut self.system, dc)?;
        let plan = placement::MigrationPlan {
            ops: vec![op],
            estimated_bytes: 0,
        };
        self.emit_fault(round, kind);
        self.timeline
            .push(format!("round={round:02} migrate_begin dc={dc} op={kind}"));
        self.inflight.push(InflightChurn {
            dc,
            label: kind.to_string(),
            migration: placement::Migration::new(plan, CHURN_MIGRATOR),
        });
        Ok(())
    }

    /// Runs the installed control loop for one round and enqueues the
    /// plans it emits as in-flight churn migrations. The actuator is
    /// temporarily taken out of `self` so it can borrow the deployment
    /// mutably while the orchestrator still owns it.
    fn run_actuator(&mut self, round: u32) {
        let Some(mut actuator) = self.actuator.take() else {
            return;
        };
        let plans = actuator(&mut self.system, round);
        self.actuator = Some(actuator);
        for ActuatorPlan { dc, label, plan } in plans {
            self.timeline.push(format!(
                "round={round:02} ctrl dc={dc} {label} ops={}",
                plan.ops.len()
            ));
            self.system
                .registry()
                .counter("chaos.ctrl_plans_total")
                .inc();
            self.inflight.push(InflightChurn {
                dc,
                label,
                migration: placement::Migration::new(plan, CHURN_MIGRATOR),
            });
        }
    }

    /// The one churn driver: moves up to `budget` batches of every
    /// in-flight migration of `dc` (of every DC, for `None`), in start
    /// order, writes what moved to the timeline and drops the ones that
    /// finish. A migration whose tick errors stalls and stays for the
    /// next call — mid-storm that is expected (a drain target still
    /// crashed, a begin waiting on an earlier migration's cutover).
    /// Returns one violation detail per stalled migration; only the
    /// settle flush, which nothing follows, records them.
    fn drive_churn(&mut self, round: u32, dc: Option<usize>, budget: u32) -> Vec<String> {
        let registry = self.system.registry().clone();
        let trace = self.system.trace().clone();
        let mut stalls = Vec::new();
        for entry in &mut self.inflight {
            if dc.is_some_and(|d| d != entry.dc) {
                continue;
            }
            let (mut steps, mut bytes, mut stalled) = (0u64, 0u64, None);
            match cluster(&mut self.system, entry.dc) {
                Err(e) => stalled = Some(e),
                Ok(cluster) => {
                    for _ in 0..budget {
                        match entry.migration.tick(cluster, &registry, Some(&trace)) {
                            Ok(placement::TickOutcome::Finished) => break,
                            Ok(placement::TickOutcome::Step { bytes: b, .. }) => {
                                steps += 1;
                                bytes += b;
                            }
                            Ok(placement::TickOutcome::CutOver { .. }) => steps += 1,
                            Err(e) => {
                                stalled = Some(e.into());
                                break;
                            }
                        }
                        if entry.migration.is_finished() {
                            break;
                        }
                    }
                }
            }
            let dc = entry.dc;
            if steps > 0 {
                self.timeline.push(format!(
                    "round={round:02} migrate dc={dc} steps={steps} bytes={bytes}"
                ));
            }
            if let Some(e) = stalled {
                self.timeline
                    .push(format!("round={round:02} migrate_stall dc={dc} err={e}"));
                stalls.push(format!("churn {} rejected: {e}", entry.label));
            }
            if entry.migration.is_finished() {
                let report = entry.migration.report();
                self.timeline.push(format!(
                    "round={round:02} migrate_done dc={dc} steps={} bytes={} items={} \
                     joined={} retired={}",
                    report.steps,
                    report.bytes_moved,
                    report.items_moved,
                    report.joined.len(),
                    report.retired.len(),
                ));
            }
        }
        self.inflight.retain(|e| !e.migration.is_finished());
        stalls
    }

    /// Runs `dc`'s in-flight churn to completion before an event touches
    /// `node`, when the node is one churn is still creating: the
    /// schedule's membership model treats a scale-out as complete the
    /// round it fires, so a later crash may target a joiner that has not
    /// cut over yet (`Mint::fail_node` rejects joining nodes).
    fn flush_churn_for_node(&mut self, round: u32, dc: usize, node: u32) -> Result<(), Rejection> {
        let cluster = cluster(&mut self.system, dc)?;
        let joining = node as usize >= cluster.num_nodes()
            || matches!(
                cluster.node_role(NodeId(node)),
                Ok(mint::NodeRole::Joining { .. })
            );
        if joining {
            self.drive_churn(round, Some(dc), u32::MAX);
        }
        Ok(())
    }

    /// Attempts one recovery of `node` of DC `dc`. A failed attempt puts
    /// (or keeps) the node on the down list, to be retried next round —
    /// recovery reads peer flash, so a transient injected media fault
    /// can defeat one attempt — until it has spent [`RECOVERY_RETRIES`].
    fn try_recover(
        &mut self,
        round: u32,
        dc: usize,
        node: u32,
        checker: &mut InvariantChecker,
    ) -> Result<(), Rejection> {
        let cluster = cluster(&mut self.system, dc)?;
        let outcome = cluster
            .recover_node(NodeId(node))
            .map(|_took| cluster.take_last_wal_recovery());
        let at = self.down.iter().position(|d| (d.dc, d.node) == (dc, node));
        match outcome {
            Ok(info) => {
                let down = at.map(|i| self.down.remove(i));
                self.check_wal_recovery(round, dc, node, down, info, checker);
                self.emit_repair(round, format!("node_recover dc={dc} node={node}"));
            }
            Err(e) => {
                let failed = at.map_or(0, |i| self.down[i].failed) + 1;
                if failed < RECOVERY_RETRIES {
                    self.timeline.push(format!(
                        "round={round:02} retry=node_recover dc={dc} node={node} attempt={failed}"
                    ));
                    match at {
                        Some(i) => self.down[i].failed = failed,
                        None => self.down.push(DownNode {
                            dc,
                            node,
                            committed: None,
                            corrupt: false,
                            failed,
                        }),
                    }
                } else {
                    if let Some(i) = at {
                        self.down.remove(i);
                    }
                    self.note_violation(
                        checker,
                        round,
                        "recovery_succeeds",
                        format!("dc={dc} node={node} unrecoverable after {failed} attempts: {e}"),
                    );
                }
            }
        }
        Ok(())
    }

    /// Attempts one recovery of every down node `due` selects, in crash
    /// order.
    fn recover_down(
        &mut self,
        round: u32,
        checker: &mut InvariantChecker,
        due: impl Fn(&DownNode) -> bool,
    ) {
        let nodes: Vec<(usize, u32)> = self
            .down
            .iter()
            .filter(|d| due(d))
            .map(|d| (d.dc, d.node))
            .collect();
        for (dc, node) in nodes {
            // Every down node was put there through a resolved address.
            let _ = self.try_recover(round, dc, node, checker);
        }
    }

    /// Checks a completed recovery's WAL catch-up against the frontier
    /// the node had acknowledged at crash time: a clean or torn-tail crash
    /// must yield exactly the committed frontier (no acked write lost),
    /// and no crash shape may yield more (a truncated suffix must never
    /// come back from the dead). Also writes the catch-up shape into the
    /// timeline — same-seed storms must replay it byte-identically.
    fn check_wal_recovery(
        &mut self,
        round: u32,
        dc: usize,
        node: u32,
        down: Option<DownNode>,
        info: Option<mint::WalRecovery>,
        checker: &mut InvariantChecker,
    ) {
        let Some(info) = info else {
            return;
        };
        let mode = if info.suffix_only {
            "suffix-only"
        } else {
            "full-state"
        };
        self.timeline.push(format!(
            "round={round:02} wal_recovery dc={dc} node={node} mode={mode} frontier={} \
             records={} bytes={}",
            info.frontier, info.replayed_records, info.shipped_bytes
        ));
        self.system
            .registry()
            .counter(if info.suffix_only {
                "chaos.wal.suffix_recoveries"
            } else {
                "chaos.wal.full_recoveries"
            })
            .inc();
        let Some(DownNode {
            committed: Some(committed),
            corrupt,
            ..
        }) = down
        else {
            return;
        };
        if info.frontier > committed {
            self.note_violation(
                checker,
                round,
                "wal_never_resurrects_truncated_suffix",
                format!(
                    "dc={dc} node={node} recovered frontier {} above committed {committed}",
                    info.frontier
                ),
            );
        }
        if !corrupt && info.frontier < committed {
            self.note_violation(
                checker,
                round,
                "wal_preserves_acked_writes",
                format!(
                    "dc={dc} node={node} recovered frontier {} below committed {committed}",
                    info.frontier
                ),
            );
        }
    }

    /// Counts down round-scoped faults; clears the ones that expired.
    fn expire(&mut self, round: u32) {
        if let Some(remaining) = self.burst {
            if remaining <= 1 {
                self.system
                    .bifrost_mut()
                    .set_corruption_rate(self.baseline_corruption);
                self.burst = None;
                self.emit_repair(round, "corruption_clear".to_string());
            } else {
                self.burst = Some(remaining - 1);
            }
        }
        for (dc, node, device, remaining) in std::mem::take(&mut self.ssd_active) {
            if remaining > 1 {
                self.ssd_active.push((dc, node, device, remaining - 1));
            } else {
                device.set_fault_injection(ssdsim::FaultInjection::default());
                self.emit_repair(round, format!("ssd_clear dc={dc} node={node}"));
            }
        }
    }

    /// Runs one pipeline round and hands its outcome to the checker.
    fn run_round(&mut self, checker: &mut InvariantChecker, round: u32) {
        match self.system.run_version(CHANGE_FRACTION) {
            Ok(report) => checker.observe_round(&self.system, &report, round),
            Err(e) => self.note_violation(
                checker,
                round,
                "pipeline_round_completes",
                format!("run_version failed: {e}"),
            ),
        }
    }

    /// Post-storm drain, as round `round`: clear every remaining
    /// injection, give every node still down the rest of its recovery
    /// attempts, run churn still in flight to completion, run one clean
    /// round, and run the checker's final pass.
    fn settle(&mut self, checker: &mut InvariantChecker, round: u32) {
        self.burst = self.burst.map(|_| 1);
        self.ssd_active.iter_mut().for_each(|e| e.3 = 1);
        self.expire(round);
        // Each pass tries every down node once; a node leaves the list
        // when it recovers or spends its last attempt.
        for _ in 0..RECOVERY_RETRIES {
            self.recover_down(round, checker, |_| true);
        }
        // Every node is back (or flagged): churn still in flight can now
        // run to completion, so the final clean round and the checker's
        // final pass see a settled topology. Nothing will unblock a
        // migration that stalls now.
        for detail in self.drive_churn(round, None, u32::MAX) {
            self.note_violation(checker, round, "schedule_valid", detail);
        }
        self.run_round(checker, round);
        checker.finalize(&self.system);
    }

    fn emit_fault(&mut self, round: u32, kind: FaultKind) {
        self.faults += 1;
        self.timeline.push(format!("round={round:02} fault={kind}"));
        self.system
            .trace()
            .event(obs::SpanKind::Fault, "chaos", round as u64);
        let reg = self.system.registry();
        reg.counter("chaos.faults_total").inc();
        reg.counter(&format!("chaos.fault.{}", kind.name())).inc();
    }

    fn emit_repair(&mut self, round: u32, what: String) {
        self.repairs += 1;
        self.timeline
            .push(format!("round={round:02} repair={what}"));
        self.system
            .trace()
            .event(obs::SpanKind::Repair, "chaos", round as u64);
        self.system.registry().counter("chaos.repairs_total").inc();
    }

    fn note_violation(
        &mut self,
        checker: &mut InvariantChecker,
        round: u32,
        invariant: &'static str,
        detail: String,
    ) {
        self.timeline
            .push(format!("round={round:02} VIOLATION {invariant}: {detail}"));
        checker.push_violation(Violation {
            round,
            invariant,
            detail,
        });
    }
}

/// The cluster of the DC at index `dc` of the deployment's `dc_ids`.
fn cluster(system: &mut DirectLoad, dc: usize) -> Result<&mut mint::Mint, Rejection> {
    let ids = system.dc_ids();
    let id = *ids
        .get(dc)
        .ok_or_else(|| format!("no dc {dc} among the deployment's {}", ids.len()))?;
    Ok(system.cluster_mut(id)?)
}

fn ssd_seed(dc: usize, node: u32, round: u32) -> u64 {
    0x55D_FA17 ^ ((dc as u64) << 40) ^ ((node as u64) << 20) ^ round as u64
}

fn wal_seed(dc: usize, node: u32, round: u32) -> u64 {
    0x0A1_FA17 ^ ((dc as u64) << 40) ^ ((node as u64) << 20) ^ round as u64
}
