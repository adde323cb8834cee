//! The storm driver: interleaves a fault schedule with pipeline rounds.
//!
//! Each round the orchestrator (1) applies the schedule's due events
//! through the real injection hooks — `Mint::fail_node`/`recover_node`,
//! `Bifrost::schedule_link_scale`/`set_corruption_rate`,
//! `Device::set_fault_injection`, and for topology churn a live
//! throttled `placement::Migration` — (2) runs a full update cycle, and
//! (3) hands the outcome to the [`InvariantChecker`]. Every fault and
//! repair is emitted three ways: a line in the human-readable timeline
//! (the determinism artifact), a [`obs::SpanKind::Fault`]/`Repair`
//! trace event, and a `chaos.*` registry counter.
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

/// Orchestrator knobs.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Pipeline rounds the storm spans (should match the schedule's).
    pub rounds: u32,
}

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
    cfg: ChaosConfig,
    timeline: Vec<String>,
    faults: u64,
    repairs: u64,
    /// Corruption rate to restore when a burst expires.
    baseline_corruption: f64,
    /// Remaining rounds of the active corruption burst.
    burst: Option<u32>,
    /// Active SSD injections: (dc index, node, remaining rounds).
    ssd_active: Vec<(usize, u32, u32)>,
    /// Nodes whose recovery failed and is being retried:
    /// (dc index, node, attempts so far).
    retry_recover: Vec<(usize, u32, u32)>,
    /// Nodes currently down: (dc index, node).
    crashed: Vec<(usize, u32)>,
    /// Per crashed node, the WAL frontier its journal held at crash time
    /// and whether the image was corrupted (not just torn): (dc index,
    /// node, committed frontier, corrupt). Consumed when the node
    /// recovers, to check the recovery against the ground truth.
    wal_marks: Vec<(usize, u32, u64, bool)>,
    /// Churn migrations still in flight, in start order. Each storm
    /// round ticks every entry at most [`CHURN_TICKS_PER_ROUND`]
    /// batches; a tick error (a drain target still crashed, a floor
    /// waiting on an earlier join's cutover) leaves the op in place for
    /// the next round.
    inflight: Vec<InflightChurn>,
    /// The per-round control loop, when one is installed.
    actuator: Option<Actuator>,
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

/// The timeline line for a churn migration that ran to completion.
fn migrate_done_line(round: u32, dc: usize, report: &placement::MigrationReport) -> String {
    format!(
        "round={round:02} migrate_done dc={dc} steps={} bytes={} items={} joined={} retired={}",
        report.steps,
        report.bytes_moved,
        report.items_moved,
        report.joined.len(),
        report.retired.len(),
    )
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
    /// Wraps a freshly built deployment and a schedule.
    pub fn new(system: DirectLoad, schedule: Schedule, cfg: ChaosConfig) -> Self {
        let baseline_corruption = 0.0;
        Orchestrator {
            system,
            schedule,
            cfg,
            timeline: Vec::new(),
            faults: 0,
            repairs: 0,
            baseline_corruption,
            burst: None,
            ssd_active: Vec::new(),
            retry_recover: Vec::new(),
            crashed: Vec::new(),
            wal_marks: Vec::new(),
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
        for round in 0..self.cfg.rounds {
            self.retry_recoveries(round, &mut checker);
            let due: Vec<FaultKind> = self.schedule.due(round).map(|e| e.kind).collect();
            for kind in due {
                self.apply(round, kind, &mut checker);
            }
            self.run_actuator(round);
            self.tick_churn(round);
            match self.system.run_version(CHANGE_FRACTION) {
                Ok(report) => checker.observe_round(&self.system, &report, round),
                Err(e) => self.note_violation(
                    &mut checker,
                    round,
                    "pipeline_round_completes",
                    format!("run_version failed: {e}"),
                ),
            }
            self.expire(round);
        }
        self.settle(&mut checker);
        ChaosReport {
            rounds: self.cfg.rounds,
            faults_injected: self.faults,
            repairs: self.repairs,
            timeline: self.timeline.clone(),
            violations: checker.violations().to_vec(),
        }
    }

    fn apply(&mut self, round: u32, kind: FaultKind, checker: &mut InvariantChecker) {
        match kind {
            FaultKind::NodeCrash { dc, node } => {
                self.apply_crash(round, kind, dc, node, None, checker);
            }
            FaultKind::NodeCrashTornWal { dc, node } => {
                let seed = Self::wal_seed(dc, node, round);
                self.apply_crash(
                    round,
                    kind,
                    dc,
                    node,
                    Some(WalTamper::TornTail { seed }),
                    checker,
                );
            }
            FaultKind::NodeCrashCorruptWal { dc, node } => {
                let seed = Self::wal_seed(dc, node, round);
                self.apply_crash(
                    round,
                    kind,
                    dc,
                    node,
                    Some(WalTamper::FlipByte { seed }),
                    checker,
                );
            }
            FaultKind::NodeRecover { dc, node } => {
                self.try_recover(round, dc, node, 0, checker);
            }
            FaultKind::LinkOutage { link, secs } => {
                let now = self.system.clock().now();
                let bifrost = self.system.bifrost_mut();
                bifrost.schedule_link_scale(now, LinkId(link), 0.0);
                bifrost.schedule_link_scale(
                    now + SimTime::from_secs(secs as u64),
                    LinkId(link),
                    1.0,
                );
                self.emit_fault(round, kind);
            }
            FaultKind::LinkDegrade {
                link,
                scale_permille,
                secs,
            } => {
                let now = self.system.clock().now();
                let bifrost = self.system.bifrost_mut();
                bifrost.schedule_link_scale(now, LinkId(link), scale_permille as f64 / 1000.0);
                bifrost.schedule_link_scale(
                    now + SimTime::from_secs(secs as u64),
                    LinkId(link),
                    1.0,
                );
                self.emit_fault(round, kind);
            }
            FaultKind::CorruptionBurst {
                rate_permille,
                rounds,
            } => {
                if self.burst.is_none() {
                    self.baseline_corruption = self.system.bifrost_mut().corruption_rate();
                }
                self.system
                    .bifrost_mut()
                    .set_corruption_rate(rate_permille as f64 / 1000.0);
                self.burst = Some(rounds);
                self.emit_fault(round, kind);
            }
            FaultKind::SsdReadFaults {
                dc,
                node,
                one_in,
                rounds,
            } => {
                self.flush_churn_for_node(round, dc, node, checker);
                self.install_ssd(
                    dc,
                    node,
                    rounds,
                    ssdsim::FaultInjection {
                        read_fail_one_in: one_in,
                        program_fail_one_in: 0,
                        seed: Self::ssd_seed(dc, node, round),
                    },
                );
                self.emit_fault(round, kind);
            }
            FaultKind::SsdProgramFaults {
                dc,
                node,
                one_in,
                rounds,
            } => {
                self.flush_churn_for_node(round, dc, node, checker);
                self.install_ssd(
                    dc,
                    node,
                    rounds,
                    ssdsim::FaultInjection {
                        read_fail_one_in: 0,
                        program_fail_one_in: one_in,
                        seed: Self::ssd_seed(dc, node, round),
                    },
                );
                self.emit_fault(round, kind);
            }
            FaultKind::GroupScaleOut { dc, group } => {
                self.apply_churn(
                    round,
                    kind,
                    dc,
                    placement::PlanOp::Join {
                        group: group as usize,
                    },
                );
            }
            FaultKind::Decommission { dc, node } => {
                self.apply_churn(
                    round,
                    kind,
                    dc,
                    placement::PlanOp::Drain { node: NodeId(node) },
                );
            }
        }
    }

    /// Crashes one node, optionally damaging its stashed journal image,
    /// and records the ground-truth WAL frontier the journal held at
    /// crash time. The mark is checked when the node recovers: a torn
    /// tail must cost nothing (every acked record survives), and a
    /// corrupt image may roll the frontier back but never forward.
    fn apply_crash(
        &mut self,
        round: u32,
        kind: FaultKind,
        dc: usize,
        node: u32,
        tamper: Option<WalTamper>,
        checker: &mut InvariantChecker,
    ) {
        self.flush_churn_for_node(round, dc, node, checker);
        let id = self.dc_id(dc);
        let outcome = {
            let cluster = self.system.cluster_mut(id).expect("deployment DC exists");
            cluster.fail_node(NodeId(node)).map(|()| {
                // Ground truth before any damage lands.
                let committed = cluster
                    .crashed_wal_frontier(NodeId(node))
                    .expect("node just crashed");
                if let Some(tamper) = tamper {
                    cluster
                        .tamper_crashed_wal(NodeId(node), tamper)
                        .expect("node just crashed");
                }
                committed
            })
        };
        match outcome {
            Ok(committed) => {
                let corrupt = matches!(tamper, Some(WalTamper::FlipByte { .. }));
                self.wal_marks.push((dc, node, committed, corrupt));
                self.crashed.push((dc, node));
                self.emit_fault(round, kind);
            }
            Err(e) => self.note_violation(
                checker,
                round,
                "schedule_valid",
                format!("crash of dc={dc} node={node} rejected: {e}"),
            ),
        }
    }

    /// Starts one topology-churn op as a live throttled migration, to be
    /// ticked batch by batch across the coming rounds. The migrator
    /// writes its `migrate`/`drain` spans and `placement.*` counters
    /// into the system's shared trace ring and registry, so churn shows
    /// up in `introspect()` exactly as an operator-driven rebalance
    /// would. The op itself begins on the first tick: a join allocates
    /// its node id then, so ids stay dense in event order — the
    /// assumption the schedule generator's membership model makes.
    fn apply_churn(&mut self, round: u32, kind: FaultKind, dc: usize, op: placement::PlanOp) {
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

    /// Moves up to [`CHURN_TICKS_PER_ROUND`] batches of every in-flight
    /// churn migration, in start order. Tick errors are expected
    /// mid-storm (a drain target still crashed, a begin waiting on an
    /// earlier migration's cutover) and leave the op in place; the
    /// settle flush flags the ones that never resolve.
    fn tick_churn(&mut self, round: u32) {
        if self.inflight.is_empty() {
            return;
        }
        let registry = self.system.registry().clone();
        let trace = self.system.trace().clone();
        let ids = self.system.dc_ids();
        for entry in &mut self.inflight {
            let cluster = self
                .system
                .cluster_mut(ids[entry.dc])
                .expect("deployment DC exists");
            let mut steps = 0u64;
            let mut bytes = 0u64;
            let mut stalled = None;
            for _ in 0..CHURN_TICKS_PER_ROUND {
                match entry.migration.tick(cluster, &registry, Some(&trace)) {
                    Ok(placement::TickOutcome::Finished) => break,
                    Ok(placement::TickOutcome::Step { bytes: b, .. }) => {
                        steps += 1;
                        bytes += b;
                    }
                    Ok(placement::TickOutcome::CutOver { .. }) => steps += 1,
                    Err(e) => {
                        stalled = Some(e);
                        break;
                    }
                }
                if entry.migration.is_finished() {
                    break;
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
            }
            if entry.migration.is_finished() {
                self.timeline
                    .push(migrate_done_line(round, dc, entry.migration.report()));
            }
        }
        self.inflight.retain(|e| !e.migration.is_finished());
    }

    /// Runs every in-flight churn migration for `dc` to completion, in
    /// start order. Called when a scheduled event is about to touch a
    /// node the schedule's membership model already counts as settled
    /// (a scale-out's joiner that is still syncing), and at settle. A
    /// migration whose tick errors here is stuck for good — earlier
    /// migrations have already flushed — so it is flagged and dropped.
    fn flush_churn(&mut self, round: u32, dc: Option<usize>, checker: &mut InvariantChecker) {
        if self.inflight.is_empty() {
            return;
        }
        let registry = self.system.registry().clone();
        let trace = self.system.trace().clone();
        let ids = self.system.dc_ids();
        let mut entries = std::mem::take(&mut self.inflight);
        for entry in &mut entries {
            if dc.is_some_and(|d| d != entry.dc) {
                continue;
            }
            let cluster = self
                .system
                .cluster_mut(ids[entry.dc])
                .expect("deployment DC exists");
            let outcome = loop {
                match entry.migration.tick(cluster, &registry, Some(&trace)) {
                    Ok(placement::TickOutcome::Finished) => break Ok(()),
                    Ok(_) => {}
                    Err(e) => break Err(e),
                }
            };
            match outcome {
                Ok(()) => {
                    self.timeline.push(migrate_done_line(
                        round,
                        entry.dc,
                        entry.migration.report(),
                    ));
                }
                Err(e) => {
                    let label = entry.label.clone();
                    self.note_violation(
                        checker,
                        round,
                        "schedule_valid",
                        format!("churn {label} rejected: {e}"),
                    );
                }
            }
        }
        entries.retain(|e| !e.migration.is_finished() && dc.is_some_and(|d| d != e.dc));
        self.inflight = entries;
    }

    /// Flushes `dc`'s in-flight churn before an event touches `node`,
    /// when the node is one churn is still creating: the schedule's
    /// membership model treats a scale-out as complete the round it
    /// fires, so a later crash may target a joiner that has not cut
    /// over yet (`Mint::fail_node` rejects joining nodes).
    fn flush_churn_for_node(
        &mut self,
        round: u32,
        dc: usize,
        node: u32,
        checker: &mut InvariantChecker,
    ) {
        let needs = {
            let id = self.dc_id(dc);
            let cluster = self.system.cluster(id).expect("deployment DC exists");
            node as usize >= cluster.num_nodes()
                || matches!(
                    cluster.node_role(NodeId(node)),
                    Ok(mint::NodeRole::Joining { .. })
                )
        };
        if needs {
            self.flush_churn(round, Some(dc), checker);
        }
    }

    /// Attempts one node recovery; on failure queues a retry for the
    /// next round (recovery reads peer flash, so a transient injected
    /// media fault can defeat one attempt).
    fn try_recover(
        &mut self,
        round: u32,
        dc: usize,
        node: u32,
        attempts: u32,
        checker: &mut InvariantChecker,
    ) {
        let id = self.dc_id(dc);
        let outcome = {
            let cluster = self.system.cluster_mut(id).expect("deployment DC exists");
            cluster
                .recover_node(NodeId(node))
                .map(|took| (took, cluster.take_last_wal_recovery()))
        };
        match outcome {
            Ok((_took, info)) => {
                self.crashed.retain(|&(d, n)| (d, n) != (dc, node));
                self.check_wal_recovery(round, dc, node, info, checker);
                self.emit_repair(round, format!("node_recover dc={dc} node={node}"));
            }
            Err(e) if attempts + 1 < RECOVERY_RETRIES => {
                self.timeline.push(format!(
                    "round={round:02} retry=node_recover dc={dc} node={node} attempt={}",
                    attempts + 1
                ));
                self.retry_recover.push((dc, node, attempts + 1));
                let _ = e;
            }
            Err(e) => self.note_violation(
                checker,
                round,
                "recovery_succeeds",
                format!(
                    "dc={dc} node={node} unrecoverable after {} attempts: {e}",
                    attempts + 1
                ),
            ),
        }
    }

    /// Checks a completed recovery's WAL catch-up against the frontier
    /// the node's journal held at crash time: a clean or torn-tail crash
    /// must yield exactly the committed frontier (no acked write lost),
    /// and no crash shape may yield more (a truncated suffix must never
    /// come back from the dead). Also writes the catch-up shape into the
    /// timeline — same-seed storms must replay it byte-identically.
    fn check_wal_recovery(
        &mut self,
        round: u32,
        dc: usize,
        node: u32,
        info: Option<mint::WalRecovery>,
        checker: &mut InvariantChecker,
    ) {
        let mark = self
            .wal_marks
            .iter()
            .position(|&(d, n, _, _)| (d, n) == (dc, node))
            .map(|i| self.wal_marks.remove(i));
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
        let Some((_, _, committed, corrupt)) = mark else {
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

    fn retry_recoveries(&mut self, round: u32, checker: &mut InvariantChecker) {
        let due: Vec<(usize, u32, u32)> = std::mem::take(&mut self.retry_recover);
        for (dc, node, attempts) in due {
            self.try_recover(round, dc, node, attempts, checker);
        }
    }

    fn install_ssd(&mut self, dc: usize, node: u32, rounds: u32, inject: ssdsim::FaultInjection) {
        let id = self.dc_id(dc);
        self.system
            .cluster(id)
            .expect("deployment DC exists")
            .node_device(NodeId(node))
            .expect("scheduled node exists")
            .set_fault_injection(inject);
        self.ssd_active.push((dc, node, rounds));
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
        let mut cleared = Vec::new();
        self.ssd_active.retain_mut(|(dc, node, remaining)| {
            if *remaining <= 1 {
                cleared.push((*dc, *node));
                false
            } else {
                *remaining -= 1;
                true
            }
        });
        for (dc, node) in cleared {
            let id = self.dc_id(dc);
            self.system
                .cluster(id)
                .expect("deployment DC exists")
                .node_device(NodeId(node))
                .expect("scheduled node exists")
                .set_fault_injection(ssdsim::FaultInjection::default());
            self.emit_repair(round, format!("ssd_clear dc={dc} node={node}"));
        }
    }

    /// Post-storm drain: clear every remaining injection, recover every
    /// node still down (retrying within the attempt budget), run one
    /// clean round, and run the checker's final pass.
    fn settle(&mut self, checker: &mut InvariantChecker) {
        let settle_round = self.cfg.rounds;
        self.burst = self.burst.map(|_| 1);
        self.ssd_active.iter_mut().for_each(|e| e.2 = 1);
        self.expire(settle_round);
        // Keep retrying until every node is back or every retry budget is
        // spent (try_recover records the violation when a node exhausts
        // its attempts).
        let mut passes = 0;
        while (!self.crashed.is_empty() || !self.retry_recover.is_empty())
            && passes <= RECOVERY_RETRIES
        {
            passes += 1;
            self.retry_recoveries(settle_round, checker);
            let down: Vec<(usize, u32)> = self.crashed.clone();
            for (dc, node) in down {
                if self
                    .retry_recover
                    .iter()
                    .any(|&(d, n, _)| (d, n) == (dc, node))
                {
                    continue;
                }
                self.try_recover(settle_round, dc, node, 0, checker);
            }
        }
        for (dc, node, attempts) in std::mem::take(&mut self.retry_recover) {
            self.note_violation(
                checker,
                settle_round,
                "recovery_succeeds",
                format!("dc={dc} node={node} still down after {attempts} attempts at settle"),
            );
        }
        // Every node is back (or flagged): churn still in flight can now
        // run to completion, so the final clean round and the checker's
        // final pass see a settled topology.
        self.flush_churn(settle_round, None, checker);
        match self.system.run_version(CHANGE_FRACTION) {
            Ok(report) => checker.observe_round(&self.system, &report, settle_round),
            Err(e) => self.note_violation(
                checker,
                settle_round,
                "pipeline_round_completes",
                format!("settle run_version failed: {e}"),
            ),
        }
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

    fn dc_id(&self, dc: usize) -> bifrost::DataCenterId {
        self.system.dc_ids()[dc]
    }

    fn ssd_seed(dc: usize, node: u32, round: u32) -> u64 {
        0x55D_FA17 ^ ((dc as u64) << 40) ^ ((node as u64) << 20) ^ round as u64
    }

    fn wal_seed(dc: usize, node: u32, round: u32) -> u64 {
        0x0A1_FA17 ^ ((dc as u64) << 40) ^ ((node as u64) << 20) ^ round as u64
    }
}
