//! The live migrator: executes a [`MigrationPlan`] in throttled batches
//! against a serving cluster.
//!
//! Each [`Migration::tick`] moves at most one bounded batch
//! ([`MigratorConfig::step_bytes`]) and charges the moving node's sim
//! clock so the batch never exceeds
//! [`MigratorConfig::throttle_bytes_per_sec`]: if the transfer itself
//! (charged by Mint at its anti-entropy bandwidth) took less virtual
//! time than the throttle allows for those bytes, the clock is advanced
//! to the throttle floor. Foreground traffic interleaves between ticks —
//! reads keep serving from the old replica set because a joining node is
//! not routed until cutover and a draining node stays routed until its
//! cutover. When Mint's WAL catch-up is on (the default), a join batch
//! ships the group-log suffix above the joiner's LSN frontier instead
//! of scanning donor state — on dedup-heavy workloads that is an order
//! of magnitude fewer bytes through the same throttle.
//!
//! Every batch is emitted as a `migrate`/`drain` span (on the moving
//! node's clock) and rolled into `placement.*` counters:
//!
//! * `placement.steps_total`, `placement.bytes_moved_total`,
//!   `placement.items_moved_total` — batch accounting;
//! * `placement.busy_ns_total` — virtual time the moving nodes spent,
//!   so `bytes_moved_total / (busy_ns_total/1e9)` is the achieved
//!   throughput the throttle bounds;
//! * `placement.joins_total`, `placement.drains_total` — cutovers;
//! * `placement.active_migrations` (gauge) — 1 while a plan is running.

use crate::planner::{MigrationPlan, PlanOp};
use crate::Result;
use mint::{Mint, NodeId};
use obs::{Registry, SpanKind, TraceSink};
use simclock::SimTime;

/// Migrator tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigratorConfig {
    /// Ceiling on migration throughput, bytes of payload per second of
    /// the moving node's virtual time.
    pub throttle_bytes_per_sec: u64,
    /// Per-batch byte budget (at least one item always moves, so tiny
    /// budgets still make progress).
    pub step_bytes: u64,
}

impl Default for MigratorConfig {
    fn default() -> Self {
        MigratorConfig {
            throttle_bytes_per_sec: 32 * 1024 * 1024,
            step_bytes: 256 * 1024,
        }
    }
}

/// What one [`Migration::tick`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickOutcome {
    /// One throttled batch moved for plan op `op`.
    Step {
        /// Index of the plan op the batch belonged to.
        op: usize,
        /// Payload bytes moved.
        bytes: u64,
        /// Items moved.
        items: u64,
    },
    /// Plan op `op` completed: `node` entered service or retired.
    CutOver {
        /// Index of the completed plan op.
        op: usize,
        /// The node that joined or drained.
        node: NodeId,
    },
    /// Every plan op has cut over; the migration is complete.
    Finished,
}

/// Cumulative outcome of a migration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MigrationReport {
    /// Throttled batches executed.
    pub steps: u64,
    /// Payload bytes moved across all batches.
    pub bytes_moved: u64,
    /// Items moved across all batches.
    pub items_moved: u64,
    /// Nodes that joined (in cutover order).
    pub joined: Vec<NodeId>,
    /// Nodes that drained and retired (in cutover order).
    pub retired: Vec<NodeId>,
    /// Virtual time the moving nodes spent (transfer plus throttle
    /// stalls) — the denominator of the achieved throughput.
    pub busy: SimTime,
    /// Human-readable step log, deterministic for a given run.
    pub timeline: Vec<String>,
}

impl MigrationReport {
    /// Achieved migration throughput in bytes per second of moving-node
    /// time (0 when nothing moved).
    pub fn throughput_bps(&self) -> f64 {
        if self.busy == SimTime::ZERO {
            0.0
        } else {
            self.bytes_moved as f64 / self.busy.as_secs_f64()
        }
    }
}

enum OpState {
    Idle,
    Joining(NodeId),
    Draining(NodeId),
}

/// A resumable in-flight migration. Drive it with [`Migration::tick`]
/// (interleaving foreground work between ticks), or run it to completion
/// with [`Migration::execute`].
pub struct Migration {
    plan: MigrationPlan,
    cfg: MigratorConfig,
    current: usize,
    state: OpState,
    report: MigrationReport,
}

impl Migration {
    /// Starts executing `plan` (lazily — the first op begins on the
    /// first tick).
    pub fn new(plan: MigrationPlan, cfg: MigratorConfig) -> Migration {
        Migration {
            plan,
            cfg,
            current: 0,
            state: OpState::Idle,
            report: MigrationReport::default(),
        }
    }

    /// True once every plan op has cut over.
    pub fn is_finished(&self) -> bool {
        self.current >= self.plan.ops.len()
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &MigrationReport {
        &self.report
    }

    /// Consumes the migration, yielding its final report.
    pub fn into_report(self) -> MigrationReport {
        self.report
    }

    /// Moves one throttled batch (beginning the next plan op if none is
    /// in flight), cutting the op over when its catch-up scan comes back
    /// clean. Errors leave the op in place so the caller can retry.
    pub fn tick(
        &mut self,
        cluster: &mut Mint,
        registry: &Registry,
        trace: Option<&TraceSink>,
    ) -> Result<TickOutcome> {
        let Some(op) = self.plan.ops.get(self.current).copied() else {
            registry.gauge("placement.active_migrations").set(0.0);
            return Ok(TickOutcome::Finished);
        };
        registry.gauge("placement.active_migrations").set(1.0);
        if let OpState::Idle = self.state {
            match op {
                PlanOp::Join { group } => {
                    let node = cluster.begin_join(group)?;
                    self.report
                        .timeline
                        .push(format!("begin join node={} group={group}", node.0));
                    self.state = OpState::Joining(node);
                }
                PlanOp::Drain { node } => {
                    cluster.begin_drain(node)?;
                    self.report
                        .timeline
                        .push(format!("begin drain node={}", node.0));
                    self.state = OpState::Draining(node);
                }
            }
        }
        let (node, kind, joining) = match self.state {
            OpState::Joining(node) => (node, SpanKind::Migrate, true),
            OpState::Draining(node) => (node, SpanKind::Drain, false),
            OpState::Idle => unreachable!("an op was just begun"),
        };
        let clock = cluster.node_clock(node)?;
        // The span rides the moving node's clock, so its duration is the
        // batch's transfer time plus any throttle stall.
        let node_sink = trace.map(|t| t.with_clock(clock.clone()));
        let label = format!("node={}", node.0);
        let mut span = node_sink.as_ref().map(|s| s.span(kind, &label));
        let t0 = clock.now();
        let step = if joining {
            cluster.join_sync_step(node, self.cfg.step_bytes)?
        } else {
            cluster.drain_step(node, self.cfg.step_bytes)?
        };
        let elapsed = clock.now().saturating_sub(t0);
        let floor = SimTime::from_nanos(
            step.bytes
                .saturating_mul(1_000_000_000)
                .div_ceil(self.cfg.throttle_bytes_per_sec),
        );
        if floor > elapsed {
            // Faster than the throttle allows: stall the mover to the
            // floor, which is what paces a real transfer loop.
            clock.advance(floor.saturating_sub(elapsed));
        }
        let busy = elapsed.max(floor);
        if let Some(span) = span.as_mut() {
            span.set_amount(step.bytes);
        }
        drop(span);
        registry.counter("placement.steps_total").inc();
        registry
            .counter("placement.bytes_moved_total")
            .add(step.bytes);
        registry
            .counter("placement.items_moved_total")
            .add(step.items);
        registry
            .counter("placement.busy_ns_total")
            .add(busy.as_nanos());
        self.report.steps += 1;
        self.report.bytes_moved += step.bytes;
        self.report.items_moved += step.items;
        self.report.busy += busy;
        if !step.done {
            return Ok(TickOutcome::Step {
                op: self.current,
                bytes: step.bytes,
                items: step.items,
            });
        }
        // Clean scan: cut over within the same tick, so no foreground
        // write can sneak in between the scan and the flip.
        match self.state {
            OpState::Joining(node) => {
                cluster.cutover_join(node)?;
                registry.counter("placement.joins_total").inc();
                self.report.joined.push(node);
                self.report
                    .timeline
                    .push(format!("cutover join node={}", node.0));
            }
            OpState::Draining(node) => {
                cluster.cutover_drain(node)?;
                registry.counter("placement.drains_total").inc();
                self.report.retired.push(node);
                self.report
                    .timeline
                    .push(format!("cutover drain node={}", node.0));
            }
            OpState::Idle => unreachable!(),
        }
        self.state = OpState::Idle;
        let done = self.current;
        self.current += 1;
        if self.is_finished() {
            registry.gauge("placement.active_migrations").set(0.0);
        }
        Ok(TickOutcome::CutOver { op: done, node })
    }

    /// Runs `plan` to completion with no foreground interleaving — the
    /// batch-job shape of the same mechanism.
    pub fn execute(
        plan: MigrationPlan,
        cfg: MigratorConfig,
        cluster: &mut Mint,
        registry: &Registry,
        trace: Option<&TraceSink>,
    ) -> Result<MigrationReport> {
        let mut migration = Migration::new(plan, cfg);
        loop {
            if let TickOutcome::Finished = migration.tick(cluster, registry, trace)? {
                return Ok(migration.into_report());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::LoadReport;
    use crate::planner::{plan, TopologyGoal};
    use bytes::Bytes;
    use mint::{MintConfig, WriteOp};

    fn ops(n: u32, version: u64) -> Vec<WriteOp> {
        (0..n)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version,
                value: Some(Bytes::from(format!("value-{i}-{version}"))),
            })
            .collect()
    }

    #[test]
    fn throttled_join_respects_the_budget() {
        let mut m = Mint::new(MintConfig::tiny());
        let ledger = obs::WanLedger::new();
        m.attach_wan(&ledger, "dc0.0");
        m.apply(&ops(60, 1)).unwrap();
        let registry = Registry::new();
        let report = LoadReport::snapshot(&m);
        let migration_plan = plan(&report, TopologyGoal::AddCapacity { group: 0 }).unwrap();
        let cfg = MigratorConfig {
            throttle_bytes_per_sec: 4096,
            step_bytes: 128,
        };
        let done = Migration::execute(migration_plan, cfg, &mut m, &registry, None).unwrap();
        assert_eq!(done.joined.len(), 1);
        assert!(done.steps > 1, "128-byte batches must take several steps");
        assert!(done.bytes_moved > 0);
        assert!(
            done.throughput_bps() <= cfg.throttle_bytes_per_sec as f64 + 1.0,
            "achieved {} B/s exceeds the {} B/s throttle",
            done.throughput_bps(),
            cfg.throttle_bytes_per_sec
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("placement.joins_total"), Some(1));
        assert_eq!(
            snap.counter("placement.bytes_moved_total"),
            Some(done.bytes_moved)
        );
        assert!(snap.counter("placement.busy_ns_total").unwrap() > 0);
        // The batches were charged to the migration traffic class, and
        // nothing leaked into the catch-up class.
        assert!(ledger.class_total(obs::TrafficClass::Migration) > 0);
        assert_eq!(ledger.class_total(obs::TrafficClass::WalCatchup), 0);
    }

    #[test]
    fn rebalance_hot_migrates_live_and_emits_spans() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(60, 1)).unwrap();
        let registry = Registry::new();
        let trace = TraceSink::wall(4096);
        let report = LoadReport::snapshot(&m);
        let migration_plan = plan(&report, TopologyGoal::RebalanceHot).unwrap();
        let mut migration = Migration::new(migration_plan, MigratorConfig::default());
        // Interleave foreground writes with migration ticks.
        let mut version = 2;
        loop {
            match migration.tick(&mut m, &registry, Some(&trace)).unwrap() {
                TickOutcome::Finished => break,
                TickOutcome::Step { .. } | TickOutcome::CutOver { .. } => {
                    m.apply(&ops(10, version)).unwrap();
                    version += 1;
                }
            }
        }
        let done = migration.into_report();
        assert_eq!(done.joined.len(), 1);
        assert_eq!(done.retired.len(), 1);
        // Every version written during the migration still resolves.
        for v in 1..version {
            for i in 0..10u32 {
                let key = format!("key-{i:04}");
                let (val, _) = m.get(key.as_bytes(), v).unwrap();
                assert!(val.is_some(), "key {key} v{v} lost during rebalance");
            }
        }
        let events = trace.snapshot();
        assert!(
            events
                .iter()
                .any(|e| e.kind == SpanKind::Migrate && e.amount > 0),
            "join batches must emit migrate spans"
        );
        assert!(
            events.iter().any(|e| e.kind == SpanKind::Drain),
            "drain batches must emit drain spans"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("placement.drains_total"), Some(1));
        assert_eq!(
            snap.get("placement.active_migrations").map(|v| v.as_f64()),
            Some(0.0)
        );
    }

    #[test]
    fn failed_op_reports_the_cluster_error() {
        let mut m = Mint::new(MintConfig::tiny());
        m.apply(&ops(20, 1)).unwrap();
        let registry = Registry::new();
        // Hand-build an invalid plan (the planner would reject it): the
        // cluster still enforces the floor at execution time.
        let bad = MigrationPlan {
            ops: vec![PlanOp::Drain { node: NodeId(0) }],
            estimated_bytes: 0,
        };
        let err = Migration::execute(bad, MigratorConfig::default(), &mut m, &registry, None)
            .unwrap_err();
        assert_eq!(err, mint::MintError::GroupAtFloor(0));
    }
}
