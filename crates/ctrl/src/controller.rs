//! The controller: one decision per DC per control round.
//!
//! `decide` evaluates the policies in a fixed priority order — p99
//! pressure, node-count deficit, heat skew, footprint skew, node-count
//! surplus — and emits at most one plan per DC per round, the first
//! whose policy is engaged and whose action family is off cooldown.
//! Every decision (including "quiet" and "blocked by cooldown") is:
//!
//! * a deterministic line in the controller's decision timeline — the
//!   byte-identical same-seed replay artifact;
//! * a [`obs::SpanKind::Control`] trace event;
//! * `ctrl.*` counters and per-DC gauges in the registry, which surface
//!   through `DirectLoad::introspect()` and render as the controller
//!   section of the telemetry frame and `directload-top`.
//!
//! The controller never touches the cluster itself: it returns the
//! validated [`MigrationPlan`] and the caller actuates it through
//! `placement::Migration` — run to completion by an operator loop, or
//! ticked batch-by-batch inside chaos delivery rounds by the storm
//! orchestrator.

use crate::policy::{ActionFamily, Hysteresis, PolicyConfig, Signals};
use mint::NodeId;
use obs::{Registry, SpanKind, TraceSink};
use placement::{LoadReport, MigrationPlan, TopologyGoal};
use std::collections::BTreeMap;

/// What one control round decided for one DC.
#[derive(Debug, Clone)]
pub struct Decision {
    /// The control round.
    pub round: u32,
    /// DC index (deployment `dc_ids` order).
    pub dc: usize,
    /// The policy that drove the decision (`"quiet"` when none engaged).
    pub policy: &'static str,
    /// The goal the policy chose, when one fired.
    pub goal: Option<TopologyGoal>,
    /// The validated plan to actuate, when the goal produced a
    /// non-empty one and its family was off cooldown.
    pub plan: Option<MigrationPlan>,
    /// The decision's timeline line (also recorded on the controller).
    pub line: String,
}

/// The placement controller's decision state.
pub struct Controller {
    policy: PolicyConfig,
    p99: BTreeMap<usize, Hysteresis>,
    skew: BTreeMap<usize, Hysteresis>,
    footprint: BTreeMap<usize, Hysteresis>,
    /// Round each action family last emitted a plan, per DC.
    last_fired: BTreeMap<(usize, ActionFamily), u32>,
    timeline: Vec<String>,
}

impl Controller {
    /// A controller with the given policy thresholds, bands and
    /// cooldowns, and no history.
    pub fn new(policy: PolicyConfig) -> Controller {
        Controller {
            policy,
            p99: BTreeMap::new(),
            skew: BTreeMap::new(),
            footprint: BTreeMap::new(),
            last_fired: BTreeMap::new(),
            timeline: Vec::new(),
        }
    }

    /// The decision timeline so far: one line per `decide` call, in
    /// call order. Byte-identical across same-seed runs.
    pub fn timeline(&self) -> &[String] {
        &self.timeline
    }

    /// Runs one control round for one DC over its observed load report
    /// (with read heat and the serve latency histogram already
    /// attached).
    pub fn decide(
        &mut self,
        round: u32,
        dc: usize,
        load: &LoadReport,
        registry: &Registry,
        trace: Option<&TraceSink>,
    ) -> Decision {
        let sig = Signals::from_report(load);
        let p = self.policy;
        let p99_hot = self.p99.entry(dc).or_default().update(
            sig.p99_us,
            p.p99_enter_us,
            p.p99_exit_us,
            p.p99_sustain,
        );
        let skew_hot = self.skew.entry(dc).or_default().update(
            sig.heat_skew_pm,
            p.skew_enter_pm,
            p.skew_exit_pm,
            1,
        );
        let footprint_hot = self.footprint.entry(dc).or_default().update(
            sig.footprint_skew_pm,
            p.footprint_enter_pm,
            p.footprint_exit_pm,
            1,
        );
        registry.counter("ctrl.rounds_total").inc();
        registry
            .gauge(&format!("ctrl.dc{dc}.p99_us"))
            .set(sig.p99_us as f64);
        registry
            .gauge(&format!("ctrl.dc{dc}.heat_skew_pm"))
            .set(sig.heat_skew_pm as f64);
        registry
            .gauge(&format!("ctrl.dc{dc}.footprint_skew_pm"))
            .set(sig.footprint_skew_pm as f64);
        registry
            .gauge(&format!("ctrl.dc{dc}.serving_nodes"))
            .set(sig.serving_nodes as f64);

        let deficit = p.target_nodes.is_some_and(|t| sig.serving_nodes < t);
        let surplus = p.target_nodes.is_some_and(|t| sig.serving_nodes > t);
        // Priority order: latency first, then capacity goals, then
        // net-zero rebalancing. At most one candidate per round.
        let candidate: Option<(&'static str, ActionFamily, TopologyGoal)> = if p99_hot {
            Some((
                "p99_pressure",
                ActionFamily::Scale,
                TopologyGoal::AddCapacity { group: sig.hottest },
            ))
        } else if deficit {
            Some((
                "node_deficit",
                ActionFamily::Scale,
                TopologyGoal::AddCapacity { group: sig.hottest },
            ))
        } else if skew_hot {
            Some((
                "heat_skew",
                ActionFamily::Balance,
                TopologyGoal::BalanceGroups {
                    max_moves: p.max_moves,
                },
            ))
        } else if footprint_hot {
            Some((
                "footprint_skew",
                ActionFamily::Balance,
                TopologyGoal::RebalanceHot,
            ))
        } else if surplus {
            decommission_victim(load).map(|node| {
                (
                    "node_surplus",
                    ActionFamily::Scale,
                    TopologyGoal::Decommission { node },
                )
            })
        } else {
            None
        };

        let mut policy: &'static str = "quiet";
        let mut goal = None;
        let mut plan = None;
        let mut note = String::new();
        match candidate {
            None => {
                registry.counter("ctrl.quiet_total").inc();
            }
            Some((name, family, g)) => {
                policy = name;
                goal = Some(g);
                if !self.cooldown_clear(dc, family, round) {
                    registry.counter("ctrl.skip.cooldown").inc();
                    note = " blocked=cooldown".to_string();
                } else {
                    match placement::plan(load, g) {
                        Ok(built) if built.ops.is_empty() => {
                            // A balancing goal with no donor over the
                            // floor: nothing to move, no cooldown spent.
                            registry.counter("ctrl.skip.empty_plan").inc();
                            note = " blocked=empty_plan".to_string();
                        }
                        Ok(built) => {
                            registry.counter("ctrl.plans_total").inc();
                            registry
                                .counter(&format!("ctrl.plan.{}", goal_name(g)))
                                .inc();
                            note =
                                format!(" ops={} bytes={}", built.ops.len(), built.estimated_bytes);
                            self.last_fired.insert((dc, family), round);
                            plan = Some(built);
                        }
                        Err(e) => {
                            registry.counter("ctrl.plan_errors_total").inc();
                            note = format!(" blocked=plan_error err={e}");
                        }
                    }
                }
            }
        }
        let action = match (goal, plan.is_some()) {
            (Some(g), true) => goal_name(g),
            _ => "none",
        };
        let line = format!(
            "round={round:02} dc={dc} p99={}us skew={}pm disk={}pm nodes={} \
             policy={policy} action={action}{note}",
            sig.p99_us, sig.heat_skew_pm, sig.footprint_skew_pm, sig.serving_nodes
        );
        if let Some(t) = trace {
            t.event(
                SpanKind::Control,
                &format!("dc{dc} {policy} {action}"),
                round as u64,
            );
        }
        self.timeline.push(line.clone());
        Decision {
            round,
            dc,
            policy,
            goal,
            plan,
            line,
        }
    }

    fn cooldown_clear(&self, dc: usize, family: ActionFamily, round: u32) -> bool {
        self.last_fired
            .get(&(dc, family))
            .is_none_or(|&last| round.saturating_sub(last) >= self.policy.cooldown_rounds)
    }
}

/// Stable action name for counters and timeline lines.
fn goal_name(goal: TopologyGoal) -> &'static str {
    match goal {
        TopologyGoal::AddCapacity { .. } => "add_capacity",
        TopologyGoal::Decommission { .. } => "decommission",
        TopologyGoal::RebalanceHot => "rebalance_hot",
        TopologyGoal::BalanceGroups { .. } => "balance_groups",
    }
}

/// The scale-down victim: the busiest serving member of the coldest
/// group still above the replication floor (ties to the lowest group
/// index) — deterministic, and always a node `plan` will accept.
fn decommission_victim(load: &LoadReport) -> Option<NodeId> {
    load.groups
        .iter()
        .filter(|g| g.members > load.replicas)
        .min_by_key(|g| (g.read_heat, g.user_write_bytes, g.disk_bytes, g.group))
        .and_then(|g| load.busiest_member(g.group))
}
