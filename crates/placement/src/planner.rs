//! The planner: topology goal + load report → ordered migration plan.
//!
//! Planning is pure — it reads a [`LoadReport`] value, never the live
//! cluster — so a plan can be printed, inspected, and replayed
//! deterministically. Validation happens here *and* again inside Mint
//! when the migrator executes (the cluster re-checks the replication
//! floor at `begin_drain`): the planner failing fast just gives better
//! errors before any data moves.

use crate::load::{GroupLoad, LoadReport};
use crate::Result;
use mint::{MintError, NodeId, NodeRole};

/// What the operator wants the topology to look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyGoal {
    /// Grow `group` by one node.
    AddCapacity {
        /// The group to grow.
        group: usize,
    },
    /// Retire `node`, draining its data to the survivors first.
    Decommission {
        /// The node to retire.
        node: NodeId,
    },
    /// Shift load off the hottest group: grow it by one node, then
    /// drain its busiest member onto the fresh capacity.
    RebalanceHot,
    /// Cross-group balancing: move capacity from cold over-provisioned
    /// groups to hot ones. Each move pairs the hottest unpaired group
    /// with the coldest group still above the replication floor — one
    /// join to the hot group, one drain from the cold one — up to
    /// `max_moves` pairs. All joins are ordered before all drains.
    /// A cluster that is already balanced (or has no donor above the
    /// floor) yields an empty plan.
    BalanceGroups {
        /// Upper bound on join/drain pairs in one plan.
        max_moves: usize,
    },
}

/// One step of a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanOp {
    /// Create a newcomer and anti-entropy it into `group`.
    Join {
        /// The group to join.
        group: usize,
    },
    /// Drain `node` to the post-removal owners, then retire it.
    Drain {
        /// The node to drain.
        node: NodeId,
    },
}

/// An ordered sequence of topology steps, joins before drains — capacity
/// always arrives before it is relied upon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The steps, in execution order.
    pub ops: Vec<PlanOp>,
    /// Rough payload bytes the plan will move (group footprint for a
    /// join, node footprint for a drain) — the number the throttle turns
    /// into a time budget.
    pub estimated_bytes: u64,
}

/// Builds a validated plan for `goal` from the observed `report`.
pub fn plan(report: &LoadReport, goal: TopologyGoal) -> Result<MigrationPlan> {
    let mut ops = Vec::new();
    let mut estimated_bytes = 0u64;
    match goal {
        TopologyGoal::AddCapacity { group } => {
            let g = report
                .groups
                .get(group)
                .ok_or(MintError::NoSuchGroup(group))?;
            ops.push(PlanOp::Join { group });
            estimated_bytes += g.disk_bytes;
        }
        TopologyGoal::Decommission { node } => {
            let load = report
                .nodes
                .get(node.0 as usize)
                .ok_or(MintError::NoSuchNode(node.0))?;
            if load.role != NodeRole::Serving || !load.alive {
                return Err(MintError::BadNodeState(node.0));
            }
            let group = load.group.ok_or(MintError::BadNodeState(node.0))?;
            if report.groups[group].members <= report.replicas {
                return Err(MintError::GroupAtFloor(group));
            }
            ops.push(PlanOp::Drain { node });
            estimated_bytes += load.disk_bytes;
        }
        TopologyGoal::RebalanceHot => {
            let group = report.hottest_group();
            let victim = report
                .busiest_member(group)
                .ok_or(MintError::NoReplicaAvailable)?;
            ops.push(PlanOp::Join { group });
            ops.push(PlanOp::Drain { node: victim });
            estimated_bytes += report.groups[group].disk_bytes;
            estimated_bytes += report.nodes[victim.0 as usize].disk_bytes;
        }
        TopologyGoal::BalanceGroups { max_moves } => {
            // Rank groups by the same pressure key `hottest_group` uses,
            // hottest first, ties to the lowest index.
            let key = |g: &GroupLoad| (g.read_heat, g.user_write_bytes, g.disk_bytes);
            let mut order: Vec<usize> = (0..report.groups.len()).collect();
            order.sort_by(|&a, &b| {
                key(&report.groups[b])
                    .cmp(&key(&report.groups[a]))
                    .then(a.cmp(&b))
            });
            // Donors, coldest first: above the floor and with a live
            // serving member to give up.
            let donors: Vec<usize> = order
                .iter()
                .rev()
                .copied()
                .filter(|&g| {
                    report.groups[g].members > report.replicas && report.busiest_member(g).is_some()
                })
                .collect();
            let mut used = std::collections::BTreeSet::new();
            let mut joins = Vec::new();
            let mut drains = Vec::new();
            for &hot in &order {
                if joins.len() >= max_moves || used.contains(&hot) {
                    continue;
                }
                // The coldest unused donor strictly colder than `hot`:
                // moving between equal-pressure groups would churn data
                // without changing the skew.
                let Some(cold) = donors.iter().copied().find(|&cold| {
                    cold != hot
                        && !used.contains(&cold)
                        && key(&report.groups[cold]) < key(&report.groups[hot])
                }) else {
                    continue;
                };
                used.insert(hot);
                used.insert(cold);
                let victim = report
                    .busiest_member(cold)
                    .expect("donor has a live member");
                joins.push(PlanOp::Join { group: hot });
                estimated_bytes += report.groups[hot].disk_bytes;
                drains.push(PlanOp::Drain { node: victim });
                estimated_bytes += report.nodes[victim.0 as usize].disk_bytes;
            }
            // Joins land before the first drain: the fresh capacity is
            // routable before any donor shrinks.
            ops.extend(joins);
            ops.extend(drains);
        }
    }
    Ok(MigrationPlan {
        ops,
        estimated_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mint::{Mint, MintConfig, WriteOp};

    fn loaded_cluster() -> Mint {
        let mut m = Mint::new(MintConfig::tiny());
        let ops: Vec<WriteOp> = (0..40u32)
            .map(|i| WriteOp {
                key: Bytes::from(format!("key-{i:04}")),
                version: 1,
                value: Some(Bytes::from(format!("value-{i}"))),
            })
            .collect();
        m.apply(&ops).unwrap();
        m
    }

    #[test]
    fn add_capacity_plans_one_join() {
        let m = loaded_cluster();
        let report = LoadReport::snapshot(&m);
        let built = plan(&report, TopologyGoal::AddCapacity { group: 1 }).unwrap();
        assert_eq!(built.ops, vec![PlanOp::Join { group: 1 }]);
        assert!(built.estimated_bytes > 0);
        assert!(
            plan(&report, TopologyGoal::AddCapacity { group: 9 }).is_err(),
            "unknown group must be rejected"
        );
    }

    #[test]
    fn decommission_respects_the_replication_floor() {
        let mut m = loaded_cluster();
        let report = LoadReport::snapshot(&m);
        // tiny(): every group sits exactly at the floor.
        let err = plan(&report, TopologyGoal::Decommission { node: NodeId(0) }).unwrap_err();
        assert_eq!(err, MintError::GroupAtFloor(0));
        // One extra member lifts the floor.
        m.add_node(0).unwrap();
        let report = LoadReport::snapshot(&m);
        let victim = NodeId(m.group_members(0)[0]);
        let plan = plan(&report, TopologyGoal::Decommission { node: victim }).unwrap();
        assert_eq!(plan.ops, vec![PlanOp::Drain { node: victim }]);
    }

    #[test]
    fn rebalance_hot_joins_before_draining() {
        let mut m = loaded_cluster();
        m.add_node(0).unwrap();
        let report = LoadReport::snapshot(&m);
        let plan = plan(&report, TopologyGoal::RebalanceHot).unwrap();
        assert_eq!(plan.ops.len(), 2);
        let group = report.hottest_group();
        assert_eq!(plan.ops[0], PlanOp::Join { group });
        assert!(matches!(plan.ops[1], PlanOp::Drain { .. }));
    }

    #[test]
    fn balance_groups_moves_capacity_from_cold_to_hot() {
        let mut m = loaded_cluster();
        let report = LoadReport::snapshot(&m);
        let cold = {
            // Give the group write pressure would NOT pick an extra
            // member, making it the over-provisioned donor.
            let hot = report.hottest_group();
            report
                .groups
                .iter()
                .map(|g| g.group)
                .find(|&g| g != hot)
                .expect("two groups")
        };
        m.add_node(cold).unwrap();
        let mut report = LoadReport::snapshot(&m);
        // Anti-entropy to the newcomer counts as write pressure on the
        // donor; planted read heat keeps the hot group unambiguous, as
        // it is for the controller's observed-heat signal.
        let hot = report
            .groups
            .iter()
            .map(|g| g.group)
            .find(|&g| g != cold)
            .expect("two groups");
        report.groups[hot].read_heat = 64 << 20;
        assert_eq!(report.hottest_group(), hot);
        let built = plan(&report, TopologyGoal::BalanceGroups { max_moves: 4 }).unwrap();
        assert_eq!(built.ops.len(), 2, "one pair: {:?}", built.ops);
        assert_eq!(built.ops[0], PlanOp::Join { group: hot });
        let PlanOp::Drain { node } = built.ops[1] else {
            panic!("second op must drain the donor");
        };
        assert_eq!(report.nodes[node.0 as usize].group, Some(cold));
        assert!(built.estimated_bytes > 0);
    }

    #[test]
    fn balance_groups_is_empty_when_no_donor_clears_the_floor() {
        let m = loaded_cluster();
        // tiny(): every group sits exactly at the floor — nothing to move.
        let report = LoadReport::snapshot(&m);
        let built = plan(&report, TopologyGoal::BalanceGroups { max_moves: 4 }).unwrap();
        assert!(built.ops.is_empty(), "no donor: {:?}", built.ops);
        assert_eq!(built.estimated_bytes, 0);
    }

    /// Replays a plan's ops in order against the report's membership
    /// counts, enforcing the two validity invariants: capacity arrives
    /// before it is relied upon (no drain precedes any join) and no
    /// drain takes a group below the replication floor at the moment it
    /// executes.
    fn assert_plan_valid(report: &LoadReport, built: &MigrationPlan) {
        let mut members: Vec<usize> = report.groups.iter().map(|g| g.members).collect();
        let mut drained = std::collections::BTreeSet::new();
        let mut drains_started = false;
        for op in &built.ops {
            match *op {
                PlanOp::Join { group } => {
                    assert!(
                        !drains_started,
                        "join after drain breaks the ordering: {:?}",
                        built.ops
                    );
                    members[group] += 1;
                }
                PlanOp::Drain { node } => {
                    drains_started = true;
                    assert!(drained.insert(node), "node {node:?} drained twice");
                    let load = &report.nodes[node.0 as usize];
                    assert_eq!(load.role, NodeRole::Serving);
                    assert!(load.alive);
                    let group = load.group.expect("drained node has a group");
                    assert!(
                        members[group] > report.replicas,
                        "drain of {node:?} breaches the floor in group {group}"
                    );
                    members[group] -= 1;
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any reachable cluster shape (extra members, skewed write
            /// load, planted read heat) yields multi-op plans that are
            /// ordered join-before-drain and never breach the group
            /// floor when replayed op by op.
            #[test]
            fn multi_op_plans_stay_valid(
                keys in 8u32..48,
                extra in proptest::collection::vec(0usize..2, 0..5),
                heat_group in 0usize..2,
                heat in 0u64..(8 << 20),
                max_moves in 1usize..4,
                goal_pick in 0u8..2,
            ) {
                let mut m = Mint::new(MintConfig::tiny());
                let ops: Vec<WriteOp> = (0..keys)
                    .map(|i| WriteOp {
                        key: Bytes::from(format!("key-{i:04}")),
                        version: 1,
                        value: Some(Bytes::from(format!("value-{i}"))),
                    })
                    .collect();
                m.apply(&ops).unwrap();
                for group in extra {
                    m.add_node(group).unwrap();
                }
                let mut report = LoadReport::snapshot(&m);
                if heat > 0 {
                    report.groups[heat_group].read_heat = heat;
                }
                let goal = match goal_pick {
                    0 => TopologyGoal::BalanceGroups { max_moves },
                    _ => TopologyGoal::RebalanceHot,
                };
                let built = plan(&report, goal).unwrap();
                if let TopologyGoal::BalanceGroups { max_moves } = goal {
                    prop_assert!(built.ops.len() <= 2 * max_moves);
                }
                assert_plan_valid(&report, &built);
            }
        }
    }
}
