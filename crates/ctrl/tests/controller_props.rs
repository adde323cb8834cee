//! Controller safety properties, pinned over synthetic load traces:
//!
//! * **anti-flap** — under any seeded trace of p99 / heat / footprint
//!   signals, the controller never emits two opposing topology plans
//!   (scale-up vs scale-down) for the same DC within a cooldown window,
//!   and never re-fires the same action family inside one either;
//! * **quiescence** — a balanced cluster below every threshold emits
//!   zero plans, forever;
//! * **determinism** — the same trace replays the decision timeline
//!   byte-identically on a fresh controller.

use ctrl::{Controller, PolicyConfig};
use mint::{NodeId, NodeRole};
use obs::Registry;
use placement::{GroupLoad, LoadReport, NodeLoad, TopologyGoal};
use proptest::prelude::*;
use simclock::SimTime;

/// A synthetic report: `groups[g] = (members, read_heat, disk_bytes)`,
/// every member serving and alive, plus an attached p99.
fn synth_report(replicas: usize, groups: &[(usize, u64, u64)], p99_us: u64) -> LoadReport {
    let mut nodes = Vec::new();
    let mut group_loads = Vec::new();
    for (g, &(members, heat, disk)) in groups.iter().enumerate() {
        let share = disk / members.max(1) as u64;
        for _ in 0..members {
            nodes.push(NodeLoad {
                node: NodeId(nodes.len() as u32),
                group: Some(g),
                role: NodeRole::Serving,
                alive: true,
                disk_bytes: share,
                puts: 0,
                gets: 0,
                user_write_bytes: share,
                device_write_bytes: share,
                busy: SimTime::ZERO,
            });
        }
        group_loads.push(GroupLoad {
            group: g,
            members,
            alive: members,
            disk_bytes: disk,
            user_write_bytes: disk,
            read_heat: heat,
        });
    }
    LoadReport {
        replicas,
        nodes,
        groups: group_loads,
        read_latency_us: Some([p99_us / 2, p99_us]),
        hot_keys: Vec::new(),
    }
}

fn is_scale_up(goal: TopologyGoal) -> bool {
    matches!(goal, TopologyGoal::AddCapacity { .. })
}

fn is_scale_down(goal: TopologyGoal) -> bool {
    matches!(goal, TopologyGoal::Decommission { .. })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any seeded trace of signal levels: emitted plans never flap.
    /// Scale-up and scale-down plans for one DC are always at least a
    /// full cooldown window apart (in either order), as are two plans
    /// of the same action family.
    #[test]
    fn hysteresis_never_flaps(
        seed_levels in proptest::collection::vec(
            (0u64..30_000, 0u64..(64 << 20), 0u64..(64 << 20)),
            8..40,
        ),
        extra_members in 0usize..3,
        target_delta in -2i64..3,
        cooldown in 2u32..6,
    ) {
        let replicas = 3;
        let serving = replicas * 2 + extra_members;
        let policy = PolicyConfig {
            cooldown_rounds: cooldown,
            target_nodes: Some((serving as i64 + target_delta).max(1) as usize),
            ..PolicyConfig::default()
        };
        let mut controller = Controller::new(policy);
        let registry = Registry::new();
        // Emitted plans: (round, goal, family label).
        let mut fired: Vec<(u32, TopologyGoal)> = Vec::new();
        for (round, &(p99, heat0, heat1)) in seed_levels.iter().enumerate() {
            let groups = [
                (replicas + extra_members, heat0, 32 << 20),
                (replicas, heat1, 32 << 20),
            ];
            let load = synth_report(replicas, &groups, p99);
            let decision = controller.decide(round as u32, 0, &load, &registry, None);
            if decision.plan.is_some() {
                fired.push((round as u32, decision.goal.expect("plan implies goal")));
            }
        }
        for (i, &(r1, g1)) in fired.iter().enumerate() {
            for &(r2, g2) in &fired[i + 1..] {
                let gap = r2 - r1;
                let opposing = (is_scale_up(g1) && is_scale_down(g2))
                    || (is_scale_down(g1) && is_scale_up(g2));
                if opposing {
                    prop_assert!(
                        gap >= cooldown,
                        "opposing plans {g1:?}@{r1} and {g2:?}@{r2} inside a \
                         {cooldown}-round cooldown"
                    );
                }
                // Same-family pairs share the cooldown too.
                let same_scale = (is_scale_up(g1) || is_scale_down(g1))
                    && (is_scale_up(g2) || is_scale_down(g2));
                if same_scale {
                    prop_assert!(gap >= cooldown, "scale family re-fired inside cooldown");
                }
            }
        }
    }

    /// A balanced cluster below every threshold never plans anything,
    /// no matter how long the controller watches it.
    #[test]
    fn quiescent_cluster_emits_zero_plans(rounds in 1u32..64, p99 in 0u64..5_000) {
        let replicas = 3;
        let policy = PolicyConfig {
            target_nodes: Some(replicas * 2),
            ..PolicyConfig::default()
        };
        let p99 = p99.min(policy.p99_exit_us - 1);
        let mut controller = Controller::new(policy);
        let registry = Registry::new();
        let groups = [(replicas, 1 << 20, 32 << 20), (replicas, 1 << 20, 32 << 20)];
        for round in 0..rounds {
            let load = synth_report(replicas, &groups, p99);
            let decision = controller.decide(round, 0, &load, &registry, None);
            prop_assert!(decision.plan.is_none(), "quiescent round planned: {}", decision.line);
            prop_assert_eq!(decision.policy, "quiet");
        }
        prop_assert_eq!(registry.snapshot().counter("ctrl.plans_total"), None);
    }

    /// Same trace, fresh controller: the decision timeline replays
    /// byte-identically.
    #[test]
    fn decision_timeline_replays_byte_identically(
        seed_levels in proptest::collection::vec(
            (0u64..30_000, 0u64..(64 << 20), 0u64..(64 << 20)),
            4..24,
        ),
    ) {
        let run = |levels: &[(u64, u64, u64)]| {
            let mut controller = Controller::new(PolicyConfig::default());
            let registry = Registry::new();
            for (round, &(p99, heat0, heat1)) in levels.iter().enumerate() {
                let groups = [(4, heat0, 32 << 20), (3, heat1, 32 << 20)];
                let load = synth_report(3, &groups, p99);
                controller.decide(round as u32, 0, &load, &registry, None);
            }
            controller.timeline().to_vec()
        };
        let a = run(&seed_levels);
        let b = run(&seed_levels);
        prop_assert_eq!(a, b);
    }
}

/// The hysteresis band itself: a signal hovering between exit and
/// enter thresholds holds the latch steady instead of toggling.
#[test]
fn band_hovering_does_not_toggle_actions() {
    let policy = PolicyConfig {
        p99_sustain: 1,
        cooldown_rounds: 2,
        ..PolicyConfig::default()
    };
    let mut controller = Controller::new(policy);
    let registry = Registry::new();
    let groups = [(3, 1 << 20, 32 << 20), (3, 1 << 20, 32 << 20)];
    // Engage: p99 far above enter.
    let load = synth_report(3, &groups, policy.p99_enter_us * 2);
    let d = controller.decide(0, 0, &load, &registry, None);
    assert_eq!(d.policy, "p99_pressure");
    assert!(d.plan.is_some(), "engaged and off cooldown must plan");
    // Hover inside the band: still engaged, but cooldown holds it.
    let hover = (policy.p99_exit_us + policy.p99_enter_us) / 2;
    let load = synth_report(3, &groups, hover);
    let d = controller.decide(1, 0, &load, &registry, None);
    assert_eq!(d.policy, "p99_pressure");
    assert!(d.plan.is_none(), "cooldown must block: {}", d.line);
    // Below exit: disengaged, quiet.
    let load = synth_report(3, &groups, policy.p99_exit_us / 2);
    let d = controller.decide(4, 0, &load, &registry, None);
    assert_eq!(d.policy, "quiet");
    assert!(d.plan.is_none());
}
