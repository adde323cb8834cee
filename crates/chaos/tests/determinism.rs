//! End-to-end determinism and safety of a seeded storm: two runs with
//! the same seed over fresh deployments must produce byte-identical
//! fault/repair timelines and zero invariant violations.

use chaos::{ChaosConfig, ChaosReport, Orchestrator, Schedule, ScheduleConfig};
use directload::{DirectLoad, DirectLoadConfig};

fn run_storm(seed: u64, rounds: u32) -> ChaosReport {
    let schedule = Schedule::generate(&ScheduleConfig::storm(seed, rounds));
    let system = DirectLoad::new(DirectLoadConfig::small());
    let cfg = ChaosConfig { rounds };
    Orchestrator::new(system, schedule, cfg).run()
}

#[test]
fn same_seed_storms_replay_byte_identically_with_zero_violations() {
    let a = run_storm(0xC4A0_5EED, 5);
    assert!(
        !a.timeline.is_empty(),
        "a storm at these rates must inject at least one fault"
    );
    assert!(
        a.violations.is_empty(),
        "invariants must hold under the storm: {:?}",
        a.violations
    );

    let b = run_storm(0xC4A0_5EED, 5);
    assert_eq!(
        a.timeline, b.timeline,
        "same-seed storms must produce byte-identical timelines"
    );
    assert!(b.violations.is_empty());
}

#[test]
fn churn_migrates_live_without_violations() {
    use chaos::{FaultEvent, FaultKind};
    // An explicit churn timeline: scale out group 0 of DC 0 mid-storm,
    // then decommission one of its original members two rounds later —
    // with pipeline rounds (writes, retention, reads) in between. No
    // acked write may be lost and no stale version may resurface.
    let schedule = Schedule::from_events(vec![
        FaultEvent {
            round: 1,
            kind: FaultKind::GroupScaleOut { dc: 0, group: 0 },
        },
        FaultEvent {
            round: 3,
            kind: FaultKind::Decommission { dc: 0, node: 0 },
        },
    ]);
    let system = DirectLoad::new(DirectLoadConfig::small());
    let cfg = ChaosConfig { rounds: 5 };
    let mut orch = Orchestrator::new(system, schedule, cfg);
    let report = orch.run();
    assert!(
        report.violations.is_empty(),
        "live churn must keep every invariant: {:?}",
        report.violations
    );
    assert!(report
        .timeline
        .iter()
        .any(|l| l.contains("fault=group_scale_out dc=0 group=0")));
    assert!(report
        .timeline
        .iter()
        .any(|l| l.contains("fault=decommission dc=0 node=0")));
    assert!(
        report
            .timeline
            .iter()
            .filter(|l| l.contains("migrate_done dc=0"))
            .count()
            == 2,
        "both churn ops run to completion as live migrations: {:?}",
        report.timeline
    );
    assert!(
        report
            .timeline
            .iter()
            .any(|l| l.contains("migrate dc=0 steps=")),
        "churn must tick in throttled batches inside delivery rounds: {:?}",
        report.timeline
    );
    // Every batch the churn moved was charged to the WAN ledger's
    // migration traffic class — it never pollutes the foreground or
    // catch-up accounting the other invariants pin.
    let wan = orch.system().wan();
    assert!(
        wan.class_total(obs::TrafficClass::Migration) > 0,
        "churn batches must land in the Migration WAN class"
    );
}

#[test]
fn different_seeds_produce_different_storms() {
    let a = Schedule::generate(&ScheduleConfig::storm(7, 8));
    let b = Schedule::generate(&ScheduleConfig::storm(8, 8));
    assert_ne!(a.events(), b.events());
}
