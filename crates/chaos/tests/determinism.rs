//! End-to-end determinism and safety of a seeded storm: two runs with
//! the same seed over fresh deployments must produce byte-identical
//! fault/repair timelines and zero invariant violations. Two storms are
//! also pinned across builds: their timelines must match the files
//! checked in under `tests/timelines/` byte for byte, so a change to
//! what a storm does shows up as a diff of those files.

use chaos::{ChaosReport, Orchestrator, Schedule, ScheduleConfig};
use directload::{DirectLoad, DirectLoadConfig};

/// Asserts `report`'s timeline, one line per entry, equals `expected`.
fn assert_pinned(report: &ChaosReport, expected: &str, file: &str) {
    let actual = report.timeline.join("\n") + "\n";
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "timeline differs from tests/timelines/{file} at line {}:\n{actual}",
            line + 1
        );
    }
}

fn run_storm(seed: u64, rounds: u32) -> ChaosReport {
    let schedule = Schedule::generate(&ScheduleConfig::storm(seed, rounds));
    let system = DirectLoad::new(DirectLoadConfig::small());
    Orchestrator::new(system, schedule).run()
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
    assert_pinned(
        &a,
        include_str!("timelines/seeded_storm.txt"),
        "seeded_storm.txt",
    );
}

#[test]
fn churn_migrates_live_without_violations() {
    use chaos::{FaultEvent, FaultKind};
    // An explicit churn timeline: scale out group 0 of DC 0 mid-storm,
    // then decommission one of its original members two rounds later —
    // with pipeline rounds (writes, retention, reads) in between. No
    // acked write may be lost and no stale version may resurface.
    let schedule = Schedule::from_events(
        5,
        vec![
            FaultEvent {
                round: 1,
                kind: FaultKind::GroupScaleOut { dc: 0, group: 0 },
            },
            FaultEvent {
                round: 3,
                kind: FaultKind::Decommission { dc: 0, node: 0 },
            },
        ],
    )
    .unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let mut orch = Orchestrator::new(system, schedule);
    let report = orch.run();
    assert!(
        report.violations.is_empty(),
        "live churn must keep every invariant: {:?}",
        report.violations
    );
    assert_pinned(
        &report,
        include_str!("timelines/churn_storm.txt"),
        "churn_storm.txt",
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

#[test]
fn an_explicit_schedule_runs_for_its_own_length() {
    use chaos::{FaultEvent, FaultKind};
    let crash = FaultEvent {
        round: 2,
        kind: FaultKind::NodeCrash { dc: 0, node: 1 },
    };
    // An event in the last of three rounds fires, and the storm settles
    // in round 3, recovering the node.
    let schedule = Schedule::from_events(3, vec![crash]).unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let report = Orchestrator::new(system, schedule).run();
    assert_eq!(report.rounds, 3);
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert_eq!(report.timeline[0], "round=02 fault=node_crash dc=0 node=1");
    assert_eq!(
        report.timeline.last().map(String::as_str),
        Some("round=03 repair=node_recover dc=0 node=1")
    );
    // An event at or past the end would never fire: refused.
    let late = FaultEvent { round: 3, ..crash };
    let refused = Schedule::from_events(3, vec![crash, late]).unwrap_err();
    assert_eq!(refused.event, late);
    assert_eq!(refused.rounds, 3);
}

#[test]
fn a_crash_of_a_joining_node_first_runs_its_join_to_completion() {
    use chaos::{FaultEvent, FaultKind};
    // Node 6 is the scale-out's joiner: it does not exist until the join
    // begins on its first tick, so the crash in the same round runs the
    // join to completion first, and only then lands.
    let schedule = Schedule::from_events(
        3,
        vec![
            FaultEvent {
                round: 0,
                kind: FaultKind::GroupScaleOut { dc: 0, group: 0 },
            },
            FaultEvent {
                round: 0,
                kind: FaultKind::NodeCrash { dc: 0, node: 6 },
            },
            FaultEvent {
                round: 1,
                kind: FaultKind::NodeRecover { dc: 0, node: 6 },
            },
        ],
    )
    .unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let report = Orchestrator::new(system, schedule).run();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    let kinds: Vec<&str> = report
        .timeline
        .iter()
        .map(|l| l.split(' ').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(
        kinds[..5],
        [
            "fault=group_scale_out",
            "migrate_begin",
            "migrate",
            "migrate_done",
            "fault=node_crash",
        ],
        "{:?}",
        report.timeline
    );
    assert!(report
        .timeline
        .iter()
        .any(|l| l == "round=01 repair=node_recover dc=0 node=6"));
}
