//! Negative controls: the invariant checker and orchestrator must
//! actually flag broken states, not pass vacuously.

use bifrost::DataCenterId;
use chaos::{FaultEvent, FaultKind, InvariantChecker, Orchestrator, Schedule};
use directload::{routed_key, DirectLoad, DirectLoadConfig};
use indexgen::IndexKind;

/// Deleting a published value out from under the checker must be caught
/// as a lost acked write.
#[test]
fn checker_flags_a_lost_acked_write() {
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    let mut checker = InvariantChecker::new(&system, 4);
    let report = system.run_version(1.0).unwrap();
    checker.observe_round(&system, &report, 0);
    assert!(checker.violations().is_empty(), "clean round must pass");

    // Reach under the pipeline and destroy one sampled document's
    // summary at every hosting DC — exactly what a buggy retention or
    // recovery path would do.
    let url = system.urls()[0].clone();
    let key = routed_key(IndexKind::Summary, &url);
    for dc in DataCenterId::summary_hosts() {
        system
            .cluster_mut(dc)
            .unwrap()
            .delete(&key, report.version)
            .unwrap();
    }
    // And its forward list at one DC: the re-read through the costed
    // path (one replica answers, the group being whole) must notice too.
    let forward = routed_key(IndexKind::Forward, &url);
    system
        .cluster_mut(system.dc_ids()[0])
        .unwrap()
        .delete(&forward, report.version)
        .unwrap();
    checker.finalize(&system);
    for invariant in ["acked_write_durable", "lone_read_matches_ack"] {
        assert!(
            checker
                .violations()
                .iter()
                .any(|v| v.invariant == invariant),
            "lost write must be flagged as {invariant}: {:?}",
            checker.violations()
        );
    }
}

/// A storm in which no sample was ever answered by a single replica of
/// a fully alive group proves nothing about that path, and must say so.
#[test]
fn checker_flags_a_storm_that_never_read_one_replica_alone() {
    let system = DirectLoad::new(DirectLoadConfig::small());
    let mut checker = InvariantChecker::new(&system, 4);
    checker.finalize(&system);
    assert!(
        checker
            .violations()
            .iter()
            .any(|v| v.invariant == "lone_read_taken"),
        "a vacuous run must be flagged: {:?}",
        checker.violations()
    );
}

/// A resurrected deleted version must be caught as a stale read: once
/// retention drops a version below the live floor, no replica may serve
/// it again.
#[test]
fn checker_flags_a_stale_read() {
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    let mut checker = InvariantChecker::new(&system, 4);
    // small() retains 4 versions: v1 stays live through v4 and retention
    // drops it while v5 is published.
    for round in 0..4 {
        let report = system.run_version(0.5).unwrap();
        checker.observe_round(&system, &report, round);
    }
    assert!(checker.violations().is_empty(), "clean rounds must pass");
    let report = system.run_version(0.5).unwrap();
    // Reach under the pipeline and resurrect v1 of one sampled forward
    // key after retention deleted it — exactly what a replica that lost
    // the deletion mark would serve.
    let url = system.urls()[0].clone();
    let key = routed_key(IndexKind::Forward, &url);
    let dc = system.dc_ids()[0];
    system
        .cluster_mut(dc)
        .unwrap()
        .apply(&[mint::WriteOp {
            key,
            version: 1,
            value: Some(bytes::Bytes::from_static(b"stale resurrected value")),
        }])
        .unwrap();
    checker.observe_round(&system, &report, 4);
    assert!(
        checker
            .violations()
            .iter()
            .any(|v| v.invariant == "no_stale_reads"),
        "resurrected version must be flagged: {:?}",
        checker.violations()
    );
}

/// Decommissioning a node of a base-width group would breach the
/// replication floor; the cluster refuses and the orchestrator must
/// record the invalid schedule, not ignore it.
#[test]
fn orchestrator_flags_decommission_at_the_floor() {
    let schedule = Schedule::from_events(
        1,
        vec![FaultEvent {
            round: 0,
            kind: FaultKind::Decommission { dc: 0, node: 0 },
        }],
    )
    .unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let report = Orchestrator::new(system, schedule).run();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "schedule_valid" && v.detail.contains("replication floor")),
        "floor-breaching decommission must be flagged: {:?}",
        report.violations
    );
}

/// A schedule that recovers a node that never crashed is invalid; the
/// orchestrator must surface it as a violation, not ignore it.
#[test]
fn orchestrator_flags_recovery_of_alive_node() {
    let schedule = Schedule::from_events(
        1,
        vec![FaultEvent {
            round: 0,
            kind: FaultKind::NodeRecover { dc: 0, node: 0 },
        }],
    )
    .unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let report = Orchestrator::new(system, schedule).run();
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.invariant == "recovery_succeeds"),
        "bogus recovery must be flagged: {:?}",
        report.violations
    );
    // One attempt in round 0, the other two at settle (round 1), then
    // the node is given up.
    assert_eq!(
        report.timeline,
        [
            "round=00 retry=node_recover dc=0 node=0 attempt=1",
            "round=01 retry=node_recover dc=0 node=0 attempt=2",
            "round=01 VIOLATION recovery_succeeds: dc=0 node=0 unrecoverable after 3 attempts: \
             node 0 in wrong state",
        ],
        "{:?}",
        report.timeline
    );
}

/// An explicit schedule may address a DC, node or link the deployment
/// lacks, or a capacity scale or corruption rate past the whole: each
/// such event is recorded as an invalid schedule and skipped, and the
/// storm runs on.
#[test]
fn orchestrator_flags_events_the_deployment_cannot_take() {
    let bad = [
        FaultKind::NodeCrash { dc: 6, node: 0 },
        FaultKind::NodeRecover { dc: 9, node: 0 },
        FaultKind::SsdReadFaults {
            dc: 0,
            node: 99,
            one_in: 4,
            rounds: 1,
        },
        FaultKind::SsdProgramFaults {
            dc: 7,
            node: 0,
            one_in: 4,
            rounds: 1,
        },
        FaultKind::LinkOutage { link: 33, secs: 60 },
        FaultKind::LinkDegrade {
            link: 0,
            scale_permille: 1001,
            secs: 60,
        },
        FaultKind::CorruptionBurst {
            rate_permille: 2000,
            rounds: 1,
        },
        FaultKind::GroupScaleOut { dc: 6, group: 0 },
    ];
    let events = bad
        .iter()
        .map(|&kind| FaultEvent { round: 0, kind })
        .collect();
    let schedule = Schedule::from_events(2, events).unwrap();
    let system = DirectLoad::new(DirectLoadConfig::small());
    let report = Orchestrator::new(system, schedule).run();
    for kind in bad {
        let prefix = format!("{kind} rejected: ");
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "schedule_valid" && v.detail.starts_with(&prefix)),
            "{kind} must be flagged: {:?}",
            report.violations
        );
    }
    assert_eq!(
        report.violations.len(),
        bad.len(),
        "{:?}",
        report.violations
    );
    assert_eq!(report.faults_injected, 0, "{:?}", report.timeline);
}
