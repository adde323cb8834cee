//! A three-layer fault storm against the full DirectLoad deployment.
//!
//! Generates a seeded fault schedule (node crashes, WAN link outages and
//! degradations, Bifrost corruption bursts, SSD media faults), runs it
//! interleaved with real index-update rounds, and checks the Jepsen-lite
//! invariants after every round: no acked write lost, replicas converge,
//! missed slices accounted for, firmware counters monotonic. Then runs
//! the identical storm a second time and asserts the fault/repair
//! timeline is byte-identical — determinism is what makes a chaos
//! failure replayable.
//!
//! ```text
//! cargo run --release --example chaos
//! ```

use chaos::{ChaosReport, Orchestrator, Schedule, ScheduleConfig};
use directload::{DirectLoad, DirectLoadConfig};

const SEED: u64 = 0xC4A0_5EED;
const ROUNDS: u32 = 10;

fn run_storm() -> ChaosReport {
    let schedule = Schedule::generate(&ScheduleConfig::storm(SEED, ROUNDS));
    let system = DirectLoad::new(DirectLoadConfig::small());
    Orchestrator::new(system, schedule).run()
}

fn main() {
    let schedule = Schedule::generate(&ScheduleConfig::storm(SEED, ROUNDS));
    println!(
        "storm: seed={SEED:#x} rounds={ROUNDS} events={} layers={:?} kinds={:?}",
        schedule.events().len(),
        schedule.layers(),
        schedule.fault_kinds(),
    );
    assert!(
        schedule.layers().len() >= 3,
        "storm must span at least three layers"
    );
    assert!(
        schedule.fault_kinds().len() >= 3,
        "storm must inject at least three fault kinds"
    );

    let report = run_storm();
    println!("\ntimeline:");
    for line in &report.timeline {
        println!("  {line}");
    }
    println!(
        "\nrounds: {}  faults: {}  repairs: {}",
        report.rounds, report.faults_injected, report.repairs
    );
    for v in &report.violations {
        println!("VIOLATION {v}");
    }
    println!("violations: {}", report.violations.len());
    assert!(
        report.violations.is_empty(),
        "the storm must not break any invariant"
    );

    // Same seed, fresh deployment: the storm must replay exactly.
    let replay = run_storm();
    assert_eq!(
        report.timeline, replay.timeline,
        "same-seed storms must produce byte-identical timelines"
    );
    assert!(replay.violations.is_empty());
    println!("determinism: identical timelines across two runs (seed={SEED:#x})");
}
