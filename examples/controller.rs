//! The self-driving placement controller under a chaos storm.
//!
//! Runs the same seeded fault storm (node crashes, WAN link outages and
//! degradations, corruption bursts, SSD media faults) twice over the
//! same ramping read workload — once with the placement controller
//! actuating inside the storm rounds, once without — and compares the
//! serving tier's steady-state p99 against the SLO:
//!
//! * **controller off**: the hot group saturates under the ramp and its
//!   modeled p99 pins at the saturated service time, breaching the SLO;
//! * **controller on**: p99 pressure engages, the controller emits
//!   `AddCapacity` plans for the hottest group, the orchestrator drives
//!   them batch-by-batch between fault rounds, and the grown group
//!   holds p99 inside the SLO — with zero invariant violations.
//!
//! Then the controller run replays under the same seed and both the
//! fault/churn timeline and the controller's decision timeline must be
//! byte-identical — an autonomous control loop is only debuggable if
//! its every decision is replayable.
//!
//! ```text
//! cargo run --release --example controller
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use chaos::{ActuatorPlan, ChaosReport, Orchestrator, Schedule, ScheduleConfig};
use ctrl::{Controller, PolicyConfig, ServeModel};
use directload::{DirectLoad, DirectLoadConfig};
use placement::LoadReport;

const SEED: u64 = 0xC0_17_B0_55;
const ROUNDS: u32 = 12;
/// Serving SLO for the modeled read path.
const SLO_P99_US: u64 = 25_000;
/// The DC the modeled read workload (and so the controller) targets.
const HOT_DC: usize = 0;

/// The offered read load per group (qps), ramping group 1 toward well
/// past one group's serving capacity while group 0 idles along.
fn offered_qps(round: u32) -> [u64; 2] {
    [200, (300 + 150 * round as u64).min(1_400)]
}

/// Storm faults only: topology churn is the controller's job here, and
/// schedule-driven churn would race the controller's own joins for the
/// schedule generator's membership model.
fn schedule_cfg() -> ScheduleConfig {
    ScheduleConfig {
        churn_permille: 0,
        ..ScheduleConfig::storm(SEED, ROUNDS)
    }
}

/// Scale policies only: the balancing policies' drains would retire
/// nodes the fault schedule still targets. The anti-flap and balancing
/// behavior is pinned by the ctrl crate's property tests instead.
fn policy() -> PolicyConfig {
    PolicyConfig {
        skew_enter_pm: u64::MAX,
        footprint_enter_pm: u64::MAX,
        ..PolicyConfig::default()
    }
}

struct Run {
    report: ChaosReport,
    decisions: Vec<String>,
    p99_trace: Vec<u64>,
    steady_p99_us: u64,
    plans: u64,
}

fn run_storm(controller_on: bool) -> Run {
    let schedule = Schedule::generate(&schedule_cfg());
    let system = DirectLoad::new(DirectLoadConfig::small());
    let mut orch = Orchestrator::new(system, schedule);

    let model = ServeModel::new();
    let controller = Rc::new(RefCell::new(Controller::new(policy())));
    let p99_trace = Rc::new(RefCell::new(Vec::new()));
    let (ctrl_ref, trace_ref) = (controller.clone(), p99_trace.clone());
    orch.set_actuator(Box::new(move |system: &mut DirectLoad, round: u32| {
        // Observe: snapshot the hot DC mid-storm (crashed nodes and all)
        // and fold the round's offered load through the serving model.
        let id = system.dc_ids()[HOT_DC];
        let mut load = LoadReport::snapshot(system.cluster(id).expect("hot DC exists"));
        let seen = model.observe(&mut load, &offered_qps(round), round);
        trace_ref.borrow_mut().push(seen.p99_us);
        if !controller_on {
            return Vec::new();
        }
        // Decide and act: at most one plan per round, actuated by the
        // orchestrator batch-by-batch alongside the storm's faults.
        let decision = ctrl_ref.borrow_mut().decide(
            round,
            HOT_DC,
            &load,
            system.registry(),
            Some(system.trace()),
        );
        decision
            .plan
            .map(|plan| ActuatorPlan {
                dc: HOT_DC,
                label: decision.policy.to_string(),
                plan,
            })
            .into_iter()
            .collect()
    }));
    let report = orch.run();

    // Steady state: every fault repaired, every migration settled; the
    // peak offered load against whatever topology the run ended with.
    let id = orch.system().dc_ids()[HOT_DC];
    let mut load = LoadReport::snapshot(orch.system().cluster(id).expect("hot DC exists"));
    let steady = model.observe(&mut load, &offered_qps(ROUNDS), ROUNDS);
    let plans = orch
        .system()
        .introspect()
        .counter("ctrl.plans_total")
        .unwrap_or(0);
    let decisions = controller.borrow().timeline().to_vec();
    let p99_trace = p99_trace.borrow().clone();
    Run {
        report,
        decisions,
        p99_trace,
        steady_p99_us: steady.p99_us,
        plans,
    }
}

fn main() {
    let schedule = Schedule::generate(&schedule_cfg());
    println!(
        "storm: seed={SEED:#x} rounds={ROUNDS} events={} layers={:?} slo={SLO_P99_US}us",
        schedule.events().len(),
        schedule.layers(),
    );

    let off = run_storm(false);
    let on = run_storm(true);

    println!("\ncontroller decisions:");
    for line in &on.decisions {
        println!("  {line}");
    }
    println!("\np99 trace (us):");
    println!("  off: {:?}", off.p99_trace);
    println!("  on:  {:?}", on.p99_trace);

    let verdict = |p99: u64| {
        if p99 <= SLO_P99_US {
            "within"
        } else {
            "breached"
        }
    };
    println!(
        "\ncontroller off: steady p99={}us slo={SLO_P99_US}us verdict={}",
        off.steady_p99_us,
        verdict(off.steady_p99_us)
    );
    println!(
        "controller on: steady p99={}us slo={SLO_P99_US}us verdict={} plans={}",
        on.steady_p99_us,
        verdict(on.steady_p99_us),
        on.plans
    );
    assert!(
        off.steady_p99_us > SLO_P99_US,
        "without the controller the ramp must breach the SLO"
    );
    assert!(
        on.steady_p99_us <= SLO_P99_US,
        "the controller must hold steady-state p99 inside the SLO"
    );
    assert!(on.plans > 0, "the controller must have actuated");

    let violations = on.report.violations.len() + off.report.violations.len();
    for v in on.report.violations.iter().chain(&off.report.violations) {
        println!("VIOLATION {v}");
    }
    println!("violations: {violations}");
    assert_eq!(violations, 0, "the controller must not break any invariant");

    // Same seed, fresh deployment and controller: both the fault/churn
    // timeline and the decision timeline must replay byte-identically.
    let replay = run_storm(true);
    assert_eq!(
        on.report.timeline, replay.report.timeline,
        "same-seed storms must produce byte-identical timelines"
    );
    assert_eq!(
        on.decisions, replay.decisions,
        "same-seed runs must produce byte-identical decision timelines"
    );
    assert!(replay.report.violations.is_empty());
    println!("determinism: identical timelines across two runs (seed={SEED:#x})");
}
