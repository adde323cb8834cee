//! Load attribution end to end: who paid for the workload, and what
//! placement does about it.
//!
//! Builds the full DirectLoad deployment, publishes two versions, then
//! serves a seeded Zipf/VIP query stream and follows the attribution
//! signal all the way around the loop:
//!
//! 1. **cost accounting** — every served request's storage reads come
//!    back attributed (group, per-node split); the merged accumulator's
//!    per-group and per-node sums must equal the layer total exactly
//!    (conservation);
//! 2. **hot keys** — the per-shard Misra-Gries sketches merge into one
//!    top-K view whose estimates are checked against the *exact* term
//!    counts of the replayed workload, within the sketch's own error
//!    bound;
//! 3. **placement** — `LoadReport::attach_read_heat` folds the observed
//!    heat in, `hottest_group` flips from write pressure to measured
//!    read heat, and `RebalanceHot` plans against that group; the plan
//!    is then executed live, charging its batches to the WAN ledger's
//!    migration class;
//! 4. **WAN conservation** — the ledger's foreground class equals
//!    bifrost's delivery uplink bytes counter bit-for-bit;
//! 5. **determinism** — a same-seed rerun reproduces every
//!    wall-clock-free artifact byte-identically.
//!
//! ```text
//! cargo run --release --example attribution
//! ```

use directload::{DirectLoad, DirectLoadConfig};
use indexgen::QueryWorkload;
use placement::{plan, LoadReport, Migration, MigratorConfig, TopologyGoal};
use serve::{ServeConfig, ServeExt};
use std::collections::BTreeMap;

const SEED: u64 = 0x5EED_A77B;
const REQUESTS: usize = 600;
const QPS: f64 = 600.0;

struct Run {
    transcript: Vec<String>,
    violations: Vec<String>,
}

fn run_attribution() -> Run {
    let mut transcript = Vec::new();
    let mut violations = Vec::new();
    let mut check = |ok: bool, msg: String| {
        if !ok {
            violations.push(msg);
        }
    };

    let mut cfg = DirectLoadConfig::small();
    cfg.corpus.seed = SEED;
    let mut system = DirectLoad::new(cfg);
    for round in 0..2 {
        let report = system
            .run_version(if round == 0 { 1.0 } else { 0.3 })
            .expect("publish");
        transcript.push(format!(
            "warmup: v={} keys={}",
            report.version, report.keys_stored
        ));
    }

    // Serve the seeded stream. Offered load sits well under capacity so
    // nothing sheds: the attribution then covers every offered request
    // and the sketch's ground truth is the full workload.
    let mut scfg = ServeConfig::default();
    scfg.load.workload.seed = SEED;
    scfg.load.requests = REQUESTS;
    scfg.load.qps = QPS;
    scfg.frontend.workers = 4;
    let report = system.serve(&scfg);
    check(
        report.shed == 0,
        format!(
            "offered load must not shed at {QPS} qps, shed {}",
            report.shed
        ),
    );
    check(
        report.responses() + report.shed == report.offered,
        "front-end accounting must balance".into(),
    );

    // 1. Conservation: per-group and per-node attributed heat both sum
    // to the layer-wide total, exactly.
    let attr = &report.attribution;
    let (group_err, node_err) = attr.costs.conservation_error();
    transcript.push(format!(
        "conservation: group_err={group_err} node_err={node_err}"
    ));
    check(
        (group_err, node_err) == (0, 0),
        format!("attributed cost drifts: group_err={group_err} node_err={node_err}"),
    );
    for line in attr.costs.render().lines() {
        transcript.push(line.to_string());
    }

    // 2. Sketch vs ground truth: replay the identical seeded workload
    // and count the true term frequencies.
    let mut workload = QueryWorkload::new(system.crawler(), scfg.load.workload);
    let mut truth: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
    for query in workload.take(REQUESTS) {
        for term in query.terms {
            *truth.entry(term.to_vec()).or_insert(0) += 1;
        }
    }
    let sketch = &attr.hot_keys;
    let offered: u64 = truth.values().sum();
    check(
        sketch.total_weight() == offered,
        format!(
            "sketch saw {} term offers, workload produced {offered}",
            sketch.total_weight()
        ),
    );
    check(
        sketch.error_bound() <= sketch.total_weight() / (sketch.k() as u64 + 1),
        "error bound above the W/(k+1) guarantee".into(),
    );
    let mut worst_err = 0u64;
    for (term, &count) in &truth {
        let est = sketch.estimate(term);
        check(
            est <= count,
            format!("sketch overestimates {}", String::from_utf8_lossy(term)),
        );
        check(
            count - est <= sketch.error_bound(),
            format!(
                "sketch misses {} beyond bound",
                String::from_utf8_lossy(term)
            ),
        );
        worst_err = worst_err.max(count - est);
    }
    transcript.push(format!(
        "sketch: k={} total={} bound={} distinct={} worst_err={worst_err}",
        sketch.k(),
        sketch.total_weight(),
        sketch.error_bound(),
        truth.len(),
    ));
    for (key, count) in sketch.entries().into_iter().take(5) {
        transcript.push(format!(
            "hot key {}: ~{count}",
            String::from_utf8_lossy(&key)
        ));
    }

    // 3. The signal feeds placement: observed heat overrides write
    // pressure, and RebalanceHot plans against the measured group.
    let dc = system.dc_ids()[0];
    let mut load = LoadReport::snapshot(system.cluster(dc).expect("dc0"));
    load.attach_read_heat(&attr.costs, &attr.hot_keys);
    let hottest = load.hottest_group();
    check(
        Some(hottest as u64) == attr.costs.hottest_group(),
        "load report and accumulator must agree on the hottest group".into(),
    );
    transcript.push(format!(
        "hottest: group={hottest} heat={}",
        load.groups[hottest].read_heat
    ));
    let migration_plan = plan(&load, TopologyGoal::RebalanceHot).expect("plan");
    transcript.push(format!("plan: ops={:?}", migration_plan.ops));
    check(
        matches!(
            migration_plan.ops.first(),
            Some(placement::PlanOp::Join { group }) if *group == hottest
        ),
        "RebalanceHot must grow the observed-hottest group".into(),
    );

    let registry = system.registry().clone();
    let trace = system.trace().clone();
    let mcfg = MigratorConfig {
        throttle_bytes_per_sec: 8 * 1024 * 1024,
        step_bytes: 16 * 1024,
    };
    let done = Migration::execute(
        migration_plan,
        mcfg,
        system.cluster_mut(dc).expect("dc0"),
        &registry,
        Some(&trace),
    )
    .expect("migration");
    transcript.push(format!(
        "migration: steps={} bytes={} items={}",
        done.steps, done.bytes_moved, done.items_moved
    ));
    check(done.bytes_moved > 0, "migration moved no data".into());

    // 4. WAN conservation: classes split the fabric's bytes, and the
    // foreground class equals the delivery layer's own uplink counter.
    let wan = system.wan();
    let foreground = wan.class_total(obs::TrafficClass::Foreground);
    let migration_bytes = wan.class_total(obs::TrafficClass::Migration);
    let catchup = wan.class_total(obs::TrafficClass::WalCatchup);
    transcript.push(format!(
        "wan: foreground={foreground} wal_catchup={catchup} migration={migration_bytes}"
    ));
    check(migration_bytes > 0, "migration charged no WAN bytes".into());
    let uplink = system.introspect().counter("bifrost.uplink_bytes");
    check(
        uplink == Some(foreground),
        format!("wan foreground={foreground} but bifrost.uplink_bytes={uplink:?}"),
    );

    Run {
        transcript,
        violations,
    }
}

fn main() {
    let run = run_attribution();
    println!("attribution: seed={SEED:#x} requests={REQUESTS}");
    println!("\ntranscript:");
    for line in &run.transcript {
        println!("  {line}");
    }
    for v in &run.violations {
        println!("VIOLATION {v}");
    }
    println!("violations: {}", run.violations.len());
    assert!(
        run.violations.is_empty(),
        "attribution invariants must hold"
    );

    // Same seed, fresh deployment: every wall-clock-free artifact —
    // cost renders, sketch contents, heat, plan, WAN totals — must
    // replay byte-identically.
    let replay = run_attribution();
    assert_eq!(
        run.transcript, replay.transcript,
        "same-seed runs must produce byte-identical transcripts"
    );
    assert!(replay.violations.is_empty());
    println!("determinism: identical timelines across two runs (seed={SEED:#x})");
}
