//! System-wide observability: one registry, one trace ring.
//!
//! Builds the full DirectLoad deployment with deliberately small per-node
//! devices, drives update cycles until the storage engines' lazy GC has
//! fired, checkpoints the fleet, runs a serving burst, and then prints
//! the two introspection surfaces:
//!
//! 1. the unified metrics exposition — every layer (`qindb.*`, `ssd.*`,
//!    `bifrost.*`, `pipeline.*`, `serve.*`) in one Prometheus-style dump;
//! 2. the span breakdown — the trace ring's pipeline stages (build →
//!    dedup → slice → deliver → load → publish) and engine maintenance
//!    (flush, checkpoint, engine GC, traceback) aggregated by kind with
//!    `obs::profile`: count, summed duration and summed amount.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use directload::{DirectLoad, DirectLoadConfig};
use serve::{ServeConfig, ServeExt};

fn main() {
    let mut cfg = DirectLoadConfig::small();
    // Fat summaries plus small devices and AOF files, so space pressure
    // — and therefore the engines' lazy GC — arrives within a demo run.
    cfg.corpus.summary_mean_bytes = 4096;
    cfg.mint.device = ssdsim::DeviceConfig::sized(4 * 1024 * 1024);
    cfg.mint.engine = qindb::QinDbConfig::small_files(256 * 1024);
    let mut system = DirectLoad::new(cfg);

    // Update cycles: a full first crawl, then churn rounds. Retention
    // keeps deleting the oldest version, so old AOF files hollow out and
    // become GC candidates as the devices fill.
    system.run_version(1.0).expect("publish v1");
    let mut rounds = 1u32;
    while rounds < 30 {
        system.run_version(0.9).expect("publish version");
        rounds += 1;
        let gc_runs = system.introspect().counter("qindb.gc.runs").unwrap_or(0);
        if gc_runs > 0 {
            break;
        }
    }
    println!(
        "update cycles: {rounds} versions published, current version {}",
        system.version()
    );

    // Fleet-wide checkpoint (traces one Checkpoint span per engine).
    let engines = system.checkpoint_all().expect("checkpoint fleet");
    println!("checkpointed {engines} engines\n");

    // Serving burst: the front-end's report feeds the same registry the
    // storage and delivery layers publish into.
    let mut serve_cfg = ServeConfig::default();
    serve_cfg.load.qps = 4000.0;
    serve_cfg.load.requests = 1200;
    let report = system.serve(&serve_cfg);
    report.publish_metrics(system.registry());

    let metrics = system.introspect();
    println!(
        "# unified exposition: {} metrics from one registry",
        metrics.samples.len()
    );
    print!("{}", metrics.to_prometheus());

    println!(
        "\n# span breakdown ({} events in the ring)",
        system.trace().len()
    );
    println!(
        "{:<12} {:>8} {:>16} {:>16}",
        "kind", "count", "total_ns", "total_amount"
    );
    let by_kind = obs::profile(&system.trace().snapshot()).entries;
    for b in &by_kind {
        println!(
            "{:<12} {:>8} {:>16} {:>16}",
            b.kind.as_str(),
            b.count,
            b.total_ns,
            b.total_amount
        );
    }

    // The claims this example exists to demonstrate.
    assert!(
        metrics.counter("qindb.gc.runs").unwrap_or(0) > 0,
        "engine GC never fired — devices too large for the workload"
    );
    assert_eq!(
        metrics.counter("ssd.gc_runs"),
        Some(0),
        "QinDB drives the raw interface: device GC must stay idle"
    );
    for prefix in ["qindb.", "ssd.", "bifrost.", "pipeline.", "serve."] {
        assert!(
            !metrics.with_prefix(prefix).is_empty(),
            "no metrics under {prefix}"
        );
    }
    assert!(
        by_kind.len() >= 4,
        "expected >= 4 span kinds, saw {}",
        by_kind.len()
    );
    println!(
        "\nOK: metrics from 5 subsystems, {} span kinds traced",
        by_kind.len()
    );
}
