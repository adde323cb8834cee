//! Admission-control contract: shedding happens only at the queue door.
//!
//! Once a request is accepted into a shard queue, it always produces a
//! response — at worst a degraded one (summaries from cache only) when its deadline passed
//! while it queued. These tests pin that accounting identity under an
//! underloaded run, a saturated run, and a worst-case run where every
//! accepted request breaches its deadline.

use directload::{DirectLoad, DirectLoadConfig};
use serve::{ServeConfig, ServeExt};
use std::time::Duration;

fn engine() -> DirectLoad {
    let mut e = DirectLoad::new(DirectLoadConfig::small());
    e.run_version(1.0).unwrap();
    e
}

#[test]
fn underload_serves_everything_fully() {
    let engine = engine();
    let mut cfg = ServeConfig::default();
    cfg.load.qps = 400.0;
    cfg.load.requests = 120;
    cfg.frontend.workers = 2;
    let r = engine.serve(&cfg);
    assert_eq!(r.offered, 120);
    assert_eq!(r.shed, 0, "no shedding below capacity");
    assert_eq!(r.served_stale, 0, "no deadline pressure below capacity");
    assert_eq!(r.served, 120, "every offered request fully served");
    assert_eq!(r.hist.count(), 120, "every response has a latency sample");
}

#[test]
fn accepted_requests_are_never_dropped_under_saturation() {
    let engine = engine();
    let mut cfg = ServeConfig::default();
    cfg.load.qps = 50_000.0; // far beyond any capacity here
    cfg.load.requests = 600;
    cfg.frontend.workers = 2;
    cfg.frontend.queue_depth = 8;
    let r = engine.serve(&cfg);
    assert_eq!(r.offered, 600);
    assert!(r.shed > 0, "saturation must shed at the queue door");
    // The core identity: everything offered is either shed at admission
    // or answered; accepted work is never silently dropped.
    assert_eq!(r.responses() + r.shed, r.offered, "requests leaked");
    assert_eq!(r.hist.count(), r.responses());
}

#[test]
fn deadline_breach_degrades_but_still_responds() {
    let engine = engine();
    let mut cfg = ServeConfig::default();
    cfg.load.qps = 20_000.0;
    cfg.load.requests = 300;
    cfg.frontend.workers = 2;
    cfg.frontend.queue_depth = 16;
    // Impossible deadline: every accepted request breaches while queued.
    cfg.frontend.deadline = Duration::ZERO;
    let r = engine.serve(&cfg);
    assert_eq!(r.offered, 300);
    assert_eq!(r.served, 0, "nothing can meet a zero deadline");
    assert!(r.served_stale > 0, "breached requests still answer");
    // Accepted = everything not shed; all of it was answered degraded.
    assert_eq!(
        r.served_stale + r.shed,
        r.offered,
        "a breached request was dropped"
    );
}
