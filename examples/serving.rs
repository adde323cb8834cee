//! Serving throughput: worker scaling, caching, and load shedding.
//!
//! Builds the full DirectLoad deployment, publishes two versions, then
//! drives the `serve` front-end with a seeded open-loop Zipf/VIP query
//! stream at a saturating offered load, twice:
//!
//! 1. with 1 worker — measures single-worker capacity, and the bounded
//!    queue sheds the excess;
//! 2. with 4 workers — throughput must scale ≥2×.
//!
//! In both runs every offered request is accounted for: answered (full
//! or deadline-degraded) or shed at the queue door.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use directload::{DirectLoad, DirectLoadConfig};
use serve::{ServeConfig, ServeExt, ServeReport};

fn print_report(label: &str, r: &ServeReport) {
    println!(
        "{label:>10}: {:>6.0} qps | offered {:>5} served {:>5} degraded {:>4} shed {:>5} \
         | p50 {:>6}µs p99 {:>6}µs p99.9 {:>6}µs | cache hit {:>5.1}% | shed {:>5.1}% \
         | sent late p50 {}µs p99 {}µs max {}µs",
        r.throughput_qps(),
        r.offered,
        r.served,
        r.served_stale,
        r.shed,
        r.hist.p50(),
        r.hist.p99(),
        r.hist.p999(),
        r.cache_hit_rate() * 100.0,
        r.shed_rate() * 100.0,
        r.lateness.p50() / 1_000,
        r.lateness.p99() / 1_000,
        r.lateness.max() / 1_000,
    );
}

fn main() {
    // The engine under test: the laptop-scale deployment, two published
    // versions so the serving path exercises version traceback too.
    let mut system = DirectLoad::new(DirectLoadConfig::small());
    system.run_version(1.0).expect("publish v1");
    system.run_version(0.3).expect("publish v2");
    println!(
        "engine ready: version {}, min live version {}\n",
        system.version(),
        system.min_live_version()
    );

    // Saturating offered load: the generator outruns any worker count
    // here, so measured throughput is the front-end's capacity and the
    // ratio between runs is the worker scaling.
    let mut cfg = ServeConfig::default();
    cfg.load.qps = 9000.0;
    cfg.load.requests = 2200;

    cfg.frontend.workers = 1;
    let one = system.serve(&cfg);
    print_report("1 worker", &one);

    cfg.frontend.workers = 4;
    let four = system.serve(&cfg);
    print_report("4 workers", &four);

    let scaling = four.throughput_qps() / one.throughput_qps();
    println!("\nworker scaling 1 -> 4: {scaling:.2}x");
    assert!(
        scaling >= 2.0,
        "expected >= 2x throughput from 1 -> 4 workers, got {scaling:.2}x"
    );

    // Every offered request is accounted for, and the bounded queues
    // turned the excess into shed load instead of queue growth.
    for r in [&one, &four] {
        assert_eq!(r.responses() + r.shed, r.offered, "requests leaked");
    }
    assert!(one.shed > 0, "saturation run should shed");

    println!("\nall serving invariants held");
}
