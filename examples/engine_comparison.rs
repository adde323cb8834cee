//! QinDB vs a LevelDB-style LSM engine (and WiscKey) on identical hardware.
//!
//! Runs the paper's Figure 5 protocol at demo scale — the same versioned
//! summary-index stream against each engine, each on its own simulated
//! SSD, through the harness the figures use — and prints the
//! write-amplification, throughput-smoothness, and storage-occupation
//! comparison.
//!
//! ```text
//! cargo run --release --example engine_comparison
//! ```

use directload_bench::fig5::{self, Fig5Config};
use directload_bench::fig7;

fn main() {
    let cfg = Fig5Config::quick();
    let l = fig5::run_leveldb(&cfg);
    let w = fig5::run_wisckey(&cfg);
    let q = fig5::run_qindb(&cfg);
    println!(
        "same workload: {} keys x {} versions of ~{} B, retain {}\n",
        cfg.keys, cfg.versions, cfg.value_bytes, cfg.retain
    );
    println!(
        "{:<14} {:>10} {:>10} {:>7} {:>12} {:>10}",
        "engine", "user MB/s", "sys MB/s", "WAF", "stddev MB/s", "peak MB"
    );
    for r in [&l, &w, &q] {
        println!(
            "{:<14} {:>10.3} {:>10.3} {:>7.2} {:>12.4} {:>10.1}",
            r.engine,
            r.user_write_mbps,
            r.sys_write_mbps,
            r.total_waf,
            r.user_write_stddev,
            fig7::summarize(r).peak_mb,
        );
    }
    println!(
        "\nQinDB ingests {:.1}x faster with {:.1}x less write amplification,",
        q.user_write_mbps / l.user_write_mbps,
        l.total_waf / q.total_waf,
    );
    println!("paying with disk space held by the lazy GC (the paper's RUM trade).");
}
