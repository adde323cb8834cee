//! `directload-netbench`: open-loop load against a running server.
//!
//! ```text
//! directload-netbench --addr HOST:PORT [--connections N] [--requests N]
//!                     [--qps N] [--quick]
//! ```
//!
//! `--quick` is the CI shape: 32 connections, 10 500 requests, 4 000
//! aggregate qps — enough to prove pipelining and admission behave on a
//! real socket without tying up a runner. The term workload is rebuilt
//! from the same seeded corpus the server indexed, so queries hit real
//! terms.
//!
//! Each answer is timed from its request's due instant, and the
//! `lateness:` line says how late the generator sent. Exits non-zero if
//! any protocol error was observed; the report lines (`netbench:`,
//! `histogram:`, `lateness:`, `protocol_errors:`) are stable for scripts
//! to grep.

use directload::DirectLoadConfig;
use indexgen::CrawlSimulator;
use net::{run_netbench, NetbenchConfig};

/// The value after `name` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1)?.parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr: String = flag(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4550".into());
    let quick = args.iter().any(|a| a == "--quick");

    let mut cfg = NetbenchConfig::default();
    if quick {
        cfg.connections = 32;
        cfg.load.requests = 10_500;
        cfg.load.qps = 4_000.0;
    }
    cfg.connections = flag(&args, "--connections").unwrap_or(cfg.connections);
    cfg.load.requests = flag(&args, "--requests").unwrap_or(cfg.load.requests);
    cfg.load.qps = flag(&args, "--qps").unwrap_or(cfg.load.qps);
    if !cfg.load.qps.is_finite() || cfg.load.qps <= 0.0 {
        eprintln!("[netbench] --qps must be a positive number");
        std::process::exit(2);
    }

    // Same seeded corpus the server built its index from.
    let crawler = CrawlSimulator::new(DirectLoadConfig::small().corpus);

    eprintln!(
        "[netbench] {} requests over {} connections at {} qps -> {addr}",
        cfg.load.requests, cfg.connections, cfg.load.qps
    );
    let report = run_netbench(&addr, &crawler, cfg);
    print!("{}", report.render(cfg.connections));

    if report.protocol_errors > 0 {
        std::process::exit(1);
    }
}
