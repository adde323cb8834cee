//! The perf suite CLI.
//!
//! ```text
//! perf [--rebaseline]
//! ```
//!
//! Runs the seeded scenario suite (see `directload_bench::perf`) and
//! prints its table plus the pipeline phase-time profile. The suite is
//! checked by `cargo test` (`crates/bench/tests/perf_gate.rs`), which
//! requires its canonical rendering to equal the golden file
//! `BENCH_BASELINE.json`. With `--rebaseline` this binary rewrites that
//! file from the fresh run; commit the diff with the reason it moved.

use directload_bench::perf::{pipeline_profile, run_suite, BASELINE, SCENARIOS};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut rebaseline = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--rebaseline" => rebaseline = true,
            other => {
                eprintln!("perf: unknown argument `{other}`\nusage: perf [--rebaseline]");
                return ExitCode::from(2);
            }
        }
    }

    let report = run_suite(&SCENARIOS);
    println!("{}", report.render_table());
    let (profile, attributed) = pipeline_profile();
    println!("{profile}");
    if attributed < 0.9 {
        eprintln!(
            "warning: only {:.1}% of the pipeline round is attributed to named phases",
            attributed * 100.0
        );
    }

    if rebaseline {
        let path = Path::new(BASELINE);
        if let Err(e) = report.write_to(path) {
            eprintln!("perf: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "re-baselined {} ({} cells)",
            path.display(),
            report.results.len()
        );
    }
    ExitCode::SUCCESS
}
