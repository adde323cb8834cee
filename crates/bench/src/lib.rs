//! Benchmark harness for the DirectLoad reproduction.
//!
//! Each module regenerates one of the paper's evaluation artifacts:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`engine`] | The one harness the engine comparisons drive QinDB, the LSM baseline and WiscKey through |
//! | [`fig5`] | Figure 5 — write amplification (LevelDB vs QinDB) and Figure 6 — write-throughput dynamics |
//! | [`fig7`] | Figure 7 — storage occupation over time (from the same run) |
//! | [`fig8`] | Figure 8 — read latency with and without update streams |
//! | [`month`] | Figures 9 & 10 — dedup ratio vs update time, throughput with/without DirectLoad, miss ratio |
//! | [`ablation`] | Design-choice ablations: FTL-vs-raw hardware WAF, GC occupancy threshold sweep, traceback depth vs dup ratio |
//!
//! The `figures` binary (`cargo run -p directload-bench --release --bin
//! figures -- all`) prints each table and writes machine-readable results
//! to `target/figures/*.json`.
//!
//! [`perf`] is the seeded scenario suite across every layer: 87 cells,
//! each a pure function of the seed, that `cargo test`
//! (`tests/perf_gate.rs`) requires to equal the golden file
//! `BENCH_BASELINE.json` byte for byte, plus a phase-time profiler for
//! the pipeline round. `cargo run -p directload-bench --release --bin
//! perf` prints both; `-- --rebaseline` rewrites the golden file.
//! [`report`] owns the golden file's schema: [`report::BenchReport`]
//! and its canonical rendering, one `(scenario, metric)` cell a line.
//! The `figures` binary writes its headline numbers in the same schema.
//!
//! Absolute numbers will not match the paper (its testbed was a physical
//! Xeon + SATA SSD fleet; ours is a simulator), but the comparisons the
//! paper draws — who wins, by roughly what factor, where the knees fall —
//! are reproduced.

pub mod ablation;
pub mod engine;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod month;
pub mod perf;
pub mod report;

use serde::Serialize;
use std::path::PathBuf;

/// Writes a serializable result to `target/figures/<name>.json` so
/// EXPERIMENTS.md numbers can be traced to raw data.
pub fn dump_json<T: Serialize>(name: &str, value: &T) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(path, json);
    }
}
