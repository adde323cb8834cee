//! The perf report schema and the phase-time profile.
//!
//! This crate is the substrate the `perf` binary and the golden test
//! `crates/bench/tests/perf_gate.rs` (both in the bench crate) build on:
//!
//! * [`report`] — the stable [`BenchReport`] / [`BenchResult`] schema
//!   behind the checked-in golden file `BENCH_BASELINE.json`: one row
//!   per `(scenario, metric)`, every value a pure function of the seed
//!   (simulated time, firmware counters, CRCs), rendered canonically so
//!   that line equality is bit equality.
//! * [`profile`] — renders [`obs::profile`]'s self-time attribution as
//!   the phase-time report (`build` vs `deliver` vs `load` vs GC) with a
//!   top-N critical-path listing.
//!
//! Nothing here measures wall-clock time: speed is `benchmark/`'s job.
//! Scenario *content* deliberately lives in the bench crate (it needs
//! the whole stack); this crate depends only on `obs` and the vendored
//! `serde_json`, so any crate can emit reports in the same schema.

pub mod profile;
pub mod report;

pub use profile::phase_report;
pub use report::{BenchReport, BenchResult, SCHEMA_VERSION};
