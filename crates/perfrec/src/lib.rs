//! The performance flight recorder.
//!
//! `figures` prints text, so the repo had no machine-readable perf
//! trajectory — nothing would catch a regression in QinDB's write path
//! or `serve`'s tail latency.
//! This crate is the measurement substrate the `perf` binary (in the
//! bench crate) builds on:
//!
//! * [`report`] — the stable [`BenchReport`] / [`BenchResult`] schema
//!   behind `BENCH_RESULTS.json` and the checked-in
//!   `BENCH_BASELINE.json`: one row per `(scenario, metric)`, each
//!   flagged `deterministic` (sim-time / firmware counters, byte-stable
//!   across same-seed runs) or not (wall-clock medians).
//! * [`gate`] — the regression gate: [`gate::compare`] fails on *any*
//!   drift in deterministic counters and on >[`gate::WALL_TOLERANCE`]
//!   relative drift in wall-clock entries.
//! * [`stats`] — wall-clock measurement discipline: median + MAD over K
//!   repetitions ([`stats::measure`]), robust to scheduler noise where a
//!   mean would not be.
//! * [`profile`] — renders [`obs::profile`]'s self-time attribution as
//!   the phase-time report (`build` vs `deliver` vs `load` vs GC) with a
//!   top-N critical-path listing.
//!
//! Scenario *content* deliberately lives in the bench crate (it needs
//! the whole stack); this crate depends only on `obs` and the vendored
//! serde, so any crate can emit reports in the same schema.

pub mod gate;
pub mod profile;
pub mod report;
pub mod stats;

pub use gate::{compare, Drift, DriftKind, WALL_TOLERANCE};
pub use profile::phase_report;
pub use report::{BenchReport, BenchResult, SCHEMA_VERSION};
pub use stats::{measure, median, median_abs_deviation, WallMeasurement};
