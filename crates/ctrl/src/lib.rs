//! Ctrl — the self-driving placement control plane.
//!
//! DirectLoad's premise is that a web-scale index spread across
//! regional centers must absorb skewed, shifting load without operators
//! in the loop. The observation substrate already exists: per-request
//! cost attribution folds into [`placement::LoadReport`] as read heat,
//! hot-key sketches name the culprits, and the serve tier exports its
//! latency histogram. This crate closes the loop from observation to
//! action with an **observe → decide → act** cycle:
//!
//! * **observe** — each control round snapshots a [`LoadReport`] per DC
//!   with read heat and the serve latency histogram attached. Where no
//!   wall-clock front-end runs (sim-time storms, benches), the
//!   [`ServeModel`] derives a deterministic load-dependent latency
//!   signal from offered load against live per-group capacity — the
//!   generative-model approach of *Performance Modeling of Data Storage
//!   Systems using Generative Models* (PAPERS.md). Its service time,
//!   per-node capacity, bytes per request and samples per group are
//!   constants, so `ServeModel::new()` takes nothing.
//! * **decide** — the [`Controller`] evaluates declarative policies
//!   ([`PolicyConfig`]): p99 pressure, per-group heat skew, footprint
//!   skew, and node-count goals. Each policy latches through a
//!   [`Hysteresis`] band (enter above, exit below, sustain windows) and
//!   each action family spends a shared cooldown — scale-up and
//!   scale-down draw from the same one, so opposing plans within a
//!   cooldown window are impossible by construction.
//! * **act** — a firing policy emits a validated
//!   [`placement::MigrationPlan`] (`AddCapacity`, `Decommission`,
//!   `RebalanceHot`, cross-group `BalanceGroups`) for the caller to
//!   drive through `placement::Migration` — batch-by-batch inside chaos
//!   delivery rounds, where migration traffic contends with foreground
//!   WAN bytes.
//!
//! Every decision is a typed [`obs::SpanKind::Control`] trace event
//! plus `ctrl.*` counters and per-DC gauges, surfaced through
//! `DirectLoad::introspect()`, the telemetry frame's controller
//! section, and `directload-top`. The whole loop is pure over its
//! inputs: same-seed runs replay the decision timeline byte-identically
//! — which is how the chaos example proves the controller keeps p99
//! bounded under a storm with zero invariant violations.

mod controller;
mod model;
mod policy;

pub use controller::{Controller, Decision};
pub use model::{ModelObservation, ServeModel};
pub use policy::{ActionFamily, Hysteresis, PolicyConfig, Signals};
