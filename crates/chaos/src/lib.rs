//! Deterministic cross-layer fault injection for the DirectLoad
//! pipeline.
//!
//! The crate has three pieces:
//!
//! - [`Schedule`] — a timeline of typed [`FaultKind`] events pinned to
//!   pipeline rounds, and its length in rounds: either authored
//!   explicitly (an event past the declared length is refused) or
//!   generated from a seed, a length and a churn rate
//!   ([`ScheduleConfig`]) against the demo deployment's fixed shape and
//!   fault rates. Generation is pure: the same seed always yields a
//!   byte-identical schedule, and the generator only emits *valid*
//!   storms (group quorum preserved, no double-crashes, no media faults
//!   on a node whose recovery is pending).
//! - [`Orchestrator`] — runs a schedule for its length, interleaving its
//!   events with real update rounds of a [`directload::DirectLoad`]
//!   deployment, applying each fault through the owning layer's
//!   injection hook (Mint node fail/recover, NetSim link capacity
//!   events, Bifrost corruption bursts, SSD media-fault injection) and
//!   emitting every fault and repair as an [`obs`] trace event, a
//!   `chaos.*` counter, and a line in a deterministic timeline. An
//!   event addressed to a DC, node or link the deployment lacks is a
//!   `schedule_valid` violation, not a panic.
//! - [`InvariantChecker`] — a Jepsen-lite end-to-end checker run after
//!   every round: no acked write lost, alive replicas converge to
//!   identical version chains, recovered nodes never serve stale
//!   chains, every missed-deadline slice is accounted for in the
//!   metrics export, and firmware counters stay monotonic.
//!
//! A storm passes when [`ChaosReport::violations`] is empty; two runs
//! with the same seed must produce byte-identical
//! [`ChaosReport::timeline`]s.

mod invariant;
mod orchestrator;
mod schedule;

pub use invariant::{InvariantChecker, Violation};
pub use orchestrator::{Actuator, ActuatorPlan, ChaosReport, Orchestrator};
pub use schedule::{EventPastEnd, FaultEvent, FaultKind, Schedule, ScheduleConfig};
