//! One observer per component: its sim ring, the wall ring and the WAN
//! ledger behind one value.
//!
//! A traced layer (bifrost, the pipeline, a Mint cluster, a QinDB
//! engine, its device) records on up to three sinks: the *sim ring*,
//! stamped on the component's own [`SimClock`] (simulated WAN and flash
//! time, the paper's quantities); the *wall ring*, one shared epoch of
//! host time (what the code costs); and the [`WanLedger`]. A [`Scope`]
//! holds the three, each optional, under the component's label, so a
//! phase is recorded with one call — [`Scope::phase`] opens the span on
//! every ring the scope has, and one [`Phase::set_amount`] fills both.
//!
//! A parent hands a part its observer through one derivation,
//! [`Scope::child`]: the label gains a path segment (`dc0.0/n3`) and the
//! sim half is re-bound to the part's clock, while the wall ring and the
//! ledger stay shared — the wall epoch is what lets spans from every
//! layer nest in one phase-time profile.
//!
//! What reaches which ring: a phase reaches both unless it names its
//! rings ([`Scope::phase_on`]); a request's span reaches the wall ring
//! alone and only for a traced request ([`Scope::request`]); an
//! instantaneous event ([`Scope::event`]) reaches the sim ring untraced,
//! and the wall ring only as a step of a traced request — an instant
//! carries no wall time to attribute.

use crate::trace::{SpanGuard, SpanKind, TraceSink};
use crate::wan::{TrafficClass, WanLedger};
use simclock::SimClock;
use std::sync::Arc;

/// The rings a [`Scope::phase_on`] span reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rings {
    /// The sim ring only.
    Sim,
    /// The wall ring only.
    Wall,
    /// Both rings.
    Both,
}

/// A component's observer: sim ring, wall ring and WAN ledger, each
/// optional, under one label. Cheap to clone (shared handles).
#[derive(Debug, Clone, Default)]
pub struct Scope {
    sim: Option<TraceSink>,
    wall: Option<TraceSink>,
    wan: Option<WanLedger>,
    label: Arc<str>,
}

impl Scope {
    /// Records on `sink` as the sim ring, as bound (re-bind it to the
    /// component's clock first), and names the component `label`.
    pub fn set_sim(&mut self, sink: &TraceSink, label: &str) {
        self.sim = Some(sink.clone());
        self.label = label.into();
    }

    /// Records on `sink` as the wall ring and names the component `label`.
    pub fn set_wall(&mut self, sink: &TraceSink, label: &str) {
        self.wall = Some(sink.clone());
        self.label = label.into();
    }

    /// Charges `ledger` and names the component `label`.
    pub fn set_wan(&mut self, ledger: &WanLedger, label: &str) {
        self.wan = Some(ledger.clone());
        self.label = label.into();
    }

    /// The scope of a part named `name`: label `<label>/<name>`, the sim
    /// half re-bound to `clock` when one is given, the wall ring and the
    /// ledger shared.
    pub fn child(&self, name: &str, clock: Option<&SimClock>) -> Scope {
        let rebind = |s: &TraceSink| clock.map_or_else(|| s.clone(), |c| s.with_clock(c.clone()));
        Scope {
            sim: self.sim.as_ref().map(rebind),
            label: format!("{}/{name}", self.label).into(),
            ..self.clone()
        }
    }

    /// The component's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Opens a `kind` span on both rings.
    pub fn phase(&self, kind: SpanKind) -> Phase<'_> {
        self.phase_on(Rings::Both, kind)
    }

    /// Opens a `kind` span on `rings`, such of them as the scope has.
    pub fn phase_on(&self, rings: Rings, kind: SpanKind) -> Phase<'_> {
        let sim = self.sim.as_ref().filter(|_| rings != Rings::Wall);
        let wall = self.wall.as_ref().filter(|_| rings != Rings::Sim);
        Phase([sim, wall].map(|ring| ring.map(|r| r.span(kind, &self.label))))
    }

    /// Opens a `kind` span of request `trace_id` on the wall ring; an
    /// untraced request (id 0) records nothing.
    pub fn request(&self, kind: SpanKind, trace_id: u64) -> Phase<'_> {
        let wall = self.wall.as_ref().filter(|_| trace_id != 0);
        let span = wall.map(|w| w.span_traced(kind, &self.label, trace_id));
        Phase([None, span])
    }

    /// Records an instantaneous event: untraced on the sim ring, and on
    /// the wall ring when it is a step of traced request `trace_id`.
    pub fn event(&self, kind: SpanKind, amount: u64, trace_id: u64) {
        if let Some(sim) = &self.sim {
            sim.event(kind, &self.label, amount);
        }
        if let Some(wall) = self.wall.as_ref().filter(|_| trace_id != 0) {
            wall.event_traced(kind, &self.label, amount, trace_id);
        }
    }

    /// Charges `bytes` of `class` traffic to `dc` (and `link`) on the
    /// ledger, if the scope has one.
    pub fn charge(&self, class: TrafficClass, dc: &str, link: Option<u32>, bytes: u64) {
        if let Some(wan) = &self.wan {
            wan.charge(class, dc, link, bytes);
        }
    }
}

/// One phase open on up to two rings; each span records itself when the
/// phase drops.
#[must_use = "a phase records when it drops"]
pub struct Phase<'a>([Option<SpanGuard<'a>>; 2]);

impl Phase<'_> {
    /// Sets the payload amount on every ring the phase reached.
    pub fn set_amount(&mut self, n: u64) {
        for span in self.0.iter_mut().flatten() {
            span.set_amount(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simclock::SimTime;

    fn rings() -> (SimClock, TraceSink, TraceSink, Scope) {
        let clock = SimClock::new();
        let sim = TraceSink::sim(64, clock.clone());
        let wall = TraceSink::wall(64);
        let mut scope = Scope::default();
        scope.set_sim(&sim, "dc0");
        scope.set_wall(&wall, "dc0");
        (clock, sim, wall, scope)
    }

    #[test]
    fn a_phase_is_one_record_per_ring_with_one_amount() {
        let (clock, sim, wall, scope) = rings();
        {
            let mut phase = scope.phase(SpanKind::Flush);
            clock.advance(SimTime::from_micros(3));
            phase.set_amount(7);
        }
        drop(scope.phase_on(Rings::Wall, SpanKind::Load));
        drop(scope.phase_on(Rings::Sim, SpanKind::WalReplay));
        let kinds = |ring: &TraceSink| -> Vec<(SpanKind, u64)> {
            ring.snapshot().iter().map(|e| (e.kind, e.amount)).collect()
        };
        assert_eq!(
            kinds(&sim),
            [(SpanKind::Flush, 7), (SpanKind::WalReplay, 0)]
        );
        assert_eq!(kinds(&wall), [(SpanKind::Flush, 7), (SpanKind::Load, 0)]);
        assert_eq!(sim.snapshot()[0].duration_ns(), 3_000);
        assert!(sim.snapshot().iter().all(|e| e.label == "dc0"));
    }

    #[test]
    fn requests_and_events_reach_the_wall_ring_only_when_traced() {
        let (_, sim, wall, scope) = rings();
        drop(scope.request(SpanKind::Get, 0));
        drop(scope.request(SpanKind::Get, 9));
        scope.event(SpanKind::Traceback, 2, 0);
        scope.event(SpanKind::Traceback, 3, 9);
        let sim = sim.snapshot();
        assert_eq!(sim.len(), 2);
        assert!(sim
            .iter()
            .all(|e| e.kind == SpanKind::Traceback && e.trace_id == 0));
        let wall = wall.snapshot();
        assert_eq!(wall.len(), 2);
        assert!(wall.iter().all(|e| e.trace_id == 9));
    }

    #[test]
    fn a_child_rebinds_its_sim_half_and_shares_the_rest() {
        let (_, sim, wall, mut scope) = rings();
        let ledger = WanLedger::new();
        scope.set_wan(&ledger, "dc0");
        let node_clock = SimClock::new();
        node_clock.advance(SimTime::from_secs(5));
        let node = scope.child("n3", Some(&node_clock));
        assert_eq!(node.label(), "dc0/n3");
        drop(node.phase(SpanKind::Checkpoint));
        node.charge(TrafficClass::WalCatchup, node.label(), None, 11);
        assert_eq!(sim.snapshot()[0].start_ns, 5_000_000_000);
        assert_eq!(wall.snapshot()[0].label, "dc0/n3");
        assert_eq!(ledger.dc_rows()[0].dc, "dc0/n3");
        // Without a clock the child keeps the parent's time source.
        drop(
            scope
                .child("n3", None)
                .phase_on(Rings::Sim, SpanKind::WalReplay),
        );
        assert_eq!(sim.snapshot()[1].start_ns, 0);
    }

    #[test]
    fn an_empty_scope_records_nothing() {
        let scope = Scope::default();
        let mut phase = scope.phase(SpanKind::Build);
        phase.set_amount(1);
        drop(phase);
        scope.event(SpanKind::Traceback, 1, 1);
        scope.charge(TrafficClass::Foreground, "dc0.0", None, 1);
    }
}
