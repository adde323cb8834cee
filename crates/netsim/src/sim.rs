//! The event loop and max-min fair rate allocation.

use crate::topology::{LinkId, Topology};
use simclock::{SimClock, SimTime};
use std::collections::BinaryHeap;

/// Identifier of a flow (transfer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// Progress of a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowStatus {
    /// Scheduled but not yet started.
    Pending,
    /// Transferring; the payload is the bytes still to move.
    Active(f64),
    /// Finished at the contained time.
    Done(SimTime),
}

#[derive(Debug)]
struct Flow {
    path: Vec<LinkId>,
    remaining: f64,
    start_at: SimTime,
    status: FlowStatus,
}

#[derive(Debug, PartialEq, Eq)]
enum EventKind {
    FlowStart(FlowId),
    CapacityChange(LinkId, u64 /* bytes/sec, fixed-point *1 */),
}

#[derive(Debug, PartialEq, Eq)]
struct Event {
    at: SimTime,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulator: a topology, scheduled events, and active flows.
pub struct NetSim {
    topo: Topology,
    clock: SimClock,
    flows: Vec<Flow>,
    events: BinaryHeap<Event>,
    seq: u64,
}

impl NetSim {
    /// Creates a simulator over `topo`, charging time to `clock`.
    pub fn new(topo: Topology, clock: SimClock) -> Self {
        NetSim {
            topo,
            clock,
            flows: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// The topology (capacities are mutable through scheduled changes).
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The clock this simulator advances.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Schedules a transfer of `bytes` along `path`, starting at `at`.
    ///
    /// # Panics
    /// Panics on an empty path or non-positive byte count.
    pub fn schedule_flow(&mut self, at: SimTime, path: Vec<LinkId>, bytes: u64) -> FlowId {
        assert!(!path.is_empty(), "flow needs at least one link");
        assert!(bytes > 0, "flow needs a positive size");
        let id = FlowId(self.flows.len() as u64);
        self.flows.push(Flow {
            path,
            remaining: bytes as f64,
            start_at: at,
            status: FlowStatus::Pending,
        });
        self.push_event(at, EventKind::FlowStart(id));
        id
    }

    /// Schedules a capacity change of `link` at `at` (background traffic
    /// rising or falling). Zero capacity is allowed and models an outage:
    /// flows crossing the link stall until capacity returns.
    pub fn schedule_capacity_change(&mut self, at: SimTime, link: LinkId, bytes_per_sec: f64) {
        assert!(bytes_per_sec.is_finite() && bytes_per_sec >= 0.0);
        self.push_event(at, EventKind::CapacityChange(link, bytes_per_sec as u64));
    }

    fn push_event(&mut self, at: SimTime, kind: EventKind) {
        self.events.push(Event {
            at,
            seq: self.seq,
            kind,
        });
        self.seq += 1;
    }

    /// Current status of a flow.
    pub fn status(&self, id: FlowId) -> FlowStatus {
        self.flows[id.0 as usize].status
    }

    /// Completion time of a flow, if it finished.
    pub fn completion(&self, id: FlowId) -> Option<SimTime> {
        match self.flows[id.0 as usize].status {
            FlowStatus::Done(t) => Some(t),
            _ => None,
        }
    }

    /// Time a flow spent from its scheduled start to completion.
    pub fn transfer_time(&self, id: FlowId) -> Option<SimTime> {
        let flow = &self.flows[id.0 as usize];
        self.completion(id)
            .map(|done| done.saturating_sub(flow.start_at))
    }

    /// Runs the simulation until all scheduled flows have completed — or
    /// until every remaining flow is stalled on a zero-capacity link with
    /// no scheduled event left to revive it, in which case it returns with
    /// those flows still `Active` (an observable stall).
    /// Advances the shared clock to the last completion.
    pub fn run_until_idle(&mut self) {
        loop {
            let active: Vec<usize> = self
                .flows
                .iter()
                .enumerate()
                .filter(|(_, f)| matches!(f.status, FlowStatus::Active(_)))
                .map(|(i, _)| i)
                .collect();
            let next_event_at = self.events.peek().map(|e| e.at);
            if active.is_empty() {
                // Jump straight to the next event, if any.
                let Some(at) = next_event_at else { return };
                self.clock.advance_to(at);
                self.dispatch_due_events();
                continue;
            }
            let rates = self.max_min_rates(&active);
            // Earliest completion among active flows at current rates.
            let now = self.clock.now();
            let mut best: Option<(SimTime, usize)> = None;
            for (&idx, &rate) in active.iter().zip(rates.iter()) {
                if rate <= 0.0 {
                    // Stalled on a down link: no completion to predict.
                    continue;
                }
                let secs = self.flows[idx].remaining / rate;
                let done_at = now + SimTime::from_nanos((secs * 1e9).ceil() as u64);
                if best.is_none_or(|(t, _)| done_at < t) {
                    best = Some((done_at, idx));
                }
            }
            // The next thing to happen: a completion or a scheduled event.
            let horizon = match (best, next_event_at) {
                (Some((t, _)), Some(at)) if at < t => at,
                (Some((t, _)), _) => t,
                // Everything is stalled; jump to the next event, which may
                // restore capacity.
                (None, Some(at)) => at,
                // Everything is stalled and nothing is scheduled to change
                // that: stop, leaving the stalled flows Active.
                (None, None) => return,
            };
            let elapsed = horizon.saturating_sub(now).as_nanos() as f64 / 1e9;
            for (&idx, &rate) in active.iter().zip(rates.iter()) {
                self.flows[idx].remaining -= rate * elapsed;
                self.flows[idx].status = FlowStatus::Active(self.flows[idx].remaining.max(0.0));
            }
            self.clock.advance_to(horizon);
            if let Some((complete_at, complete_idx)) = best {
                if horizon == complete_at {
                    let flow = &mut self.flows[complete_idx];
                    flow.remaining = 0.0;
                    flow.status = FlowStatus::Done(horizon);
                }
            }
            self.dispatch_due_events();
        }
    }

    fn dispatch_due_events(&mut self) {
        let now = self.clock.now();
        while let Some(e) = self.events.peek() {
            if e.at > now {
                break;
            }
            let e = self.events.pop().expect("peeked");
            match e.kind {
                EventKind::FlowStart(id) => {
                    let flow = &mut self.flows[id.0 as usize];
                    if matches!(flow.status, FlowStatus::Pending) {
                        flow.status = FlowStatus::Active(flow.remaining);
                    }
                }
                EventKind::CapacityChange(link, bps) => {
                    self.topo.set_capacity(link, bps as f64);
                }
            }
        }
    }

    /// Max-min fair allocation (progressive filling) for the given active
    /// flow indices. Returns one rate per flow, in the same order.
    fn max_min_rates(&self, active: &[usize]) -> Vec<f64> {
        let nlinks = self.topo.len();
        let mut residual: Vec<f64> = (0..nlinks)
            .map(|l| self.topo.capacity(LinkId(l as u32)))
            .collect();
        let mut unfrozen_on_link = vec![0usize; nlinks];
        for &idx in active {
            for &LinkId(l) in &self.flows[idx].path {
                unfrozen_on_link[l as usize] += 1;
            }
        }
        let mut rate = vec![0.0f64; active.len()];
        let mut frozen = vec![false; active.len()];
        let mut remaining = active.len();
        while remaining > 0 {
            // The bottleneck link: smallest fair share among used links.
            let mut bottleneck: Option<(f64, usize)> = None;
            for (l, &n) in unfrozen_on_link.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                let share = residual[l] / n as f64;
                if bottleneck.is_none_or(|(s, _)| share < s) {
                    bottleneck = Some((share, l));
                }
            }
            let Some((share, bl)) = bottleneck else { break };
            // Freeze every unfrozen flow crossing the bottleneck at the
            // fair share; deduct their rate from every link they use.
            for (ai, &idx) in active.iter().enumerate() {
                if frozen[ai] {
                    continue;
                }
                if !self.flows[idx]
                    .path
                    .iter()
                    .any(|&LinkId(l)| l as usize == bl)
                {
                    continue;
                }
                frozen[ai] = true;
                remaining -= 1;
                rate[ai] = share;
                for &LinkId(l) in &self.flows[idx].path {
                    residual[l as usize] -= share;
                    unfrozen_on_link[l as usize] -= 1;
                }
            }
            // Guard against FP drift leaving tiny negative residuals.
            residual.iter_mut().for_each(|r| *r = r.max(0.0));
        }
        rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbps(n: f64) -> f64 {
        n * 1024.0 * 1024.0
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let f = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(10.0) * 8.0) as u64);
        sim.run_until_idle();
        let t = sim.transfer_time(f).unwrap();
        assert!((secs(t) - 8.0).abs() < 0.01, "took {}s", secs(t));
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let bytes = (mbps(10.0) * 4.0) as u64; // 4s alone, 8s when shared
        let a = sim.schedule_flow(SimTime::ZERO, vec![l], bytes);
        let b = sim.schedule_flow(SimTime::ZERO, vec![l], bytes);
        sim.run_until_idle();
        assert!((secs(sim.transfer_time(a).unwrap()) - 8.0).abs() < 0.01);
        assert!((secs(sim.transfer_time(b).unwrap()) - 8.0).abs() < 0.01);
    }

    #[test]
    fn late_flow_speeds_up_after_first_completes() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        // A: 4s of data; B starts at t=0 too with 6s of data.
        // Shared until A finishes at t=8 (each at 5 MB/s, A needs 40MB).
        // Then B alone: B moved 40MB by t=8, 20MB left at 10MB/s → t=10.
        let a = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(40.0)) as u64);
        let b = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(60.0)) as u64);
        sim.run_until_idle();
        assert!((secs(sim.completion(a).unwrap()) - 8.0).abs() < 0.01);
        assert!((secs(sim.completion(b).unwrap()) - 10.0).abs() < 0.01);
    }

    #[test]
    fn multi_link_path_is_limited_by_bottleneck() {
        let mut topo = Topology::new();
        let fast = topo.add_link(mbps(100.0));
        let slow = topo.add_link(mbps(5.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let f = sim.schedule_flow(SimTime::ZERO, vec![fast, slow], (mbps(5.0) * 10.0) as u64);
        sim.run_until_idle();
        assert!((secs(sim.transfer_time(f).unwrap()) - 10.0).abs() < 0.01);
    }

    #[test]
    fn disjoint_flows_do_not_interact() {
        let mut topo = Topology::new();
        let l1 = topo.add_link(mbps(10.0));
        let l2 = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let a = sim.schedule_flow(SimTime::ZERO, vec![l1], (mbps(10.0) * 3.0) as u64);
        let b = sim.schedule_flow(SimTime::ZERO, vec![l2], (mbps(10.0) * 3.0) as u64);
        sim.run_until_idle();
        assert!((secs(sim.transfer_time(a).unwrap()) - 3.0).abs() < 0.01);
        assert!((secs(sim.transfer_time(b).unwrap()) - 3.0).abs() < 0.01);
    }

    #[test]
    fn delayed_start_is_honored() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let f = sim.schedule_flow(SimTime::from_secs(5), vec![l], (mbps(10.0)) as u64);
        sim.run_until_idle();
        assert!((secs(sim.completion(f).unwrap()) - 6.0).abs() < 0.01);
        assert!((secs(sim.transfer_time(f).unwrap()) - 1.0).abs() < 0.01);
    }

    #[test]
    fn capacity_change_midway_slows_flow() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        // 100 MB at 10 MB/s would take 10s; capacity halves at t=5, so the
        // remaining 50 MB takes 10s more → total 15s.
        let f = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(100.0)) as u64);
        sim.schedule_capacity_change(SimTime::from_secs(5), l, mbps(5.0));
        sim.run_until_idle();
        assert!(
            (secs(sim.completion(f).unwrap()) - 15.0).abs() < 0.05,
            "took {}s",
            secs(sim.completion(f).unwrap())
        );
    }

    #[test]
    fn max_min_gives_unbottlenecked_flow_the_slack() {
        // Flow A uses link1 (cap 10) only; flow B uses link1+link2 where
        // link2 caps it at 2. Max-min: B gets 2, A gets 8.
        let mut topo = Topology::new();
        let l1 = topo.add_link(10.0);
        let l2 = topo.add_link(2.0);
        let mut sim = NetSim::new(topo, SimClock::new());
        let a = sim.schedule_flow(SimTime::ZERO, vec![l1], 80);
        let b = sim.schedule_flow(SimTime::ZERO, vec![l1, l2], 20);
        sim.run_until_idle();
        // Both finish at t=10 exactly under max-min.
        assert!((secs(sim.completion(a).unwrap()) - 10.0).abs() < 0.01);
        assert!((secs(sim.completion(b).unwrap()) - 10.0).abs() < 0.01);
    }

    #[test]
    fn flow_stalls_on_outage_and_resumes_on_repair() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        // 100 MB at 10 MB/s takes 10s alone. The link goes down at t=2
        // (20 MB moved) and comes back at t=7, so the remaining 80 MB
        // finishes at t = 7 + 8 = 15.
        let f = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(100.0)) as u64);
        sim.schedule_capacity_change(SimTime::from_secs(2), l, 0.0);
        sim.schedule_capacity_change(SimTime::from_secs(7), l, mbps(10.0));
        sim.run_until_idle();
        let done = secs(sim.completion(f).unwrap());
        assert!((done - 15.0).abs() < 0.05, "took {done}s");
    }

    #[test]
    fn flow_stalled_with_no_repair_stays_active() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        let f = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(100.0)) as u64);
        sim.schedule_capacity_change(SimTime::from_secs(2), l, 0.0);
        sim.run_until_idle();
        // The simulator stops at the stall rather than spinning: the flow
        // is still Active with ~80 MB left and the clock sits at t=2.
        match sim.status(f) {
            FlowStatus::Active(left) => {
                assert!((left - mbps(80.0)).abs() < mbps(0.5), "left {left}")
            }
            other => panic!("expected stalled Active flow, got {other:?}"),
        }
        assert!((secs(sim.clock().now()) - 2.0).abs() < 0.01);
        // Repairing the link and re-running completes the transfer.
        sim.schedule_capacity_change(sim.clock().now(), l, mbps(10.0));
        sim.run_until_idle();
        assert!(matches!(sim.status(f), FlowStatus::Done(_)));
    }

    #[test]
    fn degraded_link_slows_flow_proportionally() {
        let mut topo = Topology::new();
        let l = topo.add_link(mbps(10.0));
        let mut sim = NetSim::new(topo, SimClock::new());
        // 50 MB: 2s at full rate moves 20 MB, then the link degrades to
        // 25% (2.5 MB/s); the remaining 30 MB takes 12s more → t=14.
        let f = sim.schedule_flow(SimTime::ZERO, vec![l], (mbps(50.0)) as u64);
        sim.schedule_capacity_change(SimTime::from_secs(2), l, mbps(10.0) * 0.25);
        sim.run_until_idle();
        let done = secs(sim.completion(f).unwrap());
        assert!((done - 14.0).abs() < 0.05, "took {done}s");
    }

    #[test]
    fn status_transitions() {
        let mut topo = Topology::new();
        let l = topo.add_link(10.0);
        let mut sim = NetSim::new(topo, SimClock::new());
        let f = sim.schedule_flow(SimTime::from_secs(1), vec![l], 10);
        assert_eq!(sim.status(f), FlowStatus::Pending);
        assert_eq!(sim.completion(f), None);
        sim.run_until_idle();
        assert!(matches!(sim.status(f), FlowStatus::Done(_)));
    }
}
