//! The serving model: deterministic load-dependent latency.
//!
//! The wall-clock serve front-end deliberately models fixed service
//! times, so its histogram cannot respond to placement actions — and a
//! controller proven against it would prove nothing. This model closes
//! that gap the way *Performance Modeling of Data Storage Systems using
//! Generative Models* (PAPERS.md) closes it for real fleets: latency is
//! generated from measured structure — per-group offered load against
//! per-group serving capacity — instead of measured wall time. Each
//! group behaves as an M/M/1 station: sojourn time grows as
//! `service/(1-ρ)` with utilization ρ, clamped near saturation, with a
//! small seeded jitter for histogram shape. Everything is a pure
//! function of `(load report, offered load, round)`, so two same-seed
//! control loops observe byte-identical latency signals.

use obs::LatencyHistogram;
use placement::LoadReport;

/// Per-request service time at an idle replica, microseconds.
const SERVICE_US: u64 = 2_000;

/// Sustained per-node serving capacity, requests per second.
const NODE_CAPACITY_QPS: u64 = 400;

/// Storage bytes a modeled request reads — what one offered request
/// contributes to a group's observed read heat.
const BYTES_PER_REQUEST: u64 = 64 * 1024;

/// Latency samples synthesized per group per round.
const SAMPLES_PER_GROUP: u32 = 32;

/// What one modeled round observed.
#[derive(Debug, Clone)]
pub struct ModelObservation {
    /// The round's synthesized latency histogram (also folded into the
    /// load report as `read_latency_us`).
    pub hist: LatencyHistogram,
    /// p99 of the histogram, microseconds — the pressure signal.
    pub p99_us: u64,
    /// The most utilized group's utilization, permille.
    pub peak_utilization_pm: u64,
}

/// Deterministic queueing model of the serving tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeModel;

/// Utilization above this clamps to the saturated service time — the
/// model's stand-in for a queue that never drains.
const UTILIZATION_CLAMP_PM: u64 = 950;

impl ServeModel {
    /// The serving tier's model.
    pub fn new() -> ServeModel {
        ServeModel
    }

    /// The model's latency for a group running at `utilization_pm`
    /// permille: M/M/1 sojourn `service/(1-ρ)`, clamped at
    /// [`UTILIZATION_CLAMP_PM`].
    pub fn latency_us(&self, utilization_pm: u64) -> u64 {
        let pm = utilization_pm.min(UTILIZATION_CLAMP_PM);
        SERVICE_US * 1000 / (1000 - pm)
    }

    /// Observes one control round: folds `offered_qps[g]` against each
    /// group's live capacity into a latency histogram, writes the
    /// offered load into the report as read heat, and attaches the
    /// round's `[p50, p99]` to the report. Pure in `(load, offered_qps,
    /// round)`.
    pub fn observe(
        &self,
        load: &mut LoadReport,
        offered_qps: &[u64],
        round: u32,
    ) -> ModelObservation {
        let mut hist = LatencyHistogram::new();
        let mut peak = 0u64;
        for (g, group) in load.groups.iter_mut().enumerate() {
            let offered = offered_qps.get(g).copied().unwrap_or(0);
            group.read_heat = offered.saturating_mul(BYTES_PER_REQUEST);
            let capacity = NODE_CAPACITY_QPS.saturating_mul(group.alive as u64);
            // No live replica means every request queues forever; clamp.
            let utilization_pm = offered
                .saturating_mul(1000)
                .checked_div(capacity)
                .unwrap_or(10_000);
            peak = peak.max(utilization_pm);
            let lat = self.latency_us(utilization_pm);
            let mut x = seed(round, g as u64);
            for _ in 0..SAMPLES_PER_GROUP {
                // ±10% multiplicative jitter, deterministic per
                // (round, group, sample).
                x = step(x);
                let jitter_pm = 900 + x % 201;
                hist.record(lat.saturating_mul(jitter_pm) / 1000);
            }
        }
        load.attach_read_latency(&hist);
        ModelObservation {
            p99_us: hist.p99(),
            peak_utilization_pm: peak,
            hist,
        }
    }
}

fn seed(round: u32, group: u64) -> u64 {
    0x9E37_79B9_7F4A_7C15u64 ^ ((round as u64) << 32) ^ group
}

fn step(mut x: u64) -> u64 {
    // xorshift64* — same family the chaos schedule generator uses.
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mint::{Mint, MintConfig};

    fn report() -> LoadReport {
        LoadReport::snapshot(&Mint::new(MintConfig::tiny()))
    }

    #[test]
    fn latency_grows_with_utilization_and_clamps() {
        let m = ServeModel::new();
        assert_eq!(m.latency_us(0), 2_000);
        assert!(m.latency_us(500) > m.latency_us(100));
        assert!(m.latency_us(900) > m.latency_us(500));
        assert_eq!(m.latency_us(2_000), m.latency_us(950), "clamped");
    }

    #[test]
    fn observation_is_deterministic_and_load_dependent() {
        let model = ServeModel::new();
        // tiny(): 2 groups x 3 nodes, capacity 1200 qps per group.
        let mut cold = report();
        let quiet = model.observe(&mut cold, &[100, 100], 3);
        let mut hot = report();
        let busy = model.observe(&mut hot, &[100, 1100], 3);
        assert!(
            busy.p99_us > quiet.p99_us,
            "p99 must respond to offered load: {} !> {}",
            busy.p99_us,
            quiet.p99_us
        );
        assert!(busy.peak_utilization_pm > quiet.peak_utilization_pm);
        // The heat signal lands on the loaded group.
        assert!(hot.groups[1].read_heat > hot.groups[0].read_heat);
        assert_eq!(hot.hottest_group(), 1);
        assert_eq!(hot.read_latency_us, Some([busy.hist.p50(), busy.p99_us]));
        // Same inputs, byte-identical observation.
        let mut again = report();
        let replay = model.observe(&mut again, &[100, 1100], 3);
        assert_eq!(replay.p99_us, busy.p99_us);
        assert_eq!(again, hot);
    }

    #[test]
    fn a_dead_group_saturates() {
        let model = ServeModel::new();
        let mut load = report();
        for g in &mut load.groups {
            g.alive = 0;
        }
        let seen = model.observe(&mut load, &[10, 10], 0);
        assert_eq!(seen.peak_utilization_pm, 10_000);
        let saturated = model.latency_us(UTILIZATION_CLAMP_PM);
        assert!(seen.p99_us >= saturated * 900 / 1000);
        assert!(seen.p99_us <= saturated * 1100 / 1000);
    }
}
