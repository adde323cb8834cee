//! Series statistics used when regenerating the paper's figures.
//!
//! Figure 6 reports the standard deviation of a per-minute throughput
//! series; the §5 RUM profile reports p99 / p99.9 read latency. These
//! helpers compute exactly those quantities.

use crate::SimTime;

/// Summary statistics over a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesStats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation (the paper reports population stddev
    /// over the full run).
    pub stddev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl SeriesStats {
    /// Computes statistics over `samples`. Returns `None` for an empty set.
    pub fn compute(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
        }
        Some(SeriesStats {
            count: samples.len(),
            mean,
            stddev: var.sqrt(),
            min,
            max,
        })
    }
}

/// Returns the `q`-quantile (0.0 ≤ q ≤ 1.0) of `samples` using the
/// nearest-rank method, matching how production latency percentiles are
/// typically reported. The input does not need to be sorted.
///
/// Returns `None` for an empty slice; panics if `q` is outside `[0, 1]`.
pub fn percentile(samples: &[SimTime], q: f64) -> Option<SimTime> {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_constant_series() {
        let s = SeriesStats::compute(&[2.0, 2.0, 2.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 2.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn stats_of_known_series() {
        // Population stddev of [1,2,3,4] is sqrt(1.25).
        let s = SeriesStats::compute(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.stddev - 1.25f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_is_none() {
        assert!(SeriesStats::compute(&[]).is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<SimTime> = (1..=100).map(SimTime::from_micros).collect();
        assert_eq!(percentile(&samples, 0.99), Some(SimTime::from_micros(99)));
        assert_eq!(percentile(&samples, 0.999), Some(SimTime::from_micros(100)));
        assert_eq!(percentile(&samples, 0.5), Some(SimTime::from_micros(50)));
        assert_eq!(percentile(&samples, 0.0), Some(SimTime::from_micros(1)));
        assert_eq!(percentile(&samples, 1.0), Some(SimTime::from_micros(100)));
    }

    #[test]
    fn percentile_empty() {
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile(&[SimTime::ZERO], 1.5);
    }
}
