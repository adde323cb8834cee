//! Series statistics used when regenerating the paper's figures.
//!
//! Figure 6 reports the standard deviation of a per-minute throughput
//! series; Figure 8 reports average / p99 / p99.9 latency. These helpers
//! compute exactly those quantities.

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

/// A time-bucketed series: samples are accumulated into fixed-width time
/// buckets, producing e.g. the "MB written per minute" curves in Figures 5–7.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimTime,
    buckets: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    /// Panics if `bucket` is zero.
    pub fn new(bucket: SimTime) -> Self {
        assert!(bucket > SimTime::ZERO, "bucket width must be positive");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Adds `amount` at instant `t`.
    pub fn record(&mut self, t: SimTime, amount: f64) {
        let idx = (t.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Per-bucket totals (index 0 is `[0, bucket)`).
    pub fn totals(&self) -> &[f64] {
        &self.buckets
    }

    /// Per-bucket rate in `amount / second`, e.g. MB/s when amounts are MB.
    pub fn rates_per_sec(&self) -> Vec<f64> {
        let secs = self.bucket.as_secs_f64();
        self.buckets.iter().map(|b| b / secs).collect()
    }

    /// Running cumulative totals, e.g. the storage-occupation curve of
    /// Figure 7.
    pub fn cumulative(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.buckets
            .iter()
            .map(|b| {
                acc += b;
                acc
            })
            .collect()
    }
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

    #[test]
    fn timeseries_buckets_and_rates() {
        let mut ts = TimeSeries::new(SimTime::from_secs(60));
        ts.record(SimTime::from_secs(10), 6.0);
        ts.record(SimTime::from_secs(59), 6.0);
        ts.record(SimTime::from_secs(61), 12.0);
        ts.record(SimTime::from_secs(200), 3.0);
        assert_eq!(ts.totals(), &[12.0, 12.0, 0.0, 3.0]);
        let rates = ts.rates_per_sec();
        assert!((rates[0] - 0.2).abs() < 1e-12);
        assert!((rates[1] - 0.2).abs() < 1e-12);
        assert_eq!(rates[2], 0.0);
        assert_eq!(ts.cumulative(), vec![12.0, 24.0, 24.0, 27.0]);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn timeseries_rejects_zero_bucket() {
        let _ = TimeSeries::new(SimTime::ZERO);
    }
}
