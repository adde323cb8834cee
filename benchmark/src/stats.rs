//! The arithmetic every reported number rests on: percentiles, the
//! sample-count rule for tail percentiles, window-median aggregation and
//! quartiles.

/// Percentiles a latency report may quote, each with the `k` for which one
/// sample in `k` lies beyond it.
const TAILS: [(f64, usize); 4] = [(0.5, 2), (0.9, 10), (0.99, 100), (0.999, 1000)];

/// The highest percentile in [`TAILS`] that still has at least ten samples
/// beyond it when `n` samples were taken (0.5 when even that fails).
pub fn highest_supported_percentile(n: usize) -> f64 {
    TAILS
        .iter()
        .filter(|(_, one_in)| n >= 10 * one_in)
        .map(|(p, _)| *p)
        .fold(0.5, f64::max)
}

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle two for an even count); 0.0
/// when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0.0 when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Element-wise minimum of several equally long series of times. Repeats
/// of identical work differ only by what disturbed them, so the fastest
/// repeat of each step is the least disturbed one. Empty when there are no
/// series.
pub fn fastest_repeat(series: &[Vec<f64>]) -> Vec<f64> {
    let Some((first, rest)) = series.split_first() else {
        return Vec::new();
    };
    let mut best = first.clone();
    for other in rest {
        for (b, v) in best.iter_mut().zip(other) {
            *b = b.min(*v);
        }
    }
    best
}

/// Latencies of one measurement window, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub latencies_ns: Vec<u64>,
}

/// Median and tail of one window, in microseconds, plus the percentile the
/// tail was read at (lower than asked when the window is too small).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSummary {
    pub p50_us: f64,
    pub tail_us: f64,
    pub tail_percentile: f64,
    pub samples: usize,
}

impl Window {
    /// Summarises the window; the tail is read at `wanted` or, when fewer
    /// than ten samples lie beyond it, at the highest supported percentile.
    pub fn summarise(&self, wanted: f64) -> WindowSummary {
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let tail_percentile = wanted.min(highest_supported_percentile(sorted.len()));
        WindowSummary {
            p50_us: percentile(&sorted, 0.5) as f64 / 1e3,
            tail_us: percentile(&sorted, tail_percentile) as f64 / 1e3,
            tail_percentile,
            samples: sorted.len(),
        }
    }
}

/// A latency metric is the median of the per-window values, so one noisy
/// window cannot move it.
pub fn window_medians(windows: &[WindowSummary]) -> (f64, f64) {
    let p50: Vec<f64> = windows.iter().map(|w| w.p50_us).collect();
    let tail: Vec<f64> = windows.iter().map(|w| w.tail_us).collect();
    (median(&p50), median(&tail))
}

/// Open-loop latency: from when the request was *due*, not when the
/// generator got round to sending it, so a generator stall is charged to
/// the requests it delayed.
pub fn latency_from_due(due_ns: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(due_ns)
}

/// A layer's self time by ladder subtraction: its rung minus the calls it
/// made into the rung below. Rungs are timed in separate passes, so noise
/// can push a small self time below zero; it is reported as measured, which
/// keeps the self times adding up to the top rung.
pub fn ladder_self(rung: f64, calls_below: f64, rung_below: f64) -> f64 {
    rung - calls_below * rung_below
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 0.5);
        assert_eq!(highest_supported_percentile(20), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1000), 0.99);
        assert_eq!(highest_supported_percentile(9_999), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn small_window_falls_back_to_supported_tail() {
        let w = Window {
            latencies_ns: (1..=200).map(|i| i * 1000).collect(),
        };
        let s = w.summarise(0.99);
        assert_eq!(s.tail_percentile, 0.9);
        assert_eq!(s.tail_us, 180.0);
        assert_eq!(s.p50_us, 100.0);
        assert_eq!(s.samples, 200);
    }

    #[test]
    fn window_median_ignores_one_noisy_window() {
        let mk = |p50_us, tail_us| WindowSummary {
            p50_us,
            tail_us,
            tail_percentile: 0.99,
            samples: 6000,
        };
        let windows = [mk(100.0, 400.0), mk(104.0, 9000.0), mk(98.0, 420.0)];
        assert_eq!(window_medians(&windows), (100.0, 420.0));
        assert_eq!(median(&[1.0, 3.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn fastest_repeat_of_each_step() {
        // Round times of three replicas: the slow spell hits another
        // replica in each round, the fastest repeat of each is kept.
        let wall = [
            vec![0.5, 0.9, 0.7],
            vec![0.8, 0.6, 0.7],
            vec![0.5, 0.6, 1.1],
        ];
        assert_eq!(fastest_repeat(&wall), vec![0.5, 0.6, 0.7]);
        assert_eq!(fastest_repeat(&wall[..1]), wall[0]);
        assert!(fastest_repeat(&[]).is_empty());
    }

    /// A generator that stalls 10 ms before request 5 sends requests 5..
    /// late; a service time of 100 us must show as ~10 ms on the stalled
    /// request when timed from due time, and as 100 us when (wrongly) timed
    /// from send time.
    #[test]
    fn due_time_latency_charges_generator_stall() {
        let interval = 1_000_000u64; // 1 ms
        let service = 100_000u64;
        let stall = 10_000_000u64;
        let mut clock = 0u64;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        for i in 0..20u64 {
            let due = i * interval;
            if i == 5 {
                clock += stall;
            }
            let send = clock.max(due);
            let done = send + service;
            clock = send;
            from_due.push(latency_from_due(due, done));
            from_send.push(done - send);
        }
        assert!(from_send.iter().all(|&l| l == service));
        assert_eq!(from_due[4], service);
        // The stall began after request 4 was sent at t=4 ms; request 5 was
        // due at 5 ms and left at 14 ms.
        assert_eq!(from_due[5], 9_000_000 + service);
        // Later requests inherit the backlog until the schedule catches up.
        assert_eq!(from_due[10], 4_000_000 + service);
        assert_eq!(from_due[14], service);
        assert_eq!(latency_from_due(10, 5), 0);
    }

    #[test]
    fn ladder_subtraction() {
        // A 200 us rung that made 3 calls of 50 us keeps 50 us for itself.
        assert_eq!(ladder_self(200.0, 3.0, 50.0), 50.0);
        // Self times along a ladder add up to the top rung.
        let rungs = [132.0, 92.5, 80.0, 0.0];
        let selfs: f64 = rungs.windows(2).map(|w| ladder_self(w[0], 1.0, w[1])).sum();
        assert_eq!(selfs, rungs[0]);
    }
}
