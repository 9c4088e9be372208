//! Order statistics over measurements.
//!
//! The host this benchmark runs on may be shared, so its speed drifts from
//! second to second. Every timing is therefore reported as a median over
//! many short samples rather than as one long measurement.

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The `q`-quantile, interpolating linearly between closest ranks.
    /// `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let last = sorted.len().checked_sub(1)?;
        let position = q.clamp(0.0, 1.0) * last as f64;
        let below = position.floor() as usize;
        let above = position.ceil() as usize;
        let fraction = position - below as f64;
        Some(sorted[below] + (sorted[above] - sorted[below]) * fraction)
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// The nearest-rank `q`-percentile of `samples` (reordered in place).
/// `None` when there are none.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    let n = samples.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n > 0).then(|| *samples.select_nth_unstable(rank - 1).1)
}

/// Items per second in each window between consecutive marks, where a mark
/// (nanoseconds from a common origin, the first one the start) is taken
/// every `window` items.
pub fn window_rates(marks_ns: &[u64], window: usize) -> Samples {
    let mut out = Samples::new();
    for pair in marks_ns.windows(2) {
        let elapsed = pair[1].saturating_sub(pair[0]);
        if elapsed > 0 {
            out.push(window as f64 * 1e9 / elapsed as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        let mut samples = Samples::new();
        for value in [4.0, 1.0, 3.0, 2.0] {
            samples.push(value);
        }
        assert_eq!(samples.median(), Some(2.5));
        assert_eq!(samples.quantile(0.0), Some(1.0));
        assert_eq!(samples.quantile(1.0), Some(4.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let mut samples: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut samples, 0.5), Some(50));
        assert_eq!(percentile(&mut samples, 0.99), Some(99));
        assert_eq!(percentile(&mut samples, 1.0), Some(100));
        assert_eq!(percentile(&mut samples, 0.0), Some(1));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn window_rates_divide_items_by_elapsed_time() {
        let rates = window_rates(&[0, 1_000_000, 3_000_000], 1000);
        assert_eq!(rates.len(), 2);
        assert_eq!(rates.quantile(1.0), Some(1_000_000.0));
        assert_eq!(rates.quantile(0.0), Some(500_000.0));
        assert_eq!(window_rates(&[5], 10).len(), 0);
    }
}
