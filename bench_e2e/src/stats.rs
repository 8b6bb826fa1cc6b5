//! Order statistics over latency samples.
//!
//! Every timing the benchmark reports is a median plus the highest
//! percentile the sample supports, meaning at least [`MIN_BEYOND`] samples
//! lie beyond it. NaN samples are dropped rather than sorted, so one broken
//! clock reading cannot move a percentile.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for the tail, from the highest down.
const TAIL_CANDIDATES: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// A sorted, NaN-free sample.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    /// Sorts `values` in the IEEE total order after dropping NaNs.
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.retain(|v| !v.is_nan());
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// Number of (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile by nearest rank (`q` clamped to `[0, 1]`, a NaN `q`
    /// reads as 0); `0.0` for an empty sample.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        self.sorted[nearest_rank(q, self.sorted.len()).clamp(1, self.sorted.len()) - 1]
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest candidate percentile with at least [`MIN_BEYOND`]
    /// samples strictly above its rank, as `(q, value)`; `None` when even
    /// the median lacks that support.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.sorted.len();
        TAIL_CANDIDATES.iter().find_map(|&q| {
            let rank = nearest_rank(q, n);
            (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (q, self.quantile(q)))
        })
    }

    /// `quantile(q)` if the sample supports it (see [`Sample::tail`]),
    /// else the highest supported tail, else the maximum.
    pub fn supported_quantile(&self, q: f64) -> f64 {
        match self.tail() {
            Some((tq, tv)) if tq < q => tv,
            Some(_) => self.quantile(q),
            None => self.sorted.last().copied().unwrap_or(0.0),
        }
    }
}

/// The 1-based nearest rank of quantile `q` among `n` samples. The small
/// epsilon keeps products such as `0.999 * 10_000` from rounding up a rank.
fn nearest_rank(q: f64, n: usize) -> usize {
    (q * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Median of a handful of values (NaNs dropped; `0.0` when none remain).
pub fn median(values: &[f64]) -> f64 {
    Sample::new(values.to_vec()).p50()
}

/// Latencies of an open-loop run, timed from each request's due time.
///
/// Request `i` is due `i / rate` seconds after the schedule starts, whether
/// or not the generator managed to send it then, so a stalled generator
/// charges its stall to every request that fell due during it — the
/// coordinated-omission correction. `completed_s[i]` is when request `i`'s
/// reply arrived, in seconds since the schedule started.
pub fn open_loop_latencies_us(rate_per_s: f64, completed_s: &[f64]) -> Vec<f64> {
    completed_s.iter().enumerate().map(|(i, &done)| (done - i as f64 / rate_per_s) * 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_the_total_order_and_drop_nans() {
        let s = Sample::new(vec![3.0, f64::NAN, -0.0, 1.0, 0.0, f64::NAN, 2.0]);
        assert_eq!(s.len(), 5);
        assert_eq!(s.quantile(0.0), -0.0);
        assert!(s.quantile(0.0).is_sign_negative(), "-0.0 sorts before +0.0");
        assert_eq!(s.p50(), 1.0);
        assert_eq!(s.quantile(1.0), 3.0);
        assert_eq!(s.quantile(f64::NAN), -0.0);
        assert_eq!(s.quantile(7.0), 3.0);
        assert_eq!(Sample::new(vec![f64::NAN]).p50(), 0.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let values = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        assert_eq!(Sample::new(values(1000)).tail(), Some((0.99, 990.0)));
        // 10_000 samples: p99.9 leaves 10 beyond.
        assert_eq!(Sample::new(values(10_000)).tail(), Some((0.999, 9990.0)));
        // 999 samples: p99 leaves 9, so the tail drops to p90.
        assert_eq!(Sample::new(values(999)).tail().map(|t| t.0), Some(0.9));
        // 19 samples: p50 leaves 9 beyond — no supported tail at all.
        assert_eq!(Sample::new(values(19)).tail(), None);
        assert_eq!(Sample::new(values(20)).tail(), Some((0.5, 10.0)));
        // Unsupported requests fall back to the supported tail or the max.
        assert_eq!(Sample::new(values(1000)).supported_quantile(0.999), 990.0);
        assert_eq!(Sample::new(values(10_000)).supported_quantile(0.99), 9900.0);
        assert_eq!(Sample::new(values(5)).supported_quantile(0.99), 5.0);
    }

    #[test]
    fn a_stalled_generator_is_charged_to_every_later_request() {
        // 1000 req/s: request i is due at i ms. Each reply takes 50 µs, but
        // the generator stalls for 5 ms before sending request 2, then sends
        // the backlog immediately.
        let rate = 1000.0;
        let mut completed = Vec::new();
        for i in 0..10 {
            let sent = if i < 2 { i as f64 * 1e-3 } else { (i as f64 * 1e-3).max(6e-3) };
            completed.push(sent + 50e-6);
        }
        let lat = open_loop_latencies_us(rate, &completed);
        assert!((lat[0] - 50.0).abs() < 1e-6 && (lat[1] - 50.0).abs() < 1e-6);
        // Requests 2..=5 fell due during the stall: each waited from its
        // own due time until the generator resumed at 6 ms.
        for (i, &l) in lat.iter().enumerate().take(6).skip(2) {
            let expected = (6e-3 - i as f64 * 1e-3) * 1e6 + 50.0;
            assert!((l - expected).abs() < 1e-6, "request {i}: {l} vs {expected}");
        }
        // Timing from the send instead would hide the stall entirely.
        assert!(lat[2] > 3_000.0);
        assert!((lat[7] - 50.0).abs() < 1e-6, "requests due after the stall are unaffected");
    }
}
