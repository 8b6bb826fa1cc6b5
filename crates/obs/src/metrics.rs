//! The lock-cheap metrics registry: counters, gauges and log-scale
//! histograms with a deterministic JSON snapshot.
//!
//! Instruments are plain atomics — recording never takes the registry lock
//! (that lock is only held while *resolving* a name to an instrument, which
//! the [`crate::counter!`]-family macros do once per call site). Every
//! recording method first checks the global [`crate::enabled`] flag, so a
//! disabled run pays one relaxed load per call and nothing else.
//!
//! The snapshot format is documented in `docs/observability.md`; keys are
//! `BTreeMap`-sorted so two snapshots of the same state serialize to
//! byte-identical JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

/// A monotonically increasing `u64`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` (no-op while observability is disabled).
    #[inline]
    pub fn inc(&self, n: u64) {
        if crate::enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the value (no-op while observability is disabled).
    #[inline]
    pub fn set(&self, v: f64) {
        if crate::enabled() {
            self.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: one underflow bucket for values `< 1`,
/// then one per power of two, the last absorbing everything `>= 2^30`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// The bucket index a value lands in: bucket 0 holds `(-inf, 1)` (and
/// NaN), bucket `i >= 1` holds `[2^(i-1), 2^i)`, and the last bucket is
/// unbounded above.
#[inline]
pub fn bucket_index(v: f64) -> usize {
    if v < 1.0 || v.is_nan() {
        return 0;
    }
    // IEEE-754 exponent extraction: exact at bucket boundaries, where
    // `v.log2().floor()` can land on the wrong side by one ULP.
    let exp = ((v.to_bits() >> 52) & 0x7FF) as isize - 1023;
    (exp as usize + 1).min(HISTOGRAM_BUCKETS - 1)
}

/// The inclusive lower bound of bucket `i` (0 for the underflow bucket).
pub fn bucket_lower_bound(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (1u64 << (i - 1).min(62)) as f64
    }
}

/// A fixed-bucket, base-2 log-scale histogram.
///
/// # Examples
///
/// ```
/// obs::set_enabled(true);
/// let h = obs::metrics::Histogram::default();
/// h.record(3.0);
/// h.record(700.0);
/// let snap = h.snapshot();
/// assert_eq!(snap.count, 2);
/// assert_eq!(snap.sum, 703.0);
/// # obs::set_enabled(false);
/// ```
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HISTOGRAM_BUCKETS],
    sum_bits: AtomicU64,
    total: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            total: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (no-op while observability is disabled).
    #[inline]
    pub fn record(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        // CAS loop over the f64 bit pattern; contention is negligible at
        // the recording rates the workspace produces.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..HISTOGRAM_BUCKETS)
            .filter_map(|i| {
                let count = self.counts[i].load(Ordering::Relaxed);
                (count > 0).then(|| HistogramBucket { lo: bucket_lower_bound(i), count })
            })
            .collect();
        HistogramSnapshot {
            count: self.total.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// One non-empty histogram bucket in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound of the bucket (`0` for the underflow bucket;
    /// the bucket spans up to the next power of two).
    pub lo: f64,
    /// Observations that landed in the bucket.
    pub count: u64,
}

/// A serialized histogram: total count, sum, and its non-empty buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Non-empty buckets, ordered by lower bound.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean of the observed values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A point-in-time copy of every instrument in a [`Registry`].
///
/// This is the schema of the `--metrics-out` file; see
/// `docs/observability.md`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A collection of named instruments.
///
/// Most code uses the process-wide [`global`] registry through the
/// [`crate::counter!`]-family macros; tests can build private registries.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// A deterministic point-in-time copy of every instrument.
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }

    /// The snapshot serialized as JSON (see `docs/observability.md`).
    ///
    /// # Panics
    ///
    /// Panics if the registry lock is poisoned.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot()).expect("snapshot serialization")
    }
}

/// The process-wide registry used by the [`crate::counter!`]-family macros.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        r
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(0.999), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 1, "1.0 opens the first scaled bucket");
        assert_eq!(bucket_index(1.999), 1);
        assert_eq!(bucket_index(2.0), 2, "powers of two start a new bucket");
        assert_eq!(bucket_index(3.999), 2);
        assert_eq!(bucket_index(4.0), 3);
        assert_eq!(bucket_index(1024.0), 11);
        assert_eq!(bucket_index(f64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), HISTOGRAM_BUCKETS - 1);
        // Lower bounds line up with the index mapping: the bound itself is
        // inside the bucket, epsilon below it belongs to the bucket below.
        for i in 1..20 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i} must be inside it");
            assert_eq!(bucket_index(lo * (1.0 - 1e-12)), i - 1);
        }
    }

    #[test]
    fn counters_and_gauges_record_only_when_enabled() {
        let r = Registry::new();
        let c = r.counter("x");
        let g = r.gauge("y");
        let guard = crate::test_lock();
        crate::set_enabled(false);
        c.inc(5);
        g.set(2.5);
        assert_eq!(c.get(), 0, "disabled counter must not move");
        assert_eq!(g.get(), 0.0, "disabled gauge must not move");
        drop(guard);
        with_enabled(|| {
            c.inc(5);
            g.set(2.5);
        });
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn histogram_counts_sum_and_buckets() {
        let h = Histogram::default();
        with_enabled(|| {
            for v in [0.5, 1.0, 1.5, 2.0, 700.0] {
                h.record(v);
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 705.0).abs() < 1e-9);
        assert!((snap.mean() - 141.0).abs() < 1e-9);
        let by_lo: Vec<(f64, u64)> = snap.buckets.iter().map(|b| (b.lo, b.count)).collect();
        assert_eq!(by_lo, vec![(0.0, 1), (1.0, 2), (2.0, 1), (512.0, 1)]);
    }

    #[test]
    fn registry_returns_the_same_instrument_per_name() {
        let r = Registry::new();
        let a = r.counter("same");
        let b = r.counter("same");
        with_enabled(|| {
            a.inc(1);
            b.inc(2);
        });
        assert_eq!(r.counter("same").get(), 3);
    }

    #[test]
    fn snapshot_is_deterministic_and_sorted() {
        let r = Registry::new();
        with_enabled(|| {
            r.counter("zeta").inc(1);
            r.counter("alpha").inc(2);
            r.gauge("mid").set(0.5);
            r.histogram("h").record(3.0);
        });
        let a = serde_json::to_string(&r.snapshot()).unwrap();
        let b = serde_json::to_string(&r.snapshot()).unwrap();
        assert_eq!(a, b, "identical state must serialize identically");
        assert!(a.find("\"alpha\"").unwrap() < a.find("\"zeta\"").unwrap(), "keys sorted");
        let back: MetricsSnapshot = serde_json::from_str(&a).unwrap();
        assert_eq!(back, r.snapshot());
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("obs.test.global");
        with_enabled(|| c.inc(7));
        assert!(global().snapshot().counters["obs.test.global"] >= 7);
    }
}

#[cfg(test)]
mod bucket_properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// `bucket_index` is total over every `f64` bit pattern — NaNs,
        /// infinities, negatives, subnormals and negative zero all land in
        /// a defined bucket, never out of range. Everything below 1.0
        /// (including all non-finite and sub-unit values) is the underflow
        /// bucket; finite values at or above 1.0 land in their power-of-two
        /// bucket; `+inf` saturates to the last bucket.
        #[test]
        fn bucket_index_is_total_over_all_bit_patterns(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            let b = bucket_index(v);
            prop_assert!(b < HISTOGRAM_BUCKETS, "{v:e} -> bucket {b}");
            if v.is_nan() || v < 1.0 {
                prop_assert_eq!(b, 0, "{:e} must underflow", v);
            } else {
                prop_assert!(b >= 1, "{:e} must not underflow", v);
                prop_assert!(v >= bucket_lower_bound(b), "{:e} below bucket {}", v, b);
                if b < HISTOGRAM_BUCKETS - 1 {
                    prop_assert!(v < bucket_lower_bound(b + 1), "{:e} above bucket {}", v, b);
                }
            }
        }
    }

    #[test]
    fn histogram_absorbs_nasty_observations_into_underflow() {
        let h = Histogram::default();
        let nasty =
            [f64::NAN, f64::NEG_INFINITY, -1.0, -0.0, f64::MIN_POSITIVE / 2.0, f64::EPSILON];
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        for v in nasty {
            h.record(v);
        }
        crate::set_enabled(false);
        let snap = h.snapshot();
        assert_eq!(snap.count, nasty.len() as u64);
        assert_eq!(snap.buckets.first().map(|b| b.count), Some(nasty.len() as u64));
    }
}
