//! Windowed time series over the metrics registry.
//!
//! The registry's counters are lifetime totals — useful for a post-mortem
//! snapshot, useless for answering "how fast is it going *right now*".
//! A [`TimeSeries`] samples a [`Registry`] on a
//! fixed interval into one bounded [`Ring`] of [`Sample`]s, and
//! [`TimeSeries::window`] turns the newest N samples into per-counter
//! deltas and rates. The embedded exporter serves this as
//! `/metrics.json?window=N`, and `ssmdvfs watch` renders it as a table.
//!
//! A [`Sampler`] runs the sampling loop on a background thread; tests can
//! instead call [`TimeSeries::sample_with_uptime`] directly for
//! deterministic timestamps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::metrics::Registry;
use crate::ring::Ring;

/// Default number of retained samples (at the default interval, a few
/// minutes of history).
pub const DEFAULT_CAPACITY: usize = 600;

/// Default sampling interval.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(250);

/// One point-in-time reading of every counter and gauge in a registry.
///
/// Histograms are deliberately excluded: rates over their totals are
/// already captured by `count`/`sum` counters and the full distribution
/// stays available in the lifetime snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Seconds since the time series was created.
    pub uptime_s: f64,
    /// Counter totals at this instant.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values at this instant.
    pub gauges: BTreeMap<String, f64>,
}

/// Per-counter movement across a window: absolute delta and rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CounterWindow {
    /// Increase across the window (counters are monotonic; a counter that
    /// appears mid-window counts from zero).
    pub delta: u64,
    /// `delta / seconds`, 0 when the window spans no time.
    pub rate_per_s: f64,
}

/// The windowed view served as `/metrics.json?window=N`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Samples actually used (≤ the requested window).
    pub samples: usize,
    /// Wall-clock span between the first and last used sample.
    pub seconds: f64,
    /// Uptime of the newest sample, seconds since series creation.
    pub uptime_s: f64,
    /// Delta and rate per counter that moved or exists in the newest
    /// sample.
    pub counters: BTreeMap<String, CounterWindow>,
    /// Newest value per gauge.
    pub gauges: BTreeMap<String, f64>,
}

impl WindowReport {
    /// `num / (num + den)` over the window deltas of two counters —
    /// e.g. cache hits over hits+misses. `None` when nothing moved.
    pub fn delta_ratio(&self, num: &str, den: &str) -> Option<f64> {
        let n = self.counters.get(num).map_or(0, |c| c.delta);
        let d = self.counters.get(den).map_or(0, |c| c.delta);
        (n + d > 0).then(|| n as f64 / (n + d) as f64)
    }

    /// The window rate of one counter (0 when it did not move).
    pub fn rate(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |c| c.rate_per_s)
    }
}

/// A bounded history of registry samples.
pub struct TimeSeries {
    started: Instant,
    ring: Mutex<Ring<Sample>>,
}

impl TimeSeries {
    /// Creates a series retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries { started: Instant::now(), ring: Mutex::new(Ring::new(capacity)) }
    }

    /// Samples `registry` now, stamping the sample with real uptime.
    ///
    /// # Panics
    ///
    /// Panics if the series lock is poisoned.
    pub fn sample(&self, registry: &Registry) {
        self.sample_with_uptime(registry, self.started.elapsed().as_secs_f64());
    }

    /// Samples `registry` with an explicit uptime stamp (deterministic for
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if the series lock is poisoned.
    pub fn sample_with_uptime(&self, registry: &Registry, uptime_s: f64) {
        let snap = registry.snapshot();
        let sample = Sample { uptime_s, counters: snap.counters, gauges: snap.gauges };
        self.ring.lock().expect("time series poisoned").push(sample);
    }

    /// The number of retained samples.
    ///
    /// # Panics
    ///
    /// Panics if the series lock is poisoned.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("time series poisoned").len()
    }

    /// Whether no sample has been recorded yet.
    ///
    /// # Panics
    ///
    /// Panics if the series lock is poisoned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deltas and rates across the newest `window` samples (clamped to the
    /// retained history). `None` until at least one sample exists; a
    /// single-sample window reports its totals as the delta with zero
    /// rates.
    ///
    /// # Panics
    ///
    /// Panics if the series lock is poisoned.
    pub fn window(&self, window: usize) -> Option<WindowReport> {
        let ring = self.ring.lock().expect("time series poisoned");
        if ring.is_empty() {
            return None;
        }
        let used = window.clamp(1, ring.len());
        let mut iter = ring.iter().skip(ring.len() - used);
        let first = iter.next().expect("window is non-empty");
        let last = iter.last().unwrap_or(first);
        let seconds = (last.uptime_s - first.uptime_s).max(0.0);
        let mut counters = BTreeMap::new();
        for (name, &end) in &last.counters {
            // A counter absent from the first sample appeared mid-window.
            let start = if used == 1 { 0 } else { first.counters.get(name).copied().unwrap_or(0) };
            let delta = end.saturating_sub(start);
            let rate_per_s = if seconds > 0.0 { delta as f64 / seconds } else { 0.0 };
            counters.insert(name.clone(), CounterWindow { delta, rate_per_s });
        }
        Some(WindowReport {
            samples: used,
            seconds,
            uptime_s: last.uptime_s,
            counters,
            gauges: last.gauges.clone(),
        })
    }
}

/// A background thread sampling a registry into a [`TimeSeries`] on a
/// fixed interval. Dropping the sampler stops the thread.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `registry` into `series` every `interval`.
    pub fn start(
        series: Arc<TimeSeries>,
        registry: &'static Registry,
        interval: Duration,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("obs-sampler".into())
            .spawn(move || {
                // Sample immediately so short runs still get a first point,
                // then on every interval tick until stopped.
                series.sample(registry);
                while !stop_flag.load(Ordering::Relaxed) {
                    std::thread::sleep(interval);
                    series.sample(registry);
                }
            })
            .expect("spawn obs-sampler thread");
        Sampler { stop, handle: Some(handle) }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with(counts: &[(&str, u64)]) -> Registry {
        let r = Registry::new();
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        for &(name, n) in counts {
            r.counter(name).inc(n);
        }
        crate::set_enabled(false);
        r
    }

    #[test]
    fn window_reports_deltas_and_rates() {
        let r = registry_with(&[("a", 10), ("b", 1)]);
        let ts = TimeSeries::new(8);
        ts.sample_with_uptime(&r, 0.0);
        let guard = crate::test_lock();
        crate::set_enabled(true);
        r.counter("a").inc(20);
        r.counter("c").inc(4);
        crate::set_enabled(false);
        drop(guard);
        ts.sample_with_uptime(&r, 2.0);
        let w = ts.window(10).expect("two samples retained");
        assert_eq!(w.samples, 2);
        assert_eq!(w.seconds, 2.0);
        assert_eq!(w.counters["a"].delta, 20);
        assert_eq!(w.counters["a"].rate_per_s, 10.0);
        assert_eq!(w.counters["b"].delta, 0);
        assert_eq!(w.counters["c"].delta, 4, "mid-window counters count from zero");
        assert_eq!(w.rate("c"), 2.0);
        assert_eq!(w.rate("missing"), 0.0);
    }

    #[test]
    fn single_sample_window_has_zero_rates() {
        let r = registry_with(&[("a", 7)]);
        let ts = TimeSeries::new(4);
        assert!(ts.window(3).is_none(), "no samples yet");
        ts.sample_with_uptime(&r, 1.0);
        let w = ts.window(5).unwrap();
        assert_eq!(w.samples, 1);
        assert_eq!(w.seconds, 0.0);
        assert_eq!(w.counters["a"].delta, 7);
        assert_eq!(w.counters["a"].rate_per_s, 0.0);
    }

    #[test]
    fn ring_keeps_newest_samples() {
        let r = registry_with(&[]);
        let ts = TimeSeries::new(2);
        for i in 0..5 {
            ts.sample_with_uptime(&r, f64::from(i));
        }
        assert_eq!(ts.len(), 2);
        let w = ts.window(2).unwrap();
        assert_eq!(w.uptime_s, 4.0);
        assert_eq!(w.seconds, 1.0);
    }

    #[test]
    fn delta_ratio_over_hit_and_miss_counters() {
        let r = registry_with(&[("hits", 3), ("misses", 1)]);
        let ts = TimeSeries::new(4);
        ts.sample_with_uptime(&r, 0.0);
        let w = ts.window(1).unwrap();
        assert_eq!(w.delta_ratio("hits", "misses"), Some(0.75));
        assert_eq!(w.delta_ratio("none", "misses"), Some(0.0));
        assert_eq!(w.delta_ratio("none", "nada"), None);
    }

    #[test]
    fn sampler_thread_collects_and_stops() {
        let series = Arc::new(TimeSeries::new(64));
        let sampler =
            Sampler::start(Arc::clone(&series), crate::metrics::global(), Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(2);
        while series.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        drop(sampler);
        assert!(!series.is_empty(), "sampler must record at least the immediate sample");
        let report = serde_json::to_string(&series.window(8).unwrap()).unwrap();
        assert!(report.contains("\"uptime_s\""));
    }
}
