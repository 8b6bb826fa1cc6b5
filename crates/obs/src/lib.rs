//! Observability layer for the SSMDVFS workspace.
//!
//! The paper's premise is microsecond-scale *visibility* — per-epoch
//! counters drive every DVFS decision — and this crate gives the
//! reproduction the same visibility into itself. Three pillars, shared by
//! every other crate in the workspace:
//!
//! 1. **Metrics** ([`metrics`]) — a lock-cheap registry of named counters,
//!    gauges and log-scale histograms with a deterministic serde-JSON
//!    snapshot format (see `docs/observability.md`).
//! 2. **Scopes** ([`scope!`]) — one RAII guard per `layer.stage` phase
//!    that feeds both the Chrome trace ([`trace`], loadable in Perfetto)
//!    and the phase profile ([`prof`]), so datagen fan-out, training and
//!    replays render as a timeline and add up to a profile.
//! 3. **Audit** ([`audit`]) — a bounded ring of per-epoch DVFS decision
//!    records (features, logits, presets, calibrator predicted-vs-actual)
//!    emitted by the governors and dumpable as JSONL.
//!
//! A leveled stderr [`log`] rounds it out, and four modules turn the
//! registry into a *live* telemetry plane:
//!
//! * [`export`] — an embedded zero-dependency HTTP exporter
//!   (`--serve-metrics`) serving `/metrics` in Prometheus text exposition
//!   format, `/metrics.json` (the deterministic snapshot, windowed rates
//!   with `?window=N`), and `/healthz`.
//! * [`series`] — a bounded time series sampling registry deltas on a
//!   fixed interval, so scrapes and `ssmdvfs watch` can show rates
//!   (epochs/s, cache hit ratio) rather than lifetime totals.
//! * [`prof`] — the phase profile: scope wall time aggregated by call
//!   path, exported as a per-phase table and collapsed-stack
//!   (flamegraph-compatible) text.
//! * [`slo`] — declarative SLO rules (`ssmdvfs slo-check`) evaluated
//!   against perf trajectories, metrics snapshots and audit trails.
//!
//! # Overhead discipline
//!
//! Everything is off by default. Call sites guard on the global
//! [`enabled`] flag — a single relaxed atomic load — before any
//! formatting, allocation or clock read, so instrumentation compiles to
//! near-nothing in an untraced run. The [`counter!`], [`gauge!`] and
//! [`histogram!`] macros build that guard (and a cached registry lookup)
//! into the call site; [`scope!`] checks [`enabled`] and
//! [`prof::profiling`] and does nothing else while both are off.
//!
//! # Examples
//!
//! ```
//! obs::set_enabled(true);
//! obs::prof::set_profiling(true);
//! {
//!     let _scope = obs::scope!("demo.fib", "fib({})", 20);
//!     obs::counter!("demo.calls").inc(1);
//! }
//! let snapshot = obs::metrics::global().snapshot();
//! assert_eq!(snapshot.counters.get("demo.calls"), Some(&1));
//! assert_eq!(obs::prof::snapshot().phases["demo.fib"].calls, 1);
//! let json = obs::trace::chrome_trace_json();
//! assert!(json.contains("\"demo.fib\""));
//! # obs::set_enabled(false);
//! # obs::prof::set_profiling(false);
//! ```

#![warn(missing_docs)]

pub mod audit;
pub mod export;
pub mod log;
pub mod metrics;
pub mod prof;
pub mod ring;
pub mod scope;
pub mod series;
pub mod slo;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

pub use audit::{summarize, AuditRecord, AuditSummary, AuditTrail};
pub use ring::Ring;

/// The global observability switch, off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording and scope tracing on or off globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether observability is globally enabled. Call sites check this before
/// doing any formatting or allocation; it is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serializes this crate's unit tests that flip the global [`enabled`] or
/// [`prof::profiling`] flags, drain the global trace buffers or reset the
/// profile table, so no test turns recording off or steals events while
/// another is recording.
#[cfg(test)]
fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A failed test poisons the lock; the `()` it guards cannot be broken.
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Opens a [`scope::Scope`] for a static `layer.stage` phase, optionally
/// with a `format!`-style detail: `obs::scope!("datagen.replay")` or
/// `obs::scope!("datagen.replay", "{name}#{bp}")`.
///
/// The detail is formatted only while tracing ([`enabled`]) is on; see
/// [`mod@scope`] for what the guard records when it drops.
#[macro_export]
macro_rules! scope {
    ($phase:expr) => {
        $crate::scope::Scope::open($phase, ::std::string::String::new)
    };
    ($phase:expr, $($fmt:tt)+) => {
        $crate::scope::Scope::open($phase, || ::std::format!($($fmt)+))
    };
}

/// Resolves a named counter in the global registry once per call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Counter>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().counter($name)).as_ref()
    }};
}

/// Resolves a named gauge in the global registry once per call site.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Gauge>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().gauge($name)).as_ref()
    }};
}

/// Resolves a named histogram in the global registry once per call site.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: std::sync::OnceLock<std::sync::Arc<$crate::metrics::Histogram>> =
            std::sync::OnceLock::new();
        SLOT.get_or_init(|| $crate::metrics::global().histogram($name)).as_ref()
    }};
}
