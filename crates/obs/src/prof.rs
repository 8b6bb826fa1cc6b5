//! The phase profile: wall time aggregated by call path.
//!
//! Tracing ([`crate::trace`]) answers "when did each scope run"; the
//! profile answers "where did the time go" without retaining one event
//! per occurrence. Every [`crate::scope!`] that opens while profiling is on
//! folds its wall time into a global table keyed by the thread's call path
//! of open profiled scopes (`datagen.suite;datagen.replay`): total time,
//! self time (total minus enclosed children), call count, min/max. The
//! table exports as:
//!
//! * [`ProfileSnapshot`] — deterministic-ordered JSON (`--profile-out`),
//!   summarized by `ssmdvfs inspect --profile`;
//! * [`collapsed`] — collapsed-stack text (`path;leaf self_µs` lines),
//!   directly consumable by `flamegraph.pl` or speedscope;
//! * [`table`] — a human-readable per-phase table.
//!
//! Profiling is gated on its own flag ([`set_profiling`]), independent of
//! [`crate::enabled`], and enabling it must not change any computed output
//! (enforced by the datagen byte-identity proptest).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

static PROFILING: AtomicBool = AtomicBool::new(false);

/// Turns phase profiling on or off globally.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::Relaxed);
}

/// Whether phase profiling is enabled (one relaxed atomic load).
#[inline]
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Aggregated wall time for one call path.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Times a frame with this path completed.
    pub calls: u64,
    /// Total wall nanoseconds across all calls.
    pub total_ns: u64,
    /// Wall nanoseconds not attributed to enclosed child frames.
    pub self_ns: u64,
    /// Shortest single call, nanoseconds.
    pub min_ns: u64,
    /// Longest single call, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    fn fold(&mut self, total_ns: u64, self_ns: u64) {
        self.min_ns = if self.calls == 0 { total_ns } else { self.min_ns.min(total_ns) };
        self.max_ns = self.max_ns.max(total_ns);
        self.calls += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
    }

    /// Mean wall time per call, nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The exported profile: stats keyed by `;`-joined call path.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Aggregated stats per call path (e.g. `datagen;datagen.replay`).
    pub phases: BTreeMap<String, PhaseStat>,
}

static TABLE: Mutex<BTreeMap<String, PhaseStat>> = Mutex::new(BTreeMap::new());

/// Folds one closed scope into the table row for `path`. A scope's drop
/// calls this, so it must not panic: a poisoned table drops the sample.
pub(crate) fn fold(path: String, total_ns: u64, self_ns: u64) {
    if let Ok(mut table) = TABLE.lock() {
        table.entry(path).or_default().fold(total_ns, self_ns);
    }
}

/// A copy of the aggregated table.
///
/// # Panics
///
/// Panics if the profiler table lock is poisoned.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot { phases: TABLE.lock().expect("profiler table poisoned").clone() }
}

/// Clears the aggregated table (for per-run profiling in tests/benches).
///
/// # Panics
///
/// Panics if the profiler table lock is poisoned.
pub fn reset() {
    TABLE.lock().expect("profiler table poisoned").clear();
}

/// The profile as collapsed-stack text: one `path;leaf value` line per
/// call path, value = self time in microseconds (the convention
/// `flamegraph.pl` and speedscope expect). Paths are already `;`-joined,
/// so each line is `frames... self_us`.
pub fn collapsed(profile: &ProfileSnapshot) -> String {
    let mut out = String::new();
    for (path, stat) in &profile.phases {
        out.push_str(&format!("{path} {}\n", stat.self_ns / 1_000));
    }
    out
}

/// The profile as a fixed-width per-phase table, widest total first.
pub fn table(profile: &ProfileSnapshot) -> String {
    let mut rows: Vec<(&String, &PhaseStat)> = profile.phases.iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then_with(|| a.0.cmp(b.0)));
    let mut out = format!(
        "{:<44} {:>9} {:>12} {:>12} {:>12}\n",
        "phase", "calls", "total ms", "self ms", "mean µs"
    );
    for (path, s) in rows {
        out.push_str(&format!(
            "{:<44} {:>9} {:>12.3} {:>12.3} {:>12.1}\n",
            path,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.mean_ns() / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_profiling<R>(f: impl FnOnce() -> R) -> R {
        let _guard = crate::test_lock();
        reset();
        set_profiling(true);
        let r = f();
        set_profiling(false);
        r
    }

    #[test]
    fn disabled_scopes_record_nothing() {
        let _guard = crate::test_lock();
        reset();
        set_profiling(false);
        {
            let _s = crate::scope!("test.never");
        }
        assert!(snapshot().phases.is_empty());
    }

    #[test]
    fn nesting_builds_paths_and_attributes_self_time() {
        let snap = with_profiling(|| {
            {
                let _outer = crate::scope!("test.outer");
                std::thread::sleep(std::time::Duration::from_millis(4));
                {
                    let _inner = crate::scope!("test.inner");
                    std::thread::sleep(std::time::Duration::from_millis(4));
                }
            }
            snapshot()
        });
        let outer = &snap.phases["test.outer"];
        let inner = &snap.phases["test.outer;test.inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(outer.total_ns >= inner.total_ns, "parent total covers child");
        assert!(
            outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000,
            "outer self excludes inner: {outer:?} vs {inner:?}"
        );
        assert!(inner.min_ns <= inner.max_ns);
        assert!(inner.total_ns >= 3_000_000, "sleep(4ms) must register");
    }

    #[test]
    fn repeated_calls_aggregate() {
        let snap = with_profiling(|| {
            for _ in 0..5 {
                let _s = crate::scope!("test.leaf");
            }
            snapshot()
        });
        assert_eq!(snap.phases["test.leaf"].calls, 5);
        assert!(snap.phases["test.leaf"].min_ns <= snap.phases["test.leaf"].mean_ns() as u64);
    }

    #[test]
    fn collapsed_and_table_render() {
        let snap = with_profiling(|| {
            {
                let _a = crate::scope!("test.a");
                let _b = crate::scope!("test.b");
            }
            snapshot()
        });
        let collapsed = collapsed(&snap);
        assert!(collapsed.contains("test.a;test.b "), "{collapsed}");
        for line in collapsed.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("line has a value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("collapsed value is integral µs");
        }
        let table = table(&snap);
        assert!(table.contains("phase"), "{table}");
        assert!(table.contains("test.a;test.b"), "{table}");
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = with_profiling(|| {
            {
                let _s = crate::scope!("test.json");
            }
            snapshot()
        });
        let json = serde_json::to_string(&snap).unwrap();
        let back: ProfileSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn sibling_threads_do_not_share_stacks() {
        let snap = with_profiling(|| {
            let t = std::thread::spawn(|| {
                let _s = crate::scope!("test.worker");
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
            {
                let _s = crate::scope!("test.main");
                t.join().unwrap();
            }
            snapshot()
        });
        assert!(snap.phases.contains_key("test.worker"), "{snap:?}");
        assert!(snap.phases.contains_key("test.main"), "{snap:?}");
        assert!(!snap.phases.keys().any(|k| k.contains("test.main;test.worker")));
    }
}
