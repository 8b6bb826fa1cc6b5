//! Per-thread trace rings, exported as Chrome `trace_event` JSON.
//!
//! Every [`crate::scope!`] that closes while tracing is on records one
//! [`TraceEvent`] into its thread's own bounded [`Ring`] — a push takes the
//! thread's *own* uncontended mutex, never a global one — and a global
//! drain collects every thread's events for export. The export format is
//! the Chrome Trace Event "JSON object format" (`{"traceEvents": [...]}`
//! with `ph: "X"` complete events), loadable directly in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::ring::Ring;

/// Per-thread event-ring capacity (newest events win).
const RING_CAPACITY: usize = 1 << 16;

/// One closed scope, timestamped in microseconds relative to the first
/// traced scope of the process.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The scope's phase (e.g. `datagen.replay`).
    pub name: &'static str,
    /// The phase's first dot segment (e.g. `datagen`).
    pub cat: &'static str,
    /// The scope's formatted detail (e.g. `sgemm#3@op2`); may be empty.
    pub detail: String,
    /// Start, µs since the trace epoch.
    pub ts_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Recording thread's trace id.
    pub tid: u64,
}

/// One thread's trace ring, registered globally so its events survive the
/// thread.
pub(crate) struct ThreadBuf {
    pub(crate) tid: u64,
    name: String,
    ring: Mutex<Ring<TraceEvent>>,
}

impl ThreadBuf {
    /// Records `event`; a scope's drop calls this, so it must not panic: a
    /// poisoned ring drops the event.
    pub(crate) fn push(&self, event: TraceEvent) {
        if let Ok(mut ring) = self.ring.lock() {
            ring.push(event);
        }
    }
}

static BUFS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Fixes the trace epoch at `start` unless an earlier scope already did.
pub(crate) fn start_epoch(start: Instant) {
    EPOCH.get_or_init(|| start);
}

/// Microseconds from the trace epoch to `t`.
pub(crate) fn micros_since_epoch(t: Instant) -> f64 {
    EPOCH.get().map_or(0.0, |epoch| t.saturating_duration_since(*epoch).as_secs_f64() * 1e6)
}

/// Registers a ring for the calling thread. A scope's drop calls this, so
/// it must not panic; a poisoned registry is still a valid list of rings.
pub(crate) fn register_thread() -> Arc<ThreadBuf> {
    let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    let name =
        std::thread::current().name().map_or_else(|| format!("thread-{tid}"), str::to_string);
    let buf = Arc::new(ThreadBuf { tid, name, ring: Mutex::new(Ring::new(RING_CAPACITY)) });
    BUFS.lock().unwrap_or_else(PoisonError::into_inner).push(Arc::clone(&buf));
    buf
}

/// Collects (and clears) every thread's retained events, sorted by start
/// time, together with the `(tid, thread name)` table.
///
/// # Panics
///
/// Panics if a trace buffer lock is poisoned.
pub fn drain() -> (Vec<TraceEvent>, Vec<(u64, String)>) {
    let bufs = BUFS.lock().expect("trace buffer registry poisoned");
    let mut events = Vec::new();
    let mut threads = Vec::new();
    for buf in bufs.iter() {
        threads.push((buf.tid, buf.name.clone()));
        events.extend(buf.ring.lock().expect("trace ring poisoned").drain());
    }
    events.sort_by(|a, b| a.ts_us.total_cmp(&b.ts_us));
    (events, threads)
}

/// Drains every buffer and renders the Chrome Trace Event JSON object
/// format: complete (`ph: "X"`) events, each with its detail as
/// `args.detail`, plus `thread_name` metadata, ready for
/// `chrome://tracing` / Perfetto.
///
/// # Panics
///
/// Panics if a trace buffer lock is poisoned.
pub fn chrome_trace_json() -> String {
    use serde::Value;
    let (events, threads) = drain();
    let mut out: Vec<Value> = Vec::with_capacity(events.len() + threads.len());
    for (tid, name) in threads {
        let mut args = serde::Map::new();
        args.insert("name".into(), Value::String(name));
        let mut m = serde::Map::new();
        m.insert("ph".into(), Value::String("M".into()));
        m.insert("name".into(), Value::String("thread_name".into()));
        m.insert("pid".into(), Value::Number(serde::Number::U(1)));
        m.insert("tid".into(), Value::Number(serde::Number::U(tid)));
        m.insert("args".into(), Value::Object(args));
        out.push(Value::Object(m));
    }
    for e in events {
        let mut m = serde::Map::new();
        m.insert("ph".into(), Value::String("X".into()));
        m.insert("name".into(), Value::String(e.name.into()));
        m.insert("cat".into(), Value::String(e.cat.into()));
        m.insert("ts".into(), Value::Number(serde::Number::F(e.ts_us)));
        m.insert("dur".into(), Value::Number(serde::Number::F(e.dur_us)));
        m.insert("pid".into(), Value::Number(serde::Number::U(1)));
        m.insert("tid".into(), Value::Number(serde::Number::U(e.tid)));
        if !e.detail.is_empty() {
            let mut args = serde::Map::new();
            args.insert("detail".into(), Value::String(e.detail));
            m.insert("args".into(), Value::Object(args));
        }
        out.push(Value::Object(m));
    }
    let mut root = serde::Map::new();
    root.insert("traceEvents".into(), Value::Array(out));
    root.insert("displayTimeUnit".into(), Value::String("ms".into()));
    serde_json::to_string(&Value::Object(root)).expect("trace serialization")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_lock();
        crate::set_enabled(false);
        {
            let _s = crate::scope!("test.ignored");
        }
        // The shared buffers may hold events from other tests; a scope
        // opened while tracing is off must simply not add one.
        let (events, _) = drain();
        assert!(events.iter().all(|e| e.name != "test.ignored"));
    }

    #[test]
    fn spans_nest_and_export_as_chrome_trace() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _outer = crate::scope!("test.outer", "outer {}", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = crate::scope!("test.inner");
        }
        let json = chrome_trace_json();
        crate::set_enabled(false);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("test.inner"));
        assert!(json.contains("thread_name"));
        // The export must be valid JSON.
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("test.outer"))
            .expect("outer event present");
        assert_eq!(outer.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(outer.get("cat").and_then(|p| p.as_str()), Some("test"));
        let detail = outer.get("args").and_then(|a| a.get("detail")).and_then(|d| d.as_str());
        assert_eq!(detail, Some("outer 1"));
        assert!(outer.get("dur").and_then(serde::Value::as_f64).unwrap() >= 1_000.0);
    }

    #[test]
    fn cross_thread_events_all_drain() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = crate::scope!("test.worker", "worker {i}");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (events, _) = drain();
        crate::set_enabled(false);
        for i in 0..4 {
            assert!(
                events.iter().any(|e| e.name == "test.worker" && e.detail == format!("worker {i}")),
                "worker {i}'s event must survive its thread"
            );
        }
    }
}
