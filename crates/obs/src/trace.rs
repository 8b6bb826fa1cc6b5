//! Span-based tracing into per-thread ring buffers, exported as Chrome
//! `trace_event` JSON.
//!
//! Each thread records completed spans into its own bounded [`Ring`] — a
//! push takes the thread's *own* uncontended mutex, never a global one —
//! and a global drain collects every thread's events for export. The
//! export format is the Chrome Trace Event "JSON object format"
//! (`{"traceEvents": [...]}` with `ph: "X"` complete events), loadable
//! directly in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! Spans are RAII guards: opening records the start instant, dropping
//! records the event. When observability is disabled ([`crate::enabled`]),
//! [`crate::span!`] produces a no-op guard without formatting the name or
//! reading the clock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::ring::Ring;

/// Default per-thread event-ring capacity (newest events win).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// One completed span, timestamped in microseconds relative to the first
/// observation of the process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Span name (e.g. `replay:lbm#3@op2`).
    pub name: String,
    /// Category (e.g. `datagen`, `exec`, `train`, `sim`).
    pub cat: String,
    /// Start, µs since the trace epoch.
    pub ts_us: f64,
    /// Duration in µs.
    pub dur_us: f64,
    /// Recording thread's trace id.
    pub tid: u64,
}

struct ThreadBuf {
    tid: u64,
    name: String,
    ring: Mutex<Ring<TraceEvent>>,
}

static BUFS: Mutex<Vec<Arc<ThreadBuf>>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch.
fn now_us() -> f64 {
    epoch().elapsed().as_secs_f64() * 1e6
}

/// Sets the ring capacity used by threads that have not yet recorded a
/// span (existing thread buffers keep their capacity).
pub fn set_thread_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity.max(1), Ordering::Relaxed);
}

fn local_buf() -> Arc<ThreadBuf> {
    thread_local! {
        static LOCAL: Arc<ThreadBuf> = {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map_or_else(|| format!("thread-{tid}"), str::to_string);
            let buf = Arc::new(ThreadBuf {
                tid,
                name,
                ring: Mutex::new(Ring::new(RING_CAPACITY.load(Ordering::Relaxed))),
            });
            BUFS.lock().expect("trace buffer registry poisoned").push(Arc::clone(&buf));
            buf
        };
    }
    LOCAL.with(Arc::clone)
}

/// An in-flight span; records a [`TraceEvent`] when dropped.
///
/// Construct through [`crate::span!`] (which skips name formatting while
/// disabled) or [`span`].
#[must_use = "a span measures the scope it lives in"]
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    name: String,
    cat: &'static str,
    start_us: f64,
}

impl Span {
    /// A no-op span (what [`crate::span!`] yields while disabled).
    pub fn disabled() -> Span {
        Span { inner: None }
    }
}

/// Opens a span; the returned guard records the event on drop. Returns a
/// no-op guard while observability is disabled.
pub fn span(name: impl Into<String>, cat: &'static str) -> Span {
    if !crate::enabled() {
        return Span::disabled();
    }
    Span { inner: Some(SpanInner { name: name.into(), cat, start_us: now_us() }) }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else { return };
        let end = now_us();
        let buf = local_buf();
        let event = TraceEvent {
            name: inner.name,
            cat: inner.cat.to_string(),
            ts_us: inner.start_us,
            dur_us: (end - inner.start_us).max(0.0),
            tid: buf.tid,
        };
        buf.ring.lock().expect("trace ring poisoned").push(event);
    }
}

/// Records an instantaneous (zero-duration) event.
pub fn instant(name: impl Into<String>, cat: &'static str) {
    if !crate::enabled() {
        return;
    }
    let buf = local_buf();
    let event = TraceEvent {
        name: name.into(),
        cat: cat.to_string(),
        ts_us: now_us(),
        dur_us: 0.0,
        tid: buf.tid,
    };
    buf.ring.lock().expect("trace ring poisoned").push(event);
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
/// format: complete (`ph: "X"`) events plus `thread_name` metadata, ready
/// for `chrome://tracing` / Perfetto.
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
        m.insert("name".into(), Value::String(e.name));
        m.insert("cat".into(), Value::String(e.cat));
        m.insert("ts".into(), Value::Number(serde::Number::F(e.ts_us)));
        m.insert("dur".into(), Value::Number(serde::Number::F(e.dur_us)));
        m.insert("pid".into(), Value::Number(serde::Number::U(1)));
        m.insert("tid".into(), Value::Number(serde::Number::U(e.tid)));
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
            let _s = span("ignored", "test");
        }
        // The shared buffers may hold events from other tests; a disabled
        // span must simply not add one with this name.
        let (events, _) = drain();
        assert!(events.iter().all(|e| e.name != "ignored"));
    }

    #[test]
    fn spans_nest_and_export_as_chrome_trace() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        {
            let _outer = span("outer-span-test", "test");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("inner-span-test", "test");
        }
        let json = chrome_trace_json();
        crate::set_enabled(false);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("outer-span-test"));
        assert!(json.contains("inner-span-test"));
        assert!(json.contains("thread_name"));
        // The export must be valid JSON.
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let events = v.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        let outer = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("outer-span-test"))
            .expect("outer event present");
        assert_eq!(outer.get("ph").and_then(|p| p.as_str()), Some("X"));
        assert!(outer.get("dur").and_then(serde::Value::as_f64).unwrap() >= 1_000.0);
    }

    #[test]
    fn cross_thread_events_all_drain() {
        let _guard = crate::test_lock();
        crate::set_enabled(true);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let _s = span(format!("worker-span-{i}"), "test");
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
                events.iter().any(|e| e.name == format!("worker-span-{i}")),
                "worker {i}'s span must survive its thread"
            );
        }
    }
}
