//! The benchmark's own span recorder.
//!
//! Spans are opened in the benchmark's code around each call into a layer
//! of the program — never inside the program — and kept in memory until the
//! run ends, when they are exported once as Chrome trace-event JSON and
//! folded into per-layer self times. Recording is off unless the run is
//! traced; a disabled [`span`] is one relaxed atomic load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRec>> = Mutex::new(Vec::new());
static ORIGIN: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Unique span id.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// The layer (module) the span's call enters, e.g. `"datagen"`.
    pub layer: &'static str,
    /// What the call did, e.g. `"train.full"` or a program name.
    pub name: String,
    /// Recording thread.
    pub tid: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Request id, for spans of one serve request.
    pub req: Option<u64>,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; recorded when dropped.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    open: Option<SpanRec>,
    /// Whether the span sits on its thread's nesting stack (request spans
    /// overlap each other and may end on another thread, so they do not).
    nested: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(mut rec) = self.open.take() {
            rec.end_ns = now_ns();
            if self.nested {
                STACK.with(|s| s.borrow_mut().pop());
            }
            SPANS.lock().expect("span buffer poisoned by a panicking thread").push(rec);
        }
    }
}

/// Opens a span nested under this thread's innermost open span.
pub fn span(layer: &'static str, name: impl Into<String>) -> Span {
    let parent = current();
    open(layer, name, parent, true, None)
}

/// Opens a span under an explicit parent — for work a span fans out to
/// other threads.
pub fn span_under(parent: Option<u64>, layer: &'static str, name: impl Into<String>) -> Span {
    open(layer, name, parent, true, None)
}

/// Opens a span for one serve request. It may be dropped on another
/// thread than the one that opened it.
pub fn request_span(parent: Option<u64>, layer: &'static str, name: &str, req: u64) -> Span {
    open(layer, name, parent, false, Some(req))
}

fn open(
    layer: &'static str,
    name: impl Into<String>,
    parent: Option<u64>,
    nested: bool,
    req: Option<u64>,
) -> Span {
    if !enabled() {
        return Span { open: None, nested: false };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    if nested {
        STACK.with(|s| s.borrow_mut().push(id));
    }
    let tid = TID.with(|t| *t);
    let start_ns = now_ns();
    let rec =
        SpanRec { id, parent, layer, name: name.into(), tid, start_ns, end_ns: start_ns, req };
    Span { open: Some(rec), nested }
}

/// This thread's innermost open span, to pass as the parent of work fanned
/// out to other threads.
pub fn current() -> Option<u64> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned by a panicking thread"))
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (children on several threads count once).
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered =
                children.get_mut(&s.id).map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// Summed self time per layer, in seconds.
pub fn layer_seconds(spans: &[SpanRec]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.layer).or_default() += selfs[&s.id] as f64 * 1e-9;
    }
    out
}

/// Share of the root spans' wall time explained by layer spans: the self
/// time of `structural` spans (the roots and the containers grouping
/// stages) is what no recorded stage accounts for.
pub fn coverage(spans: &[SpanRec], structural: &[&str]) -> f64 {
    let selfs = self_times(spans);
    let wall: u64 = spans.iter().filter(|s| s.parent.is_none()).map(SpanRec::dur_ns).sum();
    let unexplained: u64 =
        spans.iter().filter(|s| structural.contains(&s.layer)).map(|s| selfs[&s.id]).sum();
    if wall == 0 {
        0.0
    } else {
        1.0 - unexplained as f64 / wall as f64
    }
}

/// Renders spans as Chrome trace-event JSON, keeping at most `max_events`
/// (the earliest-started) so a long traced run stays loadable.
pub fn chrome_json(spans: &[SpanRec], max_events: usize, metadata: &[(&str, String)]) -> String {
    let mut order: Vec<&SpanRec> = spans.iter().collect();
    order.sort_by_key(|s| (s.start_ns, s.id));
    let kept = order.len().min(max_events);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in order[..kept].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{}",
            json_str(&s.name),
            json_str(s.layer),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(r) = s.req {
            let _ = write!(out, ",\"req\":{r}");
        }
        out.push_str("}}");
    }
    let _ = write!(out, "],\"otherData\":{{\"dropped_events\":{}", order.len() - kept);
    for (k, v) in metadata {
        let _ = write!(out, ",{}:{}", json_str(k), json_str(v));
    }
    out.push_str("}}");
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            layer,
            name: layer.into(),
            tid: 1,
            start_ns: start,
            end_ns: end,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            rec(1, None, "run", 0, 100),
            // Two overlapping children on different threads cover 10..60.
            rec(2, Some(1), "sim", 10, 50),
            rec(3, Some(1), "sim", 30, 60),
            // A child running past its parent is clipped.
            rec(4, Some(1), "sim", 90, 120),
            rec(5, Some(2), "decide", 20, 25),
            // A stage container inside the root: its gaps are unexplained.
            rec(6, Some(1), "run", 60, 90),
            rec(7, Some(6), "train", 65, 85),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 50 - 10 - 30);
        assert_eq!(selfs[&2], 35);
        assert_eq!(selfs[&5], 5);
        assert_eq!(selfs[&6], 10);
        let layers = layer_seconds(&spans);
        assert!((layers["sim"] - (35 + 30 + 30) as f64 * 1e-9).abs() < 1e-15);
        assert!((coverage(&spans, &["run"]) - 0.8).abs() < 1e-12);
        assert!((coverage(&spans, &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chrome_export_is_json_and_caps_events() {
        let spans = vec![rec(2, Some(1), "sim", 5, 9), rec(1, None, "run \"x\"", 0, 10)];
        let json = chrome_json(&spans, 1, &[("seed", "7".into())]);
        let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = v.as_object().and_then(|o| o.get("traceEvents")).and_then(|e| e.as_array());
        assert_eq!(events.map(Vec::len), Some(1));
        assert!(json.contains("\"dropped_events\":1"));
        assert!(json.contains("run \\\"x\\\""));
    }
}
