//! The one instrumentation scope, feeding both the Chrome trace
//! ([`crate::trace`]) and the phase profile ([`crate::prof`]).
//!
//! [`crate::scope!`] opens a [`Scope`] for a static `layer.stage` phase,
//! with an optional detail formatted only while tracing is on. Opening
//! reads the clock and pushes a frame onto the thread's frame stack;
//! dropping reads the clock again, pops the frame, and
//!
//! * folds it into the profile table (by `;`-joined path of the thread's
//!   open profiled frames) if profiling was on at open, and
//! * records a complete trace event — name = phase, category = the
//!   phase's first dot segment, detail in `args` — if tracing was on at
//!   open.
//!
//! With both switches off a scope costs two relaxed atomic loads. Scopes
//! close in LIFO order on the thread that opened them (the guard is
//! `!Send`).

use std::cell::{OnceCell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::{ThreadBuf, TraceEvent};

/// One open scope on a thread's frame stack.
struct Frame {
    phase: &'static str,
    start: Instant,
    /// Wall nanoseconds of enclosed profiled frames (for self time).
    child_ns: u64,
    /// Profiling was on at open: fold into the profile table at close.
    profiled: bool,
    /// Tracing was on at open: the formatted detail, recorded at close.
    detail: Option<String>,
}

/// A thread's instrumentation state: its frame stack and, once it records
/// its first trace event, its registered trace ring.
struct ThreadState {
    frames: RefCell<Vec<Frame>>,
    ring: OnceCell<Arc<ThreadBuf>>,
}

thread_local! {
    static STATE: ThreadState =
        const { ThreadState { frames: RefCell::new(Vec::new()), ring: OnceCell::new() } };
}

/// An open instrumentation scope; see the [module docs](self). Construct
/// through [`crate::scope!`].
#[must_use = "a scope measures the block it lives in"]
pub struct Scope {
    live: bool,
    /// Frames live in a thread-local stack, so the guard must not move to
    /// another thread.
    _thread_bound: PhantomData<*const ()>,
}

impl Scope {
    /// Opens a scope for `phase`. `detail` runs (and allocates) only when
    /// tracing is on; an empty detail adds no `args` to the trace event.
    #[inline]
    pub fn open(phase: &'static str, detail: impl FnOnce() -> String) -> Scope {
        let tracing = crate::enabled();
        let profiled = crate::prof::profiling();
        if !tracing && !profiled {
            return Scope { live: false, _thread_bound: PhantomData };
        }
        let detail = tracing.then(detail);
        let start = Instant::now();
        if tracing {
            crate::trace::start_epoch(start);
        }
        STATE.with(|state| {
            state.frames.borrow_mut().push(Frame { phase, start, child_ns: 0, profiled, detail });
        });
        Scope { live: true, _thread_bound: PhantomData }
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.live {
            return;
        }
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = STATE.try_with(|state| {
            let mut frames = state.frames.borrow_mut();
            let Some(frame) = frames.pop() else { return };
            let total_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if frame.profiled {
                if let Some(parent) = frames.iter_mut().rev().find(|f| f.profiled) {
                    parent.child_ns = parent.child_ns.saturating_add(total_ns);
                }
                // A `;` in a phase would corrupt the collapsed-stack output.
                let mut path = String::new();
                for f in frames.iter().filter(|f| f.profiled) {
                    path.push_str(&f.phase.replace(';', "_"));
                    path.push(';');
                }
                path.push_str(&frame.phase.replace(';', "_"));
                crate::prof::fold(path, total_ns, total_ns.saturating_sub(frame.child_ns));
            }
            if let Some(detail) = frame.detail {
                let ring = state.ring.get_or_init(crate::trace::register_thread);
                ring.push(TraceEvent {
                    name: frame.phase,
                    cat: frame.phase.split('.').next().unwrap_or(frame.phase),
                    detail,
                    ts_us: crate::trace::micros_since_epoch(frame.start),
                    dur_us: total_ns as f64 / 1e3,
                    tid: ring.tid,
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use std::fmt;
    use std::sync::atomic::{AtomicBool, Ordering};

    use crate::trace::{drain, TraceEvent};

    /// A detail argument that notes whether it was ever formatted.
    struct Watched<'a>(&'a AtomicBool);

    impl fmt::Display for Watched<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            self.0.store(true, Ordering::Relaxed);
            f.write_str("watched")
        }
    }

    /// Runs `body` with the given switches on a clean profile table and
    /// trace, returning the profile rows and the trace events it produced.
    fn run(
        trace: bool,
        profile: bool,
        body: impl FnOnce(),
    ) -> (crate::prof::ProfileSnapshot, Vec<TraceEvent>) {
        crate::prof::reset();
        drain();
        crate::set_enabled(trace);
        crate::prof::set_profiling(profile);
        body();
        crate::set_enabled(false);
        crate::prof::set_profiling(false);
        (crate::prof::snapshot(), drain().0)
    }

    #[test]
    fn neither_flag_records_nothing_and_never_formats_the_detail() {
        let _guard = crate::test_lock();
        let formatted = AtomicBool::new(false);
        let (profile, events) = run(false, false, || {
            let _s = crate::scope!("scopetest.off", "{}", Watched(&formatted));
        });
        assert!(profile.phases.is_empty(), "{profile:?}");
        assert!(events.iter().all(|e| e.name != "scopetest.off"), "{events:?}");
        assert!(!formatted.load(Ordering::Relaxed), "detail formatted while tracing was off");
    }

    #[test]
    fn trace_only_records_an_event_and_no_profile_row() {
        let _guard = crate::test_lock();
        let formatted = AtomicBool::new(false);
        let (profile, events) = run(true, false, || {
            let _s = crate::scope!("scopetest.trace", "{}", Watched(&formatted));
        });
        assert!(profile.phases.is_empty(), "{profile:?}");
        let event = events.iter().find(|e| e.name == "scopetest.trace").expect("event recorded");
        assert_eq!((event.cat, event.detail.as_str()), ("scopetest", "watched"));
        assert!(formatted.load(Ordering::Relaxed));
    }

    #[test]
    fn profile_only_records_a_row_and_no_event() {
        let _guard = crate::test_lock();
        let formatted = AtomicBool::new(false);
        let (profile, events) = run(false, true, || {
            let _s = crate::scope!("scopetest.profile", "{}", Watched(&formatted));
        });
        assert_eq!(profile.phases["scopetest.profile"].calls, 1, "{profile:?}");
        assert!(events.iter().all(|e| e.name != "scopetest.profile"), "{events:?}");
        assert!(!formatted.load(Ordering::Relaxed), "detail formatted while tracing was off");
    }

    #[test]
    fn both_flags_agree_on_name_category_and_duration() {
        let _guard = crate::test_lock();
        let (profile, events) = run(true, true, || {
            let _outer = crate::scope!("scopetest.outer");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _inner = crate::scope!("scopetest.inner", "n = {}", 7);
        });
        for (path, phase, detail) in [
            ("scopetest.outer", "scopetest.outer", ""),
            ("scopetest.outer;scopetest.inner", "scopetest.inner", "n = 7"),
        ] {
            let row = profile.phases[path];
            let event = events.iter().find(|e| e.name == phase).expect("event recorded");
            assert_eq!((event.cat, event.detail.as_str()), ("scopetest", detail));
            assert_eq!(row.calls, 1);
            assert_eq!((event.dur_us * 1e3).round() as u64, row.total_ns, "{path}");
        }
        assert!(profile.phases["scopetest.outer"].total_ns >= 1_000_000);
    }
}
