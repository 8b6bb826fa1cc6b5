//! Order-preserving parallel maps for embarrassingly parallel jobs.
//!
//! Data generation replays hundreds of independent millisecond-scale
//! simulation jobs ([`crate::generate_workload_jobs`]), and the benchmark
//! binaries fan governor comparisons out across benchmarks. Both funnel
//! through [`parallel_map_indexed`], a thin shell over the workspace's one
//! compute pool, [`tinynn::par::Pool`]: every call runs on a team sized to
//! its job count, each item is claimed by exactly one worker (the caller
//! included), and every result lands in its own output slot. Output order
//! always matches input order, which is what makes parallel data
//! generation byte-identical to the sequential path.

use std::panic::{catch_unwind, AssertUnwindSafe};

pub use tinynn::par::effective_jobs;
use tinynn::Pool;

/// A team for `items` work items: `jobs` workers (`0` = one per core), but
/// never more than there are items.
fn pool_for(jobs: usize, items: usize) -> Pool {
    Pool::new(effective_jobs(jobs).min(items.max(1)))
}

/// Maps `f` over `items` on up to `jobs` worker threads (`0` = one per
/// core), passing each item's input index alongside it. Results come back
/// in input order regardless of which worker ran which item.
///
/// # Panics
///
/// Propagates a panic from `f`: the first panicking item's payload is
/// resumed on the calling thread, so `panic!` messages and downcastable
/// payloads survive the pool intact. Items not yet started when a panic is
/// observed are skipped.
pub fn parallel_map_indexed<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    pool_for(jobs, items.len()).map(items, f)
}

/// Borrowing convenience over [`parallel_map_indexed`] for callers that
/// only need `&T`.
pub fn parallel_map_ref<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(jobs, (0..items.len()).collect(), |_, i| f(&items[i]))
}

/// Retry/drop policy for [`parallel_map_quarantine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// How many times a panicking work unit is re-queued before it is
    /// dropped. `2` means up to three attempts in total.
    pub max_retries: usize,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy { max_retries: 2 }
    }
}

/// One work unit that kept panicking past its retry budget and was dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Input index of the dropped unit.
    pub index: usize,
    /// Total attempts made (initial run plus retries).
    pub attempts: usize,
    /// The panic message of the final attempt.
    pub message: String,
}

/// What [`parallel_map_quarantine`] survived: how many panics were retried
/// and which units were dropped after exhausting their budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Total panic-triggered re-queues across all units.
    pub retries: u64,
    /// Units dropped after `max_retries` re-queues, in input order.
    pub dropped: Vec<FaultRecord>,
}

impl FaultReport {
    /// `true` when every unit completed (possibly after retries).
    pub fn is_clean(&self) -> bool {
        self.dropped.is_empty()
    }

    /// `true` when no unit panicked at all.
    pub fn is_empty(&self) -> bool {
        self.retries == 0 && self.dropped.is_empty()
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} retries, {} dropped units", self.retries, self.dropped.len())?;
        for rec in &self.dropped {
            write!(f, "\n  unit #{} after {} attempts: {}", rec.index, rec.attempts, rec.message)?;
        }
        Ok(())
    }
}

/// Best-effort stringification of a panic payload for [`FaultRecord`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Fault-tolerant variant of [`parallel_map_indexed`]: a panicking work
/// unit is quarantined and retried in the next round — a fresh attempt, its
/// previous attempt's stack fully unwound — up to `policy.max_retries`
/// times, then dropped with a logged warning instead of aborting the sweep.
/// Each round maps the still-failing units over one team. The caller gets
/// `None` in the dropped unit's slot plus a [`FaultReport`] naming every
/// casualty — the sweep itself always completes.
///
/// The closure takes `&T` (not `T`) precisely so a unit survives its own
/// panic and can be retried.
pub fn parallel_map_quarantine<T, R, F>(
    jobs: usize,
    items: &[T],
    policy: FaultPolicy,
    f: F,
) -> (Vec<Option<R>>, FaultReport)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let pool = pool_for(jobs, items.len());
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let mut report = FaultReport::default();
    let mut pending: Vec<usize> = (0..items.len()).collect();
    let mut attempts = 0;
    while !pending.is_empty() {
        attempts += 1;
        let outcomes =
            pool.map(pending, |_, i| (i, catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))));
        pending = Vec::new();
        // Outcomes arrive in ascending index order, so `dropped` does too.
        for (i, outcome) in outcomes {
            match outcome {
                Ok(r) => results[i] = Some(r),
                Err(_) if attempts <= policy.max_retries => {
                    report.retries += 1;
                    pending.push(i);
                }
                Err(payload) => report.dropped.push(FaultRecord {
                    index: i,
                    attempts,
                    message: panic_message(payload.as_ref()),
                }),
            }
        }
    }
    obs::counter!("exec.quarantine_retries").inc(report.retries);
    obs::counter!("exec.quarantine_dropped").inc(report.dropped.len() as u64);
    for rec in &report.dropped {
        obs::warn!(
            "exec: dropped work unit #{} after {} attempts: {}",
            rec.index,
            rec.attempts,
            rec.message
        );
    }
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let out = parallel_map_indexed(4, (0..257).collect::<Vec<u64>>(), |i, x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..257).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map_ref(8, &vec![1usize; 100], |&x| {
            counter.fetch_add(x, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn sequential_fallbacks_match_parallel() {
        let items: Vec<usize> = (0..40).collect();
        let seq = parallel_map_indexed(1, items.clone(), |i, x| i + x);
        let par = parallel_map_indexed(0, items, |i, x| i + x);
        assert_eq!(seq, par);
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn worker_panic_payload_reaches_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(4, (0..64).collect::<Vec<u32>>(), |_, x| {
                if x == 17 {
                    panic!("job {x} exploded");
                }
                x
            })
        });
        let payload = result.expect_err("the worker panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the original String payload must survive the pool");
        assert_eq!(msg, "job 17 exploded");
    }

    #[test]
    fn static_str_panic_payload_survives() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(2, vec![0u8, 1], |_, _| panic!("boom"))
        });
        let payload = result.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u8> = parallel_map_indexed(4, Vec::<u8>::new(), |_, x| x);
        assert!(empty.is_empty());
        let one = parallel_map_indexed(4, vec![9u8], |i, x| x + i as u8);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn quarantine_without_faults_matches_plain_map() {
        let items: Vec<u64> = (0..100).collect();
        let (out, report) =
            parallel_map_quarantine(4, &items, FaultPolicy::default(), |i, &x| i as u64 + x);
        assert!(report.is_empty(), "no panics: {report}");
        let expected: Vec<Option<u64>> = (0..100).map(|x| Some(2 * x)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn quarantine_retries_a_transient_panic_to_success() {
        let failures_left = AtomicUsize::new(2);
        let items: Vec<usize> = (0..64).collect();
        let (out, report) =
            parallel_map_quarantine(4, &items, FaultPolicy { max_retries: 2 }, |_, &x| {
                if x == 13
                    && failures_left
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_ok()
                {
                    panic!("transient fault");
                }
                x * 10
            });
        assert!(report.is_clean(), "unit recovered on retry: {report}");
        assert_eq!(report.retries, 2);
        assert_eq!(out[13], Some(130));
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn quarantine_drops_a_persistent_panicker_and_finishes() {
        let items: Vec<usize> = (0..64).collect();
        let (out, report) =
            parallel_map_quarantine(4, &items, FaultPolicy { max_retries: 1 }, |_, &x| {
                if x == 7 {
                    panic!("unit {x} always explodes");
                }
                x
            });
        assert_eq!(report.dropped.len(), 1);
        let rec = &report.dropped[0];
        assert_eq!(rec.index, 7);
        assert_eq!(rec.attempts, 2, "initial run plus one retry");
        assert!(rec.message.contains("always explodes"));
        assert_eq!(report.retries, 1);
        assert!(out[7].is_none(), "the dropped unit's slot stays empty");
        assert_eq!(out.iter().filter(|r| r.is_some()).count(), 63);
    }

    #[test]
    fn quarantine_sequential_path_matches_parallel() {
        let items: Vec<usize> = (0..20).collect();
        let fail = |_: usize, &x: &usize| {
            if x == 3 {
                panic!("nope");
            }
            x + 1
        };
        let (seq, seq_report) =
            parallel_map_quarantine(1, &items, FaultPolicy { max_retries: 1 }, fail);
        let (par, par_report) =
            parallel_map_quarantine(4, &items, FaultPolicy { max_retries: 1 }, fail);
        assert_eq!(seq, par);
        assert_eq!(seq_report.dropped, par_report.dropped);
    }
}
