//! The workspace's one compute pool: a persistent worker team.
//!
//! Every fan-out of the offline flow runs here: the minibatch gradient
//! shards of SGD (every ~100 µs, far too often to pay thread spawn/join per
//! batch), the per-column permutation importance of each RFE round, and —
//! through `ssmdvfs::exec` — every (benchmark, breakpoint, operating point)
//! replay of data generation. [`Pool`] keeps its workers alive across an
//! entire training run — and across the dozens of retrains of an RFE or
//! compression sweep — and hands them work through a generation counter:
//! the caller publishes a task, bumps the generation, and every worker
//! (plus the caller itself) claims shard indices from a shared atomic until
//! none remain. [`Pool::run`] is that primitive; [`Pool::map`] builds an
//! ordered, fail-fast map over owned items on top of it.
//!
//! Workers spin briefly on the generation counter before sleeping on a
//! condvar, so the wake latency between two back-to-back batches (separated
//! only by an optimizer step) is a few loads, not a scheduler round-trip.
//! A team with more threads than the host has cores never spins: there a
//! spinning worker would hold the core a working thread needs.
//!
//! Determinism is not this module's concern — shard *scheduling* is free to
//! vary run to run. Callers guarantee byte-identical results by deriving
//! the shard count from the data alone (the training loops: from the batch
//! size) and combining results in fixed index order; the pool only decides
//! which thread computes which shard, never what is computed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Iterations a worker spins on the generation counter before falling back
/// to a condvar sleep. Sized to cover the optimizer-step gap between two
/// batches of the paper-scale models (tens of microseconds).
const SPIN_ITERS: u32 = 1 << 14;

/// A lifetime-erased pointer to the caller's shard task. Protocol: the
/// pointer is published under the state mutex and never dereferenced after
/// [`Pool::run`] returns (run blocks until every shard completed), so
/// the erased borrow is always live while workers hold it.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls are safe) and the run/join
// protocol above keeps it alive for as long as any worker can touch it.
unsafe impl Send for TaskPtr {}

struct TeamState {
    /// Bumped once per `run`; workers execute a generation exactly once.
    generation: u64,
    /// Shard count of the current generation.
    shards: usize,
    /// The current generation's task, if one is in flight.
    task: Option<TaskPtr>,
    /// Shards finished so far in the current generation.
    completed: usize,
    /// First panic payload raised by a shard, resumed by the caller.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct Inner {
    state: Mutex<TeamState>,
    /// Wakes sleeping workers when a generation is published or on
    /// shutdown.
    wake: Condvar,
    /// Wakes the caller when the last shard of a generation completes.
    done: Condvar,
    /// Mirror of `state.generation` for the workers' lock-free spin wait.
    generation: AtomicU64,
    /// Mirror of `state.shutdown`, likewise.
    shutdown: AtomicBool,
    /// Iterations a waiting worker spins before sleeping: [`SPIN_ITERS`],
    /// or 0 when the team outnumbers the host's cores.
    spin_iters: u32,
    /// Claim word: the current generation (truncated) in the high 32 bits,
    /// the next unclaimed shard index in the low 32. Tagging claims with
    /// the generation makes a stale worker — one that grabbed generation
    /// G's task pointer and was then scheduled out past the end of G —
    /// fail its claim CAS instead of executing G's (now dangling) task
    /// against a newer generation's indices.
    next: AtomicU64,
}

/// High half of the claim word: the generation tag.
const CLAIM_GEN_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The claim word at which generation `generation` starts (index 0).
fn claim_base(generation: u64) -> u64 {
    (generation as u32 as u64) << 32
}

/// Resolves a requested worker count: `0` means "one per available core".
pub fn effective_jobs(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// How long a worker of a `jobs`-thread team spins before sleeping on a
/// host with `cores` cores: [`SPIN_ITERS`] if the team fits, else never.
fn spin_iters(jobs: usize, cores: usize) -> u32 {
    if jobs <= cores {
        SPIN_ITERS
    } else {
        0
    }
}

/// A persistent thread team (see the module docs). `jobs = 1` is the serial
/// mode: no threads are spawned and [`Pool::run`] executes every shard
/// inline, which is also the code path the determinism proptests compare
/// the parallel schedules against.
pub struct Pool {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    jobs: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool").field("jobs", &self.jobs).finish()
    }
}

impl Pool {
    /// A team of `jobs` workers ([`effective_jobs`]: `0` = one per core).
    /// The calling thread participates in every run, so `jobs - 1` threads
    /// are spawned. Workers spin before sleeping only if the team fits the
    /// host's cores (`available_parallelism`).
    pub fn new(jobs: usize) -> Pool {
        let jobs = effective_jobs(jobs);
        let spin_iters = if jobs > 1 { spin_iters(jobs, effective_jobs(0)) } else { 0 };
        let inner = Arc::new(Inner {
            state: Mutex::new(TeamState {
                generation: 0,
                shards: 0,
                task: None,
                completed: 0,
                panic: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            generation: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            spin_iters,
            next: AtomicU64::new(0),
        });
        let workers = (1..jobs)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tinynn-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawning a pool worker must succeed")
            })
            .collect();
        Pool { inner, workers, jobs }
    }

    /// The serial pool: no threads, every shard runs inline on the caller.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// Worker count (including the calling thread).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` across the team, passing each item's input
    /// index alongside it, and returns the results in input order whichever
    /// worker ran which item. Each item is moved into its task exactly once
    /// and each result is written into its own slot.
    ///
    /// # Panics
    ///
    /// Fails fast: once an item panics, items not yet started are skipped
    /// (and dropped unrun), and the first panic payload is resumed on the
    /// caller, so `panic!` messages and downcastable payloads survive the
    /// pool intact. The pool itself stays usable.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let count = items.len();
        // One slot per index: `run` hands every index to exactly one task,
        // so each lock is taken uncontended, once to move the item out and
        // once to store its result.
        let inputs: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let outputs: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();
        // A hint that publishes no data (payloads travel through `run`), so
        // Relaxed suffices.
        let failed = AtomicBool::new(false);
        self.run(count, &|i| {
            if failed.load(Ordering::Relaxed) {
                return;
            }
            let item = inputs[i]
                .lock()
                .expect("no task panics while holding an input slot")
                .take()
                .expect("run hands each index to exactly one task");
            match panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                Ok(r) => {
                    *outputs[i].lock().expect("no task panics while holding an output slot") =
                        Some(r);
                }
                Err(payload) => {
                    failed.store(true, Ordering::Relaxed);
                    panic::resume_unwind(payload);
                }
            }
        });
        obs::counter!("exec.tasks_executed").inc(count as u64);
        outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("no task panics while holding an output slot")
                    .expect("without a panic every task stores its result")
            })
            .collect()
    }

    /// Executes `task(0..shards)` across the team and blocks until every
    /// shard has finished. Shards may run in any order on any worker; the
    /// caller claims shards too. Panics from shards are caught, counted as
    /// completed (so the team never deadlocks) and the first payload is
    /// re-raised here once the generation drains.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any shard raised.
    pub fn run(&self, shards: usize, task: &(dyn Fn(usize) + Sync)) {
        if self.workers.is_empty() || shards <= 1 {
            for i in 0..shards {
                task(i);
            }
            return;
        }
        // Erase the borrow's lifetime; `run` does not return until every
        // worker is done with the pointer (see TaskPtr).
        let ptr = task as *const (dyn Fn(usize) + Sync);
        #[allow(clippy::missing_transmute_annotations)]
        let ptr: TaskPtr = TaskPtr(unsafe { std::mem::transmute(ptr) });
        let generation;
        {
            let mut st = self.inner.state.lock().expect("pool state");
            debug_assert!(st.task.is_none(), "Pool::run is not reentrant");
            st.task = Some(ptr);
            st.shards = shards;
            st.completed = 0;
            st.panic = None;
            st.generation += 1;
            generation = st.generation;
            // The claim word must be re-armed before the generation becomes
            // visible to spinning workers (Release pairs with their Acquire
            // load of `generation`).
            self.inner.next.store(claim_base(generation), Ordering::Release);
            self.inner.generation.store(generation, Ordering::Release);
        }
        self.inner.wake.notify_all();
        claim_shards(&self.inner, task, shards, generation);
        let mut st = self.inner.state.lock().expect("pool state");
        while st.completed < st.shards {
            st = self.inner.done.wait(st).expect("pool state");
        }
        st.task = None;
        let payload = st.panic.take();
        drop(st);
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().expect("pool state");
            st.shutdown = true;
            self.inner.shutdown.store(true, Ordering::Release);
        }
        self.inner.wake.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Claims and executes shard indices of `generation` until none remain (or
/// the pool has moved to a newer generation), recording completions (and
/// the first panic) in the shared state. The generation-tagged CAS is what
/// keeps `task` safe to call: an index below `shards` can only be claimed
/// while its generation is still in flight, and `run` cannot return (and
/// so the task cannot die) until every claimed index is counted complete.
fn claim_shards(inner: &Inner, task: &(dyn Fn(usize) + Sync), shards: usize, generation: u64) {
    let base = claim_base(generation);
    let mut cur = inner.next.load(Ordering::Acquire);
    loop {
        let i = loop {
            if cur & CLAIM_GEN_MASK != base {
                // A newer generation re-armed the claim word; `task` may be
                // gone — never dereference it again.
                return;
            }
            match inner.next.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break (cur & !CLAIM_GEN_MASK) as usize,
                Err(actual) => cur = actual,
            }
        };
        cur += 1;
        if i >= shards {
            return;
        }
        let result = panic::catch_unwind(AssertUnwindSafe(|| task(i)));
        let mut st = inner.state.lock().expect("pool state");
        if let Err(p) = result {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.completed += 1;
        if st.completed == st.shards {
            inner.done.notify_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    let mut seen = 0u64;
    loop {
        // Fast path: spin on the atomic mirrors so a batch that arrives
        // right after the previous one (the common training cadence) is
        // picked up without a scheduler wake.
        let mut spins = 0u32;
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
            if inner.generation.load(Ordering::Acquire) != seen || spins >= inner.spin_iters {
                break;
            }
            spins += 1;
            std::hint::spin_loop();
        }
        let (task, shards) = {
            let mut st = inner.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen {
                    seen = st.generation;
                    match st.task {
                        Some(t) => break (t, st.shards),
                        // The generation already drained (caller finished
                        // every shard before this worker woke); skip it.
                        None => continue,
                    }
                }
                st = inner.wake.wait(st).expect("pool state");
            }
        };
        // SAFETY: generation-tagged claims (see `claim_shards`) ensure the
        // pointer is only dereferenced while its generation is in flight,
        // and the caller blocks in `run` until every claimed shard is
        // counted complete — so the pointee outlives every use.
        let task = unsafe { &*task.0 };
        claim_shards(inner, task, shards, seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Pool::serial();
        assert_eq!(pool.jobs(), 1);
        let hits = AtomicU32::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = Pool::new(4);
        for shards in [1usize, 2, 3, 7, 16, 64] {
            let marks: Vec<AtomicU32> = (0..shards).map(|_| AtomicU32::new(0)).collect();
            pool.run(shards, &|s| {
                marks[s].fetch_add(1, Ordering::Relaxed);
            });
            for (s, m) in marks.iter().enumerate() {
                assert_eq!(m.load(Ordering::Relaxed), 1, "shard {s} of {shards}");
            }
        }
    }

    #[test]
    fn many_generations_back_to_back() {
        // The cadence of a real training run: hundreds of tiny fan-outs
        // with no pause in between.
        let pool = Pool::new(3);
        let total = AtomicU32::new(0);
        for _ in 0..500 {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 4_000);
    }

    #[test]
    fn shard_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|s| {
                if s == 2 {
                    panic!("shard exploded");
                }
            });
        }));
        let payload = caught.expect_err("the shard panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "shard exploded");
        // The team stays usable after a panicked generation.
        let hits = AtomicU32::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn only_a_team_that_fits_the_host_spins() {
        assert_eq!(spin_iters(2, 2), SPIN_ITERS);
        assert_eq!(spin_iters(1, 8), SPIN_ITERS);
        assert_eq!(spin_iters(3, 2), 0);
        assert_eq!(spin_iters(8, 1), 0);
        // An oversubscribed team still runs every shard, sleeping between
        // generations instead of spinning.
        let pool = Pool::new(effective_jobs(0) + 1);
        assert_eq!(pool.inner.spin_iters, 0);
        let total = AtomicU32::new(0);
        for _ in 0..50 {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 400);
    }

    #[test]
    fn zero_jobs_means_one_per_core() {
        let pool = Pool::new(0);
        assert!(pool.jobs() >= 1);
        let hits = AtomicU32::new(0);
        pool.run(10, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn map_returns_results_in_input_order() {
        let pool = Pool::new(3);
        let out = pool.map((0..1_000u64).collect(), |i, x| {
            assert_eq!(i as u64, x);
            x * 7
        });
        assert_eq!(out, (0..1_000).map(|x| x * 7).collect::<Vec<_>>());
    }

    /// An owned, non-`Clone` item that counts its drops.
    struct Tracked<'a> {
        id: usize,
        drops: &'a AtomicU32,
    }

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn map_moves_each_item_exactly_once() {
        let drops = AtomicU32::new(0);
        let calls: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        let items = (0..200).map(|id| Tracked { id, drops: &drops }).collect();
        let out = Pool::new(4).map(items, |i, item: Tracked<'_>| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            item.id
        });
        assert_eq!(out, (0..200).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(drops.load(Ordering::Relaxed), 200, "each item dropped once, by its task");

        // Fail-fast on the serial pool: the items after the panicking one
        // never run, and are still dropped exactly once.
        drops.store(0, Ordering::Relaxed);
        let ran = AtomicU32::new(0);
        let items: Vec<Tracked<'_>> = (0..10).map(|id| Tracked { id, drops: &drops }).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            Pool::serial().map(items, |_, item| {
                ran.fetch_add(1, Ordering::Relaxed);
                assert_ne!(item.id, 3, "item 3 fails");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 4, "items 4.. are skipped");
        assert_eq!(drops.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn map_panic_payload_reaches_caller_and_pool_survives() {
        let pool = Pool::new(3);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..64u32).collect(), |_, x| {
                if x == 17 {
                    panic!("item {x} exploded");
                }
                x
            })
        }));
        let payload = caught.expect_err("the item panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("the original String payload");
        assert_eq!(msg, "item 17 exploded");
        assert_eq!(pool.map(vec![1u32, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
        let hits = AtomicU32::new(0);
        pool.run(5, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn run_map_run_rounds_share_one_team() {
        // RFE's cadence: each round retrains (`run`), fans the importance
        // evaluations out (`map`), and the next round retrains again.
        let pool = Pool::new(2);
        for round in 0..50u32 {
            let hits = AtomicU32::new(0);
            pool.run(8, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            let scores = pool.map((0..10u32).collect(), |_, c| c * round);
            assert_eq!(scores, (0..10).map(|c| c * round).collect::<Vec<_>>());
            pool.run(8, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 16);
        }
    }
}
