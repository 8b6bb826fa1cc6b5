//! A warm decision allocates nothing.
//!
//! The per-epoch decision path must fit a 10 µs epoch, and a heap
//! allocation on it is the first thing that breaks that. This binary
//! installs a global allocator that counts allocations per thread and
//! asserts that warm [`DecisionPlan::decide_slot`] calls (memo on and off)
//! and warm [`SsmdvfsGovernor`] decisions (audit off) make none, with the
//! metrics plane off and on. Compiling a plan does allocate, which shows
//! the counter is live.
//!
//! It is its own test binary because the allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gpu_sim::{CounterId, DvfsGovernor, EpochCounters, GpuConfig};
use ssmdvfs::{CombinedModel, DecisionPlan, SsmdvfsConfig, SsmdvfsGovernor};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The system allocator, counting every allocation and reallocation on
/// the calling thread.
struct Counting;

// SAFETY: every method forwards to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Phase-structured counters: runs of `phase_len` identical epochs, every
/// third phase starved (a kernel boundary), so a memo sees both hits and
/// misses and calibration both runs and pauses.
fn counters(epoch: usize, phase_len: usize) -> EpochCounters {
    let phase = epoch / phase_len;
    let starved = phase % 3 == 2;
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::TotalInstrs] = if starved { 150.0 } else { 3_000.0 + 450.0 * (phase % 7) as f64 };
    c[CounterId::StallEmpty] = if starved { 9_200.0 } else { 0.0 };
    c[CounterId::StallMemLoad] = 400.0 + 60.0 * (phase % 5) as f64;
    c[CounterId::PowerTotalW] = 4.0 + 0.3 * (phase % 4) as f64;
    c[CounterId::L1ReadMiss] = 25.0 + (phase % 9) as f64;
    c.recompute_derived();
    c
}

const WARM_DECISIONS: usize = 200;

#[test]
fn warm_decisions_allocate_nothing() {
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let config = SsmdvfsConfig::new(0.10);
    let epochs: Vec<EpochCounters> = (0..WARM_DECISIONS).map(|e| counters(e, 8)).collect();
    for obs_on in [false, true] {
        obs::set_enabled(obs_on);
        for memo in [true, false] {
            let mut plan = DecisionPlan::compile(&model, &config);
            plan.set_memo(memo);
            let mut slot = plan.new_slot();
            // Warm-up: one pass sizes the memo and registers the metrics.
            for c in &epochs {
                plan.decide_slot(&mut slot, c, table.len());
            }
            let mut hits = 0;
            let n = allocations(|| {
                for c in &epochs {
                    hits += usize::from(plan.decide_slot(&mut slot, c, table.len()).memo_hit);
                }
            });
            assert_eq!(n, 0, "decide_slot allocated (memo {memo}, obs {obs_on})");
            assert_eq!(hits > 0, memo, "memo {memo}: {hits} hits");
        }

        let mut governor = SsmdvfsGovernor::new(model.clone(), config.clone());
        let clusters = 4;
        for (e, c) in epochs.iter().enumerate() {
            governor.decide(e % clusters, c, &table);
        }
        let n = allocations(|| {
            for (e, c) in epochs.iter().enumerate() {
                governor.decide(e % clusters, c, &table);
            }
        });
        assert_eq!(n, 0, "SsmdvfsGovernor::decide allocated (obs {obs_on})");
    }
    obs::set_enabled(false);
}

#[test]
fn compiling_a_plan_allocates() {
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let config = SsmdvfsConfig::new(0.10);
    let n = allocations(|| {
        std::hint::black_box(DecisionPlan::compile(&model, &config));
    });
    assert!(n > 0, "the counter saw no allocation in DecisionPlan::compile");
}
