//! The streaming-multiprocessor core: warp scheduling and the cycle loop.
//!
//! Each cluster contains one SM (matching the paper's 24-cluster Titan X
//! setup, where DVFS is applied per cluster). The SM keeps a pool of
//! resident warps fed from a queue of pending CTAs, and each core cycle a
//! greedy-then-oldest scheduler issues up to `issue_width` instructions
//! from ready warps. Cycles in which nothing can issue are attributed to a
//! stall cause — the raw material of the paper's execution-stall counters.
//!
//! The default engine is event-driven. Ready warps live in a bitset over
//! warp slots, and the live and per-cause waiting counts are updated as
//! warps launch, issue, wake, pass a barrier and retire. Waiting warps live
//! in a wake wheel indexed by the epoch's cycle number: a warp wakes on the
//! first cycle whose start reaches its wake time, pipeline and L1 waits are
//! whole core cycles, and only L2 and DRAM latencies (on the memory clock)
//! need a division to find that cycle. Each of the wheel's [`WHEEL`]
//! buckets is a bitset of the warps that wake on one cycle, an occupancy
//! bitmap with a summary word finds the next non-empty bucket in O(1), a
//! small heap holds the rare waits beyond the wheel's horizon, and a wait
//! that ends after the epoch's last cycle gets no entry at all. A cycle
//! therefore costs O(issues + wakes) instead of a scan of every resident
//! warp, and a cycle in which nothing can issue jumps straight to the next
//! wake-up. Slots are always in age order (CTAs are appended with
//! increasing ages and retired with an order-preserving `retain`), so
//! greedy-then-oldest is "the last-issued warp if it is ready, then the
//! lowest ready slots". This scheduling state is derived, not persisted:
//! it is rebuilt from the warps when an epoch starts and after a CTA
//! retires (retirement shifts slot indices), so neither an [`SmCore`] nor
//! its snapshots carry it. [`EngineMode::NaiveTick`] keeps the per-cycle
//! scan of every warp as the reference the equivalence tests compare
//! against.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::counters::{CounterId, EpochCounters};
use crate::isa::{InstrClass, LatencyTable};
use crate::kernel::KernelSpec;
use crate::memory::{ClusterMemory, MemLevel};
use crate::time::Time;
use crate::warp::{WaitCause, Warp, WarpState};

/// Which cycle loop runs an epoch.
///
/// Both engines produce bit-identical counters, epoch records and results:
/// `crates/gpu-sim/tests/engine_equivalence.rs` checks them against each
/// other on random workloads, and `tests/sim_golden.rs` checks both against
/// digests of the evaluation programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EngineMode {
    /// Reference engine: every core cycle, scan every resident warp to wake
    /// sleepers, count stall causes and rank issue candidates, and tick one
    /// cycle at a time. It exists to check the default engine against.
    NaiveTick,
    /// The event-driven engine every run uses: a ready set and a wake wheel
    /// indexed by cycle replace the scan, and when nothing can issue the
    /// loop jumps straight to the earliest wake-up (or the end of the epoch
    /// when no warp wakes before it).
    #[default]
    CycleSkip,
}

/// Result of running one epoch on an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// Warp-instructions retired during the epoch.
    pub instructions: u64,
    /// Absolute time at which the SM ran out of work, if it did.
    pub finished_at: Option<Time>,
    /// Stall cycles accounted for in bulk instead of being ticked
    /// individually (always zero under [`EngineMode::NaiveTick`]).
    pub skipped_cycles: u64,
}

/// One SM's execution state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmCore {
    kernel: Option<Arc<KernelSpec>>,
    kernel_seed: u64,
    warps: Vec<Warp>,
    pending_ctas: VecDeque<u64>,
    max_warps: usize,
    issue_width: usize,
    next_age: u64,
    last_issued_age: u64,
    finish_time: Option<Time>,
}

/// The cycle grid of one epoch.
#[derive(Debug, Clone, Copy)]
struct Clock {
    start: Time,
    cycles: u64,
    period_ps: u64,
}

impl Clock {
    /// Start time of cycle `c`.
    fn at(self, c: u64) -> Time {
        self.start + Time::from_ps(c * self.period_ps)
    }

    /// The first cycle whose start reaches `t` (0 for a time before the
    /// epoch).
    fn cycle_of(self, t: Time) -> u64 {
        t.saturating_sub(self.start).as_ps().div_ceil(self.period_ps)
    }
}

/// How long an issued instruction keeps its warp from issuing again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hold {
    /// A pipeline, shared-memory, global-store or L1-hit wait of whole
    /// core cycles.
    Cycles(u32),
    /// An L2 or DRAM access of this latency on the memory clock.
    Memory(Time),
}

impl Hold {
    /// Cycles of period `period_ps` from the issuing cycle to the one the
    /// warp wakes on. A zero wait still ends on the next cycle, because a
    /// cycle's wake-ups are taken before it issues.
    fn cycles(self, period_ps: u64) -> u64 {
        match self {
            Hold::Cycles(n) => u64::from(n),
            Hold::Memory(latency) => latency.as_ps().div_ceil(period_ps),
        }
        .max(1)
    }
}

/// Per-epoch sums that become averaged counters when the epoch ends.
#[derive(Debug, Default)]
struct Tally {
    mem_lat_sum_ns: f64,
    mem_lat_count: u64,
    occupancy_sum: u128,
    skipped: u64,
}

impl Tally {
    /// Occupancy and activity of one cycle, whether or not it issues.
    fn cycle(&mut self, census: Census, counters: &mut EpochCounters) {
        self.occupancy_sum += census.live as u128;
        if census.live > 0 {
            counters[CounterId::ActiveCycles] += 1.0;
        }
    }
}

/// Live warps at the start of a cycle and, among them, those waiting on
/// each cause: all that the stall attribution of the cycle reads.
#[derive(Debug, Default, Clone, Copy)]
struct Census {
    live: u32,
    load: u32,
    store: u32,
    ctrl: u32,
    exec: u32,
}

impl Census {
    /// The count of warps waiting on `cause`.
    fn waiting(&mut self, cause: WaitCause) -> &mut u32 {
        match cause {
            WaitCause::MemLoad => &mut self.load,
            WaitCause::MemStore => &mut self.store,
            WaitCause::Control => &mut self.ctrl,
            WaitCause::Exec => &mut self.exec,
        }
    }

    /// Marks the waiting `warp` ready and stops counting it as waiting.
    fn wake(&mut self, warp: &mut Warp) {
        let WarpState::Waiting { cause, .. } = warp.state else {
            unreachable!("only waiting warps are scheduled to wake")
        };
        *self.waiting(cause) -= 1;
        warp.state = WarpState::Ready;
    }

    /// The counter a cycle in which nothing issues is charged to.
    fn stall_cause(&self) -> CounterId {
        if self.live == 0 {
            CounterId::StallEmpty
        } else if self.load > 0 {
            CounterId::StallMemLoad
        } else if self.store > 0 {
            CounterId::StallMemOther
        } else if self.ctrl > 0 {
            CounterId::StallControl
        } else if self.exec > 0 {
            CounterId::StallDataDep
        } else {
            // Every live warp is at a barrier; release is immediate on
            // parking, so this indicates a logic error.
            debug_assert!(false, "all warps at barrier without release");
            CounterId::StallBarrier
        }
    }
}

/// Buckets in the wake wheel: waits of up to this many cycles are bucketed
/// by cycle and longer ones go to the overflow heap. Almost every wait is a
/// few dozen cycles; the longest are DRAM accesses queued behind a busy
/// channel.
const WHEEL: usize = 1024;
/// Occupancy words of the wheel, one bit per bucket; the summary word has
/// one bit per occupancy word.
const OCC_WORDS: usize = WHEEL / 64;
const _: () = assert!(WHEEL.is_power_of_two() && OCC_WORDS <= 64);

/// The event-driven engine's scheduling state, derived from the warps.
///
/// A waiting warp that wakes on cycle `w` of the epoch sits in bucket
/// `w % WHEEL` if `w` is less than [`WHEEL`] cycles after the first cycle
/// still to run when it was scheduled, in the overflow heap if it is later
/// than that, and nowhere if `w` is past the epoch's last cycle (the next
/// epoch's rebuild schedules it). Buckets drain on their cycle, so the
/// wheel only ever holds wake-ups of the next [`WHEEL`] cycles and no two
/// of them share a bucket.
#[derive(Debug)]
struct Sched {
    /// Bit `i` is set when `warps[i]` is ready.
    ready: Vec<u64>,
    /// `ready.len()` words per bucket: bucket `b` is
    /// `buckets[b * words..(b + 1) * words]`, a bitset of waking slots.
    buckets: Vec<u64>,
    /// Bit `b` is set when bucket `b` is non-empty.
    occupied: [u64; OCC_WORDS],
    /// Bit `i` is set when `occupied[i]` is non-zero.
    summary: u64,
    /// `(wake cycle, slot)` of waits beyond the wheel, earliest on top.
    overflow: BinaryHeap<Reverse<(u64, usize)>>,
    census: Census,
    /// Slot of the last-issued warp while it is resident.
    last: Option<usize>,
}

impl Sched {
    fn new(max_warps: usize) -> Sched {
        let words = max_warps.div_ceil(64);
        Sched {
            ready: vec![0; words],
            buckets: vec![0; WHEEL * words],
            occupied: [0; OCC_WORDS],
            summary: 0,
            overflow: BinaryHeap::new(),
            census: Census::default(),
            last: None,
        }
    }

    /// Rebuilds the state from `warps`, whose slot indices may have moved,
    /// when `from` is the first cycle of `clock` still to run.
    fn rebuild(&mut self, warps: &[Warp], last_issued_age: u64, clock: Clock, from: u64) {
        debug_assert!(warps.windows(2).all(|w| w[0].age < w[1].age), "slots are in age order");
        self.ready.fill(0);
        let words = self.ready.len();
        for (i, &occ) in self.occupied.iter().enumerate() {
            let mut bits = occ;
            while bits != 0 {
                let b = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.buckets[b * words..(b + 1) * words].fill(0);
            }
        }
        self.occupied = [0; OCC_WORDS];
        self.summary = 0;
        self.overflow.clear();
        self.census = Census::default();
        for (i, w) in warps.iter().enumerate() {
            match w.state {
                WarpState::Ready => self.set_ready(i),
                WarpState::Waiting { until, cause } => {
                    let wake = clock.cycle_of(until).max(from);
                    self.wait(i, wake, cause, from, clock.cycles);
                }
                WarpState::AtBarrier => {}
                WarpState::Finished => continue,
            }
            self.census.live += 1;
        }
        self.last = warps.binary_search_by_key(&last_issued_age, |w| w.age).ok();
    }

    fn set_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    fn clear_ready(&mut self, slot: usize) {
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    fn is_ready(&self, slot: usize) -> bool {
        self.ready[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Counts warp `slot` as waiting on `cause` and schedules it to wake
    /// on cycle `wake` of an epoch of `cycles` cycles, where `from <= wake`
    /// is the first cycle still to run.
    fn wait(&mut self, slot: usize, wake: u64, cause: WaitCause, from: u64, cycles: u64) {
        debug_assert!(wake >= from, "a warp cannot wake in a cycle that has run");
        *self.census.waiting(cause) += 1;
        if wake >= cycles {
            return;
        }
        if wake - from >= WHEEL as u64 {
            self.overflow.push(Reverse((wake, slot)));
            return;
        }
        let b = wake as usize % WHEEL;
        self.buckets[b * self.ready.len() + slot / 64] |= 1 << (slot % 64);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.summary |= 1 << (b / 64);
    }

    /// Wakes every warp scheduled for cycle `c`: marks it ready in `warps`
    /// and here, and takes it out of the waiting counts.
    fn wake_due(&mut self, c: u64, warps: &mut [Warp]) {
        let b = c as usize % WHEEL;
        let (word, bit) = (b / 64, 1 << (b % 64));
        if self.occupied[word] & bit != 0 {
            self.occupied[word] &= !bit;
            if self.occupied[word] == 0 {
                self.summary &= !(1 << word);
            }
            let words = self.ready.len();
            for w in 0..words {
                let mut bits = std::mem::take(&mut self.buckets[b * words + w]);
                self.ready[w] |= bits;
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.census.wake(&mut warps[slot]);
                }
            }
        }
        while let Some(&Reverse((wake, slot))) = self.overflow.peek() {
            if wake > c {
                break;
            }
            self.overflow.pop();
            self.set_ready(slot);
            self.census.wake(&mut warps[slot]);
        }
    }

    /// The earliest cycle after `c` on which a scheduled warp wakes, once
    /// cycle `c`'s wake-ups have been taken.
    fn next_wake(&self, c: u64) -> Option<u64> {
        let later = self.overflow.peek().map(|&Reverse((wake, _))| wake);
        if self.summary == 0 {
            return later;
        }
        // The wheel holds cycles c + 1 ..= c + WHEEL; search its buckets
        // in that order, from bucket (c + 1) % WHEEL round to c % WHEEL.
        let start = (c + 1) as usize % WHEEL;
        let word = start / 64;
        let rest = self.occupied[word] & (!0 << (start % 64));
        let b = if rest != 0 {
            word * 64 + rest.trailing_zeros() as usize
        } else {
            let after = self.summary & (!1 << word);
            let w = if after != 0 { after } else { self.summary }.trailing_zeros() as usize;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        let wheel = c + 1 + (b.wrapping_sub(start) % WHEEL) as u64;
        Some(later.map_or(wheel, |l| l.min(wheel)))
    }

    /// Fills `picks` with up to `width` ready slots in greedy-then-oldest
    /// order: the last-issued warp first, then the lowest (oldest) slots.
    fn pick(&self, width: usize, picks: &mut Vec<usize>) {
        picks.clear();
        if let Some(last) = self.last.filter(|&l| self.is_ready(l)) {
            picks.push(last);
        }
        for (w, &word) in self.ready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                if picks.len() == width {
                    return;
                }
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if Some(slot) != self.last {
                    picks.push(slot);
                }
            }
        }
    }
}

impl SmCore {
    /// Creates an idle SM with capacity for `max_warps` resident warps that
    /// issues up to `issue_width` instructions per cycle.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(max_warps: usize, issue_width: usize) -> SmCore {
        assert!(max_warps > 0, "an SM needs at least one warp slot");
        assert!(issue_width > 0, "issue width must be positive");
        SmCore {
            kernel: None,
            kernel_seed: 0,
            warps: Vec::with_capacity(max_warps),
            pending_ctas: VecDeque::new(),
            max_warps,
            issue_width,
            next_age: 0,
            last_issued_age: 0,
            finish_time: None,
        }
    }

    /// Assigns a kernel and the CTA ids this SM is responsible for.
    ///
    /// # Panics
    ///
    /// Panics if the SM still has resident warps, if a single CTA needs
    /// more warp slots than the SM has, or if an id appears twice.
    pub fn assign_kernel(
        &mut self,
        kernel: impl Into<Arc<KernelSpec>>,
        cta_ids: Vec<u64>,
        seed: u64,
    ) {
        let kernel: Arc<KernelSpec> = kernel.into();
        assert!(self.warps.is_empty(), "cannot assign a kernel to a busy SM");
        assert!(
            kernel.warps_per_cta() <= self.max_warps,
            "kernel '{}' needs {} warps per CTA but the SM holds only {}",
            kernel.name(),
            kernel.warps_per_cta(),
            self.max_warps
        );
        let mut sorted = cta_ids.clone();
        sorted.sort_unstable();
        assert!(sorted.windows(2).all(|w| w[0] != w[1]), "CTA ids must be distinct");
        self.kernel = Some(kernel);
        self.kernel_seed = seed;
        self.pending_ctas = cta_ids.into();
        self.finish_time = None;
    }

    /// Returns `true` when the SM has no resident warps and no pending CTAs.
    pub fn is_idle(&self) -> bool {
        self.warps.is_empty() && self.pending_ctas.is_empty()
    }

    /// The absolute time the SM most recently ran out of work.
    pub fn finish_time(&self) -> Option<Time> {
        self.finish_time
    }

    /// Number of currently resident (live or finished-but-unretired) warps.
    pub fn resident_warps(&self) -> usize {
        self.warps.len()
    }

    /// Launches pending CTAs while their warps fit. A CTA's warps take
    /// consecutive slots, so with distinct CTA ids every resident CTA
    /// occupies the slots `[k * wpc, (k + 1) * wpc)` for some `k`.
    fn launch_ctas(&mut self) {
        let Some(kernel) = &self.kernel else { return };
        let wpc = kernel.warps_per_cta();
        while !self.pending_ctas.is_empty() && self.warps.len() + wpc <= self.max_warps {
            let cta_id = self.pending_ctas.pop_front().expect("checked non-empty");
            for i in 0..wpc {
                let global_id = cta_id * wpc as u64 + i as u64;
                self.warps.push(Warp::new(cta_id, global_id, self.kernel_seed, self.next_age));
                self.next_age += 1;
            }
        }
    }

    /// Releases every warp of `cta_id` parked at a barrier if no live warp
    /// of that CTA is still on its way there.
    fn maybe_release_barrier(&mut self, cta_id: u64) {
        let blocking = self
            .warps
            .iter()
            .any(|w| w.cta_id == cta_id && w.is_live() && w.state != WarpState::AtBarrier);
        if !blocking {
            for w in &mut self.warps {
                if w.cta_id == cta_id && w.state == WarpState::AtBarrier {
                    w.state = WarpState::Ready;
                }
            }
        }
    }

    /// [`SmCore::maybe_release_barrier`] for the CTA in `slot`, looking
    /// only at that CTA's slots and marking released warps ready in
    /// `sched`.
    fn release_barrier_in(&mut self, slot: usize, sched: &mut Sched) {
        let wpc = self.kernel.as_ref().expect("a resident warp has a kernel").warps_per_cta();
        let base = slot - slot % wpc;
        let cta = &mut self.warps[base..base + wpc];
        debug_assert!(cta.iter().all(|w| w.cta_id == cta[0].cta_id), "CTA slots are aligned");
        if cta.iter().any(|w| w.is_live() && w.state != WarpState::AtBarrier) {
            return;
        }
        for (i, w) in cta.iter_mut().enumerate() {
            if w.state == WarpState::AtBarrier {
                w.state = WarpState::Ready;
                sched.set_ready(base + i);
            }
        }
    }

    /// Removes the warps of `cta_id` if every one of them has finished.
    fn maybe_retire_cta(&mut self, cta_id: u64) {
        let all_done = self.warps.iter().filter(|w| w.cta_id == cta_id).all(|w| !w.is_live());
        if all_done {
            self.warps.retain(|w| w.cta_id != cta_id);
        }
    }

    /// Runs the SM for `cycles` core cycles of period `period_ps`,
    /// starting at absolute time `epoch_start`, updating `counters`.
    /// Uses the default [`EngineMode::CycleSkip`] engine.
    pub fn run_epoch(
        &mut self,
        epoch_start: Time,
        cycles: u64,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
    ) -> EpochOutcome {
        self.run_epoch_mode(
            EngineMode::CycleSkip,
            epoch_start,
            cycles,
            period_ps,
            mem,
            lat,
            counters,
        )
    }

    /// Runs the SM for `cycles` core cycles under an explicit engine mode.
    #[allow(clippy::too_many_arguments)]
    pub fn run_epoch_mode(
        &mut self,
        mode: EngineMode,
        epoch_start: Time,
        cycles: u64,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
    ) -> EpochOutcome {
        use CounterId::*;
        let start_instrs = counters[TotalInstrs];
        let clock = Clock { start: epoch_start, cycles, period_ps };
        let mut tally = Tally::default();
        match mode {
            EngineMode::NaiveTick => self.run_ticks(clock, mem, lat, counters, &mut tally),
            EngineMode::CycleSkip => self.run_events(clock, mem, lat, counters, &mut tally),
        }

        counters[TotalCycles] += cycles as f64;
        if cycles > 0 {
            counters[Occupancy] =
                tally.occupancy_sum as f64 / (cycles as f64 * self.max_warps as f64);
        }
        if tally.mem_lat_count > 0 {
            counters[AvgMemLatencyNs] = tally.mem_lat_sum_ns / tally.mem_lat_count as f64;
        }
        counters.recompute_derived();

        EpochOutcome {
            instructions: (counters[TotalInstrs] - start_instrs) as u64,
            finished_at: self.finish_time,
            skipped_cycles: tally.skipped,
        }
    }

    /// The reference loop: each cycle scans every resident warp to wake
    /// sleepers, take the census and rank the issue candidates, and stalls
    /// advance one cycle at a time.
    fn run_ticks(
        &mut self,
        clock: Clock,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
        tally: &mut Tally,
    ) {
        let mut c = 0u64;
        while c < clock.cycles {
            let now = clock.at(c);
            self.launch_ctas();

            // (rank, index) of up to `issue_width` best candidates; the
            // last-issued warp is ranked first by treating its age as 0.
            let mut census = Census::default();
            let mut picks: Vec<(u64, usize)> = Vec::with_capacity(self.issue_width + 1);
            for (i, w) in self.warps.iter_mut().enumerate() {
                if !w.is_live() {
                    continue;
                }
                census.live += 1;
                if let WarpState::Waiting { until, cause } = w.state {
                    if until <= now {
                        w.state = WarpState::Ready;
                    } else {
                        *census.waiting(cause) += 1;
                        continue;
                    }
                }
                if w.state == WarpState::Ready {
                    let rank = if w.age == self.last_issued_age { 0 } else { w.age + 1 };
                    picks.push((rank, i));
                }
            }
            picks.sort_unstable();
            picks.truncate(self.issue_width);

            tally.cycle(census, counters);
            if picks.is_empty() {
                self.stall(census, now, 1, counters, tally);
                c += 1;
                continue;
            }

            counters[CounterId::IssuedCycles] += 1.0;
            // Issuing may finish warps; CTA retirement (which removes warps
            // and would invalidate the remaining pick indices) is deferred
            // until every pick of this cycle has issued.
            let mut retire: Vec<u64> = Vec::new();
            for &(_, idx) in &picks {
                let at_barrier =
                    self.issue(idx, now, clock.period_ps, mem, lat, counters, tally).is_none();
                let warp = &self.warps[idx];
                let (cta, live) = (warp.cta_id, warp.is_live());
                if at_barrier {
                    self.maybe_release_barrier(cta);
                }
                if !live {
                    retire.push(cta);
                }
            }
            for cta in retire {
                self.maybe_retire_cta(cta);
            }
            let live = self.warps.iter().any(Warp::is_live);
            self.end_issue_cycle(live, now, clock.period_ps);
            c += 1;
        }
    }

    /// The event-driven loop (see the module docs).
    fn run_events(
        &mut self,
        clock: Clock,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
        tally: &mut Tally,
    ) {
        let mut sched = Sched::new(self.max_warps);
        sched.rebuild(&self.warps, self.last_issued_age, clock, 0);
        let mut picks: Vec<usize> = Vec::with_capacity(self.issue_width);
        let mut retire: Vec<u64> = Vec::new();
        let mut c = 0u64;
        while c < clock.cycles {
            let now = clock.at(c);
            let resident = self.warps.len();
            self.launch_ctas();
            // Launched warps are ready, and none is ranked first as the
            // last-issued warp: ages only grow (on a fresh SM, whose last
            // issued age is the initial 0, that warp is also the oldest).
            for slot in resident..self.warps.len() {
                sched.set_ready(slot);
                sched.census.live += 1;
            }
            sched.wake_due(c, &mut self.warps);
            sched.pick(self.issue_width, &mut picks);

            let census = sched.census;
            tally.cycle(census, counters);
            if picks.is_empty() {
                // No warp, memory or scheduler state can change before the
                // earliest wake-up, so the stall accounting of this cycle
                // holds for every cycle up to it.
                let delta = sched.next_wake(c).unwrap_or(clock.cycles) - c;
                self.stall(census, now, delta, counters, tally);
                c += delta;
                continue;
            }

            counters[CounterId::IssuedCycles] += 1.0;
            for &slot in &picks {
                sched.clear_ready(slot);
                let hold = self.issue(slot, now, clock.period_ps, mem, lat, counters, tally);
                sched.last = Some(slot);
                if hold.is_none() {
                    self.release_barrier_in(slot, &mut sched);
                }
                let warp = &self.warps[slot];
                match (warp.state, hold) {
                    (WarpState::Waiting { cause, .. }, Some(hold)) => {
                        let wake = c + hold.cycles(clock.period_ps);
                        sched.wait(slot, wake, cause, c + 1, clock.cycles);
                    }
                    (WarpState::Finished, _) => {
                        sched.census.live -= 1;
                        retire.push(warp.cta_id);
                    }
                    _ => {}
                }
            }
            if !retire.is_empty() {
                let resident = self.warps.len();
                for cta in retire.drain(..) {
                    self.maybe_retire_cta(cta);
                }
                if self.warps.len() != resident {
                    sched.rebuild(&self.warps, self.last_issued_age, clock, c + 1);
                }
            }
            self.end_issue_cycle(sched.census.live > 0, now, clock.period_ps);
            c += 1;
        }
    }

    /// Charges `delta` cycles starting at `now`, in which nothing issues, to
    /// the stall cause `census` implies; all but the first are skipped.
    fn stall(
        &mut self,
        census: Census,
        now: Time,
        delta: u64,
        counters: &mut EpochCounters,
        tally: &mut Tally,
    ) {
        counters[census.stall_cause()] += delta as f64;
        if census.live > 0 {
            counters[CounterId::ActiveCycles] += (delta - 1) as f64;
        }
        tally.occupancy_sum += census.live as u128 * (delta - 1) as u128;
        tally.skipped += delta - 1;
        if census.live == 0
            && self.pending_ctas.is_empty()
            && self.finish_time.is_none()
            && self.kernel.is_some()
        {
            self.finish_time = Some(now);
        }
    }

    /// Records the finish time when the cycle starting at `now` issued the
    /// last instruction of the kernel (`live` says whether any resident
    /// warp is still running).
    fn end_issue_cycle(&mut self, live: bool, now: Time, period_ps: u64) {
        if !live
            && self.pending_ctas.is_empty()
            && self.kernel.is_some()
            && self.finish_time.is_none()
        {
            self.finish_time = Some(now + Time::from_ps(period_ps));
        }
    }

    /// Issues the next instruction of warp `idx` at time `now` and leaves
    /// the warp waiting, parked at a barrier or finished. Returns the wait
    /// the instruction imposes, or `None` when it was a barrier, which the
    /// caller must follow with a release check of the warp's CTA; a warp
    /// that finished on it is not parked but may unblock its siblings.
    /// Retiring a finished warp's CTA is also the caller's job, once the
    /// cycle's issues are done.
    #[allow(clippy::too_many_arguments)]
    fn issue(
        &mut self,
        idx: usize,
        now: Time,
        period_ps: u64,
        mem: &mut ClusterMemory,
        lat: &LatencyTable,
        counters: &mut EpochCounters,
        tally: &mut Tally,
    ) -> Option<Hold> {
        use CounterId::*;
        let kernel = self.kernel.as_ref().expect("issue requires an assigned kernel");
        let warp = &mut self.warps[idx];
        let block = &kernel.blocks()[warp.cursor.block];
        let class = block.instrs[warp.cursor.instr].class;
        let div_prob = block.divergence_prob;
        let mem_behavior = kernel.mem();
        self.last_issued_age = warp.age;

        counters[TotalInstrs] += 1.0;
        let class_counter = match class {
            InstrClass::IntAlu => IntAluInstrs,
            InstrClass::FpAlu => FpAluInstrs,
            InstrClass::Sfu => SfuInstrs,
            InstrClass::LoadGlobal => LoadGlobalInstrs,
            InstrClass::LoadShared => LoadSharedInstrs,
            InstrClass::StoreGlobal => StoreGlobalInstrs,
            InstrClass::StoreShared => StoreSharedInstrs,
            InstrClass::Branch => BranchInstrs,
            InstrClass::Barrier => BarrierInstrs,
        };
        counters[class_counter] += 1.0;

        // Determine the wait the instruction imposes; `None` means the warp
        // parks at a barrier instead.
        let wait: Option<(Hold, WaitCause)> = match class {
            InstrClass::IntAlu | InstrClass::FpAlu | InstrClass::Sfu => {
                Some((Hold::Cycles(lat.fixed_latency(class)), WaitCause::Exec))
            }
            InstrClass::LoadShared => {
                counters[SharedAccesses] += 1.0;
                Some((Hold::Cycles(lat.load_shared), WaitCause::MemLoad))
            }
            InstrClass::StoreShared => {
                counters[SharedAccesses] += 1.0;
                Some((Hold::Cycles(lat.store_shared), WaitCause::MemStore))
            }
            InstrClass::LoadGlobal => {
                let addr = warp.next_address(&mem_behavior);
                let r = mem.load(addr, now, period_ps);
                counters[L1ReadAccess] += 1.0;
                counters[MemTransactions] += 1.0;
                let hold = match r.level {
                    MemLevel::L1 => Hold::Cycles(mem.config().l1_hit_cycles),
                    MemLevel::L2 => {
                        counters[L1ReadMiss] += 1.0;
                        counters[L2Access] += 1.0;
                        Hold::Memory(r.latency)
                    }
                    MemLevel::Dram => {
                        counters[L1ReadMiss] += 1.0;
                        counters[L2Access] += 1.0;
                        counters[L2Miss] += 1.0;
                        counters[DramReads] += 1.0;
                        counters[DramQueueNs] += r.queue_ns;
                        Hold::Memory(r.latency)
                    }
                };
                tally.mem_lat_sum_ns += r.latency.as_nanos();
                tally.mem_lat_count += 1;
                Some((hold, WaitCause::MemLoad))
            }
            InstrClass::StoreGlobal => {
                let addr = warp.next_address(&mem_behavior);
                let level = mem.store(addr, now);
                counters[L1WriteAccess] += 1.0;
                counters[MemTransactions] += 1.0;
                counters[L2Access] += 1.0;
                match level {
                    MemLevel::L1 => {}
                    MemLevel::L2 => counters[L1WriteMiss] += 1.0,
                    MemLevel::Dram => {
                        counters[L1WriteMiss] += 1.0;
                        counters[L2Miss] += 1.0;
                        counters[DramWrites] += 1.0;
                    }
                }
                Some((Hold::Cycles(lat.store_global), WaitCause::MemStore))
            }
            InstrClass::Branch => {
                let diverged = warp.draw_divergence(div_prob);
                let penalty = if diverged {
                    counters[DivergentBranches] += 1.0;
                    lat.branch + lat.divergence_penalty
                } else {
                    lat.branch
                };
                Some((Hold::Cycles(penalty), WaitCause::Control))
            }
            InstrClass::Barrier => None,
        };

        if warp.advance_cursor(kernel) {
            match wait {
                Some((Hold::Cycles(n), cause)) => {
                    warp.wait(now + Time::from_ps(u64::from(n) * period_ps), cause)
                }
                Some((Hold::Memory(latency), cause)) => warp.wait(now + latency, cause),
                None => warp.state = WarpState::AtBarrier,
            }
        }
        wait.map(|(hold, _)| hold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{BasicBlock, MemoryBehavior};
    use crate::memory::MemoryConfig;

    const PERIOD: u64 = 858;
    const EPOCH_CYCLES: u64 = 50_000;

    fn compute_kernel(iterations: u32) -> KernelSpec {
        KernelSpec::new(
            "compute",
            vec![BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::FpAlu], iterations, 0.0)],
            2,
            4,
            MemoryBehavior::streaming(1 << 16),
        )
    }

    fn memory_kernel(iterations: u32) -> KernelSpec {
        KernelSpec::new(
            "memory",
            vec![BasicBlock::new(
                vec![InstrClass::LoadGlobal, InstrClass::IntAlu],
                iterations,
                0.0,
            )],
            2,
            4,
            MemoryBehavior::streaming(64 << 20),
        )
    }

    fn run_to_idle(sm: &mut SmCore, mem: &mut ClusterMemory) -> (EpochCounters, Time) {
        let lat = LatencyTable::titan_x();
        let mut counters = EpochCounters::zeroed();
        let mut start = Time::ZERO;
        for _ in 0..100 {
            sm.run_epoch(start, EPOCH_CYCLES, PERIOD, mem, &lat, &mut counters);
            start += Time::from_ps(EPOCH_CYCLES * PERIOD);
            if sm.is_idle() {
                return (counters, sm.finish_time().expect("idle SM records a finish time"));
            }
        }
        panic!("kernel did not finish in 100 epochs");
    }

    #[test]
    fn kernel_retires_exactly_its_instructions() {
        let k = compute_kernel(50);
        let total = k.total_instructions();
        let mut sm = SmCore::new(16, 2);
        sm.assign_kernel(k, (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
        assert_eq!(
            counters[CounterId::IntAluInstrs] as u64 + counters[CounterId::FpAluInstrs] as u64,
            total
        );
    }

    #[test]
    fn compute_kernel_scales_with_frequency() {
        // The same kernel at half the clock should take roughly twice as long.
        let run_at = |period: u64| {
            let mut sm = SmCore::new(16, 2);
            sm.assign_kernel(compute_kernel(200), (0..4).collect(), 1);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let lat = LatencyTable::titan_x();
            let mut counters = EpochCounters::zeroed();
            let mut start = Time::ZERO;
            for _ in 0..200 {
                sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                start += Time::from_ps(20_000 * period);
                if sm.is_idle() {
                    return sm.finish_time().unwrap().as_nanos();
                }
            }
            panic!("did not finish");
        };
        let fast = run_at(858);
        let slow = run_at(1716);
        let ratio = slow / fast;
        assert!(
            (1.8..2.2).contains(&ratio),
            "compute-bound slowdown should track frequency, got {ratio:.3}"
        );
    }

    #[test]
    fn memory_kernel_is_frequency_insensitive() {
        let run_at = |period: u64| {
            let mut sm = SmCore::new(16, 2);
            sm.assign_kernel(memory_kernel(100), (0..4).collect(), 1);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let lat = LatencyTable::titan_x();
            let mut counters = EpochCounters::zeroed();
            let mut start = Time::ZERO;
            for _ in 0..400 {
                sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                start += Time::from_ps(20_000 * period);
                if sm.is_idle() {
                    return sm.finish_time().unwrap().as_nanos();
                }
            }
            panic!("did not finish");
        };
        let fast = run_at(858);
        let slow = run_at(1716);
        let ratio = slow / fast;
        assert!(
            ratio < 1.5,
            "memory-bound kernel should barely slow down at half clock, got {ratio:.3}"
        );
    }

    #[test]
    fn stalls_reflect_boundedness() {
        let lat = LatencyTable::titan_x();
        // Memory-bound kernel accumulates load stalls.
        let mut sm = SmCore::new(8, 2);
        sm.assign_kernel(memory_kernel(100), (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let mut counters = EpochCounters::zeroed();
        sm.run_epoch(Time::ZERO, EPOCH_CYCLES, PERIOD, &mut mem, &lat, &mut counters);
        assert!(
            counters[CounterId::StallMemLoad] > counters[CounterId::StallDataDep],
            "memory kernel must be dominated by memory-hazard stalls"
        );
        assert!(counters[CounterId::L1ReadAccess] > 0.0);
        assert!(counters[CounterId::DramReads] > 0.0);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let k = KernelSpec::new(
            "bar",
            vec![
                BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::Barrier], 3, 0.0),
                BasicBlock::new(vec![InstrClass::FpAlu], 2, 0.0),
            ],
            4,
            2,
            MemoryBehavior::streaming(1 << 16),
        );
        let total = k.total_instructions();
        let mut sm = SmCore::new(16, 2);
        sm.assign_kernel(k, vec![0, 1], 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
        assert_eq!(counters[CounterId::BarrierInstrs] as u64, 3 * 4 * 2);
    }

    #[test]
    fn cta_capacity_limits_residency_but_all_work_completes() {
        let k = compute_kernel(20); // 4 CTAs x 2 warps, SM holds only 1 CTA at a time
        let total = k.total_instructions();
        let mut sm = SmCore::new(2, 2);
        sm.assign_kernel(k, (0..4).collect(), 1);
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let (counters, _) = run_to_idle(&mut sm, &mut mem);
        assert_eq!(counters[CounterId::TotalInstrs] as u64, total);
    }

    #[test]
    fn idle_sm_accumulates_empty_stalls() {
        let mut sm = SmCore::new(4, 2);
        let lat = LatencyTable::titan_x();
        let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
        let mut counters = EpochCounters::zeroed();
        sm.run_epoch(Time::ZERO, 1_000, PERIOD, &mut mem, &lat, &mut counters);
        assert_eq!(counters[CounterId::StallEmpty], 1_000.0);
        assert_eq!(counters[CounterId::TotalInstrs], 0.0);
    }

    #[test]
    fn replay_determinism_across_frequencies() {
        // The instruction totals of a finished kernel are identical no
        // matter the frequency schedule it ran under.
        let totals_at = |period: u64| {
            let mut sm = SmCore::new(8, 2);
            sm.assign_kernel(memory_kernel(30), (0..2).collect(), 7);
            let mut mem = ClusterMemory::new(MemoryConfig::titan_x());
            let (counters, _) = {
                let lat = LatencyTable::titan_x();
                let mut counters = EpochCounters::zeroed();
                let mut start = Time::ZERO;
                loop {
                    sm.run_epoch(start, 20_000, period, &mut mem, &lat, &mut counters);
                    start += Time::from_ps(20_000 * period);
                    if sm.is_idle() {
                        break (counters, ());
                    }
                }
            };
            (counters[CounterId::TotalInstrs] as u64, counters[CounterId::LoadGlobalInstrs] as u64)
        };
        assert_eq!(totals_at(858), totals_at(1464));
    }

    #[test]
    #[should_panic(expected = "warps per CTA")]
    fn oversized_cta_rejected() {
        let mut sm = SmCore::new(2, 1);
        let k = KernelSpec::new(
            "big",
            vec![BasicBlock::new(vec![InstrClass::IntAlu], 1, 0.0)],
            8,
            1,
            MemoryBehavior::streaming(1024),
        );
        sm.assign_kernel(k, vec![0], 1);
    }

    #[test]
    #[should_panic(expected = "CTA ids must be distinct")]
    fn duplicate_cta_ids_rejected() {
        let mut sm = SmCore::new(16, 2);
        sm.assign_kernel(compute_kernel(1), vec![0, 1, 0], 1);
    }
}
