//! Property tests pinning the default event-driven engine to the
//! naive-tick reference: on random GPU shapes, workloads and per-cluster
//! operating-point schedules, both engines must produce byte-identical
//! serialized `EpochRecord` streams and `SimResult`s, and a snapshot
//! restored mid-run must replay byte-identically under either engine.
//!
//! The scenarios are drawn to reach every scheduler path: all nine
//! instruction classes (barriers and shared-memory traffic included), more
//! CTAs than warp slots (so slots free up and refill mid-epoch), workloads
//! of several kernels, warp pools above 64 slots (a ready set of more than
//! one word), issue widths of 1–4, one or two SMs per cluster, epochs
//! short enough to split a program, and a different operating point per
//! cluster and epoch. Every pipeline latency and the L1 hit time are drawn
//! from 0–40 cycles, and the L2, DRAM and DRAM-occupancy times from zero
//! to a few microseconds, so the wake wheel sees zero-cycle waits, waits
//! past its horizon and past the epoch's end, and wrap-around.

use gpu_sim::{
    BasicBlock, EngineMode, GpuConfig, InstrClass, KernelSpec, LatencyTable, MemoryBehavior,
    MemoryConfig, Simulation, Time, Workload,
};
use proptest::prelude::*;

/// Warp slots per SM the scenarios draw from: tiny pools, the Titan X's
/// 48, and pools that need a second (and third) word of ready bits.
const SLOTS: [usize; 10] = [2, 4, 8, 16, 24, 48, 64, 65, 96, 130];
/// DVFS epoch lengths in µs: short epochs put epoch boundaries, operating
/// point switches and their settle time inside the small random programs.
const EPOCH_US: [f64; 4] = [0.5, 1.0, 2.5, 10.0];
/// Pipeline and L1 latencies in cycles range over `0..=MAX_CYCLES`.
const MAX_CYCLES: u32 = 40;
/// Upper ends of the L2, DRAM and DRAM-occupancy time draws in ns: zero,
/// a few cycles, the Titan X's hundreds of ns, and up to 3 µs, past the
/// wake wheel's 1024 cycles at every operating point.
const MEMORY_NS: [f64; 4] = [0.0, 10.0, 500.0, 3_000.0];

/// One random scenario.
#[derive(Debug, Clone)]
struct Scenario {
    config: GpuConfig,
    workload: Workload,
    /// Operating point per epoch and cluster.
    schedule: Vec<Vec<usize>>,
}

impl Scenario {
    fn simulation(&self, mode: EngineMode) -> Simulation {
        let mut sim = Simulation::new(self.config.clone(), self.workload.clone());
        sim.set_engine(mode);
        sim
    }

    /// The GPU shape and kernels, for failure messages.
    fn describe(&self) -> String {
        let c = &self.config;
        let kernels: Vec<String> = self
            .workload
            .kernels()
            .iter()
            .map(|k| {
                let blocks: Vec<String> = k
                    .blocks()
                    .iter()
                    .map(|b| {
                        let classes: Vec<InstrClass> = b.instrs.iter().map(|i| i.class).collect();
                        format!("{classes:?}x{} div {}", b.iterations, b.divergence_prob)
                    })
                    .collect();
                format!("{} CTAs x {} warps: {blocks:?}", k.num_ctas(), k.warps_per_cta())
            })
            .collect();
        let m = &c.memory;
        format!(
            "{} clusters x {} SMs, {} slots, issue width {}; latencies {:?}; L1 {} cycles, L2 {} \
             ns, DRAM {} ns, DRAM occupancy {} ns; kernels {kernels:?}; schedule {:?}",
            c.num_clusters,
            c.sms_per_cluster,
            c.max_warps_per_sm,
            c.issue_width,
            c.latencies,
            m.l1_hit_cycles,
            m.l2_hit_ns,
            m.dram_ns,
            m.dram_tx_ns,
            self.schedule
        )
    }
}

/// Draws [`Scenario`]s with a schedule of `epochs` epochs.
struct Scenarios {
    epochs: std::ops::RangeInclusive<usize>,
}

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn cycles(rng: &mut TestRng) -> u32 {
    (0..=MAX_CYCLES).sample(rng)
}

/// A memory time in ns, zero with probability about a quarter.
fn memory_ns(rng: &mut TestRng) -> f64 {
    pick(rng, &MEMORY_NS) * (0.0..=1.0).sample(rng)
}

fn arb_latencies(rng: &mut TestRng) -> LatencyTable {
    LatencyTable {
        int_alu: cycles(rng),
        fp_alu: cycles(rng),
        sfu: cycles(rng),
        load_shared: cycles(rng),
        store_shared: cycles(rng),
        store_global: cycles(rng),
        branch: cycles(rng),
        divergence_penalty: cycles(rng),
    }
}

fn arb_memory(rng: &mut TestRng) -> MemoryConfig {
    MemoryConfig {
        l1_hit_cycles: cycles(rng),
        l2_hit_ns: memory_ns(rng),
        dram_ns: memory_ns(rng),
        dram_tx_ns: memory_ns(rng),
        ..MemoryConfig::titan_x()
    }
}

/// A kernel of one to three blocks over all nine instruction classes,
/// with up to twice as many CTAs as the GPU has CTA slots.
fn arb_kernel(rng: &mut TestRng, config: &GpuConfig, id: usize) -> KernelSpec {
    let blocks: Vec<BasicBlock> = (0..(1usize..=3).sample(rng))
        .map(|_| {
            let instrs: Vec<InstrClass> =
                (0..(1usize..=4).sample(rng)).map(|_| pick(rng, &InstrClass::ALL)).collect();
            BasicBlock::new(instrs, (1u32..=3).sample(rng), (0.0f32..0.3).sample(rng))
        })
        .collect();
    let warps_per_cta = (1..=config.max_warps_per_sm.min(6)).sample(rng);
    let cta_slots =
        config.max_warps_per_sm / warps_per_cta * config.num_clusters * config.sms_per_cluster;
    let num_ctas = (1..=2 * cta_slots + 2).sample(rng);
    let random_frac = (0.0f32..0.5).sample(rng);
    let hot_frac = (0.0f32..0.5).sample(rng);
    KernelSpec::new(
        format!("prop{id}"),
        blocks,
        warps_per_cta,
        num_ctas,
        MemoryBehavior::new((2u64..33).sample(rng) * 1024, 128, random_frac, hot_frac),
    )
}

impl Strategy for Scenarios {
    type Value = Scenario;

    fn sample(&self, rng: &mut TestRng) -> Scenario {
        let config = GpuConfig {
            num_clusters: (1usize..=3).sample(rng),
            sms_per_cluster: (1usize..=2).sample(rng),
            max_warps_per_sm: pick(rng, &SLOTS),
            issue_width: (1usize..=4).sample(rng),
            epoch: Time::from_micros(pick(rng, &EPOCH_US)),
            latencies: arb_latencies(rng),
            memory: arb_memory(rng),
            ..GpuConfig::small_test()
        };
        let kernels: Vec<KernelSpec> =
            (0..(1usize..=3).sample(rng)).map(|id| arb_kernel(rng, &config, id)).collect();
        let ops = config.vf_table.len();
        let schedule = (0..self.epochs.clone().sample(rng))
            .map(|_| (0..config.num_clusters).map(|_| (0..ops).sample(rng)).collect())
            .collect();
        Scenario { config, workload: Workload::new("prop", kernels), schedule }
    }
}

/// Steps `sim` through `schedule` and serializes each epoch's record plus
/// the final result, so comparisons are byte-level.
fn drive(mut sim: Simulation, schedule: &[Vec<usize>]) -> (Vec<String>, String, u64) {
    let mut records = Vec::new();
    for ops in schedule {
        if sim.is_complete() {
            break;
        }
        let record = sim.step_epoch(ops);
        records.push(serde_json::to_string(record).expect("record serializes"));
    }
    let result = serde_json::to_string(&sim.result("prop")).expect("result serializes");
    (records, result, sim.skipped_cycles())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The event-driven engine is an exact optimization: the entire
    /// observable output (per-epoch records, final result) is
    /// byte-identical to scanning every warp and ticking every cycle, for
    /// any GPU shape, workload and DVFS schedule.
    #[test]
    fn cycle_skip_matches_naive_tick(scenario in Scenarios { epochs: 4..=40 }) {
        let (naive_records, naive_result, naive_skipped) =
            drive(scenario.simulation(EngineMode::NaiveTick), &scenario.schedule);
        let (skip_records, skip_result, _) =
            drive(scenario.simulation(EngineMode::CycleSkip), &scenario.schedule);
        prop_assert_eq!(naive_skipped, 0, "the reference engine never skips");
        prop_assert!(
            naive_records == skip_records,
            "per-epoch records differ on {}",
            scenario.describe()
        );
        prop_assert!(naive_result == skip_result, "final results differ on {}", scenario.describe());
    }

    /// snapshot() -> restore() -> step: the restored simulation replays
    /// byte-identically to the original continuing, under both engines.
    #[test]
    fn snapshot_restore_replays_byte_identically(
        scenario in Scenarios { epochs: 5..=20 },
        warmup in 1usize..5,
        naive in any::<bool>(),
    ) {
        let mut sim = scenario.simulation(if naive {
            EngineMode::NaiveTick
        } else {
            EngineMode::CycleSkip
        });
        let (head, tail) = scenario.schedule.split_at(warmup);
        for ops in head {
            if sim.is_complete() {
                break;
            }
            sim.step_epoch(ops);
        }
        let restored = sim.snapshot().restore();
        prop_assert_eq!(restored.engine(), sim.engine(), "restore keeps the engine mode");
        let (orig_records, _, _) = drive(sim, tail);
        let (replay_records, _, _) = drive(restored, tail);
        prop_assert!(
            orig_records == replay_records,
            "replay differs on {}",
            scenario.describe()
        );
    }
}
