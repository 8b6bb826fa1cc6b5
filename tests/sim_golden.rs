//! Golden digests of the simulator's observable output.
//!
//! Every evaluation program runs at scale 0.05 on the Titan X
//! configuration for two seeds, once under the static default operating
//! point and once under a schedule that changes the operating point every
//! epoch. Each run is folded into a 64-bit FNV-1a digest of every
//! [`EpochRecord`] (record index, every cluster's operating-point index,
//! cumulative instructions and the raw bits of every counter) and of the
//! [`SimResult`] (completion time, energy bits, epoch count). One digest per
//! program covers both seeds and both governors.
//!
//! The default engine must reproduce the table below, and so must the
//! [`EngineMode::NaiveTick`] reference on a subset of programs. The table is
//! the simulator's behaviour: a change that moves any digest changes the
//! paper numbers, the datagen samples and every recorded decision stream,
//! and must be declared as a behaviour change. To regenerate the table after
//! such a change, run `cargo test --test sim_golden`; the failure message
//! prints the computed table in source form.

use gpu_sim::{
    DvfsGovernor, EngineMode, EpochRecord, GpuConfig, ScheduleGovernor, SimResult, Simulation,
    StaticGovernor, Time,
};
use gpu_workloads::{evaluation_set, Benchmark};

/// Scale of every evaluation program.
const SCALE: f64 = 0.05;
/// Configuration seeds.
const SEEDS: [u64; 2] = [1, 0x5EED];
/// Upper bound on a run; every program completes well before it.
const HORIZON: Time = Time::from_ps(50_000 * 1_000_000);
/// Operating points of the changing schedule, one per epoch, repeated:
/// every epoch differs from the one before.
const PATTERN: [usize; 6] = [0, 3, 5, 1, 4, 2];
/// Length of the changing schedule (runs must finish inside it).
const SCHEDULE_EPOCHS: usize = 6_000;
/// Programs the `NaiveTick` reference is checked on (it ticks every cycle,
/// so the full set would dominate the test's run time).
const NAIVE_PROGRAMS: [&str; 4] = ["sgemm", "lbm", "bfs", "histo"];

/// Per-program digests captured from the simulator. `atax`, `mvt` and
/// `bicg` build identical kernels (two `matvec_like` sweeps of 70
/// iterations), so they share a digest.
const GOLDEN: [(&str, u64); 14] = [
    ("sgemm", 0x880f26794b953ffc),
    ("hotspot", 0x5fae64485d041357),
    ("atax", 0x4da5a83ddbf8f13d),
    ("lbm", 0xe27dc0d59040ccc5),
    ("bfs", 0x113f44f83e6b9b46),
    ("kmeans", 0xcaad70aded038005),
    ("lud", 0x1bbb1bea99da767a),
    ("histo", 0x9189c521ded9d14b),
    ("mriq", 0x077cd7310c5bc4c1),
    ("spmv", 0x581415d2bdf24fb7),
    ("3mm", 0x5f1d7bc08720e568),
    ("gemm", 0xd8dc9e20a8305850),
    ("mvt", 0x4da5a83ddbf8f13d),
    ("bicg", 0x4da5a83ddbf8f13d),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn record(&mut self, record: &EpochRecord) {
        self.u64(record.index as u64);
        for cluster in &record.clusters {
            self.u64(cluster.op_index as u64);
            self.u64(cluster.cum_instructions);
            for &value in cluster.counters.as_slice() {
                self.u64(value.to_bits());
            }
        }
    }

    fn result(&mut self, result: &SimResult) {
        self.u64(result.time.as_ps());
        self.u64(result.energy.joules().to_bits());
        self.u64(result.epochs as u64);
    }
}

fn changing_schedule() -> ScheduleGovernor {
    ScheduleGovernor::new((0..SCHEDULE_EPOCHS).map(|e| PATTERN[e % PATTERN.len()]).collect())
}

/// Digest of `bench` over both seeds and both governors under `mode`.
fn digest(bench: &Benchmark, mode: EngineMode) -> u64 {
    let mut h = Fnv::new();
    for seed in SEEDS {
        let config = GpuConfig::titan_x().with_seed(seed);
        let governors: [Box<dyn DvfsGovernor>; 2] = [
            Box::new(StaticGovernor::default_point(&config.vf_table)),
            Box::new(changing_schedule()),
        ];
        for mut governor in governors {
            let mut sim = Simulation::new(config.clone(), bench.workload().clone());
            sim.set_engine(mode);
            let result = sim.run(governor.as_mut(), HORIZON);
            assert!(result.completed, "{} (seed {seed}) did not complete", bench.name());
            assert!(result.epochs < SCHEDULE_EPOCHS, "{} outran the schedule", bench.name());
            for record in sim.records() {
                h.record(record);
            }
            h.result(&result);
        }
    }
    h.0
}

/// Computes the digest of every program in `names` under `mode` and
/// compares them with [`GOLDEN`], reporting every mismatch at once.
fn check(mode: EngineMode, names: &[&str]) {
    let programs: Vec<Benchmark> = evaluation_set()
        .into_iter()
        .filter(|b| names.contains(&b.name()))
        .map(|b| b.scaled(SCALE))
        .collect();
    assert_eq!(programs.len(), names.len(), "every named program is an evaluation program");
    let computed: Vec<(&str, u64)> = programs.iter().map(|b| (b.name(), digest(b, mode))).collect();
    let mismatched: Vec<&str> = computed
        .iter()
        .filter(|(name, d)| GOLDEN.iter().find(|(g, _)| g == name).map(|(_, g)| g) != Some(d))
        .map(|(name, _)| *name)
        .collect();
    let table: String =
        computed.iter().map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n")).collect();
    assert!(
        mismatched.is_empty(),
        "{mode:?} digests differ from the golden table for {mismatched:?}; computed:\n{table}"
    );
}

#[test]
fn default_engine_matches_the_golden_digests() {
    let names: Vec<&str> = GOLDEN.iter().map(|(name, _)| *name).collect();
    check(EngineMode::default(), &names);
}

#[test]
fn naive_tick_reference_matches_the_golden_digests() {
    check(EngineMode::NaiveTick, &NAIVE_PROGRAMS);
}
