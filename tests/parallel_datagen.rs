//! Determinism guarantees of the parallel data-generation engine: fanning
//! the per-operating-point replays out over a worker pool must not
//! change a single byte of the resulting dataset.

use gpu_sim::{BasicBlock, GpuConfig, InstrClass, KernelSpec, MemoryBehavior, Time, Workload};
use proptest::prelude::*;
use ssmdvfs::{generate_suite_with, generate_workload_jobs, DataGenConfig, SuiteOptions};

/// A small workload whose shape (size, mix, memory behaviour) is drawn
/// from the strategy inputs.
fn workload(iterations: u32, ctas: usize, mem_heavy: bool) -> Workload {
    let classes = if mem_heavy {
        vec![InstrClass::LoadGlobal, InstrClass::IntAlu]
    } else {
        vec![InstrClass::IntAlu, InstrClass::FpAlu, InstrClass::IntAlu]
    };
    let footprint = if mem_heavy { 32 << 20 } else { 1 << 17 };
    let kernel = KernelSpec::new(
        "k",
        vec![BasicBlock::new(classes, iterations, 0.0)],
        2,
        ctas,
        MemoryBehavior::streaming(footprint),
    );
    Workload::new("prop", vec![kernel])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The core guarantee: `generate_workload_jobs` is byte-identical for
    /// any worker count. Replays are deterministic given the breakpoint
    /// snapshot, and assembly is order-preserving, so nothing may differ.
    #[test]
    fn parallel_datagen_is_deterministic(
        iterations in 500u32..2_500,
        ctas in 4usize..12,
        interval in 3usize..7,
        jobs in 2usize..9,
        mem_heavy in any::<bool>(),
    ) {
        let cfg = GpuConfig::small_test();
        let dg = DataGenConfig {
            breakpoint_interval_epochs: interval,
            max_time: Time::from_micros(400.0),
            ..DataGenConfig::default()
        };
        let w = workload(iterations, ctas, mem_heavy);
        let sequential = generate_workload_jobs("prop", w.clone(), &cfg, &dg, 1);
        let parallel = generate_workload_jobs("prop", w, &cfg, &dg, jobs);
        prop_assert!(!sequential.is_empty(), "the workload must produce samples");
        prop_assert_eq!(&sequential, &parallel, "jobs=1 and jobs={} diverged", jobs);
    }
}

#[test]
fn suite_fanout_matches_per_benchmark_generation() {
    // generate_suite_with pools every benchmark's replays into one global job
    // list; each benchmark's slice of the output must still equal an
    // isolated sequential run of that benchmark.
    let cfg = GpuConfig::small_test();
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(300.0),
        ..DataGenConfig::default()
    };
    let benches: Vec<_> = ["lbm", "sgemm", "spmv"]
        .iter()
        .map(|n| gpu_workloads::by_name(n).expect("suite benchmark").scaled(0.05))
        .collect();
    let pooled = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(4))
        .expect("a sweep without a replay cache cannot fail")
        .datasets;
    assert_eq!(pooled.len(), benches.len());
    for (bench, pooled_part) in benches.iter().zip(&pooled) {
        let isolated = generate_workload_jobs(bench.name(), bench.workload().clone(), &cfg, &dg, 1);
        assert_eq!(&isolated, pooled_part, "suite fan-out changed the dataset of {}", bench.name());
    }
    assert!(pooled.iter().any(|d| !d.is_empty()), "the suite must produce samples");
}
