//! Simulation-engine microbenches: the naive-tick reference against the
//! default event-driven engine, on epoch stepping and full runs of a
//! memory-bound program (`lbm`, where whole-SM stalls make skipping pay)
//! and a compute-bound one (`gemm`, where most cycles issue and the cost
//! of scheduling each cycle dominates). Snapshot and restore cost is timed
//! by `datagen_throughput`'s `datagen/checkpoint` group.
//!
//! This bench is the repo's record of simulated cycles per second. The
//! cycle-skip gain is pinned as a work count, not a wall-clock ratio: the
//! default engine's skipped cycles per evaluation program
//! (`GOLDEN_SKIPPED` in `tests/sim_golden.rs`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gpu_sim::{EngineMode, GpuConfig, Simulation, StaticGovernor, Time};
use gpu_workloads::by_name;

const PROGRAMS: [&str; 2] = ["lbm", "gemm"];
const ENGINES: [(&str, EngineMode); 2] =
    [("naive_tick", EngineMode::NaiveTick), ("cycle_skip", EngineMode::CycleSkip)];

fn engine_sim(cfg: &GpuConfig, program: &str, mode: EngineMode) -> Simulation {
    let bench = by_name(program).expect("benchmark exists").scaled(0.1);
    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    sim.set_engine(mode);
    sim
}

fn bench_engine_modes(c: &mut Criterion) {
    let cfg = GpuConfig::small_test();
    let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let mut group = c.benchmark_group("sim_core/epoch_step");
    group.sample_size(20);
    for program in PROGRAMS {
        for (name, mode) in ENGINES {
            group.bench_function(format!("{program}/{name}"), |b| {
                b.iter_batched(
                    || {
                        let mut sim = engine_sim(&cfg, program, mode);
                        // Warm one epoch so caches are realistic.
                        sim.step_epoch(&ops);
                        sim
                    },
                    |mut sim| {
                        sim.step_epoch(&ops);
                        sim
                    },
                    BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();
}

fn bench_engine_full_run(c: &mut Criterion) {
    let cfg = GpuConfig::small_test();
    let mut group = c.benchmark_group("sim_core/full_run");
    group.sample_size(10);
    for program in PROGRAMS {
        for (name, mode) in ENGINES {
            group.bench_function(format!("{program}/{name}"), |b| {
                b.iter(|| {
                    let mut sim = engine_sim(&cfg, program, mode);
                    let mut governor = StaticGovernor::default_point(&cfg.vf_table);
                    let r = sim.run(&mut governor, Time::from_micros(50_000.0));
                    assert!(r.completed);
                    r.instructions
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_engine_modes, bench_engine_full_run);
criterion_main!(benches);
