//! Data-generation throughput: sequential vs parallel replay fan-out over
//! the shared compute pool, and the cost of a cheap `SimSnapshot` vs a full
//! `Simulation` clone (the per-breakpoint checkpoint the replays are
//! restored from) and of restoring a replay from the snapshot.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use gpu_sim::{GpuConfig, Simulation, Time};
use gpu_workloads::by_name;
use ssmdvfs::{generate_workload_jobs, DataGenConfig};

fn datagen_config() -> DataGenConfig {
    DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(300.0),
        ..DataGenConfig::default()
    }
}

fn bench_generate(c: &mut Criterion) {
    let cfg = GpuConfig::small_test();
    let dg = datagen_config();
    let bench = by_name("lbm").expect("lbm exists").scaled(0.05);
    let mut group = c.benchmark_group("datagen/generate");
    group.sample_size(10);
    for (id, jobs) in [("sequential", 1usize), ("parallel", 0usize)] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let samples =
                    generate_workload_jobs(bench.name(), bench.workload().clone(), &cfg, &dg, jobs);
                assert!(!samples.is_empty());
                samples.len()
            });
        });
    }
    group.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let cfg = GpuConfig::small_test();
    let bench = by_name("lbm").expect("lbm exists").scaled(0.05);
    let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    // A simulation with a few hundred epochs of history behind it, so the
    // full clone pays the O(history) cost a snapshot avoids.
    let mut sim = Simulation::new(cfg, bench.workload().clone());
    for _ in 0..300 {
        if sim.is_complete() {
            break;
        }
        sim.step_epoch(&ops);
    }
    let mut group = c.benchmark_group("datagen/checkpoint");
    group.sample_size(50);
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(sim.snapshot()));
    });
    group.bench_function("full_clone", |b| {
        b.iter_batched(|| (), |()| black_box(sim.clone()), BatchSize::SmallInput);
    });
    let snap = sim.snapshot();
    group.bench_function("restore", |b| b.iter(|| black_box(snap.restore())));
    group.finish();
}

criterion_group!(benches, bench_generate, bench_checkpoint);
criterion_main!(benches);
