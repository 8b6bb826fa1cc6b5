//! Math-core microbenches: the naive triple loop vs the register-tiled
//! product kernel on the shapes training hits. Single-decision inference is
//! benched on the compiled plan (`decision_path`).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinynn::Matrix;

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(-1.0..1.0);
    }
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    // One gradient shard through a 20-wide hidden layer: training splits
    // every 64-row minibatch into 8-row shards, and each shard's forward
    // (`x · Wᵀ`) and backward (`delta · W`) run this shape thousands of
    // times per run.
    let a = random_matrix(8, 20, &mut rng);
    let b = random_matrix(20, 20, &mut rng);
    let mut group = c.benchmark_group("math/matmul_8x20x20");
    group.bench_function("naive", |bch| bch.iter(|| a.matmul_naive(&b)));
    group.bench_function("tiled", |bch| bch.iter(|| a.matmul(&b)));
    group.finish();

    // The same shard's weight gradient, `deltaᵀ · input` (20 × 8 × 20).
    let delta = random_matrix(8, 20, &mut rng);
    let input = random_matrix(8, 20, &mut rng);
    let mut group = c.benchmark_group("math/transposed_matmul_20x8x20");
    group.bench_function("naive", |bch| bch.iter(|| delta.transpose().matmul_naive(&input)));
    group.bench_function("tiled", |bch| bch.iter(|| delta.transposed_matmul(&input)));
    group.finish();

    // An RFE permutation-importance forward: the whole validation split
    // through the widest candidate layer.
    let a = random_matrix(480, 41, &mut rng);
    let b = random_matrix(41, 20, &mut rng);
    let mut group = c.benchmark_group("math/matmul_480x41x20");
    group.bench_function("naive", |bch| bch.iter(|| a.matmul_naive(&b)));
    group.bench_function("tiled", |bch| bch.iter(|| a.matmul(&b)));
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
