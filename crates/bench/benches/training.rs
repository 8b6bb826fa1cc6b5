//! Offline-pipeline cost: one training epoch, serial and on the shard
//! pool. Data-generation throughput is timed by `datagen_throughput`.
//!
//! These groups time one epoch of the decision head; bench_e2e's
//! paper-pipeline workload times training, RFE and compression end to end
//! (`train.s`, `rfe.share`, `compress.s`). That the worker count changes no
//! trained model is `tests/train_parallel.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{CounterId, EpochCounters};
use ssmdvfs::{DvfsDataset, FeatureSet, RawSample};
use tinynn::{
    train_classifier, ClassificationData, Mlp, Normalizer, Pool, TrainConfig, TrainScratch,
};

fn synthetic_dataset(n: usize) -> DvfsDataset {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let stall = (i % 11) as f64 / 10.0;
        let mut c = EpochCounters::zeroed();
        c[CounterId::Ipc] = 2.0 - 1.5 * stall;
        c[CounterId::PowerTotalW] = 3.0 + 4.0 * (1.0 - stall);
        c[CounterId::StallMemLoad] = stall * 8_000.0;
        c[CounterId::L1ReadMiss] = stall * 600.0;
        samples.push(RawSample {
            benchmark: "syn".into(),
            cluster: i % 4,
            breakpoint: i / 4,
            counters: c.clone(),
            scaled_counters: c,
            op_index: i % 6,
            perf_loss: (1.0 - stall) * 0.1 * (5 - i % 6) as f64,
            instructions: 8_000,
        });
    }
    DvfsDataset { samples, ..DvfsDataset::default() }
}

fn bench_training_epoch(c: &mut Criterion) {
    let dataset = synthetic_dataset(1_200);
    let fs = FeatureSet::refined();
    let dec = dataset.decision_data(&fs, 6);
    let norm = Normalizer::fit(&dec.x);
    let dec = ClassificationData::new(norm.transform(&dec.x), dec.y, 6);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let (train, val) = dec.split(0.25, &mut rng);
    let mut group = c.benchmark_group("pipeline/train");
    group.sample_size(10);
    group.bench_function("one_epoch_paper_full", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(&[6, 20, 20, 20, 20, 20, 6], &mut rng);
            let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
            let scratch = &mut TrainScratch::new();
            train_classifier(&mut mlp, &train, &val, &cfg, None, scratch, &Pool::serial())
                .best_metric
        });
    });
    // Same epoch through the persistent shard pool at 4 jobs. The result
    // is byte-identical to the serial case by construction; the delta is
    // pure engine overhead/speedup (sub-serial on a 1-core CI container).
    let pool = Pool::new(4);
    let mut scratch = TrainScratch::new();
    group.bench_function("one_epoch_paper_full_4jobs", |b| {
        b.iter(|| {
            let mut mlp = Mlp::new(&[6, 20, 20, 20, 20, 20, 6], &mut rng);
            let cfg = TrainConfig { epochs: 1, ..TrainConfig::default() };
            train_classifier(&mut mlp, &train, &val, &cfg, None, &mut scratch, &pool).best_metric
        });
    });
    group.finish();
}

criterion_group!(benches, bench_training_epoch);
criterion_main!(benches);
