//! Property tests for the data-parallel training engine: the trained model
//! must be byte-identical to sequential SGD at any worker count, for any
//! model shape, batch size, dataset or sparsity mask — the determinism
//! contract of `train_classifier` / `train_regressor`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use tinynn::{
    grad_shards, prune_magnitude, shard_span, train_classifier, train_regressor,
    ClassificationData, Matrix, Mlp, Pool, RegressionData, TrainConfig, TrainScratch, ZeroMask,
};
/// A seeded random classification set (the vendored proptest has no
/// `prop_flat_map` for dimension-dependent collections, so dimensions are
/// drawn as inputs and the data derived from a seed).
fn random_classification(
    n: usize,
    features: usize,
    classes: usize,
    seed: u64,
) -> ClassificationData {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..n * features).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0..classes)).collect();
    ClassificationData::new(Matrix::from_vec(n, features, data), y, classes)
}

fn random_regression(n: usize, features: usize, seed: u64) -> RegressionData {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f32> = (0..n * features).map(|_| rng.gen_range(-3.0..3.0)).collect();
    let y: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5..20.0)).collect();
    RegressionData::new(Matrix::from_vec(n, features, data), y)
}

/// A seeded model magnitude-pruned at `prune`, and the mask that keeps its
/// zeros frozen while it trains.
fn pruned_init(sizes: &[usize], prune: f32, seed: u64) -> (Mlp, ZeroMask) {
    let mut init = Mlp::new(sizes, &mut StdRng::seed_from_u64(seed));
    prune_magnitude(&mut init, prune);
    let mask = ZeroMask::from_zeros(&init);
    (init, mask)
}

/// Whether `mlp` has no non-zero weight where `mask` froze one.
fn respects(mlp: &Mlp, mask: &ZeroMask) -> bool {
    let mut remasked = mlp.clone();
    mask.apply(&mut remasked);
    &remasked == mlp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sharded parallel classifier training under a sparsity mask
    /// reproduces sequential SGD byte-for-byte across random shapes, batch
    /// sizes, prune fractions and worker counts, and never revives a
    /// pruned weight.
    #[test]
    fn parallel_classifier_is_byte_identical(
        seed in any::<u64>(),
        samples in 20usize..90,
        features in 2usize..6,
        classes in 2usize..5,
        hidden in 4usize..14,
        batch_size in 1usize..40,
        balance in any::<bool>(),
        prune in 0.0f32..0.9,
    ) {
        let train = random_classification(samples, features, classes, seed);
        let val = random_classification(samples / 2 + 4, features, classes, seed ^ 0x9E37);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size,
            patience: 3,
            seed: seed ^ 0xABCD,
            class_balance: balance,
            ..TrainConfig::default()
        };
        let (init, mask) = pruned_init(&[features, hidden, classes], prune, seed ^ 7);
        let mut serial = init.clone();
        let serial_report = train_classifier(
            &mut serial,
            &train,
            &val,
            &cfg,
            Some(&mask),
            &mut TrainScratch::new(),
            &Pool::serial(),
        );
        prop_assert!(respects(&serial, &mask), "a pruned weight came back");
        for jobs in [1usize, 2, 4, 7] {
            let pool = Pool::new(jobs);
            let mut parallel = init.clone();
            let report = train_classifier(
                &mut parallel,
                &train,
                &val,
                &cfg,
                Some(&mask),
                &mut TrainScratch::new(),
                &pool,
            );
            prop_assert_eq!(&serial, &parallel, "classifier diverged at {} workers", jobs);
            prop_assert_eq!(&serial_report, &report, "report diverged at {} workers", jobs);
        }
    }

    /// Same contract for the regressor head.
    #[test]
    fn parallel_regressor_is_byte_identical(
        seed in any::<u64>(),
        samples in 20usize..80,
        features in 2usize..6,
        hidden in 4usize..14,
        batch_size in 1usize..40,
        prune in 0.0f32..0.9,
    ) {
        let train = random_regression(samples, features, seed);
        let val = random_regression(samples / 2 + 4, features, seed ^ 0x9E37);
        let cfg = TrainConfig {
            epochs: 3,
            batch_size,
            patience: 3,
            seed: seed ^ 0xABCD,
            ..TrainConfig::default()
        };
        let (init, mask) = pruned_init(&[features, hidden, 1], prune, seed ^ 7);
        let mut serial = init.clone();
        let serial_report = train_regressor(
            &mut serial,
            &train,
            &val,
            &cfg,
            Some(&mask),
            &mut TrainScratch::new(),
            &Pool::serial(),
        );
        prop_assert!(respects(&serial, &mask), "a pruned weight came back");
        for jobs in [1usize, 2, 4, 7] {
            let pool = Pool::new(jobs);
            let mut parallel = init.clone();
            let report = train_regressor(
                &mut parallel,
                &train,
                &val,
                &cfg,
                Some(&mask),
                &mut TrainScratch::new(),
                &pool,
            );
            prop_assert_eq!(&serial, &parallel, "regressor diverged at {} workers", jobs);
            prop_assert_eq!(&serial_report, &report, "report diverged at {} workers", jobs);
        }
    }

    /// Shard spans partition any row count: contiguous, non-empty, in
    /// order, covering every row exactly once — and the shard count only
    /// depends on the row count.
    #[test]
    fn shard_spans_partition_rows(rows in 1usize..4_000) {
        let shards = grad_shards(rows);
        prop_assert!(shards >= 1);
        prop_assert!(shards <= 16);
        prop_assert!(shards <= rows);
        let mut next = 0usize;
        for s in 0..shards {
            let (lo, hi) = shard_span(rows, shards, s);
            prop_assert_eq!(lo, next);
            prop_assert!(hi > lo);
            next = hi;
        }
        prop_assert_eq!(next, rows);
    }
}
