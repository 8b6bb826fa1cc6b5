//! Property-based tests for the neural-network substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tinynn::{
    cross_entropy_shard_into, prune_magnitude, prune_neurons, softmax, ForwardCache, Matrix, Mlp,
    Normalizer, ZeroMask,
};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// A seeded random matrix for tests whose dimensions are themselves
/// generated (the vendored proptest has no `prop_flat_map` for
/// dimension-dependent collections).
fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    use rand::Rng;
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-10.0..10.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// [`random_matrix`] with about one entry in eight an exact `0.0` or
/// `-0.0`, so a kernel that skipped or reordered zero terms would show.
fn random_matrix_with_zeros(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    use rand::Rng;
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| match rng.gen_range(0u32..16) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-10.0..10.0),
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// The reference product: `out[i][j] = Σₖ a(i, k) · b[k][j]`, accumulated
/// in one `f32` over `k` in ascending order from `0.0`, with `a(i, k)`
/// read through `at` so the same loop checks `A · B` and `Aᵀ · B`.
fn triple_loop(m: usize, kk: usize, b: &Matrix, at: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let n = b.cols();
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..kk {
                acc += at(i, k) * b.as_slice()[k * n + j];
            }
            out.push(acc);
        }
    }
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Softmax is a probability distribution for any finite logits.
    #[test]
    fn softmax_is_a_distribution(logits in prop::collection::vec(-50.0f32..50.0, 1..10)) {
        let p = softmax(&logits);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    /// The cross-entropy gradient rows sum to ~0 (softmax minus one-hot).
    #[test]
    fn cross_entropy_grad_rows_sum_to_zero(
        logits in arb_matrix(4, 3),
        labels in prop::collection::vec(0usize..3, 4),
    ) {
        let mut grad = Matrix::zeros(0, 0);
        cross_entropy_shard_into(&logits, &labels, &mut grad);
        for r in 0..grad.rows() {
            let s: f32 = grad.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-4, "row {r} sums to {s}");
        }
    }

    /// Transpose is an involution and `transposed_matmul` matches the
    /// explicit transpose bit for bit.
    #[test]
    fn transpose_involution(m in arb_matrix(3, 5), other in arb_matrix(3, 2)) {
        prop_assert_eq!(m.transpose().transpose(), m.clone());
        prop_assert_eq!(m.transposed_matmul(&other), m.transpose().matmul(&other));
    }

    /// Matrix multiplication is associative (within float tolerance).
    #[test]
    fn matmul_associative(a in arb_matrix(2, 3), b in arb_matrix(3, 2), c in arb_matrix(2, 2)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2 * (1.0 + x.abs()));
        }
    }

    /// Pruning never increases the number of non-zero weights or FLOPs, for
    /// any fraction.
    #[test]
    fn pruning_is_monotone(seed in any::<u64>(), frac in 0.0f32..1.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[4, 8, 3], &mut rng);
        let before = mlp.nonzero_weights();
        prune_magnitude(&mut mlp, frac);
        prop_assert!(mlp.nonzero_weights() <= before);
        let (compact, _) = prune_neurons(&mlp, 0.9);
        prop_assert!(compact.sparse_flops() <= mlp.sparse_flops());
        prop_assert_eq!(compact.input_size(), 4);
        prop_assert_eq!(compact.output_size(), 3);
    }

    /// A zero mask re-applied after arbitrary weight perturbation restores
    /// exactly the masked sparsity pattern.
    #[test]
    fn zero_mask_restores_sparsity(seed in any::<u64>(), frac in 0.1f32..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[4, 6, 2], &mut rng);
        prune_magnitude(&mut mlp, frac);
        let mask = ZeroMask::from_zeros(&mlp);
        let sparse_before = mlp.nonzero_weights();
        // Perturb everything.
        for layer in mlp.layers_mut() {
            layer.w.map_inplace(|v| v + 1.0);
        }
        mask.apply(&mut mlp);
        prop_assert_eq!(mlp.nonzero_weights(), sparse_before);
    }

    /// Normalizing then reading a single row matches the batch transform.
    #[test]
    fn normalizer_single_matches_batch(m in arb_matrix(5, 3), row in 0usize..5) {
        let norm = Normalizer::fit(&m);
        let z = norm.transform(&m);
        let mut one: Vec<f32> = m.row(row).to_vec();
        norm.transform_one(&mut one);
        for (a, b) in one.iter().zip(z.row(row)) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Forward passes are deterministic and finite for bounded inputs.
    #[test]
    fn forward_is_finite(seed in any::<u64>(), x in prop::collection::vec(-100.0f32..100.0, 4)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[4, 8, 8, 2], &mut rng);
        let out1 = mlp.forward_one(&x);
        let out2 = mlp.forward_one(&x);
        prop_assert_eq!(out1.clone(), out2);
        prop_assert!(out1.iter().all(|v| v.is_finite()));
    }

    /// The blocked matmul kernel is bit-identical to its naive reference
    /// on arbitrary shapes — including shapes that straddle the
    /// internal tile boundaries. Blocking only reorders *independent* dot
    /// products; each output element still accumulates over `k` in
    /// ascending order, so no float result may change.
    #[test]
    fn blocked_matmul_is_bit_identical_to_naive(
        m in 1usize..9,
        k in 1usize..80,
        n in 1usize..80,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix(m, k, &mut rng);
        let b = random_matrix(k, n, &mut rng);
        prop_assert_eq!(a.matmul(&b), a.matmul_naive(&b));
    }

    /// `forward_into` (warm, reused cache) and `forward_one` (one row at a
    /// time) are bit-identical to the allocating batch forward pass on
    /// random inputs and hidden sizes.
    #[test]
    fn forward_into_is_bit_identical_to_forward(
        seed in any::<u64>(),
        hidden in 1usize..16,
        x_data in prop::collection::vec(-50.0f32..50.0, 3 * 5),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[5, hidden, 3], &mut rng);
        let x = Matrix::from_vec(3, 5, x_data);
        let batch = mlp.forward(&x);

        // Warm the cache with a different batch shape first: reuse must not
        // leak stale state into the next shape.
        let mut cache = ForwardCache::empty();
        mlp.forward_into(&Matrix::zeros(7, 5), &mut cache);
        mlp.forward_into(&x, &mut cache);
        prop_assert_eq!(cache.activations.last().expect("output present"), &batch);

        for r in 0..x.rows() {
            prop_assert_eq!(mlp.forward_one(x.row(r)), batch.row(r), "row {}", r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Both products equal the triple loop bit for bit (`f32::to_bits`, so
    /// signed zeros count) on random shapes: row counts that leave a tail
    /// below the 4-row tile, column counts that leave 4-wide and 1-wide
    /// tails below the 8-wide tile, and inner dimensions of 0 and 1.
    #[test]
    fn products_match_the_triple_loop_bit_for_bit(
        m in 0usize..14,
        k in 0usize..12,
        n in 0usize..27,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_matrix_with_zeros(m, k, &mut rng);
        let b = random_matrix_with_zeros(k, n, &mut rng);
        let product = a.matmul(&b);
        prop_assert_eq!((product.rows(), product.cols()), (m, n));
        let expected = triple_loop(m, k, &b, |i, kk| a[(i, kk)]);
        prop_assert_eq!(bits(product.as_slice()), bits(&expected), "matmul {}x{}x{}", m, k, n);

        // `aᵀ · c` for a `k × m` operand `a`: the dW product.
        let c = random_matrix_with_zeros(k, n, &mut rng);
        let at = random_matrix_with_zeros(k, m, &mut rng);
        let product = at.transposed_matmul(&c);
        prop_assert_eq!((product.rows(), product.cols()), (m, n));
        let expected = triple_loop(m, k, &c, |i, kk| at[(kk, i)]);
        prop_assert_eq!(
            bits(product.as_slice()),
            bits(&expected),
            "transposed_matmul {}x{}x{}",
            m,
            k,
            n
        );
    }
}
