//! Feature selection: permutation importance, the measurement behind
//! recursive feature elimination (RFE).
//!
//! Section IV-A of the paper refines 47 performance counters down to 5 using
//! RFE, "measuring the impact on model accuracy when a specific feature's
//! values are shuffled". [`column_importance`] implements exactly that
//! measurement for one column; `ssmdvfs::rfe` drives the elimination loop
//! and fans the columns out over the compute pool.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::matrix::Matrix;

/// SplitMix64: a full-avalanche 64-bit mixer (Steele et al., "Fast
/// Splittable Pseudorandom Number Generators"). Used to derive decorrelated
/// per-task seeds from a base seed plus a task index — adjacent inputs
/// (e.g. RFE round numbers, column indices) yield statistically independent
/// outputs, unlike the XOR-of-a-counter scheme this replaced.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The permutation-importance seed for one `(column, repeat)` task:
/// `splitmix64` over the base seed and both indices, so every task draws an
/// independent shuffle stream regardless of evaluation order.
fn task_seed(seed: u64, col: usize, repeat: usize) -> u64 {
    splitmix64(seed ^ splitmix64(((col as u64) << 32) | repeat as u64))
}

/// Permutation importance of column `col`: the drop in `score` (higher =
/// better) from the precomputed unshuffled `baseline` when that column's
/// values are shuffled, averaged over `repeats` shuffles. Each
/// `(column, repeat)` shuffle draws from its own [`splitmix64`]-derived
/// seed, so the result depends only on the inputs, never on which other
/// columns were evaluated or in what order. That makes a parallel fan-out
/// over columns byte-identical to the serial loop at any worker count (the
/// property `ssmdvfs::rfe` is built on).
///
/// # Panics
///
/// Panics if `repeats` is zero, `col` is out of range, or `x` has fewer
/// than two rows.
///
/// # Examples
///
/// ```
/// use tinynn::{column_importance, Matrix};
///
/// // A "model" that only uses feature 0.
/// let x = Matrix::from_rows(&[&[1.0, 9.0], &[2.0, 3.0], &[3.0, 7.0], &[4.0, 1.0]]);
/// let score = |m: &Matrix| {
///     // Reward monotone agreement with the true order of feature 0.
///     -(0..m.rows()).map(|r| (m[(r, 0)] - (r as f32 + 1.0)).abs() as f64).sum::<f64>()
/// };
/// let baseline = score(&x);
/// let used = column_importance(&x, score, baseline, 0, 8, 42);
/// let unused = column_importance(&x, score, baseline, 1, 8, 42);
/// assert!(used > unused, "feature 0 must matter more: {used} vs {unused}");
/// ```
pub fn column_importance<F>(
    x: &Matrix,
    score: F,
    baseline: f64,
    col: usize,
    repeats: usize,
    seed: u64,
) -> f64
where
    F: Fn(&Matrix) -> f64,
{
    assert!(repeats > 0, "at least one shuffle repeat is required");
    assert!(x.rows() > 1, "permutation importance needs at least two rows");
    assert!(col < x.cols(), "column {col} out of range ({} cols)", x.cols());
    let original: Vec<f32> = (0..x.rows()).map(|r| x[(r, col)]).collect();
    let mut shuffled = x.clone();
    let mut values = original.clone();
    let mut drop = 0.0;
    for repeat in 0..repeats {
        // Every repeat shuffles the *original* column values with its own
        // derived seed.
        let mut rng = StdRng::seed_from_u64(task_seed(seed, col, repeat));
        values.copy_from_slice(&original);
        values.shuffle(&mut rng);
        for (r, &v) in values.iter().enumerate() {
            shuffled[(r, col)] = v;
        }
        drop += baseline - score(&shuffled);
    }
    drop / repeats as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffling_an_unused_feature_changes_nothing() {
        let x = Matrix::from_rows(&[&[1.0, 5.0], &[2.0, 6.0], &[3.0, 7.0], &[4.0, 8.0]]);
        // Score only reads feature 0.
        let score = |m: &Matrix| (0..m.rows()).map(|r| m[(r, 0)] as f64).sum::<f64>();
        let baseline = score(&x);
        let used = column_importance(&x, score, baseline, 0, 4, 1);
        let unused = column_importance(&x, score, baseline, 1, 4, 1);
        assert!(used.abs() < 1e-9, "sum is shuffle-invariant for the used column");
        assert!(unused.abs() < 1e-9);
    }

    #[test]
    fn informative_feature_dominates() {
        // Build a dataset where y = x0, feature 1 is noise; "model" is the
        // identity predictor on feature 0 scored by negative squared error.
        let x = Matrix::from_rows(&[
            &[0.0, 3.0],
            &[1.0, -2.0],
            &[2.0, 8.0],
            &[3.0, 0.5],
            &[4.0, -1.0],
            &[5.0, 2.0],
        ]);
        let y = [0.0f32, 1.0, 2.0, 3.0, 4.0, 5.0];
        let score = |m: &Matrix| {
            -(0..m.rows())
                .map(|r| {
                    let e = (m[(r, 0)] - y[r]) as f64;
                    e * e
                })
                .sum::<f64>()
        };
        let baseline = score(&x);
        assert!(column_importance(&x, score, baseline, 0, 8, 7) > 1.0);
        assert!(column_importance(&x, score, baseline, 1, 8, 7).abs() < 1e-9);
    }

    #[test]
    fn splitmix64_decorrelates_adjacent_inputs() {
        // Known vector from the SplitMix64 reference implementation.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        // Adjacent inputs (the old `seed ^ round` failure mode) must differ
        // in roughly half their bits.
        for base in [0u64, 42, 0xDEC1] {
            let d = (splitmix64(base) ^ splitmix64(base + 1)).count_ones();
            assert!((16..=48).contains(&d), "weak avalanche: {d} bits for base {base}");
        }
    }

    #[test]
    fn column_importance_is_independent_of_evaluation_order() {
        let x = Matrix::from_rows(&[&[1.0, 9.0], &[2.0, 3.0], &[3.0, 7.0], &[4.0, 1.0]]);
        let score = |m: &Matrix| {
            (0..m.rows()).map(|r| (m[(r, 0)] * 2.0 + m[(r, 1)]) as f64).product::<f64>()
        };
        let baseline = score(&x);
        let serial: Vec<f64> =
            (0..x.cols()).map(|col| column_importance(&x, score, baseline, col, 5, 77)).collect();
        // Evaluating columns in reverse (or any) order reproduces the same
        // values bit for bit — the property the parallel RFE fan-out needs.
        for col in (0..x.cols()).rev() {
            let got = column_importance(&x, score, baseline, col, 5, 77);
            assert_eq!(got.to_bits(), serial[col].to_bits(), "column {col}");
        }
    }
}
