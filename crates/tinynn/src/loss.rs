//! Loss functions: softmax cross-entropy (Decision-maker) and mean squared
//! error (Calibrator).

use crate::matrix::Matrix;

/// Numerically stable softmax of one logit row.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// [`softmax`] computed in place — the allocation-free kernel behind the
/// cross-entropy losses. Identical arithmetic (subtract max, exponentiate, sum,
/// normalize), so the values match [`softmax`] exactly.
pub fn softmax_in_place(v: &mut [f32]) {
    let max = v.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for x in v.iter_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = v.iter().sum();
    for x in v.iter_mut() {
        *x /= sum;
    }
}

/// Softmax cross-entropy over one *shard* of a batch of logits: writes the
/// unnormalized per-row gradient `softmax(x) − onehot(y)` into `grad`
/// (resized as needed, allocation-free once warm) and returns the raw
/// `f64` sum of the shard's per-row losses. The caller folds shard sums in
/// fixed index order and divides by the full batch size once, so sharding
/// never changes the batch loss it reports.
///
/// # Panics
///
/// Panics if a label is out of range or batch sizes mismatch.
pub fn cross_entropy_shard_into(logits: &Matrix, labels: &[usize], grad: &mut Matrix) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per logit row");
    let classes = logits.cols();
    grad.reshape(logits.rows(), classes);
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let grow = grad.row_mut(i);
        grow.copy_from_slice(logits.row(i));
        softmax_in_place(grow);
        loss -= (grow[label].max(1e-12) as f64).ln();
        grow[label] -= 1.0;
    }
    loss
}

/// Class-weighted [`cross_entropy_shard_into`]: each row's loss and
/// gradient is scaled by `class_weights[label] / mean_w`, which keeps the
/// overall gradient scale comparable to the unweighted loss. Used to
/// counter label imbalance (the DVFS decision labels are heavily skewed
/// toward the lowest operating point). The batch-mean class weight
/// `mean_w` ([`mean_class_weight`]) is a *whole-batch* statistic, so the
/// caller computes it once over the full batch's labels — per-row
/// arithmetic is then independent of how the batch was sharded. Returns
/// the raw `f64` loss sum.
///
/// # Panics
///
/// Panics if a label is out of range, batch sizes mismatch, or the weight
/// table is shorter than the class count.
pub fn cross_entropy_weighted_shard_into(
    logits: &Matrix,
    labels: &[usize],
    class_weights: &[f32],
    mean_w: f32,
    grad: &mut Matrix,
) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per logit row");
    let classes = logits.cols();
    assert!(class_weights.len() >= classes, "need a weight per class");
    grad.reshape(logits.rows(), classes);
    let mut loss = 0.0f64;
    for (i, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range for {classes} classes");
        let w = class_weights[label] / mean_w;
        let grow = grad.row_mut(i);
        grow.copy_from_slice(logits.row(i));
        softmax_in_place(grow);
        loss -= f64::from(w) * (grow[label].max(1e-12) as f64).ln();
        for g in grow.iter_mut() {
            *g *= w;
        }
        grow[label] -= w;
    }
    loss
}

/// The batch-mean class weight [`cross_entropy_weighted_shard_into`]
/// normalizes by, clamped away from zero; the training loop computes it
/// once per batch, outside the shards.
pub fn mean_class_weight(labels: impl Iterator<Item = usize>, class_weights: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    let mut n = 0usize;
    for l in labels {
        sum += class_weights[l];
        n += 1;
    }
    (sum / n.max(1) as f32).max(1e-6)
}

/// Squared error over one shard of a batch of scalar predictions (the
/// first output column is used): writes the per-row gradient `2 (y − t)`
/// into `grad` and returns the raw `f64` squared-error sum (see
/// [`cross_entropy_shard_into`]).
///
/// # Panics
///
/// Panics if batch sizes mismatch.
pub fn mse_shard_into(outputs: &Matrix, targets: &[f32], grad: &mut Matrix) -> f64 {
    assert_eq!(outputs.rows(), targets.len(), "one target per output row");
    grad.reshape(outputs.rows(), outputs.cols());
    grad.as_mut_slice().iter_mut().for_each(|v| *v = 0.0);
    let mut loss = 0.0f64;
    for (i, &t) in targets.iter().enumerate() {
        let y = outputs.row(i)[0];
        let err = y - t;
        loss += (err as f64) * (err as f64);
        grad.row_mut(i)[0] = 2.0 * err;
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_shard_loss_known_values() {
        // mean weight (0.5 + 2) / 2 = 1.25, so rows weigh 0.4 and 1.6.
        let logits = Matrix::from_rows(&[&[0.2, -1.0, 0.4], &[1.5, 0.1, -0.2]]);
        let labels = [2usize, 0];
        let weights = [2.0f32, 1.0, 0.5];
        let mean_w = mean_class_weight(labels.iter().copied(), &weights);
        assert_eq!(mean_w, 1.25);
        let mut grad = Matrix::zeros(0, 0);
        let sum = cross_entropy_weighted_shard_into(&logits, &labels, &weights, mean_w, &mut grad);
        assert!((sum - 0.861_589_4).abs() < 1e-5, "{sum}");
        let expected = [[0.158_567, 0.047_759, -0.206_326], [-0.480_556, 0.276_052, 0.204_504]];
        for (r, row) in expected.iter().enumerate() {
            for (g, e) in grad.row(r).iter().zip(row) {
                assert!((g - e).abs() < 1e-5, "row {r}: {g} vs {e}");
            }
        }
    }

    #[test]
    fn shard_rows_match_the_monolithic_gradient_rows() {
        // Each shard's gradient rows equal the corresponding rows of a
        // one-shard pass over the whole batch: per-row arithmetic is
        // independent.
        let logits = Matrix::from_rows(&[&[0.2, -1.0, 0.4], &[1.5, 0.1, -0.2], &[-0.3, 0.9, 0.0]]);
        let labels = [2usize, 0, 1];
        let weights = [2.0f32, 1.0, 0.5];
        let mean_w = mean_class_weight(labels.iter().copied(), &weights);
        let mut full = Matrix::zeros(0, 0);
        cross_entropy_weighted_shard_into(&logits, &labels, &weights, mean_w, &mut full);
        let mut grad = Matrix::zeros(0, 0);
        let mut total = 0.0f64;
        for (lo, hi) in [(0usize, 2usize), (2, 3)] {
            let shard = logits.select_rows(&(lo..hi).collect::<Vec<_>>());
            total += cross_entropy_weighted_shard_into(
                &shard,
                &labels[lo..hi],
                &weights,
                mean_w,
                &mut grad,
            );
            for r in lo..hi {
                assert_eq!(grad.row(r - lo), full.row(r), "row {r} diverged");
            }
        }
        assert!(total.is_finite());
    }

    #[test]
    fn mean_class_weight_clamps_away_from_zero() {
        assert_eq!(mean_class_weight([0usize, 0].into_iter(), &[0.0, 1.0]), 1e-6);
        let w = mean_class_weight([0usize, 1].into_iter(), &[1.0, 3.0]);
        assert_eq!(w, 2.0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let p = softmax(&[1000.0, 1001.0]);
        assert!(p.iter().all(|v| v.is_finite()));
        assert!(p[1] > p[0]);
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_near_zero() {
        let logits = Matrix::from_rows(&[&[20.0, 0.0, 0.0]]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = cross_entropy_shard_into(&logits, &[0], &mut grad);
        assert!(loss < 1e-6);
        assert!(grad.row(0)[0].abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_is_softmax_minus_onehot() {
        let logits = Matrix::from_rows(&[&[0.0, 0.0]]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = cross_entropy_shard_into(&logits, &[1], &mut grad);
        assert!((loss - 2.0f64.ln()).abs() < 1e-5);
        assert!((grad.row(0)[0] - 0.5).abs() < 1e-6);
        assert!((grad.row(0)[1] + 0.5).abs() < 1e-6);
    }

    #[test]
    fn mse_known_values() {
        let out = Matrix::from_rows(&[&[2.0], &[0.0]]);
        let mut grad = Matrix::zeros(0, 0);
        let loss = mse_shard_into(&out, &[1.0, 1.0], &mut grad) / 2.0;
        assert!((loss - 1.0).abs() < 1e-6); // ((1)² + (-1)²) / 2
        assert_eq!(grad.row(0)[0], 2.0);
        assert_eq!(grad.row(1)[0], -2.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_rejected() {
        let logits = Matrix::zeros(1, 3);
        cross_entropy_shard_into(&logits, &[3], &mut Matrix::zeros(0, 0));
    }
}
