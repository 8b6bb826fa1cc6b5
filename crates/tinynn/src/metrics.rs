//! Evaluation metrics: classification accuracy and MAPE — the two numbers
//! the paper reports for the Decision-maker and Calibrator (Table II).

use crate::matrix::Matrix;

/// Index of the largest logit in a row.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn argmax(row: &[f32]) -> usize {
    assert!(!row.is_empty(), "argmax of an empty slice");
    row.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).map(|(i, _)| i).expect("non-empty")
}

/// Fraction of rows whose argmax equals the label, in [0, 1].
///
/// # Panics
///
/// Panics if row counts mismatch or the batch is empty.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    assert!(!labels.is_empty(), "accuracy of an empty batch");
    let correct = labels.iter().enumerate().filter(|(i, &l)| argmax(logits.row(*i)) == l).count();
    correct as f64 / labels.len() as f64
}

/// Mean absolute percentage error of the first output column, in percent.
/// Targets with magnitude below `1e-6` are skipped (MAPE is undefined at 0).
///
/// # Panics
///
/// Panics if row counts mismatch or no target is usable.
pub fn mape(outputs: &Matrix, targets: &[f32]) -> f64 {
    mape_counted(outputs, targets).0
}

/// [`mape`] that also reports how many near-zero targets were skipped, so
/// callers can see when the metric silently covers only part of the batch.
/// The skip count is additionally recorded on the
/// `train.mape_skipped_targets` counter in the metrics registry.
///
/// # Panics
///
/// Panics if row counts mismatch or no target is usable.
pub fn mape_counted(outputs: &Matrix, targets: &[f32]) -> (f64, usize) {
    assert_eq!(outputs.rows(), targets.len(), "one target per row");
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut skipped = 0usize;
    for (i, &t) in targets.iter().enumerate() {
        if t.abs() < 1e-6 {
            skipped += 1;
            continue;
        }
        let y = outputs.row(i)[0];
        total += ((y - t).abs() / t.abs()) as f64;
        count += 1;
    }
    assert!(count > 0, "MAPE needs at least one non-zero target");
    obs::counter!("train.mape_skipped_targets").inc(skipped as u64);
    (100.0 * total / count as f64, skipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_picks_largest() {
        assert_eq!(argmax(&[0.1, 0.9, 0.5]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }

    #[test]
    fn accuracy_counts_matches() {
        let logits = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]);
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn mape_known_value() {
        let out = Matrix::from_rows(&[&[110.0], &[90.0]]);
        // |10|/100 + |-10|/100 over 2 = 10%.
        assert!((mape(&out, &[100.0, 100.0]) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn mape_skips_zero_targets() {
        let out = Matrix::from_rows(&[&[5.0], &[110.0]]);
        assert!((mape(&out, &[0.0, 100.0]) - 10.0).abs() < 1e-5);
    }

    #[test]
    fn mape_counted_reports_skipped_rows() {
        let out = Matrix::from_rows(&[&[5.0], &[110.0], &[7.0]]);
        let (value, skipped) = mape_counted(&out, &[0.0, 100.0, 5e-7]);
        assert!((value - 10.0).abs() < 1e-5);
        assert_eq!(skipped, 2);
        let (_, none_skipped) = mape_counted(&out, &[10.0, 100.0, 1.0]);
        assert_eq!(none_skipped, 0);
    }

    #[test]
    #[should_panic(expected = "non-zero target")]
    fn all_zero_targets_rejected() {
        let out = Matrix::from_rows(&[&[5.0]]);
        mape(&out, &[0.0]);
    }
}

/// Confusion matrix: `result[truth][predicted]` counts, using argmax
/// predictions.
///
/// # Panics
///
/// Panics if row counts mismatch or a label is out of range.
pub fn confusion_matrix(logits: &Matrix, labels: &[usize], classes: usize) -> Vec<Vec<usize>> {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    let mut m = vec![vec![0usize; classes]; classes];
    for (i, &truth) in labels.iter().enumerate() {
        assert!(truth < classes, "label {truth} out of range for {classes} classes");
        let predicted = argmax(logits.row(i)).min(classes - 1);
        m[truth][predicted] += 1;
    }
    m
}

/// Mean absolute class distance `|predicted - truth|` — the natural error
/// metric when classes are *ordered* (as DVFS operating points are): a
/// near-miss to an adjacent point is far cheaper than a jump across the
/// table, which plain accuracy cannot express.
///
/// # Panics
///
/// Panics if row counts mismatch or the batch is empty.
pub fn mean_class_distance(logits: &Matrix, labels: &[usize]) -> f64 {
    assert_eq!(logits.rows(), labels.len(), "one label per row");
    assert!(!labels.is_empty(), "mean class distance of an empty batch");
    let total: usize =
        labels.iter().enumerate().map(|(i, &l)| argmax(logits.row(i)).abs_diff(l)).sum();
    total as f64 / labels.len() as f64
}

#[cfg(test)]
mod ordinal_tests {
    use super::*;

    fn logits_for(preds: &[usize], classes: usize) -> Matrix {
        let mut m = Matrix::zeros(preds.len(), classes);
        for (i, &p) in preds.iter().enumerate() {
            m.row_mut(i)[p] = 10.0;
        }
        m
    }

    #[test]
    fn confusion_matrix_counts_by_truth_and_prediction() {
        let logits = logits_for(&[0, 1, 1, 2], 3);
        let m = confusion_matrix(&logits, &[0, 1, 2, 2], 3);
        assert_eq!(m[0][0], 1);
        assert_eq!(m[1][1], 1);
        assert_eq!(m[2][1], 1, "truth 2 predicted as 1");
        assert_eq!(m[2][2], 1);
        let total: usize = m.iter().flatten().sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn mean_class_distance_weights_misses_by_gap() {
        let logits = logits_for(&[0, 5, 3], 6);
        // truths: 0 (exact), 0 (off by 5), 4 (off by 1) -> mean 2.0.
        assert!((mean_class_distance(&logits, &[0, 0, 4]) - 2.0).abs() < 1e-12);
        // Perfect predictions have zero distance.
        assert_eq!(mean_class_distance(&logits, &[0, 5, 3]), 0.0);
    }
}
