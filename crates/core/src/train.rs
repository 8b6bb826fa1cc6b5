//! Offline training of the combined model.
//!
//! Training splits into two phases so sweep drivers never redo shared
//! work: [`PreparedSplits::prepare`] derives, normalizes and splits the
//! decision/calibrator datasets once, and [`train_prepared`] trains a model
//! of a given architecture against those borrowed splits — the layer-wise
//! and pruning sweeps in [`crate::compress`] call it in a loop without
//! re-deriving (or cloning) the dataset per retrain. [`train_combined_jobs`]
//! is the one-shot composition of the two, with the SGD minibatch fan-out
//! on `jobs` workers; results are byte-identical at any worker count (see
//! [`tinynn::train_classifier`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tinynn::{
    accuracy, mape, splitmix64, train_classifier, train_regressor, ClassificationData, Mlp,
    Normalizer, Pool, RegressionData, TrainConfig, TrainScratch,
};

use crate::datagen::DvfsDataset;
use crate::error::SsmdvfsError;
use crate::features::FeatureSet;
use crate::model::{CombinedModel, ModelArch};

/// Everything known about a completed training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSummary {
    /// Validation accuracy of the Decision-maker, in [0, 1].
    pub decision_accuracy: f64,
    /// Validation MAPE of the Calibrator, in percent.
    pub calibrator_mape: f64,
    /// Dense FLOPs of the trained model.
    pub flops: u64,
    /// Number of training samples used.
    pub samples: usize,
}

/// Instruction-count scale shared by training and inference; per-cluster,
/// per-epoch instruction counts are O(10⁴), so dividing by 1000 keeps the
/// regression target O(10).
pub const INSTR_SCALE: f32 = 1_000.0;

/// The normalized, split decision and calibrator datasets of one training
/// problem, derived from a [`DvfsDataset`] exactly once. Sweep drivers that
/// retrain many architectures against the same data prepare once and pass
/// the splits by reference to [`train_prepared`] — no per-retrain dataset
/// derivation, normalization or cloning.
#[derive(Debug, Clone)]
pub struct PreparedSplits {
    features: FeatureSet,
    num_ops: usize,
    samples: usize,
    dec_norm: Normalizer,
    cal_norm: Normalizer,
    dec_train: ClassificationData,
    dec_val: ClassificationData,
    cal_train: RegressionData,
    cal_val: RegressionData,
}

impl PreparedSplits {
    /// Derives, normalizes and splits both heads' datasets (holding out
    /// `val_frac` of the samples), seeding the split shuffles from
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Stage`] (stage `train`) if the dataset is
    /// empty, if either head's derived dataset has fewer than two rows, too
    /// few to fill both a training and a validation split, or if every
    /// calibrator validation target is zero (idle windows), where MAPE is
    /// undefined. The checks run before anything is trained.
    ///
    /// # Panics
    ///
    /// Panics if `num_ops < 2`.
    pub fn try_prepare(
        dataset: &DvfsDataset,
        features: &FeatureSet,
        num_ops: usize,
        config: &TrainConfig,
        val_frac: f64,
    ) -> Result<PreparedSplits, SsmdvfsError> {
        assert!(num_ops >= 2, "need at least two operating points");
        let _scope = obs::scope!("train.prepare", "{} samples", dataset.len());
        if dataset.is_empty() {
            return Err(SsmdvfsError::stage("train", "the dataset has no samples"));
        }
        let dec_data = dataset.decision_data(features, num_ops);
        let cal_data = dataset.calibrator_data(features, num_ops, INSTR_SCALE);
        check_head_rows("train", "decision", dec_data.len(), dataset.len())?;
        check_head_rows("train", "calibrator", cal_data.len(), dataset.len())?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5A5A);
        let dec_norm = Normalizer::fit(&dec_data.x);
        let dec_data =
            ClassificationData::new(dec_norm.transform(&dec_data.x), dec_data.y, num_ops);
        let (dec_train, dec_val) = dec_data.split(val_frac, &mut rng);
        let cal_norm = Normalizer::fit(&cal_data.x);
        let cal_data = RegressionData::new(cal_norm.transform(&cal_data.x), cal_data.y);
        let (cal_train, cal_val) = cal_data.split(val_frac, &mut rng);
        check_val_targets("train", &cal_val)?;
        Ok(PreparedSplits {
            features: features.clone(),
            num_ops,
            samples: dataset.len(),
            dec_norm,
            cal_norm,
            dec_train,
            dec_val,
            cal_train,
            cal_val,
        })
    }

    /// [`PreparedSplits::try_prepare`] for callers that have already
    /// checked the dataset.
    ///
    /// # Panics
    ///
    /// Panics where [`PreparedSplits::try_prepare`] returns an error, or if
    /// `num_ops < 2`.
    pub fn prepare(
        dataset: &DvfsDataset,
        features: &FeatureSet,
        num_ops: usize,
        config: &TrainConfig,
        val_frac: f64,
    ) -> PreparedSplits {
        PreparedSplits::try_prepare(dataset, features, num_ops, config, val_frac)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of samples in the source dataset.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// Checks that a head's derived dataset of `rows` rows (from `samples`
/// samples) can be split: holding out a validation split leaves a
/// non-empty training split only from two rows on. `stage` names the
/// pipeline stage in the error.
///
/// # Errors
///
/// Returns [`SsmdvfsError::Stage`] if `rows < 2`.
pub(crate) fn check_head_rows(
    stage: &'static str,
    head: &str,
    rows: usize,
    samples: usize,
) -> Result<(), SsmdvfsError> {
    if rows >= 2 {
        return Ok(());
    }
    Err(SsmdvfsError::stage(
        stage,
        format!(
            "the {head} head gets {rows} row(s) from the dataset's {samples} sample(s); \
             it needs at least 2 to fill both a training and a validation split"
        ),
    ))
}

/// Checks that the calibrator's validation split has a target [`mape`]
/// can use (`|t| ≥ 1e-6`); early stopping reads that metric every epoch.
/// `stage` names the pipeline stage in the error.
///
/// # Errors
///
/// Returns [`SsmdvfsError::Stage`] if every validation target is zero.
pub(crate) fn check_val_targets(
    stage: &'static str,
    val: &RegressionData,
) -> Result<(), SsmdvfsError> {
    if val.y.iter().any(|t| t.abs() >= 1e-6) {
        return Ok(());
    }
    Err(SsmdvfsError::stage(
        stage,
        format!(
            "all {} calibrator validation target(s) are zero (idle windows), so MAPE is undefined",
            val.y.len()
        ),
    ))
}

/// Trains a [`CombinedModel`] of the given architecture against prepared
/// splits. Weight init is seeded from `config.seed`, SGD shards fan out on
/// `pool`, and every retrain reuses `scratch` — the inner loop of the
/// layer-wise and pruning sweeps.
///
/// # Panics
///
/// Panics if the architecture and splits disagree on widths.
pub fn train_prepared(
    prep: &PreparedSplits,
    arch: &ModelArch,
    config: &TrainConfig,
    pool: &Pool,
    scratch: &mut TrainScratch,
) -> (CombinedModel, TrainSummary) {
    let _scope = obs::scope!("train.combined", "{} samples", prep.samples);
    // Weight init draws from its own decorrelated stream (the split
    // shuffles already consumed the `seed ^ 0x5A5A` stream in `prepare`).
    let mut rng = StdRng::seed_from_u64(splitmix64(config.seed ^ 0x5A5A));

    // Decision head. The minimum-frequency labels are dominated by the
    // lowest point (memory-tolerant contexts qualify at almost every
    // preset), so the decision head always trains class-balanced.
    let config = &TrainConfig { class_balance: true, ..config.clone() };
    let mut dec_sizes = vec![prep.features.len() + 1];
    dec_sizes.extend(&arch.decision_hidden);
    dec_sizes.push(prep.num_ops);
    let mut decision = Mlp::new(&dec_sizes, &mut rng);
    let dec_report = train_classifier(
        &mut decision,
        &prep.dec_train,
        &prep.dec_val,
        config,
        None,
        scratch,
        pool,
    );

    // Calibrator head.
    let mut cal_sizes = vec![prep.features.len() + 2];
    cal_sizes.extend(&arch.calibrator_hidden);
    cal_sizes.push(1);
    let mut calibrator = Mlp::new(&cal_sizes, &mut rng);
    let cal_report = train_regressor(
        &mut calibrator,
        &prep.cal_train,
        &prep.cal_val,
        config,
        None,
        scratch,
        pool,
    );

    let model = CombinedModel {
        decision,
        calibrator,
        feature_set: prep.features.clone(),
        decision_norm: prep.dec_norm.clone(),
        calibrator_norm: prep.cal_norm.clone(),
        instr_scale: INSTR_SCALE,
        num_ops: prep.num_ops,
    };
    let summary = TrainSummary {
        decision_accuracy: dec_report.best_metric,
        calibrator_mape: cal_report.best_metric,
        flops: model.flops(),
        samples: prep.samples,
    };
    obs::gauge!("train.decision_accuracy").set(summary.decision_accuracy);
    obs::gauge!("train.calibrator_mape").set(summary.calibrator_mape);
    (model, summary)
}

/// Trains a [`CombinedModel`] of the given architecture on a generated
/// dataset, holding out `val_frac` of the samples for early stopping and
/// for the reported metrics, with the SGD minibatch fan-out running on
/// `jobs` workers (`0` = one per core). The trained model is
/// byte-identical at any `jobs`.
///
/// # Panics
///
/// Panics where [`PreparedSplits::try_prepare`] returns an error, or if
/// `num_ops < 2`.
pub fn train_combined_jobs(
    dataset: &DvfsDataset,
    features: &FeatureSet,
    arch: &ModelArch,
    num_ops: usize,
    config: &TrainConfig,
    val_frac: f64,
    jobs: usize,
) -> (CombinedModel, TrainSummary) {
    let prep = PreparedSplits::prepare(dataset, features, num_ops, config, val_frac);
    let pool = Pool::new(jobs);
    // Both heads train through one scratch: the buffers are sized by the
    // first head and re-shaped (without reallocating what already fits)
    // for the second.
    let mut scratch = TrainScratch::new();
    train_prepared(&prep, arch, config, &pool, &mut scratch)
}

/// Re-evaluates an existing model on a dataset (e.g. after pruning),
/// returning `(decision accuracy, calibrator MAPE%)`.
///
/// # Errors
///
/// Returns [`SsmdvfsError::Stage`] (stage `evaluate`) if the dataset is
/// empty, or if every calibrator target is zero (all windows idle), where
/// MAPE is undefined.
pub fn try_evaluate(
    model: &CombinedModel,
    dataset: &DvfsDataset,
) -> Result<(f64, f64), SsmdvfsError> {
    if dataset.is_empty() {
        return Err(SsmdvfsError::stage("evaluate", "the dataset has no samples"));
    }
    let cal_data = dataset.calibrator_data(&model.feature_set, model.num_ops, model.instr_scale);
    // `mape` skips targets below 1e-6 and needs at least one it can use.
    if cal_data.y.iter().all(|t| t.abs() < 1e-6) {
        return Err(SsmdvfsError::stage(
            "evaluate",
            format!(
                "all {} calibrator target(s) are zero (idle windows), so MAPE is undefined",
                cal_data.y.len()
            ),
        ));
    }
    let dec_data = dataset.decision_data(&model.feature_set, model.num_ops);
    let logits = model.decision_forward_raw(&dec_data.x);
    let acc = accuracy(&logits, &dec_data.y);
    let outputs = model.calibrator_forward_raw(&cal_data.x);
    Ok((acc, mape(&outputs, &cal_data.y)))
}

/// [`try_evaluate`] for callers that have already checked the dataset.
///
/// # Panics
///
/// Panics where [`try_evaluate`] returns an error.
pub fn evaluate(model: &CombinedModel, dataset: &DvfsDataset) -> (f64, f64) {
    try_evaluate(model, dataset).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::RawSample;
    use gpu_sim::{CounterId, EpochCounters};

    /// A synthetic dataset with a learnable rule: high memory-stall share
    /// tolerates low frequency (label 0..2), low stall share needs high
    /// frequency (label 3..5); instruction count tracks IPC and frequency.
    fn synthetic_dataset(n: usize) -> DvfsDataset {
        let mut samples = Vec::with_capacity(n);
        let mut state = 0x1234u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0)
        };
        for i in 0..n {
            let stall_frac = next().min(1.0);
            let ipc = 2.0 * (1.0 - stall_frac) + 0.1;
            let op = if stall_frac > 0.66 {
                i % 3
            } else if stall_frac > 0.33 {
                2 + i % 2
            } else {
                4 + i % 2
            };
            let freq_ratio = 0.6 + 0.08 * op as f64;
            let mut c = EpochCounters::zeroed();
            c[CounterId::Ipc] = ipc;
            c[CounterId::PowerTotalW] = 2.0 + 3.0 * ipc;
            c[CounterId::StallMemLoad] = stall_frac * 10_000.0;
            c[CounterId::StallMemOther] = stall_frac * 1_000.0;
            c[CounterId::L1ReadMiss] = stall_frac * 500.0;
            samples.push(RawSample {
                benchmark: "synthetic".into(),
                cluster: 0,
                breakpoint: i,
                counters: c.clone(),
                scaled_counters: c,
                op_index: op,
                perf_loss: (1.0 - stall_frac) * (1.0 - freq_ratio) * 0.5,
                instructions: (ipc * freq_ratio * 10_000.0) as u64,
            });
        }
        DvfsDataset { samples, ..DvfsDataset::default() }
    }

    #[test]
    fn training_learns_the_synthetic_rule() {
        let data = synthetic_dataset(600);
        let cfg = TrainConfig { epochs: 80, ..TrainConfig::default() };
        let (model, summary) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            6,
            &cfg,
            0.25,
            1,
        );
        assert!(
            summary.decision_accuracy > 0.5,
            "decision accuracy {:.3} too low for a learnable rule",
            summary.decision_accuracy
        );
        assert!(
            summary.calibrator_mape < 30.0,
            "calibrator MAPE {:.1}% too high",
            summary.calibrator_mape
        );
        assert_eq!(model.num_ops, 6);
        assert_eq!(summary.samples, 600);
    }

    #[test]
    fn paper_full_arch_flops_are_near_the_reported_6960() {
        let data = synthetic_dataset(200);
        let cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
        let (model, _) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_full(),
            6,
            &cfg,
            0.25,
            1,
        );
        // 5 features + preset, five/four 20-wide hidden layers.
        let flops = model.flops();
        assert!(
            (5_000..9_000).contains(&flops),
            "full model FLOPs {flops} should be near the paper's 6960"
        );
    }

    #[test]
    fn evaluate_matches_training_metrics_scale() {
        let data = synthetic_dataset(400);
        let cfg = TrainConfig { epochs: 40, ..TrainConfig::default() };
        let (model, _) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            6,
            &cfg,
            0.25,
            1,
        );
        let (acc, m) = evaluate(&model, &data);
        assert!((0.0..=1.0).contains(&acc));
        assert!(m >= 0.0 && m.is_finite());
    }

    #[test]
    fn parallel_combined_training_is_byte_identical() {
        let data = synthetic_dataset(300);
        let cfg = TrainConfig { epochs: 6, ..TrainConfig::default() };
        let features = FeatureSet::refined();
        let arch = ModelArch::paper_compressed();
        let (serial, serial_summary) =
            train_combined_jobs(&data, &features, &arch, 6, &cfg, 0.25, 1);
        for jobs in [2usize, 4] {
            let (parallel, summary) =
                train_combined_jobs(&data, &features, &arch, 6, &cfg, 0.25, jobs);
            assert_eq!(serial, parallel, "combined model diverged at {jobs} workers");
            assert_eq!(serial_summary, summary, "summary diverged at {jobs} workers");
        }
    }
}
