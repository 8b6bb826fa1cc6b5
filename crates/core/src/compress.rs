//! Model combination and compression (Section IV): the layer-wise
//! architecture sweep and the two-stage pruning sweep behind Fig. 3, and
//! the final compression pipeline behind Table II.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tinynn::{
    accuracy, mape, prune_magnitude, prune_neurons, train_classifier, train_regressor,
    ClassificationData, Pool, RegressionData, TrainConfig, TrainScratch, ZeroMask,
};

use crate::datagen::DvfsDataset;
use crate::error::SsmdvfsError;
use crate::features::FeatureSet;
use crate::model::{CombinedModel, ModelArch};
use crate::train::{check_head_rows, check_val_targets, train_prepared, PreparedSplits};

/// One point on a FLOPs-vs-quality curve (the axes of Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressionPoint {
    /// A short description of the configuration.
    pub label: String,
    /// FLOPs per inference at this point (sparse FLOPs for pruned models).
    pub flops: u64,
    /// Decision-maker accuracy, in [0, 1].
    pub accuracy: f64,
    /// Calibrator MAPE, in percent.
    pub mape: f64,
}

/// Sweeps uniform architectures (hidden-layer count × width), training each
/// from scratch with the SGD fan-out on `jobs` workers — the "layer-wise
/// compression" series of Fig. 3. The decision/calibrator splits are
/// prepared **once** and shared by every shape (they do not depend on the
/// architecture), so the sweep performs no per-retrain dataset derivation
/// or cloning; each retrain also reuses one scratch and one worker team.
/// Points are byte-identical at any `jobs`.
///
/// # Panics
///
/// Panics if `shapes` is empty or where [`PreparedSplits::try_prepare`]
/// returns an error.
pub fn layerwise_sweep_jobs(
    dataset: &DvfsDataset,
    features: &FeatureSet,
    shapes: &[(usize, usize)],
    num_ops: usize,
    config: &TrainConfig,
    jobs: usize,
) -> Vec<CompressionPoint> {
    assert!(!shapes.is_empty(), "the sweep needs at least one shape");
    let prep = PreparedSplits::prepare(dataset, features, num_ops, config, 0.25);
    let pool = Pool::new(jobs);
    let mut scratch = TrainScratch::new();
    shapes
        .iter()
        .map(|&(layers, neurons)| {
            let arch = ModelArch::uniform(layers, neurons);
            let (model, summary) = train_prepared(&prep, &arch, config, &pool, &mut scratch);
            CompressionPoint {
                label: format!("{layers}x{neurons}"),
                flops: model.flops(),
                accuracy: summary.decision_accuracy,
                mape: summary.calibrator_mape,
            }
        })
        .collect()
}

/// Applies the paper's two-stage pruning to both heads of a trained model:
/// magnitude pruning at `x1`, then removal of neurons whose incoming weights
/// are at least `x2` zeros. No fine-tuning — see
/// [`compress_and_finetune_jobs`] for the recovery step used by the final
/// pipeline.
pub fn compress_model(model: &CombinedModel, x1: f32, x2: f32) -> CombinedModel {
    let mut out = model.clone();
    prune_magnitude(&mut out.decision, x1);
    prune_magnitude(&mut out.calibrator, x1);
    let (decision, _) = prune_neurons(&out.decision, x2);
    let (calibrator, _) = prune_neurons(&out.calibrator, x2);
    out.decision = decision;
    out.calibrator = calibrator;
    out
}

/// The normalized, split recovery-training datasets of the fine-tune step,
/// derived from a `(model, dataset, seed)` triple exactly once. The splits
/// depend only on the *unpruned* model's normalizers and feature set —
/// never on the `(x1, x2)` pruning parameters — so a [`pruning_sweep_jobs`]
/// prepares once and fine-tunes every point against borrowed splits
/// instead of re-deriving (and cloning) the dataset per point.
#[derive(Debug, Clone)]
pub struct FinetuneSplits {
    dec_train: ClassificationData,
    dec_val: ClassificationData,
    cal_train: RegressionData,
    cal_val: RegressionData,
}

impl FinetuneSplits {
    /// Derives and splits both heads' recovery datasets, transforming with
    /// the model's own normalizers and seeding the split shuffles from
    /// `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Stage`] (stage `compress`) if the dataset is
    /// empty, if either head's derived dataset has too few rows to fill
    /// both a training and a validation split, or if every calibrator
    /// validation target is zero (idle windows), before anything is
    /// fine-tuned.
    pub fn try_prepare(
        model: &CombinedModel,
        dataset: &DvfsDataset,
        config: &TrainConfig,
    ) -> Result<FinetuneSplits, SsmdvfsError> {
        if dataset.is_empty() {
            return Err(SsmdvfsError::stage("compress", "the dataset has no samples"));
        }
        let dec_data = dataset.decision_data(&model.feature_set, model.num_ops);
        let cal_data =
            dataset.calibrator_data(&model.feature_set, model.num_ops, model.instr_scale);
        check_head_rows("compress", "decision", dec_data.len(), dataset.len())?;
        check_head_rows("compress", "calibrator", cal_data.len(), dataset.len())?;
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xF17E);
        let dec_data = ClassificationData::new(
            model.decision_norm.transform(&dec_data.x),
            dec_data.y,
            model.num_ops,
        );
        let (dec_train, dec_val) = dec_data.split(0.25, &mut rng);
        let cal_data =
            RegressionData::new(model.calibrator_norm.transform(&cal_data.x), cal_data.y);
        let (cal_train, cal_val) = cal_data.split(0.25, &mut rng);
        check_val_targets("compress", &cal_val)?;
        Ok(FinetuneSplits { dec_train, dec_val, cal_train, cal_val })
    }

    /// [`FinetuneSplits::try_prepare`] for callers that have already
    /// checked the dataset.
    ///
    /// # Panics
    ///
    /// Panics where [`FinetuneSplits::try_prepare`] returns an error.
    pub fn prepare(
        model: &CombinedModel,
        dataset: &DvfsDataset,
        config: &TrainConfig,
    ) -> FinetuneSplits {
        FinetuneSplits::try_prepare(model, dataset, config).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The full compression pipeline: two-stage pruning followed by a short
/// sparsity-preserving fine-tune of both heads on the dataset (pruned
/// weights stay frozen at zero, so the FLOPs reduction survives the
/// recovery training), with the recovery SGD on `jobs` workers —
/// byte-identical at any `jobs`.
///
/// # Panics
///
/// Panics where [`FinetuneSplits::try_prepare`] returns an error.
pub fn compress_and_finetune_jobs(
    model: &CombinedModel,
    dataset: &DvfsDataset,
    x1: f32,
    x2: f32,
    config: &TrainConfig,
    jobs: usize,
) -> CombinedModel {
    let splits = FinetuneSplits::prepare(model, dataset, config);
    let pool = Pool::new(jobs);
    // Both recovery trainings share one scratch, like `train_combined_jobs`.
    let mut scratch = TrainScratch::new();
    compress_and_finetune_prepared(model, &splits, x1, x2, config, &pool, &mut scratch)
}

/// [`compress_and_finetune_jobs`] against prepared [`FinetuneSplits`] — the
/// inner loop of [`pruning_sweep_jobs`], which shares one set of splits,
/// one worker team and one scratch across every `(x1, x2)` point.
pub fn compress_and_finetune_prepared(
    model: &CombinedModel,
    splits: &FinetuneSplits,
    x1: f32,
    x2: f32,
    config: &TrainConfig,
    pool: &Pool,
    scratch: &mut TrainScratch,
) -> CombinedModel {
    let mut out = compress_model(model, x1, x2);
    // Recovery training uses a gentler step than from-scratch training: the
    // weights are already near a solution and the sparsity mask amplifies
    // effective step sizes on the surviving weights.
    let config = &TrainConfig { lr: config.lr * 0.3, ..config.clone() };
    let dec_mask = ZeroMask::from_zeros(&out.decision);
    train_classifier(
        &mut out.decision,
        &splits.dec_train,
        &splits.dec_val,
        config,
        Some(&dec_mask),
        scratch,
        pool,
    );
    let cal_mask = ZeroMask::from_zeros(&out.calibrator);
    train_regressor(
        &mut out.calibrator,
        &splits.cal_train,
        &splits.cal_val,
        config,
        Some(&cal_mask),
        scratch,
        pool,
    );
    out
}

/// Quantizes both heads to INT8 weights (extension; the paper's module is
/// FP32), returning a model whose weights carry the quantization error so
/// the accuracy cost of an INT8 datapath can be measured with
/// [`crate::train::evaluate`].
pub fn quantize_model(model: &CombinedModel) -> CombinedModel {
    let mut out = model.clone();
    out.decision = tinynn::QuantizedMlp::quantize(&out.decision).dequantize();
    out.calibrator = tinynn::QuantizedMlp::quantize(&out.calibrator).dequantize();
    out
}

/// Sweeps `(x1, x2)` pruning parameters over a trained model, fine-tuning
/// each pruned variant with the recovery SGD on `jobs` workers and
/// evaluating it on the dataset — the "pruning" series of Fig. 3. The
/// fine-tune splits and the evaluation datasets are derived **once** (they
/// depend only on the unpruned model and the dataset, never on the pruning
/// parameters) and shared by every `(x1, x2)` point, as are the worker
/// team and the training scratch. Points are byte-identical at any `jobs`.
///
/// # Panics
///
/// Panics if `params` is empty or where [`FinetuneSplits::try_prepare`]
/// returns an error.
pub fn pruning_sweep_jobs(
    model: &CombinedModel,
    dataset: &DvfsDataset,
    params: &[(f32, f32)],
    finetune: &TrainConfig,
    jobs: usize,
) -> Vec<CompressionPoint> {
    assert!(!params.is_empty(), "the sweep needs at least one parameter pair");
    let splits = FinetuneSplits::prepare(model, dataset, finetune);
    let pool = Pool::new(jobs);
    let mut scratch = TrainScratch::new();
    // Every pruned variant keeps the parent's feature set, normalizers and
    // op count, so the evaluation inputs are shared across points too
    // (previously `evaluate` re-derived them per point).
    let dec_eval = dataset.decision_data(&model.feature_set, model.num_ops);
    let cal_eval = dataset.calibrator_data(&model.feature_set, model.num_ops, model.instr_scale);
    params
        .iter()
        .map(|&(x1, x2)| {
            let pruned = compress_and_finetune_prepared(
                model,
                &splits,
                x1,
                x2,
                finetune,
                &pool,
                &mut scratch,
            );
            let acc = accuracy(&pruned.decision_forward_raw(&dec_eval.x), &dec_eval.y);
            let m = mape(&pruned.calibrator_forward_raw(&cal_eval.x), &cal_eval.y);
            CompressionPoint {
                label: format!("x1={x1:.2},x2={x2:.2}"),
                flops: pruned.sparse_flops(),
                accuracy: acc,
                mape: m,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::RawSample;
    use crate::train::{evaluate, train_combined_jobs};
    use gpu_sim::{CounterId, EpochCounters};

    fn tiny_dataset(n: usize) -> DvfsDataset {
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let stall = (i % 10) as f64 / 10.0;
            let mut c = EpochCounters::zeroed();
            c[CounterId::Ipc] = 2.0 - stall;
            c[CounterId::PowerTotalW] = 3.0 + stall;
            c[CounterId::StallMemLoad] = stall * 5_000.0;
            c[CounterId::StallMemOther] = stall * 400.0;
            c[CounterId::L1ReadMiss] = stall * 300.0;
            samples.push(RawSample {
                benchmark: "t".into(),
                cluster: 0,
                breakpoint: i,
                counters: c.clone(),
                scaled_counters: c,
                op_index: if stall > 0.5 { 1 } else { 4 },
                perf_loss: 0.05,
                instructions: 8_000 + i as u64,
            });
        }
        DvfsDataset { samples, ..DvfsDataset::default() }
    }

    fn quick_config() -> TrainConfig {
        TrainConfig { epochs: 10, ..TrainConfig::default() }
    }

    #[test]
    fn layerwise_sweep_orders_flops_by_size() {
        let data = tiny_dataset(120);
        let pts = layerwise_sweep_jobs(
            &data,
            &FeatureSet::refined(),
            &[(1, 6), (2, 12), (3, 20)],
            6,
            &quick_config(),
            1,
        );
        assert_eq!(pts.len(), 3);
        assert!(pts[0].flops < pts[1].flops);
        assert!(pts[1].flops < pts[2].flops);
        for p in &pts {
            assert!((0.0..=1.0).contains(&p.accuracy));
            assert!(p.mape.is_finite());
        }
    }

    #[test]
    fn pruning_reduces_sparse_flops_monotonically_in_x1() {
        let data = tiny_dataset(120);
        let (model, _) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            6,
            &quick_config(),
            0.25,
            1,
        );
        let params = [(0.2, 0.95), (0.5, 0.95), (0.8, 0.95)];
        let pts = pruning_sweep_jobs(&model, &data, &params, &quick_config(), 1);
        assert!(pts[0].flops >= pts[1].flops);
        assert!(pts[1].flops >= pts[2].flops);
    }

    #[test]
    fn quantization_keeps_decisions_and_sparsity() {
        let data = tiny_dataset(120);
        let (model, _) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            6,
            &quick_config(),
            0.25,
            1,
        );
        let pruned = compress_model(&model, 0.5, 0.9);
        let quantized = quantize_model(&pruned);
        // Sparsity survives (zero weights quantize to zero).
        assert_eq!(quantized.sparse_flops(), pruned.sparse_flops());
        // Decision agreement stays high over the dataset.
        let (acc_p, _) = evaluate(&pruned, &data);
        let (acc_q, _) = evaluate(&quantized, &data);
        assert!(
            (acc_p - acc_q).abs() < 0.08,
            "INT8 should barely move accuracy: {acc_p:.3} vs {acc_q:.3}"
        );
    }

    #[test]
    fn sweeps_are_byte_identical_at_any_worker_count() {
        let data = tiny_dataset(100);
        let cfg = TrainConfig { epochs: 4, ..TrainConfig::default() };
        let features = FeatureSet::refined();
        let serial_layers = layerwise_sweep_jobs(&data, &features, &[(1, 6), (2, 10)], 6, &cfg, 1);
        let (model, _) =
            train_combined_jobs(&data, &features, &ModelArch::paper_compressed(), 6, &cfg, 0.25, 1);
        let serial_prune = pruning_sweep_jobs(&model, &data, &[(0.3, 0.95), (0.6, 0.95)], &cfg, 1);
        for jobs in [2usize, 4] {
            let layers = layerwise_sweep_jobs(&data, &features, &[(1, 6), (2, 10)], 6, &cfg, jobs);
            assert_eq!(serial_layers, layers, "layerwise sweep diverged at {jobs} workers");
            let prune = pruning_sweep_jobs(&model, &data, &[(0.3, 0.95), (0.6, 0.95)], &cfg, jobs);
            assert_eq!(serial_prune, prune, "pruning sweep diverged at {jobs} workers");
        }
    }

    #[test]
    fn compress_model_preserves_io_shapes() {
        let data = tiny_dataset(80);
        let (model, _) = train_combined_jobs(
            &data,
            &FeatureSet::refined(),
            &ModelArch::paper_full(),
            6,
            &quick_config(),
            0.25,
            1,
        );
        let pruned = compress_model(&model, 0.6, 0.9);
        assert_eq!(pruned.decision.input_size(), model.decision.input_size());
        assert_eq!(pruned.decision.output_size(), 6);
        assert_eq!(pruned.calibrator.output_size(), 1);
        assert!(pruned.sparse_flops() < model.flops());
        // A pruned model still makes valid decisions.
        let idx = pruned.decide(&[1.0, 4.0, 100.0, 10.0, 20.0], 0.1);
        assert!(idx < 6);
    }
}
