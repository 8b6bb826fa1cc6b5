//! The minibatch training loop shared by both heads.
//!
//! [`train_classifier`] and [`train_regressor`] run one epoch loop and one
//! sharded batch step; a head contributes only its loss kernel, its
//! validation metric (and whether higher or lower is better) and its
//! gauges. The loop is allocation-free after warm-up: every buffer a batch
//! needs — the shuffled index buffer, the gathered minibatch, the forward
//! cache, the loss gradient, the backprop deltas and the per-layer
//! gradients — lives in a reusable [`TrainScratch`]. Callers that retrain
//! many models (RFE, sweeps) pass one scratch to every training and
//! amortize even the warm-up across runs.
//!
//! # Data-parallel gradients, deterministic by construction
//!
//! Every minibatch is split into [`grad_shards`] row shards — the shard
//! count is a pure function of the batch size, never of the worker count.
//! Each shard gathers its row range, runs its own forward pass, computes
//! unnormalized per-row loss gradients and backpropagates them into raw
//! per-shard gradient sums ([`Mlp::backward_batch_shard_into`]); the shard
//! sums are then folded in **fixed ascending shard order**
//! ([`Gradients::accumulate_into`]) and divided by the full batch size
//! once. This sharded computation *is* the algorithm: [`Pool::serial`] runs
//! the shards inline and a larger [`Pool`] runs the identical shards on a
//! persistent worker team — so a trained model is byte-identical at any
//! `jobs` (proptest-enforced), the same determinism contract as every
//! other parallel stage in this repository.
//!
//! Validation passes shard the same way; since the forward kernels compute
//! each output row only from its own input row (ascending-`k`
//! accumulation), the gathered validation output is bit-identical to a
//! monolithic forward pass.
//!
//! # One weight layout per optimizer step
//!
//! The forward product reads each layer's weights transposed (`in × out`).
//! Weights change only in the optimizer step, so [`TrainScratch`] holds one
//! transposed copy of the whole model, re-laid when a training starts and
//! after every optimizer step and mask application; every shard forward
//! and every validation forward until the next step reads it, instead of
//! each shard re-laying every layer for itself.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::{ClassificationData, RegressionData};
use crate::loss::{
    cross_entropy_shard_into, cross_entropy_weighted_shard_into, mean_class_weight, mse_shard_into,
};
use crate::matrix::Matrix;
use crate::metrics::{accuracy, mape};
use crate::mlp::{ForwardCache, Gradients, Mlp};
use crate::optim::Adam;
use crate::par::Pool;
use crate::prune::ZeroMask;

/// Target rows per gradient shard. Small enough that the default batch of
/// 64 fans out over 8 shards; large enough that a shard's matmuls amortize
/// the per-shard dispatch.
const SHARD_ROWS: usize = 8;
/// Shard-count ceiling, so huge batches (and validation passes) produce a
/// bounded fan-out.
const MAX_SHARDS: usize = 16;

/// Number of gradient shards a batch of `rows` rows splits into: a pure
/// function of the batch size (never of the worker count), which is what
/// makes the sharded gradient — and therefore the trained model —
/// identical at any `jobs`.
pub fn grad_shards(rows: usize) -> usize {
    rows.div_ceil(SHARD_ROWS).clamp(1, MAX_SHARDS)
}

/// Half-open row range `[lo, hi)` of shard `s` when `rows` rows are split
/// into `shards` contiguous shards: the first `rows % shards` shards take
/// one extra row, so every row lands in exactly one shard.
pub fn shard_span(rows: usize, shards: usize, s: usize) -> (usize, usize) {
    let base = rows / shards;
    let extra = rows % shards;
    let lo = s * base + s.min(extra);
    (lo, lo + base + usize::from(s < extra))
}

/// Training hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Maximum passes over the training data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Shuffle/init seed.
    pub seed: u64,
    /// Weight classes inversely to their frequency during classification
    /// training (clamped to [0.25, 8]); counters label imbalance.
    pub class_balance: bool,
}

impl Default for TrainConfig {
    fn default() -> TrainConfig {
        TrainConfig {
            epochs: 200,
            batch_size: 64,
            lr: 3e-3,
            patience: 25,
            seed: 0xDEC1,
            class_balance: false,
        }
    }
}

/// Per-epoch history and final metrics of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub train_loss: Vec<f32>,
    /// Validation metric per epoch (accuracy for classifiers — higher
    /// better; MAPE for regressors — lower better).
    pub val_metric: Vec<f64>,
    /// Best validation metric seen.
    pub best_metric: f64,
    /// Epoch index of the best metric.
    pub best_epoch: usize,
}

/// One shard's private compute buffers: forward cache, loss/backprop
/// deltas, raw gradient sums and gathered labels. Each shard owns a slot,
/// so workers never share a buffer and a slot warmed by one batch serves
/// every later batch (and every later retrain) without allocating.
#[derive(Debug, Clone)]
struct ShardScratch {
    cache: ForwardCache,
    delta: Matrix,
    delta_tmp: Matrix,
    grads: Gradients,
    y_cls: Vec<usize>,
    y_reg: Vec<f32>,
    /// Raw (unnormalized) `f64` loss sum of this shard's rows.
    loss: f64,
}

impl ShardScratch {
    fn new() -> ShardScratch {
        ShardScratch {
            cache: ForwardCache::empty(),
            delta: Matrix::zeros(0, 0),
            delta_tmp: Matrix::zeros(0, 0),
            grads: Gradients::empty(),
            y_cls: Vec::new(),
            y_reg: Vec::new(),
            loss: 0.0,
        }
    }
}

/// Reusable buffers for the training loops: once warm, an epoch performs
/// zero heap allocations. One scratch can serve many trainings (and many
/// model shapes — buffers are resized in place), which is how the RFE and
/// ablation pipelines amortize warm-up across dozens of retrains. The
/// per-shard slot pool inside doubles as the per-worker scratch of the
/// data-parallel path: a slot belongs to whichever worker claimed its
/// shard, for exactly one batch.
#[derive(Debug, Clone)]
pub struct TrainScratch {
    /// Minibatch order: reset to identity and shuffled in place each epoch
    /// (batches are slices of this buffer, never fresh `Vec`s).
    indices: Vec<usize>,
    /// The reduced whole-batch gradient (shard sums folded in fixed order).
    grads: Gradients,
    /// Gathered validation outputs (shard outputs copied back in order).
    val_out: Matrix,
    /// Per-shard slot pool; grown to the shard count on first use.
    shards: Vec<ShardScratch>,
    /// The model's weights transposed (`in × out` per layer), re-laid once
    /// after every optimizer step (and mask application) and read by every
    /// shard forward and validation forward until the next step.
    wt: Vec<Matrix>,
}

impl TrainScratch {
    /// An empty scratch; every buffer grows on first use.
    pub fn new() -> TrainScratch {
        TrainScratch {
            indices: Vec::new(),
            grads: Gradients::empty(),
            val_out: Matrix::zeros(0, 0),
            shards: Vec::new(),
            wt: Vec::new(),
        }
    }
}

impl Default for TrainScratch {
    fn default() -> TrainScratch {
        TrainScratch::new()
    }
}

/// Raw-pointer view of the shard slot pool handed to the worker closure.
/// Mirrors the disjoint-slot pattern of `ssmdvfs::exec`: every shard index
/// is claimed by exactly one worker, so the per-slot `&mut` handed out by
/// [`ShardSlots::slot_ptr`] never aliases. The pool's completion handshake
/// (mutex-protected shard counter) orders all slot writes before the
/// caller's reduction reads.
struct ShardSlots {
    slots: *mut ShardScratch,
    #[cfg(debug_assertions)]
    len: usize,
}

// SAFETY: workers only touch disjoint slots (see above), and ShardScratch
// itself is Send.
unsafe impl Send for ShardSlots {}
unsafe impl Sync for ShardSlots {}

impl ShardSlots {
    fn new(slots: &mut [ShardScratch]) -> ShardSlots {
        ShardSlots {
            slots: slots.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: slots.len(),
        }
    }

    /// Pointer to slot `s`.
    ///
    /// # Safety
    ///
    /// `s` must be in bounds and dereferenced by at most one worker at a
    /// time (guaranteed by the pool's claim counter).
    unsafe fn slot_ptr(&self, s: usize) -> *mut ShardScratch {
        #[cfg(debug_assertions)]
        debug_assert!(s < self.len, "shard index out of bounds");
        self.slots.add(s)
    }
}

/// Grows the slot pool to at least `n` slots.
fn ensure_slots(shards: &mut Vec<ShardScratch>, n: usize) {
    if shards.len() < n {
        shards.resize_with(n, ShardScratch::new);
    }
}

/// Folds the shard gradient sums in ascending shard order and divides by
/// the full batch size — the fixed-order reduction that makes the batch
/// gradient independent of shard scheduling.
fn reduce_shards(shards: &[ShardScratch], grads: &mut Gradients, rows: usize) {
    grads.assign_from(&shards[0].grads);
    for s in &shards[1..] {
        s.grads.accumulate_into(grads);
    }
    grads.div_scalar(rows as f32);
}

/// Sharded forward pass over `x` with the outputs gathered back into `out`
/// in row order. Bit-identical to a monolithic forward: each output row is
/// computed only from its own input row. `wt` holds the model's current
/// transposed weights.
fn forward_gathered(
    mlp: &Mlp,
    wt: &[Matrix],
    x: &Matrix,
    pool: &Pool,
    shards: &mut Vec<ShardScratch>,
    out: &mut Matrix,
) {
    let rows = x.rows();
    let s_count = grad_shards(rows);
    ensure_slots(shards, s_count);
    out.reshape(rows, mlp.output_size());
    {
        let slots = ShardSlots::new(&mut shards[..s_count]);
        pool.run(s_count, &|s| {
            // SAFETY: the pool hands each shard index to exactly one worker.
            let slot = unsafe { &mut *slots.slot_ptr(s) };
            let (lo, hi) = shard_span(rows, s_count, s);
            let input = slot.cache.input_mut();
            input.reshape(hi - lo, x.cols());
            input.as_mut_slice().copy_from_slice(&x.as_slice()[lo * x.cols()..hi * x.cols()]);
            mlp.forward_transposed(wt, &mut slot.cache);
        });
    }
    for (s, slot) in shards[..s_count].iter().enumerate() {
        let (lo, hi) = shard_span(rows, s_count, s);
        let o = slot.cache.output();
        for r in lo..hi {
            out.row_mut(r).copy_from_slice(o.row(r - lo));
        }
    }
}

/// What differs between the two heads in the one training loop: the
/// dataset and its labels, the loss kernel, the validation metric and its
/// direction, and the gauges. Everything else — shuffling, sharding, the
/// fixed-order reduction, the optimizer step, early stopping — is shared.
enum Head<'a> {
    /// Softmax cross-entropy, class-weighted when `weights` is set;
    /// early-stops on validation accuracy (higher is better).
    Classifier {
        train: &'a ClassificationData,
        val: &'a ClassificationData,
        weights: Option<Vec<f32>>,
    },
    /// Squared error on the first output; early-stops on validation MAPE
    /// (lower is better).
    Regressor { train: &'a RegressionData, val: &'a RegressionData },
}

impl Head<'_> {
    /// The training and validation inputs.
    fn inputs(&self) -> (&Matrix, &Matrix) {
        match self {
            Head::Classifier { train, val, .. } => (&train.x, &val.x),
            Head::Regressor { train, val } => (&train.x, &val.x),
        }
    }

    /// The class weights and their mean over `batch` (indices into the
    /// training set) — a whole-batch statistic, hoisted out of the shards
    /// so the partition never changes it. `None` for an unweighted loss.
    fn batch_weights(&self, batch: &[usize]) -> Option<(&[f32], f32)> {
        match self {
            Head::Classifier { train, weights: Some(w), .. } => {
                Some((w, mean_class_weight(batch.iter().map(|&i| train.y[i]), w)))
            }
            _ => None,
        }
    }

    /// Gathers the labels of `idx` into the slot and writes the shard's
    /// unnormalized loss gradient for the cached forward pass into
    /// `slot.delta`, returning the raw `f64` loss sum.
    fn shard_loss(
        &self,
        idx: &[usize],
        weighted: Option<(&[f32], f32)>,
        slot: &mut ShardScratch,
    ) -> f64 {
        let ShardScratch { cache, delta, y_cls, y_reg, .. } = slot;
        match self {
            Head::Classifier { train, .. } => {
                y_cls.clear();
                y_cls.extend(idx.iter().map(|&i| train.y[i]));
                match weighted {
                    Some((w, mean_w)) => {
                        cross_entropy_weighted_shard_into(cache.output(), y_cls, w, mean_w, delta)
                    }
                    None => cross_entropy_shard_into(cache.output(), y_cls, delta),
                }
            }
            Head::Regressor { train, .. } => {
                y_reg.clear();
                y_reg.extend(idx.iter().map(|&i| train.y[i]));
                mse_shard_into(cache.output(), y_reg, delta)
            }
        }
    }

    /// The validation metric of the gathered validation outputs.
    fn metric(&self, out: &Matrix) -> f64 {
        match self {
            Head::Classifier { val, .. } => accuracy(out, &val.y),
            Head::Regressor { val, .. } => mape(out, &val.y),
        }
    }

    /// Whether `metric` beats `best`.
    fn improves(&self, metric: f64, best: f64) -> bool {
        match self {
            Head::Classifier { .. } => metric > best,
            Head::Regressor { .. } => metric < best,
        }
    }

    /// Publishes an epoch's mean training loss and validation metric. Each
    /// head keeps its own `gauge!` call sites: a call site caches its
    /// handle in a `static`, so one shared site would write both heads
    /// into whichever name it resolved first.
    fn record_epoch(&self, loss: f64, metric: f64) {
        match self {
            Head::Classifier { .. } => {
                obs::gauge!("train.classifier_loss").set(loss);
                obs::gauge!("train.val_accuracy").set(metric);
            }
            Head::Regressor { .. } => {
                obs::gauge!("train.regressor_loss").set(loss);
                obs::gauge!("train.val_mape").set(metric);
            }
        }
    }
}

/// One sharded gradient step over `batch` (indices into the training
/// set): shard forwards, losses and raw backward sums on the pool,
/// fixed-order reduction into `grads`, mean batch loss returned.
fn batch_step(
    mlp: &Mlp,
    wt: &[Matrix],
    head: &Head,
    batch: &[usize],
    pool: &Pool,
    shards: &mut [ShardScratch],
    grads: &mut Gradients,
) -> f32 {
    let rows = batch.len();
    let s_count = grad_shards(rows);
    let weighted = head.batch_weights(batch);
    let (x, _) = head.inputs();
    {
        let slots = ShardSlots::new(&mut shards[..s_count]);
        pool.run(s_count, &|s| {
            // SAFETY: the pool hands each shard index to exactly one worker.
            let slot = unsafe { &mut *slots.slot_ptr(s) };
            let (lo, hi) = shard_span(rows, s_count, s);
            let idx = &batch[lo..hi];
            x.select_rows_into(idx, slot.cache.input_mut());
            mlp.forward_transposed(wt, &mut slot.cache);
            slot.loss = head.shard_loss(idx, weighted, slot);
            let ShardScratch { cache, delta, delta_tmp, grads, .. } = slot;
            mlp.backward_batch_shard_into(cache, delta, delta_tmp, grads);
        });
    }
    reduce_shards(&shards[..s_count], grads, rows);
    let loss_sum: f64 = shards[..s_count].iter().map(|s| s.loss).sum();
    (loss_sum / rows as f64) as f32
}

/// Applies the reduced batch gradient, re-imposes the sparsity mask, and
/// re-lays the updated weights into `wt` — the one place the training
/// loop changes weights, so the transposed copy every shard reads is never
/// stale.
fn apply_step(
    mlp: &mut Mlp,
    opt: &mut Adam,
    grads: &Gradients,
    mask: Option<&ZeroMask>,
    wt: &mut Vec<Matrix>,
) {
    opt.step(mlp, grads);
    if let Some(mask) = mask {
        mask.apply(mlp);
    }
    mlp.transpose_weights_into(wt);
}

/// The one epoch loop behind [`train_classifier`] and [`train_regressor`]:
/// shuffled minibatches through [`batch_step`], a validation pass per
/// epoch, early stopping on the head's metric, and the best weights
/// restored at the end.
fn train_head(
    mlp: &mut Mlp,
    head: &Head,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
    pool: &Pool,
) -> TrainReport {
    let (train_x, val_x) = head.inputs();
    let n = train_x.rows();
    assert!(n > 0 && val_x.rows() > 0, "datasets must be non-empty");
    let phase = match head {
        Head::Classifier { .. } => "train.classifier",
        Head::Regressor { .. } => "train.regressor",
    };
    let _scope = obs::scope!(phase, "{n} rows");
    // Pre-register the shard counters so a serial run still exports them.
    obs::counter!("train.grad_shards").inc(0);
    obs::counter!("train.parallel_batches").inc(0);
    let TrainScratch { indices, grads, val_out, shards, wt } = scratch;
    let chunk = config.batch_size.max(1);
    ensure_slots(shards, grad_shards(chunk.min(n)).max(grad_shards(val_x.rows())));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.lr);
    // The incoming weights are a candidate too (essential when fine-tuning
    // an already-useful model): training must never return something worse
    // than what it started with.
    mlp.transpose_weights_into(wt);
    forward_gathered(mlp, wt, val_x, pool, shards, val_out);
    let mut report = TrainReport {
        train_loss: Vec::with_capacity(config.epochs),
        val_metric: Vec::with_capacity(config.epochs),
        best_metric: head.metric(val_out),
        best_epoch: 0,
    };
    let mut best_weights = mlp.clone();
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        // Reset to the identity permutation before shuffling so the batch
        // sequence for a given seed matches the historical fresh-Vec
        // implementation exactly.
        indices.clear();
        indices.extend(0..n);
        indices.shuffle(&mut rng);
        for batch in indices.chunks(chunk) {
            let t0 = Instant::now();
            let loss = batch_step(mlp, wt, head, batch, pool, shards, grads);
            apply_step(mlp, &mut opt, grads, mask, wt);
            epoch_loss += loss as f64;
            obs::counter!("train.grad_shards").inc(grad_shards(batch.len()) as u64);
            if pool.jobs() > 1 {
                obs::counter!("train.parallel_batches").inc(1);
            }
            obs::histogram!("train.batch_latency_us").record(t0.elapsed().as_secs_f64() * 1e6);
        }
        let mean_loss = epoch_loss / n.div_ceil(chunk) as f64;
        report.train_loss.push(mean_loss as f32);
        forward_gathered(mlp, wt, val_x, pool, shards, val_out);
        let metric = head.metric(val_out);
        report.val_metric.push(metric);
        obs::counter!("train.epochs").inc(1);
        head.record_epoch(mean_loss, metric);
        if head.improves(metric, report.best_metric) {
            report.best_metric = metric;
            report.best_epoch = epoch;
            best_weights.copy_weights_from(mlp);
        } else if epoch - report.best_epoch >= config.patience {
            obs::counter!("train.early_stops").inc(1);
            break;
        }
    }
    mlp.copy_weights_from(&best_weights);
    report
}

/// Trains `mlp` as a softmax classifier, early-stopping on validation
/// accuracy and restoring the best weights.
///
/// With a `mask`, weights it marks as frozen are re-zeroed after every
/// optimizer step, so a pruned model is fine-tuned without losing its
/// sparsity (the Section IV compression pipeline). Every epoch buffer
/// lives in `scratch`, so repeated trainings (RFE rounds, sweeps) reuse
/// them, and the gradient shards fan out on `pool`: the trained model,
/// the report and every intermediate float are **byte-identical** at any
/// worker count, because the shard partition depends only on the batch
/// size and the reduction order is fixed (see the module docs).
///
/// # Panics
///
/// Panics if the model output width differs from `train.num_classes`, a
/// dataset is empty, or the mask does not match the model.
pub fn train_classifier(
    mlp: &mut Mlp,
    train: &ClassificationData,
    val: &ClassificationData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
    pool: &Pool,
) -> TrainReport {
    assert_eq!(mlp.output_size(), train.num_classes, "output width must equal class count");
    let weights = config.class_balance.then(|| {
        let mut counts = vec![0usize; train.num_classes];
        for &l in &train.y {
            counts[l] += 1;
        }
        let n = train.len() as f32;
        counts
            .iter()
            .map(|&c| (n / (train.num_classes as f32 * c.max(1) as f32)).clamp(0.25, 8.0))
            .collect()
    });
    train_head(mlp, &Head::Classifier { train, val, weights }, config, mask, scratch, pool)
}

/// Trains `mlp` as a scalar regressor, early-stopping on validation MAPE
/// and restoring the best weights. `mask`, `scratch` and `pool` work as in
/// [`train_classifier`], with the same byte-identity at any worker count.
///
/// # Panics
///
/// Panics if a dataset is empty, no validation target is usable by
/// [`mape`], or the mask does not match the model.
pub fn train_regressor(
    mlp: &mut Mlp,
    train: &RegressionData,
    val: &RegressionData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
    pool: &Pool,
) -> TrainReport {
    train_head(mlp, &Head::Regressor { train, val }, config, mask, scratch, pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::Rng;

    /// A linearly separable 3-class problem on a ring.
    fn toy_classification(n: usize, seed: u64) -> ClassificationData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 3;
            let angle = class as f32 * 2.094 + rng.gen_range(-0.4..0.4);
            x[(i, 0)] = angle.cos() + rng.gen_range(-0.1..0.1);
            x[(i, 1)] = angle.sin() + rng.gen_range(-0.1..0.1);
            y.push(class);
        }
        ClassificationData::new(x, y, 3)
    }

    fn toy_regression(n: usize, seed: u64) -> RegressionData {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 2);
        let mut y = Vec::with_capacity(n);
        for i in 0..n {
            let a = rng.gen_range(-1.0f32..1.0);
            let b = rng.gen_range(-1.0f32..1.0);
            x[(i, 0)] = a;
            x[(i, 1)] = b;
            y.push(3.0 * a - 2.0 * b + 5.0);
        }
        RegressionData::new(x, y)
    }

    /// An unmasked training on a fresh scratch, shards run inline.
    fn serial_classifier(
        mlp: &mut Mlp,
        train: &ClassificationData,
        val: &ClassificationData,
        cfg: &TrainConfig,
    ) -> TrainReport {
        train_classifier(mlp, train, val, cfg, None, &mut TrainScratch::new(), &Pool::serial())
    }

    fn serial_regressor(
        mlp: &mut Mlp,
        train: &RegressionData,
        val: &RegressionData,
        cfg: &TrainConfig,
    ) -> TrainReport {
        train_regressor(mlp, train, val, cfg, None, &mut TrainScratch::new(), &Pool::serial())
    }

    #[test]
    fn classifier_learns_separable_classes() {
        let data = toy_classification(300, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, val) = data.split(0.25, &mut rng);
        let mut mlp = Mlp::new(&[2, 16, 3], &mut rng);
        let cfg = TrainConfig { epochs: 120, ..TrainConfig::default() };
        let report = serial_classifier(&mut mlp, &train, &val, &cfg);
        assert!(
            report.best_metric > 0.9,
            "separable classes should reach >90% accuracy, got {:.3}",
            report.best_metric
        );
    }

    #[test]
    fn regressor_learns_linear_map() {
        let data = toy_regression(300, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let (train, val) = data.split(0.25, &mut rng);
        let mut mlp = Mlp::new(&[2, 16, 1], &mut rng);
        let cfg = TrainConfig { epochs: 200, ..TrainConfig::default() };
        let report = serial_regressor(&mut mlp, &train, &val, &cfg);
        assert!(
            report.best_metric < 5.0,
            "linear map MAPE should be <5%, got {:.2}",
            report.best_metric
        );
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let data = toy_classification(120, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let (train, val) = data.split(0.3, &mut rng);
        let mut mlp = Mlp::new(&[2, 8, 3], &mut rng);
        let cfg = TrainConfig { epochs: 60, patience: 5, ..TrainConfig::default() };
        let report = serial_classifier(&mut mlp, &train, &val, &cfg);
        // The restored model's validation accuracy equals the best metric.
        let final_acc = accuracy(&mlp.forward(&val.x), &val.y);
        assert!((final_acc - report.best_metric).abs() < 1e-9);
        // Early stopping actually triggered or training ran to the end.
        assert!(report.val_metric.len() <= cfg.epochs);
    }

    #[test]
    fn scratch_reuse_never_changes_results() {
        // A scratch warmed by a previous (different-shape) training must
        // produce bit-identical models and reports to a fresh one.
        let data = toy_classification(150, 9);
        let reg = toy_regression(150, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let (train, val) = data.split(0.25, &mut rng);
        let (rtrain, rval) = reg.split(0.25, &mut rng);
        let cfg = TrainConfig { epochs: 15, ..TrainConfig::default() };

        let mut warm = TrainScratch::new();
        let mut warm_reg = Mlp::new(&[2, 6, 1], &mut StdRng::seed_from_u64(12));
        train_regressor(&mut warm_reg, &rtrain, &rval, &cfg, None, &mut warm, &Pool::serial());

        let mut fresh_mlp = Mlp::new(&[2, 8, 3], &mut StdRng::seed_from_u64(13));
        let mut warm_mlp = fresh_mlp.clone();
        let fresh_report = serial_classifier(&mut fresh_mlp, &train, &val, &cfg);
        let warm_report =
            train_classifier(&mut warm_mlp, &train, &val, &cfg, None, &mut warm, &Pool::serial());
        assert_eq!(fresh_mlp, warm_mlp);
        assert_eq!(fresh_report, warm_report);
    }

    #[test]
    fn loss_decreases_over_training() {
        let data = toy_regression(200, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let (train, val) = data.split(0.2, &mut rng);
        let mut mlp = Mlp::new(&[2, 12, 1], &mut rng);
        let cfg = TrainConfig { epochs: 80, ..TrainConfig::default() };
        let report = serial_regressor(&mut mlp, &train, &val, &cfg);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first * 0.5, "loss should at least halve: {first} -> {last}");
    }

    #[test]
    fn shared_transposes_track_every_masked_step() {
        // A pruned model fine-tuned under its ZeroMask: after every
        // optimizer step the transposed copy the shards read must equal the
        // weights as masked, or later batches would train a different model.
        let data = toy_classification(90, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let (train, _) = data.split(0.25, &mut rng);
        let mut mlp = Mlp::new(&[2, 12, 12, 3], &mut rng);
        crate::prune::prune_magnitude(&mut mlp, 0.5);
        let mask = ZeroMask::from_zeros(&mlp);
        let pool = Pool::new(2);
        let TrainScratch { grads, shards, wt, .. } = &mut TrainScratch::new();
        ensure_slots(shards, grad_shards(16));
        let mut opt = Adam::new(0.05);
        mlp.transpose_weights_into(wt);
        let order: Vec<usize> = (0..train.len()).collect();
        for (step, batch) in order.chunks(16).cycle().take(12).enumerate() {
            let head = Head::Classifier { train: &train, val: &train, weights: None };
            batch_step(&mlp, wt, &head, batch, &pool, shards, grads);
            apply_step(&mut mlp, &mut opt, grads, Some(&mask), wt);
            assert_eq!(mlp.nonzero_weights(), mask.nonzero_count(), "step {step}");
            for (l, (layer, t)) in mlp.layers().iter().zip(wt.iter()).enumerate() {
                assert_eq!(t, &layer.w.transpose(), "layer {l} stale after step {step}");
            }
        }
    }

    #[test]
    fn shard_spans_cover_every_sample_exactly_once() {
        for rows in [1usize, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 100, 127, 128, 129, 1_000] {
            let shards = grad_shards(rows);
            assert!(shards >= 1 && shards <= rows.min(MAX_SHARDS), "rows={rows} shards={shards}");
            let mut next = 0usize;
            for s in 0..shards {
                let (lo, hi) = shard_span(rows, shards, s);
                assert_eq!(lo, next, "shard {s} of {shards} must start where {rows} left off");
                assert!(hi > lo, "shard {s} of {shards} must be non-empty at {rows} rows");
                next = hi;
            }
            assert_eq!(next, rows, "shards must cover all {rows} rows");
        }
    }

    #[test]
    fn degenerate_batch_sizes_shard_and_train_identically() {
        // Batch sizes of 1, n-1 and a non-divisible tail must produce the
        // same bytes at 1 and 4 workers.
        let data = toy_classification(45, 21);
        let mut rng = StdRng::seed_from_u64(22);
        let (train, val) = data.split(0.2, &mut rng);
        let pool = Pool::new(4);
        for batch_size in [1usize, train.len() - 1, 13] {
            let cfg = TrainConfig { epochs: 4, batch_size, ..TrainConfig::default() };
            let init = Mlp::new(&[2, 8, 3], &mut StdRng::seed_from_u64(23));
            let mut serial = init.clone();
            let serial_report = serial_classifier(&mut serial, &train, &val, &cfg);
            let mut parallel = init.clone();
            let parallel_report = train_classifier(
                &mut parallel,
                &train,
                &val,
                &cfg,
                None,
                &mut TrainScratch::new(),
                &pool,
            );
            assert_eq!(serial, parallel, "batch_size={batch_size} diverged");
            assert_eq!(serial_report, parallel_report, "batch_size={batch_size} report diverged");
        }
    }

    #[test]
    fn parallel_training_is_byte_identical_for_both_heads() {
        let data = toy_classification(150, 31);
        let reg = toy_regression(150, 32);
        let mut rng = StdRng::seed_from_u64(33);
        let (train, val) = data.split(0.25, &mut rng);
        let (rtrain, rval) = reg.split(0.25, &mut rng);
        // class_balance exercises the hoisted batch-mean weight.
        let cfg = TrainConfig { epochs: 10, class_balance: true, ..TrainConfig::default() };

        let init_cls = Mlp::new(&[2, 10, 3], &mut StdRng::seed_from_u64(34));
        let init_reg = Mlp::new(&[2, 10, 1], &mut StdRng::seed_from_u64(35));
        let mut serial_cls = init_cls.clone();
        let mut serial_reg = init_reg.clone();
        let sc = serial_classifier(&mut serial_cls, &train, &val, &cfg);
        let sr = serial_regressor(&mut serial_reg, &rtrain, &rval, &cfg);
        for jobs in [2usize, 4, 7] {
            let pool = Pool::new(jobs);
            let mut scratch = TrainScratch::new();
            let mut par_cls = init_cls.clone();
            let pc = train_classifier(&mut par_cls, &train, &val, &cfg, None, &mut scratch, &pool);
            let mut par_reg = init_reg.clone();
            let pr = train_regressor(&mut par_reg, &rtrain, &rval, &cfg, None, &mut scratch, &pool);
            assert_eq!(serial_cls, par_cls, "classifier diverged at {jobs} workers");
            assert_eq!(sc, pc, "classifier report diverged at {jobs} workers");
            assert_eq!(serial_reg, par_reg, "regressor diverged at {jobs} workers");
            assert_eq!(sr, pr, "regressor report diverged at {jobs} workers");
        }
    }
}
