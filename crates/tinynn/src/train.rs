//! Minibatch training loops for classifiers and regressors.
//!
//! The epoch loops are allocation-free after warm-up: every buffer a batch
//! needs — the shuffled index buffer, the gathered minibatch, the forward
//! cache, the loss gradient, the backprop deltas and the per-layer
//! gradients — lives in a reusable [`TrainScratch`]. Callers that retrain
//! many models (RFE, ablations) pass one scratch to the `*_with` variants
//! and amortize even the warm-up across runs.
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
//! once. This sharded computation *is* the canonical algorithm: the serial
//! entry points run it inline on a one-worker [`Pool`], and the
//! `*_parallel_with` variants run the identical shards on a persistent
//! worker team — so a trained model is byte-identical at any `jobs`
//! (proptest-enforced), the same determinism contract as every other
//! parallel stage in this repository.
//!
//! Validation passes shard the same way; since the forward kernels compute
//! each output row only from its own input row (ascending-`k`
//! accumulation), the gathered validation output is bit-identical to a
//! monolithic forward pass.

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
use crate::optim::{Adam, Optimizer};
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
}

impl TrainScratch {
    /// An empty scratch; every buffer grows on first use.
    pub fn new() -> TrainScratch {
        TrainScratch {
            indices: Vec::new(),
            grads: Gradients::empty(),
            val_out: Matrix::zeros(0, 0),
            shards: Vec::new(),
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
/// computed only from its own input row.
fn forward_gathered(
    mlp: &Mlp,
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
            mlp.forward_cached(&mut slot.cache);
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

/// One sharded classifier gradient step over `batch` (indices into
/// `train`): shard forwards + raw backward sums on the pool, fixed-order
/// reduction into `grads`, mean batch loss returned. Batch-level
/// statistics (the mean class weight) are hoisted out of the shards so the
/// partition never changes them.
fn classifier_batch_step(
    mlp: &Mlp,
    train: &ClassificationData,
    batch: &[usize],
    class_weights: Option<&[f32]>,
    pool: &Pool,
    shards: &mut [ShardScratch],
    grads: &mut Gradients,
) -> f32 {
    let rows = batch.len();
    let s_count = grad_shards(rows);
    let weighted =
        class_weights.map(|w| (w, mean_class_weight(batch.iter().map(|&i| train.y[i]), w)));
    {
        let slots = ShardSlots::new(&mut shards[..s_count]);
        pool.run(s_count, &|s| {
            // SAFETY: the pool hands each shard index to exactly one worker.
            let slot = unsafe { &mut *slots.slot_ptr(s) };
            let (lo, hi) = shard_span(rows, s_count, s);
            let idx = &batch[lo..hi];
            train.x.select_rows_into(idx, slot.cache.input_mut());
            slot.y_cls.clear();
            slot.y_cls.extend(idx.iter().map(|&i| train.y[i]));
            mlp.forward_cached(&mut slot.cache);
            let ShardScratch { cache, delta, delta_tmp, grads, y_cls, loss, .. } = slot;
            *loss = match weighted {
                Some((w, mean_w)) => {
                    cross_entropy_weighted_shard_into(cache.output(), y_cls, w, mean_w, delta)
                }
                None => cross_entropy_shard_into(cache.output(), y_cls, delta),
            };
            mlp.backward_batch_shard_into(cache, delta, delta_tmp, grads);
        });
    }
    reduce_shards(&shards[..s_count], grads, rows);
    let loss_sum: f64 = shards[..s_count].iter().map(|s| s.loss).sum();
    (loss_sum / rows as f64) as f32
}

/// The regressor twin of [`classifier_batch_step`].
fn regressor_batch_step(
    mlp: &Mlp,
    train: &RegressionData,
    batch: &[usize],
    pool: &Pool,
    shards: &mut [ShardScratch],
    grads: &mut Gradients,
) -> f32 {
    let rows = batch.len();
    let s_count = grad_shards(rows);
    {
        let slots = ShardSlots::new(&mut shards[..s_count]);
        pool.run(s_count, &|s| {
            // SAFETY: the pool hands each shard index to exactly one worker.
            let slot = unsafe { &mut *slots.slot_ptr(s) };
            let (lo, hi) = shard_span(rows, s_count, s);
            let idx = &batch[lo..hi];
            train.x.select_rows_into(idx, slot.cache.input_mut());
            slot.y_reg.clear();
            slot.y_reg.extend(idx.iter().map(|&i| train.y[i]));
            mlp.forward_cached(&mut slot.cache);
            let ShardScratch { cache, delta, delta_tmp, grads, y_reg, loss, .. } = slot;
            *loss = mse_shard_into(cache.output(), y_reg, delta);
            mlp.backward_batch_shard_into(cache, delta, delta_tmp, grads);
        });
    }
    reduce_shards(&shards[..s_count], grads, rows);
    let loss_sum: f64 = shards[..s_count].iter().map(|s| s.loss).sum();
    (loss_sum / rows as f64) as f32
}

/// Trains `mlp` as a softmax classifier, early-stopping on validation
/// accuracy and restoring the best weights.
///
/// # Panics
///
/// Panics if the model output width differs from `train.num_classes` or a
/// dataset is empty.
pub fn train_classifier(
    mlp: &mut Mlp,
    train: &ClassificationData,
    val: &ClassificationData,
    config: &TrainConfig,
) -> TrainReport {
    train_classifier_masked(mlp, train, val, config, None)
}

/// [`train_classifier`] with an optional sparsity mask: weights the mask
/// marks as frozen are re-zeroed after every optimizer step, so pruned
/// models can be fine-tuned without losing their sparsity (used by the
/// Section IV compression pipeline).
///
/// # Panics
///
/// As [`train_classifier`], plus if the mask does not match the model.
pub fn train_classifier_masked(
    mlp: &mut Mlp,
    train: &ClassificationData,
    val: &ClassificationData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
) -> TrainReport {
    train_classifier_with(mlp, train, val, config, mask, &mut TrainScratch::new())
}

/// [`train_classifier_masked`] running through a caller-owned
/// [`TrainScratch`], so repeated trainings (RFE rounds, ablations) reuse
/// every epoch buffer. For a given seed the result is identical to the
/// scratch-free entry points.
///
/// # Panics
///
/// As [`train_classifier_masked`].
pub fn train_classifier_with(
    mlp: &mut Mlp,
    train: &ClassificationData,
    val: &ClassificationData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
) -> TrainReport {
    train_classifier_parallel_with(mlp, train, val, config, mask, scratch, &Pool::serial())
}

/// [`train_classifier_with`] with the shard fan-out running on a
/// caller-owned [`Pool`]. The trained model, report and every
/// intermediate float are **byte-identical** to the serial entry points at
/// any worker count: the shard partition depends only on the batch size
/// and the reduction order is fixed (see the module docs).
///
/// # Panics
///
/// As [`train_classifier_with`].
pub fn train_classifier_parallel_with(
    mlp: &mut Mlp,
    train: &ClassificationData,
    val: &ClassificationData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
    pool: &Pool,
) -> TrainReport {
    assert_eq!(mlp.output_size(), train.num_classes, "output width must equal class count");
    assert!(!train.is_empty() && !val.is_empty(), "datasets must be non-empty");
    let _scope = obs::scope!("train.classifier", "{} rows", train.len());
    // Pre-register the shard counters so a serial run still exports them.
    obs::counter!("train.grad_shards").inc(0);
    obs::counter!("train.parallel_batches").inc(0);
    let class_weights: Option<Vec<f32>> = config.class_balance.then(|| {
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
    let TrainScratch { indices, grads, val_out, shards } = scratch;
    let chunk = config.batch_size.max(1);
    ensure_slots(shards, grad_shards(chunk.min(train.len())).max(grad_shards(val.len())));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.lr);
    // The incoming weights are a candidate too (essential when fine-tuning
    // an already-useful model): training must never return something worse
    // than what it started with.
    forward_gathered(mlp, &val.x, pool, shards, val_out);
    let mut report = TrainReport {
        train_loss: Vec::with_capacity(config.epochs),
        val_metric: Vec::with_capacity(config.epochs),
        best_metric: accuracy(val_out, &val.y),
        best_epoch: 0,
    };
    let mut best_weights = mlp.clone();
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        // Reset to the identity permutation before shuffling so the batch
        // sequence for a given seed matches the historical fresh-Vec
        // implementation exactly.
        indices.clear();
        indices.extend(0..train.len());
        indices.shuffle(&mut rng);
        let num_batches = train.len().div_ceil(chunk);
        for batch in indices.chunks(chunk) {
            let t0 = Instant::now();
            let loss = classifier_batch_step(
                mlp,
                train,
                batch,
                class_weights.as_deref(),
                pool,
                shards,
                grads,
            );
            opt.step(mlp, grads);
            if let Some(mask) = mask {
                mask.apply(mlp);
            }
            epoch_loss += loss as f64;
            obs::counter!("train.grad_shards").inc(grad_shards(batch.len()) as u64);
            if pool.jobs() > 1 {
                obs::counter!("train.parallel_batches").inc(1);
            }
            obs::histogram!("train.batch_latency_us").record(t0.elapsed().as_secs_f64() * 1e6);
        }
        report.train_loss.push((epoch_loss / num_batches as f64) as f32);
        forward_gathered(mlp, &val.x, pool, shards, val_out);
        let acc = accuracy(val_out, &val.y);
        report.val_metric.push(acc);
        obs::counter!("train.epochs").inc(1);
        obs::gauge!("train.classifier_loss").set(epoch_loss / num_batches as f64);
        obs::gauge!("train.val_accuracy").set(acc);
        if acc > report.best_metric {
            report.best_metric = acc;
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

/// Trains `mlp` as a scalar regressor, early-stopping on validation MAPE and
/// restoring the best weights.
///
/// # Panics
///
/// Panics if a dataset is empty.
pub fn train_regressor(
    mlp: &mut Mlp,
    train: &RegressionData,
    val: &RegressionData,
    config: &TrainConfig,
) -> TrainReport {
    train_regressor_masked(mlp, train, val, config, None)
}

/// [`train_regressor`] with an optional sparsity mask (see
/// [`train_classifier_masked`]).
///
/// # Panics
///
/// As [`train_regressor`], plus if the mask does not match the model.
pub fn train_regressor_masked(
    mlp: &mut Mlp,
    train: &RegressionData,
    val: &RegressionData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
) -> TrainReport {
    train_regressor_with(mlp, train, val, config, mask, &mut TrainScratch::new())
}

/// [`train_regressor_masked`] running through a caller-owned
/// [`TrainScratch`] (see [`train_classifier_with`]).
///
/// # Panics
///
/// As [`train_regressor_masked`].
pub fn train_regressor_with(
    mlp: &mut Mlp,
    train: &RegressionData,
    val: &RegressionData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
) -> TrainReport {
    train_regressor_parallel_with(mlp, train, val, config, mask, scratch, &Pool::serial())
}

/// [`train_regressor_with`] on a caller-owned [`Pool`] — byte-identical
/// to the serial entry points at any worker count (see
/// [`train_classifier_parallel_with`]).
///
/// # Panics
///
/// As [`train_regressor_with`].
pub fn train_regressor_parallel_with(
    mlp: &mut Mlp,
    train: &RegressionData,
    val: &RegressionData,
    config: &TrainConfig,
    mask: Option<&ZeroMask>,
    scratch: &mut TrainScratch,
    pool: &Pool,
) -> TrainReport {
    assert!(!train.is_empty() && !val.is_empty(), "datasets must be non-empty");
    let _scope = obs::scope!("train.regressor", "{} rows", train.len());
    obs::counter!("train.grad_shards").inc(0);
    obs::counter!("train.parallel_batches").inc(0);
    let TrainScratch { indices, grads, val_out, shards } = scratch;
    let chunk = config.batch_size.max(1);
    ensure_slots(shards, grad_shards(chunk.min(train.len())).max(grad_shards(val.len())));
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut opt = Adam::new(config.lr);
    // As in the classifier: the incoming weights are the first candidate.
    forward_gathered(mlp, &val.x, pool, shards, val_out);
    let mut report = TrainReport {
        train_loss: Vec::with_capacity(config.epochs),
        val_metric: Vec::with_capacity(config.epochs),
        best_metric: mape(val_out, &val.y),
        best_epoch: 0,
    };
    let mut best_weights = mlp.clone();
    for epoch in 0..config.epochs {
        let mut epoch_loss = 0.0f64;
        indices.clear();
        indices.extend(0..train.len());
        indices.shuffle(&mut rng);
        let num_batches = train.len().div_ceil(chunk);
        for batch in indices.chunks(chunk) {
            let t0 = Instant::now();
            let loss = regressor_batch_step(mlp, train, batch, pool, shards, grads);
            opt.step(mlp, grads);
            if let Some(mask) = mask {
                mask.apply(mlp);
            }
            epoch_loss += loss as f64;
            obs::counter!("train.grad_shards").inc(grad_shards(batch.len()) as u64);
            if pool.jobs() > 1 {
                obs::counter!("train.parallel_batches").inc(1);
            }
            obs::histogram!("train.batch_latency_us").record(t0.elapsed().as_secs_f64() * 1e6);
        }
        report.train_loss.push((epoch_loss / num_batches as f64) as f32);
        forward_gathered(mlp, &val.x, pool, shards, val_out);
        let m = mape(val_out, &val.y);
        report.val_metric.push(m);
        obs::counter!("train.epochs").inc(1);
        obs::gauge!("train.regressor_loss").set(epoch_loss / num_batches as f64);
        obs::gauge!("train.val_mape").set(m);
        if m < report.best_metric {
            report.best_metric = m;
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

    #[test]
    fn classifier_learns_separable_classes() {
        let data = toy_classification(300, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let (train, val) = data.split(0.25, &mut rng);
        let mut mlp = Mlp::new(&[2, 16, 3], &mut rng);
        let cfg = TrainConfig { epochs: 120, ..TrainConfig::default() };
        let report = train_classifier(&mut mlp, &train, &val, &cfg);
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
        let report = train_regressor(&mut mlp, &train, &val, &cfg);
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
        let report = train_classifier(&mut mlp, &train, &val, &cfg);
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
        train_regressor_with(&mut warm_reg, &rtrain, &rval, &cfg, None, &mut warm);

        let mut fresh_mlp = Mlp::new(&[2, 8, 3], &mut StdRng::seed_from_u64(13));
        let mut warm_mlp = fresh_mlp.clone();
        let fresh_report = train_classifier(&mut fresh_mlp, &train, &val, &cfg);
        let warm_report = train_classifier_with(&mut warm_mlp, &train, &val, &cfg, None, &mut warm);
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
        let report = train_regressor(&mut mlp, &train, &val, &cfg);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(last < first * 0.5, "loss should at least halve: {first} -> {last}");
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
            let serial_report = train_classifier_with(
                &mut serial,
                &train,
                &val,
                &cfg,
                None,
                &mut TrainScratch::new(),
            );
            let mut parallel = init.clone();
            let parallel_report = train_classifier_parallel_with(
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
        let sc = train_classifier_with(
            &mut serial_cls,
            &train,
            &val,
            &cfg,
            None,
            &mut TrainScratch::new(),
        );
        let sr = train_regressor_with(
            &mut serial_reg,
            &rtrain,
            &rval,
            &cfg,
            None,
            &mut TrainScratch::new(),
        );
        for jobs in [2usize, 4, 7] {
            let pool = Pool::new(jobs);
            let mut scratch = TrainScratch::new();
            let mut par_cls = init_cls.clone();
            let pc = train_classifier_parallel_with(
                &mut par_cls,
                &train,
                &val,
                &cfg,
                None,
                &mut scratch,
                &pool,
            );
            let mut par_reg = init_reg.clone();
            let pr = train_regressor_parallel_with(
                &mut par_reg,
                &rtrain,
                &rval,
                &cfg,
                None,
                &mut scratch,
                &pool,
            );
            assert_eq!(serial_cls, par_cls, "classifier diverged at {jobs} workers");
            assert_eq!(sc, pc, "classifier report diverged at {jobs} workers");
            assert_eq!(serial_reg, par_reg, "regressor diverged at {jobs} workers");
            assert_eq!(sr, pr, "regressor report diverged at {jobs} workers");
        }
    }
}
