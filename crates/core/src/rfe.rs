//! RFE-based feature selection over the 47 performance counters (Table I).
//!
//! Following the paper, the power counter (PPC) is treated as a *direct*
//! feature and always kept; RFE refines the *indirect* features
//! (instruction and stall metrics) by repeatedly retraining the
//! Decision-maker, measuring each feature's permutation importance, and
//! eliminating the weakest until the target count remains.
//!
//! # Parallelism and determinism
//!
//! Elimination rounds are inherently sequential (each round retrains on the
//! survivors of the previous one), but *within* a round two stages fan
//! out, one after the other, on one persistent [`Pool`] of `opts.jobs`
//! workers: the retrain shards its minibatch gradients with [`Pool::run`],
//! and the per-column permutation-importance evaluations run as
//! [`Pool::map`] on the same team. No round spawns threads, and the two
//! stages never overlap, so RFE×SGD nesting cannot oversubscribe the
//! host. Every `(column, repeat)` shuffle draws from its
//! own [`splitmix64`]-derived seed inside [`tinynn::column_importance`] and
//! the sharded gradient reduces in fixed index order, so the importance
//! vector — and therefore the selected feature set — is byte-identical to
//! the serial result at any worker count.

use gpu_sim::{CounterCategory, CounterId};
use serde::{Deserialize, Serialize};
use tinynn::{
    accuracy, column_importance, splitmix64, train_classifier_parallel_with, ClassificationData,
    Matrix, Mlp, Normalizer, Pool, TrainConfig, TrainScratch,
};

use crate::datagen::DvfsDataset;
use crate::features::FeatureSet;
use crate::model::ModelArch;

/// Result of the feature-selection experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureSelection {
    /// The selected feature set (always includes the direct power feature).
    pub selected: FeatureSet,
    /// Elimination order of the rejected candidates (first eliminated
    /// first), as counter names.
    pub eliminated: Vec<String>,
    /// Validation accuracy of a model trained on the full candidate set.
    pub full_accuracy: f64,
    /// Validation accuracy of a model trained on the selected set.
    pub selected_accuracy: f64,
}

/// Tuning knobs for [`select_features_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RfeOptions {
    /// Worker threads for both the SGD gradient shards and the per-column
    /// importance fan-out (`0` = one per core). The result is identical at
    /// every worker count.
    pub jobs: usize,
    /// Shuffle repeats averaged per column importance. More repeats cost
    /// proportionally more forward passes but smooth the importance
    /// estimate; the paper-scale runs use 3.
    pub importance_repeats: usize,
}

impl Default for RfeOptions {
    fn default() -> RfeOptions {
        RfeOptions { jobs: 1, importance_repeats: 3 }
    }
}

/// The candidate counters RFE may select from: the *indirect* features
/// (instruction + stall + cache categories). Power is excluded because it
/// is always kept as the direct feature.
pub fn candidate_counters() -> Vec<CounterId> {
    CounterId::ALL.iter().copied().filter(|c| c.category() != CounterCategory::Power).collect()
}

/// A decorrelated seed for one stage of the selection run. Rounds use their
/// round number as the stage; the full-set and selected-set reference
/// trainings use reserved stage ids far above any round count.
fn stage_seed(base: u64, stage: u64) -> u64 {
    splitmix64(base ^ splitmix64(stage))
}

/// Stage id for the full-candidate-set reference training.
const FULL_STAGE: u64 = 1 << 32;
/// Stage id for the final selected-set training.
const SELECTED_STAGE: u64 = (1 << 32) + 1;

fn train_and_score(
    data: &ClassificationData,
    seed: u64,
    config: &TrainConfig,
    pool: &Pool,
    scratch: &mut TrainScratch,
) -> (Mlp, Normalizer, ClassificationData, f64) {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let norm = Normalizer::fit(&data.x);
    let normalized =
        ClassificationData::new(norm.transform(&data.x), data.y.clone(), data.num_classes);
    let (train, val) = normalized.split(0.25, &mut rng);
    let arch = ModelArch::paper_full();
    let mut sizes = vec![data.x.cols()];
    sizes.extend(&arch.decision_hidden);
    sizes.push(data.num_classes);
    let mut mlp = Mlp::new(&sizes, &mut rng);
    let report =
        train_classifier_parallel_with(&mut mlp, &train, &val, config, None, scratch, pool);
    (mlp, norm, val, report.best_metric)
}

/// Runs RFE on the Decision-maker task, keeping `keep_indirect` indirect
/// features plus the direct PPC feature — reproducing Table I (which keeps
/// four indirect features: IPC, MH, MH\L, L1CRM). Serial, default repeats;
/// see [`select_features_with`] for the tunable version.
///
/// # Panics
///
/// Panics if the dataset is empty or `keep_indirect` is not smaller than
/// the candidate count.
pub fn select_features(
    dataset: &DvfsDataset,
    num_ops: usize,
    keep_indirect: usize,
    config: &TrainConfig,
) -> FeatureSelection {
    select_features_with(dataset, num_ops, keep_indirect, config, &RfeOptions::default())
}

/// [`select_features`] with explicit [`RfeOptions`]: the per-column
/// importance fan-out runs on `opts.jobs` workers and averages
/// `opts.importance_repeats` shuffles per column.
///
/// Per-stage seeds are derived with [`splitmix64`], so the selection is a
/// pure function of `(dataset, num_ops, keep_indirect, config, repeats)` —
/// in particular it does *not* depend on `opts.jobs`. The concrete selected
/// set may legitimately change when the seed-derivation scheme changes
/// (features of similar importance swap places); only the determinism
/// contract is stable.
///
/// # Panics
///
/// Panics if the dataset is empty, `keep_indirect` is not smaller than the
/// candidate count, or `opts.importance_repeats` is zero.
pub fn select_features_with(
    dataset: &DvfsDataset,
    num_ops: usize,
    keep_indirect: usize,
    config: &TrainConfig,
    opts: &RfeOptions,
) -> FeatureSelection {
    let candidates = candidate_counters();
    assert!(keep_indirect < candidates.len(), "keep_indirect must be below the candidate count");
    assert!(opts.importance_repeats > 0, "at least one importance repeat is required");
    let candidate_set = FeatureSet::new(candidates.clone());
    let full_data = dataset.decision_data(&candidate_set, num_ops);
    // One worker team and one scratch serve every retrain and every
    // importance fan-out of the run.
    let pool = Pool::new(opts.jobs);
    let mut scratch = TrainScratch::new();
    let (_, _, _, full_accuracy) = train_and_score(
        &full_data,
        stage_seed(config.seed, FULL_STAGE),
        config,
        &pool,
        &mut scratch,
    );

    let mut active: Vec<usize> = (0..candidates.len()).collect();
    let mut eliminated = Vec::new();
    for round in 0u64.. {
        if active.len() <= keep_indirect {
            break;
        }
        let _scope = obs::scope!("rfe.round", "#{round}");
        obs::counter!("rfe.rounds").inc(1);
        // Retrain on the active subset (+ the preset column, which always
        // rides along as the last input).
        let mut cols: Vec<usize> = active.clone();
        cols.push(candidates.len()); // the preset column in full_data.x
        let x = full_data.x.select_columns(&cols);
        let data = ClassificationData::new(x, full_data.y.clone(), num_ops);
        let round_seed = stage_seed(config.seed, round);
        let (mlp, _norm, val, _) = train_and_score(&data, round_seed, config, &pool, &mut scratch);
        // Permutation importance on the validation split, one task per
        // *active* column — the preset column (last) is never a removal
        // candidate, so its importance is never computed. Each task derives
        // its own shuffle seeds from `pi_seed`, making the fan-out
        // order-independent.
        let score = |m: &Matrix| accuracy(&mlp.forward(m), &val.y);
        let baseline = score(&val.x);
        let pi_seed = splitmix64(round_seed);
        obs::counter!("rfe.parallel_tasks").inc(active.len() as u64);
        let importance = pool.map((0..active.len()).collect(), |_, col| {
            column_importance(&val.x, score, baseline, col, opts.importance_repeats, pi_seed)
        });
        let weakest = importance
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("active set is non-empty");
        let removed = active.remove(weakest);
        eliminated.push(candidates[removed].name().to_string());
    }

    // Final selected set: surviving indirect features + the direct PPC.
    let mut selected: Vec<CounterId> = active.iter().map(|&i| candidates[i]).collect();
    selected.push(CounterId::PowerTotalW);
    let selected_set = FeatureSet::new(selected);
    let selected_data = dataset.decision_data(&selected_set, num_ops);
    let (_, _, _, selected_accuracy) = train_and_score(
        &selected_data,
        stage_seed(config.seed, SELECTED_STAGE),
        config,
        &pool,
        &mut scratch,
    );

    FeatureSelection { selected: selected_set, eliminated, full_accuracy, selected_accuracy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::RawSample;
    use gpu_sim::EpochCounters;

    /// Samples where only IPC and StallMemLoad carry label signal.
    fn signal_dataset(n: usize) -> DvfsDataset {
        let mut samples = Vec::with_capacity(n);
        let mut state = 7u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / f64::from(u32::MAX / 2)
        };
        for i in 0..n {
            let stall = next().min(1.0);
            let mut c = EpochCounters::zeroed();
            c[CounterId::Ipc] = 2.0 - 1.8 * stall;
            c[CounterId::StallMemLoad] = stall * 9_000.0;
            // Noise counters.
            c[CounterId::BranchInstrs] = next() * 100.0;
            c[CounterId::SharedAccesses] = next() * 100.0;
            let op = if stall > 0.5 { 0 } else { 5 };
            samples.push(RawSample {
                benchmark: "s".into(),
                cluster: 0,
                breakpoint: i,
                counters: c.clone(),
                scaled_counters: c,
                op_index: op,
                perf_loss: 0.1 * (1.0 - stall),
                instructions: 5_000,
            });
        }
        DvfsDataset { samples, ..DvfsDataset::default() }
    }

    #[test]
    fn candidates_exclude_power() {
        let c = candidate_counters();
        assert!(c.iter().all(|c| c.category() != CounterCategory::Power));
        assert_eq!(c.len(), 40);
    }

    #[test]
    fn selection_keeps_signal_features() {
        let data = signal_dataset(240);
        let cfg = TrainConfig { epochs: 8, ..TrainConfig::default() };
        let sel = select_features(&data, 6, 4, &cfg);
        assert_eq!(sel.selected.len(), 5, "4 indirect + PPC");
        let names = sel.selected.names();
        assert!(names.contains(&"power_total_w"), "PPC always kept");
        assert!(
            names.contains(&"ipc") || names.contains(&"stall_mem_load"),
            "at least one signal feature must survive, got {names:?}"
        );
        assert_eq!(sel.eliminated.len(), 40 - 4);
        assert!((0.0..=1.0).contains(&sel.full_accuracy));
        assert!((0.0..=1.0).contains(&sel.selected_accuracy));
    }

    #[test]
    fn worker_count_never_changes_the_selection() {
        // Cheap configuration: three elimination rounds, two epochs.
        let data = signal_dataset(96);
        let cfg = TrainConfig { epochs: 2, ..TrainConfig::default() };
        let serial = select_features_with(
            &data,
            6,
            37,
            &cfg,
            &RfeOptions { jobs: 1, importance_repeats: 2 },
        );
        for jobs in [2, 8] {
            let parallel = select_features_with(
                &data,
                6,
                37,
                &cfg,
                &RfeOptions { jobs, importance_repeats: 2 },
            );
            assert_eq!(parallel, serial, "selection diverged at {jobs} workers");
        }
    }
}
