//! The set-up shared by `decide-replay`, `serve-load` and `fleet`: train
//! the deployed small model and record the counters every cluster produces
//! when the evaluation programs run under it.
//!
//! A deployment ships one model, so the model is trained on the default
//! GPU seed whatever the benchmark seed is; the seed varies the evaluation
//! programs' warp streams, and with them every recorded counter. (With a
//! model trained per seed, decision throughput spread 20 % over ten seeds
//! on a 2-core host, against 6 % with one model.)

use std::sync::Arc;

use gpu_sim::{EpochCounters, GpuConfig, Time, Workload};
use gpu_workloads::{evaluation_set, training_set};
use ssmdvfs::exec::parallel_map_indexed;
use ssmdvfs::{
    compress_and_finetune_jobs, generate_suite_with, train_combined_jobs, CombinedModel,
    DataGenConfig, DvfsDataset, FeatureSet, ModelArch, SsmdvfsConfig, SsmdvfsGovernor,
    SuiteOptions,
};
use tinynn::TrainConfig;

use crate::layers::{measure_plan, run_recorded, stage, LayerLog, PlanCost};
use crate::trace;

/// Performance-loss preset of the deployed governor.
pub const PRESET: f64 = 0.10;
/// Scale of the training programs the deployed model learns from.
const DATAGEN_SCALE: f64 = 0.03;
/// Training epochs of the compressed architecture.
const TRAIN_EPOCHS: usize = 40;
/// Fine-tune epochs after two-stage pruning.
const FINETUNE_EPOCHS: usize = 20;
/// Scale of the evaluation programs whose counters are recorded.
pub const RECORD_SCALE: f64 = 0.25;
/// Simulation horizon per program, µs.
pub const HORIZON_US: f64 = 3_000.0;

/// One evaluation program's run under a private governor.
pub struct Recording {
    /// The program.
    pub workload: Arc<Workload>,
    /// Counters of every decided epoch, epoch-major and cluster-minor.
    pub counters: Vec<EpochCounters>,
    /// The governor's decision for each entry of `counters`.
    pub ops: Vec<usize>,
}

/// The deployed model plus its recorded counter streams.
pub struct Deployment {
    /// The GPU every recording ran on (seeded with the benchmark seed).
    pub config: Arc<GpuConfig>,
    /// The pruned, fine-tuned compressed model.
    pub model: Arc<CombinedModel>,
    /// One recording per evaluation program, in `evaluation_set` order.
    pub recordings: Vec<Recording>,
}

impl Deployment {
    /// The governor configuration every consumer of the recordings must
    /// use for its decisions to be comparable.
    pub fn governor_config() -> SsmdvfsConfig {
        SsmdvfsConfig::new(PRESET)
    }

    /// The compiled plan's cost on the recorded counters.
    pub fn plan_cost(&self) -> PlanCost {
        let streams: Vec<&[EpochCounters]> =
            self.recordings.iter().map(|r| r.counters.as_slice()).collect();
        let table_len = self.config.vf_table.len();
        measure_plan(&self.model, PRESET, self.config.num_clusters, table_len, &streams)
    }

    /// Decided epochs over all recordings.
    pub fn epochs(&self) -> usize {
        self.recordings.iter().map(|r| r.ops.len()).sum::<usize>() / self.config.num_clusters
    }
}

/// Generates data, trains and prunes the deployed model, then records every
/// evaluation program under it.
pub fn deploy(seed: u64, log: &mut LayerLog) -> Deployment {
    let _span = trace::span("setup", "setup.deploy");
    let training_gpu = GpuConfig::titan_x();
    let config = Arc::new(GpuConfig::titan_x().with_seed(seed));
    let programs: Vec<_> = training_set().into_iter().map(|b| b.scaled(DATAGEN_SCALE)).collect();
    let dataset = stage(log, "datagen", "datagen", || {
        let outcome = generate_suite_with(
            &programs,
            &training_gpu,
            &DataGenConfig::default(),
            &SuiteOptions::new(0),
        )
        .expect("datagen without a journal cannot fail");
        let mut dataset = DvfsDataset::default();
        outcome.datasets.into_iter().for_each(|d| dataset.extend(d));
        dataset
    });
    log.datagen_samples += dataset.len();

    let train = TrainConfig {
        epochs: TRAIN_EPOCHS,
        patience: TRAIN_EPOCHS,
        lr: 1.5e-3,
        ..TrainConfig::default()
    };
    let (trained, summary) = stage(log, "train", "train.compressed", || {
        train_combined_jobs(
            &dataset,
            &FeatureSet::refined(),
            &ModelArch::paper_compressed(),
            config.vf_table.len(),
            &train,
            0.25,
            0,
        )
    });
    log.decision_accuracy = summary.decision_accuracy;
    log.calibrator_mape_pct = summary.calibrator_mape;
    let finetune = TrainConfig { epochs: FINETUNE_EPOCHS, patience: FINETUNE_EPOCHS, ..train };
    let model = stage(log, "compress", "compress", || {
        compress_and_finetune_jobs(&trained, &dataset, 0.6, 0.9, &finetune, 0)
    });
    log.flops_ratio = model.sparse_flops() as f64 / model.flops() as f64;
    let model = Arc::new(model);

    let workloads: Vec<Arc<Workload>> = evaluation_set()
        .into_iter()
        .map(|b| Arc::new(b.scaled(RECORD_SCALE).into_workload()))
        .collect();
    let runs = stage(log, "sim", "record", || {
        let parent = trace::current();
        parallel_map_indexed(0, workloads, |_, workload| {
            let mut governor =
                SsmdvfsGovernor::new(Arc::clone(&model), Deployment::governor_config());
            let horizon = Time::from_micros(HORIZON_US);
            let rec =
                run_recorded(&config, &workload, &mut governor, horizon, parent, workload.name());
            (workload, rec)
        })
    });
    let recordings = runs
        .into_iter()
        .map(|(workload, rec)| {
            // Request streams cycle through every recording's epochs.
            assert!(!rec.ops.is_empty(), "{} finished before its first decision", workload.name());
            log.add_sim(&rec.stats);
            log.epoch_us.extend(&rec.epoch_us);
            Recording { workload, counters: rec.counters, ops: rec.ops }
        })
        .collect();
    Deployment { config, model, recordings }
}
