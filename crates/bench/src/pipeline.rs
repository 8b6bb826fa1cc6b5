//! The offline SSMDVFS pipeline with on-disk artifact caching.
//!
//! Data generation is the expensive step (~minutes of simulated replay), so
//! its output — and the models trained from it — are cached as JSON under
//! [`artifacts_dir`]. Experiment binaries share one pipeline invocation; a
//! stale cache can be cleared by deleting the directory or setting
//! `SSMDVFS_REFRESH=1`, which also re-simulates every replay.

use std::fs;
use std::path::PathBuf;

use gpu_sim::GpuConfig;
use gpu_workloads::{training_set, Benchmark};
use ssmdvfs::{
    generate_suite_with, train_combined_jobs, CombinedModel, DataGenConfig, DvfsDataset,
    FeatureSet, ModelArch, ReplayCache, SuiteOptions, TrainSummary,
};
use tinynn::TrainConfig;

/// Parameters of the shared offline pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// GPU configuration used for data generation.
    pub gpu: GpuConfig,
    /// Data-generation parameters.
    pub datagen: DataGenConfig,
    /// Benchmark scale factor (1.0 = the paper-sized ~300 µs programs;
    /// smaller for smoke tests).
    pub scale: f64,
    /// Training hyperparameters.
    pub train: TrainConfig,
    /// Worker threads for data generation (`0` = one per core).
    pub jobs: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            gpu: GpuConfig::titan_x(),
            datagen: DataGenConfig::default(),
            scale: 1.0,
            train: TrainConfig { epochs: 500, patience: 60, lr: 1.5e-3, ..TrainConfig::default() },
            jobs: 0,
        }
    }
}

/// The directory experiment artifacts (datasets, models, CSV outputs) are
/// written to. Override with the `SSMDVFS_ARTIFACTS` environment variable.
pub fn artifacts_dir() -> PathBuf {
    let dir = std::env::var_os("SSMDVFS_ARTIFACTS")
        .map_or_else(|| PathBuf::from("target/ssmdvfs-artifacts"), PathBuf::from);
    fs::create_dir_all(&dir).expect("artifact directory must be creatable");
    dir
}

fn refresh_requested() -> bool {
    std::env::var_os("SSMDVFS_REFRESH").is_some_and(|v| v != "0")
}

/// Generates (or loads from cache) the training dataset over the paper's
/// training benchmarks.
///
/// Data generation stores each finished replay in `replay_cache.jsonl`,
/// shared by every experiment binary: a rerun, or the next invocation
/// after a run killed mid-sweep, reuses the stored replays instead of
/// simulating them again (the output is byte-identical either way). An
/// unreadable store is replaced, and `SSMDVFS_REFRESH=1` removes it first,
/// so a refresh re-simulates every replay.
///
/// # Panics
///
/// Panics if data generation produces no samples or the caches are
/// unwritable.
pub fn build_or_load_dataset(config: &PipelineConfig, tag: &str) -> DvfsDataset {
    let _scope = obs::scope!("bench.dataset", "{tag}");
    let path = artifacts_dir().join(format!("dataset_{tag}.json"));
    let refresh = refresh_requested();
    if !refresh {
        if let Ok(data) = DvfsDataset::load(&path) {
            obs::info!(
                "pipeline: loaded cached dataset ({} samples) from {}",
                data.len(),
                path.display()
            );
            return data;
        }
    }
    let benches: Vec<Benchmark> =
        training_set().into_iter().map(|b| b.scaled(config.scale)).collect();
    let t0 = std::time::Instant::now();
    // The replay store: experiment binaries sharing (config, datagen,
    // workload) replays — ablation/granularity reruns, a sweep killed
    // halfway — skip already-simulated (breakpoint, operating point) jobs.
    // An unreadable store is replaced, not appended to: lines after a
    // corrupt or older-format one would be unreadable too.
    let store_path = artifacts_dir().join("replay_cache.jsonl");
    if refresh {
        fs::remove_file(&store_path).ok();
    }
    let store = ReplayCache::open(&store_path).or_else(|e| {
        obs::warn!("pipeline: replacing unreadable replay cache: {e}");
        fs::remove_file(&store_path).ok();
        ReplayCache::open(&store_path)
    });
    let mut options = SuiteOptions::new(config.jobs);
    match store {
        Ok(cache) => options.cache = Some(std::sync::Arc::new(cache)),
        Err(e) => obs::warn!("pipeline: datagen runs uncached: {e}"),
    }
    // Every (benchmark, breakpoint, operating point) replay is one job on
    // the shared compute pool; per-benchmark sample order is
    // byte-identical to a sequential run.
    let outcome = generate_suite_with(&benches, &config.gpu, &config.datagen, &options)
        .expect("replay cache must stay writable");
    if let Some(cache) = &options.cache {
        obs::info!(
            "pipeline: replay cache: {} hits, {} misses, {} entries",
            cache.hits(),
            cache.misses(),
            cache.len()
        );
    }
    let mut dataset = DvfsDataset::default();
    for (bench, part) in benches.iter().zip(outcome.datasets) {
        obs::info!("pipeline: datagen {}: {} samples", bench.name(), part.len());
        dataset.extend(part);
    }
    obs::info!("pipeline: datagen total: {} samples in {:.1?}", dataset.len(), t0.elapsed());
    assert!(!dataset.is_empty(), "data generation produced no samples");
    dataset.save(&path).expect("dataset cache must be writable");
    dataset
}

/// Trains (or loads from cache) a combined model of the given architecture
/// on the dataset.
///
/// # Panics
///
/// Panics if training fails or the cache is unreadable/unwritable.
pub fn train_or_load_model(
    dataset: &DvfsDataset,
    arch: &ModelArch,
    config: &PipelineConfig,
    tag: &str,
) -> (CombinedModel, TrainSummary) {
    let _scope = obs::scope!("bench.model", "{tag}");
    let dir = artifacts_dir();
    let model_path = dir.join(format!("model_{tag}.json"));
    let summary_path = dir.join(format!("summary_{tag}.json"));
    if !refresh_requested() {
        if let (Ok(model), Ok(summary_json)) =
            (CombinedModel::load(&model_path), fs::read_to_string(&summary_path))
        {
            if let Ok(summary) = serde_json::from_str::<TrainSummary>(&summary_json) {
                obs::info!("pipeline: loaded cached model '{tag}'");
                return (model, summary);
            }
        }
    }
    let t0 = std::time::Instant::now();
    let (model, summary) = train_combined_jobs(
        dataset,
        &FeatureSet::refined(),
        arch,
        config.gpu.vf_table.len(),
        &config.train,
        0.25,
        1,
    );
    obs::info!(
        "pipeline: trained '{tag}' in {:.1?}: accuracy {:.2}%, MAPE {:.2}%",
        t0.elapsed(),
        summary.decision_accuracy * 100.0,
        summary.calibrator_mape
    );
    model.save(&model_path).expect("model cache must be writable");
    fs::write(&summary_path, serde_json::to_string_pretty(&summary).expect("summary serializes"))
        .expect("summary cache must be writable");
    (model, summary)
}
