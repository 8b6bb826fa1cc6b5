//! SSMDVFS: a supervised and self-calibrated machine-learning framework for
//! microsecond-scale GPU voltage and frequency scaling.
//!
//! This crate is the paper's primary contribution, built on the workspace
//! substrates ([`gpu_sim`], [`gpu_power`], [`gpu_workloads`], [`tinynn`]).
//! It implements the full end-to-end pipeline of Fig. 2:
//!
//! 1. **Data generation** ([`generate_suite_with`]) — breakpoints every
//!    ~100 µs, a 10 µs feature-collection window, a 10 µs
//!    frequency-scaling window replayed at every operating point, and
//!    measured performance-loss labels.
//! 2. **Feature selection** ([`select_features_with`], [`FeatureSet`]) — RFE
//!    over the 47 counters down to the Table I set (IPC, PPC, MH, MH\L,
//!    L1CRM).
//! 3. **Model training** ([`train_combined_jobs`], [`CombinedModel`]) — the
//!    combined Decision-maker (classifier over the six V/f points) and
//!    Calibrator (next-epoch instruction-count regressor).
//! 4. **Compression** ([`compress_and_finetune_jobs`]) — the layer-wise
//!    sweep and two-stage pruning of Fig. 3 / Table II.
//!
//! Each stage has one entry point, and every caller states its worker
//! count (`jobs`, `0` = one per core, directly or in the stage's options);
//! every output is byte-identical at any count.
//! 5. **Runtime control** ([`SsmdvfsGovernor`]) — per-epoch inference with
//!    the self-calibrating preset feedback loop of Fig. 1.
//! 6. **Hardware cost** ([`estimate_asic`]) — the Section V-D ASIC module
//!    estimate (cycles/area/power at 28 nm).
//!
//! # Examples
//!
//! End-to-end, on a scaled-down configuration:
//!
//! ```
//! use gpu_sim::{GpuConfig, Simulation, Time};
//! use ssmdvfs::{
//!     generate_workload_jobs, train_combined_jobs, DataGenConfig, FeatureSet, ModelArch,
//!     SsmdvfsConfig, SsmdvfsGovernor,
//! };
//! use tinynn::TrainConfig;
//!
//! let cfg = GpuConfig::small_test();
//! let bench = gpu_workloads::by_name("sgemm").unwrap().scaled(0.05);
//! let dg = DataGenConfig::default();
//! // Replays on one worker per core; the dataset is the same at any count.
//! let data = generate_workload_jobs(bench.name(), bench.workload().clone(), &cfg, &dg, 0);
//! let train_cfg = TrainConfig { epochs: 5, ..TrainConfig::default() };
//! let (model, _) = train_combined_jobs(
//!     &data,
//!     &FeatureSet::refined(),
//!     &ModelArch::paper_compressed(),
//!     cfg.vf_table.len(),
//!     &train_cfg,
//!     0.25,
//!     1,
//! );
//! let mut governor = SsmdvfsGovernor::new(model, SsmdvfsConfig::new(0.10));
//! let mut sim = Simulation::new(cfg, bench.into_workload());
//! let result = sim.run(&mut governor, Time::from_micros(3_000.0));
//! assert!(result.completed);
//! ```

#![warn(missing_docs)]

mod asic;
mod compress;
mod controller;
mod datagen;
mod error;
pub mod exec;
pub mod failpoint;
mod features;
mod model;
pub mod plan;
mod replay_cache;
mod rfe;
pub mod serve;
mod train;

pub use asic::{estimate_asic, AsicConfig, AsicReport};
pub use compress::{
    compress_and_finetune_jobs, compress_and_finetune_prepared, compress_model,
    layerwise_sweep_jobs, pruning_sweep_jobs, quantize_model, CompressionPoint, FinetuneSplits,
};
pub use controller::{SsmdvfsConfig, SsmdvfsGovernor};
pub use datagen::{
    generate_suite_with, generate_workload_jobs, DataGenConfig, DvfsDataset, LabelingMode,
    RawSample, SuiteOptions, SuiteOutcome, DECISION_PRESET_GRID,
};
pub use error::{Artifact, IoOp, SsmdvfsError};
pub use features::FeatureSet;
pub use model::{CombinedModel, ModelArch};
pub use plan::{ClusterSlot, DecisionPlan, PlanDecision};
pub use replay_cache::{fingerprint, ReplayCache};
pub use rfe::{candidate_counters, select_features_with, FeatureSelection, RfeOptions};
pub use serve::{
    Decision, DecisionClient, DecisionRequest, DecisionService, PendingDecision, ServeConfig,
    ServeStats,
};
pub use train::{
    evaluate, train_combined_jobs, train_prepared, try_evaluate, PreparedSplits, TrainSummary,
    INSTR_SCALE,
};
