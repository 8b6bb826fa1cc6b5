//! Cross-crate integration: the full SSMDVFS pipeline on a scaled-down
//! configuration — data generation, training, compression, runtime control
//! on held-out work — must reproduce the paper's qualitative claims.

use gpu_sim::{GpuConfig, Simulation, StaticGovernor, Time};
use gpu_workloads::by_name;
use ssmdvfs::{
    compress_and_finetune_jobs, estimate_asic, generate_workload_jobs, train_combined_jobs,
    AsicConfig, DataGenConfig, DvfsDataset, FeatureSet, ModelArch, SsmdvfsConfig, SsmdvfsGovernor,
};
use tinynn::TrainConfig;

const HORIZON: Time = Time::from_ps(20_000 * 1_000_000);

fn pipeline() -> (GpuConfig, ssmdvfs::CombinedModel, DvfsDataset) {
    let cfg = GpuConfig::small_test();
    let mut dataset = DvfsDataset::default();
    for name in ["sgemm", "lbm", "hotspot"] {
        let bench = by_name(name).expect("training benchmark exists").scaled(0.08);
        let dg = DataGenConfig::default();
        dataset.extend(generate_workload_jobs(
            bench.name(),
            bench.workload().clone(),
            &cfg,
            &dg,
            0,
        ));
    }
    assert!(dataset.len() > 50, "datagen must produce a useful corpus");
    let (model, summary) = train_combined_jobs(
        &dataset,
        &FeatureSet::refined(),
        &ModelArch::paper_full(),
        cfg.vf_table.len(),
        &TrainConfig { epochs: 80, ..TrainConfig::default() },
        0.25,
        1,
    );
    assert!(
        summary.decision_accuracy > 0.4,
        "decision accuracy {:.2} implausibly low",
        summary.decision_accuracy
    );
    assert!(
        summary.calibrator_mape < 50.0,
        "calibrator MAPE {:.1}% implausibly high",
        summary.calibrator_mape
    );
    (cfg, model, dataset)
}

#[test]
fn ssmdvfs_improves_edp_on_held_out_memory_bound_work() {
    let (cfg, model, _) = pipeline();
    // mvt was not in the training set.
    let bench = by_name("mvt").expect("mvt exists").scaled(0.1);

    let mut base_sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut base_gov = StaticGovernor::default_point(&cfg.vf_table);
    let base = base_sim.run(&mut base_gov, HORIZON);
    assert!(base.completed);

    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut governor = SsmdvfsGovernor::new(model, SsmdvfsConfig::new(0.10));
    let tuned = sim.run(&mut governor, HORIZON);
    assert!(tuned.completed);

    let base_report = base.edp_report();
    let report = tuned.edp_report();
    assert!(
        report.normalized_edp(&base_report) < 0.95,
        "SSMDVFS should clearly beat the static default on memory-bound work, got {:.4}",
        report.normalized_edp(&base_report)
    );
    assert!(
        report.performance_loss(&base_report) < 0.13,
        "performance loss {:.3} far exceeds the 10% preset",
        report.performance_loss(&base_report)
    );
}

#[test]
fn compression_preserves_control_quality() {
    let (cfg, model, dataset) = pipeline();
    let compressed = compress_and_finetune_jobs(
        &model,
        &dataset,
        0.6,
        0.9,
        &TrainConfig { epochs: 40, ..TrainConfig::default() },
        1,
    );
    assert!(
        compressed.sparse_flops() * 2 < model.flops(),
        "two-stage pruning should at least halve FLOPs"
    );

    let bench = by_name("lbm").expect("lbm exists").scaled(0.1);
    let mut base_sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut base_gov = StaticGovernor::default_point(&cfg.vf_table);
    let base = base_sim.run(&mut base_gov, HORIZON).edp_report();

    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut governor = SsmdvfsGovernor::new(compressed, SsmdvfsConfig::new(0.10));
    let report = sim.run(&mut governor, HORIZON).edp_report();
    assert!(
        report.normalized_edp(&base) < 0.95,
        "the compressed model should still save EDP, got {:.4}",
        report.normalized_edp(&base)
    );
    assert!(report.performance_loss(&base) < 0.13);
}

#[test]
fn asic_estimate_is_negligible_against_the_epoch_and_tdp() {
    // Follow the paper's full compression pipeline: layer-wise compression
    // (retrain at the 12-neuron architecture) before the two-stage pruning.
    let (cfg, _, dataset) = pipeline();
    let (small, _) = train_combined_jobs(
        &dataset,
        &FeatureSet::refined(),
        &ModelArch::paper_compressed(),
        cfg.vf_table.len(),
        &TrainConfig { epochs: 60, ..TrainConfig::default() },
        0.25,
        1,
    );
    let compressed = compress_and_finetune_jobs(
        &small,
        &dataset,
        0.6,
        0.9,
        &TrainConfig { epochs: 20, ..TrainConfig::default() },
        1,
    );
    let report = estimate_asic(
        &compressed,
        &AsicConfig::tsmc65(),
        cfg.vf_table.default_point().freq_mhz(),
        cfg.epoch.as_micros(),
    );
    assert!(
        report.epoch_fraction < 0.10,
        "inference must fit comfortably in a 10 µs epoch, got {:.3}",
        report.epoch_fraction
    );
    assert!(report.area_28nm_mm2 < 0.1, "area {:.4} mm² implausible", report.area_28nm_mm2);
    assert!(
        report.power_w < 0.01,
        "power {:.4} W should be negligible vs a 250 W TDP",
        report.power_w
    );
}
