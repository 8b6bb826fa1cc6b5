//! The full SSMDVFS offline pipeline, end to end, on a scaled-down
//! configuration: data generation → model training → compression →
//! hardware cost estimate → model persistence.
//!
//! ```sh
//! cargo run --release --example train_pipeline
//! ```

use gpu_sim::{GpuConfig, Simulation, Time};
use gpu_workloads::by_name;
use ssmdvfs::{
    compress_and_finetune_jobs, estimate_asic, generate_workload_jobs, train_combined_jobs,
    AsicConfig, DataGenConfig, DvfsDataset, FeatureSet, ModelArch, SsmdvfsConfig, SsmdvfsGovernor,
};
use tinynn::TrainConfig;

fn main() {
    let cfg = GpuConfig::small_test();
    let dg = DataGenConfig::default();

    // 1. Data generation (Fig. 2): a few training benchmarks, scaled down,
    // with the replays on one worker per core.
    println!("== 1. data generation ==");
    let mut dataset = DvfsDataset::default();
    for name in ["sgemm", "lbm", "hotspot", "srad"] {
        let bench = by_name(name).expect("benchmark exists").scaled(0.1);
        let part = generate_workload_jobs(bench.name(), bench.workload().clone(), &cfg, &dg, 0);
        println!("  {name}: {} samples", part.len());
        dataset.extend(part);
    }

    // 2. Train the combined Decision-maker + Calibrator.
    println!("== 2. training ==");
    let train_cfg = TrainConfig { epochs: 120, ..TrainConfig::default() };
    let (model, summary) = train_combined_jobs(
        &dataset,
        &FeatureSet::refined(),
        &ModelArch::paper_full(),
        cfg.vf_table.len(),
        &train_cfg,
        0.25,
        1,
    );
    println!(
        "  decision accuracy {:.1}%, calibrator MAPE {:.1}%, {} FLOPs",
        summary.decision_accuracy * 100.0,
        summary.calibrator_mape,
        summary.flops
    );

    // 3. Compress: two-stage pruning at the paper's (0.6, 0.9) + fine-tune.
    println!("== 3. compression ==");
    let compressed = compress_and_finetune_jobs(&model, &dataset, 0.6, 0.9, &train_cfg, 1);
    println!(
        "  {} -> {} FLOPs ({:.1}% reduction)",
        model.flops(),
        compressed.sparse_flops(),
        (1.0 - compressed.sparse_flops() as f64 / model.flops() as f64) * 100.0
    );

    // 4. Hardware cost of the inference module (Section V-D).
    println!("== 4. ASIC estimate ==");
    let asic = estimate_asic(
        &compressed,
        &AsicConfig::tsmc65(),
        cfg.vf_table.default_point().freq_mhz(),
        cfg.epoch.as_micros(),
    );
    println!(
        "  {} cycles/inference ({:.3} µs, {:.2}% of an epoch), {:.4} mm² @28nm, {:.4} W",
        asic.cycles_per_inference,
        asic.latency_us,
        asic.epoch_fraction * 100.0,
        asic.area_28nm_mm2,
        asic.power_w
    );

    // 5. Deploy on a held-out benchmark.
    println!("== 5. runtime control on held-out 'mvt' ==");
    let bench = by_name("mvt").expect("mvt exists").scaled(0.1);
    let horizon = Time::from_micros(10_000.0);
    let mut base_sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut base_gov = gpu_sim::StaticGovernor::default_point(&cfg.vf_table);
    let base = base_sim.run(&mut base_gov, horizon).edp_report();
    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let mut governor = SsmdvfsGovernor::new(compressed.clone(), SsmdvfsConfig::new(0.10));
    let tuned = sim.run(&mut governor, horizon).edp_report();
    println!(
        "  EDP {:.3} (normalized), latency {:.3} (preset 1.10)",
        tuned.normalized_edp(&base),
        tuned.normalized_latency(&base)
    );

    // 6. Persist the model.
    let path = std::env::temp_dir().join("ssmdvfs_example_model.json");
    compressed.save(&path).expect("model is serializable");
    println!("== 6. model saved to {} ==", path.display());
}
