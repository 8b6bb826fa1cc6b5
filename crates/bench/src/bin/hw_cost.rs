//! **E6 — Section V-D: the ASIC implementation estimate.**
//!
//! Estimates cycles per inference, silicon area (65 nm synthesis scaled to
//! 28 nm) and power for the SSMDVFS inference module, for both the full and
//! the final compressed model. The paper reports 192 cycles (0.16 µs at
//! 1165 MHz, 1.65 % of one 10 µs epoch), 0.0080 mm² and 0.0025 W at 28 nm.

use ssmdvfs::{compress_and_finetune_jobs, estimate_asic, AsicConfig, ModelArch};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, format_table, train_or_load_model, write_csv,
    PipelineConfig,
};
use tinynn::TrainConfig;

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    let (layerwise, _) = train_or_load_model(
        &dataset,
        &ModelArch::paper_compressed(),
        &config,
        "main_compressed_arch",
    );
    let finetune = TrainConfig { epochs: 80, ..config.train.clone() };
    let compressed = compress_and_finetune_jobs(&layerwise, &dataset, 0.6, 0.9, &finetune, 1);
    let (full, _) = train_or_load_model(&dataset, &ModelArch::paper_full(), &config, "main_full");

    let freq_mhz = config.gpu.vf_table.default_point().freq_mhz();
    let epoch_us = config.gpu.epoch.as_micros();
    let asic = AsicConfig::tsmc65();

    println!("\n=== Section V-D — hardware implementation estimate ===\n");
    let int8 = AsicConfig::tsmc65_int8();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (name, model, cfg_variant) in [
        ("full", &full, &asic),
        ("compressed", &compressed, &asic),
        ("compressed-int8", &compressed, &int8),
    ] {
        let r = estimate_asic(model, cfg_variant, freq_mhz, epoch_us);
        rows.push(vec![
            name.to_string(),
            r.cycles_per_inference.to_string(),
            format!("{:.3}", r.latency_us),
            format!("{:.2}", r.epoch_fraction * 100.0),
            format!("{:.4}", r.area_28nm_mm2),
            format!("{:.4}", r.power_w),
        ]);
        csv.push(vec![
            name.to_string(),
            r.cycles_per_inference.to_string(),
            format!("{:.6}", r.latency_us),
            format!("{:.6}", r.epoch_fraction),
            format!("{:.6}", r.area_65nm_mm2),
            format!("{:.6}", r.area_28nm_mm2),
            format!("{:.6}", r.power_w),
            format!("{:.6e}", r.energy_per_inference_j),
        ]);
    }
    println!(
        "{}",
        format_table(
            &["model", "cycles/inf", "latency_us", "epoch_%", "area_28nm_mm2", "power_w"],
            &rows
        )
    );
    println!(
        "paper (compressed): 192 cycles, 0.160 µs, 1.65% of a 10 µs epoch, 0.0080 mm², 0.0025 W"
    );
    println!("(the INT8 row is an extension beyond the paper's FP32 module)");
    write_csv(
        artifacts_dir().join("hw_cost.csv"),
        &[
            "model",
            "cycles",
            "latency_us",
            "epoch_fraction",
            "area_65nm_mm2",
            "area_28nm_mm2",
            "power_w",
            "energy_j",
        ],
        &csv,
    );
}
