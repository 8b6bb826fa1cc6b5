//! **E2 — Fig. 3: FLOPs vs accuracy/MAPE for layer-wise compression and
//! pruning.**
//!
//! Sweeps the uniform architecture family (hidden-layer count × width) as
//! the *layer-wise* series, then sweeps two-stage pruning parameters
//! `(x1, x2)` over the full-size trained model as the *pruning* series.
//! Both series should show the paper's knee: quality is flat until FLOPs
//! fall below a critical threshold, then drops sharply — with the pruning
//! curve sitting above the layer-wise curve at equal FLOPs.

use ssmdvfs::{layerwise_sweep_jobs, pruning_sweep_jobs, FeatureSet, ModelArch};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, format_table, train_or_load_model, write_csv,
    PipelineConfig,
};
use tinynn::TrainConfig;

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    let sweep_config = TrainConfig { epochs: 60, patience: 12, ..config.train.clone() };

    // Layer-wise series: shrink layers and widths from the paper's full
    // architecture down to a clearly-too-small model.
    let shapes: &[(usize, usize)] =
        &[(5, 20), (4, 20), (3, 20), (3, 16), (3, 12), (2, 12), (2, 8), (1, 8), (1, 4), (1, 2)];
    let t0 = std::time::Instant::now();
    let layerwise = layerwise_sweep_jobs(
        &dataset,
        &FeatureSet::refined(),
        shapes,
        config.gpu.vf_table.len(),
        &sweep_config,
        1,
    );
    eprintln!("[fig3] layer-wise sweep finished in {:.1?}", t0.elapsed());

    // Pruning series over the full model.
    let (model, _) = train_or_load_model(&dataset, &ModelArch::paper_full(), &config, "main_full");
    let params: &[(f32, f32)] = &[
        (0.2, 0.90),
        (0.4, 0.90),
        (0.5, 0.90),
        (0.6, 0.90),
        (0.7, 0.90),
        (0.8, 0.92),
        (0.9, 0.95),
        (0.95, 0.95),
    ];
    let t0 = std::time::Instant::now();
    let pruning = pruning_sweep_jobs(&model, &dataset, params, &sweep_config, 1);
    eprintln!("[fig3] pruning sweep finished in {:.1?}", t0.elapsed());

    println!("\n=== Fig. 3 — FLOPs vs accuracy and MAPE ===\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (series, points) in [("layer-wise", &layerwise), ("pruning", &pruning)] {
        for p in points {
            rows.push(vec![
                series.to_string(),
                p.label.clone(),
                p.flops.to_string(),
                format!("{:.2}", p.accuracy * 100.0),
                format!("{:.2}", p.mape),
            ]);
            csv.push(vec![
                series.to_string(),
                p.label.clone(),
                p.flops.to_string(),
                format!("{:.6}", p.accuracy),
                format!("{:.6}", p.mape),
            ]);
        }
    }
    println!("{}", format_table(&["series", "config", "flops", "accuracy_%", "mape_%"], &rows));
    write_csv(
        artifacts_dir().join("fig3_compression.csv"),
        &["series", "config", "flops", "accuracy", "mape"],
        &csv,
    );

    // The knee check the paper calls out: the largest few configs should be
    // within a few points of each other; the smallest should be clearly
    // worse.
    let top = layerwise.first().expect("non-empty sweep");
    let bottom = layerwise.last().expect("non-empty sweep");
    println!(
        "layer-wise: {} FLOPs -> {:.1}% accuracy | {} FLOPs -> {:.1}% accuracy",
        top.flops,
        top.accuracy * 100.0,
        bottom.flops,
        bottom.accuracy * 100.0
    );
}
