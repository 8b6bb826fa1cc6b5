//! **E3 — Table II: the final model before and after compression.**
//!
//! Trains the paper's full architecture (five + four 20-neuron layers),
//! applies layer-wise compression (3 + 2 layers of 12) plus two-stage
//! pruning at the paper's chosen `(x1, x2) = (0.6, 0.9)`, and prints the
//! before/after structure, FLOPs, Decision-maker accuracy and Calibrator
//! MAPE — the contents of Table II.

use ssmdvfs::{compress_and_finetune_jobs, evaluate, CombinedModel, ModelArch};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, format_table, train_or_load_model, write_csv,
    PipelineConfig,
};
use tinynn::TrainConfig;

fn structure(model: &CombinedModel) -> String {
    let d: Vec<String> = model.decision.sizes().iter().map(ToString::to_string).collect();
    let c: Vec<String> = model.calibrator.sizes().iter().map(ToString::to_string).collect();
    format!("decision {} | calibrator {}", d.join("-"), c.join("-"))
}

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    let (full, full_summary) =
        train_or_load_model(&dataset, &ModelArch::paper_full(), &config, "main_full");

    // Layer-wise compression step: retrain at the compressed architecture.
    let (layerwise, _) = train_or_load_model(
        &dataset,
        &ModelArch::paper_compressed(),
        &config,
        "main_compressed_arch",
    );
    // Then the paper's chosen pruning with fine-tuning.
    let finetune = TrainConfig { epochs: 80, ..config.train.clone() };
    let pruned = compress_and_finetune_jobs(&layerwise, &dataset, 0.6, 0.9, &finetune, 1);

    let (full_acc, full_mape) = evaluate(&full, &dataset);
    let (pruned_acc, pruned_mape) = evaluate(&pruned, &dataset);
    let _ = full_summary;

    println!("\n=== Table II — final model information ===\n");
    let rows = vec![
        vec!["structure".to_string(), structure(&full), structure(&pruned)],
        vec!["FLOPs".to_string(), full.flops().to_string(), pruned.sparse_flops().to_string()],
        vec![
            "accuracy (%)".to_string(),
            format!("{:.2}", full_acc * 100.0),
            format!("{:.2}", pruned_acc * 100.0),
        ],
        vec!["MAPE (%)".to_string(), format!("{:.2}", full_mape), format!("{:.2}", pruned_mape)],
    ];
    println!(
        "{}",
        format_table(&["model information", "before compression", "after compression"], &rows)
    );
    println!(
        "FLOPs compressed by {:.2}% (paper: 94.74%, 6960 -> 366)",
        (1.0 - pruned.sparse_flops() as f64 / full.flops() as f64) * 100.0
    );
    println!(
        "accuracy change {:+.2}% (paper: -2.40%), MAPE change {:+.2}% (paper: +1.18%)",
        (pruned_acc - full_acc) * 100.0,
        pruned_mape - full_mape
    );

    write_csv(
        artifacts_dir().join("table2_model.csv"),
        &["metric", "before", "after"],
        &[
            vec!["flops".into(), full.flops().to_string(), pruned.sparse_flops().to_string()],
            vec!["accuracy".into(), format!("{full_acc:.6}"), format!("{pruned_acc:.6}")],
            vec!["mape".into(), format!("{full_mape:.6}"), format!("{pruned_mape:.6}")],
        ],
    );
    pruned
        .save(artifacts_dir().join("model_final_compressed.json"))
        .expect("final model must be writable");
}
