//! **E1 — Table I: RFE feature selection.**
//!
//! Runs recursive feature elimination over the 40 non-power counters
//! (permutation-importance driven, retraining at each step), keeps four
//! indirect features plus the direct PPC power feature, and prints the
//! selected set next to the paper's (IPC, PPC, MH, MH\L, L1CRM) together
//! with the accuracy cost of the reduction.

use ssmdvfs::{select_features_with, FeatureSet, RfeOptions};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, format_table, write_csv, PipelineConfig,
};
use tinynn::TrainConfig;

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    // RFE retrains ~36 times; a reduced epoch budget keeps it tractable
    // while still ranking features reliably.
    let rfe_config = TrainConfig { epochs: 30, patience: 8, ..config.train.clone() };
    let t0 = std::time::Instant::now();
    let num_ops = config.gpu.vf_table.len();
    let selection = select_features_with(&dataset, num_ops, 4, &rfe_config, &RfeOptions::default());
    eprintln!("[table1] RFE finished in {:.1?}", t0.elapsed());

    println!("\n=== Table I — metrics and performance counters ===\n");
    let paper = FeatureSet::refined();
    let rows = vec![
        vec!["paper (Table I)".to_string(), paper.names().join(", ")],
        vec!["this reproduction (RFE)".to_string(), selection.selected.names().join(", ")],
    ];
    println!("{}", format_table(&["source", "selected counters"], &rows));
    println!("full 41-feature accuracy:    {:.2}%", selection.full_accuracy * 100.0);
    println!(
        "selected 5-feature accuracy: {:.2}%  (paper reports a 0.48% accuracy drop)",
        selection.selected_accuracy * 100.0
    );
    println!(
        "accuracy change:             {:+.2}%",
        (selection.selected_accuracy - selection.full_accuracy) * 100.0
    );
    println!("\nelimination order (first eliminated first):");
    for (i, name) in selection.eliminated.iter().enumerate() {
        println!("  {:>2}. {name}", i + 1);
    }

    let csv: Vec<Vec<String>> = selection
        .eliminated
        .iter()
        .enumerate()
        .map(|(i, n)| vec![format!("{}", i + 1), n.clone(), "eliminated".into()])
        .chain(
            selection
                .selected
                .names()
                .iter()
                .map(|n| vec![String::new(), (*n).to_string(), "selected".into()]),
        )
        .collect();
    write_csv(
        artifacts_dir().join("table1_features.csv"),
        &["elimination_step", "counter", "status"],
        &csv,
    );
}
