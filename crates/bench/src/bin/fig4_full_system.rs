//! **E4/E5 — Fig. 4 and the Section V-C headline numbers.**
//!
//! Runs the full-system comparison: normalized EDP and latency for the
//! static baseline, PCSTALL, F-LEMMA, SSMDVFS without the Calibrator,
//! full SSMDVFS, and the fully compressed SSMDVFS, over the evaluation
//! benchmark set at performance-loss presets of 10 % and 20 %.
//!
//! Prints the per-benchmark table (the bars of Fig. 4), writes
//! `fig4_<preset>.csv` into the artifact directory, and closes with the
//! paper's aggregate comparisons: mean EDP reduction vs the baseline, vs
//! PCSTALL and vs F-LEMMA, for both the uncompressed and compressed models.
//!
//! Set `SSMDVFS_ORACLE=1` to additionally run the one-step-lookahead
//! oracle (expensive; not part of the paper's figure).

use std::collections::BTreeMap;

use gpu_sim::Time;
use gpu_workloads::evaluation_set;
use ssmdvfs::{compress_and_finetune_jobs, ModelArch};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, compare_on_benchmark, format_table, train_or_load_model,
    write_csv, ComparisonRow, GovernorKind, PipelineConfig,
};
use tinynn::TrainConfig;

const PRESETS: [f64; 2] = [0.10, 0.20];

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    let (model, summary) =
        train_or_load_model(&dataset, &ModelArch::paper_full(), &config, "main_full");
    eprintln!(
        "[fig4] model: accuracy {:.2}%, MAPE {:.2}%",
        summary.decision_accuracy * 100.0,
        summary.calibrator_mape
    );
    // The paper's compression pipeline: layer-wise compression (retrain at
    // the 12-neuron architecture) and then two-stage pruning with a
    // sparsity-preserving fine-tune.
    let (layerwise, _) = train_or_load_model(
        &dataset,
        &ModelArch::paper_compressed(),
        &config,
        "main_compressed_arch",
    );
    let finetune = TrainConfig { epochs: 80, ..config.train.clone() };
    let compressed = compress_and_finetune_jobs(&layerwise, &dataset, 0.6, 0.9, &finetune, 1);
    eprintln!(
        "[fig4] compressed model: {} sparse FLOPs (vs {} dense)",
        compressed.sparse_flops(),
        model.flops()
    );

    let mut governors = vec![
        GovernorKind::Baseline,
        GovernorKind::Pcstall,
        GovernorKind::Flemma,
        GovernorKind::SsmdvfsNoCal(model.clone()),
        GovernorKind::Ssmdvfs(model.clone()),
        GovernorKind::SsmdvfsCompressed(compressed),
    ];
    if std::env::var_os("SSMDVFS_ORACLE").is_some_and(|v| v != "0") {
        governors.push(GovernorKind::Oracle);
    }
    let horizon = Time::from_micros(3_000.0);

    let mut all_rows: Vec<ComparisonRow> = Vec::new();
    for preset in PRESETS {
        println!("\n=== Fig. 4 — performance-loss preset {:.0}% ===\n", preset * 100.0);
        let mut rows = Vec::new();
        for bench in evaluation_set() {
            let t0 = std::time::Instant::now();
            let cells = compare_on_benchmark(&config.gpu, &bench, &governors, preset, horizon);
            eprintln!("[fig4] {} @ {:.0}%: {:.1?}", bench.name(), preset * 100.0, t0.elapsed());
            all_rows.extend(cells.clone());
            for c in cells {
                rows.push(vec![
                    c.benchmark,
                    c.governor,
                    format!("{:.4}", c.normalized_edp),
                    format!("{:.4}", c.normalized_latency),
                ]);
            }
        }
        println!("{}", format_table(&["benchmark", "governor", "norm_edp", "norm_latency"], &rows));

        // Aggregate per governor at this preset.
        let mut per_gov: BTreeMap<String, Vec<&ComparisonRow>> = BTreeMap::new();
        for r in all_rows.iter().filter(|r| r.preset == preset) {
            per_gov.entry(r.governor.clone()).or_default().push(r);
        }
        let agg: Vec<Vec<String>> = per_gov
            .iter()
            .map(|(g, rows)| {
                vec![
                    g.clone(),
                    format!("{:.4}", mean(rows.iter().map(|r| r.normalized_edp))),
                    format!("{:.4}", mean(rows.iter().map(|r| r.normalized_latency))),
                    format!(
                        "{}",
                        rows.iter().filter(|r| r.normalized_latency > 1.0 + preset + 0.005).count()
                    ),
                ]
            })
            .collect();
        println!(
            "{}",
            format_table(&["governor", "mean_edp", "mean_latency", "preset_violations"], &agg)
        );

        let csv_rows: Vec<Vec<String>> = all_rows
            .iter()
            .filter(|r| r.preset == preset)
            .map(|r| {
                vec![
                    r.benchmark.clone(),
                    r.governor.clone(),
                    format!("{:.6}", r.normalized_edp),
                    format!("{:.6}", r.normalized_latency),
                    format!("{:.6e}", r.energy_j),
                    format!("{:.6e}", r.time_s),
                ]
            })
            .collect();
        write_csv(
            artifacts_dir().join(format!("fig4_preset{:.0}.csv", preset * 100.0)),
            &["benchmark", "governor", "norm_edp", "norm_latency", "energy_j", "time_s"],
            &csv_rows,
        );
    }

    // Headline numbers across both presets (Section V-C).
    println!("\n=== Section V-C headline comparison (mean over both presets) ===\n");
    let mean_of =
        |gov: &str| mean(all_rows.iter().filter(|r| r.governor == gov).map(|r| r.normalized_edp));
    let base = 1.0;
    let pcstall = mean_of("pcstall");
    let flemma = mean_of("flemma");
    let ssm = mean_of("ssmdvfs");
    let ssm_nocal = mean_of("ssmdvfs-nocal");
    let comp = mean_of("ssmdvfs-comp");
    let pct = |ours: f64, theirs: f64| (theirs - ours) / theirs * 100.0;
    println!(
        "uncompressed SSMDVFS: EDP {:+.2}% vs baseline | {:+.2}% vs PCSTALL | {:+.2}% vs F-LEMMA",
        -pct(ssm, base),
        -pct(ssm, pcstall),
        -pct(ssm, flemma)
    );
    println!("  (paper reports:      -7.85%               | -9.91%             | -29.19%)");
    println!(
        "compressed SSMDVFS:   EDP {:+.2}% vs baseline | {:+.2}% vs PCSTALL | {:+.2}% vs F-LEMMA",
        -pct(comp, base),
        -pct(comp, pcstall),
        -pct(comp, flemma)
    );
    println!("  (paper reports:      -11.09%              | -13.17%            | -36.80%)");
    println!(
        "calibrator ablation:  with {:.4} vs without {:.4} mean normalized EDP",
        ssm, ssm_nocal
    );
}
