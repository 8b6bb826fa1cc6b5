//! Golden paper numbers of a small fixed-seed pipeline.
//!
//! Data generation on five training programs, RFE feature selection,
//! training of the full and the layer-wise compressed architectures,
//! two-stage pruning of the compressed model, and a Fig. 4-style evaluation
//! of both models against the static default on four evaluation programs.
//! Every quality output is compared bit for bit with the values below:
//! decision accuracy, calibrator MAPE, both mean normalized EDPs, the
//! preset-violation count and the RFE selection.
//!
//! The values are the pipeline's behaviour, from the simulator through
//! training to the governor: a change that moves any of them must be
//! declared as a behaviour change. To regenerate them after such a change,
//! run `cargo test --test paper_golden`; the failure message prints the
//! computed values in source form.

use gpu_sim::{GpuConfig, SimResult, Simulation, StaticGovernor, Time};
use gpu_workloads::{by_name, Benchmark};
use ssmdvfs::{
    compress_and_finetune_jobs, generate_suite_with, select_features_with, train_combined_jobs,
    CombinedModel, DataGenConfig, DvfsDataset, FeatureSet, ModelArch, RfeOptions, SsmdvfsConfig,
    SsmdvfsGovernor, SuiteOptions,
};
use tinynn::TrainConfig;

/// Worker count of every stage (results are identical at any count).
const JOBS: usize = 1;
/// Training programs and their scale.
const TRAINING: [&str; 5] = ["backprop", "hotspot", "lavamd", "srad", "sgemm"];
const TRAIN_SCALE: f64 = 0.05;
/// Indirect features RFE keeps (plus the direct power feature).
const RFE_KEEP: usize = 4;
/// Training epochs of both architectures, and of the fine-tune after
/// pruning.
const TRAIN_EPOCHS: usize = 20;
const FINETUNE_EPOCHS: usize = 15;
/// Evaluation programs and their scale.
const EVALUATION: [&str; 4] = ["lbm", "mvt", "bfs", "gemm"];
const EVAL_SCALE: f64 = 0.1;
/// Performance-loss presets of the evaluation.
const PRESETS: [f64; 2] = [0.10, 0.20];
/// Slack on the preset before a run counts as a violation.
const VIOLATION_SLACK: f64 = 0.005;
const HORIZON: Time = Time::from_ps(20_000 * 1_000_000);

/// The paper numbers of one pipeline run.
#[derive(Debug, PartialEq)]
struct Quality {
    selected: Vec<&'static str>,
    accuracy: f64,
    mape_pct: f64,
    edp_norm: f64,
    edp_norm_compressed: f64,
    violations: usize,
}

impl Quality {
    /// Source form of the golden values, with floats as exact bit patterns.
    fn source(&self) -> String {
        format!(
            "Quality {{\n    selected: vec!{:?},\n    accuracy: f64::from_bits({:#018x}),\n    \
             mape_pct: f64::from_bits({:#018x}),\n    edp_norm: f64::from_bits({:#018x}),\n    \
             edp_norm_compressed: f64::from_bits({:#018x}),\n    violations: {},\n}}",
            self.selected,
            self.accuracy.to_bits(),
            self.mape_pct.to_bits(),
            self.edp_norm.to_bits(),
            self.edp_norm_compressed.to_bits(),
            self.violations,
        )
    }
}

/// The goldens: accuracy 0.7299, MAPE 5.917 %, EDP 0.8177 full and 0.7782
/// compressed, 2 violations.
fn golden() -> Quality {
    Quality {
        selected: vec![
            "sfu_instrs",
            "issued_cycles",
            "l1_read_miss",
            "mem_transactions",
            "power_total_w",
        ],
        accuracy: f64::from_bits(0x3fe75af5af5af5af),
        mape_pct: f64::from_bits(0x4017aadce15cb4fe),
        edp_norm: f64::from_bits(0x3fea2aad863a6a79),
        edp_norm_compressed: f64::from_bits(0x3fe8e6b40b4af168),
        violations: 2,
    }
}

fn programs(names: &[&str], scale: f64) -> Vec<Benchmark> {
    names.iter().map(|n| by_name(n).expect("benchmark exists").scaled(scale)).collect()
}

fn run(cfg: &GpuConfig, bench: &Benchmark, model: Option<(&CombinedModel, f64)>) -> SimResult {
    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let result = match model {
        None => sim.run(&mut StaticGovernor::default_point(&cfg.vf_table), HORIZON),
        Some((model, preset)) => {
            let mut governor = SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(preset));
            sim.run(&mut governor, HORIZON)
        }
    };
    assert!(result.completed, "{} did not complete", bench.name());
    result
}

fn pipeline() -> Quality {
    let cfg = GpuConfig::small_test().with_seed(7);
    let num_ops = cfg.vf_table.len();
    let mut dataset = DvfsDataset::default();
    let suite = generate_suite_with(
        &programs(&TRAINING, TRAIN_SCALE),
        &cfg,
        &DataGenConfig::default(),
        &SuiteOptions::new(JOBS),
    )
    .expect("datagen without a journal cannot fail");
    suite.datasets.into_iter().for_each(|d| dataset.extend(d));

    let selection = select_features_with(
        &dataset,
        num_ops,
        RFE_KEEP,
        &TrainConfig { epochs: 1, ..TrainConfig::default() },
        &RfeOptions { jobs: JOBS, importance_repeats: 1 },
    );

    let train = TrainConfig {
        epochs: TRAIN_EPOCHS,
        patience: TRAIN_EPOCHS,
        lr: 1.5e-3,
        ..TrainConfig::default()
    };
    let features = FeatureSet::refined();
    let (full, summary) = train_combined_jobs(
        &dataset,
        &features,
        &ModelArch::paper_full(),
        num_ops,
        &train,
        0.25,
        JOBS,
    );
    let (layerwise, _) = train_combined_jobs(
        &dataset,
        &features,
        &ModelArch::paper_compressed(),
        num_ops,
        &train,
        0.25,
        JOBS,
    );
    let finetune = TrainConfig { epochs: FINETUNE_EPOCHS, patience: FINETUNE_EPOCHS, ..train };
    let pruned = compress_and_finetune_jobs(&layerwise, &dataset, 0.6, 0.9, &finetune, JOBS);

    let (mut edp, mut edp_compressed, mut violations) = (Vec::new(), Vec::new(), 0);
    for bench in programs(&EVALUATION, EVAL_SCALE) {
        let base = run(&cfg, &bench, None).edp_report();
        for preset in PRESETS {
            let report = run(&cfg, &bench, Some((&full, preset))).edp_report();
            edp.push(report.normalized_edp(&base));
            violations +=
                usize::from(report.normalized_latency(&base) > 1.0 + preset + VIOLATION_SLACK);
            let report = run(&cfg, &bench, Some((&pruned, preset))).edp_report();
            edp_compressed.push(report.normalized_edp(&base));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Quality {
        selected: selection.selected.names(),
        accuracy: summary.decision_accuracy,
        mape_pct: summary.calibrator_mape,
        edp_norm: mean(&edp),
        edp_norm_compressed: mean(&edp_compressed),
        violations,
    }
}

#[test]
fn paper_numbers_match_the_goldens() {
    let computed = pipeline();
    assert!(
        computed == golden(),
        "paper numbers differ from the goldens ({computed:?}); computed:\n{}",
        computed.source()
    );
}
