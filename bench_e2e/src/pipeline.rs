//! `paper-pipeline`: the researcher's path from simulated programs to the
//! paper's numbers — data generation, RFE feature selection, training of
//! the full and compressed architectures, two-stage pruning, and the Fig. 4
//! evaluation — run cold, with no replay cache, once per pass.
//!
//! Set-up simulates the static-default baseline of every evaluation
//! program: those runs normalize EDP and latency and depend on nothing the
//! pipeline trains. A pass is the operation; the evaluation runs are the
//! operations that can fail.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use dvfs_baselines::{PcstallConfig, PcstallGovernor};
use gpu_sim::{DvfsGovernor, EpochCounters, GpuConfig, SimResult, StaticGovernor, Time, Workload};
use gpu_workloads::{evaluation_set, training_set, Benchmark};
use ssmdvfs::exec::parallel_map_indexed;
use ssmdvfs::{
    compress_and_finetune_jobs, generate_suite_with, select_features_with, train_combined_jobs,
    CombinedModel, DataGenConfig, DvfsDataset, FeatureSet, ModelArch, RfeOptions, SsmdvfsConfig,
    SsmdvfsGovernor, SuiteOptions,
};
use tinynn::TrainConfig;

use crate::layers::{measure_plan, run_recorded, stage, LayerLog};
use crate::report::{ratio, Outcome};
use crate::stats::median;
use crate::{setups, sys, trace, Ctx};

/// Scale of the 15 training programs.
const TRAIN_SCALE: f64 = 0.03;
/// RFE runs on every `RFE_STRIDE`-th sample.
const RFE_STRIDE: usize = 4;
/// Indirect features RFE keeps (plus the direct power feature).
const RFE_KEEP: usize = 4;
/// Training epochs of both architectures (patience equal, so every epoch
/// runs).
const TRAIN_EPOCHS: usize = 20;
/// Fine-tune epochs after pruning.
const FINETUNE_EPOCHS: usize = 15;
/// Scale of the 14 evaluation programs.
const EVAL_SCALE: f64 = 0.1;
/// Performance-loss presets of the evaluation.
const PRESETS: [f64; 2] = [0.10, 0.20];
/// Simulation horizon per evaluation run, µs.
const HORIZON_US: f64 = 3_000.0;
/// Slack on the preset before a run counts as a violation.
const VIOLATION_SLACK: f64 = 0.005;

/// Governors the evaluation compares against the static anchors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gov {
    Pcstall,
    Ssmdvfs,
    SsmdvfsComp,
}

const GOVS: [Gov; 3] = [Gov::Pcstall, Gov::Ssmdvfs, Gov::SsmdvfsComp];

/// Programs and static anchors.
struct Inputs {
    config: Arc<GpuConfig>,
    training: Vec<Benchmark>,
    evaluation: Vec<Arc<Workload>>,
    anchors: Vec<SimResult>,
    /// Host seconds of the anchor runs.
    anchor_busy_s: f64,
}

fn setup(seed: u64, log: &mut LayerLog) -> Inputs {
    let _span = trace::span("setup", "setup.static-anchors");
    let config = Arc::new(GpuConfig::titan_x().with_seed(seed));
    let training = training_set().into_iter().map(|b| b.scaled(TRAIN_SCALE)).collect();
    let evaluation: Vec<Arc<Workload>> = evaluation_set()
        .into_iter()
        .map(|b| Arc::new(b.scaled(EVAL_SCALE).into_workload()))
        .collect();
    let runs = stage(log, "sim", "eval.static", || {
        let parent = trace::current();
        parallel_map_indexed(0, evaluation.clone(), |_, workload| {
            let mut governor = StaticGovernor::default_point(&config.vf_table);
            let label = format!("static:{}", workload.name());
            let horizon = Time::from_micros(HORIZON_US);
            run_recorded(&config, &workload, &mut governor, horizon, parent, &label)
        })
    });
    let mut anchor_busy_s = 0.0;
    let anchors = runs
        .into_iter()
        .map(|r| {
            log.add_sim(&r.stats);
            anchor_busy_s += r.stats.host_s;
            r.result
        })
        .collect();
    Inputs { config, training, evaluation, anchors, anchor_busy_s }
}

/// The paper numbers one pass produced; passes of one run must agree bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
struct Quality {
    selected: Vec<&'static str>,
    accuracy: f64,
    mape_pct: f64,
    edp_norm: f64,
    edp_norm_compressed: f64,
    violations: usize,
}

/// What one pass produced beyond its quality numbers.
struct Pass {
    quality: Quality,
    wall_s: f64,
    eval_runs: u64,
    eval_failed: u64,
    samples: usize,
    sparse_below_dense: bool,
    /// Host seconds per governor, in `GOVS` order.
    busy_s: [f64; 3],
    /// The full model and the counter streams its governor decided on at
    /// the first preset, for the direct plan measurement.
    full: Arc<CombinedModel>,
    streams: Vec<Vec<EpochCounters>>,
}

/// Mean of `values`, or NaN for none (which the finiteness check catches).
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn pass(inputs: &Inputs, log: &mut LayerLog) -> Pass {
    sys::release_free_heap();
    let t0 = Instant::now();
    let _span = trace::span("run", "pipeline.pass");
    let config = &inputs.config;
    let num_ops = config.vf_table.len();
    let dataset = stage(log, "datagen", "datagen", || {
        let outcome = generate_suite_with(
            &inputs.training,
            config,
            &DataGenConfig::default(),
            &SuiteOptions::new(0),
        )
        .expect("datagen without a journal cannot fail");
        let mut dataset = DvfsDataset::default();
        outcome.datasets.into_iter().for_each(|d| dataset.extend(d));
        dataset
    });
    log.datagen_samples += dataset.len();

    let selection = stage(log, "rfe", "rfe", || {
        let subset = DvfsDataset {
            samples: dataset.samples.iter().step_by(RFE_STRIDE).cloned().collect(),
            feature_variants: dataset.feature_variants,
            labeling: dataset.labeling,
        };
        let rfe = TrainConfig { epochs: 1, ..TrainConfig::default() };
        select_features_with(
            &subset,
            num_ops,
            RFE_KEEP,
            &rfe,
            &RfeOptions { jobs: 0, importance_repeats: 1 },
        )
    });

    let train = TrainConfig {
        epochs: TRAIN_EPOCHS,
        patience: TRAIN_EPOCHS,
        lr: 1.5e-3,
        ..TrainConfig::default()
    };
    let features = FeatureSet::refined();
    let (full, summary) = stage(log, "train", "train.full", || {
        train_combined_jobs(&dataset, &features, &ModelArch::paper_full(), num_ops, &train, 0.25, 0)
    });
    let (layerwise, _) = stage(log, "train", "train.compressed", || {
        let arch = ModelArch::paper_compressed();
        train_combined_jobs(&dataset, &features, &arch, num_ops, &train, 0.25, 0)
    });
    let finetune = TrainConfig { epochs: FINETUNE_EPOCHS, patience: FINETUNE_EPOCHS, ..train };
    let pruned = stage(log, "compress", "compress", || {
        compress_and_finetune_jobs(&layerwise, &dataset, 0.6, 0.9, &finetune, 0)
    });
    let sparse_below_dense = pruned.sparse_flops() < pruned.flops();
    log.decision_accuracy = summary.decision_accuracy;
    log.calibrator_mape_pct = summary.calibrator_mape;
    log.flops_ratio = ratio(pruned.sparse_flops() as f64, pruned.flops() as f64);

    let full = Arc::new(full);
    let pruned = Arc::new(pruned);
    let jobs: Vec<(usize, f64, Gov)> = PRESETS
        .iter()
        .flat_map(|&p| {
            (0..inputs.evaluation.len()).flat_map(move |b| GOVS.iter().map(move |&g| (b, p, g)))
        })
        .collect();
    let runs = stage(log, "sim", "eval", || {
        let parent = trace::current();
        parallel_map_indexed(0, jobs, |_, (b, preset, gov)| {
            let mut governor: Box<dyn DvfsGovernor> = match gov {
                Gov::Pcstall => Box::new(PcstallGovernor::new(PcstallConfig::new(preset))),
                Gov::Ssmdvfs => {
                    Box::new(SsmdvfsGovernor::new(Arc::clone(&full), SsmdvfsConfig::new(preset)))
                }
                Gov::SsmdvfsComp => {
                    Box::new(SsmdvfsGovernor::new(Arc::clone(&pruned), SsmdvfsConfig::new(preset)))
                }
            };
            let workload = &inputs.evaluation[b];
            let label = format!("{gov:?}@{preset}:{}", workload.name());
            let horizon = Time::from_micros(HORIZON_US);
            let mut rec =
                run_recorded(config, workload, governor.as_mut(), horizon, parent, &label);
            if !(gov == Gov::Ssmdvfs && preset == PRESETS[0]) {
                rec.counters = Vec::new();
            }
            (b, preset, gov, rec)
        })
    });

    let mut edp: [Vec<f64>; 3] = Default::default();
    let (mut eval_failed, mut violations) = (0u64, 0usize);
    let mut busy_s = [0.0; 3];
    let mut streams = Vec::new();
    let eval_runs = runs.len() as u64;
    for (b, preset, gov, rec) in runs {
        let g = GOVS.iter().position(|&x| x == gov).expect("every job runs a listed governor");
        log.add_sim(&rec.stats);
        busy_s[g] += rec.stats.host_s;
        if gov != Gov::Pcstall {
            log.epoch_us.extend(&rec.epoch_us);
        }
        let base = inputs.anchors[b].edp_report();
        let report = rec.result.edp_report();
        match (report.try_normalized_edp(&base), report.try_normalized_latency(&base)) {
            (Ok(e), Ok(l)) if rec.result.completed && e.is_finite() && l.is_finite() => {
                edp[g].push(e);
                violations +=
                    usize::from(gov == Gov::Ssmdvfs && l > 1.0 + preset + VIOLATION_SLACK);
            }
            _ => eval_failed += 1,
        }
        if !rec.counters.is_empty() {
            streams.push(rec.counters);
        }
    }
    Pass {
        quality: Quality {
            selected: selection.selected.names(),
            accuracy: summary.decision_accuracy,
            mape_pct: summary.calibrator_mape,
            edp_norm: mean(&edp[1]),
            edp_norm_compressed: mean(&edp[2]),
            violations,
        },
        wall_s: t0.elapsed().as_secs_f64(),
        eval_runs,
        eval_failed,
        samples: dataset.len(),
        sparse_below_dense,
        busy_s,
        full,
        streams,
    }
}

/// Output checks of one pass.
fn check_pass(out: &mut Outcome, p: &Pass) {
    let q = &p.quality;
    out.count(p.eval_runs, p.eval_failed);
    out.check("dataset", p.samples > 0, format!("{} samples", p.samples));
    out.check(
        "eval-runs",
        p.eval_failed == 0,
        format!(
            "{} of {} evaluation runs complete with finite EDP and latency",
            p.eval_runs - p.eval_failed,
            p.eval_runs
        ),
    );
    out.check("pruning", p.sparse_below_dense, "pruned model has fewer sparse than dense FLOPs");
    out.check(
        "rfe",
        q.selected.len() == RFE_KEEP + 1 && q.selected.contains(&"power_total_w"),
        format!("selected {:?}", q.selected),
    );
    out.check(
        "edp",
        q.edp_norm < 1.0 && q.edp_norm_compressed < 1.0,
        format!("normalized EDP {:.4} full, {:.4} compressed", q.edp_norm, q.edp_norm_compressed),
    );
    out.check(
        "model-quality",
        q.accuracy >= 0.5 && q.mape_pct <= 25.0,
        format!("accuracy {:.4}, calibrator MAPE {:.3}%", q.accuracy, q.mape_pct),
    );
}

fn anchor_check(out: &mut Outcome, inputs: &Inputs) {
    let complete = inputs.anchors.iter().filter(|r| r.completed).count();
    out.count(inputs.anchors.len() as u64, (inputs.anchors.len() - complete) as u64);
    out.check(
        "static-anchors",
        complete == inputs.anchors.len(),
        format!("{complete} of {} static runs complete", inputs.anchors.len()),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if !ctx.trace {
        let (inputs, setup_s, same) = setups(
            || setup(ctx.seed, &mut LayerLog::default()),
            |inputs| {
                let mut h = DefaultHasher::new();
                for r in &inputs.anchors {
                    (r.energy.joules().to_bits(), r.time.as_micros().to_bits()).hash(&mut h);
                }
                h.finish()
            },
        );
        out.set("setup_s", setup_s);
        out.check("setup-deterministic", same, "every set-up simulated identical anchors");
        anchor_check(&mut out, &inputs);
        let t0 = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || t0.elapsed().as_secs_f64() < ctx.seconds {
            let p = pass(&inputs, &mut LayerLog::default());
            check_pass(&mut out, &p);
            passes.push(p);
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        out.set("ops_per_s", passes.len() as f64 / walls.iter().sum::<f64>());
        out.set("op_p50_us", median(&walls) * 1e6);
        let q = &passes[0].quality;
        out.check(
            "deterministic",
            passes.iter().all(|p| p.quality == *q),
            format!("{} passes reproduced the same paper numbers", passes.len()),
        );
        // Printed with every digit: equal lines across runs of one seed
        // mean bit-identical paper numbers.
        println!(
            "quality: accuracy {}  calibrator MAPE {}%  EDP {} full / {} compressed  \
             {} preset violations  RFE {:?}",
            q.accuracy, q.mape_pct, q.edp_norm, q.edp_norm_compressed, q.violations, q.selected
        );
        return out;
    }

    let mut log = LayerLog::default();
    crate::set_tracing(true);
    let inputs = setup(ctx.seed, &mut log);
    crate::set_tracing(false);
    anchor_check(&mut out, &inputs);
    let untraced = pass(&inputs, &mut LayerLog::default());
    check_pass(&mut out, &untraced);
    crate::set_tracing(true);
    let (traced, plan) = {
        let _root = trace::span("run", "run.traced");
        let p = pass(&inputs, &mut log);
        let streams: Vec<&[EpochCounters]> = p.streams.iter().map(Vec::as_slice).collect();
        let (clusters, table_len) = (inputs.config.num_clusters, inputs.config.vf_table.len());
        let plan = measure_plan(&p.full, PRESETS[0], clusters, table_len, &streams);
        (p, plan)
    };
    crate::set_tracing(false);
    check_pass(&mut out, &traced);
    out.check(
        "deterministic",
        traced.quality == untraced.quality,
        "traced and untraced passes reproduced the same paper numbers",
    );
    out.set_common_layers(trace::take(), &log);
    let q = &traced.quality;
    out.set("eval.edp_norm", q.edp_norm);
    out.set("eval.edp_norm_compressed", q.edp_norm_compressed);
    out.set("eval.preset_violations", q.violations as f64);
    let eval_busy = inputs.anchor_busy_s + traced.busy_s.iter().sum::<f64>();
    out.set("eval.static_share", ratio(inputs.anchor_busy_s, eval_busy));
    out.set("eval.pcstall_share", ratio(traced.busy_s[0], eval_busy));
    out.set("eval.ssmdvfs_share", ratio(traced.busy_s[1], eval_busy));
    out.set("eval.ssmdvfs_comp_share", ratio(traced.busy_s[2], eval_busy));
    out.set_plan(plan);
    out.set("obs.overhead_pct", (traced.wall_s / untraced.wall_s - 1.0) * 100.0);
    out
}
