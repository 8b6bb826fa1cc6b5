//! CLI subcommand implementations.
//!
//! Each command is a function from parsed [`Args`] to a `Result<String>`
//! holding the text to print — pure enough to test without spawning a
//! process.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Duration;

use dvfs_baselines::{
    run_oracle, FlemmaConfig, FlemmaGovernor, OndemandConfig, OndemandGovernor, PcstallConfig,
    PcstallGovernor,
};
use gpu_sim::{
    epoch_trace_csv, DvfsGovernor, GpuConfig, SimResult, Simulation, StaticGovernor, Time,
};
use gpu_workloads::{by_name, suite, Benchmark};
use ssmdvfs::checkpoint::CheckpointJournal;
use ssmdvfs::exec::FaultPolicy;
use ssmdvfs::serve::{DecisionService, ServeConfig};
use ssmdvfs::{
    compress_and_finetune_jobs, estimate_asic, evaluate, generate_suite_with, select_features_with,
    train_combined_jobs, AsicConfig, CombinedModel, DataGenConfig, DvfsDataset, FeatureSet,
    ModelArch, RfeOptions, SsmdvfsConfig, SsmdvfsGovernor, SuiteOptions,
};
use tinynn::TrainConfig;

use crate::args::{Args, ParseArgsError};

type CmdResult = Result<String, ParseArgsError>;

fn err(message: impl Into<String>) -> ParseArgsError {
    ParseArgsError::new(message)
}

/// A `--*-us` option: a non-negative, finite number of microseconds that
/// fits a `Duration`. Anything else is a typed error naming the option, not
/// a panic in `Time::from_micros` or `Duration::from_secs_f64`.
fn micros(args: &Args, key: &str, default: f64) -> Result<f64, ParseArgsError> {
    let us = args.get_f64(key, default)?;
    match Duration::try_from_secs_f64(us * 1e-6) {
        Ok(_) => Ok(us),
        Err(_) => Err(ParseArgsError::invalid_value(
            key,
            args.get(key).unwrap_or_default(),
            "a non-negative, finite number of microseconds",
        )),
    }
}

/// A count option that must be at least 1.
fn positive(args: &Args, key: &str, default: usize) -> Result<usize, ParseArgsError> {
    match args.get_usize(key, default)? {
        0 => Err(ParseArgsError::invalid_value(key, "0", "a positive integer")),
        n => Ok(n),
    }
}

/// `--preset`: the tolerated slowdown fraction, finite and at least 0.
/// Anything else is a typed error naming the option: `NaN` or a negative
/// preset would run at the top V/f point and `inf` at the bottom one.
fn preset(args: &Args) -> Result<f64, ParseArgsError> {
    let preset = args.get_f64("preset", 0.10)?;
    if preset.is_finite() && preset >= 0.0 {
        Ok(preset)
    } else {
        Err(ParseArgsError::invalid_value(
            "preset",
            args.get("preset").unwrap_or_default(),
            "a finite, non-negative slowdown fraction",
        ))
    }
}

/// `--scale`: a finite, positive factor on every kernel's CTA count that
/// keeps each scaled kernel of `benches` below 2^32 CTAs. Anything else is
/// a typed error naming the option: `NaN` passes a `<= 0` test and runs
/// one CTA per kernel, and a huge factor rounds to `usize::MAX` CTAs, whose
/// ids the simulator would walk one by one.
fn scale(args: &Args, benches: &[Benchmark]) -> Result<f64, ParseArgsError> {
    let factor = args.get_f64("scale", 1.0)?;
    let most_ctas = benches
        .iter()
        .flat_map(|b| b.workload().kernels())
        .map(|k| k.num_ctas() as f64)
        .fold(0.0, f64::max);
    if factor.is_finite() && factor > 0.0 && (most_ctas * factor).round() < 2f64.powi(32) {
        Ok(factor)
    } else {
        Err(ParseArgsError::invalid_value(
            "scale",
            args.get("scale").unwrap_or_default(),
            "a positive, finite factor that keeps every kernel below 2^32 CTAs",
        ))
    }
}

/// An error attributed to a named pipeline stage, so the binary's
/// `error: [stage] ...` line says which part of the pipeline failed.
fn err_in(stage: &'static str, message: impl Into<String>) -> ParseArgsError {
    ParseArgsError::in_stage(stage, message)
}

/// Usage text shown by `help` and on unknown subcommands.
pub fn usage() -> String {
    "\
ssmdvfs — microsecond-scale GPU DVFS with supervised, self-calibrated ML

USAGE: ssmdvfs <COMMAND> [OPTIONS]

COMMANDS:
  list-benchmarks                     list the synthetic benchmark suite
  simulate    --benchmark <name>      run one benchmark under a governor
              [--governor static|pcstall|flemma|ondemand|oracle|ssmdvfs]
              [--model <file>] [--preset 0.10] [--op <idx>]
              [--clusters <n>] [--sms <n>] [--scale <f>] [--trace <out.csv>]
              [--audit-out <out.jsonl>] [--audit-cap 4096]
  fleet       --gpus <K>              run K GPUs against one batched
              [--max-batch 32]        decision service (shared inference)
              [--deadline-us <D>]     expired requests get the safe fallback
              [--shards 1] [--queue-depth 256]
              [--jobs <n>]            GPU worker threads (0 = one per core);
                                      decisions are identical at any count
              [--benchmark sgemm] [--scale <f>] [--preset 0.10]
              [--horizon-us 2000] [--model <file>]
              [--clusters <n>] [--sms <n>]
  datagen     --out <file>            run the Fig. 2 data-generation pipeline
              [--benchmarks a,b,c] [--scale <f>] [--clusters <n>]
              [--jobs <n>]            replay worker threads (0 = one per core)
              [--checkpoint <ck.jsonl>]  journal finished jobs for resume
              [--resume <ck.jsonl>]   skip jobs journaled by a killed run
              [--quarantine] [--max-retries 2]  retry/drop panicking jobs
              [--replay-cache <cache.json>]  reuse replay results across runs
  train       --dataset <file> --out <model.json>
              [--arch full|compressed] [--epochs <n>]
              [--rfe <keep>]          select <keep> indirect features by RFE
                                      first, instead of the paper's refined set
              [--rfe-epochs 8]        retrain epochs per elimination round
              [--jobs <n>]            SGD + importance workers (0 = one per
                                      core); the trained model is
                                      byte-identical at any count
  compress    --model <in> --dataset <file> --out <model.json>
              [--x1 0.6] [--x2 0.9]
              [--jobs <n>]            recovery-SGD workers (0 = one per core);
                                      byte-identical at any count
  evaluate    --model <file> --dataset <file>
  asic        --model <file> [--freq-mhz 1165]
  inspect     [audit.jsonl]           summarize a DVFS decision audit trail
              [--metrics <file.json>] summarize a --metrics-out snapshot
                                      (sim epochs, skipped cycles, cache hits)
              [--trace <file.json>]   summarize a Chrome/Perfetto trace
                                      (span count, total/mean time per name)
              [--profile <file.json>] show a --profile-out per-phase table
  watch       <addr>                  poll a --serve-metrics exporter and
              [--window 20]           show windowed rates instead of totals
              [--count 1] [--interval-ms 1000]
  slo-check   --baseline <dir>        evaluate SLO rules against the newest
                                      BENCH_*.json point per series in <dir>
              [--current <dir>]       freshly measured BENCH_*.json points
              [--metrics <file.json>] counters for ratio/ceiling rules
              [--audit <file.jsonl>]  decisions for calibration rules
              [--slo <rules.toml>]    rule file (defaults to built-in rules)
              [--strict]              treat skipped rules as failures
  help                                show this message

GLOBAL OPTIONS (any command):
  --metrics-out <file.json>           write a metrics-registry snapshot
  --trace-out <file.json>             write a Chrome/Perfetto trace
  --serve-metrics <addr>              serve /metrics (Prometheus),
                                      /metrics.json[?window=N] and /healthz
                                      for the duration of the run
  --serve-linger <secs>               keep the exporter up after the command
                                      finishes (scrape-friendly short runs)
  --profile-out <file.json>           write the phase profiler's table
  --profile-collapsed <file.txt>      write flamegraph collapsed stacks
  --log-level off|error|warn|info|debug
"
    .to_string()
}

fn gpu_config(args: &Args) -> Result<GpuConfig, ParseArgsError> {
    let mut cfg = GpuConfig::titan_x();
    cfg.num_clusters = args.get_usize("clusters", cfg.num_clusters)?;
    cfg.sms_per_cluster = args.get_usize("sms", cfg.sms_per_cluster)?;
    if cfg.num_clusters == 0 || cfg.sms_per_cluster == 0 {
        return Err(err("--clusters and --sms must be at least 1"));
    }
    Ok(cfg)
}

fn benchmark(args: &Args) -> Result<Benchmark, ParseArgsError> {
    let name = args.require("benchmark")?;
    let bench = by_name(name)
        .ok_or_else(|| err(format!("unknown benchmark '{name}'; see 'ssmdvfs list-benchmarks'")))?;
    Ok(bench.scaled(scale(args, std::slice::from_ref(&bench))?))
}

fn load_model(path: &str) -> Result<CombinedModel, ParseArgsError> {
    // `CombinedModel::load` already names the artifact, path and cause.
    CombinedModel::load(path).map_err(|e| err(e.to_string()))
}

fn load_dataset(path: &str) -> Result<DvfsDataset, ParseArgsError> {
    DvfsDataset::load(path).map_err(|e| err(e.to_string()))
}

/// `list-benchmarks`.
pub fn list_benchmarks() -> CmdResult {
    let mut out =
        format!("{:<14} {:<10} {:<10} {:>14}\n", "name", "family", "character", "instructions");
    for b in suite() {
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:<10} {:>14}",
            b.name(),
            b.family().to_string(),
            b.character().to_string(),
            b.workload().total_instructions()
        );
    }
    Ok(out)
}

/// `simulate`.
pub fn simulate(args: &Args) -> CmdResult {
    let cfg = gpu_config(args)?;
    let bench = benchmark(args)?;
    let preset = preset(args)?;
    let horizon = Time::from_micros(micros(args, "horizon-us", 20_000.0)?);
    let governor_name = args.get("governor").unwrap_or("static");
    let audit_out = args.get("audit-out");
    let audit_cap = positive(args, "audit-cap", 4096)?;

    let mut sim = Simulation::new(cfg.clone(), bench.workload().clone());
    let result: SimResult = if governor_name == "oracle" {
        // The oracle runs its own internal simulations; neither the epoch
        // trace nor a per-decision audit trail is exposed.
        if args.get("trace").is_some() {
            return Err(err("--trace is not available with the oracle governor"));
        }
        if audit_out.is_some() {
            return Err(err("--audit-out is not available with the oracle governor"));
        }
        run_oracle(&cfg, bench.workload().clone(), preset, horizon)
    } else {
        let mut governor: Box<dyn DvfsGovernor> = match governor_name {
            "static" => {
                let idx = args.get_usize("op", cfg.vf_table.default_index())?;
                if idx >= cfg.vf_table.len() {
                    return Err(err(format!(
                        "--op {idx} out of range (table has {} points)",
                        cfg.vf_table.len()
                    )));
                }
                Box::new(StaticGovernor::new(idx))
            }
            "pcstall" => Box::new(PcstallGovernor::new(PcstallConfig::new(preset))),
            "flemma" => Box::new(FlemmaGovernor::new(FlemmaConfig::new(preset))),
            "ondemand" => Box::new(OndemandGovernor::new(OndemandConfig::default())),
            "ssmdvfs" => {
                let model = load_model(args.require("model")?)?;
                Box::new(SsmdvfsGovernor::new(model, SsmdvfsConfig::new(preset)))
            }
            other => {
                return Err(err(format!(
                    "unknown governor '{other}' (static|pcstall|flemma|ondemand|oracle|ssmdvfs)"
                )))
            }
        };
        if audit_out.is_some() {
            governor.enable_audit(audit_cap);
        }
        let result = sim.run(governor.as_mut(), horizon);
        if let Some(path) = audit_out {
            let trail = governor.audit_trail().ok_or_else(|| {
                err(format!("governor '{governor_name}' does not support --audit-out"))
            })?;
            fs::write(path, trail.to_jsonl())
                .map_err(|e| err(format!("cannot write audit trail '{path}': {e}")))?;
        }
        result
    };

    if let Some(trace_path) = args.get("trace") {
        fs::write(trace_path, epoch_trace_csv(sim.records()))
            .map_err(|e| err(format!("cannot write trace '{trace_path}': {e}")))?;
    }

    let report = result.edp_report();
    let mut out = String::new();
    let _ = writeln!(out, "benchmark : {bench}");
    let _ = writeln!(out, "governor  : {}", result.governor);
    let _ = writeln!(out, "completed : {}", result.completed);
    let _ = writeln!(out, "time      : {:.2} µs", report.time_s() * 1e6);
    let _ = writeln!(out, "energy    : {:.4} mJ", report.energy().millijoules());
    let _ = writeln!(out, "EDP       : {:.4e} J·s", report.edp());
    let _ = writeln!(out, "op usage  : {:?}", result.op_histogram);
    Ok(out)
}

/// `fleet`.
pub fn fleet(args: &Args) -> CmdResult {
    let cfg = gpu_config(args)?;
    let gpus = positive(args, "gpus", 4)?;
    let jobs = ssmdvfs::exec::effective_jobs(args.get_usize("jobs", 0)?);
    let preset = preset(args)?;
    let horizon = Time::from_micros(micros(args, "horizon-us", 2_000.0)?);
    let name = args.get("benchmark").unwrap_or("sgemm");
    let bench = by_name(name)
        .ok_or_else(|| err(format!("unknown benchmark '{name}'; see 'ssmdvfs list-benchmarks'")))?;
    let bench = bench.scaled(scale(args, std::slice::from_ref(&bench))?);

    let deadline_us = micros(args, "deadline-us", 0.0)?;
    let serve = ServeConfig {
        shards: positive(args, "shards", 1)?,
        max_batch: positive(args, "max-batch", 32)?,
        queue_depth: positive(args, "queue-depth", 256)?,
        deadline: (deadline_us > 0.0).then(|| Duration::from_secs_f64(deadline_us * 1e-6)),
    };
    // With no --model, serve a deterministic synthetic head: enough to
    // exercise and benchmark the batching plane without a training run.
    let model = match args.get("model") {
        Some(path) => std::sync::Arc::new(load_model(path)?),
        None => std::sync::Arc::new(CombinedModel::synthetic(cfg.vf_table.len(), 42)),
    };

    let config = std::sync::Arc::new(cfg);
    let workload = std::sync::Arc::new(bench.workload().clone());
    let workloads = vec![workload; gpus];
    let service = DecisionService::start(
        model,
        SsmdvfsConfig::new(preset),
        config.vf_table.clone(),
        serve.clone(),
    );
    let client = service.client();
    let wall = std::time::Instant::now();
    let results = gpu_sim::run_fleet(&config, &workloads, horizon, jobs, &client);
    let elapsed = wall.elapsed();
    let stats = service.shutdown();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet     : {gpus} x {bench} ({jobs} jobs, {} shard(s), max batch {})",
        serve.shards, serve.max_batch
    );
    let _ = writeln!(
        out,
        "{:<5} {:<10} {:>12} {:>12} {:>10}",
        "gpu", "completed", "time µs", "energy mJ", "decisions"
    );
    for r in &results {
        let report = r.result.edp_report();
        let _ = writeln!(
            out,
            "{:<5} {:<10} {:>12.2} {:>12.4} {:>10}",
            r.gpu,
            r.result.completed,
            report.time_s() * 1e6,
            report.energy().millijoules(),
            r.decisions.len()
        );
    }
    let rate = stats.decisions as f64 / elapsed.as_secs_f64().max(1e-9);
    let _ = writeln!(out, "decisions : {} ({rate:.0}/s wall)", stats.decisions);
    let _ =
        writeln!(out, "batches   : {} (mean occupancy {:.2})", stats.batches, stats.mean_batch());
    let _ = writeln!(out, "misses    : {} past deadline", stats.deadline_misses);
    Ok(out)
}

/// `datagen`.
pub fn datagen(args: &Args) -> CmdResult {
    let cfg = gpu_config(args)?;
    let out_path = args.require("out")?;
    let benches: Vec<Benchmark> = match args.get("benchmarks") {
        None => gpu_workloads::training_set(),
        Some(spec) => spec
            .split(',')
            .map(|n| {
                by_name(n.trim()).ok_or_else(|| err(format!("unknown benchmark '{}'", n.trim())))
            })
            .collect::<Result<_, _>>()?,
    };
    let factor = scale(args, &benches)?;
    let dg = DataGenConfig::default();
    let scaled: Vec<Benchmark> = benches.into_iter().map(|b| b.scaled(factor)).collect();

    let mut options = SuiteOptions::new(args.get_usize("jobs", 0)?);
    // `--resume <journal>` reuses an interrupted run's completed jobs and
    // keeps journaling to the same file; `--checkpoint <journal>` starts a
    // fresh journal.
    match (args.get("resume"), args.get("checkpoint")) {
        (Some(_), Some(_)) => {
            return Err(err("--resume already journals; drop --checkpoint"));
        }
        (Some(path), None) => {
            let entries =
                ssmdvfs::checkpoint::load(path).map_err(|e| err_in("datagen", e.to_string()))?;
            options.completed = ssmdvfs::checkpoint::completed_jobs(entries);
            options.journal = Some(
                CheckpointJournal::append_to(path).map_err(|e| err_in("datagen", e.to_string()))?,
            );
        }
        (None, Some(path)) => {
            options.journal = Some(
                CheckpointJournal::create(path).map_err(|e| err_in("datagen", e.to_string()))?,
            );
        }
        (None, None) => {}
    }
    if args.flag("quarantine") || args.get("max-retries").is_some() {
        options.fault_policy = Some(FaultPolicy { max_retries: args.get_usize("max-retries", 2)? });
    }
    // `--replay-cache <file>` keys each replay's samples by a content hash
    // of (config, datagen params, workload, breakpoint, operating point):
    // reruns and overlapping sweeps skip already-simulated replays.
    let cache = match args.get("replay-cache") {
        None => None,
        Some(path) => {
            let cache =
                ssmdvfs::ReplayCache::open(path).map_err(|e| err_in("datagen", e.to_string()))?;
            Some(std::sync::Arc::new(cache))
        }
    };
    options.cache = cache.clone();

    // Fan every (benchmark, breakpoint, operating point) replay out over
    // the shared compute pool; the sample order is identical to a
    // sequential per-benchmark run, and (with a journal) byte-identical
    // across an interruption.
    let outcome = generate_suite_with(&scaled, &cfg, &dg, &options)
        .map_err(|e| err_in("datagen", e.to_string()))?;
    let mut dataset = DvfsDataset::default();
    let mut out = String::new();
    for (b, part) in scaled.iter().zip(outcome.datasets) {
        let _ = writeln!(out, "{:<14} {:>6} samples", b.name(), part.len());
        dataset.extend(part);
    }
    dataset.save(out_path).map_err(|e| err_in("datagen", e.to_string()))?;
    let _ = writeln!(out, "total: {} samples -> {out_path}", dataset.len());
    if let Some(cache) = cache {
        cache.save().map_err(|e| err_in("datagen", e.to_string()))?;
        let _ = writeln!(
            out,
            "replay cache: {} hits, {} misses, {} entries",
            cache.hits(),
            cache.misses(),
            cache.len()
        );
    }
    if !outcome.faults.is_empty() {
        let _ = writeln!(out, "fault report: {}", outcome.faults);
    }
    Ok(out)
}

fn arch(args: &Args) -> Result<ModelArch, ParseArgsError> {
    match args.get("arch").unwrap_or("full") {
        "full" => Ok(ModelArch::paper_full()),
        "compressed" => Ok(ModelArch::paper_compressed()),
        other => Err(err(format!("unknown --arch '{other}' (full|compressed)"))),
    }
}

/// `train`.
pub fn train(args: &Args) -> CmdResult {
    let dataset = load_dataset(args.require("dataset")?)?;
    let out_path = args.require("out")?;
    let train_cfg =
        TrainConfig { epochs: args.get_usize("epochs", 300)?, ..TrainConfig::default() };
    let jobs = args.get_usize("jobs", 1)?;
    let mut out = String::new();
    // `--rfe <keep>` re-derives the feature set from this dataset instead of
    // trusting the paper's refined five; the per-round retrains and the
    // per-column importance work both fan out over `--jobs` workers without
    // changing the selection.
    let features = match args.get("rfe") {
        None if !args.flag("rfe") => FeatureSet::refined(),
        _ => {
            let keep = args.get_usize("rfe", 4)?;
            let candidates = ssmdvfs::candidate_counters().len();
            if keep == 0 || keep >= candidates {
                return Err(err(format!("--rfe must be in 1..{candidates}")));
            }
            let rfe_cfg =
                TrainConfig { epochs: args.get_usize("rfe-epochs", 8)?, ..TrainConfig::default() };
            let opts = RfeOptions { jobs, ..RfeOptions::default() };
            let sel = select_features_with(&dataset, 6, keep, &rfe_cfg, &opts);
            let _ = writeln!(
                out,
                "RFE selected {} (full-set accuracy {:.2}%, selected {:.2}%)",
                sel.selected.names().join(","),
                sel.full_accuracy * 100.0,
                sel.selected_accuracy * 100.0
            );
            sel.selected
        }
    };
    // The SGD epoch loops shard each minibatch over `--jobs` workers; the
    // trained model is byte-identical at any worker count.
    let (model, summary) =
        train_combined_jobs(&dataset, &features, &arch(args)?, 6, &train_cfg, 0.25, jobs);
    model.save(out_path).map_err(|e| err_in("train", e.to_string()))?;
    let _ = writeln!(
        out,
        "trained on {} samples: accuracy {:.2}%, MAPE {:.2}%, {} FLOPs -> {out_path}",
        summary.samples,
        summary.decision_accuracy * 100.0,
        summary.calibrator_mape,
        summary.flops
    );
    Ok(out)
}

/// `compress`.
pub fn compress(args: &Args) -> CmdResult {
    let model = load_model(args.require("model")?)?;
    let dataset = load_dataset(args.require("dataset")?)?;
    let out_path = args.require("out")?;
    let x1 = args.get_f64("x1", 0.6)? as f32;
    let x2 = args.get_f64("x2", 0.9)? as f32;
    if !(0.0..=1.0).contains(&x1) || !(0.0..=1.0).contains(&x2) {
        return Err(err("--x1 and --x2 must be in [0, 1]"));
    }
    let finetune = TrainConfig { epochs: args.get_usize("epochs", 80)?, ..TrainConfig::default() };
    let compressed =
        compress_and_finetune_jobs(&model, &dataset, x1, x2, &finetune, args.get_usize("jobs", 1)?);
    compressed.save(out_path).map_err(|e| err_in("compress", e.to_string()))?;
    Ok(format!(
        "compressed {} -> {} FLOPs ({:.1}% reduction) -> {out_path}\n",
        model.flops(),
        compressed.sparse_flops(),
        (1.0 - compressed.sparse_flops() as f64 / model.flops() as f64) * 100.0
    ))
}

/// `evaluate`.
pub fn eval_cmd(args: &Args) -> CmdResult {
    let model = load_model(args.require("model")?)?;
    let dataset = load_dataset(args.require("dataset")?)?;
    let (acc, mape) = evaluate(&model, &dataset);
    Ok(format!(
        "decision accuracy {:.2}%, calibrator MAPE {:.2}% over {} samples ({} sparse FLOPs)\n",
        acc * 100.0,
        mape,
        dataset.len(),
        model.sparse_flops()
    ))
}

/// `asic`.
pub fn asic(args: &Args) -> CmdResult {
    let freq = args.get_f64("freq-mhz", 1165.0)?;
    if !(freq.is_finite() && freq > 0.0) {
        return Err(ParseArgsError::invalid_value(
            "freq-mhz",
            args.get("freq-mhz").unwrap_or_default(),
            "a positive, finite frequency in MHz",
        ));
    }
    let model = load_model(args.require("model")?)?;
    let r = estimate_asic(&model, &AsicConfig::tsmc65(), freq, 10.0);
    Ok(format!(
        "cycles/inference: {}\nlatency: {:.3} µs ({:.2}% of a 10 µs epoch)\narea: {:.4} mm² @65nm, {:.4} mm² @28nm\npower: {:.4} W, energy/inference: {:.3e} J\n",
        r.cycles_per_inference,
        r.latency_us,
        r.epoch_fraction * 100.0,
        r.area_65nm_mm2,
        r.area_28nm_mm2,
        r.power_w,
        r.energy_per_inference_j
    ))
}

/// Per-span-name aggregation of a Chrome/Perfetto trace: event count and
/// total/mean wall time, so `--trace-out` files are inspectable without
/// leaving the CLI.
fn summarize_chrome_trace(text: &str, path: &str) -> CmdResult {
    let root: serde_json::Value =
        serde_json::from_str(text).map_err(|e| err(format!("cannot parse trace '{path}': {e}")))?;
    let events = root
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| err(format!("trace '{path}' has no traceEvents array")))?;
    let mut by_name: BTreeMap<String, (u64, f64)> = BTreeMap::new();
    let mut spans = 0u64;
    for event in events {
        // Only complete ("X") events carry a duration; metadata ("M") and
        // instants are counted separately below.
        if event.get("ph").and_then(serde_json::Value::as_str) != Some("X") {
            continue;
        }
        let name = event.get("name").and_then(serde_json::Value::as_str).unwrap_or("?");
        let dur = event.get("dur").and_then(serde_json::Value::as_f64).unwrap_or(0.0);
        let entry = by_name.entry(name.to_string()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += dur;
        spans += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace     : {} events, {} spans, {} distinct span names",
        events.len(),
        spans,
        by_name.len()
    );
    let mut rows: Vec<(&String, &(u64, f64))> = by_name.iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1).then_with(|| a.0.cmp(b.0)));
    let _ = writeln!(out, "{:<44} {:>8} {:>12} {:>12}", "span", "count", "total ms", "mean µs");
    for (name, (count, total_us)) in rows.into_iter().take(20) {
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>12.3} {:>12.1}",
            name,
            count,
            total_us / 1e3,
            total_us / *count as f64
        );
    }
    Ok(out)
}

/// `inspect [audit.jsonl] [--metrics <file.json>] [--trace <file.json>]
/// [--profile <file.json>]`: summarizes a decision audit trail written by
/// `simulate --audit-out`, a `--metrics-out` snapshot (simulation-engine
/// counters included), a `--trace-out` Chrome trace, and/or a
/// `--profile-out` phase profile.
pub fn inspect(args: &Args) -> CmdResult {
    let metrics_path = args.get("metrics");
    let mut out = String::new();
    if let Some(path) = args.get("trace") {
        let text = fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read trace '{path}': {e}")))?;
        let _ = write!(out, "{}", summarize_chrome_trace(&text, path)?);
    }
    if let Some(path) = args.get("profile") {
        let text = fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read profile '{path}': {e}")))?;
        let profile: obs::prof::ProfileSnapshot = serde_json::from_str(&text)
            .map_err(|e| err(format!("cannot parse profile '{path}': {e}")))?;
        let _ = write!(out, "{}", obs::prof::table(&profile));
    }
    match (args.positional(), &metrics_path) {
        ([], None) => {
            if out.is_empty() {
                return Err(err(
                    "inspect expects an audit JSONL file and/or --metrics/--trace/--profile \
                     <file.json>",
                ));
            }
        }
        ([], Some(_)) => {}
        ([path], _) => {
            let text = fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read audit '{path}': {e}")))?;
            let records = obs::audit::parse_jsonl(&text)
                .map_err(|e| err(format!("cannot parse audit '{path}': {e}")))?;
            if records.is_empty() {
                return Err(err(format!("audit '{path}' contains no records")));
            }
            let _ = writeln!(out, "{}", obs::summarize(&records));
        }
        _ => return Err(err("inspect expects at most one audit JSONL file")),
    }
    if let Some(path) = metrics_path {
        let text = fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read metrics '{path}': {e}")))?;
        let snapshot: obs::metrics::MetricsSnapshot = serde_json::from_str(&text)
            .map_err(|e| err(format!("cannot parse metrics '{path}': {e}")))?;
        let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
        let _ = writeln!(
            out,
            "metrics   : {} counters, {} gauges, {} histograms",
            snapshot.counters.len(),
            snapshot.gauges.len(),
            snapshot.histograms.len()
        );
        let _ = writeln!(out, "sim epochs: {}", counter("sim.epochs"));
        let _ = writeln!(out, "sim engine: {} skipped cycles", counter("sim.skipped_cycles"));
        let _ = writeln!(
            out,
            "replay    : {} cache hits, {} cache misses",
            counter("sim.cache_hits"),
            counter("sim.cache_misses")
        );
        let memo_hits = counter("decide.memo_hits");
        let memo_misses = counter("decide.memo_misses");
        if memo_hits + memo_misses > 0 {
            let _ = writeln!(
                out,
                "decide    : {} memo hits, {} memo misses ({:.1}% hit rate)",
                memo_hits,
                memo_misses,
                100.0 * memo_hits as f64 / (memo_hits + memo_misses) as f64
            );
        }
        if let Some(h) = snapshot.histograms.get("decide.plan_latency_ns") {
            let _ = writeln!(
                out,
                "decide    : {} plan decisions, mean latency {:.0} ns",
                h.count,
                h.mean()
            );
        }
    }
    Ok(out)
}

/// Renders one `/metrics.json?window=N` report as a rates table.
fn render_window(addr: &str, report: &obs::series::WindowReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{addr} — uptime {:.1} s, window {} samples over {:.2} s",
        report.uptime_s, report.samples, report.seconds
    );
    let derived: [(&str, f64); 5] = [
        ("sim epochs/s", report.rate("sim.epochs")),
        ("sim cycles skipped/s", report.rate("sim.skipped_cycles")),
        ("datagen replays/s", report.rate("datagen.replays")),
        ("datagen samples/s", report.rate("datagen.samples")),
        ("train epochs/s", report.rate("train.epochs")),
    ];
    for (label, rate) in derived {
        let _ = writeln!(out, "  {label:<22}: {rate:>12.1}");
    }
    match report.delta_ratio("sim.cache_hits", "sim.cache_misses") {
        Some(ratio) => {
            let _ = writeln!(out, "  {:<22}: {:>12.3}", "cache hit ratio", ratio);
        }
        None => {
            let _ = writeln!(out, "  {:<22}: {:>12}", "cache hit ratio", "-");
        }
    }
    let drops = report.counters.get("exec.quarantine_dropped").map_or(0, |c| c.delta);
    let _ = writeln!(out, "  {:<22}: {:>12}", "quarantine drops", drops);
    // Any other counter that moved in the window, fastest first.
    let mut moved: Vec<(&String, &obs::series::CounterWindow)> = report
        .counters
        .iter()
        .filter(|(name, c)| {
            c.delta > 0
                && !matches!(
                    name.as_str(),
                    "sim.epochs"
                        | "sim.skipped_cycles"
                        | "datagen.replays"
                        | "datagen.samples"
                        | "train.epochs"
                        | "sim.cache_hits"
                        | "sim.cache_misses"
                        | "exec.quarantine_dropped"
                )
        })
        .collect();
    moved.sort_by(|a, b| b.1.rate_per_s.total_cmp(&a.1.rate_per_s).then_with(|| a.0.cmp(b.0)));
    for (name, c) in moved.into_iter().take(8) {
        let _ = writeln!(out, "  {:<22}: {:>12.1}/s (+{})", name, c.rate_per_s, c.delta);
    }
    out
}

/// `watch <addr>`: polls a `--serve-metrics` exporter's windowed endpoint
/// and renders rates (epochs/s, cache hit ratio, quarantine drops) rather
/// than lifetime totals. `--count N` polls N times, `--interval-ms`
/// spacing them.
pub fn watch(args: &Args) -> CmdResult {
    let [addr] = args.positional() else {
        return Err(err("watch expects exactly one <addr>, e.g. 'watch 127.0.0.1:9184'"));
    };
    let window = positive(args, "window", 20)?;
    let count = positive(args, "count", 1)?;
    let interval_ms = args.get_usize("interval-ms", 1000)?;
    let mut out = String::new();
    for i in 0..count {
        if i > 0 {
            std::thread::sleep(std::time::Duration::from_millis(interval_ms as u64));
        }
        let (status, body) = obs::export::http_get(addr, &format!("/metrics.json?window={window}"))
            .map_err(|e| err(format!("cannot reach exporter at {addr}: {e}")))?;
        if status != 200 {
            return Err(err(format!("exporter at {addr} returned HTTP {status}")));
        }
        let report: obs::series::WindowReport = serde_json::from_str(&body)
            .map_err(|e| err(format!("malformed window report from {addr}: {e}")))?;
        let _ = write!(out, "{}", render_window(addr, &report));
    }
    Ok(out)
}

/// Loads every `BENCH_<series>*.json` in `dir`, keeping the newest file
/// per series (ISO dates in the filename sort lexicographically). Numeric
/// fields become the [`obs::slo::BenchPoint`]; booleans read 0/1.
fn load_bench_dir(dir: &str) -> Result<BTreeMap<String, obs::slo::BenchPoint>, ParseArgsError> {
    let entries = fs::read_dir(dir)
        .map_err(|e| err_in("slo", format!("cannot read BENCH directory '{dir}': {e}")))?;
    let mut newest: BTreeMap<String, String> = BTreeMap::new();
    for entry in entries {
        let entry = entry.map_err(|e| err_in("slo", format!("cannot list '{dir}': {e}")))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let series = name.trim_end_matches(".json").split('.').next().unwrap_or(&name).to_string();
        let slot = newest.entry(series).or_default();
        if name > *slot {
            *slot = name;
        }
    }
    let mut points = BTreeMap::new();
    for (series, file) in newest {
        let path = Path::new(dir).join(&file);
        let text = fs::read_to_string(&path)
            .map_err(|e| err_in("slo", format!("cannot read '{}': {e}", path.display())))?;
        let value: serde_json::Value = serde_json::from_str(&text)
            .map_err(|e| err_in("slo", format!("cannot parse '{}': {e}", path.display())))?;
        let object = value
            .as_object()
            .ok_or_else(|| err_in("slo", format!("'{}' is not a JSON object", path.display())))?;
        let mut point = obs::slo::BenchPoint::new();
        for (key, field) in object {
            match field {
                serde_json::Value::Number(n) => {
                    point.insert(key.clone(), n.as_f64());
                }
                serde_json::Value::Bool(b) => {
                    point.insert(key.clone(), f64::from(u8::from(*b)));
                }
                _ => {}
            }
        }
        points.insert(series, point);
    }
    if points.is_empty() {
        return Err(err_in("slo", format!("no BENCH_*.json files in '{dir}'")));
    }
    Ok(points)
}

/// `slo-check`: evaluates declarative threshold rules against the perf
/// trajectory, a metrics snapshot, and an audit trail; prints the report
/// and fails (nonzero exit) when any rule is violated.
pub fn slo_check(args: &Args) -> CmdResult {
    let baseline = load_bench_dir(args.require("baseline")?)?;
    let current = match args.get("current") {
        // Without a fresh measurement the newest checked-in point doubles
        // as the current one: the gate then validates the trajectory's own
        // consistency plus the snapshot/audit rules.
        None => baseline.clone(),
        Some(dir) => load_bench_dir(dir)?,
    };
    let metrics = match args.get("metrics") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| err_in("slo", format!("cannot read metrics '{path}': {e}")))?;
            Some(
                serde_json::from_str(&text)
                    .map_err(|e| err_in("slo", format!("cannot parse metrics '{path}': {e}")))?,
            )
        }
    };
    let audit = match args.get("audit") {
        None => None,
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| err_in("slo", format!("cannot read audit '{path}': {e}")))?;
            Some(
                obs::audit::parse_jsonl(&text)
                    .map_err(|e| err_in("slo", format!("cannot parse audit '{path}': {e}")))?,
            )
        }
    };
    let rules = match args.get("slo") {
        None => obs::slo::default_rules(),
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| err_in("slo", format!("cannot read SLO rules '{path}': {e}")))?;
            obs::slo::parse_slo_toml(&text).map_err(|e| err_in("slo", format!("{path}: {e}")))?
        }
    };
    let inputs = obs::slo::SloInputs { baseline, current, metrics, audit };
    let report = obs::slo::evaluate(&rules, &inputs, args.flag("strict"));
    if report.passed() {
        Ok(format!("{report}\n"))
    } else {
        Err(err_in("slo", report.to_string()))
    }
}

/// Dispatches a parsed argument set to its subcommand.
///
/// # Errors
///
/// Returns a [`ParseArgsError`] describing any invalid input or I/O failure.
pub fn dispatch(args: &Args) -> CmdResult {
    match args.command() {
        "list-benchmarks" => list_benchmarks(),
        "simulate" => simulate(args),
        "fleet" => fleet(args),
        "datagen" => datagen(args),
        "train" => train(args),
        "compress" => compress(args),
        "evaluate" => eval_cmd(args),
        "asic" => asic(args),
        "inspect" => inspect(args),
        "watch" => watch(args),
        "slo-check" => slo_check(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(err(format!("unknown command '{other}'\n\n{}", usage()))),
    }
}

/// [`dispatch`] wrapped with the global observability options: sets the log
/// level, enables metrics/tracing when an output file or live exporter is
/// requested, starts/stops the embedded metrics server, and writes the
/// snapshot, Chrome-trace and profile files after the command finishes
/// (even a failing command leaves its partial telemetry behind).
///
/// # Errors
///
/// As [`dispatch`], plus I/O failures writing the requested output files or
/// binding the metrics listener.
pub fn run(args: &Args) -> CmdResult {
    const LEVELS: &str = "off|error|warn|info|debug";
    if args.flag("log-level") {
        return Err(ParseArgsError::invalid_value("log-level", "", LEVELS));
    }
    if let Some(level) = args.get("log-level") {
        let level = obs::log::parse_level(level)
            .map_err(|_| ParseArgsError::invalid_value("log-level", level, LEVELS))?;
        obs::log::set_level(level);
    }
    let metrics_out = args.get("metrics-out");
    let trace_out = args.get("trace-out");
    let profile_out = args.get("profile-out");
    let profile_collapsed = args.get("profile-collapsed");
    let serve_metrics = args.get("serve-metrics");
    if metrics_out.is_some() || trace_out.is_some() || serve_metrics.is_some() {
        obs::set_enabled(true);
    }
    if profile_out.is_some() || profile_collapsed.is_some() {
        obs::prof::set_profiling(true);
    }
    let server = match serve_metrics {
        None => None,
        Some(addr) => {
            let server = obs::export::MetricsServer::start(addr)
                .map_err(|e| err(format!("cannot serve metrics on '{addr}': {e}")))?;
            obs::info!("serving metrics on {}", server.local_addr());
            Some(server)
        }
    };
    let result = dispatch(args);
    if let Some(path) = metrics_out {
        fs::write(path, obs::metrics::global().snapshot_json())
            .map_err(|e| err(format!("cannot write metrics '{path}': {e}")))?;
    }
    if let Some(path) = trace_out {
        fs::write(path, obs::trace::chrome_trace_json())
            .map_err(|e| err(format!("cannot write trace '{path}': {e}")))?;
    }
    if profile_out.is_some() || profile_collapsed.is_some() {
        let profile = obs::prof::snapshot();
        if let Some(path) = profile_out {
            let json = serde_json::to_string_pretty(&profile)
                .map_err(|e| err(format!("cannot serialize profile: {e}")))?;
            fs::write(path, json)
                .map_err(|e| err(format!("cannot write profile '{path}': {e}")))?;
        }
        if let Some(path) = profile_collapsed {
            fs::write(path, obs::prof::collapsed(&profile))
                .map_err(|e| err(format!("cannot write collapsed profile '{path}': {e}")))?;
        }
    }
    if let Some(server) = server {
        let linger = args.get_f64("serve-linger", 0.0)?;
        if linger > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(linger.min(600.0)));
        }
        server.shutdown();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_benchmarks_contains_suite_members() {
        let out = list_benchmarks().unwrap();
        assert!(out.contains("sgemm"));
        assert!(out.contains("lbm"));
        assert!(out.contains("polybench"));
    }

    #[test]
    fn simulate_static_small() {
        let args =
            Args::parse(["simulate", "--benchmark", "lbm", "--clusters", "2", "--scale", "0.05"])
                .unwrap();
        let out = simulate(&args).unwrap();
        assert!(out.contains("completed : true"), "{out}");
        assert!(out.contains("EDP"));
    }

    #[test]
    fn fleet_runs_small_fleet_with_batched_service() {
        let args = Args::parse([
            "fleet",
            "--gpus",
            "3",
            "--max-batch",
            "4",
            "--shards",
            "1",
            "--clusters",
            "2",
            "--scale",
            "0.02",
            "--horizon-us",
            "300",
        ])
        .unwrap();
        let out = fleet(&args).unwrap();
        assert!(out.contains("fleet     : 3 x"), "{out}");
        assert!(out.contains("decisions :"), "{out}");
        assert!(out.contains("misses    : 0 past deadline"), "{out}");
    }

    #[test]
    fn fleet_rejects_bad_inputs() {
        let args = Args::parse(["fleet", "--gpus", "0"]).unwrap();
        assert!(fleet(&args).unwrap_err().to_string().contains("--gpus"));
        let args = Args::parse(["fleet", "--gpus", "1", "--benchmark", "nope"]).unwrap();
        assert!(fleet(&args).unwrap_err().to_string().contains("unknown benchmark"));
        let mut cases = vec![
            ("fleet", "deadline-us", "inf"),
            ("fleet", "deadline-us", "1e300"),
            ("fleet", "deadline-us", "-5"),
            ("fleet", "deadline-us", "NaN"),
            ("fleet", "horizon-us", "-1"),
            ("fleet", "horizon-us", "NaN"),
            ("fleet", "horizon-us", "inf"),
            ("fleet", "shards", "0"),
            ("fleet", "max-batch", "0"),
            ("fleet", "queue-depth", "0"),
            ("simulate", "horizon-us", "-1"),
            ("simulate", "audit-cap", "0"),
        ];
        for command in ["fleet", "simulate", "datagen"] {
            for value in ["NaN", "inf", "1e300", "0", "-1"] {
                cases.push((command, "scale", value));
            }
        }
        for command in ["fleet", "simulate"] {
            for value in ["NaN", "-1", "inf", "-inf"] {
                cases.push((command, "preset", value));
            }
        }
        for value in ["NaN", "inf", "0", "-1"] {
            cases.push(("asic", "freq-mhz", value));
        }
        let out = std::env::temp_dir().join("ssmdvfs_cli_rejected_scale.json");
        let _ = fs::remove_file(&out);
        for (command, option, value) in cases {
            let option_flag = format!("--{option}");
            let args = Args::parse([
                command,
                "--benchmark",
                "lbm",
                "--benchmarks",
                "lbm",
                "--out",
                out.to_str().unwrap(),
                "--gpus",
                "1",
                "--clusters",
                "2",
                "--scale",
                "0.02",
                &option_flag,
                value,
            ])
            .unwrap();
            let run = match command {
                "fleet" => fleet,
                "simulate" => simulate,
                "asic" => asic,
                _ => datagen,
            };
            let e = run(&args).unwrap_err();
            assert_eq!(e.kind(), crate::args::ErrorKind::InvalidValue, "{option} {value}: {e}");
            assert!(e.to_string().contains(&option_flag), "{e}");
            assert!(!out.exists(), "{command} wrote its output before rejecting {option} {value}");
        }
    }

    #[test]
    fn simulate_rejects_unknown_benchmark_and_governor() {
        let args = Args::parse(["simulate", "--benchmark", "nope", "--clusters", "2"]).unwrap();
        assert!(simulate(&args).unwrap_err().to_string().contains("unknown benchmark"));
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--governor",
            "magic",
        ])
        .unwrap();
        assert!(simulate(&args).unwrap_err().to_string().contains("unknown governor"));
    }

    #[test]
    fn datagen_train_evaluate_roundtrip() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_test");
        fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.json");
        let model_path = dir.join("model.json");

        let args = Args::parse([
            "datagen",
            "--out",
            data_path.to_str().unwrap(),
            "--benchmarks",
            "lbm,sgemm",
            "--scale",
            "0.05",
            "--clusters",
            "2",
            "--jobs",
            "2",
        ])
        .unwrap();
        let out = datagen(&args).unwrap();
        assert!(out.contains("total:"), "{out}");

        let args = Args::parse([
            "train",
            "--dataset",
            data_path.to_str().unwrap(),
            "--out",
            model_path.to_str().unwrap(),
            "--epochs",
            "10",
            "--arch",
            "compressed",
        ])
        .unwrap();
        let out = train(&args).unwrap();
        assert!(out.contains("accuracy"), "{out}");

        let args = Args::parse([
            "evaluate",
            "--model",
            model_path.to_str().unwrap(),
            "--dataset",
            data_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = eval_cmd(&args).unwrap();
        assert!(out.contains("decision accuracy"));

        let args = Args::parse(["asic", "--model", model_path.to_str().unwrap()]).unwrap();
        let out = asic(&args).unwrap();
        assert!(out.contains("cycles/inference"));

        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn train_with_rfe_selects_features() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_rfe_test");
        fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.json");
        let model_path = dir.join("model.json");
        let args = Args::parse([
            "datagen",
            "--out",
            data_path.to_str().unwrap(),
            "--benchmarks",
            "lbm",
            "--scale",
            "0.05",
            "--clusters",
            "2",
        ])
        .unwrap();
        datagen(&args).unwrap();

        // A cheap selection: two elimination rounds, one epoch each. Going
        // through `run` with `--metrics-out` also checks that the training
        // and RFE counters surface in the snapshot.
        let metrics_path = dir.join("metrics.json");
        let args = Args::parse([
            "train",
            "--dataset",
            data_path.to_str().unwrap(),
            "--out",
            model_path.to_str().unwrap(),
            "--epochs",
            "5",
            "--arch",
            "compressed",
            "--rfe",
            "38",
            "--rfe-epochs",
            "1",
            "--jobs",
            "2",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains("RFE selected"), "{out}");
        assert!(out.contains("power_total_w"), "PPC always survives: {out}");
        let model = CombinedModel::load(&model_path).unwrap();
        assert_eq!(model.feature_set.len(), 39, "38 indirect + PPC");
        let snapshot = fs::read_to_string(&metrics_path).unwrap();
        for name in ["rfe.rounds", "rfe.parallel_tasks", "train.epochs"] {
            assert!(snapshot.contains(name), "metrics snapshot must expose {name}: {snapshot}");
        }

        // Out of range, and given without a value.
        for rfe in [&["--rfe", "0"][..], &["--rfe"]] {
            let mut argv = vec![
                "train",
                "--dataset",
                data_path.to_str().unwrap(),
                "--out",
                model_path.to_str().unwrap(),
            ];
            argv.extend_from_slice(rfe);
            let args = Args::parse(argv).unwrap();
            assert!(train(&args).unwrap_err().to_string().contains("--rfe"), "{rfe:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dispatch_help_and_unknown() {
        let args = Args::parse(["help"]).unwrap();
        assert!(dispatch(&args).unwrap().contains("USAGE"));
        let args = Args::parse(["frobnicate"]).unwrap();
        assert!(dispatch(&args).unwrap_err().to_string().contains("unknown command"));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::args::Args;

    #[test]
    fn simulate_writes_a_trace_csv() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_trace_test");
        fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.csv");
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--governor",
            "pcstall",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        simulate(&args).unwrap();
        let csv = fs::read_to_string(&trace).unwrap();
        assert!(csv.starts_with("epoch,cluster"));
        assert!(csv.lines().count() > 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_with_oracle_is_rejected() {
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--governor",
            "oracle",
            "--trace",
            "/tmp/never-written.csv",
        ])
        .unwrap();
        let e = simulate(&args).unwrap_err();
        assert!(e.to_string().contains("oracle"));
    }

    #[test]
    fn simulate_rejects_bad_op_index() {
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--op",
            "99",
        ])
        .unwrap();
        assert!(simulate(&args).unwrap_err().to_string().contains("out of range"));
    }

    #[test]
    fn simulate_writes_and_inspect_summarizes_an_audit_trail() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_audit_test");
        fs::create_dir_all(&dir).unwrap();
        let audit = dir.join("audit.jsonl");
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--governor",
            "pcstall",
            "--audit-out",
            audit.to_str().unwrap(),
            "--audit-cap",
            "64",
        ])
        .unwrap();
        simulate(&args).unwrap();
        let text = fs::read_to_string(&audit).unwrap();
        assert!(text.lines().count() >= 2, "expect one record per decide(): {text}");
        let records = obs::audit::parse_jsonl(&text).unwrap();
        assert!(records.iter().all(|r| r.freq_mhz > 0.0));

        let args = Args::parse(["inspect", audit.to_str().unwrap()]).unwrap();
        let out = inspect(&args).unwrap();
        assert!(out.contains("epochs audited"), "{out}");
        assert!(out.contains("residency"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn audit_with_oracle_is_rejected() {
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--governor",
            "oracle",
            "--audit-out",
            "/tmp/never-written.jsonl",
        ])
        .unwrap();
        assert!(simulate(&args).unwrap_err().to_string().contains("oracle"));
    }

    #[test]
    fn inspect_rejects_missing_and_malformed_input() {
        let args = Args::parse(["inspect", "/nonexistent/audit.jsonl"]).unwrap();
        assert!(inspect(&args).unwrap_err().to_string().contains("cannot read"));
        let args = Args::parse(["inspect"]).unwrap();
        assert!(inspect(&args).unwrap_err().to_string().contains("--metrics"));
        let args = Args::parse(["inspect", "--metrics", "/nonexistent/metrics.json"]).unwrap();
        assert!(inspect(&args).unwrap_err().to_string().contains("cannot read metrics"));
    }

    #[test]
    fn run_writes_metrics_and_trace_files() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_obs_test");
        fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.json");
        let args = Args::parse([
            "simulate",
            "--benchmark",
            "lbm",
            "--clusters",
            "2",
            "--scale",
            "0.05",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        let snapshot = fs::read_to_string(&metrics).unwrap();
        assert!(snapshot.contains("sim.epochs"), "simulate increments sim.epochs: {snapshot}");
        let trace_json = fs::read_to_string(&trace).unwrap();
        assert!(trace_json.contains("traceEvents"), "{trace_json}");
        assert!(trace_json.contains("sim.run"), "{trace_json}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn datagen_replay_cache_warms_and_inspect_summarizes_metrics() {
        let dir = std::env::temp_dir().join("ssmdvfs_cli_replay_cache_test");
        fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache.json");
        let cold = dir.join("cold.json");
        let warm = dir.join("warm.json");
        let metrics = dir.join("metrics.json");
        let base = |out: &std::path::Path| {
            vec![
                "datagen".to_string(),
                "--out".into(),
                out.to_str().unwrap().into(),
                "--benchmarks".into(),
                "sgemm".into(),
                "--scale".into(),
                "0.05".into(),
                "--clusters".into(),
                "2".into(),
                "--jobs".into(),
                "2".into(),
                "--replay-cache".into(),
                cache.to_str().unwrap().into(),
            ]
        };
        let args = Args::parse(base(&cold)).unwrap();
        let out = datagen(&args).unwrap();
        assert!(out.contains("replay cache: 0 hits"), "cold run must miss: {out}");
        assert!(cache.exists(), "cache file must be persisted");

        // Warm rerun at a different worker count: every replay is served
        // from the cache and the dataset bytes are unchanged.
        let mut warm_args = base(&warm);
        warm_args[10] = "4".into();
        warm_args.extend(["--metrics-out".to_string(), metrics.to_str().unwrap().into()]);
        let args = Args::parse(warm_args).unwrap();
        let out = run(&args).unwrap();
        assert!(out.contains(", 0 misses"), "warm run must be all hits: {out}");
        assert_eq!(
            fs::read(&cold).unwrap(),
            fs::read(&warm).unwrap(),
            "cache hits must not change dataset bytes"
        );

        let args = Args::parse(["inspect", "--metrics", metrics.to_str().unwrap()]).unwrap();
        let out = inspect(&args).unwrap();
        assert!(out.contains("cache hits"), "{out}");
        assert!(out.contains("skipped cycles"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_rejects_bad_log_level() {
        let args = Args::parse(["help", "--log-level", "shouty"]).unwrap();
        let e = run(&args).unwrap_err();
        assert_eq!(e.kind(), crate::args::ErrorKind::InvalidValue);
        assert!(e.to_string().contains("invalid value 'shouty' for --log-level"), "{e}");
        assert!(e.to_string().contains("off|error|warn|info|debug"), "{e}");
    }

    #[test]
    fn run_rejects_mixed_garbage_log_level() {
        for junk in ["Info rmation", "debug!!", "war\tn", "\u{1F600}"] {
            let args = Args::parse(["help", "--log-level", junk]).unwrap();
            let e = run(&args).unwrap_err();
            assert_eq!(e.kind(), crate::args::ErrorKind::InvalidValue, "{junk}: {e}");
            assert!(e.to_string().contains("--log-level"), "{junk}: {e}");
        }
    }

    #[test]
    fn run_rejects_valueless_log_level_flag() {
        let args = Args::parse(["help", "--log-level"]).unwrap();
        let e = run(&args).unwrap_err();
        assert_eq!(e.kind(), crate::args::ErrorKind::InvalidValue);
    }

    #[test]
    fn run_accepts_case_insensitive_and_padded_log_levels() {
        for ok in ["INFO", "Warn", " debug ", "OFF"] {
            let args = Args::parse(["help", "--log-level", ok]).unwrap();
            assert!(run(&args).is_ok(), "level '{ok}' should parse");
        }
        obs::log::set_level(obs::log::Level::Off);
    }

    #[test]
    fn ondemand_and_flemma_paths_run() {
        for gov in ["ondemand", "flemma"] {
            let args = Args::parse([
                "simulate",
                "--benchmark",
                "histo",
                "--clusters",
                "2",
                "--scale",
                "0.05",
                "--governor",
                gov,
            ])
            .unwrap();
            let out = simulate(&args).unwrap();
            assert!(out.contains("completed : true"), "{gov}: {out}");
        }
    }
}

#[cfg(test)]
mod telemetry_tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ssmdvfs_cli_{tag}"));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn watch_renders_rates_from_live_exporter() {
        let server = obs::export::MetricsServer::start("127.0.0.1:0").unwrap();
        obs::metrics::global().counter("sim.epochs").inc(5);
        let addr = server.local_addr().to_string();
        let args = Args::parse(["watch", &addr, "--window", "10"]).unwrap();
        let out = watch(&args).unwrap();
        assert!(out.contains(&addr), "{out}");
        assert!(out.contains("sim epochs/s"), "{out}");
        assert!(out.contains("cache hit ratio"), "{out}");
        assert!(out.contains("quarantine drops"), "{out}");
        server.shutdown();
    }

    #[test]
    fn watch_rejects_unreachable_exporter() {
        // Reserved port on localhost that nothing listens on.
        let args = Args::parse(["watch", "127.0.0.1:1"]).unwrap();
        assert!(watch(&args).unwrap_err().to_string().contains("cannot reach"));
        // A zero window or poll count is rejected before any connection.
        for option in ["--window", "--count"] {
            let args = Args::parse(["watch", "127.0.0.1:1", option, "0"]).unwrap();
            let e = watch(&args).unwrap_err();
            assert_eq!(e.kind(), crate::args::ErrorKind::InvalidValue, "{option}: {e}");
            assert!(e.to_string().contains(option), "{e}");
        }
    }

    #[test]
    fn slo_check_passes_on_flat_trajectory_and_fails_on_regression() {
        let base = tmp_dir("slo_base");
        let cur = tmp_dir("slo_cur");
        fs::write(base.join("BENCH_train.2026-01-01.json"), r#"{"epochs_per_sec": 100.0}"#)
            .unwrap();
        fs::write(cur.join("BENCH_train.2026-01-02.json"), r#"{"epochs_per_sec": 8.0}"#).unwrap();
        let slo = base.join("slo.toml");
        fs::write(
            &slo,
            "[[rule]]\nname = \"train-throughput\"\nkind = \"max_regression\"\n\
             source = \"BENCH_train\"\nkey = \"epochs_per_sec\"\nmax_regression_pct = 50.0\n",
        )
        .unwrap();
        let slo_path = slo.to_str().unwrap().to_string();

        // Baseline doubling as current: no regression by construction.
        let args =
            Args::parse(["slo-check", "--baseline", base.to_str().unwrap(), "--slo", &slo_path])
                .unwrap();
        let out = slo_check(&args).unwrap();
        assert!(out.contains("PASS train-throughput"), "{out}");
        assert!(out.contains("SLO check passed"), "{out}");

        // A 92% drop blows the 50% budget; the failure names the rule.
        let args = Args::parse([
            "slo-check",
            "--baseline",
            base.to_str().unwrap(),
            "--current",
            cur.to_str().unwrap(),
            "--slo",
            &slo_path,
        ])
        .unwrap();
        let e = slo_check(&args).unwrap_err().to_string();
        assert!(e.contains("FAIL train-throughput"), "{e}");
        assert!(e.contains("SLO check FAILED"), "{e}");

        fs::remove_dir_all(&base).ok();
        fs::remove_dir_all(&cur).ok();
    }

    #[test]
    fn slo_check_strict_fails_on_skipped_rules() {
        let base = tmp_dir("slo_strict");
        fs::write(base.join("BENCH_train.2026-01-01.json"), r#"{"epochs_per_sec": 100.0}"#)
            .unwrap();
        // Default rules include metrics/audit-backed checks we don't feed.
        let args =
            Args::parse(["slo-check", "--baseline", base.to_str().unwrap(), "--strict"]).unwrap();
        assert!(slo_check(&args).is_err());
        let args = Args::parse(["slo-check", "--baseline", base.to_str().unwrap()]).unwrap();
        assert!(slo_check(&args).is_ok());
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn slo_check_reports_parse_errors_with_line_numbers() {
        let base = tmp_dir("slo_bad");
        fs::write(base.join("BENCH_train.2026-01-01.json"), r#"{"epochs_per_sec": 1.0}"#).unwrap();
        let slo = base.join("bad.toml");
        fs::write(&slo, "[[rule]]\nname = \"x\"\nkind = \"nope\"\n").unwrap();
        let args = Args::parse([
            "slo-check",
            "--baseline",
            base.to_str().unwrap(),
            "--slo",
            slo.to_str().unwrap(),
        ])
        .unwrap();
        let e = slo_check(&args).unwrap_err().to_string();
        assert!(e.contains("bad.toml"), "{e}");
        assert!(e.contains("line"), "{e}");
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn inspect_summarizes_chrome_trace() {
        let dir = tmp_dir("trace");
        let path = dir.join("trace.json");
        fs::write(
            &path,
            r#"{"traceEvents":[
                {"ph":"X","name":"datagen.replay","dur":1500,"ts":0,"pid":1,"tid":1},
                {"ph":"X","name":"datagen.replay","dur":500,"ts":2000,"pid":1,"tid":1},
                {"ph":"X","name":"sim.run","dur":3000,"ts":0,"pid":1,"tid":2},
                {"ph":"M","name":"process_name","ts":0,"pid":1,"tid":1}
            ]}"#,
        )
        .unwrap();
        let args = Args::parse(["inspect", "--trace", path.to_str().unwrap()]).unwrap();
        let out = inspect(&args).unwrap();
        assert!(out.contains("datagen.replay"), "{out}");
        assert!(out.contains("sim.run"), "{out}");
        assert!(out.contains('3'), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inspect_renders_profile_table() {
        let dir = tmp_dir("profile");
        let path = dir.join("profile.json");
        obs::prof::set_profiling(true);
        obs::prof::reset();
        {
            let _outer = obs::scope!("cli.test.outer");
            let _inner = obs::scope!("cli.test.inner");
        }
        let snapshot = obs::prof::snapshot();
        obs::prof::set_profiling(false);
        fs::write(&path, serde_json::to_string_pretty(&snapshot).unwrap()).unwrap();
        let args = Args::parse(["inspect", "--profile", path.to_str().unwrap()]).unwrap();
        let out = inspect(&args).unwrap();
        assert!(out.contains("cli.test.outer"), "{out}");
        assert!(out.contains("cli.test.outer;cli.test.inner"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_writes_profile_outputs() {
        let dir = tmp_dir("run_profile");
        let json = dir.join("profile.json");
        let folded = dir.join("profile.folded");
        let args = Args::parse([
            "list-benchmarks",
            "--profile-out",
            json.to_str().unwrap(),
            "--profile-collapsed",
            folded.to_str().unwrap(),
        ])
        .unwrap();
        run(&args).unwrap();
        obs::prof::set_profiling(false);
        let profile: obs::prof::ProfileSnapshot =
            serde_json::from_str(&fs::read_to_string(&json).unwrap()).unwrap();
        let _ = profile; // shape round-trips; content depends on test order
        assert!(fs::read_to_string(&folded).is_ok());
        fs::remove_dir_all(&dir).ok();
    }
}
