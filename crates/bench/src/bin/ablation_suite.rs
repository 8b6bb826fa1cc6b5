//! **Extension — ablation study of the design decisions DESIGN.md calls
//! out.** Not a paper artifact; quantifies what each mechanism contributes.
//!
//! Ablations (each evaluated both offline — decision accuracy / calibrator
//! MAPE — and at full-system level on a four-benchmark subset at the 10 %
//! preset):
//!
//! 1. **Labeling**: minimum-frequency labels (deployed) vs the literal
//!    Fig. 2 raw labels.
//! 2. **Feature variants**: training on counters from every clock
//!    (deployed) vs default-clock windows only.
//! 3. **Feature set**: the paper's Table I five counters (deployed) vs all
//!    47 vs the power counter alone.
//! 4. **Decoding**: ordinal (deployed) vs plain argmax.
//! 5. **Governor field**: SSMDVFS vs PCSTALL vs Linux-style ondemand vs the
//!    one-step-lookahead oracle.
//! 6. **Preset sweep**: EDP/latency as the preset varies from 2 % to 30 %.

use dvfs_baselines::{
    run_oracle, OndemandConfig, OndemandGovernor, PcstallConfig, PcstallEdpGovernor,
    PcstallGovernor,
};
use gpu_sim::{CounterId, DvfsGovernor, GpuConfig, SimResult, Simulation, StaticGovernor, Time};
use gpu_workloads::by_name;
use ssmdvfs::exec::parallel_map_ref;
use ssmdvfs::{
    train_combined_jobs, CombinedModel, FeatureSet, LabelingMode, ModelArch, SsmdvfsConfig,
    SsmdvfsGovernor,
};
use ssmdvfs_bench::{
    artifacts_dir, build_or_load_dataset, format_table, write_csv, PipelineConfig,
};

const SUBSET: [&str; 4] = ["sgemm", "lbm", "spmv", "gemm"];
const PRESET: f64 = 0.10;

fn run_gov(cfg: &GpuConfig, name: &str, governor: &mut dyn DvfsGovernor) -> SimResult {
    let bench = by_name(name).expect("benchmark exists");
    let mut sim = Simulation::new(cfg.clone(), bench.into_workload());
    sim.run(governor, Time::from_micros(3_000.0))
}

/// Mean normalized EDP and latency of a governor over the subset; one
/// worker per benchmark.
fn system_score(
    cfg: &GpuConfig,
    baselines: &[SimResult],
    make: impl Fn() -> Box<dyn DvfsGovernor> + Sync,
) -> (f64, f64) {
    let indices: Vec<usize> = (0..SUBSET.len()).collect();
    let scores = parallel_map_ref(0, &indices, |&i| {
        let mut governor = make();
        let r = run_gov(cfg, SUBSET[i], governor.as_mut());
        let base = baselines[i].edp_report();
        (r.edp_report().normalized_edp(&base), r.edp_report().normalized_latency(&base))
    });
    let edp: f64 = scores.iter().map(|s| s.0).sum();
    let lat: f64 = scores.iter().map(|s| s.1).sum();
    (edp / SUBSET.len() as f64, lat / SUBSET.len() as f64)
}

fn main() {
    let config = PipelineConfig::default();
    let dataset = build_or_load_dataset(&config, "main");
    let num_ops = config.gpu.vf_table.len();
    let train = |ds: &ssmdvfs::DvfsDataset, fs: &FeatureSet| -> (CombinedModel, f64, f64) {
        let arch = ModelArch::paper_full();
        let (m, s) = train_combined_jobs(ds, fs, &arch, num_ops, &config.train, 0.25, 1);
        (m, s.decision_accuracy, s.calibrator_mape)
    };

    eprintln!("[ablation] computing baselines");
    let baselines: Vec<SimResult> = parallel_map_ref(0, &SUBSET, |n| {
        let mut g = StaticGovernor::default_point(&config.gpu.vf_table);
        run_gov(&config.gpu, n, &mut g)
    });

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut push = |name: &str, acc: f64, mape: f64, edp: f64, lat: f64| {
        rows.push(vec![
            name.to_string(),
            if acc.is_nan() { "-".into() } else { format!("{:.2}", acc * 100.0) },
            if mape.is_nan() { "-".into() } else { format!("{mape:.2}") },
            format!("{edp:.4}"),
            format!("{lat:.4}"),
        ]);
    };

    // --- Deployed configuration -----------------------------------------
    eprintln!("[ablation] deployed configuration");
    let (model, acc, mape) = train(&dataset, &FeatureSet::refined());
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(PRESET)))
    });
    push("deployed (min-freq, variants, Table I, ordinal)", acc, mape, edp, lat);

    // --- 1. Raw labeling --------------------------------------------------
    eprintln!("[ablation] raw labeling");
    let mut raw_ds = dataset.clone();
    raw_ds.labeling = LabelingMode::Raw;
    let (raw_model, raw_acc, raw_mape) = train(&raw_ds, &FeatureSet::refined());
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(SsmdvfsGovernor::new(raw_model.clone(), SsmdvfsConfig::new(PRESET)))
    });
    push("raw Fig.2 labels", raw_acc, raw_mape, edp, lat);

    // --- 2. No feature variants -------------------------------------------
    eprintln!("[ablation] no feature variants");
    let mut nv_ds = dataset.clone();
    nv_ds.feature_variants = false;
    let (nv_model, nv_acc, nv_mape) = train(&nv_ds, &FeatureSet::refined());
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(SsmdvfsGovernor::new(nv_model.clone(), SsmdvfsConfig::new(PRESET)))
    });
    push("default-clock features only", nv_acc, nv_mape, edp, lat);

    // --- 3. Feature sets ----------------------------------------------------
    eprintln!("[ablation] feature sets");
    let (full_model, full_acc, full_mape) = train(&dataset, &FeatureSet::full());
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(SsmdvfsGovernor::new(full_model.clone(), SsmdvfsConfig::new(PRESET)))
    });
    push("all 47 counters", full_acc, full_mape, edp, lat);
    let power_only = FeatureSet::new(vec![CounterId::PowerTotalW]);
    let (p_model, p_acc, p_mape) = train(&dataset, &power_only);
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(SsmdvfsGovernor::new(p_model.clone(), SsmdvfsConfig::new(PRESET)))
    });
    push("power counter only", p_acc, p_mape, edp, lat);

    // --- 4. Argmax decoding -------------------------------------------------
    eprintln!("[ablation] argmax decode");
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        let cfg = SsmdvfsConfig { argmax_decode: true, ..SsmdvfsConfig::new(PRESET) };
        Box::new(SsmdvfsGovernor::new(model.clone(), cfg))
    });
    push("argmax decode", acc, mape, edp, lat);

    // --- 5. Governor field ---------------------------------------------------
    eprintln!("[ablation] governor field");
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(PcstallGovernor::new(PcstallConfig::new(PRESET)))
    });
    push("pcstall", f64::NAN, f64::NAN, edp, lat);
    let (edp, lat) = system_score(&config.gpu, &baselines, || Box::new(PcstallEdpGovernor::new()));
    push("pcstall-edp (original objective)", f64::NAN, f64::NAN, edp, lat);
    let (edp, lat) = system_score(&config.gpu, &baselines, || {
        Box::new(OndemandGovernor::new(OndemandConfig::default()))
    });
    push("ondemand (Linux-style)", f64::NAN, f64::NAN, edp, lat);
    let indices: Vec<usize> = (0..SUBSET.len()).collect();
    let oracle_scores = parallel_map_ref(0, &indices, |&i| {
        let bench = by_name(SUBSET[i]).expect("benchmark exists");
        let r = run_oracle(&config.gpu, bench.into_workload(), PRESET, Time::from_micros(3_000.0));
        let base = baselines[i].edp_report();
        (r.edp_report().normalized_edp(&base), r.edp_report().normalized_latency(&base))
    });
    let oracle_edp: f64 = oracle_scores.iter().map(|s| s.0).sum();
    let oracle_lat: f64 = oracle_scores.iter().map(|s| s.1).sum();
    push(
        "oracle (one-step lookahead)",
        f64::NAN,
        f64::NAN,
        oracle_edp / SUBSET.len() as f64,
        oracle_lat / SUBSET.len() as f64,
    );

    println!("\n=== Ablation study (subset: {SUBSET:?}, preset {:.0}%) ===\n", PRESET * 100.0);
    println!(
        "{}",
        format_table(&["configuration", "accuracy_%", "mape_%", "mean_edp", "mean_latency"], &rows)
    );
    write_csv(
        artifacts_dir().join("ablation.csv"),
        &["configuration", "accuracy", "mape", "mean_edp", "mean_latency"],
        &rows,
    );

    // --- 6. Preset sweep -----------------------------------------------------
    eprintln!("[ablation] preset sweep");
    let mut sweep_rows = Vec::new();
    for preset in [0.02, 0.05, 0.10, 0.15, 0.20, 0.30] {
        let (s_edp, s_lat) = system_score(&config.gpu, &baselines, || {
            Box::new(SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(preset)))
        });
        let (p_edp, p_lat) = system_score(&config.gpu, &baselines, || {
            Box::new(PcstallGovernor::new(PcstallConfig::new(preset)))
        });
        sweep_rows.push(vec![
            format!("{:.0}", preset * 100.0),
            format!("{s_edp:.4}"),
            format!("{s_lat:.4}"),
            format!("{p_edp:.4}"),
            format!("{p_lat:.4}"),
        ]);
    }
    println!("=== Preset sweep ===\n");
    println!(
        "{}",
        format_table(
            &["preset_%", "ssmdvfs_edp", "ssmdvfs_lat", "pcstall_edp", "pcstall_lat"],
            &sweep_rows
        )
    );
    write_csv(
        artifacts_dir().join("ablation_preset_sweep.csv"),
        &["preset", "ssmdvfs_edp", "ssmdvfs_lat", "pcstall_edp", "pcstall_lat"],
        &sweep_rows,
    );
}
