//! The governor-comparison runner behind Fig. 4.

use dvfs_baselines::{run_oracle, FlemmaConfig, FlemmaGovernor, PcstallConfig, PcstallGovernor};
use gpu_power::PowerError;
use gpu_sim::{DvfsGovernor, GpuConfig, SimResult, Simulation, StaticGovernor, Time};
use gpu_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use ssmdvfs::{CombinedModel, SsmdvfsConfig, SsmdvfsGovernor};

/// The contenders of the Fig. 4 comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum GovernorKind {
    /// Static default V/f point (the normalization baseline).
    Baseline,
    /// The analytical PCSTALL method.
    Pcstall,
    /// The hierarchical-RL F-LEMMA method.
    Flemma,
    /// SSMDVFS without the Calibrator loop.
    SsmdvfsNoCal(CombinedModel),
    /// Full SSMDVFS (Decision-maker + Calibrator).
    Ssmdvfs(CombinedModel),
    /// SSMDVFS with the fully compressed model.
    SsmdvfsCompressed(CombinedModel),
    /// One-step-lookahead oracle (extension; not in the paper).
    Oracle,
}

impl GovernorKind {
    /// The column label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            GovernorKind::Baseline => "baseline",
            GovernorKind::Pcstall => "pcstall",
            GovernorKind::Flemma => "flemma",
            GovernorKind::SsmdvfsNoCal(_) => "ssmdvfs-nocal",
            GovernorKind::Ssmdvfs(_) => "ssmdvfs",
            GovernorKind::SsmdvfsCompressed(_) => "ssmdvfs-comp",
            GovernorKind::Oracle => "oracle",
        }
    }
}

/// One (benchmark, governor) cell of the comparison: EDP and latency
/// normalized to the baseline run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Governor label.
    pub governor: String,
    /// Performance-loss preset used.
    pub preset: f64,
    /// EDP normalized to the static-default baseline (lower is better).
    pub normalized_edp: f64,
    /// Latency normalized to the baseline (1.1 = 10 % slower).
    pub normalized_latency: f64,
    /// Absolute energy in joules.
    pub energy_j: f64,
    /// Absolute execution time in seconds.
    pub time_s: f64,
    /// Whether the run completed within the horizon.
    pub completed: bool,
}

fn run_one(
    cfg: &GpuConfig,
    bench: &Benchmark,
    kind: &GovernorKind,
    preset: f64,
    horizon: Time,
) -> SimResult {
    let _scope = obs::scope!("bench.run_one", "{}@{}", bench.name(), kind.label());
    obs::counter!("bench.runs").inc(1);
    let workload = bench.workload().clone();
    match kind {
        GovernorKind::Oracle => run_oracle(cfg, workload, preset, horizon),
        _ => {
            let mut governor: Box<dyn DvfsGovernor> = match kind {
                GovernorKind::Baseline => Box::new(StaticGovernor::default_point(&cfg.vf_table)),
                GovernorKind::Pcstall => Box::new(PcstallGovernor::new(PcstallConfig::new(preset))),
                GovernorKind::Flemma => Box::new(FlemmaGovernor::new(FlemmaConfig::new(preset))),
                GovernorKind::SsmdvfsNoCal(model) => Box::new(SsmdvfsGovernor::new(
                    model.clone(),
                    SsmdvfsConfig::new(preset).without_calibration(),
                )),
                GovernorKind::Ssmdvfs(model) | GovernorKind::SsmdvfsCompressed(model) => {
                    Box::new(SsmdvfsGovernor::new(model.clone(), SsmdvfsConfig::new(preset)))
                }
                GovernorKind::Oracle => unreachable!("handled above"),
            };
            let mut sim = Simulation::new(cfg.clone(), workload);
            sim.run(governor.as_mut(), horizon)
        }
    }
}

/// Runs every governor on one benchmark and returns normalized rows. The
/// baseline always runs first and anchors the normalization.
///
/// # Panics
///
/// Panics if any run fails to produce a result (a configuration error) or
/// if the baseline is degenerate; report paths that must not abort use
/// [`try_compare_on_benchmark`].
pub fn compare_on_benchmark(
    cfg: &GpuConfig,
    bench: &Benchmark,
    governors: &[GovernorKind],
    preset: f64,
    horizon: Time,
) -> Vec<ComparisonRow> {
    match try_compare_on_benchmark(cfg, bench, governors, preset, horizon) {
        Ok(rows) => rows,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`compare_on_benchmark`].
///
/// # Errors
///
/// Returns [`PowerError::DegenerateBaseline`] if the baseline run's EDP or
/// time is zero/non-finite (e.g. a horizon so short nothing executed): the
/// normalized columns would otherwise serialize as `inf`/`NaN` and poison
/// every downstream report.
pub fn try_compare_on_benchmark(
    cfg: &GpuConfig,
    bench: &Benchmark,
    governors: &[GovernorKind],
    preset: f64,
    horizon: Time,
) -> Result<Vec<ComparisonRow>, PowerError> {
    let _scope = obs::scope!("bench.compare", "{}", bench.name());
    let baseline = run_one(cfg, bench, &GovernorKind::Baseline, preset, horizon);
    let base_report = baseline.edp_report();
    governors
        .iter()
        .map(|kind| {
            let result = if matches!(kind, GovernorKind::Baseline) {
                baseline.clone()
            } else {
                run_one(cfg, bench, kind, preset, horizon)
            };
            let report = result.edp_report();
            Ok(ComparisonRow {
                benchmark: bench.name().to_string(),
                governor: kind.label().to_string(),
                preset,
                normalized_edp: report.try_normalized_edp(&base_report)?,
                normalized_latency: report.try_normalized_latency(&base_report)?,
                energy_j: report.energy().joules(),
                time_s: report.time_s(),
                completed: result.completed,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_compare_matches_panicking_wrapper_on_healthy_runs() {
        let cfg = GpuConfig::small_test();
        let bench = gpu_workloads::by_name("sgemm").expect("sgemm exists").scaled(0.1);
        let governors = [GovernorKind::Baseline];
        let horizon = Time::from_micros(4_000.0);
        let fallible =
            try_compare_on_benchmark(&cfg, &bench, &governors, 0.10, horizon).expect("healthy run");
        let panicking = compare_on_benchmark(&cfg, &bench, &governors, 0.10, horizon);
        assert_eq!(fallible, panicking);
        assert!(fallible[0].normalized_edp.is_finite());
    }

    #[test]
    fn comparison_rows_are_normalized_against_baseline() {
        let cfg = GpuConfig::small_test();
        let bench = gpu_workloads::by_name("lbm").expect("lbm exists").scaled(0.15);
        let rows = compare_on_benchmark(
            &cfg,
            &bench,
            &[GovernorKind::Baseline, GovernorKind::Pcstall],
            0.10,
            Time::from_micros(4_000.0),
        );
        assert_eq!(rows.len(), 2);
        assert!((rows[0].normalized_edp - 1.0).abs() < 1e-9, "baseline normalizes to 1");
        assert!((rows[0].normalized_latency - 1.0).abs() < 1e-9);
        assert!(rows.iter().all(|r| r.completed));
        // PCSTALL on a memory-bound benchmark should not be worse than the
        // baseline by much, and typically better.
        assert!(rows[1].normalized_edp < 1.15);
    }
}
