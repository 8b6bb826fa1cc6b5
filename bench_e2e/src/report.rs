//! Metric tables, output checks and the result line.

use std::collections::BTreeMap;

use crate::layers::{LayerLog, PlanCost};
use crate::stats::Sample;
use crate::trace::{self, SpanRec};

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"), ("op_p50_us", "us")];

/// Per-layer metrics: every traced run reports each of them. A metric with
/// a time unit is measured on every workload; metrics of layers only some
/// workloads exercise use shares, ratios and counts, which read 0 where the
/// layer did no work.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("datagen.s", "s"),
    ("datagen.samples", "count"),
    ("datagen.cpu_util", "fraction"),
    ("rfe.share", "fraction"),
    ("rfe.cpu_util", "fraction"),
    ("train.s", "s"),
    ("train.cpu_util", "fraction"),
    ("train.decision_accuracy", "fraction"),
    ("train.calibrator_mape_pct", "%"),
    ("compress.s", "s"),
    ("compress.flops_ratio", "ratio"),
    ("sim.s", "s"),
    ("sim.us_per_s", "us/s"),
    ("sim.skipped_frac", "fraction"),
    ("sim.cpu_util", "fraction"),
    ("eval.edp_norm", "ratio"),
    ("eval.edp_norm_compressed", "ratio"),
    ("eval.preset_violations", "count"),
    ("eval.static_share", "fraction"),
    ("eval.pcstall_share", "fraction"),
    ("eval.ssmdvfs_share", "fraction"),
    ("eval.ssmdvfs_comp_share", "fraction"),
    ("decide.epoch_us_p50", "us"),
    ("decide.epoch_us_p99", "us"),
    ("plan.decide_ns", "ns"),
    ("plan.int8_ns", "ns"),
    ("plan.memo_hit_rate", "fraction"),
    ("serve.closed_mean_batch", "count"),
    ("serve.open_mean_batch", "count"),
    ("serve.open_p99_over_p50", "ratio"),
    ("serve.open_p999_over_p50", "ratio"),
    ("serve.service_share_p50", "fraction"),
    ("serve.gen_late_p99_gaps", "ratio"),
    ("serve.ladder_max_rps", "1/s"),
    ("fleet.decide_share", "fraction"),
    ("fleet.decide_p99_over_p50", "ratio"),
    ("fleet.mean_batch", "count"),
    ("fleet.sim_us_per_s", "us/s"),
    ("obs.overhead_pct", "%"),
    ("obs.coverage", "fraction"),
];

const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "ns"];

/// Least share of the recorded wall time the stage spans must explain.
pub const MIN_COVERAGE: f64 = 0.95;

/// Span layers that only group stages: the set-up root and the measured
/// run with its passes. Their self time is time no layer accounts for.
pub const STRUCTURAL: [&str; 2] = ["setup", "run"];

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Named output checks: (name, passed, detail).
    pub checks: Vec<(String, bool, String)>,
    /// Measured metric values.
    pub values: BTreeMap<&'static str, f64>,
    /// Spans of a traced run, exported when the run ends.
    pub spans: Vec<SpanRec>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records the direct plan measurement.
    pub fn set_plan(&mut self, plan: PlanCost) {
        self.set("plan.decide_ns", plan.decide_ns);
        self.set("plan.int8_ns", plan.int8_ns);
        self.set("plan.memo_hit_rate", plan.memo_hit_rate);
    }

    /// Takes ownership of the traced run's spans (for export) and fills the
    /// per-layer metrics every workload derives the same way from them and
    /// `log`: span self times, CPU utilization, simulator rates,
    /// decision-epoch latency and trace coverage.
    pub fn set_common_layers(&mut self, spans: Vec<SpanRec>, log: &LayerLog) {
        let secs = trace::layer_seconds(&spans);
        let layer = |name: &str| secs.get(name).copied().unwrap_or(0.0);
        let wall: f64 =
            spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns() as f64 * 1e-9).sum();
        self.set("datagen.s", layer("datagen"));
        self.set("datagen.samples", log.datagen_samples as f64);
        self.set("datagen.cpu_util", log.cpu_util("datagen"));
        self.set("rfe.share", if wall > 0.0 { layer("rfe") / wall } else { 0.0 });
        self.set("rfe.cpu_util", log.cpu_util("rfe"));
        self.set("train.s", layer("train"));
        self.set("train.cpu_util", log.cpu_util("train"));
        self.set("train.decision_accuracy", log.decision_accuracy);
        self.set("train.calibrator_mape_pct", log.calibrator_mape_pct);
        self.set("compress.s", layer("compress"));
        self.set("compress.flops_ratio", log.flops_ratio);
        self.set("sim.s", layer("sim"));
        self.set("sim.us_per_s", ratio(log.sim_us, log.sim_busy_s));
        self.set("sim.skipped_frac", ratio(log.skipped_cycles, log.total_cycles));
        self.set("sim.cpu_util", log.cpu_util("sim"));
        let epochs = Sample::new(log.epoch_us.clone());
        self.set("decide.epoch_us_p50", epochs.p50());
        self.set("decide.epoch_us_p99", epochs.supported_quantile(0.99));
        let coverage = trace::coverage(&spans, &STRUCTURAL);
        self.set("obs.coverage", coverage);
        self.check(
            "trace-coverage",
            coverage >= MIN_COVERAGE,
            format!("stage spans explain {:.1}% of the traced wall time", coverage * 100.0),
        );
        self.spans = spans;
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Prints every metric of `table` by name with its unit, then the checks,
/// then the one-line JSON result; returns whether the run is correct.
pub fn emit(outcome: &mut Outcome, table: &[(&'static str, &'static str)]) -> bool {
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() {
            outcome.check("finite-metrics", false, format!("{name} = {value}"));
        } else if TIME_UNITS.contains(&unit) && value <= 0.0 {
            outcome.check("timed-metrics", false, format!("{name} measured no work"));
        }
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name:<28} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            trace::json_str(name),
            trace::json_str(unit)
        ));
    }
    if outcome.attempted == 0 {
        outcome.check("attempted", false, "no operation ran");
    }
    let mut correct = outcome.failed == 0;
    for (name, passed, detail) in &outcome.checks {
        println!("check {name:<24} {} {detail}", if *passed { "ok  " } else { "FAIL" });
        correct &= passed;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must declare exactly the
    /// metrics this binary reports, with the same units.
    #[test]
    fn tables_match_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            v.as_object().and_then(|o| o.get(key)).and_then(|a| a.as_array()).map_or_else(
                Vec::new,
                |a| {
                    a.iter()
                        .filter_map(|m| {
                            let m = m.as_object()?;
                            Some((m.get("name")?.as_str()?.into(), m.get("unit")?.as_str()?.into()))
                        })
                        .collect()
                },
            )
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), ours(&END_TO_END));
        assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn unmeasured_times_and_non_finite_values_fail_the_run() {
        let mut out = Outcome::default();
        out.count(3, 0);
        out.set("setup_s", 1.0);
        out.set("peak_rss_mb", f64::NAN);
        out.set("ops_per_s", 5.0);
        assert!(!emit(&mut out, &END_TO_END));
        let failed: Vec<&str> = out.checks.iter().filter(|c| !c.1).map(|c| c.0.as_str()).collect();
        assert_eq!(failed, ["finite-metrics", "timed-metrics"]);
    }
}
