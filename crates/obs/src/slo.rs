//! The SLO engine: declarative threshold rules over perf trajectories,
//! metrics snapshots, and DVFS audit trails.
//!
//! `ssmdvfs slo-check` evaluates a list of [`SloRule`]s against
//! [`SloInputs`] assembled by the CLI — the newest checked-in
//! `docs/perf/BENCH_*.json` point per series (the *baseline*), a freshly
//! measured point (the *current*), a `--metrics-out` snapshot, and an
//! audit JSONL — and renders a pass/fail report. A failing rule names
//! itself, so CI output reads `FAIL train-throughput: ...`.
//!
//! Rules are written in a small TOML subset ([`parse_slo_toml`]): an
//! array-of-tables `[[rule]]` per rule with scalar `key = value` pairs
//! (strings, numbers, booleans, `#` comments). Four kinds exist:
//!
//! | `kind`                  | checks                                              |
//! |-------------------------|-----------------------------------------------------|
//! | `max_regression`        | current BENCH value vs. newest baseline point       |
//! | `min_ratio`             | counter ÷ (sum of counters) from a metrics snapshot |
//! | `max_counter`           | a counter's absolute ceiling                        |
//! | `max_calibration_error` | mean \|calibration error\| over an audit trail      |
//!
//! A rule whose input is absent (no current point, counters all zero, no
//! audit) is reported `SKIP`, not `FAIL` — the gate constrains what was
//! measured, and `ssmdvfs slo-check --strict` upgrades skips to failures
//! when a pipeline must prove it measured everything.

use std::collections::BTreeMap;
use std::fmt;

use crate::audit::AuditRecord;
use crate::metrics::MetricsSnapshot;

/// Which direction of change counts as a regression for `max_regression`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (throughputs, speedups, hit counts).
    HigherIsBetter,
    /// Smaller values are better (latencies, energy, error).
    LowerIsBetter,
}

/// One declarative threshold rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// The rule's name, quoted in the violation report.
    pub name: String,
    /// What the rule checks.
    pub kind: RuleKind,
}

/// The check a rule performs. See the module docs for the TOML spelling.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleKind {
    /// `current[source][key]` must not regress from
    /// `baseline[source][key]` by more than `max_regression_pct` percent.
    /// Negative budgets demand improvement.
    MaxRegression {
        /// BENCH series name, e.g. `BENCH_train`.
        source: String,
        /// Numeric field inside the BENCH point, e.g. `epochs_per_sec`.
        key: String,
        /// Allowed regression, percent of the baseline value.
        max_regression_pct: f64,
        /// Which direction counts as worse.
        direction: Direction,
    },
    /// `numerator / Σ denominator` over snapshot counters must be ≥ `min`.
    MinRatio {
        /// Counter forming the numerator.
        numerator: String,
        /// Counters summed into the denominator (the numerator is usually
        /// among them, e.g. hits / (hits + misses)).
        denominator: Vec<String>,
        /// Minimum acceptable ratio.
        min: f64,
    },
    /// A snapshot counter must not exceed `max` (absent counters read 0).
    MaxCounter {
        /// Counter to bound.
        counter: String,
        /// Inclusive ceiling.
        max: f64,
    },
    /// Mean `|calibration_error|` over the audit records must be ≤
    /// `max_abs`.
    MaxCalibrationError {
        /// Inclusive ceiling on the mean absolute relative error.
        max_abs: f64,
    },
}

/// A flat numeric view of one BENCH point (booleans read 0/1).
pub type BenchPoint = BTreeMap<String, f64>;

/// Everything a rule set can be evaluated against. Any part may be
/// absent; rules that need it are skipped.
#[derive(Debug, Clone, Default)]
pub struct SloInputs {
    /// Newest trajectory point per BENCH series (`BENCH_train` → fields).
    pub baseline: BTreeMap<String, BenchPoint>,
    /// Freshly measured point per series.
    pub current: BTreeMap<String, BenchPoint>,
    /// A `--metrics-out` registry snapshot.
    pub metrics: Option<MetricsSnapshot>,
    /// Parsed audit-trail records.
    pub audit: Option<Vec<AuditRecord>>,
}

/// How one rule fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within its threshold.
    Pass,
    /// Out of threshold — the report fails.
    Fail,
    /// The input it needs was not provided or never moved.
    Skip,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Status::Pass => "PASS",
            Status::Fail => "FAIL",
            Status::Skip => "SKIP",
        })
    }
}

/// One evaluated rule: status plus a human-readable measurement line.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// The rule's name.
    pub name: String,
    /// Pass, fail, or skip.
    pub status: Status,
    /// What was measured against what threshold.
    pub detail: String,
}

/// The full evaluation, renderable as the violation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// One outcome per rule, in rule order.
    pub outcomes: Vec<RuleOutcome>,
    /// Whether skipped rules count as failures.
    pub strict: bool,
}

impl SloReport {
    /// Whether the gate passes (no failures; in strict mode, no skips
    /// either).
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| match o.status {
            Status::Pass => true,
            Status::Fail => false,
            Status::Skip => !self.strict,
        })
    }

    /// Names of the rules that failed (including strict-mode skips).
    pub fn violations(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.status == Status::Fail || (self.strict && o.status == Status::Skip))
            .map(|o| o.name.as_str())
            .collect()
    }
}

impl fmt::Display for SloReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for o in &self.outcomes {
            writeln!(f, "{} {}: {}", o.status, o.name, o.detail)?;
        }
        let failed = self.violations();
        if failed.is_empty() {
            write!(f, "SLO check passed ({} rules)", self.outcomes.len())
        } else {
            write!(f, "SLO check FAILED: {}", failed.join(", "))
        }
    }
}

fn eval_one(rule: &SloRule, inputs: &SloInputs) -> RuleOutcome {
    let (status, detail) = match &rule.kind {
        RuleKind::MaxRegression { source, key, max_regression_pct, direction } => {
            let base = inputs.baseline.get(source).and_then(|p| p.get(key));
            let cur = inputs.current.get(source).and_then(|p| p.get(key));
            match (base, cur) {
                (None, _) => (Status::Skip, format!("no baseline point for {source}.{key}")),
                (_, None) => (Status::Skip, format!("no current point for {source}.{key}")),
                (Some(&0.0), Some(_)) => (Status::Skip, format!("baseline {source}.{key} is zero")),
                (Some(&b), Some(&c)) => {
                    let regression_pct = match direction {
                        Direction::HigherIsBetter => (b - c) / b * 100.0,
                        Direction::LowerIsBetter => (c - b) / b * 100.0,
                    };
                    let status = if regression_pct <= *max_regression_pct {
                        Status::Pass
                    } else {
                        Status::Fail
                    };
                    (
                        status,
                        format!(
                            "{source}.{key} {c:.4} vs baseline {b:.4}: {regression_pct:+.1}% \
                             regression (budget {max_regression_pct:+.1}%)"
                        ),
                    )
                }
            }
        }
        RuleKind::MinRatio { numerator, denominator, min } => match &inputs.metrics {
            None => (Status::Skip, "no metrics snapshot provided".to_string()),
            Some(snap) => {
                let get = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
                let num = get(numerator);
                let den: u64 = denominator.iter().map(|n| get(n)).sum();
                if den == 0 {
                    (Status::Skip, format!("{} never moved", denominator.join("+")))
                } else {
                    let ratio = num as f64 / den as f64;
                    let status = if ratio >= *min { Status::Pass } else { Status::Fail };
                    (
                        status,
                        format!(
                            "{numerator}/({}) = {ratio:.3} (min {min:.3})",
                            denominator.join("+")
                        ),
                    )
                }
            }
        },
        RuleKind::MaxCounter { counter, max } => match &inputs.metrics {
            None => (Status::Skip, "no metrics snapshot provided".to_string()),
            Some(snap) => {
                let value = snap.counters.get(counter).copied().unwrap_or(0) as f64;
                let status = if value <= *max { Status::Pass } else { Status::Fail };
                (status, format!("{counter} = {value} (max {max})"))
            }
        },
        RuleKind::MaxCalibrationError { max_abs } => match &inputs.audit {
            None => (Status::Skip, "no audit trail provided".to_string()),
            Some(records) => {
                let errors: Vec<f64> =
                    records.iter().filter_map(AuditRecord::calibration_error).collect();
                if errors.is_empty() {
                    (Status::Skip, "audit trail has no calibrated epochs".to_string())
                } else {
                    let mean = errors.iter().map(|e| e.abs()).sum::<f64>() / errors.len() as f64;
                    let status = if mean <= *max_abs { Status::Pass } else { Status::Fail };
                    (
                        status,
                        format!(
                            "mean |calibration error| {mean:.4} over {} epochs (max {max_abs})",
                            errors.len()
                        ),
                    )
                }
            }
        },
    };
    RuleOutcome { name: rule.name.clone(), status, detail }
}

/// Evaluates `rules` against `inputs`.
pub fn evaluate(rules: &[SloRule], inputs: &SloInputs, strict: bool) -> SloReport {
    SloReport { outcomes: rules.iter().map(|r| eval_one(r, inputs)).collect(), strict }
}

/// The rules `ssmdvfs slo-check` applies when no `--slo` file is given:
/// generous regression budgets on the two BENCH throughput series, a
/// replay-cache effectiveness floor, a quarantine-drop ceiling, and a
/// calibration-error ceiling. Budgets are wide because CI containers and
/// developer machines differ; `docs/perf/slo.toml` is the checked-in,
/// tunable version of the same policy.
pub fn default_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "train-throughput".into(),
            kind: RuleKind::MaxRegression {
                source: "BENCH_train".into(),
                key: "epochs_per_sec".into(),
                max_regression_pct: 90.0,
                direction: Direction::HigherIsBetter,
            },
        },
        SloRule {
            name: "replay-cache-hit-ratio".into(),
            kind: RuleKind::MinRatio {
                numerator: "sim.cache_hits".into(),
                denominator: vec!["sim.cache_hits".into(), "sim.cache_misses".into()],
                min: 0.5,
            },
        },
        SloRule {
            name: "quarantine-drops".into(),
            kind: RuleKind::MaxCounter { counter: "exec.quarantine_dropped".into(), max: 0.0 },
        },
        SloRule {
            name: "calibration-error".into(),
            kind: RuleKind::MaxCalibrationError { max_abs: 0.5 },
        },
    ]
}

/// Error raised while parsing an SLO rule file, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloParseError {
    /// 1-based line the error was found on (0 for end-of-file checks).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for SloParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slo rules line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SloParseError {}

#[derive(Debug, Clone, PartialEq)]
enum TomlVal {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl TomlVal {
    fn type_name(&self) -> &'static str {
        match self {
            TomlVal::Str(_) => "string",
            TomlVal::Num(_) => "number",
            TomlVal::Bool(_) => "boolean",
        }
    }
}

fn parse_scalar(raw: &str, line: usize) -> Result<TomlVal, SloParseError> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(SloParseError { line, message: format!("unterminated string: {raw}") });
        };
        return Ok(TomlVal::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(TomlVal::Bool(true)),
        "false" => return Ok(TomlVal::Bool(false)),
        _ => {}
    }
    raw.parse::<f64>().map(TomlVal::Num).map_err(|_| SloParseError {
        line,
        message: format!("expected a string, number or boolean, got '{raw}'"),
    })
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

struct RawRule {
    line: usize,
    fields: BTreeMap<String, (TomlVal, usize)>,
}

fn typed_rule(raw: &RawRule) -> Result<SloRule, SloParseError> {
    let field_str = |key: &str| -> Result<String, SloParseError> {
        match raw.fields.get(key) {
            Some((TomlVal::Str(s), _)) => Ok(s.clone()),
            Some((v, line)) => Err(SloParseError {
                line: *line,
                message: format!("'{key}' must be a string, got {}", v.type_name()),
            }),
            None => Err(SloParseError {
                line: raw.line,
                message: format!("rule is missing required key '{key}'"),
            }),
        }
    };
    let field_num = |key: &str| -> Result<f64, SloParseError> {
        match raw.fields.get(key) {
            Some((TomlVal::Num(n), _)) => Ok(*n),
            Some((v, line)) => Err(SloParseError {
                line: *line,
                message: format!("'{key}' must be a number, got {}", v.type_name()),
            }),
            None => Err(SloParseError {
                line: raw.line,
                message: format!("rule is missing required key '{key}'"),
            }),
        }
    };
    let name = field_str("name")?;
    let kind = field_str("kind")?;
    let kind = match kind.as_str() {
        "max_regression" => {
            let direction = match raw.fields.get("direction") {
                None => Direction::HigherIsBetter,
                Some((TomlVal::Str(s), line)) => match s.as_str() {
                    "higher_is_better" => Direction::HigherIsBetter,
                    "lower_is_better" => Direction::LowerIsBetter,
                    other => {
                        return Err(SloParseError {
                            line: *line,
                            message: format!(
                                "'direction' must be higher_is_better or lower_is_better, got '{other}'"
                            ),
                        })
                    }
                },
                Some((v, line)) => {
                    return Err(SloParseError {
                        line: *line,
                        message: format!("'direction' must be a string, got {}", v.type_name()),
                    })
                }
            };
            RuleKind::MaxRegression {
                source: field_str("source")?,
                key: field_str("key")?,
                max_regression_pct: field_num("max_regression_pct")?,
                direction,
            }
        }
        "min_ratio" => RuleKind::MinRatio {
            numerator: field_str("numerator")?,
            denominator: field_str("denominator")?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
            min: field_num("min")?,
        },
        "max_counter" => {
            RuleKind::MaxCounter { counter: field_str("counter")?, max: field_num("max")? }
        }
        "max_calibration_error" => RuleKind::MaxCalibrationError { max_abs: field_num("max_abs")? },
        other => {
            return Err(SloParseError {
                line: raw.line,
                message: format!(
                    "unknown rule kind '{other}' \
                     (max_regression|min_ratio|max_counter|max_calibration_error)"
                ),
            })
        }
    };
    Ok(SloRule { name, kind })
}

/// Parses the TOML subset described in the module docs into rules.
///
/// # Errors
///
/// Returns the first syntax or schema error with its line number.
pub fn parse_slo_toml(text: &str) -> Result<Vec<SloRule>, SloParseError> {
    let mut raws: Vec<RawRule> = Vec::new();
    for (idx, full_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(full_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[rule]]" {
            raws.push(RawRule { line: line_no, fields: BTreeMap::new() });
            continue;
        }
        if line.starts_with('[') {
            return Err(SloParseError {
                line: line_no,
                message: format!("only [[rule]] tables are supported, got '{line}'"),
            });
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(SloParseError {
                line: line_no,
                message: format!("expected 'key = value', got '{line}'"),
            });
        };
        let Some(rule) = raws.last_mut() else {
            return Err(SloParseError {
                line: line_no,
                message: "key/value pair before the first [[rule]]".to_string(),
            });
        };
        let key = key.trim().to_string();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(SloParseError { line: line_no, message: format!("invalid key '{key}'") });
        }
        let value = parse_scalar(value, line_no)?;
        if rule.fields.insert(key.clone(), (value, line_no)).is_some() {
            return Err(SloParseError {
                line: line_no,
                message: format!("duplicate key '{key}' in rule"),
            });
        }
    }
    if raws.is_empty() {
        return Err(SloParseError { line: 0, message: "no [[rule]] tables found".to_string() });
    }
    raws.iter().map(typed_rule).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(fields: &[(&str, f64)]) -> BenchPoint {
        fields.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn regression_rule(budget: f64) -> SloRule {
        SloRule {
            name: "thru".into(),
            kind: RuleKind::MaxRegression {
                source: "BENCH_train".into(),
                key: "epochs_per_sec".into(),
                max_regression_pct: budget,
                direction: Direction::HigherIsBetter,
            },
        }
    }

    #[test]
    fn regression_within_and_over_budget() {
        let mut inputs = SloInputs::default();
        inputs.baseline.insert("BENCH_train".into(), bench(&[("epochs_per_sec", 100.0)]));
        inputs.current.insert("BENCH_train".into(), bench(&[("epochs_per_sec", 80.0)]));
        let report = evaluate(&[regression_rule(25.0)], &inputs, false);
        assert!(report.passed(), "{report}");
        let report = evaluate(&[regression_rule(10.0)], &inputs, false);
        assert!(!report.passed());
        assert_eq!(report.violations(), vec!["thru"]);
        assert!(report.to_string().contains("FAIL thru"), "{report}");
    }

    #[test]
    fn negative_budget_demands_improvement() {
        let mut inputs = SloInputs::default();
        inputs.baseline.insert("BENCH_train".into(), bench(&[("epochs_per_sec", 100.0)]));
        inputs.current.insert("BENCH_train".into(), bench(&[("epochs_per_sec", 105.0)]));
        assert!(evaluate(&[regression_rule(-4.0)], &inputs, false).passed());
        assert!(!evaluate(&[regression_rule(-10.0)], &inputs, false).passed());
    }

    #[test]
    fn lower_is_better_flips_the_sign() {
        let rule = SloRule {
            name: "latency".into(),
            kind: RuleKind::MaxRegression {
                source: "BENCH_train".into(),
                key: "infer_dense_ns".into(),
                max_regression_pct: 20.0,
                direction: Direction::LowerIsBetter,
            },
        };
        let mut inputs = SloInputs::default();
        inputs.baseline.insert("BENCH_train".into(), bench(&[("infer_dense_ns", 100.0)]));
        inputs.current.insert("BENCH_train".into(), bench(&[("infer_dense_ns", 110.0)]));
        assert!(evaluate(std::slice::from_ref(&rule), &inputs, false).passed());
        inputs.current.insert("BENCH_train".into(), bench(&[("infer_dense_ns", 130.0)]));
        assert!(!evaluate(std::slice::from_ref(&rule), &inputs, false).passed());
    }

    #[test]
    fn missing_inputs_skip_and_strict_mode_fails_them() {
        let inputs = SloInputs::default();
        let report = evaluate(&default_rules(), &inputs, false);
        assert!(report.passed(), "everything skips: {report}");
        assert!(report.outcomes.iter().all(|o| o.status == Status::Skip));
        let strict = evaluate(&default_rules(), &inputs, true);
        assert!(!strict.passed());
        assert_eq!(strict.violations().len(), strict.outcomes.len());
    }

    #[test]
    fn ratio_and_counter_rules_read_the_snapshot() {
        let mut inputs = SloInputs::default();
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("sim.cache_hits".into(), 9);
        snap.counters.insert("sim.cache_misses".into(), 1);
        snap.counters.insert("exec.quarantine_dropped".into(), 2);
        inputs.metrics = Some(snap);
        let rules = vec![
            SloRule {
                name: "hit-ratio".into(),
                kind: RuleKind::MinRatio {
                    numerator: "sim.cache_hits".into(),
                    denominator: vec!["sim.cache_hits".into(), "sim.cache_misses".into()],
                    min: 0.8,
                },
            },
            SloRule {
                name: "drops".into(),
                kind: RuleKind::MaxCounter { counter: "exec.quarantine_dropped".into(), max: 0.0 },
            },
        ];
        let report = evaluate(&rules, &inputs, false);
        assert_eq!(report.outcomes[0].status, Status::Pass, "{report}");
        assert_eq!(report.outcomes[1].status, Status::Fail, "{report}");
        assert_eq!(report.violations(), vec!["drops"]);
    }

    #[test]
    fn calibration_rule_averages_absolute_error() {
        let record = |predicted: Option<f32>, actual: f64| AuditRecord {
            seq: 0,
            cluster: 0,
            features: vec![],
            logits: vec![],
            preset: 0.1,
            effective_preset: 0.1,
            predicted_instructions: predicted,
            actual_instructions: actual,
            next_predicted_instructions: None,
            starved: false,
            op_index: 0,
            freq_mhz: 1000.0,
            voltage_v: 1.0,
        };
        let rule = SloRule {
            name: "calib".into(),
            kind: RuleKind::MaxCalibrationError { max_abs: 0.1501 },
        };
        // Errors: (100-90)/100 = 0.1 and (100-120)/100 = -0.2 → mean |e| 0.15.
        let mut inputs = SloInputs {
            audit: Some(vec![
                record(Some(100.0), 90.0),
                record(Some(100.0), 120.0),
                record(None, 5.0),
            ]),
            ..SloInputs::default()
        };
        assert!(evaluate(std::slice::from_ref(&rule), &inputs, false).passed());
        inputs.audit = Some(vec![record(Some(100.0), 50.0)]);
        assert!(!evaluate(std::slice::from_ref(&rule), &inputs, false).passed());
        inputs.audit = Some(vec![record(None, 5.0)]);
        let report = evaluate(std::slice::from_ref(&rule), &inputs, false);
        assert_eq!(report.outcomes[0].status, Status::Skip);
    }

    #[test]
    fn toml_subset_roundtrip() {
        let text = r##"
# SSMDVFS SLO policy.
[[rule]]
name = "train-throughput"   # trailing comment
kind = "max_regression"
source = "BENCH_train"
key = "epochs_per_sec"
max_regression_pct = 90.0

[[rule]]
name = "cache"
kind = "min_ratio"
numerator = "sim.cache_hits"
denominator = "sim.cache_hits, sim.cache_misses"
min = 0.5

[[rule]]
name = "drops"
kind = "max_counter"
counter = "exec.quarantine_dropped"
max = 0

[[rule]]
name = "calib"
kind = "max_calibration_error"
max_abs = 0.5
"##;
        let rules = parse_slo_toml(text).unwrap();
        assert_eq!(rules.len(), 4);
        assert_eq!(rules[0].name, "train-throughput");
        assert_eq!(
            rules[1].kind,
            RuleKind::MinRatio {
                numerator: "sim.cache_hits".into(),
                denominator: vec!["sim.cache_hits".into(), "sim.cache_misses".into()],
                min: 0.5,
            }
        );
        assert_eq!(
            rules[2].kind,
            RuleKind::MaxCounter { counter: "exec.quarantine_dropped".into(), max: 0.0 }
        );
    }

    #[test]
    fn toml_errors_carry_line_numbers() {
        let e = parse_slo_toml("name = \"x\"\n").unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        assert!(e.to_string().contains("before the first"), "{e}");

        let e = parse_slo_toml("[[rule]]\nname = \"x\"\nkind = \"nope\"\n").unwrap_err();
        assert!(e.to_string().contains("unknown rule kind"), "{e}");

        let e = parse_slo_toml("[[rule]]\nname = \"x\"\nkind = \"max_counter\"\n").unwrap_err();
        assert!(e.to_string().contains("missing required key 'counter'"), "{e}");

        let e = parse_slo_toml("[[rule]]\nweird value\n").unwrap_err();
        assert!(e.to_string().contains("line 2"), "{e}");

        let e = parse_slo_toml("[table]\n").unwrap_err();
        assert!(e.to_string().contains("[[rule]]"), "{e}");

        let e = parse_slo_toml("").unwrap_err();
        assert!(e.to_string().contains("no [[rule]]"), "{e}");

        let e = parse_slo_toml("[[rule]]\nname = \"x\"\nname = \"y\"\n").unwrap_err();
        assert!(e.to_string().contains("duplicate key"), "{e}");
    }

    #[test]
    fn comment_hash_inside_strings_survives() {
        let text =
            "[[rule]]\nname = \"has#hash\"\nkind = \"max_counter\"\ncounter = \"c\"\nmax = 1\n";
        let rules = parse_slo_toml(text).unwrap();
        assert_eq!(rules[0].name, "has#hash");
    }
}
