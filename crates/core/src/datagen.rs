//! The paper's data-generation methodology (Fig. 2).
//!
//! For each benchmark, the program runs at the default V/f point. Roughly
//! every 100 µs a *breakpoint* is established. The work each cluster
//! performs over the breakpoint interval defines a per-cluster milestone;
//! the time to reach it at the default point is `T_0`. The interval is then
//! replayed once per operating point: a 10 µs *feature-collection window* at
//! the default point, a 10 µs *frequency-scaling window* at the candidate
//! point, and the remainder back at the default point until the milestone is
//! reached, giving `T_f`. The measured performance loss `(T_f - T_0) / T_0`
//! becomes the training "preset" input, the candidate point becomes the
//! classification label, and the instruction count inside the scaling window
//! becomes the Calibrator's regression target.
//!
//! The paper stresses that the loss is measured over the whole ~100 µs
//! interval, not just the 20 µs of the two windows, because stalls induced
//! by a frequency change can manifest several epochs later — replaying to
//! the milestone captures exactly that.

use gpu_sim::{EpochCounters, EpochRecord, GpuConfig, SimSnapshot, Simulation, Time, Workload};
use gpu_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use tinynn::{ClassificationData, Matrix, RegressionData};

use crate::checkpoint::{CheckpointEntry, CheckpointJournal, CompletedJobs};
use crate::error::{Artifact, SsmdvfsError};
use crate::exec::{parallel_map_indexed, parallel_map_quarantine, FaultPolicy, FaultReport};
use crate::features::FeatureSet;
use crate::replay_cache::{fingerprint, ReplayCache};

/// Parameters of the data-generation process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataGenConfig {
    /// Epochs between breakpoints (the paper's ~100 µs = 10 epochs).
    pub breakpoint_interval_epochs: usize,
    /// Extra replay budget past the interval, as a multiple of it, for
    /// slowed-down runs to still reach the milestone.
    pub replay_slack: f64,
    /// Hard simulation horizon per benchmark.
    pub max_time: Time,
}

impl Default for DataGenConfig {
    fn default() -> DataGenConfig {
        DataGenConfig {
            breakpoint_interval_epochs: 10,
            replay_slack: 1.0,
            max_time: Time::from_micros(2_000.0),
        }
    }
}

/// One training sample: the feature-window counters of one cluster, the
/// operating point forced during the scaling window, and the measured
/// outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSample {
    /// Benchmark the sample came from.
    pub benchmark: String,
    /// Cluster the sample came from.
    pub cluster: usize,
    /// Breakpoint index within the benchmark.
    pub breakpoint: usize,
    /// Counters from the 10 µs feature-collection window (at default V/f).
    pub counters: EpochCounters,
    /// Counters from the 10 µs frequency-scaling window (measured at
    /// `op_index`). Runtime inference sees counters from whatever frequency
    /// the cluster last ran at, so training also uses these as feature
    /// variants to close the train/inference distribution gap.
    pub scaled_counters: EpochCounters,
    /// Operating point applied during the scaling window (the label).
    pub op_index: usize,
    /// Measured performance loss over the interval, e.g. 0.08 = 8 % slower.
    pub perf_loss: f64,
    /// Instructions the cluster retired during the scaling window (the
    /// Calibrator target).
    pub instructions: u64,
}

/// The preset grid shared by the Decision-maker labeling and the Calibrator
/// target construction (values are additionally jittered per context for the
/// classifier so the grid does not imprint itself).
pub const DECISION_PRESET_GRID: [f64; 12] =
    [0.01, 0.02, 0.035, 0.05, 0.075, 0.10, 0.125, 0.15, 0.18, 0.22, 0.26, 0.30];

/// How Decision-maker labels are derived from the measurements (ablation
/// switch; the deployed pipeline uses [`LabelingMode::MinFrequency`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LabelingMode {
    /// The paper's stated classification criterion: label = minimum
    /// operating point whose measured loss satisfies the preset input.
    #[default]
    MinFrequency,
    /// The literal Fig. 2 reading: input = measured loss, label = the
    /// operating point that caused it.
    Raw,
}

/// A collection of raw samples with conversions to trainable datasets.
///
/// # Examples
///
/// See [`generate`] and the `train_pipeline` example binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsDataset {
    /// The samples.
    pub samples: Vec<RawSample>,
    /// Whether dataset conversions emit per-frequency feature variants in
    /// addition to the default-clock feature window (ablation switch;
    /// `true` in the deployed pipeline).
    #[serde(default = "default_true")]
    pub feature_variants: bool,
    /// Decision-label construction mode (ablation switch).
    #[serde(default)]
    pub labeling: LabelingMode,
}

fn default_true() -> bool {
    true
}

impl Default for DvfsDataset {
    fn default() -> DvfsDataset {
        DvfsDataset {
            samples: Vec::new(),
            feature_variants: true,
            labeling: LabelingMode::default(),
        }
    }
}

impl DvfsDataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been generated.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Merges another dataset's samples into this one.
    pub fn extend(&mut self, other: DvfsDataset) {
        self.samples.extend(other.samples);
    }

    /// Serializes the dataset as JSON to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] tagged with [`Artifact::Dataset`] on a
    /// write failure.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), SsmdvfsError> {
        let path = path.as_ref();
        let json = serde_json::to_string(self)
            .map_err(|e| SsmdvfsError::parse(Artifact::Dataset, path, e))?;
        std::fs::write(path, json).map_err(|e| SsmdvfsError::write(Artifact::Dataset, path, e))
    }

    /// Loads a dataset serialized by [`DvfsDataset::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file is unreadable and
    /// [`SsmdvfsError::Parse`] if it is not a valid dataset, both tagged
    /// with [`Artifact::Dataset`] so the CLI names the failing stage.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<DvfsDataset, SsmdvfsError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| SsmdvfsError::read(Artifact::Dataset, path, e))?;
        serde_json::from_str(&json).map_err(|e| SsmdvfsError::parse(Artifact::Dataset, path, e))
    }

    /// Builds the Decision-maker dataset implementing the paper's
    /// classification criterion — "select the minimum frequency that
    /// satisfies a given performance loss preset".
    ///
    /// Samples sharing a (benchmark, cluster, breakpoint) context carry the
    /// measured loss of every operating point for the same feature window.
    /// For each context, a grid of preset values is emitted as
    /// `x = [features..., preset]` with label `y = min{op : loss(op) <=
    /// preset}` — exactly the decision the runtime controller must make.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn decision_data(&self, features: &FeatureSet, num_ops: usize) -> ClassificationData {
        assert!(!self.is_empty(), "cannot build a dataset from zero samples");
        if self.labeling == LabelingMode::Raw {
            return self.decision_data_raw(features, num_ops);
        }
        let mut rows: Vec<(Vec<f32>, f32, usize)> = Vec::new();
        for (group_idx, group) in self.context_groups().into_iter().enumerate() {
            // Measured loss per operating point for this context.
            let mut loss = vec![f64::INFINITY; num_ops];
            for s in &group {
                loss[s.op_index] = s.perf_loss;
            }
            // Feature variants: the default-clock feature window, plus the
            // scaling window of every measured point. Program behaviour is
            // locally stationary (the paper's linear-forward-motion
            // assumption), so the same loss table applies to each variant;
            // the variants teach the model to recognize the same code
            // region through counters measured at any clock.
            let mut variants: Vec<Vec<f32>> = vec![features.extract(&group[0].counters)];
            if self.feature_variants {
                for s in &group {
                    variants.push(features.extract(&s.scaled_counters));
                }
            }
            // Deterministic jitter so the grid does not imprint itself.
            let jitter = 1.0 + 0.15 * (((group_idx * 2_654_435_761) % 1_000) as f64 / 500.0 - 1.0);
            for feats in &variants {
                for (k, &p0) in DECISION_PRESET_GRID.iter().enumerate() {
                    let preset = p0 * if k % 2 == 0 { jitter } else { 2.0 - jitter };
                    let label = (0..num_ops).find(|&op| loss[op] <= preset).unwrap_or(num_ops - 1);
                    rows.push((feats.clone(), preset as f32, label));
                }
            }
        }
        let cols = features.len() + 1;
        let mut x = Matrix::zeros(rows.len(), cols);
        let mut y = Vec::with_capacity(rows.len());
        for (i, (feats, preset, label)) in rows.into_iter().enumerate() {
            let row = x.row_mut(i);
            row[..features.len()].copy_from_slice(&feats);
            row[features.len()] = preset;
            y.push(label);
        }
        ClassificationData::new(x, y, num_ops)
    }

    /// Builds the Decision-maker dataset with the paper's *raw* labeling
    /// (`x = [features..., measured loss]`, `y = the frequency that caused
    /// it`) — the direct reading of Fig. 2's training logic, kept for
    /// comparison and ablation.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn decision_data_raw(&self, features: &FeatureSet, num_ops: usize) -> ClassificationData {
        assert!(!self.is_empty(), "cannot build a dataset from zero samples");
        let cols = features.len() + 1;
        let mut x = Matrix::zeros(self.len(), cols);
        let mut y = Vec::with_capacity(self.len());
        for (i, s) in self.samples.iter().enumerate() {
            let row = x.row_mut(i);
            row[..features.len()].copy_from_slice(&features.extract(&s.counters));
            row[features.len()] = s.perf_loss as f32;
            y.push(s.op_index);
        }
        ClassificationData::new(x, y, num_ops)
    }

    /// Groups samples by (benchmark, cluster, breakpoint) context. Each
    /// group holds one sample per operating point that was measured.
    fn context_groups(&self) -> Vec<Vec<&RawSample>> {
        use std::collections::HashMap;
        let mut map: HashMap<(&str, usize, usize), Vec<&RawSample>> = HashMap::new();
        for s in &self.samples {
            map.entry((s.benchmark.as_str(), s.cluster, s.breakpoint)).or_default().push(s);
        }
        let mut groups: Vec<Vec<&RawSample>> = map.into_values().collect();
        // Deterministic order independent of hash state.
        groups.sort_by(|a, b| {
            (a[0].benchmark.as_str(), a[0].cluster, a[0].breakpoint).cmp(&(
                b[0].benchmark.as_str(),
                b[0].cluster,
                b[0].breakpoint,
            ))
        });
        groups
    }

    /// Builds the Calibrator dataset: `x = [features..., loss_expectation,
    /// op_index / (num_ops-1)]`, `y = instructions / instr_scale`.
    ///
    /// Per Section III-C, at runtime the Calibrator "consistently uses the
    /// originally set performance loss preset, implying that under the
    /// initial performance loss expectation, it predicts the expected total
    /// instructions". The training rows therefore mirror the runtime query
    /// distribution exactly: for every preset value on the grid, the target
    /// is the instruction count measured at the operating point a correct
    /// decision picks for that preset (`min{op : loss(op) <= preset}`). A
    /// memory-bound context thus predicts its full-rate count at every
    /// preset (no point loses time), while a compute-bound context predicts
    /// the throughput consistent with the preset — which is what turns the
    /// prediction-vs-actual comparison into a preset-violation detector.
    /// The op input stays in the signature (Fig. 2's wiring) but is
    /// deliberately decorrelated with a displaced variant per row.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn calibrator_data(
        &self,
        features: &FeatureSet,
        num_ops: usize,
        instr_scale: f32,
    ) -> RegressionData {
        assert!(!self.is_empty(), "cannot build a dataset from zero samples");
        // Nearly idle scaling windows (a few hundred instructions against a
        // typical ~10⁴) carry no throughput signal but dominate a relative
        // error metric; the Calibrator is trained on windows with real work.
        const MIN_INSTRUCTIONS: u64 = 500;
        let op_norm = (num_ops.max(2) - 1) as f32;
        let mut rows: Vec<(Vec<f32>, f32, f32, f32)> = Vec::new();
        for group in self.context_groups() {
            let mut loss = vec![f64::INFINITY; num_ops];
            let mut instr: Vec<Option<u64>> = vec![None; num_ops];
            for s in &group {
                loss[s.op_index] = s.perf_loss;
                instr[s.op_index] = Some(s.instructions);
            }
            let mut variants: Vec<Vec<f32>> = vec![features.extract(&group[0].counters)];
            if self.feature_variants {
                for s in &group {
                    variants.push(features.extract(&s.scaled_counters));
                }
            }
            for feats in &variants {
                for &preset in &DECISION_PRESET_GRID {
                    let label = (0..num_ops).find(|&op| loss[op] <= preset).unwrap_or(num_ops - 1);
                    let Some(target) = instr[label] else { continue };
                    if target < MIN_INSTRUCTIONS {
                        continue;
                    }
                    // Two op inputs per row: the consistent one and a
                    // displaced one, so the network cannot shortcut through
                    // the op input and must read the loss expectation.
                    for delta in [0usize, num_ops / 2] {
                        let op = (label + delta) % num_ops;
                        rows.push((
                            feats.clone(),
                            preset as f32,
                            op as f32 / op_norm,
                            target as f32 / instr_scale,
                        ));
                    }
                }
            }
        }
        // Degenerate fallback (e.g. every window idle): keep the direct rows
        // so training still has data.
        if rows.is_empty() {
            for s in &self.samples {
                rows.push((
                    features.extract(&s.counters),
                    s.perf_loss as f32,
                    s.op_index as f32 / op_norm,
                    s.instructions as f32 / instr_scale,
                ));
            }
        }
        let cols = features.len() + 2;
        let mut x = Matrix::zeros(rows.len(), cols);
        let mut y = Vec::with_capacity(rows.len());
        for (i, (feats, loss, op, target)) in rows.into_iter().enumerate() {
            let row = x.row_mut(i);
            row[..features.len()].copy_from_slice(&feats);
            row[features.len()] = loss;
            row[features.len() + 1] = op;
            y.push(target);
        }
        RegressionData::new(x, y)
    }
}

/// Everything one operating-point replay needs, captured once per
/// breakpoint from the reference timeline. The six per-operating-point
/// replays sharing a spec are independent of each other and of every other
/// breakpoint, which is what the parallel fan-out exploits.
struct ReplaySpec {
    /// Breakpoint index within the benchmark.
    breakpoint: usize,
    /// Machine state at the breakpoint (O(machine), not O(history)).
    snapshot: SimSnapshot,
    /// Time of the breakpoint.
    t_start: Time,
    /// Per-cluster instruction milestones defined by the reference interval.
    milestones: Vec<u64>,
    /// Per-cluster reference times to the milestone (`T_0`).
    t0: Vec<Option<Time>>,
    /// The feature-collection window record from the reference timeline.
    feature_record: EpochRecord,
}

/// Phase 1: runs the reference timeline at the default point, snapshotting
/// at every breakpoint and measuring milestones/`T_0` from the continued
/// main simulation. Purely sequential — each breakpoint's reference data
/// depends on the previous interval.
fn collect_replay_specs(
    workload: Workload,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
) -> Vec<ReplaySpec> {
    let _scope = obs::scope!("datagen.reference", "{}", workload.name());
    let default_ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let interval = dg.breakpoint_interval_epochs;
    let max_epochs = (dg.max_time.as_ps() / cfg.epoch.as_ps()) as usize;

    let mut sim = Simulation::new(cfg.clone(), workload);
    // The main timeline only ever looks back one breakpoint interval (for
    // `T_0` and the feature window), so its record history can be pruned.
    sim.set_history_limit(Some(interval + 2));
    let mut specs = Vec::new();
    let mut breakpoint = 0usize;

    while !sim.is_complete() && sim.epoch_index() < max_epochs {
        // Snapshot at the breakpoint, then produce the reference timeline by
        // continuing the main simulation at the default point.
        let snapshot = sim.snapshot();
        let start_cums: Vec<u64> =
            (0..cfg.num_clusters).map(|c| sim.cluster_instructions(c)).collect();
        let t_start = sim.now();

        for _ in 0..interval {
            if sim.is_complete() {
                break;
            }
            sim.step_epoch(&default_ops);
        }
        // Per-cluster milestones and reference times.
        let milestones: Vec<u64> =
            (0..cfg.num_clusters).map(|c| sim.cluster_instructions(c)).collect();
        let t0: Vec<Option<Time>> = (0..cfg.num_clusters)
            .map(|c| {
                if milestones[c] > start_cums[c] {
                    sim.time_at_instructions(c, milestones[c])
                } else {
                    None
                }
            })
            .collect();

        // Feature-collection window counters: the first epoch after the
        // breakpoint, straight from the reference timeline (it ran at the
        // default point, exactly as the methodology prescribes).
        let feature_record = match sim.record_at(snapshot.epoch_index()) {
            Some(r) => r.clone(),
            None => break,
        };

        specs.push(ReplaySpec { breakpoint, snapshot, t_start, milestones, t0, feature_record });
        breakpoint += 1;
    }
    obs::counter!("datagen.breakpoints").inc(specs.len() as u64);
    specs
}

/// Phase 2, one job: replays one breakpoint interval at one candidate
/// operating point and measures the per-cluster performance loss. Samples
/// come back in cluster order, so assembling jobs in (breakpoint, op) order
/// reproduces the sequential sample order exactly.
fn run_replay(
    name: &str,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    spec: &ReplaySpec,
    op_index: usize,
) -> Vec<RawSample> {
    let _scope = obs::scope!("datagen.replay", "{}#{}@op{}", name, spec.breakpoint, op_index);
    let default_ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let interval = dg.breakpoint_interval_epochs;
    let budget = interval + (interval as f64 * dg.replay_slack).ceil() as usize;
    // The replay looks up milestone crossings anywhere within its own
    // window, so retain every epoch it can possibly step.
    let mut replay = spec.snapshot.restore_with_history(budget.max(2) + 1);
    // Feature window at default, scaling window at the candidate.
    replay.step_epoch(&default_ops);
    let scaled_record = replay.step_epoch(&vec![op_index; cfg.num_clusters]).clone();
    // Back at default until every milestone is reached (bounded).
    while replay.epoch_index() < spec.snapshot.epoch_index() + budget
        && !replay.is_complete()
        && (0..cfg.num_clusters).any(|c| replay.cluster_instructions(c) < spec.milestones[c])
    {
        replay.step_epoch(&default_ops);
    }

    let mut samples = Vec::new();
    for cluster in 0..cfg.num_clusters {
        let Some(t0_c) = spec.t0[cluster] else { continue };
        let Some(tf_c) = replay.time_at_instructions(cluster, spec.milestones[cluster]) else {
            continue;
        };
        let ref_dur = t0_c.saturating_sub(spec.t_start).as_secs();
        if ref_dur <= 0.0 {
            continue;
        }
        let scaled_dur = tf_c.saturating_sub(spec.t_start).as_secs();
        // Sustained-equivalent loss: the extra time the single
        // scaled epoch cost (including delayed effects, which is why
        // the measurement runs to the milestone rather than stopping
        // after 20 µs), normalized to the scaling window's own
        // duration. This is the slowdown a cluster would sustain if
        // it ran at this point continuously — the quantity a preset
        // of "10 % performance loss" constrains at runtime.
        let perf_loss = (scaled_dur - ref_dur) / cfg.epoch.as_secs();
        let scaled_cluster = &scaled_record.clusters[cluster];
        samples.push(RawSample {
            benchmark: name.to_string(),
            cluster,
            breakpoint: spec.breakpoint,
            counters: spec.feature_record.clusters[cluster].counters.clone(),
            scaled_counters: scaled_cluster.counters.clone(),
            op_index,
            perf_loss,
            instructions: scaled_cluster.counters.total_instructions() as u64,
        });
    }
    obs::counter!("datagen.replays").inc(1);
    obs::counter!("datagen.samples").inc(samples.len() as u64);
    samples
}

/// Runs the Fig. 2 methodology on one benchmark, returning its samples.
/// Replays fan out over one worker per core; see [`generate_with_jobs`].
///
/// # Panics
///
/// Panics if the configuration is invalid (see
/// [`GpuConfig::validate`]).
pub fn generate(benchmark: &Benchmark, cfg: &GpuConfig, dg: &DataGenConfig) -> DvfsDataset {
    generate_with_jobs(benchmark, cfg, dg, 0)
}

/// [`generate`] with an explicit worker count (`0` = one per core, `1` =
/// fully sequential). The result is byte-identical for every worker count:
/// replays are deterministic given the breakpoint snapshot, and samples are
/// assembled in (breakpoint, operating point, cluster) order regardless of
/// which worker ran which replay.
pub fn generate_with_jobs(
    benchmark: &Benchmark,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    jobs: usize,
) -> DvfsDataset {
    generate_workload_jobs(benchmark.name(), benchmark.workload().clone(), cfg, dg, jobs)
}

/// [`generate`] for a bare workload.
pub fn generate_workload(
    name: &str,
    workload: Workload,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
) -> DvfsDataset {
    generate_workload_jobs(name, workload, cfg, dg, 0)
}

/// [`generate_workload`] with an explicit worker count (see
/// [`generate_with_jobs`]).
pub fn generate_workload_jobs(
    name: &str,
    workload: Workload,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    jobs: usize,
) -> DvfsDataset {
    let _scope = obs::scope!("datagen", "{name}");
    let specs = collect_replay_specs(workload, cfg, dg);
    let num_ops = cfg.vf_table.len();
    let job_list: Vec<(usize, usize)> =
        (0..specs.len()).flat_map(|s| (0..num_ops).map(move |op| (s, op))).collect();
    let per_job: Vec<Vec<RawSample>> =
        parallel_map_indexed(jobs, job_list, |_, (spec_idx, op_index)| {
            run_replay(name, cfg, dg, &specs[spec_idx], op_index)
        });
    DvfsDataset { samples: per_job.concat(), ..DvfsDataset::default() }
}

/// Runs data generation over a whole benchmark suite with global fan-out:
/// reference timelines run in parallel across benchmarks, then every
/// (benchmark, breakpoint, operating point) replay becomes one job on the
/// shared compute pool, so a long benchmark's replays keep all
/// workers busy while short benchmarks finish. Returns one dataset per
/// benchmark, in input order, each byte-identical to a sequential
/// [`generate`] run on that benchmark.
///
/// Checkpointing, resume and fault tolerance live on
/// [`generate_suite_with`]; this wrapper is the plain fail-fast path.
pub fn generate_suite(
    benchmarks: &[Benchmark],
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    jobs: usize,
) -> Vec<DvfsDataset> {
    match generate_suite_with(benchmarks, cfg, dg, &SuiteOptions::new(jobs)) {
        Ok(outcome) => outcome.datasets,
        // Unreachable without a journal (the only fallible option), kept as
        // a loud failure rather than an `unwrap` in case that changes.
        Err(e) => panic!("{e}"),
    }
}

/// Knobs for a resilient [`generate_suite_with`] sweep.
#[derive(Debug, Default)]
pub struct SuiteOptions {
    /// Worker count (`0` = one per core).
    pub jobs: usize,
    /// Journal that every finished replay job is appended to (and flushed)
    /// as it completes, enabling a later `--resume`.
    pub journal: Option<CheckpointJournal>,
    /// Jobs already completed by an interrupted run (loaded from its
    /// journal); they are skipped and their journaled samples reused.
    pub completed: CompletedJobs,
    /// When set, a panicking replay job is quarantined and retried on the
    /// pool instead of aborting the sweep; jobs that exhaust the retry
    /// budget are dropped and reported in [`SuiteOutcome::faults`].
    pub fault_policy: Option<FaultPolicy>,
    /// Cross-run replay cache: jobs whose (config, datagen parameters,
    /// workload, breakpoint, operating point) fingerprint is already cached
    /// reuse the stored samples instead of simulating; fresh results are
    /// inserted as they complete. The caller persists the cache with
    /// [`ReplayCache::save`] after the sweep.
    pub cache: Option<std::sync::Arc<ReplayCache>>,
}

impl SuiteOptions {
    /// Plain fail-fast options: no checkpointing, no quarantine.
    pub fn new(jobs: usize) -> SuiteOptions {
        SuiteOptions { jobs, ..SuiteOptions::default() }
    }
}

/// What a resilient suite sweep produced.
#[derive(Debug)]
pub struct SuiteOutcome {
    /// One dataset per benchmark, in input order.
    pub datasets: Vec<DvfsDataset>,
    /// Quarantine activity (empty unless a fault policy was set and a job
    /// panicked).
    pub faults: FaultReport,
}

/// [`generate_suite`] with checkpointing, resume and fault tolerance.
///
/// Phase 1 (reference timelines) is recomputed deterministically even on
/// resume — it is cheap relative to phase 2 and seeds identical
/// [`ReplaySpec`]s, which is what makes journaled and fresh results
/// interchangeable. Phase 2 jobs found in `options.completed` are skipped;
/// the rest run on the pool, each passing the fail-point site
/// `"datagen.replay"` (keyed by global job index) on entry and appending to
/// the journal on exit. Assembly walks the full ordered job list mixing
/// journaled and fresh samples, so the output is byte-identical to an
/// uninterrupted run regardless of where the previous run died.
///
/// # Errors
///
/// Returns [`SsmdvfsError::Io`] if a journal append fails. Replay panics
/// either propagate (no fault policy) or end up in
/// [`SuiteOutcome::faults`].
pub fn generate_suite_with(
    benchmarks: &[Benchmark],
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    options: &SuiteOptions,
) -> Result<SuiteOutcome, SsmdvfsError> {
    let _scope = obs::scope!("datagen.suite", "{} benchmarks", benchmarks.len());
    let jobs = options.jobs;
    // Phase 1: per-benchmark reference timelines (independent of each other).
    let specs_per_bench: Vec<Vec<ReplaySpec>> =
        parallel_map_indexed(jobs, benchmarks.to_vec(), |_, bench| {
            collect_replay_specs(bench.workload().clone(), cfg, dg)
        });
    // Phase 2: one global job list over every replay of every benchmark.
    let num_ops = cfg.vf_table.len();
    let job_list: Vec<(usize, usize, usize)> = specs_per_bench
        .iter()
        .enumerate()
        .flat_map(|(b, specs)| {
            (0..specs.len()).flat_map(move |s| (0..num_ops).map(move |op| (b, s, op)))
        })
        .collect();

    // Content-addressed cache keys: stable fingerprints of everything a
    // replay's result depends on. Computed once per sweep (per benchmark
    // for the workload), not per job.
    let cache_keys = options.cache.as_ref().map(|_| {
        let cfg_hash = fingerprint(cfg);
        let dg_hash = fingerprint(dg);
        let wl_hashes: Vec<u64> =
            benchmarks.iter().map(|bench| fingerprint(bench.workload())).collect();
        move |b: usize, s: usize, op: usize| {
            ReplayCache::key(cfg_hash, dg_hash, wl_hashes[b], s, op)
        }
    });

    // Split into already-available jobs (journaled by an interrupted run,
    // or cached by a previous sweep) and work still to do. `todo` keeps
    // each job's global index so fail points and journal entries stay
    // deterministic across runs with different resume points.
    let mut cached: Vec<Option<Vec<RawSample>>> = Vec::with_capacity(job_list.len());
    let mut todo: Vec<(usize, (usize, usize, usize))> = Vec::new();
    for (j, &(b, s, op)) in job_list.iter().enumerate() {
        let key = (benchmarks[b].name().to_string(), s, op);
        if let Some(samples) = options.completed.get(&key) {
            cached.push(Some(samples.clone()));
            continue;
        }
        if let (Some(cache), Some(keys)) = (&options.cache, &cache_keys) {
            if let Some(samples) = cache.get(&keys(b, s, op)) {
                cached.push(Some(samples));
                continue;
            }
        }
        cached.push(None);
        todo.push((j, (b, s, op)));
    }
    if !options.completed.is_empty() || options.cache.is_some() {
        obs::info!(
            "datagen: resume/cache skips {}/{} replay jobs",
            job_list.len() - todo.len(),
            job_list.len()
        );
    }
    obs::counter!("datagen.jobs_resumed").inc((job_list.len() - todo.len()) as u64);

    // A journal append failure inside a worker cannot early-return; park
    // the first one here and surface it after the sweep.
    let journal_error: std::sync::Mutex<Option<SsmdvfsError>> = std::sync::Mutex::new(None);
    let run_one = |job_index: usize, b: usize, s: usize, op: usize| -> Vec<RawSample> {
        crate::failpoint::hit("datagen.replay", job_index);
        let samples = run_replay(benchmarks[b].name(), cfg, dg, &specs_per_bench[b][s], op);
        if let (Some(cache), Some(keys)) = (&options.cache, &cache_keys) {
            cache.insert(keys(b, s, op), samples.clone());
        }
        if let Some(journal) = &options.journal {
            let entry = CheckpointEntry {
                benchmark: benchmarks[b].name().to_string(),
                breakpoint: s,
                op_index: op,
                samples: samples.clone(),
            };
            if let Err(e) = journal.append(&entry) {
                let mut slot =
                    journal_error.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                slot.get_or_insert(e);
            }
        }
        samples
    };

    let (fresh, faults): (Vec<Option<Vec<RawSample>>>, FaultReport) = match options.fault_policy {
        Some(policy) => {
            let (out, report) =
                parallel_map_quarantine(jobs, &todo, policy, |_, &(j, (b, s, op))| {
                    run_one(j, b, s, op)
                });
            (out, report)
        }
        None => {
            let out =
                parallel_map_indexed(jobs, todo.clone(), |_, (j, (b, s, op))| run_one(j, b, s, op));
            (out.into_iter().map(Some).collect(), FaultReport::default())
        }
    };
    if let Some(e) = journal_error.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner) {
        return Err(e);
    }

    // Ordered assembly back into per-benchmark datasets, merging journaled
    // results with fresh ones; dropped (faulted) jobs contribute nothing.
    let mut fresh_by_job: Vec<Option<Vec<RawSample>>> = vec![None; job_list.len()];
    for ((j, _), result) in todo.into_iter().zip(fresh) {
        fresh_by_job[j] = result;
    }
    let mut datasets: Vec<DvfsDataset> =
        benchmarks.iter().map(|_| DvfsDataset::default()).collect();
    for (j, &(b, _, _)) in job_list.iter().enumerate() {
        if let Some(samples) = cached[j].take() {
            datasets[b].samples.extend(samples);
        } else if let Some(samples) = fresh_by_job[j].take() {
            datasets[b].samples.extend(samples);
        }
    }
    Ok(SuiteOutcome { datasets, faults })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{BasicBlock, InstrClass, KernelSpec, MemoryBehavior};

    fn test_cfg() -> GpuConfig {
        GpuConfig::small_test()
    }

    fn compute_workload() -> Workload {
        let k = KernelSpec::new(
            "k",
            vec![BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::FpAlu], 4_000, 0.0)],
            2,
            16,
            MemoryBehavior::streaming(1 << 18),
        );
        Workload::new("compute", vec![k])
    }

    fn memory_workload() -> Workload {
        let k = KernelSpec::new(
            "k",
            vec![BasicBlock::new(vec![InstrClass::LoadGlobal, InstrClass::IntAlu], 2_000, 0.0)],
            2,
            16,
            MemoryBehavior::streaming(64 << 20),
        );
        Workload::new("memory", vec![k])
    }

    #[test]
    fn generates_samples_for_every_op_and_cluster() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let data = generate_workload("compute", compute_workload(), &cfg, &dg);
        assert!(!data.is_empty());
        // Every operating point appears as a label.
        for op in 0..cfg.vf_table.len() {
            assert!(
                data.samples.iter().any(|s| s.op_index == op),
                "no sample labeled with op {op}"
            );
        }
        // Both clusters contribute.
        assert!(data.samples.iter().any(|s| s.cluster == 0));
        assert!(data.samples.iter().any(|s| s.cluster == 1));
    }

    #[test]
    fn default_point_has_near_zero_loss() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let data = generate_workload("compute", compute_workload(), &cfg, &dg);
        let default_idx = cfg.vf_table.default_index();
        for s in data.samples.iter().filter(|s| s.op_index == default_idx) {
            assert!(
                s.perf_loss.abs() < 0.02,
                "replaying at the default point must reproduce the reference: loss {}",
                s.perf_loss
            );
        }
    }

    #[test]
    fn compute_bound_loss_grows_as_frequency_drops() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let data = generate_workload("compute", compute_workload(), &cfg, &dg);
        let mean_loss = |op: usize| {
            let v: Vec<f64> = data
                .samples
                .iter()
                .filter(|s| s.op_index == op && s.breakpoint == 0)
                .map(|s| s.perf_loss)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let slow = mean_loss(0);
        let fast = mean_loss(5);
        assert!(
            slow > fast + 0.05,
            "dropping to 683 MHz must cost a compute-bound kernel time: {slow:.4} vs {fast:.4}"
        );
        // Sustained-equivalent loss at 683 MHz should approach the
        // frequency ratio penalty (1165/683 - 1 = 0.71) for compute-bound
        // code.
        assert!(slow > 0.3, "sustained loss at the floor should be large: {slow:.4}");
    }

    #[test]
    fn memory_bound_loss_is_smaller_than_compute_bound() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let compute = generate_workload("c", compute_workload(), &cfg, &dg);
        let memory = generate_workload("m", memory_workload(), &cfg, &dg);
        let mean_low = |d: &DvfsDataset| {
            let v: Vec<f64> =
                d.samples.iter().filter(|s| s.op_index == 0).map(|s| s.perf_loss).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            mean_low(&memory) < mean_low(&compute),
            "memory-bound work must tolerate the low point better ({:.4} vs {:.4})",
            mean_low(&memory),
            mean_low(&compute)
        );
    }

    #[test]
    fn dataset_conversions_have_consistent_shapes() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let data = generate_workload("c", compute_workload(), &cfg, &dg);
        let fs = FeatureSet::refined();
        let dec = data.decision_data(&fs, cfg.vf_table.len());
        assert_eq!(dec.x.cols(), fs.len() + 1);
        assert!(dec.len() >= data.len() / 6, "one row per context per grid preset");
        assert_eq!(dec.num_classes, 6);
        let raw = data.decision_data_raw(&fs, cfg.vf_table.len());
        assert_eq!(raw.len(), data.len());
        let cal = data.calibrator_data(&fs, cfg.vf_table.len(), 1_000.0);
        assert_eq!(cal.x.cols(), fs.len() + 2);
        assert!(cal.len() >= data.len(), "cross-product rows per context");
        // Targets were scaled.
        assert!(cal.y.iter().all(|&v| v < 1_000.0));
    }

    #[test]
    fn instructions_in_scaling_window_scale_with_frequency_for_compute() {
        let cfg = test_cfg();
        let dg = DataGenConfig { breakpoint_interval_epochs: 5, ..DataGenConfig::default() };
        let data = generate_workload("c", compute_workload(), &cfg, &dg);
        let mean_instr = |op: usize| {
            let v: Vec<f64> = data
                .samples
                .iter()
                .filter(|s| s.op_index == op && s.breakpoint == 0)
                .map(|s| s.instructions as f64)
                .collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let ratio = mean_instr(0) / mean_instr(5);
        assert!(
            (0.45..0.85).contains(&ratio),
            "throughput in the scaling window should track frequency (683/1165 = 0.59), got {ratio:.3}"
        );
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use gpu_sim::CounterId;

    fn sample_dataset() -> DvfsDataset {
        let mut c = EpochCounters::zeroed();
        c[CounterId::Ipc] = 1.5;
        let samples = (0..6)
            .map(|op| RawSample {
                benchmark: "p".into(),
                cluster: 0,
                breakpoint: 0,
                counters: c.clone(),
                scaled_counters: c.clone(),
                op_index: op,
                perf_loss: 0.1 * (5 - op) as f64,
                instructions: 9_000,
            })
            .collect();
        DvfsDataset { samples, ..DvfsDataset::default() }
    }

    #[test]
    fn save_load_roundtrip_preserves_flags() {
        let dir = std::env::temp_dir().join("ssmdvfs_dataset_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.json");
        let mut ds = sample_dataset();
        ds.feature_variants = false;
        ds.labeling = LabelingMode::Raw;
        ds.save(&path).unwrap();
        let loaded = DvfsDataset::load(&path).unwrap();
        assert_eq!(ds, loaded);
        assert!(!loaded.feature_variants);
        assert_eq!(loaded.labeling, LabelingMode::Raw);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_json_without_flags_defaults_sanely() {
        // Caches written before the ablation flags existed must still load,
        // with the deployed defaults.
        let ds = sample_dataset();
        let mut json: serde_json::Value =
            serde_json::from_str(&serde_json::to_string(&ds).unwrap()).unwrap();
        json.as_object_mut().unwrap().remove("feature_variants");
        json.as_object_mut().unwrap().remove("labeling");
        let loaded: DvfsDataset = serde_json::from_value(json).unwrap();
        assert!(loaded.feature_variants, "legacy caches default to variants on");
        assert_eq!(loaded.labeling, LabelingMode::MinFrequency);
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = std::env::temp_dir().join("ssmdvfs_dataset_test2");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "[1,2,3]").unwrap();
        assert!(DvfsDataset::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn raw_labeling_mode_switches_conversion() {
        let mut ds = sample_dataset();
        let fs = crate::features::FeatureSet::refined();
        let min_freq = ds.decision_data(&fs, 6);
        ds.labeling = LabelingMode::Raw;
        let raw = ds.decision_data(&fs, 6);
        assert_eq!(raw.len(), ds.len(), "raw labeling: one row per sample");
        assert_ne!(min_freq.len(), raw.len());
        // Raw labels are exactly the op indices.
        assert_eq!(raw.y, vec![0, 1, 2, 3, 4, 5]);
    }
}
