//! The epoch-stepped simulation driver.
//!
//! [`Simulation`] owns the clusters, sequences the workload's kernels,
//! advances time in DVFS epochs, and records one [`EpochRecord`] per epoch.
//! It is `Clone`, which is how the data-generation methodology implements
//! breakpoints: snapshot the simulation, replay a segment under a forced
//! frequency schedule, compare against the original timeline.

use std::sync::Arc;

use gpu_power::{EdpReport, Energy, PowerModel, VfTable};
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::counters::{CounterId, EpochCounters};
use crate::governor::DvfsGovernor;
use crate::gpu::GpuConfig;
use crate::kernel::Workload;
use crate::sm::EngineMode;
use crate::time::Time;

/// One cluster's slice of an epoch record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterEpochRecord {
    /// The counters collected over the epoch.
    pub counters: EpochCounters,
    /// The operating-point index the cluster ran at.
    pub op_index: usize,
    /// Cumulative instructions retired by the cluster up to the epoch's end.
    pub cum_instructions: u64,
}

/// Everything that happened during one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub index: usize,
    /// Absolute start time.
    pub start: Time,
    /// Epoch length.
    pub len: Time,
    /// Per-cluster data, indexed by cluster id.
    pub clusters: Vec<ClusterEpochRecord>,
}

impl EpochRecord {
    /// Total energy consumed by every cluster this epoch.
    pub fn energy(&self) -> Energy {
        Energy::from_joules(self.clusters.iter().map(|c| c.counters[CounterId::EnergyEpochJ]).sum())
    }

    /// Total instructions retired by every cluster this epoch.
    pub fn instructions(&self) -> u64 {
        self.clusters.iter().map(|c| c.counters[CounterId::TotalInstrs] as u64).sum()
    }
}

/// Per-component energy totals of a run, reconstructed from the power
/// counters (core dynamic incl. clock tree, leakage, memory hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergySummary {
    /// Core dynamic energy: instruction switching + fetch/decode overhead +
    /// clock tree.
    pub dynamic: Energy,
    /// Leakage energy.
    pub leakage: Energy,
    /// Memory-hierarchy energy (L1/L2/DRAM dynamic + DRAM background).
    pub memory: Energy,
}

impl EnergySummary {
    /// Sum of all components.
    pub fn total(&self) -> Energy {
        self.dynamic + self.leakage + self.memory
    }
}

/// Summary of one complete run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Name of the workload that ran.
    pub workload: String,
    /// Name of the governor that drove DVFS.
    pub governor: String,
    /// Whether the workload ran to completion within the time limit.
    pub completed: bool,
    /// Completion time (or the simulation horizon if incomplete).
    pub time: Time,
    /// Total energy across all clusters and epochs.
    pub energy: Energy,
    /// Component breakdown of `energy`.
    pub energy_breakdown: EnergySummary,
    /// Total instructions retired.
    pub instructions: u64,
    /// Number of epochs simulated.
    pub epochs: usize,
    /// How many per-cluster epoch decisions landed on each operating point.
    pub op_histogram: Vec<u64>,
}

impl SimResult {
    /// The run's energy/latency summary for EDP scoring.
    pub fn edp_report(&self) -> EdpReport {
        EdpReport::new(self.energy, self.time.as_secs(), self.instructions)
    }
}

/// The epoch-stepped GPU simulation.
///
/// # Examples
///
/// ```
/// use gpu_sim::{
///     BasicBlock, GpuConfig, InstrClass, KernelSpec, MemoryBehavior, Simulation,
///     StaticGovernor, Time, Workload,
/// };
///
/// let cfg = GpuConfig::small_test();
/// let kernel = KernelSpec::new(
///     "k",
///     vec![BasicBlock::new(vec![InstrClass::IntAlu], 100, 0.0)],
///     2,
///     8,
///     MemoryBehavior::streaming(1 << 16),
/// );
/// let mut governor = StaticGovernor::default_point(&cfg.vf_table);
/// let mut sim = Simulation::new(cfg, Workload::new("demo", vec![kernel]));
/// let result = sim.run(&mut governor, Time::from_micros(1_000.0));
/// assert!(result.completed);
/// assert!(result.energy.joules() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    // Immutable once constructed: shared (never deep-cloned) between the
    // simulation, its clones, and every snapshot taken from it.
    config: Arc<GpuConfig>,
    power: Arc<PowerModel>,
    workload: Arc<Workload>,
    clusters: Vec<Cluster>,
    kernel_idx: usize,
    now: Time,
    records: Vec<EpochRecord>,
    /// Global epoch index of `records[0]`; epochs before it were pruned
    /// (or predate a [`SimSnapshot`] restore).
    record_base: usize,
    /// Per-cluster cumulative instruction counts at the start of
    /// `records[0]`, anchoring [`Simulation::time_at_instructions`] when
    /// history has been pruned.
    base_cums: Vec<u64>,
    /// Maximum number of recent [`EpochRecord`]s to retain (`None` =
    /// unbounded, the default).
    history_limit: Option<usize>,
    completed_at: Option<Time>,
    // Running aggregates over *all* epochs (including pruned ones) so
    // `result()` never needs the full record history.
    agg_energy_j: f64,
    agg_breakdown: EnergySummary,
    agg_op_histogram: Vec<u64>,
    /// Number of epochs covered by the aggregates (equals `epoch_index()`
    /// unless the simulation was restored from a snapshot).
    agg_epochs: usize,
    /// The cycle-loop engine used for subsequent epochs.
    engine: EngineMode,
    /// Stall cycles the engine accounted for in bulk (never ticked
    /// individually) since construction or restore. Always zero under
    /// [`EngineMode::NaiveTick`].
    skipped_cycles: u64,
}

/// A cheap checkpoint of a [`Simulation`]'s live machine state.
///
/// Captures the clusters (SM pipelines, caches, RNG), workload position,
/// clock, and per-cluster cumulative counters — but **not** the O(elapsed
/// epochs) record history. Its size is therefore independent of how long
/// the source simulation has been running, which is what makes the
/// breakpoint-dense data-generation methodology affordable: one snapshot
/// per breakpoint, one [`SimSnapshot::restore`] per operating-point replay.
#[derive(Debug, Clone)]
pub struct SimSnapshot {
    config: Arc<GpuConfig>,
    power: Arc<PowerModel>,
    workload: Arc<Workload>,
    clusters: Vec<Cluster>,
    kernel_idx: usize,
    now: Time,
    epoch_index: usize,
    completed_at: Option<Time>,
    engine: EngineMode,
}

impl SimSnapshot {
    /// The simulation time at which the snapshot was taken.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The number of epochs the source simulation had stepped.
    pub fn epoch_index(&self) -> usize {
        self.epoch_index
    }

    /// Per-cluster cumulative instruction counts at the snapshot point.
    pub fn cluster_instructions(&self, cluster: usize) -> u64 {
        self.clusters[cluster].cum_instructions()
    }

    /// Builds a live [`Simulation`] resuming from this snapshot with an
    /// empty record window and unbounded history. The restored simulation's
    /// [`Simulation::result`] covers only post-restore epochs.
    pub fn restore(&self) -> Simulation {
        self.restore_impl(None)
    }

    /// Like [`SimSnapshot::restore`], but retaining at most `limit` recent
    /// epoch records (see [`Simulation::set_history_limit`]).
    pub fn restore_with_history(&self, limit: usize) -> Simulation {
        self.restore_impl(Some(limit))
    }

    fn restore_impl(&self, history_limit: Option<usize>) -> Simulation {
        Simulation {
            config: Arc::clone(&self.config),
            power: Arc::clone(&self.power),
            workload: Arc::clone(&self.workload),
            clusters: self.clusters.clone(),
            kernel_idx: self.kernel_idx,
            now: self.now,
            records: Vec::new(),
            record_base: self.epoch_index,
            base_cums: self.clusters.iter().map(Cluster::cum_instructions).collect(),
            history_limit,
            completed_at: self.completed_at,
            agg_energy_j: 0.0,
            agg_breakdown: EnergySummary::default(),
            agg_op_histogram: vec![0; self.config.vf_table.len()],
            agg_epochs: 0,
            engine: self.engine,
            skipped_cycles: 0,
        }
    }
}

impl Simulation {
    /// Creates a simulation of `workload` on a GPU described by `config`,
    /// with the first kernel already assigned.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or a kernel's CTA shape does
    /// not fit the SM (see [`GpuConfig::validate`]).
    ///
    /// Both arguments accept either owned values or `Arc`s; passing an
    /// `Arc` lets many simulations (e.g. a datagen sweep's replays) share
    /// one decoded config/workload instead of deep-copying it per run.
    pub fn new(
        config: impl Into<Arc<GpuConfig>>,
        workload: impl Into<Arc<Workload>>,
    ) -> Simulation {
        let config: Arc<GpuConfig> = config.into();
        let workload: Arc<Workload> = workload.into();
        config.validate();
        let clusters = (0..config.num_clusters)
            .map(|id| {
                Cluster::with_sms(
                    id,
                    config.sms_per_cluster,
                    config.max_warps_per_sm,
                    config.issue_width,
                    config.memory.clone(),
                    config.latencies.clone(),
                    config.vf_table.default_index(),
                )
            })
            .collect();
        let power = Arc::new(PowerModel::new(config.power.clone()));
        let num_clusters = config.num_clusters;
        let num_ops = config.vf_table.len();
        let mut sim = Simulation {
            config,
            power,
            workload,
            clusters,
            kernel_idx: 0,
            now: Time::ZERO,
            records: Vec::new(),
            record_base: 0,
            base_cums: vec![0; num_clusters],
            history_limit: None,
            completed_at: None,
            agg_energy_j: 0.0,
            agg_breakdown: EnergySummary::default(),
            agg_op_histogram: vec![0; num_ops],
            agg_epochs: 0,
            engine: EngineMode::default(),
            skipped_cycles: 0,
        };
        sim.assign_current_kernel();
        sim
    }

    /// Selects the cycle-loop engine for subsequent epochs. Both engines
    /// produce bit-identical records and results; `NaiveTick` exists as the
    /// reference implementation for equivalence tests and benchmarks.
    pub fn set_engine(&mut self, engine: EngineMode) {
        self.engine = engine;
    }

    /// The cycle-loop engine in use.
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Stall cycles accounted for in bulk (instead of being ticked one by
    /// one) since construction or snapshot restore.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    /// Captures a checkpoint of the live machine state (clusters, caches,
    /// RNG, clock, cumulative counters) without the record history. See
    /// [`SimSnapshot`].
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            config: Arc::clone(&self.config),
            power: Arc::clone(&self.power),
            workload: Arc::clone(&self.workload),
            clusters: self.clusters.clone(),
            kernel_idx: self.kernel_idx,
            now: self.now,
            epoch_index: self.epoch_index(),
            completed_at: self.completed_at,
            engine: self.engine,
        }
    }

    /// Caps the retained record window to the `limit` most recent epochs
    /// (`None` = unbounded). Older records are pruned as new epochs are
    /// stepped; [`Simulation::result`] still covers every epoch because the
    /// aggregates are maintained incrementally, but
    /// [`Simulation::time_at_instructions`] can only resolve targets
    /// crossed inside the retained window.
    pub fn set_history_limit(&mut self, limit: Option<usize>) {
        self.history_limit = limit;
        self.prune_history();
    }

    fn prune_history(&mut self) {
        let Some(limit) = self.history_limit else { return };
        let excess = self.records.len().saturating_sub(limit.max(1));
        if excess == 0 {
            return;
        }
        for record in self.records.drain(..excess) {
            for (cluster, c) in record.clusters.iter().enumerate() {
                self.base_cums[cluster] = c.cum_instructions;
            }
        }
        self.record_base += excess;
    }

    fn assign_current_kernel(&mut self) {
        // One shared `Arc` across every cluster (and SM): assignment no
        // longer deep-copies the kernel spec per cluster.
        let kernel = Arc::clone(&self.workload.kernels()[self.kernel_idx]);
        let num_clusters = self.clusters.len();
        let seed = self.config.seed ^ (self.kernel_idx as u64).wrapping_mul(0x9E37_79B9);
        for cluster in &mut self.clusters {
            let ids: Vec<u64> = (0..kernel.num_ctas() as u64)
                .filter(|id| (*id as usize) % num_clusters == cluster.id())
                .collect();
            cluster.assign_kernel(Arc::clone(&kernel), ids, seed);
        }
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The operating-point table (shorthand for `config().vf_table`).
    pub fn vf_table(&self) -> &VfTable {
        &self.config.vf_table
    }

    /// The workload under simulation.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The retained epoch records — all of them by default, or the most
    /// recent window when a history limit is set (see
    /// [`Simulation::set_history_limit`]).
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Total number of epochs stepped since the simulation began,
    /// including epochs whose records were pruned or predate a snapshot
    /// restore.
    pub fn epoch_index(&self) -> usize {
        self.record_base + self.records.len()
    }

    /// The record of the epoch with global index `index`, if it is still
    /// retained.
    pub fn record_at(&self, index: usize) -> Option<&EpochRecord> {
        self.records.get(index.checked_sub(self.record_base)?)
    }

    /// Returns `true` once every kernel has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// The exact workload completion time, if complete.
    pub fn completed_at(&self) -> Option<Time> {
        self.completed_at
    }

    /// Total instructions retired so far, across clusters.
    pub fn total_instructions(&self) -> u64 {
        self.clusters.iter().map(Cluster::cum_instructions).sum()
    }

    /// Cumulative instructions retired by one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_instructions(&self, cluster: usize) -> u64 {
        self.clusters[cluster].cum_instructions()
    }

    /// Advances the simulation by one epoch with the given per-cluster
    /// operating-point indices, returning the new epoch's record.
    ///
    /// # Panics
    ///
    /// Panics if `ops` does not provide one index per cluster or an index is
    /// out of table range.
    pub fn step_epoch(&mut self, ops: &[usize]) -> &EpochRecord {
        assert_eq!(ops.len(), self.clusters.len(), "need one operating point per cluster");
        // Cheap `Arc` clones release the borrow on `self` for the cluster
        // loop below; the table itself is shared, not copied.
        let config = Arc::clone(&self.config);
        let power = Arc::clone(&self.power);
        let table = &config.vf_table;
        let epoch_len = config.epoch;
        let transition = config.dvfs_transition;
        let start = self.now;
        let engine = self.engine;

        let mut cluster_records = Vec::with_capacity(self.clusters.len());
        let mut epoch_skipped = 0u64;
        for (cluster, &op_index) in self.clusters.iter_mut().zip(ops) {
            let op = table
                .get(op_index)
                .unwrap_or_else(|| panic!("operating point index {op_index} out of range"));
            let (counters, skipped) =
                cluster.step_epoch_mode(engine, start, epoch_len, op_index, op, transition, &power);
            epoch_skipped += skipped;
            cluster_records.push(ClusterEpochRecord {
                counters,
                op_index,
                cum_instructions: cluster.cum_instructions(),
            });
        }
        self.now += epoch_len;
        self.agg_epochs += 1;
        self.skipped_cycles += epoch_skipped;
        obs::counter!("sim.epochs").inc(1);
        if epoch_skipped > 0 {
            obs::counter!("sim.skipped_cycles").inc(epoch_skipped);
        }
        let dt = epoch_len.as_secs();
        for c in &cluster_records {
            obs::histogram!("sim.epoch_instructions").record(c.counters.total_instructions());
            self.agg_energy_j += c.counters[CounterId::EnergyEpochJ];
            self.agg_breakdown.dynamic +=
                Energy::from_joules(c.counters[CounterId::PowerDynamicW] * dt);
            self.agg_breakdown.leakage +=
                Energy::from_joules(c.counters[CounterId::PowerLeakageW] * dt);
            self.agg_breakdown.memory +=
                Energy::from_joules(c.counters[CounterId::PowerMemoryW] * dt);
            self.agg_op_histogram[c.op_index] += 1;
        }
        self.records.push(EpochRecord {
            index: self.epoch_index(),
            start,
            len: epoch_len,
            clusters: cluster_records,
        });
        self.prune_history();

        if self.completed_at.is_none() && self.clusters.iter().all(Cluster::is_idle) {
            if self.kernel_idx + 1 < self.workload.kernels().len() {
                self.kernel_idx += 1;
                self.assign_current_kernel();
            } else {
                self.completed_at =
                    self.clusters.iter().filter_map(Cluster::finish_time).max().or(Some(self.now));
            }
        }
        self.records.last().expect("a record was just pushed")
    }

    /// Runs the workload under `governor` until completion or `max_time`,
    /// whichever comes first. The governor is reset first; the first epoch
    /// runs at the default operating point (there are no counters to decide
    /// from yet), matching the paper's inference loop.
    pub fn run(&mut self, governor: &mut dyn DvfsGovernor, max_time: Time) -> SimResult {
        let _scope = obs::scope!("sim.run", "{}@{}", self.workload.name(), governor.name());
        governor.reset();
        let config = Arc::clone(&self.config);
        let table = &config.vf_table;
        let default_ops = vec![table.default_index(); self.clusters.len()];
        // One reusable decision buffer for the whole run: the epoch loop is
        // the simulator's hottest path and must not allocate per epoch.
        let mut ops: Vec<usize> = Vec::with_capacity(self.clusters.len());
        while !self.is_complete() && self.now < max_time {
            ops.clear();
            match self.records.last() {
                None => ops.extend_from_slice(&default_ops),
                Some(record) => ops.extend(
                    record
                        .clusters
                        .iter()
                        .enumerate()
                        .map(|(i, c)| governor.decide(i, &c.counters, table)),
                ),
            }
            self.step_epoch(&ops);
        }
        obs::counter!("sim.runs").inc(1);
        self.result(governor.name())
    }

    /// Builds a [`SimResult`] from the current state. Aggregates are
    /// maintained incrementally as epochs are stepped, so this covers every
    /// epoch even when the record window has been pruned. On a simulation
    /// restored from a [`SimSnapshot`] it covers post-restore epochs only.
    pub fn result(&self, governor_name: &str) -> SimResult {
        SimResult {
            workload: self.workload.name().to_string(),
            governor: governor_name.to_string(),
            completed: self.is_complete(),
            time: self.completed_at.unwrap_or(self.now),
            energy: Energy::from_joules(self.agg_energy_j),
            energy_breakdown: self.agg_breakdown,
            instructions: self.total_instructions(),
            epochs: self.agg_epochs,
            op_histogram: self.agg_op_histogram.clone(),
        }
    }

    /// The absolute time at which `cluster` retired its `target`-th
    /// instruction, linearly interpolated within the epoch that crossed the
    /// threshold. Returns `None` if the cluster has not retired that many
    /// instructions yet.
    ///
    /// This is how the data-generation methodology measures per-cluster
    /// execution time to a fixed amount of work (`T_0` and `T_f` in the
    /// paper) without requiring every replay to reach a global breakpoint.
    ///
    /// Targets crossed in epochs that were pruned from the record window
    /// (or that predate a snapshot restore) also return `None`: the
    /// crossing time is no longer reconstructible. Callers that bound the
    /// history window must size it to cover every lookup they make.
    pub fn time_at_instructions(&self, cluster: usize, target: u64) -> Option<Time> {
        if target == 0 {
            return Some(Time::ZERO);
        }
        let mut prev_cum = self.base_cums[cluster];
        if target <= prev_cum {
            return None;
        }
        for record in &self.records {
            let c = &record.clusters[cluster];
            if c.cum_instructions >= target {
                let in_epoch = c.cum_instructions - prev_cum;
                let frac =
                    if in_epoch == 0 { 0.0 } else { (target - prev_cum) as f64 / in_epoch as f64 };
                let offset = Time::from_ps((record.len.as_ps() as f64 * frac) as u64);
                return Some(record.start + offset);
            }
            prev_cum = c.cum_instructions;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{ScheduleGovernor, StaticGovernor};
    use crate::isa::InstrClass;
    use crate::kernel::{BasicBlock, KernelSpec, MemoryBehavior};

    const HORIZON: Time = Time::from_ps(3_000 * 1_000_000); // 3 ms

    fn compute_workload() -> Workload {
        // Sized to span many epochs (~60 µs at the default clock) so the
        // governor's decisions — which start from the second epoch — matter.
        let kernel = KernelSpec::new(
            "compute",
            vec![BasicBlock::new(
                vec![InstrClass::IntAlu, InstrClass::FpAlu, InstrClass::IntAlu],
                3_000,
                0.0,
            )],
            2,
            16,
            MemoryBehavior::streaming(1 << 18),
        );
        Workload::new("compute", vec![kernel])
    }

    fn memory_workload() -> Workload {
        let kernel = KernelSpec::new(
            "stream",
            vec![BasicBlock::new(vec![InstrClass::LoadGlobal, InstrClass::IntAlu], 1_500, 0.0)],
            2,
            16,
            MemoryBehavior::streaming(64 << 20),
        );
        Workload::new("stream", vec![kernel])
    }

    #[test]
    fn run_completes_and_accounts_instructions() {
        let cfg = GpuConfig::small_test();
        let expected = compute_workload().total_instructions();
        let mut sim = Simulation::new(cfg.clone(), compute_workload());
        let mut gov = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut gov, HORIZON);
        assert!(result.completed);
        assert_eq!(result.instructions, expected);
        assert!(result.energy.joules() > 0.0);
        assert!(result.time > Time::ZERO);
        assert_eq!(result.op_histogram.iter().sum::<u64>() as usize, result.epochs * 2);
    }

    #[test]
    fn multi_kernel_sequencing() {
        let cfg = GpuConfig::small_test();
        let k = compute_workload().kernels()[0].clone();
        let workload = Workload::new("two", vec![k.clone(), k]);
        let expected = workload.total_instructions();
        let mut sim = Simulation::new(cfg.clone(), workload);
        let mut gov = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut gov, HORIZON);
        assert!(result.completed);
        assert_eq!(result.instructions, expected);
    }

    #[test]
    fn lower_frequency_slows_compute_bound_and_saves_energy() {
        let cfg = GpuConfig::small_test();
        let run = |idx: usize| {
            let mut sim = Simulation::new(cfg.clone(), compute_workload());
            let mut gov = StaticGovernor::new(idx);
            sim.run(&mut gov, HORIZON)
        };
        let fast = run(5);
        let slow = run(0);
        assert!(fast.completed && slow.completed);
        assert!(slow.time > fast.time, "compute-bound work must slow down");
        assert!(slow.energy < fast.energy, "lower V/f must save energy");
        let slowdown = slow.time.as_secs() / fast.time.as_secs();
        let freq_ratio = 1165.0 / 683.0;
        assert!(
            slowdown > 0.8 * freq_ratio,
            "compute-bound slowdown {slowdown:.2} should approach the frequency ratio {freq_ratio:.2}"
        );
    }

    #[test]
    fn memory_bound_workload_tolerates_low_frequency() {
        let cfg = GpuConfig::small_test();
        let run = |idx: usize| {
            let mut sim = Simulation::new(cfg.clone(), memory_workload());
            let mut gov = StaticGovernor::new(idx);
            sim.run(&mut gov, HORIZON)
        };
        let fast = run(5);
        let slow = run(0);
        let slowdown = slow.time.as_secs() / fast.time.as_secs();
        assert!(slowdown < 1.35, "memory-bound slowdown should be small, got {slowdown:.2}");
        // And EDP should improve: energy drops more than time grows.
        assert!(
            slow.edp_report().edp() < fast.edp_report().edp(),
            "memory-bound EDP should improve at the low point"
        );
    }

    #[test]
    fn snapshot_replay_is_deterministic() {
        let cfg = GpuConfig::small_test();
        let mut sim = Simulation::new(cfg.clone(), memory_workload());
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        sim.step_epoch(&ops);
        let snapshot = sim.clone();
        // Continue both the original and the snapshot identically.
        let mut a = sim;
        let mut b = snapshot;
        for _ in 0..3 {
            let ra = a.step_epoch(&ops).clusters[0].counters.clone();
            let rb = b.step_epoch(&ops).clusters[0].counters.clone();
            assert_eq!(ra, rb);
        }
        assert_eq!(a.total_instructions(), b.total_instructions());
    }

    #[test]
    fn snapshot_restore_matches_full_clone() {
        // A restored snapshot must step to byte-identical outcomes as a
        // full clone: same counters, same clock, same milestone timings.
        let cfg = GpuConfig::small_test();
        let mut sim = Simulation::new(cfg.clone(), memory_workload());
        let default_ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        let low_ops = vec![0usize; cfg.num_clusters];
        for _ in 0..4 {
            sim.step_epoch(&default_ops);
        }
        let mut cloned = sim.clone();
        let mut restored = sim.snapshot().restore();
        assert_eq!(restored.epoch_index(), cloned.epoch_index());
        assert_eq!(restored.now(), cloned.now());
        for step in 0..6 {
            let ops = if step % 2 == 0 { &low_ops } else { &default_ops };
            let rc = cloned.step_epoch(ops).clone();
            let rr = restored.step_epoch(ops).clone();
            assert_eq!(rc, rr, "diverged at replay step {step}");
        }
        assert_eq!(restored.total_instructions(), cloned.total_instructions());
        let target = cloned.cluster_instructions(0);
        assert_eq!(
            restored.time_at_instructions(0, target),
            cloned.time_at_instructions(0, target),
            "milestone timing must survive the restore"
        );
    }

    #[test]
    fn snapshot_size_is_independent_of_elapsed_epochs() {
        // The snapshot captures machine state only, so its footprint must
        // not grow with simulated history — unlike a full clone, whose
        // record vector grows by one epoch record per step.
        let cfg = GpuConfig::small_test();
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        let mut sim = Simulation::new(cfg.clone(), memory_workload());
        for _ in 0..2 {
            sim.step_epoch(&ops);
        }
        let snap_early = format!("{:?}", sim.snapshot()).len();
        let clone_early = format!("{:?}", sim.clone()).len();
        for _ in 0..200 {
            sim.step_epoch(&ops);
        }
        let snap_late = format!("{:?}", sim.snapshot()).len();
        let clone_late = format!("{:?}", sim.clone()).len();
        assert!(
            clone_late as f64 > clone_early as f64 * 2.0,
            "a full clone grows with history ({clone_early} -> {clone_late})"
        );
        assert!(
            (snap_late as f64) < snap_early as f64 * 1.5,
            "a snapshot must not grow with history ({snap_early} -> {snap_late})"
        );
    }

    #[test]
    fn history_limit_prunes_but_keeps_aggregates_and_window_lookups() {
        let cfg = GpuConfig::small_test();
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        let mut full = Simulation::new(cfg.clone(), memory_workload());
        let mut windowed = Simulation::new(cfg.clone(), memory_workload());
        windowed.set_history_limit(Some(4));
        for _ in 0..12 {
            full.step_epoch(&ops);
            windowed.step_epoch(&ops);
        }
        assert_eq!(windowed.records().len(), 4, "window must stay bounded");
        assert_eq!(windowed.epoch_index(), 12, "global epoch count keeps running");
        assert_eq!(full.result("g"), windowed.result("g"), "aggregates cover pruned epochs");
        // Lookups inside the window still resolve identically.
        let target = windowed.records()[1].clusters[0].cum_instructions;
        if target > windowed.records()[0].clusters[0].cum_instructions {
            assert_eq!(
                windowed.time_at_instructions(0, target),
                full.time_at_instructions(0, target)
            );
        }
        // Lookups before the window are reported as unresolvable, and the
        // retained records carry their global indices.
        let pre_window = full.records()[2].clusters[0].cum_instructions;
        if pre_window > 0 {
            assert_eq!(windowed.time_at_instructions(0, pre_window), None);
        }
        assert_eq!(windowed.records()[0].index, 8);
        assert!(windowed.record_at(3).is_none());
        assert_eq!(windowed.record_at(8).map(|r| r.index), Some(8));
    }

    #[test]
    fn forced_schedule_changes_execution() {
        let cfg = GpuConfig::small_test();
        let mut base = Simulation::new(cfg.clone(), compute_workload());
        let mut scaled = Simulation::new(cfg.clone(), compute_workload());
        let mut hold = StaticGovernor::new(5);
        let mut dip = ScheduleGovernor::new(vec![5, 0, 0, 5]);
        let r_base = base.run(&mut hold, HORIZON);
        let r_dip = scaled.run(&mut dip, HORIZON);
        assert!(r_dip.time > r_base.time, "dipping the clock must cost time");
        assert_eq!(r_dip.instructions, r_base.instructions, "same total work");
    }

    #[test]
    fn time_at_instructions_interpolates() {
        let cfg = GpuConfig::small_test();
        let mut sim = Simulation::new(cfg.clone(), compute_workload());
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        sim.step_epoch(&ops);
        sim.step_epoch(&ops);
        let cum1 = sim.records()[0].clusters[0].cum_instructions;
        let cum2 = sim.records()[1].clusters[0].cum_instructions;
        assert!(cum1 > 0);
        // Exactly at the first epoch's total: inside epoch 0.
        let t = sim.time_at_instructions(0, cum1).unwrap();
        assert!(t <= sim.records()[0].start + sim.records()[0].len);
        // Halfway into the second epoch's work.
        let mid = cum1 + (cum2 - cum1) / 2;
        let t_mid = sim.time_at_instructions(0, mid).unwrap();
        assert!(t_mid > sim.records()[1].start);
        assert!(t_mid < sim.records()[1].start + sim.records()[1].len);
        // Beyond what has executed.
        assert_eq!(sim.time_at_instructions(0, cum2 + 1_000_000), None);
        // Zero target.
        assert_eq!(sim.time_at_instructions(0, 0), Some(Time::ZERO));
    }

    #[test]
    fn result_before_completion_reports_partial() {
        let cfg = GpuConfig::small_test();
        let mut sim = Simulation::new(cfg.clone(), compute_workload());
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        sim.step_epoch(&ops);
        let r = sim.result("probe");
        assert!(!r.completed);
        assert_eq!(r.epochs, 1);
        assert_eq!(r.time, sim.now());
    }

    #[test]
    fn history_limit_boundaries() {
        let cfg = GpuConfig::small_test();
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        let mut full = Simulation::new(cfg.clone(), memory_workload());
        for _ in 0..6 {
            full.step_epoch(&ops);
        }

        // Limit 0 is clamped to a single retained record.
        let mut zero = full.clone();
        zero.set_history_limit(Some(0));
        assert_eq!(zero.records().len(), 1);
        assert_eq!(zero.records()[0].index, 5);
        assert_eq!(zero.epoch_index(), 6);
        assert_eq!(zero.result("g"), full.result("g"));

        // Limit == len prunes nothing.
        let mut exact = full.clone();
        exact.set_history_limit(Some(6));
        assert_eq!(exact.records().len(), 6);
        assert_eq!(exact.records()[0].index, 0);

        // Limit > len prunes nothing now; stepping fills up to the cap.
        let mut over = full.clone();
        over.set_history_limit(Some(7));
        assert_eq!(over.records().len(), 6);
        over.step_epoch(&ops);
        over.step_epoch(&ops);
        assert_eq!(over.records().len(), 7);
        assert_eq!(over.records()[0].index, 1);
    }

    #[test]
    fn restore_with_history_boundaries() {
        let cfg = GpuConfig::small_test();
        let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
        let mut sim = Simulation::new(cfg.clone(), memory_workload());
        for _ in 0..3 {
            sim.step_epoch(&ops);
        }
        let snap = sim.snapshot();
        let step4 = |mut s: Simulation| {
            for _ in 0..4 {
                s.step_epoch(&ops);
            }
            s
        };

        // Limit 0 behaves as 1: each epoch evicts the previous record.
        let r0 = step4(snap.restore_with_history(0));
        assert_eq!(r0.records().len(), 1);
        assert_eq!(r0.records()[0].index, 6, "records keep global indices");

        // Limit == post-restore epoch count retains everything...
        let r4 = step4(snap.restore_with_history(4));
        assert_eq!(r4.records().len(), 4);
        assert_eq!(r4.records()[0].index, 3, "window starts at the snapshot epoch");

        // ...as does a limit larger than what ever accumulates.
        let r9 = step4(snap.restore_with_history(9));
        assert_eq!(r9.records().len(), 4);

        // All three agree with an unbounded restore on the aggregates.
        let unlimited = step4(snap.restore());
        for r in [&r0, &r4, &r9] {
            assert_eq!(r.result("g"), unlimited.result("g"));
        }
    }

    #[test]
    fn engine_modes_are_equivalent_and_skip_reports_cycles() {
        let cfg = GpuConfig::small_test();
        let run = |mode| {
            let mut sim = Simulation::new(cfg.clone(), memory_workload());
            sim.set_engine(mode);
            let mut gov = StaticGovernor::default_point(&cfg.vf_table);
            let r = sim.run(&mut gov, HORIZON);
            assert!(r.completed);
            (r, sim.skipped_cycles())
        };
        let (naive, naive_skipped) = run(EngineMode::NaiveTick);
        let (skip, skipped) = run(EngineMode::CycleSkip);
        assert_eq!(naive, skip, "engines must agree on the full result");
        assert_eq!(naive_skipped, 0, "the reference engine never skips");
        assert!(skipped > 0, "a memory-bound run must skip stall cycles");
    }

    #[test]
    fn snapshot_preserves_engine_mode() {
        let cfg = GpuConfig::small_test();
        let mut sim = Simulation::new(cfg, memory_workload());
        sim.set_engine(EngineMode::NaiveTick);
        assert_eq!(sim.snapshot().restore().engine(), EngineMode::NaiveTick);
        assert_eq!(sim.engine(), EngineMode::NaiveTick);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::governor::StaticGovernor;
    use crate::isa::InstrClass;
    use crate::kernel::{BasicBlock, KernelSpec, MemoryBehavior};

    const HORIZON: Time = Time::from_ps(5_000 * 1_000_000);

    #[test]
    fn kernel_with_fewer_ctas_than_clusters_completes() {
        // 1 CTA on a 2-cluster GPU: one cluster never receives work.
        let cfg = GpuConfig::small_test();
        let kernel = KernelSpec::new(
            "single",
            vec![BasicBlock::new(vec![InstrClass::IntAlu], 2_000, 0.0)],
            2,
            1,
            MemoryBehavior::streaming(4096),
        );
        let expected = kernel.total_instructions();
        let mut sim = Simulation::new(cfg.clone(), Workload::new("w", vec![kernel]));
        let mut governor = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut governor, HORIZON);
        assert!(result.completed);
        assert_eq!(result.instructions, expected);
        assert_eq!(sim.cluster_instructions(1), 0, "cluster 1 had no CTAs");
    }

    #[test]
    fn unbalanced_kernel_sequence_completes_exactly() {
        // Alternating tiny and larger kernels exercise the epoch-aligned
        // kernel hand-over repeatedly.
        let cfg = GpuConfig::small_test();
        let tiny = KernelSpec::new(
            "tiny",
            vec![BasicBlock::new(vec![InstrClass::IntAlu], 50, 0.0)],
            2,
            3,
            MemoryBehavior::streaming(4096),
        );
        let big = KernelSpec::new(
            "big",
            vec![BasicBlock::new(vec![InstrClass::FpAlu, InstrClass::IntAlu], 800, 0.0)],
            2,
            8,
            MemoryBehavior::streaming(1 << 16),
        );
        let workload = Workload::new("seq", vec![tiny.clone(), big.clone(), tiny, big]);
        let expected = workload.total_instructions();
        let mut sim = Simulation::new(cfg.clone(), workload);
        let mut governor = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut governor, HORIZON);
        assert!(result.completed);
        assert_eq!(result.instructions, expected);
    }

    #[test]
    fn energy_breakdown_components_sum_to_total() {
        let cfg = GpuConfig::small_test();
        let kernel = KernelSpec::new(
            "k",
            vec![BasicBlock::new(vec![InstrClass::IntAlu, InstrClass::LoadGlobal], 1_000, 0.0)],
            2,
            8,
            MemoryBehavior::streaming(8 << 20),
        );
        let mut sim = Simulation::new(cfg.clone(), Workload::new("w", vec![kernel]));
        let mut governor = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut governor, HORIZON);
        let b = result.energy_breakdown;
        assert!(b.dynamic.joules() > 0.0);
        assert!(b.leakage.joules() > 0.0);
        assert!(b.memory.joules() > 0.0);
        let diff = (b.total().joules() - result.energy.joules()).abs();
        assert!(
            diff < result.energy.joules() * 1e-6,
            "components must sum to the total: {} vs {}",
            b.total().joules(),
            result.energy.joules()
        );
    }

    #[test]
    fn completion_time_is_before_the_last_epoch_end() {
        let cfg = GpuConfig::small_test();
        let kernel = KernelSpec::new(
            "k",
            vec![BasicBlock::new(vec![InstrClass::IntAlu], 3_000, 0.0)],
            2,
            8,
            MemoryBehavior::streaming(4096),
        );
        let mut sim = Simulation::new(cfg.clone(), Workload::new("w", vec![kernel]));
        let mut governor = StaticGovernor::default_point(&cfg.vf_table);
        let result = sim.run(&mut governor, HORIZON);
        assert!(result.completed);
        let last_epoch_end = sim.records().last().map(|r| r.start + r.len).expect("ran epochs");
        assert!(result.time <= last_epoch_end);
        assert!(result.time > Time::ZERO);
        assert_eq!(Some(result.time), sim.completed_at());
    }
}
