//! Per-layer bookkeeping shared by the workloads: stage timing with CPU
//! utilization, the recording governor wrapper, simulator accounting and
//! the direct `DecisionPlan` measurement.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{
    CounterId, DvfsGovernor, EpochCounters, GpuConfig, SimResult, Simulation, Time, VfTable,
    Workload,
};
use ssmdvfs::{CombinedModel, DecisionPlan, SsmdvfsConfig};

use crate::sys::{self, CpuClock};
use crate::trace;

/// What a run learned about each layer, beyond span times.
#[derive(Debug, Default)]
pub struct LayerLog {
    /// Per layer: (CPU seconds, wall seconds) over its stages.
    cpu: HashMap<&'static str, (f64, f64)>,
    /// Samples produced by data generation.
    pub datagen_samples: usize,
    /// Simulated microseconds, over the simulations the benchmark ran.
    pub sim_us: f64,
    /// Host seconds those simulations took (summed over threads).
    pub sim_busy_s: f64,
    /// Cycles the simulator skipped instead of ticking.
    pub skipped_cycles: f64,
    /// Simulated cluster cycles.
    pub total_cycles: f64,
    /// Wall time of each epoch's decisions for every cluster, in µs.
    pub epoch_us: Vec<f64>,
    /// Validation accuracy of the trained decision head.
    pub decision_accuracy: f64,
    /// Validation MAPE of the trained calibrator head, in percent.
    pub calibrator_mape_pct: f64,
    /// Sparse ÷ dense FLOPs of the pruned model.
    pub flops_ratio: f64,
}

impl LayerLog {
    /// Process CPU time ÷ (wall × nproc) over `layer`'s stages.
    pub fn cpu_util(&self, layer: &str) -> f64 {
        match self.cpu.get(layer) {
            Some(&(cpu, wall)) if wall > 0.0 => cpu / (wall * sys::nproc() as f64),
            _ => 0.0,
        }
    }

    /// Folds one finished simulation into the simulator totals.
    pub fn add_sim(&mut self, sim: &SimStats) {
        self.sim_us += sim.simulated_us;
        self.sim_busy_s += sim.host_s;
        self.skipped_cycles += sim.skipped_cycles;
        self.total_cycles += sim.total_cycles;
    }
}

/// Runs `f` as one stage of `layer`: a span plus CPU-utilization
/// accounting.
pub fn stage<T>(log: &mut LayerLog, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = trace::span(layer, name);
    let clock = CpuClock::start();
    let out = f();
    let (cpu, wall) = clock.finish();
    let slot = log.cpu.entry(layer).or_default();
    slot.0 += cpu;
    slot.1 += wall;
    out
}

/// Host-side accounting of one simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Simulated time, µs.
    pub simulated_us: f64,
    /// Host wall time of `Simulation::run`, seconds.
    pub host_s: f64,
    /// Cycles skipped by the cycle-skip engine.
    pub skipped_cycles: f64,
    /// Simulated cluster cycles.
    pub total_cycles: f64,
}

/// One governed simulation with its decision stream.
pub struct Recorded {
    /// The simulation result.
    pub result: SimResult,
    /// Host accounting.
    pub stats: SimStats,
    /// Every decision, epoch-major and cluster-minor.
    pub ops: Vec<usize>,
    /// The counters each decision was made on, in the same order.
    pub counters: Vec<EpochCounters>,
    /// Wall time of each epoch's decisions, µs.
    pub epoch_us: Vec<f64>,
}

/// Wraps a governor to record its decisions and time each epoch's batch of
/// per-cluster decisions, which `Simulation::run` makes back to back.
struct Recorder<'a> {
    inner: &'a mut dyn DvfsGovernor,
    clusters: usize,
    ops: Vec<usize>,
    epoch_us: Vec<f64>,
    epoch_start: Instant,
}

impl DvfsGovernor for Recorder<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, cluster: usize, counters: &EpochCounters, table: &VfTable) -> usize {
        if cluster == 0 {
            self.epoch_start = Instant::now();
        }
        let op = self.inner.decide(cluster, counters, table);
        self.ops.push(op);
        if cluster + 1 == self.clusters {
            self.epoch_us.push(self.epoch_start.elapsed().as_secs_f64() * 1e6);
        }
        op
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.ops.clear();
        self.epoch_us.clear();
    }
}

/// Simulates `workload` under `governor` up to `horizon` inside a `sim`
/// span, recording the decision stream and the counters it was made on.
pub fn run_recorded(
    config: &Arc<GpuConfig>,
    workload: &Arc<Workload>,
    governor: &mut dyn DvfsGovernor,
    horizon: Time,
    parent: Option<u64>,
    label: &str,
) -> Recorded {
    let _span = trace::span_under(parent, "sim", label);
    let mut recorder = Recorder {
        inner: governor,
        clusters: config.num_clusters,
        ops: Vec::new(),
        epoch_us: Vec::new(),
        epoch_start: Instant::now(),
    };
    let mut sim = Simulation::new(Arc::clone(config), Arc::clone(workload));
    let t0 = Instant::now();
    let result = sim.run(&mut recorder, horizon);
    let host_s = t0.elapsed().as_secs_f64();
    let records = sim.records();
    // The last epoch's counters arrive after the run ends; every earlier
    // epoch's counters drove one decision per cluster.
    let counters: Vec<EpochCounters> = records[..records.len().saturating_sub(1)]
        .iter()
        .flat_map(|r| r.clusters.iter().map(|c| c.counters.clone()))
        .collect();
    let total_cycles = records
        .iter()
        .flat_map(|r| r.clusters.iter())
        .map(|c| c.counters[CounterId::TotalCycles])
        .sum();
    Recorded {
        stats: SimStats {
            simulated_us: result.time.as_micros(),
            host_s,
            skipped_cycles: sim.skipped_cycles() as f64,
            total_cycles,
        },
        result,
        ops: recorder.ops,
        counters,
        epoch_us: recorder.epoch_us,
    }
}

/// Direct measurement of the compiled decision plan on recorded counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanCost {
    /// ns per `DecisionPlan::decide_slot`.
    pub decide_ns: f64,
    /// ns per `DecisionPlan::decide_slot_quantized`.
    pub int8_ns: f64,
    /// Share of exact-path decisions the per-cluster memo answered.
    pub memo_hit_rate: f64,
}

/// Decisions timed on each datapath by [`measure_plan`].
const PLAN_DECISIONS: usize = 200_000;

/// Replays `streams` (each epoch-major, cluster-minor counters of one run)
/// through a freshly compiled plan with one slot per cluster, until at
/// least [`PLAN_DECISIONS`] decisions ran on each datapath.
pub fn measure_plan(
    model: &CombinedModel,
    preset: f64,
    clusters: usize,
    table_len: usize,
    streams: &[&[EpochCounters]],
) -> PlanCost {
    let _span = trace::span("plan", "plan.direct");
    let mut plan = DecisionPlan::compile(model, &SsmdvfsConfig::new(preset));
    let per_pass: usize = streams.iter().map(|s| s.len()).sum();
    if per_pass == 0 {
        return PlanCost::default();
    }
    let passes = PLAN_DECISIONS.div_ceil(per_pass);
    let mut run = |quantized: bool| -> (f64, u64) {
        let mut hits = 0u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            for stream in streams {
                let mut slots = vec![plan.new_slot(); clusters];
                for (i, counters) in stream.iter().enumerate() {
                    let slot = &mut slots[i % clusters];
                    let d = if quantized {
                        plan.decide_slot_quantized(slot, std::hint::black_box(counters), table_len)
                    } else {
                        plan.decide_slot(slot, std::hint::black_box(counters), table_len)
                    };
                    hits += u64::from(d.memo_hit);
                    std::hint::black_box(d.op);
                }
            }
        }
        (t0.elapsed().as_secs_f64() * 1e9 / (passes * per_pass) as f64, hits)
    };
    let (decide_ns, hits) = run(false);
    let (int8_ns, _) = run(true);
    PlanCost { decide_ns, int8_ns, memo_hit_rate: hits as f64 / (passes * per_pass) as f64 }
}
