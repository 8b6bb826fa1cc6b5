//! `fleet`: many simulated GPUs on every core, each deciding through one
//! shared `DecisionService` shard. The simulator does almost all the work
//! and every decision is a closed-loop round trip with a batch of about
//! one, so serving work that spins or adds threads takes a simulator core
//! and shows up here, where `serve-load` cannot see it.
//!
//! A pass runs one GPU per evaluation program. Each pass seeds its GPUs
//! from the run seed and the pass number, so a run's median covers several
//! inputs: simulator cost per epoch moves with the warp streams (how many
//! stall cycles can be skipped).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gpu_sim::{
    mix_seed, run_fleet, DecisionSource, EpochCounters, FleetGpuResult, GpuConfig, Time, VfTable,
    Workload,
};
use ssmdvfs::{DecisionClient, DecisionService, ServeConfig, SsmdvfsGovernor};

use crate::deploy::{deploy, Deployment, HORIZON_US};
use crate::layers::{run_recorded, LayerLog};
use crate::report::{ratio, Outcome};
use crate::stats::{median, Sample};
use crate::{recordings_digest, setups, sys, trace, Ctx};

/// Fleet GPUs per pass whose decision streams are checked against a
/// private governor.
const CHECKED_GPUS: usize = 2;
/// Every `SPAN_EVERY`-th decision gets a span in the traced run.
const SPAN_EVERY: u64 = 64;

/// Timings one fleet worker collected.
#[derive(Default)]
struct WorkerLog {
    /// Decision round trips, µs.
    round_trip_us: Vec<f32>,
    /// Host time per GPU epoch (simulation plus that epoch's decisions),
    /// µs: the gap between consecutive epochs' first decisions.
    epoch_us: Vec<f32>,
    /// GPU and instant of the last first-cluster decision.
    last_epoch: Option<(usize, Instant)>,
}

/// Forwards decisions to the service and times them, keeping one
/// uncontended log per fleet worker (worker `w` runs GPUs `w, w + jobs, …`).
struct TimedSource {
    client: DecisionClient,
    workers: Vec<Mutex<WorkerLog>>,
    fallbacks: AtomicU64,
    seq: AtomicU64,
    parent: Option<u64>,
}

impl DecisionSource for TimedSource {
    fn decide(&self, gpu: usize, cluster: usize, counters: &EpochCounters, _: &VfTable) -> usize {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let _span = seq
            .is_multiple_of(SPAN_EVERY)
            .then(|| trace::request_span(self.parent, "serve", "fleet.decide", seq));
        let t0 = Instant::now();
        let d = self.client.decide(gpu, cluster, counters);
        let rt = t0.elapsed();
        let mut log = self.workers[gpu % self.workers.len()]
            .lock()
            .expect("worker log poisoned by a panicking worker");
        log.round_trip_us.push(rt.as_secs_f32() * 1e6);
        if cluster == 0 {
            if let Some((last_gpu, at)) = log.last_epoch {
                if last_gpu == gpu {
                    log.epoch_us.push((t0 - at).as_secs_f32() * 1e6);
                }
            }
            log.last_epoch = Some((gpu, t0));
        }
        if d.fallback {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        d.op_index
    }
}

/// One fleet pass.
struct Pass {
    wall_s: f64,
    gpus: usize,
    decisions: u64,
    mismatched: u64,
    incomplete: usize,
    fallbacks: u64,
    round_trip_us: Vec<f64>,
    epoch_us: Vec<f64>,
    simulated_us: f64,
    mean_batch: f64,
}

fn fleet_pass(dep: &Deployment, seed: u64, jobs: usize) -> Pass {
    sys::release_free_heap();
    let config = Arc::new(GpuConfig::titan_x().with_seed(seed));
    let workloads: Vec<Arc<Workload>> =
        dep.recordings.iter().map(|r| Arc::clone(&r.workload)).collect();
    let span = trace::span("fleet", "fleet.pass");
    let service = DecisionService::start(
        dep.model.clone(),
        Deployment::governor_config(),
        dep.config.vf_table.clone(),
        ServeConfig::default(),
    );
    let source = TimedSource {
        client: service.client(),
        workers: (0..jobs).map(|_| Mutex::default()).collect(),
        fallbacks: AtomicU64::new(0),
        seq: AtomicU64::new(0),
        parent: trace::current(),
    };
    let t0 = Instant::now();
    let results = run_fleet(&config, &workloads, Time::from_micros(HORIZON_US), jobs, &source);
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    drop(span);
    let decisions = results.iter().map(|r| r.decisions.len() as u64).sum();
    let incomplete = results.iter().filter(|r| !r.result.completed).count();
    let simulated_us = results.iter().map(|r| r.result.time.as_micros()).sum();
    let mismatched =
        results[..CHECKED_GPUS].iter().map(|r| private_mismatches(dep, &config, r)).sum();
    let (mut round_trip_us, mut epoch_us) = (Vec::new(), Vec::new());
    for log in source.workers {
        let log = log.into_inner().expect("worker log poisoned by a panicking worker");
        round_trip_us.extend(log.round_trip_us.into_iter().map(f64::from));
        epoch_us.extend(log.epoch_us.into_iter().map(f64::from));
    }
    Pass {
        wall_s,
        gpus: results.len(),
        decisions,
        mismatched,
        incomplete,
        fallbacks: source.fallbacks.into_inner(),
        round_trip_us,
        epoch_us,
        simulated_us,
        mean_batch: stats.mean_batch(),
    }
}

/// Decisions in which a fleet GPU's stream differs from the same program
/// run under a private governor (a length difference counts each missing
/// decision).
fn private_mismatches(dep: &Deployment, config: &Arc<GpuConfig>, r: &FleetGpuResult) -> u64 {
    let workload = &dep.recordings[r.gpu].workload;
    let mut governor = SsmdvfsGovernor::new(dep.model.clone(), Deployment::governor_config());
    let horizon = Time::from_micros(HORIZON_US);
    let private =
        run_recorded(config, workload, &mut governor, horizon, trace::current(), "private");
    let differ = r.decisions.iter().zip(&private.ops).filter(|(a, b)| a != b).count();
    (differ + r.decisions.len().abs_diff(private.ops.len())) as u64
}

/// Fleet passes, `passes` of them or until `seconds` have passed; pass `k`
/// seeds its GPUs with `mix_seed(seed, k)`.
struct Fleet {
    passes: Vec<Pass>,
}

impl Fleet {
    fn run(dep: &Deployment, seed: u64, passes: Option<usize>, seconds: f64) -> Fleet {
        let jobs = sys::nproc();
        let t0 = Instant::now();
        let mut out = Vec::new();
        while passes
            .map_or(out.is_empty() || t0.elapsed().as_secs_f64() < seconds, |n| out.len() < n)
        {
            out.push(fleet_pass(dep, mix_seed(seed, out.len() as u64), jobs));
        }
        Fleet { passes: out }
    }

    fn decisions(&self) -> u64 {
        self.passes.iter().map(|p| p.decisions).sum()
    }

    fn wall_s(&self) -> f64 {
        self.passes.iter().map(|p| p.wall_s).sum()
    }

    /// Median per-pass throughput in GPU epochs per second (one epoch of
    /// one GPU: its simulation plus a decision for every cluster).
    fn epochs_per_s(&self, clusters: usize) -> f64 {
        let rates: Vec<f64> =
            self.passes.iter().map(|p| p.decisions as f64 / clusters as f64 / p.wall_s).collect();
        median(&rates)
    }

    fn round_trips(&self) -> Sample {
        Sample::new(self.passes.iter().flat_map(|p| p.round_trip_us.iter().copied()).collect())
    }

    fn gpu_epochs(&self) -> Sample {
        Sample::new(self.passes.iter().flat_map(|p| p.epoch_us.iter().copied()).collect())
    }

    fn check(&self, out: &mut Outcome) {
        let failed: u64 = self.passes.iter().map(|p| p.mismatched + p.fallbacks).sum();
        let incomplete: usize = self.passes.iter().map(|p| p.incomplete).sum();
        let gpus: usize = self.passes.iter().map(|p| p.gpus).sum();
        out.count(self.decisions(), failed);
        out.check(
            "fleet-streams",
            failed == 0,
            format!(
                "{failed} of {} served decisions fell back or differ from a private governor's \
                 (GPUs 0 and 1 of every pass)",
                self.decisions()
            ),
        );
        out.check(
            "fleet-complete",
            incomplete == 0,
            format!("{incomplete} of {gpus} GPU runs did not complete"),
        );
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if !ctx.trace {
        let (dep, setup_s, same) =
            setups(|| deploy(ctx.seed, &mut LayerLog::default()), recordings_digest);
        out.set("setup_s", setup_s);
        out.check("setup-deterministic", same, "every set-up recorded identical decision streams");
        let fleet = Fleet::run(&dep, ctx.seed, None, ctx.seconds);
        fleet.check(&mut out);
        let rt = fleet.round_trips();
        let epochs = fleet.gpu_epochs();
        out.set("ops_per_s", fleet.epochs_per_s(dep.config.num_clusters));
        out.set("op_p50_us", epochs.p50());
        println!(
            "fleet: {} passes of {} GPUs, {:.2} s per pass, GPU epoch p50 {:.0} µs / p99 {:.0} µs \
             ({} samples), decision round trip p50 {:.1} µs / p99 {:.1} µs ({} samples)",
            fleet.passes.len(),
            dep.recordings.len(),
            fleet.wall_s() / fleet.passes.len() as f64,
            epochs.p50(),
            epochs.supported_quantile(0.99),
            epochs.len(),
            rt.p50(),
            rt.supported_quantile(0.99),
            rt.len()
        );
        return out;
    }

    let mut log = LayerLog::default();
    crate::set_tracing(true);
    let dep = deploy(ctx.seed, &mut log);
    crate::set_tracing(false);
    let untraced = Fleet::run(&dep, ctx.seed, None, ctx.seconds);
    untraced.check(&mut out);
    crate::set_tracing(true);
    let (traced, plan) = {
        let _root = trace::span("run", "run.traced");
        let traced = Fleet::run(&dep, ctx.seed, Some(untraced.passes.len()), 0.0);
        let plan = dep.plan_cost();
        (traced, plan)
    };
    crate::set_tracing(false);
    traced.check(&mut out);
    out.set_common_layers(trace::take(), &log);
    out.set_plan(plan);
    let rt = traced.round_trips();
    let rt_total_s: f64 = traced.passes.iter().flat_map(|p| &p.round_trip_us).sum::<f64>() * 1e-6;
    let simulated_us: f64 = traced.passes.iter().map(|p| p.simulated_us).sum();
    let batches: Vec<f64> = traced.passes.iter().map(|p| p.mean_batch).collect();
    out.set("fleet.decide_share", ratio(rt_total_s, sys::nproc() as f64 * traced.wall_s()));
    out.set("fleet.decide_p99_over_p50", ratio(rt.supported_quantile(0.99), rt.p50()));
    out.set("fleet.mean_batch", batches.iter().sum::<f64>() / batches.len() as f64);
    out.set("fleet.sim_us_per_s", ratio(simulated_us, traced.wall_s()));
    let clusters = dep.config.num_clusters;
    let overhead = untraced.epochs_per_s(clusters) / traced.epochs_per_s(clusters) - 1.0;
    out.set("obs.overhead_pct", overhead * 100.0);
    out
}
