//! `decide-replay`: the per-epoch governor decision on real phase
//! behaviour. Set-up trains the deployed model and records every cluster's
//! counters while the evaluation programs run under it; the run replays
//! that recording through fresh `SsmdvfsGovernor`s, pass after pass, so
//! only the decision path (`plan` / `controller`) does timed work.

use std::time::Instant;

use gpu_sim::DvfsGovernor;
use ssmdvfs::SsmdvfsGovernor;

use crate::deploy::{deploy, Deployment};
use crate::layers::LayerLog;
use crate::report::Outcome;
use crate::stats::{median, Sample};
use crate::{recordings_digest, setups, trace, Ctx};

/// Decisions timed by one replay.
struct Replay {
    passes: usize,
    decisions: u64,
    mismatched: u64,
    /// Decisions per second of each pass.
    pass_rates: Vec<f64>,
    epoch_us: Vec<f64>,
}

impl Replay {
    /// Median per-pass throughput: a burst of host interference slows a
    /// few passes, not the figure.
    fn decisions_per_s(&self) -> f64 {
        median(&self.pass_rates)
    }
}

/// Replays the whole recording `passes` times, or until `seconds` have
/// passed when `passes` is `None`.
fn replay(dep: &Deployment, passes: Option<usize>, seconds: f64) -> Replay {
    let clusters = dep.config.num_clusters;
    let table = &dep.config.vf_table;
    let mut r = Replay {
        passes: 0,
        decisions: 0,
        mismatched: 0,
        pass_rates: Vec::new(),
        epoch_us: Vec::new(),
    };
    let per_pass: usize = dep.recordings.iter().map(|rec| rec.ops.len()).sum();
    let t0 = Instant::now();
    while passes.map_or(r.passes == 0 || t0.elapsed().as_secs_f64() < seconds, |n| r.passes < n) {
        let _span = trace::span("decide", "replay.pass");
        let pass_start = Instant::now();
        for rec in &dep.recordings {
            let mut governor =
                SsmdvfsGovernor::new(dep.model.clone(), Deployment::governor_config());
            for (epoch, expected) in rec.counters.chunks(clusters).zip(rec.ops.chunks(clusters)) {
                let start = Instant::now();
                for (cluster, (counters, &want)) in epoch.iter().zip(expected).enumerate() {
                    let op = governor.decide(cluster, std::hint::black_box(counters), table);
                    r.mismatched += u64::from(op != want);
                }
                r.epoch_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
        r.pass_rates.push(per_pass as f64 / pass_start.elapsed().as_secs_f64());
        r.decisions += per_pass as u64;
        r.passes += 1;
    }
    r
}

fn check_replay(out: &mut Outcome, r: &Replay) {
    out.count(r.decisions, r.mismatched);
    out.check(
        "replay-equals-recording",
        r.mismatched == 0,
        format!(
            "{} of {} replayed decisions differ from the recorded stream",
            r.mismatched, r.decisions
        ),
    );
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if !ctx.trace {
        let (dep, setup_s, same) =
            setups(|| deploy(ctx.seed, &mut LayerLog::default()), recordings_digest);
        out.set("setup_s", setup_s);
        out.check("setup-deterministic", same, "every set-up recorded identical decision streams");
        let r = replay(&dep, None, ctx.seconds);
        check_replay(&mut out, &r);
        out.set("ops_per_s", r.decisions_per_s());
        out.set(
            "op_p50_us",
            Sample::new(r.epoch_us.clone()).p50() / dep.config.num_clusters as f64,
        );
        println!(
            "replay: {} passes over {} epochs, {:.1} ns/decision",
            r.passes,
            dep.epochs(),
            1e9 / r.decisions_per_s()
        );
        return out;
    }

    let mut log = LayerLog::default();
    crate::set_tracing(true);
    let dep = deploy(ctx.seed, &mut log);
    crate::set_tracing(false);
    let untraced = replay(&dep, None, ctx.seconds);
    check_replay(&mut out, &untraced);
    crate::set_tracing(true);
    let (traced, plan) = {
        let _root = trace::span("run", "run.traced");
        let traced = replay(&dep, Some(untraced.passes), 0.0);
        let plan = dep.plan_cost();
        (traced, plan)
    };
    crate::set_tracing(false);
    check_replay(&mut out, &traced);
    log.epoch_us.extend(&traced.epoch_us);
    out.set_common_layers(trace::take(), &log);
    out.set_plan(plan);
    out.set(
        "obs.overhead_pct",
        (untraced.decisions_per_s() / traced.decisions_per_s() - 1.0) * 100.0,
    );
    out
}
