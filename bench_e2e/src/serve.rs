//! `serve-load`: the decision-serving plane under two kinds of load, with
//! the deployed model and the recorded counters as requests.
//!
//! 64 GPUs × 24 clusters talk to one `DecisionService` shard with the
//! default `ServeConfig`. Each GPU runs recorded evaluation programs back to
//! back, so the service holds a fixed 1536 `(gpu, cluster)` keys whose
//! calibration state carries across programs, as on a real GPU.
//!
//! * **Closed loop**: one client thread per core (at most two) pipelines
//!   windows of 64 requests and waits for them — saturation, where batching
//!   does the work.
//! * **Open loop**: one submitter sends a fixed rate and one collector
//!   waits on the replies; latency is timed from each request's due time,
//!   so a late generator is charged to the requests it delayed.
//!
//! After each phase every answer is checked against a sequential
//! `DecisionPlan` replay of its key's requests.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use gpu_sim::{EpochCounters, SplitMix64};
use ssmdvfs::{
    ClusterSlot, DecisionClient, DecisionPlan, DecisionRequest, DecisionService, PendingDecision,
    ServeConfig, ServeStats,
};

use crate::deploy::{deploy, Deployment};
use crate::layers::LayerLog;
use crate::report::{ratio, Outcome};
use crate::stats::{median, open_loop_latencies_us, Sample};
use crate::{recordings_digest, setups, sys, trace, Ctx};

/// GPUs generating requests.
const GPUS: usize = 64;
/// Requests a closed-loop client submits before waiting.
const WINDOW: usize = 64;
/// Open-loop arrival rate, requests per second.
const OPEN_RATE: f64 = 50_000.0;
/// Share of `--seconds` spent in the closed loop; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.4;
/// Closed-loop throughput is the median over chunks of this many seconds.
const CHUNK_S: f64 = 0.2;
/// Rates of the traced run's latency ladder, requests per second.
const LADDER: [f64; 5] = [25e3, 50e3, 100e3, 200e3, 400e3];
/// Seconds per ladder rung.
const LADDER_SECONDS: f64 = 0.8;
/// Latency limit on a rung's p99, µs.
const LADDER_P99_US: f64 = 100.0;
/// Every `SPAN_EVERY`-th request gets a span in the traced run.
const SPAN_EVERY: u64 = 64;
/// The generator sleeps when the next request is due further away than
/// this, and yields the core otherwise.
const SLEEP_THRESHOLD: Duration = Duration::from_micros(200);
/// Answer code of a deadline fallback (operating-point indices are small).
const FALLBACK: u8 = u8::MAX;

/// One request of the stream.
struct Req<'a> {
    gpu: usize,
    cluster: usize,
    counters: &'a EpochCounters,
}

struct Lane {
    gpu: usize,
    program: usize,
    epoch: usize,
}

/// Deterministic request stream over a set of GPUs: each steps through its
/// current program's recorded epochs, one epoch (all clusters) per turn,
/// and starts a seed-chosen program when one ends.
struct Stream<'a> {
    dep: &'a Deployment,
    lanes: Vec<Lane>,
    turn: usize,
    cluster: usize,
    rng: SplitMix64,
}

impl<'a> Stream<'a> {
    fn new(dep: &'a Deployment, gpus: impl Iterator<Item = usize>, seed: u64) -> Stream<'a> {
        let mut rng = SplitMix64::new(seed);
        let programs = dep.recordings.len() as u64;
        let lanes = gpus
            .map(|gpu| Lane { gpu, program: rng.next_below(programs) as usize, epoch: 0 })
            .collect();
        Stream { dep, lanes, turn: 0, cluster: 0, rng }
    }

    fn next(&mut self) -> Req<'a> {
        let dep: &'a Deployment = self.dep;
        let clusters = dep.config.num_clusters;
        let lane = &mut self.lanes[self.turn];
        let rec = &dep.recordings[lane.program];
        let req = Req {
            gpu: lane.gpu,
            cluster: self.cluster,
            counters: &rec.counters[lane.epoch * clusters + self.cluster],
        };
        self.cluster += 1;
        if self.cluster == clusters {
            self.cluster = 0;
            lane.epoch += 1;
            if lane.epoch * clusters >= rec.ops.len() {
                lane.program = self.rng.next_below(dep.recordings.len() as u64) as usize;
                lane.epoch = 0;
            }
            self.turn = (self.turn + 1) % self.lanes.len();
        }
        req
    }
}

/// The GPUs closed-loop client `k` of `clients` drives.
fn client_gpus(k: usize, clients: usize) -> impl Iterator<Item = usize> {
    (k..GPUS).step_by(clients)
}

fn submit(client: &DecisionClient, r: &Req<'_>) -> PendingDecision {
    client.submit(DecisionRequest { gpu: r.gpu, cluster: r.cluster, counters: r.counters.clone() })
}

fn answer(d: &ssmdvfs::Decision) -> u8 {
    if d.fallback {
        FALLBACK
    } else {
        u8::try_from(d.op_index).expect("operating-point index fits a byte")
    }
}

fn start(dep: &Deployment) -> DecisionService {
    DecisionService::start(
        dep.model.clone(),
        Deployment::governor_config(),
        dep.config.vf_table.clone(),
        ServeConfig::default(),
    )
}

/// Answers that differ from a sequential plan replay of the same stream
/// (fallbacks included).
fn mismatches(
    dep: &Deployment,
    gpus: impl Iterator<Item = usize>,
    seed: u64,
    answers: &[u8],
) -> u64 {
    let _span = trace::span("plan", "plan.verify");
    let mut plan = DecisionPlan::compile(&dep.model, &Deployment::governor_config());
    let mut slots: HashMap<(usize, usize), ClusterSlot> = HashMap::new();
    let mut stream = Stream::new(dep, gpus, seed);
    let table_len = dep.config.vf_table.len();
    let mut wrong = 0;
    for &got in answers {
        let r = stream.next();
        let slot = slots.entry((r.gpu, r.cluster)).or_insert_with(|| plan.new_slot());
        let want = plan.decide_slot(slot, r.counters, table_len).op;
        wrong += u64::from(usize::from(got) != want);
    }
    wrong
}

/// Closed-loop outcome.
struct Closed {
    clients: usize,
    answers: Vec<Vec<u8>>,
    /// Median requests per second over the whole chunks of the phase.
    rps: f64,
    stats: ServeStats,
}

fn closed_loop(dep: &Deployment, seconds: f64, seed: u64) -> Closed {
    sys::release_free_heap();
    let _span = trace::span("serve", "serve.closed");
    let parent = trace::current();
    let service = start(dep);
    let clients = sys::nproc().clamp(1, 2);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<u8>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                let client = service.client();
                scope.spawn(move || {
                    let mut stream = Stream::new(dep, client_gpus(k, clients), seed ^ k as u64);
                    let mut pending = Vec::with_capacity(WINDOW);
                    let (mut answers, mut done_at) = (Vec::new(), Vec::new());
                    while Instant::now() < deadline {
                        for _ in 0..WINDOW {
                            let r = stream.next();
                            let sent = answers.len() as u64 + pending.len() as u64;
                            let id = (k as u64) << 48 | sent;
                            let span = sent
                                .is_multiple_of(SPAN_EVERY)
                                .then(|| trace::request_span(parent, "serve", "request", id));
                            pending.push((submit(&client, &r), span));
                        }
                        for (p, _span) in pending.drain(..) {
                            answers.push(answer(&p.wait()));
                        }
                        done_at.push(t0.elapsed().as_secs_f64());
                    }
                    (answers, done_at)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    // Requests completed per chunk, over the chunks that ended in the phase.
    let chunks = (wall_s / CHUNK_S) as usize;
    let mut per_chunk = vec![0.0; chunks];
    for (_, done_at) in &per_client {
        for t in done_at {
            if let Some(c) = per_chunk.get_mut((t / CHUNK_S) as usize) {
                *c += WINDOW as f64 / CHUNK_S;
            }
        }
    }
    let total: usize = per_client.iter().map(|(a, _)| a.len()).sum();
    let rps = if chunks == 0 { total as f64 / wall_s } else { median(&per_chunk) };
    Closed { clients, answers: per_client.into_iter().map(|(a, _)| a).collect(), rps, stats }
}

/// Open-loop outcome; latencies in µs.
struct Open {
    rate: f64,
    requests: u64,
    answers: Vec<u8>,
    latency: Sample,
    service: Sample,
    gen_late: Sample,
    backlog_growing: bool,
    stats: ServeStats,
}

/// Sleeps or yields until `due`; never spins on the clock.
fn pace(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SLEEP_THRESHOLD {
            std::thread::sleep(left - SLEEP_THRESHOLD / 2);
        } else {
            std::thread::yield_now();
        }
    }
}

fn open_loop(dep: &Deployment, rate: f64, seconds: f64, seed: u64) -> Open {
    sys::release_free_heap();
    let _span = trace::span("serve", "serve.open");
    let parent = trace::current();
    let service = start(dep);
    let n = (rate * seconds) as u64;
    let (tx, rx) = mpsc::channel::<(PendingDecision, Option<trace::Span>)>();
    let t0 = Instant::now();
    let (gen_late, (completed, service_us, answers)) = std::thread::scope(|scope| {
        let client = service.client();
        let submitter = scope.spawn(move || {
            let mut stream = Stream::new(dep, 0..GPUS, seed);
            let mut late = Vec::with_capacity(n as usize);
            for i in 0..n {
                let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                pace(due);
                late.push((Instant::now() - due).as_secs_f64() * 1e6);
                let r = stream.next();
                let span = i
                    .is_multiple_of(SPAN_EVERY)
                    .then(|| trace::request_span(parent, "serve", "request", i));
                tx.send((submit(&client, &r), span)).expect("the collector outlives the submitter");
            }
            late
        });
        let collector = scope.spawn(move || {
            let mut completed = Vec::with_capacity(n as usize);
            let mut service_us = Vec::with_capacity(n as usize);
            let mut answers = Vec::with_capacity(n as usize);
            for (p, _span) in rx {
                let d = p.wait();
                completed.push(t0.elapsed().as_secs_f64());
                service_us.push(d.latency.as_secs_f64() * 1e6);
                answers.push(answer(&d));
            }
            (completed, service_us, answers)
        });
        (
            submitter.join().expect("open-loop submitter panicked"),
            collector.join().expect("open-loop collector panicked"),
        )
    });
    let stats = service.shutdown();
    let latencies = open_loop_latencies_us(rate, &completed);
    let quarter = latencies.len() / 4;
    let first = Sample::new(latencies[..quarter].to_vec()).p50();
    let last = Sample::new(latencies[latencies.len() - quarter..].to_vec()).p50();
    Open {
        rate,
        requests: n,
        answers,
        latency: Sample::new(latencies),
        service: Sample::new(service_us),
        gen_late: Sample::new(gen_late),
        backlog_growing: last > 2.0 * first + 50.0,
        stats,
    }
}

/// Checks every answer of both phases; returns the failed requests.
fn check_phases(out: &mut Outcome, dep: &Deployment, seed: u64, closed: &Closed, open: &Open) {
    let (mut requests, mut wrong) = (0u64, 0u64);
    for (k, answers) in closed.answers.iter().enumerate() {
        requests += answers.len() as u64;
        wrong += mismatches(dep, client_gpus(k, closed.clients), seed ^ k as u64, answers);
    }
    out.count(requests, wrong);
    out.check(
        "closed-loop-answers",
        wrong == 0 && closed.stats.deadline_misses == 0,
        format!("{wrong} of {requests} answers fell back or differ from a sequential plan replay"),
    );
    let open_failed = open_failures(dep, seed, open);
    out.count(open.requests, open_failed);
    out.check(
        "open-loop-answers",
        open_failed == 0 && open.stats.deadline_misses == 0,
        format!(
            "{open_failed} of {} requests unanswered, fell back or differ from a sequential plan \
             replay",
            open.requests
        ),
    );
}

fn open_failures(dep: &Deployment, seed: u64, open: &Open) -> u64 {
    let unanswered = open.requests - open.answers.len() as u64;
    unanswered + mismatches(dep, 0..GPUS, seed, &open.answers)
}

fn describe(closed: &Closed, open: &Open) {
    println!(
        "closed loop: {:.0} req/s, mean batch {:.2}; open loop at {:.0} req/s: p50 {:.1} µs, \
         p99 {:.1} µs, p99.9 {:.1} µs, service p50 {:.1} µs / p99 {:.1} µs, mean batch {:.2}, \
         generator late p99 {:.1} µs ({} samples)",
        closed.rps,
        closed.stats.mean_batch(),
        open.rate,
        open.latency.p50(),
        open.latency.supported_quantile(0.99),
        open.latency.supported_quantile(0.999),
        open.service.p50(),
        open.service.supported_quantile(0.99),
        open.stats.mean_batch(),
        open.gen_late.supported_quantile(0.99),
        open.latency.len()
    );
}

/// Highest ladder rate whose p99 stays within the limit without a growing
/// backlog (0 if none does).
fn ladder(dep: &Deployment, seed: u64, out: &mut Outcome) -> f64 {
    let mut best = 0.0;
    for rate in LADDER {
        let o = open_loop(dep, rate, LADDER_SECONDS, seed);
        let failed = open_failures(dep, seed, &o);
        out.count(o.requests, failed);
        let p99 = o.latency.supported_quantile(0.99);
        println!(
            "ladder: {rate:.0} req/s → p99 {p99:.1} µs, backlog growing: {}",
            o.backlog_growing
        );
        if failed == 0 && p99 <= LADDER_P99_US && !o.backlog_growing {
            best = rate;
        }
    }
    best
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let closed_s = ctx.seconds * CLOSED_SHARE;
    let open_s = ctx.seconds - closed_s;
    if !ctx.trace {
        let (dep, setup_s, same) =
            setups(|| deploy(ctx.seed, &mut LayerLog::default()), recordings_digest);
        out.set("setup_s", setup_s);
        out.check("setup-deterministic", same, "every set-up recorded identical decision streams");
        let closed = closed_loop(&dep, closed_s, ctx.seed);
        let open = open_loop(&dep, OPEN_RATE, open_s, ctx.seed);
        check_phases(&mut out, &dep, ctx.seed, &closed, &open);
        out.set("ops_per_s", closed.rps);
        out.set("op_p50_us", open.latency.p50());
        describe(&closed, &open);
        return out;
    }

    let mut log = LayerLog::default();
    crate::set_tracing(true);
    let dep = deploy(ctx.seed, &mut log);
    crate::set_tracing(false);
    let closed_u = closed_loop(&dep, closed_s, ctx.seed);
    let open_u = open_loop(&dep, OPEN_RATE, open_s, ctx.seed);
    check_phases(&mut out, &dep, ctx.seed, &closed_u, &open_u);
    crate::set_tracing(true);
    let (closed, open, plan) = {
        let _root = trace::span("run", "run.traced");
        let closed = closed_loop(&dep, closed_s, ctx.seed);
        let open = open_loop(&dep, OPEN_RATE, open_s, ctx.seed);
        check_phases(&mut out, &dep, ctx.seed, &closed, &open);
        let plan = dep.plan_cost();
        (closed, open, plan)
    };
    crate::set_tracing(false);
    describe(&closed, &open);
    let max_rps = ladder(&dep, ctx.seed, &mut out);
    out.set_common_layers(trace::take(), &log);
    out.set_plan(plan);
    let p50 = open.latency.p50();
    out.set("serve.closed_mean_batch", closed.stats.mean_batch());
    out.set("serve.open_mean_batch", open.stats.mean_batch());
    out.set("serve.open_p99_over_p50", ratio(open.latency.supported_quantile(0.99), p50));
    out.set("serve.open_p999_over_p50", ratio(open.latency.supported_quantile(0.999), p50));
    out.set("serve.service_share_p50", ratio(open.service.p50(), p50));
    out.set("serve.gen_late_p99_gaps", open.gen_late.supported_quantile(0.99) * OPEN_RATE * 1e-6);
    out.set("serve.ladder_max_rps", max_rps);
    out.set("obs.overhead_pct", (closed_u.rps / closed.rps - 1.0) * 100.0);
    out
}
