//! Perf-regression baselines for the offline pipeline.
//!
//! Three sections, selected by flag:
//!
//! * default (or `--datagen`): sequential vs parallel
//!   `generate_workload_jobs` throughput and the per-breakpoint checkpoint
//!   cost (cheap `SimSnapshot` vs full `Simulation` clone), written to
//!   `BENCH_datagen.json`.
//! * `--train`: training-loop throughput (epochs/sec on the paper-full
//!   decision head, serial vs the 4-job sharded-gradient engine with a
//!   byte-identity check) and RFE wall-clock at 1 vs 8 workers, written to
//!   `BENCH_train.json`.
//! * `--decide`: single-decision latency — ns/inference for the INT8
//!   kernel on the compressed decision head, ns/decision for the allocating
//!   model-method oracle vs the compiled `DecisionPlan` (exact, INT8 and
//!   memo-hit variants), plus the memo hit rate and a decision-stream
//!   identity check on a phase-structured replay — written to
//!   `BENCH_decide.json`.
//!
//! All JSON files land in the artifact directory so CI can diff runs.
//! Pass `--smoke` (or set `SSMDVFS_SMOKE=1`) for a seconds-long run on
//! tiny inputs; the numbers are still recorded but not meaningful as a
//! baseline.

use std::time::Instant;

use gpu_sim::{CounterId, EpochCounters, GpuConfig, Simulation, Time};
use gpu_workloads::by_name;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use ssmdvfs::exec::effective_jobs;
use ssmdvfs::{
    generate_workload_jobs, select_features_with, CombinedModel, DataGenConfig, DecisionPlan,
    DvfsDataset, RawSample, RfeOptions, SsmdvfsConfig,
};
use ssmdvfs_bench::artifacts_dir;
use tinynn::{
    grad_shards, train_classifier_parallel_with, train_classifier_with, ClassificationData,
    Int8Net, Matrix, Mlp, Pool, TrainConfig, TrainScratch,
};

#[derive(Serialize)]
struct DatagenBaseline {
    smoke: bool,
    workers: usize,
    samples_per_run: usize,
    sequential_secs: f64,
    parallel_secs: f64,
    sequential_samples_per_sec: f64,
    parallel_samples_per_sec: f64,
    speedup: f64,
    snapshot_cost_us: f64,
    full_clone_cost_us: f64,
    snapshot_vs_clone: f64,
}

#[derive(Serialize)]
struct TrainBaseline {
    smoke: bool,
    workers: usize,
    /// Samples in the epochs/sec training set.
    train_samples: usize,
    /// Epochs actually executed during the timed run.
    train_epochs: usize,
    epochs_per_sec: f64,
    /// Worker count of the parallel SGD measurement.
    train_jobs: usize,
    /// Epochs/sec with the minibatch gradient sharded over `train_jobs`
    /// workers.
    parallel_epochs_per_sec: f64,
    /// Parallel vs serial epochs/sec (≥ 1.3 expected at 4 jobs on a
    /// multi-core host; sub-1 on a 1-core container, where the gate is
    /// skipped).
    train_speedup: f64,
    /// Gradient shards per default-sized (64-row) minibatch.
    grad_shards_per_batch: usize,
    /// Whether the parallel run reproduced the serial models byte-for-byte
    /// (the determinism contract of the training engine).
    parallel_identical: bool,
    /// Samples in the RFE dataset.
    rfe_samples: usize,
    rfe_importance_repeats: usize,
    rfe_jobs: usize,
    rfe_serial_secs: f64,
    rfe_parallel_secs: f64,
    rfe_speedup: f64,
}

fn time_generate(
    bench: &gpu_workloads::Benchmark,
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    jobs: usize,
    runs: usize,
) -> (f64, usize) {
    let mut samples = 0;
    let t0 = Instant::now();
    for _ in 0..runs {
        samples =
            generate_workload_jobs(bench.name(), bench.workload().clone(), cfg, dg, jobs).len();
    }
    (t0.elapsed().as_secs_f64() / runs as f64, samples)
}

fn time_checkpoints(sim: &Simulation, iters: usize) -> (f64, f64) {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sim.snapshot());
    }
    let snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(sim.clone());
    }
    let clone_us = t0.elapsed().as_secs_f64() * 1e6 / iters as f64;
    (snapshot_us, clone_us)
}

fn run_datagen(smoke: bool) {
    let cfg = GpuConfig::small_test();
    let (scale, max_us, runs, checkpoint_iters) =
        if smoke { (0.05, 300.0, 1, 50) } else { (0.4, 2_000.0, 3, 500) };
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(max_us),
        ..DataGenConfig::default()
    };
    let bench = by_name("lbm").expect("lbm exists").scaled(scale);
    let workers = effective_jobs(0);

    eprintln!("[perf_baseline] datagen on '{}' (smoke={smoke}, workers={workers})", bench.name());
    let (sequential_secs, samples) = time_generate(&bench, &cfg, &dg, 1, runs);
    let (parallel_secs, par_samples) = time_generate(&bench, &cfg, &dg, 0, runs);
    assert_eq!(samples, par_samples, "parallel datagen changed the sample count");
    assert!(samples > 0, "datagen produced no samples");

    let ops = vec![cfg.vf_table.default_index(); cfg.num_clusters];
    let mut sim = Simulation::new(cfg, bench.workload().clone());
    for _ in 0..300 {
        if sim.is_complete() {
            break;
        }
        sim.step_epoch(&ops);
    }
    let (snapshot_cost_us, full_clone_cost_us) = time_checkpoints(&sim, checkpoint_iters);

    let baseline = DatagenBaseline {
        smoke,
        workers,
        samples_per_run: samples,
        sequential_secs,
        parallel_secs,
        sequential_samples_per_sec: samples as f64 / sequential_secs,
        parallel_samples_per_sec: samples as f64 / parallel_secs,
        speedup: sequential_secs / parallel_secs,
        snapshot_cost_us,
        full_clone_cost_us,
        snapshot_vs_clone: full_clone_cost_us / snapshot_cost_us,
    };
    let path = artifacts_dir().join("BENCH_datagen.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] {:.0} samples/s sequential, {:.0} samples/s parallel ({:.2}x on {} workers); snapshot {:.1} us vs clone {:.1} us ({:.1}x cheaper) -> {}",
        baseline.sequential_samples_per_sec,
        baseline.parallel_samples_per_sec,
        baseline.speedup,
        workers,
        snapshot_cost_us,
        full_clone_cost_us,
        baseline.snapshot_vs_clone,
        path.display()
    );
}

/// Synthetic counter samples with a learnable stall-fraction → frequency
/// rule, with signal spread over several counters so RFE has real work.
fn synthetic_dataset(n: usize) -> DvfsDataset {
    let mut samples = Vec::with_capacity(n);
    for i in 0..n {
        let stall = (i % 11) as f64 / 10.0;
        let mut c = EpochCounters::zeroed();
        c[CounterId::Ipc] = 2.0 - 1.5 * stall;
        c[CounterId::PowerTotalW] = 3.0 + 4.0 * (1.0 - stall);
        c[CounterId::StallMemLoad] = stall * 8_000.0;
        c[CounterId::StallMemOther] = stall * 900.0;
        c[CounterId::L1ReadMiss] = stall * 600.0;
        c[CounterId::DramQueueNs] = stall * 2_500.0;
        c[CounterId::MemTransactions] = stall * 1_200.0;
        samples.push(RawSample {
            benchmark: "syn".into(),
            cluster: i % 4,
            breakpoint: i / 4,
            counters: c.clone(),
            scaled_counters: c,
            op_index: i % 6,
            perf_loss: (1.0 - stall) * 0.1 * (5 - i % 6) as f64,
            instructions: 8_000,
        });
    }
    DvfsDataset { samples, ..DvfsDataset::default() }
}

/// Epochs/sec through the paper-full decision head on a 1200×6 random
/// classification set — the training-loop throughput number
/// docs/performance.md tracks. The raw-matrix setup (not `decision_data`,
/// which fans each context into variant × preset rows) matches the pre-PR
/// baseline measurement this number is compared against.
fn time_training(smoke: bool, jobs: usize) -> (usize, usize, f64, f64, bool) {
    let n = if smoke { 240 } else { 1_200 };
    let epochs = if smoke { 5 } else { 60 };
    let reps = if smoke { 1 } else { 5 };
    let mut rng = StdRng::seed_from_u64(1);
    let mut x = Matrix::zeros(n, 6);
    for v in x.as_mut_slice() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
    let y: Vec<usize> = (0..n).map(|i| i % 6).collect();
    let data = ClassificationData::new(x, y, 6);
    let (train, val) = data.split(0.25, &mut rng);
    // patience = epochs disables early stopping so every timed epoch runs.
    let cfg = TrainConfig { epochs, patience: epochs, ..TrainConfig::default() };
    let mut scratch = TrainScratch::new();
    // Both runs train the same initial models, so the parallel pass can be
    // checked byte-for-byte against the serial one.
    let inits: Vec<Mlp> =
        (0..reps).map(|_| Mlp::new(&[6, 20, 20, 20, 20, 20, 6], &mut rng)).collect();
    // Warm-up sizes the scratch buffers; the timed runs are allocation-free.
    let mut mlp = inits[0].clone();
    train_classifier_with(&mut mlp, &train, &val, &cfg, None, &mut scratch);

    let mut ran = 0;
    let mut serial_models = Vec::with_capacity(reps);
    let t0 = Instant::now();
    for init in &inits {
        let mut mlp = init.clone();
        let report = train_classifier_with(&mut mlp, &train, &val, &cfg, None, &mut scratch);
        ran += report.train_loss.len();
        serial_models.push(mlp);
    }
    let serial_secs = t0.elapsed().as_secs_f64();

    let pool = Pool::new(jobs);
    // Parallel warm-up (first fan-out wakes the worker team).
    let mut mlp = inits[0].clone();
    train_classifier_parallel_with(&mut mlp, &train, &val, &cfg, None, &mut scratch, &pool);
    let mut identical = true;
    let t0 = Instant::now();
    for (init, serial) in inits.iter().zip(&serial_models) {
        let mut mlp = init.clone();
        train_classifier_parallel_with(&mut mlp, &train, &val, &cfg, None, &mut scratch, &pool);
        identical &= mlp == *serial;
    }
    let parallel_secs = t0.elapsed().as_secs_f64();
    (n, ran, ran as f64 / serial_secs, ran as f64 / parallel_secs, identical)
}

/// RFE wall-clock, serial vs `jobs` workers. Identical selection is a
/// tested invariant; this only reports the time.
fn time_rfe(smoke: bool, jobs: usize) -> (usize, usize, f64, f64) {
    let (n, epochs, keep, repeats) = if smoke { (96, 1, 36, 2) } else { (480, 8, 4, 8) };
    let dataset = synthetic_dataset(n);
    let cfg = TrainConfig { epochs, ..TrainConfig::default() };
    let opts = RfeOptions { jobs: 1, importance_repeats: repeats };
    let t0 = Instant::now();
    let serial = select_features_with(&dataset, 6, keep, &cfg, &opts);
    let serial_secs = t0.elapsed().as_secs_f64();
    let opts = RfeOptions { jobs, importance_repeats: repeats };
    let t0 = Instant::now();
    let parallel = select_features_with(&dataset, 6, keep, &cfg, &opts);
    let parallel_secs = t0.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "worker count changed the RFE selection");
    (n, repeats, serial_secs, parallel_secs)
}

fn run_train(smoke: bool) {
    let workers = effective_jobs(0);
    let rfe_jobs = 8;
    let train_jobs = 4;
    eprintln!(
        "[perf_baseline] training loop at 1 vs {train_jobs} workers (smoke={smoke}, workers={workers})"
    );
    let (train_samples, train_epochs, epochs_per_sec, parallel_epochs_per_sec, parallel_identical) =
        time_training(smoke, train_jobs);
    eprintln!("[perf_baseline] rfe wall-clock at 1 vs {rfe_jobs} workers");
    let (rfe_samples, rfe_importance_repeats, rfe_serial_secs, rfe_parallel_secs) =
        time_rfe(smoke, rfe_jobs);

    let baseline = TrainBaseline {
        smoke,
        workers,
        train_samples,
        train_epochs,
        epochs_per_sec,
        train_jobs,
        parallel_epochs_per_sec,
        train_speedup: parallel_epochs_per_sec / epochs_per_sec,
        grad_shards_per_batch: grad_shards(TrainConfig::default().batch_size),
        parallel_identical,
        rfe_samples,
        rfe_importance_repeats,
        rfe_jobs,
        rfe_serial_secs,
        rfe_parallel_secs,
        rfe_speedup: rfe_serial_secs / rfe_parallel_secs,
    };
    assert!(
        baseline.parallel_identical,
        "parallel SGD diverged from the serial models (determinism contract broken)"
    );
    let path = artifacts_dir().join("BENCH_train.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] {:.1} epochs/s serial vs {:.1} at {} jobs ({:.2}x, {} shards/batch, identical={}); RFE {:.2}s serial vs {:.2}s at {} workers ({:.2}x) -> {}",
        baseline.epochs_per_sec,
        baseline.parallel_epochs_per_sec,
        train_jobs,
        baseline.train_speedup,
        baseline.grad_shards_per_batch,
        baseline.parallel_identical,
        baseline.rfe_serial_secs,
        baseline.rfe_parallel_secs,
        rfe_jobs,
        baseline.rfe_speedup,
        path.display()
    );
}

#[derive(Serialize)]
struct DecideBaseline {
    smoke: bool,
    /// Timed iterations per measurement (each taken as the best of several
    /// rounds to shed scheduler noise).
    iters: usize,
    /// ns per single forward through the compressed `[6, 12, 12, 6]` decision
    /// head on the flat-arena INT8 kernel.
    kernel_int8_ns: f64,
    /// ns per complete decision (feature extraction, calibration, both
    /// heads, decode) through the allocating model-method oracle that
    /// `tests/plan_equivalence.rs` checks the plan against: per-call `Vec`s
    /// and a one-row batched forward pass per head. It prices the oracle,
    /// not a production path.
    reference_decision_ns: f64,
    /// Same complete decision through the compiled `DecisionPlan` arena
    /// (exact f32 programs, memo disabled).
    plan_decision_ns: f64,
    /// The fused decision on the INT8 datapath
    /// (`DecisionPlan::decide_slot_quantized`).
    plan_quantized_ns: f64,
    /// The memo short-circuit: a bit-identical repeated epoch replayed
    /// without inference.
    plan_memo_hit_ns: f64,
    /// Epochs in the phase-structured replay below.
    replay_epochs: usize,
    memo_hits: u64,
    memo_misses: u64,
    /// Fraction of replay decisions answered by the memo.
    memo_hit_rate: f64,
    /// Whether plan-with-memo, plan-without-memo and the reference oracle
    /// produced byte-identical decision streams on the replay.
    decisions_identical: bool,
}

/// Best-of-`rounds` wrapper: each round times `iters` calls of `f` and the
/// minimum mean survives, shedding scheduler and frequency noise.
fn best_ns<F: FnMut()>(iters: usize, rounds: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..rounds {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// Phase-structured epoch counters: `epoch` walks through phases of
/// `phase_len` identical epochs — active compute phases interleaved with
/// starved (kernel-boundary) phases, the temporal locality the decision
/// memo exploits.
fn decide_counters(epoch: usize, phase_len: usize) -> EpochCounters {
    let phase = epoch / phase_len;
    let starved = phase % 3 == 2;
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::TotalInstrs] = if starved { 150.0 } else { 3_000.0 + 450.0 * (phase % 7) as f64 };
    c[CounterId::StallEmpty] = if starved { 9_200.0 } else { 0.0 };
    c[CounterId::StallMemLoad] = 400.0 + 60.0 * (phase % 5) as f64;
    c[CounterId::PowerTotalW] = 4.0 + 0.3 * (phase % 4) as f64;
    c[CounterId::L1ReadMiss] = 25.0 + (phase % 9) as f64;
    c.recompute_derived();
    c
}

/// The reference decision: allocating `CombinedModel` methods plus a
/// replica of the controller's calibration state machine — the exact
/// arithmetic of the plan, computed the slow, independent way.
struct ReferenceDecider {
    state: (f64, Option<f32>, f64), // (effective_preset, predicted, err_ewma)
    config: SsmdvfsConfig,
}

impl ReferenceDecider {
    fn new(config: SsmdvfsConfig) -> ReferenceDecider {
        ReferenceDecider { state: (config.preset, None, 0.0), config }
    }

    fn decide(
        &mut self,
        model: &CombinedModel,
        counters: &EpochCounters,
        table_len: usize,
    ) -> usize {
        let (ref mut eff, ref mut pred, ref mut err) = self.state;
        let features = model.feature_set.extract(counters);
        let cycles = counters[CounterId::TotalCycles].max(1.0);
        let starved = counters[CounterId::StallEmpty] / cycles > 0.2;
        if self.config.calibration && !starved {
            if let Some(predicted) = *pred {
                let actual = counters.total_instructions() as f32;
                if predicted > 0.0 {
                    let rel_err = f64::from((predicted - actual) / predicted);
                    *err = 0.7 * *err + 0.3 * rel_err;
                    if *err > self.config.deadband {
                        *eff = (*eff
                            - self.config.gain
                                * (*err - self.config.deadband)
                                * self.config.preset)
                            .max(self.config.min_preset);
                    } else {
                        *eff = (*eff + self.config.recovery * self.config.preset)
                            .min(self.config.preset);
                    }
                }
            }
        }
        let logits = model.decision_logits(&features, *eff as f32);
        let op = model.decode_ordinal(&logits).min(table_len - 1);
        *pred = Some(model.predict_instructions(&features, self.config.preset as f32, op));
        op
    }
}

fn run_decide(smoke: bool) {
    let (iters, rounds, replay_epochs) =
        if smoke { (20_000, 3, 2_000) } else { (1_000_000, 5, 50_000) };
    let phase_len = 8;
    eprintln!("[perf_baseline] decide: kernel + fused-plan latency (smoke={smoke})");

    // --- INT8 kernel micro-latency on the compressed decision head. ---
    let mut rng = StdRng::seed_from_u64(7);
    let mlp = Mlp::new(&[6, 12, 12, 6], &mut rng);
    let x = [0.4f32, -0.2, 1.1, 0.3, -0.8, 0.1];
    let mut int8 = Int8Net::compile(&mlp);
    let kernel_int8_ns = best_ns(iters, rounds, || {
        std::hint::black_box(int8.infer(std::hint::black_box(&x)));
    });

    // --- Full-decision latencies: reference oracle vs compiled plan. ---
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let config = SsmdvfsConfig::new(0.10);
    let active = decide_counters(0, phase_len);
    let starved = decide_counters(2 * phase_len, phase_len);
    let decision_iters = iters / 2;

    let mut reference = ReferenceDecider::new(config.clone());
    let reference_decision_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(reference.decide(&model, std::hint::black_box(&active), table.len()));
    });

    let mut plan = DecisionPlan::compile(&model, &config);
    plan.set_memo(false);
    let mut slot = plan.new_slot();
    let plan_decision_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(plan.decide_slot(
            &mut slot,
            std::hint::black_box(&active),
            table.len(),
        ));
    });
    let mut quant_slot = plan.new_slot();
    let plan_quantized_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(plan.decide_slot_quantized(
            &mut quant_slot,
            std::hint::black_box(&active),
            table.len(),
        ));
    });
    plan.set_memo(true);
    let mut memo_slot = plan.new_slot();
    plan.decide_slot(&mut memo_slot, &starved, table.len()); // warm the memo
    let plan_memo_hit_ns = best_ns(decision_iters, rounds, || {
        std::hint::black_box(plan.decide_slot(
            &mut memo_slot,
            std::hint::black_box(&starved),
            table.len(),
        ));
    });

    // --- Phase-structured replay: hit rate + three-way identity. ---
    let mut with_memo = DecisionPlan::compile(&model, &config);
    let mut without_memo = DecisionPlan::compile(&model, &config);
    without_memo.set_memo(false);
    let mut warm_slot = with_memo.new_slot();
    let mut cold_slot = without_memo.new_slot();
    let mut oracle = ReferenceDecider::new(config.clone());
    let mut memo_hits = 0u64;
    let mut decisions_identical = true;
    for epoch in 0..replay_epochs {
        let counters = decide_counters(epoch, phase_len);
        let w = with_memo.decide_slot(&mut warm_slot, &counters, table.len());
        let c = without_memo.decide_slot(&mut cold_slot, &counters, table.len());
        let r = oracle.decide(&model, &counters, table.len());
        memo_hits += w.memo_hit as u64;
        decisions_identical &= w.op == c.op && c.op == r;
    }
    let memo_misses = replay_epochs as u64 - memo_hits;
    let memo_hit_rate = memo_hits as f64 / replay_epochs as f64;

    let baseline = DecideBaseline {
        smoke,
        iters,
        kernel_int8_ns,
        reference_decision_ns,
        plan_decision_ns,
        plan_quantized_ns,
        plan_memo_hit_ns,
        replay_epochs,
        memo_hits,
        memo_misses,
        memo_hit_rate,
        decisions_identical,
    };
    assert!(baseline.decisions_identical, "plan/memo/reference decision streams diverged");
    assert!(baseline.memo_hit_rate > 0.0, "phase-structured replay produced no memo hits");
    assert!(
        baseline.plan_decision_ns < baseline.reference_decision_ns,
        "compiled plan ({:.0} ns) must beat the reference oracle ({:.0} ns)",
        baseline.plan_decision_ns,
        baseline.reference_decision_ns
    );
    let path = artifacts_dir().join("BENCH_decide.json");
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serializes");
    std::fs::write(&path, &json).expect("baseline must be writable");
    println!("{json}");
    println!(
        "[perf_baseline] int8 kernel {:.0} ns; decision {:.0} ns reference -> {:.0} ns plan / {:.0} ns int8-plan / {:.0} ns memo-hit; hit rate {:.1}% over {} epochs, identical={} -> {}",
        baseline.kernel_int8_ns,
        baseline.reference_decision_ns,
        baseline.plan_decision_ns,
        baseline.plan_quantized_ns,
        baseline.plan_memo_hit_ns,
        baseline.memo_hit_rate * 100.0,
        baseline.replay_epochs,
        baseline.decisions_identical,
        path.display()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke")
        || std::env::var_os("SSMDVFS_SMOKE").is_some_and(|v| v != "0");
    let train = args.iter().any(|a| a == "--train");
    let decide = args.iter().any(|a| a == "--decide");
    let datagen = args.iter().any(|a| a == "--datagen") || (!train && !decide);
    if datagen {
        run_datagen(smoke);
    }
    if train {
        run_train(smoke);
    }
    if decide {
        run_decide(smoke);
    }
}
