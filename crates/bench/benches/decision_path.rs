//! Single-decision latency of the compiled fast path.
//!
//! Compares the reference oracle (allocating `CombinedModel` methods)
//! against the fused [`DecisionPlan`] in its exact-f32, quantized-INT8, and
//! memo-hit configurations, and runs the paper's full architecture against
//! its compressed, pruned one on the plan — the software side of the
//! Section V-D argument that one inference fits comfortably inside a 10 µs
//! epoch. The microsecond-scale epoch budget leaves roughly 1 µs for the
//! whole control step; every variant here must sit far inside that.
//!
//! These groups time the decision in isolation; bench_e2e's decide-replay
//! workload times it end to end. That the plan decides exactly like the
//! oracle is `tests/plan_equivalence.rs`, and that a warm decision
//! allocates nothing is `crates/core/tests/alloc_free_decisions.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpu_sim::{CounterId, EpochCounters, GpuConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssmdvfs::plan::DecisionPlan;
use ssmdvfs::{CombinedModel, ModelArch, SsmdvfsConfig};
use tinynn::{prune_two_stage, Mlp};

fn counters(instrs: f64, stall_frac: f64) -> EpochCounters {
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalInstrs] = instrs;
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::StallEmpty] = stall_frac * 10_000.0;
    c[CounterId::StallMemLoad] = 120.0;
    c[CounterId::PowerTotalW] = 3.4;
    c[CounterId::L1ReadMiss] = (instrs * 0.07).floor();
    c.recompute_derived();
    c
}

/// The synthetic model's input plumbing around seeded heads of `arch`;
/// `compressed` two-stage prunes them as the paper's final model is.
fn model_for(arch: &ModelArch, num_ops: usize, compressed: bool) -> CombinedModel {
    let mut model = CombinedModel::synthetic(num_ops, 7);
    let f = model.feature_set.len();
    let mut rng = StdRng::seed_from_u64(7);
    let sizes = |input: usize, hidden: &[usize], output: usize| {
        [&[input][..], hidden, &[output][..]].concat()
    };
    model.decision = Mlp::new(&sizes(f + 1, &arch.decision_hidden, num_ops), &mut rng);
    model.calibrator = Mlp::new(&sizes(f + 2, &arch.calibrator_hidden, 1), &mut rng);
    if compressed {
        model.decision = prune_two_stage(&model.decision, 0.6, 0.9);
        model.calibrator = prune_two_stage(&model.calibrator, 0.6, 0.9);
    }
    model
}

fn bench_decision_path(c: &mut Criterion) {
    let table = GpuConfig::small_test().vf_table;
    let model = CombinedModel::synthetic(table.len(), 7);
    let config = SsmdvfsConfig::new(0.1);
    let active = counters(9_000.0, 0.05);
    let starved = counters(400.0, 0.9);

    let mut group = c.benchmark_group("decision_path");

    // Reference oracle: the allocating model methods the plan is tested
    // against.
    group.bench_function("reference_oracle", |b| {
        let features = model.feature_set.extract(&active);
        b.iter(|| {
            let logits = model.decision_logits(&features, 0.1);
            let op = model.decode_ordinal(&logits).min(table.len() - 1);
            model.predict_instructions(&features, 0.1, op)
        });
    });

    // Fused exact plan, memo disabled: alternate two distinct epochs so
    // every iteration does the full feature → heads → decode pipeline.
    group.bench_function("plan_exact", |b| {
        let mut plan = DecisionPlan::compile(&model, &config);
        plan.set_memo(false);
        let mut slot = plan.new_slot();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let c = if flip { &active } else { &starved };
            plan.decide_slot(&mut slot, c, table.len()).op
        });
    });

    // Fused quantized plan: INT8 head kernels, same fused surroundings.
    group.bench_function("plan_quantized", |b| {
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        let mut flip = false;
        b.iter(|| {
            flip = !flip;
            let c = if flip { &active } else { &starved };
            plan.decide_slot_quantized(&mut slot, c, table.len()).op
        });
    });

    // Memo hit: the same starved epoch repeated, the phase-locality case.
    group.bench_function("plan_memo_hit", |b| {
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        plan.decide_slot(&mut slot, &starved, table.len());
        b.iter(|| plan.decide_slot(&mut slot, &starved, table.len()).op);
    });

    // Section V-D: the paper's full architecture (5 + 4 twenty-neuron
    // layers) against the compressed, pruned one, exact path, memo off.
    let full = model_for(&ModelArch::paper_full(), table.len(), false);
    let compressed = model_for(&ModelArch::paper_compressed(), table.len(), true);
    for (name, model) in [("plan_paper_full", &full), ("plan_paper_compressed", &compressed)] {
        group.bench_function(name, |b| {
            let mut plan = DecisionPlan::compile(model, &config);
            plan.set_memo(false);
            let mut slot = plan.new_slot();
            let mut flip = false;
            b.iter(|| {
                flip = !flip;
                let c = if flip { &active } else { &starved };
                plan.decide_slot(&mut slot, c, table.len()).op
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_decision_path);
criterion_main!(benches);
