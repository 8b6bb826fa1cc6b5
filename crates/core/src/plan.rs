//! The compiled single-decision fast path, and the workspace's only
//! single-sample `f32` inference code.
//!
//! A [`DecisionPlan`] compiles a [`CombinedModel`] and its controller
//! configuration, once at governor construction, into one flat preplanned
//! arena: a single contiguous `f32` allocation holding both heads'
//! normalizer constants, weights and biases (dense row-major, or CSR values
//! when pruning left a head mostly zeros) and every scratch slot the
//! decision needs, with all layer offsets precomputed. A decision then runs
//! branchless inner loops over that one allocation — no per-decision heap
//! traffic, no pointer chasing between model pieces.
//!
//! Two properties are load-bearing and test-enforced:
//!
//! * **Bit-identity.** The plan reproduces the arithmetic of the allocating
//!   model methods ([`CombinedModel::decision_logits`],
//!   [`CombinedModel::decode_ordinal`],
//!   [`CombinedModel::predict_instructions`], which run `tinynn`'s batched
//!   forward pass on one row) — same feature extraction, same `(x - mean) /
//!   std` normalization, same ascending-`k` dense accumulation, same
//!   ascending-column CSR accumulation, same softmax/ordinal decode, same
//!   `f64` calibration update. The decision stream is byte-identical to
//!   that reference (proptest-enforced in `tests/plan_equivalence.rs`).
//! * **Memoization is invisible.** The per-cluster memo (see below) only
//!   ever replays a decision whose *entire* input — feature bits, actual
//!   instruction count, starvation flag, pre-decision calibration state and
//!   table size — is bit-for-bit identical to the memoized epoch, so a hit
//!   returns exactly what recomputing would have.
//!
//! # Dense and CSR heads
//!
//! A head whose weight density ([`Mlp::nonzero_weights`] over
//! [`Mlp::weight_count`]) is below one half compiles to a CSR program:
//! only the non-zero weights are stored, with row pointers and column
//! indices in a parallel `u32` arena, and its FLOPs are
//! [`Mlp::sparse_flops`]. Denser heads keep the branch-free dense loop.
//! Skipping an exact-zero weight never changes a finite dot product, so
//! the choice changes the work per decision, never a decision.
//!
//! # Phase-locality memo
//!
//! GPU workloads run in phases: during a steady compute or memory phase the
//! quantized counter vector of consecutive 10 µs epochs is frequently
//! unchanged, and the calibration state sits at a fixed point (starved
//! epochs skip the update entirely; converged epochs are clamped at the
//! preset). The plan keeps a depth-1 memo per cluster slot: when the new
//! epoch's inputs match the previous epoch bit-for-bit, inference is
//! short-circuited entirely and the stored decision (including the logits
//! the audit trail records) is replayed. Hits and misses are observable as
//! `decide.memo_hits` / `decide.memo_misses`, and the plan latency as the
//! `decide.plan_latency_ns` histogram.
//!
//! # Quantized path
//!
//! The plan also compiles both heads to [`Int8Net`], the flat-arena INT8
//! kernel, reachable through [`DecisionPlan::decide_slot_quantized`]. Both
//! datapaths run one decision body (features, calibration, decode); only
//! the head inference differs, and the INT8 path skips the memo and the
//! metrics. Its decisions match the exact path only up to
//! activation-quantization error; deployments take it for latency, the
//! default exact path for bit-stable replays.

use std::time::Instant;

use gpu_sim::{CounterId, EpochCounters};
use tinynn::{Activation, Int8Net, Mlp, Normalizer};

use crate::controller::SsmdvfsConfig;
use crate::model::CombinedModel;

/// Weight density below which a head compiles to the CSR program: at half
/// density the skipped multiplies outweigh the index indirection.
const SPARSE_DENSITY_THRESHOLD: f64 = 0.5;

/// One fused layer inside the arena program.
#[derive(Debug, Clone)]
struct PlanStep {
    /// Output width.
    rows: usize,
    /// Input width.
    cols: usize,
    /// Arena offset of the weights: row-major dense values, or the CSR
    /// value stream when `csr` is set.
    w_off: usize,
    /// Arena offset of the biases.
    b_off: usize,
    /// Apply ReLU after the affine map.
    relu: bool,
    /// CSR bookkeeping offsets into the index arena; `None` for dense.
    csr: Option<CsrOff>,
}

/// Offsets of one CSR layer's structure inside the shared index arena.
#[derive(Debug, Clone)]
struct CsrOff {
    /// Offset of the `rows + 1` row pointers.
    row_ptr: usize,
    /// Offset of the per-value column indices.
    col_idx: usize,
}

/// One compiled model head: its exact `f32` layer program, its INT8 twin
/// and the arena offsets of its input normalizer.
#[derive(Debug, Clone)]
struct Head {
    steps: Vec<PlanStep>,
    sparse: bool,
    flops: u64,
    input_size: usize,
    output_size: usize,
    /// Arena offsets of the normalizer's means and standard deviations.
    mean: usize,
    std: usize,
    int8: Int8Net,
}

/// Offsets of the per-decision scratch slots, relative to the scratch
/// region of the arena.
#[derive(Debug, Clone, Copy)]
struct Slots {
    /// The raw features of the decision.
    features: usize,
    /// The assembled (then normalized) input of the head being run.
    input: usize,
    /// Activation ping-pong pair, each `width` wide.
    a: usize,
    b: usize,
    width: usize,
    /// The Decision-maker logits.
    logits: usize,
    /// Softmax scratch of the ordinal decode.
    probs: usize,
}

/// Per-cluster self-calibration state — the plan-side spelling of the
/// governor's historical `ClusterState`, updated with identical `f64`
/// arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct CalState {
    /// The preset the Decision-maker currently sees (tightened below the
    /// configured preset while the cluster runs slower than predicted).
    pub effective_preset: f64,
    /// The Calibrator's instruction-count prediction for the epoch in
    /// flight, judged when that epoch's counters arrive.
    pub predicted_instructions: Option<f32>,
    /// Exponentially smoothed relative prediction error; single-epoch
    /// throughput variance (cache bursts, CTA boundaries) must not trigger
    /// calibration, persistent shortfalls must.
    pub err_ewma: f64,
}

/// The depth-1 decision memo of one cluster slot: the complete bit-exact
/// input of the last decision, plus everything needed to replay its output.
/// Buffers are reused across epochs — storing a memo never allocates once
/// the slot is warm.
#[derive(Debug, Clone, Default)]
struct MemoEntry {
    valid: bool,
    // --- key: every input the decision arithmetic reads ---
    features: Vec<f32>,
    actual_bits: u64,
    starved: bool,
    table_len: usize,
    pre_preset_bits: u64,
    pre_err_bits: u64,
    pre_pred_bits: Option<u32>,
    // --- replayed output ---
    op: usize,
    post_preset_bits: u64,
    post_err_bits: u64,
    post_pred: f32,
    logits: Vec<f32>,
}

/// Per-cluster state a [`DecisionPlan`] decides against: calibration state
/// plus the phase-locality memo. Create via [`DecisionPlan::new_slot`]; the
/// governor keeps one per cluster, the decision service one per
/// `(gpu, cluster)` key.
#[derive(Debug, Clone)]
pub struct ClusterSlot {
    /// The calibration state (public so harnesses and tests can inspect or
    /// perturb it; the memo key covers it, so perturbation never causes a
    /// stale replay).
    pub state: CalState,
    memo: MemoEntry,
}

/// What one fused decision produced (the governor's audit trail consumes
/// every field).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanDecision {
    /// Chosen operating-point index.
    pub op: usize,
    /// `true` when the memo replayed the previous epoch's decision without
    /// running inference.
    pub memo_hit: bool,
    /// The epoch was dominated by empty-pipeline stalls and skipped
    /// calibration.
    pub starved: bool,
    /// The effective preset after this decision's calibration update.
    pub effective_preset: f64,
    /// The instruction-count prediction made for the *next* epoch.
    pub predicted: f32,
    /// The prediction that was outstanding *for* the epoch just judged
    /// (`None` on a cluster's first decision).
    pub prev_predicted: Option<f32>,
}

/// The compiled single-decision fast path. See the module docs.
///
/// # Examples
///
/// ```
/// use gpu_sim::{CounterId, EpochCounters};
/// use ssmdvfs::plan::DecisionPlan;
/// use ssmdvfs::{CombinedModel, SsmdvfsConfig};
///
/// let model = CombinedModel::synthetic(6, 7);
/// let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
/// let mut slot = plan.new_slot();
/// // A starvation-dominated epoch: calibration skips it, so the slot's
/// // state freezes and an exact repeat is the memo's guaranteed hit.
/// let mut counters = EpochCounters::zeroed();
/// counters[CounterId::TotalCycles] = 10_000.0;
/// counters[CounterId::StallEmpty] = 9_000.0;
/// let first = plan.decide_slot(&mut slot, &counters, 6);
/// assert!(first.op < 6 && !first.memo_hit);
/// // Identical inputs + unchanged state → the memo replays the decision.
/// let replay = plan.decide_slot(&mut slot, &counters, 6);
/// assert!(replay.memo_hit);
/// assert_eq!(replay.op, first.op);
/// ```
#[derive(Debug, Clone)]
pub struct DecisionPlan {
    /// The single contiguous allocation: `[0, scratch_base)` is the
    /// immutable program (normalizer constants, weights, biases),
    /// `[scratch_base, ..)` the per-decision scratch slots.
    arena: Vec<f32>,
    /// CSR structure (row pointers + column indices) for sparse steps;
    /// empty when both heads compiled dense.
    idx: Vec<u32>,
    decision: Head,
    calibrator: Head,
    /// Which counters feed the model, fused from the feature set.
    feature_ids: Vec<CounterId>,
    scratch_base: usize,
    slots: Slots,
    // Decode and calibration constants.
    num_ops: usize,
    instr_scale: f32,
    cal_op_denom: f32,
    preset: f64,
    gain: f64,
    recovery: f64,
    min_preset: f64,
    deadband: f64,
    calibration: bool,
    argmax_decode: bool,
    memo: bool,
}

impl DecisionPlan {
    /// Compiles the model and controller config into a fused plan: per
    /// head, a CSR program below half weight density and the branch-free
    /// dense program otherwise, plus the INT8 twin.
    pub fn compile(model: &CombinedModel, config: &SsmdvfsConfig) -> DecisionPlan {
        let f = model.feature_set.len();
        let mut arena: Vec<f32> = Vec::new();
        let mut idx: Vec<u32> = Vec::new();
        let decision = compile_head(&model.decision, &model.decision_norm, &mut arena, &mut idx);
        let calibrator =
            compile_head(&model.calibrator, &model.calibrator_norm, &mut arena, &mut idx);

        // Scratch layout: features | assembled input | activation ping |
        // activation pong | logits | probs. The activation slots must fit
        // the widest layer input/output of either head.
        let width = model
            .decision
            .layers()
            .iter()
            .chain(model.calibrator.layers())
            .flat_map(|l| [l.input_size(), l.output_size()])
            .max()
            .unwrap_or(0)
            .max(f + 2);
        let num_out = decision.output_size;
        let scratch_base = arena.len();
        let input = f;
        let a = input + (f + 2);
        let b = a + width;
        let logits = b + width;
        let probs = logits + num_out;
        arena.resize(scratch_base + probs + num_out, 0.0);

        DecisionPlan {
            arena,
            idx,
            decision,
            calibrator,
            feature_ids: model.feature_set.counters().to_vec(),
            scratch_base,
            slots: Slots { features: 0, input, a, b, width, logits, probs },
            num_ops: model.num_ops,
            instr_scale: model.instr_scale,
            cal_op_denom: (model.num_ops.max(2) - 1) as f32,
            preset: config.preset,
            gain: config.gain,
            recovery: config.recovery,
            min_preset: config.min_preset,
            deadband: config.deadband,
            calibration: config.calibration,
            argmax_decode: config.argmax_decode,
            memo: true,
        }
    }

    /// A fresh cluster slot at the configured preset, with a cold memo.
    pub fn new_slot(&self) -> ClusterSlot {
        ClusterSlot {
            state: CalState {
                effective_preset: self.preset,
                predicted_instructions: None,
                err_ewma: 0.0,
            },
            memo: MemoEntry::default(),
        }
    }

    /// Enables or disables the phase-locality memo (on by default). The
    /// decision stream is byte-identical either way; turning it off is for
    /// benchmarking the uncached path.
    pub fn set_memo(&mut self, on: bool) {
        self.memo = on;
    }

    /// Whether the memo is active.
    pub fn memo_enabled(&self) -> bool {
        self.memo
    }

    /// Whether the Decision-maker head compiled to the CSR program.
    pub fn decision_is_sparse(&self) -> bool {
        self.decision.sparse
    }

    /// Whether the Calibrator head compiled to the CSR program.
    pub fn calibrator_is_sparse(&self) -> bool {
        self.calibrator.sparse
    }

    /// FLOPs of one Decision-maker inference on the compiled program:
    /// [`Mlp::sparse_flops`] for a CSR head, [`Mlp::flops`] for a dense one.
    pub fn decision_flops(&self) -> u64 {
        self.decision.flops
    }

    /// FLOPs of one Calibrator inference on the compiled program.
    pub fn calibrator_flops(&self) -> u64 {
        self.calibrator.flops
    }

    /// The features extracted by the most recent decision (valid after any
    /// [`DecisionPlan::decide_slot`] call; the audit trail reads it).
    pub fn features(&self) -> &[f32] {
        let base = self.scratch_base + self.slots.features;
        &self.arena[base..base + self.feature_ids.len()]
    }

    /// The Decision-maker logits of the most recent decision (replayed from
    /// the memo on a hit, so they are always the logits of the returned
    /// decision).
    pub fn logits(&self) -> &[f32] {
        let base = self.scratch_base + self.slots.logits;
        &self.arena[base..base + self.decision.output_size]
    }

    /// One fused decision for `slot`: feature extraction, calibration
    /// update, Decision-maker inference + decode, Calibrator prediction —
    /// all inside the preplanned arena, memo-short-circuited when the epoch
    /// bit-exactly repeats the previous one. Byte-identical to the
    /// allocating model-method reference.
    ///
    /// # Panics
    ///
    /// Panics if `table_len` is zero (there would be no decodable decision).
    pub fn decide_slot(
        &mut self,
        slot: &mut ClusterSlot,
        counters: &EpochCounters,
        table_len: usize,
    ) -> PlanDecision {
        self.decide(slot, counters, table_len, false)
    }

    /// The fused decision on the INT8 datapath: the same decision as
    /// [`DecisionPlan::decide_slot`] (features, calibration, decode,
    /// prediction) but both heads infer through their [`Int8Net`] twins.
    /// Decisions track the exact path within activation-quantization error;
    /// they are **not** bit-identical, so replay-stable pipelines use the
    /// exact path and latency-bound deployments this one. No memo (the
    /// exact path's memo already serves the phase-repeat case) and no
    /// metrics.
    ///
    /// # Panics
    ///
    /// Panics if `table_len` is zero.
    pub fn decide_slot_quantized(
        &mut self,
        slot: &mut ClusterSlot,
        counters: &EpochCounters,
        table_len: usize,
    ) -> PlanDecision {
        self.decide(slot, counters, table_len, true)
    }

    /// The one decision body behind both datapaths. `int8` is a constant at
    /// each call site, so inlining compiles one specialization per
    /// datapath with the choice folded away.
    #[inline(always)]
    fn decide(
        &mut self,
        slot: &mut ClusterSlot,
        counters: &EpochCounters,
        table_len: usize,
        int8: bool,
    ) -> PlanDecision {
        assert!(table_len > 0, "DecisionPlan needs a non-empty operating-point table");
        let memo = self.memo && !int8;
        // Timing the sub-200ns path costs two clock reads; only pay for it
        // when the metrics plane is actually on.
        let t0 = if !int8 && obs::enabled() { Some(Instant::now()) } else { None };

        let f = self.feature_ids.len();
        let s = self.slots;
        let (prog, scratch) = self.arena.split_at_mut(self.scratch_base);
        for (i, &c) in self.feature_ids.iter().enumerate() {
            scratch[s.features + i] = counters[c] as f32;
        }
        // Epochs dominated by empty-pipeline stalls (the cluster ran out of
        // work, e.g. at a kernel boundary) are excluded from calibration: an
        // instruction shortfall there signals missing work, not a slow
        // clock.
        let cycles = counters[CounterId::TotalCycles].max(1.0);
        let starved = counters[CounterId::StallEmpty] / cycles > 0.2;
        let actual = counters.total_instructions();
        let prev_predicted = slot.state.predicted_instructions;

        // Memo probe: a hit requires every input of the decision arithmetic
        // — features, judged instruction count, starvation, pre-decision
        // calibration state, table size — to match the stored epoch
        // bit-for-bit, which makes the replay provably identical to
        // recomputing.
        if memo {
            let m = &slot.memo;
            // The outstanding prediction only feeds the calibration update;
            // when that update cannot run (starved epoch, or calibration
            // off) every output is independent of it, so it drops out of
            // the key — this is what lets steady starved phases hit from
            // their second epoch on.
            let pred_matches =
                starved || !self.calibration || m.pre_pred_bits == prev_predicted.map(f32::to_bits);
            if m.valid
                && m.table_len == table_len
                && m.starved == starved
                && m.actual_bits == actual.to_bits()
                && m.pre_preset_bits == slot.state.effective_preset.to_bits()
                && m.pre_err_bits == slot.state.err_ewma.to_bits()
                && pred_matches
                && bits_equal(&m.features, &scratch[s.features..s.features + f])
            {
                slot.state.effective_preset = f64::from_bits(m.post_preset_bits);
                slot.state.err_ewma = f64::from_bits(m.post_err_bits);
                slot.state.predicted_instructions = Some(m.post_pred);
                scratch[s.logits..s.logits + m.logits.len()].copy_from_slice(&m.logits);
                let decision = PlanDecision {
                    op: m.op,
                    memo_hit: true,
                    starved,
                    effective_preset: slot.state.effective_preset,
                    predicted: m.post_pred,
                    prev_predicted,
                };
                obs::counter!("decide.memo_hits").inc(1);
                if let Some(t0) = t0 {
                    obs::histogram!("decide.plan_latency_ns")
                        .record(t0.elapsed().as_nanos() as f64);
                }
                return decision;
            }
        }
        let pre_preset_bits = slot.state.effective_preset.to_bits();
        let pre_err_bits = slot.state.err_ewma.to_bits();
        let pre_pred_bits = prev_predicted.map(f32::to_bits);

        // Self-calibration on the epoch that just ended.
        if self.calibration && !starved {
            if let Some(predicted) = slot.state.predicted_instructions {
                let actual_f32 = actual as f32;
                if predicted > 0.0 {
                    let rel_err = f64::from((predicted - actual_f32) / predicted);
                    slot.state.err_ewma = 0.7 * slot.state.err_ewma + 0.3 * rel_err;
                    if slot.state.err_ewma > self.deadband {
                        // Persistently slower than the preset expectation:
                        // tighten the effective preset.
                        slot.state.effective_preset = (slot.state.effective_preset
                            - self.gain * (slot.state.err_ewma - self.deadband) * self.preset)
                            .max(self.min_preset);
                    } else {
                        // On or ahead of expectation: relax toward the
                        // original preset.
                        slot.state.effective_preset = (slot.state.effective_preset
                            + self.recovery * self.preset)
                            .min(self.preset);
                    }
                }
            }
        }
        let effective_preset = slot.state.effective_preset;

        // Decision head: assemble [features..., effective preset], run,
        // decode.
        scratch.copy_within(s.features..s.features + f, s.input);
        scratch[s.input + f] = effective_preset as f32;
        self.decision.infer(int8, prog, &self.idx, scratch, &s, s.logits);
        let num_out = self.decision.output_size;
        let op = if self.argmax_decode {
            tinynn::argmax(&scratch[s.logits..s.logits + num_out]).min(table_len - 1)
        } else {
            scratch.copy_within(s.logits..s.logits + num_out, s.probs);
            let probs = &mut scratch[s.probs..s.probs + num_out];
            tinynn::softmax_in_place(probs);
            let mean: f32 = probs.iter().enumerate().map(|(i, p)| i as f32 * p).sum();
            (mean.round() as usize).min(self.num_ops - 1).min(table_len - 1)
        };

        // Calibrator head: always sees the original preset.
        scratch.copy_within(s.features..s.features + f, s.input);
        scratch[s.input + f] = self.preset as f32;
        scratch[s.input + f + 1] = op as f32 / self.cal_op_denom;
        self.calibrator.infer(int8, prog, &self.idx, scratch, &s, s.a);
        let predicted = (scratch[s.a] * self.instr_scale).max(0.0);
        slot.state.predicted_instructions = Some(predicted);

        if memo {
            let m = &mut slot.memo;
            m.valid = true;
            m.features.clear();
            m.features.extend_from_slice(&scratch[s.features..s.features + f]);
            m.actual_bits = actual.to_bits();
            m.starved = starved;
            m.table_len = table_len;
            m.pre_preset_bits = pre_preset_bits;
            m.pre_err_bits = pre_err_bits;
            m.pre_pred_bits = pre_pred_bits;
            m.op = op;
            m.post_preset_bits = slot.state.effective_preset.to_bits();
            m.post_err_bits = slot.state.err_ewma.to_bits();
            m.post_pred = predicted;
            m.logits.clear();
            m.logits.extend_from_slice(&scratch[s.logits..s.logits + num_out]);
        }
        if !int8 {
            obs::counter!("decide.memo_misses").inc(1);
            if let Some(t0) = t0 {
                obs::histogram!("decide.plan_latency_ns").record(t0.elapsed().as_nanos() as f64);
            }
        }
        PlanDecision { op, memo_hit: false, starved, effective_preset, predicted, prev_predicted }
    }
}

/// Bit-exact slice comparison (`f32::to_bits`, not `==`): NaN-proof and
/// `-0.0 ≠ 0.0`-strict, which is what "exact replay" requires.
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `(x - mean) / std` per column — the exact arithmetic of
/// [`Normalizer::transform_one`].
fn normalize(x: &mut [f32], mean: &[f32], std: &[f32]) {
    for ((v, &m), &s) in x.iter_mut().zip(mean).zip(std) {
        *v = (*v - m) / s;
    }
}

/// Flattens one head into the arena: its normalizer, then per layer the
/// weights and biases. A dense head appends row-major weights; a CSR head
/// (weight density below [`SPARSE_DENSITY_THRESHOLD`]) appends only the
/// non-zero values, with each layer's row pointers and column indices in
/// the index arena.
fn compile_head(mlp: &Mlp, norm: &Normalizer, arena: &mut Vec<f32>, idx: &mut Vec<u32>) -> Head {
    let mean = arena.len();
    arena.extend_from_slice(norm.mean());
    let std = arena.len();
    arena.extend_from_slice(norm.std());
    let density = mlp.nonzero_weights() as f64 / mlp.weight_count() as f64;
    let sparse = density < SPARSE_DENSITY_THRESHOLD;
    let mut steps = Vec::with_capacity(mlp.layers().len());
    for layer in mlp.layers() {
        let (rows, cols) = (layer.output_size(), layer.input_size());
        let w_off = arena.len();
        let csr = if sparse {
            let row_ptr = idx.len();
            let mut stored = 0u32;
            idx.push(stored);
            for r in 0..rows {
                stored += layer.w.row(r).iter().filter(|&&v| v != 0.0).count() as u32;
                idx.push(stored);
            }
            let col_idx = idx.len();
            for r in 0..rows {
                for (c, &v) in layer.w.row(r).iter().enumerate() {
                    if v != 0.0 {
                        idx.push(c as u32);
                        arena.push(v);
                    }
                }
            }
            Some(CsrOff { row_ptr, col_idx })
        } else {
            arena.extend_from_slice(layer.w.as_slice());
            None
        };
        let b_off = arena.len();
        arena.extend_from_slice(&layer.b);
        steps.push(PlanStep {
            rows,
            cols,
            w_off,
            b_off,
            relu: layer.activation == Activation::Relu,
            csr,
        });
    }
    Head {
        steps,
        sparse,
        flops: if sparse { mlp.sparse_flops() } else { mlp.flops() },
        input_size: mlp.input_size(),
        output_size: mlp.output_size(),
        mean,
        std,
        int8: Int8Net::compile(mlp),
    }
}

impl Head {
    /// Normalizes the assembled input at `s.input` in place and runs the
    /// head on it — the exact program, or the INT8 twin when `int8` is
    /// set — leaving the outputs at `out_off`.
    #[inline(always)]
    fn infer(
        &mut self,
        int8: bool,
        prog: &[f32],
        idx: &[u32],
        scratch: &mut [f32],
        s: &Slots,
        out_off: usize,
    ) {
        let (n, m) = (self.input_size, self.output_size);
        normalize(
            &mut scratch[s.input..s.input + n],
            &prog[self.mean..self.mean + n],
            &prog[self.std..self.std + n],
        );
        if int8 {
            let y = self.int8.infer(&scratch[s.input..s.input + n]);
            scratch[out_off..out_off + m].copy_from_slice(y);
        } else {
            self.run(prog, idx, scratch, s, out_off);
        }
    }

    /// Runs the exact program over the scratch ping-pong slots and copies
    /// the final activations to `out_off`. Dense layers accumulate each
    /// output over `k` ascending with a single `f32` accumulator, CSR
    /// layers over stored columns ascending; both then add the bias and
    /// apply the ReLU — the arithmetic of `tinynn`'s batched forward pass.
    fn run(&self, prog: &[f32], idx: &[u32], scratch: &mut [f32], s: &Slots, out_off: usize) {
        scratch.copy_within(s.input..s.input + self.input_size, s.a);
        // Two disjoint ping-pong views over the one scratch slice; roles swap
        // per layer.
        let (lo, hi) = scratch.split_at_mut(s.b);
        let mut src: &mut [f32] = &mut lo[s.a..s.a + s.width];
        let mut dst: &mut [f32] = &mut hi[..s.width];
        let mut out_in_a = true;
        for step in &self.steps {
            run_step(prog, idx, step, src, dst);
            std::mem::swap(&mut src, &mut dst);
            out_in_a = !out_in_a;
        }
        let n = self.output_size;
        let final_off = if out_in_a { s.a } else { s.b };
        if final_off != out_off {
            scratch.copy_within(final_off..final_off + n, out_off);
        }
    }
}

/// One fused layer: `y = act(W @ x + b)` with the accumulation order of
/// [`Head::run`].
fn run_step(prog: &[f32], idx: &[u32], step: &PlanStep, x: &[f32], out: &mut [f32]) {
    let b = &prog[step.b_off..step.b_off + step.rows];
    match &step.csr {
        None => {
            let w = &prog[step.w_off..step.w_off + step.rows * step.cols];
            let x = &x[..step.cols];
            for (j, (o, &bj)) in out[..step.rows].iter_mut().zip(b).enumerate() {
                let wrow = &w[j * step.cols..(j + 1) * step.cols];
                let mut acc = 0.0f32;
                for (&wv, &xv) in wrow.iter().zip(x) {
                    acc += wv * xv;
                }
                acc += bj;
                if step.relu {
                    acc = acc.max(0.0);
                }
                *o = acc;
            }
        }
        Some(c) => {
            let row_ptr = &idx[c.row_ptr..c.row_ptr + step.rows + 1];
            for (j, (o, &bj)) in out[..step.rows].iter_mut().zip(b).enumerate() {
                let (start, end) = (row_ptr[j] as usize, row_ptr[j + 1] as usize);
                let cols = &idx[c.col_idx + start..c.col_idx + end];
                let vals = &prog[step.w_off + start..step.w_off + end];
                let mut acc = 0.0f32;
                for (&ci, &v) in cols.iter().zip(vals) {
                    acc += v * x[ci as usize];
                }
                acc += bj;
                if step.relu {
                    acc = acc.max(0.0);
                }
                *o = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSet;
    use gpu_power::VfTable;
    use gpu_sim::DvfsGovernor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tinynn::{Matrix, Normalizer};

    fn dummy_model(seed: u64) -> CombinedModel {
        let fs = FeatureSet::refined();
        let mut rng = StdRng::seed_from_u64(seed);
        let decision = Mlp::new(&[fs.len() + 1, 12, 12, 6], &mut rng);
        let calibrator = Mlp::new(&[fs.len() + 2, 12, 1], &mut rng);
        let lo = vec![0.0f32; fs.len() + 1];
        let hi = vec![5.0f32; fs.len() + 1];
        let decision_norm = Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]));
        let lo = vec![0.0f32; fs.len() + 2];
        let hi = vec![5.0f32; fs.len() + 2];
        let calibrator_norm = Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]));
        CombinedModel {
            decision,
            calibrator,
            feature_set: fs,
            decision_norm,
            calibrator_norm,
            instr_scale: 1_000.0,
            num_ops: 6,
        }
    }

    fn counters_with(instrs: f64, stall_empty: f64) -> EpochCounters {
        let mut c = EpochCounters::zeroed();
        c[CounterId::TotalInstrs] = instrs;
        c[CounterId::TotalCycles] = 10_000.0;
        c[CounterId::StallEmpty] = stall_empty;
        c[CounterId::L1ReadMiss] = instrs % 97.0;
        c.recompute_derived();
        c
    }

    #[test]
    fn plan_matches_model_methods_exactly() {
        // First decision on a fresh slot: effective preset is still the
        // configured preset, so the allocating CombinedModel methods are a
        // complete independent oracle.
        let model = dummy_model(3);
        let config = SsmdvfsConfig::new(0.1);
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        let counters = counters_with(5_000.0, 0.0);
        let d = plan.decide_slot(&mut slot, &counters, 6);
        let features = model.feature_set.extract(&counters);
        assert_eq!(plan.features(), &features[..]);
        let logits = model.decision_logits(&features, 0.1);
        assert_eq!(plan.logits(), &logits[..]);
        assert_eq!(d.op, model.decode_ordinal(&logits).min(5));
        assert_eq!(d.predicted, model.predict_instructions(&features, 0.1, d.op));
        assert_eq!(slot.state.predicted_instructions, Some(d.predicted));
    }

    #[test]
    fn heads_compile_by_density_and_decide_as_the_reference() {
        // Unpruned heads stay dense; 80 %-pruned ones compile to CSR, also
        // with all-zero weight rows (no stored values, repeated row
        // pointers, the neuron's output is its bias alone).
        for (prune, zero_rows) in [(0.0, false), (0.8, false), (0.8, true)] {
            let mut model = dummy_model(5);
            for head in [&mut model.decision, &mut model.calibrator] {
                tinynn::prune_magnitude(head, prune);
                if zero_rows {
                    let w = &mut head.layers_mut()[0].w;
                    w.row_mut(1).fill(0.0);
                    w.row_mut(w.rows() - 1).fill(0.0);
                }
            }
            let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
            let sparse = prune > 0.0;
            assert_eq!(plan.decision_is_sparse(), sparse);
            assert_eq!(plan.calibrator_is_sparse(), sparse);
            let (dec_flops, cal_flops) = if sparse {
                (model.decision.sparse_flops(), model.calibrator.sparse_flops())
            } else {
                (model.decision.flops(), model.calibrator.flops())
            };
            assert_eq!(plan.decision_flops(), dec_flops);
            assert_eq!(plan.calibrator_flops(), cal_flops);
            for instrs in [500.0, 4_000.0, 9_000.0] {
                // A fresh slot decides at the configured preset, where the
                // allocating model methods are a complete oracle.
                let mut slot = plan.new_slot();
                let counters = counters_with(instrs, 0.0);
                let d = plan.decide_slot(&mut slot, &counters, 6);
                let features = model.feature_set.extract(&counters);
                let logits = model.decision_logits(&features, 0.1);
                assert_eq!(plan.logits(), &logits[..], "prune {prune}, zero rows {zero_rows}");
                assert_eq!(d.op, model.decode_ordinal(&logits).min(5));
                assert_eq!(d.predicted, model.predict_instructions(&features, 0.1, d.op));
            }
        }
    }

    #[test]
    fn memo_hits_on_exact_repeat_and_misses_on_any_change() {
        let model = dummy_model(7);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut slot = plan.new_slot();
        // Starved epochs skip calibration, so the state reaches a fixed
        // point immediately and an exact counter repeat must hit.
        let starved = counters_with(100.0, 9_000.0);
        let first = plan.decide_slot(&mut slot, &starved, 6);
        assert!(first.starved && !first.memo_hit);
        let hit = plan.decide_slot(&mut slot, &starved, 6);
        assert!(hit.memo_hit);
        assert_eq!(hit.op, first.op);
        assert_eq!(hit.predicted, first.predicted);
        // Any input change misses.
        let changed = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(!changed.memo_hit);
        // Perturbing the calibration state invalidates the key too.
        let again = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(again.memo_hit, "sanity: repeat hits");
        slot.state.err_ewma = 0.25;
        let perturbed = plan.decide_slot(&mut slot, &counters_with(101.0, 9_000.0), 6);
        assert!(!perturbed.memo_hit, "stale state must never replay");
    }

    #[test]
    fn memo_replay_equals_recompute_stream() {
        // The same counter stream through a memo-on and a memo-off plan
        // must produce byte-identical decisions, predictions and state.
        let model = dummy_model(11);
        let config = SsmdvfsConfig::new(0.1);
        let mut with = DecisionPlan::compile(&model, &config);
        let mut without = DecisionPlan::compile(&model, &config);
        without.set_memo(false);
        assert!(with.memo_enabled() && !without.memo_enabled());
        let mut slot_a = with.new_slot();
        let mut slot_b = without.new_slot();
        let stream = [
            (5_000.0, 0.0),
            (5_000.0, 0.0),
            (200.0, 9_500.0),
            (200.0, 9_500.0),
            (200.0, 9_500.0),
            (7_000.0, 0.0),
            (5_000.0, 0.0),
        ];
        let mut hits = 0;
        for &(instrs, stall) in &stream {
            let c = counters_with(instrs, stall);
            let a = with.decide_slot(&mut slot_a, &c, 6);
            let b = without.decide_slot(&mut slot_b, &c, 6);
            assert_eq!(a.op, b.op);
            assert_eq!(a.predicted.to_bits(), b.predicted.to_bits());
            assert_eq!(
                slot_a.state.effective_preset.to_bits(),
                slot_b.state.effective_preset.to_bits()
            );
            assert_eq!(slot_a.state.err_ewma.to_bits(), slot_b.state.err_ewma.to_bits());
            assert_eq!(with.logits(), without.logits());
            hits += a.memo_hit as usize;
            assert!(!b.memo_hit);
        }
        assert!(hits >= 2, "the starved repeats must hit the memo, got {hits}");
    }

    #[test]
    fn quantized_path_tracks_exact_path() {
        let model = dummy_model(13);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut exact_slot = plan.new_slot();
        let mut quant_slot = plan.new_slot();
        let mut agree = 0;
        for i in 0..20 {
            let c = counters_with(3_000.0 + 200.0 * i as f64, 0.0);
            let e = plan.decide_slot(&mut exact_slot, &c, 6);
            let q = plan.decide_slot_quantized(&mut quant_slot, &c, 6);
            // Quantization error can flip a borderline ordinal decode by
            // one point, never more.
            assert!(e.op.abs_diff(q.op) <= 1, "epoch {i}: {} vs {}", e.op, q.op);
            agree += (e.op == q.op) as usize;
            assert!(q.predicted >= 0.0 && q.predicted.is_finite());
        }
        assert!(agree >= 15, "quantized decisions should mostly agree, got {agree}/20");
    }

    #[test]
    fn plan_decisions_match_the_governor_stream() {
        // The governor now runs on the plan, but this pins the whole loop
        // (slot management, audit bookkeeping) to a raw plan driven by
        // hand.
        let model = dummy_model(17);
        let config = SsmdvfsConfig::new(0.1);
        let table = VfTable::titan_x();
        let mut gov = crate::SsmdvfsGovernor::new(model.clone(), config.clone());
        let mut plan = DecisionPlan::compile(&model, &config);
        let mut slot = plan.new_slot();
        for i in 0..12 {
            let c =
                counters_with(4_000.0 + 300.0 * i as f64, if i % 4 == 0 { 9_000.0 } else { 0.0 });
            let g = gov.decide(0, &c, &table);
            let p = plan.decide_slot(&mut slot, &c, table.len());
            assert_eq!(g, p.op, "epoch {i}");
        }
    }

    #[test]
    #[should_panic(expected = "non-empty operating-point table")]
    fn empty_table_is_rejected() {
        let model = dummy_model(19);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut slot = plan.new_slot();
        plan.decide_slot(&mut slot, &counters_with(1.0, 0.0), 0);
    }
}
