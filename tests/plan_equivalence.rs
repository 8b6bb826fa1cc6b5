//! Property-based bit-identity proof for the compiled decision fast path.
//!
//! [`DecisionPlan`] is the only single-sample f32 inference code in the
//! workspace; these properties enforce that it reproduces the reference
//! decision arithmetic **byte-for-byte** — memo on or off, dense or CSR
//! heads, ordinal or argmax decode — over random model shapes, feature
//! vectors, presets and warm/cold epoch sequences.
//!
//! The oracle is built purely from the allocating [`CombinedModel`] methods
//! (`decision_logits`, `decode_ordinal`, `predict_instructions`, which run
//! `tinynn`'s batched forward pass on one row) plus a line-for-line replica
//! of the self-calibration update. That path shares no code with
//! `plan.rs`, so agreement here proves the plan computes exactly what the
//! model it was compiled from computes.

use gpu_sim::{CounterId, EpochCounters};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use ssmdvfs::plan::DecisionPlan;
use ssmdvfs::{CombinedModel, FeatureSet, SsmdvfsConfig};
use tinynn::{Matrix, Mlp, Normalizer};

/// A model with random hidden shapes; optionally magnitude-pruned hard
/// enough that both heads compile to the CSR program.
fn build_model(seed: u64, hidden: &[usize], num_ops: usize, sparse: bool) -> CombinedModel {
    let fs = FeatureSet::refined();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dec_shape = vec![fs.len() + 1];
    dec_shape.extend_from_slice(hidden);
    dec_shape.push(num_ops);
    let mut cal_shape = vec![fs.len() + 2];
    cal_shape.extend_from_slice(hidden);
    cal_shape.push(1);
    let mut decision = Mlp::new(&dec_shape, &mut rng);
    let mut calibrator = Mlp::new(&cal_shape, &mut rng);
    if sparse {
        tinynn::prune_magnitude(&mut decision, 0.8);
        tinynn::prune_magnitude(&mut calibrator, 0.8);
    }
    let unit = |n: usize| {
        let lo = vec![-2.0f32; n];
        let hi = vec![2.0f32; n];
        Normalizer::fit(&Matrix::from_rows(&[&lo, &hi]))
    };
    CombinedModel {
        decision_norm: unit(fs.len() + 1),
        calibrator_norm: unit(fs.len() + 2),
        decision,
        calibrator,
        feature_set: fs,
        instr_scale: 1_000.0,
        num_ops,
    }
}

fn counters_for(instrs: f64, stall_frac: f64, salt: f64) -> EpochCounters {
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalInstrs] = instrs;
    c[CounterId::TotalCycles] = 10_000.0;
    c[CounterId::StallEmpty] = stall_frac * 10_000.0;
    c[CounterId::StallMemLoad] = salt;
    c[CounterId::PowerTotalW] = 3.0 + salt * 0.01;
    c[CounterId::L1ReadMiss] = (instrs * 0.07).floor();
    c.recompute_derived();
    c
}

/// The reference: allocating model methods + a replica of the controller's
/// self-calibration state machine, independent of `plan.rs`.
struct Reference {
    effective_preset: f64,
    predicted: Option<f32>,
    err_ewma: f64,
}

impl Reference {
    fn new(config: &SsmdvfsConfig) -> Reference {
        Reference { effective_preset: config.preset, predicted: None, err_ewma: 0.0 }
    }

    fn decide(
        &mut self,
        model: &CombinedModel,
        config: &SsmdvfsConfig,
        counters: &EpochCounters,
        table_len: usize,
    ) -> (usize, f32, Vec<f32>) {
        let features = model.feature_set.extract(counters);
        let cycles = counters[CounterId::TotalCycles].max(1.0);
        let starved = counters[CounterId::StallEmpty] / cycles > 0.2;
        if config.calibration && !starved {
            if let Some(predicted) = self.predicted {
                let actual = counters.total_instructions() as f32;
                if predicted > 0.0 {
                    let rel_err = f64::from((predicted - actual) / predicted);
                    self.err_ewma = 0.7 * self.err_ewma + 0.3 * rel_err;
                    if self.err_ewma > config.deadband {
                        self.effective_preset = (self.effective_preset
                            - config.gain * (self.err_ewma - config.deadband) * config.preset)
                            .max(config.min_preset);
                    } else {
                        self.effective_preset = (self.effective_preset
                            + config.recovery * config.preset)
                            .min(config.preset);
                    }
                }
            }
        }
        let logits = model.decision_logits(&features, self.effective_preset as f32);
        let op = if config.argmax_decode {
            tinynn::argmax(&logits).min(table_len - 1)
        } else {
            model.decode_ordinal(&logits).min(table_len - 1)
        };
        let predicted = model.predict_instructions(&features, config.preset as f32, op);
        self.predicted = Some(predicted);
        (op, predicted, logits)
    }
}

/// One generated epoch: instruction count, starvation, and how many times
/// the identical epoch repeats back-to-back (the memo's warm case).
#[derive(Debug, Clone)]
struct Epoch {
    instrs: f64,
    stall_frac: f64,
    repeats: usize,
}

fn epoch_strategy() -> impl Strategy<Value = Epoch> {
    (0u32..20_000, any::<bool>(), 1usize..4).prop_map(|(instrs, starved, repeats)| Epoch {
        instrs: instrs as f64,
        // Starved epochs freeze the calibration state, so repeats of them
        // are the memo's guaranteed-hit case; the non-starved fraction
        // exercises misses through the moving state.
        stall_frac: if starved { 0.9 } else { 0.0 },
        repeats,
    })
}

#[allow(clippy::too_many_arguments)]
fn run_equivalence(
    seed: u64,
    hidden: Vec<usize>,
    num_ops: usize,
    sparse: bool,
    preset: f64,
    calibration: bool,
    argmax: bool,
    memo: bool,
    epochs: Vec<Epoch>,
) {
    let model = build_model(seed, &hidden, num_ops, sparse);
    let mut config = SsmdvfsConfig::new(preset);
    config.calibration = calibration;
    config.argmax_decode = argmax;
    let table_len = num_ops; // decode clamps to both; same size is the hot case
    let mut plan = DecisionPlan::compile(&model, &config);
    plan.set_memo(memo);
    let mut slot = plan.new_slot();
    let mut reference = Reference::new(&config);
    let mut step = 0usize;
    for e in &epochs {
        for rep in 0..e.repeats {
            let counters = counters_for(e.instrs, e.stall_frac, (step / 3) as f64);
            let d = plan.decide_slot(&mut slot, &counters, table_len);
            let (op, predicted, logits) = reference.decide(&model, &config, &counters, table_len);
            assert_eq!(d.op, op, "step {step} (repeat {rep}): decision diverged");
            assert_eq!(
                d.predicted.to_bits(),
                predicted.to_bits(),
                "step {step}: prediction diverged"
            );
            assert_eq!(
                d.effective_preset.to_bits(),
                reference.effective_preset.to_bits(),
                "step {step}: effective preset diverged"
            );
            assert_eq!(
                slot.state.err_ewma.to_bits(),
                reference.err_ewma.to_bits(),
                "step {step}: error EWMA diverged"
            );
            let plan_logits: Vec<u32> = plan.logits().iter().map(|v| v.to_bits()).collect();
            let ref_logits: Vec<u32> = logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(plan_logits, ref_logits, "step {step}: logits diverged");
            step += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense heads, memo on and off, over random shapes/presets/sequences.
    #[test]
    fn plan_is_bit_identical_to_reference_dense(
        seed in 0u64..1_000,
        hidden in prop::collection::vec(1usize..16, 1..3),
        num_ops in 2usize..8,
        preset in 0.02f64..0.3,
        calibration in any::<bool>(),
        argmax in any::<bool>(),
        memo in any::<bool>(),
        epochs in prop::collection::vec(epoch_strategy(), 1..12),
    ) {
        run_equivalence(seed, hidden, num_ops, false, preset, calibration, argmax, memo, epochs);
    }

    /// CSR heads (80 % magnitude-pruned): the sparse program must be just
    /// as bit-identical.
    #[test]
    fn plan_is_bit_identical_to_reference_sparse(
        seed in 0u64..1_000,
        hidden in prop::collection::vec(2usize..16, 1..3),
        num_ops in 2usize..8,
        preset in 0.02f64..0.3,
        memo in any::<bool>(),
        epochs in prop::collection::vec(epoch_strategy(), 1..12),
    ) {
        run_equivalence(seed, hidden, num_ops, true, preset, true, false, memo, epochs);
    }

    /// Memo-on and memo-off plans fed the same stream stay in lockstep and
    /// the warm repeats actually hit.
    #[test]
    fn memo_is_invisible_and_hits_on_warm_repeats(
        seed in 0u64..1_000,
        epochs in prop::collection::vec(epoch_strategy(), 2..10),
    ) {
        let model = build_model(seed, &[8], 6, false);
        let config = SsmdvfsConfig::new(0.1);
        let mut warm = DecisionPlan::compile(&model, &config);
        let mut cold = DecisionPlan::compile(&model, &config);
        cold.set_memo(false);
        let mut warm_slot = warm.new_slot();
        let mut cold_slot = cold.new_slot();
        let mut hits = 0usize;
        let mut starved_repeats = 0usize;
        for (i, e) in epochs.iter().enumerate() {
            for rep in 0..e.repeats {
                let counters = counters_for(e.instrs, e.stall_frac, i as f64);
                let w = warm.decide_slot(&mut warm_slot, &counters, 6);
                let c = cold.decide_slot(&mut cold_slot, &counters, 6);
                prop_assert_eq!(w.op, c.op);
                prop_assert_eq!(w.predicted.to_bits(), c.predicted.to_bits());
                prop_assert_eq!(
                    warm_slot.state.effective_preset.to_bits(),
                    cold_slot.state.effective_preset.to_bits()
                );
                hits += w.memo_hit as usize;
                prop_assert!(!c.memo_hit, "a disabled memo must never report hits");
                // A starved repeat freezes the state, so from the second
                // occurrence on it is a guaranteed hit.
                starved_repeats += (e.stall_frac > 0.2 && rep > 0) as usize;
            }
        }
        prop_assert!(
            hits >= starved_repeats,
            "expected at least {} hits (starved repeats), saw {}",
            starved_repeats,
            hits
        );
    }
}
