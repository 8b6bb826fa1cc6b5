//! Determinism guarantees of the batched decision-serving path.
//!
//! Two invariants keep the serving engine honest:
//!
//! 1. **Jobs invariance** — a fleet's decision streams are byte-identical
//!    no matter how many worker threads drive the GPUs, because a batch
//!    only regroups requests that each run through the same compiled
//!    decision plan, and calibration state is keyed per `(gpu, cluster)`.
//! 2. **Serve ≡ govern** — routing a GPU's decisions through the service
//!    produces exactly the stream a private, sequential
//!    [`SsmdvfsGovernor`] would, including the self-calibration feedback —
//!    also when one batch holds several requests for the same key.

use std::sync::Arc;

use gpu_power::VfTable;
use gpu_sim::{
    run_fleet, CounterId, DvfsGovernor, EpochCounters, GpuConfig, Simulation, Time, Workload,
};
use ssmdvfs::serve::{DecisionService, PendingDecision, ServeConfig};
use ssmdvfs::{CombinedModel, DecisionRequest, SsmdvfsConfig, SsmdvfsGovernor};

fn fleet_workloads(n: usize) -> Vec<Arc<Workload>> {
    let names = ["sgemm", "stencil", "atax"];
    (0..n)
        .map(|i| {
            let bench = gpu_workloads::by_name(names[i % names.len()]).expect("known benchmark");
            Arc::new(bench.scaled(0.02 + 0.005 * i as f64).into_workload())
        })
        .collect()
}

fn model_for(table_len: usize) -> Arc<CombinedModel> {
    Arc::new(CombinedModel::synthetic(table_len, 42))
}

/// Fixed seeds, one shard: the fleet's decision streams must not depend on
/// the `--jobs` worker count.
#[test]
fn fleet_decisions_are_identical_across_jobs() {
    let config = Arc::new(GpuConfig::small_test());
    let workloads = fleet_workloads(4);
    let horizon = Time::from_micros(400.0);
    let model = model_for(config.vf_table.len());

    let run = |jobs: usize| -> Vec<Vec<usize>> {
        let service = DecisionService::start(
            Arc::clone(&model),
            SsmdvfsConfig::new(0.1),
            config.vf_table.clone(),
            ServeConfig { shards: 1, max_batch: 8, ..ServeConfig::default() },
        );
        let client = service.client();
        let results = run_fleet(&config, &workloads, horizon, jobs, &client);
        let stats = service.shutdown();
        assert_eq!(stats.deadline_misses, 0, "no deadline configured");
        results.into_iter().map(|r| r.decisions).collect()
    };

    let sequential = run(1);
    let parallel = run(4);
    assert!(sequential.iter().any(|d| !d.is_empty()), "fleet must produce decisions");
    assert_eq!(sequential, parallel, "decision streams must not depend on --jobs");
}

/// A wrapper that records every operating point a real governor picks.
struct Recording<'a> {
    inner: &'a mut SsmdvfsGovernor,
    decisions: Vec<usize>,
}

impl DvfsGovernor for Recording<'_> {
    fn name(&self) -> &str {
        "recording"
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn decide(&mut self, cluster: usize, counters: &EpochCounters, table: &VfTable) -> usize {
        let op = self.inner.decide(cluster, counters, table);
        self.decisions.push(op);
        op
    }
}

/// A GPU served through the batching service is byte-identical to the same
/// GPU driven by its own sequential `SsmdvfsGovernor`.
#[test]
fn served_decisions_match_direct_governor() {
    let config = Arc::new(GpuConfig::small_test());
    let workloads = fleet_workloads(1);
    let horizon = Time::from_micros(400.0);
    let model = model_for(config.vf_table.len());
    let ctrl = SsmdvfsConfig::new(0.1);

    let mut governor = SsmdvfsGovernor::new(Arc::clone(&model), ctrl.clone());
    let mut recorder = Recording { inner: &mut governor, decisions: Vec::new() };
    let mut sim = Simulation::new(Arc::clone(&config), Arc::clone(&workloads[0]));
    let direct = sim.run(&mut recorder, horizon);
    let direct_decisions = recorder.decisions;

    let service = DecisionService::start(
        Arc::clone(&model),
        ctrl,
        config.vf_table.clone(),
        ServeConfig { shards: 1, max_batch: 32, ..ServeConfig::default() },
    );
    let client = service.client();
    let served = run_fleet(&config, &workloads, horizon, 1, &client);
    service.shutdown();

    assert!(!direct_decisions.is_empty(), "the governor must have decided something");
    assert_eq!(served[0].decisions, direct_decisions, "serving must equal direct governing");
    assert_eq!(served[0].result.instructions, direct.instructions);
    assert_eq!(served[0].result.epochs, direct.epochs);
}

fn counters_for(i: u64) -> EpochCounters {
    let mut c = EpochCounters::zeroed();
    c[CounterId::TotalInstrs] = 500.0 + 37.0 * i as f64;
    c[CounterId::TotalCycles] = 1_000.0;
    c[CounterId::IntAluInstrs] = 200.0 + 11.0 * i as f64;
    c[CounterId::LoadGlobalInstrs] = 60.0 + 3.0 * (i % 7) as f64;
    c[CounterId::StallMemLoad] = 120.0 + 17.0 * (i % 5) as f64;
    c[CounterId::L1ReadAccess] = 90.0;
    c[CounterId::L1ReadMiss] = 20.0 + (i % 9) as f64;
    c.recompute_derived();
    c
}

/// Requests for one `(gpu, cluster)` pipelined before any answer is
/// awaited land in the same drained batch; each must still see the
/// calibration state its predecessor left, exactly as a sequential
/// governor fed the same counters in order.
#[test]
fn pipelined_same_key_requests_match_sequential_governor() {
    let table = GpuConfig::small_test().vf_table;
    let model = Arc::new(CombinedModel::synthetic(table.len(), 9));
    let ctrl = SsmdvfsConfig::new(0.1);

    let mut gov = SsmdvfsGovernor::new(Arc::clone(&model), ctrl.clone());
    let reference: Vec<usize> = (0..256).map(|i| gov.decide(0, &counters_for(i), &table)).collect();

    let service = DecisionService::start(
        Arc::clone(&model),
        ctrl,
        table.clone(),
        ServeConfig { shards: 1, max_batch: 32, queue_depth: 1024, deadline: None },
    );
    let client = service.client();
    let pending: Vec<PendingDecision> = (0..256)
        .map(|i| client.submit(DecisionRequest { gpu: 0, cluster: 0, counters: counters_for(i) }))
        .collect();
    let served: Vec<usize> = pending.into_iter().map(|p| p.wait().op_index).collect();
    let stats = service.shutdown();
    assert!(
        stats.mean_batch() > 1.5,
        "the batcher never drained a multi-request batch (mean {:.2} over {} batches)",
        stats.mean_batch(),
        stats.batches
    );
    assert_eq!(served, reference, "pipelined same-key stream diverged from governor");
}
