//! Fault-injection drills: deterministic fail points fired inside the
//! datagen worker pool, with and without quarantine mode, and inside a
//! decision-serving combiner.
//!
//! These tests live in their own integration binary because fail points are
//! process-global: sharing a binary with unrelated parallel tests would let
//! an armed fail point leak into them.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use gpu_sim::{EpochCounters, GpuConfig, Time};
use gpu_workloads::Benchmark;
use ssmdvfs::exec::FaultPolicy;
use ssmdvfs::{
    failpoint, generate_suite_with, CombinedModel, DataGenConfig, DecisionRequest, DecisionService,
    PendingDecision, ReplayCache, ServeConfig, SsmdvfsConfig, SuiteOptions,
};

fn small_suite() -> (Vec<Benchmark>, GpuConfig, DataGenConfig) {
    let cfg = GpuConfig::small_test();
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(300.0),
        ..DataGenConfig::default()
    };
    let benches: Vec<Benchmark> = ["lbm", "sgemm"]
        .iter()
        .map(|n| gpu_workloads::by_name(n).expect("suite benchmark").scaled(0.05))
        .collect();
    (benches, cfg, dg)
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(String::new, |s| s.to_string()),
    }
}

// One #[test] driving every scenario sequentially: fail points are
// process-global, so scenarios must not run concurrently.
#[test]
fn fault_injection_scenarios() {
    let (benches, cfg, dg) = small_suite();
    let clean = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2))
        .expect("clean sweep")
        .datasets;

    // Scenario 1: a transient fault (one panic, budget of two retries) is
    // retried to success — the sweep completes with the exact clean output
    // and the report shows the retry.
    failpoint::arm("datagen.replay", 3, 1);
    let mut options = SuiteOptions::new(2);
    options.fault_policy = Some(FaultPolicy { max_retries: 2 });
    let outcome = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep survives");
    failpoint::disarm_all();
    assert_eq!(outcome.faults.retries, 1, "one injected panic, one retry");
    assert!(outcome.faults.is_clean(), "retry succeeded: {}", outcome.faults);
    assert_eq!(outcome.datasets, clean, "a retried unit reproduces its samples exactly");

    // Scenario 2: a persistent fault (more panics than the budget) drops
    // the unit; the sweep still completes, the report names the casualty,
    // and exactly that unit's samples are missing. The sweep runs on a
    // file-backed replay store, which must not keep the dropped unit.
    let store_path = std::env::temp_dir()
        .join(format!("ssmdvfs-fault-injection-store-{}.jsonl", std::process::id()));
    std::fs::remove_file(&store_path).ok();
    let store = Arc::new(ReplayCache::open(&store_path).expect("store opens"));
    failpoint::arm("datagen.replay", 3, usize::MAX);
    let mut options = SuiteOptions::new(2);
    options.fault_policy = Some(FaultPolicy { max_retries: 1 });
    options.cache = Some(store.clone());
    let outcome = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep survives");
    failpoint::disarm_all();
    assert_eq!(outcome.faults.dropped.len(), 1, "exactly one unit dropped: {}", outcome.faults);
    assert_eq!(outcome.faults.dropped[0].attempts, 2);
    assert!(outcome.faults.dropped[0].message.contains("failpoint datagen.replay#3"));
    let clean_total: usize = clean.iter().map(|d| d.len()).sum();
    let faulted_total: usize = outcome.datasets.iter().map(|d| d.len()).sum();
    assert!(
        faulted_total < clean_total,
        "the dropped unit's samples are missing ({faulted_total} < {clean_total})"
    );
    // Every job missed the empty store; all but the dropped one are stored,
    // in memory and on disk.
    let jobs = store.misses() as usize;
    assert_eq!(store.len(), jobs - 1, "the dropped unit is not stored");
    drop(store);
    assert_eq!(ReplayCache::open(&store_path).expect("store reopens").len(), jobs - 1);
    // Disarmed, a rerun on the store simulates only the dropped unit and
    // reproduces the clean sweep.
    let store = Arc::new(ReplayCache::open(&store_path).expect("store reopens"));
    let mut options = SuiteOptions::new(2);
    options.cache = Some(store.clone());
    let rerun = generate_suite_with(&benches, &cfg, &dg, &options).expect("rerun");
    assert_eq!((store.hits(), store.misses()), (jobs as u64 - 1, 1), "one replay misses");
    assert_eq!(rerun.datasets, clean, "the rerun fills in exactly the dropped unit");
    std::fs::remove_file(&store_path).ok();

    // Scenario 3: no fault policy — the injected panic propagates fail-fast
    // with its message intact, exactly like any other worker panic.
    failpoint::arm("datagen.replay", 0, 1);
    let result = std::panic::catch_unwind(|| {
        generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2))
    });
    failpoint::disarm_all();
    let payload = result.expect_err("without quarantine the panic must propagate");
    let msg = payload.downcast_ref::<String>().expect("panic message survives the pool");
    assert!(msg.contains("failpoint datagen.replay#0"), "got: {msg}");

    // Scenario 4: a decision-serving combiner panics on its first
    // decision. Its caller's `wait` re-raises the fail point's panic; the
    // shard is poisoned, so every other pending request, a later decision
    // and the shutdown panic with the poison message instead of hanging.
    let table = cfg.vf_table.clone();
    let model = Arc::new(CombinedModel::synthetic(table.len(), 9));
    let service =
        DecisionService::start(model, SsmdvfsConfig::new(0.1), table, ServeConfig::default());
    let client = service.client();
    let counters = EpochCounters::zeroed();
    failpoint::arm("serve.decide", 0, 1);
    let mut pending: Vec<PendingDecision> = (0..4)
        .map(|gpu| client.submit(DecisionRequest { gpu, cluster: 0, counters: counters.clone() }))
        .collect();
    let combiner = pending.remove(0);
    let result = panic::catch_unwind(AssertUnwindSafe(|| combiner.wait()));
    failpoint::disarm_all();
    let msg = panic_message(result.expect_err("the combiner's panic must reach its caller"));
    assert!(msg.contains("failpoint serve.decide#0"), "got: {msg}");
    for p in pending {
        let result = panic::catch_unwind(AssertUnwindSafe(|| p.wait()));
        let msg = panic_message(result.expect_err("a poisoned shard must not answer"));
        assert!(msg.contains("shard poisoned"), "got: {msg}");
    }
    let result = panic::catch_unwind(AssertUnwindSafe(|| client.decide(1, 0, &counters)));
    let msg = panic_message(result.expect_err("a poisoned shard must refuse new requests"));
    assert!(msg.contains("shard poisoned"), "got: {msg}");
    let result = panic::catch_unwind(AssertUnwindSafe(|| service.shutdown()));
    let msg = panic_message(result.expect_err("shutdown reports the poisoned shard"));
    assert!(msg.contains("shard poisoned"), "got: {msg}");

    // Fail points must leave no residue for later runs.
    assert!(!failpoint::any_armed());
    let after = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2))
        .expect("clean again")
        .datasets;
    assert_eq!(after, clean);
}
