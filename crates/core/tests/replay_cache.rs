//! Cross-run replay-cache guarantees: a cache-warmed sweep must be
//! byte-identical to a cold (and to an uncached) sweep at any worker
//! count, and a cache persisted to disk must serve a fresh process the
//! same bytes.

use std::sync::Arc;

use gpu_sim::{GpuConfig, Time};
use ssmdvfs::{fingerprint, generate_suite_with, DataGenConfig, ReplayCache, SuiteOptions};

fn test_setup() -> (GpuConfig, DataGenConfig, Vec<gpu_workloads::Benchmark>) {
    let cfg = GpuConfig::small_test();
    let dg = DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(300.0),
        ..DataGenConfig::default()
    };
    let benches = ["lbm", "sgemm"]
        .iter()
        .map(|n| gpu_workloads::by_name(n).expect("suite benchmark").scaled(0.05))
        .collect();
    (cfg, dg, benches)
}

fn sweep(
    cfg: &GpuConfig,
    dg: &DataGenConfig,
    benches: &[gpu_workloads::Benchmark],
    jobs: usize,
    cache: Option<Arc<ReplayCache>>,
) -> String {
    let mut options = SuiteOptions::new(jobs);
    options.cache = cache;
    let outcome = generate_suite_with(benches, cfg, dg, &options).expect("sweep runs");
    serde_json::to_string(&outcome.datasets).expect("datasets serialize")
}

#[test]
fn replay_cache_hits_are_byte_identical() {
    let (cfg, dg, benches) = test_setup();
    let reference = sweep(&cfg, &dg, &benches, 2, None);

    let cache = Arc::new(ReplayCache::in_memory());
    let cold = sweep(&cfg, &dg, &benches, 2, Some(cache.clone()));
    assert_eq!(cold, reference, "an empty cache must not change the output");
    assert!(cache.misses() > 0, "the cold sweep must populate the cache");
    assert_eq!(cache.hits(), 0, "nothing to hit on the first sweep");

    // Warm reruns at several worker counts: all hits, same bytes.
    let misses_after_cold = cache.misses();
    for jobs in [1, 2, 5] {
        let warm = sweep(&cfg, &dg, &benches, jobs, Some(cache.clone()));
        assert_eq!(warm, reference, "cache hits changed the dataset at jobs={jobs}");
    }
    assert!(cache.hits() > 0, "warm sweeps must be served from the cache");
    assert_eq!(cache.misses(), misses_after_cold, "warm sweeps must not re-simulate");
}

#[test]
fn persisted_cache_serves_identical_bytes() {
    let (cfg, dg, benches) = test_setup();
    let dir = std::env::temp_dir()
        .join(format!("ssmdvfs-replay-cache-integration-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.jsonl");
    std::fs::remove_file(&path).ok();

    let cold_cache = Arc::new(ReplayCache::open(&path).unwrap());
    let cold = sweep(&cfg, &dg, &benches, 2, Some(cold_cache.clone()));

    // A fresh handle on the file (a new process, in effect) serves every
    // replay from disk.
    let warm_cache = Arc::new(ReplayCache::open(&path).unwrap());
    assert_eq!(warm_cache.len(), cold_cache.len(), "the cache must roundtrip through disk");
    let warm = sweep(&cfg, &dg, &benches, 3, Some(warm_cache.clone()));
    assert_eq!(warm, cold, "a reloaded cache must reproduce the same bytes");
    assert_eq!(warm_cache.misses(), 0, "every replay must be cached");
    assert!(warm_cache.hits() > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprints_discriminate_sweep_inputs() {
    // A false cache hit would silently corrupt a dataset, so the key must
    // change whenever any replay input changes.
    let (cfg, dg, benches) = test_setup();
    let w = benches[0].workload();
    assert_ne!(fingerprint(w), fingerprint(benches[1].workload()), "different benchmarks");
    let rescaled = benches[0].scaled(0.5);
    assert_ne!(fingerprint(w), fingerprint(rescaled.workload()), "different scales");
    let mut other_cfg = cfg.clone();
    other_cfg.sms_per_cluster += 1;
    assert_ne!(fingerprint(&cfg), fingerprint(&other_cfg), "different GPU configs");
    let other_dg = DataGenConfig { breakpoint_interval_epochs: 6, ..dg.clone() };
    assert_ne!(fingerprint(&dg), fingerprint(&other_dg), "different datagen params");
}
