//! Resume guarantees of the replay store: a sweep killed at any point and
//! rerun on its store must produce a dataset byte-identical to an
//! uninterrupted run, however many times it is killed.
//!
//! Interruption is simulated by keeping only a prefix of the lines an
//! uninterrupted run appends to its store (exactly what a SIGKILL mid-sweep
//! leaves behind — the store gains one flushed line per finished replay, so
//! it can only ever be a prefix of the full log, plus at most one truncated
//! trailing line, which `ReplayCache::open` drops and cuts off).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use gpu_sim::{GpuConfig, Time};
use gpu_workloads::Benchmark;
use proptest::prelude::*;
use ssmdvfs::{generate_suite_with, DvfsDataset, ReplayCache, SuiteOptions};

fn small_suite() -> (Vec<Benchmark>, GpuConfig, ssmdvfs::DataGenConfig) {
    small_suite_at(0.05)
}

fn small_suite_at(scale: f64) -> (Vec<Benchmark>, GpuConfig, ssmdvfs::DataGenConfig) {
    let cfg = GpuConfig::small_test();
    let dg = ssmdvfs::DataGenConfig {
        breakpoint_interval_epochs: 5,
        max_time: Time::from_micros(300.0),
        ..ssmdvfs::DataGenConfig::default()
    };
    let benches: Vec<Benchmark> = ["lbm", "sgemm"]
        .iter()
        .map(|n| gpu_workloads::by_name(n).expect("suite benchmark").scaled(scale))
        .collect();
    (benches, cfg, dg)
}

/// The merged dataset's serialized bytes.
fn merged_bytes(datasets: &[DvfsDataset]) -> String {
    let mut merged = DvfsDataset::default();
    for part in datasets {
        merged.samples.extend(part.samples.iter().cloned());
    }
    serde_json::to_string(&merged).expect("dataset serializes")
}

/// A store path of this process, with no file at it yet.
fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ssmdvfs-resume-test-{tag}-{}.jsonl", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// Runs the scale-0.05 suite on the store at `path`, returning the
/// datasets, their merged bytes and the store.
fn run_on_store(path: &Path) -> (Vec<DvfsDataset>, String, Arc<ReplayCache>) {
    let (benches, cfg, dg) = small_suite();
    let store = Arc::new(ReplayCache::open(path).expect("store opens"));
    let mut options = SuiteOptions::new(2);
    options.cache = Some(store.clone());
    let outcome = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep");
    assert!(outcome.faults.is_empty(), "no fault policy, no faults");
    let bytes = merged_bytes(&outcome.datasets);
    (outcome.datasets, bytes, store)
}

fn store_lines(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).expect("store readable");
    text.lines().map(str::to_string).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill-anywhere/resume-anywhere: keep an arbitrary prefix of the full
    /// store (including empty and complete), rerun on it, and require the
    /// final dataset bytes to match the uninterrupted run exactly.
    #[test]
    fn resumed_run_is_byte_identical(keep_fraction in 0.0f64..=1.0) {
        let path = temp_store(&format!("prop{}", (keep_fraction * 1000.0) as u64));
        let (_, uninterrupted, _) = run_on_store(&path);

        // Truncate the store to a prefix, as an interruption would.
        let lines = store_lines(&path);
        let keep = ((lines.len() as f64) * keep_fraction).floor() as usize;
        let prefix: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, prefix).expect("store writable");

        let (_, resumed, store) = run_on_store(&path);
        prop_assert_eq!(
            uninterrupted,
            resumed,
            "resume after keeping {}/{} store lines diverged",
            keep,
            lines.len()
        );
        prop_assert_eq!(store.hits() as usize, keep, "every kept line is reused");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_with_truncated_final_line_matches() {
    // The literal SIGKILL shape: a store whose last line was cut mid-write.
    let path = temp_store("truncline");
    let (_, uninterrupted, _) = run_on_store(&path);

    let lines = store_lines(&path);
    assert!(lines.len() >= 2, "the suite must store at least two jobs");
    let keep = lines.len() / 2;
    let mut damaged: String = lines[..keep].iter().map(|l| format!("{l}\n")).collect();
    damaged.push_str(&lines[keep][..lines[keep].len() / 2]);
    std::fs::write(&path, damaged).expect("store writable");

    // The first rerun must cut the half line off before appending, or the
    // second rerun finds it glued to a new line mid-file.
    for rerun in 1..=2 {
        let (_, resumed, _) = run_on_store(&path);
        assert_eq!(uninterrupted, resumed, "rerun {rerun} after a cut line diverged");
    }
    assert_eq!(store_lines(&path).len(), lines.len(), "each job is stored once");
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaled_run_matches_unjournaled_run() {
    // The store must be observation-only: sweeping with or without it
    // cannot change the dataset.
    let (benches, cfg, dg) = small_suite();
    let plain = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2))
        .expect("plain sweep")
        .datasets;

    let path = temp_store("obsonly");
    let (stored, _, _) = run_on_store(&path);
    assert_eq!(plain, stored);

    // A full store means a rerun recomputes nothing, yet still yields
    // identical output.
    let (rerun, _, store) = run_on_store(&path);
    assert_eq!(plain, rerun);
    assert_eq!(store.misses(), 0, "a full store serves every replay");
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_from_another_scale_is_ignored() {
    // Job positions line up across scales, content keys do not: a sweep at
    // scale 0.1 on a store filled at scale 0.05 must reuse nothing and
    // still produce the plain scale-0.1 bytes.
    let path = temp_store("otherscale");
    let (_, small, _) = run_on_store(&path);
    let small_jobs = store_lines(&path).len();
    let (benches, cfg, dg) = small_suite_at(0.1);
    let plain = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2)).expect("sweep");
    let plain = merged_bytes(&plain.datasets);
    assert_ne!(small, plain, "the two scales must differ for reuse to show");

    let store = Arc::new(ReplayCache::open(&path).expect("store opens"));
    let mut options = SuiteOptions::new(2);
    options.cache = Some(store.clone());
    let rescaled = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep");
    assert_eq!(plain, merged_bytes(&rescaled.datasets), "a foreign replay leaked into the sweep");
    assert_eq!(store.hits(), 0, "no scale-0.05 replay matches a scale-0.1 job");
    // Every job of the new sweep ran and was stored beside the old ones.
    let total = store_lines(&path).len();
    assert_eq!(total, small_jobs + store.misses() as usize);
    assert_eq!(ReplayCache::open(&path).expect("store reopens").len(), total);
    std::fs::remove_file(&path).ok();
}
