//! Checkpoint/resume guarantees: a sweep interrupted at any point and
//! resumed from its journal must produce a dataset byte-identical to an
//! uninterrupted run.
//!
//! Interruption is simulated by journaling only a prefix of the jobs an
//! uninterrupted run records (exactly what a SIGKILL mid-sweep leaves
//! behind — the flush-per-line journal can only ever be a prefix of the
//! full job log, modulo one truncated trailing line, which the loader
//! drops).

use gpu_sim::{GpuConfig, Time};
use gpu_workloads::Benchmark;
use proptest::prelude::*;
use ssmdvfs::checkpoint::{self, CheckpointJournal};
use ssmdvfs::{generate_suite_with, DvfsDataset, SuiteOptions};

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

fn temp_journal(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ssmdvfs-resume-test-{tag}-{}.jsonl", std::process::id()));
    p
}

/// Runs the suite journaling to `path`, returning the merged dataset bytes.
fn run_journaled(path: &std::path::Path, resume: bool) -> (Vec<DvfsDataset>, String) {
    let (benches, cfg, dg) = small_suite();
    let mut options = SuiteOptions::new(2);
    if resume {
        options.completed = checkpoint::completed_jobs(checkpoint::load(path).expect("journal"));
        options.journal = Some(CheckpointJournal::append_to(path).expect("journal"));
    } else {
        options.journal = Some(CheckpointJournal::create(path).expect("journal"));
    }
    let outcome = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep");
    assert!(outcome.faults.is_empty(), "no fault policy, no faults");
    let bytes = merged_bytes(&outcome.datasets);
    (outcome.datasets, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Kill-anywhere/resume-anywhere: keep an arbitrary prefix of the full
    /// journal (including empty and complete), resume from it, and require
    /// the final dataset bytes to match the uninterrupted run exactly.
    #[test]
    fn resumed_run_is_byte_identical(keep_fraction in 0.0f64..=1.0) {
        let path = temp_journal(&format!("prop{}", (keep_fraction * 1000.0) as u64));
        let (_, uninterrupted) = run_journaled(&path, false);

        // Truncate the journal to a prefix, as an interruption would.
        let text = std::fs::read_to_string(&path).expect("journal readable");
        let lines: Vec<&str> = text.lines().collect();
        let keep = ((lines.len() as f64) * keep_fraction).floor() as usize;
        let mut prefix = lines[..keep].join("\n");
        if keep > 0 {
            prefix.push('\n');
        }
        std::fs::write(&path, prefix).expect("journal writable");

        let (_, resumed) = run_journaled(&path, true);
        prop_assert_eq!(
            uninterrupted,
            resumed,
            "resume after keeping {}/{} journal lines diverged",
            keep,
            lines.len()
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn resume_with_truncated_final_line_matches() {
    // The literal SIGKILL shape: a journal whose last line was cut mid-write.
    let path = temp_journal("truncline");
    let (_, uninterrupted) = run_journaled(&path, false);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 2, "suite must journal at least two jobs");
    let keep = lines.len() / 2;
    let mut damaged = lines[..keep].join("\n");
    damaged.push('\n');
    let half = &lines[keep][..lines[keep].len() / 2];
    damaged.push_str(half);
    std::fs::write(&path, damaged).expect("journal writable");

    let (_, resumed) = run_journaled(&path, true);
    assert_eq!(uninterrupted, resumed, "truncated-final-line resume diverged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaled_run_matches_unjournaled_run() {
    // Checkpointing must be observation-only: journaling on/off cannot
    // change the dataset.
    let (benches, cfg, dg) = small_suite();
    let plain = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2))
        .expect("plain sweep")
        .datasets;

    let path = temp_journal("obsonly");
    let (journaled, _) = run_journaled(&path, false);
    assert_eq!(plain, journaled);

    // A full journal means a resumed run recomputes nothing, yet still
    // yields identical output.
    let (fully_resumed, _) = run_journaled(&path, true);
    assert_eq!(plain, fully_resumed);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journal_from_another_scale_is_ignored() {
    // Job positions line up across scales, content keys do not: a sweep at
    // scale 0.1 resumed from a scale-0.05 journal must reuse nothing and
    // still produce the plain scale-0.1 bytes.
    let path = temp_journal("otherscale");
    let (_, small) = run_journaled(&path, false);
    let (benches, cfg, dg) = small_suite_at(0.1);
    let plain = generate_suite_with(&benches, &cfg, &dg, &SuiteOptions::new(2)).expect("sweep");
    let plain = merged_bytes(&plain.datasets);
    assert_ne!(small, plain, "the two scales must differ for reuse to show");

    let mut options = SuiteOptions::new(2);
    let journaled = checkpoint::load(&path).expect("journal");
    let journaled_jobs = journaled.len();
    options.completed = checkpoint::completed_jobs(journaled);
    options.journal = Some(CheckpointJournal::append_to(&path).expect("journal"));
    let resumed = generate_suite_with(&benches, &cfg, &dg, &options).expect("sweep");
    assert_eq!(plain, merged_bytes(&resumed.datasets), "a foreign journal leaked into the sweep");
    // Every job of the new sweep ran and was journaled after the old ones.
    let entries = checkpoint::load(&path).expect("journal");
    let keys: std::collections::HashSet<&str> =
        entries[journaled_jobs..].iter().map(|e| e.key.as_str()).collect();
    assert!(entries[..journaled_jobs].iter().all(|e| !keys.contains(e.key.as_str())));
    std::fs::remove_file(&path).ok();
}
