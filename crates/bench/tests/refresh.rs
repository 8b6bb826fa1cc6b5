//! `SSMDVFS_REFRESH=1` re-simulates: a refreshed dataset build must not
//! read replays from the pipeline's replay store.
//!
//! Its own test binary, because it sets the process-wide `SSMDVFS_ARTIFACTS`
//! and `SSMDVFS_REFRESH` variables.

use gpu_sim::{GpuConfig, Time};
use gpu_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use ssmdvfs::{generate_suite_with, DataGenConfig, DvfsDataset, RawSample, SuiteOptions};
use ssmdvfs_bench::{build_or_load_dataset, PipelineConfig};

/// One line of the replay store.
#[derive(Serialize, Deserialize)]
struct StoredReplay {
    key: String,
    samples: Vec<RawSample>,
}

/// A loss no replay measures at this scale.
const PLANTED_LOSS: f64 = 9.75;

fn planted(dataset: &DvfsDataset) -> usize {
    dataset.samples.iter().filter(|s| s.perf_loss == PLANTED_LOSS).count()
}

#[test]
fn refresh_resimulates_instead_of_reading_the_replay_store() {
    let dir = std::env::temp_dir().join(format!("ssmdvfs-refresh-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::env::set_var("SSMDVFS_ARTIFACTS", &dir);
    std::env::remove_var("SSMDVFS_REFRESH");
    let config = PipelineConfig {
        gpu: GpuConfig::small_test(),
        datagen: DataGenConfig {
            breakpoint_interval_epochs: 5,
            max_time: Time::from_micros(300.0),
            ..DataGenConfig::default()
        },
        scale: 0.02,
        jobs: 2,
        ..PipelineConfig::default()
    };
    let benches: Vec<Benchmark> =
        gpu_workloads::training_set().into_iter().map(|b| b.scaled(config.scale)).collect();
    let mut fresh = DvfsDataset::default();
    let outcome =
        generate_suite_with(&benches, &config.gpu, &config.datagen, &SuiteOptions::new(2))
            .expect("plain sweep");
    for part in outcome.datasets {
        fresh.extend(part);
    }
    assert_eq!(planted(&fresh), 0);

    // Fill the store, then plant an edited loss in every stored sample.
    assert_eq!(build_or_load_dataset(&config, "refresh"), fresh);
    let store = dir.join("replay_cache.jsonl");
    let edited: String = std::fs::read_to_string(&store)
        .expect("the pipeline keeps a replay store")
        .lines()
        .map(|line| {
            let mut replay: StoredReplay = serde_json::from_str(line).expect("a store line");
            replay.samples.iter_mut().for_each(|s| s.perf_loss = PLANTED_LOSS);
            serde_json::to_string(&replay).expect("serializes") + "\n"
        })
        .collect();
    std::fs::write(&store, edited).unwrap();
    std::fs::remove_file(dir.join("dataset_refresh.json")).unwrap();

    // The plant is live: without refresh, the rebuild reads it.
    let stale = build_or_load_dataset(&config, "refresh");
    assert_eq!(planted(&stale), fresh.len(), "every replay came from the edited store");

    std::env::set_var("SSMDVFS_REFRESH", "1");
    let refreshed = build_or_load_dataset(&config, "refresh");
    std::env::remove_var("SSMDVFS_REFRESH");
    assert_eq!(refreshed, fresh, "a refresh re-simulates every replay");
    std::fs::remove_dir_all(&dir).ok();
}
