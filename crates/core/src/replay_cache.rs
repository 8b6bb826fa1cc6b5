//! The durable, content-addressed store of datagen replay results.
//!
//! Every phase-2 datagen job — replaying one breakpoint interval at one
//! candidate operating point — is a pure function of the GPU configuration,
//! the datagen parameters, the workload, the breakpoint index and the
//! operating point. The [`ReplayCache`] exploits that: it keys each job's
//! [`RawSample`]s by a stable fingerprint of those five inputs, so a rerun
//! of the same sweep (an `ablation_suite` iteration, a `granularity_sweep`
//! repeat, a sweep killed halfway) loads the samples instead of simulating
//! the replay again.
//!
//! The fingerprint is a 64-bit FNV-1a hash over the inputs' serialized
//! [`Value`](serde::Value) trees — *not* Rust's `DefaultHasher`, whose
//! per-process random seed would make keys useless across runs. Object keys
//! are already sorted (the vendored serde stores objects as `BTreeMap`s),
//! so the hash is deterministic for equal inputs on any machine.
//!
//! A file-backed store is an append-only JSONL file, one `{key, samples}`
//! line per replay, written as each replay finishes. A line counts once its
//! newline is on disk, so a process killed mid-write loses at most the
//! replay it was writing: [`ReplayCache::open`] drops that truncated final
//! line and cuts it off the file before anything is appended after it.
//! Rerunning a killed sweep on its store therefore resumes it, any number
//! of times. Any other line that is not an entry (corruption, or a file of
//! another format) is a typed [`SsmdvfsError::Parse`] naming the line.
//!
//! Hits and misses are surfaced through the obs counters
//! `sim.cache_hits` / `sim.cache_misses`, which the CLI's `inspect`
//! subcommand summarizes.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use serde::{Deserialize, Serialize, Value};

use crate::datagen::RawSample;
use crate::error::{Artifact, SsmdvfsError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Folds a serialized value tree into the hash. Every node contributes a
/// type tag byte so e.g. `0` and `"0"` and `[0]` hash differently; floats
/// contribute their exact bit pattern.
fn hash_value(hash: &mut u64, value: &Value) {
    match value {
        Value::Null => fnv1a(hash, b"n"),
        Value::Bool(b) => fnv1a(hash, if *b { b"t" } else { b"f" }),
        Value::Number(n) => {
            use serde::Number;
            match n {
                Number::U(v) => {
                    fnv1a(hash, b"u");
                    fnv1a(hash, &v.to_le_bytes());
                }
                Number::I(v) => {
                    fnv1a(hash, b"i");
                    fnv1a(hash, &v.to_le_bytes());
                }
                Number::F(v) => {
                    fnv1a(hash, b"d");
                    fnv1a(hash, &v.to_bits().to_le_bytes());
                }
            }
        }
        Value::String(s) => {
            fnv1a(hash, b"s");
            fnv1a(hash, &(s.len() as u64).to_le_bytes());
            fnv1a(hash, s.as_bytes());
        }
        Value::Array(items) => {
            fnv1a(hash, b"a");
            fnv1a(hash, &(items.len() as u64).to_le_bytes());
            for item in items {
                hash_value(hash, item);
            }
        }
        Value::Object(map) => {
            fnv1a(hash, b"o");
            fnv1a(hash, &(map.len() as u64).to_le_bytes());
            for (k, v) in map {
                fnv1a(hash, &(k.len() as u64).to_le_bytes());
                fnv1a(hash, k.as_bytes());
                hash_value(hash, v);
            }
        }
    }
}

/// A process- and machine-stable 64-bit fingerprint of any serializable
/// value. Equal serialized trees always produce equal fingerprints — unlike
/// `std::hash`, whose `DefaultHasher` is seeded per process.
///
/// # Examples
///
/// ```
/// use gpu_sim::GpuConfig;
///
/// let a = ssmdvfs::fingerprint(&GpuConfig::small_test());
/// let b = ssmdvfs::fingerprint(&GpuConfig::small_test());
/// assert_eq!(a, b);
/// assert_ne!(a, ssmdvfs::fingerprint(&GpuConfig::titan_x()));
/// ```
pub fn fingerprint<T: Serialize>(value: &T) -> u64 {
    let mut hash = FNV_OFFSET;
    hash_value(&mut hash, &value.serialize());
    hash
}

/// One stored replay: a line of the store file.
#[derive(Serialize, Deserialize)]
struct Entry {
    /// The job's [`ReplayCache::key`].
    key: String,
    /// The job's samples (in cluster order, possibly empty).
    samples: Vec<RawSample>,
}

/// A thread-safe, content-addressed store of replay results that persists
/// across runs. Each job's samples are keyed by a [`fingerprint`] of the
/// GPU configuration, the datagen parameters, the workload, the breakpoint
/// index and the operating point: a 64-bit FNV-1a hash of their serialized
/// trees, stable across processes and machines.
#[derive(Debug, Default)]
pub struct ReplayCache {
    /// The store file and its path (`None` in memory). The handle is
    /// dropped after a failed append, so nothing is written after a
    /// partial line and the next [`ReplayCache::open`] can cut it off.
    store: Option<(PathBuf, Mutex<Option<File>>)>,
    entries: Mutex<HashMap<String, Vec<RawSample>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ReplayCache {
    /// An empty in-memory cache (no backing file).
    pub fn in_memory() -> ReplayCache {
        ReplayCache::default()
    }

    /// Opens the store at `path`, creating the file if it is absent, and
    /// loads every complete line. A final line without its newline (a
    /// write cut by a kill) is dropped and cut off the file.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file cannot be created, read or
    /// cut, and [`SsmdvfsError::Parse`] naming the first line that is not
    /// an entry, other than a truncated final one.
    pub fn open(path: impl AsRef<Path>) -> Result<ReplayCache, SsmdvfsError> {
        let path = path.as_ref().to_path_buf();
        let write_error = |e| SsmdvfsError::write(Artifact::ReplayCache, &path, e);
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(write_error)?;
        let mut text = String::new();
        file.read_to_string(&mut text)
            .map_err(|e| SsmdvfsError::read(Artifact::ReplayCache, &path, e))?;
        let mut entries = HashMap::new();
        // Bytes up to the end of the last complete line.
        let mut kept = 0;
        for (n, line) in text.split_inclusive('\n').enumerate() {
            let complete = line.ends_with('\n');
            let bad_line = |e| {
                SsmdvfsError::parse(Artifact::ReplayCache, &path, format!("line {}: {e}", n + 1))
            };
            match serde_json::from_str::<Value>(line) {
                Ok(value) => {
                    let entry: Entry = serde_json::from_value(value).map_err(bad_line)?;
                    if complete {
                        entries.insert(entry.key, entry.samples);
                    }
                }
                // Only the final line can lack its newline, and a cut entry
                // still starts like one: a foreign one-line file is no cut.
                Err(_) if !complete && line.starts_with('{') => {}
                Err(_) if line.trim().is_empty() => {}
                Err(e) => return Err(bad_line(e)),
            }
            if complete {
                kept += line.len();
            }
        }
        if kept < text.len() {
            obs::warn!("replay cache: cutting a truncated final line off '{}'", path.display());
            file.set_len(kept as u64).map_err(write_error)?;
        }
        Ok(ReplayCache {
            store: Some((path, Mutex::new(Some(file)))),
            entries: Mutex::new(entries),
            ..ReplayCache::default()
        })
    }

    /// Derives the key for one replay job. `config_hash`, `dg_hash` and
    /// `workload_hash` come from [`fingerprint`]; `breakpoint` and
    /// `op_index` identify the job within the sweep.
    pub fn key(
        config_hash: u64,
        dg_hash: u64,
        workload_hash: u64,
        breakpoint: usize,
        op_index: usize,
    ) -> String {
        format!("{config_hash:016x}-{dg_hash:016x}-{workload_hash:016x}-b{breakpoint}-op{op_index}")
    }

    /// Looks up a replay's samples, counting a hit or miss (both locally
    /// and on the obs counters `sim.cache_hits`/`sim.cache_misses`).
    pub fn get(&self, key: &str) -> Option<Vec<RawSample>> {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        match entries.get(key) {
            Some(samples) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                obs::counter!("sim.cache_hits").inc(1);
                Some(samples.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                obs::counter!("sim.cache_misses").inc(1);
                None
            }
        }
    }

    /// Stores a replay's samples under `key` and, for a file-backed store,
    /// appends them as one line. `File` does no buffering, so the line is
    /// with the OS when this returns and survives the process being killed.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the append fails. The samples are
    /// still stored in memory, and nothing more is appended to the file.
    pub fn insert(&self, key: String, samples: Vec<RawSample>) -> Result<(), SsmdvfsError> {
        let entry = Entry { key, samples };
        let mut appended = Ok(());
        if let Some((path, file)) = &self.store {
            let mut line = serde_json::to_string(&entry)
                .map_err(|e| SsmdvfsError::parse(Artifact::ReplayCache, path, e))?;
            line.push('\n');
            let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(f) = file.as_mut() {
                if let Err(e) = f.write_all(line.as_bytes()) {
                    *file = None;
                    appended = Err(SsmdvfsError::write(Artifact::ReplayCache, path, e));
                }
            }
        }
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        entries.insert(entry.key, entry.samples);
        appended
    }

    /// Number of cached replays.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hits recorded since this cache was opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses recorded since this cache was opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{EpochCounters, GpuConfig};

    fn sample(op: usize) -> RawSample {
        RawSample {
            benchmark: "b".to_string(),
            cluster: 0,
            breakpoint: 1,
            counters: EpochCounters::zeroed(),
            scaled_counters: EpochCounters::zeroed(),
            op_index: op,
            perf_loss: 0.25,
            instructions: 42,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("ssmdvfs-replay-cache-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let cfg = GpuConfig::small_test();
        assert_eq!(fingerprint(&cfg), fingerprint(&cfg.clone()));
        assert_ne!(fingerprint(&GpuConfig::small_test()), fingerprint(&GpuConfig::titan_x()));
        // Different shapes that could collide under naive hashing.
        assert_ne!(fingerprint(&0u64), fingerprint(&"0".to_string()));
        assert_ne!(fingerprint(&vec![1u64]), fingerprint(&vec![1u64, 1u64]));
        let mut seed_changed = GpuConfig::small_test();
        seed_changed.seed ^= 1;
        assert_ne!(fingerprint(&GpuConfig::small_test()), fingerprint(&seed_changed));
    }

    #[test]
    fn get_insert_and_counters() {
        let cache = ReplayCache::in_memory();
        let key = ReplayCache::key(1, 2, 3, 4, 5);
        assert!(cache.get(&key).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(key.clone(), vec![sample(5)]).unwrap();
        let got = cache.get(&key).expect("inserted");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].op_index, 5);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn roundtrips_through_disk() {
        let path = temp_path("roundtrip");
        let cache = ReplayCache::open(&path).expect("a missing file yields an empty store");
        assert!(cache.is_empty());
        assert!(path.exists(), "open creates the file up front");
        cache.insert(ReplayCache::key(9, 8, 7, 0, 1), vec![sample(1), sample(2)]).unwrap();
        cache.insert(ReplayCache::key(9, 8, 7, 1, 0), vec![sample(0)]).unwrap();
        drop(cache);

        let reloaded = ReplayCache::open(&path).expect("reload");
        assert_eq!(reloaded.len(), 2);
        let got = reloaded.get(&ReplayCache::key(9, 8, 7, 0, 1)).expect("hit");
        assert_eq!(got, vec![sample(1), sample(2)]);
        // A reopened store keeps appending after what it loaded.
        reloaded.insert(ReplayCache::key(9, 8, 7, 2, 0), Vec::new()).unwrap();
        drop(reloaded);
        assert_eq!(ReplayCache::open(&path).unwrap().len(), 3);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tolerates_a_truncated_final_line_only() {
        let path = temp_path("truncated");
        let cache = ReplayCache::open(&path).unwrap();
        cache.insert(ReplayCache::key(1, 1, 1, 0, 0), vec![sample(0)]).unwrap();
        drop(cache);
        let complete = std::fs::read_to_string(&path).unwrap();
        // A kill mid-write: half a line, with or without its JSON closed.
        for cut in [format!("{{\"key\":\"{}\",\"samp", "x"), complete.trim_end().to_string()] {
            std::fs::write(&path, format!("{complete}{cut}")).unwrap();
            let cache = ReplayCache::open(&path).expect("a truncated final line is dropped");
            assert_eq!(cache.len(), 1, "the complete line survives");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), complete, "the cut line is gone");
            // Appends land on a line of their own, so a second reopen holds.
            cache.insert(ReplayCache::key(1, 1, 1, 0, 1), Vec::new()).unwrap();
            drop(cache);
            assert_eq!(ReplayCache::open(&path).unwrap().len(), 2);
            std::fs::write(&path, &complete).unwrap();
        }

        // The same garbage anywhere earlier is corruption, not truncation.
        std::fs::write(&path, format!("{{not json}}\n{complete}")).unwrap();
        let err = ReplayCache::open(&path).unwrap_err();
        assert!(matches!(err, SsmdvfsError::Parse { .. }), "got: {err}");
        assert!(err.to_string().contains("malformed replay cache"), "got: {err}");
        assert!(err.to_string().contains("line 1"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_lines_are_parse_errors() {
        let path = temp_path("foreign");
        let cases = [
            // An old checkpoint journal line, complete and final.
            "{\"benchmark\":\"bfs\",\"breakpoint\":0,\"op_index\":0,\"samples\":[]}\n",
            // The old single-document cache, compact and pretty-printed.
            r#"{"version": 999, "entries": {}}"#,
            "{\n  \"entries\": {},\n  \"version\": 1\n}",
            // A one-line file of another kind, without its newline.
            "not a replay store",
        ];
        for text in cases {
            std::fs::write(&path, text).unwrap();
            let err = ReplayCache::open(&path).unwrap_err();
            assert!(matches!(err, SsmdvfsError::Parse { .. }), "{text}: {err}");
            assert!(err.to_string().contains("line 1"), "{text}: {err}");
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                text,
                "a foreign file is untouched"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unwritable_path_is_a_typed_write_error() {
        let err = ReplayCache::open("/nonexistent/dir/cache.jsonl").unwrap_err();
        assert!(matches!(err, SsmdvfsError::Io { op: crate::IoOp::Write, .. }), "got: {err}");
        assert!(
            err.to_string().contains("write replay cache '/nonexistent/dir/cache.jsonl'"),
            "got: {err}"
        );
    }
}
