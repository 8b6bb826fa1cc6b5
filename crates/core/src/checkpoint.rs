//! Checkpoint journal for long data-generation sweeps.
//!
//! A suite sweep is thousands of independent (benchmark, breakpoint,
//! operating-point) replay jobs; losing the whole run to a crash in hour
//! three is not acceptable. Workers append each finished job to a JSONL
//! journal — one [`CheckpointEntry`] per line, flushed as it completes —
//! and `ssmdvfs datagen --resume <journal>` skips every journaled job,
//! replaying only the remainder. Because phase 1 (the reference timelines)
//! is deterministic and the final dataset is assembled in job order from a
//! mix of journaled and freshly-computed results, a resumed run's output is
//! byte-identical to an uninterrupted one.
//!
//! Each entry is keyed by the job's content key,
//! [`ReplayCache::key`](crate::ReplayCache::key):
//! fingerprints of the GPU configuration, the datagen parameters and the
//! workload, plus the breakpoint and operating point. A journal written by
//! a sweep of another configuration (another `--scale`, cluster count or
//! benchmark) therefore matches none of this sweep's jobs, which are
//! recomputed instead of reused.
//!
//! A process killed mid-write leaves at most one truncated final line;
//! [`load`] tolerates exactly that (the half-written job is redone), while
//! corruption anywhere earlier, or a complete line of another shape (a
//! journal from an older format), is a hard [`SsmdvfsError::Parse`].

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::datagen::RawSample;
use crate::error::{Artifact, SsmdvfsError};

/// One completed replay job: its content key plus the samples it produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointEntry {
    /// The job's [`ReplayCache::key`](crate::ReplayCache::key).
    pub key: String,
    /// The job's samples (in cluster order, possibly empty).
    pub samples: Vec<RawSample>,
}

/// Completed jobs indexed by content key. Later entries for the same job
/// win (they are re-runs of the same deterministic computation, so the
/// values are identical anyway).
pub type CompletedJobs = HashMap<String, Vec<RawSample>>;

/// Collapses journal entries into a lookup map.
pub fn completed_jobs(entries: Vec<CheckpointEntry>) -> CompletedJobs {
    entries.into_iter().map(|e| (e.key, e.samples)).collect()
}

/// An append-only JSONL journal shared by the worker pool. Every append is
/// one serialized [`CheckpointEntry`] line, flushed before returning, so a
/// SIGKILL can truncate at most the line being written.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    file: Mutex<File>,
}

impl CheckpointJournal {
    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> Result<CheckpointJournal, SsmdvfsError> {
        let path = path.as_ref().to_path_buf();
        let file =
            File::create(&path).map_err(|e| SsmdvfsError::write(Artifact::Checkpoint, &path, e))?;
        Ok(CheckpointJournal { path, file: Mutex::new(file) })
    }

    /// Opens `path` for appending, creating it if absent — the resume path,
    /// which keeps extending the interrupted run's journal.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] if the file cannot be opened.
    pub fn append_to(path: impl AsRef<Path>) -> Result<CheckpointJournal, SsmdvfsError> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| SsmdvfsError::write(Artifact::Checkpoint, &path, e))?;
        Ok(CheckpointJournal { path, file: Mutex::new(file) })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed job and flushes it to disk.
    ///
    /// # Errors
    ///
    /// Returns [`SsmdvfsError::Io`] on a write failure (the entry may then
    /// be partially written; a later [`load`] treats it as truncated).
    pub fn append(&self, entry: &CheckpointEntry) -> Result<(), SsmdvfsError> {
        let line = serde_json::to_string(entry)
            .map_err(|e| SsmdvfsError::parse(Artifact::Checkpoint, &self.path, e))?;
        let mut file = self.file.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        file.write_all(line.as_bytes())
            .and_then(|()| file.write_all(b"\n"))
            .and_then(|()| file.flush())
            .map_err(|e| SsmdvfsError::write(Artifact::Checkpoint, &self.path, e))
    }
}

/// Loads every completed job from a journal written by
/// [`CheckpointJournal`].
///
/// A truncated *final* line — the signature of a process killed mid-write —
/// is silently discarded (that job is simply redone on resume).
///
/// # Errors
///
/// Returns [`SsmdvfsError::Io`] if the journal is unreadable, and
/// [`SsmdvfsError::Parse`] if any line other than the last is not JSON, or
/// any line is JSON but not a [`CheckpointEntry`]: that is corruption or
/// an older format, not interruption, and resuming from it would silently
/// drop work.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<CheckpointEntry>, SsmdvfsError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| SsmdvfsError::read(Artifact::Checkpoint, path, e))?;
    let lines: Vec<&str> = text.lines().collect();
    let mut entries = Vec::with_capacity(lines.len());
    for (n, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad_line =
            |e| SsmdvfsError::parse(Artifact::Checkpoint, path, format!("line {}: {e}", n + 1));
        match serde_json::from_str::<serde_json::Value>(line) {
            Ok(value) => entries.push(serde_json::from_value(value).map_err(bad_line)?),
            Err(_) if n + 1 == lines.len() => {
                obs::warn!(
                    "checkpoint: discarding truncated final line {} of '{}'",
                    n + 1,
                    path.display()
                );
            }
            Err(e) => return Err(bad_line(e)),
        }
    }
    obs::counter!("checkpoint.loaded_entries").inc(entries.len() as u64);
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str) -> CheckpointEntry {
        CheckpointEntry { key: key.to_string(), samples: Vec::new() }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ssmdvfs-ckpt-test-{tag}-{}.jsonl", std::process::id()));
        p
    }

    #[test]
    fn round_trips_entries() {
        let path = temp_path("roundtrip");
        let journal = CheckpointJournal::create(&path).unwrap();
        journal.append(&entry("a-b0-op3")).unwrap();
        journal.append(&entry("a-b1-op0")).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].key, "a-b0-op3");
        assert_eq!(loaded[1].key, "a-b1-op0");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tolerates_a_truncated_final_line_only() {
        let path = temp_path("truncated");
        let journal = CheckpointJournal::create(&path).unwrap();
        journal.append(&entry("a-b0-op0")).unwrap();
        drop(journal);
        // Simulate a SIGKILL mid-write: a half-serialized trailing line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"key\":\"a-b0-op1\",\"samp");
        std::fs::write(&path, &text).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 1, "the complete line survives");

        // The same garbage anywhere earlier is corruption, not truncation.
        let corrupt = format!("{{not json}}\n{}", text.lines().next().unwrap());
        std::fs::write(&path, corrupt).unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("malformed checkpoint"), "got: {err}");

        // A complete line of the older (benchmark, breakpoint, op_index)
        // format is an error even as the final line.
        std::fs::write(
            &path,
            "{\"benchmark\":\"bfs\",\"breakpoint\":0,\"op_index\":0,\"samples\":[]}\n",
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("line 1"), "got: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_to_extends_an_existing_journal() {
        let path = temp_path("append");
        CheckpointJournal::create(&path).unwrap().append(&entry("a-b0-op0")).unwrap();
        CheckpointJournal::append_to(&path).unwrap().append(&entry("a-b0-op1")).unwrap();
        let jobs = completed_jobs(load(&path).unwrap());
        assert_eq!(jobs.len(), 2);
        assert!(jobs.contains_key("a-b0-op1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_journal_is_a_typed_read_error() {
        let err = load("/nonexistent/dir/ck.jsonl").unwrap_err();
        assert!(err.to_string().contains("read checkpoint"), "got: {err}");
    }
}
