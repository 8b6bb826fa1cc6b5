//! The workspace-wide typed error hierarchy.
//!
//! Library crates in this workspace report failures as values instead of
//! panicking: [`gpu_power::PowerError`] covers power/EDP/VfTable invariants,
//! and this module's [`SsmdvfsError`] wraps it together with the pipeline's
//! own failure modes (artifact I/O, artifact parsing, replay-cache
//! corruption, faulted work units). The CLI formats the chain via
//! `Display` and exits nonzero, so a failed run names the stage and
//! artifact that broke instead of aborting mid-pipeline.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use gpu_power::PowerError;

/// The kind of on-disk artifact an I/O or parse failure concerns.
///
/// Carried inside [`SsmdvfsError::Io`]/[`SsmdvfsError::Parse`] so error
/// messages name the pipeline stage ("model", "dataset", "replay cache", ...)
/// rather than just a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// A trained [`CombinedModel`](crate::CombinedModel) JSON file.
    Model,
    /// A [`DvfsDataset`](crate::DvfsDataset) JSON file.
    Dataset,
    /// A datagen replay cache (JSONL).
    ReplayCache,
    /// A benchmark report or other serialized output.
    Report,
}

impl Artifact {
    /// The lowercase noun used in error messages.
    pub fn noun(self) -> &'static str {
        match self {
            Artifact::Model => "model",
            Artifact::Dataset => "dataset",
            Artifact::ReplayCache => "replay cache",
            Artifact::Report => "report",
        }
    }
}

impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.noun())
    }
}

/// The top-level error of the SSMDVFS pipeline.
#[derive(Debug)]
pub enum SsmdvfsError {
    /// A power/EDP/VfTable invariant was violated.
    Power(PowerError),
    /// Reading or writing an artifact failed at the filesystem level.
    Io {
        /// What the file was supposed to be.
        artifact: Artifact,
        /// Whether the failure happened while reading or writing.
        op: IoOp,
        /// The file involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// An artifact file was readable but did not parse as its expected
    /// shape (malformed JSON, wrong schema, corrupt replay-cache line).
    Parse {
        /// What the file was supposed to be.
        artifact: Artifact,
        /// The file involved.
        path: PathBuf,
        /// What the parser objected to.
        detail: String,
    },
    /// A pipeline stage ran but produced an unusable result (e.g. a work
    /// unit exhausted its quarantine retries).
    Stage {
        /// The pipeline stage, e.g. `"datagen"` or `"bench"`.
        stage: &'static str,
        /// What went wrong.
        detail: String,
    },
}

/// Whether an [`SsmdvfsError::Io`] happened while reading or writing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// The file was being read.
    Read,
    /// The file was being written.
    Write,
}

impl fmt::Display for IoOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
        })
    }
}

impl SsmdvfsError {
    /// An I/O failure while reading `path` as `artifact`.
    pub fn read(artifact: Artifact, path: impl AsRef<Path>, source: io::Error) -> SsmdvfsError {
        SsmdvfsError::Io { artifact, op: IoOp::Read, path: path.as_ref().to_path_buf(), source }
    }

    /// An I/O failure while writing `path` as `artifact`.
    pub fn write(artifact: Artifact, path: impl AsRef<Path>, source: io::Error) -> SsmdvfsError {
        SsmdvfsError::Io { artifact, op: IoOp::Write, path: path.as_ref().to_path_buf(), source }
    }

    /// A parse failure for the `artifact` at `path`.
    pub fn parse(
        artifact: Artifact,
        path: impl AsRef<Path>,
        detail: impl fmt::Display,
    ) -> SsmdvfsError {
        SsmdvfsError::Parse {
            artifact,
            path: path.as_ref().to_path_buf(),
            detail: detail.to_string(),
        }
    }

    /// A stage-level failure.
    pub fn stage(stage: &'static str, detail: impl fmt::Display) -> SsmdvfsError {
        SsmdvfsError::Stage { stage, detail: detail.to_string() }
    }
}

impl fmt::Display for SsmdvfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsmdvfsError::Power(e) => write!(f, "{e}"),
            SsmdvfsError::Io { artifact, op, path, source } => {
                write!(f, "failed to {op} {artifact} '{}': {source}", path.display())
            }
            SsmdvfsError::Parse { artifact, path, detail } => {
                write!(f, "malformed {artifact} '{}': {detail}", path.display())
            }
            SsmdvfsError::Stage { stage, detail } => {
                write!(f, "{stage} stage failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SsmdvfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SsmdvfsError::Power(e) => Some(e),
            SsmdvfsError::Io { source, .. } => Some(source),
            SsmdvfsError::Parse { .. } | SsmdvfsError::Stage { .. } => None,
        }
    }
}

impl From<PowerError> for SsmdvfsError {
    fn from(e: PowerError) -> SsmdvfsError {
        SsmdvfsError::Power(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_artifact_and_operation() {
        let e = SsmdvfsError::read(
            Artifact::Model,
            "/tmp/m.json",
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        let s = e.to_string();
        assert!(s.contains("read model '/tmp/m.json'"), "got: {s}");
        assert!(s.contains("gone"));

        let e = SsmdvfsError::parse(Artifact::ReplayCache, "c.jsonl", "line 3: bad");
        assert_eq!(e.to_string(), "malformed replay cache 'c.jsonl': line 3: bad");

        let e = SsmdvfsError::stage("datagen", "2 work units dropped");
        assert_eq!(e.to_string(), "datagen stage failed: 2 work units dropped");
    }

    #[test]
    fn power_errors_convert_losslessly() {
        let e: SsmdvfsError = PowerError::EmptyVfTable.into();
        assert_eq!(e.to_string(), PowerError::EmptyVfTable.to_string());
        assert!(std::error::Error::source(&e).is_some());
    }
}
