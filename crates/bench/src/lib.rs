//! Shared harness for the experiment binaries and Criterion benches.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it (see `DESIGN.md`'s experiment index). This library holds
//! the plumbing they share: the offline pipeline (data generation →
//! training → compression) with on-disk artifact caching, the governor
//! comparison runner behind Fig. 4, and small table/CSV formatting helpers.

#![warn(missing_docs)]

pub mod pipeline;
pub mod report;
pub mod runner;

pub use pipeline::{artifacts_dir, build_or_load_dataset, train_or_load_model, PipelineConfig};
pub use report::{format_table, write_csv};
pub use runner::{compare_on_benchmark, try_compare_on_benchmark, ComparisonRow, GovernorKind};
