//! End-to-end benchmark of the SSMDVFS reproduction with per-layer
//! attribution. One invocation runs one workload for one seed:
//!
//! ```text
//! cargo run --release --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <paper-pipeline|decide-replay|serve-load|fleet> \
//!     --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) prints the per-layer metrics and writes its spans as
//! Chrome trace-event JSON. Both check their outputs and end with one JSON
//! result line. See README.md for the workloads and metrics.

mod deploy;
mod fleet;
mod layers;
mod pipeline;
mod replay;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::time::Instant;

use deploy::Deployment;
use report::{Outcome, END_TO_END, PER_LAYER};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Most span events written to one trace file.
const MAX_TRACE_EVENTS: usize = 200_000;

const WORKLOADS: [&str; 4] = ["paper-pipeline", "decide-replay", "serve-load", "fleet"];

const USAGE: &str = "usage: bench_e2e --workload <paper-pipeline|decide-replay|serve-load|fleet> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

/// What one invocation measures.
pub struct Ctx {
    /// Seed of the generated inputs (the simulated GPU's warp streams and
    /// the request mix).
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<(&'static str, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx { seed: 1, seconds: 10.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| *w == name)
                        .ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, ctx))
}

/// Runs `setup` [`SETUP_REPS`] times, dropping each result before the next
/// starts; returns the last result, the median set-up time in seconds, and
/// whether every result had the same `digest`.
pub fn setups<T>(mut setup: impl FnMut() -> T, digest: impl Fn(&T) -> u64) -> (T, f64, bool) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut digests = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        sys::release_free_heap();
        let t0 = Instant::now();
        let value = setup();
        times.push(t0.elapsed().as_secs_f64());
        digests.push(digest(&value));
        kept = Some(value);
    }
    let same = digests.windows(2).all(|w| w[0] == w[1]);
    (kept.expect("SETUP_REPS is positive"), stats::median(&times), same)
}

/// Digest of a deployment's recorded decision streams.
pub fn recordings_digest(dep: &Deployment) -> u64 {
    let mut h = DefaultHasher::new();
    for rec in &dep.recordings {
        rec.ops.hash(&mut h);
    }
    h.finish()
}

/// Turns the benchmark's spans and the program's own instrumentation on or
/// off together.
pub fn set_tracing(on: bool) {
    trace::set_enabled(on);
    obs::set_enabled(on);
    obs::prof::set_profiling(on);
}

fn write_trace(workload: &str, ctx: &Ctx, outcome: &mut Outcome) {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/traces"));
    let path = dir.join(format!("trace-{workload}-seed{}.json", ctx.seed));
    let meta = [
        ("workload", workload.to_string()),
        ("seed", ctx.seed.to_string()),
        ("env", sys::fingerprint()),
    ];
    let json = trace::chrome_json(&outcome.spans, MAX_TRACE_EVENTS, &meta);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json));
    let detail = match &written {
        Ok(()) => format!("{} spans → {}", outcome.spans.len(), path.display()),
        Err(e) => format!("{}: {e}", path.display()),
    };
    outcome.check("trace-written", written.is_ok(), detail);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "# bench_e2e workload={workload} seed={} seconds={} trace={}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    println!("# env {}", sys::fingerprint());
    let mut outcome = match workload {
        "paper-pipeline" => pipeline::run(&ctx),
        "decide-replay" => replay::run(&ctx),
        "serve-load" => serve::run(&ctx),
        _ => fleet::run(&ctx),
    };
    let table: &[(&str, &str)] = if ctx.trace {
        write_trace(workload, &ctx, &mut outcome);
        &PER_LAYER
    } else {
        let rss = sys::peak_rss_mb();
        outcome.check("peak-rss", rss.is_some(), "VmHWM read from /proc/self/status");
        outcome.set("peak_rss_mb", rss.unwrap_or(0.0));
        &END_TO_END
    };
    let correct = report::emit(&mut outcome, table);
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let (w, ctx) =
            parse_args(&args("--workload fleet --seed 42 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(w, "fleet");
        assert_eq!((ctx.seed, ctx.seconds, ctx.trace), (42, 10.0, true));
        for bad in [
            "--workload nope",
            "--seed 1",
            "--workload fleet --seed",
            "--workload fleet --trace 2",
            "--workload fleet --seconds 0",
            "--workload fleet --frobnicate 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
