//! Host facts read from `/proc`: the environment fingerprint every result
//! carries, process CPU time and peak memory.
//!
//! Each reader returns `None` when its file is missing or malformed (a
//! non-Linux host, a restricted container), so a result degrades to
//! "unknown" instead of aborting the run.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on every Linux architecture the benchmark targets).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The environment a result was measured on. Results are comparable only
/// between runs with equal fingerprints.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| parse_cpu_model(&s))
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let (avx2, fma) = simd_features();
    format!(
        "nproc={} cpu=\"{cpu}\" avx2={avx2} fma={fma} os={} kernel={kernel}",
        nproc(),
        std::env::consts::OS
    )
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> (bool, bool) {
    (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"))
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> (bool, bool) {
    (false, false)
}

/// The first `model name` in `/proc/cpuinfo` text.
pub fn parse_cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        (key.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// `VmHWM` (peak resident set) from `/proc/self/status` text, in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line["VmHWM:".len()..].trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds of all threads, live and exited, from
/// `/proc/self/stat` text.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) may contain spaces and parentheses; the
    // remaining fields start after its last closing parenthesis, with
    // field 3 (state) first, so utime (14) and stime (15) sit at 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Parses the file at `path` with `parse`; `None` if it cannot be read.
fn read_with<T>(path: &str, parse: fn(&str) -> Option<T>) -> Option<T> {
    parse(&std::fs::read_to_string(path).ok()?)
}

/// This process's peak resident set in MB, if `/proc` reports it.
pub fn peak_rss_mb() -> Option<f64> {
    read_with("/proc/self/status", parse_vm_hwm_mb)
}

/// This process's CPU seconds so far, if `/proc` reports them.
pub fn cpu_seconds() -> Option<f64> {
    read_with("/proc/self/stat", parse_cpu_seconds)
}

/// Returns freed heap memory to the kernel between passes.
///
/// glibc keeps memory freed by worker threads in their own arenas, so
/// without this each pass started from a resident baseline that depended on
/// which threads happened to allocate in the passes before, and the peak
/// resident set of one seed varied by a quarter between runs. A no-op
/// outside glibc.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: `malloc_trim` takes a plain byte count, has no
        // preconditions, and only hands free pages back to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Wall and CPU time of one stage, for a CPU-utilization figure.
pub struct CpuClock {
    wall: Instant,
    cpu: Option<f64>,
}

impl CpuClock {
    /// Starts timing.
    pub fn start() -> CpuClock {
        CpuClock { wall: Instant::now(), cpu: cpu_seconds() }
    }

    /// `(CPU seconds, wall seconds)` since [`CpuClock::start`]; the CPU
    /// part is `0.0` when `/proc` is unavailable.
    pub fn finish(&self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = match (self.cpu, cpu_seconds()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        };
        (cpu, wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_peak_rss_from_status() {
        let status = "Name:\tbench_e2e\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb(""), None);
    }

    #[test]
    fn parses_cpu_time_past_a_hostile_command_name() {
        // utime = 250 ticks, stime = 50 ticks → 3 s.
        let stat = "4242 (a) b (c) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 3 0 \
                    100 1000 200 18446744073709551615";
        assert_eq!(parse_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_cpu_seconds("4242 (truncated) S 1 2"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis"), None);
    }

    #[test]
    fn parses_the_first_cpu_model() {
        let info = "processor\t: 0\nmodel name\t: Example CPU @ 2.0GHz\n\nprocessor\t: 1\n\
                    model name\t: Other\n";
        assert_eq!(parse_cpu_model(info).as_deref(), Some("Example CPU @ 2.0GHz"));
        assert_eq!(parse_cpu_model("processor\t: 0\n"), None);
    }

    #[test]
    fn readers_fall_back_without_panicking() {
        assert_eq!(read_with("/nonexistent/proc/self/status", parse_vm_hwm_mb), None);
        assert_eq!(read_with("/nonexistent/proc/self/stat", parse_cpu_seconds), None);
        // Whatever the host provides, the readers and the fingerprint must
        // return rather than panic; on Linux the values are plausible.
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        if let Some(s) = cpu_seconds() {
            assert!(s >= 0.0);
        }
        assert!(fingerprint().starts_with("nproc="));
        let (cpu, wall) = CpuClock::start().finish();
        assert!(cpu >= 0.0 && wall >= 0.0);
    }
}
