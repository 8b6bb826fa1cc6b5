//! The embedded metrics exporter: a zero-dependency HTTP endpoint over
//! `std::net::TcpListener`.
//!
//! `ssmdvfs --serve-metrics <addr>` starts a [`MetricsServer`] on a
//! background thread serving three endpoints for the lifetime of the run:
//!
//! * `GET /metrics` — Prometheus text exposition (version 0.0.4) of the
//!   global registry: counters, gauges, and log-scale histograms with
//!   cumulative `le` buckets. Metric names swap `.` for `_`
//!   (`sim.cache_hits` → `sim_cache_hits`).
//! * `GET /metrics.json` — the registry's deterministic JSON snapshot,
//!   byte-identical to `--metrics-out`. With `?window=N` it instead
//!   returns the [`WindowReport`](crate::series::WindowReport) over the
//!   newest N samples: per-counter deltas and rates rather than lifetime
//!   totals.
//! * `GET /healthz` — `200 ok`, for liveness probes and scrape configs.
//!
//! Starting the server pre-registers the workspace's well-known
//! instruments ([`register_defaults`]) so a scrape exposes the full
//! vocabulary at zero instead of a name set that depends on which code
//! paths have already run. One request is served per connection
//! (`Connection: close`); that is exactly what Prometheus, `curl` and the
//! bundled [`http_get`] client do, and it keeps the server a single
//! accept loop with no connection state.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::metrics::{bucket_lower_bound, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS};
use crate::series::{Sampler, TimeSeries};

/// Counters every scrape should expose even before the code path that
/// increments them has run. Keeping the vocabulary stable makes
/// dashboards and the CI required-counter grep independent of workload
/// phase ordering.
pub const DEFAULT_COUNTERS: &[&str] = &[
    "bench.runs",
    "datagen.breakpoints",
    "datagen.replays",
    "datagen.samples",
    "exec.quarantine_dropped",
    "exec.quarantine_retries",
    "exec.tasks_executed",
    "power.epoch_energy_evals",
    "rfe.parallel_tasks",
    "rfe.rounds",
    "sim.cache_hits",
    "sim.cache_misses",
    "sim.epochs",
    "sim.runs",
    "sim.skipped_cycles",
    "train.early_stops",
    "train.epochs",
    "workloads.benchmarks_built",
];

/// Ensures every [`DEFAULT_COUNTERS`] name exists in `registry` (at zero
/// until incremented).
pub fn register_defaults(registry: &Registry) {
    for name in DEFAULT_COUNTERS {
        let _ = registry.counter(name);
    }
}

/// A metric name in Prometheus form: `[a-zA-Z0-9_]`, everything else
/// (dots, dashes, `#`, …) replaced by `_`.
pub fn prometheus_name(name: &str) -> String {
    let mut out: String =
        name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters render as `counter`, gauges as `gauge`, and the log-scale
/// histograms as native `histogram` metrics with cumulative buckets whose
/// `le` bounds are the power-of-two upper edges.
pub fn prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} counter\n{p} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} gauge\n{p} {value}\n"));
    }
    for (name, h) in &snapshot.histograms {
        let p = prometheus_name(name);
        out.push_str(&format!("# TYPE {p} histogram\n"));
        // Our buckets store the inclusive *lower* bound; Prometheus wants
        // cumulative counts by exclusive-ish upper bound `le`. Bucket i
        // spans [lower(i), lower(i+1)), so its `le` is the next bucket's
        // lower bound; the final bucket is unbounded (`+Inf`).
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            let idx = (0..HISTOGRAM_BUCKETS)
                .find(|&i| bucket_lower_bound(i) == b.lo)
                .unwrap_or(HISTOGRAM_BUCKETS - 1);
            if idx + 1 < HISTOGRAM_BUCKETS {
                let le = bucket_lower_bound(idx + 1);
                out.push_str(&format!("{p}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
        }
        out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", h.sum, h.count));
    }
    out
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    // A peer that hung up mid-response is its own problem, not ours.
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// The `window=N` value from a query string like `window=12&x=y`.
fn window_param(query: &str) -> Option<usize> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix("window="))
        .and_then(|n| n.parse::<usize>().ok())
        .filter(|&n| n > 0)
}

fn handle(stream: &mut TcpStream, registry: &Registry, series: &TimeSeries) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    // Read just the request head; none of our endpoints take a body.
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 16 * 1024 {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let request = String::from_utf8_lossy(&head);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        respond(stream, "405 Method Not Allowed", "text/plain; charset=utf-8", "GET only\n");
        return;
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    match path {
        "/healthz" => respond(stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        "/metrics" => {
            let body = prometheus_text(&registry.snapshot());
            respond(stream, "200 OK", "text/plain; version=0.0.4; charset=utf-8", &body);
        }
        "/metrics.json" => match window_param(query) {
            None => respond(stream, "200 OK", "application/json", &registry.snapshot_json()),
            Some(n) => {
                series.sample(registry);
                let report = series.window(n).expect("sampled just above");
                let body = serde_json::to_string_pretty(&report).expect("window serialization");
                respond(stream, "200 OK", "application/json", &body);
            }
        },
        _ => respond(
            stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "try /metrics, /metrics.json, /metrics.json?window=N or /healthz\n",
        ),
    }
}

/// The embedded exporter: accept loop plus background registry sampler.
/// Dropping the server (or calling [`MetricsServer::shutdown`]) stops
/// both threads.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    _sampler: Sampler,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving the global registry.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(addr: &str) -> std::io::Result<MetricsServer> {
        MetricsServer::start_with(addr, crate::metrics::global())
    }

    /// As [`MetricsServer::start`], for an explicit (typically test)
    /// registry. The registry gains the [`DEFAULT_COUNTERS`] immediately.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start_with(addr: &str, registry: &'static Registry) -> std::io::Result<MetricsServer> {
        register_defaults(registry);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let series = Arc::new(TimeSeries::new(crate::series::DEFAULT_CAPACITY));
        let sampler =
            Sampler::start(Arc::clone(&series), registry, crate::series::DEFAULT_INTERVAL);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("obs-exporter".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(mut stream) = stream {
                        handle(&mut stream, registry, &series);
                    }
                }
            })
            .expect("spawn obs-exporter thread");
        Ok(MetricsServer { addr, stop, accept_handle: Some(accept_handle), _sampler: sampler })
    }

    /// The bound address (resolves the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and sampler, waiting for both threads.
    pub fn shutdown(mut self) {
        self.stop_threads();
    }

    fn stop_threads(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // The accept loop only re-checks the flag on a connection; poke it.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// A minimal HTTP/1.1 GET against `addr` (e.g. `127.0.0.1:9184`),
/// returning `(status_code, body)`. This is the client half of the
/// exporter protocol, shared by `ssmdvfs watch` and the tests; it relies
/// on the server closing the connection after one response.
///
/// # Errors
///
/// Returns connection or read errors, or `InvalidData` for a malformed
/// response head.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "unresolvable addr"))?;
    let mut stream = TcpStream::connect_timeout(&target, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")?;
    stream.flush()?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "response without header terminator")
    })?;
    let status =
        head.split_whitespace().nth(1).and_then(|s| s.parse::<u16>().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line")
        })?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSnapshot;

    fn test_registry() -> &'static Registry {
        // Leak one registry per test call site: the server thread needs a
        // 'static reference and tests must not share the global registry's
        // mutable state.
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("sim.cache_hits"), "sim_cache_hits");
        assert_eq!(prometheus_name("exec.worker#3"), "exec_worker_3");
        assert_eq!(prometheus_name("9lives"), "_9lives");
    }

    #[test]
    fn prometheus_text_renders_all_instrument_kinds() {
        let _guard = crate::test_lock();
        let r = Registry::new();
        crate::set_enabled(true);
        r.counter("sim.cache_hits").inc(3);
        r.gauge("train.val_accuracy").set(0.5);
        let h = r.histogram("sim.epoch_instructions");
        h.record(0.5);
        h.record(3.0);
        h.record(700.0);
        crate::set_enabled(false);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE sim_cache_hits counter\nsim_cache_hits 3\n"), "{text}");
        assert!(text.contains("# TYPE train_val_accuracy gauge\ntrain_val_accuracy 0.5"), "{text}");
        assert!(text.contains("# TYPE sim_epoch_instructions histogram"), "{text}");
        assert!(text.contains("sim_epoch_instructions_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("sim_epoch_instructions_bucket{le=\"4\"} 2\n"), "{text}");
        assert!(text.contains("sim_epoch_instructions_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("sim_epoch_instructions_count 3\n"), "{text}");
        assert!(text.contains("sim_epoch_instructions_sum 703.5\n"), "{text}");
        // Exposition discipline: every non-comment line is `name value` or
        // `name{labels} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "malformed line: {line}");
        }
    }

    #[test]
    fn default_counters_appear_at_zero() {
        let r = Registry::new();
        register_defaults(&r);
        let text = prometheus_text(&r.snapshot());
        for required in ["sim_cache_hits 0", "train_epochs 0", "exec_quarantine_dropped 0"] {
            assert!(text.contains(required), "missing {required} in:\n{text}");
        }
    }

    #[test]
    fn server_serves_metrics_json_and_healthz() {
        let _guard = crate::test_lock();
        let registry = test_registry();
        let server = MetricsServer::start_with("127.0.0.1:0", registry).expect("bind");
        let addr = server.local_addr().to_string();
        crate::set_enabled(true);
        registry.counter("sim.cache_hits").inc(11);
        crate::set_enabled(false);

        let (status, body) = http_get(&addr, "/healthz").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = http_get(&addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("sim_cache_hits 11"), "{body}");
        assert!(body.contains("exec_quarantine_dropped 0"), "defaults registered: {body}");

        let (status, body) = http_get(&addr, "/metrics.json").unwrap();
        assert_eq!(status, 200);
        let snap: MetricsSnapshot = serde_json::from_str(&body).unwrap();
        assert_eq!(snap.counters["sim.cache_hits"], 11);
        assert_eq!(body, registry.snapshot_json(), "endpoint matches --metrics-out bytes");

        let (status, body) = http_get(&addr, "/metrics.json?window=5").unwrap();
        assert_eq!(status, 200);
        let w: crate::series::WindowReport = serde_json::from_str(&body).unwrap();
        assert!(w.samples >= 1);
        assert!(w.counters.contains_key("sim.cache_hits"), "{body}");

        let (status, _) = http_get(&addr, "/nope").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn server_rejects_non_get() {
        let server = MetricsServer::start_with("127.0.0.1:0", test_registry()).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
