//! Sharded flat-combining DVFS decision service.
//!
//! The paper's premise is a microsecond decision budget per cluster; a
//! fleet of GPUs multiplies that into a stream of concurrent decision
//! requests, and handing each request to a server thread would spend most
//! of that budget on thread wake-ups. This module turns the per-cluster
//! [`SsmdvfsGovernor`](crate::SsmdvfsGovernor) hot path into a service that
//! owns no threads: its callers answer requests themselves, by flat
//! combining (Hendler, Incze, Shavit and Tzafrir, SPAA 2010).
//!
//! * Clients submit [`DecisionRequest`]s into **bounded per-shard queues**
//!   (a GPU always maps to the same shard). A submitter that finds its
//!   shard full first answers a batch of queued requests itself —
//!   backpressure, not loss.
//! * [`PendingDecision::wait`] reads the request's answer from its one-shot
//!   slot. While there is none, the first waiter that finds no combiner at
//!   work becomes the shard's combiner: it takes the shard's compiled
//!   [`DecisionPlan`], per-`(gpu, cluster)` slots and statistics, releases
//!   the lock, and answers up to `max_batch` queued requests in submission
//!   order, one [`DecisionPlan::decide_slot`] each — the same fused
//!   single-allocation fast path the governor runs, including the
//!   phase-locality memo. Every other caller parks on the shard's one
//!   condvar. A client that pipelines a window of requests before waiting
//!   gets them answered in batches; a caller that decides alone answers its
//!   own request with no thread hand-off.
//! * A request carries an optional **deadline**; one that expires in the
//!   queue is answered with the table's safe fallback operating point (the
//!   default, highest-frequency point — never slow down an epoch on stale
//!   information) and skips inference and calibration entirely.
//! * A combiner that panics **poisons** its shard: its own call re-raises
//!   the panic, and every other waiter and later caller of the shard panics
//!   with one message instead of waiting for answers that will never come.
//!
//! Batching never changes a decision. The plan is byte-identical to the
//! governor path (proptest-enforced in `tests/plan_equivalence.rs`), and
//! the self-calibration state is keyed per `(gpu, cluster)` with each
//! key's requests applied in submission order, so the decision stream for
//! any GPU is byte-identical to driving a private
//! [`SsmdvfsGovernor`](crate::SsmdvfsGovernor) sequentially — at any shard
//! count, batch size or client parallelism.

use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use gpu_power::VfTable;
use gpu_sim::{DecisionSource, EpochCounters};
use serde::Serialize;

use crate::controller::SsmdvfsConfig;
use crate::model::CombinedModel;
use crate::plan::{ClusterSlot, DecisionPlan};

/// Tunables of a [`DecisionService`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Number of independent queue + plan shards. A GPU always maps to
    /// shard `gpu % shards`, so per-GPU calibration state never crosses a
    /// shard boundary.
    pub shards: usize,
    /// Most requests one combiner answers at once.
    pub max_batch: usize,
    /// Bound of each shard's queue; a submitter at the bound answers a
    /// batch before it enqueues.
    pub queue_depth: usize,
    /// Per-request deadline measured from submission; `None` disables
    /// expiry. Expired requests get the fallback operating point.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig { shards: 1, max_batch: 32, queue_depth: 256, deadline: None }
    }
}

/// One DVFS decision request: which cluster of which GPU just finished an
/// epoch with these counters.
#[derive(Debug, Clone)]
pub struct DecisionRequest {
    /// Fleet-wide GPU index (selects the shard and the calibration key).
    pub gpu: usize,
    /// Cluster index within the GPU (calibration key).
    pub cluster: usize,
    /// The finished epoch's performance counters.
    pub counters: EpochCounters,
}

/// The service's answer to one [`DecisionRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Chosen operating-point index.
    pub op_index: usize,
    /// `true` when the deadline expired and `op_index` is the safe
    /// fallback point rather than an inference result.
    pub fallback: bool,
    /// Queue + inference time, submission to answer.
    pub latency: Duration,
}

/// Aggregate counters from a shut-down service.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServeStats {
    /// Requests answered (inference and fallback alike).
    pub decisions: u64,
    /// Batches answered with at least one inference (each a loop over
    /// `DecisionPlan::decide_slot`, one call per request).
    pub batches: u64,
    /// Requests answered by inference (sum of batch sizes).
    pub batched: u64,
    /// Requests that expired in the queue and got the fallback point.
    pub deadline_misses: u64,
}

impl ServeStats {
    /// Mean requests per answered batch (0 when no batch ran).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched as f64 / self.batches as f64
        }
    }

    fn merge(&mut self, other: ServeStats) {
        self.decisions += other.decisions;
        self.batches += other.batches;
        self.batched += other.batched;
        self.deadline_misses += other.deadline_misses;
    }
}

/// What every caller of a shard panics with once a combiner panicked.
/// This module's own panics fire with no guard held, so the mutex is never
/// poisoned by them.
const POISONED: &str = "DecisionService shard poisoned: a combiner panicked while answering";

/// A request's one-shot answer slot, written by whichever caller combines
/// the request.
type Reply = Arc<OnceLock<Decision>>;

struct Pending {
    gpu: usize,
    cluster: usize,
    counters: EpochCounters,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: Reply,
}

/// One shard's combining state: its compiled [`DecisionPlan`], the
/// decision slot (calibration state + memo) of every GPU mapped to the
/// shard, and its statistics. The caller that combines owns it for the
/// batch.
struct ShardWorker {
    table_len: usize,
    fallback_op: usize,
    plan: DecisionPlan,
    slots: HashMap<(usize, usize), ClusterSlot>,
    batch: Vec<Pending>,
    stats: ServeStats,
}

impl ShardWorker {
    fn new(model: &CombinedModel, config: &SsmdvfsConfig, table: &VfTable) -> ShardWorker {
        ShardWorker {
            table_len: table.len(),
            fallback_op: table.default_index(),
            plan: DecisionPlan::compile(model, config),
            slots: HashMap::new(),
            batch: Vec::new(),
            stats: ServeStats::default(),
        }
    }

    /// Answers the drained batch in submission order: expired requests get
    /// the fallback point; the rest run through the shard's compiled
    /// [`DecisionPlan`] against their `(gpu, cluster)` slot. The plan is
    /// byte-identical to `SsmdvfsGovernor::decide` (memo included), so
    /// serving is byte-identical to sequential governing.
    fn process(&mut self) {
        let now = Instant::now();
        let mut live = 0;
        for p in self.batch.drain(..) {
            crate::failpoint::hit("serve.decide", p.gpu);
            let (op_index, fallback) = if p.deadline.is_some_and(|d| now >= d) {
                self.stats.deadline_misses += 1;
                obs::counter!("serve.deadline_misses").inc(1);
                (self.fallback_op, true)
            } else {
                live += 1;
                let slot =
                    self.slots.entry((p.gpu, p.cluster)).or_insert_with(|| self.plan.new_slot());
                (self.plan.decide_slot(slot, &p.counters, self.table_len).op, false)
            };
            let latency = p.submitted.elapsed();
            obs::histogram!("serve.decision_latency_us").record(latency.as_secs_f64() * 1e6);
            self.stats.decisions += 1;
            let decision = Decision { op_index, fallback, latency };
            p.reply.set(decision).expect("a request is answered exactly once");
        }
        if live > 0 {
            obs::histogram!("serve.batch_size").record(live as f64);
            self.stats.batches += 1;
            self.stats.batched += live;
        }
    }
}

struct ShardState {
    queue: VecDeque<Pending>,
    /// `None` while a caller combines, and for good once one panicked.
    worker: Option<Box<ShardWorker>>,
    closed: bool,
    poisoned: bool,
}

struct Shard {
    state: Mutex<ShardState>,
    /// Signalled when a combiner hands the worker back or poisons the
    /// shard.
    changed: Condvar,
    depth: usize,
    max_batch: usize,
}

impl Shard {
    /// Returns the locked state once `done` holds, combining batches while
    /// the worker is free and parking while another caller combines.
    ///
    /// # Panics
    ///
    /// Panics once a combiner of this shard has panicked.
    fn drive(&self, done: impl Fn(&ShardState) -> bool) -> MutexGuard<'_, ShardState> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if st.poisoned {
                drop(st);
                panic!("{POISONED}");
            }
            if done(&st) {
                return st;
            }
            st = match st.worker.take() {
                Some(worker) => self.combine(st, worker),
                None => self.changed.wait(st).expect(POISONED),
            };
        }
    }

    /// Answers up to `max_batch` queued requests with `worker`, holding the
    /// lock only to drain the batch and to hand the worker back. If the
    /// batch panics, the shard is poisoned and the panic goes on.
    fn combine<'a>(
        &'a self,
        mut st: MutexGuard<'a, ShardState>,
        mut worker: Box<ShardWorker>,
    ) -> MutexGuard<'a, ShardState> {
        let n = st.queue.len().min(self.max_batch);
        worker.batch.extend(st.queue.drain(..n));
        obs::gauge!("serve.queue_depth").set(st.queue.len() as f64);
        drop(st);
        let answered = panic::catch_unwind(AssertUnwindSafe(|| worker.process()));
        let mut st = self.state.lock().expect(POISONED);
        self.changed.notify_all();
        if let Err(payload) = answered {
            st.poisoned = true;
            drop(st);
            panic::resume_unwind(payload);
        }
        st.worker = Some(worker);
        st
    }

    /// Enqueues `p`, first answering batches while the queue is full.
    fn push(&self, p: Pending) {
        let mut st = self.drive(|st| st.closed || st.queue.len() < self.depth);
        if st.closed {
            drop(st);
            panic!("DecisionRequest submitted to a shut-down DecisionService");
        }
        st.queue.push_back(p);
        obs::gauge!("serve.queue_depth").set(st.queue.len() as f64);
    }

    /// Closes the queue, combines until every queued request is answered,
    /// and returns the shard's statistics.
    fn close(&self) -> ServeStats {
        self.state.lock().expect(POISONED).closed = true;
        let st = self.drive(|st| st.queue.is_empty() && st.worker.is_some());
        st.worker.as_ref().expect("the worker is home once the queue is empty").stats
    }
}

/// A running decision service: per-shard bounded queues around one shared
/// model, answered by the callers that wait on them. Create with
/// [`DecisionService::start`], talk to it through
/// [`DecisionService::client`] handles, stop it with
/// [`DecisionService::shutdown`].
pub struct DecisionService {
    shards: Arc<[Arc<Shard>]>,
    deadline: Option<Duration>,
}

impl DecisionService {
    /// Compiles one decision plan per shard and returns the service. No
    /// thread is spawned: requests are answered by the callers waiting on
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `table` is empty (there would be no decodable decision
    /// and no fallback point).
    pub fn start(
        model: Arc<CombinedModel>,
        config: SsmdvfsConfig,
        table: VfTable,
        serve: ServeConfig,
    ) -> DecisionService {
        assert!(!table.is_empty(), "DecisionService needs a non-empty VfTable");
        // Pre-register the miss counter: a snapshot after a clean run must
        // still show `serve.deadline_misses = 0`, not a missing key.
        obs::counter!("serve.deadline_misses").inc(0);
        let shards = (0..serve.shards.max(1))
            .map(|_| {
                Arc::new(Shard {
                    state: Mutex::new(ShardState {
                        queue: VecDeque::new(),
                        worker: Some(Box::new(ShardWorker::new(&model, &config, &table))),
                        closed: false,
                        poisoned: false,
                    }),
                    changed: Condvar::new(),
                    depth: serve.queue_depth.max(1),
                    max_batch: serve.max_batch.max(1),
                })
            })
            .collect();
        DecisionService { shards, deadline: serve.deadline }
    }

    /// A cheap, cloneable submission handle.
    pub fn client(&self) -> DecisionClient {
        DecisionClient { shards: Arc::clone(&self.shards), deadline: self.deadline }
    }

    /// Closes the queues, answers every request still queued, and returns
    /// the aggregate statistics.
    ///
    /// # Panics
    ///
    /// Panics if a shard is poisoned, or with the combiner's own panic if
    /// answering the remaining requests panics.
    pub fn shutdown(self) -> ServeStats {
        let mut stats = ServeStats::default();
        for shard in self.shards.iter() {
            stats.merge(shard.close());
        }
        stats
    }
}

/// A client handle to a [`DecisionService`]. Cloning is cheap; every
/// clone talks to the same shards.
#[derive(Clone)]
pub struct DecisionClient {
    shards: Arc<[Arc<Shard>]>,
    deadline: Option<Duration>,
}

impl DecisionClient {
    /// Enqueues a request and returns immediately, unless the shard queue
    /// is full: then the caller answers queued requests until there is room
    /// (backpressure). The answer is collected from the returned handle,
    /// which lets a caller pipeline a window of requests before waiting.
    ///
    /// # Panics
    ///
    /// Panics if the service was shut down or the shard is poisoned.
    pub fn submit(&self, request: DecisionRequest) -> PendingDecision {
        let now = Instant::now();
        let shard = &self.shards[request.gpu % self.shards.len()];
        let reply = Reply::default();
        shard.push(Pending {
            gpu: request.gpu,
            cluster: request.cluster,
            counters: request.counters,
            submitted: now,
            deadline: self.deadline.map(|d| now + d),
            reply: Arc::clone(&reply),
        });
        PendingDecision { shard: Arc::clone(shard), reply }
    }

    /// Submit-and-wait round trip for one decision.
    pub fn decide(&self, gpu: usize, cluster: usize, counters: &EpochCounters) -> Decision {
        self.submit(DecisionRequest { gpu, cluster, counters: counters.clone() }).wait()
    }
}

/// The in-flight side of [`DecisionClient::submit`].
pub struct PendingDecision {
    shard: Arc<Shard>,
    reply: Reply,
}

impl PendingDecision {
    /// Returns the answer, combining queued requests (this one among them)
    /// while no other caller does, and parking while one does.
    ///
    /// # Panics
    ///
    /// Panics if the shard is poisoned, or with the combiner's own panic if
    /// this caller's batch panics.
    pub fn wait(self) -> Decision {
        let reply = &self.reply;
        if reply.get().is_none() {
            drop(self.shard.drive(|_| reply.get().is_some()));
        }
        *reply.get().expect("the shard answered the request")
    }
}

impl DecisionSource for DecisionClient {
    fn decide(
        &self,
        gpu: usize,
        cluster: usize,
        counters: &EpochCounters,
        _table: &VfTable,
    ) -> usize {
        DecisionClient::decide(self, gpu, cluster, counters).op_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::CounterId;

    fn setup(serve: ServeConfig) -> (DecisionService, VfTable) {
        let table = gpu_sim::GpuConfig::small_test().vf_table;
        let model = Arc::new(CombinedModel::synthetic(table.len(), 9));
        let service = DecisionService::start(model, SsmdvfsConfig::new(0.1), table.clone(), serve);
        (service, table)
    }

    fn counters_for(i: u64) -> EpochCounters {
        let mut c = EpochCounters::zeroed();
        c[CounterId::TotalInstrs] = 500.0 + 37.0 * i as f64;
        c[CounterId::TotalCycles] = 1_000.0;
        c[CounterId::IntAluInstrs] = 200.0 + 11.0 * i as f64;
        c[CounterId::LoadGlobalInstrs] = 60.0 + 3.0 * (i % 7) as f64;
        c[CounterId::StallMemLoad] = 120.0 + 17.0 * (i % 5) as f64;
        c[CounterId::L1ReadAccess] = 90.0;
        c[CounterId::L1ReadMiss] = 20.0 + (i % 9) as f64;
        c.recompute_derived();
        c
    }

    /// Seed of the model the failure-path tests serve. Its decisions move
    /// with the calibrated preset on the `request` stream, so a request
    /// calibrated out of order, or at all once expired, changes later
    /// answers.
    const CALIBRATION_SENSITIVE_SEED: u64 = 8;

    fn start_calibration_sensitive(serve: ServeConfig) -> DecisionService {
        let table = gpu_sim::GpuConfig::small_test().vf_table;
        let model = Arc::new(CombinedModel::synthetic(table.len(), CALIBRATION_SENSITIVE_SEED));
        DecisionService::start(model, SsmdvfsConfig::new(0.1), table, serve)
    }

    /// Request `i` of a stream over four GPUs. Every other epoch of a GPU
    /// reports a collapsed instruction count, so its calibrated preset
    /// keeps moving.
    fn request(i: u64) -> DecisionRequest {
        let mut counters = counters_for(i);
        if i % 8 >= 4 {
            counters[CounterId::TotalInstrs] = 5.0;
            counters[CounterId::IntAluInstrs] = 2.0;
            counters.recompute_derived();
        }
        DecisionRequest { gpu: i as usize % 4, cluster: 0, counters }
    }

    /// What a sequential plan replay answers to the given requests, with one
    /// calibration slot per `(gpu, cluster)` key.
    fn replay(ids: impl IntoIterator<Item = u64>) -> Vec<usize> {
        let table = gpu_sim::GpuConfig::small_test().vf_table;
        let model = CombinedModel::synthetic(table.len(), CALIBRATION_SENSITIVE_SEED);
        let mut plan = DecisionPlan::compile(&model, &SsmdvfsConfig::new(0.1));
        let mut slots = HashMap::new();
        ids.into_iter()
            .map(|i| {
                let r = request(i);
                let slot = slots.entry((r.gpu, r.cluster)).or_insert_with(|| plan.new_slot());
                plan.decide_slot(slot, &r.counters, table.len()).op
            })
            .collect()
    }

    #[test]
    fn serve_decisions_match_batch_size_one() {
        let run = |max_batch: usize| -> Vec<usize> {
            let (service, _) =
                setup(ServeConfig { shards: 1, max_batch, ..ServeConfig::default() });
            let client = service.client();
            // Pipeline windows so the batcher actually sees batches.
            let mut ops = Vec::new();
            for window in 0..8 {
                let pending: Vec<PendingDecision> = (0..16)
                    .map(|k| {
                        client.submit(DecisionRequest {
                            gpu: k % 4,
                            cluster: 0,
                            counters: counters_for(window * 16 + k as u64),
                        })
                    })
                    .collect();
                ops.extend(pending.into_iter().map(|p| p.wait().op_index));
            }
            let stats = service.shutdown();
            assert_eq!(stats.decisions, 128);
            assert_eq!(stats.deadline_misses, 0);
            ops
        };
        assert_eq!(run(1), run(32), "batching must not change any decision");
    }

    #[test]
    fn expired_requests_get_the_fallback_point() {
        let (service, table) = setup(ServeConfig {
            shards: 1,
            max_batch: 8,
            deadline: Some(Duration::ZERO),
            ..ServeConfig::default()
        });
        let client = service.client();
        // A zero deadline has expired by the time the batcher drains it.
        let d = client.decide(0, 0, &counters_for(0));
        assert!(d.fallback);
        assert_eq!(d.op_index, table.default_index());
        let stats = service.shutdown();
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.batched, 0);
    }

    #[test]
    fn shards_isolate_gpus_but_not_results() {
        let gather = |shards: usize| -> Vec<usize> {
            let (service, _) =
                setup(ServeConfig { shards, max_batch: 4, ..ServeConfig::default() });
            let client = service.client();
            let ops = (0..24)
                .map(|i| client.decide(i % 6, i / 6, &counters_for(i as u64)).op_index)
                .collect();
            service.shutdown();
            ops
        };
        assert_eq!(gather(1), gather(3), "shard count must not change decisions");
    }

    #[test]
    fn a_window_larger_than_the_queue_completes() {
        // Nobody else waits, so once the queue is full the submitter itself
        // must answer a batch to make room.
        let service = start_calibration_sensitive(ServeConfig {
            shards: 1,
            max_batch: 8,
            queue_depth: 4,
            deadline: None,
        });
        let client = service.client();
        let pending: Vec<PendingDecision> = (0..64).map(|i| client.submit(request(i))).collect();
        let ops: Vec<usize> = pending.into_iter().map(|p| p.wait().op_index).collect();
        assert_eq!(ops, replay(0..64));
        assert_eq!(service.shutdown().decisions, 64);
    }

    #[test]
    fn a_burst_past_its_deadline_falls_back_without_calibrating() {
        let service = start_calibration_sensitive(ServeConfig {
            max_batch: 8,
            deadline: Some(Duration::from_millis(20)),
            ..ServeConfig::default()
        });
        let fallback_op = gpu_sim::GpuConfig::small_test().vf_table.default_index();
        let client = service.client();
        // The first half of the burst waits in the queue past its deadline.
        // The second half shares its keys, so an expired request that
        // touched calibration would shift the answers after it.
        let stale: Vec<PendingDecision> = (0..32).map(|i| client.submit(request(i))).collect();
        std::thread::sleep(Duration::from_millis(40));
        let fresh: Vec<PendingDecision> = (32..64).map(|i| client.submit(request(i))).collect();
        let answers: Vec<Decision> = stale.into_iter().chain(fresh).map(|p| p.wait()).collect();
        let stats = service.shutdown();

        assert!(answers[..32].iter().all(|d| d.fallback), "expired requests must fall back");
        let (fallbacks, answered): (Vec<_>, Vec<_>) =
            (0..64u64).partition(|&i| answers[i as usize].fallback);
        for &i in &fallbacks {
            assert_eq!(answers[i as usize].op_index, fallback_op);
        }
        assert_eq!(stats.deadline_misses, fallbacks.len() as u64);
        let ops: Vec<usize> = answered.iter().map(|&i| answers[i as usize].op_index).collect();
        assert_eq!(ops, replay(answered), "expired requests must skip calibration");
    }

    #[test]
    fn shutdown_answers_every_unawaited_request() {
        let service =
            start_calibration_sensitive(ServeConfig { max_batch: 8, ..ServeConfig::default() });
        let client = service.client();
        let pending: Vec<PendingDecision> = (0..40).map(|i| client.submit(request(i))).collect();
        let stats = service.shutdown();
        assert_eq!((stats.decisions, stats.batches), (40, 5));
        let ops: Vec<usize> = pending.into_iter().map(|p| p.wait().op_index).collect();
        assert_eq!(ops, replay(0..40));
    }

    #[test]
    #[should_panic(expected = "DecisionRequest submitted to a shut-down DecisionService")]
    fn submit_after_shutdown_panics() {
        let (service, _) = setup(ServeConfig::default());
        let client = service.client();
        service.shutdown();
        client.submit(request(0));
    }
}
