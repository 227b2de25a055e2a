//! Online serving: a continuous-batching scheduler over the engine models.
//!
//! §6.5 benchmarks static batches; production serving (vLLM's actual mode)
//! admits requests as they arrive, joins them to the running decode batch,
//! and evicts them on completion. This module simulates that loop in
//! discrete decode-step time, with KV-capacity admission control — which is
//! exactly where ZipServ's freed weight memory turns into admission
//! headroom and lower queueing delay.
//!
//! One replica's state lives in a crate-private `ReplicaSim`: a cursor
//! into the arrival-sorted trace, a queue of arrived (or re-queued)
//! requests only, the running batch, and the fault, streaming-admission
//! and prefix-cache books. [`run_policy_faulted`] drives it round by round,
//! so host cost per request stays flat in trace length; [`run_policy`] and
//! [`ServingEngine::serve_online`](crate::engine::ServingEngine::serve_online)
//! are the same run with an empty plan or the engine's own configuration.
//! [`run_reference`] keeps the frozen pre-policy FCFS loop as an oracle.
//!
//! Admission order and preemption are delegated to a pluggable
//! [`SchedulePolicy`]; see [`crate::policy`] for the four in-tree policies.

use crate::engine::ServingEngine;
use crate::fault::{
    FaultEvent, FaultKind, FaultPlan, FaultState, RejectReason, Rejection, RetryPolicy,
};
use crate::kvcache::{KvShards, PrefixRegistry, PrefixStats};
use crate::metrics::{percentile, ClassStats, RobustnessStats};
use crate::policy::{
    Fcfs, PreemptionMode, PriorityClass, QueuedRequest, RunningRequest, SchedulePolicy, Slo,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::iter::Peekable;
use std::vec;

pub use crate::policy::MAX_PREEMPTIONS;

/// One serving request.
///
/// Construct with [`Request::new`] and layer on QoS with the builder-style
/// [`Request::with_priority`] / [`Request::with_slo`]; the defaults
/// ([`PriorityClass::Standard`], no SLO) reproduce pre-policy behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Request id.
    pub id: u64,
    /// Arrival time in seconds.
    pub arrival_s: f64,
    /// Prompt tokens.
    pub prompt_len: u64,
    /// Output tokens to generate.
    pub output_len: u64,
    /// Priority tier (default [`PriorityClass::Standard`]).
    pub priority: PriorityClass,
    /// Optional latency SLO this request is judged against.
    pub slo: Option<Slo>,
    /// Tenant identity (`None` for legacy tenant-less traffic). Fleet
    /// routers with session affinity key on this; the modulo-of-id fold
    /// remains only as their fallback.
    pub tenant: Option<u64>,
    /// Hash of the shared prompt prefix this request declares (0 = no
    /// shared prefix). Requests with equal hashes share their first
    /// `prefix_len` prompt tokens bit-for-bit.
    pub prefix_hash: u64,
    /// Length in tokens of the shared prefix (0 = no shared prefix;
    /// always `<= prompt_len`).
    pub prefix_len: u64,
}

impl Request {
    /// Creates a request with default QoS (standard priority, no SLO).
    pub fn new(id: u64, arrival_s: f64, prompt_len: u64, output_len: u64) -> Self {
        Request {
            id,
            arrival_s,
            prompt_len,
            output_len,
            priority: PriorityClass::Standard,
            slo: None,
            tenant: None,
            prefix_hash: 0,
            prefix_len: 0,
        }
    }

    /// Sets the priority tier (builder style).
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Attaches a latency SLO (builder style).
    pub fn with_slo(mut self, slo: Slo) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Tags the request with a tenant identity (builder style).
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Declares that the first `len` prompt tokens are shared under
    /// `hash` (builder style). `len` is clamped to the prompt length.
    pub fn with_shared_prefix(mut self, hash: u64, len: u64) -> Self {
        self.prefix_hash = hash;
        self.prefix_len = len.min(self.prompt_len);
        self
    }
}

/// Per-request completion record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Priority tier the request ran under.
    pub priority: PriorityClass,
    /// Time spent queued before first admission (s).
    pub queue_s: f64,
    /// End-to-end latency from arrival to last token (s).
    pub latency_s: f64,
    /// Time from arrival to the first generated token (s).
    pub ttft_s: f64,
    /// How many times the request was preempted.
    pub preemptions: u32,
    /// Whether the request's SLO was met (`None` if it carried no SLO).
    pub slo_met: Option<bool>,
    /// Output tokens the request generated (its `output_len`) — what
    /// [`ScheduleReport::goodput_tps`] counts.
    pub output_len: u64,
    /// Fault-driven re-queues the request survived (0 on clean runs).
    pub retries: u32,
}

/// Aggregate results of one simulated serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleReport {
    /// All completions.
    pub completions: Vec<Completion>,
    /// Simulated wall-clock duration (s).
    pub duration_s: f64,
    /// Output tokens per second over the run.
    pub throughput_tps: f64,
    /// Peak concurrent batch size observed.
    pub peak_batch: usize,
    /// Decode-side communication time charged across the run (s): the
    /// tensor-parallel all-reduce plus pipeline activation-hop share of
    /// every decode step the scheduler billed. Zero on single-GPU
    /// deployments; the legacy [`run_reference`] oracle predates comm
    /// accounting and always reports zero.
    pub comm_s: f64,
    /// Total preemptions across the run.
    pub preemptions: u64,
    /// Ids of requests rejected instead of served, in rejection order
    /// (derived from [`ScheduleReport::rejections`]; kept for
    /// compatibility with pre-fault callers).
    pub rejected: Vec<u64>,
    /// Typed rejections with reasons: oversized requests, fault victims
    /// past the retry cap, brownout sheds, lost capacity, policy holds.
    pub rejections: Vec<Rejection>,
    /// Robustness accounting under fault injection. All-zero (the
    /// `Default`) on clean runs, preserving bit-compatible reports when
    /// the [`FaultPlan`] is empty.
    pub robustness: RobustnessStats,
    /// Step-cache observability: how often the scheduler re-priced a
    /// decode step versus reusing a cached one. Purely diagnostic — the
    /// cached values are exact, so hit rate never changes a report's
    /// timing fields.
    pub step_cache: StepCacheStats,
    /// Prefix-cache counters: hit rate, prefill tokens saved, CoW pages
    /// shared, evictions. All-zero (the `Default`) whenever the engine
    /// runs without prefix caching, preserving bit-compatible reports.
    pub prefix: PrefixStats,
    /// Name of the policy that produced this report.
    pub policy: String,
}

/// Hit/miss counters for the scheduler's per-`(shape, context-bucket)`
/// decode-step cache.
///
/// Misses are bounded by the number of *distinct step shapes* a run
/// visits, not the number of decode steps: on pipeline-parallel engines
/// the cache keys on [`ServingEngine::step_cache_key`]'s micro-batch
/// shape, so batch sizes that quantize to the same shape share an entry.
/// A low [`StepCacheStats::hit_rate`] on a long run means the engine
/// model is being re-run per step — the regression this accounting
/// exists to catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepCacheStats {
    /// Decode steps priced from a cached entry.
    pub hits: u64,
    /// Decode steps that ran the engine's step model.
    pub misses: u64,
}

impl StepCacheStats {
    /// Fraction of decode steps served from cache (1.0 for an empty run).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 1.0;
        }
        self.hits as f64 / total as f64
    }
}

impl ScheduleReport {
    /// End-to-end latency percentile (`q` in `[0, 1]`), or `None` when the
    /// run produced no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn latency_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.completions.iter().map(|c| c.latency_s), q)
    }

    /// Time-to-first-token percentile (`q` in `[0, 1]`), or `None` when the
    /// run produced no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn ttft_percentile(&self, q: f64) -> Option<f64> {
        percentile(self.completions.iter().map(|c| c.ttft_s), q)
    }

    /// Latency percentile restricted to one priority class, or `None` when
    /// that class has no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn class_latency_percentile(&self, class: PriorityClass, q: f64) -> Option<f64> {
        percentile(
            self.completions
                .iter()
                .filter(|c| c.priority == class)
                .map(|c| c.latency_s),
            q,
        )
    }

    /// TTFT percentile restricted to one priority class, or `None` when
    /// that class has no completions.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn class_ttft_percentile(&self, class: PriorityClass, q: f64) -> Option<f64> {
        percentile(
            self.completions
                .iter()
                .filter(|c| c.priority == class)
                .map(|c| c.ttft_s),
            q,
        )
    }

    /// Mean queueing delay before first admission, or `None` when the run
    /// produced no completions.
    pub fn mean_queue_s(&self) -> Option<f64> {
        if self.completions.is_empty() {
            return None;
        }
        Some(
            self.completions.iter().map(|c| c.queue_s).sum::<f64>() / self.completions.len() as f64,
        )
    }

    /// Fraction of SLO-carrying completions that met their SLO, or `None`
    /// when no completion carried an SLO.
    pub fn slo_attainment(&self) -> Option<f64> {
        crate::metrics::slo_attainment(&self.completions)
    }

    /// Per-class summary for one priority tier, or `None` when that class
    /// has no completions.
    pub fn class_stats(&self, class: PriorityClass) -> Option<ClassStats> {
        ClassStats::from_completions(
            class,
            self.completions.iter().filter(|c| c.priority == class),
        )
    }

    /// Summaries for every priority class that completed at least one
    /// request, least to most urgent.
    pub fn per_class(&self) -> Vec<ClassStats> {
        PriorityClass::ALL
            .iter()
            .filter_map(|&class| self.class_stats(class))
            .collect()
    }

    /// Fraction of the run during which every rank was alive: `1 −
    /// downtime / duration`. Exactly 1.0 on clean runs (and on an empty
    /// run, where no time passed to be unavailable in).
    pub fn availability(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 1.0;
        }
        (1.0 - self.robustness.downtime_s / self.duration_s).clamp(0.0, 1.0)
    }

    /// Output tokens per second counting only *completed* requests —
    /// under faults this excludes tokens generated by victims that were
    /// later rejected, so `goodput_tps <= throughput_tps` and the gap is
    /// the work faults wasted. Equal to `throughput_tps` on clean runs
    /// without rejections.
    pub fn goodput_tps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.completions.iter().map(|c| c.output_len).sum::<u64>() as f64 / self.duration_s
    }

    /// Ids rejected for one specific reason, in rejection order.
    pub fn rejected_for(&self, reason: RejectReason) -> Vec<u64> {
        self.rejections
            .iter()
            .filter(|r| r.reason == reason)
            .map(|r| r.id)
            .collect()
    }
}

/// Deterministic xorshift64 uniform stream on `(0, 1)`, shared by every
/// arrival generator so their documented equivalence cannot drift.
pub(crate) struct UniformStream(u64);

impl UniformStream {
    pub(crate) fn new(seed: u64) -> Self {
        UniformStream(seed | 1)
    }

    pub(crate) fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        ((self.0 >> 11) as f64 / (1u64 << 53) as f64).max(1e-12)
    }
}

/// Deterministic Poisson-process arrival generator (xorshift-based, no
/// external RNG needed). Every request gets default QoS; use
/// [`crate::workload::ArrivalMix`] for mixed-priority/SLO traffic.
pub fn poisson_arrivals(
    rate_per_s: f64,
    count: usize,
    prompt_len: u64,
    output_len: u64,
    seed: u64,
) -> Vec<Request> {
    assert!(rate_per_s > 0.0, "rate must be positive");
    let mut uniform = UniformStream::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|id| {
            t += -uniform.next().ln() / rate_per_s; // exponential inter-arrival
            Request::new(id as u64, t, prompt_len, output_len)
        })
        .collect()
}

/// Turns a finished in-flight record into a completion at time `now`.
fn complete(f: &RunningRequest, now: f64) -> Completion {
    // A finished request always produced at least one token; fall back to
    // the final step time rather than aborting the run if a custom policy
    // ever violates that invariant.
    let first_token = f.first_token_s.unwrap_or(now);
    let ttft_s = first_token - f.req.arrival_s;
    Completion {
        id: f.req.id,
        priority: f.req.priority,
        queue_s: f.first_admitted_s - f.req.arrival_s,
        latency_s: now - f.req.arrival_s,
        ttft_s,
        preemptions: f.preemptions,
        slo_met: f.req.slo.map(|slo| {
            let decode_budget = slo.tpot_s * f.req.output_len.saturating_sub(1) as f64;
            ttft_s <= slo.ttft_s && (now - first_token) <= decode_budget
        }),
        output_len: f.req.output_len,
        retries: f.retries,
    }
}

/// A request's whole-lifetime KV demand (`prompt + output` tokens), or
/// `None` when the sum overflows — such a request can never fit.
pub(crate) fn lifetime_tokens(req: &Request) -> Option<u64> {
    req.prompt_len.checked_add(req.output_len)
}

/// Output tokens per second over a run of `duration_s`.
fn throughput(output_tokens: u64, duration_s: f64) -> f64 {
    if duration_s > 0.0 {
        output_tokens as f64 / duration_s
    } else {
        0.0
    }
}

/// Runs an arrival trace to completion under an arbitrary policy.
///
/// This is the policy-generic continuous-batching loop:
///
/// 1. **Admission** — while capacity and the batch cap allow, the policy
///    picks the next arrived request; a pick that does not fit may evict
///    policy-chosen victims (each request at most [`MAX_PREEMPTIONS`]
///    times). Fresh admissions pay their prefill; re-admissions pay a
///    recompute prefill over `prompt + generated` tokens, or — under
///    [`PreemptionMode::PageOut`](crate::policy::PreemptionMode) — the
///    PCIe page-in half of the swap (the page-out half was charged when
///    the victim was evicted).
/// 2. **Decode** — one step for the whole batch, costed by the engine's
///    analytic model (cached per `(batch, context-bucket)`).
/// 3. **Retire** — finished requests leave the batch and record latency,
///    TTFT, queueing delay, preemption count and SLO verdict.
///
/// A request whose KV demand exceeds the deployment's capacity even as the
/// sole occupant is reported in [`ScheduleReport::rejected`] rather than
/// looping forever, and so is one whose arrival time is not finite.
///
/// Under [`Fcfs`] this loop is bit-compatible with the legacy
/// [`run_reference`] on arrival-sorted traces (verified by proptest in the
/// `schedule_policies` suite).
pub fn run_policy(
    engine: &ServingEngine,
    policy: &dyn SchedulePolicy,
    max_batch: usize,
    arrivals: Vec<Request>,
) -> ScheduleReport {
    run_policy_faulted(
        engine,
        policy,
        max_batch,
        arrivals,
        &FaultPlan::default(),
        &RetryPolicy::default(),
    )
}

/// [`run_policy`] with deterministic fault injection and recovery.
///
/// An empty [`FaultPlan`] is the fault-free loop: every fault branch is a
/// no-op without events, capacity scaling is integer, and the robustness
/// books stay at their all-zero default, so reports are bit-identical to
/// [`run_policy`] (pinned by the `fault_recovery` suite across every
/// in-tree policy).
///
/// With a non-empty plan, events apply between scheduler rounds:
///
/// * **[`FaultKind::RankFail`]** — the dead rank's KV shard is lost, so
///   the whole running batch is victimized. Each victim re-queues for
///   recompute-prefill with an exponential backoff
///   ([`RetryPolicy::delay_s`]); past [`RetryPolicy::max_retries`] it is
///   rejected as [`RejectReason::RetriesExhausted`]. Capacity and step
///   time are re-planned around the survivors, and fresh best-effort
///   ([`PriorityClass::Batch`]) arrivals are shed
///   ([`RejectReason::BrownoutShed`]) until repair.
/// * **[`FaultKind::RankRepair`]** — capacity returns; victims still
///   queued simply resume through the normal admission path.
/// * **[`FaultKind::LinkDegrade`]** — the communication share of each
///   decode step is multiplied by the factor until the window expires.
/// * **[`FaultKind::KvStall`]** / **[`FaultKind::CorruptFrame`]** — the
///   engine stalls for the transfer / per-frame PCIe re-fetch time.
///
/// Every request resolves exactly once: it either completes or appears in
/// [`ScheduleReport::rejections`] with a typed reason.
pub fn run_policy_faulted(
    engine: &ServingEngine,
    policy: &dyn SchedulePolicy,
    max_batch: usize,
    arrivals: Vec<Request>,
    plan: &FaultPlan,
    retry: &RetryPolicy,
) -> ScheduleReport {
    let mut sim = ReplicaSim::new(engine, policy, max_batch, arrivals, plan, retry);
    while sim.round() {}
    sim.finish()
}

/// What streaming admission (chunked-prefill mode) tracks: the live
/// per-rank KV shards that gate admission page-by-page, plus the
/// per-request prefill chunk cost.
struct StreamBooks {
    /// One paged allocator per rank of the `tp × pp` grid. Admission
    /// reserves a request's whole-lifetime KV on every alive rank up
    /// front, so one exhausted fat rank stalls intake even when the
    /// aggregate capacity would fit.
    shards: KvShards,
    /// Per-resident cost of one prefill chunk in seconds (the whole
    /// prefill cost at admission divided by `n_chunks`), kept exactly as
    /// long as the reservation.
    chunk_cost: HashMap<u64, f64>,
    /// Chunks a fresh prefill is split into: one per pipeline stage.
    n_chunks: u32,
}

impl StreamBooks {
    /// Tries to reserve `cand`'s whole-lifetime KV on every alive rank.
    /// The append is atomic across ranks; on refusal (some rank is out of
    /// pages) the registration is rolled back so nothing leaks.
    fn try_reserve(&mut self, cand: &QueuedRequest) -> bool {
        let id = cand.req.id;
        self.shards.register(id);
        let appended = lifetime_tokens(&cand.req).map(|t| self.shards.append(id, t));
        if let Some(Ok(())) = appended {
            return true;
        }
        let _ = self.shards.release(id);
        false
    }

    /// Hands back a resident's reservation (completion, preemption,
    /// fault victimization) and drops its chunk bookkeeping.
    fn unreserve(&mut self, id: u64) {
        let _ = self.shards.release(id);
        self.chunk_cost.remove(&id);
    }
}

/// Everything the fault machinery mutates while the scheduler runs.
struct FaultBooks {
    state: FaultState,
    rob: RobustnessStats,
    /// Ids victimized by a failure and not yet re-served or rejected.
    victims_outstanding: HashSet<u64>,
    /// When the oldest still-open recovery window opened.
    recover_started: Option<f64>,
}

impl FaultBooks {
    /// A victim id got re-served or rejected; when the last one resolves,
    /// the time-to-recover window closes.
    fn resolve_victim(&mut self, id: u64, now: f64) {
        if self.victims_outstanding.remove(&id) && self.victims_outstanding.is_empty() {
            if let Some(t0) = self.recover_started.take() {
                self.rob.time_to_recover_s += now - t0;
                self.rob.recoveries += 1;
            }
        }
    }
}

/// One replica's continuous-batching state. The queue never holds a
/// request that has not arrived: arrivals move from the trace into the
/// queue as the clock passes them, so admission costs scale with the
/// backlog, not with the length of the trace.
struct ReplicaSim<'a> {
    engine: &'a ServingEngine,
    policy: &'a dyn SchedulePolicy,
    retry: &'a RetryPolicy,
    max_batch: usize,
    /// Full (healthy) KV capacity in tokens.
    capacity: u64,
    /// The fault plan's time-sorted events and the next one to apply.
    events: &'a [FaultEvent],
    next_event: usize,
    faults: FaultBooks,
    /// Chunked-prefill mode (`EngineBuilder::chunked_prefill`, default at
    /// pp ≥ 2): fresh prefills stream through the stages in chunks between
    /// decode steps, and the live KV shards gate admission too.
    stream: Option<StreamBooks>,
    /// Prefix caching (`EngineBuilder::prefix_caching`): hits fork a cached
    /// prefix copy-on-write, so admission prefills only the suffix.
    registry: Option<PrefixRegistry>,
    /// Requests that have not arrived yet, in arrival order.
    trace: Peekable<vec::IntoIter<Request>>,
    /// Arrived and re-queued requests, sorted by arrival time (stable:
    /// ties keep submission order, re-queued requests re-enter by their
    /// original arrival).
    queue: Vec<QueuedRequest>,
    running: Vec<RunningRequest>,
    completions: Vec<Completion>,
    rejections: Vec<Rejection>,
    now: f64,
    peak_batch: usize,
    output_tokens: u64,
    preemptions: u64,
    comm_s: f64,
    /// (total ms, comm ms) per (`engine.step_cache_key(batch)`, context
    /// bucket). Fault-independent: degradation scales the pair after the
    /// lookup, so the key needs no fault epoch.
    step_cache: HashMap<(u64, u64), (f64, f64)>,
    cache_stats: StepCacheStats,
}

impl<'a> ReplicaSim<'a> {
    /// Sets up a run. Requests whose arrival time is not finite are
    /// rejected as [`RejectReason::InvalidRequest`] here, before the
    /// trace is sorted; the rest are served in arrival order.
    fn new(
        engine: &'a ServingEngine,
        policy: &'a dyn SchedulePolicy,
        max_batch: usize,
        mut arrivals: Vec<Request>,
        plan: &'a FaultPlan,
        retry: &'a RetryPolicy,
    ) -> Self {
        let mut rejections = Vec::new();
        arrivals.retain(|r| {
            let valid = r.arrival_s.is_finite();
            if !valid {
                rejections.push(Rejection {
                    id: r.id,
                    reason: RejectReason::InvalidRequest,
                });
            }
            valid
        });
        arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
        let stream = engine.chunked_prefill().then(|| StreamBooks {
            shards: engine.kv_shards(),
            chunk_cost: HashMap::new(),
            n_chunks: engine.cluster().pp().max(1),
        });
        let registry = engine
            .prefix_caching()
            .then(|| PrefixRegistry::new(engine.kv_shards(), policy.prefix_victim()));
        ReplicaSim {
            engine,
            policy,
            retry,
            max_batch,
            capacity: engine.kv_capacity_tokens(),
            events: plan.events(),
            next_event: 0,
            faults: FaultBooks {
                state: FaultState::new(engine.cluster().total_ranks()),
                rob: RobustnessStats::default(),
                victims_outstanding: HashSet::new(),
                recover_started: None,
            },
            stream,
            registry,
            trace: arrivals.into_iter().peekable(),
            queue: Vec::new(),
            running: Vec::new(),
            completions: Vec::new(),
            rejections,
            now: 0.0,
            peak_batch: 0,
            output_tokens: 0,
            preemptions: 0,
            comm_s: 0.0,
            step_cache: HashMap::new(),
            cache_stats: StepCacheStats::default(),
        }
    }

    /// One scheduler round: due faults, admission, prefill chunks, one
    /// decode step and retirement. `false` once every request resolved.
    fn round(&mut self) -> bool {
        if self.queue.is_empty() && self.trace.peek().is_none() && self.running.is_empty() {
            return false;
        }
        self.apply_due_faults();
        while self.admit_next() {}
        self.peak_batch = self.peak_batch.max(self.running.len());
        if !self.running.is_empty() {
            self.advance_prefill_chunks();
            self.decode_step();
        }
        true
    }

    /// Moves every request that has arrived by `now` from the trace into
    /// the queue. Arrivals are later than anything already queued, so
    /// appending keeps the queue sorted.
    fn pull_arrivals(&mut self) {
        while let Some(req) = self.trace.next_if(|r| r.arrival_s <= self.now) {
            self.queue.push(QueuedRequest::fresh(req));
        }
    }

    /// Re-inserts a preempted or fault-displaced request by its original
    /// arrival and returns its queue index. Arrivals due by `now` are
    /// pulled first, so a victim lands after every request that arrived
    /// at the same instant — exactly where the whole-trace order puts it.
    fn requeue(&mut self, back: QueuedRequest) -> usize {
        self.pull_arrivals();
        let pos = self
            .queue
            .partition_point(|p| p.req.arrival_s <= back.req.arrival_s);
        self.queue.insert(pos, back);
        pos
    }

    /// Records a typed rejection and releases whatever the request still
    /// holds in the prefix registry and the fault books.
    fn reject(&mut self, id: u64, reason: RejectReason) {
        self.rejections.push(Rejection { id, reason });
        if let Some(reg) = self.registry.as_mut() {
            reg.release(id);
        }
        self.faults.resolve_victim(id, self.now);
    }

    /// Applies every fault event due at or before `now` (plus link-window
    /// expiry). Called at the top of each round and after every time jump,
    /// so no event is skipped over. A no-op on an empty plan.
    fn apply_due_faults(&mut self) {
        let state = &mut self.faults.state;
        // Link windows expire by time, not by a plan event.
        if state.link_factor != 1.0 && self.now >= state.link_until {
            state.link_factor = 1.0;
        }
        while let Some(&ev) = self.events.get(self.next_event) {
            if ev.at_s > self.now {
                break;
            }
            self.next_event += 1;
            self.faults.rob.faults_injected += 1;
            match ev.kind {
                FaultKind::RankFail { rank } => self.fail_rank(rank),
                FaultKind::RankRepair { rank } => {
                    let rank = rank % self.faults.state.total_ranks;
                    if let Some(s) = self.stream.as_mut() {
                        s.shards.repair_rank(rank);
                    }
                    if let Some(reg) = self.registry.as_mut() {
                        reg.repair_rank(rank);
                    }
                    let state = &mut self.faults.state;
                    if state.dead.remove(&rank) && state.dead.is_empty() {
                        self.faults.rob.downtime_s += self.now - state.degraded_since;
                    }
                }
                FaultKind::LinkDegrade { factor, duration_s } => {
                    self.faults.state.link_factor = factor.max(1.0);
                    self.faults.state.link_until = self.now + duration_s;
                    self.faults.rob.link_degrades += 1;
                }
                FaultKind::KvStall { stall_s } => {
                    self.now += stall_s;
                    self.faults.rob.stall_s += stall_s;
                }
                FaultKind::CorruptFrame { frames } => {
                    // The entropy codecs' checksums surface corruption as a
                    // typed error before garbage reaches the ZipGEMM path;
                    // the recovery cost is one PCIe re-fetch per frame.
                    let penalty = frames as f64 * self.engine.frame_refetch_s();
                    self.now += penalty;
                    self.faults.rob.frame_corruptions += frames as u64;
                    self.faults.rob.refetch_s += penalty;
                }
            }
        }
    }

    /// A rank dies. KV shards mirror every sequence across all ranks, so
    /// one dead rank invalidates the whole batch's KV: every running
    /// request is victimized for recompute-prefill (bounded by the retry
    /// cap), never silently continued on garbage.
    fn fail_rank(&mut self, rank: usize) {
        let rank = rank % self.faults.state.total_ranks;
        if !self.faults.state.dead.insert(rank) {
            return; // already dead
        }
        if self.faults.state.dead.len() == 1 {
            self.faults.state.degraded_since = self.now;
        }
        self.faults.rob.rank_failures += 1;
        if let Some(s) = self.stream.as_mut() {
            s.shards.invalidate_rank(rank);
        }
        if let Some(reg) = self.registry.as_mut() {
            reg.invalidate_rank(rank);
        }
        for victim in std::mem::take(&mut self.running) {
            if let Some(s) = self.stream.as_mut() {
                s.unreserve(victim.req.id);
            }
            let retries = victim.retries + 1;
            if retries > self.retry.max_retries {
                self.reject(victim.req.id, RejectReason::RetriesExhausted);
                continue;
            }
            self.faults.rob.retries += 1;
            self.faults.victims_outstanding.insert(victim.req.id);
            self.requeue(QueuedRequest {
                req: victim.req,
                resume_generated: victim.generated,
                preemptions: victim.preemptions,
                first_admitted_s: Some(victim.first_admitted_s),
                first_token_s: victim.first_token_s,
                retries,
                not_before_s: self.now + self.retry.delay_s(retries),
            });
        }
        if !self.faults.victims_outstanding.is_empty() && self.faults.recover_started.is_none() {
            self.faults.recover_started = Some(self.now);
        }
    }

    /// One pass of the admission loop: lets the policy pick an arrived
    /// request and admits, rejects or holds it. `false` ends admission for
    /// this round.
    fn admit_next(&mut self) -> bool {
        self.pull_arrivals();
        if self.queue.is_empty() && self.running.is_empty() {
            // Idle: jump to the next arrival.
            let Some(next) = self.trace.peek() else {
                return false;
            };
            self.now = next.arrival_s;
            self.apply_due_faults();
            self.pull_arrivals();
        }
        if self.queue.is_empty() || self.running.len() >= self.max_batch {
            return false;
        }
        // Streaming admission is paced: at most one prefilling resident
        // per chunk slot. Without the cap the loop admits the whole queue
        // the moment it arrives (admission itself costs no time under
        // chunked prefill), and the eagerly-reserved KV of low-priority
        // residents blocks late interactive arrivals — the exact tail
        // chunked prefill is meant to cut. Held admissions stay queued,
        // where the policy keeps reordering them as chunks drain.
        if self.stream.is_some()
            && self.running.iter().filter(|f| f.is_prefilling()).count()
                >= self.engine.micro_batches().max(1) as usize
        {
            return false;
        }
        let Some(pick) = self.select() else {
            return self.on_hold();
        };
        assert!(
            pick < self.queue.len(),
            "policy selected an unarrived request"
        );
        let cand = self.queue[pick];

        // A request whose lifetime KV demand exceeds capacity can never
        // run: reject it up front, before it evicts innocent victims.
        // Judged against *full* capacity — a degraded deployment may
        // recover, so the verdict must not depend on the fault state.
        if lifetime_tokens(&cand.req).is_none_or(|t| t > self.capacity) {
            self.queue.remove(pick);
            self.reject(cand.req.id, RejectReason::Oversized);
            return true;
        }

        // SLO-aware brownout: while a rank is down, fresh best-effort
        // (Batch-class) arrivals are shed so the degraded capacity serves
        // SLO-carrying traffic; fault victims keep their retry path
        // regardless of class.
        if !self.faults.state.dead.is_empty()
            && cand.retries == 0
            && cand.req.priority == PriorityClass::Batch
        {
            self.rejections.push(Rejection {
                id: cand.req.id,
                reason: RejectReason::BrownoutShed,
            });
            self.faults.rob.shed += 1;
            self.queue.remove(pick);
            return true;
        }

        // Capacity re-planned around dead ranks (integer scaling; full
        // capacity — the same u64 — while every rank is alive).
        let cap = if self.faults.state.dead.is_empty() {
            self.capacity
        } else {
            self.faults.state.scaled_capacity(self.capacity)
        };

        // Preempt victims until the candidate fits or the policy (or the
        // per-request cap, as a backstop for custom policies that name a
        // pinned victim) refuses. Each eviction re-inserts the victim by
        // arrival, so the candidate's index is tracked through the
        // insertions rather than re-located.
        let mut cand_idx = pick;
        let mut evictions_left = self.running.len();
        let mut reserved = false;
        while !self.fits(&cand, cap, &mut reserved) && evictions_left > 0 {
            let Some(vi) = self.policy.victim(&cand, &self.running, self.now) else {
                break;
            };
            if self.running[vi].preemptions >= MAX_PREEMPTIONS {
                break;
            }
            if self.preempt(vi) <= cand_idx {
                cand_idx += 1;
            }
            evictions_left -= 1;
        }
        if !self.fits(&cand, cap, &mut reserved) {
            // A stranded reservation (scalar gate failed after the shards
            // accepted) must be handed back before the hold.
            if reserved {
                if let Some(s) = self.stream.as_mut() {
                    s.unreserve(cand.req.id);
                }
            }
            return self.lone_candidate_refused(cand_idx);
        }
        debug_assert_eq!(self.queue[cand_idx], cand, "candidate index tracked");
        self.admit(cand_idx);
        true
    }

    /// The policy's pick among the queued requests eligible now. Fault
    /// victims waiting out their retry backoff are invisible to the policy
    /// until `not_before_s`; when none is waiting, the policy sees the
    /// queue itself.
    fn select(&self) -> Option<usize> {
        let now = self.now;
        if self.queue.iter().all(|q| q.not_before_s <= now) {
            return self.policy.select(&self.queue, &self.running, now);
        }
        let eligible: Vec<usize> = (0..self.queue.len())
            .filter(|&i| self.queue[i].not_before_s <= now)
            .collect();
        let view: Vec<QueuedRequest> = eligible.iter().map(|&i| self.queue[i]).collect();
        self.policy.select(&view, &self.running, now).map(|vi| {
            assert!(vi < view.len(), "policy selected an unarrived request");
            eligible[vi]
        })
    }

    /// The policy held admission. A busy engine simply waits for the next
    /// round; an idle one jumps to whatever ends the hold first — the next
    /// arrival, the earliest backoff expiry, or the next fault event (a
    /// repair can end a brownout). With nothing left to wake it, the queue
    /// is shed with typed rejections instead of spinning forever.
    fn on_hold(&mut self) -> bool {
        if !self.running.is_empty() {
            return false;
        }
        let now = self.now;
        let next_arrival = self.trace.peek().map(|r| r.arrival_s);
        let backoff = self
            .queue
            .iter()
            .map(|p| p.not_before_s)
            .filter(|&t| t > now);
        let next_event = self.events.get(self.next_event).map(|e| e.at_s);
        let wake = next_arrival
            .into_iter()
            .chain(backoff)
            .chain(next_event)
            .reduce(f64::min);
        if let Some(t) = wake {
            self.now = now.max(t);
            self.apply_due_faults();
            return true;
        }
        for q in std::mem::take(&mut self.queue) {
            self.reject(q.req.id, RejectReason::PolicyHold);
        }
        false
    }

    /// Worst-case KV demand if `cand` joins the current batch, or `None`
    /// when the sum overflows.
    fn kv_demand(&self, cand: &QueuedRequest) -> Option<u64> {
        self.running
            .iter()
            .try_fold(lifetime_tokens(&cand.req)?, |sum, f| {
                sum.checked_add(lifetime_tokens(&f.req)?)
            })
    }

    /// Whether `cand` fits next to the running batch under capacity `cap`.
    /// Streaming mode adds a second gate behind the scalar one: the
    /// candidate's whole-lifetime KV must also reserve real pages on every
    /// alive rank. The reservation is sticky — once taken it is kept
    /// across further checks, and released only if the candidate
    /// ultimately fails to admit.
    fn fits(&mut self, cand: &QueuedRequest, cap: u64, reserved: &mut bool) -> bool {
        if self.kv_demand(cand).is_none_or(|d| d > cap) {
            return false;
        }
        match self.stream.as_mut() {
            Some(s) => {
                if !*reserved {
                    *reserved = s.try_reserve(cand);
                }
                *reserved
            }
            None => true,
        }
    }

    /// Evicts running request `vi` back into the queue and returns the
    /// queue index it landed at.
    fn preempt(&mut self, vi: usize) -> usize {
        let victim = self.running.remove(vi);
        if let Some(s) = self.stream.as_mut() {
            s.unreserve(victim.req.id);
        }
        self.preemptions += 1;
        // Page-out preemption pays the host-bound PCIe transfer at
        // eviction time — the victim's pages must land in host memory
        // before the candidate can take them, delaying the whole engine
        // *now*. The matching page-in is charged when the victim resumes
        // (pinned by `pageout_is_charged_at_both_ends`).
        if self.policy.preemption_mode() == PreemptionMode::PageOut {
            self.now += self.engine.kv_swap_s(victim.kv_tokens());
        }
        self.requeue(QueuedRequest {
            req: victim.req,
            resume_generated: victim.generated,
            preemptions: victim.preemptions + 1,
            first_admitted_s: Some(victim.first_admitted_s),
            first_token_s: victim.first_token_s,
            retries: victim.retries,
            not_before_s: 0.0,
        })
    }

    /// The candidate at `cand_idx` does not fit even after preemption.
    /// With residents running, admission holds until completions free KV
    /// (the candidate fits an empty batch, as oversized requests were
    /// rejected earlier). Alone on a degraded deployment, it waits for the
    /// next fault event (a repair restores capacity); with none left the
    /// capacity is gone for good — a typed rejection, not a stall.
    fn lone_candidate_refused(&mut self, cand_idx: usize) -> bool {
        if !self.running.is_empty() {
            return false;
        }
        if let Some(ev) = self.events.get(self.next_event) {
            self.now = self.now.max(ev.at_s);
            self.apply_due_faults();
            return true;
        }
        // A lone non-oversized candidate always fits a healthy deployment
        // (the scalar capacity is the min over per-rank shard capacities),
        // so this is unreachable without a dead rank.
        debug_assert!(
            !self.faults.state.dead.is_empty(),
            "lone candidate refused by a healthy deployment"
        );
        let q = self.queue.remove(cand_idx);
        self.reject(q.req.id, RejectReason::CapacityLost);
        true
    }

    /// Admits the queued request at `idx`: fresh requests pay prefill;
    /// resumed requests pay the policy's preferred KV recovery. Fault
    /// victims *always* recompute — the failed rank's shard is gone, so
    /// there is nothing to page back in.
    fn admit(&mut self, idx: usize) {
        let q = self.queue.remove(idx);
        self.faults.resolve_victim(q.req.id, self.now);
        // Prefix-cache lookup: a fresh prefill that declares a shared
        // prefix may fork the cached copy and prefill only the suffix.
        // Fault-retry recomputes stay full-price — the dead rank's KV
        // (cached prefixes included) is gone.
        let mut prefix_saved = 0u64;
        if let Some(reg) = self.registry.as_mut() {
            if q.resume_generated == 0 && q.retries == 0 {
                prefix_saved = reg.admit(
                    q.req.id,
                    q.req.prefix_hash,
                    q.req.prefix_len,
                    q.req.prompt_len,
                );
            }
        }
        let engine = self.engine;
        let mut cost = if q.retries > 0 {
            self.faults.rob.recomputed_tokens += q.kv_tokens_on_admit();
            engine.prefill_ms(1, q.kv_tokens_on_admit()) / 1e3
        } else if q.resume_generated == 0 {
            engine.prefill_ms(1, q.req.prompt_len.saturating_sub(prefix_saved).max(1)) / 1e3
        } else {
            match self.policy.preemption_mode() {
                PreemptionMode::Recompute => engine.prefill_ms(1, q.kv_tokens_on_admit()) / 1e3,
                // Page-in only: the outbound transfer was charged when
                // this request was evicted.
                PreemptionMode::PageOut => engine.kv_swap_s(q.kv_tokens_on_admit()),
            }
        };
        if !self.faults.state.dead.is_empty() {
            cost *= self.faults.state.compute_slowdown();
        }
        // Streaming mode defers a *fresh* prefill: instead of charging the
        // whole cost serially at admission, the request enters the batch
        // still prefilling and pays `cost / n_chunks` per chunk as chunks
        // ride the pipeline's micro-batch slots between decode steps.
        // Resumes (page-in, recompute) stay serial — they rebuild KV, they
        // don't stream the prompt through the stages. Classes opted out
        // via `EngineBuilder::whole_prefill_for` also stay serial.
        let mut chunks_left = 0u32;
        match self.stream.as_mut() {
            Some(s) if q.resume_generated == 0 && !engine.whole_prefill_for(q.req.priority) => {
                chunks_left = s.n_chunks;
                s.chunk_cost.insert(q.req.id, cost / f64::from(s.n_chunks));
            }
            _ => self.now += cost,
        }
        self.running.push(RunningRequest {
            req: q.req,
            admitted_s: self.now,
            generated: q.resume_generated,
            preemptions: q.preemptions,
            first_admitted_s: q.first_admitted_s.unwrap_or(self.now),
            first_token_s: q.first_token_s,
            retries: q.retries,
            prefill_chunks_left: chunks_left,
        });
    }

    /// Chunked prefill: between decode steps, up to `micro_batches`
    /// prefill chunks ride the pipeline's micro-batch slots, most urgent
    /// resident first (priority class, then earliest arrival). Chunk
    /// granularity is the TTFT win — an interactive prompt's chunks
    /// overtake a long batch prompt mid-prefill instead of queueing behind
    /// its whole prefill. A no-op on the whole-prefill path.
    fn advance_prefill_chunks(&mut self) {
        let Some(s) = self.stream.as_ref() else {
            return;
        };
        for _ in 0..self.engine.micro_batches().max(1) {
            let Some(next) = self
                .running
                .iter_mut()
                .filter(|f| f.is_prefilling())
                .max_by(|a, b| {
                    a.req
                        .priority
                        .rank()
                        .cmp(&b.req.priority.rank())
                        .then_with(|| {
                            b.req
                                .arrival_s
                                .partial_cmp(&a.req.arrival_s)
                                .expect("finite")
                        })
                        .then_with(|| b.req.id.cmp(&a.req.id))
                })
            else {
                break;
            };
            next.prefill_chunks_left -= 1;
            self.now += s
                .chunk_cost
                .get(&next.req.id)
                .copied()
                .expect("streaming resident has a chunk cost");
        }
    }

    /// One decode step for the batch's decode-ready subset (residents
    /// still mid-prefill occupy KV but don't decode yet), then retirement
    /// of every request that produced its last token.
    fn decode_step(&mut self) {
        let batch = self.running.iter().filter(|f| !f.is_prefilling()).count() as u64;
        if batch == 0 {
            // Whole batch still prefilling: chunks advanced time, so the
            // run makes progress without a decode step.
            return;
        }
        let mean_context: u64 = self
            .running
            .iter()
            .filter(|f| !f.is_prefilling())
            .map(|f| f.req.prompt_len + f.generated)
            .sum::<u64>()
            / batch;
        let bucket = (mean_context / 256).max(1) * 256;
        let key = (self.engine.step_cache_key(batch), bucket);
        if self.step_cache.contains_key(&key) {
            self.cache_stats.hits += 1;
        } else {
            self.cache_stats.misses += 1;
        }
        let engine = self.engine;
        let (ms, step_comm_ms) = *self
            .step_cache
            .entry(key)
            .or_insert_with(|| engine.step_cost_priced(key, batch, bucket));
        let state = &self.faults.state;
        if state.is_clean() {
            self.now += ms / 1e3;
            self.comm_s += step_comm_ms / 1e3;
        } else {
            // Survivors absorb the dead ranks' compute; the communication
            // share stretches by the degraded-link factor (same model as
            // `parallel::allreduce_us_degraded`).
            let slow = if state.dead.is_empty() {
                1.0
            } else {
                state.compute_slowdown()
            };
            let eff_ms = (ms - step_comm_ms) * slow + step_comm_ms * state.link_factor;
            self.now += eff_ms / 1e3;
            self.comm_s += step_comm_ms * state.link_factor / 1e3;
        }
        self.output_tokens += batch;

        let now = self.now;
        for f in self.running.iter_mut().filter(|f| !f.is_prefilling()) {
            f.generated += 1;
            if f.first_token_s.is_none() {
                f.first_token_s = Some(now);
            }
        }
        let (stream, registry) = (&mut self.stream, &mut self.registry);
        let completions = &mut self.completions;
        self.running.retain(|f| {
            if f.is_prefilling() || f.generated < f.req.output_len {
                return true;
            }
            if let Some(s) = stream.as_mut() {
                s.unreserve(f.req.id);
            }
            if let Some(reg) = registry.as_mut() {
                reg.release(f.req.id);
            }
            completions.push(complete(f, now));
            false
        });
    }

    /// Closes the books and builds the report. A run can end while
    /// degraded or with a recovery window still open (every victim
    /// rejected late in the run).
    fn finish(self) -> ScheduleReport {
        let mut rob = self.faults.rob;
        if !self.faults.state.dead.is_empty() {
            rob.downtime_s += self.now - self.faults.state.degraded_since;
        }
        if let Some(t0) = self.faults.recover_started {
            rob.time_to_recover_s += self.now - t0;
            rob.recoveries += 1;
        }
        ScheduleReport {
            completions: self.completions,
            duration_s: self.now,
            throughput_tps: throughput(self.output_tokens, self.now),
            peak_batch: self.peak_batch,
            comm_s: self.comm_s,
            preemptions: self.preemptions,
            rejected: self.rejections.iter().map(|r| r.id).collect(),
            rejections: self.rejections,
            robustness: rob,
            step_cache: self.cache_stats,
            prefix: self.registry.map(|r| r.stats()).unwrap_or_default(),
            policy: self.policy.name().to_string(),
        }
    }
}

/// A request in flight (reference loop only).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: Request,
    admitted_s: f64,
    generated: u64,
    first_token_s: Option<f64>,
}

/// The frozen pre-trait FCFS continuous-batching loop, kept verbatim as
/// the regression oracle for [`run_policy`]'s bit-compatibility proptest.
/// It predates preemption, faults, comm accounting, chunked prefill and
/// prefix caching. Not for new code — use [`run_policy`] or
/// [`ServingEngine::serve_online`].
pub fn run_reference(
    engine: &ServingEngine,
    max_batch: usize,
    mut arrivals: Vec<Request>,
) -> ScheduleReport {
    arrivals.sort_by(|a, b| a.arrival_s.partial_cmp(&b.arrival_s).expect("finite"));
    let capacity = engine.kv_capacity_tokens();
    let mut queue: VecDeque<Request> = arrivals.iter().copied().collect();
    let mut running: Vec<InFlight> = Vec::new();
    let mut completions = Vec::new();
    let mut now = 0.0f64;
    let mut peak_batch = 0usize;
    let mut output_tokens = 0u64;

    // Cache step times: keyed by (batch, context bucket). The raw-batch
    // key is part of the frozen arithmetic; on the single-stage engines
    // this oracle is compared on, it coincides with
    // `ServingEngine::step_cache_key`, so the hit/miss counters stay
    // bit-compatible with the generic loop's.
    let mut step_cache: HashMap<(u64, u64), f64> = HashMap::new();
    let mut cache_stats = StepCacheStats::default();

    while !queue.is_empty() || !running.is_empty() {
        // Admit while capacity and the batch cap allow.
        while let Some(next) = queue.front() {
            if next.arrival_s > now && running.is_empty() {
                // Idle: jump to the next arrival.
                now = next.arrival_s;
            }
            if next.arrival_s > now || running.len() >= max_batch {
                break;
            }
            let demand: u64 = running
                .iter()
                .map(|f| f.req.prompt_len + f.req.output_len)
                .sum::<u64>()
                + next.prompt_len
                + next.output_len;
            if demand > capacity {
                break;
            }
            let req = queue.pop_front().expect("checked front");
            now += engine.prefill_ms(1, req.prompt_len) / 1e3;
            running.push(InFlight {
                req,
                admitted_s: now,
                generated: 0,
                first_token_s: None,
            });
        }
        peak_batch = peak_batch.max(running.len());
        if running.is_empty() {
            continue;
        }

        // One decode step for the whole batch.
        let batch = running.len() as u64;
        let mean_context: u64 = running
            .iter()
            .map(|f| f.req.prompt_len + f.generated)
            .sum::<u64>()
            / batch;
        let bucket = (mean_context / 256).max(1) * 256;
        if step_cache.contains_key(&(batch, bucket)) {
            cache_stats.hits += 1;
        } else {
            cache_stats.misses += 1;
        }
        let ms = *step_cache
            .entry((batch, bucket))
            .or_insert_with(|| engine.decode_step(batch, bucket).total_ms());
        now += ms / 1e3;
        output_tokens += batch;

        // Advance and retire.
        for f in running.iter_mut() {
            f.generated += 1;
            if f.first_token_s.is_none() {
                f.first_token_s = Some(now);
            }
        }
        running.retain(|f| {
            if f.generated >= f.req.output_len {
                let view = RunningRequest {
                    req: f.req,
                    admitted_s: f.admitted_s,
                    generated: f.generated,
                    preemptions: 0,
                    first_admitted_s: f.admitted_s,
                    first_token_s: f.first_token_s,
                    retries: 0,
                    prefill_chunks_left: 0,
                };
                completions.push(complete(&view, now));
                false
            } else {
                true
            }
        });
    }

    ScheduleReport {
        completions,
        duration_s: now,
        throughput_tps: throughput(output_tokens, now),
        peak_batch,
        comm_s: 0.0,
        preemptions: 0,
        rejected: Vec::new(),
        rejections: Vec::new(),
        robustness: RobustnessStats::default(),
        step_cache: cache_stats,
        prefix: PrefixStats::default(),
        policy: Fcfs.name().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::GpuCluster;
    use crate::engine::EngineKind;
    use crate::policy::{PreemptiveSjf, Priority, SloEdf};
    use zipserv_gpu_sim::device::Gpu;
    use zipserv_kernels::shapes::LlmModel;

    fn engine(kind: EngineKind) -> ServingEngine {
        ServingEngine::builder()
            .kind(kind)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .build()
    }

    #[test]
    fn arrivals_are_sorted_and_rate_scaled() {
        let a = poisson_arrivals(2.0, 200, 128, 64, 9);
        assert_eq!(a.len(), 200);
        for w in a.windows(2) {
            assert!(w[1].arrival_s >= w[0].arrival_s);
        }
        // Mean inter-arrival ~ 1/rate.
        let span = a.last().expect("non-empty").arrival_s;
        assert!((span / 200.0 - 0.5).abs() < 0.15, "span {span}");
    }

    #[test]
    fn all_requests_complete() {
        let zip = engine(EngineKind::ZipServ);
        let report = zip.serve_online(poisson_arrivals(4.0, 40, 128, 32, 3));
        assert_eq!(report.completions.len(), 40);
        assert!(report.peak_batch >= 2, "batching should occur");
        assert!(report.throughput_tps > 0.0);
        assert_eq!(report.policy, "fcfs");
        assert_eq!(report.preemptions, 0);
        assert!(report.rejected.is_empty());
    }

    #[test]
    fn percentiles_are_ordered() {
        let zip = engine(EngineKind::ZipServ);
        let report = zip.serve_online(poisson_arrivals(6.0, 60, 128, 32, 5));
        let p50 = report.latency_percentile(0.5).expect("has completions");
        let p95 = report.latency_percentile(0.95).expect("has completions");
        assert!(p50 <= p95);
        assert!(p50 > 0.0);
        let t50 = report.ttft_percentile(0.5).expect("has completions");
        assert!(t50 <= p50, "first token no later than last");
    }

    #[test]
    fn empty_report_yields_none_not_panic() {
        let report = run_policy(&engine(EngineKind::ZipServ), &Fcfs, 64, Vec::new());
        assert_eq!(report.latency_percentile(0.99), None);
        assert_eq!(report.ttft_percentile(0.5), None);
        assert_eq!(report.mean_queue_s(), None);
        assert_eq!(report.slo_attainment(), None);
        assert_eq!(
            report.class_latency_percentile(PriorityClass::Batch, 0.5),
            None
        );
        assert!(report.per_class().is_empty());
        // Degenerate-duration guards for the robustness views.
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.goodput_tps(), 0.0);
        assert!(report.rejected_for(RejectReason::Oversized).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile in [0,1]")]
    fn out_of_range_percentile_still_panics() {
        let zip = engine(EngineKind::ZipServ);
        let report = zip.serve_online(poisson_arrivals(4.0, 5, 64, 8, 3));
        let _ = report.latency_percentile(1.5);
    }

    #[test]
    fn zipserv_sustains_load_better_than_vllm() {
        // At a load that stresses KV capacity, the compressed engine admits
        // more concurrent sequences and queues less.
        let arrivals = poisson_arrivals(8.0, 60, 1024, 256, 11);
        let zip = engine(EngineKind::ZipServ);
        let vllm = engine(EngineKind::Vllm);
        let rz = zip.serve_online(arrivals.clone());
        let rv = vllm.serve_online(arrivals);
        assert!(
            rz.throughput_tps > rv.throughput_tps,
            "{} vs {}",
            rz.throughput_tps,
            rv.throughput_tps
        );
        assert!(
            rz.latency_percentile(0.95).expect("completions")
                < rv.latency_percentile(0.95).expect("completions")
        );
    }

    #[test]
    fn light_load_has_no_queueing() {
        let zip = engine(EngineKind::ZipServ);
        let report = zip.serve_online(poisson_arrivals(0.05, 5, 64, 16, 2));
        let q = report.mean_queue_s().expect("completions");
        assert!(q < 0.2, "queue {q}");
    }

    #[test]
    fn run_matches_reference_on_a_smoke_trace() {
        // The full randomized bit-compat check lives in the
        // `schedule_policies` integration suite; this is the fast smoke.
        let zip = engine(EngineKind::ZipServ);
        let arrivals = poisson_arrivals(6.0, 30, 512, 64, 13);
        assert_eq!(
            run_policy(&zip, &Fcfs, 64, arrivals.clone()),
            run_reference(&zip, 64, arrivals)
        );
    }

    #[test]
    fn run_matches_reference_on_tied_arrivals() {
        // Equal arrival times with out-of-order ids: both loops must keep
        // the stable submission order (legacy sorts stably; Fcfs picks the
        // queue head), so reports match even on ties.
        let zip = engine(EngineKind::ZipServ);
        let arrivals = vec![
            Request::new(5, 1.0, 256, 16),
            Request::new(2, 1.0, 128, 32),
            Request::new(9, 0.5, 64, 8),
            Request::new(1, 1.0, 512, 24),
        ];
        assert_eq!(
            run_policy(&zip, &Fcfs, 64, arrivals.clone()),
            run_reference(&zip, 64, arrivals)
        );
    }

    #[test]
    fn oversized_request_is_rejected_not_looped() {
        let zip = engine(EngineKind::ZipServ);
        let capacity = zip.kv_capacity_tokens();
        let mut arrivals = poisson_arrivals(4.0, 5, 64, 8, 3);
        arrivals.push(Request::new(99, 0.5, capacity + 1, 1));
        let report = run_policy(&zip, &Fcfs, 64, arrivals);
        assert_eq!(report.rejected, vec![99]);
        assert_eq!(report.completions.len(), 5);
    }

    #[test]
    fn oversized_request_never_evicts_victims() {
        // Under a preemptive policy, a request that can never fit must be
        // rejected up front instead of draining the running batch first.
        let zip = engine(EngineKind::ZipServ);
        let capacity = zip.kv_capacity_tokens();
        let mut arrivals = poisson_arrivals(4.0, 8, 512, 256, 7);
        // output_len 1 makes it the shortest job, so SJF selects it eagerly.
        arrivals.push(Request::new(99, 0.5, capacity + 1, 1));
        let report = run_policy(&zip, &PreemptiveSjf::default(), 64, arrivals);
        assert_eq!(report.rejected, vec![99]);
        assert_eq!(report.completions.len(), 8);
        assert_eq!(report.preemptions, 0, "no victims for a hopeless candidate");
    }

    #[test]
    fn all_policies_complete_every_request() {
        let zip = engine(EngineKind::ZipServ);
        let arrivals: Vec<Request> = poisson_arrivals(8.0, 40, 512, 64, 21)
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                let class = PriorityClass::ALL[i % 3];
                r.with_priority(class).with_slo(Slo::new(4.0, 0.25))
            })
            .collect();
        let policies: Vec<Box<dyn SchedulePolicy>> = vec![
            Box::new(Fcfs),
            Box::new(Priority::default()),
            Box::new(SloEdf::default()),
            Box::new(PreemptiveSjf::default()),
            Box::new(PreemptiveSjf {
                mode: PreemptionMode::PageOut,
            }),
        ];
        for p in &policies {
            let report = run_policy(&zip, p.as_ref(), 64, arrivals.clone());
            assert_eq!(report.completions.len(), 40, "{}", p.name());
            assert!(report.rejected.is_empty(), "{}", p.name());
            assert!(report.slo_attainment().is_some(), "{}", p.name());
            // Every completion accounts its preemptions within the cap + 1
            // final admission.
            for c in &report.completions {
                assert!(c.preemptions <= MAX_PREEMPTIONS, "{}", p.name());
                assert!(c.ttft_s > 0.0 && c.ttft_s <= c.latency_s, "{}", p.name());
            }
        }
    }
}
