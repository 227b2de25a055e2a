//! The serving simulator, timed on the host: `serve.workload` builds and
//! round-trips the trace, `serve.engine` builds the deployments, and
//! `serve.scheduler` (through `ServingEngine::serve_online`) or
//! `serve.fleet` (through `FleetRouter::run`) simulates it.
//!
//! Only host time is performance here. The simulated outcomes (latencies,
//! throughput, rejections) are model claims; the benchmark pins them with a
//! digest so that a simulator-speed change can show it left them alone.

use crate::cpus::Rotation;
use crate::report::{median, Fnv, Report};
use crate::wrap::{PolicySpans, Span, TimedPolicy, TimedRoute};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::fault::Rejection;
use zipserv_serve::fleet::{FleetReport, FleetRouter, PowerOfTwoChoices, RoutePolicy};
use zipserv_serve::policy::{Fcfs, Priority, SchedulePolicy};
use zipserv_serve::scheduler::{Request, ScheduleReport};
use zipserv_serve::workload::{ArrivalMix, Trace};

/// Replicas of the fleet shape.
const REPLICAS: usize = 4;

/// Which deployment a simulator workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `paper_mix`, one ZipServ LLaMA3.1-8B replica on an RTX 4090, FCFS,
    /// no prefix caching, no faults, driven by `serve_online`.
    Replica,
    /// `multi_tenant_mix` across four ZipServ TP2-L40S replicas with
    /// power-of-two-choices routing, priority scheduling, prefix caching
    /// and a seeded fault plan per replica, driven by `FleetRouter::run`.
    Fleet,
}

/// A simulator workload: shape, trace length and offered rate.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// The deployment.
    pub shape: Shape,
    /// Requests offered per simulation.
    pub requests: usize,
    /// Offered rate, requests per simulated second.
    pub rate: f64,
}

impl SimSpec {
    /// `sim_replica_long`: a trace long enough that the scheduler's cost
    /// in trace length dominates.
    pub fn replica_long(tiny: bool) -> Self {
        SimSpec {
            shape: Shape::Replica,
            requests: if tiny { 400 } else { 32_000 },
            rate: 1.2,
        }
    }

    /// `sim_fleet_tenants`: a rate the modeled fleet keeps up with outside
    /// its fault windows.
    pub fn fleet_tenants(tiny: bool) -> Self {
        SimSpec {
            shape: Shape::Fleet,
            requests: if tiny { 400 } else { 32_000 },
            rate: 3.0,
        }
    }

    /// The short replica trace `tinyllm_generate` times alongside the
    /// model, so that every workload reports every metric.
    pub fn companion(tiny: bool) -> Self {
        SimSpec {
            shape: Shape::Replica,
            requests: if tiny { 200 } else { 2_000 },
            rate: 1.2,
        }
    }

    fn mix(&self) -> ArrivalMix {
        match self.shape {
            Shape::Replica => ArrivalMix::paper_mix(),
            Shape::Fleet => ArrivalMix::multi_tenant_mix(),
        }
    }

    fn policy(&self) -> Box<dyn SchedulePolicy> {
        match self.shape {
            Shape::Replica => Box::new(Fcfs),
            Shape::Fleet => Box::new(Priority::default()),
        }
    }

    /// Builds the deployment's engines; `spans` wraps their policy.
    fn engines(
        &self,
        seed: u64,
        horizon_s: f64,
        spans: Option<&Arc<PolicySpans>>,
    ) -> Vec<ServingEngine> {
        let policy = || match spans {
            Some(s) => Box::new(TimedPolicy::new(self.policy(), Arc::clone(s))) as Box<_>,
            None => self.policy(),
        };
        let builder = || {
            ServingEngine::builder()
                .kind(EngineKind::ZipServ)
                .model(LlmModel::Llama31_8b)
                .policy_box(policy())
        };
        match self.shape {
            Shape::Replica => vec![builder().cluster(GpuCluster::single(Gpu::Rtx4090)).build()],
            Shape::Fleet => (0..REPLICAS as u64)
                .map(|i| {
                    let cluster = GpuCluster::tensor_parallel(Gpu::L40s, 2);
                    let plan = zipserv_serve::FaultPlan::seeded(
                        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i),
                        horizon_s,
                        cluster.total_ranks(),
                    );
                    builder()
                        .cluster(cluster)
                        .prefix_caching(true)
                        .fault_plan(plan)
                        .build()
                })
                .collect(),
        }
    }
}

/// A deployment ready to simulate, with the time each set-up phase took.
struct Prepared {
    arrivals: Vec<Request>,
    horizon_s: f64,
    target: Target,
    generate: Duration,
    record: Duration,
    replay: Duration,
    build: Duration,
    /// Whether the replayed trace equals the generated one.
    lossless: bool,
}

enum Target {
    Replica(ServingEngine),
    Fleet(FleetRouter),
}

/// The simulated outcome.
enum Outcome {
    Replica(ScheduleReport),
    Fleet(FleetReport),
}

impl Outcome {
    fn reports(&self) -> Vec<&ScheduleReport> {
        match self {
            Outcome::Replica(r) => vec![r],
            Outcome::Fleet(f) => f.per_replica.iter().collect(),
        }
    }

    fn router_rejections(&self) -> &[Rejection] {
        match self {
            Outcome::Replica(_) => &[],
            Outcome::Fleet(f) => &f.rejections,
        }
    }

    fn completed(&self) -> usize {
        self.reports().iter().map(|r| r.completions.len()).sum()
    }

    fn rejected(&self) -> usize {
        self.router_rejections().len()
            + self
                .reports()
                .iter()
                .map(|r| r.rejections.len())
                .sum::<usize>()
    }

    fn ttft_p99_s(&self) -> f64 {
        match self {
            Outcome::Replica(r) => r.ttft_percentile(0.99),
            Outcome::Fleet(f) => f.ttft_percentile(0.99),
        }
        .unwrap_or(0.0)
    }

    fn throughput_tps(&self) -> f64 {
        match self {
            Outcome::Replica(r) => r.throughput_tps,
            Outcome::Fleet(f) => f.throughput_tps(),
        }
    }

    fn availability(&self) -> f64 {
        match self {
            Outcome::Replica(r) => r.availability(),
            Outcome::Fleet(f) => f.availability(),
        }
    }

    /// Pins every modeled outcome; the step-cache counters are left out
    /// because they describe the simulator's work, not the model.
    fn digest(&self) -> u32 {
        let mut h = Fnv::default();
        let name = |h: &mut Fnv, s: &str| s.bytes().for_each(|b| h.word(u64::from(b)));
        for r in self.reports() {
            for c in &r.completions {
                for w in [
                    c.id,
                    c.queue_s.to_bits(),
                    c.latency_s.to_bits(),
                    c.ttft_s.to_bits(),
                    u64::from(c.preemptions),
                    u64::from(c.retries),
                    c.output_len,
                ] {
                    h.word(w);
                }
            }
            for j in &r.rejections {
                h.word(j.id);
                name(&mut h, j.reason.name());
            }
            let p = &r.prefix;
            let rb = &r.robustness;
            for w in [
                r.duration_s.to_bits(),
                r.throughput_tps.to_bits(),
                r.comm_s.to_bits(),
                r.preemptions,
                r.peak_batch as u64,
                p.lookups,
                p.hits,
                p.evictions,
                p.tokens_saved,
                p.pages_shared,
                rb.retries,
                rb.recomputed_tokens,
                rb.shed,
                rb.downtime_s.to_bits(),
            ] {
                h.word(w);
            }
        }
        for j in self.router_rejections() {
            h.word(j.id);
            name(&mut h, j.reason.name());
        }
        h.fold32()
    }
}

/// Builds the trace and the deployment, timing each phase.
fn prepare(
    spec: &SimSpec,
    seed: u64,
    spans: Option<&Arc<PolicySpans>>,
    route: Option<&Arc<Span>>,
) -> Prepared {
    let t = Instant::now();
    let generated = spec.mix().generate(spec.rate, spec.requests, seed);
    let generate = t.elapsed();
    let t = Instant::now();
    let text = Trace::record(&generated);
    let record = t.elapsed();
    let t = Instant::now();
    let replayed = Trace::replay(&text);
    let replay = t.elapsed();
    let lossless = replayed.as_ref().is_ok_and(|r| *r == generated);
    let arrivals = replayed.unwrap_or(generated);
    let horizon_s = arrivals.last().map_or(1.0, |r| r.arrival_s.max(1.0));

    let t = Instant::now();
    let mut engines = spec.engines(seed, horizon_s, spans);
    let target = match spec.shape {
        Shape::Replica => Target::Replica(engines.remove(0)),
        Shape::Fleet => {
            let p2c: Box<dyn RoutePolicy> = Box::new(PowerOfTwoChoices::new(seed));
            let policy = match route {
                Some(span) => Box::new(TimedRoute::new(p2c, Arc::clone(span))),
                None => p2c,
            };
            let router = engines
                .into_iter()
                .fold(FleetRouter::new_boxed(policy), FleetRouter::with_replica);
            Target::Fleet(router)
        }
    };
    let build = t.elapsed();
    Prepared {
        arrivals,
        horizon_s,
        target,
        generate,
        record,
        replay,
        build,
        lossless,
    }
}

impl Prepared {
    fn setup(&self) -> Duration {
        self.generate + self.record + self.replay + self.build
    }

    /// Simulates the trace; returns the outcome, the offered requests and
    /// the host time of the `serve_online` / `FleetRouter::run` call.
    fn simulate(self) -> (Outcome, Vec<Request>, Duration) {
        let offered = self.arrivals.clone();
        let (out, dt) = match self.target {
            Target::Replica(engine) => {
                let t = Instant::now();
                let r = engine.serve_online(self.arrivals);
                (Outcome::Replica(r), t.elapsed())
            }
            Target::Fleet(router) => {
                let t = Instant::now();
                let r = router.run(self.arrivals);
                (Outcome::Fleet(r), t.elapsed())
            }
        };
        (std::hint::black_box(out), offered, dt)
    }
}

/// Checks that every offered id completed exactly once or got exactly one
/// typed rejection, that nothing else came back, and that every float in
/// the reports is finite. Returns `(checks, failures)`.
fn validate(offered: &[Request], out: &Outcome) -> (u64, u64) {
    let mut seen: HashMap<u64, (u32, bool)> = offered.iter().map(|r| (r.id, (0, true))).collect();
    let mut failed = 0u64;
    let mut checks = offered.len() as u64;
    for r in out.reports() {
        for c in &r.completions {
            let finite = [c.queue_s, c.latency_s, c.ttft_s]
                .iter()
                .all(|x| x.is_finite());
            match seen.get_mut(&c.id) {
                Some(e) => *e = (e.0 + 1, e.1 && finite),
                None => failed += 1,
            }
        }
        for j in &r.rejections {
            match seen.get_mut(&j.id) {
                Some(e) => e.0 += 1,
                None => failed += 1,
            }
        }
        let rb = &r.robustness;
        let floats = [
            r.duration_s,
            r.throughput_tps,
            r.comm_s,
            rb.stall_s,
            rb.refetch_s,
            rb.downtime_s,
            rb.time_to_recover_s,
        ];
        checks += 1;
        failed += u64::from(!floats.iter().all(|x| x.is_finite()));
    }
    for j in out.router_rejections() {
        match seen.get_mut(&j.id) {
            Some(e) => e.0 += 1,
            None => failed += 1,
        }
    }
    failed += seen
        .values()
        .filter(|(n, finite)| *n != 1 || !finite)
        .count() as u64;
    (checks, failed)
}

/// The smallest sample.
fn best(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Runs `f` until `budget` has passed and it ran at least `min_reps` times.
fn repeat(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> usize {
    let start = Instant::now();
    let mut reps = 0;
    while reps < min_reps || start.elapsed() < budget {
        f();
        reps += 1;
    }
    reps
}

/// The untraced end-to-end pass: repeated simulations of the same trace.
/// `setup_s` is their median set-up time and `sim_us_per_req` their best
/// simulation time, which filters out stalls that other tenants of the
/// machine cause. Each repetition builds its deployment afresh: engine
/// clones share the step memo, so reusing one would time a warm memo.
pub struct SimRun {
    spec: SimSpec,
    seed: u64,
    min_reps: usize,
    setup_s: Vec<f64>,
    us_per_req: Vec<f64>,
    digest: Option<u32>,
    /// Requests offered, completed, rejected with a typed reason, and
    /// failed (lost, duplicated or non-finite), over all repetitions.
    tally: [u64; 4],
    cpus: Rotation,
}

impl SimRun {
    /// A run of `spec`'s trace drawn from `seed`, enough after `min_reps`
    /// simulations.
    pub fn new(spec: SimSpec, seed: u64, min_reps: usize) -> Self {
        SimRun {
            spec,
            seed,
            min_reps,
            setup_s: Vec::new(),
            us_per_req: Vec::new(),
            digest: None,
            tally: [0; 4],
            cpus: Rotation::default(),
        }
    }

    /// Simulations done.
    pub fn reps(&self) -> usize {
        self.us_per_req.len()
    }

    /// `(setup_s, sim_us_per_req)`.
    pub fn finish(&self, report: &mut Report) -> (f64, f64) {
        let [offered, completed, rejected, failed] = self.tally;
        report.note(format!(
            "simulator: {} requests offered per run at {} req/s, {} runs; {offered} sent, \
             {} succeeded ({completed} completed, {rejected} rejected by the model), {failed} failed",
            self.spec.requests,
            self.spec.rate,
            self.reps(),
            offered - failed,
        ));
        (median(&self.setup_s), best(&self.us_per_req))
    }
}

impl crate::Unit for SimRun {
    /// Sets up and simulates the trace once, checking the outcome.
    fn step(&mut self, report: &mut Report) {
        let p = prepare(&self.spec, self.seed, None, None);
        report.check(p.lossless, "trace record/replay round trip is lossless");
        self.setup_s.push(p.setup().as_secs_f64());
        let (out, offered, dt) = self.cpus.pinned(|| p.simulate());
        self.us_per_req
            .push(dt.as_secs_f64() * 1e6 / offered.len() as f64);
        let (checks, failed) = validate(&offered, &out);
        report.tally(
            checks,
            failed,
            "each offered id completes or is rejected exactly once",
        );
        for (t, n) in self.tally.iter_mut().zip([
            offered.len() as u64,
            out.completed() as u64,
            out.rejected() as u64,
            failed,
        ]) {
            *t += n;
        }
        let d = out.digest();
        report.check(
            *self.digest.get_or_insert(d) == d,
            "repeated simulations agree",
        );
    }

    fn enough(&self) -> bool {
        self.reps() >= self.min_reps
    }
}

/// Per-repetition samples of the traced pass.
#[derive(Default)]
struct LayerSamples {
    generate_ms: Vec<f64>,
    record_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    build_ms: Vec<f64>,
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    select_ms: Vec<f64>,
    victim_ms: Vec<f64>,
    route_ms: Vec<f64>,
    scheduler_s: Vec<f64>,
    scheduler_self_s: Vec<f64>,
    fleet_s: Vec<f64>,
    replica_sim_s: Vec<f64>,
}

/// The traced pass: every `serve.*` layer metric, the tracing overhead
/// (traced minus untraced `sim_us_per_req`) and the modeled outcomes.
pub fn layers(spec: &SimSpec, seed: u64, budget: Duration, min_reps: usize, report: &mut Report) {
    let mut s = LayerSamples::default();
    let mut last = None;
    repeat(budget, min_reps, || {
        let p = prepare(spec, seed, None, None);
        s.generate_ms.push(p.generate.as_secs_f64() * 1e3);
        s.record_ms.push(p.record.as_secs_f64() * 1e3);
        s.replay_ms.push(p.replay.as_secs_f64() * 1e3);
        s.build_ms.push(p.build.as_secs_f64() * 1e3);
        let (plain, offered, dt) = p.simulate();
        s.untraced_us
            .push(dt.as_secs_f64() * 1e6 / offered.len() as f64);

        let spans = Arc::new(PolicySpans::default());
        let route = Arc::new(Span::default());
        let p = prepare(spec, seed, Some(&spans), Some(&route));
        let horizon_s = p.horizon_s;
        let (traced, offered, dt) = p.simulate();
        s.traced_us
            .push(dt.as_secs_f64() * 1e6 / offered.len() as f64);
        report.check(
            traced.digest() == plain.digest(),
            "traced and untraced simulations have the same digest",
        );
        let (checks, failed) = validate(&offered, &traced);
        report.tally(
            checks,
            failed,
            "each offered id completes or is rejected exactly once",
        );
        s.select_ms.push(spans.select.ms());
        s.victim_ms.push(spans.victim.ms());
        s.route_ms.push(route.ms());

        match &traced {
            Outcome::Replica(_) => {
                s.scheduler_s.push(dt.as_secs_f64());
                s.scheduler_self_s
                    .push(dt.as_secs_f64() - (spans.select.ms() + spans.victim.ms()) / 1e3);
            }
            Outcome::Fleet(fleet) => {
                // Re-run each replica's share of the trace on fresh
                // engines: the router's own cost is what remains.
                let rerun_spans = Arc::new(PolicySpans::default());
                let engines = spec.engines(seed, horizon_s, Some(&rerun_spans));
                let mut replica_s = 0.0;
                for (engine, part) in engines.iter().zip(&fleet.per_replica) {
                    let ids: std::collections::HashSet<u64> = part
                        .completions
                        .iter()
                        .map(|c| c.id)
                        .chain(part.rejections.iter().map(|j| j.id))
                        .collect();
                    let share: Vec<Request> = offered
                        .iter()
                        .filter(|r| ids.contains(&r.id))
                        .cloned()
                        .collect();
                    let t = Instant::now();
                    let alone = engine.serve_online(share);
                    replica_s += t.elapsed().as_secs_f64();
                    report.check(
                        alone == *part,
                        "a replica's share re-run alone reproduces its fleet report",
                    );
                }
                let policy_s = (rerun_spans.select.ms() + rerun_spans.victim.ms()) / 1e3;
                s.scheduler_s.push(replica_s);
                s.scheduler_self_s.push(replica_s - policy_s);
                s.fleet_s.push(dt.as_secs_f64());
                s.replica_sim_s.push(replica_s);
            }
        }
        last = Some((traced, spans, route));
    });
    let Some((out, spans, route)) = last else {
        return;
    };

    report.put("workload.generate_ms", median(&s.generate_ms), "ms");
    report.put("trace.record_ms", median(&s.record_ms), "ms");
    report.put("trace.replay_ms", median(&s.replay_ms), "ms");
    report.put("engine.build_ms", median(&s.build_ms), "ms");
    let engine = spec.engines(seed, 1.0, None).remove(0);
    for batch in [1u64, 16, 64] {
        for context in [512u64, 4096] {
            let mut samples = Vec::with_capacity(200);
            for _ in 0..200 {
                let t = Instant::now();
                std::hint::black_box(
                    engine.decode_step(std::hint::black_box(batch), std::hint::black_box(context)),
                );
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
            report.put(
                format!("engine.decode_step_us.b{batch}.c{context}"),
                median(&samples),
                "us",
            );
        }
    }
    let reports = out.reports();
    let (hits, misses) = reports.iter().fold((0, 0), |(h, m), r| {
        (h + r.step_cache.hits, m + r.step_cache.misses)
    });
    report.put("engine.step_cache_misses", misses as f64, "count");
    let lookups = (hits + misses).max(1);
    report.put(
        "engine.step_cache_hit_rate",
        hits as f64 / lookups as f64,
        "ratio",
    );

    report.put("policy.select_calls", spans.select.calls() as f64, "count");
    report.put("policy.select_ms", median(&s.select_ms), "ms");
    report.put("policy.victim_calls", spans.victim.calls() as f64, "count");
    report.put("policy.victim_ms", median(&s.victim_ms), "ms");
    report.put("scheduler.run_s", median(&s.scheduler_s), "s");
    report.put("scheduler.self_s", median(&s.scheduler_self_s), "s");

    report.put("router.route_calls", route.calls() as f64, "count");
    report.put("router.route_ms", median(&s.route_ms), "ms");
    let fleet_s = median(&s.fleet_s);
    let replica_sim_s = median(&s.replica_sim_s);
    report.put("fleet.run_s", fleet_s, "s");
    report.put("fleet.replica_sim_s", replica_sim_s, "s");
    report.put("fleet.overhead_s", fleet_s - replica_sim_s, "s");

    let mut prefix = zipserv_serve::PrefixStats::default();
    let (mut retries, mut recomputed) = (0, 0);
    for r in &reports {
        prefix.merge(&r.prefix);
        retries += r.robustness.retries;
        recomputed += r.robustness.recomputed_tokens;
    }
    report.put("kvcache.prefix_hit_rate", prefix.hit_rate(), "ratio");
    report.put("kvcache.tokens_saved", prefix.tokens_saved as f64, "count");
    report.put("kvcache.pages_shared", prefix.pages_shared as f64, "count");
    report.put("kvcache.evictions", prefix.evictions as f64, "count");
    report.put("fault.retries", retries as f64, "count");
    report.put("fault.recomputed_tokens", recomputed as f64, "count");
    report.put("fault.availability", out.availability(), "ratio");

    report.put("model.completed", out.completed() as f64, "count");
    report.put("model.rejected", out.rejected() as f64, "count");
    let preemptions: u64 = reports.iter().map(|r| r.preemptions).sum();
    report.put("model.preemptions", preemptions as f64, "count");
    report.put("model.ttft_p99_s", out.ttft_p99_s(), "s");
    report.put("model.throughput_tps", out.throughput_tps(), "tok/s");
    report.put("model.digest", f64::from(out.digest()), "fnv32");
    // Best against best, as `sim_us_per_req` is reported.
    report.put(
        "tracing.overhead_us_per_req",
        best(&s.traced_us) - best(&s.untraced_us),
        "us",
    );
}
