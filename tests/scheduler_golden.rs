//! Golden digests of full scheduler reports.
//!
//! The other bit-compatibility pins cover one path each (whole prefill,
//! caching off, a one-replica fleet, an empty fault plan) or compare two
//! paths with each other. This suite pins the absolute reports of every
//! combination the scheduler core supports — five policies × {empty,
//! seeded} fault plan × prefix caching {off, on} × {single-stage,
//! two-stage chunked-prefill} deployment — on a multi-tenant trace whose
//! arrivals are quantized so that many share a timestamp. The digests
//! cover completions, typed rejections, robustness, prefix and step-cache
//! counters, so a refactor that reorders ties, drops a fault branch or
//! miscounts a retry moves a pin.

use zipserv::prelude::*;
use zipserv::serve::scheduler::ScheduleReport;

/// Chains every field of `r` except the policy name into the FNV-1a
/// state `h`.
fn digest(h: &mut u64, r: &ScheduleReport) {
    let (rob, p) = (&r.robustness, &r.prefix);
    let mut words = vec![
        r.duration_s.to_bits(),
        r.throughput_tps.to_bits(),
        r.comm_s.to_bits(),
        r.peak_batch as u64,
        r.preemptions,
    ];
    for c in &r.completions {
        words.extend([c.id, u64::from(c.priority.rank()), c.output_len]);
        words.extend([c.queue_s, c.latency_s, c.ttft_s].map(f64::to_bits));
        words.extend([c.preemptions, c.retries].map(u64::from));
        words.push(c.slo_met.map_or(2, u64::from));
    }
    for j in &r.rejections {
        words.extend([j.id, j.reason as u64]);
    }
    words.extend([rob.faults_injected, rob.rank_failures, rob.link_degrades]);
    words.extend([rob.retries, rob.recomputed_tokens, rob.shed]);
    words.extend([rob.frame_corruptions, rob.recoveries]);
    words.extend(
        [
            rob.stall_s,
            rob.refetch_s,
            rob.downtime_s,
            rob.time_to_recover_s,
        ]
        .map(f64::to_bits),
    );
    words.extend([p.lookups, p.hits, p.misses, p.evictions, p.tokens_saved]);
    words.extend([p.pages_shared, r.step_cache.hits, r.step_cache.misses]);
    for b in words.iter().flat_map(|w| w.to_le_bytes()) {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x100000001b3);
    }
}

fn policies() -> Vec<Box<dyn SchedulePolicy>> {
    vec![
        Box::new(Fcfs),
        Box::new(Priority::default()),
        Box::new(SloEdf::default()),
        Box::new(PreemptiveSjf::default()),
        Box::new(PreemptiveSjf {
            mode: PreemptionMode::PageOut,
        }),
    ]
}

/// The multi-tenant mix with arrivals floored to 0.25 s, so bursts share
/// one timestamp and tie order matters, plus one request (id 10 000) no
/// deployment can hold, tied with its neighbour.
fn tied_trace() -> Vec<Request> {
    let mut trace: Vec<Request> = ArrivalMix::multi_tenant_mix()
        .generate(4.0, 140, 23)
        .into_iter()
        .map(|mut r| {
            r.arrival_s = (r.arrival_s * 4.0).floor() / 4.0;
            r
        })
        .collect();
    let at = trace[40].arrival_s;
    trace.insert(41, Request::new(10_000, at, 50_000_000, 8));
    trace
}

/// Digests recorded before the scheduler core was restructured, one per
/// cell, in order: deployment (single-stage LLaMA3.1-8B on an RTX 4090,
/// then two-stage Mistral-24B on two RTX 4090s, whose default is chunked
/// prefill), then fault plan (empty, seeded), then caching (off, on).
/// Both deployments are KV-bound on the trace, so preemptive policies
/// really preempt.
const PINS: [u64; 8] = [
    0xbeb754310e991df7,
    0x72b9d91d0e372bf4,
    0x5169f4447e8ff1f2,
    0xc85ce6288c8c7c37,
    0x7e183ada33cfd9c3,
    0xf6ffc41df615b795,
    0xcd396d3b00c1f8a0,
    0x67c4c1b382dfd671,
];

/// Every cell's five reports hash to the recorded digest, and across the
/// matrix ties, preemptions, fault retries, prefix hits, brownout sheds
/// and oversized rejections all occur, so the pins cover the branches
/// they are meant to guard.
#[test]
fn full_reports_match_recorded_digests() {
    let trace = tied_trace();
    let tied = trace
        .windows(2)
        .filter(|w| w[0].arrival_s == w[1].arrival_s)
        .count();
    assert!(tied >= 10, "only {tied} tied neighbours");
    let deployments = [
        (LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090)),
        (
            LlmModel::Mistral24b,
            GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 2),
        ),
    ];
    let cells = deployments.iter().flat_map(|&(model, cluster)| {
        [false, true].into_iter().flat_map(move |faults| {
            [false, true].map(move |caching| (model, cluster, faults, caching))
        })
    });
    let (mut preempt, mut retries, mut hits, mut shed) = (0, 0, 0, 0);
    let mut drift = Vec::new();
    for ((model, cluster, faults, caching), pin) in cells.zip(PINS) {
        let cell = format!(
            "{model}/pp{}/faults={faults}/caching={caching}",
            cluster.pp()
        );
        let plan = if faults {
            FaultPlan::seeded(5, 40.0, cluster.total_ranks())
        } else {
            FaultPlan::default()
        };
        let mut h = 0xcbf29ce484222325u64;
        for policy in policies() {
            let r = ServingEngine::builder()
                .model(model)
                .cluster(cluster)
                .policy_box(policy)
                .max_batch(256)
                .prefix_caching(caching)
                .fault_plan(plan.clone())
                .build()
                .serve_online(trace.clone());
            digest(&mut h, &r);
            let resolved = r.completions.len() + r.rejections.len();
            assert_eq!(resolved, trace.len(), "{cell}: lost or doubled");
            assert_eq!(r.rejected_for(RejectReason::Oversized), [10_000], "{cell}");
            assert!(
                faults || r.robustness == RobustnessStats::default(),
                "{cell}"
            );
            assert!(caching || r.prefix.lookups == 0, "{cell}");
            preempt += r.preemptions;
            retries += r.robustness.retries;
            hits += r.prefix.hits;
            shed += r.robustness.shed;
        }
        if h != pin {
            drift.push(format!("{cell}: {h:#018x} != {pin:#018x}"));
        }
    }
    assert!(preempt > 0 && retries > 0 && hits > 0 && shed > 0);
    assert!(drift.is_empty(), "reports drifted:\n{}", drift.join("\n"));
}
