//! Scheduling-policy suite: bit-compatibility of the trait-based loop with
//! the legacy FCFS batcher, and scenario-level wins for the QoS-aware
//! policies (priority bursts, SLO deadlines, preemption accounting).

use proptest::prelude::*;
use zipserv::prelude::*;
use zipserv::serve::scheduler::{poisson_arrivals as poisson, run_policy, run_reference};

fn zip_engine() -> ServingEngine {
    ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole compatibility guarantee: `Fcfs` under the generic
    /// `SchedulePolicy` loop reproduces the frozen pre-trait batcher
    /// *exactly* — same completions in the same order, same duration,
    /// throughput and peak batch — on random Poisson arrival streams.
    #[test]
    fn fcfs_is_bit_compatible_with_legacy_batcher(
        rate10 in 5u64..120,
        count in 5usize..48,
        prompt in 32u64..1024,
        output in 8u64..256,
        seed in 1u64..1_000_000,
    ) {
        let engine = zip_engine();
        let arrivals = poisson(rate10 as f64 / 10.0, count, prompt, output, seed);
        let legacy = run_reference(&engine, 64, arrivals.clone());
        let via_trait = run_policy(&engine, &Fcfs, 64, arrivals.clone());
        let via_builder = engine.serve_online(arrivals);
        prop_assert_eq!(&via_trait, &legacy);
        prop_assert_eq!(&via_builder, &legacy);
    }
}

/// Background load at KV-pressure, then a burst of interactive requests
/// mid-run: the QoS-aware policies must cut the high class's p99 TTFT
/// versus FCFS without giving up more than 5% total throughput. The
/// background jobs are long-output (1024 tokens) so the run is KV-bound:
/// FCFS head-of-line blocks the short burst behind a standard request that
/// cannot fit, while Priority/SJF slot the burst into the free headroom.
#[test]
fn qos_policies_beat_fcfs_on_high_priority_burst() {
    let mut arrivals: Vec<Request> = poisson(8.0, 60, 1024, 1024, 11)
        .into_iter()
        .map(|r| r.with_priority(PriorityClass::Standard))
        .collect();
    // Eight interactive chat requests land together mid-run, once the KV
    // cache is saturated by the background wave.
    for i in 0..8u64 {
        arrivals.push(
            Request::new(1000 + i, 30.0 + 0.01 * i as f64, 128, 32)
                .with_priority(PriorityClass::Interactive)
                .with_slo(Slo::new(2.0, 0.1)),
        );
    }

    let engine = zip_engine();
    let fcfs = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    let fcfs_p99 = fcfs
        .class_ttft_percentile(PriorityClass::Interactive, 0.99)
        .expect("burst completed");

    for policy in [
        Box::new(Priority::default()) as Box<dyn SchedulePolicy>,
        Box::new(PreemptiveSjf::default()),
    ] {
        let report = run_policy(&engine, policy.as_ref(), 64, arrivals.clone());
        assert_eq!(
            report.completions.len(),
            arrivals.len(),
            "{}: all requests complete",
            policy.name()
        );
        let p99 = report
            .class_ttft_percentile(PriorityClass::Interactive, 0.99)
            .expect("burst completed");
        assert!(
            p99 < fcfs_p99,
            "{}: interactive p99 TTFT {p99:.2}s vs FCFS {fcfs_p99:.2}s",
            policy.name()
        );
        assert!(
            report.throughput_tps >= 0.95 * fcfs.throughput_tps,
            "{}: throughput {:.1} vs FCFS {:.1}",
            policy.name(),
            report.throughput_tps,
            fcfs.throughput_tps
        );
    }
}

/// EDF admits by deadline: on the saturated (smaller-KV) vLLM deployment,
/// tightly-deadlined requests attain their SLO strictly more often than
/// under FCFS.
#[test]
fn slo_edf_improves_slo_attainment_under_load() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    let fcfs = run_policy(&engine, &Fcfs, 64, arrivals.clone());
    let edf = run_policy(&engine, &SloEdf::default(), 64, arrivals);
    let (af, ae) = (
        fcfs.slo_attainment().expect("SLO-carrying requests"),
        edf.slo_attainment().expect("SLO-carrying requests"),
    );
    assert!(ae > af, "EDF attainment {ae:.3} vs FCFS {af:.3}");
}

/// Preemption bookkeeping: when PreemptiveSjf evicts, the report counts it,
/// the victim completes anyway, and nobody exceeds the preemption cap. The
/// paper mix at 12 req/s saturates the vLLM deployment's KV cache, so
/// short interactive jobs must evict long batch jobs to get in.
#[test]
fn preemption_is_accounted_and_bounded() {
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let engine = ServingEngine::builder().kind(EngineKind::Vllm).build();
    let report = run_policy(&engine, &PreemptiveSjf::default(), 64, arrivals.clone());
    assert_eq!(report.completions.len(), arrivals.len());
    assert!(report.preemptions > 0, "scenario must trigger preemption");
    let per_request: u64 = report
        .completions
        .iter()
        .map(|c| c.preemptions as u64)
        .sum();
    assert_eq!(per_request, report.preemptions, "per-request sums to total");
    assert!(report
        .completions
        .iter()
        .all(|c| c.preemptions <= zipserv::serve::scheduler::MAX_PREEMPTIONS));
    // Page-out recovery completes everything too, paying PCIe transfers
    // instead of recompute prefills.
    let paged = run_policy(
        &engine,
        &PreemptiveSjf {
            mode: PreemptionMode::PageOut,
        },
        64,
        arrivals.clone(),
    );
    assert_eq!(paged.completions.len(), arrivals.len());
    assert!(paged.preemptions > 0);
}

/// The empty run: no arrivals means `None` percentiles, not a panic — the
/// regression the Option migration exists for.
#[test]
fn empty_trace_reports_none_everywhere() {
    let engine = zip_engine();
    let report = engine.serve_online(Vec::new());
    assert!(report.completions.is_empty());
    assert_eq!(report.latency_percentile(0.5), None);
    assert_eq!(report.ttft_percentile(0.99), None);
    assert_eq!(report.mean_queue_s(), None);
    assert_eq!(report.slo_attainment(), None);
    assert!(report.per_class().is_empty());
    assert_eq!(report.throughput_tps, 0.0);
}

/// Per-class stats partition the run: counts sum to the total and the
/// interactive class is at least as fast as batch under Priority.
#[test]
fn class_stats_partition_the_run() {
    let arrivals = ArrivalMix::paper_mix().generate(10.0, 90, 51);
    let engine = ServingEngine::builder().policy(Priority::default()).build();
    let report = engine.serve_online(arrivals);
    let stats = report.per_class();
    let total: usize = stats.iter().map(|s| s.count).sum();
    assert_eq!(total, report.completions.len());
    let by = |c: PriorityClass| stats.iter().find(|s| s.class == c).expect("class present");
    assert!(
        by(PriorityClass::Interactive).p99_ttft_s <= by(PriorityClass::Batch).p99_ttft_s,
        "interactive {} vs batch {}",
        by(PriorityClass::Interactive).p99_ttft_s,
        by(PriorityClass::Batch).p99_ttft_s
    );
}
