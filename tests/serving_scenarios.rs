//! Serving-level integration scenarios across engines, models and clusters.

use zipserv::gpu::device::Gpu;
use zipserv::kernels::shapes::LlmModel;
use zipserv::serve::cluster::GpuCluster;
use zipserv::serve::engine::{EngineKind, ServingEngine};
use zipserv::serve::policy::{PriorityClass, SloEdf};
use zipserv::serve::scheduler::poisson_arrivals;
use zipserv::serve::workload::{ArrivalMix, Workload};

/// Builds `kind` serving `model` on `cluster` with the default FCFS policy.
fn deploy(kind: EngineKind, model: LlmModel, cluster: GpuCluster) -> ServingEngine {
    ServingEngine::builder()
        .kind(kind)
        .model(model)
        .cluster(cluster)
        .build()
}

fn deployments() -> Vec<(LlmModel, GpuCluster)> {
    vec![
        (LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090)),
        (
            LlmModel::Mistral24b,
            GpuCluster::tensor_parallel(Gpu::L40s, 2),
        ),
        (
            LlmModel::Llama31_70b,
            GpuCluster::tensor_parallel(Gpu::L40s, 4),
        ),
    ]
}

#[test]
fn compressed_engines_always_have_more_kv_headroom() {
    for (model, cluster) in deployments() {
        let zip = deploy(EngineKind::ZipServ, model, cluster);
        let vllm = deploy(EngineKind::Vllm, model, cluster);
        assert!(
            zip.kv_capacity_tokens() > vllm.kv_capacity_tokens(),
            "{model}"
        );
        assert!(zip.memory_plan().weight_bytes < vllm.memory_plan().weight_bytes);
    }
}

#[test]
fn throughput_ordering_is_stable_across_deployments() {
    let w = Workload::new(8, 512, 256);
    for (model, cluster) in deployments() {
        let tput: Vec<f64> = EngineKind::ALL
            .iter()
            .map(|&k| deploy(k, model, cluster).serve(w).throughput_tps)
            .collect();
        assert!(tput[0] > tput[1], "{model}: ZipServ vs vLLM");
        assert!(tput[1] > tput[2], "{model}: vLLM vs Transformers");
        assert!(tput[2] > tput[3], "{model}: Transformers vs DFloat11");
    }
}

#[test]
fn kv_pressure_reported_consistently() {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let engine = deploy(EngineKind::Vllm, LlmModel::Llama31_8b, cluster);
    let light = engine.serve(Workload::new(4, 256, 128));
    let heavy = engine.serve(Workload::new(32, 512, 2048));
    assert!(
        light.kv_pressure < 1.0,
        "light load fits: {}",
        light.kv_pressure
    );
    assert!(heavy.kv_pressure > light.kv_pressure);
}

#[test]
fn prefill_grows_with_prompt_length() {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    for kind in EngineKind::ALL {
        let engine = deploy(kind, LlmModel::Llama31_8b, cluster);
        let short = engine.prefill_ms(8, 128);
        let long = engine.prefill_ms(8, 2048);
        assert!(long > 2.0 * short, "{kind}: {short} -> {long}");
    }
}

#[test]
fn decode_step_grows_with_context() {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let engine = deploy(EngineKind::ZipServ, LlmModel::Llama31_8b, cluster);
    let early = engine.decode_step(16, 256).total_ms();
    let late = engine.decode_step(16, 4096).total_ms();
    assert!(late > early, "attention must grow with the KV cache");
}

#[test]
fn online_and_offline_views_agree_on_the_winner() {
    // The continuous-batching simulation must reach the same conclusion as
    // the static-batch sweep: ZipServ over vLLM.
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let arrivals = poisson_arrivals(6.0, 40, 512, 128, 23);
    let build = |kind| {
        ServingEngine::builder()
            .kind(kind)
            .model(LlmModel::Llama31_8b)
            .cluster(cluster)
            .build()
    };
    let rz = build(EngineKind::ZipServ).serve_online(arrivals.clone());
    let rv = build(EngineKind::Vllm).serve_online(arrivals);
    assert_eq!(rz.completions.len(), 40);
    assert_eq!(rv.completions.len(), 40);
    assert!(rz.throughput_tps >= rv.throughput_tps * 0.98);
}

#[test]
fn mixed_priority_traffic_still_favors_the_compressed_engine() {
    // The scenario the policy redesign opens: the same mixed-priority,
    // SLO-carrying trace under the same EDF policy on compressed vs
    // uncompressed engines. ZipServ's freed weight memory turns into
    // admission headroom: more throughput and a lower tail TTFT.
    let arrivals = ArrivalMix::paper_mix().generate(12.0, 100, 37);
    let build = |kind| {
        ServingEngine::builder()
            .kind(kind)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .policy(SloEdf::default())
            .build()
    };
    let rz = build(EngineKind::ZipServ).serve_online(arrivals.clone());
    let rv = build(EngineKind::Vllm).serve_online(arrivals);
    assert_eq!(rz.completions.len(), 100);
    assert_eq!(rv.completions.len(), 100);
    assert!(
        rz.throughput_tps > rv.throughput_tps,
        "{} vs {}",
        rz.throughput_tps,
        rv.throughput_tps
    );
    let (tz, tv) = (
        rz.ttft_percentile(0.99).expect("completions"),
        rv.ttft_percentile(0.99).expect("completions"),
    );
    assert!(tz < tv, "p99 TTFT {tz} vs {tv}");
    // Per-class stats exist for every tier of the mix on both engines.
    for class in PriorityClass::ALL {
        assert!(rz.class_stats(class).is_some(), "{class} missing on zip");
        assert!(rv.class_stats(class).is_some(), "{class} missing on vllm");
    }
}

#[test]
fn bigger_batches_amortize_weight_reads() {
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    let engine = deploy(EngineKind::ZipServ, LlmModel::Llama31_8b, cluster);
    let s8 = engine.decode_step(8, 512).total_ms();
    let s32 = engine.decode_step(32, 512).total_ms();
    // 4x the tokens for well under 4x the time (weights read once).
    assert!(s32 < 2.0 * s8, "{s8} -> {s32}");
}
