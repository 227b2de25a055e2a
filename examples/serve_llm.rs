//! End-to-end serving demo: deploy LLaMA3.1-8B on an RTX4090 under all four
//! engines and serve the paper's workload sweep (Figure 16), printing
//! latency, throughput and the decode-step breakdown (Figure 17).
//!
//! ```text
//! cargo run --release --example serve_llm
//! ```

use zipserv::prelude::*;
use zipserv::serve::cluster::GpuCluster;
use zipserv::serve::engine::{EngineKind, ServingEngine};
use zipserv::serve::workload::Workload;

fn main() {
    let model = LlmModel::Llama31_8b;
    let cluster = GpuCluster::single(Gpu::Rtx4090);
    println!("serving {} on 1x{}\n", model.name(), cluster.gpu.name());

    // Figure 17: the decode-step anatomy at batch 32, context 1024.
    for kind in [EngineKind::Vllm, EngineKind::ZipServ] {
        let engine = deploy(kind, model, cluster);
        let step = engine.decode_step(32, 1024);
        let plan = engine.memory_plan();
        println!(
            "{:<12} step {:>6.2} ms (linear {:.2}, attention {:.2}, other {:.2}) | \
             weights {:.2} GiB, KV {:.2} GiB",
            kind.name(),
            step.total_ms(),
            step.linear_ms,
            step.attention_ms,
            step.other_ms,
            plan.weight_bytes as f64 / (1u64 << 30) as f64,
            plan.kv_bytes as f64 / (1u64 << 30) as f64,
        );
    }

    // Figure 16: the workload sweep.
    println!(
        "\n{:<6} {:>5} | {:>16} {:>16} {:>16} {:>16}",
        "batch", "out", "ZipServ", "vLLM", "Transformers", "DFloat11"
    );
    for w in Workload::paper_sweep() {
        print!("{:<6} {:>5} |", w.batch, w.output_len);
        for kind in EngineKind::ALL {
            let r = deploy(kind, model, cluster).serve(w);
            print!(" {:>7.1}s {:>6.0}t/s", r.latency_s, r.throughput_tps);
        }
        println!();
    }

    // Headline numbers.
    let w = Workload::new(32, 512, 2048);
    let zip = deploy(EngineKind::ZipServ, model, cluster).serve(w);
    let vllm = deploy(EngineKind::Vllm, model, cluster).serve(w);
    println!(
        "\nbatch 32, 2048 output tokens: {:.0} tok/s vs vLLM {:.0} tok/s = {:.2}x \
         (paper: 1105 tok/s, 1.66x)",
        zip.throughput_tps,
        vllm.throughput_tps,
        zip.throughput_tps / vllm.throughput_tps
    );

    // The other two §6.5 deployments are tensor-parallel; the builder's
    // `tp`/`pp` axes shard weights and KV per rank and charge the ring
    // all-reduce (plus pipeline hops, if any) in every step.
    println!("\nmulti-GPU deployments (ZipServ, batch 32 @ seq 1024):");
    let deployments = [
        (LlmModel::Mistral24b, 2u32, 1u32),
        (LlmModel::Llama31_70b, 4, 1),
        (LlmModel::Llama31_70b, 4, 2),
    ];
    for (model, tp, pp) in deployments {
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(model)
            .cluster(GpuCluster::single(Gpu::L40s))
            .tp(tp)
            .pp(pp)
            .build();
        let step = engine.decode_step(32, 1024);
        println!(
            "{:<14} on {}x{} (TP{tp} PP{pp}): step {:>6.2} ms, comm {:>5.2} ms \
             ({:.0}% all-reduce + hops), KV capacity {} tokens",
            model.name(),
            engine.cluster().total_devices(),
            engine.cluster().gpu.name(),
            step.total_ms(),
            step.comm_ms(),
            100.0 * step.comm_ms() / step.total_ms(),
            engine.kv_capacity_tokens(),
        );
    }
}

/// `kind` serving `model` on `cluster` under the builder defaults.
fn deploy(kind: EngineKind, model: LlmModel, cluster: GpuCluster) -> ServingEngine {
    ServingEngine::builder()
        .kind(kind)
        .model(model)
        .cluster(cluster)
        .build()
}
