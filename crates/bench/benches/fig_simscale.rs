//! Simulator scaling: host time per simulated request as the trace grows.
//!
//! One FCFS ZipServ replica (LLaMA3.1-8B on an RTX 4090) serves the paper
//! mix at 1.2 req/s, below saturation, for 320, 32k and 1M requests. A
//! scheduler that only touches arrived requests costs the same per request
//! at every length. The bench prints
//!
//! ```text
//! FIG_SIMSCALE us_320=<µs/req> us_32k=<µs/req> us_1m=<µs/req> ratio_1m_320=<x>
//! ```
//!
//! from the fastest timed run at each size (trace generation excluded),
//! and `smoke_check` fails when `ratio_1m_320` exceeds 2.0.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::workload::ArrivalMix;

fn bench(c: &mut Criterion) {
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build();
    let mix = ArrivalMix::paper_mix();
    let mut group = c.benchmark_group("fig_simscale/paper_mix_1.2rps");
    let mut us_per_req = Vec::new();
    for (label, n, samples) in [("320", 320, 10), ("32k", 32_000, 3), ("1m", 1_000_000, 2)] {
        let mut best_s = f64::INFINITY;
        group.sample_size(samples);
        group.bench_function(label, |b| {
            b.iter(|| {
                // A fresh trace per run: the scheduler consumes it, and
                // generating it outside the timer keeps one copy alive.
                let arrivals = mix.generate(1.2, n, 7);
                let start = Instant::now();
                let completed = black_box(&engine).serve_online(arrivals).completions.len();
                best_s = best_s.min(start.elapsed().as_secs_f64());
                assert_eq!(completed, n, "every request completes below saturation");
            });
        });
        us_per_req.push(best_s * 1e6 / n as f64);
    }
    group.finish();
    println!(
        "FIG_SIMSCALE us_320={:.3} us_32k={:.3} us_1m={:.3} ratio_1m_320={:.3}",
        us_per_req[0],
        us_per_req[1],
        us_per_req[2],
        us_per_req[2] / us_per_req[0]
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
