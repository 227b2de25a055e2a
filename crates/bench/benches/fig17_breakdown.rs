//! Figure 17: decode-step latency and memory breakdown.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zipserv_bench::figures;
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};

fn bench(c: &mut Criterion) {
    println!("{}", figures::fig17());
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build();
    c.bench_function("fig17/decode_step", |b| {
        b.iter(|| black_box(&engine).decode_step(32, 1024));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
