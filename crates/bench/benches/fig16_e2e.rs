//! Figure 16: end-to-end serving comparison across the four engines and
//! three deployments.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use zipserv_bench::figures;
use zipserv_gpu_sim::device::Gpu;
use zipserv_kernels::shapes::LlmModel;
use zipserv_serve::cluster::GpuCluster;
use zipserv_serve::engine::{EngineKind, ServingEngine};
use zipserv_serve::workload::Workload;

fn bench(c: &mut Criterion) {
    println!("{}", figures::fig16());
    let engine = ServingEngine::builder()
        .kind(EngineKind::ZipServ)
        .model(LlmModel::Llama31_8b)
        .cluster(GpuCluster::single(Gpu::Rtx4090))
        .build();
    let w = Workload::new(32, 512, 2048);
    c.bench_function("fig16/serve_llama8b_bs32_out2048", |b| {
        b.iter(|| black_box(&engine).serve(w));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
