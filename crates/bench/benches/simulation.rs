//! Benchmarks of the simulated parallel factorization — one Table 2 cell
//! per strategy, plus the static mapping. These are the building blocks
//! every experiment binary (table2..table6) is made of.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_bench::sweep::{build_tree, paper_scale_config};
use mf_core::mapping::compute_mapping;
use mf_core::parsim;
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;

fn bench_simulation(c: &mut Criterion) {
    let tree = build_tree(PaperMatrix::TwoTone, OrderingKind::Amd, None);
    let base_cfg = paper_scale_config(32);
    let mem_cfg = base_cfg.clone().with_memory_strategy();
    let map = compute_mapping(&tree, &base_cfg);

    let mut group = c.benchmark_group("simulation/twotone-amd-32p");
    group.sample_size(10);
    group.bench_function("static_mapping", |b| b.iter(|| compute_mapping(&tree, &base_cfg)));
    group.bench_function("run_workload_baseline", |b| {
        b.iter(|| parsim::run(&tree, &map, &base_cfg).unwrap())
    });
    group.bench_function("run_memory_based", |b| {
        b.iter(|| parsim::run(&tree, &map, &mem_cfg).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_simulation);
criterion_main!(benches);
