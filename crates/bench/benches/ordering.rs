//! Micro-benchmarks of the four fill-reducing orderings (the
//! analysis-phase cost the paper's pipeline pays before any scheduling
//! happens): a 14³ grid, where the quotient-graph engine was never slow;
//! PRE2 and TWOTONE, the circuit-like matrices whose hubs made element
//! weights superlinear before they were stored; and the 90k-column 2-D
//! grid of the benchmark's `solve_thin`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mf_order::ALL_ORDERINGS;
use mf_sparse::gen::grid::{grid2d, grid3d, Stencil};
use mf_sparse::gen::paper::PaperMatrix;
use mf_sparse::{Graph, Symmetry};

fn bench_orderings(c: &mut Criterion) {
    let instances = [
        ("grid14x14x14", grid3d(14, 14, 14, Stencil::Box, Symmetry::Symmetric, 1)),
        ("PRE2", PaperMatrix::Pre2.instantiate()),
        ("TWOTONE", PaperMatrix::TwoTone.instantiate()),
        ("grid300x300", grid2d(300, 300, Stencil::Star)),
    ];
    for (name, a) in &instances {
        let g = Graph::from_matrix(a);
        let mut group = c.benchmark_group(format!("ordering/{name}"));
        group.sample_size(10);
        for kind in ALL_ORDERINGS {
            group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &g, |b, g| {
                b.iter(|| kind.compute_on_graph(g))
            });
        }
        group.finish();
    }
    // What `OrderingKind::compute` adds on top: the adjacency graph of an
    // already symmetric pattern, and of one that needs `A + Aᵀ`.
    let mut group = c.benchmark_group("ordering/graph_from_matrix");
    for (name, a) in &instances[2..] {
        group.bench_with_input(BenchmarkId::from_parameter(name), a, |b, a| {
            b.iter(|| Graph::from_matrix(a))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_orderings);
criterion_main!(benches);
