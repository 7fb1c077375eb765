//! Micro-benchmarks of the symbolic analysis pipeline: elimination tree,
//! column counts, amalgamation, Liu reordering and splitting, and the
//! front structures the numeric layer builds on its permuted matrix.
//!
//! `symbolic/gupta3` times the stages of `analyze` one by one on the
//! dense-row instance, where the factor outgrows the matrix the most.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_order::OrderingKind;
use mf_sparse::gen::paper::PaperMatrix;
use mf_sparse::Symmetry;
use mf_symbolic::colcount::col_counts;
use mf_symbolic::etree::{etree, postorder};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::AmalgamationOptions;

fn bench_symbolic(c: &mut Criterion) {
    let a = PaperMatrix::BmwCra1.instantiate_scaled(0.5);
    let perm = OrderingKind::Amd.compute(&a);

    let mut group = c.benchmark_group("symbolic/bmwcra1-half");
    group.sample_size(20);
    group.bench_function("analyze", |b| {
        b.iter(|| mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default()))
    });
    let s = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default());
    group.bench_function("liu_order", |b| {
        b.iter_batched(
            || s.tree.clone(),
            |mut t| apply_liu_order(&mut t, AssemblyDiscipline::FrontThenFree),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("split_large_masters", |b| {
        b.iter_batched(
            || s.tree.clone(),
            |mut t| mf_symbolic::split::split_large_masters(&mut t, 50_000),
            criterion::BatchSize::SmallInput,
        )
    });
    // What the numeric layer hands over: `P·A·Pᵀ` (and its transpose for
    // an unsymmetric tree), prepared outside the timed closure.
    let pa = a.permute_symmetric(&s.perm);
    let pat = (s.tree.sym == Symmetry::General).then(|| pa.transpose());
    group.bench_function("front_structures", |b| {
        b.iter(|| mf_symbolic::frontstruct::front_structures(&s.tree, &pa, pat.as_ref()))
    });
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let a = PaperMatrix::Gupta3.instantiate();
    let perm = OrderingKind::Amd.compute(&a);
    let parent = etree(&a, &perm);
    let post = postorder(&parent);

    let mut group = c.benchmark_group("symbolic/gupta3");
    group.sample_size(20);
    group.bench_function("etree", |b| b.iter(|| etree(&a, &perm)));
    group.bench_function("postorder", |b| b.iter(|| postorder(&parent)));
    group.bench_function("col_counts", |b| b.iter(|| col_counts(&a, &perm, &parent, &post)));
    group.bench_function("permute_symmetric", |b| b.iter(|| a.permute_symmetric(&perm)));
    group.bench_function("analyze", |b| {
        b.iter(|| mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default()))
    });
    group.finish();
}

criterion_group!(benches, bench_symbolic, bench_stages);
criterion_main!(benches);
