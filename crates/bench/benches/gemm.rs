//! Benchmarks of the packed GEMM microkernel layer: the raw register
//! tile on pre-packed panels, packed vs naive trailing updates, and the
//! blocked LU front kernel at 1 vs N within-front threads.

use criterion::{criterion_group, criterion_main, Criterion};
use mf_frontal::dense::{partial_lu_blocked_mt, DenseMat};
use mf_frontal::gemm;

fn fill(len: usize, seed: u64) -> Vec<f64> {
    let mut h = seed | 1;
    (0..len)
        .map(|_| {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// The microkernel ceiling: C -= A·B on L1-resident pre-packed panels.
fn bench_microkernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/microkernel");
    for (m, n, kc) in [(48usize, 48usize, 64usize), (96, 96, 128)] {
        let a = fill(m * kc, 0x9e37);
        let b = fill(kc * n, 0x85eb);
        let mut cm = fill(m * n, 0xc2b2);
        let mut ws = gemm::GemmWorkspace::new();
        let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
        let mut bp = Vec::new();
        gemm::pack_b(&mut bp, &b, kc, kc, n);
        group
            .bench_function(format!("packed_{m}x{n}x{kc}_{}", gemm::active_simd().name()), |bch| {
                bch.iter(|| gemm::gemm_sub_packed(&ap, &bp, n, &mut cm, m))
            });
    }
    group.finish();
}

/// Packing cost included: one full trailing update, packed vs the naive
/// triple loop the packed path replaced.
fn bench_trailing_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/trailing_update");
    let (m, n, kc) = (448usize, 448usize, 64usize);
    let a = fill(m * kc, 0x1234);
    let b = fill(kc * n, 0x5678);
    let c0 = fill(m * n, 0x9abc);
    group.bench_function(format!("packed_{m}x{n}x{kc}"), |bch| {
        let mut cm = c0.clone();
        let mut ws = gemm::GemmWorkspace::new();
        bch.iter(|| {
            let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
            let mut bp = Vec::new();
            gemm::pack_b(&mut bp, &b, kc, kc, n);
            gemm::gemm_sub_packed(&ap, &bp, n, &mut cm, m);
        })
    });
    group.bench_function(format!("naive_{m}x{n}x{kc}"), |bch| {
        let mut cm = c0.clone();
        bch.iter(|| gemm::gemm_sub_naive(m, n, kc, &a, m, &b, kc, &mut cm, m))
    });
    group.finish();
}

/// The full blocked front kernel with the within-front thread budget —
/// the shape `mf-frontal`'s `kernel_floor` test holds a floor on.
fn bench_blocked_lu_mt(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm/blocked_lu");
    group.sample_size(10);
    let f = 512usize;
    let npiv = 256usize;
    let make = move || {
        let mut w = DenseMat::zeros(f, f);
        let v = fill(f * f, 0xfeed);
        for j in 0..f {
            for i in 0..f {
                *w.get_mut(i, j) = if i == j { f as f64 } else { v[j * f + i] };
            }
        }
        w
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    for threads in [1usize, cores.clamp(2, 8)] {
        group.bench_function(format!("front{f}_npiv{npiv}_t{threads}"), |bch| {
            bch.iter_batched(
                make,
                |mut w| {
                    let mut perm = Vec::new();
                    partial_lu_blocked_mt(&mut w, npiv, 64, &mut perm, threads).unwrap();
                    w
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_microkernel, bench_trailing_update, bench_blocked_lu_mt);
criterion_main!(benches);
