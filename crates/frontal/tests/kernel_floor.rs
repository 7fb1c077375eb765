//! Throughput floor of the blocked LU kernel: it exists to catch a silent
//! fall to the scalar path, not to track performance (the benchmark's
//! `frontal.lu_gflops_f512` does that). Its own test binary, because
//! `gemm::force_simd` is process-wide and a timing wants a quiet process.

use std::time::Instant;

use mf_frontal::dense::{partial_lu_blocked_mt, DenseMat, FRONT_NB};
use mf_frontal::gemm::{detected_simd, SimdLevel};

#[test]
#[cfg_attr(debug_assertions, ignore = "a throughput floor needs an optimized build")]
fn blocked_lu_holds_the_floor_of_the_hosts_simd_level() {
    // A diagonally dominant front of order 512 with 256 pivots, one
    // thread, production panel width.
    let (f, npiv) = (512usize, 256usize);
    let mut a = DenseMat::zeros(f, f);
    let mut h = 0x9e3779b97f4a7c15u64 ^ f as u64;
    for j in 0..f {
        for i in 0..f {
            h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((h >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
            *a.get_mut(i, j) = if i == j { f as f64 } else { v };
        }
    }
    let flops: f64 = (0..npiv).map(|k| (f - k - 1) as f64).map(|r| r + 2.0 * r * r).sum();
    let mut perm = Vec::new();
    let best_s = (0..25)
        .map(|_| {
            let mut w = a.clone();
            let start = Instant::now();
            partial_lu_blocked_mt(&mut w, npiv, FRONT_NB, &mut perm, 1)
                .expect("dominant front factors");
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let gflops = flops / best_s / 1e9;
    // ~35-50 gflop/s on a quiet AVX2 host, and best-of-reps still swings
    // by ~40% on loaded shared hosts; the same host's scalar path stays
    // under 1.
    let simd = detected_simd();
    let floor = match simd {
        SimdLevel::Scalar => 1.0,
        SimdLevel::Avx2 | SimdLevel::Avx512 => 16.0,
    };
    assert!(
        gflops >= floor,
        "blocked LU at front=512 runs at {gflops:.2} gflop/s, under the {} floor of {floor}",
        simd.name()
    );
}
