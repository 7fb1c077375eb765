//! `solve_fat` and `solve_thin`: order, analyze, factorize and solve one
//! sparse system, then solve for more right-hand sides with the factors
//! held. The same numeric layer used two opposite ways: a few fat fronts
//! that live in the dense kernels, or tens of thousands of tiny ones that
//! live in assembly and bookkeeping.

use multifrontal::frontal::dense::{
    partial_ldlt_blocked_mt, partial_lu_blocked_mt, DenseMat, FRONT_NB,
};
use multifrontal::frontal::numeric::NumericOptions;
use multifrontal::frontal::parallel::factorize_parallel_with;
use multifrontal::frontal::{gemm, Factorization};
use multifrontal::order::OrderingKind;
use multifrontal::sparse::gen::grid::{grid2d, grid3d, Stencil};
use multifrontal::sparse::{CscMatrix, Symmetry};
use multifrontal::symbolic::seqstack::{sequential_peak, AssemblyDiscipline};
use multifrontal::symbolic::tree::TreeStats;
use multifrontal::symbolic::{analyze, AmalgamationOptions, SymbolicAnalysis};
use std::time::Instant;

use super::{trade_on_tree, Rng, Trade};
use crate::harness::{Ctx, Gates, Workload};
use crate::registry::Table;
use crate::stats::median;
use crate::trace::Tracer;

/// Every right-hand side must be solved to this relative residual.
const RESIDUAL_MAX: f64 = 1e-10;

pub struct Solve {
    a: CscMatrix,
    ordering: OrderingKind,
    /// The first is solved with the factorization; the rest are the
    /// extra right-hand sides.
    rhs: Vec<Vec<f64>>,
    seed: u64,
    smoke: bool,
    /// Kept from the first unit checked.
    first: Option<First>,
    residual_max: f64,
    digest_stable: bool,
}

struct First {
    digest: u64,
    stats: TreeStats,
    seq_peak: u64,
    active_peak: u64,
    stack_peak: u64,
    trade: Trade,
}

pub struct Solved {
    s: SymbolicAnalysis,
    f: Factorization,
    xs: Vec<Vec<f64>>,
}

impl Workload for Solve {
    type Out = Solved;
    const WARM_UNITS: usize = 2;
    const DROP_SPAN: &'static str = "frontal.drop";

    fn setup(ctx: &Ctx, tr: &mut Tracer) -> Self {
        let fat = ctx.workload == "solve_fat";
        let (a, ordering, extra_rhs) = tr.span("sparse.gen", |_| match (fat, ctx.smoke) {
            (true, false) => {
                let a = grid3d(26, 26, 26, Stencil::Box, Symmetry::General, ctx.seed);
                (a, OrderingKind::Metis, 4)
            }
            (true, true) => {
                (grid3d(8, 8, 8, Stencil::Box, Symmetry::General, ctx.seed), OrderingKind::Metis, 2)
            }
            (false, false) => (grid2d(300, 300, Stencil::Star), OrderingKind::Amd, 2),
            (false, true) => (grid2d(40, 40, Stencil::Star), OrderingKind::Amd, 2),
        });
        let mut rng = Rng(ctx.seed);
        let rhs = (0..=extra_rhs).map(|_| rng.fill(a.nrows())).collect();
        Solve {
            a,
            ordering,
            rhs,
            seed: ctx.seed,
            smoke: ctx.smoke,
            first: None,
            residual_max: 0.0,
            digest_stable: true,
        }
    }

    fn unit(&self, tr: &mut Tracer) -> Solved {
        let perm = tr.span("order.compute", |_| self.ordering.compute(&self.a));
        let s = tr
            .span("symbolic.analyze", |_| analyze(&self.a, &perm, &AmalgamationOptions::default()));
        let f = tr
            .span("frontal.factor", |_| {
                Factorization::from_symbolic_with(&self.a, &s, &NumericOptions::default())
            })
            .expect("the grid matrices are diagonally dominant");
        let xs = self.rhs.iter().map(|b| tr.span("frontal.solve", |_| f.solve(b))).collect();
        Solved { s, f, xs }
    }

    fn check(&mut self, out: &Solved, gates: &mut Gates) {
        for (x, b) in out.xs.iter().zip(&self.rhs) {
            let res = Factorization::residual_inf(&self.a, x, b);
            self.residual_max = self.residual_max.max(res);
            gates.check("frontal.residual", res <= RESIDUAL_MAX, || format!("residual {res:e}"));
        }
        let digest = out.f.content_digest();
        match &self.first {
            None => {
                let tree = &out.s.tree;
                self.first = Some(First {
                    digest,
                    stats: tree.stats(),
                    seq_peak: sequential_peak(tree, AssemblyDiscipline::FrontThenFree),
                    active_peak: out.f.stats.active_peak,
                    stack_peak: out.f.stats.stack_peak,
                    trade: trade_on_tree(tree, gates),
                });
            }
            Some(first) => {
                let same = digest == first.digest;
                self.digest_stable &= same;
                gates.check("frontal.digest_stable", same, || {
                    format!("{digest:016x} != {:016x}", first.digest)
                });
            }
        }
    }

    fn probes(&self, layers: &mut Table, gates: &mut Gates) {
        let reps = if self.smoke { 1 } else { 5 };
        let roofline = gemm_roofline_gflops(self.seed, reps);
        layers.set("frontal.gemm_roofline_gflops", roofline);
        for (f, name) in [
            (256, "frontal.lu_gflops_f256"),
            (512, "frontal.lu_gflops_f512"),
            (1024, "frontal.lu_gflops_f1024"),
        ] {
            layers.set(name, kernel_gflops(f, Symmetry::General, self.seed, reps));
        }
        layers.set(
            "frontal.ldlt_gflops_f512",
            kernel_gflops(512, Symmetry::Symmetric, self.seed, reps),
        );

        // Tree-parallel factorization under a two-thread pool against
        // the sequential driver, interleaved. With one core there is
        // nothing to measure, and the values stay 0.
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            println!("  frontal.par2_*: unmeasured (one core)");
            return;
        }
        let perm = self.ordering.compute(&self.a);
        let s = analyze(&self.a, &perm, &AmalgamationOptions::default());
        let opts = NumericOptions::default();
        let pool = |n| rayon::ThreadPoolBuilder::new().num_threads(n).build().expect("pool");
        let (one, two) = (pool(1), pool(2));
        // The repository pins the tree-parallel factors across pool
        // widths; against the sequential driver's they differ in the
        // order children are added into a front, which is only reported.
        let par1 = one.install(|| factorize_parallel_with(&self.a, &s, &opts)).expect("parallel");
        let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
        for _ in 0..reps.min(3) {
            let t = Instant::now();
            let f = Factorization::from_symbolic_with(&self.a, &s, &opts).expect("sequential");
            seq_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let p = two.install(|| factorize_parallel_with(&self.a, &s, &opts)).expect("parallel");
            par_s.push(t.elapsed().as_secs_f64());
            gates.check("frontal.par2_digest", p.content_digest() == par1.content_digest(), || {
                "tree-parallel factors differ between one and two threads".into()
            });
            let same = f.content_digest() == p.content_digest();
            layers.set("frontal.par2_equals_sequential", f64::from(u8::from(same)));
        }
        layers.set_samples("frontal.par2_factor_s", &par_s);
        layers.set("frontal.par2_speedup", median(&seq_s) / median(&par_s));
    }

    fn finish(&self, tr: &Tracer, e2e: &mut Table, layers: &mut Table) {
        let first = self.first.as_ref().expect("at least one unit ran");
        e2e.set_exact("mem_peak_entries", first.active_peak as f64);
        first.trade.report(e2e, layers);

        layers.set_exact("symbolic.nodes", first.stats.nodes as f64);
        layers.set_exact("symbolic.flops", first.stats.flops as f64);
        layers.set_exact("symbolic.factor_entries", first.stats.factor_entries as f64);
        layers.set_exact("symbolic.seq_peak_entries", first.seq_peak as f64);
        layers.set_exact("frontal.active_peak_entries", first.active_peak as f64);
        layers.set_exact("frontal.stack_peak_entries", first.stack_peak as f64);
        layers.set("frontal.residual_max", self.residual_max);
        layers.set_exact("frontal.digest_stable", f64::from(u8::from(self.digest_stable)));

        let factor: Vec<f64> = tr.per_unit("frontal.factor").iter().map(|p| p.0).collect();
        if factor.is_empty() {
            return; // an untraced run has no per-layer timings
        }
        let factor_s = median(&factor);
        let gflops = first.stats.flops as f64 / factor_s / 1e9;
        layers.set("frontal.factor_gflops", gflops);
        layers.set("frontal.us_per_front", 1e6 * factor_s / first.stats.nodes as f64);
        let roofline = layers.get("frontal.gemm_roofline_gflops");
        if roofline > 0.0 {
            layers.set("frontal.factor_pct_roofline", 100.0 * gflops / roofline);
        }
        // Per right-hand side, over the extra ones: the first solve of a
        // unit walks factors the factorization has just written.
        let per_rhs: Vec<f64> =
            tr.per_unit("frontal.solve").iter().map(|(t, n)| t / *n as f64).collect();
        layers.set_samples("frontal.solve_s", &per_rhs);
        let solve_s = median(&per_rhs);
        layers.set("frontal.rhs_per_s", 1.0 / solve_s);
        // Computed, not measured: forward and backward sweep each read
        // every factor entry once, 8 bytes each.
        let bytes = 16.0 * first.stats.factor_entries as f64;
        layers.set("frontal.solve_gbytes_per_s", bytes / solve_s / 1e9);
    }
}

/// A diagonally dominant `f x f` front with seeded off-diagonal values.
fn dominant_front(f: usize, rng: &mut Rng) -> DenseMat {
    let mut w = DenseMat::zeros(f, f);
    for j in 0..f {
        for i in 0..f {
            *w.get_mut(i, j) = if i == j { f as f64 } else { rng.next_f64() };
        }
    }
    w
}

/// Blocked partial factorization of an `f x f` front, `f/2` pivots, one
/// thread, the drivers' panel width: best of `reps`, in gflop/s by the
/// flop count the symbolic layer uses.
fn kernel_gflops(f: usize, sym: Symmetry, seed: u64, reps: usize) -> f64 {
    let npiv = f / 2;
    let a = dominant_front(f, &mut Rng(seed ^ f as u64));
    let flops: f64 = (0..npiv)
        .map(|k| {
            let r = (f - k - 1) as f64;
            if sym == Symmetry::General {
                r + 2.0 * r * r
            } else {
                r + r * r
            }
        })
        .sum();
    let mut perm = Vec::new();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut w = a.clone();
        let t = Instant::now();
        match sym {
            Symmetry::General => partial_lu_blocked_mt(&mut w, npiv, FRONT_NB, &mut perm, 1),
            Symmetry::Symmetric => partial_ldlt_blocked_mt(&mut w, npiv, FRONT_NB, 1),
        }
        .expect("a dominant front factors");
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&w);
    }
    flops / best / 1e9
}

/// The packed microkernel on L1-resident, already packed panels: the
/// ceiling every dense kernel of this host works under, in this run.
fn gemm_roofline_gflops(seed: u64, reps: usize) -> f64 {
    let (m, n, kc) = (48usize, 48usize, 64usize);
    let mut rng = Rng(seed);
    let (a, b, mut c) = (rng.fill(m * kc), rng.fill(kc * n), rng.fill(m * n));
    let mut ws = gemm::GemmWorkspace::new();
    let ap = gemm::pack_a(&mut ws, &a, m, m, kc);
    let mut bp = Vec::new();
    gemm::pack_b(&mut bp, &b, kc, kc, n);
    let inner = 2000;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..inner {
            gemm::gemm_sub_packed(&ap, &bp, n, &mut c, m);
        }
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(&c);
    }
    2.0 * (m * n * kc * inner) as f64 / best / 1e9
}
