//! Memory-based scheduling for a parallel multifrontal solver — a full
//! Rust reproduction of Guermouche & L'Excellent (LIP RR 2004-17 /
//! IPPS 2004), including every substrate the paper depends on.
//!
//! # What this workspace contains
//!
//! * [`sparse`] — sparse matrices, synthetic analogues of the paper's
//!   eight test problems, Matrix Market I/O;
//! * [`order`] — the four fill-reducing orderings of the experimental
//!   sweep (AMD, AMF, METIS-like nested dissection, PORD-like hybrid);
//! * [`symbolic`] — elimination tree, supernode amalgamation, assembly
//!   tree, static chain-splitting, sequential stack analysis;
//! * [`frontal`] — dense frontal kernels and a *real* numeric
//!   multifrontal factorize/solve (sequential and rayon tree-parallel);
//! * [`sim`] — a deterministic discrete-event distributed-memory machine;
//! * [`core`] — the paper's contribution: MUMPS-style static mapping plus
//!   the dynamic memory-based scheduling strategies (Algorithm 1 slave
//!   selection, Section 5.1 information mechanisms, Algorithm 2 task
//!   selection) evaluated against the workload baseline.
//!
//! # Quick start
//!
//! Solve a linear system with the numeric multifrontal engine:
//!
//! ```
//! use multifrontal::prelude::*;
//!
//! let a = multifrontal::sparse::gen::grid::grid2d(10, 10, Stencil::Star);
//! let perm = OrderingKind::Amd.compute(&a);
//! let f = Factorization::new(&a, &perm, &AmalgamationOptions::default()).unwrap();
//! let b = vec![1.0; a.nrows()];
//! let x = f.solve(&b);
//! assert!(Factorization::residual_inf(&a, &x, &b) < 1e-10);
//! ```
//!
//! Reproduce one cell of the paper's Table 2 (32 simulated processors):
//!
//! ```
//! use multifrontal::prelude::*;
//!
//! let a = PaperMatrix::TwoTone.instantiate_scaled(0.2);
//! let input = ExperimentInput { matrix: &a, ordering: OrderingKind::Amd };
//! let baseline = run_experiment(&input, &SolverConfig::mumps_baseline(8)).unwrap();
//! let memory = run_experiment(&input, &SolverConfig::memory_based(8)).unwrap();
//! println!(
//!     "max stack peak: {} -> {} ({:+.1}%)",
//!     baseline.max_peak,
//!     memory.max_peak,
//!     multifrontal::core::driver::percent_decrease(baseline.max_peak, memory.max_peak),
//! );
//! ```

#![warn(missing_docs)]

pub use mf_core as core;
pub use mf_frontal as frontal;
pub use mf_order as order;
pub use mf_sim as sim;
pub use mf_sparse as sparse;
pub use mf_symbolic as symbolic;

/// The commonly used types, one `use` away.
pub mod prelude {
    pub use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
    pub use mf_core::driver::{run_experiment, ExperimentInput, RunResult};
    pub use mf_core::mapping::{compute_mapping, NodeKind, StaticMapping};
    pub use mf_frontal::numeric::Factorization;
    pub use mf_order::{OrderingKind, ALL_ORDERINGS};
    pub use mf_sparse::gen::grid::Stencil;
    pub use mf_sparse::gen::paper::{PaperMatrix, ALL_PAPER_MATRICES};
    pub use mf_sparse::{CooMatrix, CscMatrix, Permutation, Symmetry};
    pub use mf_symbolic::{analyze, AmalgamationOptions, AssemblyTree, SymbolicAnalysis};
}
