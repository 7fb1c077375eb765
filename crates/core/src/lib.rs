//! Memory-based scheduling for a parallel multifrontal solver.
//!
//! This crate is the reproduction of the paper's contribution. It drives
//! a simulated distributed-memory factorization (on top of `mf-sim`) of an
//! assembly tree (from `mf-symbolic`) with MUMPS' combination of static
//! and dynamic scheduling, and implements both the baseline strategies and
//! the paper's memory-based ones:
//!
//! * [`mapping`] — the static phase: Geist–Ng leaf-subtree construction,
//!   subtree→processor mapping, type-1/2/3 classification, and master
//!   mapping balancing factor memory (Section 3);
//! * [`slavesel`] — dynamic slave selection for type-2 fronts: the
//!   workload baseline and the paper's **Algorithm 1** memory-based
//!   waterfill (Section 4), both on top of possibly *stale* views;
//! * [`blocking`] — the 1-D row blockings of Figure 3 (regular for LU,
//!   irregular for LDLᵀ) and their entry/flop accounting;
//! * [`views`] — the asynchronous information mechanisms: memory
//!   increments, workload updates, subtree-peak broadcasts and
//!   ready-master predictions (Section 5.1);
//! * [`pool`] — the per-processor pool of ready tasks with LIFO baseline
//!   and the paper's **Algorithm 2** memory-aware task selection
//!   (Section 5.2);
//! * [`proto`] — the sans-io protocol: each processor is a
//!   [`proto::SchedulerCore`] state machine consuming typed inputs and
//!   emitting typed effects, with no clock, queue, or RNG inside;
//! * [`parsim`] — the run loop: the cores driven in virtual time on
//!   `mf-sim`'s event queue, wherever a [`parsim::CoreHost`] keeps them
//!   (in this thread, or on `mf-exec`'s worker threads);
//! * [`driver`] — one-call experiment runner (matrix × ordering ×
//!   configuration → per-processor stack peaks and makespan), the engine
//!   behind every table of the paper.

#![warn(missing_docs)]
pub mod blocking;
pub mod config;
pub mod driver;
pub mod error;
pub mod malleable;
pub mod mapping;
pub mod parsim;
pub mod pool;
pub mod proto;
pub mod recovery;
pub mod slavesel;
pub mod views;

pub use config::{RecoveryConfig, SlaveSelection, SolverConfig, TaskSelection};
pub use driver::{run_experiment, ExperimentInput, RunResult};
pub use error::{ProcDiag, RunDiagnostics, SimError};
pub use malleable::{compute_ticks, CoreAlloc};
pub use mapping::StaticMapping;
pub use recovery::{digest_factors, Membership, ObligationLedger, RecoveryPlan, RecoverySnapshot};
