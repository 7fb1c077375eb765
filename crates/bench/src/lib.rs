//! Experiment harness regenerating the tables and figures of the paper.
//!
//! Binaries (`cargo run --release -p mf-bench --bin tableN`):
//!
//! * `table1` — the test problems (synthetic analogues + paper metadata);
//! * `table2` — % decrease of the max stack peak, memory strategies vs.
//!   workload baseline, 8 matrices × 4 orderings, no splitting;
//! * `table3` — same on trees with large type-2 masters split;
//! * `table4` — absolute peaks, {no-split, split} × {workload, memory};
//! * `table5` — combined static + dynamic vs. original MUMPS strategy;
//! * `table6` — factorization-time loss of the memory strategies;
//! * `figures` — scenario reproductions of Figures 4, 5, 6 and 8;
//! * `ablation`, `scaling`, `variability`, `reordering_memory`,
//!   `malleable_table` — the studies beyond the paper's tables;
//! * `robustness`, `scale`, `backend_equiv` — the harnesses behind
//!   `BENCH_*.json` and the backend-equivalence check;
//! * `mf-obs` — the observability tool over flight recordings (see
//!   [`obs`]): `explain` (peak attribution, `--cores` timeline, kill/join
//!   replay), `audit` (protocol invariants), `check-all` (both, on every
//!   matrix), `diff` (backends, strategies, faults, sweep artifacts) and
//!   `timeline` (sampled telemetry as JSONL). Only `explain` and
//!   `check-all` export artifacts, into their `--obs-dir`.
//!
//! The library part holds the shared experiment-sweep machinery so the
//! binaries stay thin and the sweeps are testable.

#![warn(missing_docs)]
pub mod cache;
pub mod obs;
pub mod paper_data;
pub mod scenarios;
pub mod sweep;

pub use sweep::{
    paper_scale_config, render_percent_table, sample_every_from_env, split_threshold_for,
    sweep_cell, sweep_cells, CellResult, CellSpec,
};
