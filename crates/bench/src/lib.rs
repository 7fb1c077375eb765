//! Experiment harness regenerating the tables and figures of the paper.
//!
//! Binaries (`cargo run --release -p mf-bench --bin <name>`):
//!
//! * `paper <report>` — every committed result: `paper table2` prints
//!   `results/table2.txt`, and so on for `table1`–`table6`, `figures`,
//!   `ablation`, `scaling`, `reordering_memory`, `malleable` (static vs.
//!   malleable core allocation), `robustness` (message noise, memory
//!   caps, processor loss) and `synth_scale` (32 to 1024 processors);
//! * `mf-obs` — the observability tool over flight recordings (see
//!   [`obs`]): `explain` (peak attribution, `--cores` timeline, kill/join
//!   replay), `audit` (protocol invariants), `check-all` (both, on every
//!   matrix), `diff` (backends, strategies, faults) and
//!   `timeline` (sampled telemetry as JSONL). Only `explain` and
//!   `check-all` export artifacts, into their `--obs-dir`.
//!
//! The library part holds the shared experiment-sweep machinery so the
//! sweeps are testable.

#![warn(missing_docs)]
pub mod cache;
pub mod obs;
pub mod paper_data;
pub mod scenarios;
pub mod sweep;

pub use sweep::{
    paper_scale_config, render_percent_table, split_threshold_for, sweep_cell, sweep_cells,
    CellResult, CellSpec,
};
