//! Solver configuration: machine model, static thresholds, and the
//! dynamic-strategy switches the paper's experiments toggle.
//!
//! The strategy enums *are* the strategies: the decision each variant
//! takes is its `match` arm in `SlaveSelection::select`
//! ([`crate::slavesel`]) and `TaskSelection::pick` ([`crate::pool`]).

use crate::malleable::CoreAlloc;
use mf_sim::{FaultModel, NetworkModel, Time};

/// Dynamic slave-selection strategy for type-2 fronts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlaveSelection {
    /// MUMPS baseline: choose processors less loaded (flops still to do)
    /// than the master, balance the work given to each slave (Section 3).
    Workload,
    /// The paper's Algorithm 1: sort candidates by memory load and level
    /// memory without raising the current peak (Section 4), optionally
    /// enriched with the Section 5.1 subtree/prediction information.
    Memory,
    /// The hybrid sketched in the paper's conclusion: filter candidates by
    /// workload (like the baseline), waterfill memory within that feasible
    /// set (like Algorithm 1).
    Hybrid,
}

/// Dynamic task-selection strategy for the local pool of ready tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSelection {
    /// MUMPS baseline: LIFO (depth-first traversal).
    Lifo,
    /// The paper's Algorithm 2: prefer subtree tasks; activate an
    /// upper-tree task only if it does not raise the peak observed so far
    /// (Section 5.2).
    MemoryAware,
    /// Algorithm 2 with the *global* refinement the paper calls for in
    /// Section 6: a task's activation cost is offset by the contribution
    /// blocks (local and remote) its activation releases.
    MemoryAwareGlobal,
}

/// Lease/heartbeat failure-detection parameters. Present (as
/// `Some(RecoveryConfig)`) when the run should survive processor loss:
/// every processor heartbeats its believed-alive peers every
/// `heartbeat_every` ticks, and a peer unheard-from for `lease_timeout`
/// ticks is declared dead, its unfinished subtree reclaimed and
/// re-executed on the survivors. `None` (the default) disables the
/// protocol entirely — no heartbeat traffic, no timers, runs
/// bit-identical to a build without the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Heartbeat period in ticks.
    pub heartbeat_every: Time,
    /// A peer silent for this many ticks is declared dead. Must be
    /// comfortably larger than `heartbeat_every` plus the worst-case
    /// message latency, or healthy-but-slow peers get fail-stopped
    /// (the driver turns every declaration into a real kill: fail-stop
    /// semantics, no resurrection).
    pub lease_timeout: Time,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        // Periods sized for the sp_like network model (latencies are tens
        // of ticks) and tick = 1 µs: heartbeat every 5 ms of virtual time,
        // declare dead after 25 ms of silence.
        RecoveryConfig { heartbeat_every: 5_000, lease_timeout: 25_000 }
    }
}

/// Full configuration of a simulated parallel factorization.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Number of processors (the paper uses 32).
    pub nprocs: usize,
    /// Message cost model.
    pub network: NetworkModel,
    /// Fronts at least this large (order) outside leaf subtrees become
    /// type-2 (1-D parallel) nodes.
    pub type2_front_min: usize,
    /// A root front at least this large becomes the type-3 (2-D, all
    /// processors) node.
    pub type3_front_min: usize,
    /// Minimum rows per slave task (granularity constraint of Section 3).
    pub min_rows_per_slave: usize,
    /// Slave-selection strategy.
    pub slave_selection: SlaveSelection,
    /// Task-selection strategy.
    pub task_selection: TaskSelection,
    /// Section 5.1: broadcast the peak of a subtree when entering it and
    /// account for it in the memory metric.
    pub use_subtree_info: bool,
    /// Section 5.1: predict imminent activations of large master tasks
    /// and account for them in the memory metric.
    pub use_prediction: bool,
    /// Memory-aware subtree definition (the paper's conclusion: "splitting
    /// subtrees with large memory peaks, especially for symmetric
    /// matrices"): the Geist-Ng construction also splits any candidate
    /// subtree whose sequential stack peak exceeds
    /// `subtree_peak_factor x (sequential peak / nprocs)`.
    /// `None` keeps the purely flops-based definition of Section 3.
    pub subtree_peak_factor: Option<f64>,
    /// Record the structured flight recording ([`mf_sim::Recording`]):
    /// every scheduling decision, memory movement, and status message,
    /// replayable by the `explain` report and exportable to Perfetto.
    /// Off by default — the disabled path is a single branch per event
    /// and runs are byte-identical to a build without the recorder.
    pub record_events: bool,
    /// Ring-buffer capacity of the flight recording (`None` = unbounded,
    /// which exact peak attribution requires; a bound keeps only the most
    /// recent events and counts evictions).
    pub event_capacity: Option<usize>,
    /// Seeded network/processor perturbations (see [`mf_sim::fault`]):
    /// latency jitter, bounded delay/reordering, status-message loss, and
    /// stragglers. `None` keeps the exact happy-path execution — runs are
    /// bit-identical to a build without the fault layer.
    pub fault: Option<FaultModel>,
    /// Lease/heartbeat failure detection and subtree re-execution (see
    /// [`RecoveryConfig`]). Required for runs whose fault model kills
    /// processors (`FaultModel::kill_at`) to complete; without it a kill
    /// stalls the run and the watchdog names the dead processor. `None`
    /// keeps the protocol off.
    pub recovery: Option<RecoveryConfig>,
    /// Hard per-processor memory capacity (active entries). Masters skip
    /// slave candidates whose projected memory would exceed it (falling
    /// back to fewer/larger shares, last resort serialize-on-master), and
    /// the task pool defers out-of-subtree activations that would breach
    /// it. Degrades time, never correctness. `None` means unbounded.
    pub capacity: Option<u64>,
    /// Watchdog: abort with [`crate::error::SimError::TimeLimit`] when
    /// virtual time passes this many ticks (runaway guard). `None`
    /// disables the check.
    pub time_limit: Option<Time>,
    /// Telemetry sampling interval in virtual ticks: at every multiple
    /// `s` of `sample_every`, before the first delivery at or after `s`,
    /// the run loop reads each alive and joined core's stack/active
    /// memory, pool depth and busy/stalled state into the run's time
    /// series (see `mf_sim::timeseries`). A read is not an event, so both
    /// backends sample identically and a sampled run delivers exactly the
    /// unsampled run's events. `None` keeps the sampler off; a run with
    /// `Some(0)` panics.
    pub sample_every: Option<Time>,
    /// How cores are allotted to each front's compute task (the
    /// malleable-tasks axis of Guermouche–Marchal–Simon–Vivien: a front
    /// is a task whose processing time shrinks with allotted cores).
    /// `Static(n)` grants every front `n` cores — `Static(1)`, the
    /// default, reproduces the pre-malleable scheduler byte for byte.
    /// `Malleable` makes the grant a per-front scheduling decision
    /// (see [`CoreAlloc`]); each grant is carried on
    /// `Effect::StartCompute`, shortens the modelled compute duration
    /// through the shared [`crate::malleable::compute_ticks`] formula,
    /// and is narrated to the flight recorder. Factor bytes never
    /// depend on the grant (kernel dispatch keys on the pivot count
    /// only; the parallel trailing sweep is partition-invariant).
    pub core_alloc: CoreAlloc,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            nprocs: 32,
            network: NetworkModel::sp_like(),
            type2_front_min: 200,
            type3_front_min: 600,
            min_rows_per_slave: 16,
            slave_selection: SlaveSelection::Workload,
            task_selection: TaskSelection::Lifo,
            use_subtree_info: false,
            use_prediction: false,
            subtree_peak_factor: None,
            record_events: false,
            event_capacity: None,
            fault: None,
            recovery: None,
            capacity: None,
            time_limit: None,
            sample_every: None,
            core_alloc: CoreAlloc::Static(1),
        }
    }
}

impl SolverConfig {
    /// This configuration under the paper's baseline: the original MUMPS
    /// workload-based slave selection and LIFO pool, no Section 5.1
    /// information. Every other field is kept.
    pub fn with_workload_strategy(self) -> Self {
        SolverConfig {
            slave_selection: SlaveSelection::Workload,
            task_selection: TaskSelection::Lifo,
            use_subtree_info: false,
            use_prediction: false,
            ..self
        }
    }

    /// This configuration under the paper's full memory-based strategy:
    /// Algorithm 1 with the Section 5.1 mechanisms, plus Algorithm 2 task
    /// selection. Every other field is kept.
    pub fn with_memory_strategy(self) -> Self {
        SolverConfig {
            slave_selection: SlaveSelection::Memory,
            task_selection: TaskSelection::MemoryAware,
            use_subtree_info: true,
            use_prediction: true,
            ..self
        }
    }

    /// The paper's baseline at the default machine model.
    pub fn mumps_baseline(nprocs: usize) -> Self {
        SolverConfig { nprocs, ..Default::default() }.with_workload_strategy()
    }

    /// The paper's full memory-based configuration at the default machine
    /// model.
    pub fn memory_based(nprocs: usize) -> Self {
        SolverConfig { nprocs, ..Default::default() }.with_memory_strategy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_strategies_only_where_expected() {
        let base = SolverConfig::mumps_baseline(32);
        let mem = SolverConfig::memory_based(32);
        assert_eq!(base.slave_selection, SlaveSelection::Workload);
        assert_eq!(mem.slave_selection, SlaveSelection::Memory);
        assert_eq!(base.nprocs, mem.nprocs);
        assert_eq!(base.type2_front_min, mem.type2_front_min);
        assert!(mem.use_subtree_info && mem.use_prediction);

        // The presets are transforms of any base: on a non-default one
        // (the fields `mf_bench::paper_scale_config` sets, observers on)
        // each equals the literal the experiment binaries used to spell
        // out, and touches nothing else.
        let base = SolverConfig {
            type2_front_min: 150,
            type3_front_min: 500,
            min_rows_per_slave: 12,
            record_events: true,
            sample_every: Some(1000),
            ..SolverConfig::memory_based(16)
        };
        let workload = SolverConfig {
            slave_selection: SlaveSelection::Workload,
            task_selection: TaskSelection::Lifo,
            use_subtree_info: false,
            use_prediction: false,
            ..base.clone()
        };
        let memory = SolverConfig {
            slave_selection: SlaveSelection::Memory,
            task_selection: TaskSelection::MemoryAware,
            use_subtree_info: true,
            use_prediction: true,
            ..base.clone()
        };
        let debug = |c: &SolverConfig| format!("{c:?}");
        assert_eq!(debug(&base.clone().with_workload_strategy()), debug(&workload));
        assert_eq!(debug(&workload.with_memory_strategy()), debug(&memory));
    }

    #[test]
    fn core_alloc_defaults_to_sequential_static() {
        // The malleable-tasks knob must not alter any preset's behavior
        // unless explicitly switched on.
        assert_eq!(SolverConfig::default().core_alloc, CoreAlloc::Static(1));
        assert_eq!(SolverConfig::mumps_baseline(32).core_alloc, CoreAlloc::Static(1));
        assert_eq!(SolverConfig::memory_based(32).core_alloc, CoreAlloc::Static(1));
    }
}
