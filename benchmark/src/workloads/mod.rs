//! The five workloads, and what the simulated ones share.

pub mod sim_scale;
pub mod solve;
pub mod sweep_observed;
pub mod table_sweep;

use mf_bench::paper_scale_config;
use multifrontal::core::config::{SlaveSelection, SolverConfig, TaskSelection};
use multifrontal::core::parsim::{self, RunResult};
use multifrontal::core::StaticMapping;
use multifrontal::sim::RunMetrics;
use multifrontal::symbolic::AssemblyTree;

use crate::harness::Gates;
use crate::registry::Table;

/// Processors of every paper-scale cell, as in the paper.
pub const PAPER_PROCS: usize = 32;

/// The workload baseline of the paper's tables at reproduction scale.
/// `paper_scale_config` reads the sampling interval from the
/// environment; the benchmark takes none of its inputs from there.
pub fn baseline_cfg(nprocs: usize) -> SolverConfig {
    SolverConfig { sample_every: None, ..paper_scale_config(nprocs) }
}

/// The paper's memory-based strategy on the same machine model.
pub fn memory_cfg(nprocs: usize) -> SolverConfig {
    SolverConfig {
        slave_selection: SlaveSelection::Memory,
        task_selection: TaskSelection::MemoryAware,
        use_subtree_info: true,
        use_prediction: true,
        ..baseline_cfg(nprocs)
    }
}

pub fn simulate(tree: &AssemblyTree, map: &StaticMapping, cfg: &SolverConfig) -> RunResult {
    parsim::run(tree, map, cfg).unwrap_or_else(|e| panic!("simulated run failed: {e}"))
}

/// Every simulated run must finish every front, leave no entry on any
/// surviving processor's stack, and never underflow its accounting.
pub fn check_run(r: &RunResult, gates: &mut Gates) {
    gates.check("sim.all_fronts_done", r.nodes_done == r.total_nodes, || {
        format!("{}/{} fronts", r.nodes_done, r.total_nodes)
    });
    let leaked: u64 = r
        .final_active
        .iter()
        .enumerate()
        .filter(|(p, _)| !r.dead.contains(p))
        .map(|(_, a)| a)
        .sum();
    gates.check("sim.final_active_zero", leaked == 0, || format!("{leaked} entries left"));
    let under: u64 = r.underflows.iter().sum();
    gates.check("sim.no_underflows", under == 0, || format!("{under} underflows"));
}

/// The paper's trade over a set of cells: memory-based against baseline.
#[derive(Default, Clone, PartialEq, Debug)]
pub struct Trade {
    cells: usize,
    peak_ratio_sum: f64,
    makespan_ratio_sum: f64,
    /// Summed over the memory-based runs.
    pub peak_entries: u64,
    pub makespan_ticks: u64,
}

impl Trade {
    pub fn add(&mut self, base: &RunResult, mem: &RunResult) {
        self.cells += 1;
        self.peak_ratio_sum += mem.max_peak as f64 / base.max_peak as f64;
        self.makespan_ratio_sum += mem.makespan as f64 / base.makespan as f64;
        self.peak_entries += mem.max_peak;
        self.makespan_ticks += mem.makespan;
    }

    /// Mean over cells of memory-based / baseline maximum stack peak;
    /// Table 2's mean percentage gain is `100 (1 - peak_ratio)`.
    pub fn peak_ratio(&self) -> f64 {
        self.peak_ratio_sum / self.cells as f64
    }

    /// Mean over cells of memory-based / baseline makespan; Table 6's
    /// mean percentage loss is `100 (makespan_ratio - 1)`.
    pub fn makespan_ratio(&self) -> f64 {
        self.makespan_ratio_sum / self.cells as f64
    }

    pub fn report(&self, e2e: &mut Table, layers: &mut Table) {
        e2e.set_exact("peak_ratio", self.peak_ratio());
        e2e.set_exact("makespan_ratio", self.makespan_ratio());
        e2e.set_exact("makespan_ticks", self.makespan_ticks as f64);
        layers.set_exact("core.peak_gain_pct", 100.0 * (1.0 - self.peak_ratio()));
        layers.set_exact("core.makespan_loss_pct", 100.0 * (self.makespan_ratio() - 1.0));
    }
}

/// The trade on one tree at `PAPER_PROCS` processors: Liu child order,
/// static mapping, then both strategies, as one cell of Table 2.
pub fn trade_on_tree(tree: &AssemblyTree, gates: &mut Gates) -> Trade {
    use multifrontal::symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
    let mut tree = tree.clone();
    apply_liu_order(&mut tree, AssemblyDiscipline::FrontThenFree);
    let (base_cfg, mem_cfg) = (baseline_cfg(PAPER_PROCS), memory_cfg(PAPER_PROCS));
    let map = multifrontal::core::mapping::compute_mapping(&tree, &base_cfg);
    let (base, mem) = (simulate(&tree, &map, &base_cfg), simulate(&tree, &map, &mem_cfg));
    check_run(&base, gates);
    check_run(&mem, gates);
    let mut t = Trade::default();
    t.add(&base, &mem);
    t
}

/// Exact counts of the memory-based runs of one unit.
pub struct SimCounts {
    metrics: RunMetrics,
    pub events: u64,
    underflows: u64,
    dropped: u64,
}

impl SimCounts {
    pub fn new(nprocs: usize) -> Self {
        SimCounts { metrics: RunMetrics::new(nprocs), events: 0, underflows: 0, dropped: 0 }
    }

    pub fn add(&mut self, r: &RunResult) {
        self.metrics.merge(&r.metrics);
        self.events += r.events_delivered;
        self.underflows += r.underflows.iter().sum::<u64>();
        self.dropped += r.dropped_messages;
    }

    pub fn report(&self, layers: &mut Table) {
        let m = &self.metrics;
        layers.set_exact("core.events_delivered", self.events as f64);
        layers.set_exact("core.status_msgs", m.status_msgs as f64);
        layers.set_exact("core.status_bytes", m.status_bytes as f64);
        layers.set_exact("core.control_msgs", m.control_msgs as f64);
        layers.set_exact("core.control_bytes", m.control_bytes as f64);
        layers.set_exact("core.status_share", m.status_msgs as f64 / m.total_msgs().max(1) as f64);
        layers.set_exact("core.view_staleness_p95", m.view_staleness.quantile(0.95) as f64);
        layers.set_exact("core.forced_activations", m.forced_activations as f64);
        layers.set_exact("core.serialized_fronts", m.serialized_fronts as f64);
        layers.set_exact("core.reselect_rounds", m.reselect_rounds as f64);
        layers.set_exact("core.underflows", self.underflows as f64);
        layers.set_exact("core.dropped_messages", self.dropped as f64);
    }
}

/// Seeded values in `[-0.5, 0.5)` for right-hand sides and dense probes.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_f64(&mut self) -> f64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }

    pub fn fill(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.next_f64()).collect()
    }
}
