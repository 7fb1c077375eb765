//! The seam the threaded backend depends on: the run loop reaches the
//! cores only through [`CoreHost`]. A wrapper that counts every call
//! around the in-process host must see all six entry points used and
//! leave the result exactly [`parsim::run`]'s — a loop that kept (or
//! built) cores or a view table of its own would leave the counters at
//! zero.

use mf_core::config::{RecoveryConfig, SolverConfig};
use mf_core::mapping::compute_mapping;
use mf_core::parsim::{self, CoreHost, LocalCores};
use mf_core::proto::{Effect, Input, SchedulerCore, Violation};
use mf_core::recovery::RecoverySnapshot;
use mf_core::views::StatusDelta;
use mf_order::OrderingKind;
use mf_sim::{FaultModel, SampleRow, Time};
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::AmalgamationOptions;
use std::ops::Range;

#[derive(Default)]
struct Counting<'a> {
    /// The in-process host of the current run.
    cores: Option<LocalCores<'a>>,
    steps: u64,
    status_blocks: u64,
    deferred_queries: u64,
    snapshots: u64,
    samples: u64,
    finishes: u64,
}

impl<'a> Counting<'a> {
    fn cores(&mut self) -> &mut LocalCores<'a> {
        self.cores.as_mut().expect("a run installed its cores")
    }
}

impl<'a> CoreHost<'a> for Counting<'a> {
    fn step(
        &mut self,
        p: usize,
        now: Time,
        input: Input,
        perform: impl FnMut(Effect),
    ) -> (usize, Option<Violation>) {
        self.steps += 1;
        self.cores().step(p, now, input, perform)
    }
    fn apply_block(
        &mut self,
        at: Time,
        from: usize,
        delta: StatusDelta,
        targets: Range<usize>,
        skip: impl Fn(usize) -> bool,
        ages: Option<&mut Vec<(u32, Time)>>,
    ) {
        self.status_blocks += 1;
        self.cores().apply_block(at, from, delta, targets, skip, ages)
    }
    fn cheapest_deferred(&mut self, p: usize) -> Option<(u64, usize)> {
        self.deferred_queries += 1;
        self.cores().cheapest_deferred(p)
    }
    fn snapshot(&mut self, p: usize) -> RecoverySnapshot {
        self.snapshots += 1;
        self.cores().snapshot(p)
    }
    fn sample(&mut self, p: usize) -> SampleRow {
        self.samples += 1;
        self.cores().sample(p)
    }
    fn finish(&mut self) -> Vec<SchedulerCore<'a>> {
        self.finishes += 1;
        self.cores().finish()
    }
}

#[test]
fn the_loop_reaches_the_cores_only_through_the_host() {
    let a = grid2d(20, 20, Stencil::Star);
    let perm = OrderingKind::Metis.compute(&a);
    let mut tree = mf_symbolic::analyze(&a, &perm, &AmalgamationOptions::default()).tree;
    apply_liu_order(&mut tree, AssemblyDiscipline::FrontThenFree);
    // A hard capacity nothing fits under, first on a quiet machine
    // (broadcast blocks take the `apply_block` path), then sampled, with a
    // kill and a join (the sampler reads the cores, the kill and its plan
    // snapshot them, the forced-activation ladder queries them): between
    // the two runs every entry point of the host is on the path.
    let quiet =
        SolverConfig { type2_front_min: 24, capacity: Some(1), ..SolverConfig::memory_based(5) };
    let membership = SolverConfig {
        recovery: Some(RecoveryConfig::default()),
        fault: Some(FaultModel {
            kill_at: vec![(128, 1)],
            join_at: vec![(256, 4)],
            ..FaultModel::quiet(1)
        }),
        sample_every: Some(50),
        ..quiet.clone()
    };
    let map = compute_mapping(&tree, &quiet);
    let mut host = Counting::default();
    for (cfg, dead, joins) in [(&quiet, vec![], 0), (&membership, vec![1], 1)] {
        let want = parsim::run(&tree, &map, cfg).unwrap();
        assert!(want.forced_activations > 0);
        host.cores = Some(parsim::local_cores(&tree, &map, cfg));
        let got = parsim::run_hosted(&tree, &map, cfg, &mut host).unwrap();
        assert_eq!(got, want);
        assert_eq!((got.dead, got.metrics.recovery.joins_observed), (dead, joins));
    }
    assert!(host.steps > 0 && host.status_blocks > 0, "events reach cores through the host");
    assert!(host.deferred_queries > 0, "the capacity ladder asks through the host");
    assert!(host.snapshots > 0, "kill and plan snapshot through the host");
    assert!(host.samples > 0, "the sampler reads through the host");
    assert_eq!(host.finishes, 2);
}
