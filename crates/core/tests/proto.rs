//! Property tests of the sans-io protocol core.
//!
//! The tests drive [`SchedulerCore`]s through a minimal test driver that
//! performs *only* transport and timers — every effect each core emits is
//! captured raw, so the properties are checked against the protocol
//! itself, independent of what the production backends do with it:
//!
//! * a core never asks the transport to send a message to itself
//!   (self-delivery is an internal fast path, not a network round-trip);
//! * memory effects balance: every `Alloc` is matched by `Free`s of the
//!   same total size on the same (processor, node, area) account, and no
//!   account ever goes negative mid-run;
//! * the effect stream *is* the memory story: replaying just the
//!   `Alloc`/`Free` effects through the flight-recorder attribution pass
//!   reproduces every processor's `active_peak` bit-exactly;
//! * a step broadcasts at most one status delta per kind between two
//!   sends, and what it broadcasts is what its parts would have been: an
//!   observer applying the folded deltas holds the views it would hold
//!   had every memory movement been broadcast on its own, and the very
//!   values each core keeps about itself;
//! * a broadcast block swept along one row of the shared view table
//!   leaves every receiver's column, and returns every age, exactly as
//!   that receiver applying the delta to views of its own would.

use std::collections::HashMap;
use std::ops::Range;

use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
use mf_core::malleable::FLOPS_PER_TICK;
use mf_core::mapping::{compute_mapping, StaticMapping};
use mf_core::parsim::{self, CoreHost};
use mf_core::proto::{initial_loads, Effect, Input, Msg, SchedulerCore};
use mf_core::views::{PeerView, StatusDelta, ViewTable, Views};
use mf_order::OrderingKind;
use mf_sim::engine::{Event, EventPayload, Sim};
use mf_sim::recorder::{id32, SchedEvent};
use mf_sim::{attribute_peaks, Recording, Time};
use mf_sparse::gen::grid::{grid2d, Stencil};
use mf_symbolic::seqstack::{apply_liu_order, AssemblyDiscipline};
use mf_symbolic::{AmalgamationOptions, AssemblyTree};
use proptest::prelude::*;

fn tree_for(nx: usize) -> AssemblyTree {
    let a = grid2d(nx, nx, Stencil::Star);
    let p = OrderingKind::Metis.compute(&a);
    let mut s = mf_symbolic::analyze(&a, &p, &AmalgamationOptions::default());
    apply_liu_order(&mut s.tree, AssemblyDiscipline::FrontThenFree);
    s.tree
}

fn strategy_cfg(which: usize, nprocs: usize) -> SolverConfig {
    let base = SolverConfig { type2_front_min: 24, ..SolverConfig::mumps_baseline(nprocs) };
    match which {
        0 => base,
        1 => base.with_memory_strategy(),
        _ => SolverConfig {
            slave_selection: SlaveSelection::Hybrid,
            task_selection: TaskSelection::MemoryAwareGlobal,
            ..base.with_memory_strategy()
        },
    }
}

/// The captured run: every effect in emission order, tagged with its
/// emitting processor and virtual time, plus each core's final peaks
/// and views.
struct Captured {
    effects: Vec<(usize, Time, Effect)>,
    /// The slice of `effects` each `handle` call emitted, in call order.
    steps: Vec<Range<usize>>,
    active_peaks: Vec<u64>,
    nodes_done: usize,
    views: Vec<Vec<PeerView>>,
}

/// Feeds one input into a core, captures the drained effects verbatim,
/// and performs only the transport/timer part (quiet model: exact
/// durations, no faults).
fn step(
    core: &mut SchedulerCore<'_>,
    sim: &mut Sim<Msg>,
    cfg: &SolverConfig,
    now: Time,
    input: Input,
    effects: &mut Vec<(usize, Time, Effect)>,
) -> Range<usize> {
    let p = core.id();
    let start = effects.len();
    for e in core.handle(now, input) {
        effects.push((p, now, e.clone()));
        match e {
            Effect::Send { to, msg, bytes } => cfg.network.send(sim, p, to, msg, bytes),
            Effect::Broadcast { msg, bytes } => {
                cfg.network.broadcast(sim, p, cfg.nprocs, msg, bytes)
            }
            Effect::StartCompute { key, flops, .. } => {
                sim.schedule_timer(p, (flops / FLOPS_PER_TICK).max(1), key)
            }
            Effect::Alloc { .. } | Effect::Free { .. } | Effect::Record(_) => {}
            // This harness drives quiet runs only: no recovery config, so
            // the cores never arm the failure detector.
            Effect::Arm { .. } | Effect::DeclareDead { .. } => {
                panic!("timer-protocol effect in a quiet run")
            }
        }
    }
    assert!(core.take_violation().is_none(), "protocol violation in a healthy run");
    start..effects.len()
}

/// Runs an uncapped, unperturbed factorization through the raw cores,
/// returning the complete effect stream.
fn drive(tree: &AssemblyTree, map: &StaticMapping, cfg: &SolverConfig) -> Captured {
    drive_with(tree, map, cfg, false, |_, _, _| {})
}

/// [`drive`], delivering status deltas either through `handle` like
/// every other message or — `status_direct` — through
/// [`SchedulerCore::apply_status`], with the harness building the
/// `StatusApply` record the way a block-delivering driver does. After
/// every `handle` call, `after_step` sees the core that stepped, the
/// slave block the input enrolled it for (entries, 0 if none) and the
/// effects the call emitted.
fn drive_with(
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
    status_direct: bool,
    mut after_step: impl FnMut(&SchedulerCore<'_>, u64, &[(usize, Time, Effect)]),
) -> Captured {
    let views = ViewTable::new(0..cfg.nprocs, &initial_loads(tree, map, cfg.nprocs));
    let mut cores: Vec<SchedulerCore<'_>> =
        (0..cfg.nprocs).map(|p| SchedulerCore::new(p, tree, map, cfg, &views)).collect();
    let mut sim: Sim<Msg> = Sim::new();
    let mut effects = Vec::new();
    let mut steps = Vec::new();
    for core in cores.iter_mut() {
        let emitted = step(core, &mut sim, cfg, 0, Input::Tick, &mut effects);
        after_step(core, 0, &effects[emitted.clone()]);
        steps.push(emitted);
    }
    while let Some(Event { at, payload }) = sim.next() {
        let (p, input) = match payload {
            EventPayload::Message { from, to, msg: Msg::Status(d) } if status_direct => {
                if let Some(age) = cores[to].apply_status(at, from, d) {
                    if cfg.record_events {
                        let ev = SchedEvent::StatusApply {
                            from: id32(from),
                            about: id32(d.about(from)),
                            kind: d.kind().0,
                            applied: Box::new(vec![(id32(to), age)]),
                        };
                        effects.push((to, at, Effect::Record(ev)));
                    }
                }
                continue;
            }
            EventPayload::Message { from, to, msg } => (to, Input::Deliver { from, msg }),
            EventPayload::Timer { proc, key } => (proc, Input::TimerFired { key }),
        };
        let enrolled = match &input {
            Input::Deliver { msg: Msg::SlaveTask { entries, .. }, .. } => *entries,
            _ => 0,
        };
        let emitted = step(&mut cores[p], &mut sim, cfg, at, input, &mut effects);
        after_step(&cores[p], enrolled, &effects[emitted.clone()]);
        steps.push(emitted);
    }
    Captured {
        effects,
        steps,
        active_peaks: cores.iter().map(|c| c.memory().active_peak()).collect(),
        nodes_done: cores.iter().map(|c| c.nodes_done()).sum(),
        views: cores.iter().map(|c| c.views().iter().collect()).collect(),
    }
}

proptest! {
    // Each case runs a full multi-processor factorization.
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// A core never emits `Send { to: itself }` (and never broadcasts to
    /// itself either — broadcast is expanded to the *other* processors by
    /// the transport). Self-delivery must stay an internal fast path.
    #[test]
    fn cores_never_send_to_themselves(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
    ) {
        let tree = tree_for(nx);
        let cfg = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let cap = drive(&tree, &map, &cfg);
        prop_assert_eq!(cap.nodes_done, tree.len());
        for (p, _, e) in &cap.effects {
            if let Effect::Send { to, .. } = e {
                prop_assert_ne!(to, p);
            }
        }
    }

    /// Memory effects balance exactly: on every (processor, node, area)
    /// account the `Free`s sum to the `Alloc`s by completion, and no
    /// account is ever freed below zero mid-run.
    #[test]
    fn every_alloc_is_matched_by_frees(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
    ) {
        let tree = tree_for(nx);
        let cfg = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let cap = drive(&tree, &map, &cfg);
        prop_assert_eq!(cap.nodes_done, tree.len());
        let mut outstanding: HashMap<(usize, usize, &'static str), u64> = HashMap::new();
        for (p, _, e) in &cap.effects {
            match e {
                Effect::Alloc { node, area, entries } => {
                    *outstanding.entry((*p, *node, area.name())).or_default() += entries;
                }
                Effect::Free { node, area, entries } => {
                    let slot = outstanding.entry((*p, *node, area.name())).or_default();
                    prop_assert!(
                        *slot >= *entries,
                        "proc {} freed {} of n{}/{} with only {} outstanding",
                        p, entries, node, area.name(), slot
                    );
                    *slot -= entries;
                }
                _ => {}
            }
        }
        for ((p, node, area), left) in outstanding {
            prop_assert_eq!(left, 0, "proc {} leaked n{}/{}", p, node, area);
        }
    }

    /// The effect stream carries the full memory story: replaying only
    /// the `Alloc`/`Free` effects through the recorder's attribution pass
    /// reproduces every processor's `active_peak` bit-exactly.
    #[test]
    fn effect_stream_replays_to_the_exact_peaks(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
    ) {
        let tree = tree_for(nx);
        let cfg = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let cap = drive(&tree, &map, &cfg);
        prop_assert_eq!(cap.nodes_done, tree.len());
        let mut rec = Recording::new(None);
        for (p, at, e) in &cap.effects {
            match *e {
                Effect::Alloc { node, area, entries } => {
                    rec.record(*at, SchedEvent::MemAlloc { proc: id32(*p), node: id32(node), area, entries });
                }
                Effect::Free { node, area, entries } => {
                    rec.record(*at, SchedEvent::MemFree { proc: id32(*p), node: id32(node), area, entries });
                }
                _ => {}
            }
        }
        let att = attribute_peaks(cfg.nprocs, &rec);
        for (p, a) in att.iter().enumerate() {
            prop_assert_eq!(a.peak, cap.active_peaks[p],
                "proc {}: replayed peak differs from the core's account", p);
            let sum: u64 = a.composition.iter().map(|it| it.entries).sum();
            prop_assert_eq!(sum, a.peak, "proc {}: composition must sum to the peak", p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// `apply_status` is `handle(Deliver { Status })` without the effect
    /// buffer: a machine fed its status deltas through either leaves
    /// every core in the same state — the same views and lease stamps at
    /// the end, and the same effect stream all along (every later
    /// decision, and with the recorder on every recorded staleness age,
    /// reads what the applies wrote). The direct machine's stream holds
    /// one `Record` per recorded apply and nothing else for a status
    /// delivery, so equality also says `handle` emits only that.
    #[test]
    fn apply_status_is_handle_without_the_effect_buffer(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
        record in any::<bool>(),
    ) {
        let tree = tree_for(nx);
        let cfg = SolverConfig { record_events: record, ..strategy_cfg(strategy, nprocs) };
        let map = compute_mapping(&tree, &cfg);
        let handled = drive(&tree, &map, &cfg);
        let direct = drive_with(&tree, &map, &cfg, true, |_, _, _| {});
        prop_assert_eq!(handled.nodes_done, tree.len());
        prop_assert!(handled.effects == direct.effects, "effect streams diverged");
        prop_assert!(handled.views == direct.views, "final views diverged");
        prop_assert_eq!(handled.active_peaks, direct.active_peaks);

    }
}

/// The foldable kind of a broadcast effect: `Mem`, `Load`, `Subtree` and
/// `Predicted` deltas fold, an `Assigned` (about a third party) and
/// everything that is not a status broadcast do not.
fn foldable_kind(e: &Effect) -> Option<std::mem::Discriminant<StatusDelta>> {
    match e {
        Effect::Broadcast { msg: Msg::Status(StatusDelta::Assigned { .. }), .. } => None,
        Effect::Broadcast { msg: Msg::Status(d), .. } => Some(std::mem::discriminant(d)),
        _ => None,
    }
}

/// What an omniscient zero-latency observer makes of a run: two `Views`
/// fed every step's status traffic the moment it is emitted — `folded`
/// applies the broadcasts as the cores emit them, `parts` applies one
/// `Mem` delta per memory movement instead (the `Alloc`/`Free` effects:
/// exactly the deltas the cores broadcast before same-kind deltas of a
/// step were folded) and every other kind as emitted.
struct Observer {
    folded: Views,
    parts: Views,
    /// Per processor, entries announced by an `Assigned` whose slave
    /// task has not been delivered yet.
    announced: Vec<u64>,
    /// `Mem` broadcasts whose parts cancelled out.
    zero_sum: usize,
}

impl Observer {
    fn agree(&self) -> bool {
        self.folded.iter().eq(self.parts.iter())
    }

    fn new(tree: &AssemblyTree, map: &StaticMapping, cfg: &SolverConfig) -> Self {
        let load0 = initial_loads(tree, map, cfg.nprocs);
        Observer {
            folded: Views::new(0, &load0),
            parts: Views::new(0, &load0),
            announced: vec![0; cfg.nprocs],
            zero_sum: 0,
        }
    }

    /// Applies one step of `core`, checking the two views against each
    /// other wherever a receiver could look — at every `Send` and at the
    /// end of the step — and then against what the core knows about
    /// itself.
    fn after_step(
        &mut self,
        core: &SchedulerCore<'_>,
        enrolled: u64,
        emitted: &[(usize, Time, Effect)],
    ) {
        let p = core.id();
        // The enrolment's own allocation, the first effect of its step,
        // is the one memory movement that was never broadcast: the
        // master's `Assigned` announced it.
        let mut silent = enrolled > 0;
        self.announced[p] -= enrolled;
        for (_, now, e) in emitted {
            match *e {
                Effect::Alloc { .. } if silent => silent = false,
                Effect::Alloc { entries, .. } if entries > 0 => {
                    self.parts.apply(p, StatusDelta::Mem { delta: entries as i64 }, *now);
                }
                Effect::Free { entries, .. } if entries > 0 => {
                    self.parts.apply(p, StatusDelta::Mem { delta: -(entries as i64) }, *now);
                }
                Effect::Broadcast { msg: Msg::Status(d), .. } => {
                    self.folded.apply(d.about(p), d, *now);
                    match d {
                        StatusDelta::Mem { delta } => self.zero_sum += (delta == 0) as usize,
                        StatusDelta::Assigned { proc, entries } => {
                            self.announced[proc] += entries;
                            self.parts.apply(proc, d, *now);
                        }
                        _ => {
                            self.parts.apply(p, d, *now);
                        }
                    }
                }
                Effect::Send { .. } => {
                    assert!(self.agree(), "proc {p}: a fold crossed a send");
                }
                _ => {}
            }
        }
        assert!(self.agree(), "proc {p}: folded deltas are not their parts");
        let (seen, own) = (self.folded.get(p), core.views().get(p));
        assert_eq!(seen.mem, own.mem + self.announced[p], "proc {p}: memory");
        assert_eq!(
            (seen.load, seen.subtree, seen.predicted),
            (own.load, own.subtree, own.predicted),
            "proc {p}: load, subtree peak, prediction"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// No `handle` output holds two status broadcasts of one foldable
    /// kind without a `Send` between them — on both lockstep machines,
    /// whatever sequence of inputs the run feeds each core.
    #[test]
    fn a_step_broadcasts_each_kind_once_between_sends(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
        status_direct in any::<bool>(),
    ) {
        let tree = tree_for(nx);
        let cfg = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let cap = drive_with(&tree, &map, &cfg, status_direct, |_, _, _| {});
        prop_assert_eq!(cap.nodes_done, tree.len());
        let mut broadcasts = 0usize;
        for emitted in &cap.steps {
            let mut since_send = Vec::new();
            for (p, _, e) in &cap.effects[emitted.clone()] {
                if matches!(e, Effect::Send { .. }) {
                    since_send.clear();
                } else if let Some(kind) = foldable_kind(e) {
                    prop_assert!(!since_send.contains(&kind), "proc {} repeats {:?}", p, e);
                    since_send.push(kind);
                    broadcasts += 1;
                }
            }
        }
        prop_assert!(broadcasts > 0);
    }

    /// Folding is exact: an observer applying each step's folded
    /// broadcasts holds, after every step, the `Views` it would hold had
    /// every memory movement been broadcast on its own — and the memory,
    /// load, subtree peak and prediction the stepping core keeps about
    /// itself.
    #[test]
    fn folded_broadcasts_apply_like_their_parts(
        strategy in 0usize..3,
        nprocs in 2usize..9,
        nx in 10usize..16,
    ) {
        let tree = tree_for(nx);
        let cfg = strategy_cfg(strategy, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let mut obs = Observer::new(&tree, &map, &cfg);
        let cap = drive_with(&tree, &map, &cfg, false, |core, enrolled, emitted| {
            obs.after_step(core, enrolled, emitted)
        });
        prop_assert_eq!(cap.nodes_done, tree.len());
        prop_assert!(obs.announced.iter().all(|&a| a == 0), "every enrolment was delivered");
    }
}

/// A step whose memory movements cancel out with no send in between —
/// here a finished front of 36 entries leaves, its contribution block of
/// 21 is stacked and the next front of 15 comes in — still broadcasts
/// its `Mem` delta of zero: the parts would have refreshed every
/// receiver's stamp for the sender, and so does their sum.
#[test]
fn a_fold_that_sums_to_zero_is_still_broadcast() {
    let tree = tree_for(15);
    let cfg = strategy_cfg(1, 3);
    let map = compute_mapping(&tree, &cfg);
    let mut obs = Observer::new(&tree, &map, &cfg);
    let cap = drive_with(&tree, &map, &cfg, false, |core, enrolled, emitted| {
        obs.after_step(core, enrolled, emitted)
    });
    assert_eq!(cap.nodes_done, tree.len());
    assert_eq!(obs.zero_sum, 1, "this run has one such step");
    let zero = Effect::Broadcast { msg: Msg::Status(StatusDelta::Mem { delta: 0 }), bytes: 16 };
    let emitted = cap
        .steps
        .iter()
        .map(|r| &cap.effects[r.clone()])
        .find(|emitted| emitted.iter().any(|(_, _, e)| *e == zero))
        .expect("the zero-sum broadcast is in some step");
    let (p, now, _) = emitted[0];
    let moved: Vec<i64> = emitted
        .iter()
        .filter_map(|(_, _, e)| match *e {
            Effect::Alloc { entries, .. } => Some(entries as i64),
            Effect::Free { entries, .. } => Some(-(entries as i64)),
            _ => None,
        })
        .collect();
    assert_eq!(moved, [-36, 21, 15]);
    assert!(
        !emitted.iter().any(|(_, _, e)| matches!(e, Effect::Send { .. })),
        "no send anywhere in this step"
    );
    // What a receiver makes of it: the belief stands, its stamp moves.
    let mut views = Views::new(0, &initial_loads(&tree, &map, cfg.nprocs));
    views.apply(p, StatusDelta::Mem { delta: 77 }, 1);
    views.apply(p, StatusDelta::Mem { delta: 0 }, now);
    let seen = views.get(p);
    assert_eq!((seen.mem, seen.updated_at), (77, now));
}

/// One broadcast of the sweep property from a raw draw: its sender and
/// a delta of any kind. Values run either side of zero, so increments
/// saturate below it; an `Assigned` names any processor — a third
/// party, the sender, or one of the receivers the block reaches.
fn broadcast_of(
    nprocs: usize,
    (from, kind, value, proc): (usize, u8, i64, usize),
) -> (usize, StatusDelta) {
    let size = value.unsigned_abs();
    let delta = match kind {
        0 => StatusDelta::Mem { delta: value },
        1 => StatusDelta::Load { delta: value },
        2 => StatusDelta::Subtree { peak: size },
        3 => StatusDelta::Predicted { cost: size },
        _ => StatusDelta::Assigned { proc: proc % nprocs, entries: size },
    };
    (from % nprocs, delta)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// A broadcast block delivered the way the run loop delivers it — one
    /// `apply_block` through the in-process host, whose targets are
    /// consecutive slots of one row of the shared table — is `P`
    /// independent receivers each stamping the sender's lease and applying
    /// the delta to views of their own (a threaded worker's one-column
    /// table), unless the delta is about the receiver itself: every
    /// pushed age, and at the end every receiver's whole column, slot for
    /// slot.
    #[test]
    fn a_row_sweep_is_every_receiver_applying_on_its_own(
        nprocs in 2usize..9,
        raw in prop::collection::vec((0usize..64, 0u8..5, -50_000i64..50_000, 0usize..64), 1..96),
        gaps in prop::collection::vec(0u64..40, 96),
    ) {
        let tree = tree_for(10);
        let cfg = strategy_cfg(1, nprocs);
        let map = compute_mapping(&tree, &cfg);
        let load0 = initial_loads(&tree, &map, nprocs);
        let mut host = parsim::local_cores(&tree, &map, &cfg);
        let mut own: Vec<Views> = (0..nprocs).map(|r| Views::new(r, &load0)).collect();
        let mut at = 0;
        for (&draw, gap) in raw.iter().zip(&gaps) {
            at += gap;
            let (from, delta) = broadcast_of(nprocs, draw);
            let mut swept = Vec::new();
            host.apply_block(at, from, delta, 0..nprocs, |_| false, Some(&mut swept));
            let mut applied = Vec::new();
            for to in (0..nprocs).filter(|&to| to != from) {
                let mine = &mut own[to];
                mine.hear(from, at);
                let about = delta.about(from);
                if about != to {
                    applied.push((id32(to), mine.apply(about, delta, at)));
                }
            }
            prop_assert_eq!(swept, applied, "{:?} from {}", delta, from);
        }
        for (r, core) in host.finish().iter().enumerate() {
            let (swept, mine): (Vec<_>, Vec<_>) = (core.views().iter().collect(), own[r].iter().collect());
            prop_assert_eq!(swept, mine, "receiver {}'s column", r);
        }
    }
}

/// The `Effect` enum is the core's hot currency: every message, memory
/// movement, and compute start moves through it. It was ~112 bytes when
/// `Record` carried a `SchedEvent` with four inline `Vec`s; with `u32`
/// ids and boxed payloads the event is 24 bytes, and this pin keeps the
/// enum at 64.
#[test]
fn effect_enum_stays_slim() {
    assert!(
        std::mem::size_of::<Effect>() <= 64,
        "Effect grew to {} bytes; keep Record payloads boxed/compact",
        std::mem::size_of::<Effect>()
    );
}
