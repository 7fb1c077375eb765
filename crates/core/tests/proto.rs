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
//!   reproduces every processor's `active_peak` bit-exactly.

use std::collections::HashMap;

use mf_core::config::{SlaveSelection, SolverConfig, TaskSelection};
use mf_core::mapping::{compute_mapping, StaticMapping};
use mf_core::proto::{initial_loads, Effect, Input, Msg, SchedulerCore};
use mf_core::views::Views;
use mf_order::OrderingKind;
use mf_sim::engine::{Event, EventPayload, Sim};
use mf_sim::recorder::SchedEvent;
use mf_sim::{attribute_peaks, CompactEvent, Recording, Time};
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
    active_peaks: Vec<u64>,
    nodes_done: usize,
    views: Vec<Views>,
}

/// Feeds one input into a core, captures the drained effects verbatim,
/// and performs only the transport/timer part (quiet model: exact
/// durations, no jitter, no faults).
fn step(
    core: &mut SchedulerCore<'_>,
    sim: &mut Sim<Msg>,
    cfg: &SolverConfig,
    now: Time,
    input: Input,
    effects: &mut Vec<(usize, Time, Effect)>,
) {
    let p = core.id();
    for e in core.handle(now, input) {
        effects.push((p, now, e.clone()));
        match e {
            Effect::Send { to, msg, bytes } => cfg.network.send(sim, p, to, msg, bytes),
            Effect::Broadcast { msg, bytes } => {
                cfg.network.broadcast(sim, p, cfg.nprocs, msg, bytes)
            }
            Effect::StartCompute { key, flops, .. } => {
                sim.schedule_timer(p, (flops / cfg.flops_per_tick.max(1)).max(1), key)
            }
            Effect::Alloc { .. } | Effect::Free { .. } | Effect::Record(_) => {}
            // This harness drives quiet runs only: no recovery config and
            // no sampling interval, so the cores never arm the failure
            // detector or the telemetry sampler.
            Effect::Arm { .. } | Effect::DeclareDead { .. } | Effect::Sample { .. } => {
                panic!("timer-protocol effect in a quiet run")
            }
        }
    }
    assert!(core.take_violation().is_none(), "protocol violation in a healthy run");
}

/// Runs an uncapped, unperturbed factorization through the raw cores,
/// returning the complete effect stream.
fn drive(tree: &AssemblyTree, map: &StaticMapping, cfg: &SolverConfig) -> Captured {
    drive_with(tree, map, cfg, false)
}

/// [`drive`], delivering status deltas either through `handle` like
/// every other message or — `status_direct` — through
/// [`SchedulerCore::apply_status`], with the harness building the
/// `StatusApply` record the way a block-delivering driver does.
fn drive_with(
    tree: &AssemblyTree,
    map: &StaticMapping,
    cfg: &SolverConfig,
    status_direct: bool,
) -> Captured {
    let load0 = initial_loads(tree, map, cfg.nprocs);
    let mut cores: Vec<SchedulerCore<'_>> =
        (0..cfg.nprocs).map(|p| SchedulerCore::new(p, tree, map, cfg, &load0)).collect();
    let mut sim: Sim<Msg> = Sim::new();
    let mut effects = Vec::new();
    for core in cores.iter_mut() {
        step(core, &mut sim, cfg, 0, Input::Tick, &mut effects);
    }
    while let Some(Event { at, payload }) = sim.next() {
        let (p, input) = match payload {
            EventPayload::Message { from, to, msg: Msg::Status(d) } if status_direct => {
                if let Some(age) = cores[to].apply_status(at, from, d) {
                    if cfg.record_events {
                        let ev =
                            CompactEvent::status_apply(to, from, d.about(from), d.kind().0, age);
                        effects.push((to, at, Effect::Record(ev)));
                    }
                }
                continue;
            }
            EventPayload::Message { from, to, msg } => (to, Input::Deliver { from, msg }),
            EventPayload::Timer { proc, key } => (proc, Input::TimerFired { key }),
        };
        step(&mut cores[p], &mut sim, cfg, at, input, &mut effects);
    }
    Captured {
        effects,
        active_peaks: cores.iter().map(|c| c.memory().active_peak()).collect(),
        nodes_done: cores.iter().map(|c| c.nodes_done()).sum(),
        views: cores.iter().map(|c| c.views().clone()).collect(),
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
                    rec.record(*at, SchedEvent::MemAlloc { proc: *p, node, area, entries });
                }
                Effect::Free { node, area, entries } => {
                    rec.record(*at, SchedEvent::MemFree { proc: *p, node, area, entries });
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
        let direct = drive_with(&tree, &map, &cfg, true);
        prop_assert_eq!(handled.nodes_done, tree.len());
        prop_assert!(handled.effects == direct.effects, "effect streams diverged");
        prop_assert!(handled.views == direct.views, "final views diverged");
        prop_assert_eq!(handled.active_peaks, direct.active_peaks);

    }
}

/// The `Effect` enum is the core's hot currency: every message, memory
/// movement, and compute start moves through it. The columnar recorder
/// rebuild shrank it from ~112 bytes (when `Record` carried `SchedEvent`
/// with four inline `Vec`s) to 64; this pin keeps it from growing back.
#[test]
fn effect_enum_stays_slim() {
    assert!(
        std::mem::size_of::<Effect>() <= 64,
        "Effect grew to {} bytes; keep Record payloads boxed/compact",
        std::mem::size_of::<Effect>()
    );
}
