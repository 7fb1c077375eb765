//! Seeded, deterministic fault injection for the simulated network and
//! processors.
//!
//! The paper's central claim is that memory-based scheduling keeps the
//! per-processor stack peaks low *despite stale views*: every metric a
//! master reacts to travelled as a delayed message (Sections 4 and 5.1).
//! The [`FaultModel`] lets the experiments make the views arbitrarily
//! staler than the happy path — latency jitter, bounded extra delay (and
//! therefore reordering), straggler processors, and probabilistic loss of
//! *idempotent status messages* — while keeping every run a pure function
//! of `(inputs, seed)`.
//!
//! The model deliberately distinguishes two classes of traffic:
//!
//! * [`MsgClass::Status`] — monotone view updates (memory/load deltas,
//!   subtree peaks, predictions, assignment announcements). Losing one
//!   only makes a view staler; the factorization still terminates with
//!   the same factors.
//! * [`MsgClass::Control`] — protocol messages that carry obligations
//!   (task payloads, completions, contribution-block fetches). These are
//!   delayed and jittered but **never dropped**, so perturbed runs stay
//!   correct, only slower and more memory-hungry.
//!
//! The only exception is [`FaultModel::kill_network_after`], a testing
//! hook that silences the network entirely after a message budget — the
//! canonical way to force a stall and exercise the engine's no-progress
//! watchdog.

use crate::engine::Time;

/// Delivery class of a message, chosen by the protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Carries an obligation; may be delayed, never dropped.
    Control,
    /// Idempotent view refresh; may be delayed *or dropped*.
    Status,
}

/// Configuration of the injected perturbations. All randomness derives
/// from `seed` through a counter-based stream, so two runs with the same
/// model and the same (deterministic) simulation are bit-identical.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// Seed of the perturbation stream.
    pub seed: u64,
    /// One-sided multiplicative latency jitter: each transfer time is
    /// scaled by a factor uniform in `[1, 1 + latency_jitter]`.
    pub latency_jitter: f64,
    /// Additional per-message delay, uniform in `0..=max_extra_delay`
    /// ticks. Distinct messages draw independently, so messages sent in
    /// one order can arrive in another (bounded reordering).
    pub max_extra_delay: Time,
    /// Probability of dropping a [`MsgClass::Status`] message.
    pub drop_status_prob: f64,
    /// Per-processor compute slowdown factors (`>= 1.0`); processors not
    /// listed run at nominal speed.
    pub stragglers: Vec<(usize, f64)>,
    /// Testing hook: after this many routed messages the network goes
    /// silent and drops **everything**, control included. Used to inject
    /// an artificial partition for watchdog tests; leave `None` otherwise.
    pub kill_network_after: Option<u64>,
    /// Processor-loss schedule: `(delivered-event index, proc)` pairs.
    /// When the driver's delivered-event counter reaches the index, the
    /// processor fail-stops: its pending and future events are discarded
    /// and (on the threads backend) its worker thread dies. Keyed by
    /// event index rather than time so both backends kill at the exact
    /// same point of the causal order.
    pub kill_at: Vec<(u64, usize)>,
    /// Processor-join schedule: `(delivered-event index, proc)` pairs.
    /// The processor exists from the start of the run but stays dormant
    /// (not believed alive, receives nothing) until the index is reached,
    /// then boots, replays the recovery plans applied so far and takes
    /// work through the normal scheduling paths.
    pub join_at: Vec<(u64, usize)>,
}

impl FaultModel {
    /// A model that perturbs nothing (useful as a base for struct update
    /// syntax).
    pub fn quiet(seed: u64) -> Self {
        FaultModel {
            seed,
            latency_jitter: 0.0,
            max_extra_delay: 0,
            drop_status_prob: 0.0,
            stragglers: Vec::new(),
            kill_network_after: None,
            kill_at: Vec::new(),
            join_at: Vec::new(),
        }
    }

    /// The graduated perturbation ladder of the robustness sweep:
    /// `level = 0` is the quiet model, and each unit of `level` adds 50%
    /// latency jitter, 250 ticks of possible extra delay, 12.5% status
    /// loss (capped at 60%), and slows processor 1 down by 0.5x.
    pub fn intensity(seed: u64, level: f64) -> Self {
        let level = level.max(0.0);
        FaultModel {
            seed,
            latency_jitter: 0.5 * level,
            max_extra_delay: (250.0 * level) as Time,
            drop_status_prob: (0.125 * level).min(0.6),
            stragglers: if level >= 3.0 { vec![(1, 1.0 + 0.5 * level)] } else { Vec::new() },
            kill_network_after: None,
            kill_at: Vec::new(),
            join_at: Vec::new(),
        }
    }

    /// True when the model can touch an individual message or compute
    /// duration: per-message noise (see [`FaultModel::is_message_quiet`])
    /// or the `kill_network_after` partition. Only such a model needs a
    /// [`FaultInjector`]; kill and join schedules are membership changes,
    /// which the run loop executes itself.
    pub fn perturbs_messages(&self) -> bool {
        !self.is_message_quiet() || self.kill_network_after.is_some()
    }

    /// True when *per-message* perturbations are all neutral: no jitter,
    /// delay, status loss, or stragglers. Membership faults (`kill_at`,
    /// `join_at`, `kill_network_after`) are allowed — they are discrete,
    /// deterministic schedule points rather than per-message noise, which
    /// is what the threads backend can execute faithfully.
    pub fn is_message_quiet(&self) -> bool {
        self.latency_jitter == 0.0
            && self.max_extra_delay == 0
            && self.drop_status_prob == 0.0
            && self.stragglers.iter().all(|&(_, f)| f <= 1.0)
    }

    /// Compute slowdown of processor `proc` (`1.0` when not a straggler).
    pub fn speed_factor(&self, proc: usize) -> f64 {
        self.stragglers.iter().find(|&&(p, _)| p == proc).map_or(1.0, |&(_, f)| f.max(1.0))
    }
}

/// Stateful injector: owns the deterministic perturbation stream for one
/// simulation run.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    model: FaultModel,
    counter: u64,
    routed: u64,
}

impl FaultInjector {
    /// Fresh injector for one run of `model`.
    pub fn new(model: FaultModel) -> Self {
        FaultInjector { model, counter: 0, routed: 0 }
    }

    /// The model driving this injector.
    pub fn model(&self) -> &FaultModel {
        &self.model
    }

    /// True once the `kill_network_after` budget is exhausted: every
    /// subsequent message (control included) is being dropped, so the run
    /// is partitioned and can only end in
    /// `SimError::Partitioned`-style diagnostics.
    pub fn partitioned(&self) -> bool {
        self.model.kill_network_after.is_some_and(|k| self.routed > k)
    }

    /// Next value of the counter-based stream in `[0, 1)`
    /// (splitmix64 finalizer — no state besides the counter).
    fn next_f64(&mut self) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        let mut z = self.model.seed ^ self.counter.wrapping_mul(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Routes one message with nominal transfer time `base`: returns the
    /// perturbed transfer time, or `None` when the message is dropped.
    pub fn route(&mut self, base: Time, class: MsgClass) -> Option<Time> {
        self.routed += 1;
        if self.model.kill_network_after.is_some_and(|k| self.routed > k) {
            return None;
        }
        if class == MsgClass::Status
            && self.model.drop_status_prob > 0.0
            && self.next_f64() < self.model.drop_status_prob
        {
            return None;
        }
        let mut t = base;
        if self.model.latency_jitter > 0.0 {
            let factor = 1.0 + self.model.latency_jitter * self.next_f64();
            t = (t as f64 * factor).round() as Time;
        }
        if self.model.max_extra_delay > 0 {
            let span = self.model.max_extra_delay + 1;
            t += (self.next_f64() * span as f64) as Time;
        }
        Some(t)
    }

    /// Compute slowdown of processor `proc` (forwarded from the model).
    pub fn speed_factor(&self, proc: usize) -> f64 {
        self.model.speed_factor(proc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_model_is_transparent() {
        let mut inj = FaultInjector::new(FaultModel::quiet(7));
        for bytes in [0u64, 1, 20, 1000] {
            assert_eq!(inj.route(bytes, MsgClass::Status), Some(bytes));
            assert_eq!(inj.route(bytes, MsgClass::Control), Some(bytes));
        }
        assert!(!FaultModel::quiet(7).perturbs_messages());
        assert!(FaultModel::intensity(7, 2.0).perturbs_messages());
    }

    #[test]
    fn same_seed_same_stream() {
        let model = FaultModel::intensity(42, 3.0);
        let mut a = FaultInjector::new(model.clone());
        let mut b = FaultInjector::new(model);
        for i in 0..1000u64 {
            let class = if i % 3 == 0 { MsgClass::Control } else { MsgClass::Status };
            assert_eq!(a.route(20 + i % 7, class), b.route(20 + i % 7, class));
        }
    }

    #[test]
    fn control_messages_are_never_dropped() {
        let model = FaultModel { drop_status_prob: 1.0, ..FaultModel::quiet(3) };
        let mut inj = FaultInjector::new(model);
        for _ in 0..100 {
            assert!(inj.route(20, MsgClass::Control).is_some());
            assert!(inj.route(20, MsgClass::Status).is_none());
        }
    }

    #[test]
    fn delays_are_bounded() {
        let model =
            FaultModel { latency_jitter: 0.5, max_extra_delay: 100, ..FaultModel::quiet(11) };
        let mut inj = FaultInjector::new(model);
        for _ in 0..1000 {
            let t = inj.route(40, MsgClass::Control).unwrap();
            assert!((40..=40 + 20 + 100).contains(&t), "t={t}");
        }
    }

    #[test]
    fn kill_switch_silences_everything() {
        let model = FaultModel { kill_network_after: Some(5), ..FaultModel::quiet(1) };
        let mut inj = FaultInjector::new(model);
        for i in 0..10u64 {
            let was_partitioned = inj.partitioned();
            assert_eq!(was_partitioned, i > 5, "before message {i}");
            let routed = inj.route(20, MsgClass::Control).is_some();
            assert_eq!(routed, i < 5, "message {i}");
        }
        assert!(inj.partitioned());
    }

    /// Kill and join schedules change the run but touch no message: they
    /// need no injector. The network kill switch does, although it is no
    /// per-message noise, and so does every noise knob.
    #[test]
    fn membership_schedules_break_quietness_but_not_message_quietness() {
        let mut m = FaultModel::quiet(3);
        assert!(m.is_message_quiet() && !m.perturbs_messages());
        m.kill_at = vec![(100, 2)];
        m.join_at = vec![(50, 1)];
        assert!(m.is_message_quiet(), "a kill/join schedule perturbs no individual message");
        assert!(!m.perturbs_messages(), "so it needs no injector");
        let cut = FaultModel { kill_network_after: Some(u64::MAX), ..m };
        assert!(cut.is_message_quiet() && cut.perturbs_messages());
        let noisy = FaultModel::intensity(3, 2.0);
        assert!(!noisy.is_message_quiet() && noisy.perturbs_messages());
        let slow = FaultModel { stragglers: vec![(1, 1.5)], ..FaultModel::quiet(3) };
        assert!(slow.perturbs_messages(), "a straggler's durations come from the injector");
    }

    #[test]
    fn stragglers_slow_only_their_processor() {
        let model = FaultModel { stragglers: vec![(2, 2.5)], ..FaultModel::quiet(0) };
        assert_eq!(model.speed_factor(0), 1.0);
        assert_eq!(model.speed_factor(2), 2.5);
        // Sub-1.0 factors are clamped (stragglers only slow down).
        let m2 = FaultModel { stragglers: vec![(1, 0.25)], ..FaultModel::quiet(0) };
        assert_eq!(m2.speed_factor(1), 1.0);
    }
}
