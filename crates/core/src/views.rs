//! Asynchronous views of the other processors (Sections 4 and 5.1).
//!
//! Every processor maintains what it *believes* about the others: their
//! memory occupation (accumulated increments), their workload, the peak
//! of the subtree they are currently processing, and the cost of the
//! largest master task about to activate on them. All of it arrives by
//! message and is therefore stale by at least one network latency — the
//! coherence problem of Figure 5 is real in this simulator, not modeled
//! away.

use mf_sim::{StatusKind, Time};

/// One index-based status update: which belief slot changes and by how
/// much. This is the compact payload every status broadcast carries —
/// applying one touches exactly one field of one [`PeerView`] (plus its
/// staleness stamp), never a full-vector write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusDelta {
    /// Active-memory increment of the subject (Section 4).
    Mem {
        /// Signed change in active entries.
        delta: i64,
    },
    /// Workload increment of the subject (Section 3).
    Load {
        /// Signed change in flops still to do.
        delta: i64,
    },
    /// The subject entered (peak > 0) or left (0) a subtree (Section 5.1).
    Subtree {
        /// Absolute stack level the subject is heading to.
        peak: u64,
    },
    /// Cost of the largest master task about to activate on the subject
    /// (Section 5.1; absolute value, 0 when none).
    Predicted {
        /// Predicted activation cost in entries.
        cost: u64,
    },
    /// A master announces that it just assigned a slave block of
    /// `entries` to processor `proc` — the mechanism that makes masters'
    /// choices "known as quickly as possible by the others" (Section 4),
    /// without which concurrent masters pile work on the same processor.
    Assigned {
        /// The enrolled slave processor (the subject of this delta).
        proc: usize,
        /// Assigned block size in entries.
        entries: u64,
    },
}

impl StatusDelta {
    /// The processor this delta is *about*: the sender for everything
    /// except [`StatusDelta::Assigned`], which describes a third party.
    pub fn about(&self, sender: usize) -> usize {
        match *self {
            StatusDelta::Assigned { proc, .. } => proc,
            _ => sender,
        }
    }

    /// Recorder classification: the kind tag plus the signed magnitude.
    pub fn kind(&self) -> (StatusKind, i64) {
        match *self {
            StatusDelta::Mem { delta } => (StatusKind::MemDelta, delta),
            StatusDelta::Load { delta } => (StatusKind::LoadDelta, delta),
            StatusDelta::Subtree { peak } => (StatusKind::SubtreePeak, peak as i64),
            StatusDelta::Predicted { cost } => (StatusKind::Predicted, cost as i64),
            StatusDelta::Assigned { entries, .. } => (StatusKind::Assigned, entries as i64),
        }
    }
}

/// What one processor believes about one peer, plus when it last heard
/// from it: everything a delivered status delta touches, side by side in
/// 48 bytes, so an apply costs the receiver one cache line (two when the
/// entry straddles) whatever the machine size. Deliberately not padded
/// to a 64-byte line: a broadcast walks entry `from` of *every*
/// receiver's table, and power-of-two-sized tables put those entries in
/// the same cache sets (measured 2x slower at 1024 processors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeerView {
    /// Believed active memory (entries).
    pub mem: u64,
    /// Believed workload (flops still to do).
    pub load: u64,
    /// Believed memory *projection* of the peer's current subtree: the
    /// absolute level its stack will reach before the subtree ends (base
    /// memory at subtree entry + subtree peak; Section 5.1; 0 when the
    /// peer is not inside a subtree).
    pub subtree: u64,
    /// Believed cost of the largest master task about to activate on the
    /// peer (Section 5.1; 0 when none).
    pub predicted: u64,
    /// Instant this entry was last refreshed by an applied status
    /// message (0 until the first refresh). The gap between this and
    /// *now* is the view staleness of Figure 5 — the observability layer
    /// records it at every decision.
    pub updated_at: Time,
    /// Last time any message from the peer was delivered (the failure
    /// detector's lease stamp).
    pub last_heard: Time,
}

/// One processor's beliefs about the whole machine, indexed by processor
/// id (its own entry is kept exact by the state machine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Views {
    peers: Vec<PeerView>,
}

impl std::ops::Index<usize> for Views {
    type Output = PeerView;

    fn index(&self, p: usize) -> &PeerView {
        &self.peers[p]
    }
}

impl std::ops::IndexMut<usize> for Views {
    fn index_mut(&mut self, p: usize) -> &mut PeerView {
        &mut self.peers[p]
    }
}

impl Views {
    /// Fresh views of `nprocs` processors, with initial workloads.
    pub fn new(nprocs: usize, initial_load: &[u64]) -> Self {
        assert_eq!(initial_load.len(), nprocs);
        Views {
            peers: initial_load
                .iter()
                .map(|&load| PeerView { load, ..Default::default() })
                .collect(),
        }
    }

    /// Every processor's entry, in processor order.
    pub fn iter(&self) -> std::slice::Iter<'_, PeerView> {
        self.peers.iter()
    }

    /// Marks processor `p`'s entry as refreshed at `now`, returning the
    /// age of the belief it replaced.
    pub fn touch(&mut self, p: usize, now: Time) -> Time {
        let v = &mut self.peers[p];
        let age = now.saturating_sub(v.updated_at);
        v.updated_at = now;
        age
    }

    /// Ticks since processor `p`'s entry was last refreshed.
    pub fn age(&self, p: usize, now: Time) -> Time {
        now.saturating_sub(self.peers[p].updated_at)
    }

    /// Applies a (possibly negative) memory increment for processor `p`.
    pub fn apply_mem_delta(&mut self, p: usize, delta: i64) {
        let v = &mut self.peers[p];
        v.mem = add_signed(v.mem, delta);
    }

    /// Applies a workload increment for processor `p`.
    pub fn apply_load_delta(&mut self, p: usize, delta: i64) {
        let v = &mut self.peers[p];
        v.load = add_signed(v.load, delta);
    }

    /// Applies one status delta about processor `about`, stamping that
    /// entry's refresh instant and returning the age of the belief it
    /// replaced (the recorder's staleness figure). This is the single
    /// mutation path of the coherence protocol: one field of one
    /// [`PeerView`] plus its `updated_at`, regardless of the machine size.
    pub fn apply(&mut self, about: usize, delta: StatusDelta, now: Time) -> Time {
        let v = &mut self.peers[about];
        let age = now.saturating_sub(v.updated_at);
        v.updated_at = now;
        match delta {
            StatusDelta::Mem { delta } => v.mem = add_signed(v.mem, delta),
            StatusDelta::Load { delta } => v.load = add_signed(v.load, delta),
            StatusDelta::Subtree { peak } => v.subtree = peak,
            StatusDelta::Predicted { cost } => v.predicted = cost,
            StatusDelta::Assigned { entries, .. } => v.mem = add_signed(v.mem, entries as i64),
        }
        age
    }

    /// The memory metric of Algorithm 1 for processor `p`: instantaneous
    /// memory, raised to the announced subtree projection (the level the
    /// processor is known to be heading to), plus the predicted cost of
    /// its next master task when enabled (Section 5.1).
    pub fn memory_metric(&self, p: usize, use_subtree: bool, use_prediction: bool) -> u64 {
        let v = &self.peers[p];
        let mut m = v.mem;
        if use_subtree {
            m = m.max(v.subtree);
        }
        if use_prediction {
            m += v.predicted;
        }
        m
    }
}

fn add_signed(value: u64, delta: i64) -> u64 {
    if delta >= 0 {
        value + delta as u64
    } else {
        value.saturating_sub(delta.unsigned_abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One field of every entry, in processor order.
    fn col(v: &Views, f: impl Fn(&PeerView) -> u64) -> Vec<u64> {
        v.iter().map(f).collect()
    }

    #[test]
    fn deltas_accumulate() {
        let mut v = Views::new(3, &[0, 0, 0]);
        v.apply_mem_delta(1, 100);
        v.apply_mem_delta(1, -30);
        assert_eq!(v[1].mem, 70);
    }

    #[test]
    fn negative_overshoot_saturates() {
        // Out-of-order arrival can momentarily drive a believed value
        // negative; the view clamps instead of panicking.
        let mut v = Views::new(1, &[0]);
        v.apply_mem_delta(0, -5);
        assert_eq!(v[0].mem, 0);
    }

    #[test]
    fn metric_composition() {
        let mut v = Views::new(2, &[0, 0]);
        v[1] = PeerView { mem: 10, subtree: 100, predicted: 1000, ..v[1] };
        assert_eq!(v.memory_metric(1, false, false), 10);
        assert_eq!(v.memory_metric(1, true, false), 100);
        assert_eq!(v.memory_metric(1, false, true), 1010);
        assert_eq!(v.memory_metric(1, true, true), 1100);
    }

    #[test]
    fn initial_load_is_respected() {
        let v = Views::new(2, &[5, 7]);
        assert_eq!(col(&v, |p| p.load), vec![5, 7]);
    }

    #[test]
    fn apply_touches_exactly_one_slot() {
        let mut v = Views::new(3, &[0, 0, 0]);
        let age = v.apply(1, StatusDelta::Mem { delta: 40 }, 25);
        assert_eq!(age, 25, "replaced the initial (t=0) belief");
        assert_eq!(col(&v, |p| p.mem), vec![0, 40, 0]);
        assert_eq!(col(&v, |p| p.updated_at), vec![0, 25, 0]);
        v.apply(1, StatusDelta::Subtree { peak: 99 }, 30);
        assert_eq!(col(&v, |p| p.subtree), vec![0, 99, 0]);
        v.apply(1, StatusDelta::Predicted { cost: 7 }, 31);
        assert_eq!(col(&v, |p| p.predicted), vec![0, 7, 0]);
        v.apply(1, StatusDelta::Load { delta: -3 }, 32);
        assert_eq!(v[1].load, 0, "negative overshoot saturates through apply too");
        // Assigned credits the enrolled slave's memory belief.
        let age = v.apply(2, StatusDelta::Assigned { proc: 2, entries: 11 }, 40);
        assert_eq!(age, 40);
        assert_eq!(col(&v, |p| p.mem), vec![0, 40, 11]);
        assert_eq!(col(&v, |p| p.last_heard), vec![0; 3], "leases are the core's to stamp");
    }

    #[test]
    fn delta_subject_is_sender_except_assigned() {
        assert_eq!(StatusDelta::Mem { delta: 1 }.about(4), 4);
        assert_eq!(StatusDelta::Load { delta: 1 }.about(4), 4);
        assert_eq!(StatusDelta::Assigned { proc: 2, entries: 1 }.about(4), 2);
    }

    #[test]
    fn touch_tracks_staleness() {
        let mut v = Views::new(2, &[0, 0]);
        assert_eq!(v.age(1, 50), 50, "never refreshed: age since t=0");
        assert_eq!(v.touch(1, 50), 50);
        assert_eq!(v.age(1, 80), 30);
        assert_eq!(v.age(0, 80), 80, "other entries untouched");
    }
}
