//! Message-passing cost model.

use crate::engine::{EventPayload, Sim, Time};

/// Linear latency + bandwidth network model (the classic α-β model):
/// a message of `bytes` arrives `latency + bytes / bytes_per_tick` after
/// it is sent. All pairs are equidistant, like a switched SP system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkModel {
    /// Fixed per-message latency (ticks).
    pub latency: Time,
    /// Bandwidth (bytes per tick); `u64::MAX` means infinite.
    pub bytes_per_tick: u64,
}

impl NetworkModel {
    /// IBM-SP-like defaults with 1 tick = 1 µs: ~20 µs latency,
    /// ~350 MB/s ≈ 350 bytes/µs.
    pub fn sp_like() -> Self {
        NetworkModel { latency: 20, bytes_per_tick: 350 }
    }

    /// Zero-cost network (useful to isolate scheduling effects in tests).
    pub fn instantaneous() -> Self {
        NetworkModel { latency: 0, bytes_per_tick: u64::MAX }
    }

    /// Transfer time of a message of `bytes`. Partial ticks cost a full
    /// tick (`div_ceil`): a 16-byte status broadcast at 350 B/tick takes
    /// `latency + 1`, not `latency + 0` — on-the-wire bytes are never
    /// free just because they fit inside one bandwidth quantum.
    pub fn transfer_time(&self, bytes: u64) -> Time {
        if self.bytes_per_tick == u64::MAX {
            self.latency
        } else {
            self.latency + bytes.div_ceil(self.bytes_per_tick.max(1))
        }
    }

    /// Sends `msg` of `bytes` from `from` to `to` through `sim`.
    ///
    /// Self-sends are delivered after the latency too (MUMPS treats local
    /// task messages uniformly), keeping event ordering uniform.
    pub fn send<M>(&self, sim: &mut Sim<M>, from: usize, to: usize, msg: M, bytes: u64) {
        sim.schedule(self.transfer_time(bytes), EventPayload::Message { from, to, msg });
    }

    /// Broadcasts clones of `msg` to every processor in `0..nprocs`
    /// except `from` (the usual "inform the others" pattern). Delivery
    /// order and times are exactly those of per-target [`Self::send`]
    /// calls in ascending target order, but the whole block costs one
    /// queue entry (see [`Sim::schedule_broadcast`]).
    pub fn broadcast<M>(&self, sim: &mut Sim<M>, from: usize, nprocs: usize, msg: M, bytes: u64) {
        sim.schedule_broadcast(self.transfer_time(bytes), from, nprocs, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_includes_bandwidth() {
        let net = NetworkModel { latency: 10, bytes_per_tick: 100 };
        assert_eq!(net.transfer_time(0), 10);
        assert_eq!(net.transfer_time(1000), 20);
    }

    #[test]
    fn partial_ticks_cost_a_tick() {
        let net = NetworkModel { latency: 10, bytes_per_tick: 100 };
        assert_eq!(net.transfer_time(1), 11);
        assert_eq!(net.transfer_time(99), 11);
        assert_eq!(net.transfer_time(101), 12);
        // The 16-byte status broadcasts of the SP-like model are no
        // longer latency-only.
        let sp = NetworkModel::sp_like();
        assert_eq!(sp.transfer_time(16), sp.latency + 1);
    }

    #[test]
    fn instantaneous_ignores_size() {
        let net = NetworkModel::instantaneous();
        assert_eq!(net.transfer_time(u64::MAX / 2), 0);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let net = NetworkModel::instantaneous();
        let mut sim: Sim<u8> = Sim::new();
        net.broadcast(&mut sim, 1, 4, 42, 8);
        let mut tos = Vec::new();
        for e in sim {
            if let EventPayload::Message { from, to, msg } = e.payload {
                assert_eq!(from, 1);
                assert_eq!(msg, 42);
                tos.push(to);
            }
        }
        tos.sort_unstable();
        assert_eq!(tos, vec![0, 2, 3]);
    }

    #[test]
    fn send_arrival_time_is_now_plus_transfer() {
        let net = NetworkModel { latency: 5, bytes_per_tick: u64::MAX };
        let mut sim: Sim<u8> = Sim::new();
        sim.schedule(7, EventPayload::Timer { proc: 0, key: 0 });
        sim.next();
        net.send(&mut sim, 0, 1, 9, 100);
        let e = sim.next().unwrap();
        assert_eq!(e.at, 12);
    }
}
