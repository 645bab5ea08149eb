//! FIFO bandwidth resources.
//!
//! A resource models a serialising pipe: a NIC port, a NVLink/xGMI lane, a
//! PCIe link, a GPU copy engine, or shared-memory bandwidth. Transfers
//! queue FIFO and occupy the resource for `bytes / bandwidth`; delivery is
//! cut-through (`start + latency + bytes/bandwidth`). This closed-form
//! model needs no extra simulation events per queued transfer, which keeps
//! big collective benchmarks cheap while still capturing serialisation —
//! two messages racing for one NIC really do take twice as long.

use crate::time::{Dur, SimTime};

/// Handle to a registered resource.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Dense index of this resource, stable for the life of the sim.
    /// Usable as an opaque key (e.g. health vectors); resources are
    /// never deregistered so indices are never recycled.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Modelled times for one reserved transfer.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// When the transfer began occupying the resource.
    pub start: SimTime,
    /// When the resource becomes free again (`start + bytes/bw`).
    pub depart: SimTime,
    /// When the last byte arrives at the far side
    /// (`start + latency + bytes/bw`).
    pub arrive: SimTime,
}

#[derive(Debug)]
pub(crate) struct ResSlot {
    free_at: SimTime,
    bytes_per_ns: f64,
    latency: Dur,
    /// Cumulative bytes pushed through (for utilisation reporting).
    total_bytes: u64,
    /// The last nominal transfer's `(bytes, busy time)`. A link carries
    /// one chunk size over and over, and the division (plus the `ceil`,
    /// a library call on baseline x86-64) costs more than the rest of a
    /// reservation.
    last_busy: (u64, Dur),
}

impl ResSlot {
    pub(crate) fn new(bytes_per_ns: f64, latency: Dur) -> Self {
        assert!(bytes_per_ns > 0.0, "resource bandwidth must be positive");
        ResSlot {
            free_at: SimTime::ZERO,
            bytes_per_ns,
            latency,
            total_bytes: 0,
            last_busy: (0, Dur::ZERO),
        }
    }

    pub(crate) fn transfer(&mut self, now: SimTime, bytes: u64) -> Transfer {
        let start = now.max(self.free_at);
        if bytes != self.last_busy.0 {
            let busy = Dur::nanos((bytes as f64 / self.bytes_per_ns).ceil() as u64);
            self.last_busy = (bytes, busy);
        }
        let busy = self.last_busy.1;
        let depart = start + busy;
        self.free_at = depart;
        self.total_bytes += bytes;
        Transfer { start, depart, arrive: start + self.latency + busy }
    }

    /// Like `transfer`, but the payload is only ready at `at` (chained
    /// stages of a staged copy, or post-software-overhead NIC injection).
    pub(crate) fn transfer_from(&mut self, now: SimTime, at: SimTime, bytes: u64) -> Transfer {
        self.transfer(now.max(at), bytes)
    }

    /// Fault-injected reservation: bandwidth scaled to `factor_milli`/1000
    /// of nominal and `extra` delivery latency added. `total_bytes` still
    /// counts the logical payload, so utilisation reporting is unchanged.
    pub(crate) fn transfer_faulted(
        &mut self,
        now: SimTime,
        at: SimTime,
        bytes: u64,
        factor_milli: u32,
        extra: Dur,
    ) -> Transfer {
        let start = now.max(at).max(self.free_at);
        let nominal = bytes as f64 / self.bytes_per_ns;
        let busy = Dur::nanos((nominal * 1000.0 / factor_milli.max(1) as f64).ceil() as u64);
        let depart = start + busy;
        self.free_at = depart;
        self.total_bytes += bytes;
        Transfer { start, depart, arrive: start + self.latency + busy + extra }
    }

    /// Control-lane reservation: a packet of `bytes` (a request, an
    /// acknowledgement, RTS/CTS) ready at `at` is priced as a payload on
    /// an idle link, fault window included, and neither waits for nor
    /// advances `free_at` — a NIC interleaves a 64-byte packet within
    /// one MTU of whatever bulk payload it is streaming.
    pub(crate) fn control(&mut self, at: SimTime, bytes: u64, milli: u32, extra: Dur) -> SimTime {
        let bulk = std::mem::replace(&mut self.free_at, SimTime::ZERO);
        let arrive = self.transfer_faulted(at, at, bytes, milli, extra).arrive;
        self.free_at = bulk;
        arrive
    }

    pub(crate) fn free_at(&self) -> SimTime {
        self.free_at
    }

    pub(crate) fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    pub(crate) fn bytes_per_ns(&self) -> f64 {
        self.bytes_per_ns
    }

    pub(crate) fn latency(&self) -> Dur {
        self.latency
    }

    /// Count logical payload bytes for utilisation reporting without a
    /// closed-form reservation (the WFQ path serves bytes fluidly).
    pub(crate) fn note_bytes(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    /// Advance the serial `free_at` watermark to a WFQ departure so the
    /// fault injector's window estimate stays anchored to real activity.
    pub(crate) fn bump_free_at(&mut self, t: SimTime) {
        self.free_at = self.free_at.max(t);
    }

    /// Apply `steps` structurally identical reservations in one charge:
    /// the `free_at` watermark advances by `shift` per step and the
    /// utilisation counter absorbs `bytes_per_step` per step. Used by the
    /// collective march's jump over the repeats of a rigid period, where
    /// every step reserves the same bytes one shift later.
    pub(crate) fn bulk_advance(&mut self, shift: Dur, steps: u64, bytes_per_step: u64) {
        self.free_at += Dur::nanos(shift.as_nanos() * steps);
        self.total_bytes += bytes_per_step * steps;
    }
}

/// Convert a link speed in GB/s (10^9 bytes per second) to the internal
/// bytes-per-nanosecond unit.
#[inline]
pub fn gbps(gigabytes_per_sec: f64) -> f64 {
    // 1 GB/s = 1e9 B / 1e9 ns = 1 B/ns.
    gigabytes_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_cut_through() {
        let mut r = ResSlot::new(1.0, Dur::nanos(100)); // 1 B/ns, 100 ns latency
        let t = r.transfer(SimTime(0), 1000);
        assert_eq!(t.start, SimTime(0));
        assert_eq!(t.depart, SimTime(1000));
        assert_eq!(t.arrive, SimTime(1100));
    }

    #[test]
    fn back_to_back_transfers_serialise() {
        let mut r = ResSlot::new(2.0, Dur::nanos(10));
        let a = r.transfer(SimTime(0), 100); // busy 50 ns
        let b = r.transfer(SimTime(0), 100); // queued behind a
        assert_eq!(a.depart, SimTime(50));
        assert_eq!(b.start, SimTime(50));
        assert_eq!(b.arrive, SimTime(50 + 10 + 50));
    }

    #[test]
    fn remembered_busy_time_is_the_computed_one() {
        // 3 B/ns: 0 and 9 bytes divide evenly, 10 and 7 round up. Repeats,
        // switches and a return to an earlier size all price like a
        // fresh link does.
        let mut r = ResSlot::new(3.0, Dur::ZERO);
        for bytes in [0, 10, 10, 7, 10, 9, 9, 0, 7] {
            let t = r.transfer(SimTime(0), bytes);
            let mut fresh = ResSlot::new(3.0, Dur::ZERO);
            let want = fresh.transfer(SimTime(0), bytes).depart.nanos();
            assert_eq!((t.depart - t.start).as_nanos(), want, "{bytes} B");
        }
    }

    #[test]
    fn idle_gap_resets_start() {
        let mut r = ResSlot::new(1.0, Dur::ZERO);
        let _ = r.transfer(SimTime(0), 10);
        let b = r.transfer(SimTime(1000), 10);
        assert_eq!(b.start, SimTime(1000));
    }

    #[test]
    fn faulted_transfer_scales_bandwidth_and_adds_latency() {
        let mut r = ResSlot::new(1.0, Dur::nanos(100));
        let t = r.transfer_faulted(SimTime(0), SimTime(0), 1000, 500, Dur::nanos(30));
        assert_eq!(t.start, SimTime(0));
        assert_eq!(t.depart, SimTime(2000), "half bandwidth doubles the busy time");
        assert_eq!(t.arrive, SimTime(2130));
        // Nominal factor with no extra reproduces the clean closed form.
        let mut clean = ResSlot::new(1.0, Dur::nanos(100));
        let c = clean.transfer_faulted(SimTime(0), SimTime(0), 1000, 1000, Dur::ZERO);
        assert_eq!((c.start, c.depart, c.arrive), (SimTime(0), SimTime(1000), SimTime(1100)));
    }

    #[test]
    fn unit_helpers() {
        assert!((gbps(25.0) - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = ResSlot::new(0.0, Dur::ZERO);
    }
}
