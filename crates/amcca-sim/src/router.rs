//! Per-cell mesh router.
//!
//! Each compute cell has a router with six input FIFOs: one per mesh
//! direction (flits arriving from the four neighbours), one *local* port
//! (operons staged by this cell's `propagate`), and one *IO* port (operons
//! injected by an attached IO cell). Outputs are the four mesh links plus an
//! ejection port that delivers arrived operons into the cell's task queue.
//!
//! Flow control is conservative credit-based store-and-forward: a flit moves
//! one hop per cycle if the downstream FIFO had a free slot at the start of
//! the cycle; each output port forwards at most one flit per cycle; input
//! ports are served round-robin. Combined with YX dimension-ordered routing
//! (no X→Y turns) this is deadlock-free.

use std::collections::VecDeque;

use crate::operon::Operon;

/// Input-port indices. Ports 0–3 match [`crate::geom::Direction`] indices.
pub const PORT_NORTH: usize = 0;
/// `PORT_SOUTH` constant.
pub const PORT_SOUTH: usize = 1;
/// `PORT_EAST` constant.
pub const PORT_EAST: usize = 2;
/// `PORT_WEST` constant.
pub const PORT_WEST: usize = 3;
/// Injection port for operons staged by the local compute cell.
pub const PORT_LOCAL: usize = 4;
/// Injection port for the attached IO cell (border cells only).
pub const PORT_IO: usize = 5;
/// `NUM_PORTS` constant.
pub const NUM_PORTS: usize = 6;

/// Output-port indices: 0–3 mesh directions, 4 ejection to the local cell.
pub const OUT_EJECT: usize = 4;
/// `NUM_OUTPUTS` constant.
pub const NUM_OUTPUTS: usize = 5;

#[derive(Debug)]
/// Per-cell router state: six input FIFOs plus the cycle snapshot.
pub struct Router {
    bufs: [VecDeque<Operon>; NUM_PORTS],
    /// Occupancy snapshot taken at the start of the network phase; used for
    /// conservative acceptance so a slot freed this cycle is reusable only
    /// next cycle.
    start_len: [u16; NUM_PORTS],
    total: u32,
    capacity: usize,
}

impl Router {
    /// Create a router whose FIFOs hold `capacity` flits each.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "router FIFOs need at least one slot");
        Router { bufs: Default::default(), start_len: [0; NUM_PORTS], total: 0, capacity }
    }

    /// Total flits currently buffered in this router.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// FIFO capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot FIFO occupancies for this cycle's acceptance decisions.
    ///
    /// The sequential engine snapshots only routers in its net-live set, so
    /// a router it skips must already read as a freshly snapshotted empty
    /// one: [`Router::is_drained`]. A router is dropped from the set only by
    /// the `begin_cycle` that finds it empty, which zeroes the snapshot.
    #[inline]
    pub fn begin_cycle(&mut self) {
        for (s, b) in self.start_len.iter_mut().zip(&self.bufs) {
            *s = b.len() as u16;
        }
    }

    /// Would a flit pushed to `port` this cycle respect the snapshot credit?
    /// Neighbours call this on routers that may not have been snapshotted
    /// this cycle; such a router is drained, and an all-zero snapshot answers
    /// exactly what a fresh one of an empty router would.
    #[inline]
    pub fn accepts(&self, port: usize) -> bool {
        (self.start_len[port] as usize) < self.capacity
    }

    /// No flit buffered and an all-zero credit snapshot: indistinguishable,
    /// to itself and its neighbours, from an empty router snapshotted this
    /// cycle.
    #[inline]
    pub fn is_drained(&self) -> bool {
        self.total == 0 && self.start_len == [0; NUM_PORTS]
    }

    /// Can an injection port (local / IO) take a flit right now? Injections
    /// happen after the network phase, so they check live occupancy.
    #[inline]
    pub fn accepts_now(&self, port: usize) -> bool {
        self.bufs[port].len() < self.capacity
    }

    #[inline]
    /// Peek the head flit of `port`.
    pub fn front(&self, port: usize) -> Option<&Operon> {
        self.bufs[port].front()
    }

    #[inline]
    /// Append a flit to `port` (caller checked acceptance).
    pub fn push(&mut self, port: usize, op: Operon) {
        debug_assert!(self.bufs[port].len() < self.capacity, "router FIFO overflow");
        self.bufs[port].push_back(op);
        self.total += 1;
    }

    /// Remove and return the head flit of `port` (panics if empty).
    #[inline]
    pub fn pop(&mut self, port: usize) -> Operon {
        let op = self.bufs[port].pop_front().expect("pop from empty router FIFO");
        self.total -= 1;
        op
    }

    /// Current number of flits buffered at `port`.
    pub fn occupancy(&self, port: usize) -> usize {
        self.bufs[port].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operon::{Address, Operon};

    fn op(n: u32) -> Operon {
        Operon::new(Address::new(0, n), 1, [0, 0])
    }

    #[test]
    fn push_pop_total() {
        let mut r = Router::new(4);
        r.push(PORT_LOCAL, op(1));
        r.push(PORT_NORTH, op(2));
        assert_eq!(r.total(), 2);
        assert_eq!(r.pop(PORT_LOCAL).target.slot, 1);
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn snapshot_acceptance_is_conservative() {
        let mut r = Router::new(2);
        r.push(PORT_EAST, op(1));
        r.push(PORT_EAST, op(2));
        r.begin_cycle();
        assert!(!r.accepts(PORT_EAST), "full at snapshot");
        // Draining during the cycle does not open the credit until next cycle.
        r.pop(PORT_EAST);
        assert!(!r.accepts(PORT_EAST));
        r.begin_cycle();
        assert!(r.accepts(PORT_EAST), "credit visible after new snapshot");
    }

    #[test]
    fn live_acceptance_for_injection_ports() {
        let mut r = Router::new(1);
        assert!(r.accepts_now(PORT_LOCAL));
        r.push(PORT_LOCAL, op(1));
        assert!(!r.accepts_now(PORT_LOCAL));
        r.pop(PORT_LOCAL);
        assert!(r.accepts_now(PORT_LOCAL));
    }
}
