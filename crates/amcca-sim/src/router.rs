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
//!
//! The six FIFOs are rings in one block of `6 × link_buffer` slots allocated
//! with the router. Every queued flit carries the output it must take
//! ([`crate::geom::MeshTable::route`]), computed once by whoever pushes it: a
//! waiting flit does not move, so the arbiter reads six cached head codes
//! instead of re-routing every head on every cycle it stalls.

use crate::geom::OutCode;
use crate::operon::{Address, Operon};

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

/// Head code of an empty port (after the route codes of [`crate::geom`]).
pub const OUT_NONE: OutCode = 6;
/// Number of distinct head codes: four links, eject, bad target, empty.
pub const NUM_CODES: usize = 7;

/// Largest FIFO capacity the ring indices (`u16`) can hold.
pub const MAX_LINK_BUFFER: usize = u16::MAX as usize;

#[derive(Debug)]
/// Per-cell router state: six input FIFOs plus the cycle snapshot.
pub struct Router {
    /// Port `p` owns slots `p * cap .. (p + 1) * cap`, used as a ring.
    slots: Box<[Operon]>,
    /// Output code of the flit in each slot.
    outs: Box<[OutCode]>,
    head: [u16; NUM_PORTS],
    len: [u16; NUM_PORTS],
    /// Occupancy snapshot taken at the start of the network phase; used for
    /// conservative acceptance so a slot freed this cycle is reusable only
    /// next cycle.
    start_len: [u16; NUM_PORTS],
    /// Output code of each port's head flit, [`OUT_NONE`] when empty.
    head_out: [OutCode; NUM_PORTS],
    total: u32,
    cap: u16,
}

impl Router {
    /// Create a router whose FIFOs hold `capacity` flits each
    /// (`1 ..= MAX_LINK_BUFFER`).
    pub fn new(capacity: usize) -> Self {
        assert!(
            (1..=MAX_LINK_BUFFER).contains(&capacity),
            "link_buffer {capacity} is outside the router ring's range 1 ..= {MAX_LINK_BUFFER}"
        );
        let slots = NUM_PORTS * capacity;
        Router {
            slots: vec![Operon::new(Address::new(0, 0), 0, [0; 2]); slots].into(),
            outs: vec![OUT_NONE; slots].into(),
            head: [0; NUM_PORTS],
            len: [0; NUM_PORTS],
            start_len: [0; NUM_PORTS],
            head_out: [OUT_NONE; NUM_PORTS],
            total: 0,
            cap: capacity as u16,
        }
    }

    /// Total flits currently buffered in this router.
    #[inline]
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Snapshot FIFO occupancies for this cycle's acceptance decisions.
    ///
    /// The sequential engine snapshots only routers in its net-live set, so
    /// a router it skips must already read as a freshly snapshotted empty
    /// one: [`Router::is_drained`]. A router is dropped from the set only by
    /// the `begin_cycle` that finds it empty, which zeroes the snapshot.
    #[inline]
    pub fn begin_cycle(&mut self) {
        self.start_len = self.len;
    }

    /// Would a flit pushed to `port` this cycle respect the snapshot credit?
    /// Neighbours call this on routers that may not have been snapshotted
    /// this cycle; such a router is drained, and an all-zero snapshot answers
    /// exactly what a fresh one of an empty router would.
    #[inline]
    pub fn accepts(&self, port: usize) -> bool {
        self.start_len[port] < self.cap
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
        self.len[port] < self.cap
    }

    /// Output codes of the six head flits, by port.
    #[inline]
    pub fn head_outs(&self) -> [OutCode; NUM_PORTS] {
        self.head_out
    }

    #[inline]
    /// Peek the head flit of `port`.
    pub fn front(&self, port: usize) -> Option<&Operon> {
        (self.len[port] > 0).then(|| &self.slots[self.slot(port, 0)])
    }

    /// Slot of the `nth` flit of `port` (`nth <= cap`), head first.
    #[inline]
    fn slot(&self, port: usize, nth: u16) -> usize {
        let (i, cap) = (self.head[port] as usize + nth as usize, self.cap as usize);
        port * cap + if i >= cap { i - cap } else { i }
    }

    /// Append a flit to `port`. `out` must be this cell's
    /// [`crate::geom::MeshTable::route`] for `op.target.cc`: the arbiter
    /// trusts it. Panics if the port is full (the caller checked
    /// [`Self::accepts`] / [`Self::accepts_now`]) rather than overwrite the head.
    #[inline]
    pub fn push(&mut self, port: usize, op: Operon, out: OutCode) {
        let len = self.len[port];
        assert!(len < self.cap, "router FIFO overflow");
        let s = self.slot(port, len);
        self.slots[s] = op;
        self.outs[s] = out;
        if len == 0 {
            self.head_out[port] = out;
        }
        self.len[port] = len + 1;
        self.total += 1;
    }

    /// Remove and return the head flit of `port` (panics if empty).
    #[inline]
    pub fn pop(&mut self, port: usize) -> Operon {
        assert!(self.len[port] > 0, "pop from empty router FIFO");
        let op = self.slots[self.slot(port, 0)];
        self.head[port] = if self.head[port] + 1 == self.cap { 0 } else { self.head[port] + 1 };
        self.len[port] -= 1;
        self.total -= 1;
        // Loaded unconditionally (a stale but in-range slot when the port is
        // now empty) so that "was that the last flit" is a select, not a branch.
        let next_out = self.outs[self.slot(port, 0)];
        self.head_out[port] = if self.len[port] > 0 { next_out } else { OUT_NONE };
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Dims, MeshTable, OUT_EJECT};
    use crate::rng::SplitMix64;
    use std::collections::VecDeque;

    fn op(n: u32) -> Operon {
        Operon::new(Address::new(0, n), 1, [0, 0])
    }

    #[test]
    fn push_pop_total() {
        let mut r = Router::new(4);
        r.push(PORT_LOCAL, op(1), OUT_EJECT);
        r.push(PORT_NORTH, op(2), OUT_EJECT);
        assert_eq!(r.total(), 2);
        assert_eq!(r.pop(PORT_LOCAL).target.slot, 1);
        assert_eq!(r.total(), 1);
    }

    #[test]
    fn snapshot_acceptance_is_conservative() {
        let mut r = Router::new(2);
        r.push(PORT_EAST, op(1), OUT_EJECT);
        r.push(PORT_EAST, op(2), OUT_EJECT);
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
        r.push(PORT_LOCAL, op(1), OUT_EJECT);
        assert!(!r.accepts_now(PORT_LOCAL));
        r.pop(PORT_LOCAL);
        assert!(r.accepts_now(PORT_LOCAL));
    }

    // The three panics below are `assert!`s, not `debug_assert!`s: stored
    // flits depend on them, so they must also fire under `cargo test --release`.

    #[test]
    #[should_panic(expected = "link_buffer 65536 is outside the router ring's range 1 ..= 65535")]
    fn capacity_beyond_the_index_type_is_rejected() {
        // At the parent a `u16` snapshot of a `usize` length truncated here,
        // so a full FIFO of 65 536 flits advertised a free slot.
        Router::new(MAX_LINK_BUFFER + 1);
    }

    #[test]
    #[should_panic(expected = "router FIFO overflow")]
    fn push_into_a_full_port_panics() {
        let mut r = Router::new(2);
        for n in 0..3 {
            r.push(PORT_WEST, op(n), OUT_EJECT);
        }
    }

    #[test]
    #[should_panic(expected = "pop from empty router FIFO")]
    fn pop_from_an_empty_port_panics() {
        let mut r = Router::new(2);
        r.push(PORT_WEST, op(0), OUT_EJECT);
        r.pop(PORT_WEST);
        r.pop(PORT_WEST);
    }

    /// The ring against the `VecDeque` router it replaced, under random
    /// push / pop / `begin_cycle` at the capacities where wrap-around bites.
    #[test]
    fn ring_matches_the_deque_model() {
        let dims = Dims::new(7, 5);
        let mesh = MeshTable::new(dims);
        let here = dims.coord_of(17);
        for cap in 1..=4usize {
            let mut rng = SplitMix64::new(cap as u64);
            let mut ring = Router::new(cap);
            let mut model: [VecDeque<Operon>; NUM_PORTS] = Default::default();
            let mut snapshot = [0usize; NUM_PORTS];
            for step in 0..20_000u32 {
                let port = rng.gen_range(NUM_PORTS as u64) as usize;
                match rng.gen_range(8) {
                    0 => {
                        ring.begin_cycle();
                        snapshot = std::array::from_fn(|p| model[p].len());
                    }
                    1..=4 if model[port].len() < cap => {
                        // Targets 35 and 36 are off this 35-cell mesh.
                        let flit =
                            Operon::new(Address::new(rng.gen_range(37) as u16, step), 1, [0; 2]);
                        ring.push(port, flit, mesh.route(here, flit.target.cc));
                        model[port].push_back(flit);
                    }
                    5..=7 if !model[port].is_empty() => {
                        assert_eq!(Some(ring.pop(port)), model[port].pop_front());
                    }
                    _ => {}
                }
                let live: usize = model.iter().map(VecDeque::len).sum();
                assert_eq!(ring.total() as usize, live);
                assert_eq!(ring.is_drained(), live == 0 && snapshot == [0; NUM_PORTS]);
                for p in 0..NUM_PORTS {
                    assert_eq!(ring.front(p), model[p].front());
                    let routed =
                        model[p].front().map_or(OUT_NONE, |f| mesh.route(here, f.target.cc));
                    assert_eq!(ring.head_outs()[p], routed, "cached head code, cap {cap}");
                    assert_eq!(ring.accepts(p), snapshot[p] < cap);
                    assert_eq!(ring.accepts_now(p), model[p].len() < cap);
                }
            }
        }
    }
}
