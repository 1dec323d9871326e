//! Distributed termination detection: Safra's token-ring algorithm.
//!
//! The paper's host API creates "a terminator object that handles
//! termination detection for the diffusion" (Listing 1). The CCASimulator —
//! like this crate's default — detects termination by *global quiescence*, a
//! zero-overhead check only a simulator can perform. A real decentralized
//! machine must detect termination with messages, so this module provides
//! the classic alternative: **Safra's token algorithm** (Dijkstra's EWD 998
//! formulation for asynchronous message passing), run over the chip's own
//! mesh with a token that pays real hops and real compute cycles.
//!
//! Protocol summary:
//!
//! * every cell keeps a message counter `mc` (+1 per application operon
//!   sent, −1 per operon consumed) and a colour (black after consuming);
//! * a token `(q, colour)` circulates a serpentine ring over all cells; a
//!   cell holds the token until it is *passive* (idle, empty queue), then
//!   forwards it with `q += mc`, blackening the token if the cell is black,
//!   and whitens itself;
//! * when the initiator (cell 0) gets the token back while itself passive
//!   and white, with a white token and `q + mc₀ == 0`, the diffusion has
//!   terminated; otherwise a fresh white probe starts.
//!
//! IO-cell injections are accounted as sends by the attached border cell, so
//! the system stays closed. A chip runs this detector when it is built with
//! [`crate::TerminationMode::SafraToken`]; each `run_until_quiescent` then
//! seeds a probe (`probe_token`), and a cell that takes the token off its
//! task queue applies both rules through `take_token`. The chip itself
//! only counts messages and folds the initiator's verdict. `paper
//! ablate-terminator` measures the overhead against the quiescence detector.

use crate::cell::Cell;
use crate::geom::Dims;
use crate::operon::{ActionId, Address, Operon};

/// Reserved action id of the termination token (never a user action).
pub const ACT_TOKEN: ActionId = u16::MAX;

/// Colour in Safra's algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Colour {
    /// No unaccounted consumption since the last token pass.
    White,
    /// The cell consumed a message since the last token pass.
    Black,
}

/// Per-cell termination-detection state. This lives *inside* each
/// [`crate::cell::Cell`] (not in a chip-global table) so that the sharded
/// parallel engine can update it with no cross-thread traffic — exactly the
/// decentralization a real machine would have.
#[derive(Debug, Clone, Copy)]
pub struct CellTd {
    /// Messages sent minus messages consumed by this cell.
    pub mc: i64,
    /// Black after consuming a message, whitened when forwarding the token.
    pub black: bool,
}

impl CellTd {
    /// Fresh per-cell state at detector start. Starts black: activity before
    /// the first probe must not allow a spurious first-round detection.
    pub fn start() -> Self {
        CellTd { mc: 0, black: true }
    }

    /// Account one application-operon send by this cell.
    #[inline]
    pub fn on_send(&mut self) {
        self.mc += 1;
    }

    /// Account one application-operon consumption by this cell.
    #[inline]
    pub fn on_consume(&mut self) {
        self.mc -= 1;
        self.black = true;
    }
}

impl Default for CellTd {
    fn default() -> Self {
        Self::start()
    }
}

/// Chip-level detector state: only the global verdict lives here. The
/// per-cell counters and colours are each cell's [`CellTd`] (`Cell::td`),
/// so every hot-path update stays cell-local.
#[derive(Debug, Default)]
pub struct SafraState {
    /// Set when the initiator declares termination.
    pub terminated: bool,
}

impl SafraState {
    /// Fresh detector state (each cell starts at [`CellTd::start`]).
    pub fn new() -> Self {
        SafraState::default()
    }
}

/// Token payload codec: `payload[0]` = q as two's-complement i64,
/// `payload[1]` = colour bit.
pub fn token_operon(target_cc: u16, q: i64, colour: Colour) -> Operon {
    Operon::new(
        Address::new(target_cc, 0),
        ACT_TOKEN,
        [q as u64, matches!(colour, Colour::Black) as u64],
    )
}

/// Decode a token operon back into `(q, colour)`.
pub fn decode_token(op: &Operon) -> (i64, Colour) {
    debug_assert_eq!(op.action, ACT_TOKEN);
    let colour = if op.payload[1] == 1 { Colour::Black } else { Colour::White };
    (op.payload[0] as i64, colour)
}

/// The initiator's Rule-2 check: token returned white to a white, passive
/// initiator and the global message count balances.
pub fn initiator_detects(token_q: i64, token_colour: Colour, init: CellTd) -> bool {
    token_colour == Colour::White && !init.black && token_q + init.mc == 0
}

/// The token that seeds a probe at the initiator. It is black, so the first
/// round can never detect.
pub(crate) fn probe_token() -> Operon {
    token_operon(0, 0, Colour::Black)
}

/// Cell `i` takes the token `op` off its task queue; `true` when it detects
/// termination.
///
/// Rule 1: a cell with pending work is not passive, so the token queues
/// again behind that work. A passive cell adds its count `mc` to the token,
/// blackens it if the cell is black, whitens itself, and stages it for the
/// next cell of the serpentine ring.
///
/// Rule 2, at the initiator (cell 0): a white token back at a white
/// initiator with `q + mc == 0` means the diffusion has terminated, and the
/// token retires. Otherwise the initiator whitens itself and starts a fresh
/// white probe.
pub(crate) fn take_token<T>(cell: &mut Cell<T>, i: usize, op: Operon, dims: Dims) -> bool {
    if !cell.task_queue.is_empty() {
        cell.task_queue.push_back(op);
        return false;
    }
    let ((q, colour), td) = (decode_token(&op), cell.td);
    let next = if i == 0 {
        if initiator_detects(q, colour, td) {
            return true;
        }
        token_operon(dims.serpentine_next(0), 0, Colour::White)
    } else {
        let black = td.black || colour == Colour::Black;
        let colour = if black { Colour::Black } else { Colour::White };
        token_operon(dims.serpentine_next(i as u16), q + td.mc, colour)
    };
    cell.td.black = false;
    cell.outbox.push_back(next);
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn token_codec_roundtrip() {
        for &(q, c) in &[(0i64, Colour::White), (-5, Colour::Black), (i64::MAX / 2, Colour::White)]
        {
            let op = token_operon(7, q, c);
            assert_eq!(op.action, ACT_TOKEN);
            assert_eq!(decode_token(&op), (q, c));
        }
    }

    #[test]
    fn accounting_tracks_flow() {
        let mut cells = [CellTd::start(); 4];
        cells[1].on_send();
        cells[1].on_send();
        cells[2].on_consume();
        assert_eq!(cells[1].mc, 2);
        assert_eq!(cells[2].mc, -1);
        assert!(cells[2].black);
        let total: i64 = cells.iter().map(|c| c.mc).sum();
        assert_eq!(total, 1, "one message still in flight");
    }

    #[test]
    fn rule2_requires_all_three_conditions() {
        let white_idle = CellTd { mc: 0, black: false };
        assert!(initiator_detects(0, Colour::White, white_idle));
        assert!(!initiator_detects(0, Colour::Black, white_idle));
        assert!(!initiator_detects(1, Colour::White, white_idle));
        assert!(!initiator_detects(0, Colour::White, CellTd { mc: 0, black: true }));
        // Balancing initiator deficit is accepted.
        assert!(initiator_detects(-3, Colour::White, CellTd { mc: 3, black: false }));
    }

    #[test]
    fn take_token_applies_one_rule_per_case() {
        let dims = Dims::new(8, 8);
        let cell = |i: u16, mc: i64, black: bool| {
            let mut c: Cell<u64> = Cell::new(i, dims.coord_of(i), 1, 1, SplitMix64::new(0));
            c.td = CellTd { mc, black };
            c
        };
        let staged = |c: &Cell<u64>| c.outbox.iter().map(decode_token).collect::<Vec<_>>();
        // (a) Rule 1, not passive: the token queues behind the pending work.
        let mut busy = cell(9, 2, true);
        let work = Operon::new(Address::new(9, 0), 10, [0; 2]);
        busy.task_queue.push_back(work);
        let token = token_operon(9, 5, Colour::White);
        assert!(!take_token(&mut busy, 9, token, dims));
        assert_eq!(busy.task_queue, [work, token]);
        assert!(busy.outbox.is_empty());
        assert_eq!((busy.td.mc, busy.td.black), (2, true), "the cell is untouched");
        // (b) Rule 1, passive non-initiator: forward `q + mc`, black if the
        // cell or the token was, and whiten the cell.
        for (cell_black, token_colour) in
            [(false, Colour::White), (true, Colour::White), (false, Colour::Black)]
        {
            let mut c = cell(9, -3, cell_black);
            assert!(!take_token(&mut c, 9, token_operon(9, 5, token_colour), dims));
            let colour = if cell_black || token_colour == Colour::Black {
                Colour::Black
            } else {
                Colour::White
            };
            assert_eq!(staged(&c), [(2, colour)]);
            assert_eq!(c.outbox[0].target.cc, dims.serpentine_next(9));
            assert!(!c.td.black, "the cell ends white");
        }
        // (c) Rule 2: a white token at a white initiator with `q + mc == 0`.
        let mut init = cell(0, 4, false);
        assert!(take_token(&mut init, 0, token_operon(0, -4, Colour::White), dims));
        assert!(init.outbox.is_empty(), "the token retires");
        // (d) Otherwise the initiator starts a fresh white probe.
        for (mc, black, q, colour) in [
            (4, false, -3, Colour::White),
            (4, true, -4, Colour::White),
            (4, false, -4, Colour::Black),
        ] {
            let mut init = cell(0, mc, black);
            assert!(!take_token(&mut init, 0, token_operon(0, q, colour), dims));
            assert_eq!(staged(&init), [(0, Colour::White)]);
            assert_eq!(init.outbox[0].target.cc, dims.serpentine_next(0));
            assert!(!init.td.black);
        }
    }

    #[test]
    fn fresh_state_is_black_everywhere() {
        assert!(CellTd::start().black, "no spurious first-round detection");
        assert!(!SafraState::new().terminated);
    }
}
