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
//! starts a probe. `paper ablate-terminator` measures the overhead against
//! the quiescence detector.

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

/// Chip-level detector state: only the global scalars live here. The
/// per-cell counters and colours are each cell's [`CellTd`]
/// (`Cell::td`), so every hot-path update stays cell-local.
#[derive(Debug, Default)]
pub struct SafraState {
    /// Set when the initiator declares termination.
    pub terminated: bool,
    /// Completed (unsuccessful) probe rounds.
    pub rounds: u64,
    /// Mesh hops consumed by the token (the detector's network overhead).
    pub token_hops: u64,
    /// Times the token was re-queued behind pending work (polling cost).
    pub token_requeues: u64,
    /// Cycle at which termination was declared.
    pub detected_at: Option<u64>,
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn fresh_state_is_black_everywhere() {
        assert!(CellTd::start().black, "no spurious first-round detection");
        assert!(!SafraState::new().terminated);
    }
}
