//! Operons: the active messages of the diffusive model.
//!
//! An *operon* couples an action (code to run) with its operands (data) and a
//! target memory locality, exactly as the paper's `propagate` construct does.
//! AM-CCA links are 256 bits wide and "can easily send the small messages of
//! our tested applications in a single flit cycle" (§4) — so an operon here is
//! a POD of at most 32 bytes and always moves one hop per cycle.

/// A global address in the PGAS formed by all compute-cell memories:
/// `(compute cell, slot within that cell's object arena)`.
///
/// Packed to 6 bytes at 2-byte alignment, so an edge record holding one is
/// 16 bytes rather than 20. The fields are read by value; a reference to
/// `slot` would be unaligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(C, packed(2))]
pub struct Address {
    /// Compute-cell id (row-major).
    pub cc: u16,
    /// Slot index within the cell's object arena.
    pub slot: u32,
}

impl Address {
    /// Create an address from cell id and arena slot.
    pub const fn new(cc: u16, slot: u32) -> Self {
        Address { cc, slot }
    }

    /// Pack into a u64 so an address fits in one payload word.
    #[inline]
    pub fn pack(self) -> u64 {
        ((self.cc as u64) << 32) | self.slot as u64
    }

    #[inline]
    /// Inverse of [`Self::pack`].
    pub fn unpack(v: u64) -> Self {
        Address { cc: (v >> 32) as u16, slot: v as u32 }
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (cc, slot) = (self.cc, self.slot);
        write!(f, "cc{cc}#{slot}")
    }
}

/// Identifier of a registered action (paper's `AMCCA_REGISTER_ACTION`).
pub type ActionId = u16;

/// An active message: "send work to data". `payload` carries the operands
/// (two 64-bit words — enough for an edge, a BFS level, or a continuation).
/// `origin` is the cell that staged the operon (used by termination detection
/// and statistics; a real flit would carry a source id too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operon {
    /// The memory locality this action is sent to.
    pub target: Address,
    /// Registered action to execute at the target.
    pub action: ActionId,
    /// Cell that staged the operon (set by `propagate`).
    pub origin: u16,
    /// Operand words (an edge, a level, a continuation...).
    pub payload: [u64; 2],
}

impl Operon {
    /// Build an operon with an unset origin (stamped on propagate).
    pub fn new(target: Address, action: ActionId, payload: [u64; 2]) -> Self {
        Operon { target, action, origin: u16::MAX, payload }
    }
}

// One operon must fit a single 256-bit flit (paper §4).
const _: () = assert!(std::mem::size_of::<Operon>() <= 32);
const _: () = assert!(std::mem::size_of::<Address>() == 6);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_pack_roundtrip() {
        for &(cc, slot) in &[(0u16, 0u32), (1023, 42), (u16::MAX, u32::MAX), (7, 123_456)] {
            let a = Address::new(cc, slot);
            assert_eq!(Address::unpack(a.pack()), a);
        }
    }

    #[test]
    fn operon_is_single_flit() {
        assert!(std::mem::size_of::<Operon>() <= 32);
    }

    #[test]
    fn address_display() {
        assert_eq!(Address::new(3, 9).to_string(), "cc3#9");
    }
}
