//! Continuations (`call/cc`) for asynchronous remote allocation.
//!
//! The paper's Listing 6 allocates a ghost vertex on a remote compute cell
//! with `(set-future! (vertex-ghost v) (call/cc (allocate vertex)))`. The
//! compiler "generates an anonymous action that only includes lines of code
//! following the `call/cc` keyword, then injects code that asks the Runtime
//! to propagate the `allocate` system action with this anonymous action as
//! its return trigger" (§3.1, Fig. 3). As in the paper's implementation, we
//! write the anonymous action by hand: it is [`crate::action::ACT_SET_FUTURE`],
//! and the continuation record below is the state it needs to resume — which
//! vertex object is waiting, and which of its future slots to set.

use amcca_sim::{Address, Operon};

use crate::action::{ACT_ALLOCATE, ACT_SET_FUTURE};

/// Return point of a continuation: the object (and future slot within it)
/// that the produced address must be delivered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Continuation {
    /// The object waiting on the continuation (e.g. the spilling vertex).
    pub return_to: Address,
    /// Which future slot of that object to set (ghost slot index).
    pub slot: u8,
}

/// Decoded `allocate` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocRequest {
    /// The continuation to resume once memory is allocated.
    pub cont: Continuation,
    /// How many placement candidates have already failed.
    pub retry: u32,
    /// Application payload passed through to object construction
    /// (e.g. the logical vertex id the new ghost belongs to).
    pub tag: u64,
}

// payload[0] bit layout for ALLOCATE and SET_FUTURE:
//   bits  0..48  return_to address (cc in 32..48, slot in 0..32)
//   bits 48..52  future slot index (ghost fanout ≤ 16)
//   bits 52..64  retry counter (ALLOCATE only; ≤ 4095)
const SLOT_SHIFT: u32 = 48;
const RETRY_SHIFT: u32 = 52;
const ADDR_MASK: u64 = (1 << SLOT_SHIFT) - 1;
const SLOT_MASK: u64 = 0xF;
/// `MAX_ENCODABLE_RETRY` constant.
pub const MAX_ENCODABLE_RETRY: u32 = (1 << (64 - RETRY_SHIFT)) - 1;

fn encode_cont(cont: Continuation, retry: u32) -> u64 {
    debug_assert!(cont.slot as u64 <= SLOT_MASK, "ghost slot index too large to encode");
    debug_assert!(retry <= MAX_ENCODABLE_RETRY, "retry counter overflow");
    (cont.return_to.pack() & ADDR_MASK)
        | ((cont.slot as u64 & SLOT_MASK) << SLOT_SHIFT)
        | ((retry as u64) << RETRY_SHIFT)
}

fn decode_cont(word: u64) -> (Continuation, u32) {
    let return_to = Address::unpack(word & ADDR_MASK);
    let slot = ((word >> SLOT_SHIFT) & SLOT_MASK) as u8;
    let retry = (word >> RETRY_SHIFT) as u32;
    (Continuation { return_to, slot }, retry)
}

/// Build the `allocate` system operon: "Runtime sends a system action
/// allocate, configured with a return trigger action, to a remote compute
/// cell" (Fig. 3 step 0).
pub fn allocate_operon(target_cc: u16, cont: Continuation, retry: u32, tag: u64) -> Operon {
    Operon::new(Address::new(target_cc, 0), ACT_ALLOCATE, [encode_cont(cont, retry), tag])
}

/// Decode an `allocate` operon.
pub fn decode_allocate(op: &Operon) -> AllocRequest {
    debug_assert_eq!(op.action, ACT_ALLOCATE);
    let (cont, retry) = decode_cont(op.payload[0]);
    AllocRequest { cont, retry, tag: op.payload[1] }
}

/// Build the return-trigger operon: "memory address is sent back in the form
/// of the trigger action that is targeted [at the] originating vertex at the
/// source CC" (Fig. 3 step 2).
pub fn set_future_operon(cont: Continuation, produced: Address) -> Operon {
    Operon::new(cont.return_to, ACT_SET_FUTURE, [encode_cont(cont, 0), produced.pack()])
}

/// Decode a `set-future` operon into `(slot, produced address)`.
pub fn decode_set_future(op: &Operon) -> (u8, Address) {
    debug_assert_eq!(op.action, ACT_SET_FUTURE);
    let (cont, _) = decode_cont(op.payload[0]);
    (cont.slot, Address::unpack(op.payload[1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_roundtrip() {
        let cont = Continuation { return_to: Address::new(513, 77), slot: 3 };
        let op = allocate_operon(42, cont, 9, 0xABCD);
        assert_eq!(op.target, Address::new(42, 0));
        assert_eq!(op.action, ACT_ALLOCATE);
        let req = decode_allocate(&op);
        assert_eq!(req.cont, cont);
        assert_eq!(req.retry, 9);
        assert_eq!(req.tag, 0xABCD);
    }

    #[test]
    fn set_future_roundtrip() {
        let cont = Continuation { return_to: Address::new(7, 12), slot: 1 };
        let produced = Address::new(900, 4_000_000);
        let op = set_future_operon(cont, produced);
        assert_eq!(op.target, cont.return_to, "trigger targets the originating vertex");
        let (slot, addr) = decode_set_future(&op);
        assert_eq!(slot, 1);
        assert_eq!(addr, produced);
    }

    #[test]
    fn retry_range_is_wide_enough() {
        // The chip's default max_alloc_retries (4095) must be encodable.
        const _: () = assert!(MAX_ENCODABLE_RETRY == 4095);
        assert_eq!(amcca_sim::ChipConfig::default().max_alloc_retries, MAX_ENCODABLE_RETRY);
        let cont = Continuation { return_to: Address::new(0, 0), slot: 0 };
        let op = allocate_operon(0, cont, MAX_ENCODABLE_RETRY, 0);
        assert_eq!(decode_allocate(&op).retry, MAX_ENCODABLE_RETRY);
    }

    proptest::proptest! {
        /// Fuzz the full (address × slot × retry × tag) space: decode must
        /// invert encode for every representable continuation.
        #[test]
        fn codec_roundtrip_fuzz(
            cc in 0u16..=u16::MAX,
            slot_idx in 0u32..=u32::MAX,
            ghost_slot in 0u8..16,
            retry in 0u32..=MAX_ENCODABLE_RETRY,
            tag in proptest::prelude::any::<u64>(),
        ) {
            let cont = Continuation { return_to: Address::new(cc, slot_idx), slot: ghost_slot };
            let op = allocate_operon(3, cont, retry, tag);
            let req = decode_allocate(&op);
            proptest::prop_assert_eq!(req.cont, cont);
            proptest::prop_assert_eq!(req.retry, retry);
            proptest::prop_assert_eq!(req.tag, tag);
            let produced = Address::new(cc ^ 0x5555, slot_idx.rotate_left(7));
            let set = set_future_operon(cont, produced);
            let (s, a) = decode_set_future(&set);
            proptest::prop_assert_eq!(s, ghost_slot);
            proptest::prop_assert_eq!(a, produced);
            proptest::prop_assert_eq!(set.target, cont.return_to);
        }
    }

    #[test]
    fn slot_and_addr_do_not_collide() {
        // Max slot, max slot-index address: fields must decode independently.
        let cont = Continuation { return_to: Address::new(u16::MAX, u32::MAX), slot: 15 };
        let op = allocate_operon(1, cont, 4095, u64::MAX);
        let req = decode_allocate(&op);
        assert_eq!(req.cont.return_to, Address::new(u16::MAX, u32::MAX));
        assert_eq!(req.cont.slot, 15);
        assert_eq!(req.retry, 4095);
    }
}
