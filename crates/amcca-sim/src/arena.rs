//! Per-compute-cell object memory: a bounded slab arena with a free list.
//!
//! Each CC owns a scratchpad memory holding vertex objects (roots and ghosts).
//! Slots are stable (an `Address` stays valid until freed), allocation and
//! deallocation are O(1), and capacity is bounded to model the finite local
//! memory of a compute cell. Allocation failure is a first-class outcome: the
//! diffusive runtime reacts to it by retrying the allocation on another cell
//! of the placement policy's candidate ring.

/// Error returned when a cell's memory is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaFull;

#[derive(Debug)]
enum Entry<T> {
    Occupied(T),
    /// Free slot; value is the next free slot index or `u32::MAX` for none.
    Free(u32),
}

/// A bounded slab. Slot indices are `u32` (combined with the cell id they form
/// a global [`crate::operon::Address`]).
#[derive(Debug)]
pub struct Arena<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    len: u32,
    capacity: u32,
}

const NONE: u32 = u32::MAX;

impl<T> Arena<T> {
    /// Create an arena that will hold at most `capacity` objects.
    pub fn new(capacity: u32) -> Self {
        Arena { entries: Vec::new(), free_head: NONE, len: 0, capacity }
    }

    /// Number of live objects.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True if no objects are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of objects this arena can hold.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Remaining allocatable slots.
    pub fn available(&self) -> u32 {
        self.capacity - self.len
    }

    /// Allocate a slot for `value`, returning its slot index.
    pub fn alloc(&mut self, value: T) -> Result<u32, ArenaFull> {
        if self.len >= self.capacity {
            return Err(ArenaFull);
        }
        self.len += 1;
        if self.free_head != NONE {
            let slot = self.free_head;
            match self.entries[slot as usize] {
                Entry::Free(next) => self.free_head = next,
                Entry::Occupied(_) => unreachable!("free list points at occupied slot"),
            }
            self.entries[slot as usize] = Entry::Occupied(value);
            Ok(slot)
        } else {
            let slot = self.entries.len() as u32;
            self.entries.push(Entry::Occupied(value));
            Ok(slot)
        }
    }

    /// Free `slot`, returning its value. `None` if the slot was not live.
    pub fn free(&mut self, slot: u32) -> Option<T> {
        let e = self.entries.get_mut(slot as usize)?;
        if matches!(e, Entry::Free(_)) {
            return None;
        }
        let old = std::mem::replace(e, Entry::Free(self.free_head));
        self.free_head = slot;
        self.len -= 1;
        match old {
            Entry::Occupied(v) => Some(v),
            Entry::Free(_) => unreachable!(),
        }
    }

    /// Borrow the object at `slot`, if live.
    pub fn get(&self, slot: u32) -> Option<&T> {
        match self.entries.get(slot as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Mutably borrow the object at `slot`, if live.
    pub fn get_mut(&mut self, slot: u32) -> Option<&mut T> {
        match self.entries.get_mut(slot as usize) {
            Some(Entry::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Iterate over `(slot, &value)` pairs of live objects.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.entries.iter().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i as u32, v)),
            Entry::Free(_) => None,
        })
    }

    /// Iterate mutably over `(slot, &mut value)` pairs of live objects.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut T)> {
        self.entries.iter_mut().enumerate().filter_map(|(i, e)| match e {
            Entry::Occupied(v) => Some((i as u32, v)),
            Entry::Free(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_get_free() {
        let mut a: Arena<String> = Arena::new(4);
        let s0 = a.alloc("zero".into()).unwrap();
        let s1 = a.alloc("one".into()).unwrap();
        assert_eq!(a.get(s0).unwrap(), "zero");
        assert_eq!(a.get(s1).unwrap(), "one");
        assert_eq!(a.len(), 2);
        assert_eq!(a.free(s0).unwrap(), "zero");
        assert_eq!(a.get(s0), None);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut a: Arena<u32> = Arena::new(2);
        a.alloc(1).unwrap();
        a.alloc(2).unwrap();
        assert_eq!(a.alloc(3), Err(ArenaFull));
        assert_eq!(a.available(), 0);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut a: Arena<u32> = Arena::new(2);
        let s0 = a.alloc(10).unwrap();
        let _s1 = a.alloc(11).unwrap();
        a.free(s0);
        let s2 = a.alloc(12).unwrap();
        assert_eq!(s2, s0, "free list should hand back the freed slot");
        assert_eq!(*a.get(s2).unwrap(), 12);
    }

    #[test]
    fn double_free_is_rejected() {
        let mut a: Arena<u32> = Arena::new(2);
        let s = a.alloc(1).unwrap();
        assert!(a.free(s).is_some());
        assert!(a.free(s).is_none());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn iter_skips_freed() {
        let mut a: Arena<u32> = Arena::new(8);
        let slots: Vec<_> = (0..5).map(|i| a.alloc(i).unwrap()).collect();
        a.free(slots[1]);
        a.free(slots[3]);
        let live: Vec<u32> = a.iter().map(|(_, &v)| v).collect();
        assert_eq!(live, vec![0, 2, 4]);
    }

    #[test]
    fn stress_alloc_free_interleaved() {
        let mut a: Arena<u64> = Arena::new(64);
        let mut live = std::collections::HashMap::new();
        let mut rng = crate::rng::SplitMix64::new(99);
        for i in 0..10_000u64 {
            if rng.gen_range(2) == 0 && a.available() > 0 {
                let s = a.alloc(i).unwrap();
                live.insert(s, i);
            } else if let Some(&s) = live.keys().next() {
                let v = live.remove(&s).unwrap();
                assert_eq!(a.free(s), Some(v));
            }
            assert_eq!(a.len() as usize, live.len());
        }
        for (&s, &v) in &live {
            assert_eq!(a.get(s), Some(&v));
        }
    }
}
