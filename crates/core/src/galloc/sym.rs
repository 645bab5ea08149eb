//! The symmetric heap: collective allocation with offset translation.

use std::cell::RefCell;

use super::buddy::BuddyAlloc;
use super::linear::LinearAlloc;

/// Which allocator strategy manages the symmetric region (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocKind {
    /// O(1) bump allocation, wholesale reclamation.
    Linear,
    /// Power-of-two blocks with splitting/coalescing and per-object free.
    Buddy,
}

enum HeapImpl {
    Linear(LinearAlloc),
    Buddy(BuddyAlloc),
}

/// The shared symmetric-region allocator. One instance serves the whole
/// job: because allocation is collective and the layout is identical on
/// every device, a single allocator *is* the global layout, and a local
/// offset plus a remote segment base is a complete remote address
/// (paper §3.2, Fig. 2).
pub struct SymHeap {
    inner: RefCell<HeapImpl>,
    len: u64,
}

impl SymHeap {
    /// Symmetric heap over `[0, len)` of every device segment.
    pub fn new(kind: AllocKind, len: u64) -> Self {
        let inner = match kind {
            AllocKind::Linear => HeapImpl::Linear(LinearAlloc::new(len)),
            AllocKind::Buddy => {
                // Buddy capacity must be a power of two; round down.
                let cap =
                    if len.is_power_of_two() { len } else { 1u64 << (63 - len.leading_zeros()) };
                HeapImpl::Buddy(BuddyAlloc::new(cap, 32))
            }
        };
        SymHeap { inner: RefCell::new(inner), len }
    }

    /// Allocate `len` bytes (64-byte aligned). Returns the symmetric
    /// offset valid on every device.
    pub fn alloc(&self, len: u64) -> Option<u64> {
        match &mut *self.inner.borrow_mut() {
            HeapImpl::Linear(a) => a.alloc(len, 64),
            HeapImpl::Buddy(a) => a.alloc(len),
        }
    }

    /// Free a symmetric allocation (buddy reclaims immediately; linear
    /// defers to a wholesale reset).
    pub fn free(&self, off: u64) {
        match &mut *self.inner.borrow_mut() {
            HeapImpl::Linear(a) => {
                let _ = off;
                a.free();
            }
            HeapImpl::Buddy(a) => a.free(off),
        }
    }

    /// Length of the symmetric region.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-length region.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_and_buddy_both_allocate() {
        for kind in [AllocKind::Linear, AllocKind::Buddy] {
            let h = SymHeap::new(kind, 1 << 20);
            let a = h.alloc(1000).unwrap();
            let b = h.alloc(1000).unwrap();
            assert_ne!(a, b, "{kind:?}");
            h.free(b);
            h.free(a);
        }
    }

    #[test]
    fn buddy_rounds_capacity_down_to_power_of_two() {
        let h = SymHeap::new(AllocKind::Buddy, (1 << 20) + 12345);
        // Must still be able to allocate the rounded capacity.
        assert!(h.alloc(1 << 19).is_some());
    }
}
