//! Asymmetric allocation: second-level pointers and the remote cache.
//!
//! Asymmetric allocations let each rank contribute a *different* size
//! (paper §3.2, Fig. 2 "as-1"). The consistent-offset property is then
//! lost, so DiOMP allocates a **32-byte second-level pointer wrapper**
//! symmetrically — at the same offset on every device — and stores the
//! device-local data offset inside it. Remote access becomes two-stage:
//! fetch the wrapper, then move the data. The [`PtrCache`] removes the
//! first stage for repeated accesses; the runtime's central management of
//! allocation lifetime keeps cache entries valid until free
//! (paper: "each second-level pointer's cache entry is valid throughout
//! the lifetime of its corresponding memory allocation").

use std::cell::RefCell;
use std::collections::HashMap;

use diomp_device::FreeListAlloc;

/// Size of a second-level pointer wrapper (paper §3.2: a 32-byte pointer
/// wrapper, uniformly allocated across all ranks for global alignment).
pub const WRAPPER_BYTES: u64 = 32;

/// Per-device allocator over the asymmetric region
/// `[base, base + len)` of each device segment.
pub struct AsymRegion {
    base: u64,
    allocs: Vec<RefCell<FreeListAlloc>>,
}

impl AsymRegion {
    /// Region starting at segment offset `base`, `len` bytes, for
    /// `ndevices` devices.
    pub fn new(base: u64, len: u64, ndevices: usize) -> Self {
        AsymRegion {
            base,
            allocs: (0..ndevices).map(|_| RefCell::new(FreeListAlloc::new(len))).collect(),
        }
    }

    /// Allocate `len` bytes on device `dev` (flat index). Returns the
    /// absolute segment offset.
    pub fn alloc(&self, dev: usize, len: u64) -> Option<u64> {
        self.allocs[dev].borrow_mut().alloc(len.max(1), 64).ok().map(|o| o + self.base)
    }

    /// Free an absolute-offset allocation on `dev`.
    pub fn free(&self, dev: usize, abs_off: u64) {
        self.allocs[dev].borrow_mut().free(abs_off - self.base).expect("asym free");
    }

    /// Start of the asymmetric region within each segment.
    pub fn base(&self) -> u64 {
        self.base
    }
}

/// Central ground truth for asymmetric allocations:
/// `(device, wrapper offset) → data offset`. The DiOMP runtime owns all
/// allocation and deallocation, so this registry *is* the authority the
/// paper relies on for cache validity.
#[derive(Default)]
pub struct AsymRegistry {
    map: RefCell<HashMap<(usize, u64), u64>>,
}

impl AsymRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an allocation.
    pub fn insert(&self, dev: usize, wrapper: u64, data_off: u64) {
        let prev = self.map.borrow_mut().insert((dev, wrapper), data_off);
        assert!(prev.is_none(), "wrapper slot reused while live");
    }

    /// Authoritative lookup.
    pub fn lookup(&self, dev: usize, wrapper: u64) -> Option<u64> {
        self.map.borrow().get(&(dev, wrapper)).copied()
    }

    /// Remove on free; stale cache entries die with this entry.
    pub fn remove(&self, dev: usize, wrapper: u64) -> Option<u64> {
        self.map.borrow_mut().remove(&(dev, wrapper))
    }
}

/// Per-rank cache of fetched remote second-level pointers.
#[derive(Default)]
pub struct PtrCache {
    map: HashMap<(usize, u64), u64>,
    hits: u64,
    misses: u64,
}

impl PtrCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a remote wrapper, validating against the registry (an
    /// entry whose allocation was freed is dropped). Returns the data
    /// offset on a hit.
    pub fn lookup(&mut self, registry: &AsymRegistry, dev: usize, wrapper: u64) -> Option<u64> {
        match self.map.get(&(dev, wrapper)) {
            Some(&off) => {
                if registry.lookup(dev, wrapper) == Some(off) {
                    self.hits += 1;
                    Some(off)
                } else {
                    self.map.remove(&(dev, wrapper));
                    self.misses += 1;
                    None
                }
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Install a fetched wrapper value.
    pub fn insert(&mut self, dev: usize, wrapper: u64, data_off: u64) {
        self.map.insert((dev, wrapper), data_off);
    }

    /// `(hits, misses)` counters (for the `ablation_asym_cache` bench).
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_allocates_per_device_independently() {
        let r = AsymRegion::new(1 << 20, 1 << 16, 2);
        let a = r.alloc(0, 1000).unwrap();
        let b = r.alloc(1, 5000).unwrap();
        assert!(a >= 1 << 20 && b >= 1 << 20, "absolute offsets include the base");
        assert_eq!(a, b, "independent allocators may return equal offsets");
        r.free(0, a);
        r.free(1, b);
    }

    #[test]
    fn cache_hits_after_insert_and_invalidates_on_free() {
        let reg = AsymRegistry::new();
        let mut cache = PtrCache::new();
        reg.insert(3, 64, 4096);
        assert_eq!(cache.lookup(&reg, 3, 64), None, "cold cache misses");
        cache.insert(3, 64, 4096);
        assert_eq!(cache.lookup(&reg, 3, 64), Some(4096));
        reg.remove(3, 64);
        assert_eq!(cache.lookup(&reg, 3, 64), None, "freed allocation invalidates");
        assert_eq!(cache.stats(), (1, 2));
    }

    #[test]
    #[should_panic(expected = "wrapper slot reused")]
    fn registry_rejects_live_slot_reuse() {
        let reg = AsymRegistry::new();
        reg.insert(0, 0, 100);
        reg.insert(0, 0, 200);
    }
}
