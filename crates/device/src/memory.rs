//! Device memory: modelled address space with optional real backing.
//!
//! Every device owns a flat address space of `capacity` bytes. In
//! [`DataMode::Functional`] the bytes written are held in host memory so
//! copies and kernels move and compute real bytes (tests, examples,
//! correctness runs). In [`DataMode::CostOnly`] only the *bookkeeping*
//! exists — allocations, offsets and sizes are tracked and timing is
//! charged, but no bytes move. This lets the paper-scale experiments
//! (7 GiB matrices, 1200³ grids) run on a laptop through exactly the same
//! code path that the correctness tests exercise at small sizes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether simulated memory is really backed (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataMode {
    /// Real bytes: copies copy, kernels compute, results are checkable.
    Functional,
    /// Bookkeeping + timing only: for paper-scale parameter sweeps.
    CostOnly,
}

/// Errors from device memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Allocation would exceed device capacity.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes available.
        available: u64,
    },
    /// Access outside the device address space.
    OutOfBounds {
        /// Offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// Free of an offset that is not an allocation start.
    BadFree {
        /// The offending offset.
        offset: u64,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfMemory { requested, available } => {
                write!(f, "device OOM: requested {requested} B, available {available} B")
            }
            MemError::OutOfBounds { offset, len, capacity } => {
                write!(f, "device access [{offset}, +{len}) outside capacity {capacity}")
            }
            MemError::BadFree { offset } => write!(f, "free of non-allocated offset {offset}"),
        }
    }
}
impl std::error::Error for MemError {}

/// A view `buf[at..at + len]` of one immutable, reference-counted buffer.
struct Extent {
    buf: Arc<[u8]>,
    at: usize,
    len: usize,
}

/// Disjoint extents keyed by their start offset.
type Extents = BTreeMap<u64, Extent>;

/// The memory of one device.
pub struct DeviceMem {
    capacity: u64,
    mode: DataMode,
    /// Real backing (Functional mode only): only the bytes written are
    /// held, and bytes outside every extent read as zero. Extents may share
    /// a buffer, so one collective result can back every device's copy.
    backing: RefCell<Extents>,
}

impl DeviceMem {
    /// Create a device memory of `capacity` modelled bytes.
    pub fn new(capacity: u64, mode: DataMode) -> Self {
        DeviceMem { capacity, mode, backing: RefCell::new(Extents::new()) }
    }

    /// Modelled capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The data mode this memory was created with.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    fn check(&self, offset: u64, len: u64) -> Result<(), MemError> {
        if offset.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(MemError::OutOfBounds { offset, len, capacity: self.capacity });
        }
        Ok(())
    }

    /// Copy bytes out of device memory. Unwritten memory reads as zero.
    /// In `CostOnly` mode the output is zero-filled.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> Result<(), MemError> {
        self.check(offset, out.len() as u64)?;
        match self.mode {
            DataMode::CostOnly => out.fill(0),
            DataMode::Functional => read_into(&self.backing.borrow_mut(), offset, out),
        }
        Ok(())
    }

    /// Copy bytes into device memory: in place when one extent with an
    /// unshared buffer covers them, else as a new buffer of exactly these
    /// bytes. A no-op (besides bounds checking) in `CostOnly` mode.
    pub fn write(&self, offset: u64, data: &[u8]) -> Result<(), MemError> {
        self.check(offset, data.len() as u64)?;
        if self.mode == DataMode::CostOnly {
            return Ok(());
        }
        let mut map = self.backing.borrow_mut();
        match unique_cover(&mut map, offset, data.len()) {
            Some(dst) => dst.copy_from_slice(data),
            None => install(&mut map, offset, Arc::from(data)),
        }
        Ok(())
    }

    /// Store `data` at `offset` as is, without a copy: the same buffer may
    /// back many memories, and none of them ever changes it in place. A
    /// no-op (besides bounds checking) in `CostOnly` mode.
    pub fn write_shared(&self, offset: u64, data: Arc<[u8]>) -> Result<(), MemError> {
        self.check(offset, data.len() as u64)?;
        if self.mode == DataMode::Functional {
            install(&mut self.backing.borrow_mut(), offset, data);
        }
        Ok(())
    }

    /// Run `f` over a mutable view of `[offset, offset+len)` — the kernel
    /// execution hook. The view is in place when one extent with an
    /// unshared buffer covers the range, else a copy that is stored back
    /// as a new buffer. Returns `Ok(None)` (without running `f`) in
    /// `CostOnly` mode.
    pub fn with_slice_mut<R>(
        &self,
        offset: u64,
        len: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<Option<R>, MemError> {
        self.check(offset, len)?;
        if self.mode == DataMode::CostOnly {
            return Ok(None);
        }
        let mut map = self.backing.borrow_mut();
        if let Some(view) = unique_cover(&mut map, offset, len as usize) {
            return Ok(Some(f(view)));
        }
        let mut view = vec![0; len as usize];
        read_into(&map, offset, &mut view);
        let r = f(&mut view);
        install(&mut map, offset, view.into());
        Ok(Some(r))
    }

    /// Host bytes held by the extents' buffers (one buffer shared by two
    /// extents counts twice).
    #[cfg(test)]
    fn held_bytes(&self) -> usize {
        self.backing.borrow().values().map(|e| e.buf.len()).sum()
    }
}

/// Fill `out` from the extents over `[offset, offset + out.len())`,
/// zeros in the gaps.
fn read_into(map: &Extents, offset: u64, out: &mut [u8]) {
    let end = offset + out.len() as u64;
    let first = map.range(..offset).next_back().map_or(offset, |(&start, _)| start);
    let mut filled = 0;
    for (&start, e) in map.range(first..end) {
        let (lo, hi) = (start.max(offset), (start + e.len as u64).min(end));
        if hi > lo {
            let from = e.at + (lo - start) as usize;
            let (lo, hi) = ((lo - offset) as usize, (hi - offset) as usize);
            out[filled..lo].fill(0);
            out[lo..hi].copy_from_slice(&e.buf[from..from + hi - lo]);
            filled = hi;
        }
    }
    out[filled..].fill(0);
}

/// The view of `[offset, offset + len)` inside the one extent covering
/// it, if that extent's buffer has no other owner.
fn unique_cover(map: &mut Extents, offset: u64, len: usize) -> Option<&mut [u8]> {
    let (&start, e) = map.range_mut(..=offset).next_back()?;
    let fits = (offset - start) as usize + len <= e.len;
    let at = e.at + (offset - start) as usize;
    Arc::get_mut(&mut e.buf).filter(|_| fits).map(|b| &mut b[at..at + len])
}

/// Cut the extent straddling `at`, if any, into two views of its buffer.
fn split(map: &mut Extents, at: u64) {
    let Some((&start, e)) = map.range_mut(..at).next_back() else { return };
    let cut = (at - start) as usize;
    if cut < e.len {
        let tail = Extent { buf: e.buf.clone(), at: e.at + cut, len: e.len - cut };
        e.len = cut;
        map.insert(at, tail);
    }
}

/// Put `buf` at `offset`. The extents it overlaps shrink to the views of
/// their old buffers that lie outside it; no byte is copied.
fn install(map: &mut Extents, offset: u64, buf: Arc<[u8]>) {
    if buf.is_empty() {
        return;
    }
    let end = offset + buf.len() as u64;
    split(map, offset);
    split(map, end);
    while let Some((&start, _)) = map.range(offset..end).next() {
        map.remove(&start);
    }
    map.insert(offset, Extent { at: 0, len: buf.len(), buf });
}

/// A first-fit free-list allocator over a device address space — the
/// `cudaMalloc`-style allocator used by the *baseline* (non-DiOMP) memory
/// path. The DiOMP runtime replaces this with its own segment allocators
/// (paper §3.1); see `diomp-core::galloc`.
pub struct FreeListAlloc {
    capacity: u64,
    /// Sorted, coalesced free ranges `(offset, len)`.
    free: Vec<(u64, u64)>,
    /// Live allocations `(offset, len)`, for validation.
    live: Vec<(u64, u64)>,
}

impl FreeListAlloc {
    /// Allocator over `[0, capacity)`.
    pub fn new(capacity: u64) -> Self {
        FreeListAlloc { capacity, free: vec![(0, capacity)], live: Vec::new() }
    }

    /// Allocate `len` bytes aligned to `align` (power of two).
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<u64, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let len = len.max(1);
        for i in 0..self.free.len() {
            let (off, flen) = self.free[i];
            let aligned = (off + align - 1) & !(align - 1);
            let pad = aligned - off;
            if flen >= pad + len {
                // Carve [aligned, aligned+len) out of the free block.
                self.free.remove(i);
                if pad > 0 {
                    self.free.insert(i, (off, pad));
                }
                let rest = flen - pad - len;
                if rest > 0 {
                    let at = self.free.partition_point(|r| r.0 < aligned + len);
                    self.free.insert(at, (aligned + len, rest));
                }
                let at = self.live.partition_point(|r| r.0 < aligned);
                self.live.insert(at, (aligned, len));
                return Ok(aligned);
            }
        }
        Err(MemError::OutOfMemory { requested: len, available: self.largest_free() })
    }

    /// Free a previous allocation by its start offset.
    pub fn free(&mut self, offset: u64) -> Result<(), MemError> {
        let i = self
            .live
            .binary_search_by_key(&offset, |r| r.0)
            .map_err(|_| MemError::BadFree { offset })?;
        let (off, len) = self.live.remove(i);
        let at = self.free.partition_point(|r| r.0 < off);
        self.free.insert(at, (off, len));
        // Coalesce with neighbours.
        if at + 1 < self.free.len() && self.free[at].0 + self.free[at].1 == self.free[at + 1].0 {
            self.free[at].1 += self.free[at + 1].1;
            self.free.remove(at + 1);
        }
        if at > 0 && self.free[at - 1].0 + self.free[at - 1].1 == self.free[at].0 {
            self.free[at - 1].1 += self.free[at].1;
            self.free.remove(at);
        }
        Ok(())
    }

    /// Total bytes currently free.
    pub fn total_free(&self) -> u64 {
        self.free.iter().map(|r| r.1).sum()
    }

    /// Largest single free block.
    pub(crate) fn largest_free(&self) -> u64 {
        self.free.iter().map(|r| r.1).max().unwrap_or(0)
    }

    /// Number of live allocations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Capacity this allocator manages.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_memory_roundtrips() {
        let m = DeviceMem::new(1 << 20, DataMode::Functional);
        m.write(100, &[1, 2, 3, 4]).unwrap();
        let mut out = [0u8; 6];
        m.read(98, &mut out).unwrap();
        assert_eq!(out, [0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn cost_only_memory_reads_zero() {
        let m = DeviceMem::new(1 << 40, DataMode::CostOnly); // 1 TiB, no backing
        m.write(1 << 39, &[9; 16]).unwrap();
        let mut out = [7u8; 16];
        m.read(1 << 39, &mut out).unwrap();
        assert_eq!(out, [0; 16]);
    }

    #[test]
    fn bounds_are_enforced() {
        let m = DeviceMem::new(1024, DataMode::Functional);
        assert!(matches!(m.write(1020, &[0; 8]), Err(MemError::OutOfBounds { .. })));
        let mut out = [0u8; 8];
        assert!(matches!(m.read(1020, &mut out), Err(MemError::OutOfBounds { .. })));
    }

    #[test]
    fn bytes_read_out_move_to_another_offset_intact() {
        let m = DeviceMem::new(1024, DataMode::Functional);
        m.write(0, &[5, 6, 7]).unwrap();
        let mut out = [0u8; 516];
        m.read(0, &mut out[..3]).unwrap();
        m.write(512, &out[..3]).unwrap();
        m.read(0, &mut out).unwrap();
        assert_eq!((&out[..4], &out[511..]), (&[5, 6, 7, 0][..], &[0, 5, 6, 7, 0][..]));
    }

    #[test]
    fn kernel_views_of_disjoint_ranges_stay_apart() {
        let m = DeviceMem::new(1024, DataMode::Functional);
        assert_eq!(m.with_slice_mut(512, 4, |s| s.fill(1)).unwrap(), Some(()));
        m.with_slice_mut(0, 4, |s| s.fill(9)).unwrap();
        let mut out = [0u8; 5];
        m.read(511, &mut out).unwrap();
        assert_eq!(out, [0, 1, 1, 1, 1]);
    }

    #[test]
    fn a_small_write_far_out_holds_only_its_bytes() {
        let m = DeviceMem::new(32 << 20, DataMode::Functional);
        m.write(16 << 20, &[3; 32]).unwrap();
        assert_eq!(m.held_bytes(), 32, "a dense backing would hold 16 MiB + 32");
        m.write(16 << 20, &[4; 16]).unwrap();
        assert_eq!(m.held_bytes(), 32, "a covered write lands in place");
    }

    #[test]
    fn free_list_allocates_aligned_and_coalesces() {
        let mut a = FreeListAlloc::new(1024);
        let x = a.alloc(100, 64).unwrap();
        assert_eq!(x % 64, 0);
        let y = a.alloc(100, 64).unwrap();
        let z = a.alloc(100, 64).unwrap();
        a.free(y).unwrap();
        a.free(x).unwrap();
        a.free(z).unwrap();
        assert_eq!(a.total_free(), 1024);
        assert_eq!(a.free.len(), 1, "freed blocks must coalesce to one");
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn free_list_oom_and_bad_free() {
        let mut a = FreeListAlloc::new(256);
        let _x = a.alloc(200, 1).unwrap();
        assert!(matches!(a.alloc(100, 1), Err(MemError::OutOfMemory { .. })));
        assert!(matches!(a.free(5), Err(MemError::BadFree { .. })));
    }

    #[test]
    fn free_list_reuses_holes_first_fit() {
        let mut a = FreeListAlloc::new(1024);
        let x = a.alloc(128, 1).unwrap();
        let _y = a.alloc(128, 1).unwrap();
        a.free(x).unwrap();
        let z = a.alloc(64, 1).unwrap();
        assert_eq!(z, x, "first-fit should reuse the first hole");
    }
}
