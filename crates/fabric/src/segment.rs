//! Registered memory segments (the PGAS attach step).
//!
//! A segment is a contiguous region of device memory registered with the
//! conduit so one-sided operations can target it without further
//! handshakes — GASNet-EX's `gex_Segment_Attach` / GPI-2's
//! `gaspi_segment_create`. The DiOMP runtime attaches one device segment
//! per device at startup and carves its global heap out of it (paper
//! §3.1–3.2).

use diomp_device::MemError;

use crate::loc::{check_range, Loc};

/// Identifies a registered segment: `(owning rank, index)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SegmentId {
    /// Owning rank.
    pub rank: usize,
    /// Index in the rank's segment table.
    pub index: usize,
}

/// One registered segment: `len` bytes of device `flat`'s memory
/// starting at `base`.
#[derive(Clone)]
pub struct Segment {
    /// Owning rank.
    pub rank: usize,
    /// Flat device index.
    pub flat: usize,
    /// Base offset of the segment inside the device address space.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// Resolve `[off, off + len)` within this segment to a transfer
    /// location, refusing anything past the registered extent — the
    /// conduits' one addressing step, so a one-sided operation can never
    /// reach the device memory behind the segment.
    pub fn range(&self, off: u64, len: u64) -> Result<Loc, MemError> {
        check_range(off, len, self.len)?;
        Ok(Loc::dev(self.flat, self.base + off))
    }
}
