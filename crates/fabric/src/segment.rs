//! Registered memory segments (the PGAS attach step).
//!
//! A segment is a contiguous region of device memory registered with the
//! conduit so one-sided operations can target it without further
//! handshakes — GASNet-EX's `gex_Segment_Attach` / GPI-2's
//! `gaspi_segment_create`. The DiOMP runtime attaches one device segment
//! per device at startup and carves its global heap out of it (paper
//! §3.1–3.2).

/// Identifies a registered segment: `(owning rank, index)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SegmentId {
    /// Owning rank.
    pub rank: usize,
    /// Index in the rank's segment table.
    pub index: usize,
}

/// Where a segment's memory lives.
#[derive(Clone)]
pub enum SegmentMem {
    /// Device memory: flat device index + base offset in device space.
    Device {
        /// Flat device index.
        flat: usize,
        /// Base offset of the segment inside the device address space.
        base: u64,
    },
}

/// One registered segment.
#[derive(Clone)]
pub struct Segment {
    /// Owning rank.
    pub rank: usize,
    /// Storage location.
    pub mem: SegmentMem,
    /// Length in bytes.
    pub len: u64,
}

impl Segment {
    /// Resolve an offset within this segment to a transfer location.
    pub fn loc(&self, off: u64) -> crate::loc::Loc {
        assert!(off <= self.len, "segment offset {off} beyond length {}", self.len);
        let SegmentMem::Device { flat, base } = self.mem;
        crate::loc::Loc::dev(flat, base + off)
    }
}
