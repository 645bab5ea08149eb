//! Global pointers into the PGAS space.

/// A symmetric global pointer: the same offset is valid inside every
/// device's global segment, so `(remote segment base) + off` is a
/// complete remote address (paper §3.2, Fig. 2). Obtained from
/// collective allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GPtr {
    /// Offset within the symmetric region.
    pub off: u64,
    /// Allocation length in bytes.
    pub len: u64,
}

impl GPtr {
    /// Does `[delta, delta+len)` lie inside this allocation? A sum that
    /// wraps `u64` does not, in release builds too.
    pub(crate) fn covers(self, delta: u64, len: u64) -> bool {
        delta.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// A sub-range `[delta, delta+len)` of this allocation.
    pub fn slice(self, delta: u64, len: u64) -> GPtr {
        assert!(self.covers(delta, len), "GPtr slice out of bounds");
        GPtr { off: self.off + delta, len }
    }
}

/// An asymmetric allocation as seen by one rank: the symmetric offset of
/// its 32-byte second-level wrapper, plus this rank's local data region
/// (other ranks' regions are reached by fetching *their* wrapper).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AsymPtr {
    /// Symmetric offset of the wrapper slot (same on every device).
    pub wrapper_off: u64,
    /// This rank's data offset within its own segment(s).
    pub my_data_off: u64,
    /// This rank's local allocation length.
    pub my_len: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_narrows_the_range() {
        let p = GPtr { off: 1024, len: 256 };
        let s = p.slice(64, 32);
        assert_eq!(s, GPtr { off: 1088, len: 32 });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_cannot_exceed_allocation() {
        let p = GPtr { off: 0, len: 16 };
        let _ = p.slice(8, 16);
    }
}
