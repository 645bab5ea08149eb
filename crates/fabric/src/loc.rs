//! Buffer locations: where communication payloads live.

use diomp_device::{DeviceTable, HostBuf, MemError};

/// A communication buffer endpoint: device memory (by flat device index +
/// offset) or host memory (a [`HostBuf`] + offset).
#[derive(Clone)]
pub enum Loc {
    /// Device memory.
    Dev {
        /// Flat device index.
        flat: usize,
        /// Offset within the device address space.
        off: u64,
    },
    /// Host memory.
    Host {
        /// Host storage.
        buf: HostBuf,
        /// Offset within the buffer.
        off: u64,
    },
}

impl Loc {
    /// Device-memory location.
    pub fn dev(flat: usize, off: u64) -> Loc {
        Loc::Dev { flat, off }
    }

    /// Host-memory location.
    pub fn host(buf: HostBuf, off: u64) -> Loc {
        Loc::Host { buf, off }
    }

    /// Snapshot `len` bytes for an in-flight message. Returns `None` in
    /// CostOnly mode (nothing to carry).
    pub fn snapshot(&self, devs: &DeviceTable, len: u64) -> Result<Option<Vec<u8>>, MemError> {
        self.check(devs, len)?;
        match self {
            Loc::Dev { flat, off } => {
                let dev = devs.dev(*flat);
                if dev.mem.mode() == diomp_device::DataMode::CostOnly {
                    return Ok(None);
                }
                let mut v = vec![0u8; len as usize];
                dev.mem.read(*off, &mut v)?;
                Ok(Some(v))
            }
            Loc::Host { buf, off } => {
                if !buf.is_backed() {
                    return Ok(None);
                }
                let mut v = vec![0u8; len as usize];
                buf.read(*off, &mut v);
                Ok(Some(v))
            }
        }
    }

    /// Write delivered bytes into this location (used from scheduled
    /// delivery actions).
    pub fn deposit(&self, devs: &DeviceTable, bytes: &[u8]) {
        match self {
            Loc::Dev { flat, off } => {
                devs.dev(*flat).mem.write(*off, bytes).expect("bounds checked at initiation");
            }
            Loc::Host { buf, off } => buf.write(*off, bytes),
        }
    }

    /// Validate that `[off, off+len)` fits this location. Overflow-safe,
    /// like `diomp_device::copy`'s checks: an `off + len` that wraps
    /// `u64` is out of bounds, in release builds too.
    pub fn check(&self, devs: &DeviceTable, len: u64) -> Result<(), MemError> {
        let (off, capacity) = match self {
            Loc::Dev { flat, off } => (*off, devs.dev(*flat).mem.capacity()),
            Loc::Host { buf, off } => (*off, buf.len()),
        };
        check_range(off, len, capacity)
    }

    /// The node this location lives on (`None` for host buffers, which are
    /// node-agnostic in the model — callers supply the owning rank's node).
    pub(crate) fn dev_flat(&self) -> Option<usize> {
        match self {
            Loc::Dev { flat, .. } => Some(*flat),
            Loc::Host { .. } => None,
        }
    }

    /// Shift the offset by `delta` bytes (sub-ranges of a buffer).
    pub(crate) fn offset_by(&self, delta: u64) -> Loc {
        match self {
            Loc::Dev { flat, off } => Loc::Dev { flat: *flat, off: off + delta },
            Loc::Host { buf, off } => Loc::Host { buf: buf.clone(), off: off + delta },
        }
    }
}

/// The one bounds rule of the fabric: `[offset, offset + len)` must lie
/// inside `capacity`, with the sum computed without wrapping.
pub(crate) fn check_range(offset: u64, len: u64, capacity: u64) -> Result<(), MemError> {
    match offset.checked_add(len) {
        Some(end) if end <= capacity => Ok(()),
        _ => Err(MemError::OutOfBounds { offset, len, capacity }),
    }
}
