//! Collective operation kinds and their data semantics.

use std::sync::Arc;

use diomp_device::DeviceTable;
use diomp_fabric::ReduceOp;

use crate::gate::DeviceBuf;

/// Which collective to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum XcclOp {
    /// Broadcast from the device at ring position `root`.
    Broadcast {
        /// Ring position of the source device.
        root: usize,
    },
    /// All-reduce: every device ends with the element-wise reduction.
    AllReduce {
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Reduce to the device at ring position `root`.
    Reduce {
        /// Ring position of the destination device.
        root: usize,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// All-gather: device `i`'s `len` bytes land at offset `i*len` of
    /// every device's buffer (buffers must be `n*len` long).
    AllGather,
}

impl XcclOp {
    /// Total bytes a bandwidth-optimal ring moves per device port for a
    /// payload of `len` bytes on `n` devices — the factor applied to the
    /// profile's achieved-bandwidth curve.
    pub fn wire_factor(&self, n: usize) -> f64 {
        let n = n as f64;
        match self {
            // Pipelined ring broadcast: every device receives the payload once.
            XcclOp::Broadcast { .. } => (n - 1.0) / n,
            // Ring reduce-scatter + allgather.
            XcclOp::AllReduce { .. } => 2.0 * (n - 1.0) / n,
            XcclOp::Reduce { .. } => (n - 1.0) / n,
            XcclOp::AllGather => (n - 1.0) / n,
        }
    }

    /// Apply the collective's data semantics on the real buffer bytes.
    /// `bufs` are in ring order; `len` is the per-device payload size.
    /// The result is built once and every receiving device stores that
    /// same buffer. No-op when buffers are unbacked (CostOnly mode).
    pub fn apply(&self, devs: &DeviceTable, bufs: &[DeviceBuf], len: u64) {
        if devs.mode == diomp_device::DataMode::CostOnly {
            return;
        }
        let read = |b: &DeviceBuf, out: &mut [u8]| {
            devs.dev(b.flat).mem.read(b.off, out).expect("xccl read in bounds");
        };
        let share = |b: &DeviceBuf, bytes: &Arc<[u8]>| {
            devs.dev(b.flat).mem.write_shared(b.off, bytes.clone()).expect("xccl write in bounds");
        };
        // The sequential fold over `bufs`, operands read into one scratch.
        let fold = |op: &ReduceOp| {
            result(len as usize, |acc| {
                let mut operand = vec![0u8; len as usize];
                read(&bufs[0], acc);
                for b in &bufs[1..] {
                    read(b, &mut operand);
                    op.combine(acc, &operand);
                }
            })
        };
        match self {
            XcclOp::Broadcast { root } => {
                let payload = result(len as usize, |out| read(&bufs[*root], out));
                for (i, b) in bufs.iter().enumerate() {
                    if i != *root {
                        share(b, &payload);
                    }
                }
            }
            XcclOp::AllReduce { op } => {
                let acc = fold(op);
                for b in bufs {
                    share(b, &acc);
                }
            }
            XcclOp::Reduce { root, op } => share(&bufs[*root], &fold(op)),
            XcclOp::AllGather => {
                let gathered = result(bufs.len() * len as usize, |out| {
                    if len > 0 {
                        for (b, part) in bufs.iter().zip(out.chunks_exact_mut(len as usize)) {
                            read(b, part);
                        }
                    }
                });
                for b in bufs {
                    share(b, &gathered);
                }
            }
        }
    }

    /// Element alignment the ring engine must respect when splitting the
    /// payload: reductions may never split an element across a segment
    /// boundary; pure data movement has byte granularity.
    pub(crate) fn elem_align(&self) -> u64 {
        match self {
            XcclOp::AllReduce { op } | XcclOp::Reduce { op, .. } => op.elem_bytes(),
            XcclOp::Broadcast { .. } | XcclOp::AllGather => 1,
        }
    }

    /// The profile used for this op (broadcast-shaped or allreduce-shaped).
    pub(crate) fn profile<'a>(
        &self,
        coll: &'a diomp_sim::CollModels,
    ) -> &'a diomp_sim::CollProfile {
        match self {
            XcclOp::Broadcast { .. } | XcclOp::AllGather => &coll.xccl_bcast,
            XcclOp::AllReduce { .. } | XcclOp::Reduce { .. } => &coll.xccl_allreduce,
        }
    }
}

/// A new `len`-byte buffer, zeroed and then filled by `fill`.
fn result(len: usize, fill: impl FnOnce(&mut [u8])) -> Arc<[u8]> {
    let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
    fill(Arc::get_mut(&mut buf).expect("a fresh buffer has one owner"));
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_factors_match_ring_algebra() {
        let b = XcclOp::Broadcast { root: 0 };
        let a = XcclOp::AllReduce { op: ReduceOp::SumF64 };
        assert!((b.wire_factor(4) - 0.75).abs() < 1e-12);
        assert!((a.wire_factor(4) - 1.5).abs() < 1e-12);
        assert!(a.wire_factor(64) > b.wire_factor(64));
    }
}
