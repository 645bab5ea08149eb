//! Collective operation kinds and their data semantics.

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
    /// No-op when buffers are unbacked (CostOnly mode).
    pub fn apply(&self, devs: &DeviceTable, bufs: &[DeviceBuf], len: u64) {
        if devs.mode == diomp_device::DataMode::CostOnly {
            return;
        }
        let read = |b: &DeviceBuf, out: &mut [u8]| {
            devs.dev(b.flat).mem.read(b.off, out).expect("xccl read in bounds");
        };
        let write = |b: &DeviceBuf, bytes: &[u8]| {
            devs.dev(b.flat).mem.write(b.off, bytes).expect("xccl write in bounds");
        };
        // The sequential fold over `bufs`, operands read into one scratch.
        let fold = |op: &ReduceOp| {
            let mut acc = vec![0u8; len as usize];
            let mut operand = vec![0u8; len as usize];
            read(&bufs[0], &mut acc);
            for b in &bufs[1..] {
                read(b, &mut operand);
                op.combine(&mut acc, &operand);
            }
            acc
        };
        match self {
            XcclOp::Broadcast { root } => {
                let mut payload = vec![0u8; len as usize];
                read(&bufs[*root], &mut payload);
                for (i, b) in bufs.iter().enumerate() {
                    if i != *root {
                        write(b, &payload);
                    }
                }
            }
            XcclOp::AllReduce { op } => {
                let acc = fold(op);
                for b in bufs {
                    write(b, &acc);
                }
            }
            XcclOp::Reduce { root, op } => write(&bufs[*root], &fold(op)),
            XcclOp::AllGather => {
                // Assemble the gathered payload once, then one write per
                // device (which also sizes its backing once).
                let mut gathered = vec![0u8; bufs.len() * len as usize];
                if len > 0 {
                    for (b, part) in bufs.iter().zip(gathered.chunks_exact_mut(len as usize)) {
                        read(b, part);
                    }
                }
                for b in bufs {
                    write(b, &gathered);
                }
            }
        }
    }

    /// Element alignment the ring engine must respect when splitting the
    /// payload: reductions may never split an element across a segment
    /// boundary; pure data movement has byte granularity.
    pub fn elem_align(&self) -> u64 {
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
