//! `rma_stream`: a closed-loop stream of seeded one-sided operations from
//! rank 0 to the first GPU of the other node, once over GASNet-EX on
//! platform A and once over GPI-2 on platform C, through the tuned
//! pipeline, CostOnly.
//!
//! *Why:* `core` RMA, the `fabric` conduits and `device` copies do all
//! the work and `xccl` none. Put sits beside get so a gain for the
//! host-staged put path that costs the bounce-buffer get path shows.

use std::sync::{Arc, Mutex};

use diomp_core::{AsymPtr, Conduit, DiompConfig, DiompError, DiompRank, DiompRuntime, GPtr};
use diomp_device::DataMode;
use diomp_sim::{Ctx, PlatformSpec, SimTime};

use super::{host_ns_where, Check, IterOut, Ledger, OpStats, Workload};
use crate::host;
use crate::inputs::Rng;
use crate::stats::median;
use crate::trace::{Scope, Span, Tracer};

/// Message sizes of the stream.
pub const SIZES: [u64; 6] = [8, 512, 8 << 10, 128 << 10, 1 << 20, 16 << 20];
/// RMA calls per fence: one epoch, the workload's op.
pub const EPOCH: usize = 8;
/// Epochs per conduit and iteration.
pub const EPOCHS: usize = 2400;
/// Notification ids cycle over two epochs' worth, so an id is reused only
/// after the fence that completed its previous use.
const NOTIFY_IDS: u32 = 2 * EPOCH as u32;
/// Symmetric buffers are twice the largest message so offsets can vary.
const BUF: u64 = 32 << 20;
const HEAP: u64 = 256 << 20;
/// The Functional pass moves real bytes, so its buffers and heap are
/// only as large as its largest message needs.
const VERIFY_BUF: u64 = 8 << 20;
const VERIFY_HEAP: u64 = 64 << 20;

/// Which call an op makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Put,
    Get,
    PutAsym,
    GetAsym,
    /// `put_notify` on rank 0 paired with `notify_waitsome` on the target
    /// (GPI-2 only).
    PutNotify,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Put => "put",
            Kind::Get => "get",
            Kind::PutAsym => "put_asym",
            Kind::GetAsym => "get_asym",
            Kind::PutNotify => "put_notify",
        }
    }
}

/// One generated RMA call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub len: u64,
    /// Offset in the local buffer.
    pub local_off: u64,
    /// Offset in the remote buffer.
    pub remote_off: u64,
}

/// The op list of one conduit: `EPOCHS` epochs of `EPOCH` calls.
///
/// The *multiset* is fixed — every epoch holds each of the six sizes once
/// plus two more, every size fills the same number of those extra slots,
/// half the calls of a size are puts and half gets, one in four goes
/// through the asymmetric path, and on GPI-2 a third of the plain puts
/// carry a notification — and the seed decides which epoch gets which
/// extras, the order inside each epoch, which call gets which kind, and
/// every offset. Totals therefore repeat across seeds while epoch
/// composition does not.
pub fn gen_ops(seed: u64, conduit: Conduit) -> Vec<Op> {
    let stream = match conduit {
        Conduit::GasnetEx => 0x6A5,
        Conduit::Gpi2 => 0x691,
    };
    let mut rng = Rng::new(seed, stream);
    // Extra slots: two per epoch, dealt evenly over the sizes.
    let mut extras: Vec<u64> = (0..2 * EPOCHS).map(|i| SIZES[i % SIZES.len()]).collect();
    rng.shuffle(&mut extras);
    // Kinds per size class, dealt from a fixed multiset of eight.
    let per_size = EPOCHS * EPOCH / SIZES.len();
    let notify = conduit == Conduit::Gpi2;
    let mut kinds: Vec<Vec<Kind>> = SIZES
        .iter()
        .map(|_| {
            let mut ks: Vec<Kind> = (0..per_size)
                .map(|i| match i % 8 {
                    0 => Kind::PutAsym,
                    1 => Kind::GetAsym,
                    2 if notify => Kind::PutNotify,
                    2..=4 => Kind::Put,
                    _ => Kind::Get,
                })
                .collect();
            rng.shuffle(&mut ks);
            ks
        })
        .collect();
    let mut ops = Vec::with_capacity(EPOCHS * EPOCH);
    for e in 0..EPOCHS {
        let mut lens: Vec<u64> = SIZES.to_vec();
        lens.extend_from_slice(&extras[2 * e..2 * e + 2]);
        rng.shuffle(&mut lens);
        for len in lens {
            let class = SIZES.iter().position(|&s| s == len).expect("size class");
            let kind = kinds[class].pop().expect("kinds dealt evenly");
            let span = (BUF - len) / 256 + 1;
            ops.push(Op {
                kind,
                len,
                local_off: rng.below(span) * 256,
                remote_off: rng.below(span) * 256,
            });
        }
    }
    ops
}

/// One conduit arm of the workload.
#[derive(Clone)]
struct Arm {
    /// Names of the arm's `fabric.*` probes: put and get latency at 8 B,
    /// put and get bandwidth at 16 MiB.
    probes: [&'static str; 4],
    platform: PlatformSpec,
    conduit: Conduit,
    ops: Arc<Vec<Op>>,
}

impl Arm {
    fn config(&self, mode: DataMode, heap: u64) -> DiompConfig {
        DiompConfig::builder_on(self.platform.clone(), 2)
            .with_mode(mode)
            .with_conduit(self.conduit)
            .tuned()
            .with_heap(heap)
            .build()
    }

    /// First GPU of node 1.
    fn target(&self) -> usize {
        self.platform.gpus_per_node
    }
}

/// What rank 0 observed in one run.
#[derive(Default)]
struct Rank0 {
    epoch_us: Vec<f64>,
    rma_errs: u64,
    put_8b_us: f64,
    get_8b_us: f64,
    put_16m_gbps: f64,
    get_16m_gbps: f64,
    barrier_us: f64,
    cache: (u64, u64),
    rma_retries: u64,
}

struct Bufs {
    local: GPtr,
    remote: GPtr,
    asym: AsymPtr,
}

fn issue(
    ctx: &mut Ctx,
    rank: &mut DiompRank,
    target: usize,
    b: &Bufs,
    op: &Op,
    notify_id: u32,
) -> Result<(), DiompError> {
    let (l, r, len) = (op.local_off, op.remote_off, op.len);
    match op.kind {
        Kind::Put => rank.put(ctx, target, b.remote, r, b.local, l, len),
        Kind::Get => rank.get(ctx, target, b.remote, r, b.local, l, len),
        Kind::PutAsym => rank.put_asym(ctx, target, &b.asym, r, b.local, l, len),
        Kind::GetAsym => rank.get_asym(ctx, target, &b.asym, r, b.local, l, len),
        Kind::PutNotify => rank.put_notify(ctx, target, b.remote, r, b.local, l, len, notify_id, 1),
    }
}

fn alloc(ctx: &mut Ctx, rank: &mut DiompRank, len: u64) -> Bufs {
    Bufs {
        local: rank.alloc_sym(ctx, len).expect("local buffer fits the heap"),
        remote: rank.alloc_sym(ctx, len).expect("remote buffer fits the heap"),
        asym: rank.alloc_asym(ctx, len).expect("asymmetric buffer fits the heap"),
    }
}

/// Rank 0's side of one run: the calibration prologue, the stream, the
/// closing barrier.
fn rank0_program(
    ctx: &mut Ctx,
    rank: &mut DiompRank,
    arm: &Arm,
    b: &Bufs,
    tr: &Tracer,
    scope: Scope,
) -> Rank0 {
    let target = arm.target();
    let mut o = Rank0::default();
    // Calibration prologue: the conduit's small-message latency and
    // large-message bandwidth, each call fenced.
    let big = SIZES[SIZES.len() - 1];
    let (put, get): (Probe, Probe) = (
        |c, r, t, b, len| r.put(c, t, b.remote, 0, b.local, 0, len),
        |c, r, t, b, len| r.get(c, t, b.remote, 0, b.local, 0, len),
    );
    for (f, len, slot) in [
        (put, 8, &mut o.put_8b_us),
        (get, 8, &mut o.get_8b_us),
        (put, big, &mut o.put_16m_gbps),
        (get, big, &mut o.get_16m_gbps),
    ] {
        let t0 = ctx.now();
        o.rma_errs += u64::from(f(ctx, rank, target, b, len).is_err());
        rank.fence(ctx);
        let us = ctx.now().since(t0).as_us();
        *slot = if len == big { len as f64 / (us * 1e3) } else { us };
    }
    // The stream: a fence closes every epoch; the next epoch starts when
    // the fence returns (closed loop).
    for (e, epoch) in arm.ops.chunks(EPOCH).enumerate() {
        let t0 = ctx.now();
        for (i, op) in epoch.iter().enumerate() {
            let id = (e % 2 * EPOCH + i) as u32;
            let r = tr.span_virt(scope, "core", op.kind.name(), op.len, ctx, |ctx| {
                issue(ctx, rank, target, b, op, id)
            });
            o.rma_errs += u64::from(r.is_err());
        }
        tr.span_virt(scope, "core", "fence", 0, ctx, |ctx| rank.fence(ctx));
        o.epoch_us.push(ctx.now().since(t0).as_us());
    }
    o.cache = rank.cache.stats();
    o.rma_retries = rank.rma_retries;
    let t0 = ctx.now();
    tr.span_virt(scope, "fabric", "barrier", 0, ctx, |ctx| rank.barrier(ctx));
    o.barrier_us = ctx.now().since(t0).as_us();
    o
}

type Probe = fn(&mut Ctx, &mut DiompRank, usize, &Bufs, u64) -> Result<(), DiompError>;

/// Run one arm's stream. Returns `(virtual end, entries, coalesced, rank 0's view)`,
/// or `None` when the simulation itself failed.
fn run_arm(arm: &Arm, tr: &Arc<Tracer>, scope: Scope) -> Option<(SimTime, u64, u64, Rank0)> {
    let out = Arc::new(Mutex::new(Rank0::default()));
    let (out2, tr2, arm2) = (out.clone(), tr.clone(), arm.clone());
    let n_notify = arm.ops.iter().filter(|o| o.kind == Kind::PutNotify).count();
    let cfg =
        tr.span(scope, "core", "DiompConfig::build", 0, |_| arm.config(DataMode::CostOnly, HEAP));
    // What `DiompRuntime::run` takes beyond rank 0's program is booting
    // and tearing down the runtime: `core.runtime_build_host_ms`.
    let rep = tr.span(scope, "core", "DiompRuntime::run", 0, |scope| {
        DiompRuntime::run(cfg, move |ctx, rank| {
            let b = alloc(ctx, rank, BUF);
            if rank.rank == arm2.target() {
                for _ in 0..n_notify {
                    rank.notify_waitsome(ctx, 0, NOTIFY_IDS);
                }
            }
            if rank.rank == 0 {
                let o = tr2.span(scope, "core", "rank 0 program", 0, |scope| {
                    rank0_program(ctx, rank, &arm2, &b, &tr2, scope)
                });
                *out2.lock().expect("rank 0 result lock") = o;
            } else {
                rank.barrier(ctx);
            }
        })
    });
    let rep = rep.ok()?;
    let r0 = std::mem::take(&mut *out.lock().expect("rank 0 result lock"));
    Some((rep.end_time, rep.entries_processed, rep.coalesced_chunks, r0))
}

/// Round-trip real bytes through every call kind and compare.
fn verify_arm(arm: &Arm, seed: u64) -> Check {
    // Up to 2 MiB: above the tuned chunk size on both platforms, so the
    // pipelined paths carry real bytes too.
    let lens = [8u64, 512, 8 << 10, 128 << 10, 1 << 20, 2 << 20];
    let pairs: &[(Kind, Kind)] = if arm.conduit == Conduit::Gpi2 {
        &[(Kind::Put, Kind::Get), (Kind::PutAsym, Kind::GetAsym), (Kind::PutNotify, Kind::Get)]
    } else {
        &[(Kind::Put, Kind::Get), (Kind::PutAsym, Kind::GetAsym)]
    };
    let n_notify = lens.len() * pairs.iter().filter(|p| p.0 == Kind::PutNotify).count();
    let check = Arc::new(Mutex::new(Check::default()));
    let (check2, arm2, pairs2) = (check.clone(), arm.clone(), pairs.to_vec());
    let cfg = arm.config(DataMode::Functional, VERIFY_HEAP);
    let run = DiompRuntime::run(cfg, move |ctx, rank| {
        let target = arm2.target();
        let b = alloc(ctx, rank, VERIFY_BUF);
        if rank.rank == target {
            for _ in 0..n_notify {
                rank.notify_waitsome(ctx, 0, NOTIFY_IDS);
            }
        }
        if rank.rank == 0 {
            let mut rng = Rng::new(seed, 0xC4EC);
            let dev = rank.primary();
            let mut c = Check::default();
            for (k, &(put, get)) in pairs2.iter().enumerate() {
                for (i, &len) in lens.iter().enumerate() {
                    let pattern = rng.bytes(len as usize);
                    let span = (VERIFY_BUF / 2 - len) / 256 + 1;
                    // Send from the lower half, read back into the upper half.
                    let (src, back) =
                        (rng.below(span) * 256, VERIFY_BUF / 2 + rng.below(span) * 256);
                    let remote_off = rng.below(span) * 256;
                    rank.write_local(dev, b.local, src, &pattern);
                    let id = (k * lens.len() + i) as u32 % NOTIFY_IDS;
                    let there = Op { kind: put, len, local_off: src, remote_off };
                    let sent = issue(ctx, rank, target, &b, &there, id).is_ok();
                    rank.fence(ctx);
                    let here = Op { kind: get, len, local_off: back, remote_off };
                    // A get after a put to an asymmetric buffer must read
                    // the asymmetric buffer back, which `get` pairs do by kind.
                    let fetched = issue(ctx, rank, target, &b, &here, 0).is_ok();
                    rank.fence(ctx);
                    let mut got = vec![0u8; len as usize];
                    rank.read_local(dev, b.local, back, &mut got);
                    c.record(sent && fetched && got == pattern);
                }
            }
            *check2.lock().expect("check lock") = c;
        }
        rank.barrier(ctx);
    });
    let mut c = *check.lock().expect("check lock");
    if run.is_err() || c.attempted == 0 {
        // The run died before rank 0 reported: every planned check failed.
        let planned = (lens.len() * pairs.len()) as u64;
        c = Check { attempted: planned, failed: planned };
    }
    c
}

pub struct RmaStream {
    seed: u64,
    arms: [Arm; 2],
    /// Rank 0's view of the latest iteration, one per arm.
    last: Mutex<Vec<Rank0>>,
}

/// Generate both arms' op lists from the seed.
pub fn prepare(seed: u64) -> Box<dyn Workload> {
    let arm = |probes, platform, conduit| Arm {
        probes,
        platform,
        conduit,
        ops: Arc::new(gen_ops(seed, conduit)),
    };
    Box::new(RmaStream {
        seed,
        arms: [
            arm(
                [
                    "fabric.put_virt_us_8B_gasnet",
                    "fabric.get_virt_us_8B_gasnet",
                    "fabric.put_gbps_16MiB_gasnet",
                    "fabric.get_gbps_16MiB_gasnet",
                ],
                PlatformSpec::platform_a(),
                Conduit::GasnetEx,
            ),
            arm(
                [
                    "fabric.put_virt_us_8B_gpi",
                    "fabric.get_virt_us_8B_gpi",
                    "fabric.put_gbps_16MiB_gpi",
                    "fabric.get_gbps_16MiB_gpi",
                ],
                PlatformSpec::platform_c(),
                Conduit::Gpi2,
            ),
        ],
        last: Mutex::new(Vec::new()),
    })
}

impl Workload for RmaStream {
    fn verify(&self) -> Check {
        let mut c = Check::default();
        for arm in &self.arms {
            c.add(verify_arm(arm, self.seed));
        }
        c
    }

    fn iterate(&self, tr: &Arc<Tracer>, scope: Scope) -> IterOut {
        let mut out = IterOut::default();
        let mut views = Vec::new();
        let mut epoch_us = Vec::with_capacity(2 * EPOCHS);
        let mut bytes = 0u64;
        for arm in &self.arms {
            let calls = arm.ops.len() as u64 + 4;
            match run_arm(arm, tr, scope) {
                Some((end, entries, coalesced, r0)) => {
                    out.end_ns += end.nanos();
                    out.entries += entries;
                    out.coalesced += coalesced;
                    epoch_us.extend_from_slice(&r0.epoch_us);
                    // A run that lost epochs (it cannot, short of a bug)
                    // counts the missing calls as failed.
                    let missing = (EPOCHS - r0.epoch_us.len().min(EPOCHS)) as u64 * EPOCH as u64;
                    out.check.attempted += calls;
                    out.check.failed += r0.rma_errs + missing;
                    bytes += arm.ops.iter().map(|o| o.len).sum::<u64>() + 2 * (8 + SIZES[5]);
                    views.push(r0);
                }
                None => {
                    out.check.attempted += calls;
                    out.check.failed += calls;
                }
            }
        }
        // The stream runs end to end on rank 0, so the runs' end times are
        // the time the ops took (plus a barrier and the allocations).
        out.virt_ns = out.end_ns;
        out.ops = OpStats::of(&epoch_us);
        out.goodput_gbps = if out.virt_ns > 0 { bytes as f64 / out.virt_ns as f64 } else { 0.0 };
        *self.last.lock().expect("view lock") = views;
        out
    }

    fn layer_metrics(&self, spans: &[Span], _outs: &[IterOut]) -> Ledger {
        // Virtual readings repeat exactly, so the latest iteration's serve.
        let views = self.last.lock().expect("view lock");
        let mut m = Ledger::new();
        for (arm, v) in self.arms.iter().zip(views.iter()) {
            let read = [v.put_8b_us, v.get_8b_us, v.put_16m_gbps, v.get_16m_gbps];
            m.extend(arm.probes.into_iter().zip(read));
        }
        if let Some(v) = views.first() {
            m.push(("fabric.barrier_virt_us", v.barrier_us));
        }
        let (hits, misses) =
            views.iter().fold((0, 0), |(h, mi), v| (h + v.cache.0, mi + v.cache.1));
        m.push(("core.asym_cache_hit_share", hits as f64 / (hits + misses).max(1) as f64));
        m.push(("core.rma_retries", views.iter().map(|v| v.rma_retries).sum::<u64>() as f64));
        // Per-call virtual medians and host cost, from rank 0's spans.
        for (metric, name) in [
            ("core.put_virt_us_p50", "put"),
            ("core.get_virt_us_p50", "get"),
            ("core.put_asym_virt_us_p50", "put_asym"),
            ("core.get_asym_virt_us_p50", "get_asym"),
            ("core.put_notify_virt_us_p50", "put_notify"),
            ("core.fence_virt_us_p50", "fence"),
        ] {
            let us: Vec<f64> = spans
                .iter()
                .filter(|s| s.layer == "core" && s.name == name)
                .filter_map(|s| s.virt_dur_ns())
                .map(|ns| ns as f64 / 1e3)
                .collect();
            m.push((metric, if us.is_empty() { 0.0 } else { median(&us) }));
        }
        let (ns, calls) = host_ns_where(spans, |s| s.layer == "core" && s.virt_ns.is_some());
        m.push(("core.rma_host_ns_per_op", ns as f64 / calls.max(1) as f64));
        // One iteration pinned, one with the affinity mask the process
        // started with. Informational: it is what the scheduler costs
        // when it is allowed to move the baton between CPUs.
        drop(views);
        let off = Arc::new(Tracer::new(false));
        let timed = || {
            let t = std::time::Instant::now();
            self.iterate(&off, Scope::default());
            t.elapsed().as_secs_f64()
        };
        let pinned_s = timed();
        let free_s = host::unpinned(timed);
        m.push(("sim.unpinned_x", free_s / pinned_s));
        let (runs, n) = host_ns_where(spans, |s| s.name == "DiompRuntime::run");
        let (programs, _) = host_ns_where(spans, |s| s.name == "rank 0 program");
        m.push(("core.runtime_build_host_ms", (runs - programs) as f64 / 1e6 / n.max(1) as f64));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn same_seed_gives_the_same_op_list_and_another_seed_differs() {
        let a = gen_ops(20250613, Conduit::GasnetEx);
        assert_eq!(a, gen_ops(20250613, Conduit::GasnetEx));
        assert_ne!(a, gen_ops(7, Conduit::GasnetEx));
        assert_ne!(a, gen_ops(20250613, Conduit::Gpi2));
        assert_eq!(a.len(), EPOCHS * EPOCH);
    }

    #[test]
    fn the_multiset_of_ops_does_not_depend_on_the_seed() {
        let count = |seed, conduit| {
            let mut m: HashMap<(Kind, u64), usize> = HashMap::new();
            for o in gen_ops(seed, conduit) {
                *m.entry((o.kind, o.len)).or_default() += 1;
            }
            m
        };
        for conduit in [Conduit::GasnetEx, Conduit::Gpi2] {
            let a = count(20250613, conduit);
            assert_eq!(a, count(7, conduit));
            let per_size = EPOCHS * EPOCH / SIZES.len();
            for &len in &SIZES {
                let of = |k| a.get(&(k, len)).copied().unwrap_or(0);
                let puts = of(Kind::Put) + of(Kind::PutAsym) + of(Kind::PutNotify);
                assert_eq!(puts, per_size / 2, "half the calls of a size are puts");
                assert_eq!(of(Kind::Get) + of(Kind::GetAsym), per_size / 2);
                assert_eq!(of(Kind::PutAsym) + of(Kind::GetAsym), per_size / 4);
                let want_notify = if conduit == Conduit::Gpi2 { per_size / 8 } else { 0 };
                assert_eq!(of(Kind::PutNotify), want_notify);
            }
        }
    }

    #[test]
    fn every_epoch_holds_each_size_and_every_op_stays_in_bounds() {
        for o in gen_ops(7, Conduit::Gpi2).chunks(EPOCH) {
            for &s in &SIZES {
                assert!(o.iter().any(|op| op.len == s));
            }
            for op in o {
                assert!(op.local_off + op.len <= BUF && op.remote_off + op.len <= BUF);
                assert_eq!(op.local_off % 256, 0);
            }
        }
    }
}
