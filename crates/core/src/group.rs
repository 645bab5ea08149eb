//! DiOMP groups (`ompx_group_t`, paper §3.3).
//!
//! A group partitions the communication domain like an MPI communicator,
//! but is decoupled from rank boundaries: synchronisation
//! (`ompx_barrier`, `ompx_fence`) and OMPCCL collectives can be scoped to
//! any subset, and groups can be *split* and *merged* dynamically to
//! follow program phases.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use diomp_fabric::{BarrierDomain, ExchangeDomain};
use diomp_sim::{Ctx, Dur};
use diomp_xccl::XcclComm;

/// Shared state of one group. `Rc<GroupShared>` is the `ompx_group_t`
/// handle.
pub struct GroupShared {
    /// Member ranks, sorted ascending (canonical form).
    pub ranks: Vec<usize>,
    /// Group-scoped barrier.
    pub barrier: BarrierDomain,
    /// Group-scoped bootstrap all-gather.
    pub exch: ExchangeDomain<u64>,
    /// Lazily initialised OMPCCL backend communicator, one slot per
    /// member (each rank runs its own `ncclCommInitRank`).
    pub(crate) comms: Vec<RefCell<Option<Rc<XcclComm>>>>,
}

/// The `ompx_group_t` handle.
pub type DiompGroup = Rc<GroupShared>;

impl GroupShared {
    /// This rank's index within the group, or `None` if not a member.
    pub fn index_of(&self, rank: usize) -> Option<usize> {
        self.ranks.binary_search(&rank).ok()
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }
}

/// Registry mapping canonical member lists to shared group state, so
/// every member that derives the same membership gets the same barrier /
/// exchange / communicator objects.
pub struct GroupRegistry {
    hop: Dur,
    map: RefCell<HashMap<Vec<usize>, DiompGroup>>,
}

impl GroupRegistry {
    /// Registry with the given per-hop synchronisation latency.
    pub fn new(hop: Dur) -> Self {
        GroupRegistry { hop, map: RefCell::new(HashMap::new()) }
    }

    /// Get or create the group with exactly these members (sorted,
    /// deduplicated internally).
    pub fn get_or_create(&self, mut ranks: Vec<usize>) -> DiompGroup {
        ranks.sort_unstable();
        ranks.dedup();
        assert!(!ranks.is_empty(), "a group needs at least one member");
        self.map
            .borrow_mut()
            .entry(ranks.clone())
            .or_insert_with(|| {
                let n = ranks.len();
                Rc::new(GroupShared {
                    ranks,
                    barrier: BarrierDomain::new(n, self.hop),
                    exch: ExchangeDomain::new(n, self.hop),
                    comms: (0..n).map(|_| RefCell::new(None)).collect(),
                })
            })
            .clone()
    }
}

/// Split a parent group by `(color, key)` — every member of `parent`
/// must call. Members sharing a color form a new group, ordered by
/// `(key, rank)` (MPI `Comm_split` semantics). Returns this rank's new
/// group.
pub fn group_split(
    ctx: &mut Ctx,
    registry: &GroupRegistry,
    parent: &DiompGroup,
    my_rank: usize,
    color: u32,
    key: u32,
) -> DiompGroup {
    let idx = parent.index_of(my_rank).expect("rank not in parent group");
    let packed = ((color as u64) << 32) | key as u64;
    let all = parent.exch.exchange(ctx, idx, packed);
    let mut members: Vec<(u32, usize)> = all
        .iter()
        .zip(&parent.ranks)
        .filter(|(&p, _)| (p >> 32) as u32 == color)
        .map(|(&p, &r)| ((p & 0xFFFF_FFFF) as u32, r))
        .collect();
    members.sort_unstable();
    registry.get_or_create(members.into_iter().map(|(_, r)| r).collect())
}

/// Merge two groups into one (paper §3.3 "group recomposition": multiple
/// existing groups can be dynamically merged into a new logical group).
/// Every member of *either* group must call; members of both count once.
pub fn group_merge(
    ctx: &mut Ctx,
    registry: &GroupRegistry,
    a: &DiompGroup,
    b: &DiompGroup,
    my_rank: usize,
) -> DiompGroup {
    let mut ranks = a.ranks.clone();
    ranks.extend_from_slice(&b.ranks);
    let merged = registry.get_or_create(ranks);
    let idx =
        merged.index_of(my_rank).unwrap_or_else(|| panic!("rank {my_rank} is in neither group"));
    // Synchronise the union before first use.
    merged.barrier.arrive_and_wait(ctx, idx);
    merged
}
