//! Binomial-tree schedules for the small-message fast path.
//!
//! A ring needs `n−1` (chain ops) or `2(n−1)` (allreduce) serial steps;
//! below the bandwidth crossover those steps are pure latency. The tree
//! schedules here finish in `⌈log2 n⌉` rounds instead: in broadcast
//! round `k`, the `2^k` payload holders each forward to the peer `2^k`
//! positions away; reduction mirrors the rounds in reverse. The LL
//! generator (`crate::ll`) emits these hop lists as a schedule of single
//! fused payload+flag messages over the simulated links.

/// Binomial broadcast hop list over `n` ring positions rooted at `root`:
/// `(src, dst)` pairs in round-major order, so every hop's source has
/// already received the payload by the time the hop is processed.
pub(crate) fn bcast_hops(n: usize, root: usize) -> Vec<(usize, usize)> {
    let mut hops = Vec::with_capacity(n.saturating_sub(1));
    let mut k = 1;
    while k < n {
        for v in 0..k {
            if v + k < n {
                hops.push(((v + root) % n, (v + k + root) % n));
            }
        }
        k <<= 1;
    }
    hops
}

/// Binomial reduction hop list toward `root`: the mirror image of
/// [`bcast_hops`] with rounds reversed, so by the time a node sends its
/// partial up the tree, every contribution from its own subtree has
/// already been folded in.
pub(crate) fn reduce_hops(n: usize, root: usize) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut k = 1;
    while k < n {
        spans.push(k);
        k <<= 1;
    }
    let mut hops = Vec::with_capacity(n.saturating_sub(1));
    for &k in spans.iter().rev() {
        for v in 0..k {
            if v + k < n {
                hops.push(((v + k + root) % n, (v + root) % n));
            }
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bcast_reaches_every_position_exactly_once() {
        for n in 1..20usize {
            for root in [0, n / 2, n - 1] {
                let hops = bcast_hops(n, root % n);
                assert_eq!(hops.len(), n - 1, "n={n}: one receive per non-root");
                let mut have = vec![false; n];
                have[root % n] = true;
                for (s, d) in hops {
                    assert!(have[s], "n={n}: sender {s} forwards before receiving");
                    assert!(!have[d], "n={n}: {d} received twice");
                    have[d] = true;
                }
                assert!(have.iter().all(|&h| h), "n={n}: all positions covered");
            }
        }
    }

    #[test]
    fn reduce_folds_every_contribution_toward_root() {
        for n in 1..20usize {
            let root = 1 % n;
            let hops = reduce_hops(n, root);
            assert_eq!(hops.len(), n - 1);
            // A node must not send after it has already sent (its partial
            // would be stale), and every non-root sends exactly once.
            let mut sent = vec![false; n];
            for (s, d) in hops {
                assert!(!sent[s], "n={n}: {s} sends twice");
                assert!(!sent[d], "n={n}: {d} receives after sending");
                sent[s] = true;
            }
            assert!(!sent[root], "root never sends");
            assert_eq!(sent.iter().filter(|&&s| s).count(), n - 1);
        }
    }

    #[test]
    fn round_counts_are_logarithmic() {
        // A position forwards one hop per round, starting the round after
        // it hears: the broadcast's last hop lands in round ⌈log2 n⌉ — the
        // critical path LL's schedule marches on the senders' links.
        for (n, rounds) in [(1, 0), (2, 1), (8, 3), (9, 4), (64, 6)] {
            let mut round = vec![0u32; n];
            for (s, d) in bcast_hops(n, n / 3) {
                round[s] += 1;
                round[d] = round[s];
            }
            assert_eq!(round.into_iter().max(), Some(rounds), "n={n}");
        }
    }
}
