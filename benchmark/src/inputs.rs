//! Seeded input generation. Every workload derives its inputs from the
//! `--seed` argument through this generator and hands the program only
//! the generated values; the same seed gives the same inputs.

/// SplitMix64: small, fast, and good enough to shuffle op lists. Kept
/// here rather than borrowed from the program so the benchmark's inputs
/// cannot change when the program's RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one named stream of a seed; distinct streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `len` pseudo-random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// Rank `r`'s allreduce payload of `elems` f32s drawn from `pattern`:
/// integers in −8..=8, so a sum over up to 2^16 ranks is exact in f32
/// under any association and the byte check needs no tolerance.
pub fn small_int_f32s(pattern: &[u8], r: usize, elems: usize) -> Vec<u8> {
    let n = pattern.len();
    (0..elems)
        .flat_map(|i| (f32::from(pattern[(i + 31 * r) % n] % 17) - 8.0).to_le_bytes())
        .collect()
}

/// The sequential reference of allreduce(sum f32): fold the ranks'
/// payloads in rank order.
pub fn fold_sum_f32(payloads: impl Iterator<Item = Vec<u8>>, elems: usize) -> Vec<u8> {
    let mut acc = vec![0f32; elems];
    for payload in payloads {
        for (a, b) in acc.iter_mut().zip(payload.chunks_exact(4)) {
            *a += f32::from_le_bytes(b.try_into().expect("4-byte chunk"));
        }
    }
    acc.iter().flat_map(|v| v.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_others_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn the_reference_fold_is_exact_in_any_order() {
        let pattern = Rng::new(7, 0).bytes(4096);
        let payload = |r| small_int_f32s(&pattern, r, 1024);
        let forward = fold_sum_f32((0..64).map(payload), 1024);
        let backward = fold_sum_f32((0..64).rev().map(payload), 1024);
        assert_eq!(forward, backward);
        assert_ne!(payload(0), payload(1));
    }

    #[test]
    fn shuffle_permutes_and_below_stays_in_range() {
        let mut r = Rng::new(20250613, 0);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..100).collect::<Vec<_>>());
        assert!((0..1000).all(|_| r.below(6) < 6));
        assert_eq!(r.bytes(13).len(), 13);
    }
}
