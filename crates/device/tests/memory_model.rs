//! Differential test of the sparse device memory against a dense
//! reference: seeded random writes, shared writes of one buffer into
//! several memories, kernel views and reads, compared byte for byte with
//! a plain `Vec<u8>` per memory that starts zeroed.

use std::sync::Arc;

use diomp_device::{DataMode, DeviceMem};

const CAP: usize = 4096;
const MEMS: usize = 3;

/// SplitMix64: a tiny deterministic generator, enough to drive the ops.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }

    /// A range inside `[0, CAP)`. Starts and lengths fall on a coarse grid
    /// most of the time, so exact, nested and straddling overlaps of
    /// earlier ranges are common; otherwise they land anywhere.
    fn range(&mut self) -> (usize, usize) {
        let (off, len) = if self.below(4) > 0 {
            (64 * self.below(CAP / 64), 64 * self.below(6))
        } else {
            (self.below(CAP), self.below(400))
        };
        let off = off.min(CAP);
        (off, len.min(CAP - off))
    }
}

/// How an op's range sat against the extents already written.
#[derive(Default)]
struct Seen {
    exact: usize,
    nested: usize,
    straddling: usize,
}

impl Seen {
    fn note(&mut self, written: &[(usize, usize)], off: usize, len: usize) {
        let end = off + len;
        for &(o, l) in written {
            let e = o + l;
            if (o, e) == (off, end) {
                self.exact += 1;
            } else if o <= off && end <= e || off <= o && e <= end {
                self.nested += 1;
            } else if off < e && o < end {
                self.straddling += 1;
            }
        }
    }
}

fn check_read(mem: &DeviceMem, dense: &[u8], rng: &mut Rng, step: usize) {
    let (off, len) = rng.range();
    let mut out = vec![0xAAu8; len];
    mem.read(off as u64, &mut out).unwrap();
    assert_eq!(out, dense[off..off + len], "step {step}: read [{off}, +{len})");
}

fn run(seed: u64, steps: usize) -> Seen {
    let mut rng = Rng(seed);
    let mems: Vec<DeviceMem> =
        (0..MEMS).map(|_| DeviceMem::new(CAP as u64, DataMode::Functional)).collect();
    let cost = DeviceMem::new(CAP as u64, DataMode::CostOnly);
    let mut dense = vec![vec![0u8; CAP]; MEMS];
    let mut written = Vec::new();
    let mut seen = Seen::default();
    // Every buffer handed to `write_shared`, beside the bytes it held then.
    let mut shared: Vec<(Arc<[u8]>, Vec<u8>)> = Vec::new();
    for step in 0..steps {
        let m = rng.below(MEMS);
        let (off, len) = rng.range();
        seen.note(&written, off, len);
        written.push((off, len));
        match rng.below(4) {
            0 => {
                let data = rng.bytes(len);
                mems[m].write(off as u64, &data).unwrap();
                cost.write(off as u64, &data).unwrap();
                dense[m][off..off + len].copy_from_slice(&data);
            }
            1 => {
                let data: Arc<[u8]> = rng.bytes(len).into();
                for (i, mem) in mems.iter().enumerate() {
                    if i == m || rng.below(2) == 0 {
                        mem.write_shared(off as u64, data.clone()).unwrap();
                        dense[i][off..off + len].copy_from_slice(&data);
                    }
                }
                cost.write_shared(off as u64, data.clone()).unwrap();
                shared.push((data.clone(), data.to_vec()));
            }
            2 => {
                let key = rng.next() as u8;
                let kernel = |s: &mut [u8]| {
                    for (i, b) in s.iter_mut().enumerate() {
                        *b = b.wrapping_mul(3) ^ key ^ i as u8;
                    }
                    s.len()
                };
                let ran = mems[m].with_slice_mut(off as u64, len as u64, kernel).unwrap();
                assert_eq!(ran, Some(len), "step {step}: the kernel runs in Functional mode");
                kernel(&mut dense[m][off..off + len]);
                assert_eq!(cost.with_slice_mut(off as u64, len as u64, kernel).unwrap(), None);
            }
            _ => check_read(&mems[m], &dense[m], &mut rng, step),
        }
        for (mem, dense) in mems.iter().zip(&dense) {
            check_read(mem, dense, &mut rng, step);
        }
        check_read(&cost, &[0; CAP], &mut rng, step);
    }
    for (mem, dense) in mems.iter().zip(&dense) {
        let mut all = vec![0xAAu8; CAP];
        mem.read(0, &mut all).unwrap();
        assert_eq!(&all, dense, "seed {seed}: the whole memory at the end");
    }
    for (buf, was) in &shared {
        assert_eq!(&buf[..], &was[..], "seed {seed}: a shared buffer changed in place");
    }
    seen
}

#[test]
fn sparse_memory_matches_a_dense_reference() {
    let mut total = Seen::default();
    for seed in [1, 7, 20250613, 0xdead_beef] {
        let seen = run(seed, 600);
        total.exact += seen.exact;
        total.nested += seen.nested;
        total.straddling += seen.straddling;
    }
    let Seen { exact, nested, straddling } = total;
    assert!(
        exact > 100 && nested > 100 && straddling > 100,
        "overlap kinds exercised: exact {exact}, nested {nested}, straddling {straddling}"
    );
}

#[test]
fn scripted_overlaps_read_back_through_every_seam() {
    let m = DeviceMem::new(1024, DataMode::Functional);
    let other = DeviceMem::new(1024, DataMode::Functional);
    let mut dense = vec![0u8; 1024];
    let put = |off: usize, data: &[u8], dense: &mut Vec<u8>| {
        dense[off..off + data.len()].copy_from_slice(data);
    };
    let shared: Arc<[u8]> = vec![5u8; 200].into();
    m.write_shared(100, shared.clone()).unwrap();
    other.write_shared(100, shared.clone()).unwrap();
    put(100, &shared, &mut dense);
    m.write(100, &[6; 200]).unwrap(); // exact
    put(100, &[6; 200], &mut dense);
    m.write(150, &[7; 10]).unwrap(); // nested
    put(150, &[7; 10], &mut dense);
    m.write(250, &[8; 100]).unwrap(); // straddling the end
    put(250, &[8; 100], &mut dense);
    m.write(50, &[9; 60]).unwrap(); // straddling the start
    put(50, &[9; 60], &mut dense);
    m.with_slice_mut(0, 1024, |s| s.iter_mut().for_each(|b| *b += 1)).unwrap(); // gaps too
    dense.iter_mut().for_each(|b| *b += 1);
    for (off, len) in [(0, 1024), (49, 3), (109, 2), (149, 12), (299, 2), (349, 2), (1000, 24)] {
        let mut out = vec![0u8; len];
        m.read(off as u64, &mut out).unwrap();
        assert_eq!(out, dense[off..off + len], "read [{off}, +{len})");
    }
    let mut out = vec![0u8; 200];
    other.read(100, &mut out).unwrap();
    assert_eq!((out, &shared[..]), (vec![5u8; 200], &[5u8; 200][..]), "the sharer is untouched");
}
