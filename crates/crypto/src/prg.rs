//! A deterministic, seedable pseudorandom generator built on ChaCha20.
//!
//! Every source of randomness in the repository — party coins, the common
//! random string (CRS), adversary coins, workload generation — flows through
//! [`Prg`], which makes every protocol execution and every experiment
//! reproducible from a single 32-byte seed.

use rand::{CryptoRng, RngCore, SeedableRng};

use crate::chacha20::ChaCha20;
use crate::sha256::sha256_parts;

/// A ChaCha20-based PRG implementing [`rand::RngCore`].
///
/// ```
/// use mpca_crypto::Prg;
/// use rand::RngCore;
///
/// let mut prg = Prg::from_seed_bytes(b"example seed");
/// let a = prg.next_u64();
/// let mut prg2 = Prg::from_seed_bytes(b"example seed");
/// assert_eq!(a, prg2.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct Prg {
    cipher: ChaCha20,
}

impl Prg {
    /// Creates a PRG from a full 32-byte seed.
    pub fn new(seed: [u8; 32]) -> Self {
        Self {
            cipher: ChaCha20::new(&seed, &[0u8; 12], 0),
        }
    }

    /// Creates a PRG by hashing an arbitrary-length seed.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        Self::new(sha256_parts(&[b"mpca-prg-seed", seed]))
    }

    /// Derives an independent child PRG for a labelled sub-purpose.
    ///
    /// Deriving (rather than sharing) generators keeps randomness used by
    /// different protocol phases statistically independent and insensitive to
    /// the order in which phases consume randomness.
    pub fn derive(&self, label: &[u8]) -> Prg {
        // Use fresh keystream as entropy, bound to the label.
        let mut material = [0u8; 32];
        let mut clone = self.clone();
        clone.fill_bytes(&mut material);
        Prg::new(sha256_parts(&[b"mpca-prg-derive", label, &material]))
    }

    /// Derives a child PRG from a seed and a numeric index (e.g. a party id).
    pub fn derive_indexed(&self, label: &[u8], index: u64) -> Prg {
        self.derive(&[label, &index.to_le_bytes()].concat())
    }

    /// Returns a uniformly random value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Rejection sampling to avoid modulo bias: accept below the largest
        // multiple of `bound` that fits. For a power of two (the prime
        // sampler's bounds) that zone is 2^64 − bound and the reduction is
        // a mask, so the same draws are accepted and mapped with no
        // division.
        let (zone, mask) = if bound.is_power_of_two() {
            (bound.wrapping_neg(), Some(bound - 1))
        } else {
            (u64::MAX - (u64::MAX % bound), None)
        };
        loop {
            let v = self.next_u64();
            if v < zone {
                return match mask {
                    Some(mask) => v & mask,
                    None => v % bound,
                };
            }
        }
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        // 53 bits of precision is plenty for the probabilities we use.
        let v = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        v < p
    }

    /// Samples a uniformly random subset of `[0, n)` of the given size,
    /// without replacement.
    ///
    /// # Panics
    ///
    /// Panics if `size > n`.
    pub fn sample_subset(&mut self, n: usize, size: usize) -> Vec<usize> {
        assert!(size <= n, "cannot sample {size} items from {n}");
        // Floyd's algorithm: O(size) expected insertions.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - size)..n {
            let t = self.gen_range(j as u64 + 1) as usize;
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Fills a vector with `len` random bytes.
    pub fn gen_bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.fill_bytes(&mut out);
        out
    }
}

impl RngCore for Prg {
    fn next_u32(&mut self) -> u32 {
        let mut buf = [0u8; 4];
        self.fill_bytes(&mut buf);
        u32::from_le_bytes(buf)
    }

    fn next_u64(&mut self) -> u64 {
        let mut buf = [0u8; 8];
        self.fill_bytes(&mut buf);
        u64::from_le_bytes(buf)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.cipher.fill_keystream(dest);
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl CryptoRng for Prg {}

impl SeedableRng for Prg {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        Prg::new(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Prg::new([1u8; 32]);
        let mut b = Prg::new([1u8; 32]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prg::new([1u8; 32]);
        let mut b = Prg::new([2u8; 32]);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derive_is_label_sensitive_and_stable() {
        let base = Prg::from_seed_bytes(b"base");
        let mut x1 = base.derive(b"x");
        let mut x2 = base.derive(b"x");
        let mut y = base.derive(b"y");
        assert_eq!(x1.next_u64(), x2.next_u64());
        assert_ne!(x1.next_u64(), y.next_u64());
    }

    #[test]
    fn gen_range_is_in_bounds_and_covers() {
        let mut prg = Prg::from_seed_bytes(b"range");
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = prg.gen_range(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn gen_range_draws_like_the_dividing_reference() {
        fn reference(prg: &mut Prg, bound: u64) -> u64 {
            let zone = u64::MAX - (u64::MAX % bound);
            loop {
                let v = prg.next_u64();
                if v < zone {
                    return v % bound;
                }
            }
        }
        let mut prg = Prg::from_seed_bytes(b"range-reference");
        let mut expected = prg.clone();
        let mut bounds: Vec<u64> = (0..64).map(|k| 1u64 << k).collect();
        bounds.extend([3, 10, 1000, (1 << 45) + 1, u64::MAX, u64::MAX / 3]);
        for &bound in &bounds {
            for _ in 0..50 {
                assert_eq!(
                    prg.gen_range(bound),
                    reference(&mut expected, bound),
                    "{bound}"
                );
            }
        }
        assert_eq!(prg.next_u64(), expected.next_u64());
    }

    #[test]
    fn gen_bool_rough_frequency() {
        let mut prg = Prg::from_seed_bytes(b"bool");
        let trials = 10_000;
        let hits = (0..trials).filter(|_| prg.gen_bool(0.25)).count();
        let freq = hits as f64 / trials as f64;
        assert!(
            (freq - 0.25).abs() < 0.03,
            "frequency {freq} too far from 0.25"
        );
    }

    #[test]
    fn sample_subset_properties() {
        let mut prg = Prg::from_seed_bytes(b"subset");
        for (n, k) in [(10, 0), (10, 10), (100, 7), (1000, 50)] {
            let subset = prg.sample_subset(n, k);
            assert_eq!(subset.len(), k);
            assert!(subset.windows(2).all(|w| w[0] < w[1]), "sorted and unique");
            assert!(subset.iter().all(|&x| x < n));
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_subset_oversize_panics() {
        let mut prg = Prg::from_seed_bytes(b"subset");
        let _ = prg.sample_subset(3, 4);
    }
}
