//! Primality testing and random prime sampling.
//!
//! The succinct equality test of Lemma 5 samples a uniformly random prime
//! `p ∈ [n^λ]` and compares the two strings modulo `p`. This module provides
//! the deterministic Miller–Rabin test (exact for 64-bit integers) and the
//! random prime sampler used by [`mod@crate::fingerprint`].
//!
//! Sampling a prime draws candidates until one passes [`is_prime`], so the
//! test runs about `ln 2 · bits` times per prime, almost always on a
//! composite. [`is_prime`] therefore settles even numbers at once, sieves
//! odd ones by a branch-free multiply-by-inverse trial division over the
//! odd primes below 256, and spends Miller–Rabin only on the survivors:
//! base 2 alone first, then the rest of the witness set as interleaved
//! Montgomery chains. The verdict is the textbook test's for every `u64`,
//! and the sampler consumes the same draws, so every prime it returns — and
//! the PRG's position afterwards — is what the plain rejection loop gives.

use crate::prg::Prg;

/// Multiplies two `u64` values modulo `m` without overflow.
#[inline]
pub fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// Computes `base^exp mod m`.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut result = 1u64;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            result = mul_mod(result, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    result
}

/// Montgomery reduction context for an odd modulus `p < 2^63`: modular
/// multiplication as two multiply-shift steps, with no division anywhere.
///
/// Shared by the Miller–Rabin hot loop below and the string fingerprint of
/// [`mod@crate::fingerprint`] — the two inner loops of the succinct equality
/// test, both of which would otherwise spend a `u128 % u64` division per
/// step.
pub(crate) struct Montgomery {
    p: u64,
    /// `p⁻¹ mod 2^64`.
    p_inv: u64,
    /// `R mod p` with `R = 2^64` (the Montgomery form of 1).
    pub(crate) one: u64,
    /// `R² mod p` — multiplying by it converts into the Montgomery domain.
    pub(crate) r2: u64,
}

impl Montgomery {
    pub(crate) fn new(p: u64) -> Self {
        debug_assert!(p % 2 == 1 && p < 1 << 63);
        // Newton iteration doubles the number of correct low bits per step:
        // an odd `p` is its own inverse mod 8, and five steps from those
        // three bits reach all 64.
        let mut p_inv: u64 = p;
        for _ in 0..5 {
            p_inv = p_inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(p_inv)));
        }
        // 2^64 mod p = ((2^64 − 1) mod p) + 1, one u64 division; the sum
        // stays below p because an odd p does not divide 2^64.
        let one = u64::MAX % p + 1;
        let r2 = ((one as u128 * one as u128) % p as u128) as u64;
        Self { p, p_inv, one, r2 }
    }

    /// `a · b · R⁻¹ mod p` — the Montgomery product, division-free. Needs
    /// `a · b < 2^64 · p` (one operand below `p` suffices); the output is
    /// canonical (`< p`).
    #[inline]
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        let (diff, borrow) = self.quotient(a as u128 * b as u128);
        // Branch-free correction: add p back exactly when the difference
        // went negative.
        diff.wrapping_add(self.p & 0u64.wrapping_sub(borrow as u64))
    }

    /// `t · R⁻¹ mod p` for a sum `t` of up to four products of a `u64` and
    /// a residue (`t < 4 · 2^64 · p`), for `p < 2^62`: one reduction where
    /// four [`mul`](Self::mul)s would take three more multiplications each.
    #[inline]
    pub(crate) fn reduce_sum(&self, t: u128) -> u64 {
        debug_assert!(self.p < 1 << 62);
        // The quotient lies in (−p, 4p): bring a negative one up by p, and
        // a non-negative one down by 2p and by p where it reaches them.
        let (diff, borrow) = self.quotient(t);
        if borrow {
            return diff.wrapping_add(self.p);
        }
        let halved = if diff >= 2 * self.p {
            diff - 2 * self.p
        } else {
            diff
        };
        if halved >= self.p {
            halved - self.p
        } else {
            halved
        }
    }

    /// `(t − m·p) / 2^64` with `m = t · p⁻¹ mod 2^64`, as the wrapped
    /// difference of the high words and whether it went negative. `m·p`
    /// agrees with `t` in the low 64 bits, so the division is exact, and
    /// the result is `t · R⁻¹ mod p` up to a multiple of `p`.
    #[inline]
    fn quotient(&self, t: u128) -> (u64, bool) {
        let m = (t as u64).wrapping_mul(self.p_inv);
        let mp_high = ((m as u128 * self.p as u128) >> 64) as u64;
        ((t >> 64) as u64).overflowing_sub(mp_high)
    }

    /// The strong-probable-prime test of `p` to every base in `bases`
    /// (at most [`SMALL_PRIMES`]`.len()` of them), where `p − 1 = d · 2^r`
    /// with `d` odd.
    ///
    /// Each base is a lane computing `a^d` right to left: a chain of
    /// squarings, and a chain multiplying in the squarings the exponent's
    /// set bits select. The two chains of one lane overlap, so a lone base
    /// costs about one product's latency per bit. The lanes share the
    /// exponent, and with it the branch on each bit, so several bases run
    /// side by side in the time of little more than one.
    fn strong_probable_prime(&self, bases: &[u64], d: u64, r: u32) -> bool {
        const LANES: usize = SMALL_PRIMES.len();
        let k = bases.len();
        debug_assert!(k <= LANES && d % 2 == 1);
        let mut power = [0u64; LANES];
        let power = &mut power[..k];
        for (v, &a) in power.iter_mut().zip(bases) {
            *v = self.mul(a, self.r2);
        }
        // d is odd, so its lowest bit takes the bases themselves.
        let mut x = [0u64; LANES];
        let x = &mut x[..k];
        x.copy_from_slice(power);
        let mut rest = d >> 1;
        while rest != 0 {
            for p in power.iter_mut() {
                *p = self.mul(*p, *p);
            }
            if rest & 1 == 1 {
                for (v, p) in x.iter_mut().zip(power.iter()) {
                    *v = self.mul(*v, *p);
                }
            }
            rest >>= 1;
        }
        let neg_one = self.p - self.one;
        let mut passed = [false; LANES];
        let passed = &mut passed[..k];
        for (ok, &v) in passed.iter_mut().zip(x.iter()) {
            *ok = v == self.one || v == neg_one;
        }
        for _ in 1..r {
            if passed.iter().all(|&ok| ok) {
                break;
            }
            for (v, ok) in x.iter_mut().zip(passed.iter_mut()) {
                *v = self.mul(*v, *v);
                *ok |= *v == neg_one;
            }
        }
        passed.iter().all(|&ok| ok)
    }
}

const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// The smallest deterministic Miller–Rabin witness set for `n`, per the
/// classical strong-pseudoprime bounds (Jaeschke; OEIS A014233). Prefix sets
/// of `{2, 3, 5, …, 37}` are exact below the listed thresholds; the full
/// 12-prime set is exact for every `u64`.
fn witness_set(n: u64) -> &'static [u64] {
    if n < 2_047 {
        &SMALL_PRIMES[..1]
    } else if n < 1_373_653 {
        &SMALL_PRIMES[..2]
    } else if n < 25_326_001 {
        &SMALL_PRIMES[..3]
    } else if n < 3_215_031_751 {
        &SMALL_PRIMES[..4]
    } else if n < 2_152_302_898_747 {
        &SMALL_PRIMES[..5]
    } else if n < 3_474_749_660_383 {
        &SMALL_PRIMES[..6]
    } else if n < 341_550_071_728_321 {
        &SMALL_PRIMES[..7]
    } else if n < 3_825_123_056_546_413_051 {
        &SMALL_PRIMES[..9]
    } else {
        &SMALL_PRIMES
    }
}

/// Sieve bound: trial division covers the odd primes below it, so an odd
/// number below `SIEVE_BOUND²` that no sieve prime divides is prime.
const SIEVE_BOUND: u64 = 256;

/// The odd primes below [`SIEVE_BOUND`] as `(q⁻¹ mod 2^64, ⌊(2^64 − 1)/q⌋)`.
/// Multiplying by the inverse maps the multiples of `q` onto exactly
/// `0..=⌊(2^64 − 1)/q⌋`, so `q | n ⇔ n · q⁻¹ mod 2^64 ≤ ⌊(2^64 − 1)/q⌋`
/// (Granlund and Montgomery): one multiplication and one comparison per
/// prime instead of a division.
const SIEVE: [(u64, u64); 53] = sieve_table();

const fn sieve_table() -> [(u64, u64); 53] {
    let mut table = [(0u64, 0u64); 53];
    let mut len = 0;
    let mut q = 3u64;
    while q < SIEVE_BOUND {
        let mut f = 3u64;
        while f * f <= q && !q.is_multiple_of(f) {
            f += 2;
        }
        if f * f > q {
            let mut inv = q;
            let mut step = 0;
            while step < 5 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
                step += 1;
            }
            table[len] = (inv, u64::MAX / q);
            len += 1;
        }
        q += 2;
    }
    assert!(len == 53, "there are 53 odd primes below 256");
    table
}

/// `true` if an odd prime below [`SIEVE_BOUND`] divides `n`: a
/// branch-free multiply-compare per prime, in two blocks. The first eight
/// primes divide two thirds of all odd numbers, so most candidates stop
/// after them.
#[inline]
fn has_sieve_factor(n: u64) -> bool {
    let divides = |&(inv, limit): &(u64, u64)| n.wrapping_mul(inv) <= limit;
    let (head, tail) = SIEVE.split_at(8);
    head.iter().fold(false, |hit, q| hit | divides(q))
        || tail.iter().fold(false, |hit, q| hit | divides(q))
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` inputs.
///
/// Odd candidates first meet a branch-free trial-division sieve over the
/// odd primes below 256, which settles every candidate below `256²`
/// outright. A survivor takes the smallest exact witness set for its size
/// (up to the standard `{2, 3, 5, …, 37}`, sufficient below
/// `3.3 × 10^24`): base 2 alone first, since it rejects nearly every
/// composite, then the remaining bases as interleaved Montgomery chains
/// (below `2^63`; above, textbook `u128` arithmetic). Sieving only
/// rejects numbers with a small prime factor, and Montgomery arithmetic is
/// exact, so the verdict is the textbook test's for every input.
///
/// ```
/// assert!(mpca_crypto::primes::is_prime(2));
/// assert!(mpca_crypto::primes::is_prime(1_000_000_007));
/// assert!(!mpca_crypto::primes::is_prime(1_000_000_007u64 * 3));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n.is_multiple_of(2) {
        return n == 2;
    }
    if n < 3 {
        return false;
    }
    if has_sieve_factor(n) {
        // The only primes a sieve prime divides are the sieve primes.
        return n < SIEVE_BOUND && SIEVE.iter().any(|&(inv, _)| n.wrapping_mul(inv) == 1);
    }
    if n < SIEVE_BOUND * SIEVE_BOUND {
        return true;
    }
    // Write n - 1 = d * 2^r with d odd.
    let r = (n - 1).trailing_zeros();
    let d = (n - 1) >> r;
    let witnesses = witness_set(n);
    if n < 1 << 63 {
        // Base 2 alone rejects nearly every composite survivor; a prime
        // then runs the remaining bases side by side.
        let mont = Montgomery::new(n);
        let (first, rest) = witnesses.split_at(1);
        return mont.strong_probable_prime(first, d, r) && mont.strong_probable_prime(rest, d, r);
    }
    'witness: for &a in witnesses {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Samples a uniformly random prime in `[lo, hi)` by rejection sampling.
///
/// # Panics
///
/// Panics if the interval is empty or contains no prime (the caller controls
/// the interval; the intervals used by Lemma 5 always contain plenty of
/// primes by Bertrand's postulate).
pub fn random_prime_in_range(prg: &mut Prg, lo: u64, hi: u64) -> u64 {
    assert!(lo < hi, "empty range [{lo}, {hi})");
    // Expected number of iterations is O(ln hi); bound the loop generously so
    // that a degenerate interval fails loudly instead of spinning forever.
    let width = hi - lo;
    let max_iters = 64 * (64 - width.leading_zeros() as u64 + 2) * 20 + 10_000;
    for _ in 0..max_iters {
        let candidate = lo + prg.gen_range(width);
        if is_prime(candidate) {
            return candidate;
        }
    }
    panic!("no prime found in [{lo}, {hi}) after {max_iters} samples");
}

/// Samples a random prime with exactly `bits` bits (MSB set).
///
/// # Panics
///
/// Panics if `bits < 3` or `bits > 63`.
pub fn random_prime_with_bits(prg: &mut Prg, bits: u32) -> u64 {
    assert!((3..=63).contains(&bits), "bits must be in [3, 63]");
    random_prime_in_range(prg, 1u64 << (bits - 1), 1u64 << bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn small_primes_classified() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 97, 101];
        let composites = [0u64, 1, 4, 6, 8, 9, 10, 15, 21, 25, 49, 91, 100];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn known_large_primes_and_composites() {
        assert!(is_prime(1_000_000_007));
        assert!(is_prime(1_000_000_009));
        assert!(is_prime((1u64 << 61) - 1)); // Mersenne prime 2^61 - 1
        assert!(!is_prime((1u64 << 61) - 3));
        // Carmichael numbers must be rejected.
        for carmichael in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_prime(carmichael), "{carmichael} is a Carmichael number");
        }
        // The smallest strong pseudoprimes to bases {2}, {2, 3}, … {2, …,
        // 23}: each sits exactly at the threshold where `witness_set` adds
        // a base, so each needs the base added there.
        for pseudoprime in [
            2_047u64,
            1_373_653,
            25_326_001,
            3_215_031_751,
            2_152_302_898_747,
            3_474_749_660_383,
            341_550_071_728_321,
            3_825_123_056_546_413_051,
        ] {
            assert!(
                !is_prime(pseudoprime),
                "{pseudoprime} is a strong pseudoprime"
            );
        }
        assert!(is_prime(18_446_744_073_709_551_557)); // largest 64-bit prime
    }

    #[test]
    fn pow_mod_agrees_with_naive() {
        for (b, e, m) in [(3u64, 10u64, 1007u64), (7, 0, 13), (2, 62, 997), (10, 9, 1)] {
            let mut naive = 1u64 % m.max(1);
            for _ in 0..e {
                naive = mul_mod(naive, b % m.max(1), m.max(1));
            }
            if m == 1 {
                assert_eq!(pow_mod(b, e, m), 0);
            } else {
                assert_eq!(pow_mod(b, e, m), naive, "{b}^{e} mod {m}");
            }
        }
    }

    #[test]
    fn random_primes_are_prime_and_in_range() {
        let mut prg = Prg::from_seed_bytes(b"primes");
        for _ in 0..20 {
            let p = random_prime_in_range(&mut prg, 1 << 20, 1 << 21);
            assert!((1 << 20..1 << 21).contains(&p));
            assert!(is_prime(p));
        }
        let p = random_prime_with_bits(&mut prg, 40);
        assert!((1 << 39..1 << 40).contains(&p));
        assert!(is_prime(p));
    }

    /// The textbook test the fast path must agree with: trial division by
    /// the twelve witness primes, then Miller–Rabin to all twelve bases in
    /// `u128` arithmetic.
    fn textbook_is_prime(n: u64) -> bool {
        if n < 2 {
            return false;
        }
        for &p in &SMALL_PRIMES {
            if n == p {
                return true;
            }
            if n.is_multiple_of(p) {
                return false;
            }
        }
        let r = (n - 1).trailing_zeros();
        let d = (n - 1) >> r;
        SMALL_PRIMES.iter().all(|&a| {
            let mut x = pow_mod(a, d, n);
            if x == 1 || x == n - 1 {
                return true;
            }
            (1..r).any(|_| {
                x = mul_mod(x, x, n);
                x == n - 1
            })
        })
    }

    /// The sampler as first written: the rejection zone and the reduction
    /// by division, and the textbook test.
    fn reference_prime_in_range(prg: &mut Prg, lo: u64, hi: u64) -> u64 {
        let width = hi - lo;
        let zone = u64::MAX - (u64::MAX % width);
        loop {
            let v = prg.next_u64();
            if v < zone && textbook_is_prime(lo + v % width) {
                return lo + v % width;
            }
        }
    }

    #[test]
    fn agrees_with_the_textbook_test_below_2_to_the_20() {
        for n in 0..1u64 << 20 {
            assert_eq!(is_prime(n), textbook_is_prime(n), "{n}");
        }
    }

    #[test]
    fn agrees_with_the_textbook_test_on_random_odd_numbers() {
        let mut prg = Prg::from_seed_bytes(b"primes-random-odd");
        let mut primes = 0;
        for _ in 0..100_000 {
            let bits = 20 + prg.gen_range(44) as u32; // 20..=63
            let n = (prg.next_u64() >> (64 - bits)) | 1 << (bits - 1) | 1;
            let prime = is_prime(n);
            assert_eq!(prime, textbook_is_prime(n), "{n}");
            primes += usize::from(prime);
        }
        // Roughly one odd number in twenty-eight at these sizes.
        assert!(primes > 2_000, "only {primes} primes drawn");
        // Products of two primes above the sieve bound pass the sieve and
        // must be rejected by Miller–Rabin; the u64 top exercises the
        // textbook branch above 2^63.
        for _ in 0..2_000 {
            let (p_bits, q_bits) = (9 + prg.gen_range(23) as u32, 9 + prg.gen_range(23) as u32);
            let p = random_prime_with_bits(&mut prg, p_bits);
            let q = random_prime_with_bits(&mut prg, q_bits);
            assert!(!is_prime(p * q), "{p} * {q}");
            let top = u64::MAX - 2 * prg.gen_range(1 << 20);
            assert_eq!(is_prime(top), textbook_is_prime(top), "{top}");
        }
    }

    #[test]
    fn sampler_draws_like_the_reference_sampler() {
        for bits in 3..=63 {
            let seed = format!("prime-sampler-{bits}");
            let mut prg = Prg::from_seed_bytes(seed.as_bytes());
            let mut reference = prg.clone();
            for _ in 0..8 {
                let lo = 1u64 << (bits - 1);
                assert_eq!(
                    random_prime_with_bits(&mut prg, bits),
                    reference_prime_in_range(&mut reference, lo, lo << 1),
                    "{bits} bits"
                );
            }
            // The same prefix of the stream was consumed.
            assert_eq!(prg.next_u64(), reference.next_u64(), "{bits} bits");
        }
        // A width that is not a power of two takes the dividing path.
        let mut prg = Prg::from_seed_bytes(b"prime-sampler-odd-width");
        let mut reference = prg.clone();
        for _ in 0..64 {
            assert_eq!(
                random_prime_in_range(&mut prg, 1_000, 1_000_000_007),
                reference_prime_in_range(&mut reference, 1_000, 1_000_000_007)
            );
        }
        assert_eq!(prg.next_u64(), reference.next_u64());
    }

    #[test]
    fn prime_density_sanity() {
        // Count primes below 10_000 — π(10^4) = 1229.
        let count = (0u64..10_000).filter(|&n| is_prime(n)).count();
        assert_eq!(count, 1229);
    }
}
