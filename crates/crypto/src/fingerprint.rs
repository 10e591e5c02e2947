//! String fingerprinting modulo a random prime — the heart of the succinct
//! equality test (Lemma 5 / Algorithm 1 of the paper).
//!
//! Party `P1` samples a random prime `p` with `Θ(λ + log n)` bits and sends
//! `(p, m1 mod p)` to `P2`, who replies with a single accept/reject bit. If
//! the strings are equal the test always accepts; if they differ, it rejects
//! unless `p` divides the non-zero integer `m1 - m2`, which happens with
//! probability at most `log₂(n) / π(2^bits)` — negligible for the parameter
//! choices used by the protocols.
//!
//! Every pairwise check fingerprints a whole view, so [`fingerprint`] is
//! the inner loop of the test. It evaluates the big-endian integer over
//! 8-byte limbs in Montgomery form and folds four limbs per step, so each
//! step puts one Montgomery product on the dependency chain. Modular
//! arithmetic is exact: the result is the byte-wise Horner value bit for
//! bit, for every length and modulus.

use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::prg::Prg;
use crate::primes::{random_prime_with_bits, Montgomery};

/// Computes the fingerprint of `message` modulo `p`, interpreting the bytes
/// as a big-endian integer (Horner evaluation).
///
/// For an odd `p ≤ 2^62` (every prime of Lemma 5) the evaluation runs over
/// 8-byte limbs in the Montgomery domain and folds four limbs per dependent
/// step: with `B = 2^64 mod p`,
///
/// `acc' = acc·B⁴ + l₀·B³ + l₁·B² + l₂·B + l₃ (mod p)`,
///
/// so the chain from one step to the next is a single Montgomery product.
/// The four limb terms stay off the chain: their products are summed in
/// 128 bits and reduced once. Modular arithmetic is exact, so the result
/// equals the byte-wise recurrence bit for bit; other moduli take that
/// recurrence directly.
///
/// ```
/// let p = 1_000_000_007u64;
/// let a = mpca_crypto::fingerprint(b"hello", p);
/// let b = mpca_crypto::fingerprint(b"hello", p);
/// assert_eq!(a, b);
/// ```
pub fn fingerprint(message: &[u8], p: u64) -> u64 {
    assert!(p > 1, "modulus must exceed 1");
    if p.is_multiple_of(2) || p > 1 << 62 {
        // Generic byte-wise Horner. Montgomery needs an odd modulus and the
        // modular sums below need ≤62-bit headroom; the random primes of
        // Lemma 5 always satisfy both, so this branch only serves direct
        // callers with unusual moduli.
        let p128 = p as u128;
        let mut acc: u128 = 0;
        for &byte in message {
            acc = (acc * 256 + byte as u128) % p128;
        }
        return acc as u64;
    }
    // Montgomery forms carry a factor R = 2^64 ≡ B (mod p), and a
    // reduction divides by R: a raw limb times Rᵏ mod p reduces to the form
    // of limb·Bᵏ⁻², and the form acc·R times R⁵ to the form of acc·B⁴.
    let mont = Montgomery::new(p);
    let r2 = mont.r2;
    let r3 = mont.mul(r2, r2);
    let r4 = mont.mul(r3, r2);
    let r5 = mont.mul(r4, r2);
    // The leading `len mod 8` bytes are one integer below 2^56.
    let (head, body) = message.split_at(message.len() % 8);
    let head = head.iter().fold(0u64, |acc, &byte| acc << 8 | byte as u64);
    let mut acc_m = mont.mul(head, r2);
    let limb = |chunk: &[u8]| u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    // Limbs before the first whole group of four take the one-limb step
    // acc' = acc·B + l.
    let (single, groups) = body.split_at(body.len() % 32);
    for chunk in single.chunks_exact(8) {
        acc_m = mont.reduce_sum((acc_m as u128 + limb(chunk) as u128) * r2 as u128);
    }
    for group in groups.chunks_exact(32) {
        // Each product is below 2^64 · p, so the four sum without overflow
        // and reduce together.
        let term = |at: usize, r: u64| limb(&group[at..at + 8]) as u128 * r as u128;
        let terms = mont.reduce_sum(term(0, r5) + term(8, r4) + term(16, r3) + term(24, r2));
        acc_m = add_mod(mont.mul(acc_m, r5), terms, p);
    }
    // Leave the Montgomery domain: acc_m · 1 / R = acc.
    mont.mul(acc_m, 1)
}

#[inline]
fn add_mod(a: u64, b: u64, p: u64) -> u64 {
    let sum = a + b; // both < p ≤ 2^62, no overflow
    if sum >= p {
        sum - p
    } else {
        sum
    }
}

/// Number of bits in the random prime used for a given security parameter and
/// message length, mirroring the `p ∈ [n^λ]` choice in Lemma 5 while staying
/// within 64-bit arithmetic.
///
/// The false-accept probability for unequal strings is at most
/// `(message_bits) / π(2^bits) ≈ message_bits · bits · ln2 / 2^bits`.
pub fn prime_bits_for(lambda: u32, message_len_bytes: usize) -> u32 {
    let msg_bits = (message_len_bytes.max(1) * 8) as f64;
    // Require 2^bits >= 2^lambda * msg_bits * bits; solve loosely.
    let mut bits = (lambda as f64 + msg_bits.log2() + 8.0).ceil() as u32;
    bits = bits.clamp(20, 62);
    bits
}

/// The first message of the equality test: the prime and the sender's
/// fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualityChallenge {
    /// Random prime modulus.
    pub prime: u64,
    /// `m1 mod prime`.
    pub fingerprint: u64,
}

impl EqualityChallenge {
    /// Creates the challenge for `message` using randomness from `prg`.
    pub fn new(prg: &mut Prg, lambda: u32, message: &[u8]) -> Self {
        let bits = prime_bits_for(lambda, message.len());
        let prime = random_prime_with_bits(prg, bits);
        Self {
            prime,
            fingerprint: fingerprint(message, prime),
        }
    }

    /// Evaluates the challenge against the receiver's message, producing the
    /// response bit of Algorithm 1.
    pub fn matches(&self, message: &[u8]) -> bool {
        self.prime > 1 && fingerprint(message, self.prime) == self.fingerprint
    }
}

impl Encode for EqualityChallenge {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.prime);
        w.put_u64(self.fingerprint);
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decode for EqualityChallenge {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            prime: r.get_u64()?,
            fingerprint: r.get_u64()?,
        })
    }
}

/// The second (and final) message of the equality test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualityResponse {
    /// `true` iff the receiver's fingerprint matched.
    pub equal: bool,
}

impl Encode for EqualityResponse {
    fn encode(&self, w: &mut Writer) {
        self.equal.encode(w);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for EqualityResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            equal: bool::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_strings_always_accept() {
        let mut prg = Prg::from_seed_bytes(b"fp-equal");
        let msg = prg.gen_bytes(4096);
        for _ in 0..50 {
            let challenge = EqualityChallenge::new(&mut prg, 16, &msg);
            assert!(challenge.matches(&msg));
        }
    }

    #[test]
    fn unequal_strings_almost_always_reject() {
        let mut prg = Prg::from_seed_bytes(b"fp-unequal");
        let msg1 = prg.gen_bytes(4096);
        let mut false_accepts = 0;
        for i in 0..200 {
            let mut msg2 = msg1.clone();
            let idx = (i * 13) % msg2.len();
            msg2[idx] ^= 0x01;
            let challenge = EqualityChallenge::new(&mut prg, 16, &msg1);
            if challenge.matches(&msg2) {
                false_accepts += 1;
            }
        }
        assert_eq!(false_accepts, 0, "a 40+ bit prime should not collide here");
    }

    #[test]
    fn fingerprint_is_mod_arithmetic() {
        // fingerprint(bytes, p) must equal the big-endian integer mod p.
        let p = 65_537u64; // prime
        let bytes = [0x01u8, 0x00, 0x00]; // 65536
        assert_eq!(fingerprint(&bytes, p), 65_536 % p);
        let bytes = [0x01u8, 0x00, 0x01]; // 65537
        assert_eq!(fingerprint(&bytes, p), 0);
        assert_eq!(fingerprint(&[], p), 0);
    }

    #[test]
    fn limb_horner_matches_bytewise_reference() {
        // The folded limb evaluation must equal the byte-wise recurrence
        // for every length up to 300 (every head of 0..8 bytes and every
        // count of single limbs before the groups of four), for long
        // messages, and across the small/large modulus branch.
        fn bytewise(message: &[u8], p: u64) -> u64 {
            let mut acc: u64 = 0;
            for &byte in message {
                acc = ((acc as u128 * 256 + byte as u128) % p as u128) as u64;
            }
            acc
        }
        let mut prg = Prg::from_seed_bytes(b"fp-limbs");
        let mut moduli = vec![
            3u64,
            65_537,
            1_000_000_007,
            (1 << 61) - 1,
            (1 << 62) - 57,             // odd, at the top of the Montgomery path
            18_446_744_073_709_551_557, // largest 64-bit prime
            // Not prime — the function is defined for any modulus > 1, odd
            // (Montgomery path) or even (generic path).
            255,
            256,
            1 << 40,
            (1 << 62) + 1,
            1 << 63,
            u64::MAX,
        ];
        // Random primes across the sizes Lemma 5 draws.
        moduli.extend(
            (20..=62)
                .step_by(3)
                .map(|bits| random_prime_with_bits(&mut prg, bits)),
        );
        let ones = [0xffu8; 300];
        for len in (0usize..=300).chain([1000, 4096]) {
            let msg = prg.gen_bytes(len);
            for &p in &moduli {
                assert_eq!(fingerprint(&msg, p), bytewise(&msg, p), "len={len} p={p}");
                if let Some(ones) = ones.get(..len) {
                    assert_eq!(
                        fingerprint(ones, p),
                        bytewise(ones, p),
                        "ones len={len} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn prime_bits_scale_with_lambda_and_length() {
        assert!(prime_bits_for(16, 100) < prime_bits_for(40, 100));
        assert!(prime_bits_for(16, 100) <= prime_bits_for(16, 1 << 20));
        assert!(prime_bits_for(60, 1 << 20) <= 62);
        assert!(prime_bits_for(1, 1) >= 20);
    }

    #[test]
    fn challenge_round_trips_on_the_wire() {
        let mut prg = Prg::from_seed_bytes(b"fp-wire");
        let challenge = EqualityChallenge::new(&mut prg, 16, b"some message");
        let bytes = mpca_wire::to_bytes(&challenge);
        assert_eq!(bytes.len(), 16);
        let back: EqualityChallenge = mpca_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back, challenge);
        let resp = EqualityResponse { equal: true };
        let back: EqualityResponse = mpca_wire::from_bytes(&mpca_wire::to_bytes(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn communication_is_logarithmic_in_message_length() {
        // The whole point of Lemma 5: challenge size is O(λ + log n) bits,
        // independent of the message length.
        let mut prg = Prg::from_seed_bytes(b"fp-comm");
        let small = EqualityChallenge::new(&mut prg, 16, &[1u8; 32]);
        let large = EqualityChallenge::new(&mut prg, 16, &vec![1u8; 1 << 20]);
        assert_eq!(
            mpca_wire::encoded_len(&small),
            mpca_wire::encoded_len(&large)
        );
    }
}
