//! Additive k-out-of-k secret sharing modulo `q`.
//!
//! [`ThresholdKeyShares`](crate::threshold::ThresholdKeyShares) splits an LWE
//! secret key among all committee members with it, so that a single honest
//! member suffices to keep the key hidden (the paper's "k-out-of-k"
//! requirement in §2.2).

use crate::prg::Prg;

/// Additive k-out-of-k sharing of a vector of integers modulo `modulus`.
///
/// Used for sharing LWE secret keys, whose coefficients live in `Z_q`.
pub fn additive_share(
    prg: &mut Prg,
    secret: &[u64],
    parties: usize,
    modulus: u64,
) -> Vec<Vec<u64>> {
    assert!(parties >= 1, "need at least one share");
    assert!(modulus >= 2, "modulus must be at least 2");
    let mut shares = Vec::with_capacity(parties);
    let mut running: Vec<u64> = secret.iter().map(|&x| x % modulus).collect();
    for _ in 0..parties - 1 {
        let share: Vec<u64> = (0..secret.len()).map(|_| prg.gen_range(modulus)).collect();
        for (r, s) in running.iter_mut().zip(share.iter()) {
            // r = r - s (mod modulus)
            *r = (*r + modulus - *s) % modulus;
        }
        shares.push(share);
    }
    shares.push(running);
    shares
}

/// Reconstructs an additively shared vector modulo `modulus`.
///
/// # Panics
///
/// Panics if the shares have inconsistent lengths or if no shares are given.
pub fn additive_reconstruct(shares: &[Vec<u64>], modulus: u64) -> Vec<u64> {
    assert!(!shares.is_empty(), "need at least one share");
    let len = shares[0].len();
    let mut out = vec![0u64; len];
    for share in shares {
        assert_eq!(share.len(), len, "inconsistent share length");
        for (o, s) in out.iter_mut().zip(share.iter()) {
            *o = ((*o as u128 + *s as u128) % modulus as u128) as u64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_round_trip() {
        let mut prg = Prg::from_seed_bytes(b"add");
        let modulus = (1u64 << 32) - 5;
        let secret: Vec<u64> = (0..50).map(|_| prg.gen_range(modulus)).collect();
        for parties in [1, 2, 7, 33] {
            let shares = additive_share(&mut prg, &secret, parties, modulus);
            assert_eq!(additive_reconstruct(&shares, modulus), secret);
        }
    }

    #[test]
    fn additive_shares_are_reduced() {
        let mut prg = Prg::from_seed_bytes(b"add-reduced");
        let modulus = 97;
        let secret = vec![1000u64, 5, 96];
        let shares = additive_share(&mut prg, &secret, 3, modulus);
        for share in &shares {
            assert!(share.iter().all(|&x| x < modulus));
        }
        assert_eq!(
            additive_reconstruct(&shares, modulus),
            vec![1000 % 97, 5, 96]
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent share length")]
    fn inconsistent_lengths_panic() {
        let shares = vec![vec![1u64, 2], vec![3u64]];
        let _ = additive_reconstruct(&shares, 97);
    }
}
