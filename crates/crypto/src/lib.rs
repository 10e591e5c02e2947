//! # mpca-crypto
//!
//! From-scratch cryptographic substrates for the MPC-with-abort protocols.
//!
//! The paper assumes a handful of standard primitives: a hash function, a
//! PRG/CRS, a public-key encryption scheme with threshold decryption
//! (instantiated from LWE), digital signatures, symmetric encryption, secret
//! sharing, and the random-prime fingerprinting behind the succinct equality
//! test of Lemma 5. None of these are available as pre-approved dependencies,
//! so this crate implements each of them directly:
//!
//! | Module | Primitive | Used by |
//! |---|---|---|
//! | [`mod@sha256`] | SHA-256 | HMAC, signatures, CRS and key derivation, trace digests |
//! | [`hmac`] | HMAC-SHA-256 | authenticated symmetric encryption |
//! | [`chacha20`] | ChaCha20 stream cipher | PRG, symmetric encryption |
//! | [`prg`] | seedable deterministic PRG | all protocol randomness, CRS |
//! | [`primes`] | Miller–Rabin, random primes | Lemma 5 equality fingerprints |
//! | [`mod@fingerprint`] | string fingerprint mod a random prime | Algorithm 1 (`Equality_λ`) |
//! | [`lamport`] | Lamport one-time signatures | [`merkle_sig`] |
//! | [`merkle`] | Merkle trees | [`merkle_sig`] |
//! | [`merkle_sig`] | many-time hash-based signatures | multi-output MPC (Algorithm 4) |
//! | [`lwe`] | Regev-style LWE PKE, additively homomorphic | the encrypted functionality `F[PKE, f]` |
//! | [`threshold`] | k-out-of-k threshold decryption for [`lwe`] | committee-internal MPC |
//! | [`secret_sharing`] | additive k-out-of-k secret sharing mod `q` | [`threshold`] key shares |
//! | [`ske`] | ChaCha20 + HMAC authenticated symmetric encryption | per-party output delivery (Algorithm 4) |
//!
//! Everything is deterministic given a seed, which keeps every experiment in
//! the repository reproducible.
//!
//! ## Security disclaimer
//!
//! These implementations are written for a research reproduction: they are
//! functionally correct and follow the textbook constructions, but they have
//! not been hardened against side channels and the LWE parameters are sized
//! for simulation speed, not for 128-bit security. Do not reuse them in
//! production systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod fingerprint;
pub mod hmac;
pub mod lamport;
pub mod lwe;
pub mod merkle;
pub mod merkle_sig;
pub mod prg;
pub mod primes;
pub mod secret_sharing;
pub mod sha256;
pub mod ske;
pub mod threshold;

pub use chacha20::ChaCha20;
pub use fingerprint::{fingerprint, EqualityChallenge, EqualityResponse};
pub use hmac::hmac_sha256;
pub use lamport::{LamportKeyPair, LamportPublicKey, LamportSignature};
pub use lwe::{LweCiphertext, LweParams, LwePublicKey, LweSecretKey};
pub use merkle::MerkleTree;
pub use merkle_sig::{MerkleSigKeyPair, MerkleSigPublicKey, MerkleSignature};
pub use prg::Prg;
pub use sha256::{sha256, Sha256};
pub use ske::{SkeCiphertext, SymmetricKey};
pub use threshold::{PartialDecryption, ThresholdDecryptor, ThresholdKeyShares};

/// A 256-bit digest.
pub type Digest = [u8; 32];
