//! Regev-style LWE public-key encryption with additive homomorphism.
//!
//! This is the `PKE = (Gen, Enc, Dec)` scheme that parameterises the
//! encrypted functionality `F[PKE, f]` of §3.3. The scheme is the textbook
//! construction from the Learning-with-Errors assumption [Regev 2009], which
//! is exactly the assumption the paper relies on:
//!
//! * **Gen**: secret `s ∈ Z_q^d`; public key `(A, b = A·s + e)` with
//!   `A ∈ Z_q^{k×d}` and small noise `e`.
//! * **Enc(m)**: random binary `r ∈ {0,1}^k`; ciphertext
//!   `(c₁ = rᵀA, c₂ = rᵀb + Δ·m + e')` with `Δ = q/t`.
//! * **Dec**: `m = round((c₂ − ⟨c₁, s⟩)/Δ) mod t`.
//!
//! The scheme is additively homomorphic (ciphertexts add component-wise),
//! which is what the concrete committee-internal computation path uses for
//! linear functionalities, and it supports k-out-of-k threshold decryption
//! (see [`crate::threshold`]) because decryption is linear in `s`.
//!
//! Parameters are chosen for simulation speed, not 128-bit security; see the
//! crate-level disclaimer.

use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::prg::Prg;

/// LWE parameter set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LweParams {
    /// Secret dimension `d`.
    pub dim: usize,
    /// Number of rows `k` in the public key (samples available to encryptors).
    pub pk_rows: usize,
    /// Ciphertext modulus `q` (a power of two, ≤ 2^56).
    pub modulus: u64,
    /// Plaintext modulus `t` (a power of two dividing `q`).
    pub plaintext_modulus: u64,
    /// Noise magnitude bound: noise is sampled uniformly from `[-B, B]`.
    pub noise_bound: u64,
}

impl LweParams {
    /// Default parameters: comfortable correctness margin for thousands of
    /// homomorphic additions.
    pub fn default_params() -> Self {
        Self {
            dim: 128,
            pk_rows: 256,
            modulus: 1 << 56,
            plaintext_modulus: 1 << 16,
            noise_bound: 4,
        }
    }

    /// Small parameters for large-`n` protocol sweeps where thousands of
    /// ciphertexts are simulated.
    pub fn toy() -> Self {
        Self {
            dim: 16,
            pk_rows: 48,
            modulus: 1 << 48,
            plaintext_modulus: 1 << 8,
            noise_bound: 2,
        }
    }

    /// Scaling factor `Δ = q / t`.
    pub fn delta(&self) -> u64 {
        self.modulus / self.plaintext_modulus
    }

    /// Number of plaintext bytes carried per ciphertext chunk.
    pub fn bytes_per_chunk(&self) -> usize {
        ((63 - self.plaintext_modulus.leading_zeros()) as usize) / 8
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (non-power-of-two moduli,
    /// plaintext modulus not dividing the ciphertext modulus, zero sizes).
    pub fn validate(&self) {
        assert!(
            self.dim > 0 && self.pk_rows > 0,
            "dimensions must be positive"
        );
        assert!(
            self.modulus.is_power_of_two(),
            "modulus must be a power of two"
        );
        assert!(
            self.plaintext_modulus.is_power_of_two(),
            "plaintext modulus must be a power of two"
        );
        assert!(
            self.modulus.is_multiple_of(self.plaintext_modulus),
            "plaintext modulus must divide modulus"
        );
        assert!(self.bytes_per_chunk() >= 1, "plaintext modulus too small");
        assert!(self.noise_bound > 0, "noise bound must be positive");
    }

    #[inline]
    fn reduce(&self, x: u128) -> u64 {
        (x & (self.modulus as u128 - 1)) as u64
    }

    /// Samples noise uniformly in `[-B, B]`, represented in `Z_q`.
    fn sample_noise(&self, prg: &mut Prg) -> u64 {
        let width = 2 * self.noise_bound + 1;
        let v = prg.gen_range(width);
        // v in [0, 2B]; map to [-B, B] mod q.
        if v <= self.noise_bound {
            v
        } else {
            self.modulus - (v - self.noise_bound)
        }
    }
}

/// The LWE secret key `s ∈ Z_q^d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweSecretKey {
    /// Parameters the key was generated for.
    pub params: LweParams,
    /// Secret vector.
    pub s: Vec<u64>,
}

/// The LWE public key `(A, b = A·s + e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LwePublicKey {
    /// Parameters the key was generated for.
    pub params: LweParams,
    /// Matrix `A`, row-major, `pk_rows × dim`.
    pub a: Vec<u64>,
    /// Vector `b = A·s + e`.
    pub b: Vec<u64>,
}

/// A ciphertext encrypting a vector of plaintext chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LweCiphertext {
    /// One `(c1, c2)` pair per plaintext chunk; `c1` has length `dim`.
    pub chunks: Vec<(Vec<u64>, u64)>,
}

/// Generates a key pair from `prg` randomness.
pub fn keygen(params: &LweParams, prg: &mut Prg) -> (LwePublicKey, LweSecretKey) {
    params.validate();
    let s: Vec<u64> = (0..params.dim)
        .map(|_| prg.gen_range(params.modulus))
        .collect();
    let mut a = Vec::with_capacity(params.pk_rows * params.dim);
    let mut b = Vec::with_capacity(params.pk_rows);
    for _ in 0..params.pk_rows {
        let row: Vec<u64> = (0..params.dim)
            .map(|_| prg.gen_range(params.modulus))
            .collect();
        let mut acc: u128 = 0;
        for (ai, si) in row.iter().zip(s.iter()) {
            acc = acc.wrapping_add(*ai as u128 * *si as u128);
            acc &= (params.modulus as u128 * params.modulus as u128) - 1;
        }
        let inner = params.reduce(acc);
        let noise = params.sample_noise(prg);
        b.push(params.reduce(inner as u128 + noise as u128));
        a.extend_from_slice(&row);
    }
    (
        LwePublicKey {
            params: *params,
            a,
            b,
        },
        LweSecretKey { params: *params, s },
    )
}

impl LwePublicKey {
    /// Encrypts a single plaintext chunk `m ∈ Z_t`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not reduced modulo the plaintext modulus.
    pub fn encrypt_chunk(&self, prg: &mut Prg, m: u64) -> (Vec<u64>, u64) {
        let params = &self.params;
        assert!(m < params.plaintext_modulus, "plaintext chunk out of range");
        // Random binary combination of the public-key rows.
        let mut c1 = vec![0u128; params.dim];
        let mut c2: u128 = 0;
        for row in 0..params.pk_rows {
            if prg.gen_bool(0.5) {
                for (j, c) in c1.iter_mut().enumerate() {
                    *c += self.a[row * params.dim + j] as u128;
                }
                c2 += self.b[row] as u128;
            }
        }
        let e_prime = params.sample_noise(prg);
        c2 += e_prime as u128 + params.delta() as u128 * m as u128;
        let c1: Vec<u64> = c1.into_iter().map(|x| params.reduce(x)).collect();
        (c1, params.reduce(c2))
    }

    /// Encrypts a byte string, packing [`LweParams::bytes_per_chunk`] bytes
    /// per chunk. The length is prepended so decryption recovers it exactly.
    pub fn encrypt_bytes(&self, prg: &mut Prg, plaintext: &[u8]) -> LweCiphertext {
        let per = self.params.bytes_per_chunk();
        let mut framed = Vec::with_capacity(plaintext.len() + 8);
        framed.extend_from_slice(&(plaintext.len() as u64).to_le_bytes());
        framed.extend_from_slice(plaintext);
        let mut chunks = Vec::new();
        for window in framed.chunks(per) {
            let mut value: u64 = 0;
            for (i, &byte) in window.iter().enumerate() {
                value |= (byte as u64) << (8 * i);
            }
            chunks.push(self.encrypt_chunk(prg, value));
        }
        LweCiphertext { chunks }
    }
}

impl LweSecretKey {
    /// Decrypts a single chunk.
    pub fn decrypt_chunk(&self, c1: &[u64], c2: u64) -> u64 {
        let params = &self.params;
        let mut inner: u128 = 0;
        for (ci, si) in c1.iter().zip(self.s.iter()) {
            inner = inner.wrapping_add(*ci as u128 * *si as u128);
            inner &= (params.modulus as u128 * params.modulus as u128) - 1;
        }
        let inner = params.reduce(inner);
        let diff = params.reduce(c2 as u128 + (params.modulus - inner) as u128);
        round_to_plaintext(params, diff)
    }

    /// Decrypts a byte string produced by [`LwePublicKey::encrypt_bytes`].
    ///
    /// Returns `None` if the embedded length is inconsistent (e.g. the
    /// ciphertext was corrupted or produced under different parameters).
    pub fn decrypt_bytes(&self, ciphertext: &LweCiphertext) -> Option<Vec<u8>> {
        let per = self.params.bytes_per_chunk();
        let mut bytes = Vec::with_capacity(ciphertext.chunks.len() * per);
        for (c1, c2) in &ciphertext.chunks {
            if c1.len() != self.params.dim {
                return None;
            }
            let value = self.decrypt_chunk(c1, *c2);
            for i in 0..per {
                bytes.push(((value >> (8 * i)) & 0xFF) as u8);
            }
        }
        if bytes.len() < 8 {
            return None;
        }
        let declared = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes")) as usize;
        if declared > bytes.len() - 8 {
            return None;
        }
        Some(bytes[8..8 + declared].to_vec())
    }
}

/// Rounds a `Z_q` value to the nearest multiple of `Δ` and returns the
/// corresponding plaintext chunk.
pub(crate) fn round_to_plaintext(params: &LweParams, value: u64) -> u64 {
    let delta = params.delta();
    ((value + delta / 2) / delta) % params.plaintext_modulus
}

impl LweCiphertext {
    /// Homomorphically adds another ciphertext into this one
    /// (component-wise; plaintexts add modulo `t`).
    ///
    /// # Panics
    ///
    /// Panics if the two ciphertexts have different shapes.
    pub fn add_assign(&mut self, other: &LweCiphertext, params: &LweParams) {
        assert_eq!(
            self.chunks.len(),
            other.chunks.len(),
            "ciphertext shapes differ"
        );
        for ((c1, c2), (o1, o2)) in self.chunks.iter_mut().zip(other.chunks.iter()) {
            assert_eq!(c1.len(), o1.len(), "ciphertext dimensions differ");
            for (a, b) in c1.iter_mut().zip(o1.iter()) {
                *a = params.reduce(*a as u128 + *b as u128);
            }
            *c2 = params.reduce(*c2 as u128 + *o2 as u128);
        }
    }

    /// Number of plaintext chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }
}

impl Encode for LweCiphertext {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.chunks.len() as u64);
        for (c1, c2) in &self.chunks {
            w.put_uvarint(c1.len() as u64);
            for v in c1 {
                w.put_u64(*v);
            }
            w.put_u64(*c2);
        }
    }
}

impl Decode for LweCiphertext {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.get_uvarint()? as usize;
        if count > 1 << 20 {
            return Err(WireError::Invalid("too many ciphertext chunks"));
        }
        let mut chunks = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let dim = r.get_uvarint()? as usize;
            if dim > 1 << 16 {
                return Err(WireError::Invalid("ciphertext dimension too large"));
            }
            let mut c1 = Vec::with_capacity(dim.min(1024));
            for _ in 0..dim {
                c1.push(r.get_u64()?);
            }
            let c2 = r.get_u64()?;
            chunks.push((c1, c2));
        }
        Ok(Self { chunks })
    }
}

impl Encode for LwePublicKey {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.params.dim as u64);
        w.put_uvarint(self.params.pk_rows as u64);
        w.put_u64(self.params.modulus);
        w.put_u64(self.params.plaintext_modulus);
        w.put_u64(self.params.noise_bound);
        for v in &self.a {
            w.put_u64(*v);
        }
        for v in &self.b {
            w.put_u64(*v);
        }
    }
}

impl Decode for LwePublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let dim = r.get_uvarint()? as usize;
        let pk_rows = r.get_uvarint()? as usize;
        if dim > 1 << 14 || pk_rows > 1 << 16 {
            return Err(WireError::Invalid("public key dimensions too large"));
        }
        let params = LweParams {
            dim,
            pk_rows,
            modulus: r.get_u64()?,
            plaintext_modulus: r.get_u64()?,
            noise_bound: r.get_u64()?,
        };
        if !params.modulus.is_power_of_two()
            || !params.plaintext_modulus.is_power_of_two()
            || params.plaintext_modulus == 0
            || !params.modulus.is_multiple_of(params.plaintext_modulus)
        {
            return Err(WireError::Invalid("inconsistent LWE parameters"));
        }
        let mut a = Vec::with_capacity((pk_rows * dim).min(1 << 20));
        for _ in 0..pk_rows * dim {
            a.push(r.get_u64()?);
        }
        let mut b = Vec::with_capacity(pk_rows);
        for _ in 0..pk_rows {
            b.push(r.get_u64()?);
        }
        Ok(Self { params, a, b })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encrypt_decrypt_chunks() {
        let params = LweParams::default_params();
        let mut prg = Prg::from_seed_bytes(b"lwe1");
        let (pk, sk) = keygen(&params, &mut prg);
        for m in [0u64, 1, 2, 255, 65_535, 12_345] {
            let (c1, c2) = pk.encrypt_chunk(&mut prg, m);
            assert_eq!(sk.decrypt_chunk(&c1, c2), m, "chunk {m}");
        }
    }

    #[test]
    fn encrypt_decrypt_bytes() {
        let params = LweParams::default_params();
        let mut prg = Prg::from_seed_bytes(b"lwe2");
        let (pk, sk) = keygen(&params, &mut prg);
        for len in [0usize, 1, 7, 32, 100] {
            let plaintext = prg.gen_bytes(len);
            let ct = pk.encrypt_bytes(&mut prg, &plaintext);
            assert_eq!(sk.decrypt_bytes(&ct), Some(plaintext), "length {len}");
        }
    }

    #[test]
    fn toy_params_round_trip() {
        let params = LweParams::toy();
        params.validate();
        let mut prg = Prg::from_seed_bytes(b"lwe3");
        let (pk, sk) = keygen(&params, &mut prg);
        let plaintext = b"toy parameters".to_vec();
        let ct = pk.encrypt_bytes(&mut prg, &plaintext);
        assert_eq!(sk.decrypt_bytes(&ct), Some(plaintext));
    }

    #[test]
    fn ciphertexts_are_randomised() {
        let params = LweParams::toy();
        let mut prg = Prg::from_seed_bytes(b"lwe4");
        let (pk, _sk) = keygen(&params, &mut prg);
        let a = pk.encrypt_bytes(&mut prg, b"same message");
        let b = pk.encrypt_bytes(&mut prg, b"same message");
        assert_ne!(a, b);
    }

    #[test]
    fn homomorphic_addition_of_sums() {
        let params = LweParams::default_params();
        let mut prg = Prg::from_seed_bytes(b"lwe5");
        let (pk, sk) = keygen(&params, &mut prg);
        // Sum 20 small values homomorphically, chunk-wise.
        let values: Vec<u64> = (0..20).map(|i| i * 17 + 3).collect();
        let mut acc: Option<LweCiphertext> = None;
        for &v in &values {
            let ct = LweCiphertext {
                chunks: vec![pk.encrypt_chunk(&mut prg, v)],
            };
            match &mut acc {
                None => acc = Some(ct),
                Some(a) => a.add_assign(&ct, &params),
            }
        }
        let acc = acc.unwrap();
        let expected: u64 = values.iter().sum::<u64>() % params.plaintext_modulus;
        assert_eq!(
            sk.decrypt_chunk(&acc.chunks[0].0, acc.chunks[0].1),
            expected
        );
    }

    #[test]
    fn wrong_key_garbles_plaintext() {
        let params = LweParams::toy();
        let mut prg = Prg::from_seed_bytes(b"lwe6");
        let (pk, _sk1) = keygen(&params, &mut prg);
        let (_pk2, sk2) = keygen(&params, &mut prg);
        let ct = pk.encrypt_bytes(&mut prg, b"hidden");
        // Either fails to parse or decrypts to something different.
        match sk2.decrypt_bytes(&ct) {
            None => {}
            Some(other) => assert_ne!(other, b"hidden"),
        }
    }

    #[test]
    fn ciphertext_and_pk_wire_round_trip() {
        let params = LweParams::toy();
        let mut prg = Prg::from_seed_bytes(b"lwe7");
        let (pk, sk) = keygen(&params, &mut prg);
        let ct = pk.encrypt_bytes(&mut prg, b"wire trip");
        let ct_back: LweCiphertext = mpca_wire::from_bytes(&mpca_wire::to_bytes(&ct)).unwrap();
        assert_eq!(ct_back, ct);
        assert_eq!(sk.decrypt_bytes(&ct_back), Some(b"wire trip".to_vec()));
        let pk_back: LwePublicKey = mpca_wire::from_bytes(&mpca_wire::to_bytes(&pk)).unwrap();
        assert_eq!(pk_back, pk);
    }

    #[test]
    #[should_panic(expected = "plaintext chunk out of range")]
    fn oversized_chunk_panics() {
        let params = LweParams::toy();
        let mut prg = Prg::from_seed_bytes(b"lwe8");
        let (pk, _sk) = keygen(&params, &mut prg);
        let _ = pk.encrypt_chunk(&mut prg, params.plaintext_modulus);
    }
}
