//! The hybrid-model realisation of the encrypted functionality: an ideal
//! trusted party `F[PKE, f]` (and `F[PKE, SKE, DS, f]`) exactly as defined in
//! §3.3 and §4.3 of the paper.
//!
//! Algorithms 3, 4 and 8 are stated — and proven secure — in the `F`-hybrid
//! model: the committee members hand their randomness shares `r_j` (their
//! private inputs) and the parties' ciphertexts (the public input `w`) to an
//! ideal functionality, which recomputes `(pk, sk) = Gen(1^λ; ⊕_j r_j)`,
//! decrypts, evaluates `f`, and hands back the outputs. This module
//! implements that trusted party faithfully; the *cost* of realising it from
//! LWE is charged separately by the protocols using
//! [`Theorem9CostModel`](crate::cost_model::Theorem9CostModel)-sized
//! messages exchanged inside the committee, so the communication accounting
//! of the reproduction matches the paper's statements.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mpca_crypto::lwe::{LweCiphertext, LweParams, LwePublicKey, LweSecretKey};
use mpca_crypto::merkle_sig::{MerkleSigKeyPair, MerkleSigPublicKey};
use mpca_crypto::sha256::sha256_parts;
use mpca_crypto::ske::SymmetricKey;
use mpca_crypto::Prg;

use crate::signing::SignedOutput;
use crate::spec::{Functionality, MultiOutputFunctionality};

/// What the host computes.
#[derive(Debug, Clone)]
pub enum HostFunctionality {
    /// Single common output (Algorithm 3).
    Single(Functionality),
    /// One output per party, encrypted and signed (Algorithm 4).
    Multi(MultiOutputFunctionality),
}

/// The ideal functionality host shared by the committee members' state
/// machines in a simulation.
///
/// Member indices are the committee members' *party ids* (as plain
/// `usize`), and input providers are identified by their party ids as well.
///
/// Keys are generated from the contributions received so far, as soon as
/// there is one: members contribute in the key-generation round and read
/// the keys a round later, so every honest member's share is folded in.
#[derive(Debug)]
pub struct EncFuncHost {
    params: LweParams,
    functionality: HostFunctionality,
    /// Randomness contributions for the encryption key (`F_Gen` / `F_Gen,1`).
    enc_randomness: BTreeMap<usize, [u8; 32]>,
    /// Randomness contributions for the signing key (`F_Gen,2`).
    sig_randomness: BTreeMap<usize, [u8; 32]>,
    /// Cached key pair, cleared by every new encryption contribution.
    keys: Option<(LwePublicKey, LweSecretKey)>,
    /// Cached signing key pair.
    signing: Option<MerkleSigKeyPair>,
    /// The CRS-derived public matrix `A`. Generated public keys reuse it,
    /// so protocols only need to distribute the `b` vector.
    shared_matrix: Vec<u64>,
}

/// A shareable, thread-safe handle to the host. Committee members of one
/// session share it; the `mpca-engine` session pool additionally requires
/// party logics (and hence this handle) to be `Send` so whole sessions can
/// run on worker threads.
pub type SharedHost = Arc<Mutex<EncFuncHost>>;

impl EncFuncHost {
    /// Creates a host whose keys reuse the CRS-derived public matrix
    /// `shared_a`, so the public key can be distributed as a bare `b` vector.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the parameters.
    pub fn new(params: LweParams, functionality: HostFunctionality, shared_a: Vec<u64>) -> Self {
        params.validate();
        assert_eq!(
            shared_a.len(),
            params.pk_rows * params.dim,
            "shared matrix has wrong shape"
        );
        Self {
            params,
            functionality,
            enc_randomness: BTreeMap::new(),
            sig_randomness: BTreeMap::new(),
            keys: None,
            signing: None,
            shared_matrix: shared_a,
        }
    }

    /// Wraps a host into a shared handle.
    pub fn shared(self) -> SharedHost {
        Arc::new(Mutex::new(self))
    }

    /// The LWE parameters in use.
    pub fn params(&self) -> &LweParams {
        &self.params
    }

    /// The functionality being computed.
    pub fn functionality(&self) -> &HostFunctionality {
        &self.functionality
    }

    /// `F_Gen` step 1: member `member_id` submits its randomness share for
    /// the encryption key. Submitting twice overwrites (the adversary may do
    /// so; the combined key changes accordingly, which is harmless).
    pub fn submit_enc_randomness(&mut self, member_id: usize, r: [u8; 32]) {
        self.keys = None;
        self.enc_randomness.insert(member_id, r);
    }

    /// `F_Gen,2`: member `member_id` submits its randomness share for the
    /// signing key.
    pub fn submit_sig_randomness(&mut self, member_id: usize, r: [u8; 32]) {
        self.signing = None;
        self.sig_randomness.insert(member_id, r);
    }

    fn combined_seed(label: &[u8], shares: &BTreeMap<usize, [u8; 32]>) -> [u8; 32] {
        // r = ⊕_j r_j, then hashed with a domain separator into a PRG seed.
        let mut combined = [0u8; 32];
        for share in shares.values() {
            for (c, s) in combined.iter_mut().zip(share.iter()) {
                *c ^= s;
            }
        }
        sha256_parts(&[label, &combined])
    }

    fn ensure_keys(&mut self) -> bool {
        if self.keys.is_some() {
            return true;
        }
        if self.enc_randomness.is_empty() {
            return false;
        }
        let seed = Self::combined_seed(b"encfunc-gen", &self.enc_randomness);
        let mut prg = Prg::new(seed);
        // Regev key generation re-using the CRS matrix: b = A·s + e.
        let shared_a = &self.shared_matrix;
        let (contribution, decryptor) =
            crate::keygen::KeygenContribution::generate(&self.params, shared_a, &mut prg);
        let pk = crate::keygen::combine_contributions(&self.params, shared_a, &[contribution]);
        let sk = LweSecretKey {
            params: self.params,
            s: decryptor.share,
        };
        self.keys = Some((pk, sk));
        true
    }

    fn ensure_signing(&mut self, capacity: usize) -> bool {
        if self
            .signing
            .as_ref()
            .is_some_and(|kp| kp.remaining() >= capacity)
        {
            return true;
        }
        if self.sig_randomness.is_empty() {
            return false;
        }
        let seed = Self::combined_seed(b"encfunc-gen-sig", &self.sig_randomness);
        let mut prg = Prg::new(seed);
        self.signing = Some(MerkleSigKeyPair::generate(&mut prg, capacity.max(1)));
        true
    }

    /// `F_Gen` output: the public key, available once a member has
    /// contributed randomness.
    pub fn public_key(&mut self) -> Option<LwePublicKey> {
        if self.ensure_keys() {
            self.keys.as_ref().map(|(pk, _)| pk.clone())
        } else {
            None
        }
    }

    /// `F_Gen,2` output: the signing public key, available once a member has
    /// contributed signing randomness. `capacity` bounds how many outputs
    /// will be signed (i.e. `n`).
    pub fn signing_public_key(&mut self, capacity: usize) -> Option<MerkleSigPublicKey> {
        if self.ensure_signing(capacity) {
            self.signing.as_ref().map(|kp| kp.public_key())
        } else {
            None
        }
    }

    /// Decrypts an input ciphertext, clamping it to the functionality's
    /// declared input width (the ideal `Dec` is a total function: malformed
    /// or adversarial ciphertexts decrypt to *some* input, zero-padded or
    /// truncated as needed).
    fn decrypt_input(&self, sk: &LweSecretKey, ct: &LweCiphertext, width: usize) -> Vec<u8> {
        let mut bytes = sk.decrypt_bytes(ct).unwrap_or_default();
        bytes.resize(width, 0);
        bytes
    }

    /// `F_Comp`: decrypts the parties' ciphertexts and evaluates the
    /// single-output functionality.
    ///
    /// Returns `None` when the key material is not yet available or when the
    /// host was built for a multi-output functionality.
    pub fn compute(&mut self, ciphertexts: &[LweCiphertext]) -> Option<Vec<u8>> {
        if !self.ensure_keys() {
            return None;
        }
        let functionality = match &self.functionality {
            HostFunctionality::Single(f) => f.clone(),
            HostFunctionality::Multi(_) => return None,
        };
        let (_pk, sk) = self.keys.as_ref().expect("ensured");
        let width = functionality.input_bytes();
        let inputs: Vec<Vec<u8>> = ciphertexts
            .iter()
            .map(|ct| self.decrypt_input(sk, ct, width))
            .collect();
        Some(functionality.evaluate(&inputs))
    }

    /// `F_Comp,Sign`: decrypts the parties' input ciphertexts and encrypted
    /// symmetric keys, evaluates the multi-output functionality, encrypts
    /// each party's output under that party's key and signs it. Returns the
    /// bundles (destined for a single designated relay) or `None` when key
    /// material is missing or the host was built for a single-output
    /// functionality.
    pub fn compute_signed(
        &mut self,
        input_cts: &[LweCiphertext],
        key_cts: &[LweCiphertext],
    ) -> Option<Vec<SignedOutput>> {
        if input_cts.len() != key_cts.len() {
            return None;
        }
        if !self.ensure_keys() || !self.ensure_signing(input_cts.len()) {
            return None;
        }
        let functionality = match &self.functionality {
            HostFunctionality::Multi(f) => f.clone(),
            HostFunctionality::Single(_) => return None,
        };
        let (_pk, sk) = self.keys.as_ref().expect("ensured").clone();
        let width = functionality.input_bytes();
        let inputs: Vec<Vec<u8>> = input_cts
            .iter()
            .map(|ct| self.decrypt_input(&sk, ct, width))
            .collect();
        let keys: Vec<SymmetricKey> = key_cts
            .iter()
            .map(|ct| {
                let mut bytes = self.decrypt_input(&sk, ct, 32);
                bytes.resize(32, 0);
                let mut arr = [0u8; 32];
                arr.copy_from_slice(&bytes);
                SymmetricKey::from_bytes(arr)
            })
            .collect();
        let outputs = functionality.evaluate(&inputs);
        // Output-encryption randomness is derived from the functionality's
        // internal coins (the combined member randomness), as a randomised
        // ideal functionality would do.
        let seed = Self::combined_seed(b"encfunc-comp-sign", &self.enc_randomness);
        let mut prg = Prg::new(seed);
        let signing = self.signing.as_ref().expect("ensured");
        let mut bundles = Vec::with_capacity(outputs.len());
        for (i, (output, key)) in outputs.iter().zip(keys.iter()).enumerate() {
            let ciphertext = key.encrypt(&mut prg, output);
            let signature = signing.sign(&SignedOutput::signed_bytes(i, &ciphertext))?;
            bundles.push(SignedOutput {
                recipient: i,
                ciphertext,
                signature,
            });
        }
        Some(bundles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_host(f: HostFunctionality) -> EncFuncHost {
        let params = LweParams::toy();
        let shared_a = crate::keygen::shared_matrix_from_crs(
            &params,
            &mut Prg::from_seed_bytes(b"hybrid-matrix"),
        );
        EncFuncHost::new(params, f, shared_a)
    }

    #[test]
    fn keygen_waits_for_a_contribution() {
        let mut host = toy_host(HostFunctionality::Single(Functionality::Xor {
            input_bytes: 1,
        }));
        assert!(host.public_key().is_none());
        host.submit_enc_randomness(10, [1u8; 32]);
        let first = host.public_key().expect("one contribution suffices");
        host.submit_enc_randomness(11, [2u8; 32]);
        assert_ne!(
            host.public_key(),
            Some(first),
            "a later contribution re-keys"
        );
    }

    #[test]
    fn keys_depend_on_every_contribution() {
        let mut a = toy_host(HostFunctionality::Single(Functionality::Xor {
            input_bytes: 1,
        }));
        a.submit_enc_randomness(0, [1u8; 32]);
        a.submit_enc_randomness(1, [2u8; 32]);
        let mut b = toy_host(HostFunctionality::Single(Functionality::Xor {
            input_bytes: 1,
        }));
        b.submit_enc_randomness(0, [1u8; 32]);
        b.submit_enc_randomness(1, [9u8; 32]);
        assert_ne!(a.public_key(), b.public_key());
    }

    #[test]
    fn single_output_compute_matches_reference() {
        let f = Functionality::Xor { input_bytes: 2 };
        let mut host = toy_host(HostFunctionality::Single(f.clone()));
        host.submit_enc_randomness(0, [7u8; 32]);
        host.submit_enc_randomness(1, [8u8; 32]);
        let pk = host.public_key().unwrap();
        let mut prg = Prg::from_seed_bytes(b"hybrid-single");
        let inputs: Vec<Vec<u8>> = vec![vec![0xAB, 0x01], vec![0x11, 0x10], vec![0xFF, 0xFF]];
        let cts: Vec<LweCiphertext> = inputs
            .iter()
            .map(|x| pk.encrypt_bytes(&mut prg, x))
            .collect();
        let out = host.compute(&cts).unwrap();
        assert_eq!(out, f.evaluate(&inputs));
    }

    #[test]
    fn garbage_ciphertexts_decrypt_to_some_input_not_a_crash() {
        let f = Functionality::Sum { input_bytes: 1 };
        let mut host = toy_host(HostFunctionality::Single(f));
        host.submit_enc_randomness(0, [1u8; 32]);
        let pk = host.public_key().unwrap();
        let mut prg = Prg::from_seed_bytes(b"hybrid-garbage");
        let good = pk.encrypt_bytes(&mut prg, &[5u8]);
        let garbage = LweCiphertext {
            chunks: vec![(vec![123u64; pk.params.dim], 42)],
        };
        let out = host.compute(&[good, garbage]).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn multi_output_bundles_verify_and_decrypt() {
        let f = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
        let mut host = toy_host(HostFunctionality::Multi(f.clone()));
        host.submit_enc_randomness(0, [1u8; 32]);
        host.submit_enc_randomness(1, [2u8; 32]);
        host.submit_sig_randomness(0, [3u8; 32]);
        host.submit_sig_randomness(1, [4u8; 32]);
        let pk = host.public_key().unwrap();
        let n = 4usize;
        let sig_pk = host.signing_public_key(n).unwrap();

        let mut prg = Prg::from_seed_bytes(b"hybrid-multi");
        let bids: Vec<Vec<u8>> = [100u16, 350, 275, 10]
            .iter()
            .map(|v| v.to_le_bytes().to_vec())
            .collect();
        let keys: Vec<SymmetricKey> = (0..n).map(|_| SymmetricKey::generate(&mut prg)).collect();
        let input_cts: Vec<LweCiphertext> =
            bids.iter().map(|b| pk.encrypt_bytes(&mut prg, b)).collect();
        let key_cts: Vec<LweCiphertext> = keys
            .iter()
            .map(|k| pk.encrypt_bytes(&mut prg, k.as_bytes()))
            .collect();

        let bundles = host.compute_signed(&input_cts, &key_cts).unwrap();
        assert_eq!(bundles.len(), n);
        let expected = f.evaluate(&bids);
        for (i, bundle) in bundles.iter().enumerate() {
            assert_eq!(bundle.recipient, i);
            assert!(bundle.verify(&sig_pk));
            assert_eq!(
                keys[i].decrypt(&bundle.ciphertext),
                Some(expected[i].clone())
            );
            // Other parties' keys cannot read it.
            assert_eq!(keys[(i + 1) % n].decrypt(&bundle.ciphertext), None);
        }
    }

    #[test]
    fn mismatched_modes_return_none() {
        let mut single = toy_host(HostFunctionality::Single(Functionality::Sum {
            input_bytes: 1,
        }));
        single.submit_enc_randomness(0, [0u8; 32]);
        assert!(single.compute_signed(&[], &[]).is_none());

        let mut multi = toy_host(HostFunctionality::Multi(
            MultiOutputFunctionality::PairwiseDelta { input_bytes: 1 },
        ));
        multi.submit_enc_randomness(0, [0u8; 32]);
        assert!(multi.compute(&[]).is_none());
    }
}
