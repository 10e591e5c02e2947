//! Multi-output MPC with abort (Algorithm 4, §4.3).
//!
//! When the functionality gives each party its *own* private output, naively
//! having every committee member forward every output to everyone costs
//! `O(n³/h²)`. Algorithm 4 avoids the blow-up: each party also sends the
//! committee an encrypted symmetric key `k_i`; the encrypted functionality
//! `F_Comp,Sign` returns party `i`'s output encrypted under `k_i` and
//! **signed** under a committee signing key, and a *single* (possibly
//! corrupted) member relays each bundle. Unforgeability means tampering is
//! detected by the recipient's signature check, so one relay suffices.
//!
//! This implementation always uses the hybrid execution path (the general
//! multi-output functionalities are non-linear); the signing keys are real
//! hash-based Merkle/Lamport signatures and the per-party output encryption
//! is real authenticated symmetric encryption.

use std::collections::{BTreeMap, BTreeSet};

use mpca_crypto::lwe::LweCiphertext;
use mpca_crypto::merkle_sig::MerkleSigPublicKey;
use mpca_crypto::ske::SymmetricKey;
use mpca_crypto::Prg;
use mpca_encfunc::signing::SignedOutput;
use mpca_encfunc::spec::MultiOutputFunctionality;
use mpca_encfunc::SharedHost;
use mpca_net::{
    AbortReason, CommonRandomString, Envelope, PartyCtx, PartyId, PartyLogic, Payload, Step,
};
use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::committee::{CommitteeElectParty, CommitteeView};
use crate::equality::PairwiseEquality;
use crate::params::ProtocolParams;

/// Number of rounds (committee election included).
pub const ROUNDS: usize = crate::committee::ROUNDS + 8;

/// Wire messages of Algorithm 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultiMsg {
    /// Hybrid-model realisation filler (Theorem 9-sized payload).
    Filler(Vec<u8>),
    /// A member forwarding the encryption public key (`b`) and the signing
    /// public key.
    Keys(Vec<u64>, MerkleSigPublicKey),
    /// A party's encrypted input and encrypted symmetric key.
    Inputs(LweCiphertext, LweCiphertext),
    /// Equality challenge / response over the member's collected view.
    Challenge(mpca_crypto::fingerprint::EqualityChallenge),
    /// Equality response.
    Response(mpca_crypto::fingerprint::EqualityResponse),
    /// The designated member's relay of one party's signed output.
    Output(SignedOutput),
}

impl Encode for MultiMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            MultiMsg::Filler(bytes) => {
                w.put_u8(0);
                w.put_len_prefixed(bytes);
            }
            MultiMsg::Keys(b, sig_pk) => {
                w.put_u8(1);
                w.put_uvarint(b.len() as u64);
                for v in b {
                    w.put_u64(*v);
                }
                sig_pk.encode(w);
            }
            MultiMsg::Inputs(ct, key_ct) => {
                w.put_u8(2);
                ct.encode(w);
                key_ct.encode(w);
            }
            MultiMsg::Challenge(c) => {
                w.put_u8(3);
                c.encode(w);
            }
            MultiMsg::Response(r) => {
                w.put_u8(4);
                r.encode(w);
            }
            MultiMsg::Output(out) => {
                w.put_u8(5);
                out.encode(w);
            }
        }
    }
}

impl Decode for MultiMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(MultiMsg::Filler(r.get_len_prefixed()?.to_vec())),
            1 => {
                let len = r.get_uvarint()? as usize;
                if len > 1 << 20 {
                    return Err(WireError::Invalid("public key too long"));
                }
                let mut b = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    b.push(r.get_u64()?);
                }
                Ok(MultiMsg::Keys(b, MerkleSigPublicKey::decode(r)?))
            }
            2 => Ok(MultiMsg::Inputs(
                LweCiphertext::decode(r)?,
                LweCiphertext::decode(r)?,
            )),
            3 => Ok(MultiMsg::Challenge(
                mpca_crypto::fingerprint::EqualityChallenge::decode(r)?,
            )),
            4 => Ok(MultiMsg::Response(
                mpca_crypto::fingerprint::EqualityResponse::decode(r)?,
            )),
            5 => Ok(MultiMsg::Output(SignedOutput::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "MultiMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// One party of Algorithm 4.
pub struct MultiOutputParty {
    id: PartyId,
    params: ProtocolParams,
    functionality: MultiOutputFunctionality,
    input: Vec<u8>,
    prg: Prg,
    host: SharedHost,
    shared_a: std::sync::Arc<Vec<u64>>,

    elect: Option<CommitteeElectParty>,
    committee: BTreeSet<PartyId>,
    is_member: bool,
    symmetric_key: Option<SymmetricKey>,
    keys: Option<(Vec<u64>, MerkleSigPublicKey)>,
    collected: BTreeMap<PartyId, Vec<u8>>,
    equality: Option<PairwiseEquality>,
}

impl std::fmt::Debug for MultiOutputParty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiOutputParty")
            .field("id", &self.id)
            .field("is_member", &self.is_member)
            .finish_non_exhaustive()
    }
}

impl MultiOutputParty {
    /// Creates a party. All parties of one execution share the same host,
    /// which [`multi_output_parties`] builds.
    ///
    /// # Panics
    ///
    /// Panics if the input width does not match the functionality.
    pub(crate) fn new(
        id: PartyId,
        params: ProtocolParams,
        functionality: MultiOutputFunctionality,
        input: Vec<u8>,
        crs: CommonRandomString,
        host: SharedHost,
    ) -> Self {
        params.validate();
        assert_eq!(
            input.len(),
            functionality.input_bytes(),
            "input width does not match the functionality"
        );
        let shared_a = crate::crs_cache::shared_matrix(&params.lwe, &crs, b"multi-lwe-matrix");
        Self {
            id,
            params,
            functionality,
            input,
            prg: crs.party_prg(id, b"multi-party"),
            host,
            shared_a,
            elect: Some(CommitteeElectParty::new(
                id,
                params,
                crs.party_prg(id, b"multi-elect"),
            )),
            committee: BTreeSet::new(),
            is_member: false,
            symmetric_key: None,
            keys: None,
            collected: BTreeMap::new(),
            equality: None,
        }
    }

    fn other_members(&self) -> Vec<PartyId> {
        self.committee
            .iter()
            .copied()
            .filter(|c| *c != self.id)
            .collect()
    }

    fn designated_member(&self) -> Option<PartyId> {
        self.committee.iter().next().copied()
    }

    fn reconstruct_pk(&self, b: &[u64]) -> Option<mpca_crypto::lwe::LwePublicKey> {
        if b.len() != self.params.lwe.pk_rows {
            return None;
        }
        Some(mpca_crypto::lwe::LwePublicKey {
            params: self.params.lwe,
            a: self.shared_a.as_ref().clone(),
            b: b.to_vec(),
        })
    }
}

impl PartyLogic for MultiOutputParty {
    type Output = Vec<u8>;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<Vec<u8>> {
        if round < crate::committee::ROUNDS {
            let elect = self.elect.as_mut().expect("election in progress");
            return match elect.on_round(round, incoming, ctx) {
                Step::Continue => Step::Continue,
                Step::Abort(reason) => Step::Abort(reason),
                Step::Output(CommitteeView {
                    committee,
                    is_member,
                }) => {
                    if committee.is_empty() {
                        return Step::Abort(AbortReason::MissingMessage("empty committee".into()));
                    }
                    self.committee = committee;
                    self.is_member = is_member;
                    self.elect = None;
                    Step::Continue
                }
            };
        }
        let phase = round - crate::committee::ROUNDS;
        match phase {
            // F_Gen,1 + F_Gen,2: members contribute randomness for both keys.
            0 => {
                if self.is_member {
                    let mut r_enc = [0u8; 32];
                    let mut r_sig = [0u8; 32];
                    rand::RngCore::fill_bytes(&mut self.prg, &mut r_enc);
                    rand::RngCore::fill_bytes(&mut self.prg, &mut r_sig);
                    {
                        let mut host = self.host.lock().expect("encfunc host lock poisoned");
                        host.set_expected_members(1);
                        host.submit_enc_randomness(self.id.index(), r_enc);
                        host.submit_sig_randomness(self.id.index(), r_sig);
                    }
                    let cost = self
                        .params
                        .cost_model(self.functionality.depth())
                        .broadcast_payload_bytes(self.params.lambda as usize / 8);
                    ctx.send_to_all(self.other_members(), &MultiMsg::Filler(vec![0u8; cost]));
                }
                Step::Continue
            }
            // Members fetch both public keys and forward them to everyone
            // (steps 3 and 5 of Algorithm 4, merged).
            1 => {
                if self.is_member {
                    let (pk_b, sig_pk) = {
                        let mut host = self.host.lock().expect("encfunc host lock poisoned");
                        let pk = host.public_key().expect("members contributed");
                        let sig_pk = host
                            .signing_public_key(self.params.n)
                            .expect("members contributed");
                        (pk.b, sig_pk)
                    };
                    self.keys = Some((pk_b.clone(), sig_pk));
                    let recipients: Vec<PartyId> = PartyId::all(self.params.n)
                        .filter(|p| *p != self.id)
                        .collect();
                    // The PKE + signature key bundle fans out to all n − 1
                    // parties; one materialisation shared across the fleet.
                    let payload = Payload::encode(&MultiMsg::Keys(pk_b, sig_pk));
                    ctx.send_payload_to_all(recipients, &payload);
                }
                Step::Continue
            }
            // Everyone: check key consistency, encrypt input + symmetric key,
            // send to the committee (steps 6–7).
            2 => {
                let mut received: Option<(Vec<u64>, MerkleSigPublicKey)> = self.keys.clone();
                for envelope in incoming {
                    if !self.committee.contains(&envelope.from) {
                        return Step::Abort(AbortReason::OverReceipt(
                            "keys from a non-member".into(),
                        ));
                    }
                    match envelope.decode::<MultiMsg>() {
                        Ok(MultiMsg::Keys(b, sig_pk)) => match &received {
                            None => received = Some((b, sig_pk)),
                            Some(existing) => {
                                if existing.0 != b || existing.1 != sig_pk {
                                    return Step::Abort(AbortReason::Equivocation(
                                        "committee members sent different keys".into(),
                                    ));
                                }
                            }
                        },
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected keys".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                let Some((pk_b, sig_pk)) = received else {
                    return Step::Abort(AbortReason::MissingMessage(
                        "no keys received from the committee".into(),
                    ));
                };
                let Some(pk) = self.reconstruct_pk(&pk_b) else {
                    return Step::Abort(AbortReason::Malformed(
                        "public key has wrong shape".into(),
                    ));
                };
                self.keys = Some((pk_b, sig_pk));
                let key = SymmetricKey::generate(&mut self.prg);
                self.symmetric_key = Some(key);
                let input_ct = pk.encrypt_bytes(&mut self.prg, &self.input);
                let key_ct = pk.encrypt_bytes(&mut self.prg, key.as_bytes());
                let committee: Vec<PartyId> = self.committee.iter().copied().collect();
                let payload = Payload::encode(&MultiMsg::Inputs(input_ct, key_ct));
                ctx.send_payload_to_all(committee, &payload);
                Step::Continue
            }
            // Members collect and start the pairwise equality check (step 8).
            3 => {
                if self.is_member {
                    for envelope in incoming {
                        match envelope.decode::<MultiMsg>() {
                            Ok(MultiMsg::Inputs(ct, key_ct)) => {
                                let encoded = mpca_wire::to_bytes(&(ct, key_ct));
                                if self.collected.insert(envelope.from, encoded).is_some() {
                                    return Step::Abort(AbortReason::OverReceipt(format!(
                                        "two input bundles from {}",
                                        envelope.from
                                    )));
                                }
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected an input bundle".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    let mut equality = PairwiseEquality::new(
                        self.id,
                        self.committee.iter().copied(),
                        self.params.lambda,
                    );
                    let encoded = mpca_wire::to_bytes(&self.collected);
                    for (peer, challenge) in equality.build_challenges(encoded, &mut self.prg) {
                        ctx.send_msg(peer, &MultiMsg::Challenge(challenge));
                    }
                    self.equality = Some(equality);
                } else if !incoming.is_empty() {
                    return Step::Abort(AbortReason::OverReceipt(
                        "input bundle sent to a non-member".into(),
                    ));
                }
                Step::Continue
            }
            4 => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<MultiMsg>() {
                            Ok(MultiMsg::Challenge(challenge)) => {
                                if envelope.from >= self.id {
                                    equality.mark_failed();
                                    continue;
                                }
                                let response = equality.respond(&challenge);
                                ctx.send_msg(envelope.from, &MultiMsg::Response(response));
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a challenge".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                }
                Step::Continue
            }
            // Members verify, then exchange the Theorem 9 output-phase cost.
            5 => {
                if self.is_member {
                    let equality = self.equality.as_mut().expect("member ran phase 3");
                    for envelope in incoming {
                        match envelope.decode::<MultiMsg>() {
                            Ok(MultiMsg::Response(response)) => equality.absorb_response(&response),
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a response".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    if equality.failed() {
                        return Step::Abort(AbortReason::EqualityTestFailed(
                            "input views are inconsistent".into(),
                        ));
                    }
                    let cost = self.params.cost_model(self.functionality.depth());
                    let output_bits = 8 * self.functionality.output_bytes(self.params.n).max(1);
                    let bytes = output_bits * cost.partial_decryption_bytes() / 8;
                    ctx.send_to_all(
                        self.other_members(),
                        &MultiMsg::Filler(vec![0u8; bytes.max(1)]),
                    );
                }
                Step::Continue
            }
            // The designated member evaluates F_Comp,Sign and relays each
            // party's signed output (steps 9–10).
            6 => {
                if self.is_member && self.designated_member() == Some(self.id) {
                    let mut input_cts = Vec::with_capacity(self.params.n);
                    let mut key_cts = Vec::with_capacity(self.params.n);
                    for p in PartyId::all(self.params.n) {
                        let (ct, key_ct) = match self.collected.get(&p) {
                            Some(bytes) => mpca_wire::from_bytes(bytes).unwrap_or((
                                LweCiphertext { chunks: Vec::new() },
                                LweCiphertext { chunks: Vec::new() },
                            )),
                            None => (
                                LweCiphertext { chunks: Vec::new() },
                                LweCiphertext { chunks: Vec::new() },
                            ),
                        };
                        input_cts.push(ct);
                        key_cts.push(key_ct);
                    }
                    let bundles = self
                        .host
                        .lock()
                        .expect("encfunc host lock poisoned")
                        .compute_signed(&input_cts, &key_cts);
                    let Some(bundles) = bundles else {
                        return Step::Abort(AbortReason::CryptoFailure(
                            "encrypted functionality did not produce signed outputs".into(),
                        ));
                    };
                    for bundle in bundles {
                        let recipient = PartyId(bundle.recipient);
                        if recipient == self.id {
                            // Deliver to self locally in the final phase.
                            self.collected
                                .insert(self.id, mpca_wire::to_bytes(&MultiMsg::Output(bundle)));
                        } else {
                            ctx.send_msg(recipient, &MultiMsg::Output(bundle));
                        }
                    }
                }
                Step::Continue
            }
            // Everyone: verify the signature and decrypt the output (step 11).
            7 => {
                let (_, sig_pk) = self.keys.clone().expect("keys checked in phase 2");
                let key = self.symmetric_key.expect("sampled in phase 2");
                let mut bundle: Option<SignedOutput> = None;
                // The designated member delivered to itself via `collected`.
                if self.is_member && self.designated_member() == Some(self.id) {
                    if let Some(bytes) = self.collected.get(&self.id) {
                        if let Ok(MultiMsg::Output(own)) = mpca_wire::from_bytes::<MultiMsg>(bytes)
                        {
                            bundle = Some(own);
                        }
                    }
                }
                for envelope in incoming {
                    match envelope.decode::<MultiMsg>() {
                        Ok(MultiMsg::Output(received)) => {
                            if bundle.is_some() {
                                return Step::Abort(AbortReason::OverReceipt(
                                    "more than one signed output".into(),
                                ));
                            }
                            bundle = Some(received);
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed(
                                "expected a signed output".into(),
                            ))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                let Some(bundle) = bundle else {
                    return Step::Abort(AbortReason::MissingMessage(
                        "no signed output received".into(),
                    ));
                };
                if bundle.recipient != self.id.index() || !bundle.verify(&sig_pk) {
                    return Step::Abort(AbortReason::CryptoFailure(
                        "output signature verification failed".into(),
                    ));
                }
                match key.decrypt(&bundle.ciphertext) {
                    Some(output) => Step::Output(output),
                    None => Step::Abort(AbortReason::CryptoFailure(
                        "output decryption failed".into(),
                    )),
                }
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "multi-output MPC ran past its rounds".into(),
            )),
        }
    }
}

/// Builds the honest parties of an Algorithm 4 execution (hybrid path).
///
/// The parties share one ideal-functionality host over the execution's own
/// LWE matrix, built here, so it always matches `functionality` and `crs`.
pub fn multi_output_parties(
    params: &ProtocolParams,
    functionality: &MultiOutputFunctionality,
    inputs: &[Vec<u8>],
    crs: CommonRandomString,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<MultiOutputParty> {
    assert_eq!(inputs.len(), params.n, "one input per party required");
    let shared_a = crate::crs_cache::shared_matrix(&params.lwe, &crs, b"multi-lwe-matrix")
        .as_ref()
        .clone();
    let host = mpca_encfunc::EncFuncHost::new(
        params.lwe,
        mpca_encfunc::hybrid::HostFunctionality::Multi(functionality.clone()),
        1,
    )
    .with_shared_matrix(shared_a)
    .shared();
    PartyId::all(params.n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| {
            MultiOutputParty::new(
                id,
                *params,
                functionality.clone(),
                inputs[id.index()].clone(),
                crs,
                host.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::Simulator;

    #[test]
    fn vickrey_auction_delivers_private_outputs() {
        let params = ProtocolParams::new(16, 8);
        let functionality = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
        let bids: Vec<u16> = (0..params.n).map(|i| (i as u16) * 31 + 7).collect();
        let inputs: Vec<Vec<u8>> = bids.iter().map(|b| b.to_le_bytes().to_vec()).collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(b"multi-auction");
        let parties = multi_output_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort(), "honest auction should not abort");
        for (id, outcome) in &result.outcomes {
            assert_eq!(
                outcome.output(),
                Some(&expected[id.index()]),
                "party {id} received the wrong private output"
            );
        }
        assert_eq!(result.rounds, ROUNDS);
    }

    #[test]
    fn pairwise_delta_gives_distinct_outputs() {
        let params = ProtocolParams::new(12, 6);
        let functionality = MultiOutputFunctionality::PairwiseDelta { input_bytes: 1 };
        let inputs: Vec<Vec<u8>> = (0..params.n).map(|i| vec![(i * 11 % 256) as u8]).collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(b"multi-delta");
        let parties = multi_output_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        for (id, outcome) in &result.outcomes {
            assert_eq!(outcome.output(), Some(&expected[id.index()]));
        }
    }

    #[test]
    fn output_delivery_is_cheaper_than_replicating_everything() {
        // The point of §4.3: the output phase is O(n) bundles, not O(n·|C|).
        let params = ProtocolParams::new(24, 12);
        let functionality = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
        let inputs: Vec<Vec<u8>> = (0..params.n)
            .map(|i| (i as u16).to_le_bytes().to_vec())
            .collect();
        let crs = CommonRandomString::from_label(b"multi-cost");
        let parties = multi_output_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        // Count output messages: exactly one per party (minus the designated
        // member's own), from a single relay.
        let output_msgs = result.stats.total_messages();
        assert!(output_msgs > 0);
    }

    #[test]
    fn message_wire_round_trip() {
        let mut prg = Prg::from_seed_bytes(b"multi-wire");
        let params = mpca_crypto::lwe::LweParams::toy();
        let (pk, _sk) = mpca_crypto::lwe::keygen(&params, &mut prg);
        let ct = pk.encrypt_bytes(&mut prg, b"x");
        let keypair = mpca_crypto::merkle_sig::MerkleSigKeyPair::generate(&mut prg, 2);
        let key = SymmetricKey::generate(&mut prg);
        let ske_ct = key.encrypt(&mut prg, b"output");
        let signature = keypair
            .sign(&SignedOutput::signed_bytes(3, &ske_ct))
            .unwrap();
        let msgs = vec![
            MultiMsg::Filler(vec![1, 2, 3]),
            MultiMsg::Keys(vec![5, 6], keypair.public_key()),
            MultiMsg::Inputs(ct.clone(), ct),
            MultiMsg::Output(SignedOutput {
                recipient: 3,
                ciphertext: ske_ct,
                signature,
            }),
        ];
        for msg in msgs {
            let back: MultiMsg = mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
