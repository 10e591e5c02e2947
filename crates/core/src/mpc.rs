//! Communication-optimal MPC with abort (Algorithm 3, Theorem 1), and the
//! committee machine that Algorithm 8 (Theorem 4) shares with it.
//!
//! The protocol delegates the computation to a small, randomly elected
//! committee:
//!
//! 1. Run [`CommitteeElect`](crate::committee) (Algorithm 2).
//! 2. The committee generates a public/secret key pair whose secret key is
//!    additively shared among the members (`F_Gen`).
//! 3. Every member forwards the public key to all `n` parties; a party that
//!    sees two different keys aborts.
//! 4. Every party encrypts its input under the key and sends the ciphertext
//!    to (its view of) the committee.
//! 5. Committee members pairwise check, with succinct equality tests, that
//!    they received identical ciphertext vectors.
//! 6. The committee evaluates the functionality on the encrypted inputs
//!    (`F_Comp`).
//! 7. Every member forwards the output to all parties; a party that sees two
//!    different outputs aborts.
//!
//! Communication (Claim 15): `O(n²·h⁻¹·poly(λ, D, log n))` bits. When `f` is
//! a sum whose inputs fit one plaintext chunk, steps 2 and 6 use real
//! distributed key generation, homomorphic aggregation and threshold
//! decryption (the concrete path); otherwise the ideal functionality computes
//! the result while the members exchange Theorem 9-sized messages (the
//! hybrid path).
//!
//! [`MpcParty`] runs Algorithm 8 ([`crate::tradeoff`]) as well. There the
//! election is Algorithm 7's local one, each member talks to its cover set
//! `S_c` in place of all `n` parties, and the members relay the ciphertexts
//! they collected to each other before step 5. Which algorithm a party runs
//! is fixed when it is built: it picks the election, and a phase table gives
//! the rounds after it.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mpca_crypto::fingerprint::{EqualityChallenge, EqualityResponse};
use mpca_crypto::lwe::{LweCiphertext, LwePublicKey};
use mpca_crypto::threshold::{combine_partials, PartialDecryption, ThresholdDecryptor};
use mpca_crypto::Prg;
use mpca_encfunc::hybrid::HostFunctionality;
use mpca_encfunc::keygen::{combine_contributions, shared_matrix_from_crs, KeygenContribution};
use mpca_encfunc::linear;
use mpca_encfunc::spec::Functionality;
use mpca_encfunc::{EncFuncHost, SharedHost};
use mpca_net::{
    AbortReason, CommonRandomString, Envelope, Milestone, PartyCtx, PartyId, PartyLogic, Step,
};
use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::committee::{CommitteeElectParty, CommitteeView};
use crate::equality::PairwiseEquality;
use crate::local_committee::LocalCommitteeElectParty;
use crate::params::ProtocolParams;

/// Number of rounds the protocol takes (committee election included).
pub const ROUNDS: usize = crate::committee::ROUNDS + ALGORITHM_3.phases.len();

/// Wire messages of Algorithm 3 (excluding the embedded committee-election
/// messages, which use [`crate::committee::CommitteeMsg`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcMsg {
    /// Concrete path: a member's distributed-keygen contribution.
    Keygen(KeygenContribution),
    /// Hybrid path: a Theorem 9-sized realisation message (opaque payload).
    Filler(Vec<u8>),
    /// A member forwarding the committee public key (`b` vector).
    PublicKey(Vec<u64>),
    /// A party's encrypted input.
    InputCt(LweCiphertext),
    /// Equality challenge over the member's ciphertext view.
    CtChallenge(EqualityChallenge),
    /// Equality response.
    CtResponse(EqualityResponse),
    /// Concrete path: a member's partial decryption of the aggregate.
    Partial(PartialDecryption),
    /// A member forwarding the final output.
    Output(Vec<u8>),
}

impl Encode for MpcMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            MpcMsg::Keygen(c) => {
                w.put_u8(0);
                c.encode(w);
            }
            MpcMsg::Filler(bytes) => {
                w.put_u8(1);
                w.put_len_prefixed(bytes);
            }
            MpcMsg::PublicKey(b) => {
                w.put_u8(2);
                w.put_uvarint(b.len() as u64);
                for v in b {
                    w.put_u64(*v);
                }
            }
            MpcMsg::InputCt(ct) => {
                w.put_u8(3);
                ct.encode(w);
            }
            MpcMsg::CtChallenge(c) => {
                w.put_u8(4);
                c.encode(w);
            }
            MpcMsg::CtResponse(r) => {
                w.put_u8(5);
                r.encode(w);
            }
            MpcMsg::Partial(p) => {
                w.put_u8(6);
                p.encode(w);
            }
            MpcMsg::Output(out) => {
                w.put_u8(7);
                w.put_len_prefixed(out);
            }
        }
    }
}

impl Decode for MpcMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(MpcMsg::Keygen(KeygenContribution::decode(r)?)),
            1 => Ok(MpcMsg::Filler(r.get_len_prefixed()?.to_vec())),
            2 => {
                let len = r.get_uvarint()? as usize;
                if len > 1 << 20 {
                    return Err(WireError::Invalid("public key too long"));
                }
                let mut b = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    b.push(r.get_u64()?);
                }
                Ok(MpcMsg::PublicKey(b))
            }
            3 => Ok(MpcMsg::InputCt(LweCiphertext::decode(r)?)),
            4 => Ok(MpcMsg::CtChallenge(EqualityChallenge::decode(r)?)),
            5 => Ok(MpcMsg::CtResponse(EqualityResponse::decode(r)?)),
            6 => Ok(MpcMsg::Partial(PartialDecryption::decode(r)?)),
            7 => Ok(MpcMsg::Output(r.get_len_prefixed()?.to_vec())),
            other => Err(WireError::InvalidDiscriminant {
                ty: "MpcMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// Canonically encodes a member's view of the collected ciphertexts.
fn encode_ct_view(view: &BTreeMap<PartyId, Vec<u8>>) -> Vec<u8> {
    mpca_wire::to_bytes(view)
}

/// One round of the committee machine after the election.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Members send their `F_Gen` messages to each other.
    Keygen,
    /// Members combine the key and forward it to their audience.
    ForwardKey,
    /// Everyone checks the key, encrypts its input and sends the ciphertext.
    Encrypt,
    /// Members collect the ciphertexts, then relay them (Algorithm 8) or
    /// start the pairwise equality check (Algorithm 3).
    Collect,
    /// Members merge the relayed collections and start the pairwise
    /// equality check (Algorithm 8 only).
    Merge,
    /// Members answer the equality challenges.
    Respond,
    /// Members verify the responses, then send their `F_Comp` messages.
    Compute,
    /// Members combine the output and forward it to their audience.
    ForwardOutput,
    /// Everyone checks its output copies and terminates.
    Finish,
}

/// What Algorithms 3 and 8 do differently around their shared steps.
pub(crate) struct Algorithm {
    /// The rounds after the election, in order.
    phases: &'static [Phase],
    /// CRS label of the shared LWE matrix.
    matrix_label: &'static [u8],
    /// Label of each party's private PRG.
    party_label: &'static [u8],
    /// Algorithm 8: the election is Algorithm 7's, each member draws a
    /// cover set `S_c`, and the members relay the ciphertexts they
    /// collected. Without it the election is Algorithm 2's and every
    /// member's cover is all `n` parties.
    covers: bool,
    /// Who a party hears the key and the output from, as abort texts name
    /// them.
    senders: &'static str,
    /// Abort text of a party that received no public key.
    no_key: &'static str,
    /// Abort text of a party that received no output.
    no_output: &'static str,
    /// Abort text of a party driven past its last round.
    overrun: &'static str,
}

/// Algorithm 3 (Theorem 1).
const ALGORITHM_3: Algorithm = Algorithm {
    phases: &[
        Phase::Keygen,
        Phase::ForwardKey,
        Phase::Encrypt,
        Phase::Collect,
        Phase::Respond,
        Phase::Compute,
        Phase::ForwardOutput,
        Phase::Finish,
    ],
    matrix_label: b"mpc-lwe-matrix",
    party_label: b"mpc-party",
    covers: false,
    senders: "committee",
    no_key: "no public key received from the committee",
    no_output: "no output received from the committee",
    overrun: "MPC ran past its rounds",
};

/// Algorithm 8 (Theorem 4): Algorithm 3's phases plus a `Merge` after
/// `Collect`.
pub(crate) const ALGORITHM_8: Algorithm = Algorithm {
    phases: &[
        Phase::Keygen,
        Phase::ForwardKey,
        Phase::Encrypt,
        Phase::Collect,
        Phase::Merge,
        Phase::Respond,
        Phase::Compute,
        Phase::ForwardOutput,
        Phase::Finish,
    ],
    matrix_label: b"tradeoff-lwe-matrix",
    party_label: b"tradeoff-party",
    covers: true,
    senders: "covering",
    no_key: "not covered by any committee member",
    no_output: "no output received from any covering member",
    overrun: "tradeoff protocol ran past its rounds",
};

impl Algorithm {
    /// Rounds the election takes.
    fn election_rounds(&self, params: &ProtocolParams) -> usize {
        if self.covers {
            crate::local_committee::rounds(params)
        } else {
            crate::committee::ROUNDS
        }
    }

    /// Total number of rounds, election included.
    pub(crate) fn rounds(&self, params: &ProtocolParams) -> usize {
        self.election_rounds(params) + self.phases.len()
    }

    fn election(&self, id: PartyId, params: ProtocolParams, crs: CommonRandomString) -> Election {
        if self.covers {
            Election::Local(Box::new(LocalCommitteeElectParty::new(id, params, crs)))
        } else {
            let prg = crs.party_prg(id, b"mpc-elect");
            Election::Global(Box::new(CommitteeElectParty::new(id, params, prg)))
        }
    }
}

/// The committee election a party runs first.
enum Election {
    /// Algorithm 2.
    Global(Box<CommitteeElectParty>),
    /// Algorithm 7.
    Local(Box<LocalCommitteeElectParty>),
}

impl Election {
    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<CommitteeView> {
        match self {
            Election::Global(elect) => elect.on_round(round, incoming, ctx),
            Election::Local(elect) => match elect.on_round(round, incoming, ctx) {
                Step::Continue => Step::Continue,
                Step::Output(output) => Step::Output(output.view),
                Step::Abort(reason) => Step::Abort(reason),
            },
        }
    }
}

/// One party of Algorithm 3, or of Algorithm 8 (see
/// [`crate::tradeoff::TradeoffParty`]).
pub struct MpcParty {
    id: PartyId,
    params: ProtocolParams,
    functionality: Functionality,
    input: Vec<u8>,
    prg: Prg,
    /// The ideal `F[PKE, f]` host on the hybrid path, `None` on the
    /// concrete threshold-LWE path.
    host: Option<SharedHost>,
    shared_a: Arc<Vec<u64>>,
    algorithm: &'static Algorithm,
    election_rounds: usize,

    // Phase state.
    elect: Option<Election>,
    committee: BTreeSet<PartyId>,
    is_member: bool,
    /// This member's cover set `S_c`, which it forwards the key and the
    /// output to (members only).
    cover: BTreeSet<PartyId>,
    /// The members that sent this party the public key.
    covering_members: BTreeSet<PartyId>,
    decryptor: Option<ThresholdDecryptor>,
    contributions: Vec<KeygenContribution>,
    /// The members whose keygen contributions this member combined into
    /// its key, itself included: exactly the members whose partial
    /// decryptions it needs (concrete path).
    key_members: BTreeSet<PartyId>,
    pk_b: Option<Vec<u64>>,
    ct_view: BTreeMap<PartyId, Vec<u8>>,
    equality: Option<PairwiseEquality>,
    aggregate: Option<LweCiphertext>,
    partials: BTreeMap<PartyId, PartialDecryption>,
    output: Option<Vec<u8>>,
}

impl std::fmt::Debug for MpcParty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpcParty")
            .field("id", &self.id)
            .field("is_member", &self.is_member)
            .finish_non_exhaustive()
    }
}

impl MpcParty {
    fn other_members(&self) -> Vec<PartyId> {
        self.committee
            .iter()
            .copied()
            .filter(|c| *c != self.id)
            .collect()
    }

    /// The rest of this member's cover: who gets its key and its output.
    fn audience(&self) -> Vec<PartyId> {
        self.cover
            .iter()
            .copied()
            .filter(|p| *p != self.id)
            .collect()
    }

    /// An over-receipt abort for a message from a non-member. Algorithm 3's
    /// text names the sender; Algorithm 8's does not.
    fn non_member_abort(&self, what: &str, from: PartyId) -> Step<Vec<u8>> {
        Step::Abort(AbortReason::OverReceipt(if self.algorithm.covers {
            format!("{what} from a non-member")
        } else {
            format!("{what} from non-member {from}")
        }))
    }

    fn reconstruct_pk(&self, b: &[u64]) -> Option<LwePublicKey> {
        if b.len() != self.params.lwe.pk_rows {
            return None;
        }
        Some(LwePublicKey {
            params: self.params.lwe,
            a: self.shared_a.as_ref().clone(),
            b: b.to_vec(),
        })
    }

    fn filler(&self, bytes: usize) -> MpcMsg {
        MpcMsg::Filler(vec![0u8; bytes])
    }

    /// Builds the equality challenges over this member's ciphertext view.
    fn start_check(&mut self, ctx: &mut PartyCtx) {
        let mut equality =
            PairwiseEquality::new(self.id, self.committee.iter().copied(), self.params.lambda);
        let encoded = encode_ct_view(&self.ct_view);
        ctx.milestone(Milestone::VerificationStart);
        for (peer, challenge) in equality.build_challenges(encoded, &mut self.prg) {
            ctx.send_msg(peer, &MpcMsg::CtChallenge(challenge));
        }
        self.equality = Some(equality);
    }

    /// `F_Comp` on the collected ciphertexts, hybrid path.
    fn hybrid_compute(&self, host: &SharedHost) -> Option<Vec<u8>> {
        let cts: Vec<LweCiphertext> = PartyId::all(self.params.n)
            .map(|p| match self.ct_view.get(&p) {
                Some(bytes) => {
                    mpca_wire::from_bytes(bytes).unwrap_or(LweCiphertext { chunks: Vec::new() })
                }
                None => LweCiphertext { chunks: Vec::new() },
            })
            .collect();
        host.lock()
            .expect("encfunc host lock poisoned")
            .compute(&cts)
    }

    /// Homomorphic aggregation of the collected ciphertexts, concrete path.
    fn concrete_aggregate(&self) -> Option<LweCiphertext> {
        let cts: Vec<LweCiphertext> = self
            .ct_view
            .values()
            .filter_map(|bytes| mpca_wire::from_bytes::<LweCiphertext>(bytes).ok())
            .filter(|ct| ct.chunks.len() == 1 && ct.chunks[0].0.len() == self.params.lwe.dim)
            .collect();
        linear::aggregate_ciphertexts(&self.params.lwe, &cts)
    }
}

impl PartyLogic for MpcParty {
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
        // Phase A: committee election.
        if round < self.election_rounds {
            if round == 0 {
                // CRS-derived state (shared matrix, election coins) is in
                // place and the protocol proper begins.
                ctx.milestone(Milestone::CrsReady);
            }
            let elect = self.elect.as_mut().expect("election still in progress");
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

        let Some(&phase) = self.algorithm.phases.get(round - self.election_rounds) else {
            return Step::Abort(AbortReason::BoundViolated(self.algorithm.overrun.into()));
        };
        match phase {
            Phase::Keygen => {
                if self.is_member {
                    match &self.host {
                        None => {
                            let (contribution, decryptor) = KeygenContribution::generate(
                                &self.params.lwe,
                                &self.shared_a,
                                &mut self.prg,
                            );
                            self.contributions.push(contribution.clone());
                            self.key_members.insert(self.id);
                            self.decryptor = Some(decryptor);
                            ctx.send_to_all(self.other_members(), &MpcMsg::Keygen(contribution));
                        }
                        Some(host) => {
                            let mut r = [0u8; 32];
                            rand::RngCore::fill_bytes(&mut self.prg, &mut r);
                            {
                                let mut host = host.lock().expect("encfunc host lock poisoned");
                                host.submit_enc_randomness(self.id.index(), r);
                            }
                            let cost = self
                                .params
                                .cost_model(self.functionality.depth())
                                .broadcast_payload_bytes(self.params.lambda as usize / 8);
                            let filler = self.filler(cost);
                            ctx.send_to_all(self.other_members(), &filler);
                        }
                    }
                }
                Step::Continue
            }
            Phase::ForwardKey => {
                if self.is_member {
                    for envelope in incoming {
                        if !self.committee.contains(&envelope.from) {
                            return self.non_member_abort("keygen message", envelope.from);
                        }
                        match envelope.decode::<MpcMsg>() {
                            Ok(MpcMsg::Keygen(c)) => {
                                // `combine_contributions` needs every
                                // contribution at the key's shape.
                                if c.b.len() != self.params.lwe.pk_rows {
                                    return Step::Abort(AbortReason::Malformed(format!(
                                        "keygen contribution from {} has {} rows, expected {}",
                                        envelope.from,
                                        c.b.len(),
                                        self.params.lwe.pk_rows
                                    )));
                                }
                                if !self.key_members.insert(envelope.from) {
                                    return Step::Abort(AbortReason::OverReceipt(format!(
                                        "two keygen contributions from {}",
                                        envelope.from
                                    )));
                                }
                                self.contributions.push(c)
                            }
                            Ok(MpcMsg::Filler(_)) => {}
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "unexpected message during keygen".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    let pk_b = match &self.host {
                        None => {
                            let pk = combine_contributions(
                                &self.params.lwe,
                                &self.shared_a,
                                &self.contributions,
                            );
                            pk.b
                        }
                        Some(host) => {
                            let pk = host
                                .lock()
                                .expect("encfunc host lock poisoned")
                                .public_key()
                                .expect("all members have contributed");
                            pk.b
                        }
                    };
                    self.pk_b = Some(pk_b.clone());
                    self.cover = if self.algorithm.covers {
                        // Step 3 of Algorithm 8: sample the cover set S_c.
                        let _span = mpca_metrics::span("core.tradeoff.cover_draw");
                        self.prg
                            .sample_subset(self.params.n, self.params.cover_size())
                            .into_iter()
                            .map(PartyId)
                            .collect()
                    } else {
                        PartyId::all(self.params.n).collect()
                    };
                    ctx.send_to_all(self.audience(), &MpcMsg::PublicKey(pk_b));
                }
                Step::Continue
            }
            Phase::Encrypt => {
                let mut received_pk: Option<Vec<u64>> = self.pk_b.clone();
                for envelope in incoming {
                    if !self.committee.contains(&envelope.from) {
                        return self.non_member_abort("public key", envelope.from);
                    }
                    match envelope.decode::<MpcMsg>() {
                        Ok(MpcMsg::PublicKey(b)) => {
                            self.covering_members.insert(envelope.from);
                            match &received_pk {
                                None => received_pk = Some(b),
                                Some(existing) => {
                                    if *existing != b {
                                        return Step::Abort(AbortReason::Equivocation(format!(
                                            "{} members sent different public keys",
                                            self.algorithm.senders
                                        )));
                                    }
                                }
                            }
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed(
                                "expected a public key".into(),
                            ))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                let Some(pk_b) = received_pk else {
                    return Step::Abort(AbortReason::MissingMessage(self.algorithm.no_key.into()));
                };
                let Some(pk) = self.reconstruct_pk(&pk_b) else {
                    return Step::Abort(AbortReason::Malformed(
                        "public key has wrong shape".into(),
                    ));
                };
                self.pk_b = Some(pk_b);
                let ct = match self.host {
                    None => linear::encrypt_concrete_input(
                        &pk,
                        &mut self.prg,
                        &self.functionality,
                        &self.input,
                    )
                    .expect("validated at construction"),
                    Some(_) => pk.encrypt_bytes(&mut self.prg, &self.input),
                };
                let recipients: Vec<PartyId> = if self.algorithm.covers {
                    // A member keeps its own ciphertext and sends it to the
                    // other members that cover it.
                    if self.is_member {
                        self.ct_view.insert(self.id, mpca_wire::to_bytes(&ct));
                    }
                    self.covering_members
                        .iter()
                        .copied()
                        .filter(|p| *p != self.id)
                        .collect()
                } else {
                    // The whole committee, a member itself included.
                    self.committee.iter().copied().collect()
                };
                ctx.send_to_all(recipients, &MpcMsg::InputCt(ct));
                ctx.milestone(Milestone::SharesDistributed);
                Step::Continue
            }
            Phase::Collect => {
                if self.is_member {
                    for envelope in incoming {
                        match envelope.decode::<MpcMsg>() {
                            Ok(MpcMsg::InputCt(ct)) => {
                                if self
                                    .ct_view
                                    .insert(envelope.from, mpca_wire::to_bytes(&ct))
                                    .is_some()
                                {
                                    return Step::Abort(AbortReason::OverReceipt(format!(
                                        "two ciphertexts from {}",
                                        envelope.from
                                    )));
                                }
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected an input ciphertext".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    if self.algorithm.covers {
                        // Step 6 of Algorithm 8: relay the collection to the
                        // other members in a Filler frame.
                        let relay = MpcMsg::Filler(mpca_wire::to_bytes(&self.ct_view));
                        ctx.send_to_all(self.other_members(), &relay);
                    } else {
                        self.start_check(ctx);
                    }
                } else if !incoming.is_empty() {
                    return Step::Abort(AbortReason::OverReceipt(
                        "ciphertext sent to a non-member".into(),
                    ));
                }
                Step::Continue
            }
            Phase::Merge => {
                if self.is_member {
                    for envelope in incoming {
                        if !self.committee.contains(&envelope.from) {
                            return Step::Abort(AbortReason::OverReceipt(
                                "forwarded ciphertexts from a non-member".into(),
                            ));
                        }
                        match envelope.decode::<MpcMsg>() {
                            Ok(MpcMsg::Filler(bytes)) => {
                                let forwarded: BTreeMap<PartyId, Vec<u8>> =
                                    match mpca_wire::from_bytes(&bytes) {
                                        Ok(map) => map,
                                        Err(e) => {
                                            return Step::Abort(AbortReason::Malformed(
                                                e.to_string(),
                                            ))
                                        }
                                    };
                                for (source, ct_bytes) in forwarded {
                                    match self.ct_view.get(&source) {
                                        Some(existing) if *existing != ct_bytes => {
                                            return Step::Abort(AbortReason::Equivocation(
                                                format!("conflicting ciphertexts for {source}"),
                                            ));
                                        }
                                        Some(_) => {}
                                        None => {
                                            self.ct_view.insert(source, ct_bytes);
                                        }
                                    }
                                }
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected forwarded ciphertexts".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    self.start_check(ctx);
                }
                Step::Continue
            }
            Phase::Respond => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<MpcMsg>() {
                            Ok(MpcMsg::CtChallenge(challenge)) => {
                                if envelope.from >= self.id
                                    || !self.committee.contains(&envelope.from)
                                {
                                    equality.mark_failed();
                                    continue;
                                }
                                let response = equality.respond(&challenge);
                                ctx.send_msg(envelope.from, &MpcMsg::CtResponse(response));
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a ciphertext challenge".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                }
                Step::Continue
            }
            Phase::Compute => {
                if self.is_member {
                    let equality = self.equality.as_mut().expect("member started the check");
                    for envelope in incoming {
                        match envelope.decode::<MpcMsg>() {
                            Ok(MpcMsg::CtResponse(response)) => equality.absorb_response(&response),
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a ciphertext response".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    if equality.failed() {
                        return Step::Abort(AbortReason::EqualityTestFailed(
                            "ciphertext views are inconsistent".into(),
                        ));
                    }
                    match self.host {
                        None => {
                            let Some(aggregate) = self.concrete_aggregate() else {
                                return Step::Abort(AbortReason::MissingMessage(
                                    "no valid ciphertexts to aggregate".into(),
                                ));
                            };
                            let decryptor = self.decryptor.as_ref().expect("member ran keygen");
                            let partial = decryptor.partial_decrypt(&mut self.prg, &aggregate);
                            self.partials.insert(self.id, partial.clone());
                            self.aggregate = Some(aggregate);
                            ctx.send_to_all(self.other_members(), &MpcMsg::Partial(partial));
                        }
                        Some(_) => {
                            let cost = self.params.cost_model(self.functionality.depth());
                            let output_bits =
                                8 * self.functionality.output_bytes(self.params.n).max(1);
                            let bytes = output_bits * cost.partial_decryption_bytes() / 8;
                            let filler = self.filler(bytes.max(1));
                            ctx.send_to_all(self.other_members(), &filler);
                        }
                    }
                }
                Step::Continue
            }
            Phase::ForwardOutput => {
                if self.is_member {
                    let output = match &self.host {
                        None => {
                            for envelope in incoming {
                                if !self.committee.contains(&envelope.from) {
                                    return Step::Abort(AbortReason::OverReceipt(
                                        "partial decryption from a non-member".into(),
                                    ));
                                }
                                match envelope.decode::<MpcMsg>() {
                                    Ok(MpcMsg::Partial(p)) => {
                                        if !self.key_members.contains(&envelope.from) {
                                            return Step::Abort(AbortReason::OverReceipt(format!(
                                                "partial decryption from {}, whose keygen \
                                                 contribution is not in the key",
                                                envelope.from
                                            )));
                                        }
                                        if self.partials.insert(envelope.from, p).is_some() {
                                            return Step::Abort(AbortReason::OverReceipt(format!(
                                                "two partial decryptions from {}",
                                                envelope.from
                                            )));
                                        }
                                    }
                                    Ok(_) => {
                                        return Step::Abort(AbortReason::Malformed(
                                            "expected a partial decryption".into(),
                                        ))
                                    }
                                    Err(e) => {
                                        return Step::Abort(AbortReason::Malformed(e.to_string()))
                                    }
                                }
                            }
                            // The key is the sum of exactly the key
                            // members' contributions, so decrypting needs
                            // one share from each of them: with one
                            // missing, the sum is wrong, not just noisy.
                            if let Some(missing) = self
                                .key_members
                                .iter()
                                .find(|m| !self.partials.contains_key(m))
                            {
                                return Step::Abort(AbortReason::MissingMessage(format!(
                                    "no partial decryption from {missing}"
                                )));
                            }
                            let partials: Vec<PartialDecryption> =
                                std::mem::take(&mut self.partials).into_values().collect();
                            let aggregate = self.aggregate.as_ref().expect("member aggregated");
                            let Some(chunks) =
                                combine_partials(&self.params.lwe, aggregate, &partials)
                            else {
                                return Step::Abort(AbortReason::CryptoFailure(
                                    "partial decryptions are inconsistent".into(),
                                ));
                            };
                            linear::output_from_chunk(&self.functionality, chunks[0])
                        }
                        Some(host) => match self.hybrid_compute(host) {
                            Some(out) => out,
                            None => {
                                return Step::Abort(AbortReason::CryptoFailure(
                                    "encrypted functionality did not produce an output".into(),
                                ))
                            }
                        },
                    };
                    self.output = Some(output.clone());
                    ctx.send_to_all(self.audience(), &MpcMsg::Output(output));
                }
                Step::Continue
            }
            Phase::Finish => {
                let mut value: Option<Vec<u8>> = self.output.clone();
                for envelope in incoming {
                    if !self.committee.contains(&envelope.from) {
                        return self.non_member_abort("output", envelope.from);
                    }
                    match envelope.decode::<MpcMsg>() {
                        Ok(MpcMsg::Output(out)) => match &value {
                            None => value = Some(out),
                            Some(existing) => {
                                if *existing != out {
                                    return Step::Abort(AbortReason::Equivocation(format!(
                                        "{} members sent different outputs",
                                        self.algorithm.senders
                                    )));
                                }
                            }
                        },
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected an output".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                match value {
                    Some(out) => Step::Output(out),
                    None => {
                        Step::Abort(AbortReason::MissingMessage(self.algorithm.no_output.into()))
                    }
                }
            }
        }
    }
}

/// Builds the honest parties of an Algorithm 3 execution.
///
/// The per-party inputs are `inputs[i]`; parties whose id is in `corrupted`
/// are skipped. The committee realises `F[PKE, f]` with threshold LWE when
/// `functionality` is a sum whose inputs fit one plaintext chunk
/// ([`linear::supports_concrete_path`]), and otherwise through one
/// ideal-functionality host the parties share. Both run over the
/// execution's own CRS-derived LWE matrix.
///
/// # Panics
///
/// Panics on an inconsistent configuration (wrong input count or width).
pub fn mpc_parties(
    params: &ProtocolParams,
    functionality: &Functionality,
    inputs: &[Vec<u8>],
    crs: CommonRandomString,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<MpcParty> {
    committee_parties(&ALGORITHM_3, params, functionality, inputs, crs, corrupted)
}

/// Builds the honest parties of one execution of `algorithm`; see
/// [`mpc_parties`].
pub(crate) fn committee_parties(
    algorithm: &'static Algorithm,
    params: &ProtocolParams,
    functionality: &Functionality,
    inputs: &[Vec<u8>],
    crs: CommonRandomString,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<MpcParty> {
    params.validate();
    assert_eq!(inputs.len(), params.n, "one input per party required");
    let shared_a = Arc::new(shared_matrix_from_crs(
        &params.lwe,
        &mut crs.shared_prg(algorithm.matrix_label),
    ));
    let host = (!linear::supports_concrete_path(&params.lwe, functionality)).then(|| {
        EncFuncHost::new(
            params.lwe,
            HostFunctionality::Single(functionality.clone()),
            shared_a.as_ref().clone(),
        )
        .shared()
    });
    PartyId::all(params.n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| {
            let input = inputs[id.index()].clone();
            assert_eq!(
                input.len(),
                functionality.input_bytes(),
                "input width does not match the functionality"
            );
            MpcParty {
                id,
                params: *params,
                functionality: functionality.clone(),
                input,
                prg: crs.party_prg(id, algorithm.party_label),
                host: host.clone(),
                shared_a: Arc::clone(&shared_a),
                algorithm,
                election_rounds: algorithm.election_rounds(params),
                elect: Some(algorithm.election(id, *params, crs)),
                committee: BTreeSet::new(),
                is_member: false,
                cover: BTreeSet::new(),
                covering_members: BTreeSet::new(),
                decryptor: None,
                contributions: Vec::new(),
                key_members: BTreeSet::new(),
                pk_b: None,
                ct_view: BTreeMap::new(),
                equality: None,
                aggregate: None,
                partials: BTreeMap::new(),
                output: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::{
        PartyOutcome, Payload, ProxyAdversary, RunResult, SilentAdversary, SimConfig, Simulator,
    };

    fn sum_inputs(n: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
        let values: Vec<u16> = (0..n).map(|i| (i as u16) * 37 + 11).collect();
        let inputs: Vec<Vec<u8>> = values.iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let expected: u16 = values.iter().fold(0u16, |acc, v| acc.wrapping_add(*v));
        (inputs, expected.to_le_bytes().to_vec())
    }

    #[test]
    fn concrete_path_all_honest_computes_the_sum() {
        let params = ProtocolParams::new(24, 8).with_lwe(mpca_crypto::lwe::LweParams {
            plaintext_modulus: 1 << 16,
            ..mpca_crypto::lwe::LweParams::toy()
        });
        let functionality = Functionality::Sum { input_bytes: 2 };
        let (inputs, expected) = sum_inputs(params.n);
        let crs = CommonRandomString::from_label(b"mpc-concrete");
        let parties = mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort(), "honest run should not abort");
        assert_eq!(result.unanimous_output(), Some(&expected));
        assert_eq!(result.rounds, ROUNDS);
    }

    #[test]
    fn hybrid_path_all_honest_computes_the_xor() {
        let params = ProtocolParams::new(16, 8);
        let functionality = Functionality::Xor { input_bytes: 2 };
        let inputs: Vec<Vec<u8>> = (0..params.n)
            .map(|i| vec![i as u8, (i * 3) as u8])
            .collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(b"mpc-hybrid");
        let parties = mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        assert_eq!(result.unanimous_output(), Some(&expected));
    }

    #[test]
    fn silent_corrupted_parties_default_to_zero_inputs() {
        // Corrupted parties that never send anything contribute the default
        // input; honest parties still agree on the (adjusted) sum or abort.
        let params = ProtocolParams::new(20, 12).with_lwe(mpca_crypto::lwe::LweParams {
            plaintext_modulus: 1 << 16,
            ..mpca_crypto::lwe::LweParams::toy()
        });
        let functionality = Functionality::Sum { input_bytes: 2 };
        let (inputs, _) = sum_inputs(params.n);
        let corrupted: BTreeSet<PartyId> = (0..4).map(PartyId).collect();
        let honest_sum: u16 = inputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !corrupted.contains(&PartyId(*i)))
            .fold(0u16, |acc, (_, v)| {
                acc.wrapping_add(u16::from_le_bytes([v[0], v[1]]))
            });
        let crs = CommonRandomString::from_label(b"mpc-silent");
        let parties = mpc_parties(&params, &functionality, &inputs, crs, &corrupted);
        let result = Simulator::new(
            params.n,
            parties,
            Box::new(SilentAdversary::new(corrupted)),
            SimConfig::default(),
        )
        .unwrap()
        .run()
        .unwrap();
        // Either everyone aborted (allowed) or every output equals the honest
        // parties' sum.
        assert!(result.correct_or_aborted(&honest_sum.to_le_bytes().to_vec()));
        // The honest committee members are all honest parties, so the run
        // should in fact complete.
        assert!(result.unanimous_output().is_some());
    }

    #[test]
    fn communication_decreases_as_h_grows() {
        // Theorem 1: Õ(n²/h). With n fixed, quadrupling h should reduce the
        // honest communication noticeably.
        let functionality = Functionality::Sum { input_bytes: 2 };
        let run = |h: usize| {
            let params = ProtocolParams::new(64, h).with_lwe(mpca_crypto::lwe::LweParams {
                plaintext_modulus: 1 << 16,
                ..mpca_crypto::lwe::LweParams::toy()
            });
            let (inputs, expected) = sum_inputs(params.n);
            let crs = CommonRandomString::from_label(b"mpc-comm-scaling");
            let parties = mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
            let result = Simulator::all_honest(params.n, parties)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(result.unanimous_output(), Some(&expected));
            result.honest_bits()
        };
        let low_h = run(8);
        let high_h = run(64);
        assert!(
            high_h * 2 < low_h,
            "h=64 should be much cheaper than h=8: {high_h} vs {low_h} bits"
        );
    }

    /// [`mpc_parties`] or [`crate::tradeoff::tradeoff_parties`].
    type PartyBuilder = crate::MpcBuilder<MpcParty>;

    /// Runs `build` at `(n, h)` with party 0 corrupted: it follows the
    /// protocol, but every envelope it sends goes through `rewrite` first.
    fn run_with_party_0_rewritten(
        build: PartyBuilder,
        (n, h): (usize, usize),
        label: &[u8],
        rewrite: impl FnMut(usize, &Envelope) -> Vec<Envelope> + Send + 'static,
    ) -> RunResult<Vec<u8>> {
        let params = ProtocolParams::new(n, h).with_lwe(mpca_crypto::lwe::LweParams {
            plaintext_modulus: 1 << 16,
            ..mpca_crypto::lwe::LweParams::toy()
        });
        let functionality = Functionality::Sum { input_bytes: 2 };
        let (inputs, _) = sum_inputs(n);
        let crs = CommonRandomString::from_label(label);
        let corrupted: BTreeSet<PartyId> = [PartyId(0)].into();
        let honest = build(&params, &functionality, &inputs, crs, &corrupted);
        let proxied = build(&params, &functionality, &inputs, crs, &BTreeSet::new())
            .into_iter()
            .filter(|party| corrupted.contains(&party.id));
        let adversary = ProxyAdversary::new(proxied, n, rewrite);
        Simulator::new(n, honest, Box::new(adversary), SimConfig::default())
            .unwrap()
            .run()
            .unwrap()
    }

    /// Runs `build` at n = 8, h = 4 with party 0's `Keygen` frame carrying
    /// a three-element `b` instead of `pk_rows` elements.
    fn run_with_short_keygen_frame(build: PartyBuilder) -> RunResult<Vec<u8>> {
        assert_ne!(mpca_crypto::lwe::LweParams::toy().pk_rows, 3);
        run_with_party_0_rewritten(build, (8, 4), b"mpc-short-keygen", |_, envelope| {
            let mut envelope = envelope.clone();
            if let Ok(MpcMsg::Keygen(mut contribution)) = envelope.decode::<MpcMsg>() {
                contribution.b.truncate(3);
                envelope.payload = Payload::encode(&MpcMsg::Keygen(contribution));
            }
            vec![envelope]
        })
    }

    fn assert_short_keygen_frame_is_malformed(result: &RunResult<Vec<u8>>) {
        let malformed = result
            .outcomes
            .values()
            .filter(|outcome| {
                matches!(outcome, PartyOutcome::Aborted(AbortReason::Malformed(text)) if text.contains("keygen"))
            })
            .count();
        assert!(malformed > 0, "no honest member flagged the short frame");
    }

    #[test]
    fn short_keygen_contribution_aborts_as_malformed_in_algorithm_3() {
        assert_short_keygen_frame_is_malformed(&run_with_short_keygen_frame(mpc_parties));
    }

    #[test]
    fn short_keygen_contribution_aborts_as_malformed_in_algorithm_8() {
        assert_short_keygen_frame_is_malformed(&run_with_short_keygen_frame(
            crate::tradeoff::tradeoff_parties,
        ));
    }

    /// Runs `build` at n = 12, h = 6 with party 0's `Partial` to one other
    /// member — the first one it addresses — dropped. Returns the result
    /// and that member.
    fn run_with_one_partial_withheld(build: PartyBuilder) -> (RunResult<Vec<u8>>, PartyId) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let victim = Arc::new(AtomicUsize::new(usize::MAX));
        let chosen = Arc::clone(&victim);
        let result = run_with_party_0_rewritten(
            build,
            (12, 6),
            b"mpc-withheld-partial",
            move |_, envelope| {
                if let Ok(MpcMsg::Partial(_)) = envelope.decode::<MpcMsg>() {
                    let to = envelope.to.index();
                    let first = chosen
                        .compare_exchange(usize::MAX, to, Ordering::Relaxed, Ordering::Relaxed)
                        .unwrap_or_else(|current| current);
                    if first == usize::MAX || first == to {
                        return Vec::new();
                    }
                }
                vec![envelope.clone()]
            },
        );
        let victim = victim.load(Ordering::Relaxed);
        assert_ne!(victim, usize::MAX, "party 0 sent no partial decryption");
        (result, PartyId(victim))
    }

    fn assert_withheld_partial_is_a_missing_message(build: PartyBuilder) {
        let (result, victim) = run_with_one_partial_withheld(build);
        assert!(
            matches!(
                result.outcome_of(victim),
                Some(PartyOutcome::Aborted(AbortReason::MissingMessage(text)))
                    if text.contains("partial decryption from P0")
            ),
            "{victim} got {:?}",
            result.outcome_of(victim)
        );
        let outputs: BTreeSet<&Vec<u8>> = result
            .outcomes
            .values()
            .filter_map(PartyOutcome::output)
            .collect();
        assert!(
            outputs.len() <= 1,
            "honest parties output different values: {outputs:?}"
        );
        let (_, expected) = sum_inputs(12);
        assert!(result.correct_or_aborted(&expected));
    }

    #[test]
    fn withheld_partial_decryption_aborts_as_missing_in_algorithm_3() {
        assert_withheld_partial_is_a_missing_message(mpc_parties);
    }

    #[test]
    fn withheld_partial_decryption_aborts_as_missing_in_algorithm_8() {
        assert_withheld_partial_is_a_missing_message(crate::tradeoff::tradeoff_parties);
    }

    #[test]
    fn message_wire_round_trip() {
        let mut prg = Prg::from_seed_bytes(b"mpc-wire");
        let params = mpca_crypto::lwe::LweParams::toy();
        let (pk, _sk) = mpca_crypto::lwe::keygen(&params, &mut prg);
        let ct = pk.encrypt_bytes(&mut prg, b"x");
        let msgs = vec![
            MpcMsg::Filler(vec![0; 10]),
            MpcMsg::PublicKey(vec![1, 2, 3]),
            MpcMsg::InputCt(ct),
            MpcMsg::CtChallenge(EqualityChallenge::new(&mut prg, 16, b"view")),
            MpcMsg::CtResponse(EqualityResponse { equal: true }),
            MpcMsg::Partial(PartialDecryption { values: vec![7, 8] }),
            MpcMsg::Output(vec![42]),
        ];
        for msg in msgs {
            let back: MpcMsg = mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
