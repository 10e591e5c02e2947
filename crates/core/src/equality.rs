//! The succinct equality test of Lemma 5 (Algorithm 1, `Equality_λ`) as a
//! two-party protocol, plus the helper used when it is embedded pairwise
//! inside the larger protocols.
//!
//! Two parties holding strings `m₁, m₂ ∈ {0,1}^ℓ` exchange `O(λ + log ℓ)`
//! bits: the initiator samples a random prime `p` and sends
//! `(p, m₁ mod p)`; the responder replies with a single bit. Equal strings
//! always accept; unequal strings are rejected except with probability
//! `≤ ℓ / π(2^bits)`, negligible for the parameter choices used here.
//!
//! Embedded pairwise in a group of `k` members, the test costs each member
//! one prime and one fingerprint of its view per pair, `O(k²)` per session.
//! [`PairwiseEquality`] encodes the view once: it keeps the bytes its
//! challenges were built over and answers the respond round's challenges
//! against them.

use mpca_crypto::fingerprint::{EqualityChallenge, EqualityResponse};
use mpca_crypto::Prg;
use mpca_net::{AbortReason, Envelope, PartyCtx, PartyId, PartyLogic, Payload, Step};

/// Number of rounds the two-party protocol takes.
pub const ROUNDS: usize = 3;

/// Outcome of the equality protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqualityOutcome {
    /// The protocol's verdict: `true` iff the strings were judged equal.
    pub equal: bool,
}

/// One endpoint of the two-party `Equality_λ` protocol.
///
/// The party with the lower id initiates (sends the challenge); the other
/// responds. Both output the verdict.
#[derive(Debug)]
pub struct EqualityParty {
    id: PartyId,
    peer: PartyId,
    lambda: u32,
    input: Vec<u8>,
    prg: Prg,
    verdict: Option<bool>,
}

impl EqualityParty {
    /// Creates an endpoint holding `input` and talking to `peer`.
    pub fn new(id: PartyId, peer: PartyId, lambda: u32, input: Vec<u8>, prg: Prg) -> Self {
        assert_ne!(id, peer, "equality test needs two distinct parties");
        Self {
            id,
            peer,
            lambda,
            input,
            prg,
            verdict: None,
        }
    }

    fn is_initiator(&self) -> bool {
        self.id < self.peer
    }
}

impl PartyLogic for EqualityParty {
    type Output = EqualityOutcome;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<EqualityOutcome> {
        match round {
            0 => {
                if self.is_initiator() {
                    let challenge = EqualityChallenge::new(&mut self.prg, self.lambda, &self.input);
                    ctx.send(self.peer, Payload::encode(&challenge));
                }
                Step::Continue
            }
            1 => {
                if self.is_initiator() {
                    return Step::Continue;
                }
                // Responder: exactly one challenge is prescribed.
                let Some(envelope) = incoming.iter().find(|e| e.from == self.peer) else {
                    return Step::Abort(AbortReason::MissingMessage("equality challenge".into()));
                };
                if incoming.iter().filter(|e| e.from == self.peer).count() > 1 {
                    return Step::Abort(AbortReason::OverReceipt(
                        "duplicate equality challenge".into(),
                    ));
                }
                let challenge: EqualityChallenge = match envelope.decode() {
                    Ok(c) => c,
                    Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                };
                let equal = challenge.matches(&self.input);
                ctx.send_msg(self.peer, &EqualityResponse { equal });
                self.verdict = Some(equal);
                Step::Continue
            }
            2 => {
                if self.is_initiator() {
                    let Some(envelope) = incoming.iter().find(|e| e.from == self.peer) else {
                        return Step::Abort(AbortReason::MissingMessage(
                            "equality response".into(),
                        ));
                    };
                    let response: EqualityResponse = match envelope.decode() {
                        Ok(r) => r,
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    };
                    Step::Output(EqualityOutcome {
                        equal: response.equal,
                    })
                } else {
                    Step::Output(EqualityOutcome {
                        equal: self.verdict.expect("set in round 1"),
                    })
                }
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "equality ran past its rounds".into(),
            )),
        }
    }
}

/// Book-keeping helper for running `Equality_λ` pairwise inside a group
/// (committee members in Algorithms 2, 3, 7 and 8, the succinct
/// all-to-all, and Algorithm 4's committee).
///
/// Within a group, each unordered pair `{i, j}` runs one instance; the lower
/// id initiates. The helper tracks whether any test (as initiator or
/// responder) has failed. It keeps the encoded view it built its challenges
/// over, so the respond round checks incoming challenges against those same
/// bytes without encoding the view again.
#[derive(Debug)]
pub struct PairwiseEquality {
    my_id: PartyId,
    peers: Vec<PartyId>,
    lambda: u32,
    view: Vec<u8>,
    failed: bool,
}

impl PairwiseEquality {
    /// Creates the helper for `my_id` within `group` (which must contain
    /// `my_id`).
    pub fn new(my_id: PartyId, group: impl IntoIterator<Item = PartyId>, lambda: u32) -> Self {
        let peers: Vec<PartyId> = group.into_iter().filter(|p| *p != my_id).collect();
        Self {
            my_id,
            peers,
            lambda,
            view: Vec::new(),
            failed: false,
        }
    }

    /// The peers this party initiates challenges towards (higher ids).
    pub fn initiate_targets(&self) -> Vec<PartyId> {
        self.peers
            .iter()
            .copied()
            .filter(|p| *p > self.my_id)
            .collect()
    }

    /// Builds the challenges this party must send for its encoded `view`.
    /// The helper keeps `view` for [`respond`](Self::respond).
    pub fn build_challenges(
        &mut self,
        view: Vec<u8>,
        prg: &mut Prg,
    ) -> Vec<(PartyId, EqualityChallenge)> {
        self.view = view;
        self.initiate_targets()
            .into_iter()
            .map(|peer| (peer, EqualityChallenge::new(prg, self.lambda, &self.view)))
            .collect()
    }

    /// Processes a received challenge against the view given to
    /// [`build_challenges`](Self::build_challenges), returning the response
    /// to send back. A mismatch marks the helper as failed.
    pub fn respond(&mut self, challenge: &EqualityChallenge) -> EqualityResponse {
        let equal = challenge.matches(&self.view);
        if !equal {
            self.failed = true;
        }
        EqualityResponse { equal }
    }

    /// Processes a received response to one of this party's challenges.
    ///
    /// Responses are not counted: a missing one needs no abort, because
    /// only a corrupted peer can withhold it, and that peer could have
    /// answered `equal` anyway.
    pub fn absorb_response(&mut self, response: &EqualityResponse) {
        if !response.equal {
            self.failed = true;
        }
    }

    /// `true` if any test failed (in either role).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Marks the helper as failed (used when a peer's message is missing or
    /// malformed).
    pub fn mark_failed(&mut self) {
        self.failed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::Simulator;

    fn run_pair(a: Vec<u8>, b: Vec<u8>) -> (EqualityOutcome, EqualityOutcome, u64) {
        let parties = vec![
            EqualityParty::new(PartyId(0), PartyId(1), 24, a, Prg::from_seed_bytes(b"eq-0")),
            EqualityParty::new(PartyId(1), PartyId(0), 24, b, Prg::from_seed_bytes(b"eq-1")),
        ];
        let result = Simulator::all_honest(2, parties).unwrap().run().unwrap();
        let bits = result.honest_bits();
        let o0 = *result.outcome_of(PartyId(0)).unwrap().output().unwrap();
        let o1 = *result.outcome_of(PartyId(1)).unwrap().output().unwrap();
        (o0, o1, bits)
    }

    #[test]
    fn equal_strings_accepted() {
        let data = vec![7u8; 10_000];
        let (a, b, _) = run_pair(data.clone(), data);
        assert!(a.equal && b.equal);
    }

    #[test]
    fn unequal_strings_rejected() {
        let mut data2 = vec![7u8; 10_000];
        data2[9_999] ^= 1;
        let (a, b, _) = run_pair(vec![7u8; 10_000], data2);
        assert!(!a.equal && !b.equal);
    }

    #[test]
    fn communication_is_independent_of_string_length() {
        let (_, _, small_bits) = run_pair(vec![1u8; 16], vec![1u8; 16]);
        let (_, _, large_bits) = run_pair(vec![1u8; 1 << 16], vec![1u8; 1 << 16]);
        assert_eq!(small_bits, large_bits);
        // O(λ log n): a couple of hundred bits, not tens of thousands.
        assert!(large_bits < 512, "equality exchanged {large_bits} bits");
    }

    #[test]
    fn pairwise_helper_bookkeeping() {
        let group: Vec<PartyId> = [1usize, 3, 5, 7].into_iter().map(PartyId).collect();
        let mut helper = PairwiseEquality::new(PartyId(3), group.clone(), 16);
        assert_eq!(helper.initiate_targets(), vec![PartyId(5), PartyId(7)]);

        let mut prg = Prg::from_seed_bytes(b"pairwise");
        let view = b"committee view".to_vec();
        let challenges = helper.build_challenges(view, &mut prg);
        assert_eq!(challenges.len(), 2);

        // Matching responses arrive.
        helper.absorb_response(&EqualityResponse { equal: true });
        helper.absorb_response(&EqualityResponse { equal: true });
        assert!(!helper.failed());

        // A mismatched challenge from a lower-id peer marks failure.
        let bad_challenge = EqualityChallenge::new(&mut prg, 16, b"different view");
        let response = helper.respond(&bad_challenge);
        assert!(!response.equal);
        assert!(helper.failed());
        // The kept view is the one the challenges were built over.
        let good_challenge = EqualityChallenge::new(&mut prg, 16, b"committee view");
        assert!(helper.respond(&good_challenge).equal);
    }

    #[test]
    fn pairwise_helper_detects_failed_response() {
        let mut helper = PairwiseEquality::new(PartyId(0), [PartyId(0), PartyId(1)], 16);
        let mut prg = Prg::from_seed_bytes(b"pairwise2");
        let _ = helper.build_challenges(b"view".to_vec(), &mut prg);
        helper.absorb_response(&EqualityResponse { equal: false });
        assert!(helper.failed());
        helper.mark_failed();
        assert!(helper.failed());
    }
}
