//! Local committee election (Algorithm 7, `LocalCommitteeElect`).
//!
//! The committee election of Algorithm 2 requires every elected member to
//! talk to the entire network, so it cannot be local. Algorithm 7 instead:
//!
//! 1. establishes the sparse routing network (Algorithm 5),
//! 2. flips a coin with probability `p = min(1, α·log n / √h)`,
//! 3. gossips the election announcements over the routing network
//!    (Algorithm 6), and
//! 4. has the claimed members verify their views pairwise with succinct
//!    equality tests (direct committee-internal links, which is what brings
//!    the `|C|` term into the locality of Theorem 4).
//!
//! Guarantees (Claim 22): w.h.p. at least `α·√h·log n / 2` honest members
//! are elected, the honest members agree on the committee, the committee has
//! at most `2·α·n·log n/√h` members, and the total communication is
//! `Õ(α²·n³/h^{3/2})`.

use std::collections::BTreeSet;

use mpca_crypto::fingerprint::{EqualityChallenge, EqualityResponse};
use mpca_crypto::Prg;
use mpca_net::{
    AbortReason, CommonRandomString, Envelope, Milestone, PartyCtx, PartyId, PartyLogic, Payload,
    Step,
};
use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::committee::{encode_committee, CommitteeView};
use crate::equality::PairwiseEquality;
use crate::gossip::GossipParty;
use crate::params::ProtocolParams;
use crate::sparse::{Neighborhood, SparseNetworkParty};

/// Number of rounds after the gossip phase (challenge, response, verdict).
const VERIFY_ROUNDS: usize = 3;

/// Total number of rounds of the protocol.
pub fn rounds(params: &ProtocolParams) -> usize {
    crate::sparse::ROUNDS + params.gossip_rounds() + VERIFY_ROUNDS
}

/// Wire messages of the verification phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalCommitteeMsg {
    /// Equality challenge over the encoded committee view.
    Challenge(EqualityChallenge),
    /// Equality response.
    Response(EqualityResponse),
}

impl Encode for LocalCommitteeMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            LocalCommitteeMsg::Challenge(c) => {
                w.put_u8(0);
                c.encode(w);
            }
            LocalCommitteeMsg::Response(r) => {
                w.put_u8(1);
                r.encode(w);
            }
        }
    }
}

impl Decode for LocalCommitteeMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(LocalCommitteeMsg::Challenge(EqualityChallenge::decode(r)?)),
            1 => Ok(LocalCommitteeMsg::Response(EqualityResponse::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "LocalCommitteeMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// The output of the local election: the committee view **plus** the routing
/// neighbourhood established along the way (the caller — Algorithm 8 —
/// reuses it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalCommitteeOutput {
    /// The committee as seen by this party.
    pub view: CommitteeView,
    /// The sparse routing neighbourhood of this party.
    pub neighbors: BTreeSet<PartyId>,
}

/// One party of the local committee-election protocol.
#[derive(Debug)]
pub struct LocalCommitteeElectParty {
    id: PartyId,
    params: ProtocolParams,
    prg: Prg,

    sparse: Option<SparseNetworkParty>,
    neighbors: BTreeSet<PartyId>,
    elected: bool,
    gossip: Option<GossipParty>,
    committee: BTreeSet<PartyId>,
    equality: Option<PairwiseEquality>,
}

impl LocalCommitteeElectParty {
    /// Creates a party; private coins are derived from the CRS.
    pub fn new(id: PartyId, params: ProtocolParams, crs: CommonRandomString) -> Self {
        params.validate();
        let sparse =
            SparseNetworkParty::new(id, params, crs.party_prg(id, b"local-committee-sparse"));
        Self {
            id,
            params,
            prg: crs.party_prg(id, b"local-committee-coins"),
            sparse: Some(sparse),
            neighbors: BTreeSet::new(),
            elected: false,
            gossip: None,
            committee: BTreeSet::new(),
            equality: None,
        }
    }
}

impl PartyLogic for LocalCommitteeElectParty {
    type Output = LocalCommitteeOutput;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<LocalCommitteeOutput> {
        let gossip_rounds = self.params.gossip_rounds();

        // Phase A: sparse routing network.
        if round < crate::sparse::ROUNDS {
            let sparse = self.sparse.as_mut().expect("sparse phase in progress");
            return match sparse.on_round(round, incoming, ctx) {
                Step::Continue => Step::Continue,
                Step::Abort(reason) => Step::Abort(reason),
                Step::Output(Neighborhood { neighbors }) => {
                    let _span = mpca_metrics::span("core.local_committee.draw");
                    self.neighbors = neighbors;
                    self.sparse = None;
                    // Step 2: the election coin.
                    self.elected = self.prg.gen_bool(self.params.local_election_probability());
                    let input = self.elected.then(|| Payload::from(vec![1u8]));
                    self.gossip = Some(GossipParty::new(
                        self.id,
                        self.neighbors.clone(),
                        input,
                        gossip_rounds,
                    ));
                    Step::Continue
                }
            };
        }

        // Phase B: gossip the election announcements.
        let phase_b_end = crate::sparse::ROUNDS + gossip_rounds;
        if round < phase_b_end {
            let gossip = self.gossip.as_mut().expect("gossip phase in progress");
            return match gossip.on_round(round - crate::sparse::ROUNDS, incoming, ctx) {
                Step::Continue => Step::Continue,
                Step::Abort(reason) => Step::Abort(reason),
                Step::Output(view) => {
                    self.committee = view.keys().copied().collect();
                    if self.elected {
                        self.committee.insert(self.id);
                    }
                    self.gossip = None;
                    // Step 4: the size bound.
                    let bound =
                        (2.0 * self.params.local_election_probability() * self.params.n as f64)
                            .ceil() as usize;
                    if self.committee.len() >= bound.max(1) {
                        return Step::Abort(AbortReason::BoundViolated(format!(
                            "{} claimed members exceed the local bound {bound}",
                            self.committee.len()
                        )));
                    }
                    Step::Continue
                }
            };
        }

        // Phase C: pairwise verification among the claimed members.
        let phase = round - phase_b_end;
        match phase {
            0 => {
                if self.elected {
                    let mut equality = PairwiseEquality::new(
                        self.id,
                        self.committee.iter().copied(),
                        self.params.lambda,
                    );
                    let encoded = encode_committee(&self.committee);
                    for (peer, challenge) in equality.build_challenges(encoded, &mut self.prg) {
                        ctx.send_msg(peer, &LocalCommitteeMsg::Challenge(challenge));
                    }
                    self.equality = Some(equality);
                }
                Step::Continue
            }
            1 => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<LocalCommitteeMsg>() {
                            Ok(LocalCommitteeMsg::Challenge(challenge)) => {
                                if envelope.from >= self.id {
                                    equality.mark_failed();
                                    continue;
                                }
                                let response = equality.respond(&challenge);
                                ctx.send_msg(envelope.from, &LocalCommitteeMsg::Response(response));
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a committee challenge".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                }
                Step::Continue
            }
            2 => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<LocalCommitteeMsg>() {
                            Ok(LocalCommitteeMsg::Response(response)) => {
                                equality.absorb_response(&response)
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected a committee response".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    if equality.failed() {
                        return Step::Abort(AbortReason::EqualityTestFailed(
                            "local committee views are inconsistent".into(),
                        ));
                    }
                }
                // The local committee is settled (same milestone the global
                // election emits, so triggers work across both MPC families).
                ctx.milestone(Milestone::CommitteeAnnounced);
                Step::Output(LocalCommitteeOutput {
                    view: CommitteeView {
                        committee: std::mem::take(&mut self.committee),
                        is_member: self.elected,
                    },
                    neighbors: std::mem::take(&mut self.neighbors),
                })
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "local committee election ran past its rounds".into(),
            )),
        }
    }
}

/// Builds the honest parties of a local committee election.
pub fn local_committee_parties(
    params: &ProtocolParams,
    crs: CommonRandomString,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<LocalCommitteeElectParty> {
    PartyId::all(params.n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| LocalCommitteeElectParty::new(id, *params, crs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::Simulator;

    #[test]
    fn all_honest_local_election_agrees() {
        let params = ProtocolParams::new(48, 36);
        let crs = CommonRandomString::from_label(b"local-elect");
        let parties = local_committee_parties(&params, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        let outputs: Vec<&LocalCommitteeOutput> = result
            .outcomes
            .values()
            .map(|o| o.output().unwrap())
            .collect();
        let committee = &outputs[0].view.committee;
        assert!(!committee.is_empty());
        for output in &outputs {
            assert_eq!(&output.view.committee, committee);
        }
        for (id, outcome) in &result.outcomes {
            let output = outcome.output().unwrap();
            assert_eq!(output.view.is_member, committee.contains(id));
            assert!(!output.neighbors.is_empty());
        }
        assert_eq!(result.rounds, rounds(&params));
    }

    #[test]
    fn locality_is_bounded_by_degree_plus_committee() {
        // Claim 24: locality ≤ (degree of G) + |S_c| + |C|. At simulation
        // scale the committee is a large fraction of n (p = α·log n/√h only
        // becomes small for very large h), so the sharp check is on the
        // non-members, whose locality is bounded by the routing degree alone.
        let params = ProtocolParams::new(128, 100).with_alpha(1.0);
        let crs = CommonRandomString::from_label(b"local-elect-locality");
        let parties = local_committee_parties(&params, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        let committee = result
            .outcomes
            .values()
            .next()
            .unwrap()
            .output()
            .unwrap()
            .view
            .committee
            .clone();
        let degree_bound = params.sparse_degree() + params.sparse_in_bound();
        let overall_bound = (degree_bound + committee.len()).min(params.n - 1);
        assert!(
            result.honest_locality() <= overall_bound,
            "locality {} exceeds {overall_bound}",
            result.honest_locality()
        );
        // Non-members only ever touch their routing neighbours.
        let non_members: Vec<PartyId> = result
            .outcomes
            .keys()
            .copied()
            .filter(|id| !committee.contains(id))
            .collect();
        assert!(
            !non_members.is_empty(),
            "parameters should leave some non-members"
        );
        for id in non_members {
            assert!(
                result.stats.peers_of(id).len() <= degree_bound,
                "non-member {id} exceeded the routing degree"
            );
        }
    }

    #[test]
    fn committee_is_larger_than_the_global_variant() {
        // p = α log n / √h vs α log n / h: the local committee is bigger by
        // roughly a √h factor (needed for the covering claim).
        let params = ProtocolParams::new(100, 64);
        assert!(params.local_election_probability() > params.election_probability());
    }

    #[test]
    fn message_wire_round_trip() {
        let mut prg = Prg::from_seed_bytes(b"local-committee-wire");
        for msg in [
            LocalCommitteeMsg::Challenge(EqualityChallenge::new(&mut prg, 16, b"view")),
            LocalCommitteeMsg::Response(EqualityResponse { equal: false }),
        ] {
            let back: LocalCommitteeMsg =
                mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
