//! Committee election (Algorithm 2, `CommitteeElect`).
//!
//! Each party self-elects with probability `p = min(1, α·log n / h)` and
//! notifies the whole network. Parties that observe suspiciously many
//! claimed members (`≥ 2pn`, step 3) abort — bounding how many liars the
//! adversary can insert. Elected members then verify pairwise, via the
//! succinct equality test, that they hold identical views of the committee.
//!
//! Guarantees (Claims 12 and 14): communication `Õ(n²/h · poly(α, λ))`; with
//! probability `1 − n^{−Ω(min(α, λ))}` either someone aborts or the agreed
//! committee contains at least one honest member.

use std::collections::BTreeSet;

use mpca_crypto::fingerprint::{EqualityChallenge, EqualityResponse};
use mpca_crypto::Prg;
use mpca_net::{AbortReason, Envelope, Milestone, PartyCtx, PartyId, PartyLogic, Payload, Step};
use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::equality::PairwiseEquality;
use crate::params::ProtocolParams;

/// Number of rounds the protocol takes.
pub const ROUNDS: usize = 4;

/// The output of committee election, from one party's perspective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitteeView {
    /// The set of parties this party believes form the committee.
    pub committee: BTreeSet<PartyId>,
    /// Whether this party elected itself.
    pub is_member: bool,
}

/// Wire messages of the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitteeMsg {
    /// Round 0: "I elected myself."
    Elected,
    /// Round 1: equality challenge over the encoded committee view.
    Challenge(EqualityChallenge),
    /// Round 2: equality response.
    Response(EqualityResponse),
}

impl Encode for CommitteeMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            CommitteeMsg::Elected => w.put_u8(0),
            CommitteeMsg::Challenge(c) => {
                w.put_u8(1);
                c.encode(w);
            }
            CommitteeMsg::Response(r) => {
                w.put_u8(2);
                r.encode(w);
            }
        }
    }
}

impl Decode for CommitteeMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(CommitteeMsg::Elected),
            1 => Ok(CommitteeMsg::Challenge(EqualityChallenge::decode(r)?)),
            2 => Ok(CommitteeMsg::Response(EqualityResponse::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "CommitteeMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// Encodes a committee view canonically for the equality test.
pub fn encode_committee(committee: &BTreeSet<PartyId>) -> Vec<u8> {
    mpca_wire::to_bytes(committee)
}

/// One party of the committee-election protocol.
#[derive(Debug)]
pub struct CommitteeElectParty {
    id: PartyId,
    params: ProtocolParams,
    prg: Prg,
    elected: bool,
    view: BTreeSet<PartyId>,
    equality: Option<PairwiseEquality>,
}

impl CommitteeElectParty {
    /// Creates a party; `prg` supplies its private coins.
    pub fn new(id: PartyId, params: ProtocolParams, prg: Prg) -> Self {
        params.validate();
        Self {
            id,
            params,
            prg,
            elected: false,
            view: BTreeSet::new(),
            equality: None,
        }
    }

    fn others(&self) -> Vec<PartyId> {
        PartyId::all(self.params.n)
            .filter(|p| *p != self.id)
            .collect()
    }
}

impl PartyLogic for CommitteeElectParty {
    type Output = CommitteeView;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<CommitteeView> {
        match round {
            // Step 1–2: self-election and notification.
            0 => {
                // Profiling hook for the scale-n work: inert unless the
                // metrics plane is enabled.
                let _span = mpca_metrics::span("core.committee.draw");
                self.elected = self.prg.gen_bool(self.params.election_probability());
                if self.elected {
                    self.view.insert(self.id);
                    let notice = Payload::encode(&CommitteeMsg::Elected);
                    ctx.send_payload_to_all(self.others(), &notice);
                }
                Step::Continue
            }
            // Step 3–4: bound the number of claimed members; members start
            // pairwise verification.
            1 => {
                let mut announced: BTreeSet<PartyId> = BTreeSet::new();
                for envelope in incoming {
                    match envelope.decode::<CommitteeMsg>() {
                        Ok(CommitteeMsg::Elected) => {
                            if !announced.insert(envelope.from) {
                                return Step::Abort(AbortReason::OverReceipt(format!(
                                    "duplicate election notice from {}",
                                    envelope.from
                                )));
                            }
                            self.view.insert(envelope.from);
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed(
                                "expected an election notice".into(),
                            ))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                if self.view.len() >= self.params.committee_bound().max(1) {
                    return Step::Abort(AbortReason::BoundViolated(format!(
                        "{} claimed committee members exceeds the bound {}",
                        self.view.len(),
                        self.params.committee_bound()
                    )));
                }
                if self.elected {
                    let mut equality = PairwiseEquality::new(
                        self.id,
                        self.view.iter().copied(),
                        self.params.lambda,
                    );
                    let encoded = encode_committee(&self.view);
                    for (peer, challenge) in equality.build_challenges(encoded, &mut self.prg) {
                        ctx.send_msg(peer, &CommitteeMsg::Challenge(challenge));
                    }
                    self.equality = Some(equality);
                }
                Step::Continue
            }
            // Members respond to challenges from lower-id members.
            2 => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<CommitteeMsg>() {
                            Ok(CommitteeMsg::Challenge(challenge)) => {
                                if envelope.from >= self.id {
                                    equality.mark_failed();
                                    continue;
                                }
                                let response = equality.respond(&challenge);
                                ctx.send_msg(envelope.from, &CommitteeMsg::Response(response));
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected an equality challenge".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                } else if !incoming.is_empty() {
                    // Non-members are not prescribed any traffic this round.
                    return Step::Abort(AbortReason::OverReceipt(
                        "unexpected message to a non-member".into(),
                    ));
                }
                Step::Continue
            }
            // Members absorb responses; everyone outputs.
            3 => {
                if let Some(equality) = &mut self.equality {
                    for envelope in incoming {
                        match envelope.decode::<CommitteeMsg>() {
                            Ok(CommitteeMsg::Response(response)) => {
                                equality.absorb_response(&response)
                            }
                            Ok(_) => {
                                return Step::Abort(AbortReason::Malformed(
                                    "expected an equality response".into(),
                                ))
                            }
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    if equality.failed() {
                        return Step::Abort(AbortReason::EqualityTestFailed(
                            "committee views are inconsistent".into(),
                        ));
                    }
                }
                // The committee is settled: announce the milestone (embedding
                // protocols share this ctx, so Theorem 1 executions carry it
                // too — protocol-aware triggers arm on exactly this event).
                ctx.milestone(Milestone::CommitteeAnnounced);
                Step::Output(CommitteeView {
                    committee: std::mem::take(&mut self.view),
                    is_member: self.elected,
                })
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "committee election ran past its rounds".into(),
            )),
        }
    }
}

/// Builds the honest parties for a committee election, deriving each party's
/// coins from `seed`, and skipping corrupted ids.
pub fn committee_parties(
    params: &ProtocolParams,
    seed: &[u8],
    corrupted: &BTreeSet<PartyId>,
) -> Vec<CommitteeElectParty> {
    let base = Prg::from_seed_bytes(seed);
    PartyId::all(params.n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| {
            CommitteeElectParty::new(
                id,
                *params,
                base.derive_indexed(b"committee-elect", id.index() as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::{ProxyAdversary, SimConfig, Simulator};

    #[test]
    fn all_honest_election_agrees_and_is_nonempty() {
        let params = ProtocolParams::new(48, 16);
        let parties = committee_parties(&params, b"elect-1", &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort(), "honest election should not abort");
        let views: Vec<&CommitteeView> = result
            .outcomes
            .values()
            .map(|o| o.output().expect("no abort"))
            .collect();
        let committee = &views[0].committee;
        assert!(!committee.is_empty(), "committee should be non-empty");
        assert!(committee.len() < params.committee_bound());
        for view in &views {
            assert_eq!(
                &view.committee, committee,
                "all parties agree on the committee"
            );
        }
        // Membership flags are consistent with the agreed committee.
        for (id, outcome) in &result.outcomes {
            let view = outcome.output().unwrap();
            assert_eq!(view.is_member, committee.contains(id));
        }
    }

    #[test]
    fn committee_size_tracks_n_over_h() {
        // E[|C|] = p·n = α·n·log n / h: quadrupling h should roughly quarter
        // the committee size.
        let seed = b"size-scaling";
        let small_h = ProtocolParams::new(128, 8);
        let large_h = ProtocolParams::new(128, 64);
        let committee_size = |params: &ProtocolParams| {
            let parties = committee_parties(params, seed, &BTreeSet::new());
            let result = Simulator::all_honest(params.n, parties)
                .unwrap()
                .run()
                .unwrap();
            result
                .outcomes
                .values()
                .next()
                .unwrap()
                .output()
                .unwrap()
                .committee
                .len()
        };
        let big = committee_size(&small_h);
        let small = committee_size(&large_h);
        assert!(
            big > small,
            "committee with h=8 ({big}) should exceed committee with h=64 ({small})"
        );
    }

    #[test]
    fn lying_non_member_is_either_included_consistently_or_caught() {
        // A corrupted party announces election to only half the network.
        let params = ProtocolParams::new(24, 8);
        let corrupted: BTreeSet<PartyId> = [PartyId(5)].into_iter().collect();
        let honest = committee_parties(&params, b"liar", &corrupted);
        let liar_logic = vec![CommitteeElectParty::new(
            PartyId(5),
            params,
            Prg::from_seed_bytes(b"liar-coins"),
        )];
        let adversary = ProxyAdversary::new(liar_logic, params.n, |round, envelope| {
            if round == 0 && envelope.to.index() % 2 == 0 {
                // Selectively announce election only to even-numbered parties,
                // and always claim election.
                return vec![mpca_net::Envelope::new(
                    envelope.from,
                    envelope.to,
                    Payload::encode(&CommitteeMsg::Elected),
                )];
            }
            if round == 0 {
                return vec![];
            }
            vec![envelope.clone()]
        });
        let result = Simulator::new(params.n, honest, Box::new(adversary), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        // Honest members' pairwise equality must catch the split view unless
        // the liar was not elected honestly anyway; in every case any two
        // non-aborting honest members agree.
        let member_views: Vec<&CommitteeView> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .filter(|v| v.is_member)
            .collect();
        for window in member_views.windows(2) {
            assert_eq!(window[0].committee, window[1].committee);
        }
    }

    #[test]
    fn flooding_fake_members_trips_the_bound() {
        // Corrupted parties all claim election; if the claimed committee
        // reaches 2pn every honest party aborts.
        let params = ProtocolParams::new(20, 18).with_alpha(1.0);
        let corrupted: BTreeSet<PartyId> = (10..20).map(PartyId).collect();
        // An adversary whose corrupted parties all claim election.
        struct Flood {
            corrupted: BTreeSet<PartyId>,
            n: usize,
        }
        impl mpca_net::Adversary for Flood {
            fn corrupted(&self) -> &BTreeSet<PartyId> {
                &self.corrupted
            }
            fn on_round(
                &mut self,
                round: usize,
                _delivered: &std::collections::BTreeMap<PartyId, Vec<Envelope>>,
                ctx: &mut mpca_net::AdversaryCtx,
            ) {
                if round == 0 {
                    for &from in &self.corrupted {
                        for to in PartyId::all(self.n) {
                            if to != from {
                                ctx.send_msg_as(from, to, &CommitteeMsg::Elected);
                            }
                        }
                    }
                }
            }
        }
        let honest = committee_parties(&params, b"flood", &corrupted);
        let result = Simulator::new(
            params.n,
            honest,
            Box::new(Flood {
                corrupted: corrupted.clone(),
                n: params.n,
            }),
            SimConfig::default(),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            result.all_aborted(),
            "ten fake members out of twenty parties must trip the 2pn bound"
        );
    }

    #[test]
    fn message_wire_round_trip() {
        let mut prg = Prg::from_seed_bytes(b"committee-wire");
        let challenge = EqualityChallenge::new(&mut prg, 16, b"view");
        for msg in [
            CommitteeMsg::Elected,
            CommitteeMsg::Challenge(challenge),
            CommitteeMsg::Response(EqualityResponse { equal: true }),
        ] {
            let back: CommitteeMsg = mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
