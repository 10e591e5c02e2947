//! All-to-All Broadcast with abort (Simultaneous Broadcast, `F_SB`).
//!
//! Two implementations are provided:
//!
//! * [`NaiveAllToAllParty`] — the Goldwasser–Lindell baseline (§2.1): `n`
//!   parallel single-source broadcasts, where the verification step echoes
//!   every received input to every other party. Total communication
//!   `O(n³·ℓ)` bits.
//! * [`SuccinctAllToAllParty`] — the paper's improvement (§2.1, Remark 8):
//!   the verification step is replaced by pairwise **succinct equality
//!   tests** over the concatenated view, `O(λ log n)` bits per edge, for
//!   `Õ(n²·(ℓ + λ))` bits in total.
//!
//! Both guarantee: every honest party either outputs a view that agrees with
//! every other non-aborting honest party's view, or aborts.

use std::collections::BTreeMap;

use mpca_crypto::fingerprint::{EqualityChallenge, EqualityResponse};
use mpca_crypto::Prg;
use mpca_net::{AbortReason, Envelope, Milestone, PartyCtx, PartyId, PartyLogic, Payload, Step};
use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::equality::PairwiseEquality;

/// Rounds taken by the naive protocol.
pub const NAIVE_ROUNDS: usize = 3;
/// Rounds taken by the succinct protocol.
pub const SUCCINCT_ROUNDS: usize = 4;

/// The common output type: each party's view of everyone's input.
///
/// Parties that never delivered an input (e.g. silent corrupted parties) are
/// absent from the map.
pub type View = BTreeMap<PartyId, Vec<u8>>;

/// Canonically encodes a view for equality testing.
pub fn encode_view(view: &View) -> Vec<u8> {
    // O(n·ℓ) per call and called by every party — the all-to-all hot path
    // the metrics plane profiles (inert span unless enabled).
    let _span = mpca_metrics::span("core.all_to_all.encode_view");
    mpca_wire::to_bytes(view)
}

// ---------------------------------------------------------------------------
// Naive GL baseline
// ---------------------------------------------------------------------------

/// Wire messages of the naive protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NaiveMsg {
    /// Round 0: this party's own input.
    Input(Vec<u8>),
    /// Round 1: echo of the full received view.
    Echo(View),
}

impl Encode for NaiveMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            NaiveMsg::Input(x) => {
                w.put_u8(0);
                w.put_len_prefixed(x);
            }
            NaiveMsg::Echo(view) => {
                w.put_u8(1);
                view.encode(w);
            }
        }
    }
}

impl Decode for NaiveMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(NaiveMsg::Input(r.get_len_prefixed()?.to_vec())),
            1 => Ok(NaiveMsg::Echo(View::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "NaiveMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// One party of the naive (GL) all-to-all broadcast with abort.
#[derive(Debug)]
pub struct NaiveAllToAllParty {
    id: PartyId,
    n: usize,
    input: Vec<u8>,
    view: View,
}

impl NaiveAllToAllParty {
    /// Creates a party holding `input`.
    pub fn new(id: PartyId, n: usize, input: Vec<u8>) -> Self {
        Self {
            id,
            n,
            input,
            view: View::new(),
        }
    }

    fn others(&self) -> Vec<PartyId> {
        PartyId::all(self.n).filter(|p| *p != self.id).collect()
    }
}

impl PartyLogic for NaiveAllToAllParty {
    type Output = View;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(&mut self, round: usize, incoming: &[Envelope], ctx: &mut PartyCtx) -> Step<View> {
        match round {
            0 => {
                self.view.insert(self.id, self.input.clone());
                let input = Payload::encode(&NaiveMsg::Input(self.input.clone()));
                ctx.send_payload_to_all(self.others(), &input);
                ctx.milestone(Milestone::SharesDistributed);
                Step::Continue
            }
            1 => {
                for envelope in incoming {
                    match envelope.decode::<NaiveMsg>() {
                        Ok(NaiveMsg::Input(x)) => {
                            if self.view.insert(envelope.from, x).is_some() {
                                return Step::Abort(AbortReason::OverReceipt(format!(
                                    "two inputs from {}",
                                    envelope.from
                                )));
                            }
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected Input".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                // The O(n·ℓ)-byte echo is the dominant message of the naive
                // baseline; materialise it once for all n − 1 recipients.
                ctx.milestone(Milestone::VerificationStart);
                let echo = Payload::encode(&NaiveMsg::Echo(self.view.clone()));
                ctx.send_payload_to_all(self.others(), &echo);
                Step::Continue
            }
            2 => {
                for envelope in incoming {
                    let echoed = match envelope.decode::<NaiveMsg>() {
                        Ok(NaiveMsg::Echo(view)) => view,
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected Echo".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    };
                    for (source, value) in echoed {
                        // A party's claim about its own input is authoritative
                        // only on the direct channel; differing echoes about
                        // any source are equivocation evidence.
                        if let Some(existing) = self.view.get(&source) {
                            if *existing != value {
                                return Step::Abort(AbortReason::Equivocation(format!(
                                    "{} echoed a conflicting input for {source}",
                                    envelope.from
                                )));
                            }
                        }
                    }
                }
                Step::Output(std::mem::take(&mut self.view))
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "naive all-to-all ran past its rounds".into(),
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// Succinct variant
// ---------------------------------------------------------------------------

/// Wire messages of the succinct protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuccinctMsg {
    /// Round 0: this party's own input.
    Input(Vec<u8>),
    /// Round 1: an equality challenge over the encoded view.
    Challenge(EqualityChallenge),
    /// Round 2: the response bit.
    Response(EqualityResponse),
}

impl Encode for SuccinctMsg {
    fn encode(&self, w: &mut Writer) {
        match self {
            SuccinctMsg::Input(x) => {
                w.put_u8(0);
                w.put_len_prefixed(x);
            }
            SuccinctMsg::Challenge(c) => {
                w.put_u8(1);
                c.encode(w);
            }
            SuccinctMsg::Response(r) => {
                w.put_u8(2);
                r.encode(w);
            }
        }
    }
}

impl Decode for SuccinctMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(SuccinctMsg::Input(r.get_len_prefixed()?.to_vec())),
            1 => Ok(SuccinctMsg::Challenge(EqualityChallenge::decode(r)?)),
            2 => Ok(SuccinctMsg::Response(EqualityResponse::decode(r)?)),
            other => Err(WireError::InvalidDiscriminant {
                ty: "SuccinctMsg",
                value: u64::from(other),
            }),
        }
    }
}

/// One party of the succinct all-to-all broadcast with abort.
#[derive(Debug)]
pub struct SuccinctAllToAllParty {
    id: PartyId,
    n: usize,
    input: Vec<u8>,
    prg: Prg,
    view: View,
    equality: PairwiseEquality,
}

impl SuccinctAllToAllParty {
    /// Creates a party holding `input`; `prg` supplies the equality-test
    /// randomness.
    pub fn new(id: PartyId, n: usize, lambda: u32, input: Vec<u8>, prg: Prg) -> Self {
        Self {
            id,
            n,
            input,
            prg,
            view: View::new(),
            equality: PairwiseEquality::new(id, PartyId::all(n), lambda),
        }
    }

    fn others(&self) -> Vec<PartyId> {
        PartyId::all(self.n).filter(|p| *p != self.id).collect()
    }
}

impl PartyLogic for SuccinctAllToAllParty {
    type Output = View;

    fn id(&self) -> PartyId {
        self.id
    }

    fn on_round(&mut self, round: usize, incoming: &[Envelope], ctx: &mut PartyCtx) -> Step<View> {
        match round {
            0 => {
                self.view.insert(self.id, self.input.clone());
                let input = Payload::encode(&SuccinctMsg::Input(self.input.clone()));
                ctx.send_payload_to_all(self.others(), &input);
                ctx.milestone(Milestone::SharesDistributed);
                Step::Continue
            }
            1 => {
                for envelope in incoming {
                    match envelope.decode::<SuccinctMsg>() {
                        Ok(SuccinctMsg::Input(x)) => {
                            if self.view.insert(envelope.from, x).is_some() {
                                return Step::Abort(AbortReason::OverReceipt(format!(
                                    "two inputs from {}",
                                    envelope.from
                                )));
                            }
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected Input".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                let encoded = encode_view(&self.view);
                ctx.milestone(Milestone::VerificationStart);
                for (peer, challenge) in self.equality.build_challenges(encoded, &mut self.prg) {
                    ctx.send_msg(peer, &SuccinctMsg::Challenge(challenge));
                }
                Step::Continue
            }
            2 => {
                for envelope in incoming {
                    match envelope.decode::<SuccinctMsg>() {
                        Ok(SuccinctMsg::Challenge(challenge)) => {
                            if envelope.from >= self.id {
                                return Step::Abort(AbortReason::Malformed(
                                    "challenge from a higher id".into(),
                                ));
                            }
                            let response = self.equality.respond(&challenge);
                            ctx.send_msg(envelope.from, &SuccinctMsg::Response(response));
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected Challenge".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                Step::Continue
            }
            3 => {
                for envelope in incoming {
                    match envelope.decode::<SuccinctMsg>() {
                        Ok(SuccinctMsg::Response(response)) => {
                            self.equality.absorb_response(&response);
                        }
                        Ok(_) => {
                            return Step::Abort(AbortReason::Malformed("expected Response".into()))
                        }
                        Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                    }
                }
                if self.equality.failed() {
                    return Step::Abort(AbortReason::EqualityTestFailed(
                        "view differs from a peer's view".into(),
                    ));
                }
                Step::Output(std::mem::take(&mut self.view))
            }
            _ => Step::Abort(AbortReason::BoundViolated(
                "succinct all-to-all ran past its rounds".into(),
            )),
        }
    }
}

/// Builds the honest naive parties for inputs `inputs[i]`, skipping corrupted
/// ids.
pub fn naive_parties(
    inputs: &[Vec<u8>],
    corrupted: &std::collections::BTreeSet<PartyId>,
) -> Vec<NaiveAllToAllParty> {
    let n = inputs.len();
    PartyId::all(n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| NaiveAllToAllParty::new(id, n, inputs[id.index()].clone()))
        .collect()
}

/// Builds the honest succinct parties for inputs `inputs[i]`, skipping
/// corrupted ids. Per-party randomness is derived from `seed`.
pub fn succinct_parties(
    inputs: &[Vec<u8>],
    lambda: u32,
    seed: &[u8],
    corrupted: &std::collections::BTreeSet<PartyId>,
) -> Vec<SuccinctAllToAllParty> {
    let n = inputs.len();
    let base = Prg::from_seed_bytes(seed);
    PartyId::all(n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| {
            SuccinctAllToAllParty::new(
                id,
                n,
                lambda,
                inputs[id.index()].clone(),
                base.derive_indexed(b"succinct-a2a", id.index() as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use mpca_net::{ProxyAdversary, SimConfig, Simulator};

    fn inputs(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; len]).collect()
    }

    fn expected_view(inputs: &[Vec<u8>]) -> View {
        inputs
            .iter()
            .enumerate()
            .map(|(i, x)| (PartyId(i), x.clone()))
            .collect()
    }

    #[test]
    fn naive_all_honest() {
        let n = 5;
        let inputs = inputs(n, 4);
        let parties = naive_parties(&inputs, &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        assert_eq!(result.unanimous_output(), Some(&expected_view(&inputs)));
        assert_eq!(result.rounds, NAIVE_ROUNDS);
    }

    #[test]
    fn succinct_all_honest() {
        let n = 5;
        let inputs = inputs(n, 4);
        let parties = succinct_parties(&inputs, 24, b"test", &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        assert_eq!(result.unanimous_output(), Some(&expected_view(&inputs)));
        assert_eq!(result.rounds, SUCCINCT_ROUNDS);
    }

    #[test]
    fn succinct_is_cheaper_than_naive_for_moderate_inputs() {
        let n = 12;
        let inputs = inputs(n, 64);
        let naive = Simulator::all_honest(n, naive_parties(&inputs, &BTreeSet::new()))
            .unwrap()
            .run()
            .unwrap();
        let succinct = Simulator::all_honest(
            n,
            succinct_parties(&inputs, 24, b"cheaper", &BTreeSet::new()),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(
            succinct.honest_bits() < naive.honest_bits() / 2,
            "succinct {} bits vs naive {} bits",
            succinct.honest_bits(),
            naive.honest_bits()
        );
    }

    #[test]
    fn equivocating_input_aborts_both_variants() {
        let n = 6;
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into_iter().collect();
        let all_inputs = inputs(n, 8);

        // Naive.
        let honest = naive_parties(&all_inputs, &corrupted);
        let adversary = ProxyAdversary::new(
            vec![NaiveAllToAllParty::new(
                PartyId(2),
                n,
                all_inputs[2].clone(),
            )],
            n,
            |round, envelope| {
                let mut out = envelope.clone();
                if round == 0 && envelope.to.index() < 3 {
                    out.payload = Payload::encode(&NaiveMsg::Input(b"evil".to_vec()));
                }
                vec![out]
            },
        );
        let result = Simulator::new(n, honest, Box::new(adversary), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(result.any_abort(), "naive variant must detect equivocation");
        let views: Vec<&View> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .collect();
        for window in views.windows(2) {
            assert_eq!(window[0], window[1], "non-aborting honest views agree");
        }

        // Succinct.
        let honest = succinct_parties(&all_inputs, 24, b"equiv", &corrupted);
        let adversary = ProxyAdversary::new(
            vec![SuccinctAllToAllParty::new(
                PartyId(2),
                n,
                24,
                all_inputs[2].clone(),
                Prg::from_seed_bytes(b"adv"),
            )],
            n,
            |round, envelope| {
                let mut out = envelope.clone();
                if round == 0 && envelope.to.index() < 3 {
                    out.payload = Payload::encode(&SuccinctMsg::Input(b"evil".to_vec()));
                }
                vec![out]
            },
        );
        let result = Simulator::new(n, honest, Box::new(adversary), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert!(
            result.any_abort(),
            "succinct variant must detect equivocation"
        );
        let views: Vec<&View> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .collect();
        for window in views.windows(2) {
            assert_eq!(window[0], window[1]);
        }
    }

    #[test]
    fn message_wire_round_trips() {
        let mut prg = Prg::from_seed_bytes(b"a2a-wire");
        let challenge = EqualityChallenge::new(&mut prg, 16, b"view");
        for msg in [
            SuccinctMsg::Input(vec![1, 2]),
            SuccinctMsg::Challenge(challenge),
            SuccinctMsg::Response(EqualityResponse { equal: false }),
        ] {
            let back: SuccinctMsg = mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
        let view: View = [(PartyId(0), vec![1u8])].into_iter().collect();
        for msg in [NaiveMsg::Input(vec![3]), NaiveMsg::Echo(view)] {
            let back: NaiveMsg = mpca_wire::from_bytes(&mpca_wire::to_bytes(&msg)).unwrap();
            assert_eq!(back, msg);
        }
    }
}
