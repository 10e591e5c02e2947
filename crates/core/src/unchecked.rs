//! The **negative control**: a sum protocol with no verification at all.
//!
//! Every protocol in this crate detects equivocation (cross-checking echoes,
//! equality tests, signed key fingerprints) and answers with abort — that is
//! the machinery the paper's *with abort* guarantee is built from. This
//! module implements what a naive engineer would write instead: each party
//! sends its value to everyone, sums whatever arrives, and outputs. No
//! echoes, no equality tests, no over-receipt bound.
//!
//! Under an all-honest or silent execution it is perfectly fine. Under an
//! equivocating adversary two honest parties receive different values and
//! output **different sums** — an agreement violation no honest party
//! notices. The `mpca-scenario` security oracle must flag exactly this, so
//! the negative control doubles as the oracle's own test fixture: a campaign
//! whose rigged scenario is *not* flagged is a broken campaign.

use std::collections::BTreeSet;

use mpca_net::{Envelope, PartyCtx, PartyId, PartyLogic, Step};

/// Number of rounds the protocol takes.
pub const ROUNDS: usize = 2;

/// One party of the verification-free sum.
#[derive(Debug)]
pub struct UncheckedSumParty {
    id: PartyId,
    n: usize,
    value: u64,
}

impl UncheckedSumParty {
    /// Creates a party holding `value`.
    pub fn new(id: PartyId, n: usize, value: u64) -> Self {
        Self { id, n, value }
    }
}

impl PartyLogic for UncheckedSumParty {
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
        match round {
            0 => {
                ctx.send_to_all(
                    PartyId::all(self.n).filter(|to| *to != self.id),
                    &self.value,
                );
                Step::Continue
            }
            _ => {
                // Deliberately credulous: junk is skipped, duplicates are
                // summed, equivocated values are believed. No abort path.
                let mut sum = self.value;
                for envelope in incoming {
                    if let Ok(v) = envelope.decode::<u64>() {
                        sum = sum.wrapping_add(v);
                    }
                }
                Step::Output(sum.to_le_bytes().to_vec())
            }
        }
    }
}

/// Builds the honest parties of an `n`-party unchecked sum over `values`
/// (one value per party, corrupted parties' logic excluded).
pub fn unchecked_sum_parties(
    values: &[u64],
    corrupted: &BTreeSet<PartyId>,
) -> Vec<UncheckedSumParty> {
    let n = values.len();
    PartyId::all(n)
        .filter(|id| !corrupted.contains(id))
        .map(|id| UncheckedSumParty::new(id, n, values[id.index()]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::{Envelope, Payload, ProxyAdversary, SimConfig, Simulator};

    fn values(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 13 + 1).collect()
    }

    #[test]
    fn all_honest_sum_agrees() {
        let n = 6;
        let vals = values(n);
        let expected: u64 = vals.iter().sum();
        let sim = Simulator::all_honest(n, unchecked_sum_parties(&vals, &BTreeSet::new())).unwrap();
        let result = sim.run().unwrap();
        assert_eq!(
            result.unanimous_output(),
            Some(&expected.to_le_bytes().to_vec())
        );
        assert_eq!(result.rounds, ROUNDS);
    }

    #[test]
    fn equivocation_breaks_agreement_silently() {
        let n = 6;
        let vals = values(n);
        let corrupted: BTreeSet<PartyId> = [PartyId(0)].into();
        let corrupt_logic = vec![UncheckedSumParty::new(PartyId(0), n, vals[0])];
        // P1 alone gets a byte-flipped copy of P0's value.
        let adversary = ProxyAdversary::new(corrupt_logic, n, |_, envelope: &Envelope| {
            let mut copy = envelope.clone();
            if copy.to == PartyId(1) {
                copy.payload = Payload::from_vec(copy.payload.iter().map(|b| b ^ 0xA5).collect());
            }
            vec![copy]
        });
        let sim = Simulator::new(
            n,
            unchecked_sum_parties(&vals, &corrupted),
            Box::new(adversary),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // The defining failure: nobody aborts, yet outputs disagree.
        assert!(!result.any_abort());
        assert!(result.unanimous_output().is_none());
    }
}
