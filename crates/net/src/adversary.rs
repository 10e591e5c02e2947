//! The static malicious adversary interface and generic attack strategies.
//!
//! The adversary corrupts a fixed set of parties before the protocol starts
//! (static corruption). Corrupted parties are **not** executed by the honest
//! [`PartyLogic`]; instead, each round the adversary
//! observes every envelope delivered to a corrupted party and may inject
//! arbitrary envelopes originating from corrupted parties. This captures the
//! full power of a malicious (Byzantine) adversary on authenticated
//! point-to-point channels: it can stay silent, lie, equivocate, flood, and
//! coordinate across its corrupted parties, but it cannot forge the channel
//! identity of an honest sender.
//!
//! Protocol-specific attacks (equivocating on a particular field, tampering
//! with a particular output) are built from [`ProxyAdversary`], which runs
//! the honest logic for corrupted parties and rewrites their outgoing
//! envelopes through a hook.

use std::collections::{BTreeMap, BTreeSet};

use crate::envelope::Envelope;
use crate::party::{MilestoneEvent, PartyCtx, PartyId, PartyLogic};
use crate::payload::Payload;

/// Context the adversary uses to inject messages.
#[derive(Debug, Default)]
pub struct AdversaryCtx {
    outgoing: Vec<Envelope>,
}

impl AdversaryCtx {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sends `payload` from corrupted party `from` to `to`.
    ///
    /// The simulator asserts that `from` is indeed corrupted: the adversary
    /// cannot spoof honest senders on authenticated point-to-point channels.
    pub fn send_as(&mut self, from: PartyId, to: PartyId, payload: impl Into<Payload>) {
        self.outgoing.push(Envelope {
            from,
            to,
            payload: payload.into(),
        });
    }

    /// Sends an encodable message from `from` to `to`.
    pub fn send_msg_as<T: mpca_wire::Encode + ?Sized>(
        &mut self,
        from: PartyId,
        to: PartyId,
        msg: &T,
    ) {
        self.send_as(from, to, Payload::encode(msg));
    }

    /// Drains queued envelopes (used by the simulator).
    pub fn take_outgoing(&mut self) -> Vec<Envelope> {
        std::mem::take(&mut self.outgoing)
    }
}

/// A static malicious adversary.
///
/// `Send` is required so whole executions (simulator plus adversary) can be
/// shipped across worker threads by the `mpca-engine` session pool.
pub trait Adversary: Send {
    /// The set of corrupted parties (fixed before the execution).
    fn corrupted(&self) -> &BTreeSet<PartyId>;

    /// Called once per round **after** the round's deliveries are known.
    ///
    /// `delivered` maps each corrupted party to the envelopes it received
    /// this round (the adversary is rushing within a round boundary: it sees
    /// what its parties received in round `r` before choosing what they send
    /// for delivery in round `r + 1`).
    fn on_round(
        &mut self,
        round: usize,
        delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        ctx: &mut AdversaryCtx,
    );

    /// Called once per round, **before** [`on_round`](Adversary::on_round),
    /// with the protocol [`MilestoneEvent`]s honest parties emitted this
    /// round. Milestones model *public* protocol progress (a committee
    /// announcement, shares going out), which a rushing adversary
    /// legitimately observes — protocol-aware triggers
    /// ([`TriggerWhen::at_milestone`](crate::TriggerWhen::at_milestone))
    /// arm on them. The default implementation ignores them; wrapping
    /// combinators forward them to their inner adversaries.
    fn observe_milestones(&mut self, _round: usize, _milestones: &[MilestoneEvent]) {}
}

/// The empty adversary: corrupts nobody and sends nothing.
#[derive(Debug, Default)]
pub struct NoAdversary {
    corrupted: BTreeSet<PartyId>,
}

impl NoAdversary {
    /// Creates the empty adversary.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary for NoAdversary {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: usize,
        _delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        _ctx: &mut AdversaryCtx,
    ) {
    }
}

/// Corrupted parties that never send anything (crash-style maliciousness).
#[derive(Debug)]
pub struct SilentAdversary {
    corrupted: BTreeSet<PartyId>,
}

impl SilentAdversary {
    /// Corrupts the given parties.
    pub fn new(corrupted: impl IntoIterator<Item = PartyId>) -> Self {
        Self {
            corrupted: corrupted.into_iter().collect(),
        }
    }
}

impl Adversary for SilentAdversary {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: usize,
        _delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        _ctx: &mut AdversaryCtx,
    ) {
    }
}

/// The envelope-rewrite hook type of a [`ProxyAdversary`]: given the round
/// and an envelope produced by the honest logic, returns the envelopes to
/// actually send (empty drops the message).
pub type RewriteHook = Box<dyn FnMut(usize, &Envelope) -> Vec<Envelope> + Send>;

/// Runs the honest protocol logic for each corrupted party, but passes every
/// outgoing envelope through a rewrite hook.
///
/// This is the workhorse for protocol-specific attacks: an equivocator
/// returns different payloads depending on the recipient, a withholder
/// returns an empty vector for selected recipients, a tamperer flips bytes,
/// and so on — all without re-implementing the protocol.
pub struct ProxyAdversary<L: PartyLogic> {
    parties: BTreeMap<PartyId, L>,
    n: usize,
    /// Hook applied to each envelope produced by the corrupted parties'
    /// honest logic. Returning an empty vector drops the message.
    rewrite: RewriteHook,
    corrupted: BTreeSet<PartyId>,
    /// Proxied parties whose logic has terminated (output or abort). Like
    /// the simulator, the proxy stops stepping them: a state machine is not
    /// required to survive being driven past its terminal step.
    terminated: BTreeSet<PartyId>,
}

impl<L: PartyLogic> std::fmt::Debug for ProxyAdversary<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProxyAdversary")
            .field("corrupted", &self.corrupted)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

impl<L: PartyLogic> ProxyAdversary<L> {
    /// Creates a proxy adversary controlling `parties` (given as fully
    /// constructed honest logic instances) in an `n`-party network.
    pub fn new(
        parties: impl IntoIterator<Item = L>,
        n: usize,
        rewrite: impl FnMut(usize, &Envelope) -> Vec<Envelope> + Send + 'static,
    ) -> Self {
        let parties: BTreeMap<PartyId, L> = parties.into_iter().map(|p| (p.id(), p)).collect();
        let corrupted = parties.keys().copied().collect();
        Self {
            parties,
            n,
            rewrite: Box::new(rewrite),
            corrupted,
            terminated: BTreeSet::new(),
        }
    }

    /// A proxy adversary whose corrupted parties behave entirely honestly
    /// (useful as a baseline: the protocol must succeed).
    ///
    /// The identity hook clones the envelope, which since the `Payload`
    /// migration shares the body buffer instead of copying it — the honest
    /// baseline no longer pays a per-envelope copy (let alone the historical
    /// clone-then-move double copy).
    pub fn honest(parties: impl IntoIterator<Item = L>, n: usize) -> Self {
        Self::new(parties, n, |_, envelope| vec![envelope.clone()])
    }
}

impl<L: PartyLogic + Send> Adversary for ProxyAdversary<L> {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        round: usize,
        delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        ctx: &mut AdversaryCtx,
    ) {
        for (&id, logic) in self.parties.iter_mut() {
            if self.terminated.contains(&id) {
                continue;
            }
            let incoming = delivered.get(&id).cloned().unwrap_or_default();
            let mut party_ctx = PartyCtx::new(id, self.n);
            if !logic
                .on_round(round, &incoming, &mut party_ctx)
                .is_continue()
            {
                self.terminated.insert(id);
            }
            for envelope in party_ctx.take_outgoing() {
                for rewritten in (self.rewrite)(round, &envelope) {
                    ctx.send_as(rewritten.from, rewritten.to, rewritten.payload);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combinators::FloodBudget;

    #[test]
    fn adversary_ctx_collects() {
        let mut ctx = AdversaryCtx::new();
        ctx.send_as(PartyId(0), PartyId(1), vec![1]);
        ctx.send_msg_as(PartyId(0), PartyId(2), &7u16);
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 2);
        assert!(ctx.take_outgoing().is_empty());
    }

    #[test]
    fn proxy_stops_stepping_terminated_logic() {
        use crate::party::{PartyCtx, PartyLogic, Step};

        /// Outputs in round 0 and panics if stepped again — real protocol
        /// state machines are not required to survive post-termination
        /// driving, so the proxy must not do it.
        struct OneShot(PartyId);
        impl PartyLogic for OneShot {
            type Output = ();
            fn id(&self) -> PartyId {
                self.0
            }
            fn on_round(&mut self, round: usize, _: &[Envelope], _: &mut PartyCtx) -> Step<()> {
                assert_eq!(round, 0, "stepped past termination");
                Step::Output(())
            }
        }

        let mut adv = ProxyAdversary::honest(vec![OneShot(PartyId(0))], 3);
        for round in 0..4 {
            let mut ctx = AdversaryCtx::new();
            adv.on_round(round, &BTreeMap::new(), &mut ctx);
        }
    }

    #[test]
    fn flood_sends_junk() {
        let mut adv = FloodBudget::new([PartyId(0)], [PartyId(1), PartyId(2)], 16);
        let mut ctx = AdversaryCtx::new();
        adv.on_round(0, &BTreeMap::new(), &mut ctx);
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|e| e.payload.len() == 16));
    }

    #[test]
    fn flood_materialises_junk_once_per_run() {
        use crate::payload::PayloadAllocStats;

        // The counters are process-wide, so the delta below races with
        // whatever other unit tests of this binary allocate concurrently.
        // A 16 MiB junk buffer gives 16 MiB of headroom before the 2× bound
        // can trip — orders of magnitude beyond the kilobyte-scale payloads
        // the rest of this binary materialises.
        let junk_bytes = 16 << 20;
        let rounds = 8usize;
        let before = PayloadAllocStats::snapshot();
        let mut adv = FloodBudget::new([PartyId(0)], [PartyId(1), PartyId(2)], junk_bytes);
        let mut envelopes = Vec::new();
        for round in 0..rounds {
            let mut ctx = AdversaryCtx::new();
            adv.on_round(round, &BTreeMap::new(), &mut ctx);
            envelopes.extend(ctx.take_outgoing());
        }
        let delta = PayloadAllocStats::snapshot().since(before);

        assert_eq!(envelopes.len(), 2 * rounds);
        // Buffer identity across rounds: the junk was materialised at
        // construction and shared ever since.
        assert!(
            envelopes
                .windows(2)
                .all(|w| w[0].payload.ptr_eq(&w[1].payload)),
            "every flooded envelope of every round must share one buffer"
        );
        // The counter delta shows one junk-sized materialisation for the
        // whole run — the pre-hoist adversary materialised one per round
        // (128 MiB here), so anything below two junk sizes proves the hoist
        // even with unrelated (small) concurrent test allocations.
        assert!(
            delta.bytes >= junk_bytes as u64,
            "construction must materialise the junk once"
        );
        assert!(
            delta.bytes < 2 * junk_bytes as u64,
            "rounds must not materialise further junk buffers \
             (delta {} bytes for junk of {} bytes)",
            delta.bytes,
            junk_bytes
        );
    }

    #[test]
    fn no_and_silent_adversaries_send_nothing() {
        let mut ctx = AdversaryCtx::new();
        NoAdversary::new().on_round(0, &BTreeMap::new(), &mut ctx);
        SilentAdversary::new([PartyId(3)]).on_round(0, &BTreeMap::new(), &mut ctx);
        assert!(ctx.take_outgoing().is_empty());
        assert!(NoAdversary::new().corrupted().is_empty());
        assert_eq!(SilentAdversary::new([PartyId(3)]).corrupted().len(), 1);
    }
}
