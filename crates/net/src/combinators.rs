//! Adversary **combinators**: build attacks instead of re-implementing them.
//!
//! The paper's guarantees are quantified over adversary *classes* — which
//! abort pattern the adversary chooses (Cohen–Haitner–Omri–Rotem style
//! fairness transformations are defined by exactly this choice), and lower
//! bounds only bind when the class is stated precisely. The combinators in
//! this module make those classes first-class values, so an attack is
//! assembled from reusable pieces instead of a new hand-rolled struct.
//!
//! What corrupted parties send, drop or alter while running the honest
//! logic is one rewrite hook on a
//! [`ProxyAdversary`](crate::ProxyAdversary): the crash at a round (the
//! *selective abort pattern* the paper's model is named after), selective
//! withholding and equivocation are each such a hook. This module holds
//! the rest —
//!
//! * [`FloodBudget`] — a stand-alone flooding base with an optional round
//!   budget and the junk buffer materialised **once** at construction;
//! * [`Compose`] — the union of two adversaries (disjoint corruption sets);
//! * [`TriggerWhen`] — adaptivity within the static-corruption model: the
//!   wrapped behaviour stays dormant until a predicate over the messages
//!   delivered to corrupted parties fires;
//! * [`sample_corruption`] — seeded corruption-set sampling, so randomized
//!   scenario sweeps are reproducible from a single seed.

use std::collections::{BTreeMap, BTreeSet};

use mpca_crypto::Prg;

use crate::adversary::{Adversary, AdversaryCtx};
use crate::envelope::Envelope;
use crate::party::{MilestoneEvent, MilestoneKind, PartyId};
use crate::payload::Payload;

/// Samples a `count`-element corruption set out of `n` parties,
/// deterministically from `seed`.
///
/// Uses a seeded Fisher–Yates shuffle, so the same seed always corrupts the
/// same parties — randomized scenario campaigns stay reproducible.
///
/// # Panics
///
/// Panics if `count > n`.
pub fn sample_corruption(seed: &[u8], n: usize, count: usize) -> BTreeSet<PartyId> {
    assert!(count <= n, "cannot corrupt {count} of {n} parties");
    let mut prg = Prg::from_seed_bytes(&[b"mpca-corruption-sample", seed].concat());
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = prg.gen_range(i as u64 + 1) as usize;
        ids.swap(i, j);
    }
    ids.into_iter().take(count).map(PartyId).collect()
}

/// Runs `inner` against a scratch context and returns the envelopes it
/// produced this round.
fn drain_inner(
    inner: &mut dyn Adversary,
    round: usize,
    delivered: &BTreeMap<PartyId, Vec<Envelope>>,
) -> Vec<Envelope> {
    let mut scratch = AdversaryCtx::new();
    inner.on_round(round, delivered, &mut scratch);
    scratch.take_outgoing()
}

/// The union of two adversaries.
///
/// Each round both inner adversaries observe the deliveries to *their own*
/// corrupted parties and both inject; the combined corruption set is the
/// union. The two corruption sets must be disjoint — one party cannot follow
/// two strategies at once.
pub struct Compose {
    a: Box<dyn Adversary>,
    b: Box<dyn Adversary>,
    corrupted: BTreeSet<PartyId>,
}

impl Compose {
    /// Combines two adversaries with disjoint corruption sets.
    ///
    /// # Panics
    ///
    /// Panics if the corruption sets overlap.
    pub fn new(a: Box<dyn Adversary>, b: Box<dyn Adversary>) -> Self {
        let overlap: Vec<_> = a.corrupted().intersection(b.corrupted()).collect();
        assert!(
            overlap.is_empty(),
            "composed adversaries must corrupt disjoint parties, both corrupt {overlap:?}"
        );
        let corrupted = a.corrupted().union(b.corrupted()).copied().collect();
        Self { a, b, corrupted }
    }
}

impl std::fmt::Debug for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compose")
            .field("corrupted", &self.corrupted)
            .finish_non_exhaustive()
    }
}

impl Adversary for Compose {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        round: usize,
        delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        ctx: &mut AdversaryCtx,
    ) {
        // Each inner adversary only sees deliveries to its own parties.
        let to_a: BTreeMap<PartyId, Vec<Envelope>> = delivered
            .iter()
            .filter(|(id, _)| self.a.corrupted().contains(id))
            .map(|(id, e)| (*id, e.clone()))
            .collect();
        let to_b: BTreeMap<PartyId, Vec<Envelope>> = delivered
            .iter()
            .filter(|(id, _)| self.b.corrupted().contains(id))
            .map(|(id, e)| (*id, e.clone()))
            .collect();
        self.a.on_round(round, &to_a, ctx);
        self.b.on_round(round, &to_b, ctx);
    }

    fn observe_milestones(&mut self, round: usize, milestones: &[MilestoneEvent]) {
        // Milestones are public progress: both sides observe all of them.
        self.a.observe_milestones(round, milestones);
        self.b.observe_milestones(round, milestones);
    }
}

/// Flooding with a budget: every corrupted party sends `junk_bytes` of junk
/// to every victim each round, for at most `round_budget` **active** rounds
/// (unbounded by default).
///
/// Used to check the paper's flooding rule: honest parties must abort (not
/// misbehave, not count the junk towards the protocol's communication) when
/// they receive more than the protocol prescribes.
///
/// The budget is charged only when the flood actually runs a round — not
/// against absolute round numbers — so a flood that spends its early rounds
/// dormant behind a [`TriggerWhen`] still delivers its full budget once
/// armed.
///
/// The junk buffer is materialised **once at construction** and shared by
/// every flooded envelope of every round (see
/// [`PayloadAllocStats`](crate::PayloadAllocStats)).
#[derive(Debug)]
pub struct FloodBudget {
    corrupted: BTreeSet<PartyId>,
    victims: Vec<PartyId>,
    junk: Payload,
    round_budget: Option<usize>,
    rounds_run: usize,
}

impl FloodBudget {
    /// An unbounded flood: `corrupted` floods `victims` with `junk_bytes`
    /// of junk from each corrupted party every round.
    pub fn new(
        corrupted: impl IntoIterator<Item = PartyId>,
        victims: impl IntoIterator<Item = PartyId>,
        junk_bytes: usize,
    ) -> Self {
        Self {
            corrupted: corrupted.into_iter().collect(),
            victims: victims.into_iter().collect(),
            junk: Payload::from_vec(vec![0xEEu8; junk_bytes]),
            round_budget: None,
            rounds_run: 0,
        }
    }

    /// Stops flooding after `rounds` active rounds.
    pub fn with_round_budget(mut self, rounds: usize) -> Self {
        self.round_budget = Some(rounds);
        self
    }
}

impl Adversary for FloodBudget {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        &self.corrupted
    }

    fn on_round(
        &mut self,
        _round: usize,
        _delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        ctx: &mut AdversaryCtx,
    ) {
        if self
            .round_budget
            .is_some_and(|budget| self.rounds_run >= budget)
        {
            return;
        }
        self.rounds_run += 1;
        for &from in &self.corrupted {
            for &to in &self.victims {
                ctx.send_as(from, to, self.junk.clone());
            }
        }
    }
}

/// A predicate over one round's deliveries to corrupted parties; firing it
/// arms a [`TriggerWhen`].
pub type TriggerPredicate = Box<dyn FnMut(usize, &BTreeMap<PartyId, Vec<Envelope>>) -> bool + Send>;

/// Adaptive activation inside the static-corruption model: the wrapped
/// adversary's sends are suppressed until `predicate` fires (checked once
/// per round against that round's deliveries to corrupted parties), after
/// which it stays active for the rest of the execution.
///
/// The corruption set is still fixed before the execution — only the
/// *behaviour* is delayed, which is how a rushing adversary that waits for a
/// protocol milestone (a committee announcement, a threshold of traffic) is
/// modelled. By default the inner adversary keeps observing every round
/// (with its sends discarded) so proxied honest logic stays in sync; for
/// inners that don't need to observe — and would pay for dormant rounds,
/// like a budgeted [`FloodBudget`] — use
/// [`without_dormant_observation`](TriggerWhen::without_dormant_observation)
/// so the inner is not driven at all until the trigger fires.
pub struct TriggerWhen {
    inner: Box<dyn Adversary>,
    predicate: TriggerPredicate,
    /// When set, observing any milestone of this kind arms the trigger —
    /// the protocol-aware activation mode ([`TriggerWhen::at_milestone`]).
    milestone: Option<MilestoneKind>,
    triggered: bool,
    observe_dormant: bool,
}

impl TriggerWhen {
    /// Suppresses `inner`'s sends until `predicate` fires.
    pub fn new(
        inner: Box<dyn Adversary>,
        predicate: impl FnMut(usize, &BTreeMap<PartyId, Vec<Envelope>>) -> bool + Send + 'static,
    ) -> Self {
        Self {
            inner,
            predicate: Box::new(predicate),
            milestone: None,
            triggered: false,
            observe_dormant: true,
        }
    }

    /// Suppresses `inner`'s sends until any honest party emits a milestone
    /// of `kind` — a **protocol-aware** trigger ("attack after the
    /// committee announcement") that fires on protocol phase rather than
    /// round numbers or byte counts. The adversary is rushing: an attack
    /// armed by a round-`r` milestone already shapes the envelopes
    /// delivered in round `r + 1`.
    pub fn at_milestone(inner: Box<dyn Adversary>, kind: MilestoneKind) -> Self {
        Self {
            inner,
            predicate: Box::new(|_, _| false),
            milestone: Some(kind),
            triggered: false,
            observe_dormant: true,
        }
    }

    /// Skips driving the inner adversary entirely while dormant.
    ///
    /// Correct for inners that ignore deliveries (floods, silents): they
    /// don't need to observe, and not driving them keeps their internal
    /// budgets untouched until the trigger fires. Do **not** combine with a
    /// proxy-based inner — its honest logic must see every round.
    pub fn without_dormant_observation(mut self) -> Self {
        self.observe_dormant = false;
        self
    }
}

impl std::fmt::Debug for TriggerWhen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TriggerWhen")
            .field("triggered", &self.triggered)
            .finish_non_exhaustive()
    }
}

impl Adversary for TriggerWhen {
    fn corrupted(&self) -> &BTreeSet<PartyId> {
        self.inner.corrupted()
    }

    fn on_round(
        &mut self,
        round: usize,
        delivered: &BTreeMap<PartyId, Vec<Envelope>>,
        ctx: &mut AdversaryCtx,
    ) {
        if !self.triggered {
            self.triggered = (self.predicate)(round, delivered);
        }
        if !self.triggered && !self.observe_dormant {
            return;
        }
        let outgoing = drain_inner(self.inner.as_mut(), round, delivered);
        if self.triggered {
            for envelope in outgoing {
                ctx.send_as(envelope.from, envelope.to, envelope.payload);
            }
        }
    }

    fn observe_milestones(&mut self, round: usize, milestones: &[MilestoneEvent]) {
        if !self.triggered {
            if let Some(kind) = self.milestone {
                self.triggered = milestones.iter().any(|e| e.milestone.kind() == kind);
            }
        }
        self.inner.observe_milestones(round, milestones);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::SilentAdversary;

    /// A scripted adversary for testing the wrappers: sends a fixed byte
    /// from every corrupted party to every listed recipient each round.
    struct Scripted {
        corrupted: BTreeSet<PartyId>,
        recipients: Vec<PartyId>,
        byte: u8,
    }

    impl Scripted {
        fn new(corrupted: &[usize], recipients: &[usize], byte: u8) -> Box<Self> {
            Box::new(Self {
                corrupted: corrupted.iter().map(|&i| PartyId(i)).collect(),
                recipients: recipients.iter().map(|&i| PartyId(i)).collect(),
                byte,
            })
        }
    }

    impl Adversary for Scripted {
        fn corrupted(&self) -> &BTreeSet<PartyId> {
            &self.corrupted
        }
        fn on_round(
            &mut self,
            _round: usize,
            _delivered: &BTreeMap<PartyId, Vec<Envelope>>,
            ctx: &mut AdversaryCtx,
        ) {
            for &from in &self.corrupted {
                for &to in &self.recipients {
                    ctx.send_as(from, to, vec![self.byte]);
                }
            }
        }
    }

    fn run_round(adv: &mut dyn Adversary, round: usize) -> Vec<Envelope> {
        let mut ctx = AdversaryCtx::new();
        adv.on_round(round, &BTreeMap::new(), &mut ctx);
        ctx.take_outgoing()
    }

    #[test]
    fn sample_corruption_is_deterministic_and_sized() {
        let a = sample_corruption(b"seed-1", 16, 5);
        let b = sample_corruption(b"seed-1", 16, 5);
        let c = sample_corruption(b"seed-2", 16, 5);
        assert_eq!(a, b, "same seed must sample the same set");
        assert_eq!(a.len(), 5);
        assert_ne!(a, c, "different seeds should (whp) sample different sets");
        assert!(a.iter().all(|id| id.index() < 16));
        assert_eq!(sample_corruption(b"s", 4, 0), BTreeSet::new());
        assert_eq!(sample_corruption(b"s", 3, 3).len(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot corrupt")]
    fn oversized_corruption_panics() {
        sample_corruption(b"s", 3, 4);
    }

    #[test]
    fn flood_budget_respects_the_round_budget() {
        let mut adv =
            FloodBudget::new([PartyId(0)], [PartyId(1), PartyId(2)], 10).with_round_budget(2);
        assert_eq!(run_round(&mut adv, 0).len(), 2);
        assert_eq!(run_round(&mut adv, 1).len(), 2);
        assert!(run_round(&mut adv, 2).is_empty());
    }

    #[test]
    fn flood_budget_shares_one_junk_buffer_across_rounds() {
        let mut adv = FloodBudget::new([PartyId(0)], [PartyId(1), PartyId(2)], 64);
        let mut all = run_round(&mut adv, 0);
        all.extend(run_round(&mut adv, 1));
        assert_eq!(all.len(), 4);
        assert!(
            all.windows(2).all(|w| w[0].payload.ptr_eq(&w[1].payload)),
            "every flooded envelope must share the construction-time buffer"
        );
    }

    #[test]
    fn compose_unions_disjoint_corruption_sets() {
        let mut adv = Compose::new(
            Scripted::new(&[0], &[5], 1),
            Box::new(FloodBudget::new([PartyId(1)], [PartyId(5)], 4)),
        );
        assert_eq!(adv.corrupted().len(), 2);
        let out = run_round(&mut adv, 0);
        assert_eq!(out.len(), 2);
        assert!(out.iter().any(|e| e.from == PartyId(0)));
        assert!(out.iter().any(|e| e.from == PartyId(1)));
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn compose_rejects_overlapping_corruption() {
        let _ = Compose::new(
            Scripted::new(&[0], &[], 0),
            Box::new(SilentAdversary::new([PartyId(0)])),
        );
    }

    #[test]
    fn dormant_rounds_do_not_consume_flood_budgets() {
        // A budgeted flood behind a trigger must deliver its full budget
        // once armed: dormant rounds do not charge the round budget.
        let flood = FloodBudget::new([PartyId(0)], [PartyId(1)], 10).with_round_budget(2);
        let mut adv =
            TriggerWhen::new(Box::new(flood), |round, _| round >= 3).without_dormant_observation();
        for round in 0..3 {
            assert!(run_round(&mut adv, round).is_empty(), "dormant at {round}");
        }
        // Armed at round 3: two full flooding rounds follow.
        assert_eq!(run_round(&mut adv, 3).len(), 1);
        assert_eq!(run_round(&mut adv, 4).len(), 1);
        assert!(run_round(&mut adv, 5).is_empty(), "budget exhausted");
    }

    #[test]
    fn trigger_when_arms_on_the_predicate_and_stays_armed() {
        let mut adv = TriggerWhen::new(Scripted::new(&[0], &[1], 9), |round, _| round == 2);
        assert!(run_round(&mut adv, 0).is_empty());
        assert!(run_round(&mut adv, 1).is_empty());
        assert_eq!(run_round(&mut adv, 2).len(), 1);
        // Sticky: stays active even though the predicate no longer matches.
        assert_eq!(run_round(&mut adv, 3).len(), 1);
    }

    #[test]
    fn trigger_when_can_watch_delivered_traffic() {
        let mut adv = TriggerWhen::new(Scripted::new(&[0], &[1], 9), |_, delivered| {
            delivered.values().flatten().any(|e| e.payload.len() >= 100)
        });
        assert!(run_round(&mut adv, 0).is_empty());
        let mut ctx = AdversaryCtx::new();
        let delivered: BTreeMap<PartyId, Vec<Envelope>> = [(
            PartyId(0),
            vec![Envelope {
                from: PartyId(3),
                to: PartyId(0),
                payload: Payload::from_vec(vec![0u8; 128]),
            }],
        )]
        .into();
        adv.on_round(1, &delivered, &mut ctx);
        assert_eq!(ctx.take_outgoing().len(), 1, "big delivery arms the flood");
    }
}
