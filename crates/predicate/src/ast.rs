//! The predicate AST and violation reporting types.

use mpca_metrics::Phase;
use mpca_net::MilestoneKind;
use mpca_trace::TaggedTrace;

use crate::eval::Evaluator;

/// An inclusive window of stream indices into a tagged trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the event that establishes the violated obligation (the
    /// honest original of an equivocated frame, the termination milestone a
    /// later send ignores). Equal to `end` for point violations.
    pub start: usize,
    /// Index of the first event at which the predicate is irrecoverably
    /// violated.
    pub end: usize,
}

impl Span {
    /// A single-event span.
    pub fn at(index: usize) -> Self {
        Self {
            start: index,
            end: index,
        }
    }
}

/// A predicate failure: the first violating event span plus a human
/// explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The witnessing window (see [`Span`]).
    pub span: Span,
    /// What went wrong, with parties/rounds/tags named.
    pub details: String,
}

/// A per-party obligation, universally quantified by
/// [`Predicate::ForAllParties`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartyRule {
    /// The party's honest (non-injected) sent bytes never exceed the limit.
    SentBytesAtMost(u64),
    /// The party sends nothing honest after it emits this milestone kind.
    NoSendAfter(MilestoneKind),
}

/// A per-round obligation, universally quantified by
/// [`Predicate::ForAllRounds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundRule {
    /// Charged bytes within any single round never exceed the limit.
    BytesAtMost(u64),
    /// Charged envelopes within any single round never exceed the limit.
    EnvelopesAtMost(u64),
}

/// A trace predicate: the combinator language, compiled to a single-pass
/// evaluator by [`Predicate::eval`].
///
/// Leaves observe the tagged entry stream; combinators compose outcomes.
/// Every leaf latches its **first** violation, so evaluation order (and
/// therefore the reported span) is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// Every honest (non-injected) send decodes to a known frame of the
    /// family's schema. Junk is an adversary's privilege.
    FramesLegal,
    /// All copies of a replicated frame — same round, same sender, tag in
    /// `tags` — carry identical payload bytes (compared by fingerprint),
    /// injected shadows included. The violation span runs from the first
    /// copy to the first differing one: the equivocation witness pair.
    BroadcastConsistency {
        /// The frame tags the family replicates verbatim (see
        /// [`FamilySpec::consistency_tags`](mpca_core::FamilySpec::consistency_tags)).
        tags: Vec<&'static str>,
    },
    /// Bytes charged to `phase` under the `PhaseLedger` rules (monotone
    /// milestone clock; injected sends only when the execution charges
    /// adversary bytes) never exceed `limit_bytes`.
    PhaseCeiling {
        /// The phase under budget.
        phase: Phase,
        /// The inclusive byte ceiling.
        limit_bytes: u64,
    },
    /// The execution never charges adversary-injected bytes to the
    /// communication measure — the paper's flooding rule (§3.1) as a
    /// stream property. Violated at the first injected send of an
    /// execution that charges adversary bytes.
    FloodingNeverCharged,
    /// No party sends honest traffic after its own `OutputDecided` or
    /// `Aborted` milestone.
    NoSendAfterTermination,
    /// An `Aborted` milestone whose reason is an active misbehaviour
    /// detection (equivocation, failed equality test) is preceded by some
    /// party's `VerificationStart` — detections happen *in* verification.
    DetectionAbortImpliesVerification,
    /// After the first milestone of kind `after`, no further charged send
    /// is attributable to `phase` under last-milestone (non-monotone)
    /// attribution — the stream-well-formedness guard behind the ledger's
    /// monotone clock ("no CRS-phase bytes after `CommitteeAnnounced`").
    NoPhaseBytesAfter {
        /// The phase whose traffic must have ceased.
        phase: Phase,
        /// The milestone kind that seals it.
        after: MilestoneKind,
    },
    /// `rule` holds for every party.
    ForAllParties(PartyRule),
    /// `rule` holds for every round.
    ForAllRounds(RoundRule),
    /// Every child holds. Violated by the earliest child violation.
    All(Vec<Predicate>),
    /// Some child holds. Violated — at the earliest child span — only when
    /// all children are violated.
    Any(Vec<Predicate>),
    /// The child is violated. When the child holds instead, the violation
    /// spans the whole trace (there is no single witnessing event).
    Not(Box<Predicate>),
}

impl Predicate {
    /// Compiles to a streaming [`Evaluator`].
    ///
    /// `charges_adversary_bytes` is the recording execution's charging
    /// flag; it parameterises the charging-sensitive leaves exactly as
    /// [`TaggedTrace::charges_adversary_bytes`] does for a recorded trace.
    pub(crate) fn compile(&self, charges_adversary_bytes: bool) -> Evaluator {
        Evaluator::new(self, charges_adversary_bytes)
    }

    /// Evaluates over a recorded trace: compile, feed every entry, finish.
    pub fn eval(&self, trace: &TaggedTrace) -> Option<Violation> {
        let mut evaluator = self.compile(trace.charges_adversary_bytes);
        for entry in &trace.entries {
            evaluator.feed(entry);
        }
        evaluator.finish()
    }
}
