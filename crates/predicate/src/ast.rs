//! The predicate rules and violation reporting types.

use mpca_metrics::Phase;
use mpca_net::MilestoneKind;
use mpca_trace::TaggedTrace;

use crate::eval;

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

/// A trace predicate: one named rule over the tagged entry stream,
/// checked by [`Predicate::eval`].
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
    /// Bytes charged to each phase under the `PhaseLedger` rules (monotone
    /// milestone clock; injected sends only when the execution charges
    /// adversary bytes) never exceed `limit_bytes`. A charged send adds to
    /// exactly one phase, the clock's current one, so the first crossing
    /// names a single phase.
    PhaseCeiling {
        /// The inclusive per-phase byte ceiling.
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
}

impl Predicate {
    /// Scans `trace` once, in stream order, and returns the first
    /// violation (`None` when the predicate holds).
    pub fn eval(&self, trace: &TaggedTrace) -> Option<Violation> {
        match self {
            Predicate::FramesLegal => eval::frames_legal(trace),
            Predicate::BroadcastConsistency { tags } => eval::broadcast_consistency(trace, tags),
            Predicate::PhaseCeiling { limit_bytes } => eval::phase_ceiling(trace, *limit_bytes),
            Predicate::FloodingNeverCharged => eval::flooding_never_charged(trace),
            Predicate::NoSendAfterTermination => eval::no_send_after_termination(trace),
            Predicate::DetectionAbortImpliesVerification => {
                eval::detection_abort_implies_verification(trace)
            }
            Predicate::NoPhaseBytesAfter { phase, after } => {
                eval::no_phase_bytes_after(trace, *phase, *after)
            }
        }
    }
}
