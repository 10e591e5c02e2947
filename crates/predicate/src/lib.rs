//! # mpca-predicate
//!
//! The **trace predicates**: seven named rules over a
//! [`TaggedTrace`](mpca_trace::TaggedTrace), each checked by one batch
//! scan that walks the trace's entries in stream order and stops at the
//! first violation.
//!
//! The paper's security claims — agreement-or-abort, identified abort, the
//! Theorem 3 flooding rule, per-phase byte budgets — are claims *about the
//! event stream*: which frames crossed the wire, in which phase, charged to
//! whom, before or after which milestone. This crate states those claims as
//! data ([`Predicate`]) and checks each with one pass:
//!
//! * **frame-sequence legality** ([`Predicate::FramesLegal`]): every honest
//!   envelope decodes under the family's
//!   [`FrameSchema`](mpca_core::FrameSchema);
//! * **broadcast consistency** ([`Predicate::BroadcastConsistency`]): all
//!   copies of a replicated frame carry the same bytes;
//! * **per-phase byte ceilings** ([`Predicate::PhaseCeiling`]): the
//!   `PhaseLedger` charging rules replayed against one limit for every
//!   phase;
//! * **the flooding rule** ([`Predicate::FloodingNeverCharged`]): injected
//!   bytes are never charged;
//! * **temporal rules**: no honest send after a party's termination
//!   ([`Predicate::NoSendAfterTermination`]), detection aborts imply a
//!   prior verification phase
//!   ([`Predicate::DetectionAbortImpliesVerification`]), no CRS-phase bytes
//!   after the committee announcement ([`Predicate::NoPhaseBytesAfter`]).
//!
//! [`Predicate::eval`] runs one rule's scan; [`eval_set`] evaluates a named
//! set, predicate by predicate.
//!
//! A violation is reported as the **first violating event span**
//! ([`Violation`]): the inclusive `[start, end]` window of stream indices
//! that witnesses the failure (for relational rules, `start` is the
//! establishing event — the honest original, the termination milestone —
//! and `end` the offending one).
//!
//! [`standard_set`] bundles the rules every conforming execution must
//! satisfy; [`full_set`] adds the broadcast-consistency rule for the
//! family's replicated frame tags. Which families get the
//! detection-in-verification rule, and which tags are replicated, are
//! fields of the family's [`FamilySpec`](mpca_core::FamilySpec) row. The
//! `mpca-scenario` oracle evaluates the standard set as its `P` property,
//! and `campaign --search` uses the violated-name vector as a coverage
//! signal.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod ast;
mod eval;
mod set;

pub use ast::{Predicate, Span, Violation};
pub use set::{eval_set, full_set, standard_set, NamedPredicate, SetViolation};
