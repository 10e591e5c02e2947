//! # mpca-trace
//!
//! The **trace plane**: structured execution traces for the protocol
//! simulator — digests, frame tagging, and deterministic record/replay.
//!
//! The `mpca-net` simulator records a session's events — every charged
//! send, every adversarial injection (tagged distinctly), and every
//! protocol [`Milestone`](mpca_net::Milestone) — and folds each into the
//! session's [`TraceSummary`] as it records it. It keeps the raw event
//! stream ([`TraceLog`](mpca_net::TraceLog)) only when the session retains
//! it. This crate is everything built *on* that stream:
//!
//! * [`TraceSummary`] — a backend-independent digest of one session's
//!   trace (a 128-bit event fold with payload buffers memoized per shared
//!   window, sealed with SHA-256 — see [`digest_hex`]) plus counters, the
//!   trace-derived abort reasons and the phase ledger's bytes. The engine
//!   embeds it in every traced `SessionReport`, **inside the parallel ==
//!   sequential equality contract** — so backend equivalence covers the
//!   entire event stream, not just its aggregates. The recorder and the
//!   summary live in `mpca_net::trace`, where the simulator folds them;
//!   they are re-exported here, and [`TraceSummary::of`] replays a
//!   retained log through the same fold.
//! * [`TaggedTrace`] — the predicates' input: every send annotated with
//!   the frame tag its payload decodes to under the protocol family's
//!   [`FrameSchema`](mpca_core::FrameSchema) and a fingerprint of its
//!   bytes, interleaved with milestones. `mpca-predicate` scans it.
//! * [`PhaseLedger`] — per-phase byte attribution under the simulator's
//!   charging rules, folded by the same recorder and reconciled with the
//!   simulator's live accounting; [`PhaseLedger::of`] replays a retained
//!   log.
//! * [`TraceFile`] — the `campaign --record` / `--replay` artefact: one
//!   digest line per scenario, plus the campaign identity needed to
//!   re-execute the captured schedule byte-identically and
//!   [`compare`](TraceFile::compare) the digests.
//!
//! Everything here is deterministic and dependency-free: digests use
//! `mpca-crypto` primitives, and the file format is JSON lines read with
//! the workspace parser, `mpca_metrics::json`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod file;
mod tagged;

pub use file::{ReplayMismatch, TraceFile, TraceRecord};
pub use mpca_net::trace::{digest_hex, PhaseLedger, TraceSummary};
pub use tagged::{payload_fingerprint, TaggedEntry, TaggedTrace};
