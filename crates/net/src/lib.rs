//! # mpca-net
//!
//! A deterministic, synchronous, point-to-point network **simulator** with a
//! static malicious adversary — the execution model of the paper (§3.1).
//!
//! The paper's model is:
//!
//! * `n` parties connected pairwise by point-to-point channels (no broadcast
//!   channel, no PKI, only a common random string);
//! * execution proceeds in synchronous rounds;
//! * a **static malicious** adversary corrupts up to `n − h` parties before
//!   the protocol begins and may send arbitrary messages on their behalf;
//! * the **communication complexity** of a protocol is the total number of
//!   bits sent by parties *if they all honestly followed the protocol* (the
//!   worst case over executions), and honest parties abort if they would
//!   receive more bits than the protocol prescribes;
//! * the **locality** of a protocol is the number of distinct peers a party
//!   communicates with.
//!
//! The simulator reproduces exactly these quantities:
//! [`CommStats`] tracks bytes sent and peers contacted per
//! party, and the experiment harness measures all-honest executions for the
//! communication-complexity numbers (matching the paper's definition) and
//! adversarial executions for the security experiments.
//!
//! ## Writing a protocol
//!
//! A protocol is a [`PartyLogic`] state machine. Each round the simulator
//! hands a party the envelopes addressed to it and the party returns
//! [`Step::Continue`], [`Step::Output`] or [`Step::Abort`]. See the
//! `mpca-core` crate for the paper's protocols and the crate tests below for
//! a minimal example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod combinators;
pub mod crs;
pub mod envelope;
pub mod error;
pub mod party;
pub mod payload;
pub mod simulator;
pub mod stats;
pub mod trace;

pub use adversary::{Adversary, AdversaryCtx, NoAdversary, ProxyAdversary, SilentAdversary};
pub use combinators::{
    sample_corruption, AbortAt, Compose, Equivocate, FloodBudget, FrameRewriter, TriggerPredicate,
    TriggerWhen, Withhold,
};
pub use crs::CommonRandomString;
pub use envelope::Envelope;
pub use error::NetError;
pub use party::{
    set_naive_fanout_for_tests, AbortReason, Milestone, MilestoneEvent, MilestoneKind, PartyCtx,
    PartyId, PartyLogic, SendOp, Step,
};
pub use payload::{Payload, PayloadAllocStats, PayloadBuilder};
pub use simulator::{
    InlineDriver, PartyOutcome, PartyStep, PartyTask, RoundDriver, RunResult, SimConfig, Simulator,
};
pub use stats::CommStats;
pub use trace::{TraceEvent, TraceLog, TraceSummary};
