//! # mpca-core
//!
//! The paper's protocols for **MPC with selective abort over point-to-point
//! networks**, implemented as round-driven state machines on the
//! [`mpca-net`](mpca_net) simulator.
//!
//! | Module | Paper reference | Guarantee |
//! |---|---|---|
//! | [`equality`] | Lemma 5 / Algorithm 1 | succinct equality test, `O(λ log n)` bits |
//! | [`broadcast`] | §2.1 | single-source broadcast with abort, `O(n·ℓ + n²)` bits |
//! | [`all_to_all`] | §2.1 / Remark 8 | naive `O(n³)` GL baseline and the succinct `Õ(n²)` variant |
//! | [`committee`] | Algorithm 2 | committee election, `Õ(n²/h)` bits |
//! | [`mpc`] | Algorithm 3 / Theorem 1 | MPC with abort, `Õ(n²/h)` bits |
//! | [`multi_output`] | Algorithm 4 / §4.3 | per-party outputs without the `O(n³/h²)` blow-up |
//! | [`sparse`] | Algorithm 5 / Claim 20 | sparse routing network, degree `Õ(n/h)` |
//! | [`gossip`] | Algorithm 6 / Claim 21 | responsible gossip / sparse simultaneous broadcast |
//! | [`local_mpc`] | Theorem 2 / Theorem 18 | MPC with abort, `Õ(n³/h)` bits, locality `Õ(n/h)` |
//! | [`local_committee`] | Algorithm 7 / Claim 22 | local committee election |
//! | [`tradeoff`] | Algorithm 8 / Theorem 4 / 19 | `Õ(n³/h^{3/2})` bits, locality `Õ(n/√h)` |
//! | [`lower_bound`] | Theorem 3 / Appendix A | the isolation attack behind the `Ω(n²/h)` bound |
//! | [`catalog`] | — | the family table: one [`FamilySpec`] row per [`ProtocolKind`] + paper comm budgets |
//! | [`frames`] | — | per-protocol frame schemas: trace tagging + framing-aware tampering |
//! | [`unchecked`] | — | verification-free sum (negative control for the scenario oracle) |
//!
//! All protocols share [`params::ProtocolParams`] (the `(n, h, λ, α)`
//! parameters and derived quantities) and the execution-path choice in
//! [`params::ExecutionPath`]: the *concrete* threshold-LWE path (real
//! cryptography end-to-end, linear functionalities) or the *hybrid* path
//! (ideal encrypted functionality plus Theorem 9-sized messages, arbitrary
//! circuits). See `DESIGN.md` §2 at the repository root for the
//! substitution rationale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all_to_all;
pub mod broadcast;
pub mod catalog;
pub mod committee;
pub mod crs_cache;
pub mod equality;
pub mod frames;
pub mod gossip;
pub mod local_committee;
pub mod local_mpc;
pub mod lower_bound;
pub mod mpc;
pub mod multi_output;
pub mod params;
pub mod sparse;
pub mod tradeoff;
pub mod unchecked;

pub use catalog::{BudgetCurve, CalibrationPoint, FamilySpec, ProtocolKind, BUDGET_SLACK};
pub use frames::FrameSchema;
pub use params::{ExecutionPath, ProtocolParams};
