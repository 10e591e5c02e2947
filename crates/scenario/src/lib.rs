//! # mpca-scenario
//!
//! **Adversarial executions as data**: a declarative scenario subsystem
//! with a security-property oracle, sitting between the protocols
//! (`mpca-core`) and the batch-execution engine (`mpca-engine`).
//!
//! The paper's entire subject is what honest parties can guarantee *under
//! attack*; this crate makes the attacks first-class, enumerable and
//! checkable:
//!
//! * [`AdversarySpec`] — a declarative adversary class (silent, flooding
//!   with budgets, crash-at-round, withholding, equivocating, triggered),
//!   compiled on submission into an `mpca-net` adversary: a proxy-based
//!   class is one [`ProxyAdversary`](mpca_net::ProxyAdversary) with a
//!   rewrite hook, the rest are the adversary combinators;
//! * [`ScenarioPlan`] / [`Campaign`] — protocol choice (via the
//!   [`ProtocolKind`](mpca_core::ProtocolKind) catalog), an `(n, h)` grid,
//!   an execution path and a seed, expanding into concrete [`Scenario`]s
//!   that run as **one pooled batch** through any
//!   [`ExecutionBackend`](mpca_engine::ExecutionBackend);
//! * the [`oracle`] — evaluates every session against the paper's
//!   predicates (agreement-or-abort §3.1, identified abort, the flooding
//!   rule, golden-calibrated theorem comm budgets, and the Theorems 2/4
//!   per-party locality budgets) into per-scenario verdicts;
//! * [`CampaignReport`] — verdict tables, campaign pass/fail
//!   ([`CampaignReport::all_as_expected`]), and a stable
//!   [`verdict_digest`](CampaignReport::verdict_digest) the determinism
//!   tests compare across backends.
//!
//! Campaigns deliberately include **negative controls** — a
//! verification-free protocol under an equivocating adversary — that the
//! oracle *must* flag ([`Expectation::ViolatesAgreement`]); the oracle is
//! therefore itself under test in every run.
//!
//! ## Example
//!
//! ```
//! use mpca_core::ProtocolKind;
//! use mpca_engine::Sequential;
//! use mpca_scenario::{AdversarySpec, Campaign, CorruptionSpec, ScenarioPlan};
//!
//! let campaign = Campaign::new("demo").plan(
//!     ScenarioPlan::new(
//!         "bc",
//!         ProtocolKind::Broadcast,
//!         AdversarySpec::Silent { corrupt: CorruptionSpec::Explicit(vec![0]) },
//!     )
//!     .with_grid([(8, 7)]),
//! );
//! let report = campaign.run(Sequential, 2).unwrap();
//! assert!(report.all_as_expected(), "{}", report.render());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cex;
pub mod codec;
pub mod oracle;
pub mod plan;
pub mod registry;
pub mod report;
pub mod search;
pub mod soak;
pub mod spec;

pub use cex::{CexMismatch, Counterexample, CEX_SCHEMA};
pub use codec::{encode_spec, parse_spec};
pub use oracle::{Property, PropertyCheck, ScenarioOutcome, Verdict};
pub use plan::{
    campaign_by_name, standard_campaign, sweep_campaign, tiny_campaign, tiny_sweep_campaign,
    Campaign, Expectation, Scenario, ScenarioPlan,
};
pub use report::CampaignReport;
pub use search::{run_search, Candidate, Finding, Rig, SearchConfig, SearchReport};
pub use soak::SoakWorkload;
pub use spec::{AdversarySpec, CorruptionSpec, TriggerSpec};
