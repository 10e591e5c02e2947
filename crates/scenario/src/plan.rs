//! Scenario plans and campaigns: adversarial executions as data.
//!
//! A [`ScenarioPlan`] names one protocol family, one adversary class, an
//! `(n, h)` grid and a seed; [`ScenarioPlan::scenarios`] expands it into
//! concrete [`Scenario`]s (one per grid point). A [`Campaign`] is a list of
//! plans that compiles into a single [`mpca_engine::SessionPool`]
//! batch — hundreds of adversarial sessions riding the engine's parallel
//! backends deterministically — whose reports the security-property oracle
//! turns into a [`CampaignReport`].
//!
//! Four standing campaigns ship with the crate: [`standard_campaign`] (16
//! scenarios, the per-attack regression suite), [`tiny_campaign`] (CI
//! smoke), [`sweep_campaign`] (the full protocol × adversary × grid
//! cross-product, 150+ scenarios, the `E16-sweep` experiment) and
//! [`tiny_sweep_campaign`] (the sweep's `n ≤ 12` slice for CI).

use std::collections::BTreeSet;

use mpca_core::{ProtocolKind, ProtocolParams};
use mpca_crypto::lwe::LweParams;
use mpca_engine::{ExecutionBackend, SessionPool};
use mpca_net::{NetError, PartyId};

use crate::oracle;
use crate::registry;
use crate::report::CampaignReport;
use crate::spec::{AdversarySpec, CorruptionSpec, TriggerSpec};

/// What the oracle is expected to conclude about a scenario.
///
/// Campaigns include deliberately rigged **control** scenarios (a protocol
/// without equivocation detection under an equivocating adversary); the
/// oracle must flag those, and a campaign only passes when every verdict
/// matches its expectation — so the oracle itself is under test in every
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Every security property must hold.
    Holds,
    /// The agreement property must be **violated** (negative control).
    ViolatesAgreement,
    /// The flooding-rule property must be **violated** (negative control:
    /// only expressible by a scenario that deliberately charges adversary
    /// bytes via [`ScenarioPlan::charging_adversary_bytes`]).
    ViolatesFloodingRule,
    /// Every property must hold **and** the protocol must have *caught* the
    /// attack: at least one honest party aborts with a detection reason
    /// (`Equivocation` / `EqualityTestFailed`), and no honest party aborts
    /// with a parse failure (`Malformed`). The expectation for
    /// framing-aware equivocation against a detecting protocol — the
    /// attack must be flagged as an identified abort, not a parse error.
    DetectsEquivocation,
}

/// A declarative plan: one protocol, one adversary class, an `(n, h)` grid.
///
/// Expanding a plan is pure data-flow — no execution, no I/O — so plans are
/// cheap to build, inspect and cross-product:
///
/// ```
/// use mpca_core::ProtocolKind;
/// use mpca_scenario::{AdversarySpec, CorruptionSpec, ScenarioPlan};
///
/// let plan = ScenarioPlan::new(
///     "demo",
///     ProtocolKind::Broadcast,
///     AdversarySpec::Silent {
///         corrupt: CorruptionSpec::Seeded { count: 1 },
///     },
/// )
/// .with_grid([(8, 6), (12, 10)])
/// .with_seed(7);
///
/// let scenarios = plan.scenarios();
/// assert_eq!(scenarios.len(), 2, "one scenario per grid point");
/// assert_eq!(scenarios[0].label, "demo-silent-n8-h6");
/// // Seeded corruption resolves deterministically from (n, seed, label).
/// assert_eq!(scenarios[0].corrupted().len(), 1);
/// assert_eq!(scenarios[0].corrupted(), scenarios[0].corrupted());
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// Plan name (prefix of every scenario label).
    pub name: String,
    /// Which protocol family runs.
    pub kind: ProtocolKind,
    /// The `(n, h)` grid points; one scenario per point.
    pub grid: Vec<(usize, usize)>,
    /// The adversary class.
    pub adversary: AdversarySpec,
    /// Seed for corruption sampling, inputs and CRS labels.
    pub seed: u64,
    /// Charge adversary bytes to `CommStats` (default `false`, the paper's
    /// measure). Flipping it on deliberately breaks the flooding rule —
    /// that's how the flooding predicate gets its negative control.
    pub charge_adversary_bytes: bool,
    /// What the oracle must conclude.
    pub expectation: Expectation,
}

impl ScenarioPlan {
    /// A plan with the given name, protocol and adversary; defaults:
    /// empty grid, seed 0, expectation [`Expectation::Holds`].
    pub fn new(name: impl Into<String>, kind: ProtocolKind, adversary: AdversarySpec) -> Self {
        Self {
            name: name.into(),
            kind,
            grid: Vec::new(),
            adversary,
            seed: 0,
            charge_adversary_bytes: false,
            expectation: Expectation::Holds,
        }
    }

    /// Sets the `(n, h)` grid.
    pub fn with_grid(mut self, grid: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.grid = grid.into_iter().collect();
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the oracle expectation.
    pub fn expecting(mut self, expectation: Expectation) -> Self {
        self.expectation = expectation;
        self
    }

    /// Charges adversary bytes to `CommStats` — a deliberate violation of
    /// the paper's flooding rule, used for flooding-predicate controls.
    pub fn charging_adversary_bytes(mut self) -> Self {
        self.charge_adversary_bytes = true;
        self
    }

    /// Expands the plan into one concrete scenario per grid point.
    ///
    /// # Panics
    ///
    /// Panics if a grid point corrupts more than `n - h` parties (the
    /// honest-majority bookkeeping would be inconsistent) or `h > n`.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.grid
            .iter()
            .map(|&(n, h)| {
                assert!(h <= n, "grid point ({n}, {h}) has h > n");
                let scenario = Scenario {
                    label: format!("{}-{}-n{n}-h{h}", self.name, self.adversary.name()),
                    kind: self.kind,
                    n,
                    h,
                    adversary: self.adversary.clone(),
                    seed: self.seed,
                    charge_adversary_bytes: self.charge_adversary_bytes,
                    expectation: self.expectation,
                };
                let corrupted = scenario.corrupted().len();
                assert!(
                    corrupted <= n - h,
                    "scenario {} corrupts {corrupted} parties but guarantees h = {h} of n = {n}",
                    scenario.label
                );
                scenario
            })
            .collect()
    }
}

/// One concrete adversarial execution: a grid point of a [`ScenarioPlan`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Unique label (also the session label in the pool batch).
    pub label: String,
    /// Protocol family.
    pub kind: ProtocolKind,
    /// Total parties.
    pub n: usize,
    /// Guaranteed honest parties.
    pub h: usize,
    /// The adversary class.
    pub adversary: AdversarySpec,
    /// Seed for corruption sampling, inputs and CRS labels.
    pub seed: u64,
    /// Charge adversary bytes to `CommStats` (flooding-rule control knob).
    pub charge_adversary_bytes: bool,
    /// What the oracle must conclude.
    pub expectation: Expectation,
}

impl Scenario {
    /// The concrete corruption set (deterministic in the scenario).
    pub fn corrupted(&self) -> BTreeSet<PartyId> {
        self.adversary
            .resolve_corrupted(self.n, self.seed, &self.label)
    }

    /// The protocol parameters of this scenario (toy LWE with a 16-bit
    /// plaintext modulus, matching the experiment harness).
    pub fn params(&self) -> ProtocolParams {
        ProtocolParams::new(self.n, self.h).with_lwe(LweParams {
            plaintext_modulus: 1 << 16,
            ..LweParams::toy()
        })
    }
}

/// A named list of plans that runs as one pooled batch.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name (for reports).
    pub name: String,
    /// The plans; scenario order is plan order × grid order.
    pub plans: Vec<ScenarioPlan>,
}

impl Campaign {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            plans: Vec::new(),
        }
    }

    /// Appends a plan.
    pub fn plan(mut self, plan: ScenarioPlan) -> Self {
        self.plans.push(plan);
        self
    }

    /// Every concrete scenario of the campaign, in submission order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.plans
            .iter()
            .flat_map(ScenarioPlan::scenarios)
            .collect()
    }

    /// Compiles the campaign into one [`SessionPool`] batch on `backend`,
    /// runs it across `workers` workers, and evaluates every session
    /// against the security-property oracle.
    ///
    /// Deterministic end to end: scenario construction, execution (the
    /// engine's backend-equivalence guarantee) and the oracle's verdicts are
    /// all pure functions of the campaign and its seeds, whatever the
    /// backend or worker count.
    ///
    /// # Errors
    ///
    /// Propagates the first session-level [`NetError`] (invalid
    /// configuration or round-limit overrun) — scenario campaigns treat a
    /// non-terminating protocol as a harness bug, not a verdict.
    pub fn run<B: ExecutionBackend>(
        &self,
        backend: B,
        workers: usize,
    ) -> Result<CampaignReport, NetError> {
        self.run_configured(backend, workers, false, false, |_| {})
    }

    /// [`run`](Self::run) with execution **tracing** enabled: every
    /// session's [`SessionReport`](mpca_engine::SessionReport) carries a
    /// trace summary (canonical digest + trace-derived abort reasons), the
    /// oracle's identified-abort predicate becomes behavioural, and the
    /// digests feed `campaign --record` / `--replay`. The full event
    /// streams are retained too, so the oracle's trace-predicate property
    /// evaluates for real (not trivially).
    pub fn run_traced<B: ExecutionBackend>(
        &self,
        backend: B,
        workers: usize,
    ) -> Result<CampaignReport, NetError> {
        self.run_configured(backend, workers, true, true, |_| {})
    }

    /// The fully configured run: backend, workers, tracing, full-stream
    /// retention (`retain_logs`, which gives the oracle's trace-predicate
    /// property a stream to evaluate — requires `traced`), and a
    /// per-session progress observer (see [`SessionPool::with_progress`];
    /// the CLI narrates sweep-scale campaigns with it).
    pub fn run_configured<B, F>(
        &self,
        backend: B,
        workers: usize,
        traced: bool,
        retain_logs: bool,
        progress: F,
    ) -> Result<CampaignReport, NetError>
    where
        B: ExecutionBackend,
        F: Fn(mpca_engine::SessionProgress) + Send + Sync + 'static,
    {
        let scenarios = self.scenarios();
        let mut pool = SessionPool::new(backend)
            .with_workers(workers)
            .with_progress(progress);
        pool.reserve(scenarios.len());
        for scenario in &scenarios {
            pool.submit_task(
                registry::scenario_task(scenario)
                    .with_tracing(traced)
                    .with_trace_logs(retain_logs),
            );
        }
        let batch = pool.run()?;
        let outcomes = scenarios
            .into_iter()
            .zip(batch.sessions)
            .map(|(scenario, report)| oracle::evaluate(scenario, report))
            .collect();
        Ok(CampaignReport {
            name: self.name.clone(),
            outcomes,
            wall: batch.wall,
            workers: batch.workers,
            backend: batch.backend,
        })
    }
}

/// The standard campaign: every protocol family in the catalog under
/// honest, silent, crash-at-round, withholding, equivocating, flooding and
/// triggered adversaries — including the rigged negative controls the
/// oracle must flag (an equivocated verification-free sum expecting
/// [`Expectation::ViolatesAgreement`], and a charged flood expecting
/// [`Expectation::ViolatesFloodingRule`]).
///
/// ≥ 12 distinct (protocol × adversary × `(n, h)`) scenarios; used by the
/// `E15-scenario-campaign` experiment and the campaign CLI.
pub fn standard_campaign(seed: u64) -> Campaign {
    Campaign::new("standard")
        // Theorem 1 baselines: all-honest and transparent proxy.
        .plan(
            ScenarioPlan::new("t1", ProtocolKind::Theorem1Mpc, AdversarySpec::Honest)
                .with_grid([(16, 8), (24, 12)])
                .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "t1",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::HonestProxy {
                    corrupt: CorruptionSpec::Explicit(vec![0, 5]),
                },
            )
            .with_grid([(16, 14)])
            .with_seed(seed),
        )
        // Theorem 1 under seeded silent corruption.
        .plan(
            ScenarioPlan::new(
                "t1",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Seeded { count: 4 },
                },
            )
            .with_grid([(16, 12), (24, 20)])
            .with_seed(seed),
        )
        // Theorem 1: honest prefix then crash (the selective abort pattern).
        .plan(
            ScenarioPlan::new(
                "t1",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::AbortAt {
                    corrupt: CorruptionSpec::Explicit(vec![0, 1]),
                    round: 4,
                },
            )
            .with_grid([(16, 14)])
            .with_seed(seed),
        )
        // Theorem 1: selective withholding.
        .plan(
            ScenarioPlan::new(
                "t1",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::Withhold {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    recipients: vec![2, 3],
                },
            )
            .with_grid([(16, 15)])
            .with_seed(seed),
        )
        // Theorems 2 and 4 under corruption.
        .plan(
            ScenarioPlan::new(
                "t2",
                ProtocolKind::Theorem2LocalMpc,
                AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Seeded { count: 3 },
                },
            )
            .with_grid([(16, 13)])
            .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "t4",
                ProtocolKind::Theorem4Tradeoff,
                AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Explicit(vec![0, 1]),
                },
            )
            .with_grid([(16, 14)])
            .with_seed(seed),
        )
        // Broadcast: honest, silent sender, equivocating sender.
        .plan(
            ScenarioPlan::new("bc", ProtocolKind::Broadcast, AdversarySpec::Honest)
                .with_grid([(16, 16)])
                .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "bc",
                ProtocolKind::Broadcast,
                AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                },
            )
            .with_grid([(12, 11)])
            .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "bc",
                ProtocolKind::Broadcast,
                AdversarySpec::Equivocate {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: vec![2, 3],
                },
            )
            .with_grid([(12, 11)])
            .with_seed(seed),
        )
        // All-to-all under a triggered flood: junk must never be charged.
        .plan(
            ScenarioPlan::new(
                "a2a",
                ProtocolKind::SuccinctAllToAll,
                AdversarySpec::Triggered {
                    base: Box::new(AdversarySpec::Flood {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![],
                        junk_bytes: 2048,
                        round_budget: None,
                    }),
                    trigger: TriggerSpec::AtRound(1),
                },
            )
            .with_grid([(10, 9)])
            .with_seed(seed),
        )
        // Flooding-rule control: the same flood with adversary bytes
        // deliberately charged to CommStats — the flooding predicate must
        // flag it, proving the predicate can actually fail.
        .plan(
            ScenarioPlan::new(
                "ctl",
                ProtocolKind::SuccinctAllToAll,
                AdversarySpec::Flood {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: vec![],
                    junk_bytes: 2048,
                    round_budget: None,
                },
            )
            .with_grid([(10, 9)])
            .with_seed(seed)
            .charging_adversary_bytes()
            .expecting(Expectation::ViolatesFloodingRule),
        )
        // The negative control pair: the verification-free sum agrees when
        // everyone is honest, and silently disagrees under equivocation —
        // the oracle must flag exactly the latter.
        .plan(
            ScenarioPlan::new("ctl", ProtocolKind::UncheckedSum, AdversarySpec::Honest)
                .with_grid([(12, 12)])
                .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "ctl",
                ProtocolKind::UncheckedSum,
                AdversarySpec::Equivocate {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: vec![1],
                },
            )
            .with_grid([(12, 11)])
            .with_seed(seed)
            .expecting(Expectation::ViolatesAgreement),
        )
}

/// A tiny campaign (2 scenarios, `n ≤ 8`, no controls) for CI smoke runs:
/// every verdict must be `Holds`, so any violation fails the job.
pub fn tiny_campaign(seed: u64) -> Campaign {
    Campaign::new("tiny")
        .plan(
            ScenarioPlan::new("smoke", ProtocolKind::Broadcast, AdversarySpec::Honest)
                .with_grid([(8, 8)])
                .with_seed(seed),
        )
        .plan(
            ScenarioPlan::new(
                "smoke",
                ProtocolKind::UncheckedSum,
                AdversarySpec::Silent {
                    corrupt: CorruptionSpec::Explicit(vec![7]),
                },
            )
            .with_grid([(8, 7)])
            .with_seed(seed),
        )
}

/// The adversary classes the sweep cross-products against `kind`'s grid.
///
/// Classes are per-family: the proxy-based combinators apply to every
/// family, floods target the protocols whose parsing tolerates junk from
/// unexpected senders without leaving the model (abort is always fine), and
/// equivocation stays on the families whose detection — or deliberate lack
/// of it, for the rigged control — is the point of the scenario (extending
/// tampering to the framed MPC transcripts is a ROADMAP item).
fn sweep_adversaries(kind: ProtocolKind) -> Vec<AdversarySpec> {
    let seeded = |count| CorruptionSpec::Seeded { count };
    match kind {
        ProtocolKind::Theorem1Mpc
        | ProtocolKind::Theorem2LocalMpc
        | ProtocolKind::Theorem4Tradeoff => vec![
            AdversarySpec::Honest,
            AdversarySpec::HonestProxy { corrupt: seeded(2) },
            AdversarySpec::Silent { corrupt: seeded(2) },
            AdversarySpec::AbortAt {
                corrupt: seeded(2),
                round: 3,
            },
            AdversarySpec::Withhold {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                recipients: vec![1, 2],
            },
        ],
        ProtocolKind::Broadcast => vec![
            AdversarySpec::Honest,
            // Party 0 is the designated sender: silencing it makes every
            // receiver abort, equivocating through it tests detection.
            AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![0]),
            },
            AdversarySpec::Equivocate {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![1, 2],
            },
            AdversarySpec::Withhold {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                recipients: vec![2, 3],
            },
        ],
        ProtocolKind::SuccinctAllToAll => vec![
            AdversarySpec::Honest,
            AdversarySpec::Silent { corrupt: seeded(1) },
            AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: seeded(1),
                    victims: vec![],
                    junk_bytes: 2048,
                    round_budget: None,
                }),
                trigger: TriggerSpec::AtRound(1),
            },
            AdversarySpec::Both {
                a: Box::new(AdversarySpec::Silent { corrupt: seeded(1) }),
                b: Box::new(AdversarySpec::Flood {
                    corrupt: seeded(1),
                    victims: vec![],
                    junk_bytes: 1024,
                    round_budget: Some(3),
                }),
            },
        ],
        ProtocolKind::UncheckedSum => vec![
            AdversarySpec::Honest,
            AdversarySpec::Silent { corrupt: seeded(2) },
            AdversarySpec::HonestProxy { corrupt: seeded(2) },
        ],
    }
}

fn build_sweep(seed: u64, tiny: bool) -> Campaign {
    let mut campaign = Campaign::new(if tiny { "sweep-tiny" } else { "sweep" });
    for kind in ProtocolKind::ALL {
        let grid: Vec<(usize, usize)> = kind
            .spec()
            .sweep_grid
            .iter()
            .copied()
            .filter(|&(n, _)| !tiny || n <= 12)
            .collect();
        for (index, adversary) in sweep_adversaries(kind).into_iter().enumerate() {
            campaign = campaign.plan(
                ScenarioPlan::new(format!("swp{index}-{}", kind.name()), kind, adversary)
                    .with_grid(grid.clone())
                    .with_seed(seed),
            );
        }
    }
    // Trace-plane scenarios (both sweep sizes, n ≤ 12 so the tiny slice and
    // CI replay runs carry them too):
    //
    // Framing-aware equivocation against checked MPC: party 0's encrypted
    // input is field-tampered (ciphertext word `c2.0` of the `mpc:input-ct`
    // frame) towards victim committee members — the copy still parses, so
    // the committee's pairwise equality test, not the parser, must catch
    // the split view and answer with an identified abort.
    campaign = campaign
        .plan(
            ScenarioPlan::new(
                "swptr-eqframe-t1",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::EquivocateFrame {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: vec![1, 2, 3],
                    tag: "mpc:input-ct".into(),
                    field: "c2.0".into(),
                },
            )
            .with_grid([(12, 6)])
            .with_seed(seed)
            .expecting(Expectation::DetectsEquivocation),
        )
        // …the same class of attack against the Theorem 4 trade-off family
        // (shares the MpcMsg framing, different communication pattern):
        // here the *output* frame is field-tampered towards a wide victim
        // set. At (12, 6) the local election probability clamps to 1, so
        // party 0 is always a member whose 5-party cover necessarily
        // intersects the victims — the output consistency check must flag
        // the split with an Equivocation abort, whatever the seed.
        .plan(
            ScenarioPlan::new(
                "swptr-eqframe-t4",
                ProtocolKind::Theorem4Tradeoff,
                AdversarySpec::EquivocateFrame {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: (1..=8).collect(),
                    tag: "mpc:output".into(),
                    field: "output".into(),
                },
            )
            .with_grid([(12, 6)])
            .with_seed(seed)
            .expecting(Expectation::DetectsEquivocation),
        )
        // …and a protocol-aware trigger: a flood that stays dormant until
        // the committee announcement milestone, whatever round that lands
        // on. Honest parties abort on the junk (allowed) and the junk is
        // never charged.
        .plan(
            ScenarioPlan::new(
                "swptr-mstone",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::Triggered {
                    base: Box::new(AdversarySpec::Flood {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![],
                        junk_bytes: 1024,
                        round_budget: Some(2),
                    }),
                    trigger: TriggerSpec::AtMilestone(mpca_net::MilestoneKind::CommitteeAnnounced),
                },
            )
            .with_grid([(12, 6)])
            .with_seed(seed),
        );
    if !tiny {
        // The rigged controls ride the sweep too, so the oracle stays under
        // test at scale: a charged flood (flooding rule) and an equivocated
        // verification-free sum (agreement).
        campaign = campaign
            .plan(
                ScenarioPlan::new(
                    "swpctl-flood",
                    ProtocolKind::SuccinctAllToAll,
                    AdversarySpec::Flood {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![],
                        junk_bytes: 2048,
                        round_budget: None,
                    },
                )
                .with_grid([(10, 9)])
                .with_seed(seed)
                .charging_adversary_bytes()
                .expecting(Expectation::ViolatesFloodingRule),
            )
            .plan(
                ScenarioPlan::new(
                    "swpctl-equiv",
                    ProtocolKind::UncheckedSum,
                    AdversarySpec::Equivocate {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![1],
                    },
                )
                .with_grid([(12, 10)])
                .with_seed(seed)
                .expecting(Expectation::ViolatesAgreement),
            );
    }
    campaign
}

/// The **sweep** campaign: `ProtocolKind::ALL` cross-producted with the
/// per-family seeded adversary classes over the widened
/// [`sweep_grid`](mpca_core::FamilySpec::sweep_grid)s — 150+ scenarios
/// streamed through one [`SessionPool`] batch — plus the two rigged
/// controls the oracle must flag. `campaign --sweep` runs it from the CLI and the
/// `E16-sweep` experiment records its wall-clock and throughput in
/// `BENCH_results.json`.
pub fn sweep_campaign(seed: u64) -> Campaign {
    build_sweep(seed, false)
}

/// The sweep restricted to its `n ≤ 12` grid points and no violation
/// controls: the same cross-product shape at CI-smoke cost
/// (`campaign --sweep --tiny`, seconds not minutes). Every property must
/// hold everywhere.
pub fn tiny_sweep_campaign(seed: u64) -> Campaign {
    build_sweep(seed, true)
}

/// Resolves a standing campaign by the name its constructor gives it —
/// the inverse `campaign --replay` uses to re-execute a recorded schedule
/// from a [`TraceFile`](mpca_trace::TraceFile)'s `(campaign, seed)`
/// identity.
pub fn campaign_by_name(name: &str, seed: u64) -> Option<Campaign> {
    match name {
        "standard" => Some(standard_campaign(seed)),
        "tiny" => Some(tiny_campaign(seed)),
        "sweep" => Some(sweep_campaign(seed)),
        "sweep-tiny" => Some(tiny_sweep_campaign(seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_expand_into_labelled_scenarios() {
        let plan = ScenarioPlan::new("p", ProtocolKind::Broadcast, AdversarySpec::Honest)
            .with_grid([(8, 8), (12, 12)])
            .with_seed(3);
        let scenarios = plan.scenarios();
        assert_eq!(scenarios.len(), 2);
        assert_eq!(scenarios[0].label, "p-honest-n8-h8");
        assert_eq!(scenarios[1].label, "p-honest-n12-h12");
        assert!(scenarios[0].corrupted().is_empty());
    }

    #[test]
    #[should_panic(expected = "corrupts")]
    fn over_corruption_panics() {
        ScenarioPlan::new(
            "p",
            ProtocolKind::Broadcast,
            AdversarySpec::Silent {
                corrupt: CorruptionSpec::Seeded { count: 3 },
            },
        )
        .with_grid([(8, 6)])
        .scenarios();
    }

    #[test]
    fn standard_campaign_is_big_and_has_a_control() {
        let campaign = standard_campaign(0);
        let scenarios = campaign.scenarios();
        assert!(
            scenarios.len() >= 12,
            "standard campaign must cover >= 12 scenarios, got {}",
            scenarios.len()
        );
        let labels: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), scenarios.len(), "labels must be unique");
        assert!(
            scenarios
                .iter()
                .any(|s| s.expectation == Expectation::ViolatesAgreement),
            "the campaign must carry a rigged control scenario"
        );
    }

    #[test]
    fn sweep_campaign_covers_the_cross_product_at_scale() {
        let campaign = sweep_campaign(0);
        let scenarios = campaign.scenarios();
        assert!(
            scenarios.len() >= 100,
            "the sweep must cover >= 100 scenarios, got {}",
            scenarios.len()
        );
        // The trace-plane scenarios ride every sweep: framing-aware
        // equivocation against both checked MPC families and a
        // milestone-triggered flood.
        assert_eq!(
            scenarios
                .iter()
                .filter(|s| s.expectation == Expectation::DetectsEquivocation)
                .count(),
            2,
            "both checked MPC families carry a framing-aware equivocation"
        );
        assert!(scenarios
            .iter()
            .any(|s| s.adversary.name().contains("m-committee-announced")));
        let labels: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), scenarios.len(), "labels must be unique");
        // Every family appears on its full sweep grid, every family has an
        // honest baseline, and both rigged controls ride along.
        for kind in ProtocolKind::ALL {
            let of_kind: Vec<_> = scenarios.iter().filter(|s| s.kind == kind).collect();
            assert!(
                of_kind.len() >= kind.spec().sweep_grid.len() * 3,
                "{kind}: expected at least 3 classes x grid, got {}",
                of_kind.len()
            );
            assert!(of_kind.iter().any(|s| s.adversary == AdversarySpec::Honest));
        }
        assert_eq!(
            scenarios
                .iter()
                .filter(|s| matches!(
                    s.expectation,
                    Expectation::ViolatesAgreement | Expectation::ViolatesFloodingRule
                ))
                .count(),
            2,
            "exactly the two rigged controls expect a violation"
        );
        // Every scenario's corruption respects its honest-majority margin
        // (ScenarioPlan::scenarios asserts this; spelled out here to pin
        // the sweep's seeded counts against grid edits).
        for s in &scenarios {
            assert!(s.corrupted().len() <= s.n - s.h, "{}", s.label);
        }
    }

    #[test]
    fn tiny_sweep_is_small_and_clean_and_runs() {
        let campaign = tiny_sweep_campaign(5);
        let scenarios = campaign.scenarios();
        assert!(scenarios.len() >= 30, "got {}", scenarios.len());
        assert!(scenarios.iter().all(|s| s.n <= 12));
        // No violation controls in the tiny slice — every property must
        // hold everywhere (the framing-aware equivocations additionally
        // require a detection abort, which is still a clean run).
        assert!(scenarios.iter().all(|s| matches!(
            s.expectation,
            Expectation::Holds | Expectation::DetectsEquivocation
        )));
        let report = campaign
            .run_traced(mpca_engine::Sequential, 2)
            .expect("tiny sweep executes");
        assert!(
            report.all_as_expected(),
            "every tiny-sweep verdict must hold:\n{}",
            report.render()
        );
    }

    #[test]
    fn tiny_campaign_is_tiny_and_clean() {
        let scenarios = tiny_campaign(1).scenarios();
        assert_eq!(scenarios.len(), 2);
        assert!(scenarios.iter().all(|s| s.n <= 8));
        assert!(scenarios
            .iter()
            .all(|s| s.expectation == Expectation::Holds));
    }
}
