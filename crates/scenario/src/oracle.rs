//! The security-property oracle: every executed scenario is checked against
//! the paper's guarantees.
//!
//! [`evaluate`] checks a pool [`SessionReport`] (outcome digests with their
//! structured abort reasons, `CommStats`) against six predicates drawn
//! from the paper's §3.1 model and theorem statements:
//!
//! 1. [`AgreementOrAbort`](Property::AgreementOrAbort) — no two honest
//!    parties output different values; aborting instead is always allowed
//!    (the *selective abort* relaxation).
//! 2. [`IdentifiedAbort`](Property::IdentifiedAbort) — every honest party
//!    either produced an output or aborted with a recorded, consistent
//!    [`AbortReason`](mpca_net::AbortReason): aborts are diagnosable, never
//!    anonymous. Every aborted [`OutcomeDigest`] carries its reason by
//!    construction, so the predicate has something to check only for
//!    **traced** sessions, where it is *behavioural*: the reasons are
//!    cross-checked against the execution trace's `Aborted { reason }`
//!    milestones, which the simulator synthesises on the termination step
//!    itself — a recording path independent of the report's outcome
//!    plumbing, so agreement between the two witnesses the protocol's
//!    actual abort behaviour. Untraced sessions hold.
//! 3. [`FloodingRule`](Property::FloodingRule) — adversarial traffic is
//!    never charged to the protocol's communication statistics (§3.1's
//!    flooding rule: junk can force an abort but cannot inflate the
//!    measured complexity).
//! 4. [`CommBudget`](Property::CommBudget) — honest bits stay inside the
//!    golden-derived envelope curve of the protocol's theorem bound
//!    ([`ProtocolKind::comm_budget_bits`](mpca_core::ProtocolKind::comm_budget_bits),
//!    [`BUDGET_SLACK`](mpca_core::BUDGET_SLACK)× the measured honest sweeps
//!    — see DESIGN.md §7).
//! 5. [`LocalityBudget`](Property::LocalityBudget) — no honest party
//!    contacts more honest peers than the family's locality promise allows
//!    (Theorems 2/4 promise *per-party locality*, not just total bits;
//!    [`ProtocolKind::locality_budget`](mpca_core::ProtocolKind::locality_budget)).
//!    Locality is measured honest-to-honest, so adversarial junk deliveries
//!    can no more inflate it than they can inflate charged bits.
//! 6. [`TracePredicates`](Property::TracePredicates) — for sessions whose
//!    full event stream was retained
//!    ([`SessionTask::with_trace_logs`](mpca_engine::SessionTask::with_trace_logs)),
//!    the `mpca-predicate` [`standard_set`](mpca_predicate::standard_set)
//!    must hold over the [`TaggedTrace`](mpca_trace::TaggedTrace): frame
//!    legality, termination silence, detection-in-verification, phase
//!    monotonicity and the flooding rule **as stream properties**, each
//!    reported with its first violating event span. Sessions without a
//!    retained stream trivially hold (there is nothing to evaluate).

use std::collections::BTreeSet;

use mpca_engine::{OutcomeDigest, SessionReport};
use mpca_net::PartyId;

use crate::plan::{Expectation, Scenario};

/// A security property the oracle checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Property {
    /// No two honest parties output different values (§3.1).
    AgreementOrAbort,
    /// Every abort carries a recorded, consistent reason.
    IdentifiedAbort,
    /// Adversarial junk is never charged (§3.1 flooding rule).
    FloodingRule,
    /// Honest bits within the golden-derived envelope curve.
    CommBudget,
    /// Honest-to-honest per-party locality within the family's promise
    /// (Theorems 2/4).
    LocalityBudget,
    /// The `mpca-predicate` standard set holds over the retained event
    /// stream (trivially holds when no stream was retained).
    TracePredicates,
}

impl Property {
    /// All properties, in report order.
    pub const ALL: [Property; 6] = [
        Property::AgreementOrAbort,
        Property::IdentifiedAbort,
        Property::FloodingRule,
        Property::CommBudget,
        Property::LocalityBudget,
        Property::TracePredicates,
    ];

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            Property::AgreementOrAbort => "agreement-or-abort",
            Property::IdentifiedAbort => "identified-abort",
            Property::FloodingRule => "flooding-rule",
            Property::CommBudget => "comm-budget",
            Property::LocalityBudget => "locality-budget",
            Property::TracePredicates => "trace-predicates",
        }
    }
}

/// The oracle's verdict on one property.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The property held in this execution.
    Holds,
    /// The property was violated.
    Violated,
}

impl Verdict {
    /// One-letter rendering (`H` / `V`) for compact tables and digests.
    pub fn letter(self) -> char {
        match self {
            Verdict::Holds => 'H',
            Verdict::Violated => 'V',
        }
    }
}

/// One property's evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyCheck {
    /// The property checked.
    pub property: Property,
    /// The verdict.
    pub verdict: Verdict,
    /// Human-readable evidence (what was compared, and to what).
    pub details: String,
}

/// One scenario's execution plus its oracle evaluation.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The pool's session report (outcomes, abort reasons, statistics).
    pub report: SessionReport,
    /// One check per [`Property`], in [`Property::ALL`] order.
    pub checks: Vec<PropertyCheck>,
}

impl ScenarioOutcome {
    /// The check for `property`.
    pub fn check(&self, property: Property) -> &PropertyCheck {
        self.checks
            .iter()
            .find(|c| c.property == property)
            .expect("every property is checked")
    }

    /// `true` when every property held.
    pub fn holds(&self) -> bool {
        self.checks.iter().all(|c| c.verdict == Verdict::Holds)
    }

    /// `true` when the agreement property specifically was violated.
    pub fn agreement_violated(&self) -> bool {
        self.check(Property::AgreementOrAbort).verdict == Verdict::Violated
    }

    /// `true` when the oracle's verdicts match the scenario's expectation.
    ///
    /// A `Violates*` control must violate its named property **and nothing
    /// else** — a control that also trips other checks indicates a broken
    /// harness, not a working oracle.
    pub fn as_expected(&self) -> bool {
        let violates_only = |property: Property| {
            self.check(property).verdict == Verdict::Violated
                && self
                    .checks
                    .iter()
                    .filter(|c| c.property != property)
                    .all(|c| c.verdict == Verdict::Holds)
        };
        match self.scenario.expectation {
            Expectation::Holds => self.holds(),
            Expectation::ViolatesAgreement => violates_only(Property::AgreementOrAbort),
            Expectation::ViolatesFloodingRule => {
                // A charged-flood control violates the report-level flooding
                // rule always, and the stream-level `flooding-never-charged`
                // predicate exactly when the stream was retained for the
                // predicate plane to see. Everything else must hold.
                let trace_predicates =
                    self.check(Property::TracePredicates).verdict == Verdict::Violated;
                let others_hold = self
                    .checks
                    .iter()
                    .filter(|c| {
                        c.property != Property::FloodingRule
                            && c.property != Property::TracePredicates
                    })
                    .all(|c| c.verdict == Verdict::Holds);
                self.check(Property::FloodingRule).verdict == Verdict::Violated
                    && others_hold
                    && trace_predicates == self.report.trace_log.is_some()
            }
            Expectation::DetectsEquivocation => {
                use mpca_net::AbortReason;
                let detected = self.report.aborts().any(|(_, r)| {
                    matches!(
                        r,
                        AbortReason::Equivocation(_) | AbortReason::EqualityTestFailed(_)
                    )
                });
                let parse_failure = self
                    .report
                    .aborts()
                    .any(|(_, r)| matches!(r, AbortReason::Malformed(_)));
                self.holds() && detected && !parse_failure
            }
        }
    }

    /// Compact verdict rendering, one letter per property in
    /// [`Property::ALL`] order (e.g. `HHHHHH`, `VHHHHH`).
    pub fn verdict_letters(&self) -> String {
        self.checks.iter().map(|c| c.verdict.letter()).collect()
    }

    /// Honest bits charged in this execution (the paper's measure, summed
    /// over the parties the simulator ran honestly). The comm-budget check
    /// judges exactly this quantity.
    pub fn honest_bits(&self) -> u64 {
        charged_honest_bits(&self.report)
    }

    /// The canonical table row for this outcome, one cell per column of
    /// [`CampaignReport::ROW_HEADERS`](crate::CampaignReport::ROW_HEADERS).
    ///
    /// Shared by [`CampaignReport::render`](crate::CampaignReport::render)
    /// and the `E15-scenario-campaign` bench table, so the two renderings
    /// cannot drift.
    pub fn row_cells(&self) -> Vec<String> {
        let mut row = vec![
            self.scenario.label.clone(),
            self.scenario.kind.name().to_string(),
            self.scenario.adversary.name(),
            self.scenario.n.to_string(),
            self.scenario.h.to_string(),
            self.report.rounds.to_string(),
            self.honest_bits().to_string(),
            self.report.aborts().count().to_string(),
        ];
        for check in &self.checks {
            row.push(match check.verdict {
                Verdict::Holds => "holds".into(),
                Verdict::Violated => "VIOLATED".into(),
            });
        }
        row.push(if self.as_expected() { "yes" } else { "NO" }.into());
        for phase in mpca_metrics::Phase::ALL {
            row.push(self.report.phase_bytes.get(phase).to_string());
        }
        row
    }
}

/// The honest bits charged to a session: the parties the simulator ran
/// honestly are exactly the keys of `outcomes`. The single source for both
/// the reported "honest bits" column and the comm-budget verdict.
fn charged_honest_bits(report: &SessionReport) -> u64 {
    let honest: BTreeSet<PartyId> = report.outcomes.keys().copied().collect();
    report.stats.bytes_sent_by(&honest) * 8
}

/// Evaluates one executed scenario against every security property, in
/// [`Property::ALL`] order, turning its [`SessionReport`] into
/// per-property verdicts.
///
/// The campaign layer calls it on every session; it is equally usable
/// standalone — hand it any report and it will judge it against the paper's
/// predicates:
///
/// ```
/// use mpca_core::ProtocolKind;
/// use mpca_engine::{OutcomeDigest, SessionReport};
/// use mpca_net::CommStats;
/// use mpca_net::PartyId;
/// use mpca_scenario::{oracle, AdversarySpec, ScenarioPlan};
/// use std::time::Duration;
///
/// let scenario = ScenarioPlan::new("doc", ProtocolKind::UncheckedSum, AdversarySpec::Honest)
///     .with_grid([(3, 3)])
///     .scenarios()
///     .remove(0);
/// let report = SessionReport {
///     label: scenario.label.clone(),
///     outcomes: [
///         (PartyId(0), OutcomeDigest::Output("[7]".into())),
///         (PartyId(1), OutcomeDigest::Output("[7]".into())),
///         (PartyId(2), OutcomeDigest::Output("[7]".into())),
///     ]
///     .into(),
///     stats: CommStats::new(),
///     rounds: 2,
///     peak_inbox_bytes: 0,
///     peak_inbox_envelopes: 0,
///     trace: None,
///     trace_log: None,
///     wall: Duration::ZERO,
///     queue_wait: Duration::ZERO,
///     phase_bytes: mpca_metrics::PhaseBytes::new(),
/// };
/// let outcome = oracle::evaluate(scenario, report);
/// assert!(outcome.holds());
/// assert_eq!(outcome.verdict_letters(), "HHHHHH");
/// ```
pub fn evaluate(scenario: Scenario, report: SessionReport) -> ScenarioOutcome {
    let corrupted = scenario.corrupted();

    let agreement = check_agreement(&report);
    let identified = check_identified_abort(&report);
    let flooding = check_flooding(&report, &corrupted);
    let budget = check_budget(&scenario, &report);
    let locality = check_locality(&scenario, &report);
    let predicates = check_trace_predicates(&scenario, &report);

    ScenarioOutcome {
        scenario,
        report,
        checks: vec![
            agreement, identified, flooding, budget, locality, predicates,
        ],
    }
}

fn check_agreement(report: &SessionReport) -> PropertyCheck {
    let outputs: Vec<(&PartyId, &String)> = report
        .outcomes
        .iter()
        .filter_map(|(id, digest)| match digest {
            OutcomeDigest::Output(o) => Some((id, o)),
            OutcomeDigest::Aborted(_) => None,
        })
        .collect();
    let disagreement = outputs
        .windows(2)
        .find(|w| w[0].1 != w[1].1)
        .map(|w| (*w[0].0, *w[1].0));
    match disagreement {
        None => PropertyCheck {
            property: Property::AgreementOrAbort,
            verdict: Verdict::Holds,
            details: format!(
                "{} outputs agree, {} aborted",
                outputs.len(),
                report.outcomes.len() - outputs.len()
            ),
        },
        Some((a, b)) => PropertyCheck {
            property: Property::AgreementOrAbort,
            verdict: Verdict::Violated,
            details: format!("honest parties {a} and {b} output different values"),
        },
    }
}

fn check_identified_abort(report: &SessionReport) -> PropertyCheck {
    let check = |verdict, details| PropertyCheck {
        property: Property::IdentifiedAbort,
        verdict,
        details,
    };
    // Every aborted digest carries its reason; without a trace there is no
    // second witness to hold it against.
    let Some(trace) = &report.trace else {
        let aborts = report.aborts().count();
        return check(
            Verdict::Holds,
            format!("{aborts} aborts, all with recorded reasons"),
        );
    };
    // Behavioural mode: a traced session carries the abort reasons the
    // simulator synthesised into the trace at the termination step —
    // derive the verdict from those, independently of the report's
    // outcome plumbing, and require the two sources to agree.
    for (id, digest) in &report.outcomes {
        let contradiction = match (digest, trace.aborts.get(id)) {
            (OutcomeDigest::Aborted(reason), Some(traced)) if reason == traced => continue,
            (OutcomeDigest::Output(_), None) => continue,
            (OutcomeDigest::Aborted(_), Some(_)) => {
                format!("party {id}'s trace milestone contradicts its digest")
            }
            (OutcomeDigest::Aborted(_), None) => {
                format!("party {id} aborted without an Aborted milestone in the trace")
            }
            (OutcomeDigest::Output(_), Some(_)) => {
                format!("party {id} output a value yet the trace records an abort")
            }
        };
        return check(Verdict::Violated, contradiction);
    }
    if trace
        .aborts
        .keys()
        .any(|id| !report.outcomes.contains_key(id))
    {
        return check(
            Verdict::Violated,
            "trace-derived abort reasons diverge from the report's".into(),
        );
    }
    check(
        Verdict::Holds,
        format!(
            "{} aborts, each matching an Aborted{{reason}} trace milestone",
            trace.aborts.len()
        ),
    )
}

fn check_flooding(report: &SessionReport, corrupted: &BTreeSet<PartyId>) -> PropertyCheck {
    let junk_charged = report.stats.bytes_sent_by(corrupted);
    PropertyCheck {
        property: Property::FloodingRule,
        verdict: if junk_charged == 0 {
            Verdict::Holds
        } else {
            Verdict::Violated
        },
        details: format!(
            "{junk_charged} adversarial bytes charged across {} corrupted parties",
            corrupted.len()
        ),
    }
}

fn check_budget(scenario: &Scenario, report: &SessionReport) -> PropertyCheck {
    let honest_bits = charged_honest_bits(report);
    let budget = scenario
        .kind
        .comm_budget_bits(&scenario.params(), scenario.payload_bytes());
    PropertyCheck {
        property: Property::CommBudget,
        verdict: if honest_bits <= budget {
            Verdict::Holds
        } else {
            Verdict::Violated
        },
        details: format!("{honest_bits} honest bits vs budget {budget}"),
    }
}

/// Evaluates the `mpca-predicate` standard set over the session's retained
/// event stream. Without a retained stream the property trivially holds —
/// retention is the task's opt-in
/// ([`with_trace_logs`](mpca_engine::SessionTask::with_trace_logs)), and a
/// summary digest alone cannot be evaluated span by span.
fn check_trace_predicates(scenario: &Scenario, report: &SessionReport) -> PropertyCheck {
    let Some(log) = &report.trace_log else {
        return PropertyCheck {
            property: Property::TracePredicates,
            verdict: Verdict::Holds,
            details: "no trace retained; predicate set not evaluated".into(),
        };
    };
    let trace = mpca_trace::TaggedTrace::new(log, scenario.kind);
    let set = mpca_predicate::standard_set(scenario.kind, None);
    let violations = mpca_predicate::eval_set(&set, &trace);
    match violations.split_first() {
        None => PropertyCheck {
            property: Property::TracePredicates,
            verdict: Verdict::Holds,
            details: format!(
                "{} predicates hold over {} events",
                set.len(),
                trace.entries.len()
            ),
        },
        Some((first, rest)) => PropertyCheck {
            property: Property::TracePredicates,
            verdict: Verdict::Violated,
            details: format!(
                "{} violated at events [{}..{}]: {}{}",
                first.name,
                first.violation.span.start,
                first.violation.span.end,
                first.violation.details,
                if rest.is_empty() {
                    String::new()
                } else {
                    format!(" (+{} more)", rest.len())
                },
            ),
        },
    }
}

fn check_locality(scenario: &Scenario, report: &SessionReport) -> PropertyCheck {
    let honest: BTreeSet<PartyId> = report.outcomes.keys().copied().collect();
    let locality = report.stats.max_locality_within(&honest);
    let budget = scenario.kind.locality_budget(&scenario.params());
    PropertyCheck {
        property: Property::LocalityBudget,
        verdict: if locality <= budget {
            Verdict::Holds
        } else {
            Verdict::Violated
        },
        details: format!("honest-to-honest locality {locality} vs budget {budget}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ScenarioPlan;
    use crate::spec::AdversarySpec;
    use mpca_core::ProtocolKind;
    use mpca_net::{AbortReason, CommStats};
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn scenario() -> Scenario {
        ScenarioPlan::new("t", ProtocolKind::UncheckedSum, AdversarySpec::Honest)
            .with_grid([(3, 3)])
            .scenarios()
            .remove(0)
    }

    fn report(outcomes: Vec<(usize, OutcomeDigest)>) -> SessionReport {
        SessionReport {
            label: "t".into(),
            outcomes: outcomes.into_iter().map(|(i, d)| (PartyId(i), d)).collect(),
            stats: CommStats::new(),
            rounds: 2,
            peak_inbox_bytes: 0,
            peak_inbox_envelopes: 0,
            trace: None,
            trace_log: None,
            wall: Duration::ZERO,
            queue_wait: Duration::ZERO,
            phase_bytes: mpca_metrics::PhaseBytes::new(),
        }
    }

    #[test]
    fn unanimous_outputs_hold() {
        let outcome = evaluate(
            scenario(),
            report(vec![
                (0, OutcomeDigest::Output("[7]".into())),
                (1, OutcomeDigest::Output("[7]".into())),
                (
                    2,
                    OutcomeDigest::Aborted(AbortReason::Malformed("x".into())),
                ),
            ]),
        );
        assert!(outcome.holds(), "{:?}", outcome.checks);
        assert_eq!(outcome.verdict_letters(), "HHHHHH");
        assert!(outcome.as_expected());
    }

    #[test]
    fn disagreement_is_flagged() {
        let outcome = evaluate(
            scenario(),
            report(vec![
                (0, OutcomeDigest::Output("[7]".into())),
                (1, OutcomeDigest::Output("[8]".into())),
            ]),
        );
        assert!(outcome.agreement_violated());
        assert!(!outcome.holds());
        assert_eq!(outcome.verdict_letters(), "VHHHHH");
        assert!(!outcome.as_expected(), "scenario expected Holds");
    }

    #[test]
    fn abort_missing_from_the_trace_is_flagged() {
        let mut r = report(vec![(
            0,
            OutcomeDigest::Aborted(AbortReason::Malformed("x".into())),
        )]);
        r.trace = Some(mpca_trace::TraceSummary {
            digest: "aa".into(),
            events: 1,
            milestones: 0,
            injected_sends: 0,
            aborts: BTreeMap::new(),
            phase_bytes: mpca_metrics::PhaseBytes::new(),
        });
        let outcome = evaluate(scenario(), r);
        assert_eq!(
            outcome.check(Property::IdentifiedAbort).verdict,
            Verdict::Violated
        );
    }

    #[test]
    fn charged_adversary_bytes_violate_the_flooding_rule() {
        let sc = ScenarioPlan::new(
            "t",
            ProtocolKind::UncheckedSum,
            AdversarySpec::Silent {
                corrupt: crate::spec::CorruptionSpec::Explicit(vec![2]),
            },
        )
        .with_grid([(3, 1)])
        .scenarios()
        .remove(0);
        let mut r = report(vec![(0, OutcomeDigest::Output("[1]".into()))]);
        r.stats.record_send(PartyId(2), PartyId(0), 100);
        let outcome = evaluate(sc, r);
        assert_eq!(
            outcome.check(Property::FloodingRule).verdict,
            Verdict::Violated
        );
    }

    #[test]
    fn budget_overrun_is_flagged() {
        let mut r = report(vec![(0, OutcomeDigest::Output("[1]".into()))]);
        // Far beyond 64·n²·(ℓ+16) for n = 3.
        r.stats.record_send(PartyId(0), PartyId(1), 10_000_000);
        let outcome = evaluate(scenario(), r);
        assert_eq!(
            outcome.check(Property::CommBudget).verdict,
            Verdict::Violated
        );
    }
}
