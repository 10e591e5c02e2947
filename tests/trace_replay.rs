//! Trace-plane acceptance tests: record/replay determinism across
//! backends, framing-aware equivocation flagged as an identified abort
//! (never a parse error), milestone-armed triggers, and flood junk tagged
//! distinctly enough to recompute the exclusion logic from the trace alone.

use std::collections::BTreeSet;

use mpc_aborts::engine::{Parallel, Sequential};
use mpc_aborts::net::{AbortReason, MilestoneKind, PartyId};
use mpc_aborts::protocols::ProtocolKind;
use mpc_aborts::scenario::{
    tiny_sweep_campaign, AdversarySpec, Campaign, CorruptionSpec, Expectation, Property,
    ScenarioPlan, TriggerSpec, Verdict,
};
use mpc_aborts::trace::TraceFile;

#[test]
fn tiny_sweep_records_and_replays_byte_identically_across_backends() {
    let campaign = tiny_sweep_campaign(0);
    let sequential = campaign
        .run_traced(Sequential, 1)
        .expect("sequential traced sweep");
    let parallel = campaign
        .run_traced(Parallel::with_threads(2), 3)
        .expect("parallel traced sweep");
    assert!(sequential.all_as_expected(), "{}", sequential.render());

    // Every session carries a trace summary, and the summaries (digests
    // over the full event stream) are identical across backends.
    let recorded = TraceFile::new("sweep-tiny", 0, "sequential", sequential.trace_summaries());
    assert_eq!(recorded.sessions.len(), sequential.len());
    assert!(recorded.sessions.iter().all(|r| r.digest.len() == 64));
    let mismatches = recorded.compare(parallel.trace_summaries());
    assert!(
        mismatches.is_empty(),
        "parallel replay must reproduce every digest: {mismatches:?}"
    );

    // The file round-trips through its rendered form.
    let parsed = TraceFile::parse(&recorded.render()).expect("rendered file parses");
    assert_eq!(parsed, recorded);
    // A corrupted digest is caught.
    let mut corrupted = recorded.clone();
    corrupted.sessions[0].digest = "0".repeat(64);
    assert_eq!(corrupted.compare(parallel.trace_summaries()).len(), 1);
}

#[test]
fn frame_equivocation_on_checked_mpc_is_an_identified_abort_not_a_parse_error() {
    let campaign = Campaign::new("eqframe").plan(
        ScenarioPlan::new(
            "t1",
            ProtocolKind::Theorem1Mpc,
            AdversarySpec::EquivocateFrame {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![1, 2, 3],
                tag: "mpc:input-ct".into(),
                field: "c2.0".into(),
            },
        )
        .with_grid([(12, 6)])
        .with_seed(0)
        .expecting(Expectation::DetectsEquivocation),
    );
    let report = campaign
        .run_traced(Parallel::with_threads(2), 1)
        .expect("campaign executes");
    assert!(report.all_as_expected(), "{}", report.render());
    let outcome = &report.outcomes[0];

    // The attack was caught by verification, not by the parser: at least
    // one detection abort, zero Malformed aborts.
    assert!(
        !outcome.report.abort_reasons.is_empty(),
        "the split ciphertext view must force aborts"
    );
    assert!(outcome.report.abort_reasons.values().any(|r| matches!(
        r,
        AbortReason::EqualityTestFailed(_) | AbortReason::Equivocation(_)
    )));
    assert!(
        !outcome
            .report
            .abort_reasons
            .values()
            .any(|r| matches!(r, AbortReason::Malformed(_))),
        "a framing-aware tamper must never fail parsing: {:?}",
        outcome.report.abort_reasons
    );

    // The identified-abort predicate ran behaviourally (trace-derived
    // reasons agree with the report's) and holds.
    let trace = outcome.report.trace.as_ref().expect("traced run");
    assert_eq!(trace.aborts, outcome.report.abort_reasons);
    assert_eq!(
        outcome.check(Property::IdentifiedAbort).verdict,
        Verdict::Holds
    );
    assert!(
        outcome
            .check(Property::IdentifiedAbort)
            .details
            .contains("trace milestone"),
        "the traced predicate must cite the trace: {}",
        outcome.check(Property::IdentifiedAbort).details
    );
}

#[test]
fn milestone_trigger_arms_exactly_at_the_committee_announcement() {
    let campaign = Campaign::new("mstone").plan(
        ScenarioPlan::new(
            "t1",
            ProtocolKind::Theorem1Mpc,
            AdversarySpec::Triggered {
                base: Box::new(AdversarySpec::Flood {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    victims: vec![],
                    junk_bytes: 512,
                    round_budget: Some(2),
                }),
                trigger: TriggerSpec::AtMilestone(MilestoneKind::CommitteeAnnounced),
            },
        )
        .with_grid([(12, 6)])
        .with_seed(3),
    );
    let report = campaign.run_traced(Sequential, 1).expect("campaign runs");
    assert!(report.all_as_expected(), "{}", report.render());
    let outcome = &report.outcomes[0];
    let trace = outcome.report.trace.as_ref().expect("traced run");
    assert!(
        trace.injected_sends > 0,
        "the milestone-armed flood must have fired"
    );
    // The flood's junk is never charged and honest parties abort on it —
    // the standard flooding guarantees, now under a protocol-aware trigger.
    assert_eq!(
        outcome.check(Property::FloodingRule).verdict,
        Verdict::Holds
    );
    assert!(outcome.report.any_abort());
}

#[test]
fn injected_junk_is_tagged_so_exclusions_recompute_from_the_trace_alone() {
    // Run a flood scenario directly (not through the campaign) so the raw
    // TraceLog is available for recomputation.
    use mpc_aborts::net::{FloodBudget, SimConfig, Simulator};
    use mpc_aborts::protocols::broadcast;

    let n = 8;
    let corrupted: BTreeSet<PartyId> = [PartyId(7)].into();
    let parties = broadcast::broadcast_parties(n, PartyId(0), vec![0xAB; 24], &corrupted);
    let adversary = FloodBudget::new(corrupted.clone(), PartyId::all(n - 1), 333);
    let mut sim = Simulator::new(n, parties, Box::new(adversary), SimConfig::default())
        .expect("valid configuration");
    sim.record_trace();
    let result = sim.run().expect("execution completes");
    let trace = result.trace.as_ref().expect("trace recorded");

    let honest: BTreeSet<PartyId> = result.outcomes.keys().copied().collect();
    assert!(trace.injected_sends() > 0, "the flood injected junk");
    // The injected tag makes the flooding exclusions recomputable from the
    // trace alone: honest bytes and honest-to-honest locality derived from
    // the trace equal the simulator's charged statistics.
    assert_eq!(trace.honest_bytes(), result.stats.total_bytes());
    assert_eq!(
        trace.max_locality_within(&honest),
        result.stats.max_locality_within(&honest)
    );
    // And the milestone stream carries each party's terminal record.
    assert_eq!(
        trace.abort_reasons().len() + trace.decided_parties().len(),
        honest.len()
    );
}
