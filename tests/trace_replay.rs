//! Trace-plane acceptance tests: record/replay determinism across
//! backends, framing-aware equivocation flagged as an identified abort
//! (never a parse error), milestone-armed triggers, and flood junk tagged
//! distinctly enough to recompute the exclusion logic from the trace alone.
//!
//! The sweeps' recordings at seed 0 are pinned in
//! `tests/golden/sweep_tiny_trace.json` and
//! `tests/golden/sweep_full_trace.json`, the files
//! `campaign --sweep --tiny --seed 0 --record` and
//! `campaign --sweep --seed 0 --record` write. Their digests fold every
//! send, milestone and abort text of the sweeps' adversarial sessions.
//! Regenerate them after an *intentional* protocol change with:
//!
//! ```sh
//! MPCA_BLESS=1 cargo test --test trace_replay sweep
//! ```

use std::collections::{BTreeMap, BTreeSet};

use mpc_aborts::engine::{Parallel, Sequential};
use mpc_aborts::net::{AbortReason, MilestoneKind, PartyId};
use mpc_aborts::protocols::ProtocolKind;
use mpc_aborts::scenario::{
    sweep_campaign, tiny_sweep_campaign, AdversarySpec, Campaign, CorruptionSpec, Expectation,
    Property, ScenarioPlan, TriggerSpec, Verdict,
};
use mpc_aborts::trace::TraceFile;

const SWEEP_TRACE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_tiny_trace.json"
);
const SWEEP_FULL_TRACE_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_full_trace.json"
);

#[test]
fn tiny_sweep_records_and_replays_byte_identically_across_backends() {
    let campaign = tiny_sweep_campaign(0);
    let sequential = campaign
        .run_traced(Sequential, 1)
        .expect("sequential traced sweep");
    let parallel = campaign
        .run_traced(Parallel::with_threads(2), 3)
        .expect("parallel traced sweep");
    // Digest-only: the summaries are folded while recording and no stream
    // is retained, so payloads are freed (and their addresses reused)
    // mid-session.
    let digest_only = campaign
        .run_configured(Parallel::with_threads(2), 3, true, false, |_| {})
        .expect("parallel digest-only sweep");
    assert!(sequential.all_as_expected(), "{}", sequential.render());
    assert!(digest_only
        .outcomes
        .iter()
        .all(|o| o.report.trace_log.is_none()));

    // Every session carries a trace summary, and the summaries (digests
    // over the full event stream) are identical across backends and
    // recording modes.
    let recorded = TraceFile::new("sweep-tiny", 0, "sequential", sequential.trace_summaries());
    assert_eq!(recorded.sessions.len(), sequential.len());
    assert!(recorded.sessions.iter().all(|r| r.digest.len() == 64));
    let mismatches = recorded.compare(parallel.trace_summaries());
    assert!(
        mismatches.is_empty(),
        "parallel replay must reproduce every digest: {mismatches:?}"
    );
    assert_eq!(
        digest_only.trace_summaries(),
        sequential.trace_summaries(),
        "digest-only summaries must equal the retained streams' summaries"
    );

    // The rendered file is pinned. Unlike the honest hot-path digests,
    // these fold the abort texts of the sweep's adversarial sessions.
    let rendered = recorded.render();
    if std::env::var_os("MPCA_BLESS").is_some() {
        std::fs::write(SWEEP_TRACE_FIXTURE, &rendered).expect("write golden fixture");
        eprintln!("blessed {SWEEP_TRACE_FIXTURE}");
    } else {
        let golden =
            std::fs::read_to_string(SWEEP_TRACE_FIXTURE).expect("golden fixture is checked in");
        assert_eq!(
            rendered, golden,
            "the tiny sweep's trace digests diverged from the golden recording; \
             regenerate with MPCA_BLESS=1 only for an intentional protocol change"
        );
        let golden = TraceFile::parse(&golden).expect("golden fixture parses");
        let digest_only =
            TraceFile::new("sweep-tiny", 0, "parallel", digest_only.trace_summaries());
        assert_eq!(
            digest_only.sessions, golden.sessions,
            "the digest-only recording diverged from the golden recording"
        );
    }

    // The file round-trips through its rendered form.
    let parsed = TraceFile::parse(&rendered).expect("rendered file parses");
    assert_eq!(parsed, recorded);
    // A corrupted digest is caught.
    let mut corrupted = recorded.clone();
    corrupted.sessions[0].digest = "0".repeat(64);
    assert_eq!(corrupted.compare(parallel.trace_summaries()).len(), 1);
}

#[test]
fn full_sweep_recording_matches_the_golden_digests() {
    // Recorded the way `campaign --sweep --seed 0 --record` records it:
    // sequential backend, digest-only summaries.
    let campaign = sweep_campaign(0);
    let report = campaign
        .run_configured(Sequential, 1, true, false, |_| {})
        .expect("full sweep");
    assert!(report.all_as_expected(), "{}", report.render());
    let rendered = TraceFile::new(
        campaign.name.clone(),
        0,
        report.backend,
        report.trace_summaries(),
    )
    .render();
    if std::env::var_os("MPCA_BLESS").is_some() {
        std::fs::write(SWEEP_FULL_TRACE_FIXTURE, &rendered).expect("write golden fixture");
        eprintln!("blessed {SWEEP_FULL_TRACE_FIXTURE}");
    } else {
        let golden = std::fs::read_to_string(SWEEP_FULL_TRACE_FIXTURE)
            .expect("golden fixture is checked in");
        assert_eq!(
            rendered, golden,
            "the full sweep's trace digests diverged from the golden recording; \
             regenerate with MPCA_BLESS=1 only for an intentional protocol change"
        );
    }
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
    let abort_reasons: BTreeMap<PartyId, AbortReason> = outcome
        .report
        .aborts()
        .map(|(id, reason)| (id, reason.clone()))
        .collect();
    assert!(
        !abort_reasons.is_empty(),
        "the split ciphertext view must force aborts"
    );
    assert!(abort_reasons.values().any(|r| matches!(
        r,
        AbortReason::EqualityTestFailed(_) | AbortReason::Equivocation(_)
    )));
    assert!(
        !abort_reasons
            .values()
            .any(|r| matches!(r, AbortReason::Malformed(_))),
        "a framing-aware tamper must never fail parsing: {abort_reasons:?}"
    );

    // The identified-abort predicate ran behaviourally (trace-derived
    // reasons agree with the report's) and holds.
    let trace = outcome.report.trace.as_ref().expect("traced run");
    assert_eq!(trace.aborts, abort_reasons);
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
