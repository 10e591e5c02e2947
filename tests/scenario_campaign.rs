//! Scenario-subsystem acceptance tests: the standard campaign holds
//! everywhere except its rigged control, the oracle flags that control, and
//! abort reasons are recorded structurally end-to-end.

use mpc_aborts::engine::Parallel;
use mpc_aborts::net::{AbortReason, PartyId};
use mpc_aborts::protocols::ProtocolKind;
use mpc_aborts::scenario::{
    standard_campaign, tiny_sweep_campaign, AdversarySpec, Campaign, CorruptionSpec, Expectation,
    Property, ScenarioPlan, Verdict,
};

#[test]
fn standard_campaign_passes_and_flags_its_control() {
    let report = standard_campaign(42)
        .run(Parallel::with_threads(2), 4)
        .expect("campaign executes");
    assert!(report.len() >= 12, "acceptance requires >= 12 scenarios");
    assert!(
        report.all_as_expected(),
        "every verdict must match its expectation:\n{}",
        report.render()
    );

    // Exactly the rigged controls are violated: the verification-free sum
    // under equivocation (agreement) and the charged flood (flooding rule).
    let violations = report.violations();
    assert_eq!(violations.len(), 2, "exactly the controls are violated");

    let agreement_control = violations
        .iter()
        .find(|o| o.scenario.expectation == Expectation::ViolatesAgreement)
        .expect("the agreement control is flagged");
    assert_eq!(agreement_control.scenario.kind, ProtocolKind::UncheckedSum);
    assert!(agreement_control.agreement_violated());
    assert_eq!(
        agreement_control.check(Property::FloodingRule).verdict,
        Verdict::Holds
    );
    assert_eq!(
        agreement_control.check(Property::CommBudget).verdict,
        Verdict::Holds
    );

    let flooding_control = violations
        .iter()
        .find(|o| o.scenario.expectation == Expectation::ViolatesFloodingRule)
        .expect("the flooding control is flagged");
    assert!(flooding_control.scenario.charge_adversary_bytes);
    assert_eq!(
        flooding_control.check(Property::FloodingRule).verdict,
        Verdict::Violated
    );
    assert!(!flooding_control.agreement_violated());
}

#[test]
fn silent_broadcast_sender_yields_identified_missing_message_aborts() {
    // Corrupting the broadcast sender silently must make every receiver
    // abort — and the scenario report must say *why*, structurally.
    let campaign = Campaign::new("silent-sender").plan(
        ScenarioPlan::new(
            "bc",
            ProtocolKind::Broadcast,
            AdversarySpec::Silent {
                corrupt: CorruptionSpec::Explicit(vec![0]),
            },
        )
        .with_grid([(8, 7)]),
    );
    let report = campaign.run(Parallel::with_threads(2), 2).unwrap();
    assert!(report.all_as_expected(), "{}", report.render());
    let outcome = &report.outcomes[0];
    assert_eq!(outcome.report.abort_reasons.len(), 7, "all receivers abort");
    for id in 1..8 {
        assert!(
            matches!(
                outcome.report.abort_reason_of(PartyId(id)),
                Some(AbortReason::MissingMessage(_))
            ),
            "party {id} must record a MissingMessage abort, got {:?}",
            outcome.report.abort_reason_of(PartyId(id))
        );
    }
}

#[test]
fn withholding_forces_selective_aborts_without_breaking_agreement() {
    // The attack the paper's "with aborts" model is about: withholding
    // splits honest parties into some that output and some that abort, but
    // never into disagreement.
    let campaign = Campaign::new("withhold").plan(
        ScenarioPlan::new(
            "t1",
            ProtocolKind::Theorem1Mpc,
            AdversarySpec::Withhold {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                recipients: vec![2, 3],
            },
        )
        .with_grid([(16, 15)]),
    );
    let report = campaign.run(Parallel::with_threads(2), 2).unwrap();
    assert!(report.all_as_expected(), "{}", report.render());
    let outcome = &report.outcomes[0];
    assert!(
        !outcome.report.abort_reasons.is_empty(),
        "withholding must force at least one abort"
    );
    assert_eq!(
        outcome.check(Property::AgreementOrAbort).verdict,
        Verdict::Holds
    );
}

#[test]
fn theorem_4_withholding_never_splits_honest_outputs() {
    // At these seeds a withholding committee member once left members one
    // partial decryption short; they combined anyway and forwarded a wrong
    // sum, and parties covered only by them output it. Each member now
    // combines only with one partial from every member in its key.
    for seed in [
        9_972_603_435_854_510_652,
        14_119_491_246_550_939_236,
        15_965_508_135_439_572_106,
    ] {
        let mut campaign = tiny_sweep_campaign(seed);
        campaign.plans.retain(|plan| {
            plan.kind == ProtocolKind::Theorem4Tradeoff
                && matches!(plan.adversary, AdversarySpec::Withhold { .. })
        });
        assert_eq!(campaign.scenarios().len(), 2, "the n = 8 and n = 12 points");
        let report = campaign.run(Parallel::with_threads(2), 2).unwrap();
        assert!(
            report.all_as_expected(),
            "seed {seed}:\n{}",
            report.render()
        );
    }
}
