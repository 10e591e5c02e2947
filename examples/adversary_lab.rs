//! Adversary lab: build an attack campaign declaratively and let the
//! security-property oracle judge every execution.
//!
//! Run with: `cargo run --release --example adversary_lab`

use mpc_aborts::engine::Parallel;
use mpc_aborts::protocols::ProtocolKind;
use mpc_aborts::scenario::{
    AdversarySpec, Campaign, CorruptionSpec, Expectation, ScenarioPlan, TriggerSpec,
};

fn main() {
    // A campaign is data: protocol choice, (n, h) grid, adversary class,
    // seed. Attacks are composed from rewrite hooks and combinators, not
    // re-implemented.
    let campaign = Campaign::new("lab")
        // Baseline: Theorem 1 MPC, everyone honest.
        .plan(
            ScenarioPlan::new("mpc", ProtocolKind::Theorem1Mpc, AdversarySpec::Honest)
                .with_grid([(16, 8)]),
        )
        // The selective abort pattern: two corrupted parties participate
        // honestly for four rounds, then crash.
        .plan(
            ScenarioPlan::new(
                "mpc",
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::AbortAt {
                    corrupt: CorruptionSpec::Explicit(vec![0, 1]),
                    round: 4,
                },
            )
            .with_grid([(16, 14)]),
        )
        // A flood that waits for round 1 before unleashing junk; the
        // flooding rule says none of it may be charged.
        .plan(
            ScenarioPlan::new(
                "a2a",
                ProtocolKind::SuccinctAllToAll,
                AdversarySpec::Triggered {
                    base: Box::new(AdversarySpec::Flood {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![],
                        junk_bytes: 4096,
                        round_budget: None,
                    }),
                    trigger: TriggerSpec::AtRound(1),
                },
            )
            .with_grid([(10, 9)]),
        )
        // A rigged control: a verification-free sum under equivocation.
        // The oracle MUST flag this one — that's what we expect of it.
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
            .expecting(Expectation::ViolatesAgreement),
        );

    let report = campaign
        .run(Parallel::default(), 4)
        .expect("campaign executes");

    println!("{}", report.render());
    println!("{}", report.summary());
    assert!(
        report.all_as_expected(),
        "every verdict matches its expectation (including the flagged control)"
    );
    println!("\nall verdicts as expected — the oracle holds, and it catches the rigged control");
}
