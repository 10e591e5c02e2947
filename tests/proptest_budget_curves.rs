//! Property tests for the golden-derived budget curves.
//!
//! 1. **No false alarms at scale:** every honest scenario of the sweep grid
//!    stays inside its tightened comm and locality envelopes, at *arbitrary*
//!    seeds — the sweep's CRS labels and committee draws differ from the
//!    calibration labels, so this exercises exactly the variance the curves'
//!    normalised-constant floor exists to absorb.
//! 2. **The alarms still fire:** a rigged report inflated to 3× the
//!    golden-measured envelope (and, for the protocols whose byte counts are
//!    seed-independent, 3× its own honest measurement) must be flagged
//!    `Violated` on the comm-budget predicate — and only on it.

use proptest::prelude::*;

use mpc_aborts::engine::{Sequential, SessionPool};
use mpc_aborts::net::{CommStats, PartyId};
use mpc_aborts::protocols::{ProtocolKind, BUDGET_SLACK};
use mpc_aborts::scenario::{
    oracle, registry, sweep_campaign, AdversarySpec, Property, Scenario, ScenarioPlan, Verdict,
};

fn honest_sweep_scenarios(seed: u64) -> Vec<Scenario> {
    sweep_campaign(seed)
        .scenarios()
        .into_iter()
        .filter(|s| s.adversary == AdversarySpec::Honest)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn honest_sweep_scenarios_stay_inside_the_tightened_envelopes(seed in any::<u64>()) {
        let scenarios = honest_sweep_scenarios(seed);
        prop_assert!(scenarios.len() >= 30, "the sweep grids cover 30+ honest points");
        let mut pool = SessionPool::new(Sequential).with_workers(2);
        for scenario in &scenarios {
            pool.submit_task(registry::scenario_task(scenario));
        }
        let batch = pool.run().expect("honest sweep scenarios run");
        for (scenario, report) in scenarios.into_iter().zip(batch.sessions) {
            let outcome = oracle::evaluate(scenario, report);
            for property in [Property::CommBudget, Property::LocalityBudget] {
                let check = outcome.check(property);
                prop_assert!(
                    check.verdict == Verdict::Holds,
                    "{} at seed {}: {}",
                    outcome.scenario.label,
                    seed,
                    check.details
                );
            }
            prop_assert!(outcome.holds(), "{}", outcome.scenario.label);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn an_inflated_run_is_flagged_violated_on_the_comm_budget(
        seed in any::<u64>(),
        pick in 0usize..ProtocolKind::ALL.len(),
    ) {
        let kind = ProtocolKind::ALL[pick];
        let &(n, h) = &kind.spec().sweep_grid[0];
        let scenario = ScenarioPlan::new("inflate", kind, AdversarySpec::Honest)
            .with_grid([(n, h)])
            .with_seed(seed)
            .scenarios()
            .remove(0);

        let mut pool = SessionPool::new(Sequential).with_workers(1);
        pool.submit_task(registry::scenario_task(&scenario));
        let mut batch = pool.run().expect("honest control runs");
        let mut report = batch.sessions.remove(0);

        // Rig the statistics: one honest party "sent" 3× the golden
        // envelope (budget / slack) — or 3× the honest measurement itself
        // where byte counts are seed-independent, whichever is larger.
        let budget_bits = kind.comm_budget_bits(&scenario.params(), scenario.payload_bytes());
        let mut inflated_bytes = (3 * budget_bits).div_ceil(8 * BUDGET_SLACK) + 1;
        if !kind.spec().committee_traffic {
            inflated_bytes = inflated_bytes.max(3 * report.stats.total_bytes());
        }
        let honest: Vec<PartyId> = report.outcomes.keys().copied().collect();
        prop_assert!(honest.len() >= 2);
        let mut rigged = CommStats::new();
        rigged.record_send(honest[0], honest[1], inflated_bytes as usize);
        rigged.set_rounds(report.rounds);
        report.stats = rigged;

        let outcome = oracle::evaluate(scenario, report);
        prop_assert!(
            outcome.check(Property::CommBudget).verdict == Verdict::Violated,
            "{} bytes must overflow budget {} bits",
            inflated_bytes,
            budget_bits
        );
        // Only the comm budget fires: the outputs, abort reasons and
        // corruption set are untouched, and two parties talking keeps
        // locality at 1.
        for property in [
            Property::AgreementOrAbort,
            Property::IdentifiedAbort,
            Property::FloodingRule,
            Property::LocalityBudget,
        ] {
            prop_assert_eq!(outcome.check(property).verdict, Verdict::Holds);
        }
    }
}
