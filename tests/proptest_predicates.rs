//! Property tests for the trace-predicate plane (`mpca-predicate`) as the
//! oracle and search loop consume it: honest executions of **every**
//! protocol family satisfy the family's full predicate set at any seed on
//! any backend, while the rigged controls — an equivocated unchecked sum, a
//! charged flood — violate **exactly** their intended predicate, with a
//! meaningful first-violation event span. The memoised tagging
//! (`TaggedTrace::new`, which tags each shared payload buffer once) must
//! agree entry for entry with the un-memoised reference
//! (`TaggedEntry::of_event`, which tags event by event), the phase
//! ceiling must sit exactly at the simulator's largest per-phase byte
//! count, and a digest-only run's summary must equal the retained run's.

use proptest::prelude::*;

use mpc_aborts::engine::{ExecutionBackend, Parallel, Sequential, SessionPool, SessionReport};
use mpc_aborts::net::TraceLog;
use mpc_aborts::predicate::{eval_set, full_set, SetViolation};
use mpc_aborts::protocols::{FrameSchema, ProtocolKind};
use mpc_aborts::scenario::{
    registry, AdversarySpec, CorruptionSpec, Expectation, Scenario, TriggerSpec,
};
use mpc_aborts::trace::{TaggedEntry, TaggedTrace, TraceSummary};

/// Builds one concrete scenario at the family's smallest sweep grid point.
fn scenario(kind: ProtocolKind, adversary: AdversarySpec, charge: bool, seed: u64) -> Scenario {
    let (n, h) = kind.spec().sweep_grid[0];
    Scenario {
        label: format!("pred-{}-{seed}", kind.name()),
        kind,
        n,
        h,
        adversary,
        seed,
        charge_adversary_bytes: charge,
        expectation: Expectation::Holds,
    }
}

/// Runs one scenario as a traced, stream-retaining single-session pool.
fn run_traced<B: ExecutionBackend>(scenario: &Scenario, backend: B) -> SessionReport {
    run_recorded(scenario, backend, true)
}

/// Runs one scenario as a traced single-session pool, retaining the event
/// stream when `retain` (otherwise only the summary is folded).
fn run_recorded<B: ExecutionBackend>(
    scenario: &Scenario,
    backend: B,
    retain: bool,
) -> SessionReport {
    let mut pool = SessionPool::new(backend).with_workers(1);
    pool.submit_task(
        registry::scenario_task(scenario)
            .with_tracing(true)
            .with_trace_logs(retain),
    );
    let mut batch = pool.run().expect("scenario executes");
    batch.sessions.remove(0)
}

/// Full-set violations of one executed scenario.
fn violations(scenario: &Scenario, report: &SessionReport) -> Vec<SetViolation> {
    let log = report.trace_log.as_ref().expect("stream retained");
    let trace = TaggedTrace::new(log, scenario.kind);
    eval_set(&full_set(scenario.kind, None), &trace)
}

/// A frame-field tamper each family's traffic carries: the frame tag and
/// one of its mutable fields.
fn frame_target(kind: ProtocolKind) -> (&'static str, &'static str) {
    match kind {
        ProtocolKind::Theorem1Mpc => ("mpc:input-ct", "c2.0"),
        ProtocolKind::Theorem4Tradeoff => ("mpc:output", "output"),
        ProtocolKind::Theorem2LocalMpc => ("gossip:rumour", "value"),
        ProtocolKind::Broadcast => ("bcast:send", "message"),
        ProtocolKind::SuccinctAllToAll => ("a2a:input", "input"),
        ProtocolKind::UncheckedSum => ("sum:value", "value"),
    }
}

/// The runs the cross-path checks cover for one family, with whether each
/// charges adversary bytes: honest, a charged flood (one junk buffer
/// shared by every flooded envelope), a plain equivocation and a
/// frame-field tamper.
fn cross_path_adversaries(kind: ProtocolKind) -> Vec<(AdversarySpec, bool)> {
    let (tag, field) = frame_target(kind);
    vec![
        (AdversarySpec::Honest, false),
        (
            AdversarySpec::Flood {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![],
                junk_bytes: 256,
                round_budget: Some(2),
            },
            true,
        ),
        (
            AdversarySpec::Equivocate {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![1],
            },
            false,
        ),
        (
            AdversarySpec::EquivocateFrame {
                corrupt: CorruptionSpec::Explicit(vec![0]),
                victims: vec![1, 2, 3],
                tag: tag.into(),
                field: field.into(),
            },
            false,
        ),
    ]
}

/// Checks the memoised tagging against the per-event reference on one
/// retained stream, entry for entry.
fn assert_tagging_agrees(trace: &TaggedTrace, log: &TraceLog, what: &str) {
    let schema = FrameSchema::new(trace.kind);
    assert_eq!(trace.entries.len(), log.len(), "{what}");
    for (index, (entry, event)) in trace.entries.iter().zip(log.events()).enumerate() {
        assert_eq!(
            *entry,
            TaggedEntry::of_event(event, &schema),
            "{what}: entry {index}"
        );
    }
}

/// Checks that the phase ceiling follows the simulator's phase bytes: with
/// `max` the largest cell of `report.phase_bytes`, a `max` ceiling holds
/// and a `max - 1` ceiling is crossed.
fn assert_phase_ceiling_is_tight(trace: &TaggedTrace, report: &SessionReport, what: &str) {
    let max = report
        .phase_bytes
        .iter()
        .map(|(_, bytes)| bytes)
        .max()
        .unwrap_or(0);
    assert!(max > 0, "{what}: the run charged no bytes");
    let crossed = |limit: u64| {
        eval_set(&full_set(trace.kind, Some(limit)), trace)
            .iter()
            .any(|v| v.name == "phase-ceilings")
    };
    assert!(!crossed(max), "{what}: a {max} B ceiling must hold");
    assert!(
        crossed(max - 1),
        "{what}: a {} B ceiling must be crossed",
        max - 1
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// On every family, under honest runs, shared-buffer floods,
    /// equivocation and frame tampers, on both backends: memoised and
    /// per-event tagging agree, and the phase ceiling sits exactly at the
    /// simulator's largest phase. The summary a digest-only run folds
    /// while recording equals the retained run's and the replay of its
    /// stream.
    #[test]
    fn tagging_and_phase_ceilings_agree_with_their_references_for_all_families(
        seed in any::<u64>(),
    ) {
        for kind in ProtocolKind::ALL {
            for (adversary, charge) in cross_path_adversaries(kind) {
                let scenario = scenario(kind, adversary, charge, seed);
                for (backend, report, digest_only) in [
                    (
                        "sequential",
                        run_traced(&scenario, Sequential),
                        run_recorded(&scenario, Sequential, false),
                    ),
                    (
                        "parallel",
                        run_traced(&scenario, Parallel::default()),
                        run_recorded(&scenario, Parallel::default(), false),
                    ),
                ] {
                    let log = report.trace_log.as_ref().expect("stream retained");
                    let what = format!(
                        "{} {} on {backend} (seed {seed})",
                        kind.name(),
                        scenario.adversary.name()
                    );
                    assert!(digest_only.trace_log.is_none(), "{what}");
                    let streamed = digest_only.trace.as_ref().expect("traced session");
                    assert_eq!(report.trace.as_ref(), Some(streamed), "{what}");
                    assert_eq!(&TraceSummary::of(log), streamed, "{what}");
                    let trace = TaggedTrace::new(log, kind);
                    assert_tagging_agrees(&trace, log, &what);
                    assert_phase_ceiling_is_tight(&trace, &report, &what);
                }
            }
        }
    }

    /// Honest executions of all six families pass the entire full predicate
    /// set — frame legality, temporal rules, flooding, consistency — at any
    /// seed, on both backends.
    #[test]
    fn honest_runs_satisfy_the_full_predicate_set(seed in any::<u64>(), parallel in any::<bool>()) {
        for kind in ProtocolKind::ALL {
            let scenario = scenario(kind, AdversarySpec::Honest, false, seed);
            let report = if parallel {
                run_traced(&scenario, Parallel::default())
            } else {
                run_traced(&scenario, Sequential)
            };
            let violated = violations(&scenario, &report);
            prop_assert!(
                violated.is_empty(),
                "honest {} run (seed {seed}) violated {:?}",
                kind.name(),
                violated.iter().map(|v| v.name).collect::<Vec<_>>(),
            );
        }
    }

    /// Benign (non-rigged) adversaries — silence, crashes, withheld frames,
    /// an uncharged triggered flood — never trip the predicate plane either:
    /// the predicates judge *detectable misbehaviour*, not mere corruption.
    #[test]
    fn benign_adversaries_stay_clean(seed in any::<u64>()) {
        let cases: Vec<(ProtocolKind, AdversarySpec)> = vec![
            (
                ProtocolKind::Theorem1Mpc,
                AdversarySpec::Silent { corrupt: CorruptionSpec::Explicit(vec![0]) },
            ),
            (
                ProtocolKind::Theorem2LocalMpc,
                AdversarySpec::AbortAt { corrupt: CorruptionSpec::Explicit(vec![0]), round: 3 },
            ),
            (
                ProtocolKind::Broadcast,
                AdversarySpec::Withhold {
                    corrupt: CorruptionSpec::Explicit(vec![0]),
                    recipients: vec![2],
                },
            ),
            (
                ProtocolKind::SuccinctAllToAll,
                AdversarySpec::Triggered {
                    base: Box::new(AdversarySpec::Flood {
                        corrupt: CorruptionSpec::Explicit(vec![0]),
                        victims: vec![],
                        junk_bytes: 512,
                        round_budget: Some(2),
                    }),
                    trigger: TriggerSpec::AtRound(1),
                },
            ),
        ];
        for (kind, adversary) in cases {
            let scenario = scenario(kind, adversary, false, seed);
            let report = run_traced(&scenario, Sequential);
            let violated = violations(&scenario, &report);
            prop_assert!(
                violated.is_empty(),
                "benign {} adversary (seed {seed}) violated {:?}",
                kind.name(),
                violated.iter().map(|v| v.name).collect::<Vec<_>>(),
            );
        }
    }
}

/// The equivocated unchecked sum — the campaign's standing agreement
/// control — violates exactly `broadcast-consistency`, nothing else, and
/// pins a span inside the event stream. Both backends agree on the span.
#[test]
fn equivocated_sum_violates_exactly_broadcast_consistency() {
    let scenario = scenario(
        ProtocolKind::UncheckedSum,
        AdversarySpec::Equivocate {
            corrupt: CorruptionSpec::Explicit(vec![0]),
            victims: vec![1],
        },
        false,
        11,
    );
    let report = run_traced(&scenario, Sequential);
    let violated = violations(&scenario, &report);
    assert_eq!(
        violated.iter().map(|v| v.name).collect::<Vec<_>>(),
        ["broadcast-consistency"],
        "exactly the intended predicate must fire: {violated:?}"
    );
    let events = report.trace.as_ref().unwrap().events as usize;
    let span = violated[0].violation.span;
    assert!(
        span.start <= span.end && span.end < events,
        "span {span:?} within {events} events"
    );

    let parallel = run_traced(&scenario, Parallel::default());
    let parallel_violated = violations(&scenario, &parallel);
    assert_eq!(
        parallel_violated[0].violation.span, span,
        "first-violation span is backend-independent"
    );
}

/// The charged flood — the campaign's standing flooding control — violates
/// exactly `flooding-never-charged`: junk bytes landed in the honest
/// parties' charged communication, which the stream-level predicate must
/// localise to the flooded rounds.
#[test]
fn charged_flood_violates_exactly_the_flooding_rule() {
    let scenario = scenario(
        ProtocolKind::SuccinctAllToAll,
        AdversarySpec::Flood {
            corrupt: CorruptionSpec::Explicit(vec![0]),
            victims: vec![],
            junk_bytes: 2048,
            round_budget: None,
        },
        true,
        11,
    );
    let report = run_traced(&scenario, Sequential);
    let violated = violations(&scenario, &report);
    assert_eq!(
        violated.iter().map(|v| v.name).collect::<Vec<_>>(),
        ["flooding-never-charged"],
        "exactly the intended predicate must fire: {violated:?}"
    );
    let events = report.trace.as_ref().unwrap().events as usize;
    let span = violated[0].violation.span;
    assert!(
        span.start <= span.end && span.end < events,
        "span {span:?} within {events} events"
    );

    // The identical uncharged flood is clean — the predicate reads the
    // charging mode out of the stream, not the adversary's shape.
    let mut uncharged = scenario.clone();
    uncharged.charge_adversary_bytes = false;
    let report = run_traced(&uncharged, Sequential);
    assert!(violations(&uncharged, &report).is_empty());
}
