//! Standing predicate sets: the rules every conforming execution must
//! satisfy, bundled under stable names.

use mpca_core::ProtocolKind;
use mpca_metrics::Phase;
use mpca_net::MilestoneKind;
use mpca_trace::TaggedTrace;

use crate::ast::{Predicate, Violation};

/// A predicate under a stable name — the unit sets, reports and the
/// search-loop coverage signal refer to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamedPredicate {
    /// Stable kebab-case identifier (`"frames-legal"`, …).
    pub name: &'static str,
    /// The rule itself.
    pub predicate: Predicate,
}

/// One named predicate's failure over a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetViolation {
    /// The violated predicate's name.
    pub name: &'static str,
    /// Its first violating event span.
    pub violation: Violation,
}

/// The rules every conforming execution of `kind` satisfies: frame
/// legality, termination silence, phase monotonicity, the flooding rule,
/// and — for the families where verification is the only detection
/// mechanism (the
/// [`verification_is_sole_detector`](mpca_core::FamilySpec::verification_is_sole_detector)
/// flag of the family's row) — detection-in-verification. With
/// `phase_budget`, adds a uniform per-phase byte ceiling
/// ([`Predicate::PhaseCeiling`], named `"phase-ceilings"`).
///
/// This is the set the scenario oracle evaluates as its `P` property.
pub fn standard_set(kind: ProtocolKind, phase_budget: Option<u64>) -> Vec<NamedPredicate> {
    let mut set = vec![
        NamedPredicate {
            name: "frames-legal",
            predicate: Predicate::FramesLegal,
        },
        NamedPredicate {
            name: "no-send-after-termination",
            predicate: Predicate::NoSendAfterTermination,
        },
    ];
    if kind.spec().verification_is_sole_detector {
        set.push(NamedPredicate {
            name: "detection-abort-implies-verification",
            predicate: Predicate::DetectionAbortImpliesVerification,
        });
    }
    set.extend([
        NamedPredicate {
            name: "no-crs-bytes-after-committee",
            predicate: Predicate::NoPhaseBytesAfter {
                phase: Phase::Crs,
                after: MilestoneKind::CommitteeAnnounced,
            },
        },
        NamedPredicate {
            name: "flooding-never-charged",
            predicate: Predicate::FloodingNeverCharged,
        },
    ]);
    if let Some(limit_bytes) = phase_budget {
        set.push(NamedPredicate {
            name: "phase-ceilings",
            predicate: Predicate::PhaseCeiling { limit_bytes },
        });
    }
    set
}

/// [`standard_set`] plus the family's broadcast-consistency rule over its
/// [`consistency_tags`](mpca_core::FamilySpec::consistency_tags) (when the
/// family replicates any tag verbatim) — the set `campaign --search` uses
/// as its coverage signal.
pub fn full_set(kind: ProtocolKind, phase_budget: Option<u64>) -> Vec<NamedPredicate> {
    let mut set = standard_set(kind, phase_budget);
    let tags = kind.spec().consistency_tags;
    if !tags.is_empty() {
        set.push(NamedPredicate {
            name: "broadcast-consistency",
            predicate: Predicate::BroadcastConsistency {
                tags: tags.to_vec(),
            },
        });
    }
    set
}

/// Evaluates every predicate of `set` over `trace`, returning the
/// violations in set order (empty when everything holds).
pub fn eval_set(set: &[NamedPredicate], trace: &TaggedTrace) -> Vec<SetViolation> {
    set.iter()
        .filter_map(|named| {
            named.predicate.eval(trace).map(|violation| SetViolation {
                name: named.name,
                violation,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::{PartyId, Payload, TraceEvent, TraceLog};

    #[test]
    fn standard_set_holds_on_an_empty_trace_and_names_are_unique() {
        let set = full_set(ProtocolKind::Broadcast, Some(1 << 20));
        let mut names: Vec<&str> = set.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), set.len(), "set names are unique");
        let trace = TaggedTrace::new(&TraceLog::new(), ProtocolKind::Broadcast);
        assert!(eval_set(&set, &trace).is_empty());
    }

    #[test]
    fn detection_rule_is_scoped_to_verification_only_detectors() {
        let bcast = standard_set(ProtocolKind::Broadcast, None);
        assert!(bcast
            .iter()
            .any(|p| p.name == "detection-abort-implies-verification"));
        let mpc = standard_set(ProtocolKind::Theorem1Mpc, None);
        assert!(mpc
            .iter()
            .all(|p| p.name != "detection-abort-implies-verification"));
    }

    #[test]
    fn families_without_verbatim_replication_get_no_consistency_rule() {
        let local = full_set(ProtocolKind::Theorem2LocalMpc, None);
        assert!(local.iter().all(|p| p.name != "broadcast-consistency"));
        let bcast = full_set(ProtocolKind::Broadcast, None);
        assert!(bcast.iter().any(|p| p.name == "broadcast-consistency"));
    }

    #[test]
    fn eval_set_reports_in_set_order() {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::from_vec(vec![0xFF; 3]), // honest junk
            injected: false,
        });
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(2),
            to: PartyId(1),
            payload: Payload::from_vec(vec![0xFF; 9]),
            injected: true,
        });
        log.set_charges_adversary_bytes(true);
        let trace = TaggedTrace::new(&log, ProtocolKind::UncheckedSum);
        let violations = eval_set(&standard_set(ProtocolKind::UncheckedSum, None), &trace);
        let names: Vec<&str> = violations.iter().map(|v| v.name).collect();
        assert_eq!(names, vec!["frames-legal", "flooding-never-charged"]);
    }
}
