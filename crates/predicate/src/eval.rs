//! The batch scans: one function per [`Predicate`](crate::Predicate)
//! rule, each a single pass over a tagged trace's entries, in stream
//! order, that returns at the first violation.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use mpca_metrics::{Phase, PhaseBytes, PhaseClock};
use mpca_net::MilestoneKind;
use mpca_trace::{TaggedEntry, TaggedTrace};

use crate::ast::{Span, Violation};

/// A send is *charged* when the ledger would charge it: always for honest
/// traffic, for injections only under the trace's charging flag.
fn charged(trace: &TaggedTrace, injected: bool) -> bool {
    !injected || trace.charges_adversary_bytes
}

pub(crate) fn frames_legal(trace: &TaggedTrace) -> Option<Violation> {
    trace
        .entries
        .iter()
        .enumerate()
        .find_map(|(index, entry)| match entry {
            TaggedEntry::Send {
                round,
                from,
                to,
                injected: false,
                tag: None,
                ..
            } => Some(Violation {
                span: Span::at(index),
                details: format!(
                    "honest send {from} -> {to} in round {round} frames as no known message"
                ),
            }),
            _ => None,
        })
}

pub(crate) fn broadcast_consistency(
    trace: &TaggedTrace,
    tags: &[&'static str],
) -> Option<Violation> {
    // (round, sender index, tag) → (first index, payload fingerprint).
    let mut first_copies: BTreeMap<(usize, usize, &'static str), (usize, u64)> = BTreeMap::new();
    for (index, entry) in trace.entries.iter().enumerate() {
        let TaggedEntry::Send {
            round,
            from,
            tag: Some(tag),
            payload_fp,
            ..
        } = entry
        else {
            continue;
        };
        if !tags.contains(tag) {
            continue;
        }
        match first_copies.entry((*round, from.index(), *tag)) {
            Entry::Vacant(slot) => {
                slot.insert((index, *payload_fp));
            }
            Entry::Occupied(slot) => {
                let (first_index, first_fp) = *slot.get();
                if first_fp != *payload_fp {
                    return Some(Violation {
                        span: Span {
                            start: first_index,
                            end: index,
                        },
                        details: format!(
                            "{from} equivocated {tag} in round {round}: copies differ"
                        ),
                    });
                }
            }
        }
    }
    None
}

pub(crate) fn phase_ceiling(trace: &TaggedTrace, limit_bytes: u64) -> Option<Violation> {
    let mut clock = PhaseClock::new();
    let mut charged_bytes = PhaseBytes::new();
    for (index, entry) in trace.entries.iter().enumerate() {
        match entry {
            TaggedEntry::Send {
                bytes, injected, ..
            } => {
                if !charged(trace, *injected) {
                    continue;
                }
                let phase = clock.current();
                charged_bytes.charge(phase, *bytes as u64);
                let total = charged_bytes.get(phase);
                if total > limit_bytes {
                    return Some(Violation {
                        span: Span::at(index),
                        details: format!(
                            "{} phase charged {total} B, over the {limit_bytes} B ceiling",
                            phase.name()
                        ),
                    });
                }
            }
            TaggedEntry::Milestone { kind, .. } => clock.advance_to(kind.phase()),
        }
    }
    None
}

pub(crate) fn flooding_never_charged(trace: &TaggedTrace) -> Option<Violation> {
    if !trace.charges_adversary_bytes {
        return None;
    }
    trace
        .entries
        .iter()
        .enumerate()
        .find_map(|(index, entry)| match entry {
            TaggedEntry::Send {
                round,
                from,
                injected: true,
                ..
            } => Some(Violation {
                span: Span::at(index),
                details: format!(
                    "injected send by {from} in round {round} charged to the communication measure"
                ),
            }),
            _ => None,
        })
}

pub(crate) fn no_send_after_termination(trace: &TaggedTrace) -> Option<Violation> {
    // party index → index of its terminating milestone.
    let mut terminated: BTreeMap<usize, usize> = BTreeMap::new();
    for (index, entry) in trace.entries.iter().enumerate() {
        match entry {
            TaggedEntry::Milestone {
                party,
                kind: MilestoneKind::OutputDecided | MilestoneKind::Aborted,
                ..
            } => {
                terminated.entry(party.index()).or_insert(index);
            }
            TaggedEntry::Send {
                round,
                from,
                injected: false,
                ..
            } => {
                if let Some(&start) = terminated.get(&from.index()) {
                    return Some(Violation {
                        span: Span { start, end: index },
                        details: format!(
                            "{from} sent honest traffic in round {round} after terminating"
                        ),
                    });
                }
            }
            _ => {}
        }
    }
    None
}

pub(crate) fn detection_abort_implies_verification(trace: &TaggedTrace) -> Option<Violation> {
    let mut verification_seen = false;
    for (index, entry) in trace.entries.iter().enumerate() {
        let TaggedEntry::Milestone {
            party,
            kind,
            detection_abort,
            ..
        } = entry
        else {
            continue;
        };
        verification_seen |= *kind == MilestoneKind::VerificationStart;
        if *detection_abort && !verification_seen {
            return Some(Violation {
                span: Span::at(index),
                details: format!(
                    "{party} aborted on a misbehaviour detection with no prior verification-start"
                ),
            });
        }
    }
    None
}

pub(crate) fn no_phase_bytes_after(
    trace: &TaggedTrace,
    phase: Phase,
    after: MilestoneKind,
) -> Option<Violation> {
    let mut after_index = None;
    // Phase of the most recent milestone, deliberately non-monotone: this
    // rule guards the monotonicity the ledger's clock assumes.
    let mut last_raw_phase = Phase::Setup;
    for (index, entry) in trace.entries.iter().enumerate() {
        match entry {
            TaggedEntry::Milestone { kind, .. } => {
                if *kind == after {
                    after_index.get_or_insert(index);
                }
                last_raw_phase = kind.phase();
            }
            TaggedEntry::Send {
                bytes, injected, ..
            } => {
                let Some(start) = after_index else {
                    continue;
                };
                if charged(trace, *injected) && *bytes > 0 && last_raw_phase == phase {
                    return Some(Violation {
                        span: Span { start, end: index },
                        details: format!(
                            "{} bytes charged after the {} milestone",
                            phase.name(),
                            after.name()
                        ),
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Predicate;
    use mpca_core::ProtocolKind;
    use mpca_net::{
        AbortReason, Milestone, MilestoneEvent, PartyId, Payload, TraceEvent, TraceLog,
    };

    fn send(round: usize, from: usize, to: usize, bytes: usize, injected: bool) -> TraceEvent {
        TraceEvent::Send {
            round,
            from: PartyId(from),
            to: PartyId(to),
            payload: Payload::from_vec(vec![0x2A; bytes]),
            injected,
        }
    }

    fn milestone(round: usize, party: usize, milestone: Milestone) -> TraceEvent {
        TraceEvent::Milestone(MilestoneEvent {
            round,
            party: PartyId(party),
            milestone,
        })
    }

    fn tagged(log: &TraceLog) -> TaggedTrace {
        TaggedTrace::new(log, ProtocolKind::UncheckedSum)
    }

    #[test]
    fn frames_legal_flags_only_honest_junk() {
        let mut log = TraceLog::new();
        log.push(send(0, 0, 1, 8, false)); // 8 B frames as sum:value
        log.push(send(0, 2, 1, 5, true)); // junk, but injected
        assert_eq!(Predicate::FramesLegal.eval(&tagged(&log)), None);
        log.push(send(1, 0, 1, 5, false)); // honest junk
        let violation = Predicate::FramesLegal.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(2));
    }

    #[test]
    fn broadcast_consistency_pairs_the_witnesses() {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::encode(&7u64),
            injected: false,
        });
        log.push(send(0, 2, 1, 8, false)); // different sender: no conflict
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(2),
            payload: Payload::encode(&9u64),
            injected: true,
        });
        let predicate = Predicate::BroadcastConsistency {
            tags: vec!["sum:value"],
        };
        let violation = predicate.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span { start: 0, end: 2 });
        assert!(violation.details.contains("sum:value"));
    }

    #[test]
    fn phase_ceiling_charges_like_the_ledger() {
        let mut log = TraceLog::new();
        log.push(send(0, 0, 1, 10, false)); // Setup
        log.push(milestone(0, 0, Milestone::CrsReady));
        log.push(send(1, 0, 1, 30, false)); // Crs
        log.push(send(1, 2, 1, 100, true)); // injected, uncharged by default
        log.push(send(2, 1, 0, 30, false)); // Crs: total 60
        let ceiling = Predicate::PhaseCeiling { limit_bytes: 50 };
        let violation = ceiling.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(4), "crossing send, not the flood");
        assert_eq!(
            violation.details, "crs phase charged 60 B, over the 50 B ceiling",
            "the setup bytes stay in their own phase"
        );

        let generous = Predicate::PhaseCeiling { limit_bytes: 60 };
        assert_eq!(generous.eval(&tagged(&log)), None, "ceiling is inclusive");

        // Charging adversary bytes pulls the flood into the budget.
        log.set_charges_adversary_bytes(true);
        let violation = ceiling.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(3));
    }

    #[test]
    fn flooding_never_charged_tracks_the_flag() {
        let mut log = TraceLog::new();
        log.push(send(0, 2, 1, 64, true));
        assert_eq!(Predicate::FloodingNeverCharged.eval(&tagged(&log)), None);
        log.set_charges_adversary_bytes(true);
        let violation = Predicate::FloodingNeverCharged.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(0));
    }

    #[test]
    fn no_send_after_termination_spans_milestone_to_send() {
        let mut log = TraceLog::new();
        log.push(milestone(1, 0, Milestone::OutputDecided));
        log.push(send(2, 1, 0, 8, false)); // other party: fine
        log.push(send(2, 0, 1, 8, true)); // injected as party 0: fine
        assert_eq!(Predicate::NoSendAfterTermination.eval(&tagged(&log)), None);
        log.push(send(3, 0, 1, 8, false));
        let violation = Predicate::NoSendAfterTermination
            .eval(&tagged(&log))
            .unwrap();
        assert_eq!(violation.span, Span { start: 0, end: 3 });
    }

    #[test]
    fn detection_abort_requires_prior_verification() {
        let detection = Milestone::Aborted {
            reason: AbortReason::Equivocation("two values".into()),
        };
        let mut bad = TraceLog::new();
        bad.push(milestone(1, 0, detection.clone()));
        let violation = Predicate::DetectionAbortImpliesVerification
            .eval(&tagged(&bad))
            .unwrap();
        assert_eq!(violation.span, Span::at(0));

        let mut good = TraceLog::new();
        good.push(milestone(0, 1, Milestone::VerificationStart));
        good.push(milestone(1, 0, detection));
        assert_eq!(
            Predicate::DetectionAbortImpliesVerification.eval(&tagged(&good)),
            None
        );

        // Passive aborts (peer gone) carry no detection obligation.
        let mut passive = TraceLog::new();
        passive.push(milestone(
            1,
            0,
            Milestone::Aborted {
                reason: AbortReason::PeerAbort("gone".into()),
            },
        ));
        assert_eq!(
            Predicate::DetectionAbortImpliesVerification.eval(&tagged(&passive)),
            None
        );
    }

    #[test]
    fn phase_bytes_after_milestone_catch_straggler_attribution() {
        let predicate = Predicate::NoPhaseBytesAfter {
            phase: Phase::Crs,
            after: MilestoneKind::CommitteeAnnounced,
        };
        let mut log = TraceLog::new();
        log.push(milestone(0, 0, Milestone::CrsReady));
        log.push(send(1, 0, 1, 8, false));
        log.push(milestone(1, 0, Milestone::CommitteeAnnounced));
        log.push(send(2, 0, 1, 8, false)); // Committee-phase bytes: fine
        assert_eq!(predicate.eval(&tagged(&log)), None);
        // A straggler CRS milestone re-attributing later sends to Crs.
        log.push(milestone(2, 1, Milestone::CrsReady));
        log.push(send(3, 1, 0, 8, false));
        let violation = predicate.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span { start: 2, end: 5 });
    }
}
