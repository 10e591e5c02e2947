//! Single-pass evaluation: compiled predicate machines over tagged entry
//! streams.

use std::collections::BTreeMap;

use mpca_metrics::{Phase, PhaseClock};
use mpca_net::MilestoneKind;
use mpca_trace::TaggedEntry;

use crate::ast::{PartyRule, Predicate, RoundRule, Span, Violation};

/// A compiled predicate: a streaming machine fed one [`TaggedEntry`] at a
/// time (in stream order), then [`finish`](Evaluator::finish)ed for the
/// outcome.
///
/// Feeding is O(leaves) per entry with latched first violations, so one
/// scan of a recorded trace ([`Predicate::eval`]) evaluates the whole
/// predicate.
#[derive(Debug, Clone)]
pub(crate) struct Evaluator {
    root: Node,
    charges_adversary_bytes: bool,
    fed: usize,
}

impl Evaluator {
    pub(crate) fn new(predicate: &Predicate, charges_adversary_bytes: bool) -> Self {
        Self {
            root: Node::compile(predicate),
            charges_adversary_bytes,
            fed: 0,
        }
    }

    /// Observes the next entry of the stream.
    pub(crate) fn feed(&mut self, entry: &TaggedEntry) {
        let index = self.fed;
        self.fed += 1;
        self.root.feed(index, entry, self.charges_adversary_bytes);
    }

    /// The outcome over everything fed: `None` when the predicate holds.
    pub(crate) fn finish(self) -> Option<Violation> {
        self.root.outcome(self.fed)
    }
}

/// The compiled tree: leaves carry state, combinators defer to children.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    All(Vec<Node>),
    Any(Vec<Node>),
    Not(Box<Node>),
}

impl Node {
    fn compile(predicate: &Predicate) -> Self {
        match predicate {
            Predicate::All(children) => Node::All(children.iter().map(Node::compile).collect()),
            Predicate::Any(children) => Node::Any(children.iter().map(Node::compile).collect()),
            Predicate::Not(child) => Node::Not(Box::new(Node::compile(child))),
            leaf => Node::Leaf(Leaf::compile(leaf)),
        }
    }

    fn feed(&mut self, index: usize, entry: &TaggedEntry, charges: bool) {
        match self {
            Node::Leaf(leaf) => leaf.feed(index, entry, charges),
            Node::All(children) | Node::Any(children) => {
                for child in children {
                    child.feed(index, entry, charges);
                }
            }
            Node::Not(child) => child.feed(index, entry, charges),
        }
    }

    fn outcome(&self, fed: usize) -> Option<Violation> {
        match self {
            Node::Leaf(leaf) => leaf.violation.clone(),
            Node::All(children) => earliest(children.iter().filter_map(|c| c.outcome(fed))),
            Node::Any(children) => {
                let outcomes: Vec<Option<Violation>> =
                    children.iter().map(|c| c.outcome(fed)).collect();
                if !outcomes.is_empty() && outcomes.iter().all(Option::is_some) {
                    earliest(outcomes.into_iter().flatten())
                } else {
                    None
                }
            }
            Node::Not(child) => match child.outcome(fed) {
                Some(_) => None,
                None => Some(Violation {
                    span: Span {
                        start: 0,
                        end: fed.saturating_sub(1),
                    },
                    details: "negated predicate held over the whole trace".into(),
                }),
            },
        }
    }
}

/// Earliest violation by span end, then span start, then child order — the
/// deterministic "first violating event span" the combinators report.
fn earliest(violations: impl Iterator<Item = Violation>) -> Option<Violation> {
    violations.min_by_key(|v| (v.span.end, v.span.start))
}

/// One stateful leaf evaluator with its latched first violation.
#[derive(Debug, Clone)]
struct Leaf {
    state: State,
    violation: Option<Violation>,
}

/// Per-leaf streaming state.
#[derive(Debug, Clone)]
enum State {
    FramesLegal,
    BroadcastConsistency {
        tags: Vec<&'static str>,
        /// (round, sender index, tag) → (first index, payload fingerprint).
        first_copies: BTreeMap<(usize, usize, &'static str), (usize, u64)>,
    },
    PhaseCeiling {
        phase: Phase,
        limit_bytes: u64,
        clock: PhaseClock,
        charged: u64,
    },
    FloodingNeverCharged,
    NoSendAfterTermination {
        /// party index → index of its terminating milestone.
        terminated: BTreeMap<usize, usize>,
    },
    DetectionAbortImpliesVerification {
        verification_seen: bool,
    },
    NoPhaseBytesAfter {
        phase: Phase,
        after: MilestoneKind,
        after_index: Option<usize>,
        /// Phase of the most recent milestone, deliberately non-monotone —
        /// this leaf guards the monotonicity the ledger's clock assumes.
        last_raw_phase: Phase,
    },
    PartySentBytesAtMost {
        limit: u64,
        sent: BTreeMap<usize, u64>,
    },
    PartyNoSendAfter {
        kind: MilestoneKind,
        /// party index → index of its milestone of `kind`.
        marked: BTreeMap<usize, usize>,
    },
    RoundBytesAtMost {
        limit: u64,
        charged: BTreeMap<usize, u64>,
    },
    RoundEnvelopesAtMost {
        limit: u64,
        charged: BTreeMap<usize, u64>,
    },
}

impl Leaf {
    fn compile(predicate: &Predicate) -> Self {
        let state = match predicate {
            Predicate::FramesLegal => State::FramesLegal,
            Predicate::BroadcastConsistency { tags } => State::BroadcastConsistency {
                tags: tags.clone(),
                first_copies: BTreeMap::new(),
            },
            Predicate::PhaseCeiling { phase, limit_bytes } => State::PhaseCeiling {
                phase: *phase,
                limit_bytes: *limit_bytes,
                clock: PhaseClock::new(),
                charged: 0,
            },
            Predicate::FloodingNeverCharged => State::FloodingNeverCharged,
            Predicate::NoSendAfterTermination => State::NoSendAfterTermination {
                terminated: BTreeMap::new(),
            },
            Predicate::DetectionAbortImpliesVerification => {
                State::DetectionAbortImpliesVerification {
                    verification_seen: false,
                }
            }
            Predicate::NoPhaseBytesAfter { phase, after } => State::NoPhaseBytesAfter {
                phase: *phase,
                after: *after,
                after_index: None,
                last_raw_phase: Phase::Setup,
            },
            Predicate::ForAllParties(PartyRule::SentBytesAtMost(limit)) => {
                State::PartySentBytesAtMost {
                    limit: *limit,
                    sent: BTreeMap::new(),
                }
            }
            Predicate::ForAllParties(PartyRule::NoSendAfter(kind)) => State::PartyNoSendAfter {
                kind: *kind,
                marked: BTreeMap::new(),
            },
            Predicate::ForAllRounds(RoundRule::BytesAtMost(limit)) => State::RoundBytesAtMost {
                limit: *limit,
                charged: BTreeMap::new(),
            },
            Predicate::ForAllRounds(RoundRule::EnvelopesAtMost(limit)) => {
                State::RoundEnvelopesAtMost {
                    limit: *limit,
                    charged: BTreeMap::new(),
                }
            }
            Predicate::All(_) | Predicate::Any(_) | Predicate::Not(_) => {
                unreachable!("combinators are compiled to Node, not Leaf")
            }
        };
        Self {
            state,
            violation: None,
        }
    }

    fn feed(&mut self, index: usize, entry: &TaggedEntry, charges: bool) {
        if self.violation.is_some() {
            return; // first violation latched
        }
        self.violation = self.state.observe(index, entry, charges);
    }
}

impl State {
    /// Advances on one entry, returning the violation it witnesses, if any.
    fn observe(&mut self, index: usize, entry: &TaggedEntry, charges: bool) -> Option<Violation> {
        // A send is *charged* when the ledger would charge it: always for
        // honest traffic, for injections only under the charging flag.
        let charged_send = |injected: bool| !injected || charges;
        match (self, entry) {
            (
                State::FramesLegal,
                TaggedEntry::Send {
                    round,
                    from,
                    to,
                    injected: false,
                    tag: None,
                    ..
                },
            ) => Some(Violation {
                span: Span::at(index),
                details: format!(
                    "honest send {from} -> {to} in round {round} frames as no known message"
                ),
            }),
            (
                State::BroadcastConsistency { tags, first_copies },
                TaggedEntry::Send {
                    round,
                    from,
                    tag: Some(tag),
                    payload_fp,
                    ..
                },
            ) if tags.contains(tag) => match first_copies.entry((*round, from.index(), tag)) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert((index, *payload_fp));
                    None
                }
                std::collections::btree_map::Entry::Occupied(slot) => {
                    let (first_index, first_fp) = *slot.get();
                    (first_fp != *payload_fp).then(|| Violation {
                        span: Span {
                            start: first_index,
                            end: index,
                        },
                        details: format!(
                            "{from} equivocated {tag} in round {round}: copies differ"
                        ),
                    })
                }
            },
            (
                State::PhaseCeiling {
                    phase,
                    limit_bytes,
                    clock,
                    charged: total,
                },
                TaggedEntry::Send {
                    bytes, injected, ..
                },
            ) => {
                if charged_send(*injected) && clock.current() == *phase {
                    *total += *bytes as u64;
                    if *total > *limit_bytes {
                        return Some(Violation {
                            span: Span::at(index),
                            details: format!(
                                "{} phase charged {total} B, over the {limit_bytes} B ceiling",
                                phase.name()
                            ),
                        });
                    }
                }
                None
            }
            (State::PhaseCeiling { clock, .. }, TaggedEntry::Milestone { kind, .. }) => {
                clock.advance_to(kind.phase());
                None
            }
            (
                State::FloodingNeverCharged,
                TaggedEntry::Send {
                    round,
                    from,
                    injected: true,
                    ..
                },
            ) if charges => Some(Violation {
                span: Span::at(index),
                details: format!(
                    "injected send by {from} in round {round} charged to the communication measure"
                ),
            }),
            (
                State::NoSendAfterTermination { terminated },
                TaggedEntry::Milestone { party, kind, .. },
            ) => {
                if matches!(kind, MilestoneKind::OutputDecided | MilestoneKind::Aborted) {
                    terminated.entry(party.index()).or_insert(index);
                }
                None
            }
            (
                State::NoSendAfterTermination { terminated },
                TaggedEntry::Send {
                    round,
                    from,
                    injected: false,
                    ..
                },
            ) => terminated.get(&from.index()).map(|&term_index| Violation {
                span: Span {
                    start: term_index,
                    end: index,
                },
                details: format!("{from} sent honest traffic in round {round} after terminating"),
            }),
            (
                State::DetectionAbortImpliesVerification { verification_seen },
                TaggedEntry::Milestone {
                    party,
                    kind,
                    detection_abort,
                    ..
                },
            ) => {
                if *kind == MilestoneKind::VerificationStart {
                    *verification_seen = true;
                }
                (*detection_abort && !*verification_seen).then(|| Violation {
                    span: Span::at(index),
                    details: format!(
                        "{party} aborted on a misbehaviour detection with no prior verification-start"
                    ),
                })
            }
            (
                State::NoPhaseBytesAfter {
                    after,
                    after_index,
                    last_raw_phase,
                    ..
                },
                TaggedEntry::Milestone { kind, .. },
            ) => {
                if kind == after && after_index.is_none() {
                    *after_index = Some(index);
                }
                *last_raw_phase = kind.phase();
                None
            }
            (
                State::NoPhaseBytesAfter {
                    phase,
                    after,
                    after_index: Some(after_index),
                    last_raw_phase,
                },
                TaggedEntry::Send {
                    bytes, injected, ..
                },
            ) => (charged_send(*injected) && *bytes > 0 && last_raw_phase == phase).then(|| {
                Violation {
                    span: Span {
                        start: *after_index,
                        end: index,
                    },
                    details: format!(
                        "{} bytes charged after the {} milestone",
                        phase.name(),
                        after.name()
                    ),
                }
            }),
            (
                State::PartySentBytesAtMost { limit, sent },
                TaggedEntry::Send {
                    from,
                    bytes,
                    injected: false,
                    ..
                },
            ) => {
                let total = sent.entry(from.index()).or_insert(0);
                *total += *bytes as u64;
                (*total > *limit).then(|| Violation {
                    span: Span::at(index),
                    details: format!("{from} sent {total} B honest, over the {limit} B limit"),
                })
            }
            (
                State::PartyNoSendAfter { kind, marked },
                TaggedEntry::Milestone {
                    party, kind: seen, ..
                },
            ) => {
                if seen == kind {
                    marked.entry(party.index()).or_insert(index);
                }
                None
            }
            (
                State::PartyNoSendAfter { kind, marked },
                TaggedEntry::Send {
                    round,
                    from,
                    injected: false,
                    ..
                },
            ) => marked.get(&from.index()).map(|&mark_index| Violation {
                span: Span {
                    start: mark_index,
                    end: index,
                },
                details: format!(
                    "{from} sent honest traffic in round {round} after its {} milestone",
                    kind.name()
                ),
            }),
            (
                State::RoundBytesAtMost { limit, charged },
                TaggedEntry::Send {
                    round,
                    bytes,
                    injected,
                    ..
                },
            ) => {
                if !charged_send(*injected) {
                    return None;
                }
                let total = charged.entry(*round).or_insert(0);
                *total += *bytes as u64;
                (*total > *limit).then(|| Violation {
                    span: Span::at(index),
                    details: format!("round {round} charged {total} B, over the {limit} B limit"),
                })
            }
            (
                State::RoundEnvelopesAtMost { limit, charged },
                TaggedEntry::Send {
                    round, injected, ..
                },
            ) => {
                if !charged_send(*injected) {
                    return None;
                }
                let total = charged.entry(*round).or_insert(0);
                *total += 1;
                (*total > *limit).then(|| Violation {
                    span: Span::at(index),
                    details: format!(
                        "round {round} carried {total} charged envelopes, over the {limit} limit"
                    ),
                })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_core::ProtocolKind;
    use mpca_net::{
        AbortReason, Milestone, MilestoneEvent, PartyId, Payload, TraceEvent, TraceLog,
    };
    use mpca_trace::TaggedTrace;

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
        let ceiling = Predicate::PhaseCeiling {
            phase: Phase::Crs,
            limit_bytes: 50,
        };
        let violation = ceiling.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(4), "crossing send, not the flood");

        let generous = Predicate::PhaseCeiling {
            phase: Phase::Crs,
            limit_bytes: 60,
        };
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

    #[test]
    fn quantifiers_name_the_offender() {
        let mut log = TraceLog::new();
        log.push(send(0, 0, 1, 30, false));
        log.push(send(0, 1, 0, 10, false));
        log.push(send(1, 0, 1, 30, false));
        let per_party = Predicate::ForAllParties(PartyRule::SentBytesAtMost(40));
        let violation = per_party.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(2));
        assert!(violation.details.contains("P0"), "{}", violation.details);

        let per_round = Predicate::ForAllRounds(RoundRule::BytesAtMost(35));
        let violation = per_round.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span::at(1));

        let envelopes = Predicate::ForAllRounds(RoundRule::EnvelopesAtMost(1));
        assert_eq!(envelopes.eval(&tagged(&log)).unwrap().span, Span::at(1));

        let no_send =
            Predicate::ForAllParties(PartyRule::NoSendAfter(MilestoneKind::SharesDistributed));
        assert_eq!(no_send.eval(&tagged(&log)), None);
    }

    #[test]
    fn combinators_compose_and_pick_earliest_spans() {
        let mut log = TraceLog::new();
        log.push(send(0, 0, 1, 5, false)); // honest junk: FramesLegal fails @0
        log.push(send(0, 0, 1, 30, false));
        log.push(send(0, 0, 1, 30, false)); // round bytes cross @2
        let frames = Predicate::FramesLegal;
        let bytes = Predicate::ForAllRounds(RoundRule::BytesAtMost(40));

        let all = Predicate::All(vec![bytes.clone(), frames.clone()]);
        assert_eq!(all.eval(&tagged(&log)).unwrap().span, Span::at(0));

        let any = Predicate::Any(vec![frames.clone(), bytes.clone()]);
        assert_eq!(any.eval(&tagged(&log)).unwrap().span, Span::at(0));
        let any_ok = Predicate::Any(vec![
            frames.clone(),
            Predicate::ForAllRounds(RoundRule::BytesAtMost(100)),
        ]);
        assert_eq!(any_ok.eval(&tagged(&log)), None);

        let negated = Predicate::Not(Box::new(frames));
        assert_eq!(negated.eval(&tagged(&log)), None);
        let negated_holds = Predicate::Not(Box::new(Predicate::FloodingNeverCharged));
        let violation = negated_holds.eval(&tagged(&log)).unwrap();
        assert_eq!(violation.span, Span { start: 0, end: 2 });
    }
}
