//! The raw per-session execution trace: a zero-copy structured event
//! stream recorded by the simulator.
//!
//! When tracing is enabled ([`Simulator::record_trace`](crate::Simulator::record_trace)),
//! the simulator appends one [`TraceEvent`] per charged send, per
//! adversarial injection and per [`Milestone`] — in the
//! same deterministic order it merges rounds, so a trace is byte-identical
//! across round drivers and execution backends, exactly like the outcomes
//! and statistics it narrates.
//!
//! Events hold [`Payload`] windows, not copies: recording a send is an O(1)
//! reference-count bump, which is what keeps trace overhead low enough to
//! leave on for whole campaign sweeps (the `E17-trace` experiment measures
//! it).
//!
//! This module is deliberately minimal — the raw stream plus the accessors
//! other layers rebuild statistics from. Consumers read a finished
//! [`TraceLog`]; frame tagging, digests and the record/replay file format
//! live in the `mpca-trace` crate, which sits above the protocol catalog
//! and therefore knows the per-protocol frame schemas, and the
//! `mpca-predicate` rules scan its tagged view.

use std::collections::{BTreeMap, BTreeSet};

use crate::party::{AbortReason, Milestone, MilestoneEvent, MilestoneKind, PartyId};
use crate::payload::Payload;

/// One recorded execution event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An envelope entered the message plane.
    Send {
        /// The round the envelope was produced in (delivered in `round + 1`).
        round: usize,
        /// Sender (authenticated by the simulator).
        from: PartyId,
        /// Recipient.
        to: PartyId,
        /// The message body — a shared window, never a copy.
        payload: Payload,
        /// `true` when the adversary injected this envelope (flood junk,
        /// equivocated copies). Injected sends are excluded from the paper's
        /// communication measure, and the distinct tag makes that exclusion
        /// — including [`CommStats::max_locality_within`](crate::CommStats::max_locality_within)
        /// — recomputable from the trace alone.
        injected: bool,
    },
    /// A party reached a protocol phase (or terminated).
    Milestone(MilestoneEvent),
}

/// The recorded event stream of one session, in simulator merge order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    /// Whether the recording execution charged adversary-injected bytes to
    /// its statistics ([`SimConfig::count_adversary_bytes`](crate::SimConfig)).
    /// Carried on the log so trace consumers (the phase ledger) can replay
    /// the *exact* charging rules without out-of-band configuration. Not
    /// part of the event stream, so digests ignore it.
    charges_adversary_bytes: bool,
}

impl TraceLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks whether the recording execution charged adversary bytes
    /// (set by the simulator from its [`SimConfig`](crate::SimConfig)).
    pub fn set_charges_adversary_bytes(&mut self, charges: bool) {
        self.charges_adversary_bytes = charges;
    }

    /// `true` when the recording execution charged adversary-injected
    /// bytes to its statistics.
    pub fn charges_adversary_bytes(&self) -> bool {
        self.charges_adversary_bytes
    }

    /// Appends an event (used by the simulator).
    pub fn push(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Releases the event buffer's spare capacity — for a finished log
    /// that is kept after its execution ends.
    pub fn shrink_to_fit(&mut self) {
        self.events.shrink_to_fit();
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The milestone events, in order.
    pub fn milestones(&self) -> impl Iterator<Item = &MilestoneEvent> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Milestone(m) => Some(m),
            TraceEvent::Send { .. } => None,
        })
    }

    /// Number of adversary-injected sends.
    pub fn injected_sends(&self) -> u64 {
        self.events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Send { injected: true, .. }))
            .count() as u64
    }

    /// The abort reason of every party with an
    /// [`Milestone::Aborted`] event — the trace-side record of *why*
    /// parties aborted, independent of the report plumbing that also
    /// carries reasons. The behavioural identified-abort oracle predicate
    /// compares the two.
    pub fn abort_reasons(&self) -> BTreeMap<PartyId, AbortReason> {
        self.milestones()
            .filter_map(|event| match &event.milestone {
                Milestone::Aborted { reason } => Some((event.party, reason.clone())),
                _ => None,
            })
            .collect()
    }

    /// Parties with an [`Milestone::OutputDecided`] event.
    pub fn decided_parties(&self) -> BTreeSet<PartyId> {
        self.milestones()
            .filter(|e| e.milestone.kind() == MilestoneKind::OutputDecided)
            .map(|e| e.party)
            .collect()
    }

    /// The first round in which any party emitted a milestone of `kind`.
    pub fn first_milestone_round(&self, kind: MilestoneKind) -> Option<usize> {
        self.milestones()
            .find(|e| e.milestone.kind() == kind)
            .map(|e| e.round)
    }

    /// Recomputes the **honest** payload bytes from the trace (injected
    /// sends excluded) — must equal
    /// [`CommStats::total_bytes`](crate::CommStats::total_bytes) of an
    /// execution that does not charge adversary bytes.
    pub fn honest_bytes(&self) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send {
                    payload,
                    injected: false,
                    ..
                } => Some(payload.len() as u64),
                _ => None,
            })
            .sum()
    }

    /// Recomputes the maximum per-party locality **within** `parties` from
    /// the trace alone: distinct recipients in `parties` contacted by
    /// non-injected sends of each sender in `parties`. Mirrors
    /// [`CommStats::max_locality_within`](crate::CommStats::max_locality_within),
    /// which is how the flood-exclusion logic is testable from the trace.
    pub fn max_locality_within(&self, parties: &BTreeSet<PartyId>) -> usize {
        // Peers count in both directions (sent-to and received-from), like
        // `CommStats::peers_of`.
        let mut peers: BTreeMap<PartyId, BTreeSet<PartyId>> = BTreeMap::new();
        for event in &self.events {
            if let TraceEvent::Send {
                from,
                to,
                injected: false,
                ..
            } = event
            {
                if parties.contains(from) && parties.contains(to) && from != to {
                    peers.entry(*from).or_default().insert(*to);
                    peers.entry(*to).or_default().insert(*from);
                }
            }
        }
        peers.values().map(BTreeSet::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send(round: usize, from: usize, to: usize, bytes: usize, injected: bool) -> TraceEvent {
        TraceEvent::Send {
            round,
            from: PartyId(from),
            to: PartyId(to),
            payload: Payload::from_vec(vec![0xAB; bytes]),
            injected,
        }
    }

    #[test]
    fn log_accessors_classify_events() {
        let mut log = TraceLog::new();
        log.push(send(0, 0, 1, 10, false));
        log.push(send(0, 2, 1, 99, true));
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 1,
            party: PartyId(0),
            milestone: Milestone::VerificationStart,
        }));
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 2,
            party: PartyId(1),
            milestone: Milestone::Aborted {
                reason: AbortReason::Equivocation("split".into()),
            },
        }));
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 2,
            party: PartyId(0),
            milestone: Milestone::OutputDecided,
        }));

        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        assert_eq!(log.milestones().count(), 3);
        assert_eq!(log.injected_sends(), 1);
        assert_eq!(log.honest_bytes(), 10);
        assert_eq!(
            log.first_milestone_round(MilestoneKind::VerificationStart),
            Some(1)
        );
        assert_eq!(log.first_milestone_round(MilestoneKind::CrsReady), None);
        assert_eq!(log.decided_parties(), [PartyId(0)].into());
        let aborts = log.abort_reasons();
        assert_eq!(aborts.len(), 1);
        assert!(matches!(
            aborts.get(&PartyId(1)),
            Some(AbortReason::Equivocation(_))
        ));
    }

    #[test]
    fn locality_from_trace_excludes_injected_sends() {
        let mut log = TraceLog::new();
        let honest: BTreeSet<PartyId> = [PartyId(0), PartyId(1), PartyId(2)].into();
        log.push(send(0, 0, 1, 4, false));
        log.push(send(0, 0, 2, 4, false));
        log.push(send(0, 0, 1, 4, false)); // duplicate peer, still 2
        log.push(send(1, 0, 2, 512, true)); // injected: excluded
        log.push(send(1, 1, 0, 4, false));
        assert_eq!(log.max_locality_within(&honest), 2);
        // Peers count in both directions, so inside {1, 2} nobody has a
        // peer (all their traffic crossed to party 0 or was injected).
        let without_zero: BTreeSet<PartyId> = [PartyId(1), PartyId(2)].into();
        assert_eq!(log.max_locality_within(&without_zero), 0);
    }
}
