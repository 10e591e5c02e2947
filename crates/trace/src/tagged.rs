//! The frame-tagged trace: the input the trace predicates scan.

use mpca_core::{FrameSchema, ProtocolKind};
use mpca_net::{Milestone, MilestoneKind, PartyId, Payload, TraceEvent, TraceLog};
use std::collections::HashMap;

/// A cheap 64-bit FNV-1a fingerprint of a payload's bytes.
///
/// This is the identity the tagged view keeps after dropping the payload
/// itself: two sends carry the same fingerprint exactly when they carried
/// equal bytes (up to the usual 2⁻⁶⁴ accident), which is what the
/// broadcast-consistency predicate compares. Not cryptographic —
/// collisions only mask a violation, never invent one.
pub fn payload_fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^ bytes.len() as u64
}

/// One tagged entry: a send annotated with its frame tag, or a milestone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaggedEntry {
    /// An envelope, annotated with the frame tag its payload decodes to.
    Send {
        /// Round the envelope was produced in.
        round: usize,
        /// Sender.
        from: PartyId,
        /// Recipient.
        to: PartyId,
        /// Payload size in bytes.
        bytes: usize,
        /// `true` for adversary-injected envelopes.
        injected: bool,
        /// The frame tag under the family's schema, or `None` when the
        /// payload frames as no known message (junk floods, foreign bytes).
        tag: Option<&'static str>,
        /// [`payload_fingerprint`] of the payload bytes — the equality
        /// witness predicates compare after the payload itself is gone.
        payload_fp: u64,
    },
    /// A protocol milestone.
    Milestone {
        /// Round the milestone was emitted in.
        round: usize,
        /// The party that reached the phase.
        party: PartyId,
        /// The milestone's structured kind (abort reasons are dropped).
        kind: MilestoneKind,
        /// `true` for `Aborted` milestones whose reason is an active
        /// misbehaviour *detection* (equivocation, failed equality test) —
        /// the aborts the "detection implies a prior verification phase"
        /// temporal predicate quantifies over.
        detection_abort: bool,
    },
}

/// A raw [`TraceLog`] decoded against one protocol family's
/// [`FrameSchema`]: the input `mpca-predicate` scans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedTrace {
    /// The family the sends were framed against.
    pub kind: ProtocolKind,
    /// The tagged entries, in stream order.
    pub entries: Vec<TaggedEntry>,
    /// Whether the recording execution charged adversary-injected bytes
    /// (copied from [`TraceLog::charges_adversary_bytes`]) — the
    /// charging-sensitive predicates read it.
    pub charges_adversary_bytes: bool,
}

impl TaggedEntry {
    /// Tags one raw event against `schema` — the mapping
    /// [`TaggedTrace::new`] applies to every event of a log, there with the
    /// tag and fingerprint memoised per payload buffer. This is the
    /// un-memoised reference: `tests/proptest_predicates.rs` checks the
    /// memoised entries against it.
    pub fn of_event(event: &TraceEvent, schema: &FrameSchema) -> Self {
        Self::with_frame(event, |payload| {
            (schema.tag(payload), payload_fingerprint(payload))
        })
    }

    /// The one event→entry mapping: `frame` supplies a send's tag and
    /// [`payload_fingerprint`], so [`TaggedTrace::new`] can answer it from
    /// a per-buffer memo while [`of_event`](Self::of_event) computes it.
    fn with_frame(
        event: &TraceEvent,
        frame: impl FnOnce(&Payload) -> (Option<&'static str>, u64),
    ) -> Self {
        match event {
            TraceEvent::Send {
                round,
                from,
                to,
                payload,
                injected,
            } => {
                let (tag, payload_fp) = frame(payload);
                TaggedEntry::Send {
                    round: *round,
                    from: *from,
                    to: *to,
                    bytes: payload.len(),
                    injected: *injected,
                    tag,
                    payload_fp,
                }
            }
            TraceEvent::Milestone(m) => TaggedEntry::Milestone {
                round: m.round,
                party: m.party,
                kind: m.milestone.kind(),
                detection_abort: matches!(
                    &m.milestone,
                    Milestone::Aborted {
                        reason: mpca_net::AbortReason::Equivocation(_)
                            | mpca_net::AbortReason::EqualityTestFailed(_),
                    }
                ),
            },
        }
    }
}

impl TaggedTrace {
    /// Tags every send of `log` with the frame schema of `kind`.
    ///
    /// A payload buffer is decoded and fingerprinted once, however many
    /// sends share it (fan-outs, flood junk): the same per-buffer memo
    /// [`digest_hex`](crate::digest_hex) folds payloads with.
    pub fn new(log: &TraceLog, kind: ProtocolKind) -> Self {
        let schema = FrameSchema::new(kind);
        // Memo key: the shared window's address and length. Sound because
        // `log` keeps every payload alive for the whole call (no address is
        // reused) and payloads are immutable. Not for live streams, whose
        // freed buffers' addresses can come back.
        let mut memo: HashMap<(usize, usize), (Option<&'static str>, u64)> = HashMap::new();
        let entries = log
            .events()
            .iter()
            .map(|event| {
                TaggedEntry::with_frame(event, |payload| {
                    *memo
                        .entry((payload.as_ptr() as usize, payload.len()))
                        .or_insert_with(|| (schema.tag(payload), payload_fingerprint(payload)))
                })
            })
            .collect();
        Self {
            kind,
            entries,
            charges_adversary_bytes: log.charges_adversary_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_core::broadcast::BroadcastMsg;
    use mpca_net::MilestoneEvent;

    #[test]
    fn tags_milestones_and_junk() {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::encode(&BroadcastMsg::Send(vec![9; 4])),
            injected: false,
        });
        log.push(TraceEvent::Send {
            round: 1,
            from: PartyId(2),
            to: PartyId(1),
            payload: Payload::from_vec(vec![0xEE; 16]),
            injected: true,
        });
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 1,
            party: PartyId(1),
            milestone: Milestone::VerificationStart,
        }));

        let tagged = TaggedTrace::new(&log, ProtocolKind::Broadcast);
        assert_eq!(tagged.entries.len(), 3);
        assert!(matches!(
            tagged.entries[0],
            TaggedEntry::Send {
                tag: Some("bcast:send"),
                injected: false,
                ..
            }
        ));
        assert!(matches!(
            tagged.entries[1],
            TaggedEntry::Send {
                tag: None,
                injected: true,
                ..
            }
        ));
        assert!(matches!(
            tagged.entries[2],
            TaggedEntry::Milestone {
                kind: MilestoneKind::VerificationStart,
                detection_abort: false,
                ..
            }
        ));
    }

    #[test]
    fn fan_out_shares_one_tag_and_a_tampered_copy_gets_its_own_fingerprint() {
        let schema = FrameSchema::new(ProtocolKind::Broadcast);
        let shared = Payload::encode(&BroadcastMsg::Send(vec![5, 6, 7, 8]));
        let mut log = TraceLog::new();
        for to in 1..=3 {
            log.push(TraceEvent::Send {
                round: 1,
                from: PartyId(0),
                to: PartyId(to),
                payload: shared.clone(),
                injected: false,
            });
        }
        let copy = schema
            .tamper(&shared, "bcast:send", "message")
            .expect("message field is mutable");
        log.push(TraceEvent::Send {
            round: 1,
            from: PartyId(0),
            to: PartyId(3),
            payload: Payload::from_vec(copy),
            injected: true,
        });

        let tagged = TaggedTrace::new(&log, ProtocolKind::Broadcast);
        let frames: Vec<_> = tagged
            .entries
            .iter()
            .map(|entry| match entry {
                TaggedEntry::Send {
                    tag, payload_fp, ..
                } => (*tag, *payload_fp),
                TaggedEntry::Milestone { .. } => panic!("expected a send"),
            })
            .collect();
        let fan_out = (Some("bcast:send"), payload_fingerprint(&shared));
        assert_eq!(frames[..3], [fan_out; 3]);
        assert_eq!(frames[3].0, Some("bcast:send"));
        assert_ne!(frames[3].1, frames[0].1, "the copy has its own fingerprint");
    }

    #[test]
    fn detection_aborts_are_flagged() {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 3,
            party: PartyId(0),
            milestone: Milestone::Aborted {
                reason: mpca_net::AbortReason::Equivocation("two keys".into()),
            },
        }));
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 3,
            party: PartyId(1),
            milestone: Milestone::Aborted {
                reason: mpca_net::AbortReason::PeerAbort("gone".into()),
            },
        }));
        let tagged = TaggedTrace::new(&log, ProtocolKind::Broadcast);
        assert!(matches!(
            tagged.entries[0],
            TaggedEntry::Milestone {
                kind: MilestoneKind::Aborted,
                detection_abort: true,
                ..
            }
        ));
        assert!(matches!(
            tagged.entries[1],
            TaggedEntry::Milestone {
                kind: MilestoneKind::Aborted,
                detection_abort: false,
                ..
            }
        ));
    }
}
