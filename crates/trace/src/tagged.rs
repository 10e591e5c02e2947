//! The frame-tagged, human-facing trace view.

use mpca_core::{FrameSchema, ProtocolKind};
use mpca_net::{Milestone, MilestoneKind, PartyId, Payload, TraceEvent, TraceLog};
use std::collections::{BTreeMap, HashMap};

/// A cheap 64-bit FNV-1a fingerprint of a payload's bytes.
///
/// This is the identity the tagged view keeps after dropping the payload
/// itself: two sends carry the same fingerprint exactly when they carried
/// equal bytes (up to the usual 2⁻⁶⁴ accident), which is what the
/// broadcast-consistency predicate and the tamper annotator compare. Not
/// cryptographic — collisions only mask a violation, never invent one.
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
        /// For injected sends that shadow an honest envelope of the same
        /// `(round, from, tag)`: the name of the first mutable frame field
        /// whose bytes differ from the honest original (`"?"` when the
        /// divergence is not attributable to one field). `None` for honest
        /// sends and for injections with no honest counterpart to diff
        /// against (pure floods).
        tampered: Option<String>,
    },
    /// A protocol milestone.
    Milestone {
        /// Round the milestone was emitted in.
        round: usize,
        /// The party that reached the phase.
        party: PartyId,
        /// The milestone's structured kind (abort reasons carried in
        /// [`name`](TaggedEntry::Milestone::name) only).
        kind: MilestoneKind,
        /// `true` for `Aborted` milestones whose reason is an active
        /// misbehaviour *detection* (equivocation, failed equality test) —
        /// the aborts the "detection implies a prior verification phase"
        /// temporal predicate quantifies over.
        detection_abort: bool,
        /// The milestone's stable name, with abort reasons appended as
        /// `"aborted (reason)"`.
        name: String,
    },
}

/// A raw [`TraceLog`] decoded against one protocol family's
/// [`FrameSchema`]: the phase-readable transcript view of an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedTrace {
    /// The family the sends were framed against.
    pub kind: ProtocolKind,
    /// The tagged entries, in stream order.
    pub entries: Vec<TaggedEntry>,
    /// Whether the recording execution charged adversary-injected bytes
    /// (copied from [`TraceLog::charges_adversary_bytes`]) — the phase
    /// ledger replays charging from the tagged view with it.
    pub charges_adversary_bytes: bool,
}

impl TaggedEntry {
    /// Tags one raw event against `schema` — the mapping
    /// [`TaggedTrace::new`] applies to every event of a log (there with
    /// the tag and fingerprint memoised per payload buffer), exposed so live
    /// evaluators (the `mpca-predicate` [`TraceSink`](mpca_net::TraceSink)
    /// adapter) observe byte-identical entries to a post-hoc tagging.
    /// Tamper attribution is a whole-stream pass, so `tampered` is always
    /// `None` here.
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
                    tampered: None,
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
                name: match &m.milestone {
                    Milestone::Aborted { reason } => {
                        format!("{} ({reason})", m.milestone.kind().name())
                    }
                    other => other.kind().name().to_string(),
                },
            },
        }
    }
}

impl TaggedTrace {
    /// Tags every send of `log` with the frame schema of `kind`, and
    /// annotates injected sends that shadow an honest envelope with the
    /// tampered frame-field path (see [`TaggedEntry::Send::tampered`]).
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
        let mut entries = Vec::with_capacity(log.len());
        entries.extend(log.events().iter().map(|event| {
            TaggedEntry::with_frame(event, |payload| {
                *memo
                    .entry((payload.as_ptr() as usize, payload.len()))
                    .or_insert_with(|| (schema.tag(payload), payload_fingerprint(payload)))
            })
        }));
        if log.injected_sends() > 0 {
            annotate_tampered(&mut entries, log, &schema);
        }
        Self {
            kind,
            entries,
            charges_adversary_bytes: log.charges_adversary_bytes(),
        }
    }

    /// How many sends carry each frame tag (`None` keyed as `"?"`) — the
    /// quick answer to "what did this execution actually exchange".
    pub fn tag_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut histogram: BTreeMap<&'static str, usize> = BTreeMap::new();
        for entry in &self.entries {
            if let TaggedEntry::Send { tag, .. } = entry {
                *histogram.entry(tag.unwrap_or("?")).or_default() += 1;
            }
        }
        histogram
    }

    /// Renders the transcript, one line per entry — the debugging view
    /// `--record`ed scenarios are inspected with. Injected sends are marked
    /// `!`; those attributable to a frame-field tamper additionally carry
    /// the field path (`~c2.0`), which is what makes shrunk counterexamples
    /// readable in test failure output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match entry {
                TaggedEntry::Send {
                    round,
                    from,
                    to,
                    bytes,
                    injected,
                    tag,
                    tampered,
                    ..
                } => {
                    let marker = if *injected { "!" } else { " " };
                    out.push_str(&format!(
                        "r{round:<3}{marker} {from} -> {to}  {:<24} {bytes} B",
                        tag.unwrap_or("?"),
                    ));
                    if let Some(field) = tampered {
                        out.push_str(&format!("  ~{field}"));
                    }
                    out.push('\n');
                }
                TaggedEntry::Milestone {
                    round, party, name, ..
                } => {
                    out.push_str(&format!("r{round:<3}* {party}  [{name}]\n"));
                }
            }
        }
        out
    }
}

/// Attributes injected sends to the frame field they tampered.
///
/// An injected envelope produced by a framing-aware equivocator shadows an
/// honest send of the same `(round, sender, tag)` with exactly one mutable
/// field rewritten. The annotator reconstructs that path from the stream
/// alone: group sends by `(round, from, tag)`, and for every injected entry
/// whose payload differs from an honest entry of its group, diff the two
/// buffers against the frame's field spans and name the first **mutable**
/// field that diverges. Divergence that no single field explains (length
/// changes, blunt whole-payload XOR of an undecodable buffer) is annotated
/// `"?"` so the render still distinguishes "tampered, unattributable" from
/// honest traffic.
fn annotate_tampered(entries: &mut [TaggedEntry], log: &TraceLog, schema: &FrameSchema) {
    // (round, from, tag) -> payload of the first honest send in the group.
    let mut honest: BTreeMap<(usize, usize, &'static str), &[u8]> = BTreeMap::new();
    for (entry, event) in entries.iter().zip(log.events()) {
        if let (
            TaggedEntry::Send {
                round,
                from,
                injected: false,
                tag: Some(tag),
                ..
            },
            TraceEvent::Send { payload, .. },
        ) = (entry, event)
        {
            honest
                .entry((*round, from.index(), *tag))
                .or_insert(payload);
        }
    }
    for (entry, event) in entries.iter_mut().zip(log.events()) {
        let (
            TaggedEntry::Send {
                round,
                from,
                injected: true,
                tag: Some(tag),
                tampered,
                ..
            },
            TraceEvent::Send { payload, .. },
        ) = (entry, event)
        else {
            continue;
        };
        let Some(original) = honest.get(&(*round, from.index(), *tag)) else {
            continue;
        };
        if *original == payload.as_ref() {
            continue;
        }
        *tampered = Some(diff_field(schema, original, payload).unwrap_or_else(|| "?".into()));
    }
}

/// Names the first mutable field of `original`'s frame whose bytes differ in
/// `copy`, provided the two buffers have equal length and differ **only**
/// inside mutable spans — the shape a schema-directed tamper guarantees.
fn diff_field(schema: &FrameSchema, original: &[u8], copy: &[u8]) -> Option<String> {
    if original.len() != copy.len() {
        return None;
    }
    let frame = schema.decode(original)?;
    let mut first: Option<String> = None;
    let mut explained = vec![false; original.len()];
    for field in &frame.fields {
        if !field.mutable {
            continue;
        }
        let differs = original[field.start..field.end] != copy[field.start..field.end];
        if differs && first.is_none() {
            first = Some(field.name.clone());
        }
        explained[field.start..field.end]
            .iter_mut()
            .for_each(|x| *x = true);
    }
    // Any divergence outside mutable spans means this was not a
    // field-directed tamper; refuse to name a field for it.
    let unexplained = original
        .iter()
        .zip(copy)
        .zip(&explained)
        .any(|((a, b), ok)| a != b && !ok);
    if unexplained {
        None
    } else {
        first
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
                tampered: None,
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
        let histogram = tagged.tag_histogram();
        assert_eq!(histogram.get("bcast:send"), Some(&1));
        assert_eq!(histogram.get("?"), Some(&1));
        let rendered = tagged.render();
        assert!(rendered.contains("bcast:send"));
        assert!(rendered.contains("[verification-start]"));
        assert!(rendered.contains('!'), "injected sends are marked");
    }

    #[test]
    fn injected_frame_tamper_is_attributed_to_its_field() {
        let schema = FrameSchema::new(ProtocolKind::Broadcast);
        let original = Payload::encode(&BroadcastMsg::Send(vec![1, 2, 3, 4]));
        let tampered_bytes = schema
            .tamper(&original, "bcast:send", "message")
            .expect("message field is mutable");

        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 2,
            from: PartyId(0),
            to: PartyId(1),
            payload: original.clone(),
            injected: false,
        });
        log.push(TraceEvent::Send {
            round: 2,
            from: PartyId(0),
            to: PartyId(2),
            payload: Payload::from_vec(tampered_bytes),
            injected: true,
        });

        let tagged = TaggedTrace::new(&log, ProtocolKind::Broadcast);
        let TaggedEntry::Send { tampered, .. } = &tagged.entries[1] else {
            panic!("expected a send");
        };
        assert_eq!(tampered.as_deref(), Some("message"));
        let rendered = tagged.render();
        assert!(
            rendered.contains("~message"),
            "render names the tampered field:\n{rendered}"
        );

        // An identical injected copy (pure duplication) is not "tampered".
        let mut dup = TraceLog::new();
        dup.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: original.clone(),
            injected: false,
        });
        dup.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(2),
            payload: original.clone(),
            injected: true,
        });
        let tagged = TaggedTrace::new(&dup, ProtocolKind::Broadcast);
        let TaggedEntry::Send { tampered, .. } = &tagged.entries[1] else {
            panic!("expected a send");
        };
        assert_eq!(tampered.as_deref(), None);
    }

    #[test]
    fn fan_out_shares_one_tag_and_a_tampered_shadow_keeps_its_field() {
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
                    tag,
                    payload_fp,
                    tampered,
                    ..
                } => (*tag, *payload_fp, tampered.clone()),
                TaggedEntry::Milestone { .. } => panic!("expected a send"),
            })
            .collect();
        let fan_out = (Some("bcast:send"), payload_fingerprint(&shared), None);
        assert_eq!(frames[..3], [fan_out.clone(), fan_out.clone(), fan_out]);
        assert_eq!(frames[3].0, Some("bcast:send"));
        assert_ne!(frames[3].1, frames[0].1, "the copy has its own fingerprint");
        assert_eq!(frames[3].2.as_deref(), Some("message"));
    }

    #[test]
    fn unattributable_divergence_renders_as_question_mark() {
        // A whole-payload XOR of a sum value still frames as sum:value, and
        // the whole buffer is one mutable field — attributable. But a
        // *truncated* copy can't be explained by one field: the annotator
        // falls back to "?" via the length guard.
        let original = Payload::encode(&7u64);
        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(1),
            to: PartyId(0),
            payload: original.clone(),
            injected: false,
        });
        // Same tag (an 8-byte buffer always frames as sum:value), different
        // length is impossible for this family — so tamper a byte instead
        // and check the single-field attribution.
        let mut twisted = original.to_vec();
        twisted[3] ^= 0xA5;
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(1),
            to: PartyId(2),
            payload: Payload::from_vec(twisted),
            injected: true,
        });
        let tagged = TaggedTrace::new(&log, ProtocolKind::UncheckedSum);
        let TaggedEntry::Send { tampered, .. } = &tagged.entries[1] else {
            panic!("expected a send");
        };
        assert_eq!(tampered.as_deref(), Some("value"));
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
