//! The trace summary, folded while the simulator records.
//!
//! A [`TraceRecorder`] takes a session's events one at a time, in the
//! simulator's merge order, and folds each into the session's
//! [`TraceSummary`]: the canonical digest, the event, milestone and
//! injected counts, the abort map and the [`PhaseLedger`]. It appends the
//! event to a [`TraceLog`] only when the session retains its stream, so a
//! digest-only session stores no events and keeps no payload alive past
//! its delivery.
//!
//! [`digest_hex`], [`TraceSummary::of`] and [`PhaseLedger::of`] replay a
//! retained log through the same recorder, so the fold, its payload memo,
//! the counters and the ledger rule exist once.

use std::collections::{BTreeMap, HashMap};

use mpca_crypto::sha256;
use mpca_metrics::{PhaseBytes, PhaseClock};

use super::{TraceEvent, TraceLog};
use crate::party::{AbortReason, Milestone, MilestoneEvent, PartyId};
use crate::payload::Payload;

/// A 128-bit FNV-1a-style accumulator: two independent 64-bit lanes with
/// distinct offset bases, folded word-wise over event metadata and over
/// payloads in 8-byte limbs.
///
/// This is a **determinism checksum**, not a cryptographic commitment: it
/// separates distinct event streams except with probability ~2⁻¹²⁸ against
/// accidental divergence (replay drift, backend nondeterminism), and it is
/// cheap enough — one multiply per lane per word, payload buffers memoized
/// — to fold every event of every campaign session as it is recorded. The
/// final state is sealed with SHA-256 only to render a conventional 64-hex
/// digest string.
#[derive(Debug, Clone, Copy)]
struct Fold128 {
    a: u64,
    b: u64,
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fold128 {
    fn new() -> Self {
        // FNV-1a's offset basis on lane a; an arbitrary odd constant
        // (SHA-256's first round constant, extended) decorrelates lane b.
        Self {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x428a_2f98_d728_ae22,
        }
    }

    fn word(&mut self, v: u64) {
        self.a = (self.a ^ v).wrapping_mul(FNV_PRIME);
        self.b = (self.b ^ v.rotate_left(32)).wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.word(u64::from_le_bytes(tail));
    }

    fn state(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.a.to_le_bytes());
        out[8..].copy_from_slice(&self.b.to_le_bytes());
        out
    }
}

/// A payload window's memo key: its address and length.
type BufferKey = (usize, usize);

/// Folds a session's events into its [`TraceSummary`] as they happen, and
/// keeps the event stream only when asked to.
#[derive(Debug)]
pub(crate) struct TraceRecorder {
    fold: Fold128,
    /// Payload folds of the buffers sent in `memo_round`. The zero-copy
    /// plane hands a fan-out's recipients and flood junk one shared
    /// buffer, so the memo folds an n-recipient broadcast once. The value
    /// depends on the bytes alone, so the memo never changes a digest.
    memo: HashMap<BufferKey, (u64, u64)>,
    /// The previous send's key and fold: a fan-out's events are
    /// consecutive and share one buffer, so this answers most lookups
    /// before the map.
    last: Option<(BufferKey, (u64, u64))>,
    /// The round every memo key was sent in. A key names a buffer only
    /// while that buffer is alive, or its address can come back for other
    /// bytes. The simulator stages every buffer a round sends until the
    /// next round delivers it, so the memo is emptied when the round
    /// changes and answers only for live buffers, whether or not the
    /// stream is retained.
    memo_round: usize,
    events: u64,
    milestones: u64,
    injected_sends: u64,
    aborts: BTreeMap<PartyId, AbortReason>,
    /// The ledger's milestone-driven phase clock.
    clock: PhaseClock,
    ledger: PhaseLedger,
    charges_adversary_bytes: bool,
    /// The event stream, when the session retains it.
    stream: Option<TraceLog>,
}

impl TraceRecorder {
    /// A recorder for an execution that charges adversary-injected bytes
    /// exactly when `charges_adversary_bytes`. It keeps no stream until
    /// [`keep_stream`](Self::keep_stream) asks it to.
    pub(crate) fn new(charges_adversary_bytes: bool) -> Self {
        Self {
            fold: Fold128::new(),
            memo: HashMap::new(),
            last: None,
            memo_round: 0,
            events: 0,
            milestones: 0,
            injected_sends: 0,
            aborts: BTreeMap::new(),
            clock: PhaseClock::new(),
            ledger: PhaseLedger::default(),
            charges_adversary_bytes,
            stream: None,
        }
    }

    /// Retains the event stream from now on.
    pub(crate) fn keep_stream(&mut self) {
        if self.stream.is_none() {
            let mut log = TraceLog::new();
            // The log carries the charging rule, so its consumers replay
            // byte attribution without out-of-band configuration.
            log.set_charges_adversary_bytes(self.charges_adversary_bytes);
            self.stream = Some(log);
        }
    }

    /// Records an envelope entering the message plane in `round`.
    pub(crate) fn send(
        &mut self,
        round: usize,
        from: PartyId,
        to: PartyId,
        payload: &Payload,
        injected: bool,
    ) {
        let (pa, pb) = self.payload_fold(round, payload);
        self.fold.word(0x5E);
        self.fold.word(u64::from(injected));
        self.fold.word(round as u64);
        self.fold.word(from.index() as u64);
        self.fold.word(to.index() as u64);
        self.fold.word(pa);
        self.fold.word(pb);
        self.events += 1;
        self.injected_sends += u64::from(injected);
        // The ledger rule: honest sends are charged to the running phase,
        // injected ones only when the execution charges adversary bytes.
        let side = if !injected || self.charges_adversary_bytes {
            &mut self.ledger.bytes
        } else {
            &mut self.ledger.uncharged_injected
        };
        side.charge(self.clock.current(), payload.len() as u64);
        if let Some(stream) = &mut self.stream {
            stream.push(TraceEvent::Send {
                round,
                from,
                to,
                payload: payload.clone(),
                injected,
            });
        }
    }

    /// Records a milestone.
    pub(crate) fn milestone(&mut self, event: &MilestoneEvent) {
        let kind = event.milestone.kind();
        self.fold.word(0x31);
        self.fold.word(event.round as u64);
        self.fold.word(event.party.index() as u64);
        self.fold.bytes(kind.name().as_bytes());
        if let Milestone::Aborted { reason } = &event.milestone {
            self.fold.bytes(reason.to_string().as_bytes());
            // A party's last abort reason wins.
            self.aborts.insert(event.party, reason.clone());
        }
        self.events += 1;
        self.milestones += 1;
        self.clock.advance_to(kind.phase());
        if let Some(stream) = &mut self.stream {
            stream.push(TraceEvent::Milestone(event.clone()));
        }
    }

    /// The 128-bit fold of `payload`'s bytes, from the memo when this
    /// round already folded its buffer.
    fn payload_fold(&mut self, round: usize, payload: &Payload) -> (u64, u64) {
        if round != self.memo_round {
            self.memo.clear();
            self.last = None;
            self.memo_round = round;
        }
        let key = (payload.as_ptr() as usize, payload.len());
        match self.last {
            Some((last_key, folded)) if last_key == key => folded,
            _ => {
                let folded = *self.memo.entry(key).or_insert_with(|| {
                    let mut p = Fold128::new();
                    p.bytes(payload);
                    (p.a, p.b)
                });
                self.last = Some((key, folded));
                folded
            }
        }
    }

    /// Replays a retained log, event by event, without retaining it again.
    fn replay(log: &TraceLog) -> Self {
        let mut recorder = Self::new(log.charges_adversary_bytes());
        for event in log.events() {
            match event {
                TraceEvent::Send {
                    round,
                    from,
                    to,
                    payload,
                    injected,
                } => recorder.send(*round, *from, *to, payload, *injected),
                TraceEvent::Milestone(m) => recorder.milestone(m),
            }
        }
        recorder
    }

    /// The session's summary, and its stream when retained.
    pub(crate) fn finish(self) -> (TraceSummary, Option<TraceLog>) {
        let digest = sha256(&self.fold.state());
        let mut hex = String::with_capacity(64);
        for byte in digest {
            hex.push_str(&format!("{byte:02x}"));
        }
        let summary = TraceSummary {
            digest: hex,
            events: self.events,
            milestones: self.milestones,
            injected_sends: self.injected_sends,
            aborts: self.aborts,
            phase_bytes: self.ledger.bytes,
        };
        (summary, self.stream)
    }
}

/// The canonical digest of a trace, hex-encoded.
///
/// Covers every event (rounds, parties, payload bytes, the injected flag,
/// milestone kinds and abort reasons) in stream order, so two executions
/// share a digest exactly when they produced the identical event stream —
/// the quantity `campaign --replay` and the backend-equivalence contract
/// compare. Payload buffers are folded once per shared buffer and round,
/// then their 128-bit fold is absorbed per event. This replays `log`
/// through the recorder the simulator folds live sessions with.
pub fn digest_hex(log: &TraceLog) -> String {
    TraceSummary::of(log).digest
}

/// A backend-independent summary of one session's trace: the canonical
/// digest, event counters, and the trace-derived abort reasons.
///
/// The simulator folds it while it records
/// ([`RunResult::trace_summary`](crate::RunResult::trace_summary)), and the
/// engine stores it in a traced `SessionReport` — compact enough to keep
/// whole sweeps in memory, complete enough for the security oracle's
/// **behavioural** identified-abort predicate (the
/// [`aborts`](TraceSummary::aborts) map comes from the simulator's
/// synthesised `Aborted { reason }` milestones, a recording path
/// independent of the report's outcome plumbing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Canonical digest of the event stream, hex-encoded (see
    /// [`digest_hex`]).
    pub digest: String,
    /// Total recorded events.
    pub events: u64,
    /// Milestone events among them.
    pub milestones: u64,
    /// Adversary-injected sends among them.
    pub injected_sends: u64,
    /// Abort reasons derived from `Aborted { reason }` milestones (a
    /// party's last one, should it have several).
    pub aborts: BTreeMap<PartyId, AbortReason>,
    /// Charged bytes per protocol phase, re-derived from the event stream
    /// by the [`PhaseLedger`] rules. Deterministic, so it rides inside the
    /// equality contract — and must equal the live `phase_bytes` of the
    /// recording execution (the conservation check).
    pub phase_bytes: PhaseBytes,
}

impl TraceSummary {
    /// Summarises a recorded log, replaying it through the recorder.
    pub fn of(log: &TraceLog) -> Self {
        TraceRecorder::replay(log).finish().0
    }
}

/// Per-phase byte attribution re-derived from a trace.
///
/// The simulator attributes every charged byte to the phase its monotone
/// milestone clock was in when the byte was sent, and returns the result
/// as `RunResult::phase_bytes`. The ledger applies the **same rules to the
/// event stream**: charge non-injected sends to the running clock, advance
/// the clock on milestones, and charge injected sends only when the
/// recording execution charged adversary bytes
/// ([`TraceLog::charges_adversary_bytes`]). Because the simulator records
/// events in exactly its charging order (a round's honest sends, then its
/// milestones, then its injections), the ledger must reconcile
/// **byte-for-byte** with the live accounting for every traced session —
/// the conservation check that keeps the metrics plane honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseLedger {
    /// Charged bytes per phase — must equal the live
    /// `RunResult::phase_bytes` of the recording execution.
    pub bytes: PhaseBytes,
    /// Injected bytes the recording execution did **not** charge (the
    /// flooding rule's exclusion), still attributed to the phase they
    /// arrived in. `bytes` and this split the stream's send bytes
    /// exactly.
    pub uncharged_injected: PhaseBytes,
}

impl PhaseLedger {
    /// Replays `log`'s event stream under the simulator's charging rules.
    pub fn of(log: &TraceLog) -> Self {
        TraceRecorder::replay(log).ledger
    }

    /// Total bytes the ledger charged — must equal
    /// `CommStats::total_bytes()` of the recording execution.
    pub fn total(&self) -> u64 {
        self.bytes.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_metrics::Phase;

    fn log() -> TraceLog {
        let mut log = TraceLog::new();
        log.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::from_vec(vec![1, 2, 3]),
            injected: false,
        });
        log.push(TraceEvent::Milestone(MilestoneEvent {
            round: 1,
            party: PartyId(1),
            milestone: Milestone::Aborted {
                reason: AbortReason::Equivocation("two keys".into()),
            },
        }));
        log
    }

    #[test]
    fn summaries_count_and_digest() {
        let summary = TraceSummary::of(&log());
        assert_eq!(summary.events, 2);
        assert_eq!(summary.milestones, 1);
        assert_eq!(summary.injected_sends, 0);
        assert_eq!(summary.digest.len(), 64);
        assert_eq!(summary.aborts.len(), 1);
        assert!(matches!(
            summary.aborts.get(&PartyId(1)),
            Some(AbortReason::Equivocation(_))
        ));
        // Deterministic.
        assert_eq!(summary, TraceSummary::of(&log()));
    }

    #[test]
    fn shared_buffers_digest_like_fresh_copies() {
        // Runs of one shared buffer (a fan-out) and a buffer coming back
        // after another must fold as their bytes do, whether the previous
        // send or the memo answers.
        let a = Payload::from_vec(vec![1, 2, 3, 4]);
        let b = Payload::from_vec(vec![9; 20]);
        let pattern = [&a, &a, &b, &a, &b, &b, &a];
        let send = |to: usize, payload: Payload| TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(to),
            payload,
            injected: false,
        };
        let mut shared = TraceLog::new();
        let mut fresh = TraceLog::new();
        for (to, payload) in pattern.into_iter().enumerate() {
            shared.push(send(to, payload.clone()));
            fresh.push(send(to, Payload::from_vec(payload.to_vec())));
        }
        assert_eq!(digest_hex(&shared), digest_hex(&fresh));
    }

    #[test]
    fn freed_buffers_do_not_answer_for_later_rounds() {
        // Without retention, a buffer is freed once delivered, and the
        // allocator tends to hand its block to the next buffer of the same
        // size. That buffer, sent a round later with other bytes, must
        // fold as its own bytes do.
        let mut streamed = TraceRecorder::new(false);
        let mut fresh = TraceLog::new();
        for round in 0..8usize {
            let bytes = vec![round as u8; 96];
            let payload = Payload::from_vec(bytes.clone());
            for to in 1..3 {
                streamed.send(round, PartyId(0), PartyId(to), &payload, false);
                fresh.push(TraceEvent::Send {
                    round,
                    from: PartyId(0),
                    to: PartyId(to),
                    payload: Payload::from_vec(bytes.clone()),
                    injected: false,
                });
            }
            drop(payload);
        }
        let (summary, stream) = streamed.finish();
        assert!(stream.is_none(), "the stream was not retained");
        assert_eq!(summary, TraceSummary::of(&fresh));
    }

    #[test]
    fn digests_separate_different_streams() {
        let base = digest_hex(&log());
        // A changed payload byte changes the digest.
        let mut changed = TraceLog::new();
        changed.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::from_vec(vec![1, 2, 4]),
            injected: false,
        });
        assert_ne!(digest_hex(&changed), base);
        // Flipping only the injected flag changes the digest too.
        let mut flipped = TraceLog::new();
        flipped.push(TraceEvent::Send {
            round: 0,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::from_vec(vec![1, 2, 3]),
            injected: true,
        });
        assert_ne!(digest_hex(&flipped), digest_hex(&log()));
        assert_eq!(digest_hex(&TraceLog::new()).len(), 64);
    }

    fn send(round: usize, bytes: usize, injected: bool) -> TraceEvent {
        TraceEvent::Send {
            round,
            from: PartyId(0),
            to: PartyId(1),
            payload: Payload::from_vec(vec![0xCD; bytes]),
            injected,
        }
    }

    fn milestone(round: usize, milestone: Milestone) -> TraceEvent {
        TraceEvent::Milestone(MilestoneEvent {
            round,
            party: PartyId(0),
            milestone,
        })
    }

    #[test]
    fn replay_attributes_by_running_phase() {
        let mut log = TraceLog::new();
        log.push(send(0, 10, false)); // Setup
        log.push(milestone(0, Milestone::CrsReady));
        log.push(send(1, 20, false)); // Crs
        log.push(milestone(1, Milestone::SharesDistributed));
        log.push(send(2, 40, false)); // Sharing
        log.push(milestone(
            2,
            Milestone::Aborted {
                reason: AbortReason::BoundViolated("x".into()),
            },
        ));
        log.push(send(3, 80, false)); // Output

        let ledger = PhaseLedger::of(&log);
        assert_eq!(ledger.bytes.get(Phase::Setup), 10);
        assert_eq!(ledger.bytes.get(Phase::Crs), 20);
        assert_eq!(ledger.bytes.get(Phase::Sharing), 40);
        assert_eq!(ledger.bytes.get(Phase::Output), 80);
        assert_eq!(ledger.total(), 150);
        assert_eq!(ledger.uncharged_injected.total(), 0);
    }

    #[test]
    fn injected_sends_follow_the_charging_flag() {
        let mut log = TraceLog::new();
        log.push(send(0, 10, false));
        log.push(send(0, 99, true));
        // Default: the execution did not charge adversary bytes.
        let ledger = PhaseLedger::of(&log);
        assert_eq!(ledger.total(), 10);
        assert_eq!(ledger.uncharged_injected.get(Phase::Setup), 99);

        log.set_charges_adversary_bytes(true);
        let charged = PhaseLedger::of(&log);
        assert_eq!(charged.total(), 109);
        assert_eq!(charged.uncharged_injected.total(), 0);
    }

    #[test]
    fn clock_is_monotone_under_straggler_milestones() {
        let mut log = TraceLog::new();
        log.push(milestone(0, Milestone::VerificationStart));
        // A straggler announcing an earlier milestone must not rewind.
        log.push(milestone(1, Milestone::CrsReady));
        log.push(send(1, 7, false));
        let ledger = PhaseLedger::of(&log);
        assert_eq!(ledger.bytes.get(Phase::Verification), 7);
    }

    #[test]
    fn injections_are_attributed_to_their_running_phase() {
        let mut log = TraceLog::new();
        log.push(send(0, 16, false));
        log.push(milestone(0, Milestone::CommitteeAnnounced));
        log.push(send(1, 32, false));
        log.push(send(1, 64, true));
        log.push(milestone(
            1,
            Milestone::Aborted {
                reason: AbortReason::Equivocation("split".into()),
            },
        ));
        log.push(send(2, 8, false));

        let ledger = PhaseLedger::of(&log);
        assert_eq!(ledger.bytes.get(Phase::Committee), 32);
        assert_eq!(ledger.uncharged_injected.get(Phase::Committee), 64);
        assert_eq!(ledger.bytes.get(Phase::Output), 8);

        log.set_charges_adversary_bytes(true);
        let charged = PhaseLedger::of(&log);
        assert_eq!(charged.bytes.get(Phase::Committee), 32 + 64);
        assert_eq!(charged.total(), 16 + 32 + 64 + 8);
    }
}
