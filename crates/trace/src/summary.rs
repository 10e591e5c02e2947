//! Canonical trace digests and per-session summaries.

use std::collections::{BTreeMap, HashMap};

use mpca_crypto::sha256;
use mpca_metrics::PhaseBytes;
use mpca_net::{AbortReason, Milestone, PartyId, TraceEvent, TraceLog};

use crate::ledger::PhaseLedger;

/// A 128-bit FNV-1a-style accumulator: two independent 64-bit lanes with
/// distinct offset bases, folded byte-wise over payloads and word-wise over
/// event metadata.
///
/// This is a **determinism checksum**, not a cryptographic commitment: it
/// separates distinct event streams except with probability ~2⁻¹²⁸ against
/// accidental divergence (replay drift, backend nondeterminism), and it is
/// fast enough — one multiply per lane per byte, payload buffers memoized —
/// to leave tracing on for whole campaign sweeps (the `E17-trace`
/// experiment measures the whole traced path, stream retention and the
/// predicate oracle included, at +35–40 % over untraced on the tiny
/// sweep). The final state is sealed with SHA-256 only to render a
/// conventional 64-hex digest string.
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

/// The canonical digest of a trace, hex-encoded.
///
/// Covers every event (rounds, parties, payload bytes, the injected flag,
/// milestone kinds and abort reasons) in stream order, so two executions
/// share a digest exactly when they produced the identical event stream —
/// the quantity `campaign --replay` and the backend-equivalence contract
/// compare. Payload buffers are folded once per **shared buffer** (the
/// zero-copy plane hands fan-outs and flood junk the same `Arc` window, so
/// the memo turns n-recipient broadcasts into one hash), then their 128-bit
/// fold is absorbed per event.
pub fn digest_hex(log: &TraceLog) -> String {
    // Memo key: the shared window's address and length. Buffer identity is
    // an optimisation only — equal bytes in distinct buffers fold equally,
    // because the memo value depends on the bytes alone.
    let mut memo: HashMap<(usize, usize), (u64, u64)> = HashMap::new();
    // A fan-out's events are consecutive and share one buffer, so the
    // previous send's key and fold answer most lookups before the map.
    let mut last: Option<((usize, usize), (u64, u64))> = None;
    let mut fold = Fold128::new();
    for event in log.events() {
        match event {
            TraceEvent::Send {
                round,
                from,
                to,
                payload,
                injected,
            } => {
                fold.word(0x5E);
                fold.word(u64::from(*injected));
                fold.word(*round as u64);
                fold.word(from.index() as u64);
                fold.word(to.index() as u64);
                let key = (payload.as_ptr() as usize, payload.len());
                let (pa, pb) = match last {
                    Some((last_key, folded)) if last_key == key => folded,
                    _ => {
                        let folded = *memo.entry(key).or_insert_with(|| {
                            let mut p = Fold128::new();
                            p.bytes(payload);
                            (p.a, p.b)
                        });
                        last = Some((key, folded));
                        folded
                    }
                };
                fold.word(pa);
                fold.word(pb);
            }
            TraceEvent::Milestone(event) => {
                fold.word(0x31);
                fold.word(event.round as u64);
                fold.word(event.party.index() as u64);
                fold.bytes(event.milestone.kind().name().as_bytes());
                if let Milestone::Aborted { reason } = &event.milestone {
                    fold.bytes(reason.to_string().as_bytes());
                }
            }
        }
    }
    let digest = sha256(&fold.state());
    let mut out = String::with_capacity(64);
    for byte in digest {
        out.push_str(&format!("{byte:02x}"));
    }
    out
}

/// A backend-independent summary of one session's trace: the canonical
/// digest, event counters, and the trace-derived abort reasons.
///
/// This is what the engine stores in a traced `SessionReport` — compact
/// enough to keep whole sweeps in memory, complete enough for the
/// security oracle's **behavioural** identified-abort predicate (the
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
    /// Abort reasons derived from `Aborted { reason }` milestones.
    pub aborts: BTreeMap<PartyId, AbortReason>,
    /// Charged bytes per protocol phase, re-derived from the event stream
    /// by the [`PhaseLedger`](crate::PhaseLedger). Deterministic, so it
    /// rides inside the equality contract — and must equal the live
    /// `phase_bytes` of the recording execution (the conservation check).
    pub phase_bytes: PhaseBytes,
}

impl TraceSummary {
    /// Summarises a recorded log.
    pub fn of(log: &TraceLog) -> Self {
        Self {
            digest: digest_hex(log),
            events: log.len() as u64,
            milestones: log.milestones().count() as u64,
            injected_sends: log.injected_sends(),
            aborts: log.abort_reasons(),
            phase_bytes: PhaseLedger::of(log).bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::{MilestoneEvent, Payload};

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
}
