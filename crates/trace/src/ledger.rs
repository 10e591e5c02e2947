//! The trace-derived phase ledger: re-deriving per-phase byte
//! attribution from the recorded event stream alone.
//!
//! The simulator attributes every charged byte to the phase its monotone
//! milestone clock was in when the byte was sent, and returns the result
//! as `RunResult::phase_bytes`. A [`PhaseLedger`] replays the **same
//! rules over the trace**: walk the event stream in order, charge
//! non-injected sends to the running clock, advance the clock on
//! milestones, and charge injected sends only when the recording
//! execution charged adversary bytes
//! ([`TraceLog::charges_adversary_bytes`]). Because the simulator
//! records events in exactly its charging order (a round's honest sends,
//! then its milestones, then its injections), the ledger must reconcile
//! **byte-for-byte** with the live accounting for every traced session —
//! the conservation check that keeps the metrics plane honest, enforced
//! by `tests/proptest_phase_metrics.rs` across every protocol family and
//! both backends.

use mpca_metrics::{PhaseBytes, PhaseClock};
use mpca_net::{TraceEvent, TraceLog};

/// Per-phase byte attribution re-derived from a trace.
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
        let charges_adversary = log.charges_adversary_bytes();
        let mut clock = PhaseClock::new();
        let mut ledger = PhaseLedger::default();
        for event in log.events() {
            match event {
                TraceEvent::Send {
                    payload, injected, ..
                } => {
                    let side = if !injected || charges_adversary {
                        &mut ledger.bytes
                    } else {
                        &mut ledger.uncharged_injected
                    };
                    side.charge(clock.current(), payload.len() as u64);
                }
                TraceEvent::Milestone(m) => clock.advance_to(m.milestone.kind().phase()),
            }
        }
        ledger
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
    use mpca_net::{Milestone, MilestoneEvent, PartyId, Payload};

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
                reason: mpca_net::AbortReason::BoundViolated("x".into()),
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
                reason: mpca_net::AbortReason::Equivocation("split".into()),
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
