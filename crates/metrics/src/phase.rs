//! The protocol phase vocabulary, the monotone phase clock, and the
//! fixed per-phase byte accumulator.
//!
//! The paper's protocols share a rigid phase skeleton — CRS sampling →
//! committee election → share distribution → verification → output — and
//! the milestone stream (`mpca_net::MilestoneKind`) marks exactly those
//! transitions. [`Phase`] names the intervals *between* milestones:
//! execution starts in [`Phase::Setup`] and each milestone kind advances
//! the clock to the phase it opens. The clock is **monotone**
//! (`max`-ordinal), so a straggler party re-announcing an earlier
//! milestone never moves attribution backwards — attribution stays a
//! deterministic function of the event stream.

use std::fmt;

/// A protocol phase: the interval of an execution between two milestone
/// kinds. Ordered by protocol progress; the phase clock only moves
/// forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Before any milestone: party construction, first-round sends of
    /// protocols that never announce a CRS.
    Setup,
    /// After `CrsReady`: common-randomness-derived sampling.
    Crs,
    /// After `CommitteeAnnounced`: committee/covering election traffic.
    Committee,
    /// After `SharesDistributed`: inputs/ciphertexts are out.
    Sharing,
    /// After `VerificationStart`: echoes, equality tests, consistency
    /// checks.
    Verification,
    /// After `OutputDecided` or `Aborted`: termination traffic.
    Output,
}

impl Phase {
    /// Every phase, in clock order.
    pub const ALL: [Phase; 6] = [
        Phase::Setup,
        Phase::Crs,
        Phase::Committee,
        Phase::Sharing,
        Phase::Verification,
        Phase::Output,
    ];

    /// Number of phases (the length of every per-phase array).
    pub const COUNT: usize = Self::ALL.len();

    /// The phase's index into per-phase arrays ([`PhaseBytes`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name (used in metric names, JSON, tables).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Setup => "setup",
            Phase::Crs => "crs",
            Phase::Committee => "committee",
            Phase::Sharing => "sharing",
            Phase::Verification => "verification",
            Phase::Output => "output",
        }
    }

    /// Inverse of [`name`](Phase::name).
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The monotone phase clock: starts at [`Phase::Setup`], advances to the
/// max of its current phase and every phase it is shown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseClock {
    current: Phase,
}

impl PhaseClock {
    /// A fresh clock at [`Phase::Setup`].
    pub fn new() -> Self {
        Self {
            current: Phase::Setup,
        }
    }

    /// The clock's current phase.
    pub fn current(&self) -> Phase {
        self.current
    }

    /// Advances to `phase` if it is later than the current phase
    /// (monotone `max` — never moves backwards).
    pub fn advance_to(&mut self, phase: Phase) {
        if phase > self.current {
            self.current = phase;
        }
    }
}

impl Default for PhaseClock {
    fn default() -> Self {
        Self::new()
    }
}

/// A fixed per-phase byte accumulator: one `u64` per [`Phase`], in clock
/// order. Deterministic (plain integers, no atomics) — this is the type
/// that rides inside session reports and the equality contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PhaseBytes {
    bytes: [u64; Phase::COUNT],
}

impl PhaseBytes {
    /// All-zero accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `bytes` to `phase`.
    pub fn charge(&mut self, phase: Phase, bytes: u64) {
        self.bytes[phase.index()] += bytes;
    }

    /// Bytes charged to `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        self.bytes[phase.index()]
    }

    /// Sum over all phases — the conservation invariant requires this to
    /// equal the session's `CommStats::total_bytes()`.
    pub fn total(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// `(phase, bytes)` pairs in clock order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.into_iter().map(move |p| (p, self.get(p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_order_and_names_round_trip() {
        let mut prev: Option<Phase> = None;
        for phase in Phase::ALL {
            if let Some(p) = prev {
                assert!(p < phase, "ALL is in clock order");
            }
            assert_eq!(Phase::from_name(phase.name()), Some(phase));
            assert_eq!(Phase::ALL[phase.index()], phase);
            prev = Some(phase);
        }
        assert_eq!(Phase::from_name("nonsense"), None);
    }

    #[test]
    fn clock_is_monotone() {
        let mut clock = PhaseClock::new();
        assert_eq!(clock.current(), Phase::Setup);
        clock.advance_to(Phase::Sharing);
        assert_eq!(clock.current(), Phase::Sharing);
        // A straggler's earlier milestone never rewinds the clock.
        clock.advance_to(Phase::Crs);
        assert_eq!(clock.current(), Phase::Sharing);
        clock.advance_to(Phase::Output);
        assert_eq!(clock.current(), Phase::Output);
    }

    #[test]
    fn phase_bytes_charge_and_total() {
        let mut a = PhaseBytes::new();
        a.charge(Phase::Setup, 10);
        a.charge(Phase::Verification, 5);
        a.charge(Phase::Verification, 5);
        assert_eq!(a.get(Phase::Verification), 10);
        assert_eq!(a.total(), 20);
        assert_eq!(a.iter().map(|(_, v)| v).sum::<u64>(), a.total());
    }
}
