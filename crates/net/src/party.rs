//! Party identities and the protocol state-machine interface.

use std::fmt;

use mpca_wire::{Decode, Encode, Reader, WireError, Writer};

use crate::envelope::Envelope;
use crate::payload::Payload;

/// Identifier of a party, in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartyId(pub usize);

impl PartyId {
    /// The numeric index.
    pub fn index(self) -> usize {
        self.0
    }

    /// Iterator over all party ids `0..n`.
    pub fn all(n: usize) -> impl Iterator<Item = PartyId> {
        (0..n).map(PartyId)
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<usize> for PartyId {
    fn from(value: usize) -> Self {
        PartyId(value)
    }
}

impl Encode for PartyId {
    fn encode(&self, w: &mut Writer) {
        w.put_uvarint(self.0 as u64);
    }
    fn encoded_len(&self) -> usize {
        mpca_wire::uvarint_len(self.0 as u64)
    }
}

impl Decode for PartyId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = r.get_uvarint()?;
        Ok(PartyId(
            usize::try_from(v).map_err(|_| WireError::LengthOverflow { declared: v })?,
        ))
    }
}

/// Why a party aborted.
///
/// MPC *with selective abort* permits any honest party to abort instead of
/// producing an output when it detects malicious behaviour; the reason is
/// recorded for diagnostics and assertions in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AbortReason {
    /// Two messages that were required to be equal differed (equivocation).
    Equivocation(String),
    /// A succinct equality test between two views rejected.
    EqualityTestFailed(String),
    /// The party received more messages or bytes than the protocol
    /// prescribes (the paper's flooding rule, §3.1).
    OverReceipt(String),
    /// A message failed to parse or failed a validity check.
    Malformed(String),
    /// A required message never arrived.
    MissingMessage(String),
    /// A cryptographic verification (signature, MAC, commitment) failed.
    CryptoFailure(String),
    /// Another party propagated a warning/abort notification.
    PeerAbort(String),
    /// A protocol-specific bound was violated (e.g. committee too large).
    BoundViolated(String),
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::Equivocation(s) => write!(f, "equivocation detected: {s}"),
            AbortReason::EqualityTestFailed(s) => write!(f, "equality test failed: {s}"),
            AbortReason::OverReceipt(s) => write!(f, "received more than prescribed: {s}"),
            AbortReason::Malformed(s) => write!(f, "malformed message: {s}"),
            AbortReason::MissingMessage(s) => write!(f, "missing message: {s}"),
            AbortReason::CryptoFailure(s) => write!(f, "cryptographic check failed: {s}"),
            AbortReason::PeerAbort(s) => write!(f, "peer aborted: {s}"),
            AbortReason::BoundViolated(s) => write!(f, "protocol bound violated: {s}"),
        }
    }
}

/// A typed protocol **phase marker** emitted by party logic (or synthesised
/// by the simulator at termination).
///
/// The paper's protocols are phased — CRS draw, committee announcement,
/// share distribution, verification, output/abort — but envelopes alone show
/// none of that structure. Milestones make the phases first-class: protocols
/// emit them through [`PartyCtx::milestone`], the simulator records them in
/// the execution trace, and adversaries observe them (they model *public*
/// protocol progress a rushing adversary legitimately knows), which is what
/// protocol-aware triggers like
/// [`TriggerWhen::at_milestone`](crate::TriggerWhen::at_milestone) arm on.
///
/// Milestones are out-of-band: emitting one sends no bytes and never changes
/// [`CommStats`](crate::CommStats).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Milestone {
    /// CRS-derived shared state (matrices, election coins) is in place; the
    /// protocol proper begins.
    CrsReady,
    /// The party has settled its committee view (Algorithm 2 / 7 output).
    CommitteeAnnounced,
    /// The party has distributed its input shares / ciphertexts.
    SharesDistributed,
    /// The party has started a verification phase (echoes, pairwise
    /// equality tests).
    VerificationStart,
    /// The party terminated with an output (synthesised by the simulator).
    OutputDecided,
    /// The party aborted (synthesised by the simulator from
    /// [`Step::Abort`]).
    Aborted {
        /// Why the party aborted.
        reason: AbortReason,
    },
}

impl Milestone {
    /// The payload-free kind of this milestone (what triggers match on).
    pub fn kind(&self) -> MilestoneKind {
        match self {
            Milestone::CrsReady => MilestoneKind::CrsReady,
            Milestone::CommitteeAnnounced => MilestoneKind::CommitteeAnnounced,
            Milestone::SharesDistributed => MilestoneKind::SharesDistributed,
            Milestone::VerificationStart => MilestoneKind::VerificationStart,
            Milestone::OutputDecided => MilestoneKind::OutputDecided,
            Milestone::Aborted { .. } => MilestoneKind::Aborted,
        }
    }
}

/// The payload-free taxonomy of [`Milestone`]s — `Copy`, `Ord`, nameable —
/// used by triggers, scenario specs and trace digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MilestoneKind {
    /// See [`Milestone::CrsReady`].
    CrsReady,
    /// See [`Milestone::CommitteeAnnounced`].
    CommitteeAnnounced,
    /// See [`Milestone::SharesDistributed`].
    SharesDistributed,
    /// See [`Milestone::VerificationStart`].
    VerificationStart,
    /// See [`Milestone::OutputDecided`].
    OutputDecided,
    /// See [`Milestone::Aborted`].
    Aborted,
}

impl MilestoneKind {
    /// Every kind, in phase order.
    pub const ALL: [MilestoneKind; 6] = [
        MilestoneKind::CrsReady,
        MilestoneKind::CommitteeAnnounced,
        MilestoneKind::SharesDistributed,
        MilestoneKind::VerificationStart,
        MilestoneKind::OutputDecided,
        MilestoneKind::Aborted,
    ];

    /// Short stable name (used in labels and trace renderings).
    pub fn name(self) -> &'static str {
        match self {
            MilestoneKind::CrsReady => "crs-ready",
            MilestoneKind::CommitteeAnnounced => "committee-announced",
            MilestoneKind::SharesDistributed => "shares-distributed",
            MilestoneKind::VerificationStart => "verification-start",
            MilestoneKind::OutputDecided => "output-decided",
            MilestoneKind::Aborted => "aborted",
        }
    }

    /// The inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<MilestoneKind> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The [`Phase`](mpca_metrics::Phase) this milestone kind **opens**:
    /// the simulator's phase clock advances to it when the milestone is
    /// observed, and every byte charged afterwards is attributed there.
    /// `OutputDecided` and `Aborted` both open the terminal
    /// [`Phase::Output`](mpca_metrics::Phase::Output).
    pub fn phase(self) -> mpca_metrics::Phase {
        use mpca_metrics::Phase;
        match self {
            MilestoneKind::CrsReady => Phase::Crs,
            MilestoneKind::CommitteeAnnounced => Phase::Committee,
            MilestoneKind::SharesDistributed => Phase::Sharing,
            MilestoneKind::VerificationStart => Phase::Verification,
            MilestoneKind::OutputDecided | MilestoneKind::Aborted => Phase::Output,
        }
    }
}

impl fmt::Display for MilestoneKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One milestone occurrence: which party reached which phase in which round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MilestoneEvent {
    /// The round the milestone was emitted in.
    pub round: usize,
    /// The party that reached the phase.
    pub party: PartyId,
    /// The milestone itself.
    pub milestone: Milestone,
}

/// The result of one round of a party's state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<O> {
    /// The party has more rounds to run.
    Continue,
    /// The party terminated with an output.
    Output(O),
    /// The party aborted (selective abort).
    Abort(AbortReason),
}

impl<O> Step<O> {
    /// Returns `true` for [`Step::Continue`].
    pub fn is_continue(&self) -> bool {
        matches!(self, Step::Continue)
    }
}

/// The interface a protocol party exposes to the simulator.
///
/// The simulator calls [`PartyLogic::on_round`] once per synchronous round,
/// passing all envelopes delivered to the party this round (messages sent in
/// round `r` are delivered in round `r + 1`; round `0` has no deliveries).
pub trait PartyLogic {
    /// The output type of the functionality being computed.
    type Output;

    /// This party's identity.
    fn id(&self) -> PartyId;

    /// Processes one synchronous round.
    fn on_round(
        &mut self,
        round: usize,
        incoming: &[Envelope],
        ctx: &mut PartyCtx,
    ) -> Step<Self::Output>;
}

/// One queued send operation: a single point-to-point envelope, or a
/// batched fan-out of one shared payload to many recipients.
///
/// The fan-out form is what lets the simulator charge `CommStats`, phase
/// bytes and inbox routing for an n-recipient broadcast in one arithmetic
/// pass instead of n per-envelope map walks. Expanding a `FanOut` yields
/// exactly the envelopes the equivalent sequence of [`SendOp::Single`]s
/// would — delivery order, byte accounting and trace digests are identical
/// by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendOp {
    /// One point-to-point envelope.
    Single(Envelope),
    /// The same shared payload from `from` to each recipient, in order.
    FanOut {
        /// The sender.
        from: PartyId,
        /// Recipients, in send order (duplicates are legal and charged per
        /// occurrence, exactly like repeated `send` calls).
        recipients: Vec<PartyId>,
        /// The shared message body (O(1) to clone per recipient).
        payload: Payload,
    },
}

impl SendOp {
    /// Expands the operation into per-recipient envelopes, in send order.
    pub fn expand_into(self, out: &mut Vec<Envelope>) {
        match self {
            SendOp::Single(envelope) => out.push(envelope),
            SendOp::FanOut {
                from,
                recipients,
                payload,
            } => {
                out.reserve(recipients.len());
                for to in recipients {
                    out.push(Envelope {
                        from,
                        to,
                        payload: payload.clone(),
                    });
                }
            }
        }
    }
}

/// Test-only switch routing [`PartyCtx::send_payload_to_all`] through the
/// naive per-envelope path instead of emitting a batched [`SendOp::FanOut`].
///
/// The hot-path property tests flip this to prove the batched accounting is
/// byte-identical to the reference implementation. Process-global; never set
/// it outside tests.
pub fn set_naive_fanout_for_tests(on: bool) {
    NAIVE_FANOUT.store(on, std::sync::atomic::Ordering::SeqCst);
}

static NAIVE_FANOUT: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn naive_fanout() -> bool {
    NAIVE_FANOUT.load(std::sync::atomic::Ordering::Relaxed)
}

/// Per-round context handed to a party, used to send messages.
#[derive(Debug)]
pub struct PartyCtx {
    id: PartyId,
    n: usize,
    outgoing: Vec<SendOp>,
    milestones: Vec<Milestone>,
}

impl PartyCtx {
    /// Creates a context for party `id` in an `n`-party network.
    pub fn new(id: PartyId, n: usize) -> Self {
        Self {
            id,
            n,
            outgoing: Vec::new(),
            milestones: Vec::new(),
        }
    }

    /// Number of parties in the network.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The party this context belongs to.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// Queues a message to `to`, to be delivered next round.
    ///
    /// Accepts anything convertible into a [`Payload`]; pass a `Payload`
    /// handle (or clone of one) to share an already-materialised buffer.
    ///
    /// Sending to oneself is allowed but pointless; it is counted like any
    /// other message so protocols avoid it.
    pub fn send(&mut self, to: PartyId, payload: impl Into<Payload>) {
        debug_assert!(to.index() < self.n, "recipient {to} out of range");
        self.outgoing.push(SendOp::Single(Envelope {
            from: self.id,
            to,
            payload: payload.into(),
        }));
    }

    /// Queues an encodable message to `to`.
    pub fn send_msg<T: Encode + ?Sized>(&mut self, to: PartyId, msg: &T) {
        self.send(to, Payload::encode(msg));
    }

    /// Queues the same encodable message to every party in `recipients`.
    ///
    /// The message is encoded **once**; every recipient's envelope shares
    /// the same buffer (O(1) per extra recipient).
    pub fn send_to_all<T: Encode + ?Sized>(
        &mut self,
        recipients: impl IntoIterator<Item = PartyId>,
        msg: &T,
    ) {
        self.send_payload_to_all(recipients, &Payload::encode(msg));
    }

    /// Queues an already-materialised payload to every party in
    /// `recipients`, sharing the buffer (O(1) per recipient).
    ///
    /// Emits one batched [`SendOp::FanOut`], which the simulator charges in
    /// a single arithmetic pass — observably identical to calling
    /// [`send`](Self::send) per recipient, just without the per-envelope
    /// accounting walks.
    pub fn send_payload_to_all(
        &mut self,
        recipients: impl IntoIterator<Item = PartyId>,
        payload: &Payload,
    ) {
        if naive_fanout() {
            for to in recipients {
                self.send(to, payload.clone());
            }
            return;
        }
        let recipients: Vec<PartyId> = recipients.into_iter().collect();
        if recipients.is_empty() {
            return;
        }
        debug_assert!(
            recipients.iter().all(|to| to.index() < self.n),
            "fan-out recipient out of range"
        );
        self.outgoing.push(SendOp::FanOut {
            from: self.id,
            recipients,
            payload: payload.clone(),
        });
    }

    /// Drains the queued sends as per-recipient envelopes, expanding any
    /// batched fan-outs (adversary proxies rewrite individual envelopes).
    pub fn take_outgoing(&mut self) -> Vec<Envelope> {
        let mut out = Vec::new();
        for op in std::mem::take(&mut self.outgoing) {
            op.expand_into(&mut out);
        }
        out
    }

    /// Drains the queued sends in batched form (used by the simulator).
    pub fn take_send_ops(&mut self) -> Vec<SendOp> {
        std::mem::take(&mut self.outgoing)
    }

    /// Emits a protocol phase [`Milestone`] for this round.
    ///
    /// Milestones are out-of-band markers: they send no bytes, charge
    /// nothing to [`CommStats`](crate::CommStats), and are recorded in the
    /// execution trace (and shown to the adversary) by the simulator.
    pub fn milestone(&mut self, milestone: Milestone) {
        self.milestones.push(milestone);
    }

    /// Drains the emitted milestones (used by the simulator).
    pub fn take_milestones(&mut self) -> Vec<Milestone> {
        std::mem::take(&mut self.milestones)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_id_display_and_conversion() {
        let id: PartyId = 7usize.into();
        assert_eq!(id.to_string(), "P7");
        assert_eq!(id.index(), 7);
        let all: Vec<PartyId> = PartyId::all(3).collect();
        assert_eq!(all, vec![PartyId(0), PartyId(1), PartyId(2)]);
    }

    #[test]
    fn party_id_wire_round_trip() {
        for i in [0usize, 1, 127, 128, 100_000] {
            let id = PartyId(i);
            let back: PartyId = mpca_wire::from_bytes(&mpca_wire::to_bytes(&id)).unwrap();
            assert_eq!(back, id);
        }
    }

    #[test]
    fn ctx_collects_outgoing() {
        let mut ctx = PartyCtx::new(PartyId(0), 4);
        ctx.send(PartyId(1), vec![1, 2, 3]);
        ctx.send_msg(PartyId(2), &42u64);
        ctx.send_to_all(PartyId::all(4), &1u8);
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0].to, PartyId(1));
        assert_eq!(out[0].payload, vec![1, 2, 3]);
        assert!(ctx.take_outgoing().is_empty());
    }

    #[test]
    fn send_to_all_materialises_the_message_once() {
        let n = 64;
        let mut ctx = PartyCtx::new(PartyId(0), n);
        ctx.send_to_all(PartyId::all(n), &vec![0xEEu8; 256]);
        let out = ctx.take_outgoing();
        assert_eq!(out.len(), n);
        // Buffer identity across every envelope proves a single
        // materialisation shared by all recipients.
        assert!(out.windows(2).all(|w| w[0].payload.ptr_eq(&w[1].payload)));
    }

    #[test]
    fn abort_reasons_display() {
        let reason = AbortReason::Equivocation("two public keys".into());
        assert!(reason.to_string().contains("equivocation"));
        assert!(Step::<()>::Continue.is_continue());
        assert!(!Step::<()>::Abort(reason).is_continue());
    }
}
