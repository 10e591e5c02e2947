//! The synchronous round-driven simulator.
//!
//! A [`Simulator`] is stepped one round at a time through its one stepping
//! entry, [`Simulator::step_round_with`], which hands the round's
//! independent [`PartyTask`]s to a [`RoundDriver`] and merges the
//! resulting [`PartyStep`]s back in party-id order. [`Simulator::run`] loops
//! it with the in-line [`InlineDriver`]; execution backends (the
//! `mpca-engine` crate) bring their own drivers. Either way,
//! [`Simulator::into_result`] turns the finished execution into a
//! [`RunResult`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mpca_metrics::{Phase, PhaseBytes, PhaseClock};

use crate::adversary::{Adversary, AdversaryCtx};
use crate::envelope::Envelope;
use crate::error::NetError;
use crate::party::{
    AbortReason, Milestone, MilestoneEvent, PartyCtx, PartyId, PartyLogic, SendOp, Step,
};
use crate::stats::CommStats;
use crate::trace::{TraceLog, TraceRecorder, TraceSummary};

/// Simulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Safety bound on the number of rounds before the simulator gives up.
    pub max_rounds: usize,
    /// Whether to charge bytes sent by corrupted parties to the statistics.
    ///
    /// The paper's communication-complexity measure only counts honest
    /// parties following the protocol, so this defaults to `false`; the
    /// flooding experiments flip it on to show that adversarial traffic is
    /// excluded from the reported numbers by construction.
    pub count_adversary_bytes: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_rounds: 10_000,
            count_adversary_bytes: false,
        }
    }
}

/// Terminal state of one honest party.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartyOutcome<O> {
    /// The party produced an output.
    Output(O),
    /// The party aborted.
    Aborted(AbortReason),
}

impl<O> PartyOutcome<O> {
    /// Returns the output if the party produced one.
    pub fn output(&self) -> Option<&O> {
        match self {
            PartyOutcome::Output(o) => Some(o),
            PartyOutcome::Aborted(_) => None,
        }
    }

    /// Returns `true` if the party aborted.
    pub fn is_abort(&self) -> bool {
        matches!(self, PartyOutcome::Aborted(_))
    }
}

/// The result of a protocol execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult<O> {
    /// Terminal state of every honest party.
    pub outcomes: BTreeMap<PartyId, PartyOutcome<O>>,
    /// Communication statistics of the execution.
    pub stats: CommStats,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Largest number of payload bytes queued for delivery at any single
    /// round boundary (honest sends plus adversarial injections). A memory
    /// high-water mark of the message plane; deterministic across round
    /// drivers, so backend-equivalence checks include it.
    pub peak_inbox_bytes: u64,
    /// Largest number of envelopes queued for delivery at any single round
    /// boundary.
    pub peak_inbox_envelopes: u64,
    /// The recorded event stream, when the execution retained it
    /// ([`Simulator::record_trace`]; `None` otherwise). Deterministic across
    /// round drivers, like everything else in the result.
    pub trace: Option<TraceLog>,
    /// The trace summary folded while recording, whenever tracing was
    /// enabled ([`Simulator::record_trace`] or
    /// [`Simulator::record_trace_summary`]; `None` otherwise). Equal to
    /// [`TraceSummary::of`] the retained stream.
    pub trace_summary: Option<TraceSummary>,
    /// Every charged byte attributed to the protocol phase the execution
    /// was in when it was sent (the milestone-driven phase clock). A pure
    /// function of the event stream — deterministic across round drivers
    /// and backends, inside the equality contract — whose total always
    /// equals [`CommStats::total_bytes`] (the conservation invariant the
    /// trace-derived `PhaseLedger` re-derives and reconciles against).
    pub phase_bytes: PhaseBytes,
}

impl<O: PartialEq + std::fmt::Debug> RunResult<O> {
    /// The set of honest parties in this execution.
    pub fn honest_parties(&self) -> BTreeSet<PartyId> {
        self.outcomes.keys().copied().collect()
    }

    /// Returns `true` if at least one honest party aborted.
    pub fn any_abort(&self) -> bool {
        self.outcomes.values().any(PartyOutcome::is_abort)
    }

    /// Returns `true` if every honest party aborted.
    pub fn all_aborted(&self) -> bool {
        self.outcomes.values().all(PartyOutcome::is_abort)
    }

    /// If **no** party aborted and all outputs are equal, returns that output.
    pub fn unanimous_output(&self) -> Option<&O> {
        let mut iter = self.outcomes.values();
        let first = iter.next()?.output()?;
        for outcome in self.outcomes.values() {
            if outcome.output() != Some(first) {
                return None;
            }
        }
        Some(first)
    }

    /// The outcome of a specific party, if it was honest.
    pub fn outcome_of(&self, id: PartyId) -> Option<&PartyOutcome<O>> {
        self.outcomes.get(&id)
    }

    /// The paper's correctness-with-abort guarantee: every honest party
    /// either output `expected` or aborted (and at least one party exists).
    pub fn correct_or_aborted(&self, expected: &O) -> bool {
        !self.outcomes.is_empty()
            && self.outcomes.values().all(|outcome| match outcome {
                PartyOutcome::Output(o) => o == expected,
                PartyOutcome::Aborted(_) => true,
            })
    }

    /// Honest-party bits sent during the execution (the paper's measure).
    pub fn honest_bits(&self) -> u64 {
        self.stats.bytes_sent_by(&self.honest_parties()) * 8
    }

    /// Maximum locality over the honest parties.
    pub fn honest_locality(&self) -> usize {
        self.stats.max_locality(&self.honest_parties())
    }
}

/// One honest party's pending work for the current round.
///
/// Produced by [`Simulator::step_round_with`] and handed to a
/// [`RoundDriver`], which may execute tasks in any order — or concurrently —
/// because tasks of one round are independent by construction (messages sent
/// in round `r` are only delivered in round `r + 1`). The simulator merges
/// the resulting [`PartyStep`]s back in ascending party-id order, so the
/// execution (outcomes, statistics, delivery order) is identical no matter
/// how the driver schedules the tasks.
#[derive(Debug)]
pub struct PartyTask<'a, L: PartyLogic> {
    id: PartyId,
    round: usize,
    n: usize,
    /// This round's deliveries, borrowed from the simulator's inbox plane —
    /// the buffers stay owned by the simulator and are reused across rounds.
    incoming: &'a [Envelope],
    logic: &'a mut L,
}

impl<L: PartyLogic> PartyTask<'_, L> {
    /// The party this task steps.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// The round being executed.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Runs the party's state machine for this round.
    pub fn execute(self) -> PartyStep<L::Output> {
        let mut ctx = PartyCtx::new(self.id, self.n);
        let step = self.logic.on_round(self.round, self.incoming, &mut ctx);
        PartyStep {
            id: self.id,
            step,
            outgoing: ctx.take_send_ops(),
            milestones: ctx.take_milestones(),
        }
    }
}

/// The result of executing one [`PartyTask`].
#[derive(Debug)]
pub struct PartyStep<O> {
    /// The party that was stepped.
    pub id: PartyId,
    /// The state-machine transition the party took.
    pub step: Step<O>,
    /// Send operations the party queued for delivery next round — batched
    /// fan-outs stay batched until the simulator charges them in one pass.
    pub outgoing: Vec<SendOp>,
    /// Protocol phase milestones the party emitted this round.
    pub milestones: Vec<Milestone>,
}

/// Executes the independent per-party tasks of one round.
///
/// Implementations choose the schedule (in-line, thread pool, …); the
/// simulator guarantees determinism by merging results in party-id order, so
/// a driver only has to return every task's [`PartyStep`] exactly once.
pub trait RoundDriver {
    /// Executes every task, returning their steps in any order.
    fn drive<L>(&self, tasks: Vec<PartyTask<'_, L>>) -> Vec<PartyStep<L::Output>>
    where
        L: PartyLogic + Send,
        L::Output: Send;
}

/// The trivial driver: executes tasks one by one on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineDriver;

impl RoundDriver for InlineDriver {
    fn drive<L>(&self, tasks: Vec<PartyTask<'_, L>>) -> Vec<PartyStep<L::Output>>
    where
        L: PartyLogic + Send,
        L::Output: Send,
    {
        tasks.into_iter().map(PartyTask::execute).collect()
    }
}

/// The synchronous network simulator.
///
/// Messages sent in round `r` are delivered at the start of round `r + 1`;
/// round `0` starts with empty inboxes. The execution ends when every honest
/// party has terminated (output or abort), or errs when `max_rounds` is hit.
///
/// See the [module documentation](self) for how an execution is stepped.
pub struct Simulator<L: PartyLogic> {
    n: usize,
    honest: BTreeMap<PartyId, L>,
    adversary: Box<dyn Adversary>,
    /// Snapshot of the adversary's (static) corruption set, taken at
    /// construction so rounds don't re-clone it.
    corrupted: BTreeSet<PartyId>,
    config: SimConfig,
    round: usize,
    stats: CommStats,
    outcomes: BTreeMap<PartyId, PartyOutcome<L::Output>>,
    /// Current-round deliveries, indexed by party id. Buffers are owned by
    /// the simulator and reused across rounds (cleared, never reallocated).
    inboxes: Vec<Vec<Envelope>>,
    /// Next-round staging, indexed by party id; swapped with `inboxes` at
    /// each round boundary.
    staging: Vec<Vec<Envelope>>,
    peak_inbox_bytes: u64,
    peak_inbox_envelopes: u64,
    trace: Option<TraceRecorder>,
    /// The milestone-driven phase clock (monotone; starts at `Setup`).
    phase: PhaseClock,
    /// Bytes charged per phase (see [`RunResult::phase_bytes`]).
    phase_bytes: PhaseBytes,
    /// Wall-microseconds spent per phase — live telemetry only, collected
    /// when the metrics plane is enabled and flushed to the registry at
    /// termination (never part of deterministic results).
    phase_wall_us: [u64; Phase::COUNT],
}

impl<L: PartyLogic> std::fmt::Debug for Simulator<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("n", &self.n)
            .field("honest", &self.honest.keys().collect::<Vec<_>>())
            .field("corrupted", &self.adversary.corrupted())
            .finish_non_exhaustive()
    }
}

impl<L: PartyLogic> Simulator<L> {
    /// Creates a simulator for an `n`-party network.
    ///
    /// `honest_parties` must contain exactly the parties in `0..n` that are
    /// **not** corrupted by `adversary`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the party sets are
    /// inconsistent.
    pub fn new(
        n: usize,
        honest_parties: Vec<L>,
        adversary: Box<dyn Adversary>,
        config: SimConfig,
    ) -> Result<Self, NetError> {
        if n == 0 {
            return Err(NetError::InvalidConfig("n must be positive".into()));
        }
        let honest: BTreeMap<PartyId, L> =
            honest_parties.into_iter().map(|p| (p.id(), p)).collect();
        let corrupted = adversary.corrupted().clone();
        for id in &corrupted {
            if id.index() >= n {
                return Err(NetError::InvalidConfig(format!(
                    "corrupted party {id} out of range for n = {n}"
                )));
            }
            if honest.contains_key(id) {
                return Err(NetError::InvalidConfig(format!(
                    "party {id} is both honest and corrupted"
                )));
            }
        }
        for id in PartyId::all(n) {
            if !corrupted.contains(&id) && !honest.contains_key(&id) {
                return Err(NetError::InvalidConfig(format!(
                    "party {id} is neither honest nor corrupted"
                )));
            }
        }
        if honest.keys().any(|id| id.index() >= n) {
            return Err(NetError::InvalidConfig("honest party out of range".into()));
        }
        Ok(Self {
            n,
            honest,
            adversary,
            corrupted,
            config,
            round: 0,
            stats: CommStats::new(),
            outcomes: BTreeMap::new(),
            inboxes: acquire_plane(n),
            staging: acquire_plane(n),
            peak_inbox_bytes: 0,
            peak_inbox_envelopes: 0,
            trace: None,
            phase: PhaseClock::new(),
            phase_bytes: PhaseBytes::new(),
            phase_wall_us: [0; Phase::COUNT],
        })
    }

    /// Enables execution tracing and retains the event stream: every
    /// charged send, adversarial injection and [`Milestone`] is appended to
    /// a [`TraceLog`] returned inside [`RunResult::trace`], and folded into
    /// the [`RunResult::trace_summary`]. Recording a send stores a shared
    /// [`Payload`](crate::Payload) window (O(1)), never a copy, and the
    /// event order follows the deterministic round merge — traces are
    /// byte-identical across round drivers and backends.
    ///
    /// Must be called before the first round is stepped (events of already
    /// executed rounds are not reconstructed).
    pub fn record_trace(&mut self) {
        self.recorder().keep_stream();
    }

    /// Enables execution tracing without retaining the stream: each event
    /// is folded into the [`RunResult::trace_summary`] as it is recorded,
    /// and none is stored, so payloads are freed once delivered. The
    /// summary equals the one [`record_trace`](Self::record_trace) gives.
    ///
    /// Must be called before the first round is stepped.
    pub fn record_trace_summary(&mut self) {
        self.recorder();
    }

    /// The session's trace recorder, created on first use.
    fn recorder(&mut self) -> &mut TraceRecorder {
        let charges = self.config.count_adversary_bytes;
        self.trace
            .get_or_insert_with(|| TraceRecorder::new(charges))
    }

    /// Convenience constructor for all-honest executions.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] when the party set is inconsistent.
    pub fn all_honest(n: usize, honest_parties: Vec<L>) -> Result<Self, NetError> {
        Self::new(
            n,
            honest_parties,
            Box::new(crate::adversary::NoAdversary::new()),
            SimConfig::default(),
        )
    }

    /// `true` once every honest party has terminated (and at least one round
    /// has run, matching the end-of-round completion check of `run`).
    pub fn is_complete(&self) -> bool {
        self.round > 0 && self.outcomes.len() == self.honest.len()
    }

    /// Number of rounds executed so far.
    pub fn rounds_executed(&self) -> usize {
        self.round
    }

    /// Honest parties that have not terminated yet, in id order.
    fn still_running(&self) -> Vec<PartyId> {
        self.honest
            .keys()
            .filter(|id| !self.outcomes.contains_key(id))
            .copied()
            .collect()
    }

    /// Executes one synchronous round, delegating the independent per-party
    /// tasks to `driver` (which may run them concurrently). The merge back
    /// into simulator state is always in ascending party-id order, so every
    /// correct driver produces a bit-for-bit identical execution. Stepping
    /// an already-complete execution is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RoundLimitExceeded`] if the execution is not
    /// complete and `max_rounds` rounds have already run.
    pub fn step_round_with<D: RoundDriver>(&mut self, driver: &D) -> Result<(), NetError>
    where
        L: Send,
        L::Output: Send,
    {
        if let Some(tasks) = self.begin_round()? {
            let steps = driver.drive(tasks);
            self.complete_round(steps);
        }
        Ok(())
    }

    /// Consumes the simulator and returns the execution result.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ExecutionIncomplete`] if honest parties have not
    /// all terminated yet (the round *limit* is enforced by
    /// `step_round_with`, not here — finishing early is not a limit
    /// overrun).
    pub fn into_result(mut self) -> Result<RunResult<L::Output>, NetError> {
        if self.is_complete() {
            // Hand the inbox planes back to the thread-local pool so the
            // next session on this thread (e.g. the engine's sequential
            // backend draining a batch) starts with warm allocations.
            release_plane(std::mem::take(&mut self.inboxes));
            release_plane(std::mem::take(&mut self.staging));
            // Mirror the session's deterministic phase accounting into the
            // live registry — one flush per session, so the hot path never
            // touches an atomic. The registry is telemetry; the returned
            // `phase_bytes` is the deterministic record.
            if mpca_metrics::enabled() {
                let registry = mpca_metrics::Registry::global();
                // Zero-valued phases flush too: the exported series set is
                // stable across sessions, which scrapers depend on.
                for (phase, bytes) in self.phase_bytes.iter() {
                    registry
                        .counter(&format!("net.phase.bytes.{phase}"))
                        .add(bytes);
                }
                for (i, wall) in self.phase_wall_us.iter().enumerate() {
                    registry
                        .counter(&format!("net.phase.wall_us.{}", Phase::ALL[i]))
                        .add(*wall);
                }
                registry.counter("net.sessions").inc();
            }
            let (trace_summary, trace) = match self.trace.take() {
                Some(recorder) => {
                    let (summary, stream) = recorder.finish();
                    (Some(summary), stream)
                }
                None => (None, None),
            };
            Ok(RunResult {
                outcomes: self.outcomes,
                stats: self.stats,
                rounds: self.round,
                peak_inbox_bytes: self.peak_inbox_bytes,
                peak_inbox_envelopes: self.peak_inbox_envelopes,
                trace,
                trace_summary,
                phase_bytes: self.phase_bytes,
            })
        } else {
            Err(NetError::ExecutionIncomplete {
                rounds_executed: self.round,
                still_running: self.still_running(),
            })
        }
    }

    /// Runs the execution to completion.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::RoundLimitExceeded`] if honest parties are still
    /// running after `max_rounds` rounds — this always indicates a protocol
    /// implementation bug, never a legal protocol outcome.
    pub fn run(mut self) -> Result<RunResult<L::Output>, NetError>
    where
        L: Send,
        L::Output: Send,
    {
        while !self.is_complete() {
            self.step_round_with(&InlineDriver)?;
        }
        self.into_result()
    }

    /// Prepares this round's tasks, or `None` when already complete.
    ///
    /// Each pending honest party's inbox is drained into a task; terminated
    /// parties are skipped (their deliveries are discarded when the round is
    /// merged).
    fn begin_round(&mut self) -> Result<Option<Vec<PartyTask<'_, L>>>, NetError> {
        if self.is_complete() {
            return Ok(None);
        }
        if self.round >= self.config.max_rounds {
            return Err(NetError::RoundLimitExceeded {
                max_rounds: self.config.max_rounds,
                still_running: self.still_running(),
            });
        }
        let round = self.round;
        let n = self.n;
        let outcomes = &self.outcomes;
        let inboxes = &self.inboxes;
        let tasks: Vec<PartyTask<'_, L>> = self
            .honest
            .iter_mut()
            .filter(|(id, _)| !outcomes.contains_key(id))
            .map(|(&id, logic)| PartyTask {
                id,
                round,
                n,
                incoming: inboxes[id.index()].as_slice(),
                logic,
            })
            .collect();
        Ok(Some(tasks))
    }

    /// Merges the executed steps back into simulator state and runs the
    /// adversary phase, advancing to the next round.
    ///
    /// Steps are merged in ascending party-id order regardless of the order
    /// the driver returned them in, which keeps statistics accumulation and
    /// message delivery deterministic.
    fn complete_round(&mut self, mut steps: Vec<PartyStep<L::Output>>) {
        let round = self.round;
        // Wall attribution is live telemetry only (clock read gated on the
        // metrics switch); the whole round is attributed to the phase it
        // *started* in, matching the byte-charging order below.
        let round_timer = mpca_metrics::enabled().then(Instant::now);
        let wall_phase = self.phase.current();
        let mut round_milestones: Vec<MilestoneEvent> = Vec::new();

        // Honest sends of round r are charged under the phase as of the
        // round's start: milestones collected this round only advance the
        // clock after the merge loop, mirroring the trace's event order
        // (sends → milestones → injections) so the trace-derived ledger
        // reconciles byte-for-byte. The phase cannot change inside the merge
        // loop, so it is resolved once for the whole round.
        let send_phase = self.phase.current();
        steps.sort_by_key(|s| s.id);
        for party_step in steps {
            for op in party_step.outgoing {
                match op {
                    SendOp::Single(envelope) => {
                        let len = envelope.payload_len();
                        self.stats.record_send(envelope.from, envelope.to, len);
                        self.phase_bytes.charge(send_phase, len as u64);
                        if let Some(trace) = &mut self.trace {
                            trace.send(round, envelope.from, envelope.to, &envelope.payload, false);
                        }
                        self.staging[envelope.to.index()].push(envelope);
                    }
                    SendOp::FanOut {
                        from,
                        recipients,
                        payload,
                    } => {
                        // One arithmetic pass for the whole fan-out: the
                        // sender's counters and the phase charge are updated
                        // once, not once per recipient. Trace events and
                        // deliveries stay per-recipient (sharing the payload
                        // buffer), so the expansion is byte-identical to the
                        // equivalent sequence of single sends.
                        let len = payload.len();
                        self.stats.record_fanout(from, &recipients, len);
                        self.phase_bytes
                            .charge(send_phase, len as u64 * recipients.len() as u64);
                        if let Some(trace) = &mut self.trace {
                            for &to in &recipients {
                                trace.send(round, from, to, &payload, false);
                            }
                        }
                        for to in recipients {
                            self.staging[to.index()].push(Envelope {
                                from,
                                to,
                                payload: payload.clone(),
                            });
                        }
                    }
                }
            }
            for milestone in party_step.milestones {
                round_milestones.push(MilestoneEvent {
                    round,
                    party: party_step.id,
                    milestone,
                });
            }
            // Terminations synthesise their milestone, so the trace's
            // `OutputDecided` / `Aborted { reason }` record is independent
            // of the outcome plumbing downstream reports are built from.
            match party_step.step {
                Step::Continue => {}
                Step::Output(output) => {
                    round_milestones.push(MilestoneEvent {
                        round,
                        party: party_step.id,
                        milestone: Milestone::OutputDecided,
                    });
                    self.outcomes
                        .insert(party_step.id, PartyOutcome::Output(output));
                }
                Step::Abort(reason) => {
                    round_milestones.push(MilestoneEvent {
                        round,
                        party: party_step.id,
                        milestone: Milestone::Aborted {
                            reason: reason.clone(),
                        },
                    });
                    self.outcomes
                        .insert(party_step.id, PartyOutcome::Aborted(reason));
                }
            }
        }
        if let Some(trace) = &mut self.trace {
            for event in &round_milestones {
                trace.milestone(event);
            }
        }
        // Advance the phase clock on this round's milestones (monotone max,
        // deterministic in the event stream). Runs whether or not tracing
        // is on — phase attribution is part of every result.
        for event in &round_milestones {
            self.phase.advance_to(event.milestone.kind().phase());
        }

        // The adversary sees everything delivered to corrupted parties this
        // round — plus the round's milestones (public protocol progress a
        // rushing adversary legitimately observes) — and injects messages
        // for next round.
        let delivered_to_corrupted: BTreeMap<PartyId, Vec<Envelope>> = self
            .corrupted
            .iter()
            .map(|id| (*id, std::mem::take(&mut self.inboxes[id.index()])))
            .collect();
        let mut adv_ctx = AdversaryCtx::new();
        self.adversary.observe_milestones(round, &round_milestones);
        self.adversary
            .on_round(round, &delivered_to_corrupted, &mut adv_ctx);
        // Injected sends are charged *after* the round's milestones advanced
        // the clock — same order as the trace records them; like the merge
        // loop's phase, resolved once for the whole injection batch.
        let inject_phase = self.phase.current();
        for envelope in adv_ctx.take_outgoing() {
            // Channels are authenticated: the adversary can only speak as
            // parties it actually corrupted.
            if !self.corrupted.contains(&envelope.from) {
                continue;
            }
            if envelope.to.index() >= self.n {
                continue;
            }
            if self.config.count_adversary_bytes {
                self.stats
                    .record_send(envelope.from, envelope.to, envelope.payload_len());
                self.phase_bytes
                    .charge(inject_phase, envelope.payload_len() as u64);
            }
            if let Some(trace) = &mut self.trace {
                // Injected sends are tagged distinctly, so the flooding
                // rule's exclusion of junk from bytes and locality is
                // recomputable from the trace alone.
                trace.send(round, envelope.from, envelope.to, &envelope.payload, true);
            }
            self.staging[envelope.to.index()].push(envelope);
        }

        // Deterministic delivery order: sort by sender id.
        let mut queued_bytes = 0u64;
        let mut queued_envelopes = 0u64;
        for queue in &mut self.staging {
            queue.sort_by_key(|e| e.from);
            queued_envelopes += queue.len() as u64;
            queued_bytes += queue.iter().map(|e| e.payload_len() as u64).sum::<u64>();
        }
        self.peak_inbox_bytes = self.peak_inbox_bytes.max(queued_bytes);
        self.peak_inbox_envelopes = self.peak_inbox_envelopes.max(queued_envelopes);
        // Swap the planes: staging becomes this round's deliveries; the old
        // delivery buffers are cleared (capacity retained) and become the
        // next staging plane. Undelivered envelopes to terminated parties
        // are discarded here, as the map-based plane did by dropping them.
        std::mem::swap(&mut self.inboxes, &mut self.staging);
        for queue in &mut self.staging {
            queue.clear();
        }
        self.round = round + 1;
        if let Some(start) = round_timer {
            self.phase_wall_us[wall_phase.index()] += start.elapsed().as_micros() as u64;
        }
    }
}

/// Bound on the thread-local plane pool: a thread drives one simulator at a
/// time (two planes), so a small stash covers back-to-back sessions without
/// pinning envelope capacity from an unusually chatty run forever.
const PLANE_POOL_LIMIT: usize = 4;

std::thread_local! {
    /// Retired inbox planes, reused by the next simulator built on this
    /// thread. Purely an allocation cache: planes are cleared on release
    /// and resized on acquire, so behaviour is identical to fresh `Vec`s.
    static PLANE_POOL: std::cell::RefCell<Vec<Vec<Vec<Envelope>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Fetches an `n`-slot inbox plane, reusing a retired plane's allocations
/// (outer vector and per-party queue capacity) when one is available.
fn acquire_plane(n: usize) -> Vec<Vec<Envelope>> {
    let recycled = PLANE_POOL.with(|pool| pool.borrow_mut().pop());
    match recycled {
        Some(mut plane) => {
            plane.resize_with(n, Vec::new);
            plane
        }
        None => (0..n).map(|_| Vec::new()).collect(),
    }
}

/// Returns a plane to the thread-local pool (cleared, capacity retained).
fn release_plane(mut plane: Vec<Vec<Envelope>>) {
    for queue in &mut plane {
        queue.clear();
    }
    PLANE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < PLANE_POOL_LIMIT {
            pool.push(plane);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoAdversary, ProxyAdversary, SilentAdversary};
    use crate::combinators::FloodBudget;

    /// A toy protocol: every party sends its value to everyone in round 0,
    /// and in round 1 outputs the sum of all received values plus its own.
    /// If it receives more than n messages it aborts (flooding rule).
    struct SumParty {
        id: PartyId,
        n: usize,
        value: u64,
    }

    impl PartyLogic for SumParty {
        type Output = u64;

        fn id(&self) -> PartyId {
            self.id
        }

        fn on_round(
            &mut self,
            round: usize,
            incoming: &[Envelope],
            ctx: &mut PartyCtx,
        ) -> Step<u64> {
            match round {
                0 => {
                    for to in PartyId::all(self.n) {
                        if to != self.id {
                            ctx.send_msg(to, &self.value);
                        }
                    }
                    Step::Continue
                }
                1 => {
                    if incoming.len() > self.n - 1 {
                        return Step::Abort(AbortReason::OverReceipt(format!(
                            "{} messages",
                            incoming.len()
                        )));
                    }
                    let mut sum = self.value;
                    for envelope in incoming {
                        match envelope.decode::<u64>() {
                            Ok(v) => sum += v,
                            Err(e) => return Step::Abort(AbortReason::Malformed(e.to_string())),
                        }
                    }
                    Step::Output(sum)
                }
                _ => unreachable!("protocol has two rounds"),
            }
        }
    }

    fn sum_parties(n: usize, skip: &BTreeSet<PartyId>) -> Vec<SumParty> {
        PartyId::all(n)
            .filter(|id| !skip.contains(id))
            .map(|id| SumParty {
                id,
                n,
                value: id.index() as u64 + 1,
            })
            .collect()
    }

    #[test]
    fn all_honest_sum() {
        let n = 5;
        let sim = Simulator::all_honest(n, sum_parties(n, &BTreeSet::new())).unwrap();
        let result = sim.run().unwrap();
        // 1 + 2 + 3 + 4 + 5 = 15.
        assert_eq!(result.unanimous_output(), Some(&15));
        assert!(!result.any_abort());
        assert_eq!(result.rounds, 2);
        // Each of 5 parties sends 4 messages of 8 bytes.
        assert_eq!(result.stats.total_bytes(), 5 * 4 * 8);
        assert_eq!(result.honest_locality(), 4);
    }

    #[test]
    fn silent_adversary_changes_sum_but_everyone_agrees_or_aborts() {
        let n = 5;
        let corrupted: BTreeSet<PartyId> = [PartyId(4)].into_iter().collect();
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(SilentAdversary::new(corrupted.clone())),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // The silent party contributes nothing: honest sum = 15 - 5 = 10.
        assert_eq!(result.unanimous_output(), Some(&10));
        assert_eq!(result.honest_parties().len(), 4);
    }

    #[test]
    fn flooding_causes_abort_not_wrong_output() {
        let n = 4;
        let corrupted: BTreeSet<PartyId> = [PartyId(3)].into_iter().collect();
        // 16-byte junk payloads fail to parse as the protocol's u64 values.
        let adversary = FloodBudget::new(corrupted.clone(), PartyId::all(n - 1), 16);
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(adversary),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // Every honest party sees the malformed flood and aborts rather than
        // producing a (potentially wrong) output.
        assert!(result.all_aborted());
    }

    #[test]
    fn proxy_adversary_honest_behaviour_is_transparent() {
        let n = 4;
        let corrupted: BTreeSet<PartyId> = [PartyId(0)].into_iter().collect();
        let corrupted_logic = sum_parties(n, &BTreeSet::new())
            .into_iter()
            .filter(|p| corrupted.contains(&p.id()));
        let adversary = ProxyAdversary::honest(corrupted_logic, n);
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(adversary),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        assert_eq!(result.unanimous_output(), Some(&10)); // 1+2+3+4
    }

    #[test]
    fn proxy_adversary_can_equivocate() {
        let n = 4;
        let corrupted: BTreeSet<PartyId> = [PartyId(0)].into_iter().collect();
        let corrupted_logic = sum_parties(n, &BTreeSet::new())
            .into_iter()
            .filter(|p| corrupted.contains(&p.id()));
        // Send value 1 to party 1 but value 100 to everyone else.
        let adversary = ProxyAdversary::new(corrupted_logic, n, |_round, envelope| {
            let mut out = envelope.clone();
            if envelope.to != PartyId(1) {
                out.payload = crate::payload::Payload::encode(&100u64);
            }
            vec![out]
        });
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(adversary),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // This toy protocol has no equivocation detection, so outputs differ —
        // which is exactly why the paper's protocols need verification steps.
        assert!(result.unanimous_output().is_none());
        assert!(!result.any_abort());
    }

    #[test]
    fn adversary_cannot_spoof_honest_senders() {
        struct Spoofer {
            corrupted: BTreeSet<PartyId>,
        }
        impl Adversary for Spoofer {
            fn corrupted(&self) -> &BTreeSet<PartyId> {
                &self.corrupted
            }
            fn on_round(
                &mut self,
                _round: usize,
                _delivered: &BTreeMap<PartyId, Vec<Envelope>>,
                ctx: &mut AdversaryCtx,
            ) {
                // Tries to speak as honest party 1.
                ctx.send_as(PartyId(1), PartyId(2), mpca_wire::to_bytes(&1_000_000u64));
            }
        }
        let n = 4;
        let corrupted: BTreeSet<PartyId> = [PartyId(0)].into_iter().collect();
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(Spoofer {
                corrupted: corrupted.clone(),
            }),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // The spoofed message is dropped by channel authentication, so honest
        // parties agree on the honest sum 2 + 3 + 4 = 9.
        assert_eq!(result.unanimous_output(), Some(&9));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        // Missing honest party 2.
        let n = 3;
        let parties = vec![
            SumParty {
                id: PartyId(0),
                n,
                value: 1,
            },
            SumParty {
                id: PartyId(1),
                n,
                value: 2,
            },
        ];
        assert!(matches!(
            Simulator::all_honest(n, parties),
            Err(NetError::InvalidConfig(_))
        ));

        // Party both honest and corrupted.
        let parties = sum_parties(2, &BTreeSet::new());
        assert!(matches!(
            Simulator::new(
                2,
                parties,
                Box::new(SilentAdversary::new([PartyId(0)])),
                SimConfig::default()
            ),
            Err(NetError::InvalidConfig(_))
        ));

        // n = 0.
        assert!(matches!(
            Simulator::<SumParty>::new(
                0,
                vec![],
                Box::new(NoAdversary::new()),
                SimConfig::default()
            ),
            Err(NetError::InvalidConfig(_))
        ));
    }

    #[test]
    fn round_limit_is_enforced() {
        /// A party that never terminates.
        struct Forever {
            id: PartyId,
        }
        impl PartyLogic for Forever {
            type Output = ();
            fn id(&self) -> PartyId {
                self.id
            }
            fn on_round(&mut self, _: usize, _: &[Envelope], _: &mut PartyCtx) -> Step<()> {
                Step::Continue
            }
        }
        let sim = Simulator::new(
            1,
            vec![Forever { id: PartyId(0) }],
            Box::new(NoAdversary::new()),
            SimConfig {
                max_rounds: 5,
                count_adversary_bytes: false,
            },
        )
        .unwrap();
        assert!(matches!(
            sim.run(),
            Err(NetError::RoundLimitExceeded { max_rounds: 5, .. })
        ));
    }

    #[test]
    fn adversary_bytes_not_counted_by_default() {
        let n = 3;
        let corrupted: BTreeSet<PartyId> = [PartyId(2)].into_iter().collect();
        let adversary = FloodBudget::new(corrupted.clone(), [PartyId(0)], 1_000);
        let sim = Simulator::new(
            n,
            sum_parties(n, &corrupted),
            Box::new(adversary),
            SimConfig::default(),
        )
        .unwrap();
        let result = sim.run().unwrap();
        // Honest parties send 2 messages of 8 bytes each; the 1000-byte junk
        // is excluded from the accounting.
        assert_eq!(result.stats.total_bytes(), 2 * 2 * 8);
    }
}
