//! Per-session and per-batch telemetry.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Duration;

use mpca_metrics::PhaseBytes;
use mpca_net::{AbortReason, CommStats, PartyId, PartyOutcome, RunResult};
use mpca_trace::TraceSummary;

/// A backend-independent digest of one honest party's terminal state.
///
/// Pools mix sessions of different protocols (different `Output` types), so
/// outputs are erased to their canonical `Debug` rendering. The rendering is
/// deterministic for the `Ord`-based types this workspace uses, which makes
/// digests comparable across backends. An abort keeps its structured
/// [`AbortReason`], so callers (e.g. the `mpca-scenario` security oracle)
/// can assert *why* a session aborted, not just that it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeDigest {
    /// The party produced this output (`Debug` rendering).
    Output(String),
    /// The party aborted with this reason.
    Aborted(AbortReason),
}

impl OutcomeDigest {
    /// Digests a typed outcome.
    pub fn from_outcome<O: Debug>(outcome: PartyOutcome<O>) -> Self {
        match outcome {
            PartyOutcome::Output(o) => OutcomeDigest::Output(format!("{o:?}")),
            PartyOutcome::Aborted(reason) => OutcomeDigest::Aborted(reason),
        }
    }

    /// `true` for [`OutcomeDigest::Aborted`].
    pub fn is_abort(&self) -> bool {
        matches!(self, OutcomeDigest::Aborted(_))
    }
}

/// The result of one pooled session.
///
/// Equality ignores [`SessionReport::wall`]: two reports are equal when the
/// *execution* (label, outcomes, statistics, rounds, inbox high-water marks)
/// is identical, which is exactly the determinism property the engine
/// guarantees across backends.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The label the session was submitted under.
    pub label: String,
    /// Digest of every honest party's terminal state, abort reasons
    /// included (part of equality: the determinism contract covers them).
    pub outcomes: BTreeMap<PartyId, OutcomeDigest>,
    /// Communication statistics of the execution.
    pub stats: CommStats,
    /// Rounds executed.
    pub rounds: usize,
    /// Peak bytes queued in the simulator's inboxes at any round boundary.
    /// Deterministic across backends (part of equality).
    pub peak_inbox_bytes: u64,
    /// Peak envelopes queued at any round boundary.
    pub peak_inbox_envelopes: u64,
    /// The trace summary of the session, when its task was traced
    /// ([`SessionTask::with_tracing`](crate::SessionTask::with_tracing)) —
    /// the canonical digest of the full event stream plus the
    /// trace-derived abort reasons. **Part of equality**: the
    /// parallel == sequential contract covers the entire event stream of a
    /// traced session, not just its aggregates.
    pub trace: Option<TraceSummary>,
    /// The **full** recorded event stream, retained only when its task asked
    /// for it ([`SessionTask::with_trace_logs`](crate::SessionTask::with_trace_logs))
    /// — the input predicate-backed oracle verdicts and the search loop
    /// evaluate over. Shared, not copied: the `Arc` keeps whole-sweep
    /// retention affordable. **Excluded from equality** (the summary's
    /// digest already covers the stream byte for byte).
    pub trace_log: Option<std::sync::Arc<mpca_net::TraceLog>>,
    /// Charged bytes attributed to each protocol phase by the simulator's
    /// milestone-driven phase clock. Deterministic across backends —
    /// **part of equality** — and its total always equals
    /// `stats.total_bytes()` (the conservation invariant).
    pub phase_bytes: PhaseBytes,
    /// Wall-clock time of this session (build + execution).
    pub wall: Duration,
    /// How long the session sat in its scheduler's admission queue before a
    /// worker picked it up — [`SessionPool`](crate::SessionPool) stamps the
    /// wait since `run()` started; open-loop drivers (the `mpca-obs` soak
    /// harness) stamp the wait since the session's arrival was admitted.
    /// Telemetry, like `wall`: **excluded from equality**.
    pub queue_wait: Duration,
}

impl PartialEq for SessionReport {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.outcomes == other.outcomes
            && self.stats == other.stats
            && self.rounds == other.rounds
            && self.peak_inbox_bytes == other.peak_inbox_bytes
            && self.peak_inbox_envelopes == other.peak_inbox_envelopes
            && self.trace == other.trace
            && self.phase_bytes == other.phase_bytes
    }
}

impl SessionReport {
    /// Digests a typed [`RunResult`], moving its statistics, trace summary
    /// and retained event stream into the report. The report carries a
    /// [`trace_log`](Self::trace_log) exactly when the simulator kept its
    /// stream ([`Simulator::record_trace`](mpca_net::Simulator::record_trace)).
    pub fn from_result<O: Debug>(
        label: impl Into<String>,
        result: RunResult<O>,
        wall: Duration,
    ) -> Self {
        let outcomes = result
            .outcomes
            .into_iter()
            .map(|(id, outcome)| (id, OutcomeDigest::from_outcome(outcome)))
            .collect();
        Self {
            label: label.into(),
            outcomes,
            stats: result.stats,
            rounds: result.rounds,
            peak_inbox_bytes: result.peak_inbox_bytes,
            peak_inbox_envelopes: result.peak_inbox_envelopes,
            trace: result.trace_summary,
            trace_log: result.trace.map(|mut log| {
                log.shrink_to_fit();
                std::sync::Arc::new(log)
            }),
            phase_bytes: result.phase_bytes,
            wall,
            queue_wait: Duration::ZERO,
        }
    }

    /// Total bytes sent in the session.
    pub fn total_bytes(&self) -> u64 {
        self.stats.total_bytes()
    }

    /// `true` if at least one honest party aborted.
    pub fn any_abort(&self) -> bool {
        self.outcomes.values().any(OutcomeDigest::is_abort)
    }

    /// Every honest party that aborted, with its structured reason, in
    /// party-id order.
    pub fn aborts(&self) -> impl Iterator<Item = (PartyId, &AbortReason)> {
        self.outcomes
            .iter()
            .filter_map(|(id, digest)| match digest {
                OutcomeDigest::Aborted(reason) => Some((*id, reason)),
                OutcomeDigest::Output(_) => None,
            })
    }
}

/// Aggregated result of a [`SessionPool`](crate::SessionPool) batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-session reports, in submission order.
    pub sessions: Vec<SessionReport>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Number of workers the batch ran on.
    pub workers: usize,
    /// Name of the backend that drove the sessions.
    pub backend: &'static str,
    /// Bytes materialised into fresh `Payload` buffers while the batch ran
    /// (process-wide counter delta over `run()`). With the zero-copy plane
    /// this sits well below `total_bytes()`: fan-out and relays share
    /// buffers instead of copying them. Telemetry only — excluded from any
    /// equality, since concurrent batches share the process counter.
    pub allocated_payload_bytes: u64,
    /// Per-session walls, sorted ascending at construction so quantile
    /// queries are O(1) lookups instead of per-call clone + sort.
    sorted_walls: Vec<Duration>,
    /// Per-session queue waits, sorted ascending at construction — same
    /// O(1) quantile contract as `sorted_walls`.
    sorted_queue_waits: Vec<Duration>,
}

impl BatchReport {
    /// Assembles a batch report, sorting the per-session walls once so
    /// [`BatchReport::wall_quantile`] and the `p50/p99` accessors are
    /// constant-time thereafter.
    pub fn new(
        sessions: Vec<SessionReport>,
        wall: Duration,
        workers: usize,
        backend: &'static str,
        allocated_payload_bytes: u64,
    ) -> Self {
        let mut sorted_walls: Vec<Duration> = sessions.iter().map(|s| s.wall).collect();
        sorted_walls.sort_unstable();
        let mut sorted_queue_waits: Vec<Duration> = sessions.iter().map(|s| s.queue_wait).collect();
        sorted_queue_waits.sort_unstable();
        Self {
            sessions,
            wall,
            workers,
            backend,
            allocated_payload_bytes,
            sorted_walls,
            sorted_queue_waits,
        }
    }
    /// Total bytes sent across all sessions.
    pub fn total_bytes(&self) -> u64 {
        self.sessions.iter().map(SessionReport::total_bytes).sum()
    }

    /// The largest per-session inbox high-water mark, in bytes.
    pub fn peak_inbox_bytes(&self) -> u64 {
        self.sessions
            .iter()
            .map(|s| s.peak_inbox_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total rounds executed across all sessions.
    pub fn total_rounds(&self) -> usize {
        self.sessions.iter().map(|s| s.rounds).sum()
    }

    /// Batch throughput in sessions per second.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions.len() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Batch throughput in protocol rounds per second.
    pub fn rounds_per_sec(&self) -> f64 {
        self.total_rounds() as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of per-session wall-clock, by the
    /// nearest-rank method — `0.5` is the median session, `1.0` the slowest.
    /// Long-campaign telemetry: a p95 far above the median means a few
    /// sessions (usually the largest `n`) dominate the batch. O(1): walls
    /// are sorted once at construction.
    pub fn wall_quantile(&self, q: f64) -> Duration {
        nearest_rank(&self.sorted_walls, q)
    }

    /// The `q`-quantile of per-session queue wait, by the same nearest-rank
    /// method as [`BatchReport::wall_quantile`] — how long sessions sat in
    /// the admission queue before a worker picked them up. A queue p99 far
    /// above the queue p50 means the batch is worker-starved, not slow.
    pub fn queue_quantile(&self, q: f64) -> Duration {
        nearest_rank(&self.sorted_queue_waits, q)
    }

    /// Median per-session queue wait.
    pub fn queue_p50(&self) -> Duration {
        self.queue_quantile(0.5)
    }

    /// 99th-percentile per-session queue wait.
    pub fn queue_p99(&self) -> Duration {
        self.queue_quantile(0.99)
    }

    /// Median per-session wall-clock.
    pub fn p50(&self) -> Duration {
        self.wall_quantile(0.5)
    }

    /// 99th-percentile per-session wall-clock — the sustained-load latency
    /// signal the fleet telemetry watches.
    pub fn p99(&self) -> Duration {
        self.wall_quantile(0.99)
    }

    /// A one-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} sessions on {} workers ({} backend): {} rounds, {} bytes sent \
             ({} allocated, peak inbox {}), {:.1} sessions/s, {:.0} rounds/s",
            self.sessions.len(),
            self.workers,
            self.backend,
            self.total_rounds(),
            self.total_bytes(),
            self.allocated_payload_bytes,
            self.peak_inbox_bytes(),
            self.sessions_per_sec(),
            self.rounds_per_sec(),
        )
    }
}

/// The `q`-quantile (`0.0 ..= 1.0`) of an ascending-sorted slice by the
/// nearest-rank method: `0.5` is the median element, `1.0` the last. An
/// empty slice answers `T::default()` (zero for durations and counters).
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1) - 1;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_metrics::Phase;
    use mpca_net::AbortReason;

    fn report(label: &str, rounds: usize, wall_ms: u64) -> SessionReport {
        let mut stats = CommStats::new();
        stats.record_send(PartyId(0), PartyId(1), 10);
        SessionReport {
            label: label.into(),
            outcomes: [(PartyId(0), OutcomeDigest::Output("42".into()))].into(),
            stats,
            rounds,
            peak_inbox_bytes: 10,
            peak_inbox_envelopes: 1,
            trace: None,
            trace_log: None,
            phase_bytes: PhaseBytes::new(),
            wall: Duration::from_millis(wall_ms),
            queue_wait: Duration::from_millis(wall_ms / 2),
        }
    }

    #[test]
    fn equality_ignores_wall_clock_and_queue_wait() {
        assert_eq!(report("a", 2, 5), report("a", 2, 500));
        assert_ne!(report("a", 2, 5), report("a", 3, 5));
        assert_ne!(report("a", 2, 5), report("b", 2, 5));
        let mut waited = report("a", 2, 5);
        waited.queue_wait = Duration::from_secs(9);
        assert_eq!(report("a", 2, 5), waited, "queue wait is telemetry");
    }

    #[test]
    fn outcome_digest_classifies() {
        let output = OutcomeDigest::from_outcome(PartyOutcome::Output(7u32));
        let abort = OutcomeDigest::from_outcome::<u32>(PartyOutcome::Aborted(
            AbortReason::Malformed("x".into()),
        ));
        assert_eq!(output, OutcomeDigest::Output("7".into()));
        assert!(!output.is_abort());
        assert!(abort.is_abort());
    }

    #[test]
    fn batch_aggregates() {
        let batch = BatchReport::new(
            vec![report("a", 2, 1), report("b", 3, 1)],
            Duration::from_millis(100),
            4,
            "parallel",
            7,
        );
        assert_eq!(batch.total_rounds(), 5);
        assert_eq!(batch.total_bytes(), 20);
        assert_eq!(batch.peak_inbox_bytes(), 10);
        assert_eq!(batch.wall_quantile(1.0), Duration::from_millis(1));
        assert!(batch.sessions_per_sec() > 19.0 && batch.sessions_per_sec() < 21.0);
        assert!(batch.summary().contains("2 sessions"));
        assert!(batch.summary().contains("7 allocated"));
    }

    #[test]
    fn wall_quantiles_rank_sessions() {
        let batch = BatchReport::new(
            vec![
                report("a", 1, 10),
                report("b", 1, 40),
                report("c", 1, 20),
                report("d", 1, 30),
            ],
            Duration::from_millis(100),
            2,
            "sequential",
            0,
        );
        assert_eq!(batch.wall_quantile(0.5), Duration::from_millis(20));
        assert_eq!(batch.wall_quantile(1.0), Duration::from_millis(40));
        assert_eq!(batch.wall_quantile(0.0), Duration::from_millis(10));
        // The convenience accessors answer from the same sorted-once cache.
        assert_eq!(batch.p50(), Duration::from_millis(20));
        assert_eq!(batch.p99(), Duration::from_millis(40));
        // Queue-wait quantiles rank independently of the walls (the helper
        // sets queue_wait = wall/2, so the same ordering at half scale).
        assert_eq!(batch.queue_p50(), Duration::from_millis(10));
        assert_eq!(batch.queue_p99(), Duration::from_millis(20));
        assert_eq!(batch.queue_quantile(0.0), Duration::from_millis(5));
        let empty = BatchReport::new(vec![], Duration::ZERO, 1, "sequential", 0);
        assert_eq!(empty.wall_quantile(0.5), Duration::ZERO);
        assert_eq!(empty.p99(), Duration::ZERO);
        assert_eq!(empty.queue_p99(), Duration::ZERO);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        assert_eq!(nearest_rank::<u64>(&[], 0.5), 0);
        assert_eq!(nearest_rank(&[10u64, 20, 30, 40], 0.5), 20);
        assert_eq!(nearest_rank(&[10u64, 20, 30, 40], 1.0), 40);
        assert_eq!(nearest_rank(&[10u64, 20, 30, 40], 0.0), 10);
    }

    #[test]
    fn equality_covers_the_inbox_high_water_marks() {
        let mut divergent = report("a", 2, 5);
        divergent.peak_inbox_bytes += 1;
        assert_ne!(report("a", 2, 5), divergent);
    }

    #[test]
    fn equality_covers_the_abort_reasons() {
        let aborted = |reason: &str| {
            let mut r = report("a", 2, 5);
            let reason = AbortReason::Malformed(reason.into());
            r.outcomes
                .insert(PartyId(0), OutcomeDigest::Aborted(reason));
            r
        };
        assert_ne!(report("a", 2, 5), aborted("junk"));
        assert_ne!(aborted("junk"), aborted("other junk"));
        assert_eq!(aborted("junk"), aborted("junk"));
    }

    #[test]
    fn from_result_records_structured_abort_reasons() {
        let reason = AbortReason::OverReceipt("too much".into());
        let result: RunResult<u32> = RunResult {
            outcomes: [
                (PartyId(0), PartyOutcome::Output(9)),
                (PartyId(1), PartyOutcome::Aborted(reason.clone())),
            ]
            .into(),
            stats: CommStats::new(),
            rounds: 1,
            peak_inbox_bytes: 0,
            peak_inbox_envelopes: 0,
            trace: None,
            trace_summary: None,
            phase_bytes: PhaseBytes::new(),
        };
        let report = SessionReport::from_result("r", result, Duration::ZERO);
        assert_eq!(report.aborts().collect::<Vec<_>>(), [(PartyId(1), &reason)]);
        assert_eq!(report.trace, None, "untraced runs digest nothing");
    }

    #[test]
    fn equality_covers_the_trace_digest() {
        let mut traced = report("a", 2, 5);
        traced.trace = Some(TraceSummary {
            digest: "aa".into(),
            events: 3,
            milestones: 1,
            injected_sends: 0,
            aborts: BTreeMap::new(),
            phase_bytes: PhaseBytes::new(),
        });
        let mut divergent = traced.clone();
        assert_eq!(traced, divergent);
        divergent.trace.as_mut().unwrap().digest = "bb".into();
        assert_ne!(traced, divergent, "a digest drift breaks equality");
        assert_ne!(traced, report("a", 2, 5), "traced != untraced");
    }

    #[test]
    fn equality_covers_phase_bytes() {
        let mut divergent = report("a", 2, 5);
        divergent.phase_bytes.charge(Phase::Sharing, 1);
        assert_ne!(
            report("a", 2, 5),
            divergent,
            "a phase-attribution drift breaks equality even when totals hide it"
        );
    }
}
