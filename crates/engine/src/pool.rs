//! The session pool: many independent protocol sessions over a bounded
//! worker pool.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpca_net::{NetError, PartyLogic, PayloadAllocStats, Simulator};

use crate::backend::ExecutionBackend;
use crate::report::{BatchReport, SessionReport};

type SessionJob<B> = Box<dyn FnOnce(&B, bool, bool) -> Result<SessionReport, NetError> + Send>;

/// One schedulable session, erased to a label plus a deferred
/// build-and-execute closure over an [`ExecutionBackend`].
///
/// A task carries its own tracing and retention settings, so one batch can
/// mix untraced, digest-only and stream-retaining sessions.
/// [`SessionPool::submit_task`] schedules it; any driver with its own
/// scheduling policy (the `mpca-obs` soak harness runs an open-loop arrival
/// schedule with a bounded admission queue) can instead [`run`](Self::run)
/// it on its own workers — producing the same [`SessionReport`] a pool batch
/// would.
pub struct SessionTask<B: ExecutionBackend> {
    label: String,
    tracing: bool,
    keep_logs: bool,
    job: SessionJob<B>,
}

impl<B: ExecutionBackend> SessionTask<B> {
    /// Wraps a simulator constructor into a schedulable task. `build` runs
    /// on whatever thread eventually calls [`run`](Self::run), so
    /// construction cost (keygen, input encryption, …) is part of the
    /// session's wall-clock — same contract as [`SessionPool::submit`].
    pub fn new<L, F>(label: impl Into<String>, build: F) -> Self
    where
        L: PartyLogic + Send + 'static,
        L::Output: Debug + Send,
        F: FnOnce() -> Result<Simulator<L>, NetError> + Send + 'static,
    {
        let label = label.into();
        let job_label = label.clone();
        Self {
            label,
            tracing: false,
            keep_logs: false,
            job: Box::new(move |backend: &B, tracing: bool, keep_logs: bool| {
                let start = Instant::now();
                let mut sim = build()?;
                // A session that keeps its stream records it; any other
                // traced session folds only its summary.
                match (tracing, keep_logs) {
                    (true, true) => sim.record_trace(),
                    (true, false) => sim.record_trace_summary(),
                    (false, _) => {}
                }
                let result = backend.execute(sim)?;
                Ok(SessionReport::from_result(
                    job_label,
                    result,
                    start.elapsed(),
                ))
            }),
        }
    }

    /// Enables execution tracing for this task (the report carries a
    /// [`TraceSummary`](mpca_trace::TraceSummary) digest, folded while the
    /// session records; no event is stored unless
    /// [`with_trace_logs`](Self::with_trace_logs) asks for the stream).
    pub fn with_tracing(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Additionally retains the full event stream as
    /// [`SessionReport::trace_log`] (no effect unless tracing is enabled).
    pub fn with_trace_logs(mut self, keep: bool) -> Self {
        self.keep_logs = keep;
        self
    }

    /// The label the task was created under.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds and executes the session on `backend`, consuming the task.
    ///
    /// # Errors
    ///
    /// Whatever the simulator constructor or execution surfaces (invalid
    /// configuration, round-limit overrun).
    pub fn run(self, backend: &B) -> Result<SessionReport, NetError> {
        (self.job)(backend, self.tracing, self.keep_logs)
    }
}

/// One completed-session notification delivered to a pool progress
/// observer (see [`SessionPool::with_progress`]): enough to narrate a
/// long-running campaign without waiting for the final [`BatchReport`].
#[derive(Debug, Clone)]
pub struct SessionProgress {
    /// Sessions completed so far, including this one.
    pub completed: usize,
    /// Total sessions in the batch.
    pub total: usize,
    /// Label of the session that just finished.
    pub label: String,
    /// Wall-clock of that session (build + execution), when it succeeded.
    pub wall: Option<Duration>,
}

type ProgressFn = Box<dyn Fn(SessionProgress) + Send + Sync>;

/// Schedules many independent protocol sessions across a bounded worker
/// pool, driving each with a shared [`ExecutionBackend`].
///
/// Sessions are heterogeneous: any mix of protocols and `(n, h)` parameters
/// can ride in one batch, because each submission captures its own simulator
/// constructor and results are erased to [`SessionReport`]s. Reports come
/// back in submission order regardless of completion order.
pub struct SessionPool<B: ExecutionBackend> {
    backend: B,
    workers: usize,
    sessions: Vec<SessionTask<B>>,
    progress: Option<ProgressFn>,
}

impl<B: ExecutionBackend> SessionPool<B> {
    /// A pool over `backend` sized to the machine's available parallelism.
    pub fn new(backend: B) -> Self {
        Self {
            backend,
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            sessions: Vec::new(),
            progress: None,
        }
    }

    /// Bounds the pool to `workers` concurrent sessions (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Installs a progress observer: called once per completed session, from
    /// whichever worker thread finished it — invocations can run
    /// concurrently, so the callback must be `Sync`. `completed` counts are
    /// unique and cover `1..=total`, but **delivery order is not
    /// guaranteed** with multiple workers (an observer can see `completed =
    /// 2` before `1`); order-sensitive observers must sort or track a max
    /// themselves. Long campaigns use this to narrate hundreds of sessions
    /// while the batch is still running; completion order is
    /// scheduling-dependent even though the final reports are not.
    pub fn with_progress(
        mut self,
        observer: impl Fn(SessionProgress) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(Box::new(observer));
        self
    }

    /// Reserves capacity for `additional` further submissions. Bulk
    /// submitters (campaigns, sweeps) know their batch length upfront;
    /// reserving keeps the submission loop from growing the session vector
    /// repeatedly.
    pub fn reserve(&mut self, additional: usize) {
        self.sessions.reserve(additional);
    }

    /// Number of sessions submitted so far.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` when no sessions have been submitted.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Submits an untraced session.
    ///
    /// `build` constructs the session's simulator; it runs on a worker
    /// thread, so construction cost (keygen, input encryption, …) is part of
    /// the parallelised work. The session's wall-clock therefore covers
    /// build + execution.
    pub fn submit<L, F>(&mut self, label: impl Into<String>, build: F)
    where
        L: PartyLogic + Send + 'static,
        L::Output: Debug + Send,
        F: FnOnce() -> Result<Simulator<L>, NetError> + Send + 'static,
    {
        self.submit_task(SessionTask::new(label, build));
    }

    /// Submits a [`SessionTask`]; its tracing and retention settings
    /// ([`SessionTask::with_tracing`], [`SessionTask::with_trace_logs`])
    /// decide what its report carries.
    pub fn submit_task(&mut self, task: SessionTask<B>) {
        self.sessions.push(task);
    }

    /// Runs every submitted session and aggregates the batch.
    ///
    /// # Errors
    ///
    /// If any session fails (invalid configuration or round-limit overrun),
    /// the error of the earliest-submitted failing session is returned; the
    /// remaining sessions still run to completion.
    pub fn run(self) -> Result<BatchReport, NetError> {
        let total = self.sessions.len();
        let workers = self.workers.min(total).max(1);
        let backend = &self.backend;
        // Pre-size the scheduling structures from the batch length: the
        // queue, the result slots and the final report vector all have
        // exactly `total` entries, so none of them should grow under the
        // worker threads.
        let mut pending: VecDeque<(usize, SessionTask<B>)> = VecDeque::with_capacity(total);
        pending.extend(self.sessions.into_iter().enumerate());
        let queue: Mutex<VecDeque<(usize, SessionTask<B>)>> = Mutex::new(pending);
        let mut slots: Vec<Mutex<Option<Result<SessionReport, NetError>>>> =
            Vec::with_capacity(total);
        slots.resize_with(total, || Mutex::new(None));

        let progress = self.progress.as_deref();
        let completed = AtomicUsize::new(0);
        let start = Instant::now();
        let alloc_before = PayloadAllocStats::snapshot();
        // Sustained-load latency telemetry: per-session wall and queue-wait
        // histograms. One relaxed load when the metrics plane is off.
        let telemetry = mpca_metrics::enabled().then(|| {
            let registry = mpca_metrics::Registry::global();
            (
                registry.histogram("engine.session.wall_us"),
                registry.histogram("engine.session.queue_us"),
            )
        });
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = queue.lock().expect("pool queue poisoned").pop_front();
                    let Some((index, task)) = next else {
                        break;
                    };
                    // Queue wait: how long the session sat in the queue
                    // after run() started before a worker picked it up.
                    // Measured unconditionally (one Instant read) so every
                    // report carries it; the histogram stays metrics-gated.
                    let queue_wait = start.elapsed();
                    if let Some((_, queue_hist)) = telemetry {
                        queue_hist.record(queue_wait.as_micros() as u64);
                    }
                    let mut outcome = task.run(backend);
                    if let Ok(report) = &mut outcome {
                        report.queue_wait = queue_wait;
                    }
                    if let (Some((wall_hist, _)), Ok(report)) = (telemetry, &outcome) {
                        wall_hist.record(report.wall.as_micros() as u64);
                    }
                    if let Some(observer) = progress {
                        observer(SessionProgress {
                            completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                            total,
                            label: match &outcome {
                                Ok(report) => report.label.clone(),
                                Err(_) => format!("session #{index}"),
                            },
                            wall: outcome.as_ref().ok().map(|r| r.wall),
                        });
                    }
                    *slots[index].lock().expect("pool slot poisoned") = Some(outcome);
                });
            }
        });
        let wall = start.elapsed();
        let allocated = PayloadAllocStats::snapshot().since(alloc_before);

        let mut sessions = Vec::with_capacity(total);
        for slot in slots {
            let outcome = slot
                .into_inner()
                .expect("pool slot poisoned")
                .expect("worker pool drained the whole queue");
            sessions.push(outcome?);
        }
        Ok(BatchReport::new(
            sessions,
            wall,
            workers,
            self.backend.name(),
            allocated.bytes,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Parallel, Sequential};
    use mpca_net::{Envelope, PartyCtx, PartyId, Step};

    /// Each party sends its value once, then outputs the sum of all values.
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
            if round == 0 {
                for to in PartyId::all(self.n) {
                    if to != self.id {
                        ctx.send_msg(to, &self.value);
                    }
                }
                return Step::Continue;
            }
            let sum = incoming
                .iter()
                .fold(self.value, |acc, e| acc + e.decode::<u64>().unwrap());
            Step::Output(sum)
        }
    }

    fn sum_sim(n: usize, offset: u64) -> Result<Simulator<SumParty>, NetError> {
        let parties = PartyId::all(n)
            .map(|id| SumParty {
                id,
                n,
                value: id.index() as u64 + offset,
            })
            .collect();
        Simulator::all_honest(n, parties)
    }

    #[test]
    fn pool_runs_mixed_sizes_in_submission_order() {
        let mut pool = SessionPool::new(Sequential).with_workers(3);
        for (i, n) in [5usize, 3, 8, 4, 6].into_iter().enumerate() {
            pool.submit(format!("sum-{i}"), move || sum_sim(n, i as u64));
        }
        assert_eq!(pool.len(), 5);
        let batch = pool.run().unwrap();
        assert_eq!(batch.sessions.len(), 5);
        for (i, session) in batch.sessions.iter().enumerate() {
            assert_eq!(session.label, format!("sum-{i}"));
            assert_eq!(session.rounds, 2);
            assert!(!session.any_abort());
        }
        assert_eq!(batch.total_rounds(), 10);
        assert_eq!(batch.backend, "sequential");
    }

    #[test]
    fn pool_results_match_across_backends_and_worker_counts() {
        let configs: Vec<usize> = vec![3, 4, 5, 6, 7, 8];
        let run = |workers: usize, parallel: bool| {
            if parallel {
                let mut pool = SessionPool::new(Parallel::with_threads(4)).with_workers(workers);
                for (i, &n) in configs.iter().enumerate() {
                    pool.submit(format!("s{i}"), move || sum_sim(n, 7));
                }
                pool.run().unwrap()
            } else {
                let mut pool = SessionPool::new(Sequential).with_workers(workers);
                for (i, &n) in configs.iter().enumerate() {
                    pool.submit(format!("s{i}"), move || sum_sim(n, 7));
                }
                pool.run().unwrap()
            }
        };
        let reference = run(1, false);
        for workers in [1, 2, 8] {
            for parallel in [false, true] {
                let batch = run(workers, parallel);
                assert_eq!(
                    batch.sessions, reference.sessions,
                    "workers={workers} parallel={parallel}"
                );
            }
        }
    }

    #[test]
    fn pool_reports_progress_once_per_session() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let events = Arc::new(AtomicUsize::new(0));
        let max_completed = Arc::new(AtomicUsize::new(0));
        let (e, m) = (events.clone(), max_completed.clone());
        let mut pool = SessionPool::new(Sequential).with_workers(3).with_progress(
            move |p: SessionProgress| {
                assert_eq!(p.total, 5);
                assert!(p.completed >= 1 && p.completed <= 5);
                assert!(p.wall.is_some(), "successful sessions carry a wall");
                assert!(p.label.starts_with("sum-"));
                e.fetch_add(1, Ordering::Relaxed);
                m.fetch_max(p.completed, Ordering::Relaxed);
            },
        );
        for (i, n) in [5usize, 3, 8, 4, 6].into_iter().enumerate() {
            pool.submit(format!("sum-{i}"), move || sum_sim(n, i as u64));
        }
        pool.run().unwrap();
        assert_eq!(events.load(Ordering::Relaxed), 5);
        assert_eq!(max_completed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn traced_pools_digest_identically_across_backends() {
        fn traced<B: ExecutionBackend>(mut pool: SessionPool<B>) -> BatchReport {
            for (i, n) in [4usize, 6, 5].into_iter().enumerate() {
                pool.submit_task(
                    SessionTask::new(format!("t{i}"), move || sum_sim(n, 3)).with_tracing(true),
                );
            }
            pool.run().unwrap()
        }
        let run = |parallel: bool| {
            if parallel {
                traced(SessionPool::new(Parallel::with_threads(3)).with_workers(2))
            } else {
                traced(SessionPool::new(Sequential).with_workers(1))
            }
        };
        let sequential = run(false);
        let parallel = run(true);
        for (s, p) in sequential.sessions.iter().zip(&parallel.sessions) {
            let s_trace = s.trace.as_ref().expect("traced session carries a summary");
            let p_trace = p.trace.as_ref().expect("traced session carries a summary");
            assert_eq!(s_trace, p_trace, "session {}", s.label);
            assert!(s_trace.events > 0, "the sum protocol sends envelopes");
            assert_eq!(
                s_trace.milestones,
                s.outcomes.len() as u64,
                "one synthesised OutputDecided per honest party"
            );
        }
        assert_eq!(sequential.sessions, parallel.sessions);
    }

    #[test]
    fn trace_log_retention_is_opt_in_and_matches_the_summary() {
        // One batch mixes the three settings: each task decides for itself.
        let settings = [(false, false), (true, false), (true, true), (false, true)];
        let mut pool = SessionPool::new(Sequential).with_workers(2);
        for (traced, retained) in settings {
            pool.submit_task(
                SessionTask::new("t", || sum_sim(4, 1))
                    .with_tracing(traced)
                    .with_trace_logs(retained),
            );
        }
        let batch = pool.run().unwrap();
        for ((traced, retained), session) in settings.into_iter().zip(&batch.sessions) {
            assert_eq!(session.trace.is_some(), traced, "{traced} {retained}");
            assert_eq!(
                session.trace_log.is_some(),
                traced && retained,
                "a stream is kept only for a traced task that retains it"
            );
            if let Some(log) = &session.trace_log {
                // The retained stream is the one the summary digested.
                assert_eq!(
                    mpca_trace::digest_hex(log),
                    session.trace.as_ref().unwrap().digest
                );
            }
        }
        let [untraced, digest_only, retained, untraced_retaining] = &batch.sessions[..] else {
            panic!("four sessions");
        };
        // Retention is invisible to the equality contract; tracing is not.
        assert_eq!(digest_only, retained);
        assert_eq!(untraced, untraced_retaining);
        assert_ne!(untraced, digest_only);
    }

    #[test]
    fn pool_propagates_build_errors_after_finishing_the_batch() {
        let mut pool = SessionPool::new(Sequential).with_workers(2);
        pool.submit("ok", || sum_sim(3, 0));
        pool.submit("bad", || sum_sim(0, 0)); // n = 0 is invalid
        pool.submit("ok2", || sum_sim(4, 0));
        assert!(matches!(pool.run(), Err(NetError::InvalidConfig(_))));
    }

    #[test]
    fn session_tasks_run_standalone_and_match_pooled_submission() {
        // A task run directly on a backend produces the same report a
        // pooled submission would — that is what lets the soak harness
        // schedule tasks under its own admission policy.
        let direct = SessionTask::new("t", || sum_sim(5, 2))
            .with_tracing(true)
            .run(&Sequential)
            .unwrap();
        let mut pool = SessionPool::new(Sequential);
        pool.submit_task(SessionTask::new("t", || sum_sim(5, 2)).with_tracing(true));
        let pooled = pool.run().unwrap();
        assert_eq!(direct, pooled.sessions[0]);
        assert!(direct.trace.is_some());
        // The pool stamps queue waits on every report, metrics plane or not.
        assert!(pooled.sessions[0].queue_wait > Duration::ZERO);
        assert_eq!(
            direct.queue_wait,
            Duration::ZERO,
            "no queue when run directly"
        );
    }

    #[test]
    fn empty_pool_is_a_valid_batch() {
        let pool: SessionPool<Sequential> = SessionPool::new(Sequential);
        assert!(pool.is_empty());
        let batch = pool.run().unwrap();
        assert!(batch.sessions.is_empty());
        assert_eq!(batch.total_bytes(), 0);
    }
}
