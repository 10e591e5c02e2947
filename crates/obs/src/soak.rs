//! The soak harness: an open-loop sustained-load driver over
//! [`SessionTask`]s with a bounded admission queue and windowed telemetry.
//!
//! The batch pool answers "how fast can we drain N sessions"; the soak
//! harness answers the service question — "what do latency, queueing and
//! abort behaviour look like under a sustained arrival rate". Arrivals
//! follow a seeded open-loop schedule: session `i` arrives when the
//! schedule says so, whether or not earlier sessions finished. An arrival
//! that finds the admission queue full is **shed** and counted, never
//! delayed — closed-loop back-pressure would silently re-time the workload
//! and hide the overload the harness exists to observe.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use mpca_engine::{nearest_rank, ExecutionBackend, SessionReport, SessionTask};
use mpca_metrics::json::escape;

use crate::chrome::ChromeTrace;

/// Schema tag of the emitted time-series JSON.
pub const SOAK_SCHEMA: &str = "mpc-aborts/soak/v1";

/// How many traced sample sessions a report retains (slowest first).
const MAX_SAMPLES: usize = 8;

/// Configuration of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// How long the arrival schedule runs (admitted work still drains
    /// after the schedule ends, and counts toward the final windows).
    pub duration: Duration,
    /// Mean arrival rate, sessions per second.
    pub rate: f64,
    /// Admission queue bound: arrivals beyond this depth are shed.
    pub capacity: usize,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Seed of the arrival-jitter stream (the schedule is deterministic
    /// per seed; completion timing of course is not).
    pub seed: u64,
    /// Telemetry window width.
    pub window: Duration,
    /// Every `trace_sample`-th admitted session runs traced with its full
    /// event stream retained, so a slow window can be opened as a
    /// [`ChromeTrace`] timeline. `0` disables sampling.
    pub trace_sample: u64,
}

impl SoakConfig {
    /// A soak of `duration` at `rate` sessions/s with service-ish defaults:
    /// queue bound 64, 4 workers, 1 s windows, every 32nd session traced.
    pub fn new(duration: Duration, rate: f64) -> Self {
        Self {
            duration,
            rate: rate.max(0.001),
            capacity: 64,
            workers: 4,
            seed: 0,
            window: Duration::from_secs(1),
            trace_sample: 32,
        }
    }

    /// Bounds the admission queue to `capacity` (at least 1).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Drains the queue with `workers` threads (at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Seeds the arrival-jitter stream.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the telemetry window width (at least 1 ms).
    pub fn with_window(mut self, window: Duration) -> Self {
        self.window = window.max(Duration::from_millis(1));
        self
    }

    /// Traces every `every`-th admitted session (0 disables).
    pub fn with_trace_sample(mut self, every: u64) -> Self {
        self.trace_sample = every;
        self
    }
}

/// Telemetry of one soak window.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// Window index (window 0 starts at the soak's start instant).
    pub index: usize,
    /// Arrivals scheduled in this window (admitted + shed).
    pub arrivals: u64,
    /// Arrivals admitted to the queue.
    pub admitted: u64,
    /// Arrivals shed because the queue was full.
    pub shed: u64,
    /// Sessions that completed in this window.
    pub completed: u64,
    /// Completed sessions in which at least one honest party aborted.
    pub aborted: u64,
    /// Latency quantiles over the window's completions, microseconds
    /// (zero when nothing completed).
    pub wall_p50_us: u64,
    /// 90th-percentile session latency, microseconds.
    pub wall_p90_us: u64,
    /// 99th-percentile session latency, microseconds.
    pub wall_p99_us: u64,
    /// Median queue wait (admission → worker pick-up), microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait, microseconds.
    pub queue_p99_us: u64,
    /// Completions per second over the window.
    pub scenarios_per_sec: f64,
    /// Aborted / completed over the window (0 when nothing completed).
    pub abort_rate: f64,
}

/// One traced sample session retained for span export.
#[derive(Debug, Clone)]
pub struct SessionSample {
    /// Microseconds from soak start at which the session was admitted.
    pub admit_us: u64,
    /// The full session report (with trace summary + retained log).
    pub report: SessionReport,
}

/// The aggregated result of one soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// The configuration the run used.
    pub config: SoakConfig,
    /// The backend that drove the sessions.
    pub backend: &'static str,
    /// Wall-clock of the whole run including the post-schedule drain.
    pub elapsed: Duration,
    /// Total arrivals the schedule produced.
    pub arrivals: u64,
    /// Arrivals admitted to the queue.
    pub admitted: u64,
    /// Arrivals shed at the admission queue.
    pub shed: u64,
    /// Sessions that ran to completion.
    pub completed: u64,
    /// Completed sessions with at least one honest abort.
    pub aborted: u64,
    /// Sessions whose build or execution surfaced a `NetError`.
    pub errors: u64,
    /// Whole-run latency quantiles, microseconds.
    pub wall_p50_us: u64,
    /// 90th-percentile session latency over the whole run.
    pub wall_p90_us: u64,
    /// 99th-percentile session latency over the whole run.
    pub wall_p99_us: u64,
    /// Median queue wait over the whole run, microseconds.
    pub queue_p50_us: u64,
    /// 99th-percentile queue wait over the whole run, microseconds.
    pub queue_p99_us: u64,
    /// Per-window time series, window 0 first.
    pub windows: Vec<WindowStats>,
    /// Traced sample sessions, slowest first (at most `MAX_SAMPLES` = 8).
    pub sampled: Vec<SessionSample>,
}

struct Admitted<B: ExecutionBackend> {
    task: SessionTask<B>,
    admit_us: u64,
    sampled: bool,
}

struct Completion {
    done_us: u64,
    wall_us: u64,
    queue_us: u64,
    aborted: bool,
    report: Option<SessionSample>,
}

#[derive(Default)]
struct SoakLedger {
    completions: Vec<Completion>,
    errors: u64,
}

struct AdmissionQueue<B: ExecutionBackend> {
    queue: Mutex<(VecDeque<Admitted<B>>, bool)>,
    nonempty: Condvar,
}

/// Runs an open-loop soak: `next_task(i)` supplies the `i`-th arrival's
/// session (the caller owns the workload mix — protocol families,
/// adversary classes, seeds), and the harness owns arrival timing,
/// admission and telemetry.
pub fn run_soak<B, F>(config: &SoakConfig, backend: &B, mut next_task: F) -> SoakReport
where
    B: ExecutionBackend + Sync,
    F: FnMut(u64) -> SessionTask<B>,
{
    let start = Instant::now();
    let admission = AdmissionQueue::<B> {
        queue: Mutex::new((VecDeque::with_capacity(config.capacity), false)),
        nonempty: Condvar::new(),
    };
    let ledger: Mutex<SoakLedger> = Mutex::new(SoakLedger::default());

    let mut arrivals: Vec<(u64, bool)> = Vec::new();
    let mut admitted_count: u64 = 0;

    std::thread::scope(|scope| {
        for _ in 0..config.workers.max(1) {
            scope.spawn(|| loop {
                let admitted = {
                    let mut guard = admission.queue.lock().expect("soak queue poisoned");
                    loop {
                        if let Some(item) = guard.0.pop_front() {
                            break Some(item);
                        }
                        if guard.1 {
                            break None;
                        }
                        guard = admission.nonempty.wait(guard).expect("soak queue poisoned");
                    }
                };
                let Some(item) = admitted else {
                    break;
                };
                let pickup_us = start.elapsed().as_micros() as u64;
                let queue_us = pickup_us.saturating_sub(item.admit_us);
                match item.task.run(backend) {
                    Ok(mut report) => {
                        report.queue_wait = Duration::from_micros(queue_us);
                        let done_us = start.elapsed().as_micros() as u64;
                        let completion = Completion {
                            done_us,
                            wall_us: report.wall.as_micros() as u64,
                            queue_us,
                            aborted: report.any_abort(),
                            report: item.sampled.then_some(SessionSample {
                                admit_us: item.admit_us,
                                report,
                            }),
                        };
                        let mut guard = ledger.lock().expect("soak ledger poisoned");
                        guard.completions.push(completion);
                    }
                    Err(_) => {
                        ledger.lock().expect("soak ledger poisoned").errors += 1;
                    }
                }
            });
        }

        // The open-loop scheduler runs on the calling thread: arrival i+1's
        // slot is arrival i's slot plus a seeded-jitter inter-arrival gap,
        // regardless of how the service is keeping up. When the clock is
        // behind schedule (coarse sleeps, slow task construction) arrivals
        // fire back-to-back until the schedule catches up.
        let duration_us = config.duration.as_micros() as u64;
        let mean_gap_us = (1_000_000.0 / config.rate).max(1.0);
        let mut rng = splitmix(config.seed);
        let mut slot_us: f64 = 0.0;
        loop {
            // Jitter factor in [0.5, 1.5): mean preserved, lumpy enough to
            // exercise the queue without a full Poisson process.
            rng = splitmix(rng);
            let jitter = 0.5 + (rng >> 11) as f64 / (1u64 << 53) as f64;
            slot_us += mean_gap_us * jitter;
            if slot_us as u64 >= duration_us {
                break;
            }
            let now_us = start.elapsed().as_micros() as u64;
            if (slot_us as u64) > now_us {
                std::thread::sleep(Duration::from_micros(slot_us as u64 - now_us));
            }
            let index = arrivals.len() as u64;
            let admit_us = start.elapsed().as_micros() as u64;
            let mut guard = admission.queue.lock().expect("soak queue poisoned");
            if guard.0.len() >= config.capacity {
                drop(guard);
                arrivals.push((admit_us, false));
                continue;
            }
            let sampled =
                config.trace_sample > 0 && admitted_count.is_multiple_of(config.trace_sample);
            let mut task = next_task(index);
            if sampled {
                task = task.with_tracing(true).with_trace_logs(true);
            }
            guard.0.push_back(Admitted {
                task,
                admit_us,
                sampled,
            });
            drop(guard);
            admission.nonempty.notify_one();
            admitted_count += 1;
            arrivals.push((admit_us, true));
        }
        admission.queue.lock().expect("soak queue poisoned").1 = true;
        admission.nonempty.notify_all();
    });

    let elapsed = start.elapsed();
    let ledger = ledger.into_inner().expect("soak ledger poisoned");
    assemble(config, backend.name(), elapsed, arrivals, ledger)
}

fn assemble(
    config: &SoakConfig,
    backend: &'static str,
    elapsed: Duration,
    arrivals: Vec<(u64, bool)>,
    ledger: SoakLedger,
) -> SoakReport {
    let SoakLedger {
        completions,
        errors,
    } = ledger;
    let window_us = (config.window.as_micros() as u64).max(1);
    let last_event_us = completions
        .iter()
        .map(|c| c.done_us)
        .chain(arrivals.iter().map(|a| a.0))
        .max()
        .unwrap_or(0);
    let window_count = (last_event_us / window_us + 1) as usize;

    let mut windows: Vec<WindowStats> = (0..window_count)
        .map(|index| WindowStats {
            index,
            arrivals: 0,
            admitted: 0,
            shed: 0,
            completed: 0,
            aborted: 0,
            wall_p50_us: 0,
            wall_p90_us: 0,
            wall_p99_us: 0,
            queue_p50_us: 0,
            queue_p99_us: 0,
            scenarios_per_sec: 0.0,
            abort_rate: 0.0,
        })
        .collect();
    for &(t_us, admitted) in &arrivals {
        let w = (t_us / window_us) as usize;
        windows[w].arrivals += 1;
        if admitted {
            windows[w].admitted += 1;
        } else {
            windows[w].shed += 1;
        }
    }
    let mut window_walls: Vec<Vec<u64>> = vec![Vec::new(); window_count];
    let mut window_queues: Vec<Vec<u64>> = vec![Vec::new(); window_count];
    for c in &completions {
        let w = (c.done_us / window_us) as usize;
        windows[w].completed += 1;
        if c.aborted {
            windows[w].aborted += 1;
        }
        window_walls[w].push(c.wall_us);
        window_queues[w].push(c.queue_us);
    }
    let window_secs = window_us as f64 / 1e6;
    for (w, stats) in windows.iter_mut().enumerate() {
        window_walls[w].sort_unstable();
        window_queues[w].sort_unstable();
        stats.wall_p50_us = nearest_rank(&window_walls[w], 0.5);
        stats.wall_p90_us = nearest_rank(&window_walls[w], 0.9);
        stats.wall_p99_us = nearest_rank(&window_walls[w], 0.99);
        stats.queue_p50_us = nearest_rank(&window_queues[w], 0.5);
        stats.queue_p99_us = nearest_rank(&window_queues[w], 0.99);
        stats.scenarios_per_sec = stats.completed as f64 / window_secs;
        if stats.completed > 0 {
            stats.abort_rate = stats.aborted as f64 / stats.completed as f64;
        }
    }

    let mut walls: Vec<u64> = completions.iter().map(|c| c.wall_us).collect();
    let mut queues: Vec<u64> = completions.iter().map(|c| c.queue_us).collect();
    walls.sort_unstable();
    queues.sort_unstable();

    let mut sampled: Vec<SessionSample> =
        completions.into_iter().filter_map(|c| c.report).collect();
    sampled.sort_by_key(|s| std::cmp::Reverse(s.report.wall));
    sampled.truncate(MAX_SAMPLES);

    let admitted = arrivals.iter().filter(|a| a.1).count() as u64;
    let shed = arrivals.len() as u64 - admitted;
    let completed = walls.len() as u64;
    let aborted = windows.iter().map(|w| w.aborted).sum();
    SoakReport {
        config: config.clone(),
        backend,
        elapsed,
        arrivals: arrivals.len() as u64,
        admitted,
        shed,
        completed,
        aborted,
        errors,
        wall_p50_us: nearest_rank(&walls, 0.5),
        wall_p90_us: nearest_rank(&walls, 0.9),
        wall_p99_us: nearest_rank(&walls, 0.99),
        queue_p50_us: nearest_rank(&queues, 0.5),
        queue_p99_us: nearest_rank(&queues, 0.99),
        windows,
        sampled,
    }
}

impl SoakReport {
    /// Completions per second over the whole run.
    pub fn scenarios_per_sec(&self) -> f64 {
        self.completed as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Aborted / completed over the whole run.
    pub fn abort_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.aborted as f64 / self.completed as f64
        }
    }

    /// The windowed time series as `mpc-aborts/soak/v1` JSON — one window
    /// object per line, so the document greps and diffs like a log.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.windows.len() * 220);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SOAK_SCHEMA}\",\n"));
        out.push_str(&format!(
            "  \"duration_s\": {:.3}, \"rate_per_s\": {:.3}, \"capacity\": {}, \
             \"workers\": {}, \"seed\": {}, \"window_s\": {:.3}, \"backend\": \"{}\",\n",
            self.config.duration.as_secs_f64(),
            self.config.rate,
            self.config.capacity,
            self.config.workers,
            self.config.seed,
            self.config.window.as_secs_f64(),
            escape(self.backend),
        ));
        out.push_str(&format!(
            "  \"totals\": {{\"elapsed_s\": {:.3}, \"arrivals\": {}, \"admitted\": {}, \
             \"shed\": {}, \"completed\": {}, \"aborted\": {}, \"errors\": {}, \
             \"wall_p50_us\": {}, \"wall_p90_us\": {}, \"wall_p99_us\": {}, \
             \"queue_p50_us\": {}, \"queue_p99_us\": {}, \
             \"scenarios_per_s\": {:.3}, \"abort_rate\": {:.4}}},\n",
            self.elapsed.as_secs_f64(),
            self.arrivals,
            self.admitted,
            self.shed,
            self.completed,
            self.aborted,
            self.errors,
            self.wall_p50_us,
            self.wall_p90_us,
            self.wall_p99_us,
            self.queue_p50_us,
            self.queue_p99_us,
            self.scenarios_per_sec(),
            self.abort_rate(),
        ));
        out.push_str("  \"windows\": [\n");
        for (i, w) in self.windows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"window\": {}, \"arrivals\": {}, \"admitted\": {}, \"shed\": {}, \
                 \"completed\": {}, \"aborted\": {}, \"wall_p50_us\": {}, \
                 \"wall_p90_us\": {}, \"wall_p99_us\": {}, \"queue_p50_us\": {}, \
                 \"queue_p99_us\": {}, \"scenarios_per_s\": {:.3}, \"abort_rate\": {:.4}}}{}\n",
                w.index,
                w.arrivals,
                w.admitted,
                w.shed,
                w.completed,
                w.aborted,
                w.wall_p50_us,
                w.wall_p90_us,
                w.wall_p99_us,
                w.queue_p50_us,
                w.queue_p99_us,
                w.scenarios_per_sec,
                w.abort_rate,
                if i + 1 < self.windows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Exports the retained sample sessions as a Chrome trace-event
    /// timeline (see [`ChromeTrace`]), one Perfetto track per sample.
    pub fn chrome_trace(&self) -> ChromeTrace {
        let mut trace = ChromeTrace::new();
        for (tid, sample) in self.sampled.iter().enumerate() {
            trace.add_session(&sample.report, sample.admit_us, tid as u64 + 1);
        }
        trace
    }
}

/// One step of the splitmix64 stream — the arrival-jitter PRNG. Small and
/// local on purpose: the harness only needs a deterministic jitter stream,
/// not a general RNG.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_engine::Sequential;
    use mpca_net::{Envelope, PartyCtx, PartyId, PartyLogic, Simulator, Step};

    struct Echo(PartyId, usize);
    impl PartyLogic for Echo {
        type Output = usize;
        fn id(&self) -> PartyId {
            self.0
        }
        fn on_round(
            &mut self,
            round: usize,
            _incoming: &[Envelope],
            ctx: &mut PartyCtx,
        ) -> Step<usize> {
            if round == 0 {
                for to in PartyId::all(self.1) {
                    if to != self.0 {
                        ctx.send_msg(to, &(self.0.index() as u64));
                    }
                }
                return Step::Continue;
            }
            Step::Output(self.0.index())
        }
    }

    fn echo_task(i: u64) -> SessionTask<Sequential> {
        let n = 3 + (i % 3) as usize;
        SessionTask::new(format!("echo-{i}"), move || {
            Simulator::all_honest(n, PartyId::all(n).map(|id| Echo(id, n)).collect())
        })
    }

    #[test]
    fn soak_counters_conserve_and_windows_cover_the_run() {
        let config = SoakConfig::new(Duration::from_millis(300), 400.0)
            .with_workers(2)
            .with_capacity(16)
            .with_seed(11)
            .with_window(Duration::from_millis(100))
            .with_trace_sample(8);
        let report = run_soak(&config, &Sequential, echo_task);
        assert!(report.arrivals > 0, "the schedule produced arrivals");
        assert_eq!(report.admitted + report.shed, report.arrivals);
        assert_eq!(report.completed + report.errors, report.admitted);
        assert_eq!(report.errors, 0);
        let from_windows: u64 = report.windows.iter().map(|w| w.completed).sum();
        assert_eq!(
            from_windows, report.completed,
            "windows partition completions"
        );
        let arrivals_from_windows: u64 = report.windows.iter().map(|w| w.arrivals).sum();
        assert_eq!(arrivals_from_windows, report.arrivals);
        assert!(report.wall_p99_us >= report.wall_p50_us);
        assert!(
            !report.sampled.is_empty(),
            "trace sampling retained sessions"
        );
        for sample in &report.sampled {
            assert!(sample.report.trace.is_some());
            assert!(sample.report.trace_log.is_some());
        }
    }

    #[test]
    fn overload_sheds_at_the_admission_bound() {
        // One worker, a queue of 1, and arrivals far faster than an
        // all_honest session can run: the queue must fill and shed.
        let config = SoakConfig::new(Duration::from_millis(250), 5000.0)
            .with_workers(1)
            .with_capacity(1)
            .with_seed(3)
            .with_window(Duration::from_millis(50))
            .with_trace_sample(0);
        let report = run_soak(&config, &Sequential, echo_task);
        assert!(report.shed > 0, "overload must shed at the admission queue");
        assert!(report.windows.iter().any(|w| w.shed > 0));
        assert!(report.sampled.is_empty(), "sampling disabled");
    }

    #[test]
    fn soak_json_carries_the_schema_and_window_series() {
        let config = SoakConfig::new(Duration::from_millis(120), 300.0)
            .with_workers(2)
            .with_seed(5)
            .with_window(Duration::from_millis(60));
        let report = run_soak(&config, &Sequential, echo_task);
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"mpc-aborts/soak/v1\""));
        assert!(json.contains("\"totals\""));
        assert!(json.contains("\"windows\": ["));
        assert!(json.contains("\"wall_p99_us\""));
        assert!(json.contains("\"queue_p99_us\""));
        assert!(json.contains("\"abort_rate\""));
        assert!(json.contains("\"shed\""));
    }

    #[test]
    fn errors_are_counted_not_fatal() {
        let config = SoakConfig::new(Duration::from_millis(80), 200.0)
            .with_workers(1)
            .with_seed(1);
        let report = run_soak(&config, &Sequential, |i| {
            if i % 2 == 0 {
                echo_task(i)
            } else {
                // n = 0 is an invalid configuration: the build fails.
                SessionTask::new(format!("bad-{i}"), || {
                    Simulator::<Echo>::all_honest(0, Vec::new())
                })
            }
        });
        assert!(report.errors > 0);
        assert_eq!(report.completed + report.errors, report.admitted);
    }
}
