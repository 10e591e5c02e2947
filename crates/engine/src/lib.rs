//! # mpca-engine
//!
//! A batch-execution runtime that turns the one-shot [`mpca_net::Simulator`]
//! into a multi-session fleet engine:
//!
//! * [`ExecutionBackend`] — how one session's
//!   rounds are driven. [`Sequential`] reproduces the
//!   historical single-threaded behaviour bit-for-bit;
//!   [`Parallel`] steps all honest parties of a round
//!   concurrently via `std::thread::scope`, merging envelopes and statistics
//!   in deterministic party-id order so results are **identical** to
//!   sequential execution.
//! * [`SessionPool`] — a scheduler running many
//!   independent protocol sessions (mixed protocols, mixed `(n, h)`
//!   parameters) across a bounded worker pool, with per-session
//!   [`SessionReport`]s and batch throughput
//!   telemetry ([`BatchReport`]). A pool is configured with a worker count
//!   and an optional progress observer, nothing else.
//! * [`SessionTask`] — one schedulable session. Tracing and stream
//!   retention are set on the task
//!   ([`SessionTask::with_tracing`], [`SessionTask::with_trace_logs`]), so
//!   one batch can mix them; [`SessionPool::submit`] submits an untraced
//!   task. [`SessionReport::from_result`] is the one way a run becomes a
//!   report, and [`nearest_rank`] is the quantile that batch, campaign and
//!   soak latencies are all read with.
//!
//! ## Determinism guarantee
//!
//! A protocol execution is a pure function of its parties, adversary and
//! configuration. Both backends drive the same
//! [`Simulator::step_round_with`](mpca_net::Simulator::step_round_with)
//! machinery, and the simulator merges per-party results in ascending
//! party-id order regardless of the order worker threads finish in. Hence
//! for every session: outcomes, round counts and
//! [`CommStats`](mpca_net::CommStats) are byte-identical across
//! `Sequential`, `Parallel`, and any pool worker count. Tests in
//! `tests/engine_batch.rs` and `tests/proptest_backends.rs` (workspace root)
//! enforce this.
//!
//! ## Example: a pooled batch
//!
//! ```
//! use mpca_engine::{Parallel, SessionPool};
//! use mpca_net::{PartyCtx, PartyId, PartyLogic, Simulator, Step};
//!
//! // A toy 1-round protocol: every party immediately outputs its id.
//! struct Echo(PartyId);
//! impl PartyLogic for Echo {
//!     type Output = usize;
//!     fn id(&self) -> PartyId { self.0 }
//!     fn on_round(&mut self, _: usize, _: &[mpca_net::Envelope], _: &mut PartyCtx)
//!         -> Step<usize> { Step::Output(self.0.index()) }
//! }
//!
//! let mut pool = SessionPool::new(Parallel::default()).with_workers(4);
//! for session in 0..8usize {
//!     let n = 3 + session % 3;
//!     pool.submit(format!("echo-n{n}-{session}"), move || {
//!         Simulator::all_honest(n, (0..n).map(|i| Echo(PartyId(i))).collect())
//!     });
//! }
//! let batch = pool.run().unwrap();
//! assert_eq!(batch.sessions.len(), 8);
//! assert!(batch.total_rounds() >= 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod pool;
pub mod report;

pub use backend::{ExecutionBackend, Parallel, Sequential};
pub use pool::{SessionPool, SessionProgress, SessionTask};
pub use report::{nearest_rank, BatchReport, OutcomeDigest, SessionReport};
