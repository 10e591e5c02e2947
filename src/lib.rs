//! # mpc-aborts
//!
//! Communication-efficient **secure multi-party computation with selective
//! abort** over point-to-point networks — a Rust reproduction of
//! *"On the Communication Complexity of Secure Multi-Party Computation With
//! Aborts"* (Bartusek, Bergamaschi, Khoury, Mutreja, Paradise; PODC 2024).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`wire`] — canonical serialisation (the unit of communication
//!   complexity),
//! * [`crypto`] — from-scratch cryptographic substrates (SHA-256, ChaCha20,
//!   LWE encryption with threshold decryption, hash-based signatures, …),
//! * [`net`] — the synchronous point-to-point network simulator with a
//!   static malicious adversary and communication/locality accounting,
//! * [`circuits`] — boolean-circuit workloads,
//! * [`encfunc`] — the encrypted functionality `F[PKE, f]` of the paper,
//! * [`protocols`] — the paper's protocols (Theorems 1, 2 and 4, the
//!   baselines, and the Theorem 3 lower-bound attack),
//! * [`metrics`] — the metrics plane: a process-wide low-overhead registry
//!   (atomic counters, log₂ histograms, span timers) and the
//!   milestone-driven phase clock that attributes every charged byte and
//!   wall-microsecond to a protocol phase, with JSON snapshot exposition,
//! * [`trace`] — the trace plane: canonical digests over the simulator's
//!   structured event stream ([`TraceSummary`](trace::TraceSummary)),
//!   frame-tagged transcripts, and the `campaign --record` / `--replay`
//!   file format,
//! * [`predicate`] — the trace-predicate plane: seven named rules over
//!   frame-tagged transcripts (frame legality, broadcast consistency, a
//!   per-phase byte ceiling, the flooding rule, temporal rules), each a
//!   batch scan that reports the first violating event span,
//! * [`engine`] — the batch-execution runtime: sequential/parallel
//!   round-stepping backends and a [`SessionPool`](engine::SessionPool) for
//!   running fleets of sessions concurrently with deterministic results,
//! * [`obs`] — the observability layer: an open-loop soak harness
//!   ([`run_soak`](obs::run_soak)) with bounded admission and windowed
//!   latency/throughput telemetry, Chrome trace-event span export
//!   ([`ChromeTrace`](obs::ChromeTrace)) for Perfetto, and the bench
//!   regression sentinel ([`run_sentinel`](obs::run_sentinel)) that diffs
//!   `BENCH_results.json` against a blessed baseline,
//! * [`scenario`] — declarative adversarial scenarios: adversary classes as
//!   data ([`AdversarySpec`](scenario::AdversarySpec)), campaign plans that
//!   compile into pooled batches, a security-property oracle checking every
//!   execution against the paper's predicates, and a coverage-guided
//!   adversary search ([`run_search`](scenario::run_search)) that shrinks
//!   novel predicate violations into replayable counterexamples.
//!
//! ## Quickstart
//!
//! ```
//! use mpc_aborts::net::{CommonRandomString, Simulator};
//! use mpc_aborts::encfunc::Functionality;
//! use mpc_aborts::protocols::{mpc, ProtocolParams};
//! use std::collections::BTreeSet;
//!
//! // 16 parties, at least 8 honest, privately sum their 2-byte inputs.
//! let params = ProtocolParams::new(16, 8).with_lwe(
//!     mpc_aborts::crypto::lwe::LweParams {
//!         plaintext_modulus: 1 << 16,
//!         ..mpc_aborts::crypto::lwe::LweParams::toy()
//!     },
//! );
//! let functionality = Functionality::Sum { input_bytes: 2 };
//! let inputs: Vec<Vec<u8>> = (0..16u16).map(|i| (i * 10).to_le_bytes().to_vec()).collect();
//! let crs = CommonRandomString::from_label(b"quickstart");
//! let parties = mpc::mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
//! let result = Simulator::all_honest(params.n, parties).unwrap().run().unwrap();
//! let sum = u16::from_le_bytes(result.unanimous_output().unwrap()[..2].try_into().unwrap());
//! assert_eq!(sum, (0..16u16).map(|i| i * 10).sum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mpca_circuits as circuits;
pub use mpca_core as protocols;
pub use mpca_crypto as crypto;
pub use mpca_encfunc as encfunc;
pub use mpca_engine as engine;
pub use mpca_metrics as metrics;
pub use mpca_net as net;
pub use mpca_obs as obs;
pub use mpca_predicate as predicate;
pub use mpca_scenario as scenario;
pub use mpca_trace as trace;
pub use mpca_wire as wire;
