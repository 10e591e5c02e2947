//! # mpca-metrics
//!
//! The **metrics plane**: a process-wide, low-overhead metrics registry
//! plus the protocol **phase vocabulary** every other crate attributes
//! cost to.
//!
//! Two distinct planes live here, deliberately separated:
//!
//! * **Deterministic phase accounting** — [`Phase`], [`PhaseClock`] and
//!   [`PhaseBytes`]. The simulator advances a monotone phase clock on the
//!   milestone stream and charges every counted byte to the clock's
//!   current phase. This accounting is a pure function of the execution
//!   (no wall-clock, no atomics), so it sits *inside* the
//!   parallel == sequential equality contract and is reconciled
//!   byte-for-byte against the trace-derived `PhaseLedger`
//!   (the conservation check that keeps the metrics honest).
//! * **Live telemetry** — [`Counter`], [`Histogram`], [`span`] timers and
//!   the global [`Registry`]. These are process-wide atomics, **off by
//!   default** ([`set_enabled`]): when disabled, a charge site costs one
//!   relaxed load and a span guard never calls `Instant::now`. Snapshots
//!   export as JSON ([`Snapshot::to_json`], schema
//!   `mpc-aborts/metrics/v1`).
//!
//! It also hosts the workspace's one JSON parser and string escaper
//! ([`json`]), which every JSON artefact reader and writer uses.
//!
//! The crate is a dependency leaf (std only) so `mpca-net`, `mpca-core`,
//! `mpca-trace`, `mpca-engine` and `mpca-scenario` can all share the same
//! phase vocabulary without cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod expose;
pub mod json;
mod phase;
mod registry;

pub use expose::{HistogramSnapshot, Snapshot, METRICS_SCHEMA};
pub use phase::{Phase, PhaseBytes, PhaseClock};
pub use registry::{
    enabled, set_enabled, span, Counter, Histogram, Registry, SpanGuard, HISTOGRAM_BUCKETS,
};
