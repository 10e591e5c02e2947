//! Tier-1 guarantees of the metrics plane:
//!
//! 1. **Ledger reconciliation** — for every traced session, the
//!    trace-derived [`PhaseLedger`](mpc_aborts::trace::PhaseLedger)
//!    reconciles byte-for-byte with the simulator's live phase accounting,
//!    and the per-phase sums conserve the `CommStats` totals.
//! 2. **Registry reconciliation** — with the metrics plane enabled, the
//!    `net.phase.bytes.*` counters the sessions flush into the global
//!    registry sum to exactly the bytes the reports charged.
//! 3. **Schema stability** — the emitted metrics JSON round-trips, for any
//!    metric name, and the checked-in schema fixture
//!    (`tests/golden/metrics_schema.json`) is in canonical form.

use std::sync::{Mutex, MutexGuard};

use mpc_aborts::engine::Sequential;
use mpc_aborts::metrics::{HistogramSnapshot, Phase, PhaseBytes, Registry, Snapshot};
use mpc_aborts::scenario::{tiny_campaign, tiny_sweep_campaign};

/// Serialises the tests that run sessions: the registry-reconciliation
/// test reads process-wide counters, so campaigns in other tests must not
/// flush into the registry concurrently while the plane is enabled.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn phase_ledger_reconciles_for_every_traced_session() {
    let _guard = serial();
    for campaign in [tiny_campaign(0), tiny_sweep_campaign(0)] {
        let report = campaign
            .run_traced(Sequential, 2)
            .expect("traced campaign runs");
        assert!(!report.is_empty());
        for outcome in &report.outcomes {
            let summary = outcome.report.trace.as_ref().expect("traced session");
            // The offline ledger (replaying the recorded trace through the
            // phase clock) must agree byte-for-byte with the live counters.
            assert_eq!(
                summary.phase_bytes, outcome.report.phase_bytes,
                "ledger/live divergence in {}",
                outcome.scenario.label
            );
            // Conservation: the six phase cells partition the total.
            assert_eq!(
                outcome.report.phase_bytes.total(),
                outcome.report.stats.total_bytes(),
                "unattributed bytes in {}",
                outcome.scenario.label
            );
        }
    }
}

#[test]
fn registry_phase_counters_reconcile_with_reports() {
    let _guard = serial();
    let baseline: Vec<u64> = Phase::ALL
        .into_iter()
        .map(|p| {
            Registry::global()
                .counter(&format!("net.phase.bytes.{p}"))
                .get()
        })
        .collect();
    let sessions_before = Registry::global().counter("net.sessions").get();

    mpc_aborts::metrics::set_enabled(true);
    let report = tiny_campaign(1).run(Sequential, 1).expect("campaign runs");
    mpc_aborts::metrics::set_enabled(false);

    let mut expected = PhaseBytes::new();
    for outcome in &report.outcomes {
        for (phase, bytes) in outcome.report.phase_bytes.iter() {
            expected.charge(phase, bytes);
        }
    }
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        let after = Registry::global()
            .counter(&format!("net.phase.bytes.{phase}"))
            .get();
        assert_eq!(
            after - baseline[i],
            expected.get(phase),
            "registry flush diverges from live accounting in phase {phase}"
        );
    }
    assert_eq!(
        Registry::global().counter("net.sessions").get() - sessions_before,
        report.len() as u64,
    );
}

#[test]
fn metrics_snapshot_json_round_trips_live() {
    let _guard = serial();
    mpc_aborts::metrics::set_enabled(true);
    tiny_campaign(2).run(Sequential, 1).expect("campaign runs");
    mpc_aborts::metrics::set_enabled(false);
    let snapshot = Snapshot::capture();
    assert!(
        snapshot
            .counters
            .iter()
            .any(|(name, value)| name == "net.sessions" && *value > 0),
        "the campaign must have flushed session counters"
    );
    let parsed = Snapshot::from_json(&snapshot.to_json()).expect("emitted JSON parses back");
    assert_eq!(parsed, snapshot);
}

#[test]
fn schema_fixture_is_canonical() {
    let fixture = include_str!("golden/metrics_schema.json");
    let parsed = Snapshot::from_json(fixture).expect("fixture parses");
    // Re-serialising the parsed fixture reproduces it byte-for-byte: the
    // fixture pins the canonical emission format.
    assert_eq!(parsed.to_json(), fixture, "fixture drifted from to_json()");
    // The fixture names the metric families the plane actually emits.
    for phase in Phase::ALL {
        assert!(parsed
            .counters
            .iter()
            .any(|(n, _)| *n == format!("net.phase.bytes.{phase}")));
    }
    for histogram in ["engine.session.wall_us", "engine.session.queue_us"] {
        assert!(parsed.histograms.iter().any(|(n, _)| n == histogram));
    }
}

#[test]
fn any_metric_name_round_trips_as_valid_json() {
    let names = ["latency.µs", "tab\there", "nl\nhere", "\u{1}x"];
    let snapshot = Snapshot {
        counters: names.iter().map(|n| (n.to_string(), 1)).collect(),
        histograms: names
            .iter()
            .map(|n| {
                let h = HistogramSnapshot {
                    count: 1,
                    sum: u64::MAX,
                    buckets: vec![(u64::MAX, 1)],
                };
                (n.to_string(), h)
            })
            .collect(),
    };
    let json = snapshot.to_json();
    for line in json.lines() {
        assert!(
            !line.chars().any(char::is_control),
            "raw control character in {line:?}"
        );
    }
    assert!(
        json.contains(r#""nl\nhere""#),
        "a newline in a name is escaped"
    );
    assert_eq!(Snapshot::from_json(&json), Some(snapshot));
}
