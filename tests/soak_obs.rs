//! End-to-end observability through the facade: a short open-loop soak
//! over the mixed scenario workload, Chrome trace-event span export, and
//! the regression sentinel's pass/fail contract against the checked-in
//! baseline and drift fixtures.

use std::time::Duration;

use mpc_aborts::engine::Sequential;
use mpc_aborts::metrics::json::Json;
use mpc_aborts::obs::{run_sentinel, run_soak, SoakConfig};
use mpc_aborts::scenario::SoakWorkload;

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn soak_emits_windowed_time_series_and_perfetto_spans() {
    let workload = SoakWorkload::new(5);
    let config = SoakConfig::new(Duration::from_millis(1500), 120.0)
        .with_workers(2)
        .with_capacity(8)
        .with_seed(5)
        .with_window(Duration::from_millis(500));
    let report = run_soak(&config, &Sequential, |index| workload.task(index));

    assert_eq!(report.errors, 0, "soak sessions execute cleanly");
    assert!(report.completed > 0, "soak completes sessions");
    assert!(report.windows.len() >= 2, "multiple telemetry windows");
    assert_eq!(report.admitted + report.shed, report.arrivals);

    // The time series is valid JSON under the soak schema, with one entry
    // per window.
    let doc = Json::parse(&report.to_json()).expect("soak JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("mpc-aborts/soak/v1")
    );
    let windows = doc
        .get("windows")
        .and_then(Json::as_array)
        .expect("windows array");
    assert_eq!(windows.len(), report.windows.len());
    for window in windows {
        for key in ["arrivals", "shed", "wall_p99_us", "scenarios_per_s"] {
            assert!(window.get(key).is_some(), "window lacks {key}");
        }
    }

    // The span export is valid Chrome trace-event JSON: sampled sessions
    // appear as complete ("X") spans with queue/exec children.
    let trace = Json::parse(&report.chrome_trace().render()).expect("trace JSON parses");
    assert_eq!(
        trace.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = trace
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty(), "sampled sessions export spans");
    let queue_spans = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("queue"))
        .count();
    let exec_spans = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("exec"))
        .count();
    assert_eq!(queue_spans, report.sampled.len());
    assert_eq!(exec_spans, report.sampled.len());
}

#[test]
fn sustained_overload_sheds_at_the_admission_queue() {
    let workload = SoakWorkload::new(9);
    // Arrivals far above what one worker drains through a one-slot queue.
    let config = SoakConfig::new(Duration::from_millis(600), 2000.0)
        .with_workers(1)
        .with_capacity(1)
        .with_seed(9)
        .with_window(Duration::from_millis(200));
    let report = run_soak(&config, &Sequential, |index| workload.task(index));
    assert!(report.shed > 0, "overload must shed: {:?}", report.windows);
    assert!(report.admitted > 0, "overload still admits");
    let shed_in_windows: u64 = report.windows.iter().map(|w| w.shed).sum();
    assert_eq!(
        shed_in_windows, report.shed,
        "shed is attributed to windows"
    );
}

#[test]
fn sentinel_passes_the_blessed_baseline_and_trips_on_drift() {
    let baseline = golden("bench_baseline.json");
    let results = {
        let path = format!("{}/BENCH_results.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let clean = run_sentinel(&results, &baseline).expect("sentinel runs on checked-in results");
    assert!(
        clean.passed(),
        "checked-in results must pass the blessed baseline:\n{}",
        clean.render()
    );

    let drifted = golden("bench_drift_fixture.json");
    let tripped = run_sentinel(&drifted, &baseline).expect("sentinel runs on the drift fixture");
    assert!(
        !tripped.passed(),
        "the injected 2x p99 drift must trip the sentinel:\n{}",
        tripped.render()
    );
}
