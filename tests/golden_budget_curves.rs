//! The golden calibration sweep behind the budget curves.
//!
//! Runs every protocol family **honestly** over its full calibration grid
//! (`FamilySpec::calibration_grid`), under `CALIBRATION_SEEDS` distinct
//! seeds per point, and records the measured envelope (max honest bits and
//! max per-party locality) per point. The rendered fixture must match
//! `tests/golden/comm_budget_curves.json` byte-for-byte — that file is what
//! `mpca_core::BudgetCurve` turns into the oracle's tightened comm/locality
//! budgets.
//!
//! Regenerate after an intentional protocol change with:
//!
//! ```sh
//! MPCA_BLESS=1 cargo test --test golden_budget_curves
//! cargo test   # re-run: budgets are read from the fresh fixture
//! ```
//!
//! When not blessing, the test also proves the curves are *usable*: every
//! measured point sits inside its curve budget (no false alarms) and every
//! curve budget sits strictly inside the legacy ~10× hand-calibrated
//! constants (a real tightening).

use std::collections::BTreeSet;

use mpc_aborts::engine::{Sequential, SessionPool, SessionReport};
use mpc_aborts::net::PartyId;
use mpc_aborts::protocols::{BudgetCurve, ProtocolKind, ProtocolParams};
use mpc_aborts::scenario::{registry, AdversarySpec, ScenarioPlan};

/// Seeds each calibration point is measured under; the fixture records the
/// max. Committee-based families legitimately vary across CRS labels, so a
/// single-label measurement would under-estimate the envelope.
const CALIBRATION_SEEDS: u64 = 3;

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/comm_budget_curves.json"
);

/// One measured calibration point, pre-envelope.
struct Measured {
    kind: ProtocolKind,
    n: usize,
    h: usize,
    payload_bytes: usize,
    honest_bits: u64,
    max_locality: usize,
}

fn honest_bits_of(report: &SessionReport) -> u64 {
    let honest: BTreeSet<PartyId> = report.outcomes.keys().copied().collect();
    report.stats.bytes_sent_by(&honest) * 8
}

fn locality_of(report: &SessionReport) -> usize {
    let honest: BTreeSet<PartyId> = report.outcomes.keys().copied().collect();
    report.stats.max_locality_within(&honest)
}

/// Runs the whole calibration sweep as one pooled batch and folds the
/// per-seed measurements into per-point envelopes, in fixture order.
fn measure_calibration_sweep() -> Vec<Measured> {
    let mut pool = SessionPool::new(Sequential).with_workers(2);
    let mut layout = Vec::new();
    for kind in ProtocolKind::ALL {
        for (n, h) in kind.spec().calibration_grid() {
            for seed in 0..CALIBRATION_SEEDS {
                let plan = ScenarioPlan::new(
                    format!("cal{seed}-{}", kind.name()),
                    kind,
                    AdversarySpec::Honest,
                )
                .with_grid([(n, h)])
                .with_seed(seed);
                let scenario = plan.scenarios().remove(0);
                let payload = scenario.payload_bytes();
                pool.submit_task(registry::scenario_task(&scenario));
                layout.push((kind, n, h, payload));
            }
        }
    }
    let batch = pool.run().expect("calibration sweep executes");
    assert_eq!(batch.sessions.len(), layout.len());

    let mut measured: Vec<Measured> = Vec::new();
    for ((kind, n, h, payload_bytes), report) in layout.into_iter().zip(&batch.sessions) {
        assert!(
            !report.any_abort(),
            "calibration runs are honest; {} aborted",
            report.label
        );
        let bits = honest_bits_of(report);
        let locality = locality_of(report);
        match measured
            .iter_mut()
            .find(|m| m.kind == kind && m.n == n && m.h == h)
        {
            Some(point) => {
                point.honest_bits = point.honest_bits.max(bits);
                point.max_locality = point.max_locality.max(locality);
            }
            None => measured.push(Measured {
                kind,
                n,
                h,
                payload_bytes,
                honest_bits: bits,
                max_locality: locality,
            }),
        }
    }
    measured
}

/// Renders the fixture in its stable layout (one point per line, so diffs
/// stay readable); `mpca_core::catalog` reads it with `mpca_metrics::json`.
fn render_fixture(points: &[Measured]) -> String {
    let lines: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"protocol\":\"{}\",\"n\":{},\"h\":{},\"payload_bytes\":{},\
                 \"honest_bits\":{},\"max_locality\":{}}}",
                p.kind.name(),
                p.n,
                p.h,
                p.payload_bytes,
                p.honest_bits,
                p.max_locality
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"mpc-aborts/comm-budget-curves/v1\",\n  \"slack\": {},\n  \
         \"calibration_seeds\": {},\n  \"points\": [\n{}\n  ]\n}}\n",
        mpc_aborts::protocols::BUDGET_SLACK,
        CALIBRATION_SEEDS,
        lines.join(",\n")
    )
}

#[test]
fn budget_curves_match_the_golden_calibration_sweep() {
    let measured = measure_calibration_sweep();
    let rendered = render_fixture(&measured);

    if std::env::var_os("MPCA_BLESS").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write golden fixture");
        eprintln!("blessed {FIXTURE_PATH}; re-run tests so budgets reload");
        return;
    }

    let golden = std::fs::read_to_string(FIXTURE_PATH).expect("golden fixture is checked in");
    assert_eq!(
        rendered, golden,
        "calibration sweep diverged from the golden fixture; regenerate \
         with MPCA_BLESS=1 if the protocol change is intentional"
    );

    // The curves derived from these goldens must (a) admit every measured
    // honest envelope — no false alarms — and (b) sit strictly inside the
    // legacy hand constants — a real tightening.
    for point in &measured {
        let params = ProtocolParams::new(point.n, point.h);
        let curve = BudgetCurve::for_kind(point.kind).expect("fixture is loaded");
        let budget = curve.comm_budget_bits(&params, point.payload_bytes);
        let legacy = point
            .kind
            .fallback_budget_bits(&params, point.payload_bytes);
        assert!(
            point.honest_bits <= budget,
            "{} (n={}, h={}): measured {} bits above curve budget {}",
            point.kind,
            point.n,
            point.h,
            point.honest_bits,
            budget
        );
        assert!(
            budget < legacy,
            "{} (n={}, h={}): curve budget {} not tighter than legacy {}",
            point.kind,
            point.n,
            point.h,
            budget,
            legacy
        );

        let locality_budget = curve.locality_budget(&params);
        assert!(
            point.max_locality <= locality_budget,
            "{} (n={}, h={}): measured locality {} above budget {}",
            point.kind,
            point.n,
            point.h,
            point.max_locality,
            locality_budget
        );
        assert!(locality_budget < point.n);
    }
}
