//! Hot-path refactor safety net: the batched fan-out accounting, the
//! index-addressed inbox plane and the committee-draw memoization must be
//! **byte-identical** to the naive per-envelope implementation.
//!
//! Two layers of evidence:
//!
//! * a golden digest vector (`tests/golden/hotpath_digests.json`), blessed
//!   from the pre-refactor implementation, that pins the canonical trace
//!   digest, CommStats totals and phase attribution of one honest traced
//!   session per protocol family at asymptotic-regime sizes;
//! * property tests comparing the batched send path against the naive
//!   reference path (`mpca_net::set_naive_fanout_for_tests`) at arbitrary
//!   seeds for every family — the full `SessionReport` (outcomes, abort
//!   reasons, CommStats, phase attribution, inbox high-water marks and the
//!   `TraceSummary` digest) must match exactly.
//!
//! Regenerate the golden vector after an *intentional* protocol change with:
//!
//! ```sh
//! MPCA_BLESS=1 cargo test --test proptest_hotpaths golden
//! ```

use std::sync::Mutex;

use proptest::prelude::*;

use mpc_aborts::engine::{Sequential, SessionPool, SessionReport};
use mpc_aborts::net::set_naive_fanout_for_tests;
use mpc_aborts::protocols::ProtocolKind;
use mpc_aborts::scenario::{registry, AdversarySpec, CorruptionSpec, ScenarioPlan};

const FIXTURE_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/hotpath_digests.json"
);

/// The pinned grid: one `(n, h)` point per family, sized into the
/// asymptotic regime (n = 256) where a debug-mode run stays affordable.
/// The heavyweight gossip families (Õ(n³/h) traffic) are pinned at the
/// largest size a `cargo test` run can carry; E19 measures them further out.
fn digest_grid() -> Vec<(ProtocolKind, usize, usize)> {
    vec![
        (ProtocolKind::Theorem1Mpc, 256, 128),
        (ProtocolKind::Theorem2LocalMpc, 96, 48),
        (ProtocolKind::Theorem4Tradeoff, 96, 48),
        (ProtocolKind::Broadcast, 256, 254),
        (ProtocolKind::SuccinctAllToAll, 256, 254),
        (ProtocolKind::UncheckedSum, 256, 254),
    ]
}

const DIGEST_SEED: u64 = 7;

/// Runs one honest traced session of `kind` at `(n, h)` and returns its
/// report.
fn run_family(kind: ProtocolKind, n: usize, h: usize, seed: u64) -> SessionReport {
    run_scenario(kind, n, h, seed, AdversarySpec::Honest)
}

/// Runs one traced session of `kind` under `spec` and returns its report.
fn run_scenario(
    kind: ProtocolKind,
    n: usize,
    h: usize,
    seed: u64,
    spec: AdversarySpec,
) -> SessionReport {
    let plan = ScenarioPlan::new(format!("hotpath-{}", kind.name()), kind, spec)
        .with_grid([(n, h)])
        .with_seed(seed);
    let scenario = plan.scenarios().remove(0);
    let mut pool = SessionPool::new(Sequential).with_workers(1);
    pool.submit_task(registry::scenario_task(&scenario).with_tracing(true));
    let batch = pool.run().expect("honest session runs");
    batch.sessions.into_iter().next().expect("one session")
}

fn render_fixture(rows: &[(ProtocolKind, usize, usize, SessionReport)]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|(kind, n, h, report)| {
            let trace = report.trace.as_ref().expect("traced session");
            format!(
                "    {{\"protocol\":\"{}\",\"n\":{},\"h\":{},\"seed\":{},\"digest\":\"{}\",\
                 \"events\":{},\"total_bytes\":{},\"rounds\":{},\"peak_inbox_bytes\":{}}}",
                kind.name(),
                n,
                h,
                DIGEST_SEED,
                trace.digest,
                trace.events,
                report.stats.total_bytes(),
                report.rounds,
                report.peak_inbox_bytes,
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"mpc-aborts/hotpath-digests/v1\",\n  \"points\": [\n{}\n  ]\n}}\n",
        lines.join(",\n")
    )
}

/// The golden digest vector: byte-identity of the optimised hot paths with
/// the pre-refactor implementation, pinned per family. A drift in any
/// charged byte, trace event, phase attribution or delivery order changes
/// the canonical digest and fails this test.
#[test]
fn golden_hotpath_digest_vector_is_stable() {
    let rows: Vec<(ProtocolKind, usize, usize, SessionReport)> = digest_grid()
        .into_iter()
        .map(|(kind, n, h)| {
            let report = run_family(kind, n, h, DIGEST_SEED);
            assert!(!report.any_abort(), "{}: honest run aborted", kind.name());
            // Conservation: live phase accounting reconciles with the
            // trace-derived ledger inside the summary.
            let trace = report.trace.as_ref().expect("traced session");
            assert_eq!(trace.phase_bytes, report.phase_bytes);
            assert_eq!(report.phase_bytes.total(), report.stats.total_bytes());
            (kind, n, h, report)
        })
        .collect();
    let rendered = render_fixture(&rows);

    if std::env::var_os("MPCA_BLESS").is_some() {
        std::fs::write(FIXTURE_PATH, &rendered).expect("write golden fixture");
        eprintln!("blessed {FIXTURE_PATH}");
        return;
    }

    let golden = std::fs::read_to_string(FIXTURE_PATH).expect("golden fixture is checked in");
    assert_eq!(
        rendered, golden,
        "hot-path digests diverged from the pre-refactor golden vector; the \
         optimisation is supposed to be behaviour-preserving — regenerate \
         with MPCA_BLESS=1 only for an intentional protocol change"
    );
}

/// Wall-clock probe for sizing the digest grid and the E19 speedup table;
/// ignored by default (`cargo test --release -- --ignored hotpath_walls`).
#[test]
#[ignore = "timing probe, not a correctness test"]
fn hotpath_walls() {
    for (kind, n, h) in digest_grid() {
        let start = std::time::Instant::now();
        let report = run_family(kind, n, h, DIGEST_SEED);
        eprintln!(
            "{:<16} n={:<4} h={:<4} wall={:>8.1?} bytes={} rounds={}",
            kind.name(),
            n,
            h,
            start.elapsed(),
            report.stats.total_bytes(),
            report.rounds
        );
    }
    for n in [128usize, 256] {
        let start = std::time::Instant::now();
        let _ = run_family(ProtocolKind::SuccinctAllToAll, n, n - 2, DIGEST_SEED);
        eprintln!("all-to-all       n={n:<4} wall={:>8.1?}", start.elapsed());
    }
}

/// The fan-out knob is process-global, so naive/batched comparisons must not
/// interleave across test threads.
static FANOUT_KNOB: Mutex<()> = Mutex::new(());

/// Runs the same scenario through the naive per-envelope send path and the
/// batched fan-out path and returns both reports for comparison.
fn run_both_fanout_paths(
    kind: ProtocolKind,
    n: usize,
    h: usize,
    seed: u64,
    spec: AdversarySpec,
) -> (SessionReport, SessionReport) {
    let _guard = FANOUT_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    set_naive_fanout_for_tests(true);
    let naive = run_scenario(kind, n, h, seed, spec.clone());
    set_naive_fanout_for_tests(false);
    let batched = run_scenario(kind, n, h, seed, spec);
    (naive, batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Batched fan-out must be byte-identical to the naive per-envelope
    /// path for every protocol family at arbitrary seeds: same outcomes,
    /// same CommStats, same phase attribution, same inbox high-water marks,
    /// same canonical trace digest.
    #[test]
    fn batched_fanout_matches_naive_path_for_all_families(
        seed in any::<u64>(),
        n in 8usize..20,
    ) {
        for kind in ProtocolKind::ALL {
            // The gossip-backed families need a committee-sized honest
            // majority; the flat families tolerate h close to n.
            let h = match kind {
                ProtocolKind::Theorem1Mpc
                | ProtocolKind::Theorem2LocalMpc
                | ProtocolKind::Theorem4Tradeoff => n / 2 + 1,
                _ => n - 1,
            };
            let (naive, batched) =
                run_both_fanout_paths(kind, n, h, seed, AdversarySpec::Honest);
            prop_assert_eq!(&naive, &batched);
        }
    }

    /// The equivalence must also hold under an adversary: corrupted parties
    /// route through the proxy/injection path, whose charging and trace
    /// events share the hoisted per-round phase lookups with honest sends.
    #[test]
    fn batched_fanout_matches_naive_path_under_adversaries(
        seed in any::<u64>(),
        n in 8usize..16,
        junk in 1usize..256,
    ) {
        let silent = AdversarySpec::Silent {
            corrupt: CorruptionSpec::Seeded { count: 2 },
        };
        let flood = AdversarySpec::Flood {
            corrupt: CorruptionSpec::Explicit(vec![1]),
            victims: vec![],
            junk_bytes: junk,
            round_budget: Some(3),
        };
        for (kind, spec) in [
            (ProtocolKind::Broadcast, silent.clone()),
            (ProtocolKind::SuccinctAllToAll, flood),
            (ProtocolKind::UncheckedSum, silent),
        ] {
            let (naive, batched) = run_both_fanout_paths(kind, n, n - 2, seed, spec);
            prop_assert_eq!(&naive, &batched);
        }
    }
}
