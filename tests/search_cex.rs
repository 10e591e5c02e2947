//! Integration tests for the coverage-guided adversary search and its
//! counterexample artefacts:
//!
//! * **determinism** — the same seed yields the same candidate stream,
//!   coverage signatures and counterexample bytes, on either backend;
//! * **the rigged health check** — `Rig::LoosenFlooding` plants a
//!   violation the searcher must find and shrink;
//! * **golden counterexamples** — every `.cex` file checked in under
//!   `tests/counterexamples/` re-renders byte-identically and replays
//!   bit-for-bit (digest, event count, violated set, first span) on both
//!   backends, forever.

use mpc_aborts::engine::{Parallel, Sequential};
use mpc_aborts::scenario::{run_search, Counterexample, Rig, SearchConfig};

fn tiny_config(seed: u64) -> SearchConfig {
    SearchConfig {
        budget: 16,
        ..SearchConfig::tiny(seed)
    }
}

#[test]
fn search_is_deterministic_across_backends() {
    let config = tiny_config(5);
    let sequential = run_search(&config, Sequential).expect("search executes");
    let parallel = run_search(&config, Parallel::default()).expect("search executes");
    assert_eq!(sequential.executed, parallel.executed);
    assert_eq!(sequential.coverage, parallel.coverage);
    // Pinned signatures: a rule that stopped firing on the thm1, thm4 or
    // unchecked-sum equivocators, or on the charged flood, drops its line.
    let expected = [
        "all-to-all|HHHHHH|",
        "all-to-all|HHVHHV|flooding-never-charged",
        "broadcast|HHHHHH|",
        "thm1-mpc|HHHHHH|",
        "thm1-mpc|HHHHHH|broadcast-consistency",
        "thm2-local-mpc|HHHHHH|",
        "thm4-tradeoff|HHHHHH|broadcast-consistency",
        "unchecked-sum|HHHHHH|",
        "unchecked-sum|VHHHHH|broadcast-consistency",
    ];
    let coverage: Vec<&str> = sequential.coverage.iter().map(String::as_str).collect();
    assert_eq!(
        coverage, expected,
        "coverage signatures of the tiny search at seed 5, budget 16"
    );
    assert_eq!(
        sequential.counterexamples, parallel.counterexamples,
        "same seed, same counterexamples, whatever the backend"
    );
    assert!(
        sequential.findings.is_empty(),
        "an unrigged search over the standing templates finds nothing"
    );

    // Re-running the same configuration reproduces the run exactly.
    let again = run_search(&config, Sequential).expect("search executes");
    assert_eq!(again.coverage, sequential.coverage);
    assert_eq!(again.executed, sequential.executed);
}

#[test]
fn rigged_search_finds_shrinks_and_round_trips_a_counterexample() {
    let config = tiny_config(5).with_rig(Rig::LoosenFlooding);
    let report = run_search(&config, Sequential).expect("search executes");
    assert!(
        !report.counterexamples.is_empty(),
        "the rig plants a charged flood: {}",
        report.summary()
    );
    let cex = &report.counterexamples[0];
    assert!(cex.violated.iter().any(|v| v == "flooding-never-charged"));
    assert_eq!(cex.rig.as_deref(), Some("loosen-flooding"));

    // The artefact round-trips through its file format and the parsed copy
    // replays clean on both backends.
    let parsed = Counterexample::parse(&cex.render()).expect("parses");
    assert_eq!(&parsed, cex);
    assert_eq!(parsed.replay(Sequential).expect("replays"), vec![]);
    assert_eq!(parsed.replay(Parallel::default()).expect("replays"), vec![]);
}

#[test]
fn checked_in_counterexamples_replay_on_both_backends() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/counterexamples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/counterexamples exists")
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cex"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "at least one golden counterexample is checked in"
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("readable");
        let cex = Counterexample::parse(&text)
            .unwrap_or_else(|e| panic!("{} must parse: {e}", path.display()));
        assert_eq!(
            cex.render(),
            text,
            "{} must re-render byte-identically",
            path.display()
        );
        for (backend, mismatches) in [
            ("sequential", cex.replay(Sequential).expect("replays")),
            (
                "parallel",
                cex.replay(Parallel::default()).expect("replays"),
            ),
        ] {
            assert!(
                mismatches.is_empty(),
                "{} diverged on {backend}: {}",
                path.display(),
                mismatches
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            );
        }
    }
}
