//! The experiment suite. Every function regenerates one row-set of the
//! paper's quantitative claims; `DESIGN.md` §5 at the repository root maps
//! experiment ids to the theorems/claims they reproduce, and the harness
//! binary records the outcomes in `BENCH_results.json`.

use std::collections::BTreeSet;

use mpca_core::{
    all_to_all, committee, equality, gossip, local_committee, local_mpc, lower_bound, mpc,
    multi_output, sparse, tradeoff, ExecutionPath, ProtocolKind, ProtocolParams,
};
use mpca_crypto::lwe::LweParams;
use mpca_crypto::Prg;
use mpca_encfunc::spec::{Functionality, MultiOutputFunctionality};
use mpca_engine::{Sequential, SessionPool};
use mpca_net::{
    CommonRandomString, PartyId, PayloadAllocStats, RunResult, SilentAdversary, SimConfig,
    Simulator,
};

use crate::table::Table;

fn sum_params(n: usize, h: usize) -> ProtocolParams {
    ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    })
}

fn sum_inputs(n: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
    let values: Vec<u16> = (0..n as u16).map(|i| i * 23 + 7).collect();
    let inputs = values.iter().map(|v| v.to_le_bytes().to_vec()).collect();
    let total = values.iter().fold(0u16, |a, v| a.wrapping_add(*v));
    (inputs, total.to_le_bytes().to_vec())
}

fn run_theorem1(n: usize, h: usize, label: &str) -> RunResult<Vec<u8>> {
    let params = sum_params(n, h);
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, expected) = sum_inputs(n);
    let crs = CommonRandomString::from_label(label.as_bytes());
    let parties = mpc::mpc_parties(
        &params,
        &functionality,
        ExecutionPath::Concrete,
        &inputs,
        crs,
        &BTreeSet::new(),
    );
    let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    assert_eq!(
        result.unanimous_output(),
        Some(&expected),
        "Theorem 1 run must be correct"
    );
    result
}

fn run_theorem2(n: usize, h: usize, label: &str) -> RunResult<Vec<u8>> {
    let params = sum_params(n, h);
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, expected) = sum_inputs(n);
    let crs = CommonRandomString::from_label(label.as_bytes());
    let parties =
        local_mpc::local_mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    assert_eq!(
        result.unanimous_output(),
        Some(&expected),
        "Theorem 2 run must be correct"
    );
    result
}

fn run_theorem4(n: usize, h: usize, label: &str) -> RunResult<Vec<u8>> {
    let params = sum_params(n, h);
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, expected) = sum_inputs(n);
    let crs = CommonRandomString::from_label(label.as_bytes());
    let parties = tradeoff::tradeoff_parties(
        &params,
        &functionality,
        ExecutionPath::Concrete,
        &inputs,
        crs,
        &BTreeSet::new(),
    );
    let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    assert_eq!(
        result.unanimous_output(),
        Some(&expected),
        "Theorem 4 run must be correct"
    );
    result
}

/// `E1-comm-thm1` — Theorem 1: communication scales as `Õ(n²/h)`.
pub fn exp_theorem1() -> Table {
    let mut table = Table::new(
        "E1-comm-thm1",
        "Theorem 1 (Algorithm 3): honest communication vs n and h; the paper predicts Õ(n²/h).",
        &["n", "h", "bits", "bits·h/n² (≈const)", "locality", "rounds"],
    );
    for (n, h) in [
        (32, 8),
        (64, 8),
        (64, 16),
        (64, 32),
        (64, 64),
        (96, 24),
        (128, 32),
    ] {
        let result = run_theorem1(n, h, &format!("e1-{n}-{h}"));
        let bits = result.honest_bits();
        let normalised = bits as f64 * h as f64 / (n * n) as f64;
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            bits.to_string(),
            format!("{normalised:.1}"),
            result.honest_locality().to_string(),
            result.rounds.to_string(),
        ]);
    }
    table
}

/// `E2-locality-thm2` — Theorem 2: `Õ(n³/h)` bits with locality `Õ(n/h)`.
pub fn exp_theorem2() -> Table {
    let mut table = Table::new(
        "E2-locality-thm2",
        "Theorem 2 (sparse gossip MPC): bits and locality vs n and h; predictions Õ(n³/h) and Õ(n/h).",
        &["n", "h", "bits", "bits·h/n³ (≈const)", "locality", "deg bound"],
    );
    for (n, h) in [(32, 16), (48, 16), (48, 24), (64, 32), (64, 48), (96, 48)] {
        let params = sum_params(n, h);
        let result = run_theorem2(n, h, &format!("e2-{n}-{h}"));
        let bits = result.honest_bits();
        let normalised = bits as f64 * h as f64 / (n * n * n) as f64;
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            bits.to_string(),
            format!("{normalised:.2}"),
            result.honest_locality().to_string(),
            (params.sparse_degree() + params.sparse_in_bound()).to_string(),
        ]);
    }
    table
}

/// `E3-tradeoff-thm4` — Theorem 4: `Õ(n³/h^{3/2})` bits, locality `Õ(n/√h)`.
pub fn exp_theorem4() -> Table {
    let mut table = Table::new(
        "E3-tradeoff-thm4",
        "Theorem 4 (Algorithm 8): bits and locality vs n and h; predictions Õ(n³/h^1.5) and Õ(n/√h).",
        &["n", "h", "bits", "bits·h^1.5/n³", "locality", "cover |S_c|"],
    );
    for (n, h) in [(32, 16), (48, 16), (48, 24), (64, 32), (64, 48)] {
        let params = sum_params(n, h);
        let result = run_theorem4(n, h, &format!("e3-{n}-{h}"));
        let bits = result.honest_bits();
        let normalised = bits as f64 * (h as f64).powf(1.5) / (n * n * n) as f64;
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            bits.to_string(),
            format!("{normalised:.2}"),
            result.honest_locality().to_string(),
            params.cover_size().to_string(),
        ]);
    }
    table
}

/// `E4-lower-bound` — Theorem 3: the isolation attack succeeds below the
/// `Ω(n/h)` locality threshold and fails above it.
pub fn exp_lower_bound() -> Table {
    let mut table = Table::new(
        "E4-lower-bound",
        "Theorem 3: isolation-attack success vs per-party contact budget (n = 64, h = 8, threshold n/8(h-1) ≈ 1.1).",
        &["budget", "isolation rate", "correctness violations", "vs threshold"],
    );
    let (n, h, trials) = (64usize, 8usize, 80usize);
    let threshold = lower_bound::locality_threshold(n, h);
    for budget in [1usize, 2, 4, 8, 16, 32, 48] {
        let (isolation, violation) = lower_bound::isolation_attack_rate(
            n,
            h,
            budget,
            trials,
            format!("e4-{budget}").as_bytes(),
        );
        table.push_row(vec![
            budget.to_string(),
            format!("{isolation:.2}"),
            format!("{violation:.2}"),
            if (budget as f64) < threshold {
                "below".into()
            } else {
                "above".into()
            },
        ]);
    }
    table
}

/// `E5-baseline-gl` — §2.1: naive GL all-to-all (`O(n³ℓ)`) vs the succinct
/// variant (`Õ(n²(ℓ+λ))`).
pub fn exp_baseline() -> Table {
    let mut table = Table::new(
        "E5-baseline-gl",
        "All-to-all broadcast with abort: naive GL echo vs succinct equality-tested variant (ℓ = 64 bytes).",
        &["n", "naive bits", "succinct bits", "ratio"],
    );
    for n in [8usize, 12, 16, 24, 32] {
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
        let naive = Simulator::all_honest(n, all_to_all::naive_parties(&inputs, &BTreeSet::new()))
            .unwrap()
            .run()
            .unwrap();
        let succinct = Simulator::all_honest(
            n,
            all_to_all::succinct_parties(
                &inputs,
                24,
                format!("e5-{n}").as_bytes(),
                &BTreeSet::new(),
            ),
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(naive.unanimous_output(), succinct.unanimous_output());
        table.push_row(vec![
            n.to_string(),
            naive.honest_bits().to_string(),
            succinct.honest_bits().to_string(),
            format!(
                "{:.1}x",
                naive.honest_bits() as f64 / succinct.honest_bits() as f64
            ),
        ]);
    }
    table
}

/// `E6-equality` — Lemma 5: the equality test exchanges `O(λ log n)` bits
/// independently of the string length and never errs on equal strings.
pub fn exp_equality() -> Table {
    let mut table = Table::new(
        "E6-equality",
        "Lemma 5 (Algorithm 1): bits exchanged and error rate vs string length (λ = 24, 200 trials each).",
        &["string bytes", "bits exchanged", "false rejects", "false accepts"],
    );
    let mut prg = Prg::from_seed_bytes(b"e6");
    for len in [64usize, 1024, 16 * 1024, 256 * 1024] {
        let base = prg.gen_bytes(len);
        let mut bits = 0u64;
        let mut false_rejects = 0usize;
        let mut false_accepts = 0usize;
        for trial in 0..200 {
            let equal_case = trial % 2 == 0;
            let mut other = base.clone();
            if !equal_case {
                let idx = prg.gen_range(len as u64) as usize;
                other[idx] ^= 0x5A;
            }
            let parties = vec![
                equality::EqualityParty::new(
                    PartyId(0),
                    PartyId(1),
                    24,
                    base.clone(),
                    prg.derive_indexed(b"e6-p0", trial),
                ),
                equality::EqualityParty::new(
                    PartyId(1),
                    PartyId(0),
                    24,
                    other,
                    prg.derive_indexed(b"e6-p1", trial),
                ),
            ];
            let result = Simulator::all_honest(2, parties).unwrap().run().unwrap();
            bits = result.honest_bits();
            let verdict = result
                .outcome_of(PartyId(0))
                .unwrap()
                .output()
                .unwrap()
                .equal;
            if equal_case && !verdict {
                false_rejects += 1;
            }
            if !equal_case && verdict {
                false_accepts += 1;
            }
        }
        table.push_row(vec![
            len.to_string(),
            bits.to_string(),
            false_rejects.to_string(),
            false_accepts.to_string(),
        ]);
    }
    table
}

/// `E7-committee` — Claims 12/14: committee size, cost and the hitting-set
/// guarantee of Algorithm 2.
pub fn exp_committee() -> Table {
    let mut table = Table::new(
        "E7-committee",
        "Algorithm 2: committee size and election cost vs h (n = 128); expected size ≈ α·n·log n/h.",
        &["n", "h", "|C| measured", "|C| expected", "bits", "agreed"],
    );
    let n = 128;
    for h in [8usize, 16, 32, 64, 128] {
        let params = ProtocolParams::new(n, h);
        let parties =
            committee::committee_parties(&params, format!("e7-{h}").as_bytes(), &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        let views: Vec<_> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .collect();
        let agreed = views.windows(2).all(|w| w[0].committee == w[1].committee);
        let size = views.first().map(|v| v.committee.len()).unwrap_or(0);
        let expected = params.election_probability() * n as f64;
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            size.to_string(),
            format!("{expected:.1}"),
            result.honest_bits().to_string(),
            agreed.to_string(),
        ]);
    }
    table
}

/// `E8-sparse-graph` — Claims 20/21: routing-graph degree, connectivity and
/// gossip cost.
pub fn exp_sparse() -> Table {
    let mut table = Table::new(
        "E8-sparse-graph",
        "Algorithm 5 + 6: routing degree, honest-subgraph connectivity and gossip cost (n = 96).",
        &[
            "n",
            "h",
            "max degree",
            "degree bound",
            "connected",
            "gossip bits",
        ],
    );
    let n = 96;
    for h in [16usize, 32, 48, 96] {
        let params = ProtocolParams::new(n, h);
        let parties =
            sparse::sparse_parties(&params, format!("e8-{h}").as_bytes(), &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        let graph: std::collections::BTreeMap<PartyId, BTreeSet<PartyId>> = result
            .outcomes
            .iter()
            .map(|(id, o)| (*id, o.output().unwrap().neighbors.clone()))
            .collect();
        let max_degree = graph.values().map(BTreeSet::len).max().unwrap_or(0);
        let connected = sparse::honest_subgraph_connected(&graph);
        let gossip_parties: Vec<gossip::GossipParty> = graph
            .iter()
            .map(|(id, neighbors)| {
                gossip::GossipParty::new(
                    *id,
                    neighbors.clone(),
                    Some(vec![id.index() as u8; 8].into()),
                    params.gossip_rounds(),
                )
            })
            .collect();
        let gossip_result = Simulator::all_honest(n, gossip_parties)
            .unwrap()
            .run()
            .unwrap();
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            max_degree.to_string(),
            (params.sparse_degree() + params.sparse_in_bound()).to_string(),
            connected.to_string(),
            gossip_result.honest_bits().to_string(),
        ]);
    }
    table
}

/// `E9-covering` — Claims 22/23: local committee size and agreement.
pub fn exp_covering() -> Table {
    let mut table = Table::new(
        "E9-covering",
        "Algorithm 7: local committee size vs h (n = 96); expected ≈ α·n·log n/√h, bound 2pn.",
        &["n", "h", "|C| measured", "|C| expected", "bound", "agreed"],
    );
    let n = 96;
    for h in [16usize, 32, 64, 96] {
        let params = ProtocolParams::new(n, h).with_alpha(1.0);
        let crs = CommonRandomString::from_label(format!("e9-{h}").as_bytes());
        let parties = local_committee::local_committee_parties(&params, crs, &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        let views: Vec<_> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .collect();
        let agreed = views
            .windows(2)
            .all(|w| w[0].view.committee == w[1].view.committee);
        let size = views.first().map(|v| v.view.committee.len()).unwrap_or(0);
        let expected = params.local_election_probability() * n as f64;
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            size.to_string(),
            format!("{expected:.1}"),
            params.local_committee_bound().to_string(),
            agreed.to_string(),
        ]);
    }
    table
}

/// `E10-multi-output` — §4.3: multi-output MPC delivers per-party outputs
/// with `Õ(n²/h)` communication rather than `O(n³/h²)`.
pub fn exp_multi_output() -> Table {
    let mut table = Table::new(
        "E10-multi-output",
        "Algorithm 4: Vickrey auction with per-party outputs; bits vs n (h = n/2).",
        &["n", "h", "bits", "bits·h/n²", "all outputs correct"],
    );
    for n in [8usize, 12, 16, 24] {
        let h = n / 2;
        let params = ProtocolParams::new(n, h);
        let functionality = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
        let bids: Vec<u16> = (0..n as u16).map(|i| i * 97 % 1024).collect();
        let inputs: Vec<Vec<u8>> = bids.iter().map(|b| b.to_le_bytes().to_vec()).collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(format!("e10-{n}").as_bytes());
        let parties = multi_output::multi_output_parties(
            &params,
            &functionality,
            &inputs,
            crs,
            &BTreeSet::new(),
        );
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        let correct = PartyId::all(n).all(|id| {
            result.outcome_of(id).and_then(|o| o.output()) == Some(&expected[id.index()])
        });
        let bits = result.honest_bits();
        table.push_row(vec![
            n.to_string(),
            h.to_string(),
            bits.to_string(),
            format!("{:.1}", bits as f64 * h as f64 / (n * n) as f64),
            correct.to_string(),
        ]);
    }
    table
}

/// `E11-crossover` — who wins where: Theorems 1, 2 and 4 on the same grid.
pub fn exp_crossover() -> Table {
    let mut table = Table::new(
        "E11-crossover",
        "Protocol comparison on a fixed workload (sum of 16-bit inputs, n = 48): communication vs locality.",
        &["h", "Thm1 bits", "Thm2 bits", "Thm4 bits", "Thm1 loc", "Thm2 loc", "Thm4 loc"],
    );
    let n = 48;
    for h in [12usize, 24, 48] {
        let r1 = run_theorem1(n, h, &format!("e11-1-{h}"));
        let r2 = run_theorem2(n, h, &format!("e11-2-{h}"));
        let r4 = run_theorem4(n, h, &format!("e11-4-{h}"));
        table.push_row(vec![
            h.to_string(),
            r1.honest_bits().to_string(),
            r2.honest_bits().to_string(),
            r4.honest_bits().to_string(),
            r1.honest_locality().to_string(),
            r2.honest_locality().to_string(),
            r4.honest_locality().to_string(),
        ]);
    }
    table
}

/// `E12-adversary` — security smoke test: adversarial executions never make
/// honest parties output inconsistent values.
pub fn exp_adversary() -> Table {
    let mut table = Table::new(
        "E12-adversary",
        "Adversarial executions (n = 24, 6 corrupted, silent adversary): honest parties agree or abort.",
        &["protocol", "any abort", "honest outputs agree", "correct-or-abort"],
    );
    let n = 24;
    let corrupted: BTreeSet<PartyId> = (0..6).map(PartyId).collect();
    let h = n - corrupted.len();
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, _) = sum_inputs(n);
    let honest_total: u16 = inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| !corrupted.contains(&PartyId(*i)))
        .fold(0u16, |a, (_, v)| {
            a.wrapping_add(u16::from_le_bytes([v[0], v[1]]))
        });
    let expected = honest_total.to_le_bytes().to_vec();

    // Theorem 1 under a silent adversary.
    let params = sum_params(n, h);
    let crs = CommonRandomString::from_label(b"e12-thm1");
    let parties = mpc::mpc_parties(
        &params,
        &functionality,
        ExecutionPath::Concrete,
        &inputs,
        crs,
        &corrupted,
    );
    let r1 = Simulator::new(
        n,
        parties,
        Box::new(SilentAdversary::new(corrupted.clone())),
        SimConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();

    // Theorem 2 under a silent adversary.
    let crs = CommonRandomString::from_label(b"e12-thm2");
    let parties = local_mpc::local_mpc_parties(&params, &functionality, &inputs, crs, &corrupted);
    let r2 = Simulator::new(
        n,
        parties,
        Box::new(SilentAdversary::new(corrupted.clone())),
        SimConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();

    for (label, result) in [("Theorem 1 (Alg. 3)", r1), ("Theorem 2 (gossip)", r2)] {
        let outputs: Vec<_> = result
            .outcomes
            .values()
            .filter_map(|o| o.output())
            .collect();
        let agree = outputs.windows(2).all(|w| w[0] == w[1]);
        table.push_row(vec![
            label.to_string(),
            result.any_abort().to_string(),
            agree.to_string(),
            result.correct_or_aborted(&expected).to_string(),
        ]);
    }
    table
}

/// `E13-engine-sweep` — the `mpca-engine` session pool: the Theorem 1 / 2 /
/// 4 protocols across a parameter grid in **one pooled batch**, instead of
/// one slow sequential run per configuration.
///
/// The pool's workers provide the parallelism here (one session per
/// worker); each session runs on the `Sequential` backend because these
/// networks are small — per-round thread fan-out costs more than the party
/// work and would oversubscribe workers × threads, skewing the throughput
/// numbers this experiment exists to track. The `Parallel` backend's
/// equivalence is covered by `tests/engine_batch.rs`.
pub fn exp_engine_sweep() -> Table {
    let mut table = Table::new(
        "E13-engine-sweep",
        "SessionPool batch (pooled workers, sequential per-session backend): Theorems 1, 2 and 4 \
         over an (n, h) grid in one batch; per-session bits/rounds plus batch throughput.",
        &["session", "n", "h", "bits", "rounds", "aborts"],
    );
    let mut pool = SessionPool::new(Sequential);
    let grid = [(24usize, 8usize), (24, 12), (32, 16), (48, 24)];
    // Sessions come back in submission order: 3 protocols per grid point.
    let session_params: Vec<(usize, usize)> = grid
        .iter()
        .flat_map(|&nh| std::iter::repeat_n(nh, 3))
        .collect();
    for &(n, h) in &grid {
        let params = sum_params(n, h);
        let functionality = Functionality::Sum { input_bytes: 2 };
        let (inputs, _) = sum_inputs(n);

        let (p, f, i) = (params, functionality.clone(), inputs.clone());
        pool.submit(format!("thm1-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("e13-1-{n}-{h}").as_bytes());
            let parties =
                mpc::mpc_parties(&p, &f, ExecutionPath::Concrete, &i, crs, &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });

        let (p, f, i) = (params, functionality.clone(), inputs.clone());
        pool.submit(format!("thm2-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("e13-2-{n}-{h}").as_bytes());
            let parties = local_mpc::local_mpc_parties(&p, &f, &i, crs, &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });

        pool.submit(format!("thm4-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("e13-4-{n}-{h}").as_bytes());
            let parties = tradeoff::tradeoff_parties(
                &params,
                &functionality,
                ExecutionPath::Concrete,
                &inputs,
                crs,
                &BTreeSet::new(),
            );
            Simulator::all_honest(n, parties)
        });
    }
    let batch = pool.run().expect("engine sweep batch");
    for (session, &(n, h)) in batch.sessions.iter().zip(&session_params) {
        table.push_row(vec![
            session.label.clone(),
            n.to_string(),
            h.to_string(),
            (session.total_bytes() * 8).to_string(),
            session.rounds.to_string(),
            session.any_abort().to_string(),
        ]);
    }
    table.push_row(vec![
        "TOTAL".into(),
        String::new(),
        String::new(),
        (batch.total_bytes() * 8).to_string(),
        batch.total_rounds().to_string(),
        format!(
            "{:.1} sessions/s, {:.0} rounds/s",
            batch.sessions_per_sec(),
            batch.rounds_per_sec()
        ),
    ]);
    table
}

/// One `E14-message-plane` measurement: the succinct all-to-all at `n`,
/// reporting what the zero-copy plane materialised versus what a
/// copy-per-recipient plane would have copied.
///
/// Returns `(wire_bytes, materialised_bytes, buffers, rounds)`. The old
/// plane cloned every message body per recipient on send (and again per
/// relay hop), so the bytes it copied are bounded **below** by the wire
/// bytes charged to `CommStats` — that conservative floor is the "before"
/// column. The "after" column is the process-wide `Payload` allocation
/// delta over the execution: each distinct message body materialises once,
/// however many envelopes share it.
pub fn measure_message_plane(n: usize) -> (u64, u64, u64, usize) {
    let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 64]).collect();
    let parties =
        all_to_all::succinct_parties(&inputs, 24, format!("e14-{n}").as_bytes(), &BTreeSet::new());
    let before = PayloadAllocStats::snapshot();
    let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    let delta = PayloadAllocStats::snapshot().since(before);
    assert!(!result.any_abort(), "E14 runs all-honest");
    (
        result.stats.total_bytes(),
        delta.bytes,
        delta.buffers,
        result.rounds,
    )
}

/// `E14-message-plane` — the zero-copy message plane: bytes materialised by
/// the shared-`Payload` plane vs the bytes the historical clone-per-recipient
/// plane copied, for the succinct all-to-all (ℓ = 64 bytes) at
/// n ∈ {32, 64, 128}.
pub fn exp_message_plane() -> Table {
    let mut table = Table::new(
        "E14-message-plane",
        "Zero-copy message plane: wire bytes (≡ bytes copied by the old clone-per-recipient \
         plane) vs bytes actually materialised by the shared-Payload plane; succinct \
         all-to-all, ℓ = 64.",
        &[
            "n",
            "wire bytes (old copies)",
            "materialised bytes",
            "buffers",
            "copy reduction",
        ],
    );
    for n in [32usize, 64, 128] {
        let (wire, materialised, buffers, _) = measure_message_plane(n);
        table.push_row(vec![
            n.to_string(),
            wire.to_string(),
            materialised.to_string(),
            buffers.to_string(),
            format!("{:.1}x", wire as f64 / materialised.max(1) as f64),
        ]);
    }
    table
}

/// `E15-scenario-campaign` — the `mpca-scenario` subsystem: the standard
/// adversarial campaign (every protocol family under honest, silent,
/// crash-at-round, withholding, equivocating and triggered-flood
/// adversaries) runs as one pooled batch, and the security-property oracle
/// checks every session against the paper's predicates. The campaign
/// carries a rigged negative control (a verification-free sum under
/// equivocation) the oracle **must** flag, so a row with `VIOLATED`
/// agreement and `expected? = yes` is a passing result.
pub fn exp_scenario_campaign() -> Table {
    let mut table = Table::new(
        "E15-scenario-campaign",
        "Adversarial-scenario campaign: oracle verdicts (Agreement / Identified-abort / \
         Flooding-rule / comm-Budget) per scenario; 'ctl-equivocate' is the rigged control the \
         oracle must flag.",
        &mpca_scenario::CampaignReport::ROW_HEADERS,
    );
    let report = mpca_scenario::standard_campaign(0)
        .run(Sequential, 2)
        .expect("scenario campaign executes");
    assert!(
        report.len() >= 12,
        "acceptance requires >= 12 scenarios, got {}",
        report.len()
    );
    assert!(
        report.all_as_expected(),
        "every verdict must match its expectation:\n{}",
        report.render()
    );
    assert!(
        !report.violations().is_empty(),
        "the rigged control must be flagged Violated"
    );
    for outcome in &report.outcomes {
        table.push_row(outcome.row_cells());
    }
    table
}

/// `E16-sweep` — campaign sweep mode at scale: `ProtocolKind::ALL` ×
/// seeded adversary classes × the widened `(n, h)` grids, 150+ scenarios
/// streamed through one `SessionPool` batch, every session judged by the
/// security-property oracle against the **tightened golden-derived budget
/// curves** (comm + locality; DESIGN.md §7). Rows aggregate per plan
/// (protocol × adversary class) over the first run; the TOTAL row records
/// campaign wall-clock and per-scenario throughput, which is the cross-PR
/// trajectory this experiment exists to track. One run takes a few tenths
/// of a second, so the TOTAL row's timings are medians of `RUNS` runs.
pub fn exp_sweep() -> Table {
    const RUNS: usize = 5;
    let mut table = Table::new(
        "E16-sweep",
        "Sweep campaign (every protocol x seeded adversary classes x widened (n, h) grid, one \
         pooled batch): per-plan verdict aggregates, max budget utilisation vs the golden-derived \
         envelopes, and campaign wall-clock + throughput in the TOTAL row.",
        &[
            "plan",
            "protocol",
            "adversary",
            "scenarios",
            "n range",
            "rounds",
            "honest bits",
            "max budget util",
            "verdicts",
            "wall p50 ms",
            "wall p99 ms",
            "queue p50 ms",
            "queue p99 ms",
        ],
    );
    let campaign = mpca_scenario::sweep_campaign(0);
    let runs: Vec<_> = (0..RUNS)
        .map(|_| {
            campaign
                .run(Sequential, 2)
                .expect("sweep campaign executes")
        })
        .collect();
    let report = &runs[0];
    assert!(
        report.len() >= 100,
        "acceptance requires >= 100 sweep scenarios, got {}",
        report.len()
    );
    assert!(
        report.all_as_expected(),
        "every sweep verdict must match its expectation:\n{}",
        report.render()
    );
    assert_eq!(
        report.violations().len(),
        2,
        "exactly the rigged controls are flagged"
    );
    for run in &runs[1..] {
        assert_eq!(
            run.verdict_digest(),
            report.verdict_digest(),
            "every run of the sweep reaches the same verdicts"
        );
    }
    // The median over the runs of one timing, in milliseconds.
    let median_ms = |timing: &dyn Fn(&mpca_scenario::CampaignReport) -> std::time::Duration| {
        let mut ms: Vec<f64> = runs
            .iter()
            .map(|run| timing(run).as_secs_f64() * 1000.0)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms[RUNS / 2]
    };
    let wall_ms = median_ms(&|run| run.wall);

    // Aggregate outcomes per plan: scenarios share a plan exactly when they
    // share a label prefix (plan name + adversary), i.e. everything before
    // the grid suffix.
    let plan_key =
        |label: &str| -> String { label.split("-n").next().unwrap_or(label).to_string() };
    let mut seen: Vec<String> = Vec::new();
    for outcome in &report.outcomes {
        let key = plan_key(&outcome.scenario.label);
        if !seen.contains(&key) {
            seen.push(key);
        }
    }
    for key in &seen {
        let of_plan: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| plan_key(&o.scenario.label) == *key)
            .collect();
        let first = of_plan[0];
        let (n_min, n_max) = of_plan.iter().fold((usize::MAX, 0), |(lo, hi), o| {
            (lo.min(o.scenario.n), hi.max(o.scenario.n))
        });
        let rounds: usize = of_plan.iter().map(|o| o.report.rounds).sum();
        let bits: u64 = of_plan.iter().map(|o| o.honest_bits()).sum();
        let max_util = of_plan
            .iter()
            .map(|o| {
                let budget = o
                    .scenario
                    .kind
                    .comm_budget_bits(&o.scenario.params(), o.scenario.payload_bytes());
                o.honest_bits() as f64 / budget.max(1) as f64
            })
            .fold(0.0, f64::max);
        let all_hold = of_plan.iter().all(|o| o.holds());
        table.push_row(vec![
            key.clone(),
            first.scenario.kind.name().to_string(),
            first.scenario.adversary.name(),
            of_plan.len().to_string(),
            if n_min == n_max {
                n_min.to_string()
            } else {
                format!("{n_min}..{n_max}")
            },
            rounds.to_string(),
            bits.to_string(),
            format!("{:.0}%", max_util * 100.0),
            if all_hold {
                "all hold".into()
            } else {
                "flagged".into()
            },
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    table.push_row(vec![
        "TOTAL".into(),
        String::new(),
        String::new(),
        report.len().to_string(),
        String::new(),
        report
            .outcomes
            .iter()
            .map(|o| o.report.rounds)
            .sum::<usize>()
            .to_string(),
        report
            .outcomes
            .iter()
            .map(|o| o.honest_bits())
            .sum::<u64>()
            .to_string(),
        format!("{wall_ms:.0} ms wall"),
        format!(
            "{:.1} scenarios/s",
            report.len() as f64 / (wall_ms / 1000.0).max(1e-9)
        ),
        format!("{:.2}", median_ms(&|run| run.wall_p50())),
        format!("{:.2}", median_ms(&|run| run.wall_p99())),
        format!("{:.2}", median_ms(&|run| run.queue_p50())),
        format!("{:.2}", median_ms(&|run| run.queue_p99())),
    ]);
    table
}

/// `E17-trace` — trace-recording overhead: the tiny sweep campaign runs
/// back-to-back untraced, digest-only and traced, best-of-`REPS`
/// wall-clock per mode. Digest-only is what `campaign --sweep` runs: every
/// event is folded into the session's summary (one SHA-256 digest per
/// session) and none is stored. Traced retains every stream as zero-copy
/// `Payload` windows and runs the predicate oracle over it. The
/// acceptance target is **< 10 % wall-clock overhead** for digest-only
/// tracing, which is what lets campaigns keep tracing on by default
/// (behavioural oracle predicates, `--record` / `--replay`); the
/// events/milestones columns track how much structure the trace plane
/// captures for that price.
pub fn exp_trace_overhead() -> Table {
    const REPS: usize = 7;
    let mut table = Table::new(
        "E17-trace",
        "Trace-recording overhead on the tiny sweep campaign (untraced vs digest-only vs traced \
         with retained streams, best-of-7 wall-clock): events and milestones recorded, and the \
         overhead the <10% digest-only acceptance target bounds.",
        &[
            "mode",
            "scenarios",
            "events",
            "milestones",
            "injected",
            "best wall ms",
            "overhead",
        ],
    );
    let campaign = mpca_scenario::tiny_sweep_campaign(0);
    // (traced, retained streams) per mode, in table order.
    let modes = [
        ("untraced", false, false),
        ("digest-only", true, false),
        ("traced", true, true),
    ];
    let mut best = [f64::MAX; 3];
    let mut reports = Vec::new();
    for _ in 0..REPS {
        reports.clear();
        for (i, (mode, traced, retain)) in modes.into_iter().enumerate() {
            let start = std::time::Instant::now();
            let report = campaign
                .run_configured(Sequential, 1, traced, retain, |_| {})
                .expect("tiny sweep runs");
            best[i] = best[i].min(start.elapsed().as_secs_f64() * 1000.0);
            assert!(report.all_as_expected(), "{mode} sweep must pass");
            reports.push(report);
        }
    }
    assert_eq!(
        reports[1].trace_summaries(),
        reports[2].trace_summaries(),
        "digest-only and retained recordings summarise identically"
    );
    for ((mode, traced, _), (report, wall)) in modes.into_iter().zip(reports.iter().zip(best)) {
        let summaries = report.trace_summaries();
        assert_eq!(
            summaries.len(),
            if traced { report.len() } else { 0 },
            "every traced session carries a summary"
        );
        let events: u64 = summaries.iter().map(|(_, s)| s.events).sum();
        let milestones: u64 = summaries.iter().map(|(_, s)| s.milestones).sum();
        let injected: u64 = summaries.iter().map(|(_, s)| s.injected_sends).sum();
        let overhead = (wall - best[0]) / best[0].max(1e-9) * 100.0;
        table.push_row(vec![
            mode.into(),
            report.len().to_string(),
            events.to_string(),
            milestones.to_string(),
            injected.to_string(),
            format!("{wall:.1}"),
            if traced {
                format!("{overhead:+.1}%")
            } else {
                "baseline".into()
            },
        ]);
    }
    table
}

/// `E18-metrics` — the metrics plane's price and its payoff. Price: the
/// tiny sweep campaign runs back-to-back with the registry disabled and
/// enabled (span timers, phase-wall flushes, payload mirrors, session
/// histograms all live), best-of-`REPS` wall-clock per mode; the acceptance
/// target is **< 10 % overhead**, same bar as `E17-trace`. Payoff: one row
/// per protocol family decomposing its honest-execution communication into
/// per-phase charged bytes via the phase clock — the cost-attribution view
/// no aggregate `CommStats` total can give. Each family row also asserts
/// byte conservation: the six phase cells sum to the session's total.
pub fn exp_metrics() -> Table {
    const REPS: usize = 3;
    let mut table = Table::new(
        "E18-metrics",
        "Metrics-plane overhead on the tiny sweep campaign (registry off vs on, best-of-3 \
         wall-clock, <10% acceptance target), then the per-phase byte decomposition of every \
         protocol family's honest execution (n = 8, phase clock driven by milestones).",
        &[
            "mode/family",
            "setup B",
            "crs B",
            "committee B",
            "sharing B",
            "verification B",
            "output B",
            "total B",
            "best wall ms",
            "overhead",
        ],
    );

    let campaign = mpca_scenario::tiny_sweep_campaign(0);
    let mut best_off = f64::MAX;
    let mut best_on = f64::MAX;
    for _ in 0..REPS {
        mpca_metrics::set_enabled(false);
        let start = std::time::Instant::now();
        let off = campaign.run(Sequential, 1).expect("metrics-off sweep runs");
        best_off = best_off.min(start.elapsed().as_secs_f64() * 1000.0);
        assert!(off.all_as_expected(), "metrics-off sweep must pass");

        mpca_metrics::set_enabled(true);
        let start = std::time::Instant::now();
        let on = campaign.run(Sequential, 1).expect("metrics-on sweep runs");
        best_on = best_on.min(start.elapsed().as_secs_f64() * 1000.0);
        mpca_metrics::set_enabled(false);
        assert!(on.all_as_expected(), "metrics-on sweep must pass");
        assert_eq!(
            off.verdict_digest(),
            on.verdict_digest(),
            "the metrics plane must not perturb verdicts"
        );
    }
    let overhead = (best_on - best_off) / best_off.max(1e-9) * 100.0;
    let blank_phases = |mut row: Vec<String>| -> Vec<String> {
        let tail = row.split_off(1);
        row.extend(std::iter::repeat_n("-".to_string(), 7));
        row.extend(tail);
        row
    };
    table.push_row(blank_phases(vec![
        "metrics-off".into(),
        format!("{best_off:.1}"),
        "baseline".into(),
    ]));
    table.push_row(blank_phases(vec![
        "metrics-on".into(),
        format!("{best_on:.1}"),
        format!("{overhead:+.1}%"),
    ]));

    // Per-family phase decomposition: one honest n = 8 session per protocol
    // family, phase bytes attributed by the milestone-driven phase clock.
    let mut pool = SessionPool::new(Sequential).with_workers(1);
    for (i, kind) in ProtocolKind::ALL.into_iter().enumerate() {
        let plan = mpca_scenario::ScenarioPlan::new(
            format!("e18-{i}"),
            kind,
            mpca_scenario::AdversarySpec::Honest,
        )
        .with_grid([(8, 8)])
        .with_seed(5);
        for scenario in plan.scenarios() {
            pool.submit_task(mpca_scenario::registry::scenario_task(&scenario));
        }
    }
    let batch = pool.run().expect("decomposition sessions run");
    assert_eq!(batch.sessions.len(), ProtocolKind::ALL.len());
    for (session, kind) in batch.sessions.iter().zip(ProtocolKind::ALL) {
        assert_eq!(
            session.phase_bytes.total(),
            session.stats.total_bytes(),
            "phase attribution must conserve every charged byte ({})",
            kind.name()
        );
        let mut row = vec![kind.name().to_string()];
        for phase in mpca_metrics::Phase::ALL {
            row.push(session.phase_bytes.get(phase).to_string());
        }
        row.push(session.phase_bytes.total().to_string());
        row.push("-".into());
        row.push("-".into());
        table.push_row(row);
    }
    table
}

/// Pre-optimisation hot-path walls (milliseconds, release, single-core),
/// measured at the commit preceding the asymptotic-regime restructuring:
/// the index-addressed inbox plane, batched fan-out accounting, CRS matrix
/// memoization and the Montgomery fingerprint/Miller–Rabin arithmetic. Keyed
/// by `(family, n)`; `E19` reports the speedup of the current implementation
/// against these at the matching grid points.
const PRE_OPT_WALLS_MS: &[(&str, usize, f64)] = &[
    ("thm1-mpc", 256, 211.0),
    ("thm2-local-mpc", 96, 228.0),
    ("thm4-tradeoff", 96, 1200.0),
    ("broadcast", 256, 37.9),
    ("all-to-all", 128, 570.0),
    ("all-to-all", 256, 4400.0),
    ("unchecked-sum", 256, 28.0),
];

/// The `E19` walls `tests/golden/bench_baseline.json` bands. Each is the
/// best of 3 runs of its session, as `E17` takes best-of walls, so that
/// one slow run on a shared machine cannot trip its band; the other rows
/// run once.
const BANDED_WALLS: [(ProtocolKind, usize); 3] = [
    (ProtocolKind::Theorem1Mpc, 256),
    (ProtocolKind::Theorem4Tradeoff, 96),
    (ProtocolKind::SuccinctAllToAll, 256),
];

/// `E19-asymptotics` — the asymptotic regime made routine, and the polylog
/// factors measured instead of extrapolated.
///
/// One honest single-core session per family per grid point (the
/// `BANDED_WALLS` take the best wall of 3 identical runs), with the grid
/// reaching `n = 1024` for the `Õ(n²)`-traffic families and `n = 512` for
/// the `Õ(n³)`-traffic gossip families. Each row reports the theorem's
/// normalised constants (`bits·h/n²` for Theorem 1, `bits·h/n³` for
/// Theorem 2, `bits·h^{3/2}/n³` for Theorem 4) — flat for the right column
/// up to the polylog factor — plus the explicitly fitted `log₂(n)^k`
/// exponent of the family's budget curve
/// ([`mpca_core::BudgetCurve::fitted_log_exponent`]). Rows whose `(family,
/// n)` matches a pre-optimisation profile point also report the hot-path
/// speedup against the `PRE_OPT_WALLS_MS` profile table.
///
/// `MPCA_E19_MAX_N` caps the grid (CI runs the `n ≤ 256` slice and gates
/// the `BANDED_WALLS` against a checked-in baseline); unset, everything
/// runs.
pub fn exp_asymptotics() -> Table {
    let max_n: usize = std::env::var("MPCA_E19_MAX_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let mut table = Table::new(
        "E19-asymptotics",
        "Asymptotic-regime scaling: honest single-core sessions out to n = 1024 (n = 512 for \
         the n³-traffic gossip families), theorem-normalised constants, the fitted polylog \
         exponent per family, and hot-path speedups vs the pre-optimisation walls (banded walls: \
         best of 3 runs).",
        &[
            "family",
            "n",
            "h",
            "bits",
            "bits·h/n²",
            "bits·h/n³",
            "bits·h^1.5/n³",
            "fitted log-k",
            "rounds",
            "wall ms",
            "pre-opt ms",
            "speedup",
        ],
    );
    let grid: &[(ProtocolKind, usize, usize)] = &[
        (ProtocolKind::Theorem1Mpc, 256, 128),
        (ProtocolKind::Theorem1Mpc, 512, 256),
        (ProtocolKind::Theorem1Mpc, 1024, 512),
        (ProtocolKind::Theorem2LocalMpc, 96, 48),
        (ProtocolKind::Theorem2LocalMpc, 256, 128),
        (ProtocolKind::Theorem2LocalMpc, 512, 256),
        (ProtocolKind::Theorem4Tradeoff, 96, 48),
        (ProtocolKind::Theorem4Tradeoff, 256, 128),
        (ProtocolKind::Theorem4Tradeoff, 512, 256),
        (ProtocolKind::Broadcast, 256, 254),
        (ProtocolKind::Broadcast, 512, 510),
        (ProtocolKind::Broadcast, 1024, 1022),
        (ProtocolKind::SuccinctAllToAll, 128, 126),
        (ProtocolKind::SuccinctAllToAll, 256, 254),
        (ProtocolKind::SuccinctAllToAll, 512, 510),
        (ProtocolKind::SuccinctAllToAll, 1024, 1022),
        (ProtocolKind::UncheckedSum, 256, 254),
        (ProtocolKind::UncheckedSum, 512, 510),
        (ProtocolKind::UncheckedSum, 1024, 1022),
    ];
    for &(kind, n, h) in grid {
        if n > max_n {
            continue;
        }
        let plan = mpca_scenario::ScenarioPlan::new(
            format!("e19-{}", kind.name()),
            kind,
            mpca_scenario::AdversarySpec::Honest,
        )
        // Seed 7 matches the hot-path digest grid the pre-optimisation
        // walls were profiled on, so the speedup column compares identical
        // executions.
        .with_grid([(n, h)])
        .with_seed(7);
        let scenario = plan.scenarios().remove(0);
        let runs = if BANDED_WALLS.contains(&(kind, n)) {
            3
        } else {
            1
        };
        let mut wall_ms = f64::MAX;
        let mut reports = Vec::with_capacity(runs);
        for _ in 0..runs {
            let mut pool = SessionPool::new(Sequential).with_workers(1);
            pool.submit_task(mpca_scenario::registry::scenario_task(&scenario));
            let start = std::time::Instant::now();
            let batch = pool.run().expect("asymptotic-regime session runs");
            wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1000.0);
            reports.extend(batch.sessions);
        }
        let session = reports.pop().expect("one session");
        assert!(
            reports.iter().all(|r| *r == session),
            "repeated {} runs at n = {n} must be identical",
            kind.name()
        );
        assert!(
            !session.any_abort(),
            "honest {} run at n = {n} must not abort",
            kind.name()
        );
        let bits = session.stats.total_bytes() * 8;
        let (nf, hf) = (n as f64, h as f64);
        let fitted_k = mpca_core::BudgetCurve::for_kind(kind)
            .map(|curve| format!("{:.2}", curve.fitted_log_exponent()))
            .unwrap_or_else(|| "-".into());
        let pre_opt = PRE_OPT_WALLS_MS
            .iter()
            .find(|(name, pre_n, _)| *name == kind.name() && *pre_n == n)
            .map(|(_, _, ms)| *ms);
        table.push_row(vec![
            kind.name().to_string(),
            n.to_string(),
            h.to_string(),
            bits.to_string(),
            format!("{:.0}", bits as f64 * hf / (nf * nf)),
            format!("{:.1}", bits as f64 * hf / (nf * nf * nf)),
            format!("{:.1}", bits as f64 * hf * hf.sqrt() / (nf * nf * nf)),
            fitted_k,
            session.rounds.to_string(),
            format!("{wall_ms:.1}"),
            pre_opt.map_or_else(|| "-".into(), |ms| format!("{ms:.1}")),
            pre_opt.map_or_else(|| "-".into(), |ms| format!("{:.1}x", ms / wall_ms)),
        ]);
    }
    table
}

/// `E20-search` — the coverage-guided adversary search (DESIGN.md §11)
/// exercised in both of its CI roles. The **unrigged** run is the tripwire:
/// seeded candidate mutation over the tiny sweep grids must surface **no**
/// predicate violation outside the adversaries' expected sets. The
/// **rigged** run (`Rig::LoosenFlooding`) is the searcher's own health
/// check: dropping `flooding-never-charged` from the expected sets plants a
/// violation the loop must find, shrink to a minimal spec, and emit as a
/// replayable counterexample — a searcher that reports nothing here is
/// broken, not lucky. One row per mode records candidates executed,
/// coverage signatures, novel finds, counterexamples and shrink cost.
pub fn exp_search() -> Table {
    let mut table = Table::new(
        "E20-search",
        "Coverage-guided adversary search: the unrigged tripwire must find nothing novel; \
         the rigged health check must find and shrink the planted flooding violation.",
        &[
            "mode",
            "executed",
            "coverage",
            "finds",
            "counterexamples",
            "shrink execs",
            "first counterexample",
        ],
    );
    for (mode, rig) in [
        ("unrigged", None),
        ("rigged", Some(mpca_scenario::Rig::LoosenFlooding)),
    ] {
        let mut config = mpca_scenario::SearchConfig::tiny(7);
        config.rig = rig;
        let report = mpca_scenario::run_search(&config, Sequential).expect("search executes");
        match rig {
            None => assert!(
                report.findings.is_empty(),
                "unrigged search must find nothing novel: {}",
                report.summary()
            ),
            Some(_) => assert!(
                !report.counterexamples.is_empty(),
                "rigged search must find the planted violation: {}",
                report.summary()
            ),
        }
        table.push_row(vec![
            mode.into(),
            report.executed.to_string(),
            report.coverage.len().to_string(),
            report.findings.len().to_string(),
            report.counterexamples.len().to_string(),
            report.shrink_executions.to_string(),
            report.counterexamples.first().map_or_else(
                || "-".into(),
                |cex| format!("{} [{}]", cex.label, cex.violated.join(",")),
            ),
        ]);
    }
    table
}

/// `E21-soak` — sustained-load service telemetry (DESIGN.md §12): the
/// `mpca-obs` open-loop soak harness drives the mixed-traffic
/// [`SoakWorkload`](mpca_scenario::SoakWorkload) (every protocol family ×
/// seeded adversary classes, re-seeded per cycle) through the bounded
/// admission queue at a fixed arrival rate for a few seconds. One row per
/// telemetry window records arrivals/admitted/shed, the abort rate, rolling
/// wall p50/p99 and queue-wait p99, and the window's throughput; the TOTAL
/// row carries the whole-run quantiles the regression sentinel bands. The
/// arrival schedule is open-loop (arrivals do not wait for completions), so
/// unlike the one-shot campaign batches this measures the service under
/// *pressure*: queue waits and shed counts are load signals, not noise.
pub fn exp_soak() -> Table {
    use std::time::Duration;
    let mut table = Table::new(
        "E21-soak",
        "Open-loop soak (mixed protocol x adversary traffic, seeded arrival schedule, bounded \
         admission queue): per-window arrivals/shed/abort-rate/latency-quantile/throughput time \
         series, whole-run quantiles in the TOTAL row.",
        &[
            "window",
            "arrivals",
            "admitted",
            "shed",
            "completed",
            "abort rate",
            "wall p50 ms",
            "wall p99 ms",
            "queue p99 ms",
            "scenarios/s",
        ],
    );
    let workload = mpca_scenario::SoakWorkload::new(0);
    let config = mpca_obs::SoakConfig::new(Duration::from_secs(4), 150.0)
        .with_workers(2)
        .with_capacity(16)
        .with_seed(0)
        .with_window(Duration::from_secs(1));
    let report = mpca_obs::run_soak(&config, &Sequential, |index| workload.task(index));
    assert_eq!(report.errors, 0, "soak sessions must execute cleanly");
    assert!(report.completed > 0, "soak must complete sessions");
    assert!(!report.windows.is_empty(), "soak must emit windows");
    for window in &report.windows {
        table.push_row(vec![
            window.index.to_string(),
            window.arrivals.to_string(),
            window.admitted.to_string(),
            window.shed.to_string(),
            window.completed.to_string(),
            format!("{:.1}%", window.abort_rate * 100.0),
            format!("{:.2}", window.wall_p50_us as f64 / 1e3),
            format!("{:.2}", window.wall_p99_us as f64 / 1e3),
            format!("{:.2}", window.queue_p99_us as f64 / 1e3),
            format!("{:.1}", window.scenarios_per_sec),
        ]);
    }
    table.push_row(vec![
        "TOTAL".into(),
        report.arrivals.to_string(),
        report.admitted.to_string(),
        report.shed.to_string(),
        report.completed.to_string(),
        format!("{:.1}%", report.abort_rate() * 100.0),
        format!("{:.2}", report.wall_p50_us as f64 / 1e3),
        format!("{:.2}", report.wall_p99_us as f64 / 1e3),
        format!("{:.2}", report.queue_p99_us as f64 / 1e3),
        format!("{:.1}", report.scenarios_per_sec()),
    ]);
    table
}

/// An experiment entry: its id and the function regenerating its table.
pub type Experiment = (&'static str, fn() -> Table);

/// All experiments in DESIGN.md order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        ("E1-comm-thm1", exp_theorem1 as fn() -> Table),
        ("E2-locality-thm2", exp_theorem2),
        ("E3-tradeoff-thm4", exp_theorem4),
        ("E4-lower-bound", exp_lower_bound),
        ("E5-baseline-gl", exp_baseline),
        ("E6-equality", exp_equality),
        ("E7-committee", exp_committee),
        ("E8-sparse-graph", exp_sparse),
        ("E9-covering", exp_covering),
        ("E10-multi-output", exp_multi_output),
        ("E11-crossover", exp_crossover),
        ("E12-adversary", exp_adversary),
        ("E13-engine-sweep", exp_engine_sweep),
        ("E14-message-plane", exp_message_plane),
        ("E15-scenario-campaign", exp_scenario_campaign),
        ("E16-sweep", exp_sweep),
        ("E17-trace", exp_trace_overhead),
        ("E18-metrics", exp_metrics),
        ("E19-asymptotics", exp_asymptotics),
        ("E20-search", exp_search),
        ("E21-soak", exp_soak),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises this module's tests. The message-plane measurement reads
    /// the process-wide `Payload` allocation counters, so the other tests —
    /// which all allocate payloads — must not run concurrently with it (the
    /// test harness otherwise runs one test per core).
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    // Smoke-test the cheap experiments so `cargo test` exercises the harness
    // code paths; the full sweeps run from the harness binary.
    #[test]
    fn baseline_experiment_produces_rows() {
        let _guard = serial();
        let table = exp_baseline();
        assert_eq!(table.rows.len(), 5);
        assert!(table.render().contains("E5-baseline-gl"));
    }

    #[test]
    fn lower_bound_experiment_produces_rows() {
        let _guard = serial();
        let table = exp_lower_bound();
        assert_eq!(table.rows.len(), 7);
    }

    #[test]
    fn adversary_experiment_reports_agreement() {
        let _guard = serial();
        let table = exp_adversary();
        for row in &table.rows {
            assert_eq!(row[3], "true", "correct-or-abort must hold: {row:?}");
        }
    }

    #[test]
    fn experiment_registry_is_complete() {
        assert_eq!(all_experiments().len(), 21);
    }

    #[test]
    fn soak_experiment_emits_windows_and_totals() {
        let _guard = serial();
        let table = exp_soak();
        // At least three 1s windows over the 4s run, plus the TOTAL row.
        assert!(table.rows.len() >= 4, "rows: {}", table.rows.len());
        let total = table.rows.last().expect("TOTAL row");
        assert_eq!(total[0], "TOTAL");
        let arrivals: u64 = total[1].parse().unwrap();
        let admitted: u64 = total[2].parse().unwrap();
        let shed: u64 = total[3].parse().unwrap();
        assert_eq!(admitted + shed, arrivals, "admission conserves arrivals");
        assert!(total[4].parse::<u64>().unwrap() > 0, "sessions completed");
        // Window rows partition the totals.
        let window_arrivals: u64 = table.rows[..table.rows.len() - 1]
            .iter()
            .map(|row| row[1].parse::<u64>().unwrap())
            .sum();
        assert_eq!(window_arrivals, arrivals);
    }

    #[test]
    fn search_experiment_trips_on_the_rig_and_only_the_rig() {
        let _guard = serial();
        let table = exp_search();
        assert_eq!(table.rows.len(), 2);
        let unrigged = &table.rows[0];
        let rigged = &table.rows[1];
        assert_eq!(unrigged[3], "0", "unrigged finds: {unrigged:?}");
        assert_eq!(unrigged[6], "-");
        assert_ne!(rigged[4], "0", "rigged counterexamples: {rigged:?}");
        assert!(rigged[6].contains("flooding-never-charged"));
    }

    #[test]
    fn metrics_experiment_decomposes_and_conserves() {
        let _guard = serial();
        let table = exp_metrics();
        // Two overhead rows + one decomposition row per protocol family.
        assert_eq!(table.rows.len(), 2 + ProtocolKind::ALL.len());
        assert_eq!(table.rows[0][0], "metrics-off");
        assert_eq!(table.rows[1][0], "metrics-on");
        for row in &table.rows[2..] {
            let phases: u64 = row[1..7].iter().map(|c| c.parse::<u64>().unwrap()).sum();
            let total: u64 = row[7].parse().unwrap();
            assert_eq!(phases, total, "phase cells must sum to the total: {row:?}");
            assert!(total > 0, "every family charges bytes: {row:?}");
        }
    }

    #[test]
    fn trace_overhead_experiment_records_events() {
        let _guard = serial();
        let table = exp_trace_overhead();
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.rows[0][0], "untraced");
        assert_eq!(table.rows[1][0], "digest-only");
        assert_eq!(table.rows[2][0], "traced");
        for traced in &table.rows[1..] {
            assert!(
                traced[2].parse::<u64>().unwrap() > 10_000,
                "the tiny sweep exchanges tens of thousands of envelopes: {traced:?}"
            );
            assert!(traced[3].parse::<u64>().unwrap() > 0, "milestones recorded");
            assert!(
                traced[4].parse::<u64>().unwrap() > 0,
                "the sweep's floods inject junk, tagged distinctly"
            );
        }
        assert_eq!(
            table.rows[1][2..5],
            table.rows[2][2..5],
            "both recording modes count the same events"
        );
    }

    #[test]
    fn sweep_experiment_aggregates_and_passes() {
        let _guard = serial();
        let table = exp_sweep();
        // One row per plan + TOTAL; every plan row's verdict column is
        // either "all hold" or (for the two controls) "flagged".
        let total = table.rows.last().expect("TOTAL row");
        assert_eq!(total[0], "TOTAL");
        assert!(total[3].parse::<usize>().unwrap() >= 100);
        let flagged: Vec<_> = table.rows[..table.rows.len() - 1]
            .iter()
            .filter(|row| row[8] == "flagged")
            .collect();
        assert_eq!(flagged.len(), 2, "exactly the control plans are flagged");
        assert!(flagged.iter().all(|row| row[0].starts_with("swpctl-")));
        // Tight budgets: at least one plan runs above 25% utilisation, and
        // none above 100% (which would be a Violated comm budget).
        let utils: Vec<f64> = table.rows[..table.rows.len() - 1]
            .iter()
            .map(|row| row[7].trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        assert!(utils.iter().all(|&u| u <= 100.0));
        assert!(
            utils.iter().any(|&u| u >= 25.0),
            "tightened envelopes should see real utilisation: {utils:?}"
        );
    }

    #[test]
    fn scenario_campaign_holds_everywhere_except_the_control() {
        let _guard = serial();
        let table = exp_scenario_campaign();
        assert!(table.rows.len() >= 12);
        // Every row matches its expectation, and exactly the rigged control
        // rows are flagged on agreement.
        // Column indices per CampaignReport::ROW_HEADERS: 8 = agreement
        // verdict, 14 = expectation match.
        for row in &table.rows {
            assert_eq!(row[14], "yes", "verdicts must match expectations: {row:?}");
            let is_control = row[0].starts_with("ctl-equivocate");
            assert_eq!(
                row[8] == "VIOLATED",
                is_control,
                "agreement must be violated exactly on the control: {row:?}"
            );
        }
        assert!(table
            .rows
            .iter()
            .any(|row| row[0].starts_with("ctl-equivocate")));
        // The flooding-rule control (column 10 = F) is flagged too, with
        // agreement intact.
        let flood_control = table
            .rows
            .iter()
            .find(|row| row[0].starts_with("ctl-flood"))
            .expect("the flooding control runs");
        assert_eq!(flood_control[10], "VIOLATED");
        assert_eq!(flood_control[8], "holds");
    }

    #[test]
    fn message_plane_copies_at_least_halved_at_n_64() {
        let _guard = serial();
        // The acceptance bar for the zero-copy refactor: at n = 64 the
        // succinct all-to-all must materialise at most half the bytes the
        // clone-per-recipient plane copied. (Measured reduction is ~7×: the
        // ℓ-sized input fan-outs share one buffer across 63 recipients,
        // while the per-peer-distinct challenge/response messages still
        // materialise individually.)
        let (wire, materialised, buffers, rounds) = measure_message_plane(64);
        assert_eq!(rounds, all_to_all::SUCCINCT_ROUNDS);
        assert!(buffers > 0, "the plane must materialise something");
        assert!(
            materialised * 2 <= wire,
            "materialised {materialised} bytes vs {wire} wire bytes: reduction below 2x"
        );
    }

    #[test]
    fn engine_sweep_runs_every_session_without_aborts() {
        let _guard = serial();
        let table = exp_engine_sweep();
        // 4 grid points × 3 protocols + the TOTAL row.
        assert_eq!(table.rows.len(), 13);
        for row in &table.rows[..12] {
            assert_eq!(row[5], "false", "no honest party may abort: {row:?}");
        }
        assert_eq!(table.rows[12][0], "TOTAL");
    }
}
