//! The engine acceptance test: a ≥20-session mixed-protocol batch on the
//! `SessionPool` with the `Parallel` backend must produce per-session
//! outcomes and `CommStats` byte-identical to sequential single-session
//! runs.

use std::collections::BTreeSet;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::crypto::Prg;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::engine::{ExecutionBackend, Parallel, Sequential, SessionPool, SessionReport};
use mpc_aborts::net::{CommonRandomString, PartyId, Simulator};
use mpc_aborts::protocols::{
    all_to_all, broadcast, equality, local_mpc, mpc, tradeoff, ExecutionPath, ProtocolParams,
};

fn sum_params(n: usize, h: usize) -> ProtocolParams {
    ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    })
}

fn sum_inputs(n: usize) -> Vec<Vec<u8>> {
    (0..n as u16)
        .map(|i| (i * 31 + 5).to_le_bytes().to_vec())
        .collect()
}

/// Submits the full mixed-protocol fleet (≥ 20 sessions, five different
/// protocols, varied `(n, h)`) to `pool`. Every submission is deterministic,
/// so two pools loaded by this function describe identical work.
fn submit_fleet<B: ExecutionBackend>(pool: &mut SessionPool<B>) {
    // Theorems 1, 2 and 4 across an (n, h) grid: 9 sessions.
    for (n, h) in [(12usize, 6usize), (16, 8), (20, 10)] {
        let (params, inputs) = (sum_params(n, h), sum_inputs(n));
        let functionality = Functionality::Sum { input_bytes: 2 };

        let (p, f, i) = (params, functionality.clone(), inputs.clone());
        pool.submit(format!("thm1-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("batch-1-{n}-{h}").as_bytes());
            let parties =
                mpc::mpc_parties(&p, &f, ExecutionPath::Concrete, &i, crs, &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });

        let (p, f, i) = (params, functionality.clone(), inputs.clone());
        pool.submit(format!("thm2-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("batch-2-{n}-{h}").as_bytes());
            Simulator::all_honest(
                n,
                local_mpc::local_mpc_parties(&p, &f, &i, crs, &BTreeSet::new()),
            )
        });

        pool.submit(format!("thm4-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("batch-4-{n}-{h}").as_bytes());
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

    // Single-source broadcast: 4 sessions.
    for n in [8usize, 12, 16, 24] {
        pool.submit(format!("broadcast-n{n}"), move || {
            let message = vec![n as u8; 48];
            let parties = broadcast::broadcast_parties(n, PartyId(1), message, &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });
    }

    // Two-party equality tests over growing strings: 4 sessions.
    for len in [64usize, 256, 1024, 4096] {
        pool.submit(format!("equality-{len}"), move || {
            let prg = Prg::from_seed_bytes(format!("batch-eq-{len}").as_bytes());
            let data = vec![0x5Au8; len];
            let parties = vec![
                equality::EqualityParty::new(
                    PartyId(0),
                    PartyId(1),
                    24,
                    data.clone(),
                    prg.derive(b"p0"),
                ),
                equality::EqualityParty::new(PartyId(1), PartyId(0), 24, data, prg.derive(b"p1")),
            ];
            Simulator::all_honest(2, parties)
        });
    }

    // Succinct all-to-all broadcast: 4 sessions.
    for n in [6usize, 8, 10, 12] {
        pool.submit(format!("all-to-all-n{n}"), move || {
            let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
            let parties = all_to_all::succinct_parties(
                &inputs,
                20,
                format!("batch-a2a-{n}").as_bytes(),
                &BTreeSet::new(),
            );
            Simulator::all_honest(n, parties)
        });
    }
}

#[test]
fn parallel_pool_matches_sequential_single_session_runs() {
    let mut pooled = SessionPool::new(Parallel::with_threads(4)).with_workers(8);
    submit_fleet(&mut pooled);
    assert!(
        pooled.len() >= 20,
        "acceptance requires a ≥20-session batch"
    );

    // The reference: the same fleet as sequential single-session runs (one
    // worker, sequential backend — exactly the historical execution mode).
    let mut reference = SessionPool::new(Sequential).with_workers(1);
    submit_fleet(&mut reference);

    let pooled = pooled.run().expect("parallel batch");
    let reference = reference.run().expect("sequential reference");

    assert_eq!(pooled.sessions.len(), reference.sessions.len());
    for (parallel, sequential) in pooled.sessions.iter().zip(&reference.sessions) {
        // SessionReport equality covers label, every party's outcome digest,
        // the full CommStats (bytes, messages, per-peer contact sets,
        // rounds) and the round count — wall-clock is excluded.
        assert_eq!(parallel, sequential, "session {}", parallel.label);
    }

    // No honest party aborts anywhere in an all-honest fleet.
    assert!(pooled.sessions.iter().all(|s| !s.any_abort()));
}

/// Renders the `CommStats` digest compared against the checked-in golden
/// vector: every quantity the paper's communication measure is built from,
/// in a stable JSON shape. Regenerate with `MPCA_BLESS=1 cargo test`.
fn commstats_digest_json(
    n: usize,
    h: usize,
    result: &mpc_aborts::net::RunResult<Vec<u8>>,
) -> String {
    let per_party: Vec<String> = PartyId::all(n)
        .map(|id| {
            format!(
                "{{\"party\":{},\"bytes\":{},\"peers\":{}}}",
                id.index(),
                result.stats.bytes_sent_by_party(id),
                result.stats.peers_of(id).len()
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"mpc-aborts/commstats-golden/v1\",\n  \"protocol\": \"mpc::MpcParty\",\n  \"n\": {n},\n  \"h\": {h},\n  \"crs_label\": \"golden-mpc-n16-h4\",\n  \"rounds\": {},\n  \"total_bytes\": {},\n  \"total_messages\": {},\n  \"honest_bits\": {},\n  \"max_locality\": {},\n  \"per_party\": [\n    {}\n  ]\n}}\n",
        result.rounds,
        result.stats.total_bytes(),
        result.stats.total_messages(),
        result.honest_bits(),
        result.honest_locality(),
        per_party.join(",\n    ")
    )
}

/// The golden-vector acceptance test for the zero-copy message plane: the
/// `CommStats` of an `MpcParty` execution at `n = 16, h = 4` must match a
/// digest recorded **before** the `Payload` refactor, byte for byte. Charged
/// communication is a paper-level quantity; swapping the transport's buffer
/// representation must not move it.
#[test]
fn mpc_commstats_matches_pre_refactor_golden_vector() {
    let (n, h) = (16usize, 4usize);
    let (params, inputs) = (sum_params(n, h), sum_inputs(n));
    let functionality = Functionality::Sum { input_bytes: 2 };
    let crs = CommonRandomString::from_label(b"golden-mpc-n16-h4");
    let parties = mpc::mpc_parties(
        &params,
        &functionality,
        ExecutionPath::Concrete,
        &inputs,
        crs,
        &BTreeSet::new(),
    );
    let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    let digest = commstats_digest_json(n, h, &result);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/commstats_mpc_n16_h4.json"
    );
    if std::env::var_os("MPCA_BLESS").is_some() {
        std::fs::write(path, &digest).expect("write golden vector");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden vector is checked in");
    assert_eq!(
        digest, golden,
        "CommStats diverged from the pre-refactor golden vector"
    );
}

#[test]
fn pooled_session_matches_direct_simulator_run() {
    // Spot-check against the plain `Simulator::run` path (no engine at all):
    // the pool must not change what a session computes.
    let n = 16;
    let (params, inputs) = (sum_params(n, 8), sum_inputs(n));
    let functionality = Functionality::Sum { input_bytes: 2 };
    let build = |label: &str| {
        let crs = CommonRandomString::from_label(label.as_bytes());
        let parties = mpc::mpc_parties(
            &params,
            &functionality,
            ExecutionPath::Concrete,
            &inputs,
            crs,
            &BTreeSet::new(),
        );
        Simulator::all_honest(n, parties).unwrap()
    };

    let direct = build("spot").run().unwrap();

    let mut pool = SessionPool::new(Parallel::with_threads(3)).with_workers(2);
    let (p, f, i) = (params, functionality.clone(), inputs.clone());
    pool.submit("spot", move || {
        let crs = CommonRandomString::from_label(b"spot");
        let parties = mpc::mpc_parties(&p, &f, ExecutionPath::Concrete, &i, crs, &BTreeSet::new());
        Simulator::all_honest(n, parties)
    });
    let batch = pool.run().unwrap();

    let expected = SessionReport::from_result("spot", direct.clone(), std::time::Duration::ZERO);
    assert_eq!(batch.sessions[0], expected);
    assert_eq!(batch.session("spot").unwrap().rounds, direct.rounds);
    assert_eq!(batch.total_bytes(), direct.stats.total_bytes());
}
