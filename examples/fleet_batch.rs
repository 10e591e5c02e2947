//! A fleet batch on the `mpca-engine` session pool: the Theorem 1 committee
//! MPC, sparse-gossip MPC (Theorem 2) and single-source broadcast across a
//! grid of network sizes, executed concurrently with the parallel backend —
//! then verified byte-identical against sequential single-session runs.
//!
//! Run with:
//!   cargo run --release --example fleet_batch

use std::collections::BTreeSet;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::engine::{ExecutionBackend, Parallel, Sequential, SessionPool};
use mpc_aborts::net::{CommonRandomString, PartyId, Simulator};
use mpc_aborts::protocols::{broadcast, local_mpc, mpc, ProtocolParams};

fn sum_params(n: usize, h: usize) -> ProtocolParams {
    ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    })
}

fn submit_fleet<B: ExecutionBackend>(pool: &mut SessionPool<B>) {
    for (n, h) in [(16usize, 8usize), (24, 12), (32, 16), (48, 24)] {
        let params = sum_params(n, h);
        let functionality = Functionality::Sum { input_bytes: 2 };
        let inputs: Vec<Vec<u8>> = (0..n as u16)
            .map(|i| (i * 7).to_le_bytes().to_vec())
            .collect();

        let (f, i) = (functionality.clone(), inputs.clone());
        pool.submit(format!("thm1-sum-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("fleet-1-{n}").as_bytes());
            let parties = mpc::mpc_parties(&params, &f, &i, crs, &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });

        pool.submit(format!("thm2-sum-n{n}-h{h}"), move || {
            let crs = CommonRandomString::from_label(format!("fleet-2-{n}").as_bytes());
            let parties = local_mpc::local_mpc_parties(
                &params,
                &functionality,
                &inputs,
                crs,
                &BTreeSet::new(),
            );
            Simulator::all_honest(n, parties)
        });

        pool.submit(format!("broadcast-n{n}"), move || {
            let parties =
                broadcast::broadcast_parties(n, PartyId(0), vec![0xAB; 64], &BTreeSet::new());
            Simulator::all_honest(n, parties)
        });
    }
}

fn main() {
    let mut pool = SessionPool::new(Parallel::default()).with_workers(8);
    submit_fleet(&mut pool);
    println!(
        "running {} sessions on the parallel backend ...",
        pool.len()
    );
    let batch = pool.run().expect("fleet batch");

    println!(
        "\n{:<20} {:>12} {:>8} {:>10}",
        "session", "bytes", "rounds", "wall"
    );
    for session in &batch.sessions {
        println!(
            "{:<20} {:>12} {:>8} {:>9.1?}",
            session.label,
            session.total_bytes(),
            session.rounds,
            session.wall,
        );
    }
    println!("\n{}", batch.summary());

    // The determinism guarantee, demonstrated: re-run the identical fleet
    // sequentially and compare every session report.
    let mut reference = SessionPool::new(Sequential).with_workers(1);
    submit_fleet(&mut reference);
    let reference = reference.run().expect("sequential reference");
    assert_eq!(batch.sessions, reference.sessions);
    println!(
        "verified: all {} parallel sessions byte-identical to sequential runs \
         (sequential/parallel wall-clock ratio: {:.1}x on {} core(s))",
        batch.sessions.len(),
        reference.wall.as_secs_f64() / batch.wall.as_secs_f64().max(1e-9),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
    );
}
