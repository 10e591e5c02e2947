//! A federated yes/no vote computed three ways, comparing the paper's
//! protocols on the same workload:
//!
//! * Theorem 1 (committee MPC, Algorithm 3) — least communication,
//! * Theorem 2 (sparse gossip MPC) — least locality,
//! * Theorem 4 (Algorithm 8) — the tradeoff between the two.
//!
//! The vote is a sum of 0/1 ballots; the tally stays hidden behind LWE
//! encryption on the Theorem 1/4 concrete paths.
//!
//! Run with: `cargo run --release --example federated_vote`

use std::collections::BTreeSet;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::net::{CommonRandomString, Simulator};
use mpc_aborts::protocols::{local_mpc, mpc, tradeoff, ProtocolParams};

fn main() {
    let n = 48;
    let h = 24;
    let params = ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    });
    let functionality = Functionality::Sum { input_bytes: 2 };

    // One ballot per organisation: 1 = yes, 0 = no.
    let ballots: Vec<u16> = (0..n).map(|i| u16::from(i % 3 != 0)).collect();
    let inputs: Vec<Vec<u8>> = ballots.iter().map(|b| b.to_le_bytes().to_vec()).collect();
    let expected: u16 = ballots.iter().sum();
    println!("== Federated vote: {n} organisations, expected tally {expected} ==\n");

    // Theorem 1: committee MPC.
    let crs = CommonRandomString::from_label(b"vote-theorem-1");
    let parties = mpc::mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r1 = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    report("Theorem 1 (committee MPC)", &r1, expected);

    // Theorem 2: sparse gossip MPC.
    let crs = CommonRandomString::from_label(b"vote-theorem-2");
    let parties =
        local_mpc::local_mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r2 = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    report("Theorem 2 (sparse gossip MPC)", &r2, expected);

    // Theorem 4: the tradeoff protocol.
    let crs = CommonRandomString::from_label(b"vote-theorem-4");
    let parties =
        tradeoff::tradeoff_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r4 = Simulator::all_honest(n, parties).unwrap().run().unwrap();
    report("Theorem 4 (tradeoff protocol)", &r4, expected);
}

fn report(label: &str, result: &mpc_aborts::net::RunResult<Vec<u8>>, expected: u16) {
    let output = result.unanimous_output().expect("honest run agrees");
    let tally = u16::from_le_bytes([output[0], output[1]]);
    assert_eq!(tally, expected);
    println!("{label}");
    println!("  tally     : {tally}");
    println!("  bits sent : {}", result.honest_bits());
    println!("  locality  : {}", result.honest_locality());
    println!("  rounds    : {}\n", result.rounds);
}
