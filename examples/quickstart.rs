//! Quickstart: 32 parties privately sum their inputs with the
//! communication-optimal committee protocol (Algorithm 3 / Theorem 1),
//! entirely on the concrete threshold-LWE path.
//!
//! Run with: `cargo run --release --example quickstart`

use std::collections::BTreeSet;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::net::{CommonRandomString, Simulator};
use mpc_aborts::protocols::mpc::{mpc_parties, ROUNDS};
use mpc_aborts::protocols::ProtocolParams;

fn main() {
    let n = 32;
    let h = 16; // at least half the parties are honest
    let params = ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    });
    let functionality = Functionality::Sum { input_bytes: 2 };

    // Each party holds a private 16-bit salary; they want the total payroll.
    let salaries: Vec<u16> = (0..n as u16).map(|i| 1_000 + i * 37).collect();
    let inputs: Vec<Vec<u8>> = salaries.iter().map(|s| s.to_le_bytes().to_vec()).collect();

    let crs = CommonRandomString::from_label(b"quickstart-example");
    let parties = mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());

    let result = Simulator::all_honest(n, parties)
        .expect("valid configuration")
        .run()
        .expect("protocol terminates");

    let output = result.unanimous_output().expect("all honest parties agree");
    let total = u16::from_le_bytes([output[0], output[1]]);
    let expected: u16 = salaries.iter().fold(0, |acc, s| acc.wrapping_add(*s));

    println!("== MPC with abort: committee protocol (Theorem 1) ==");
    println!("parties (n)                : {n}");
    println!("honest lower bound (h)     : {h}");
    println!(
        "rounds                     : {} (fixed schedule: {ROUNDS})",
        result.rounds
    );
    println!("total payroll (computed)   : {total}");
    println!("total payroll (expected)   : {expected}");
    println!("honest communication       : {} bits", result.honest_bits());
    println!("locality (max peers/party) : {}", result.honest_locality());
    assert_eq!(total, expected);
}
