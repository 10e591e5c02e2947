//! A sealed-bid second-price (Vickrey) auction with **per-party private
//! outputs** (Algorithm 4, §4.3): the winner learns the price it must pay,
//! every other bidder learns only that it lost, and committee signatures
//! prevent the single relay from tampering with anyone's result.
//!
//! Run with: `cargo run --release --example private_auction`

use std::collections::BTreeSet;

use mpc_aborts::encfunc::MultiOutputFunctionality;
use mpc_aborts::net::{CommonRandomString, PartyId, Simulator};
use mpc_aborts::protocols::multi_output::multi_output_parties;
use mpc_aborts::protocols::ProtocolParams;

fn main() {
    let n = 16;
    let h = 8;
    let params = ProtocolParams::new(n, h);
    let functionality = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };

    // Sealed bids (private inputs).
    let bids: Vec<u16> = vec![
        120, 340, 95, 410, 220, 15, 388, 270, 199, 305, 42, 510, 77, 260, 330, 148,
    ];
    let inputs: Vec<Vec<u8>> = bids.iter().map(|b| b.to_le_bytes().to_vec()).collect();

    let crs = CommonRandomString::from_label(b"private-auction");
    let parties = multi_output_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());

    let result = Simulator::all_honest(n, parties)
        .expect("valid configuration")
        .run()
        .expect("protocol terminates");
    assert!(!result.any_abort(), "honest auction should not abort");

    println!("== Sealed-bid Vickrey auction (Algorithm 4, multi-output MPC) ==");
    println!("bidders: {n}, honest lower bound: {h}");
    println!("honest communication: {} bits", result.honest_bits());
    let mut winner = None;
    for id in PartyId::all(n) {
        let output = result.outcome_of(id).unwrap().output().unwrap();
        let price = u16::from_le_bytes([output[0], output[1]]);
        if price > 0 {
            winner = Some((id, price));
        }
    }
    let (winner, price) = winner.expect("someone wins");
    println!("party {winner} wins and pays the second-highest bid: {price}");
    println!("every other bidder's private output is 0 (they learn nothing more)");

    // Cross-check against the public reference evaluation.
    let expected = functionality.evaluate(&inputs);
    for id in PartyId::all(n) {
        assert_eq!(
            result.outcome_of(id).unwrap().output().unwrap(),
            &expected[id.index()]
        );
    }
}
