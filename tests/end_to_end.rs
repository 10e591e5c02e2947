//! Cross-crate integration tests: every protocol run end-to-end through the
//! public facade, honest and adversarial.

use std::collections::BTreeSet;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::encfunc::{Functionality, MultiOutputFunctionality};
use mpc_aborts::net::{CommonRandomString, PartyId, SilentAdversary, SimConfig, Simulator};
use mpc_aborts::protocols::{
    all_to_all, local_mpc, lower_bound, mpc, multi_output, tradeoff, MpcBuilder, ProtocolParams,
};

fn sum_params(n: usize, h: usize) -> ProtocolParams {
    ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    })
}

fn sum_inputs(n: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
    let values: Vec<u16> = (0..n as u16).map(|i| i * 41 + 3).collect();
    let inputs = values.iter().map(|v| v.to_le_bytes().to_vec()).collect();
    let total = values.iter().fold(0u16, |a, v| a.wrapping_add(*v));
    (inputs, total.to_le_bytes().to_vec())
}

#[test]
fn theorem_1_2_and_4_agree_on_the_same_workload() {
    let params = sum_params(40, 20);
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, expected) = sum_inputs(params.n);

    // Theorem 1.
    let crs = CommonRandomString::from_label(b"it-thm1");
    let parties = mpc::mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r1 = Simulator::all_honest(params.n, parties)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r1.unanimous_output(), Some(&expected));

    // Theorem 2.
    let crs = CommonRandomString::from_label(b"it-thm2");
    let parties =
        local_mpc::local_mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r2 = Simulator::all_honest(params.n, parties)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r2.unanimous_output(), Some(&expected));

    // Theorem 4.
    let crs = CommonRandomString::from_label(b"it-thm4");
    let parties =
        tradeoff::tradeoff_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let r4 = Simulator::all_honest(params.n, parties)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r4.unanimous_output(), Some(&expected));

    // The qualitative shape of the bounds: Theorem 1 uses the least
    // communication; Theorem 2 stays within the sparse-graph degree (and in
    // particular below the clique the other protocols may use).
    assert!(r1.honest_bits() < r2.honest_bits());
    assert!(r2.honest_locality() <= params.sparse_degree() + params.sparse_in_bound());
    assert!(r2.honest_locality() < params.n - 1);
    assert!(r2.honest_locality() <= r1.honest_locality());
}

#[test]
fn committee_protocol_with_silent_adversary_is_correct_with_abort() {
    let params = sum_params(32, 20);
    let functionality = Functionality::Sum { input_bytes: 2 };
    let (inputs, _) = sum_inputs(params.n);
    let corrupted: BTreeSet<PartyId> = (0..8).map(PartyId).collect();
    let honest_total: u16 = inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| !corrupted.contains(&PartyId(*i)))
        .fold(0u16, |a, (_, v)| {
            a.wrapping_add(u16::from_le_bytes([v[0], v[1]]))
        });
    let crs = CommonRandomString::from_label(b"it-silent");
    let parties = mpc::mpc_parties(&params, &functionality, &inputs, crs, &corrupted);
    let result = Simulator::new(
        params.n,
        parties,
        Box::new(SilentAdversary::new(corrupted)),
        SimConfig::default(),
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(result.correct_or_aborted(&honest_total.to_le_bytes().to_vec()));
}

#[test]
fn hybrid_path_supports_general_circuits() {
    use mpc_aborts::circuits::library;
    let params = ProtocolParams::new(12, 6);
    // Majority vote over one-bit inputs packed into bytes.
    let circuit = Functionality::Circuit {
        circuit: library::sum_mod(params.n, 8),
        input_bytes: 1,
    };
    let votes: Vec<Vec<u8>> = (0..params.n).map(|i| vec![(i % 5) as u8]).collect();
    // A sum wider than the toy LWE's 8-bit plaintext: no plaintext chunk
    // holds it, so the builders realise it on the ideal host as well.
    let wide_sum = Functionality::Sum { input_bytes: 2 };
    let (summands, _) = sum_inputs(params.n);
    let builders: [(&str, MpcBuilder<mpc::MpcParty>); 2] = [
        ("Theorem 1", mpc::mpc_parties),
        ("Theorem 4", tradeoff::tradeoff_parties),
    ];
    for (name, functionality, inputs) in [
        ("circuit", circuit, votes),
        ("wide sum", wide_sum, summands),
    ] {
        let expected = functionality.evaluate(&inputs);
        for (theorem, build) in builders {
            let crs = CommonRandomString::from_label(b"it-circuit");
            let parties = build(&params, &functionality, &inputs, crs, &BTreeSet::new());
            let result = Simulator::all_honest(params.n, parties)
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(
                result.unanimous_output(),
                Some(&expected),
                "{theorem} on the {name}"
            );
        }
    }
}

#[test]
fn multi_output_auction_end_to_end() {
    let params = ProtocolParams::new(12, 6);
    let functionality = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
    let bids: Vec<u16> = vec![50, 900, 220, 430, 75, 310, 640, 120, 845, 15, 505, 280];
    let inputs: Vec<Vec<u8>> = bids.iter().map(|b| b.to_le_bytes().to_vec()).collect();
    let expected = functionality.evaluate(&inputs);
    let crs = CommonRandomString::from_label(b"it-auction");
    let parties =
        multi_output::multi_output_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
    let result = Simulator::all_honest(params.n, parties)
        .unwrap()
        .run()
        .unwrap();
    assert!(!result.any_abort());
    for id in PartyId::all(params.n) {
        assert_eq!(
            result.outcome_of(id).unwrap().output(),
            Some(&expected[id.index()])
        );
    }
}

#[test]
fn succinct_all_to_all_beats_naive_baseline() {
    let n = 16;
    let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 32]).collect();
    let naive = Simulator::all_honest(n, all_to_all::naive_parties(&inputs, &BTreeSet::new()))
        .unwrap()
        .run()
        .unwrap();
    let succinct = Simulator::all_honest(
        n,
        all_to_all::succinct_parties(&inputs, 24, b"it-a2a", &BTreeSet::new()),
    )
    .unwrap()
    .run()
    .unwrap();
    assert_eq!(naive.unanimous_output(), succinct.unanimous_output());
    assert!(succinct.honest_bits() * 2 < naive.honest_bits());
}

#[test]
fn lower_bound_attack_thresholds() {
    // Below the Ω(n/h) locality threshold the isolation attack succeeds with
    // noticeable probability; well above it, it practically never does.
    let (iso_low, _) = lower_bound::isolation_attack_rate(48, 6, 2, 40, b"it-lb-low");
    let (iso_high, _) = lower_bound::isolation_attack_rate(48, 6, 40, 40, b"it-lb-high");
    assert!(iso_low > 0.3, "low-budget isolation rate {iso_low}");
    assert!(iso_high < 0.1, "high-budget isolation rate {iso_high}");
}

#[test]
fn communication_scaling_matches_theorem_1_shape() {
    // n fixed, h doubled repeatedly: Õ(n²/h) predicts roughly halving bits.
    let functionality = Functionality::Sum { input_bytes: 2 };
    let mut previous: Option<u64> = None;
    for h in [8usize, 16, 32, 64] {
        let params = sum_params(64, h);
        let (inputs, expected) = sum_inputs(params.n);
        let crs = CommonRandomString::from_label(format!("it-scaling-{h}").as_bytes());
        let parties = mpc::mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(result.unanimous_output(), Some(&expected));
        let bits = result.honest_bits();
        if let Some(prev) = previous {
            assert!(
                bits < prev,
                "communication should decrease as h grows: {bits} !< {prev} at h={h}"
            );
        }
        previous = Some(bits);
    }
}
