//! Property-based tests over the protocol stack: for random inputs, random
//! network sizes and random corruption sets, the paper's correctness-with-
//! abort guarantee must hold — no honest party ever outputs a wrong value.
//! The committee properties run every case through both committee
//! protocols: Algorithm 3 (Theorem 1) and Algorithm 8 (Theorem 4).

use std::collections::BTreeSet;

use proptest::prelude::*;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::net::{CommonRandomString, PartyId, SilentAdversary, SimConfig, Simulator};
use mpc_aborts::protocols::{all_to_all, local_mpc, mpc, tradeoff, ProtocolParams};

fn sum_params(n: usize, h: usize) -> ProtocolParams {
    ProtocolParams::new(n, h).with_lwe(LweParams {
        plaintext_modulus: 1 << 16,
        ..LweParams::toy()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn committee_mpc_is_correct_for_random_inputs(
        n in 8usize..20,
        values in proptest::collection::vec(any::<u16>(), 20),
        seed in any::<u64>(),
    ) {
        let h = n / 2 + 1;
        let params = sum_params(n, h);
        let inputs: Vec<Vec<u8>> = values[..n].iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let expected: u16 = values[..n].iter().fold(0u16, |a, v| a.wrapping_add(*v));
        let functionality = Functionality::Sum { input_bytes: 2 };
        let crs = CommonRandomString::from_label(&seed.to_le_bytes());
        for build in [mpc::mpc_parties, tradeoff::tradeoff_parties] {
            let parties = build(
                &params, &functionality, &inputs, crs, &BTreeSet::new(),
            );
            let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
            prop_assert!(result.correct_or_aborted(&expected.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn committee_mpc_with_random_silent_corruption_never_outputs_wrong_values(
        n in 10usize..18,
        values in proptest::collection::vec(any::<u16>(), 18),
        corrupt_mask in any::<u32>(),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<Vec<u8>> = values[..n].iter().map(|v| v.to_le_bytes().to_vec()).collect();
        // Corrupt at most n/3 parties so h = ceil(2n/3) is a valid bound.
        let corrupted: BTreeSet<PartyId> = (0..n)
            .filter(|i| (corrupt_mask >> (i % 32)) & 1 == 1)
            .take(n / 3)
            .map(PartyId)
            .collect();
        let h = n - corrupted.len();
        let params = sum_params(n, h.max(1));
        let functionality = Functionality::Sum { input_bytes: 2 };
        let honest_total: u16 = inputs
            .iter()
            .enumerate()
            .filter(|(i, _)| !corrupted.contains(&PartyId(*i)))
            .fold(0u16, |a, (_, v)| a.wrapping_add(u16::from_le_bytes([v[0], v[1]])));
        let crs = CommonRandomString::from_label(&seed.to_le_bytes());
        for build in [mpc::mpc_parties, tradeoff::tradeoff_parties] {
            let parties = build(
                &params, &functionality, &inputs, crs, &corrupted,
            );
            let result = Simulator::new(
                params.n,
                parties,
                Box::new(SilentAdversary::new(corrupted.clone())),
                SimConfig::default(),
            )
            .unwrap()
            .run()
            .unwrap();
            prop_assert!(result.correct_or_aborted(&honest_total.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn sparse_gossip_mpc_is_correct_for_random_inputs(
        n in 12usize..24,
        values in proptest::collection::vec(any::<u8>(), 24),
        seed in any::<u64>(),
    ) {
        let h = n * 3 / 4;
        let params = ProtocolParams::new(n, h.max(2));
        let functionality = Functionality::Xor { input_bytes: 1 };
        let inputs: Vec<Vec<u8>> = values[..n].iter().map(|v| vec![*v]).collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(&seed.to_le_bytes());
        let parties = local_mpc::local_mpc_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        prop_assert!(result.correct_or_aborted(&expected));
    }

    #[test]
    fn succinct_all_to_all_views_agree(
        n in 4usize..12,
        lens in proptest::collection::vec(1usize..32, 12),
        seed in any::<u64>(),
    ) {
        let inputs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; lens[i]]).collect();
        let parties = all_to_all::succinct_parties(&inputs, 20, &seed.to_le_bytes(), &BTreeSet::new());
        let result = Simulator::all_honest(n, parties).unwrap().run().unwrap();
        let view = result.unanimous_output();
        prop_assert!(view.is_some());
        let view = view.unwrap();
        prop_assert_eq!(view.len(), n);
        for (i, input) in inputs.iter().enumerate() {
            prop_assert_eq!(view.get(&PartyId(i)), Some(input));
        }
    }
}
