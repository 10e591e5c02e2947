//! The communication–locality tradeoff protocol (Algorithm 8, Theorem 4 /
//! Theorem 19).
//!
//! The committee-based protocol of Algorithm 3 is communication-optimal but
//! every committee member talks to the whole network. Algorithm 8 combines
//! the local committee election of Algorithm 7 with a *sparsified*
//! committee–network interaction: each committee member samples a random
//! cover set `S_c ⊂ [n]` of size `n/√h` and only ever talks to its cover
//! (plus the other members). By the covering claim (Claim 23), every party
//! is covered by at least one honest member w.h.p., so its encrypted input
//! reaches the committee and it receives a correct output copy.
//!
//! Communication `Õ(n³/h^{3/2})`, locality `Õ(n/√h)` (Claims 24–26).
//!
//! The steps after the election are Algorithm 3's, so a party is an
//! [`MpcParty`] built for Algorithm 8: it forwards the key and the output
//! to its cover, sends its ciphertext to the members that covered it, and
//! relays the collected ciphertexts to the other members before the
//! equality check. The messages are Algorithm 3's [`MpcMsg`](crate::mpc::MpcMsg)s.

use std::collections::BTreeSet;

use mpca_encfunc::spec::Functionality;
use mpca_net::{CommonRandomString, PartyId};

use crate::mpc::{committee_parties, MpcParty, ALGORITHM_8};
use crate::params::ProtocolParams;

/// One party of the Algorithm 8 protocol.
pub type TradeoffParty = MpcParty;

/// Total number of rounds of the protocol.
pub fn rounds(params: &ProtocolParams) -> usize {
    ALGORITHM_8.rounds(params)
}

/// Builds the honest parties of an Algorithm 8 execution; see
/// [`crate::mpc::mpc_parties`].
pub fn tradeoff_parties(
    params: &ProtocolParams,
    functionality: &Functionality,
    inputs: &[Vec<u8>],
    crs: CommonRandomString,
    corrupted: &BTreeSet<PartyId>,
) -> Vec<TradeoffParty> {
    committee_parties(&ALGORITHM_8, params, functionality, inputs, crs, corrupted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_net::Simulator;

    #[test]
    fn concrete_path_all_honest_computes_the_sum() {
        let params = ProtocolParams::new(32, 16).with_lwe(mpca_crypto::lwe::LweParams {
            plaintext_modulus: 1 << 16,
            ..mpca_crypto::lwe::LweParams::toy()
        });
        let functionality = Functionality::Sum { input_bytes: 2 };
        let values: Vec<u16> = (0..params.n).map(|i| (i as u16) * 13 + 5).collect();
        let inputs: Vec<Vec<u8>> = values.iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let expected: u16 = values.iter().fold(0u16, |acc, v| acc.wrapping_add(*v));
        let crs = CommonRandomString::from_label(b"tradeoff-concrete");
        let parties = tradeoff_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.correct_or_aborted(&expected.to_le_bytes().to_vec()));
        // An honest run should actually finish (the negligible-probability
        // events — uncovered party, disconnected graph — do not occur for
        // this seed).
        assert_eq!(
            result.unanimous_output(),
            Some(&expected.to_le_bytes().to_vec())
        );
        assert_eq!(result.rounds, rounds(&params));
    }

    #[test]
    fn hybrid_path_all_honest_computes_the_xor() {
        let params = ProtocolParams::new(24, 12);
        let functionality = Functionality::Xor { input_bytes: 1 };
        let inputs: Vec<Vec<u8>> = (0..params.n).map(|i| vec![(i * 29) as u8]).collect();
        let expected = functionality.evaluate(&inputs);
        let crs = CommonRandomString::from_label(b"tradeoff-hybrid");
        let parties = tradeoff_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(result.correct_or_aborted(&expected));
        assert_eq!(result.unanimous_output(), Some(&expected));
    }

    #[test]
    fn members_do_not_talk_to_the_whole_network() {
        // Unlike Algorithm 3, the per-member communication is bounded by the
        // cover size + committee size + routing degree.
        let params = ProtocolParams::new(64, 48).with_lwe(mpca_crypto::lwe::LweParams {
            plaintext_modulus: 1 << 16,
            ..mpca_crypto::lwe::LweParams::toy()
        });
        let functionality = Functionality::Sum { input_bytes: 2 };
        let inputs: Vec<Vec<u8>> = (0..params.n)
            .map(|i| (i as u16).to_le_bytes().to_vec())
            .collect();
        let crs = CommonRandomString::from_label(b"tradeoff-locality");
        let parties = tradeoff_parties(&params, &functionality, &inputs, crs, &BTreeSet::new());
        let result = Simulator::all_honest(params.n, parties)
            .unwrap()
            .run()
            .unwrap();
        assert!(!result.any_abort());
        let committee_size = params.local_committee_bound();
        let bound = (params.sparse_degree()
            + params.sparse_in_bound()
            + params.cover_size()
            + committee_size
            + params.committee_bound())
        .min(params.n - 1);
        assert!(
            result.honest_locality() <= bound,
            "locality {} exceeds {bound}",
            result.honest_locality()
        );
    }
}
