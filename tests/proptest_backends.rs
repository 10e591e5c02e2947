//! Property tests for backend equivalence: for random sizes, inputs and
//! seeds, the `Parallel` backend must produce outcomes, round counts and
//! `CommStats` identical to the `Sequential` backend — the determinism
//! guarantee the `mpca-engine` session pool is built on.

use std::collections::BTreeSet;

use proptest::prelude::*;

use mpc_aborts::crypto::lwe::LweParams;
use mpc_aborts::crypto::Prg;
use mpc_aborts::encfunc::Functionality;
use mpc_aborts::engine::{ExecutionBackend, Parallel, Sequential};
use mpc_aborts::net::{CommonRandomString, PartyId, PartyLogic, Simulator};
use mpc_aborts::protocols::{broadcast, equality, mpc, ProtocolParams};

/// Runs the same deterministic construction through both backends and
/// asserts bit-identical results.
fn assert_backends_agree<L, F>(
    build: F,
    threads: usize,
) -> Result<(), proptest::test_runner::TestCaseError>
where
    L: PartyLogic + Send,
    L::Output: Send + PartialEq + std::fmt::Debug,
    F: Fn() -> Simulator<L>,
{
    let sequential = Sequential.execute(build()).expect("sequential run");
    let parallel = Parallel::with_threads(threads)
        .execute(build())
        .expect("parallel run");
    prop_assert_eq!(&sequential.outcomes, &parallel.outcomes);
    prop_assert_eq!(&sequential.stats, &parallel.stats);
    prop_assert_eq!(sequential.rounds, parallel.rounds);
    // The message-plane high-water marks are part of the determinism
    // contract too: scheduling must not change what gets queued when.
    prop_assert_eq!(sequential.peak_inbox_bytes, parallel.peak_inbox_bytes);
    prop_assert_eq!(
        sequential.peak_inbox_envelopes,
        parallel.peak_inbox_envelopes
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn equality_backends_agree(
        len in 1usize..512,
        flip in any::<bool>(),
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        assert_backends_agree(
            || {
                let prg = Prg::from_seed_bytes(&seed.to_le_bytes());
                let mut a = prg.derive(b"data").gen_bytes(len);
                let b = a.clone();
                if flip {
                    a[len / 2] ^= 0x42;
                }
                let parties = vec![
                    equality::EqualityParty::new(PartyId(0), PartyId(1), 24, a, prg.derive(b"p0")),
                    equality::EqualityParty::new(PartyId(1), PartyId(0), 24, b, prg.derive(b"p1")),
                ];
                Simulator::all_honest(2, parties).unwrap()
            },
            threads,
        )?;
    }

    #[test]
    fn broadcast_backends_agree(
        n in 3usize..20,
        sender in 0usize..3,
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        threads in 2usize..6,
    ) {
        assert_backends_agree(
            || {
                let parties = broadcast::broadcast_parties(
                    n,
                    PartyId(sender % n),
                    payload.clone(),
                    &BTreeSet::new(),
                );
                Simulator::all_honest(n, parties).unwrap()
            },
            threads,
        )?;
    }

    #[test]
    fn mpc_backends_agree(
        n in 8usize..16,
        values in proptest::collection::vec(any::<u16>(), 16),
        seed in any::<u64>(),
        threads in 2usize..6,
    ) {
        let h = n / 2 + 1;
        let params = ProtocolParams::new(n, h).with_lwe(LweParams {
            plaintext_modulus: 1 << 16,
            ..LweParams::toy()
        });
        let inputs: Vec<Vec<u8>> = values[..n].iter().map(|v| v.to_le_bytes().to_vec()).collect();
        let functionality = Functionality::Sum { input_bytes: 2 };
        assert_backends_agree(
            || {
                let crs = CommonRandomString::from_label(&seed.to_le_bytes());
                let parties = mpc::mpc_parties(
                    &params,
                    &functionality,
                    &inputs,
                    crs,
                    &BTreeSet::new(),
                );
                Simulator::all_honest(n, parties).unwrap()
            },
            threads,
        )?;
    }
}
