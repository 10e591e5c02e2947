//! Functionality descriptions: what `f` the parties want to compute.

use mpca_circuits::circuit::{bits_to_bytes, bytes_to_bits};
use mpca_circuits::Circuit;

/// A single-output functionality `f : ({0,1}^ℓ)^n → {0,1}^ℓ'`.
///
/// Every party contributes a fixed-width input; all parties receive the same
/// output (Algorithm 3). The enum distinguishes the workloads with a concrete
/// threshold-LWE realisation (linear functions) from arbitrary circuits that
/// go through the hybrid path.
#[derive(Debug, Clone)]
pub enum Functionality {
    /// Sum of the parties' inputs, each interpreted as a little-endian
    /// unsigned integer of `input_bytes` bytes, modulo `2^(8·input_bytes)`.
    /// Linear — supported by the concrete threshold-LWE path.
    Sum {
        /// Width of each party's input in bytes (≤ 8).
        input_bytes: usize,
    },
    /// Bitwise XOR of the parties' `input_bytes`-byte inputs.
    /// Linear over GF(2) — supported by the concrete path chunk-wise.
    Xor {
        /// Width of each party's input in bytes.
        input_bytes: usize,
    },
    /// An arbitrary boolean circuit over the concatenated party inputs.
    /// Evaluated through the hybrid (ideal-functionality) path.
    Circuit {
        /// The circuit; its input must be `n · 8 · input_bytes` bits.
        circuit: Circuit,
        /// Width of each party's input in bytes.
        input_bytes: usize,
    },
}

impl Functionality {
    /// Width of each party's input in bytes.
    pub fn input_bytes(&self) -> usize {
        match self {
            Functionality::Sum { input_bytes }
            | Functionality::Xor { input_bytes }
            | Functionality::Circuit { input_bytes, .. } => *input_bytes,
        }
    }

    /// The circuit depth `D` used by the Theorem 9 cost model.
    ///
    /// Linear functionalities have multiplicative depth 0; circuit
    /// functionalities report their exact multiplicative depth.
    pub fn depth(&self) -> usize {
        match self {
            Functionality::Sum { .. } | Functionality::Xor { .. } => 0,
            Functionality::Circuit { circuit, .. } => circuit.multiplicative_depth(),
        }
    }

    /// Evaluates `f` on the parties' inputs (reference/ideal evaluation).
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong width, or (for circuits) if the
    /// circuit's declared input size does not match `n · input_bytes`.
    pub fn evaluate(&self, party_inputs: &[Vec<u8>]) -> Vec<u8> {
        let width = self.input_bytes();
        for (i, input) in party_inputs.iter().enumerate() {
            assert_eq!(
                input.len(),
                width,
                "party {i} supplied {} bytes, expected {width}",
                input.len()
            );
        }
        match self {
            Functionality::Sum { input_bytes } => {
                assert!(*input_bytes <= 8, "Sum supports inputs up to 8 bytes");
                let modulus = if *input_bytes == 8 {
                    u128::from(u64::MAX) + 1
                } else {
                    1u128 << (8 * input_bytes)
                };
                let total: u128 = party_inputs
                    .iter()
                    .map(|bytes| {
                        let mut padded = [0u8; 8];
                        padded[..bytes.len()].copy_from_slice(bytes);
                        u64::from_le_bytes(padded) as u128
                    })
                    .sum::<u128>()
                    % modulus;
                (total as u64).to_le_bytes()[..*input_bytes].to_vec()
            }
            Functionality::Xor { input_bytes } => {
                let mut acc = vec![0u8; *input_bytes];
                for input in party_inputs {
                    for (a, b) in acc.iter_mut().zip(input.iter()) {
                        *a ^= b;
                    }
                }
                acc
            }
            Functionality::Circuit { circuit, .. } => {
                let bits: Vec<bool> = party_inputs
                    .iter()
                    .flat_map(|bytes| bytes_to_bits(bytes))
                    .collect();
                assert_eq!(
                    bits.len(),
                    circuit.input_bits(),
                    "circuit expects {} input bits, inputs provide {}",
                    circuit.input_bits(),
                    bits.len()
                );
                let out = circuit.evaluate(&bits).expect("validated length");
                bits_to_bytes(&out)
            }
        }
    }

    /// Output length in bytes.
    pub fn output_bytes(&self, _parties: usize) -> usize {
        match self {
            Functionality::Sum { input_bytes } | Functionality::Xor { input_bytes } => *input_bytes,
            Functionality::Circuit { circuit, .. } => circuit.output_bits().div_ceil(8),
        }
    }
}

/// A multi-output functionality `f : ({0,1}^ℓ)^n → ({0,1}^ℓ')^n` where party
/// `i` must learn **only** the `i`-th output (Algorithm 4, §4.3).
#[derive(Debug, Clone)]
pub enum MultiOutputFunctionality {
    /// Every party receives the same value (wraps a single-output
    /// functionality; useful for testing the multi-output plumbing).
    Replicated(Functionality),
    /// Second-price (Vickrey) auction: inputs are `input_bytes`-byte bids;
    /// the winner's output is the second-highest bid (the price it pays),
    /// everyone else's output is zero. Output width equals input width.
    VickreyAuction {
        /// Width of each party's bid in bytes (≤ 8).
        input_bytes: usize,
    },
    /// Pairwise differences: party `i` learns `x_i − x_{(i+1) mod n}` modulo
    /// `2^(8·input_bytes)` (a toy asymmetric workload exercising distinct
    /// per-party outputs).
    PairwiseDelta {
        /// Width of each party's input in bytes (≤ 8).
        input_bytes: usize,
    },
}

impl MultiOutputFunctionality {
    /// Width of each party's input in bytes.
    pub fn input_bytes(&self) -> usize {
        match self {
            MultiOutputFunctionality::Replicated(f) => f.input_bytes(),
            MultiOutputFunctionality::VickreyAuction { input_bytes }
            | MultiOutputFunctionality::PairwiseDelta { input_bytes } => *input_bytes,
        }
    }

    /// Depth hint for the cost model.
    pub fn depth(&self) -> usize {
        match self {
            MultiOutputFunctionality::Replicated(f) => f.depth(),
            // Comparison trees over w-bit values: O(w) multiplicative depth
            // per comparison, O(log n) comparisons on the path.
            MultiOutputFunctionality::VickreyAuction { input_bytes } => 8 * input_bytes,
            MultiOutputFunctionality::PairwiseDelta { .. } => 1,
        }
    }

    /// Output width per party in bytes.
    pub fn output_bytes(&self, parties: usize) -> usize {
        match self {
            MultiOutputFunctionality::Replicated(f) => f.output_bytes(parties),
            MultiOutputFunctionality::VickreyAuction { input_bytes }
            | MultiOutputFunctionality::PairwiseDelta { input_bytes } => *input_bytes,
        }
    }

    /// Evaluates the functionality, returning one output per party.
    ///
    /// # Panics
    ///
    /// Panics if any input has the wrong width.
    pub fn evaluate(&self, party_inputs: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let n = party_inputs.len();
        let width = self.input_bytes();
        for (i, input) in party_inputs.iter().enumerate() {
            assert_eq!(input.len(), width, "party {i} input width");
        }
        let as_u64 = |bytes: &[u8]| -> u64 {
            let mut padded = [0u8; 8];
            padded[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(padded)
        };
        match self {
            MultiOutputFunctionality::Replicated(f) => {
                let out = f.evaluate(party_inputs);
                vec![out; n]
            }
            MultiOutputFunctionality::VickreyAuction { input_bytes } => {
                let bids: Vec<u64> = party_inputs.iter().map(|b| as_u64(b)).collect();
                let winner = bids
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, &bid)| (bid, std::cmp::Reverse(*i)))
                    .map(|(i, _)| i)
                    .expect("at least one party");
                let second = bids
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != winner)
                    .map(|(_, &b)| b)
                    .max()
                    .unwrap_or(0);
                (0..n)
                    .map(|i| {
                        let value = if i == winner { second } else { 0 };
                        value.to_le_bytes()[..*input_bytes].to_vec()
                    })
                    .collect()
            }
            MultiOutputFunctionality::PairwiseDelta { input_bytes } => {
                let values: Vec<u64> = party_inputs.iter().map(|b| as_u64(b)).collect();
                let mask: u128 = if *input_bytes == 8 {
                    u128::from(u64::MAX)
                } else {
                    (1u128 << (8 * input_bytes)) - 1
                };
                (0..n)
                    .map(|i| {
                        let next = values[(i + 1) % n];
                        let delta = ((values[i] as u128 + (mask + 1) - next as u128) & mask) as u64;
                        delta.to_le_bytes()[..*input_bytes].to_vec()
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpca_circuits::library;

    #[test]
    fn sum_evaluation_and_metadata() {
        let f = Functionality::Sum { input_bytes: 2 };
        assert_eq!(f.depth(), 0);
        assert_eq!(f.input_bytes(), 2);
        assert_eq!(f.output_bytes(5), 2);
        let inputs = vec![
            300u16.to_le_bytes().to_vec(),
            500u16.to_le_bytes().to_vec(),
            65_000u16.to_le_bytes().to_vec(),
        ];
        let out = f.evaluate(&inputs);
        let expect = ((300u64 + 500 + 65_000) % 65_536) as u16;
        assert_eq!(out, expect.to_le_bytes().to_vec());
    }

    #[test]
    fn xor_evaluation() {
        let f = Functionality::Xor { input_bytes: 3 };
        let inputs = vec![
            vec![0xFF, 0x00, 0x0F],
            vec![0x0F, 0xAA, 0x0F],
            vec![0x01, 0x02, 0x03],
        ];
        assert_eq!(
            f.evaluate(&inputs),
            vec![0xFF ^ 0x0F ^ 0x01, 0xAA ^ 0x02, 0x03]
        );
    }

    #[test]
    fn circuit_functionality_sum() {
        let n = 5;
        let circuit = library::sum_mod(n, 8);
        let f = Functionality::Circuit {
            circuit,
            input_bytes: 1,
        };
        let inputs: Vec<Vec<u8>> = vec![vec![10], vec![20], vec![30], vec![200], vec![100]];
        let out = f.evaluate(&inputs);
        assert_eq!(out, vec![((10u64 + 20 + 30 + 200 + 100) % 256) as u8]);
        assert!(f.depth() >= 1);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn wrong_input_width_panics() {
        let f = Functionality::Sum { input_bytes: 2 };
        let _ = f.evaluate(&[vec![1, 2], vec![3]]);
    }

    #[test]
    fn replicated_multi_output() {
        let f = MultiOutputFunctionality::Replicated(Functionality::Xor { input_bytes: 1 });
        let outs = f.evaluate(&[vec![0b1010], vec![0b0110]]);
        assert_eq!(outs, vec![vec![0b1100], vec![0b1100]]);
        assert_eq!(f.output_bytes(2), 1);
    }

    #[test]
    fn vickrey_auction_outputs() {
        let f = MultiOutputFunctionality::VickreyAuction { input_bytes: 2 };
        let bids = vec![
            100u16.to_le_bytes().to_vec(),
            350u16.to_le_bytes().to_vec(),
            275u16.to_le_bytes().to_vec(),
            10u16.to_le_bytes().to_vec(),
        ];
        let outs = f.evaluate(&bids);
        // Party 1 wins and pays 275; everyone else gets 0.
        assert_eq!(outs[1], 275u16.to_le_bytes().to_vec());
        for (i, out) in outs.iter().enumerate() {
            if i != 1 {
                assert_eq!(out, &0u16.to_le_bytes().to_vec());
            }
        }
        assert!(f.depth() >= 1);
    }

    #[test]
    fn vickrey_tie_goes_to_lowest_index() {
        let f = MultiOutputFunctionality::VickreyAuction { input_bytes: 1 };
        let outs = f.evaluate(&[vec![9], vec![9], vec![1]]);
        assert_eq!(outs[0], vec![9]);
        assert_eq!(outs[1], vec![0]);
    }

    #[test]
    fn pairwise_delta_wraps() {
        let f = MultiOutputFunctionality::PairwiseDelta { input_bytes: 1 };
        let outs = f.evaluate(&[vec![5], vec![10], vec![3]]);
        // 5 - 10 mod 256 = 251; 10 - 3 = 7; 3 - 5 mod 256 = 254.
        assert_eq!(outs, vec![vec![251], vec![7], vec![254]]);
    }
}
