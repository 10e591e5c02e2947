//! The circuit workload library.
//!
//! Each builder returns a [`Circuit`] whose input is the concatenation of
//! the `n` parties' fixed-width inputs (party 0 first). [`sum_mod`] is the
//! workload the hybrid (ideal-functionality) path is tested with.

use crate::builder::{Bus, CircuitBuilder};
use crate::circuit::Circuit;

/// Sum of all parties' `width`-bit inputs modulo `2^width`.
pub fn sum_mod(parties: usize, width: usize) -> Circuit {
    assert!(parties >= 1, "need at least one party");
    let mut b = CircuitBuilder::new();
    let mut acc: Option<Bus> = None;
    for _ in 0..parties {
        let input = b.input_bus(width);
        acc = Some(match acc {
            None => input,
            Some(prev) => b.add_mod(&prev, &input),
        });
    }
    b.finish_with_bus(&acc.expect("at least one party"))
        .expect("builder produces valid circuits")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(circuit: &Circuit, party_values: &[(u64, usize)]) -> u64 {
        let bits: Vec<bool> = party_values
            .iter()
            .flat_map(|(value, width)| (0..*width).map(move |i| (value >> i) & 1 == 1))
            .collect();
        let out = circuit.evaluate(&bits).unwrap();
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i))
    }

    #[test]
    fn sum_mod_matches_reference() {
        let circuit = sum_mod(5, 8);
        let values = [200u64, 100, 17, 255, 1];
        let inputs: Vec<(u64, usize)> = values.iter().map(|&v| (v, 8)).collect();
        assert_eq!(eval(&circuit, &inputs), values.iter().sum::<u64>() % 256);
    }

    #[test]
    fn workload_depth_is_modest() {
        // The paper targets low-depth functions: the sum's multiplicative
        // depth stays well below its size.
        let circuit = sum_mod(16, 8);
        assert!(circuit.multiplicative_depth() >= 1);
        assert!(circuit.multiplicative_depth() <= circuit.gate_count());
    }
}
