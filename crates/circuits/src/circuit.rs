//! Gate-list circuits: representation, evaluation, and depth analysis.

use std::error::Error;
use std::fmt;

/// Identifier of a gate (its index in the gate list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GateId(pub usize);

/// A single gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// An input bit (index into the flattened input bit-vector).
    Input(usize),
    /// A constant bit.
    Const(bool),
    /// XOR of two earlier gates.
    Xor(GateId, GateId),
    /// AND of two earlier gates.
    And(GateId, GateId),
    /// Negation of an earlier gate.
    Not(GateId),
}

/// Errors returned by circuit construction and evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// A gate referenced a gate at an equal or later index.
    ForwardReference {
        /// The offending gate.
        gate: usize,
    },
    /// An input gate referenced an input bit beyond the declared input size.
    InputOutOfRange {
        /// The referenced input index.
        index: usize,
        /// Declared number of input bits.
        input_bits: usize,
    },
    /// An output referenced a non-existent gate.
    BadOutput {
        /// The offending output wire.
        gate: usize,
    },
    /// Evaluation was invoked with the wrong number of input bits.
    WrongInputLength {
        /// Bits supplied.
        got: usize,
        /// Bits expected.
        expected: usize,
    },
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::ForwardReference { gate } => {
                write!(f, "gate {gate} references a later gate")
            }
            CircuitError::InputOutOfRange { index, input_bits } => {
                write!(
                    f,
                    "input index {index} out of range (circuit has {input_bits} input bits)"
                )
            }
            CircuitError::BadOutput { gate } => write!(f, "output references missing gate {gate}"),
            CircuitError::WrongInputLength { got, expected } => {
                write!(f, "expected {expected} input bits, got {got}")
            }
        }
    }
}

impl Error for CircuitError {}

/// A boolean circuit over XOR/AND/NOT gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    /// Number of input bits.
    input_bits: usize,
    /// Gates in topological order.
    gates: Vec<Gate>,
    /// Output wires (gate ids), in order.
    outputs: Vec<GateId>,
}

impl Circuit {
    /// Creates a circuit from parts, validating topological order and ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`CircuitError`] when any gate references a later gate, an
    /// out-of-range input, or an output references a missing gate.
    pub fn new(
        input_bits: usize,
        gates: Vec<Gate>,
        outputs: Vec<GateId>,
    ) -> Result<Self, CircuitError> {
        for (i, gate) in gates.iter().enumerate() {
            let check = |id: GateId| -> Result<(), CircuitError> {
                if id.0 >= i {
                    Err(CircuitError::ForwardReference { gate: i })
                } else {
                    Ok(())
                }
            };
            match gate {
                Gate::Input(idx) => {
                    if *idx >= input_bits {
                        return Err(CircuitError::InputOutOfRange {
                            index: *idx,
                            input_bits,
                        });
                    }
                }
                Gate::Const(_) => {}
                Gate::Xor(a, b) | Gate::And(a, b) => {
                    check(*a)?;
                    check(*b)?;
                }
                Gate::Not(a) => check(*a)?,
            }
        }
        for output in &outputs {
            if output.0 >= gates.len() {
                return Err(CircuitError::BadOutput { gate: output.0 });
            }
        }
        Ok(Self {
            input_bits,
            gates,
            outputs,
        })
    }

    /// Number of input bits.
    pub fn input_bits(&self) -> usize {
        self.input_bits
    }

    /// Number of output bits.
    pub fn output_bits(&self) -> usize {
        self.outputs.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Total circuit depth, counting every gate as depth 1.
    pub fn depth(&self) -> usize {
        self.depth_by(|_| 1)
    }

    /// Multiplicative depth: only AND gates add depth (XOR/NOT are free, as
    /// in standard FHE cost models, which is the `D` in `poly(λ, D)`).
    pub fn multiplicative_depth(&self) -> usize {
        self.depth_by(|gate| usize::from(matches!(gate, Gate::And(_, _))))
    }

    fn depth_by(&self, cost: impl Fn(&Gate) -> usize) -> usize {
        let mut depths = vec![0usize; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            let input_depth = match gate {
                Gate::Input(_) | Gate::Const(_) => 0,
                Gate::Xor(a, b) | Gate::And(a, b) => depths[a.0].max(depths[b.0]),
                Gate::Not(a) => depths[a.0],
            };
            depths[i] = input_depth + cost(gate);
        }
        self.outputs.iter().map(|o| depths[o.0]).max().unwrap_or(0)
    }

    /// Evaluates the circuit on a flattened input bit-vector.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WrongInputLength`] if `inputs` has the wrong
    /// length.
    pub fn evaluate(&self, inputs: &[bool]) -> Result<Vec<bool>, CircuitError> {
        if inputs.len() != self.input_bits {
            return Err(CircuitError::WrongInputLength {
                got: inputs.len(),
                expected: self.input_bits,
            });
        }
        let mut values = vec![false; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match gate {
                Gate::Input(idx) => inputs[*idx],
                Gate::Const(b) => *b,
                Gate::Xor(a, b) => values[a.0] ^ values[b.0],
                Gate::And(a, b) => values[a.0] & values[b.0],
                Gate::Not(a) => !values[a.0],
            };
        }
        Ok(self.outputs.iter().map(|o| values[o.0]).collect())
    }
}

/// Expands bytes into bits, least-significant bit of each byte first.
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<bool> {
    bytes
        .iter()
        .flat_map(|byte| (0..8).map(move |i| (byte >> i) & 1 == 1))
        .collect()
}

/// Packs bits into bytes, least-significant bit of each byte first.
pub fn bits_to_bytes(bits: &[bool]) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            out[i / 8] |= 1 << (i % 8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_and_circuit() -> Circuit {
        // out0 = (in0 ^ in1), out1 = (in0 & in1)
        Circuit::new(
            2,
            vec![
                Gate::Input(0),
                Gate::Input(1),
                Gate::Xor(GateId(0), GateId(1)),
                Gate::And(GateId(0), GateId(1)),
            ],
            vec![GateId(2), GateId(3)],
        )
        .unwrap()
    }

    #[test]
    fn half_adder_truth_table() {
        let circuit = xor_and_circuit();
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let out = circuit.evaluate(&[a, b]).unwrap();
            assert_eq!(out, vec![a ^ b, a & b]);
        }
    }

    #[test]
    fn depth_and_counts() {
        let circuit = xor_and_circuit();
        assert_eq!(circuit.gate_count(), 4);
        assert_eq!(circuit.depth(), 2);
        assert_eq!(circuit.multiplicative_depth(), 1);
        assert_eq!(circuit.input_bits(), 2);
        assert_eq!(circuit.output_bits(), 2);
    }

    #[test]
    fn validation_rejects_bad_circuits() {
        assert!(matches!(
            Circuit::new(1, vec![Gate::Xor(GateId(0), GateId(1))], vec![]),
            Err(CircuitError::ForwardReference { .. })
        ));
        assert!(matches!(
            Circuit::new(1, vec![Gate::Input(3)], vec![]),
            Err(CircuitError::InputOutOfRange { .. })
        ));
        assert!(matches!(
            Circuit::new(1, vec![Gate::Input(0)], vec![GateId(7)]),
            Err(CircuitError::BadOutput { .. })
        ));
    }

    #[test]
    fn wrong_input_length_rejected() {
        let circuit = xor_and_circuit();
        assert!(matches!(
            circuit.evaluate(&[true]),
            Err(CircuitError::WrongInputLength {
                got: 1,
                expected: 2
            })
        ));
    }

    #[test]
    fn bit_byte_round_trips() {
        let bytes = vec![0b1010_0001u8, 0xFF, 0x00, 0x5A];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), 32);
        assert_eq!(bits_to_bytes(&bits), bytes);
        assert!(bits[0]);
        assert!(!bits[1]);
    }

    #[test]
    fn constant_gates() {
        let circuit = Circuit::new(
            0,
            vec![Gate::Const(true), Gate::Const(false), Gate::Not(GateId(1))],
            vec![GateId(0), GateId(2)],
        )
        .unwrap();
        assert_eq!(circuit.evaluate(&[]).unwrap(), vec![true, true]);
        assert_eq!(circuit.depth(), 2);
        assert_eq!(circuit.multiplicative_depth(), 0);
    }
}
