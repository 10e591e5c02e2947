//! A combinator layer for building circuits: wires, multi-bit buses and
//! ripple-carry adders.

use crate::circuit::{Circuit, CircuitError, Gate, GateId};

/// A single wire (the output of a gate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire(GateId);

/// A little-endian bundle of wires representing an unsigned integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bus {
    wires: Vec<Wire>,
}

impl Bus {
    /// Bit width.
    pub fn width(&self) -> usize {
        self.wires.len()
    }
}

/// An incremental circuit builder.
///
/// ```
/// use mpca_circuits::CircuitBuilder;
///
/// // f(x, y) = x + y over 8-bit inputs from two parties.
/// let mut b = CircuitBuilder::new();
/// let x = b.input_bus(8);
/// let y = b.input_bus(8);
/// let sum = b.add(&x, &y);
/// let circuit = b.finish_with_bus(&sum).unwrap();
/// assert_eq!(circuit.input_bits(), 16);
/// assert_eq!(circuit.output_bits(), 9);
/// ```
#[derive(Debug, Default)]
pub struct CircuitBuilder {
    gates: Vec<Gate>,
    input_bits: usize,
    outputs: Vec<GateId>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, gate: Gate) -> Wire {
        self.gates.push(gate);
        Wire(GateId(self.gates.len() - 1))
    }

    /// Declares the next input bit.
    pub fn input(&mut self) -> Wire {
        let idx = self.input_bits;
        self.input_bits += 1;
        self.push(Gate::Input(idx))
    }

    /// Declares a bus of `width` consecutive input bits.
    pub fn input_bus(&mut self, width: usize) -> Bus {
        Bus {
            wires: (0..width).map(|_| self.input()).collect(),
        }
    }

    /// A constant bit.
    pub fn constant(&mut self, value: bool) -> Wire {
        self.push(Gate::Const(value))
    }

    /// `a XOR b`.
    pub fn xor(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::Xor(a.0, b.0))
    }

    /// `a AND b`.
    pub fn and(&mut self, a: Wire, b: Wire) -> Wire {
        self.push(Gate::And(a.0, b.0))
    }

    /// Ripple-carry addition; the result is one bit wider than the inputs.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn add(&mut self, a: &Bus, b: &Bus) -> Bus {
        assert_eq!(a.width(), b.width(), "bus widths differ");
        let mut carry = self.constant(false);
        let mut wires = Vec::with_capacity(a.width() + 1);
        for (&x, &y) in a.wires.iter().zip(b.wires.iter()) {
            // sum = x ^ y ^ carry
            let xy = self.xor(x, y);
            let sum = self.xor(xy, carry);
            // carry' = (x & y) ^ (carry & (x ^ y))
            let xa = self.and(x, y);
            let cb = self.and(carry, xy);
            carry = self.xor(xa, cb);
            wires.push(sum);
        }
        wires.push(carry);
        Bus { wires }
    }

    /// Truncating addition modulo `2^width` (same width as the inputs).
    pub fn add_mod(&mut self, a: &Bus, b: &Bus) -> Bus {
        let mut sum = self.add(a, b);
        sum.wires.pop();
        sum
    }

    /// Marks a whole bus as output bits (LSB first).
    pub fn output_bus(&mut self, bus: &Bus) {
        for wire in &bus.wires {
            self.outputs.push(wire.0);
        }
    }

    /// Finishes the circuit with the outputs marked so far.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] from validation (which cannot trigger for
    /// circuits built exclusively through this builder).
    pub fn finish(self) -> Result<Circuit, CircuitError> {
        Circuit::new(self.input_bits, self.gates, self.outputs)
    }

    /// Convenience: mark `bus` as the output and finish.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] from validation.
    pub fn finish_with_bus(mut self, bus: &Bus) -> Result<Circuit, CircuitError> {
        self.output_bus(bus);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{bits_to_bytes, bytes_to_bits};

    fn eval_u64(circuit: &Circuit, inputs: &[(u64, usize)]) -> u64 {
        let bits: Vec<bool> = inputs
            .iter()
            .flat_map(|(value, width)| (0..*width).map(move |i| (value >> i) & 1 == 1))
            .collect();
        let out = circuit.evaluate(&bits).unwrap();
        out.iter()
            .enumerate()
            .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i))
    }

    #[test]
    fn adder_is_correct() {
        let mut b = CircuitBuilder::new();
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let sum = b.add(&x, &y);
        let circuit = b.finish_with_bus(&sum).unwrap();
        for (x, y) in [(0u64, 0u64), (1, 1), (200, 100), (255, 255), (17, 250)] {
            assert_eq!(eval_u64(&circuit, &[(x, 8), (y, 8)]), x + y, "{x} + {y}");
        }
    }

    #[test]
    fn add_mod_truncates() {
        let mut b = CircuitBuilder::new();
        let x = b.input_bus(8);
        let y = b.input_bus(8);
        let sum = b.add_mod(&x, &y);
        let circuit = b.finish_with_bus(&sum).unwrap();
        assert_eq!(eval_u64(&circuit, &[(200, 8), (100, 8)]), (200 + 100) % 256);
    }

    #[test]
    fn bits_bytes_helpers_consistent_with_builder_layout() {
        let bits = bytes_to_bits(&[0x0F]);
        assert_eq!(bits_to_bytes(&bits), vec![0x0F]);
    }
}
