//! # mpca-circuits
//!
//! A boolean-circuit substrate used to describe the functionalities `f` that
//! the MPC protocols compute.
//!
//! The paper states its protocols for functions of bounded circuit depth `D`:
//! the communication cost of the encrypted functionality (Theorem 9) grows
//! with `poly(λ, D)`, so the experiment harness needs the depth of each
//! workload, and the ideal/hybrid realisation needs to *evaluate* the
//! function on the parties' inputs. This crate provides:
//!
//! * [`Circuit`] — a gate-list representation with XOR/AND/NOT/constant
//!   gates, topological evaluation, and exact depth computation (counting
//!   multiplicative depth separately, since XOR is "free" for most
//!   FHE-style cost models);
//! * [`CircuitBuilder`] — a small combinator layer (wires, multi-bit buses,
//!   adders) for building workloads;
//! * [`library`] — [`library::sum_mod`], the bounded-sum circuit the
//!   hybrid-path tests evaluate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod circuit;
pub mod library;

pub use builder::{Bus, CircuitBuilder, Wire};
pub use circuit::{Circuit, CircuitError, Gate, GateId};
