//! The removed compiler's names, each a one-line delegation to the op
//! list, kept only until the benchmark drops its calls.

use crate::{Circuit, SimError, State};

/// A borrowed [`Circuit`]; nothing is compiled.
#[derive(Debug, Clone, Copy)]
pub struct CompiledCircuit<'c>(pub &'c Circuit);

/// Wraps `circuit`.
pub fn compile(circuit: &Circuit) -> CompiledCircuit<'_> {
    CompiledCircuit(circuit)
}

impl CompiledCircuit<'_> {
    /// [`Circuit::run`].
    pub fn run(&self, params: &[f64]) -> Result<State, SimError> {
        self.0.run(params)
    }
    /// [`Circuit::gate_count`].
    pub fn gates_in(&self) -> usize {
        self.0.gate_count()
    }
    /// [`Circuit::gate_count`]: nothing is merged.
    pub fn gates_out(&self) -> usize {
        self.0.gate_count()
    }
}
