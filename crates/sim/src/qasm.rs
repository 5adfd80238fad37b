//! OpenQASM 2.0 interchange (subset): export any circuit at bound
//! parameter values, and import the gate subset this simulator supports.
//!
//! The emitter resolves free parameters against a parameter vector, so
//! the exported text is a concrete executable circuit — the natural
//! hand-off format toward real-device toolchains (Qiskit et al.). The
//! parser accepts the same subset and yields a circuit with all angles
//! bound (zero free parameters).
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use plateau_sim::{qasm, Circuit};
//!
//! let mut c = Circuit::new(2)?;
//! c.h(0)?.rx(1)?.cz(0, 1)?;
//! let text = qasm::to_qasm(&c, &[0.5])?;
//! assert!(text.contains("rx(0.5) q[1];"));
//!
//! let back = qasm::from_qasm(&text)?;
//! assert_eq!(back.n_qubits(), 2);
//! assert_eq!(back.gate_count(), 3);
//! // Round trip preserves semantics exactly.
//! let s1 = c.run(&[0.5])?;
//! let s2 = back.run(&[])?;
//! assert!((s1.fidelity(&s2)? - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

use crate::circuit::{Circuit, Op};
use crate::error::SimError;
use crate::gate::{FixedGate, RotationGate, TwoQubitRotationGate};
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

/// Error raised while parsing QASM text.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseQasmError {
    /// The mandatory `OPENQASM 2.0;` header is missing.
    MissingHeader,
    /// No `qreg` declaration was found before the first gate.
    MissingRegister,
    /// A line could not be understood.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A gate name outside the supported subset.
    UnsupportedGate {
        /// 1-based line number.
        line: usize,
        /// The gate name.
        gate: String,
    },
    /// Constructing the circuit failed (bad qubit indices, etc.).
    Circuit(SimError),
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseQasmError::MissingHeader => f.write_str("missing OPENQASM 2.0 header"),
            ParseQasmError::MissingRegister => f.write_str("missing qreg declaration"),
            ParseQasmError::BadLine { line, text } => {
                write!(f, "cannot parse line {line}: {text:?}")
            }
            ParseQasmError::UnsupportedGate { line, gate } => {
                write!(f, "unsupported gate {gate:?} on line {line}")
            }
            ParseQasmError::Circuit(e) => write!(f, "invalid circuit: {e}"),
        }
    }
}

impl Error for ParseQasmError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseQasmError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ParseQasmError {
    fn from(e: SimError) -> Self {
        ParseQasmError::Circuit(e)
    }
}

fn rotation_name(g: RotationGate) -> &'static str {
    match g {
        RotationGate::Rx => "rx",
        RotationGate::Ry => "ry",
        RotationGate::Rz => "rz",
        RotationGate::Phase => "p",
    }
}

fn controlled_rotation_name(g: RotationGate) -> &'static str {
    match g {
        RotationGate::Rx => "crx",
        RotationGate::Ry => "cry",
        RotationGate::Rz => "crz",
        RotationGate::Phase => "cp",
    }
}

fn two_qubit_rotation_name(g: TwoQubitRotationGate) -> &'static str {
    match g {
        TwoQubitRotationGate::Rxx => "rxx",
        TwoQubitRotationGate::Ryy => "ryy",
        TwoQubitRotationGate::Rzz => "rzz",
    }
}

/// Serializes a circuit at concrete parameter values to OpenQASM 2.0.
///
/// # Errors
///
/// Returns [`SimError::WrongParamCount`] on a parameter-length mismatch.
pub fn to_qasm(circuit: &Circuit, params: &[f64]) -> Result<String, SimError> {
    circuit.check_params(params)?;
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.n_qubits());
    for op in circuit.ops() {
        match op {
            Op::Fixed { gate, qubits } => match qubits.as_slice() {
                [q] => {
                    let _ = writeln!(out, "{} q[{q}];", gate.name());
                }
                [a, b] => {
                    let _ = writeln!(out, "{} q[{a}],q[{b}];", gate.name());
                }
                _ => unreachable!("fixed gates are 1- or 2-qubit"),
            },
            Op::Rotation { gate, qubit, param } => {
                let _ = writeln!(
                    out,
                    "{}({}) q[{qubit}];",
                    rotation_name(*gate),
                    param.angle(params)
                );
            }
            Op::ControlledRotation {
                gate,
                control,
                target,
                param,
            } => {
                let _ = writeln!(
                    out,
                    "{}({}) q[{control}],q[{target}];",
                    controlled_rotation_name(*gate),
                    param.angle(params)
                );
            }
            Op::TwoQubitRotation {
                gate,
                first,
                second,
                param,
            } => {
                let _ = writeln!(
                    out,
                    "{}({}) q[{first}],q[{second}];",
                    two_qubit_rotation_name(*gate),
                    param.angle(params)
                );
            }
        }
    }
    Ok(out)
}

/// Parses a supported-subset OpenQASM 2.0 program into a circuit with all
/// angles bound (zero free parameters). `include`, `barrier`, `creg`, and
/// `measure` lines are ignored; comments (`//`) are stripped.
///
/// # Errors
///
/// Returns [`ParseQasmError`] on malformed or unsupported input.
pub fn from_qasm(text: &str) -> Result<Circuit, ParseQasmError> {
    let mut circuit: Option<Circuit> = None;
    let mut saw_header = false;

    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split("//").next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if stmt.starts_with("OPENQASM") {
                saw_header = true;
                continue;
            }
            if stmt.starts_with("include") || stmt.starts_with("barrier")
                || stmt.starts_with("creg") || stmt.starts_with("measure")
            {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("qreg") {
                let n = parse_reg_size(rest).ok_or_else(|| ParseQasmError::BadLine {
                    line: line_no,
                    text: stmt.to_string(),
                })?;
                circuit = Some(Circuit::new(n)?);
                continue;
            }

            let circuit = circuit.as_mut().ok_or(ParseQasmError::MissingRegister)?;
            apply_statement(circuit, stmt, line_no)?;
        }
    }

    if !saw_header {
        return Err(ParseQasmError::MissingHeader);
    }
    circuit.ok_or(ParseQasmError::MissingRegister)
}

fn parse_reg_size(rest: &str) -> Option<usize> {
    // e.g. ` q[4]`
    let open = rest.find('[')?;
    let close = rest.find(']')?;
    rest[open + 1..close].trim().parse().ok()
}

fn parse_angle(raw: &str) -> Option<f64> {
    let t = raw.trim();
    // Support the pi shorthands QASM files commonly use.
    let pi = std::f64::consts::PI;
    match t {
        "pi" => return Some(pi),
        "-pi" => return Some(-pi),
        "pi/2" => return Some(pi / 2.0),
        "-pi/2" => return Some(-pi / 2.0),
        "pi/4" => return Some(pi / 4.0),
        "-pi/4" => return Some(-pi / 4.0),
        _ => {}
    }
    if let Some(num) = t.strip_suffix("*pi") {
        return num.trim().parse::<f64>().ok().map(|x| x * pi);
    }
    t.parse().ok()
}

fn parse_operands(rest: &str) -> Option<Vec<usize>> {
    let mut qubits = Vec::new();
    for part in rest.split(',') {
        let part = part.trim();
        let open = part.find('[')?;
        let close = part.find(']')?;
        if !part.starts_with('q') {
            return None;
        }
        qubits.push(part[open + 1..close].trim().parse().ok()?);
    }
    Some(qubits)
}

fn apply_statement(circuit: &mut Circuit, stmt: &str, line: usize) -> Result<(), ParseQasmError> {
    let bad = || ParseQasmError::BadLine {
        line,
        text: stmt.to_string(),
    };

    // Split "name(args)" from operands.
    let space = stmt.find(' ').ok_or_else(bad)?;
    let (head, operands_raw) = stmt.split_at(space);
    let operands = parse_operands(operands_raw).ok_or_else(bad)?;

    let (name, angle) = if let Some(open) = head.find('(') {
        let close = head.rfind(')').ok_or_else(bad)?;
        let angle = parse_angle(&head[open + 1..close]).ok_or_else(bad)?;
        (&head[..open], Some(angle))
    } else {
        (head, None)
    };

    if angle.is_none() {
        let gate = match name {
            "id" => return Ok(()), // identity: skip
            "CX" => Some(FixedGate::Cx),
            _ => FixedGate::from_name(name),
        };
        let gate = gate.ok_or_else(|| ParseQasmError::UnsupportedGate {
            line,
            gate: name.to_string(),
        })?;
        circuit.push_fixed(gate, &operands)?;
        return Ok(());
    }

    let angle = angle.expect("checked above");
    match (name, operands.as_slice()) {
        ("rx", [q]) => {
            circuit.push_rotation_const(RotationGate::Rx, *q, angle)?;
        }
        ("ry", [q]) => {
            circuit.push_rotation_const(RotationGate::Ry, *q, angle)?;
        }
        ("rz", [q]) => {
            circuit.push_rotation_const(RotationGate::Rz, *q, angle)?;
        }
        ("p" | "u1", [q]) => {
            circuit.push_rotation_const(RotationGate::Phase, *q, angle)?;
        }
        ("crx", [c, t]) => push_controlled_const(circuit, RotationGate::Rx, *c, *t, angle)?,
        ("cry", [c, t]) => push_controlled_const(circuit, RotationGate::Ry, *c, *t, angle)?,
        ("crz", [c, t]) => push_controlled_const(circuit, RotationGate::Rz, *c, *t, angle)?,
        ("cp" | "cu1", [c, t]) => {
            push_controlled_const(circuit, RotationGate::Phase, *c, *t, angle)?
        }
        ("rxx", [a, b]) => push_two_const(circuit, TwoQubitRotationGate::Rxx, *a, *b, angle)?,
        ("ryy", [a, b]) => push_two_const(circuit, TwoQubitRotationGate::Ryy, *a, *b, angle)?,
        ("rzz", [a, b]) => push_two_const(circuit, TwoQubitRotationGate::Rzz, *a, *b, angle)?,
        _ => {
            return Err(ParseQasmError::UnsupportedGate {
                line,
                gate: name.to_string(),
            })
        }
    }
    Ok(())
}

/// Appends a controlled rotation with a bound angle (the builder only
/// offers the free-parameter form, so this goes through the op list).
fn push_controlled_const(
    circuit: &mut Circuit,
    gate: RotationGate,
    control: usize,
    target: usize,
    angle: f64,
) -> Result<(), SimError> {
    // Validate through the free-parameter path, then bind the angle.
    circuit.push_controlled_rotation(gate, control, target)?;
    circuit.bind_last_param(angle)?;
    Ok(())
}

fn push_two_const(
    circuit: &mut Circuit,
    gate: TwoQubitRotationGate,
    a: usize,
    b: usize,
    angle: f64,
) -> Result<(), SimError> {
    circuit.push_two_qubit_rotation(gate, a, b)?;
    circuit.bind_last_param(angle)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn export_contains_expected_lines() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap();
        c.rx(1).unwrap();
        c.cz(0, 2).unwrap();
        c.push_fixed(FixedGate::Swap, &[1, 2]).unwrap();
        let text = to_qasm(&c, &[1.25]).unwrap();
        assert!(text.starts_with("OPENQASM 2.0;"));
        assert!(text.contains("qreg q[3];"));
        assert!(text.contains("h q[0];"));
        assert!(text.contains("rx(1.25) q[1];"));
        assert!(text.contains("cz q[0],q[2];"));
        assert!(text.contains("swap q[1],q[2];"));
    }

    #[test]
    fn export_validates_params() {
        let mut c = Circuit::new(1).unwrap();
        c.rx(0).unwrap();
        assert!(to_qasm(&c, &[]).is_err());
    }

    #[test]
    fn parse_simple_program() {
        let text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.n_qubits(), 2);
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.n_params(), 0);
        let s = c.run(&[]).unwrap();
        assert!((s.probabilities()[0] - 0.5).abs() < 1e-12);
        assert!((s.probabilities()[3] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parse_handles_comments_and_pi() {
        let text = "OPENQASM 2.0;\nqreg q[1]; // one qubit\nrx(pi/2) q[0]; // quarter flip\nrz(0.5*pi) q[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.gate_count(), 2);
        // rx(π/2)|0⟩ has p1 = 1/2.
        let s = c.run(&[]).unwrap();
        assert!((s.probabilities()[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn roundtrip_preserves_semantics() {
        let mut c = Circuit::new(3).unwrap();
        c.h(0).unwrap();
        c.rx(1).unwrap().ry(2).unwrap().rz(0).unwrap();
        c.cz(0, 1).unwrap().cx(1, 2).unwrap();
        c.push_controlled_rotation(RotationGate::Ry, 0, 2).unwrap();
        c.rzz(0, 2).unwrap();
        c.push_fixed(FixedGate::Tdg, &[1]).unwrap();
        let params = [0.3, -1.1, 2.2, 0.9, -0.4];

        let text = to_qasm(&c, &params).unwrap();
        let back = from_qasm(&text).unwrap();
        assert_eq!(back.n_params(), 0);
        let s1 = c.run(&params).unwrap();
        let s2 = back.run(&[]).unwrap();
        assert!((s1.fidelity(&s2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn emit_parse_emit_is_a_fixed_point_on_random_circuits() {
        use crate::gate::TwoQubitRotationGate;
        use plateau_rng::check::{cases, forall_shrink, vec_of};
        use plateau_rng::{Rng, StdRng};

        #[derive(Debug, Clone)]
        enum QOp {
            Fixed(FixedGate, Vec<usize>),
            Rot(RotationGate, usize, f64),
            CRot(RotationGate, usize, usize, f64),
            TwoRot(TwoQubitRotationGate, usize, usize, f64),
        }

        fn build(n: usize, ops: &[QOp]) -> Circuit {
            let mut c = Circuit::new(n).unwrap();
            for op in ops {
                match op {
                    QOp::Fixed(g, qs) => {
                        c.push_fixed(*g, qs).unwrap();
                    }
                    QOp::Rot(g, q, t) => {
                        c.push_rotation_const(*g, *q, *t).unwrap();
                    }
                    QOp::CRot(g, ctl, tgt, t) => {
                        c.push_controlled_rotation(*g, *ctl, *tgt)
                            .unwrap()
                            .bind_last_param(*t)
                            .unwrap();
                    }
                    QOp::TwoRot(g, a, b, t) => {
                        c.push_two_qubit_rotation(*g, *a, *b)
                            .unwrap()
                            .bind_last_param(*t)
                            .unwrap();
                    }
                }
            }
            c
        }

        fn random_qop(rng: &mut StdRng, n: usize) -> QOp {
            const FIXED_1Q: [FixedGate; 9] = [
                FixedGate::X,
                FixedGate::Y,
                FixedGate::Z,
                FixedGate::H,
                FixedGate::S,
                FixedGate::Sdg,
                FixedGate::T,
                FixedGate::Tdg,
                FixedGate::Sx,
            ];
            const FIXED_2Q: [FixedGate; 4] =
                [FixedGate::Cz, FixedGate::Cx, FixedGate::Cy, FixedGate::Swap];
            const ROT: [RotationGate; 4] = [
                RotationGate::Rx,
                RotationGate::Ry,
                RotationGate::Rz,
                RotationGate::Phase,
            ];
            const TWO: [TwoQubitRotationGate; 3] = [
                TwoQubitRotationGate::Rxx,
                TwoQubitRotationGate::Ryy,
                TwoQubitRotationGate::Rzz,
            ];
            let pair = |rng: &mut StdRng| {
                let a = rng.gen_range(0..n);
                (a, (a + 1 + rng.gen_range(0..n - 1)) % n)
            };
            let angle = |rng: &mut StdRng| rng.gen_range(-4.0..4.0);
            match rng.gen_range(0..5usize) {
                0 => QOp::Fixed(FIXED_1Q[rng.gen_range(0..9usize)], vec![rng.gen_range(0..n)]),
                1 if n >= 2 => {
                    let (a, b) = pair(rng);
                    QOp::Fixed(FIXED_2Q[rng.gen_range(0..4usize)], vec![a, b])
                }
                2 => QOp::Rot(ROT[rng.gen_range(0..4usize)], rng.gen_range(0..n), angle(rng)),
                3 if n >= 2 => {
                    let (c, t) = pair(rng);
                    QOp::CRot(ROT[rng.gen_range(0..4usize)], c, t, angle(rng))
                }
                4 if n >= 2 => {
                    let (a, b) = pair(rng);
                    QOp::TwoRot(TWO[rng.gen_range(0..3usize)], a, b, angle(rng))
                }
                _ => QOp::Rot(ROT[rng.gen_range(0..4usize)], rng.gen_range(0..n), angle(rng)),
            }
        }

        forall_shrink(
            0x7161736d,
            cases(32),
            |rng| {
                let n = rng.gen_range(1..6usize);
                (n, vec_of(rng, 0..12, |rng| random_qop(rng, n)))
            },
            |(n, ops)| {
                (0..ops.len())
                    .map(|i| {
                        let mut fewer = ops.clone();
                        fewer.remove(i);
                        (*n, fewer)
                    })
                    .collect()
            },
            |(n, ops)| {
                let circuit = build(*n, ops);
                let text = to_qasm(&circuit, &[]).map_err(|e| format!("emit: {e}"))?;
                let parsed = from_qasm(&text).map_err(|e| format!("parse: {e}"))?;
                // Emit must be a fixed point of parse∘emit: f64 `Display`
                // produces the shortest exactly-round-tripping decimal, so
                // not even the angle text may change.
                let re_emitted = to_qasm(&parsed, &[]).map_err(|e| format!("re-emit: {e}"))?;
                plateau_rng::prop_assert!(
                    re_emitted == text,
                    "parse∘emit moved the text:\n--- first ---\n{text}\n--- second ---\n{re_emitted}"
                );
                // And the parsed circuit must simulate identically.
                let s1 = circuit.run(&[]).map_err(|e| format!("run original: {e}"))?;
                let s2 = parsed.run(&[]).map_err(|e| format!("run parsed: {e}"))?;
                plateau_rng::prop_assert!(
                    s1 == s2,
                    "re-simulation diverged after the QASM round trip"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn parse_error_cases() {
        assert_eq!(from_qasm("qreg q[2];").unwrap_err(), ParseQasmError::MissingHeader);
        assert_eq!(
            from_qasm("OPENQASM 2.0;\nh q[0];").unwrap_err(),
            ParseQasmError::MissingRegister
        );
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nmy_gate q[0];").unwrap_err(),
            ParseQasmError::UnsupportedGate { .. }
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\nqreg q[2];\nrx(oops) q[0];").unwrap_err(),
            ParseQasmError::BadLine { .. }
        ));
        assert!(matches!(
            from_qasm("OPENQASM 2.0;\nqreg q[2];\ncz q[0],q[5];").unwrap_err(),
            ParseQasmError::Circuit(_)
        ));
        assert!(!ParseQasmError::MissingHeader.to_string().is_empty());
    }

    #[test]
    fn parse_ignores_measure_and_barrier() {
        let text = "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[0];\nbarrier q;\nmeasure q[0] -> c[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.gate_count(), 1);
    }

    #[test]
    fn pi_shorthand_table() {
        assert_eq!(parse_angle("pi"), Some(PI));
        assert_eq!(parse_angle("-pi/2"), Some(-PI / 2.0));
        assert_eq!(parse_angle("0.25*pi"), Some(0.25 * PI));
        assert_eq!(parse_angle("1.5"), Some(1.5));
        assert_eq!(parse_angle("junk"), None);
    }
}
