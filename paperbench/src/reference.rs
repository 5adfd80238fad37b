//! Correctness references, recorded with `--print-reference` on the commit
//! that introduced this benchmark. A run recomputes them at [`SEED`] and
//! fails a check on any relative difference above 1e-9.

use plateau_core::init::InitStrategy;

/// The reference seed (the program's default variance-scan seed).
pub const SEED: u64 = 0x706c_6174;

/// Fig 5a cell variances at q = 10, in `InitStrategy::PAPER_SET` order.
pub const FIG5A_Q10: [f64; 6] = [
    3.381770050042237e-7,
    8.144491350787568e-4,
    1.0104211327730051e-3,
    1.719366297511335e-6,
    9.310302036387185e-6,
    3.59687524370061e-5,
];

/// Fig 5a cell variances at q = 4.
pub const FIG5A_Q4: [f64; 6] = [
    1.5237651674639377e-3,
    8.281588192050453e-3,
    8.919247769627608e-3,
    1.2454848488451826e-3,
    9.296321902767509e-4,
    9.080013011509986e-4,
];

/// §IV-D final losses after 50 adjoint-trained Adam iterations.
pub const TRAIN_FINAL_LOSS: [f64; 6] = [
    2.946112912411647e-3,
    1.4981958645376992e-3,
    1.6217803197523528e-3,
    1.0945048544414027e-3,
    1.1338448534926604e-3,
    1.6612308635390871e-3,
];

/// Recomputes and prints every reference as Rust source.
pub fn print() {
    let names: Vec<&str> = InitStrategy::PAPER_SET.iter().map(|s| s.name()).collect();
    println!("// strategies: {names:?}");
    for (label, q) in [
        ("FIG5A_Q10", crate::fig5a::QUBITS),
        ("FIG5A_Q4", crate::fig5a::ALT_QUBITS),
    ] {
        let values: Vec<String> = InitStrategy::PAPER_SET
            .iter()
            .map(|&s| format!("{:e}", crate::fig5a::cell(q, SEED, s).variance))
            .collect();
        println!("pub const {label}: [f64; 6] = [{}];", values.join(", "));
    }
    let losses: Vec<String> = (0..InitStrategy::PAPER_SET.len())
        .map(|k| format!("{:e}", crate::train::reference_loss(SEED, k)))
        .collect();
    println!(
        "pub const TRAIN_FINAL_LOSS: [f64; 6] = [{}];",
        losses.join(", ")
    );
}
