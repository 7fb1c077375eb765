//! Drop-in real matrices: write a generated problem as a Matrix Market
//! file, read it back, and run the full pipeline on it. Pass any `.mtx`
//! file (or a Rutherford-Boeing / SuiteSparse instance) as the argument
//! to reproduce the paper's experiments on the original data.
//!
//! Run with: `cargo run --release --example matrix_market`
//! or:       `cargo run --release --example matrix_market -- /path/to/twotone.mtx`

use multifrontal::prelude::*;
use multifrontal::sparse::hb::read_harwell_boeing_file;
use multifrontal::sparse::io::{read_matrix_market_file, write_matrix_market};

fn main() {
    let a = match std::env::args().nth(1) {
        Some(path) => {
            println!("reading {path} ...");
            let p = std::path::Path::new(&path);
            let ext = p.extension().and_then(|e| e.to_str()).unwrap_or("").to_ascii_lowercase();
            if matches!(ext.as_str(), "rb" | "hb" | "rua" | "rsa" | "pua" | "psa") {
                // The Rutherford-Boeing distribution format of the paper's
                // original matrices.
                read_harwell_boeing_file(p).expect("readable Harwell-Boeing file")
            } else {
                read_matrix_market_file(p).expect("readable Matrix Market file")
            }
        }
        None => {
            // No file supplied: round-trip a generated instance through the
            // Matrix Market format to demonstrate the I/O path.
            let a = PaperMatrix::Xenon2.instantiate_scaled(0.3);
            let path = std::env::temp_dir().join("mf_xenon2_demo.mtx");
            let mut f = std::fs::File::create(&path).unwrap();
            write_matrix_market(&mut f, &a).unwrap();
            println!(
                "wrote demo instance to {} ({} bytes)",
                path.display(),
                std::fs::metadata(&path).unwrap().len()
            );
            read_matrix_market_file(&path).unwrap()
        }
    };
    println!("matrix: {} x {}, {} nonzeros, {}", a.nrows(), a.ncols(), a.nnz(), a.symmetry().tag());

    for kind in ALL_ORDERINGS {
        let input = ExperimentInput { matrix: &a, ordering: kind };
        let base = run_experiment(
            &input,
            &SolverConfig {
                type2_front_min: 150,
                type3_front_min: 500,
                ..SolverConfig::mumps_baseline(8)
            },
        )
        .unwrap();
        let mem = run_experiment(
            &input,
            &SolverConfig {
                type2_front_min: 150,
                type3_front_min: 500,
                ..SolverConfig::memory_based(8)
            },
        )
        .unwrap();
        println!(
            "  {:5}: max stack peak {:>9} -> {:>9} ({:+.1}%)",
            kind.name(),
            base.max_peak,
            mem.max_peak,
            multifrontal::core::driver::percent_decrease(base.max_peak, mem.max_peak)
        );
    }
}
