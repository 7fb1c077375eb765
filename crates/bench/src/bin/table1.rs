//! Table 1: the test problems — paper metadata and the synthetic
//! analogues actually factorized in this reproduction.

use mf_sparse::gen::paper::ALL_PAPER_MATRICES;
use mf_sparse::stats::matrix_stats;

fn main() {
    mf_bench::obs::reject_args();
    println!("Table 1: test problems (paper instance -> synthetic analogue)");
    println!(
        "{:12} {:>9} {:>10} {:4}  {:>8} {:>9} {:>7} {:>5}  Description",
        "Matrix", "Order", "NZ", "Type", "order*", "nz*", "nnz/n*", "sym*"
    );
    for m in ALL_PAPER_MATRICES {
        let a = m.instantiate();
        let st = matrix_stats(&a);
        println!(
            "{:12} {:>9} {:>10} {:4}  {:>8} {:>9} {:>7.1} {:>4.0}%  {}",
            m.name(),
            m.paper_order(),
            m.paper_nnz(),
            m.symmetry().tag(),
            a.nrows(),
            a.nnz(),
            st.avg_row_nnz,
            100.0 * st.structural_symmetry,
            m.description(),
        );
    }
    println!("\n(*) reproduction-scale analogue generated by mf-sparse::gen");
}
