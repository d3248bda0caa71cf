//! Ablation: how the DD-phase partitioner affects cut size, convergence
//! steps and simulated time (why the paper uses METIS-family partitioning).

use aaa_bench::{experiments, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    experiments::ablation_partitioner(&args).emit(args.csv.as_ref());
}
