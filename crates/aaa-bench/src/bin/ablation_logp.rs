//! Ablation: LogP network parameters, exchange schedule (the paper's
//! serialized all-to-all vs pairwise rounds) and message cap M.

use aaa_bench::{experiments, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    experiments::ablation_logp(&args).emit(args.csv.as_ref());
}
