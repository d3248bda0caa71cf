//! Extra experiment: the anytime property in numbers — closeness error and
//! top-k recall per RC step (monotone improvement; asserts monotonicity).

use aaa_bench::{experiments, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    experiments::anytime_quality(&args).emit(args.csv.as_ref());
    println!("\nError must decrease monotonically (asserted); recall reaches 1.0 at");
    println!("convergence — the §III anytime guarantee.");
}
