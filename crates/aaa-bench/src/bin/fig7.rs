//! Reproduces Figure 7: number of new cut-edges created by each strategy.
//! Pure partition-level measurement, so it defaults to the paper's full
//! 50,000-vertex scale.

use aaa_bench::{experiments, observe, CommonArgs};

fn main() {
    let mut args = CommonArgs::parse();
    // No DV state needed: default to the paper's full scale unless the user
    // explicitly passed --scale.
    if args.scale == CommonArgs::default().scale && !std::env::args().any(|a| a == "--scale") {
        args.scale = 50_000;
    }
    observe::maybe_observe("fig7", &args, observe::observed_run);
    experiments::fig7(&args).emit(args.csv.as_ref());
    println!("\nExpected shape (paper): Repartition-S < CutEdge-PS < RoundRobin-PS in");
    println!("new cut-edges, with the gap growing with the batch size.");
}
