//! Reproduces Figure 5: vertex additions at recombination step 0 (RC0) —
//! Repartition-S vs CutEdge-PS vs RoundRobin-PS across batch sizes.

use aaa_bench::{experiments, observe, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("fig5", &args, observe::observed_run);
    experiments::single_step_additions(&args, 0).emit(args.csv.as_ref());
    println!("\nExpected shape (paper): RoundRobin-PS/CutEdge-PS win for small batches;");
    println!("Repartition-S overtakes them as the batch grows (crossover).");
}
