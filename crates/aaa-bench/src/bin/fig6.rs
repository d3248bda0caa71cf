//! Reproduces Figure 6: vertex additions at recombination step 8 (RC8) —
//! the late-injection variant of Figure 5.

use aaa_bench::{experiments, observe, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("fig6", &args, observe::observed_run);
    experiments::single_step_additions(&args, 8).emit(args.csv.as_ref());
    println!("\nExpected shape (paper): same ordering as Figure 5 — the incremental");
    println!("strategies win small batches, Repartition-S wins large ones.");
}
