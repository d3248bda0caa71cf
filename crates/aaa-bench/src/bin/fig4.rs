//! Reproduces Figure 4: Baseline Restart vs. Anytime Anywhere
//! (RoundRobin-PS) for 512 (scaled) vertex additions injected at RC0, RC4
//! and RC8.

use aaa_bench::{experiments, observe, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("fig4", &args, observe::observed_run);
    experiments::fig4(&args).emit(args.csv.as_ref());
    println!("\nExpected shape (paper): anytime anywhere is several times cheaper than");
    println!("the restart baseline at every injection point; the baseline is flat in");
    println!("the injection step while the anytime cost grows mildly with later steps.");
}
