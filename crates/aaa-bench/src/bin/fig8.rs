//! Reproduces Figure 8: incremental vertex additions spread over 10 RC
//! steps at four rates — Baseline Restart vs the three strategies.

use aaa_bench::{experiments, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    experiments::fig8(&args).emit(args.csv.as_ref());
    println!("\nExpected shape (paper): baseline restart is far above everything;");
    println!("RoundRobin-PS/CutEdge-PS win at low rates; Repartition-S becomes");
    println!("competitive at the highest rate.");
}
