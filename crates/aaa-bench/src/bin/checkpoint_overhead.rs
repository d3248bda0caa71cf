//! Measures anytime-persistence overhead at `--scale`/4, `--scale`/2 and
//! `--scale` vertices: snapshot size, and the four stages of a checkpoint →
//! restore round trip timed apart — snapshot (arena → row tables), encode
//! and decode (with MB/s), install (row tables → a rebuilt engine).

use aaa_bench::{experiments, observe, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    observe::maybe_observe("checkpoint_overhead", &args, observe::observed_run);
    experiments::checkpoint_overhead(&args).emit(args.csv.as_ref());
    println!("\nSnapshot size is dominated by the per-rank DV rows (Θ(n²/P) distances");
    println!("per rank at convergence), so bytes grow quadratically with the vertex");
    println!("count while every stage stays linear in bytes: checkpoint = snapshot +");
    println!("encode, restore = decode + install.");
}
