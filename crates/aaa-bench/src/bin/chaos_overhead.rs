//! Measures chaos-tolerance overhead: traffic, injected faults, repair
//! retransmissions, and simulated-time amplification while the supervised
//! loop converges the base graph under increasing seeded fault rates.

use aaa_bench::{experiments, CommonArgs};

fn main() {
    let args = CommonArgs::parse();
    experiments::chaos_overhead(&args).emit(args.csv.as_ref());
    println!("\nFaults stop at a finite superstep horizon (partial synchrony), so every");
    println!("row reconverges to the clean fixed point; the overhead column is the price");
    println!("of the retries, verification resends, and simulated backoff that got it");
    println!("there. Rate 0.00 doubles as the zero-cost check: its counters must be 0.");
}
