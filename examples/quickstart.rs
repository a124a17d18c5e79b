//! Quickstart: predict the values of a short synthetic sequence with every
//! predictor family from the paper, then do the same for a real compiled
//! workload.
//!
//! Run with: `cargo run --release --example quickstart`

use dvp_core::{
    FcmPredictor, HybridPredictor, Interned, LastValuePredictor, Predictor, StridePredictor,
};
use dvp_lang::OptLevel;
use dvp_trace::Pc;
use dvp_workloads::{Benchmark, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- Part 1: the Section 1.1 sequence classes -------------------
    //
    // A repeated non-stride sequence: computational predictors cannot
    // learn it, context-based prediction can.
    let sequence: Vec<u64> = [3u64, 17, 8, 42].iter().copied().cycle().take(40).collect();
    let pc = Pc(0x0040_0100);

    let predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(LastValuePredictor::new()),
        Box::new(StridePredictor::two_delta()),
        Box::new(FcmPredictor::new(2)),
        Box::new(HybridPredictor::stride_fcm(2)),
    ];
    println!("repeated non-stride sequence {:?} x10:", &sequence[..4]);
    for p in predictors {
        let mut p = Interned::new(p);
        let correct = sequence.iter().filter(|&&v| p.observe(pc, v)).count();
        println!("  {:<16} {:>2}/{} correct", p.name(), correct, sequence.len());
    }

    // ----- Part 2: a compiled workload ---------------------------------
    //
    // Build the xlisp-like benchmark (recursive N-queens over a cons
    // heap), trace it with the simulator, and measure the paper's
    // predictors on the real value stream.
    let workload = Workload::reference(Benchmark::Xlisp).with_scale(1);
    let trace = workload.trace(OptLevel::O1, 100_000_000)?;
    println!("\nworkload `{}` ({} predicted instructions):", workload.benchmark(), trace.len());

    let predictors: Vec<Box<dyn Predictor>> = vec![
        Box::new(LastValuePredictor::new()),
        Box::new(StridePredictor::two_delta()),
        Box::new(FcmPredictor::new(3)),
    ];
    for p in predictors {
        let mut p = Interned::new(p);
        let (correct, total) = dvp_core::run_trace(&mut p, trace.iter());
        println!("  {:<8} {:>5.1}% accurate", p.name(), 100.0 * correct as f64 / total as f64);
    }
    println!("\n(the paper's Figure 3 reports this ordering: last value < stride < fcm)");
    Ok(())
}
