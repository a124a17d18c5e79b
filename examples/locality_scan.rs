//! Measure the two information-theoretic quantities behind the paper's
//! framing: value locality by history depth (Lipasti et al., discussed in
//! Section 1.2) and value-stream entropy (Hammerstrom's redundancy
//! argument), side by side for every benchmark.
//!
//! Depth-1 locality upper-bounds last-value prediction; the depth-16 column
//! shows the headroom that context-based prediction exists to capture; the
//! entropy columns show how much raw information each benchmark's value
//! stream carries (lower = more redundant = more predictable).
//!
//! Run with: `cargo run --release --example locality_scan`

use dvp_core::{EntropyProfile, Interned, LastValuePredictor, LocalityProfile};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_workloads::{Benchmark, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>8} {:>9} {:>9}",
        "benchmark", "d1%", "d4%", "d16%", "lvp%", "H-static", "H-dynamic"
    );
    for benchmark in Benchmark::ALL {
        let workload = Workload::reference(benchmark).with_scale(1);
        let trace = workload.trace(OptLevel::O1, 200_000_000)?;

        let mut lvp = Interned::new(LastValuePredictor::new());
        let (lvp_correct, _) = dvp_core::run_trace(&mut lvp, trace.iter());
        let shared = SharedTrace::from_records(trace);
        let engine = ReplayEngine::new();
        let locality = engine.observe(&shared, || LocalityProfile::new(16));
        let entropy = engine.observe(&shared, EntropyProfile::new);

        println!(
            "{:<10} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>9.2} {:>9.2}",
            benchmark.name(),
            100.0 * locality.locality(1, None),
            100.0 * locality.locality(4, None),
            100.0 * locality.locality(16, None),
            100.0 * lvp_correct as f64 / shared.len().max(1) as f64,
            entropy.static_mean_entropy(),
            entropy.dynamic_mean_entropy(),
        );
    }
    println!(
        "\nd1/d4/d16 = value locality at history depths 1/4/16; lvp = last-value\n\
         prediction accuracy (bounded above by d1). H = mean Shannon entropy of\n\
         per-instruction value streams in bits, unweighted over statics and\n\
         weighted by execution count."
    );
    Ok(())
}
