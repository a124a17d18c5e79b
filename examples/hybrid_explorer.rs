//! Explore the hybrid predictor the paper motivates in Section 4.2: how
//! close does a stride+fcm hybrid with a per-PC chooser get to the union of
//! its components ("use a stride predictor for most predictions, and use
//! fcm prediction to get the remaining 20%")?
//!
//! Run with: `cargo run --release --example hybrid_explorer`

use dvp_core::{HybridPredictor, Interned, PredictorConfig};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_workloads::{Benchmark, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The hybrid's two components: bit 0 = two-delta stride, bit 1 = fcm3.
    let paper = PredictorConfig::paper_bank();
    let components = [paper[1].clone(), paper[4].clone()];
    println!(
        "{:<10} {:>7} {:>7} {:>7} {:>8} {:>7}",
        "benchmark", "s2%", "fcm3%", "hybrid%", "union%", "chooser"
    );
    for benchmark in Benchmark::ALL {
        let workload = Workload::reference(benchmark).with_scale(1);
        let trace = workload.trace(OptLevel::O1, 200_000_000)?;

        // Union of correct sets via the correlated replay.
        let shared = SharedTrace::from_records(trace.clone());
        let correlation = ReplayEngine::sequential().correlate(&shared, &components);
        let total = correlation.total() as f64;
        let s2 = correlation.accuracy(0) * 100.0;
        let fcm = correlation.accuracy(1) * 100.0;
        let union = (total - correlation.subset_count(None, 0b00) as f64) / total * 100.0;

        let mut hybrid = Interned::new(HybridPredictor::stride_fcm(3));
        let (correct, _) = dvp_core::run_trace(&mut hybrid, trace.iter());
        let hybrid_acc = correct as f64 / total * 100.0;

        println!(
            "{:<10} {:>7.1} {:>7.1} {:>7.1} {:>8.1} {:>6.1}%",
            benchmark.name(),
            s2,
            fcm,
            hybrid_acc,
            union,
            // How much of the oracle-union headroom the chooser recovers.
            100.0 * (hybrid_acc - s2.max(fcm)).max(0.0) / (union - s2.max(fcm)).max(0.001),
        );
    }
    println!(
        "\n`union%` is the oracle upper bound (either component correct); the chooser\n\
         column shows how much of the gap between the best component and the oracle\n\
         the per-PC chooser actually recovers."
    );
    Ok(())
}
