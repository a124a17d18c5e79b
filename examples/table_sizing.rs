//! Size a realizable value predictor: sweep finite (direct-mapped) table
//! geometries against the paper's unbounded idealization and report the
//! accuracy each hardware budget buys.
//!
//! The paper (Section 4.3) deliberately ignores cost — "predictor costs are
//! ignored in order to more clearly understand limits of data
//! predictability" — and notes that fixed tables would introduce aliasing.
//! This example is the engineering follow-up: for one benchmark, it prints
//! accuracy and storage for a range of table sizes, tagged and untagged, so
//! the knee of the size/accuracy curve is visible.
//!
//! Run with: `cargo run --release --example table_sizing [benchmark]`

use dvp_core::{
    FcmPredictor, FiniteFcmPredictor, FiniteHybridPredictor, FiniteLastValuePredictor,
    FiniteStridePredictor, Interned, Predictor, StridePredictor, TableSpec,
};
use dvp_lang::OptLevel;
use dvp_trace::TraceRecord;
use dvp_workloads::{Benchmark, Workload};

fn accuracy(p: impl Predictor, trace: &[TraceRecord]) -> f64 {
    let (correct, total) = dvp_core::run_trace(&mut Interned::new(p), trace.iter());
    100.0 * correct as f64 / total.max(1) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = match std::env::args().nth(1) {
        None => Benchmark::Cc,
        Some(name) => Benchmark::ALL
            .into_iter()
            .find(|b| b.name() == name)
            .ok_or_else(|| format!("unknown benchmark `{name}` (try: cc, go, perl, ...)"))?,
    };
    let workload = Workload::reference(benchmark).with_scale(1);
    let trace = workload.trace(OptLevel::O1, 200_000_000)?;
    println!("table sizing on `{}` ({} predicted instructions)\n", benchmark.name(), trace.len());

    println!(
        "{:>8} {:>9} {:>9} {:>9} {:>9} {:>10} {:>9} {:>8} {:>8}",
        "entries", "l%", "l-tag%", "s2%", "s2-tag%", "fcm2%", "fcm2-KiB", "hyb%", "hyb-KiB"
    );
    for bits in [4u32, 6, 8, 10, 12, 14] {
        let untagged = TableSpec::new(bits);
        let tagged = TableSpec::new(bits).with_tag_bits(8);
        let f = FiniteFcmPredictor::new(2, untagged, TableSpec::new(bits + 4));
        let h = FiniteHybridPredictor::paper_geometry(bits);
        let fcm_kib = f.storage_bits() / 8 / 1024;
        let hybrid_kib = h.storage_bits() / 8 / 1024;
        println!(
            "{:>8} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>10.1} {:>9} {:>8.1} {:>8}",
            1u64 << bits,
            accuracy(FiniteLastValuePredictor::new(untagged), &trace),
            accuracy(FiniteLastValuePredictor::new(tagged), &trace),
            accuracy(FiniteStridePredictor::new(untagged), &trace),
            accuracy(FiniteStridePredictor::new(tagged), &trace),
            accuracy(f, &trace),
            fcm_kib,
            accuracy(h, &trace),
            hybrid_kib,
        );
    }
    println!(
        "{:>8} {:>9} {:>9} {:>9.1} {:>9} {:>10.1} {:>9} {:>8} {:>8}",
        "unbound",
        "-",
        "-",
        accuracy(StridePredictor::two_delta(), &trace),
        "-",
        accuracy(FcmPredictor::new(2), &trace),
        "-",
        "-",
        "-"
    );
    println!(
        "\nTags stop cross-instruction mispredictions (a mismatch predicts nothing\n\
         instead of predicting the aliasing instruction's value) but do not stop\n\
         eviction thrash; both effects shrink as the table grows toward one slot\n\
         per static instruction — the paper's idealization."
    );
    Ok(())
}
