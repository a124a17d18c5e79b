//! Cross-crate integration for the realizability extensions: source text →
//! compiler → simulator → trace → finite/delayed predictors and the
//! information-theoretic profiles, all through the `dvp` facade.

use dvp::asm::assemble;
use dvp::core::{
    DelayedPredictor, EntropyProfile, FcmPredictor, FiniteFcmPredictor, FiniteLastValuePredictor,
    FiniteStridePredictor, Interned, LastValuePredictor, LocalityProfile, Predictor,
    StridePredictor, TableSpec,
};
use dvp::engine::{ReplayEngine, SharedTrace};
use dvp::lang::{compile, OptLevel};
use dvp::sim::Machine;
use dvp::trace::TraceRecord;

/// A program mixing a hash-table walk (repeated non-strides), induction
/// variables (strides), and accumulators — enough value-sequence variety to
/// exercise every predictor family.
const PROGRAM: &str = "
int keys[8] = {3, 141, 59, 26, 5, 35, 89, 79};
int table[16];
int main() {
    for (int round = 0; round < 40; round = round + 1) {
        for (int i = 0; i < 8; i = i + 1) {
            int h = (keys[i] * 7 + round) % 16;
            table[h] = table[h] + keys[i];
        }
    }
    int sum = 0;
    for (int i = 0; i < 16; i = i + 1) {
        sum = sum + table[i];
    }
    print_int(sum);
    return 0;
}
";

fn trace() -> Vec<TraceRecord> {
    let asm = compile(PROGRAM, OptLevel::O1).expect("compiles");
    let image = assemble(&asm).expect("assembles");
    let mut machine = Machine::load(&image);
    let trace = machine.collect_trace(10_000_000).expect("runs");
    assert!(machine.halted());
    trace
}

fn accuracy(p: impl Predictor, trace: &[TraceRecord]) -> f64 {
    let (correct, total) = dvp::core::run_trace(&mut Interned::new(p), trace.iter());
    correct as f64 / total.max(1) as f64
}

#[test]
fn large_finite_tables_recover_the_idealized_accuracy() {
    let trace = trace();
    assert!(trace.len() > 2000);
    // This program has well under 2^12 static instructions; a large tagged
    // table has no aliasing and must match the unbounded predictors almost
    // exactly (the fold keeps distinct PCs in distinct slots; identical
    // accuracy is not guaranteed, closeness is).
    let spec = TableSpec::new(12).with_tag_bits(16);
    let fin_l = accuracy(FiniteLastValuePredictor::new(spec), &trace);
    let ub_l = accuracy(LastValuePredictor::new(), &trace);
    assert!((fin_l - ub_l).abs() < 0.01, "finite l {fin_l} vs unbounded {ub_l}");

    let fin_s = accuracy(FiniteStridePredictor::new(spec), &trace);
    let ub_s = accuracy(StridePredictor::two_delta(), &trace);
    assert!((fin_s - ub_s).abs() < 0.01, "finite s2 {fin_s} vs unbounded {ub_s}");
}

#[test]
fn tiny_tables_alias_and_lose_accuracy() {
    let trace = trace();
    let tiny = accuracy(FiniteStridePredictor::new(TableSpec::new(3)), &trace);
    let large = accuracy(FiniteStridePredictor::new(TableSpec::new(12)), &trace);
    assert!(
        tiny < large - 0.10,
        "an 8-slot table must visibly alias: tiny {tiny} vs large {large}"
    );
}

#[test]
fn finite_fcm_predicts_the_hash_walk() {
    let trace = trace();
    let fcm = FiniteFcmPredictor::new(2, TableSpec::new(10), TableSpec::new(14));
    assert!(fcm.storage_bits() > 0);
    let acc = accuracy(fcm, &trace);
    assert!(acc > 0.40, "two-level fcm accuracy {acc}");
}

#[test]
fn update_delay_degrades_gracefully_on_real_traces() {
    let trace = trace();
    let immediate = accuracy(DelayedPredictor::new(FcmPredictor::new(2), 0), &trace);
    let direct = accuracy(FcmPredictor::new(2), &trace);
    assert!((immediate - direct).abs() < 1e-12, "delay 0 must be transparent");

    let delayed = accuracy(DelayedPredictor::new(FcmPredictor::new(2), 64), &trace);
    assert!(delayed <= immediate, "delay cannot help fcm: {delayed} vs {immediate}");
}

#[test]
fn depth1_locality_equals_last_value_accuracy_on_real_traces() {
    let trace = trace();
    let shared = SharedTrace::from_records(trace.clone());
    let profile = ReplayEngine::sequential().observe(&shared, || LocalityProfile::new(16));
    let lvp = accuracy(LastValuePredictor::new(), &trace);
    assert!((profile.locality(1, None) - lvp).abs() < 1e-12);
    // And deeper history exposes strictly more locality on this workload
    // (the hash-table cells rotate among a few values).
    assert!(profile.locality(16, None) > profile.locality(1, None) + 0.02);
}

#[test]
fn entropy_profile_flags_induction_variables_as_high_entropy() {
    let shared = SharedTrace::from_records(trace());
    let profile = ReplayEngine::sequential().observe(&shared, EntropyProfile::new);
    assert!(profile.static_count() > 10);
    // The dynamic mean must be positive (value streams carry information)
    // and bounded by the trace's raw information content.
    let h = profile.dynamic_mean_entropy();
    assert!(h > 0.0 && h < 64.0, "dynamic mean entropy {h}");
    // At least one static instruction is constant-valued (entropy 0):
    // address bases, loop bounds.
    let (static_hist, _) = profile.histograms(None);
    assert!(static_hist[0] > 0, "no zero-entropy statics? {static_hist:?}");
    // And at least one generates >2 bits (the round-dependent hash values).
    let high: u64 = static_hist[4..].iter().sum();
    assert!(high > 0, "no high-entropy statics? {static_hist:?}");
}
