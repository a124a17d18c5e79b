//! The paper's headline quantitative claims, verified end-to-end on real
//! (scaled-down) workload traces. These are the acceptance tests of the
//! reproduction: each asserts a *shape* from the paper's evaluation
//! section, not an absolute number.

use dvp::core::{
    DelayedPredictor, FcmPredictor, FiniteFcmPredictor, FiniteHybridPredictor,
    FiniteStridePredictor, Interned, LastValuePredictor, Predictor, StridePredictor, TableSpec,
};
use dvp::engine::ReplayEngine;
use dvp::experiments::{accuracy, overlap, values, TraceStore};
use dvp::trace::InstrCategory;
use std::sync::OnceLock;

/// The shapes below need enough records for FCM warmup (~100k upward;
/// compare `repro figure3` with the quarter-scale `repro --quick figure3`),
/// so the cap stays at 200k even in debug builds — results are computed
/// once and shared across tests.
fn store() -> TraceStore {
    TraceStore::with_scale_div(1000).with_record_cap(200_000)
}

fn accuracy_results() -> &'static accuracy::AccuracyResults {
    static RESULTS: OnceLock<accuracy::AccuracyResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        accuracy::run(&mut store(), &ReplayEngine::new()).expect("accuracy experiment")
    })
}

fn overlap_results() -> &'static overlap::OverlapResults {
    static RESULTS: OnceLock<overlap::OverlapResults> = OnceLock::new();
    RESULTS.get_or_init(|| {
        overlap::run(&mut store(), &ReplayEngine::new()).expect("overlap experiment")
    })
}

#[test]
fn claim_predictor_family_ordering() {
    // "Last value prediction is less accurate than stride prediction, and
    //  stride prediction is less accurate than fcm prediction."
    let results = accuracy_results();
    let mean = |i| results.mean_accuracy(i, None);
    assert!(mean(0) < mean(1), "l {} < s2 {}", mean(0), mean(1));
    assert!(mean(1) < mean(4), "s2 {} < fcm3 {}", mean(1), mean(4));
    // "The higher the order, the higher the accuracy" (means, monotone up
    // to small noise).
    assert!(mean(2) <= mean(3) + 0.01 && mean(3) <= mean(4) + 0.01);
}

#[test]
fn claim_fcm_gain_concentrates_in_few_statics() {
    // "About 20% of the static instructions account for about 97% of the
    //  total improvement of fcm over stride."
    let results = overlap_results();
    let at20 = results.improvement_at_20pct();
    assert!(at20 > 70.0, "20% of improving statics should cover the bulk of the gain: {at20:.1}%");
}

#[test]
fn claim_last_value_adds_nothing_to_a_hybrid() {
    // "Stride and last value prediction capture less than 5% of the
    //  correct predictions that fcm misses... there is no point in adding
    //  last value prediction to a hybrid predictor."
    let results = overlap_results();
    let l_only = results.mean_subset_fraction(None, 0b001);
    let ls_only = results.mean_subset_fraction(None, 0b011);
    assert!(
        l_only + ls_only < 0.10,
        "last-value-beyond-fcm should be small: {:.1}%",
        100.0 * (l_only + ls_only)
    );
}

#[test]
fn claim_most_statics_generate_few_values() {
    // ">50% of static instructions generate only one value" (we assert a
    // softer bound: the single-value bucket is the largest and most
    // dynamics come from low-value statics).
    let mut store = store();
    let results = values::run(&mut store).unwrap();
    let (static_hist, _) = results.histograms(None);
    let max_bucket = static_hist.iter().copied().max().unwrap();
    assert_eq!(static_hist[0], max_bucket, "single-value bucket should dominate: {static_hist:?}");
    assert!(results.dynamic_fraction_below(4096) > 0.85);
}

#[test]
fn claim_shifts_hardest_addsub_easier() {
    // "Load and shift instructions are more difficult to predict
    //  correctly, whereas add instructions are more predictable."
    let results = accuracy_results();
    let fcm3 = 4;
    let addsub = results.mean_accuracy(fcm3, Some(InstrCategory::AddSub));
    let loads = results.mean_accuracy(fcm3, Some(InstrCategory::Loads));
    assert!(addsub > loads, "AddSub {addsub} should beat Loads {loads}");
    // And stride only matches the instruction's functionality on AddSub:
    let s2 = 1;
    let s2_gap_addsub = results.mean_accuracy(s2, Some(InstrCategory::AddSub))
        - results.mean_accuracy(0, Some(InstrCategory::AddSub));
    let s2_gap_logic = results.mean_accuracy(s2, Some(InstrCategory::Logic))
        - results.mean_accuracy(0, Some(InstrCategory::Logic));
    assert!(
        s2_gap_addsub > s2_gap_logic,
        "stride's edge over last-value should be larger on AddSub \
         ({s2_gap_addsub:.3}) than on Logic ({s2_gap_logic:.3})"
    );
}

#[test]
fn claim_unbounded_tables_with_immediate_updates() {
    // Sanity of the methodology: predictors see each static instruction in
    // isolation (no aliasing) and are updated immediately — so feeding the
    // same trace twice must *improve or maintain* fcm accuracy (warm
    // tables), never degrade it.
    let mut store = store();
    let trace = store.trace(dvp::workloads::Benchmark::Perl).unwrap().to_vec();
    let mut fcm = Interned::new(FcmPredictor::new(2));
    let (first, n) = dvp::core::run_trace(&mut fcm, trace.iter());
    let (second, _) = dvp::core::run_trace(&mut fcm, trace.iter());
    assert!(second >= first, "warm tables {second} vs cold {first} over {n}");
}

#[test]
fn claim_hybrid_usefulness() {
    // Section 4.2's conclusion: a stride+fcm hybrid approaches fcm where
    // fcm wins and stride where stride wins.
    let mut store = store();
    let trace = store.trace(dvp::workloads::Benchmark::M88k).unwrap().to_vec();
    let acc = |p: Box<dyn Predictor>| {
        let (c, t) = dvp::core::run_trace(&mut Interned::new(p), trace.iter());
        c as f64 / t as f64
    };
    let s2 = acc(Box::new(StridePredictor::two_delta()));
    let fcm = acc(Box::new(FcmPredictor::new(3)));
    let l = acc(Box::new(LastValuePredictor::new()));
    let hybrid = acc(Box::new(dvp::core::HybridPredictor::stride_fcm(3)));
    assert!(hybrid >= s2.max(l), "hybrid {hybrid} >= components' floor");
    assert!(hybrid >= fcm - 0.05, "hybrid {hybrid} close to fcm {fcm}");
}

#[test]
fn claim_hybrid_gives_high_accuracy_at_lower_cost() {
    // Section 4.2, the cost half of the argument: "a hybrid scheme might be
    // useful for enabling high prediction accuracies at lower cost". With
    // every table finite, the stride+fcm hybrid must beat a pure context
    // predictor of comparable storage.
    let mut store = store();
    let trace = store.trace(dvp::workloads::Benchmark::Cc).unwrap().to_vec();
    let acc = |p: Box<dyn Predictor>| {
        let (c, t) = dvp::core::run_trace(&mut Interned::new(p), trace.iter());
        c as f64 / t as f64
    };
    let hybrid = FiniteHybridPredictor::paper_geometry(10);
    let fcm = FiniteFcmPredictor::new(2, TableSpec::new(10), TableSpec::new(14));
    // Comparable budgets: the hybrid adds a stride table + chooser, well
    // under a doubling.
    assert!(hybrid.storage_bits() < 2 * fcm.storage_bits());
    let hybrid_acc = acc(Box::new(hybrid));
    let fcm_acc = acc(Box::new(fcm));
    assert!(
        hybrid_acc > fcm_acc + 0.02,
        "finite hybrid {hybrid_acc:.3} should clearly beat finite fcm {fcm_acc:.3}"
    );
}

#[test]
fn claim_idealized_results_are_upper_bounds() {
    // Section 3: "these results can best be viewed as bounds on
    // performance". Both idealizations (unbounded tables, immediate update)
    // must dominate their realizable counterparts on the same trace.
    let mut store = store();
    let trace = store.trace(dvp::workloads::Benchmark::Go).unwrap().to_vec();
    let acc = |p: Box<dyn Predictor>| {
        let (c, t) = dvp::core::run_trace(&mut Interned::new(p), trace.iter());
        c as f64 / t as f64
    };
    let unbounded_s2 = acc(Box::new(StridePredictor::two_delta()));
    let tiny_s2 = acc(Box::new(FiniteStridePredictor::new(TableSpec::new(5))));
    assert!(
        unbounded_s2 > tiny_s2,
        "unbounded {unbounded_s2:.3} must bound a 32-entry table {tiny_s2:.3}"
    );

    let immediate = acc(Box::new(FcmPredictor::new(2)));
    let delayed = acc(Box::new(DelayedPredictor::new(FcmPredictor::new(2), 64)));
    assert!(
        immediate >= delayed,
        "immediate update {immediate:.3} must bound delay-64 {delayed:.3}"
    );
}
