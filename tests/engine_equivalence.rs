//! The replay engine's core guarantee, verified end-to-end on real
//! workload traces: sharded replay produces *identical* numbers — and
//! therefore byte-identical rendered tables — at any worker count, equal
//! to one unpartitioned pass over the trace.

use dvp::core::{
    AccuracyTracker, EntropyProfile, HybridPredictor, LocalityProfile, Predictor, PredictorConfig,
    ValueProfile,
};
use dvp::engine::{ReplayEngine, SharedTrace};
use dvp::experiments::TraceStore;
use dvp::trace::{InstrCategory, Observer, Pc, TraceSummary};
use dvp::workloads::Benchmark;
use std::sync::OnceLock;

fn trace() -> &'static SharedTrace {
    static TRACE: OnceLock<SharedTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut store = TraceStore::with_scale_div(1000).with_record_cap(60_000);
        store.trace(Benchmark::Cc).expect("workload runs")
    })
}

#[test]
fn engine_replay_equals_sequential_lockstep_on_real_trace() {
    let trace = trace();
    let bank = PredictorConfig::paper_bank();

    // The pre-engine sequential loop: all predictors in lockstep.
    let mut predictors: Vec<Box<dyn Predictor>> = bank.iter().map(PredictorConfig::build).collect();
    let mut trackers = vec![AccuracyTracker::new(); predictors.len()];
    for (rec, id) in trace.iter_with_ids() {
        for (p, tracker) in predictors.iter_mut().zip(&mut trackers) {
            tracker.record(rec.category, p.step(id, rec.pc, rec.value) == Some(rec.value));
        }
    }

    for workers in [1, 3, 4] {
        let replays = ReplayEngine::new().with_workers(workers).replay(trace, &bank);
        for (replay, tracker) in replays.iter().zip(&trackers) {
            for category in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                assert_eq!(
                    replay.tracker.correct(category),
                    tracker.correct(category),
                    "workers={workers} {} {category:?}",
                    replay.name
                );
                assert_eq!(replay.tracker.predicted(category), tracker.predicted(category));
            }
        }
    }
}

#[test]
fn correlated_replay_equals_sequential_trio_on_real_trace() {
    let trace = trace();
    let paper = PredictorConfig::paper_bank();
    let trio = [paper[0].clone(), paper[1].clone(), paper[4].clone()];

    // The pre-engine lockstep loop: per record, the trio's correct-set
    // mask, counted per category and per PC in first-appearance order.
    let mut predictors: Vec<Box<dyn Predictor>> = trio.iter().map(PredictorConfig::build).collect();
    let mut subsets = vec![[0u64; 8]; InstrCategory::ALL.len()];
    let mut per_pc: Vec<(Pc, u64, [u64; 3], InstrCategory)> = Vec::new();
    for (rec, id) in trace.iter_with_ids() {
        let mut mask = 0;
        for (bit, p) in predictors.iter_mut().enumerate() {
            mask |= usize::from(p.step(id, rec.pc, rec.value) == Some(rec.value)) << bit;
        }
        subsets[rec.category.index()][mask] += 1;
        if id.index() == per_pc.len() {
            per_pc.push((rec.pc, 0, [0; 3], rec.category));
        }
        let (_, total, correct, _) = &mut per_pc[id.index()];
        *total += 1;
        for (bit, c) in correct.iter_mut().enumerate() {
            *c += (mask >> bit & 1) as u64;
        }
    }

    for workers in [1, 2, 4] {
        let merged = ReplayEngine::new().with_workers(workers).correlate(trace, &trio);
        assert_eq!(merged.total(), trace.len() as u64);
        for mask in 0..8 {
            for category in InstrCategory::ALL {
                assert_eq!(
                    merged.subset_count(Some(category), mask as u32),
                    subsets[category.index()][mask],
                    "workers={workers} mask={mask:03b} {category:?}"
                );
            }
            let all: u64 = subsets.iter().map(|row| row[mask]).sum();
            assert_eq!(merged.subset_count(None, mask as u32), all, "workers={workers}");
        }
        let got: Vec<_> = merged
            .per_pc_tallies()
            .iter()
            .map(|(pc, t)| {
                let correct: [u64; 3] = t.correct.as_slice().try_into().expect("three configs");
                (*pc, t.total, correct, t.category.expect("categorized"))
            })
            .collect();
        assert_eq!(got, per_pc, "workers={workers}");
    }
}

/// Folds the whole trace through `observer` in one batch: one pass, no
/// partition.
fn one_pass<O: Observer>(trace: &SharedTrace, mut observer: O) -> O {
    let (mut ids, mut pcs, mut values, mut categories) = (vec![], vec![], vec![], vec![]);
    for (r, id) in trace.iter_with_ids() {
        ids.push(id);
        pcs.push(r.pc);
        values.push(r.value);
        categories.push(r.category);
    }
    observer.observe_batch(&ids, &pcs, &values, &categories);
    observer
}

#[test]
fn profile_folds_equal_one_pass_on_real_trace() {
    let trace = trace();
    let categories = || InstrCategory::ALL.into_iter().map(Some).chain([None]);
    let entropy = |p: EntropyProfile| {
        let hists: Vec<_> = categories().map(|c| p.histograms(c)).collect();
        let means = (p.static_mean_entropy().to_bits(), p.dynamic_mean_entropy().to_bits());
        (p.static_count(), means, hists)
    };
    let locality = |p: LocalityProfile| {
        (p.static_count(), p.total(), categories().map(|c| p.series(c)).collect::<Vec<_>>())
    };
    let values = |p: ValueProfile| {
        (p.static_count(), categories().map(|c| p.histograms(c)).collect::<Vec<_>>())
    };
    let summary = |s: TraceSummary| {
        let per_category = InstrCategory::ALL.map(|c| (s.dynamic_count(c), s.static_count(c)));
        (s.dynamic_total(), s.static_total(), per_category)
    };
    let sequential = (
        entropy(one_pass(trace, EntropyProfile::new())),
        locality(one_pass(trace, LocalityProfile::new(16))),
        values(one_pass(trace, ValueProfile::new())),
        summary(one_pass(trace, TraceSummary::new())),
    );
    assert!(sequential.0 .0 > 100, "a real trace has many static instructions");
    for workers in [1, 2, 4] {
        let engine = ReplayEngine::new().with_workers(workers);
        let sharded = (
            entropy(engine.observe(trace, EntropyProfile::new)),
            locality(engine.observe(trace, || LocalityProfile::new(16))),
            values(engine.observe(trace, ValueProfile::new)),
            summary(engine.observe(trace, TraceSummary::new)),
        );
        let at = format!("workers={workers}");
        assert_eq!(sharded.0, sequential.0, "entropy {at}");
        assert_eq!(sharded.1, sequential.1, "locality {at}");
        assert_eq!(sharded.2, sequential.2, "values {at}");
        assert_eq!(sharded.3, sequential.3, "summary {at}");
    }
}

/// The goldens print percentages to one decimal, so a tally a few records
/// off can hide behind them. This replays all seven uncapped quick traces
/// (`repro --quick`'s scale) with the paper bank, with the paper bank plus
/// the stride/fcm2 hybrid (derived from the bank's fcm2 column) and with
/// fcm1–8, whose FCM orders the engine runs as one bank, and requires every
/// per-category count to equal one lone predictor's pass over the whole
/// trace, configuration by configuration. Slow in a debug build; run it
/// with `cargo test --release --test engine_equivalence -- --ignored`.
#[test]
#[ignore = "replays the seven quick traces; run in release"]
fn banked_tallies_equal_lone_passes_on_every_quick_trace() {
    let mut store = TraceStore::with_scale_div(4);
    let engine = ReplayEngine::new();
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark).expect("workload runs");
        let mut hybrid = PredictorConfig::paper_bank();
        hybrid.push(PredictorConfig::new("hybrid", || Box::new(HybridPredictor::stride_fcm(2))));
        for bank in [PredictorConfig::paper_bank(), hybrid, PredictorConfig::fcm_orders(1..=8)] {
            let replays = engine.replay(&trace, &bank);
            for (config, replay) in bank.iter().zip(&replays) {
                assert_eq!(replay.name, config.name());
                let mut predictor = config.build();
                let mut tracker = AccuracyTracker::new();
                for (rec, id) in trace.iter_with_ids() {
                    tracker.record(
                        rec.category,
                        predictor.step(id, rec.pc, rec.value) == Some(rec.value),
                    );
                }
                for category in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                    assert_eq!(
                        (replay.tracker.correct(category), replay.tracker.predicted(category)),
                        (tracker.correct(category), tracker.predicted(category)),
                        "{benchmark} {} {category:?}",
                        config.name()
                    );
                }
            }
        }
    }
}
