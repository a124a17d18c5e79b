//! The replay engine's core guarantee, verified end-to-end on real
//! workload traces: parallel sharded replay produces *identical* numbers —
//! and therefore byte-identical rendered tables — at any worker and shard
//! count, including the sequential reference configuration.

use dvp::core::{AccuracyTracker, Predictor, PredictorConfig, PredictorSet};
use dvp::engine::{ReplayEngine, SharedTrace};
use dvp::experiments::TraceStore;
use dvp::trace::InstrCategory;
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

    for (workers, shards) in [(1, 1), (1, 8), (4, 8), (3, 13)] {
        let engine = ReplayEngine::new().with_workers(workers).with_shards(shards);
        let replays = engine.replay(trace, &bank);
        for (replay, tracker) in replays.iter().zip(&trackers) {
            for category in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                assert_eq!(
                    replay.tracker.correct(category),
                    tracker.correct(category),
                    "workers={workers} shards={shards} {} {category:?}",
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
    let mut sequential = PredictorSet::paper_trio();
    for (r, id) in trace.iter_with_ids() {
        sequential.observe_batch(&[id], &[r.pc], &[r.value], &[r.category]);
    }
    for (workers, shards) in [(1, 4), (4, 8), (2, 5)] {
        let engine = ReplayEngine::new().with_workers(workers).with_shards(shards);
        let merged = engine.replay_correlated(trace, PredictorSet::paper_trio);
        assert_eq!(merged.total(), sequential.total());
        for mask in 0..8u32 {
            for category in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                assert_eq!(
                    merged.subset_count(category, mask),
                    sequential.subset_count(category, mask),
                    "workers={workers} shards={shards} mask={mask:03b} {category:?}"
                );
            }
        }
        let m: std::collections::HashMap<_, _> =
            merged.per_pc_tallies().unwrap().into_iter().collect();
        let s: std::collections::HashMap<_, _> =
            sequential.per_pc_tallies().unwrap().into_iter().collect();
        assert_eq!(m.len(), s.len());
        for (pc, tally) in &s {
            assert_eq!(m[pc].total, tally.total, "{pc}");
            assert_eq!(m[pc].correct, tally.correct, "{pc}");
            assert_eq!(m[pc].category, tally.category, "{pc}");
        }
    }
}
