//! Phase sampling end to end: the sampled-vs-full error bound on every
//! real workload and the synthetic grid, byte-identical plans and
//! tallies at every engine setting, and the determinism of the seeded
//! clustering.
//!
//! The error pin uses the *functionally warmed* estimator
//! (`replay_sampled_warm`): predictor state is exact, only the plan's
//! representative windows are tallied, so the estimate differs from the
//! full replay by the clustering's weighting error alone — the quantity
//! the behavior vectors are supposed to make small. The cold estimator
//! (`replay_sampled`) is deliberately *not* pinned to the same bound:
//! the paper's unbounded-table fcm predictors keep gaining accuracy as
//! history accumulates, so any replay that touches ~10x fewer records
//! underestimates them structurally — `repro --sample` reports that
//! bias; these tests only require it to stay a *under*estimate-shaped
//! finite number, not a small one.

use dvp::core::PredictorConfig;
use dvp::engine::{phase_plan, PhaseOptions, ReplayEngine, SharedTrace};
use dvp::experiments::{phases, sweep, TraceStore};
use dvp::trace::{InstrCategory, Pc, TraceRecord};
use dvp::workloads::Benchmark;
use proptest::prelude::*;

/// Store with every real workload at test scale: small enough for the
/// suite, large enough that each trace spans many profiling windows.
fn store() -> TraceStore {
    TraceStore::with_scale_div(1000).with_record_cap(200_000)
}

#[test]
fn warm_sampling_is_within_one_point_of_full_replay_on_every_workload() {
    let mut store = store();
    let engine = ReplayEngine::new();
    let validation = phases::validate(&mut store, &engine, &PredictorConfig::paper_bank())
        .expect("workloads build");
    assert_eq!(validation.rows.len(), Benchmark::ALL.len());
    for row in &validation.rows {
        for cell in &row.cells {
            assert!(
                cell.error_pp() <= phases::ERROR_LIMIT_PP,
                "{} {}: warm sampled {:.4} vs full {:.4} ({:.2} pp)",
                row.benchmark.name(),
                cell.config,
                cell.warm,
                cell.full,
                cell.error_pp()
            );
        }
    }
    assert!(validation.all_within_limit(), "{}", validation.render());
}

#[test]
fn plans_keep_the_tallied_record_reduction_at_ten_x_or_better() {
    let mut store = store();
    for benchmark in Benchmark::ALL {
        let plan = store.phase_plan(benchmark).expect("plan builds");
        let reduction = plan.total_records as f64 / plan.simulated_records() as f64;
        assert!(
            reduction >= 10.0,
            "{}: {} of {} records tallied ({reduction:.1}x)",
            benchmark.name(),
            plan.simulated_records(),
            plan.total_records
        );
    }
}

#[test]
fn warm_sampling_is_within_one_point_on_the_synthetic_grid() {
    let mut store = TraceStore::new();
    let engine = ReplayEngine::new();
    let results = sweep::run_sampled(
        &mut store,
        &engine,
        &sweep::default_grid(true),
        &PredictorConfig::paper_bank(),
    );
    for row in &results.rows {
        let err = row.sampled_err_pp.expect("sampled sweep carries the error column");
        assert!(
            err <= phases::ERROR_LIMIT_PP,
            "{} {}: sampled error {err:.2} pp",
            row.scenario.name(),
            row.scenario.params()
        );
    }
    assert!(results.all_met(), "{}", results.render());
}

/// The byte-comparable tally surface of a sampled replay: exact integer
/// (correct, predicted) counts per configuration, phase, and category.
type TallySurface = Vec<(String, Vec<Vec<(u64, u64)>>)>;

fn surface(replays: &[dvp::engine::SampledReplay]) -> TallySurface {
    replays
        .iter()
        .map(|r| {
            let phases = r
                .phases
                .iter()
                .map(|t| {
                    InstrCategory::ALL
                        .into_iter()
                        .map(Some)
                        .chain([None])
                        .map(|c| (t.correct(c), t.predicted(c)))
                        .collect()
                })
                .collect();
            (r.name.clone(), phases)
        })
        .collect()
}

#[test]
fn plan_and_tallies_are_byte_identical_at_every_engine_setting() {
    let mut store = store();
    let trace = store.trace(Benchmark::Compress).expect("workload builds");
    let plan = store.phase_plan(Benchmark::Compress).expect("plan builds");
    // The plan is a pure sequential function of the trace — rebuilding
    // it from scratch reproduces it exactly.
    assert_eq!(plan, phase_plan(&trace, &PhaseOptions::default()));

    let bank = PredictorConfig::paper_bank();
    let reference = ReplayEngine::sequential();
    let cold = surface(&reference.replay_sampled(&trace, &bank, &plan));
    let warm = surface(&reference.replay_sampled_warm(&trace, &bank, &plan));
    for (workers, window) in [(2, 1), (4, 2), (8, 4)] {
        let engine = ReplayEngine::new().with_workers(workers).with_chunk_window(window);
        assert_eq!(
            surface(&engine.replay_sampled(&trace, &bank, &plan)),
            cold,
            "cold tallies moved at workers={workers} window={window}"
        );
        assert_eq!(
            surface(&engine.replay_sampled_warm(&trace, &bank, &plan)),
            warm,
            "warm tallies moved at workers={workers} window={window}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded k-means is deterministic: the same synthetic trace and
    /// options always produce the same valid plan, and the plan's phase
    /// weights always sum to 1 (their integer numerators sum exactly to
    /// the trace length; only float division rounds).
    #[test]
    fn seeded_clustering_is_deterministic_and_weights_sum_to_one(
        seed in any::<u64>(),
        len in 1_000usize..20_000,
        pcs in 1u64..48,
        window in 64usize..1_024,
        clusters in 1usize..10,
        min_reduction in 0u64..12,
    ) {
        let trace: SharedTrace = (0..len as u64)
            .map(|i| {
                let pc = Pc(4 * (i % pcs));
                let category = InstrCategory::ALL[(i % InstrCategory::ALL.len() as u64) as usize];
                // A value stream that shifts behavior mid-trace so the
                // clustering has real structure to find.
                let value = if i < len as u64 / 2 {
                    (seed ^ i) % 13
                } else {
                    i.wrapping_mul(seed | 1)
                };
                TraceRecord::new(pc, category, value)
            })
            .collect();
        let options = PhaseOptions {
            window_records: window,
            clusters,
            seed,
            min_reduction,
            ..PhaseOptions::default()
        };
        let plan = phase_plan(&trace, &options);
        prop_assert_eq!(&plan, &phase_plan(&trace, &options));
        plan.validate().expect("constructed plans validate");
        prop_assert!(!plan.phases.is_empty());
        prop_assert!(plan.phases.len() <= clusters);
        let total: u64 = plan.phases.iter().map(|p| p.cluster_records).sum();
        prop_assert_eq!(total, len as u64);
        let weights: f64 = (0..plan.phases.len()).map(|i| plan.weight(i)).sum();
        prop_assert!((weights - 1.0).abs() <= 1e-12, "weights sum to {weights}");
    }
}
