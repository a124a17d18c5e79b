//! Determinism properties of the synthetic scenario generators, end to
//! end through the engine (the `tests/engine_equivalence.rs` pattern
//! applied to invented workloads): the same kind/parameters/seed must
//! produce byte-identical traces on every generation — and replaying them
//! must produce identical tallies at any worker and shard count,
//! including the sequential reference configuration.

use dvp::core::{Predictor, PredictorConfig};
use dvp::engine::{ReplayEngine, SharedTrace};
use dvp::workloads::synthetic::{Scenario, ScenarioKind};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 8 } else { 24 };

fn arb_kind() -> impl Strategy<Value = ScenarioKind> {
    prop_oneof![
        Just(ScenarioKind::Constant),
        ((1i64..20), any::<bool>(), (0u8..30)).prop_map(|(s, neg, jitter_pct)| {
            ScenarioKind::Stride { stride: if neg { -s } else { s }, jitter_pct }
        }),
        (1u32..40).prop_map(|period| ScenarioKind::Periodic { period }),
        ((1u32..4), (2u32..6))
            .prop_map(|(order, alphabet)| ScenarioKind::Markov { order, alphabet }),
        (2u32..50).prop_map(|heap| ScenarioKind::Chase { heap }),
        (2u64..100).prop_map(|alphabet| ScenarioKind::Random { alphabet }),
        Just(ScenarioKind::Mixed),
    ]
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (arb_kind(), 1u32..8, 1u32..300, any::<u64>())
        .prop_map(|(kind, pcs, rpp, seed)| Scenario::new(kind, pcs, rpp, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Same seed/params => byte-identical records, through both the
    /// `records()` surface and two independently built `SharedTrace`s
    /// (records, interner, and dense ids).
    #[test]
    fn generation_is_deterministic(scenario in arb_scenario()) {
        let a = scenario.records();
        prop_assert_eq!(&a, &scenario.records());
        let built: SharedTrace = a.iter().copied().collect();
        let rebuilt: SharedTrace = scenario.records().into_iter().collect();
        prop_assert_eq!(built.len() as u64, scenario.total_records());
        prop_assert_eq!(built.interner(), rebuilt.interner());
        for ((ra, ia), (rb, ib)) in built.iter_with_ids().zip(rebuilt.iter_with_ids()) {
            prop_assert_eq!(ra, rb);
            prop_assert_eq!(ia, ib);
        }
    }

    /// A synthetic trace replays to the tallies of one unpartitioned
    /// lockstep pass at any worker count (the engine's guarantee,
    /// exercised on generated rather than simulated traces).
    #[test]
    fn replay_equals_one_lockstep_pass_at_any_worker_count(scenario in arb_scenario()) {
        let trace: SharedTrace = scenario.records().into_iter().collect();
        let bank = PredictorConfig::paper_bank();
        let reference: Vec<(String, u64, u64)> = bank
            .iter()
            .map(|config| {
                let mut predictor = config.build();
                let correct = trace
                    .iter_with_ids()
                    .filter(|&(r, id)| predictor.step(id, r.pc, r.value) == Some(r.value))
                    .count() as u64;
                (config.name().to_owned(), correct, trace.len() as u64)
            })
            .collect();
        for workers in [1, 2, 4] {
            let engine = ReplayEngine::new().with_workers(workers);
            let got: Vec<(String, u64, u64)> = engine
                .replay(&trace, &bank)
                .into_iter()
                .map(|r| (r.name, r.tracker.correct(None), r.tracker.predicted(None)))
                .collect();
            prop_assert_eq!(&got, &reference, "workers={}", workers);
        }
    }
}
