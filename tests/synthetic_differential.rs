//! Differential tests: every synthetic generator has an
//! analytically-known best predictor family, and these tests pin it — a
//! predictor regression surfaces here as a *semantic* failure ("stride no
//! longer saturates pure strides"), independent of any golden file.
//!
//! The bounds are analytic, not tuned: a family that saturates a scenario
//! mispredicts only during per-PC warmup (bounded by the generator's cycle
//! length), a family foreign to the class stays near chance.

use dvp::core::PredictorConfig;
use dvp::engine::ReplayEngine;
use dvp::experiments::{sweep, TraceStore};
use dvp::workloads::synthetic::{Scenario, ScenarioKind};
use std::collections::HashMap;

/// Per-PC record count: large enough that every grid cycle (≤ 512) is
/// warmup-insignificant, small enough to keep the suite fast.
const RPP: u32 = 20_000;

/// Replays one scenario under the paper bank and returns accuracy by
/// configuration name, going through the full store + engine path.
fn accuracies(kind: ScenarioKind, seed: u64) -> HashMap<String, f64> {
    let scenario = Scenario::new(kind, 2, RPP, seed);
    let engine = ReplayEngine::new();
    let mut store = TraceStore::new().with_engine(engine.clone());
    let trace = store.synthetic_traces(&[scenario]).pop().expect("one trace");
    engine
        .replay(&trace, &PredictorConfig::paper_bank())
        .into_iter()
        .map(|r| {
            let acc = r.accuracy();
            (r.name, acc)
        })
        .collect()
}

#[test]
fn constant_saturates_every_family() {
    let acc = accuracies(ScenarioKind::Constant, 1);
    for (name, a) in &acc {
        assert!(*a >= 0.99, "{name} should saturate a constant stream: {a:.4}");
    }
}

#[test]
fn pure_stride_saturates_s2_and_defeats_the_rest() {
    let acc = accuracies(ScenarioKind::Stride { stride: 7, jitter_pct: 0 }, 2);
    assert!(acc["s2"] >= 0.99, "two-delta must saturate a pure stride: {:.4}", acc["s2"]);
    for name in ["l", "fcm1", "fcm2", "fcm3"] {
        assert!(acc[name] <= 0.05, "{name} sees never-repeating values: {:.4}", acc[name]);
    }
}

#[test]
fn jitter_degrades_s2_by_two_records_per_event() {
    let acc = accuracies(ScenarioKind::Stride { stride: 3, jitter_pct: 10 }, 3);
    // Each 10%-probability transient event costs the two-delta predictor
    // the perturbed record and the one after: expected accuracy ~0.80.
    assert!(
        (0.72..=0.88).contains(&acc["s2"]),
        "s2 under 10% jitter should sit near 0.80: {:.4}",
        acc["s2"]
    );
    assert!(acc["fcm3"] <= 0.05, "jitter does not help context models: {:.4}", acc["fcm3"]);
}

#[test]
fn periodic_cycle_saturates_fcm_at_every_order() {
    let acc = accuracies(ScenarioKind::Periodic { period: 16 }, 4);
    for name in ["fcm1", "fcm2", "fcm3"] {
        assert!(acc[name] >= 0.99, "{name} must lock onto a 16-cycle: {:.4}", acc[name]);
    }
    assert!(acc["l"] <= 0.05, "distinct cycle values defeat last-value: {:.4}", acc["l"]);
    assert!(acc["s2"] <= 0.05, "non-arithmetic cycle defeats stride: {:.4}", acc["s2"]);
}

#[test]
fn markov_chain_saturates_fcm_exactly_at_its_order() {
    for order in 1..=3u32 {
        let acc = accuracies(ScenarioKind::Markov { order, alphabet: 4 }, 5 + u64::from(order));
        let at_order = format!("fcm{order}");
        assert!(
            acc[at_order.as_str()] >= 0.99,
            "fcm{order} must saturate an order-{order} chain: {:.4}",
            acc[at_order.as_str()]
        );
        // Saturation is monotone in order...
        for higher in order..=3 {
            let name = format!("fcm{higher}");
            assert!(acc[name.as_str()] >= 0.99, "fcm{higher} >= fcm{order} on order-{order}");
        }
        // ...and the order below is left near chance (the de Bruijn
        // construction shows every shorter context all successors).
        if order > 1 {
            let below = format!("fcm{}", order - 1);
            assert!(
                acc[below.as_str()] <= acc[at_order.as_str()] - 0.3,
                "fcm{} must not resolve an order-{order} chain: {:.4}",
                order - 1,
                acc[below.as_str()]
            );
        }
        assert!(acc["s2"] <= 0.6, "stride near chance on symbol chains: {:.4}", acc["s2"]);
        assert!(acc["l"] <= 0.6, "last-value near chance on symbol chains: {:.4}", acc["l"]);
    }
}

#[test]
fn pointer_chase_saturates_fcm1() {
    let acc = accuracies(ScenarioKind::Chase { heap: 64 }, 9);
    for name in ["fcm1", "fcm2", "fcm3"] {
        assert!(acc[name] >= 0.98, "{name} must learn the pointer walk: {:.4}", acc[name]);
    }
    assert!(acc["l"] <= 0.05, "chase values repeat only per lap: {:.4}", acc["l"]);
    assert!(acc["s2"] <= 0.05, "permuted deltas defeat stride: {:.4}", acc["s2"]);
}

#[test]
fn random_values_defeat_every_family() {
    let wide = accuracies(ScenarioKind::Random { alphabet: 1 << 20 }, 10);
    for (name, a) in &wide {
        assert!(*a <= 0.01, "{name} must be near zero on wide noise: {a:.4}");
    }
    let narrow = accuracies(ScenarioKind::Random { alphabet: 4 }, 11);
    for (name, a) in &narrow {
        assert!(*a <= 0.45, "{name} must stay near 1/4 chance on 4-symbol noise: {a:.4}");
    }
}

#[test]
fn mixed_blend_is_won_by_fcm3() {
    let scenario = Scenario::new(ScenarioKind::Mixed, 10, RPP, 12);
    let engine = ReplayEngine::new();
    let mut store = TraceStore::new().with_engine(engine.clone());
    let trace = store.synthetic_traces(&[scenario]).pop().expect("one trace");
    let replays = engine.replay(&trace, &PredictorConfig::paper_bank());
    let best = replays.iter().max_by(|a, b| a.accuracy().total_cmp(&b.accuracy())).unwrap();
    assert_eq!(best.name, "fcm3", "fcm3 saturates 3 of the 5 blended classes");
    assert!(best.accuracy() >= 0.5, "{:.4}", best.accuracy());
}

/// The shipped `repro sweep` grids must meet their own analytic
/// expectations at both sizes — the `Met` column can never ship a `NO`.
#[test]
fn default_quick_grid_meets_every_expectation() {
    let mut store = TraceStore::new();
    let results = sweep::run(
        &mut store,
        &ReplayEngine::new(),
        &sweep::default_grid(true),
        &PredictorConfig::paper_bank(),
    );
    assert!(results.all_met(), "quick sweep grid failed:\n{}", results.render());
}
