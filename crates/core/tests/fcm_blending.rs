//! Focused coverage for the FCM predictor's blending and lazy-exclusion
//! paths: the facade doc-comment's `1, 5, 9` repeating sequence across an
//! order sweep, lazy exclusion's frozen low orders, and an aliasing-free
//! per-PC isolation property.

use dvp_core::{Blending, FcmPredictor, Interned};
use dvp_trace::{Pc, Value};
use proptest::prelude::*;

const PC: Pc = Pc(0x400100);

const BLENDINGS: [Blending; 2] = [Blending::LazyExclusion, Blending::SingleOrder];

/// Feeds `seq` at one PC, returning the prediction made before each update.
fn run(p: &mut Interned<FcmPredictor>, pc: Pc, seq: &[Value]) -> Vec<Option<Value>> {
    seq.iter()
        .map(|&v| {
            let pred = p.predict(pc);
            p.update(pc, v);
            pred
        })
        .collect()
}

#[test]
fn doc_comment_sequence_1_5_9_predicts_the_next_element() {
    // Mirror of the facade doc example (`dvp` crate root): after observing
    // 1 5 9 1 5 9 1 5, the order-2 context (1, 5) was followed by 9.
    let mut fcm = Interned::new(FcmPredictor::new(2));
    for &v in &[1u64, 5, 9, 1, 5, 9, 1, 5] {
        fcm.update(PC, v);
    }
    assert_eq!(fcm.predict(PC), Some(9));
}

#[test]
fn order_sweep_1_to_4_is_perfect_on_1_5_9_after_warmup() {
    for order in 1usize..=4 {
        let seq: Vec<Value> = [1u64, 5, 9].iter().copied().cycle().take(30).collect();
        let mut p = Interned::new(FcmPredictor::new(order));
        let preds = run(&mut p, PC, &seq);
        // One full period to populate the contexts, plus `order` values to
        // refill the history window, plus the first predictable slot.
        let warmup = 3 + order + 1;
        for (i, (&pred, &actual)) in preds.iter().zip(&seq).enumerate().skip(warmup) {
            assert_eq!(pred, Some(actual), "order {order}, index {i}");
        }
    }
}

#[test]
fn order_sweep_blending_agrees_with_single_order_at_steady_state() {
    // On a distinct-valued period every order >= 1 resolves the next value,
    // so the blended (lazy-exclusion) prediction must match the pure
    // single-order prediction once both are warm.
    for order in 1usize..=4 {
        let seq: Vec<Value> = [1u64, 5, 9].iter().copied().cycle().take(30).collect();
        let mut lazy = Interned::new(FcmPredictor::new(order));
        let mut single = Interned::new(FcmPredictor::with_config(order, Blending::SingleOrder));
        let lazy_preds = run(&mut lazy, PC, &seq);
        let single_preds = run(&mut single, PC, &seq);
        let warmup = 3 + order + 1;
        assert_eq!(lazy_preds[warmup..], single_preds[warmup..], "order {order}");
    }
}

#[test]
fn lazy_exclusion_freezes_low_orders_once_high_orders_match() {
    // Lazy exclusion updates only the matched order and higher. After a
    // long 1,2 alternation the order-0 model has frozen counts {1: 2, 2: 1}
    // (updating every order would balance them, and the tie would break
    // toward the more recent 2) — observable as the fallback prediction
    // once a novel value leaves the order-1 context unseen.
    let mut lazy = Interned::new(FcmPredictor::new(1));
    for _ in 0..8 {
        for &v in &[1u64, 2] {
            lazy.update(PC, v);
        }
    }
    lazy.update(PC, 7);
    // History is now [7]; the order-1 context (7,) is unseen, so prediction
    // falls back to the order-0 frequency table.
    assert_eq!(lazy.predict(PC), Some(1), "lazy order-0 froze while order-1 matched");
}

#[test]
fn lazy_exclusion_seeds_every_order_on_a_complete_miss() {
    // The very first value matches no context at any order, so lazy
    // exclusion seeds all of them: an order-0 prediction exists right away.
    let mut p = Interned::new(FcmPredictor::new(3));
    p.update(PC, 42);
    assert_eq!(p.predict(PC), Some(42));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Blending only ever *adds* fallback predictions: wherever the pure
    // order-k model predicts, the blended predictor must predict too —
    // across the whole order sweep, not just the seed suite's order 2.
    #[test]
    fn blending_dominates_single_order_domain_for_orders_1_to_4(
        values in prop::collection::vec(0u64..8, 1..120),
        order in 1usize..5,
    ) {
        let mut lazy = Interned::new(FcmPredictor::new(order));
        let mut single = Interned::new(FcmPredictor::with_config(order, Blending::SingleOrder));
        for &v in &values {
            let lazy_pred = lazy.predict(PC);
            let single_pred = single.predict(PC);
            if single_pred.is_some() {
                prop_assert!(
                    lazy_pred.is_some(),
                    "order {} lost a prediction under blending",
                    order
                );
            }
            lazy.update(PC, v);
            single.update(PC, v);
        }
    }

    // Per-PC isolation must hold under every blending:
    // interleaving two PCs' streams gives bit-identical predictions to
    // running each stream alone (the paper's "no table aliasing" idealization).
    #[test]
    fn fcm_pcs_are_aliasing_free_in_every_configuration(
        a in prop::collection::vec(0u64..6, 1..60),
        b in prop::collection::vec(0u64..6, 1..60),
        order in 1usize..5,
    ) {
        for blending in BLENDINGS {
            let make = || Interned::new(FcmPredictor::with_config(order, blending));

            let alone_a = run(&mut make(), Pc(0), &a);
            let alone_b = run(&mut make(), Pc(4), &b);

            let mut shared = make();
            let (mut ia, mut ib) = (0usize, 0usize);
            let (mut inter_a, mut inter_b) = (Vec::new(), Vec::new());
            while ia < a.len() || ib < b.len() {
                if ia < a.len() && (ib >= b.len() || ia <= ib) {
                    inter_a.push(shared.predict(Pc(0)));
                    shared.update(Pc(0), a[ia]);
                    ia += 1;
                } else {
                    inter_b.push(shared.predict(Pc(4)));
                    shared.update(Pc(4), b[ib]);
                    ib += 1;
                }
            }
            prop_assert_eq!(&inter_a, &alone_a, "{:?} stream a", blending);
            prop_assert_eq!(&inter_b, &alone_b, "{:?} stream b", blending);
        }
    }
}
