//! Property tests for predictor invariants.

use dvp_core::{
    hash_history, Blending, DelayedPredictor, EntropyProfile, FcmPredictor, FiniteFcmPredictor,
    FiniteHybridPredictor, FiniteLastValuePredictor, FiniteStridePredictor, Interned,
    LastValuePredictor, LocalityProfile, Predictor, PredictorSet, StridePredictor, TableSpec,
};
use dvp_trace::{InstrCategory, Observer, Pc, PcId, TraceRecord, Value};
use proptest::prelude::*;
use std::collections::HashSet;

/// Debug builds run the predictor-heavy cases ~10x slower; keep the suite
/// fast everywhere.
const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(any::<Value>(), 1..max_len)
}

/// Small-alphabet value streams (lots of repetition, exercises context hits).
fn arb_small_values(max_len: usize) -> impl Strategy<Value = Vec<Value>> {
    prop::collection::vec(0u64..8, 1..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    // ----- stride ------------------------------------------------------

    #[test]
    fn stride_exact_on_any_affine_sequence(
        start in any::<u64>(),
        delta in any::<u64>(),
        len in 4usize..200,
    ) {
        let mut p = Interned::new(StridePredictor::two_delta());
        let pc = Pc(0);
        let mut misses_after_warmup = 0;
        for i in 0..len {
            let v = start.wrapping_add(delta.wrapping_mul(i as u64));
            let correct = p.observe(pc, v);
            if i >= 3 && !correct {
                misses_after_warmup += 1;
            }
        }
        prop_assert_eq!(misses_after_warmup, 0);
    }

    #[test]
    fn last_value_accuracy_equals_adjacent_repeat_fraction(values in arb_values(200)) {
        let mut p = Interned::new(LastValuePredictor::new());
        let pc = Pc(0);
        let correct = values.iter().filter(|&&v| p.observe(pc, v)).count();
        let repeats = values.windows(2).filter(|w| w[0] == w[1]).count();
        prop_assert_eq!(correct, repeats);
    }

    // ----- fcm ----------------------------------------------------------

    #[test]
    fn fcm_never_predicts_unseen_values(values in arb_values(150), order in 0usize..4) {
        let mut p = Interned::new(FcmPredictor::new(order));
        let pc = Pc(0);
        let mut seen: HashSet<Value> = HashSet::new();
        for &v in &values {
            if let Some(pred) = p.predict(pc) {
                prop_assert!(seen.contains(&pred), "predicted unseen value {pred}");
            }
            p.update(pc, v);
            seen.insert(v);
        }
    }

    #[test]
    fn fcm_perfect_steady_state_on_distinct_periodic(
        period_vals in prop::collection::hash_set(any::<Value>(), 2..10),
        reps in 3usize..8,
        order in 1usize..4,
    ) {
        let period: Vec<Value> = period_vals.into_iter().collect();
        let seq: Vec<Value> =
            period.iter().copied().cycle().take(period.len() * reps).collect();
        let mut p = Interned::new(FcmPredictor::new(order));
        let pc = Pc(0);
        let warmup = period.len() + order + 1;
        let mut misses_after_warmup = 0;
        for (i, &v) in seq.iter().enumerate() {
            let correct = p.observe(pc, v);
            if i >= warmup && !correct {
                misses_after_warmup += 1;
            }
        }
        prop_assert_eq!(misses_after_warmup, 0, "period {:?} order {}", period, order);
    }

    #[test]
    fn fcm_blending_modes_agree_on_prediction_domain(values in arb_small_values(100)) {
        // Single-order predicts a subset of the time lazy-exclusion does
        // (blending only *adds* fallback predictions).
        let mut lazy = Interned::new(FcmPredictor::with_config(2, Blending::LazyExclusion));
        let mut single = Interned::new(FcmPredictor::with_config(2, Blending::SingleOrder));
        let pc = Pc(0);
        for &v in &values {
            let lazy_pred = lazy.predict(pc);
            let single_pred = single.predict(pc);
            if single_pred.is_some() {
                prop_assert!(lazy_pred.is_some(), "blending lost a prediction");
            }
            lazy.update(pc, v);
            single.update(pc, v);
        }
    }

    // ----- isolation -----------------------------------------------------

    #[test]
    fn pcs_are_fully_isolated(
        a in arb_small_values(80),
        b in arb_small_values(80),
    ) {
        // Interleaving two PCs' streams must give exactly the same
        // predictions as running each stream alone (no aliasing).
        fn run_alone<P: Predictor>(mut p: Interned<P>, pc: Pc, values: &[Value]) -> Vec<Option<Value>> {
            values
                .iter()
                .map(|&v| {
                    let pred = p.predict(pc);
                    p.update(pc, v);
                    pred
                })
                .collect()
        }
        fn run_interleaved<P: Predictor>(
            mut p: Interned<P>,
            a: &[Value],
            b: &[Value],
        ) -> (Vec<Option<Value>>, Vec<Option<Value>>) {
            let (mut ia, mut ib) = (0, 0);
            let (mut ra, mut rb) = (Vec::new(), Vec::new());
            while ia < a.len() || ib < b.len() {
                let take_a = ia < a.len() && (ib >= b.len() || ia <= ib);
                if take_a {
                    ra.push(p.predict(Pc(0)));
                    p.update(Pc(0), a[ia]);
                    ia += 1;
                } else {
                    rb.push(p.predict(Pc(4)));
                    p.update(Pc(4), b[ib]);
                    ib += 1;
                }
            }
            (ra, rb)
        }

        let (ia, ib) = run_interleaved(Interned::new(FcmPredictor::new(2)), &a, &b);
        prop_assert_eq!(&ia, &run_alone(Interned::new(FcmPredictor::new(2)), Pc(0), &a));
        prop_assert_eq!(&ib, &run_alone(Interned::new(FcmPredictor::new(2)), Pc(4), &b));

        let (ia, ib) = run_interleaved(Interned::new(StridePredictor::two_delta()), &a, &b);
        prop_assert_eq!(&ia, &run_alone(Interned::new(StridePredictor::two_delta()), Pc(0), &a));
        prop_assert_eq!(&ib, &run_alone(Interned::new(StridePredictor::two_delta()), Pc(4), &b));
    }

    // ----- predictor set ---------------------------------------------------

    #[test]
    fn predictor_set_masks_partition_and_match_components(values in arb_small_values(150)) {
        let records: Vec<TraceRecord> = values
            .iter()
            .map(|&v| TraceRecord::new(Pc(8), InstrCategory::Logic, v))
            .collect();
        let mut set = PredictorSet::paper_trio();
        for r in &records {
            set.observe_batch(&[PcId(0)], &[r.pc], &[r.value], &[r.category]);
        }
        let mask_sum: u64 = (0..8u32).map(|m| set.subset_count(None, m)).sum();
        prop_assert_eq!(mask_sum, records.len() as u64);

        // Component totals agree with standalone runs.
        let (l, _) = dvp_core::run_trace(&mut Interned::new(LastValuePredictor::new()), records.iter());
        let (s, _) = dvp_core::run_trace(&mut Interned::new(StridePredictor::two_delta()), records.iter());
        let (f, _) = dvp_core::run_trace(&mut Interned::new(FcmPredictor::new(3)), records.iter());
        prop_assert_eq!(set.correct_total(0), l);
        prop_assert_eq!(set.correct_total(1), s);
        prop_assert_eq!(set.correct_total(2), f);
    }

    // ----- sequences ---------------------------------------------------------

    // ----- finite tables ----------------------------------------------------

    #[test]
    fn finite_tables_match_unbounded_when_collision_free(
        values in arb_values(300),
        npcs in 1u64..16,
    ) {
        // Consecutive word-aligned PCs map to consecutive slots of a large
        // table (the index fold is the identity for small inputs), so a
        // 2^12-slot tagged table is collision-free for <16 PCs: the finite
        // predictors must be bit-identical to the unbounded ones.
        let spec = TableSpec::new(12).with_tag_bits(8);
        let mut fin_l = Interned::new(FiniteLastValuePredictor::new(spec));
        let mut fin_s = Interned::new(FiniteStridePredictor::new(spec));
        let mut ub_l = Interned::new(LastValuePredictor::new());
        let mut ub_s = Interned::new(StridePredictor::two_delta());
        for (i, &v) in values.iter().enumerate() {
            let pc = Pc(0x1000 + (i as u64 % npcs) * 4);
            prop_assert_eq!(fin_l.predict(pc), ub_l.predict(pc));
            prop_assert_eq!(fin_s.predict(pc), ub_s.predict(pc));
            fin_l.update(pc, v);
            fin_s.update(pc, v);
            ub_l.update(pc, v);
            ub_s.update(pc, v);
        }
    }

    #[test]
    fn hash_history_is_always_in_range(
        history in prop::collection::vec(any::<Value>(), 0..9),
        bits in 1u32..=28,
    ) {
        prop_assert!(hash_history(&history, bits) < 1u64 << bits);
    }

    #[test]
    fn finite_fcm_never_panics_and_predicts_only_after_full_history(
        values in arb_small_values(200),
        order in 1usize..5,
    ) {
        let mut p = Interned::new(FiniteFcmPredictor::new(order, TableSpec::new(6), TableSpec::new(8)));
        let pc = Pc(0x100);
        for (i, &v) in values.iter().enumerate() {
            let pred = p.predict(pc);
            if i < order {
                prop_assert_eq!(pred, None, "no full history after {} values", i);
            }
            p.update(pc, v);
        }
    }

    #[test]
    fn finite_hybrid_prediction_comes_from_a_component(
        values in arb_small_values(250),
        npcs in 1u64..8,
    ) {
        // The hybrid never invents values: every prediction equals what one
        // of its components would predict from the identical update stream.
        let mut hybrid = Interned::new(FiniteHybridPredictor::paper_geometry(8));
        let mut stride = Interned::new(FiniteStridePredictor::new(TableSpec::new(8)));
        let mut fcm = Interned::new(FiniteFcmPredictor::new(2, TableSpec::new(8), TableSpec::new(12)));
        for (i, &v) in values.iter().enumerate() {
            let pc = Pc(0x400 + (i as u64 % npcs) * 4);
            let h = hybrid.predict(pc);
            if let Some(pred) = h {
                let s = stride.predict(pc);
                let f = fcm.predict(pc);
                prop_assert!(
                    s == Some(pred) || f == Some(pred),
                    "hybrid predicted {pred} but components said {s:?}/{f:?}"
                );
            }
            hybrid.update(pc, v);
            stride.update(pc, v);
            fcm.update(pc, v);
        }
    }

    // ----- delayed updates ----------------------------------------------------

    #[test]
    fn delay_zero_is_bit_identical_to_immediate(values in arb_small_values(200)) {
        let mut delayed = Interned::new(DelayedPredictor::new(FcmPredictor::new(2), 0));
        let mut direct = Interned::new(FcmPredictor::new(2));
        for (i, &v) in values.iter().enumerate() {
            let pc = Pc((i as u64 % 5) * 4);
            prop_assert_eq!(delayed.predict(pc), direct.predict(pc));
            delayed.update(pc, v);
            direct.update(pc, v);
        }
    }

    #[test]
    fn drained_delayed_predictor_converges_to_immediate(
        values in arb_small_values(200),
        delay in 0usize..32,
    ) {
        // After draining, the inner predictor has seen exactly the same
        // update sequence as an immediate-update run.
        let mut delayed = Interned::new(DelayedPredictor::new(StridePredictor::two_delta(), delay));
        let mut direct = Interned::new(StridePredictor::two_delta());
        for (i, &v) in values.iter().enumerate() {
            let pc = Pc((i as u64 % 3) * 4);
            delayed.update(pc, v);
            direct.update(pc, v);
        }
        let inner = delayed.into_inner().into_inner();
        for i in 0..3u32 {
            let pc = Pc(u64::from(i) * 4);
            prop_assert_eq!(inner.predict(PcId(i), pc), direct.predict(pc));
        }
    }

    #[test]
    fn delayed_in_flight_never_exceeds_delay(
        values in arb_small_values(100),
        delay in 0usize..16,
    ) {
        let mut p = Interned::new(DelayedPredictor::new(LastValuePredictor::new(), delay));
        for &v in &values {
            p.update(Pc(0), v);
            prop_assert!(p.in_flight() <= delay);
        }
    }

    // ----- locality & entropy ---------------------------------------------------

    #[test]
    fn locality_is_monotone_and_depth1_equals_last_value(values in arb_small_values(300)) {
        let mut profile = LocalityProfile::new(8);
        let n = values.len();
        profile.observe_batch(&vec![PcId(0); n], &vec![Pc(0); n], &values, &vec![InstrCategory::AddSub; n]);
        let mut lvp = Interned::new(LastValuePredictor::new());
        let mut lvp_correct = 0u64;
        for &v in &values {
            lvp_correct += u64::from(lvp.observe(Pc(0), v));
        }
        let series = profile.series(None);
        for w in series.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        // The most recent distinct value *is* the last value, so depth-1
        // locality and always-update last-value accuracy coincide exactly.
        let lvp_accuracy = lvp_correct as f64 / values.len() as f64;
        prop_assert!((series[0] - lvp_accuracy).abs() < 1e-12);
    }

    #[test]
    fn entropy_is_bounded_by_log2_of_distinct_values(values in arb_small_values(300)) {
        let mut profile = EntropyProfile::new();
        let n = values.len();
        profile.observe_batch(&vec![PcId(0); n], &vec![Pc(0); n], &values, &vec![InstrCategory::AddSub; n]);
        let h = profile.entropy_of(Pc(0)).expect("recorded");
        let distinct = values.iter().collect::<HashSet<_>>().len() as f64;
        prop_assert!(h >= -1e-12, "entropy cannot be negative: {h}");
        prop_assert!(h <= distinct.log2() + 1e-9, "H {h} > log2({distinct})");
        if distinct == 1.0 {
            prop_assert!(h.abs() < 1e-12);
        }
    }

    // ----- sequences ---------------------------------------------------------

    #[test]
    fn classify_is_stable_under_repetition(
        period in prop::collection::vec(any::<Value>(), 3..10),
        reps in 2usize..6,
    ) {
        use dvp_core::sequences::{classify, SequenceClass};
        let seq: Vec<Value> = period.iter().copied().cycle().take(period.len() * reps).collect();
        let class = classify(&seq);
        prop_assert!(
            matches!(
                class,
                SequenceClass::Constant
                    | SequenceClass::Stride
                    | SequenceClass::RepeatedStride
                    | SequenceClass::RepeatedNonStride
            ),
            "repetition of a finite period can never be NonStride: {class:?}"
        );
    }
}
