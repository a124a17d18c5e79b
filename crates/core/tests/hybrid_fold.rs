//! The stride/FCM hybrid's hits follow from its parts' hits alone.
//!
//! `HybridPredictor::stride_fcm(k)` hits on a record exactly where the
//! part its chooser counter picks hits, because both parts predict from an
//! instruction's second record onward. These properties replay a hybrid
//! and a lone `StridePredictor::two_delta()` and `FcmPredictor::new(k)`
//! through the same stream and require `ChooserFold` over the two lone hit
//! columns to give the hybrid's column record for record, over small
//! alphabets, stride runs and many instructions. A hybrid with a
//! single-order FCM part breaks the identity, so it must not declare the
//! form the replay engine derives.

use dvp_core::{
    BankForm, Blending, ChooserFold, FcmPredictor, HybridPredictor, Predictor, StridePredictor,
};
use dvp_trace::{Pc, PcId, Value};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 32 } else { 128 };

/// One record per `(id, value)`, with every record of `id` under `PcId(id)`.
fn columns(stream: &[(u32, Value)]) -> (Vec<PcId>, Vec<Pc>, Vec<Value>) {
    let ids = stream.iter().map(|&(id, _)| PcId(id)).collect();
    let pcs = stream.iter().map(|&(id, _)| Pc(4 * u64::from(id))).collect();
    let values = stream.iter().map(|&(_, v)| v).collect();
    (ids, pcs, values)
}

/// `predictor`'s hit column over the records, one `observe_batch` call.
fn hits(mut predictor: impl Predictor, stream: &[(u32, Value)]) -> Vec<bool> {
    let (ids, pcs, values) = columns(stream);
    let mut hits = vec![false; ids.len()];
    predictor.observe_batch(&ids, &pcs, &values, &mut hits);
    hits
}

/// The fold over the lone parts' columns, `chunk` records per call.
fn folded(order: usize, stream: &[(u32, Value)], chunk: usize) -> Vec<bool> {
    let stride = hits(StridePredictor::two_delta(), stream);
    let fcm = hits(FcmPredictor::new(order), stream);
    let (ids, _, _) = columns(stream);
    let mut fold = ChooserFold::default();
    let mut out = vec![false; ids.len()];
    for at in (0..ids.len()).step_by(chunk) {
        let to = (at + chunk).min(ids.len());
        fold.fold(&ids[at..to], &stride[at..to], &fcm[at..to], &mut out[at..to]);
    }
    out
}

/// Records over up to `pcs` instructions: values from a small alphabet,
/// and on every third instruction a stride run (each of its records the
/// instruction's previous value plus 3, unless the drawn value is 0),
/// so both parts win somewhere and the counters move both ways.
fn arb_stream(pcs: u32, alphabet: u64) -> impl Strategy<Value = Vec<(u32, Value)>> {
    prop::collection::vec((0..pcs, 0..alphabet), 1..800).prop_map(move |draws| {
        let mut last = vec![0u64; pcs as usize];
        draws
            .into_iter()
            .map(|(id, v)| {
                let slot = &mut last[id as usize];
                *slot = if id % 3 == 0 && v != 0 { *slot + 3 } else { v };
                (id, *slot)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Orders 0 to 4, two to sixteen values, one to forty instructions,
    /// folded at any chunking: the fold is the hybrid's column.
    #[test]
    fn stride_fcm_hits_are_the_fold_of_its_parts_hits(
        order in 0usize..=4,
        stream in (1u32..=40, prop_oneof![Just(2u64), Just(4), Just(16)])
            .prop_flat_map(|(pcs, alphabet)| arb_stream(pcs, alphabet)),
        chunk in 1usize..=97,
    ) {
        let hybrid = HybridPredictor::stride_fcm(order);
        prop_assert_eq!(hybrid.bank_form(), Some(BankForm::StrideFcm(order)));
        prop_assert_eq!(folded(order, &stream, chunk), hits(hybrid, &stream));
    }
}

/// A single-order FCM answers `None` where its order-2 context is new, so
/// a hybrid whose chooser favours it falls back to stride there; the fold,
/// which reads the FCM part's miss, does not. Such a hybrid declares no
/// bank form, and so replays whole.
#[test]
fn the_fold_fails_for_a_single_order_fcm_part() {
    // One instruction: an alternation stride never learns (the counter
    // climbs to the FCM part), then a stride run of contexts it never saw.
    let stream: Vec<(u32, Value)> = [7, 3]
        .repeat(20)
        .into_iter()
        .chain((0..20).map(|i| 100 + 10 * i))
        .map(|v| (0, v))
        .collect();
    let single = || FcmPredictor::with_config(2, Blending::SingleOrder);
    let hybrid = HybridPredictor::new(StridePredictor::two_delta(), single());
    assert_eq!(hybrid.bank_form(), None);
    let want = hits(hybrid, &stream);

    let stride = hits(StridePredictor::two_delta(), &stream);
    let fcm = hits(single(), &stream);
    let (ids, _, _) = columns(&stream);
    let mut got = vec![false; ids.len()];
    ChooserFold::default().fold(&ids, &stride, &fcm, &mut got);
    // Once stride has its delta, each stride hit the FCM part misses
    // moves the counter down from 8: the hybrid hits those eight records
    // by its fallback, the fold misses them.
    let differ: Vec<usize> = (0..got.len()).filter(|&i| got[i] != want[i]).collect();
    assert_eq!(differ, (43..51).collect::<Vec<_>>());
    assert!(differ.iter().all(|&i| want[i] && stride[i] && !fcm[i]));
}

/// The declaration reads the parts, in their places: a lazy-exclusion FCM
/// second behind a two-delta stride first, and nothing else.
#[test]
fn only_a_two_delta_stride_then_lazy_fcm_hybrid_declares_the_form() {
    use dvp_core::{LastValuePredictor, StridePolicy};
    let fcm = || FcmPredictor::new(3);
    let two_delta = StridePredictor::two_delta;
    assert_eq!(HybridPredictor::new(two_delta(), fcm()).bank_form(), Some(BankForm::StrideFcm(3)));
    let hysteresis = StridePredictor::with_policy(StridePolicy::Hysteresis);
    assert_eq!(HybridPredictor::new(hysteresis, fcm()).bank_form(), None);
    assert_eq!(HybridPredictor::new(fcm(), two_delta()).bank_form(), None);
    assert_eq!(HybridPredictor::new(LastValuePredictor::new(), fcm()).bank_form(), None);
    assert_eq!(HybridPredictor::new(two_delta(), two_delta()).bank_form(), None);
}
