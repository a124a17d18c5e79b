//! Hybrid prediction with a per-PC chooser.
//!
//! Section 4.2 of the paper observes that almost 60% of the correct FCM
//! predictions are also captured by the (cheaper) stride predictor and
//! concludes that "a hybrid scheme might be useful for enabling high
//! prediction accuracies at lower cost". The paper stops at the motivation;
//! this module provides the implied design: two component predictors and a
//! saturating-counter chooser indexed by PC — the same structure proposed
//! for hybrid branch predictors (McFarling, 1993).
//!
//! # The stride/FCM hybrid from its parts' hits
//!
//! A hybrid whose two parts both predict from an instruction's second
//! record onward hits exactly where the part its chooser counter picks
//! hits: the arbitration's fallback to the other part never fires. That
//! holds for [`HybridPredictor::stride_fcm`]: two-delta stride has its
//! entry after one record, and a lazy-exclusion FCM its order-0 context.
//! On the first record both parts answer `None`, so both miss and the
//! counter stays put. So every record's hit is `if c > 0 { fcm_hit } else
//! { stride_hit }`, with `c` the instruction's counter moved by those two
//! hits as [`train_chooser`] moves it, and [`ChooserFold`] computes the
//! hybrid's hit column from its parts' columns alone. The replay engine
//! uses this to take the FCM part from an [`FcmBank`](crate::FcmBank)
//! member it replays anyway. A single-order FCM part
//! ([`Blending::SingleOrder`](crate::Blending::SingleOrder)) answers
//! `None` until its order-`k` context recurs while stride already
//! predicts, so the fold does not hold for it.

use crate::table::PcTable;
use crate::{BankForm, FcmPredictor, Predictor, StridePredictor};
use dvp_trace::{Pc, PcId, Value};

/// Saturation bound of the unbounded hybrid's chooser counters (range
/// `-8..=8`); the finite hybrid's chooser saturates at 3.
const CHOOSER_MAX: i16 = 8;

/// Arbitrates two component predictions under an instruction's chooser
/// counter (0 for an instruction without one): the second's when the
/// counter is positive, else the first's, each falling back to the other.
///
/// With [`train_chooser`], this is the whole chooser rule: the unbounded
/// hybrid keeps its counters by dense id, the finite one in a direct-mapped
/// table.
#[inline]
pub(crate) fn arbitrate(counter: i16, a: Option<Value>, b: Option<Value>) -> Option<Value> {
    if counter > 0 {
        b.or(a)
    } else {
        a.or(b)
    }
}

/// The fused chooser step: arbitrates the components' pre-update
/// predictions `a` and `b` under `slot`'s counter, then moves the counter
/// toward the component that was right while the other was wrong (no
/// movement on ties), saturating at `±max`.
#[inline]
pub(crate) fn train_chooser(
    slot: &mut Option<i16>,
    max: i16,
    (a, b): (Option<Value>, Option<Value>),
    actual: Value,
) -> Option<Value> {
    let counter = slot.get_or_insert(0);
    let prediction = arbitrate(*counter, a, b);
    train(counter, max, a == Some(actual), b == Some(actual));
    prediction
}

/// Moves a chooser counter toward the component that was right while the
/// other was wrong (no movement on ties), saturating at `±max`.
#[inline]
fn train(counter: &mut i16, max: i16, a_correct: bool, b_correct: bool) {
    if a_correct != b_correct {
        *counter = if b_correct { (*counter + 1).min(max) } else { (*counter - 1).max(-max) };
    }
}

/// The ±8 chooser of a [`HybridPredictor`] run over its parts' hit
/// columns instead of their predictions: exact for a hybrid whose parts
/// both predict from an instruction's second record onward, such as
/// [`HybridPredictor::stride_fcm`] (see the module docs).
///
/// # Examples
///
/// ```
/// use dvp_core::{ChooserFold, FcmPredictor, HybridPredictor, Predictor, StridePredictor};
/// use dvp_trace::{Pc, PcId};
///
/// let values = [4u64, 8, 12, 7, 3, 7, 3, 7, 3, 16, 20];
/// let (ids, pcs) = ([PcId(0); 11], [Pc(0); 11]);
/// let column = |mut p: Box<dyn Predictor>| {
///     let mut hits = [false; 11];
///     p.observe_batch(&ids, &pcs, &values, &mut hits);
///     hits
/// };
/// let stride = column(Box::new(StridePredictor::two_delta()));
/// let fcm = column(Box::new(FcmPredictor::new(1)));
/// let mut folded = [false; 11];
/// ChooserFold::default().fold(&ids, &stride, &fcm, &mut folded);
/// assert_eq!(folded, column(Box::new(HybridPredictor::stride_fcm(1))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChooserFold {
    counters: PcTable<i16>,
}

impl ChooserFold {
    /// Replays a run of records in order: writes into `hits[i]` whether
    /// the hybrid predicted record `i` (of instruction `ids[i]`) correctly,
    /// given whether its first part (`first[i]`) and its second
    /// (`second[i]`) did, and moves that instruction's counter.
    ///
    /// # Panics
    ///
    /// Panics if the four slices have different lengths.
    pub fn fold(&mut self, ids: &[PcId], first: &[bool], second: &[bool], hits: &mut [bool]) {
        assert!(
            ids.len() == first.len() && first.len() == second.len() && second.len() == hits.len(),
            "fold slice lengths differ"
        );
        for (i, &id) in ids.iter().enumerate() {
            let counter = self.counters.slot_mut(id).get_or_insert(0);
            hits[i] = if *counter > 0 { second[i] } else { first[i] };
            train(counter, CHOOSER_MAX, first[i], second[i]);
        }
    }
}

/// A two-component hybrid value predictor.
///
/// Both components run (predict and update) on every dynamic instruction;
/// the chooser picks which component's prediction is used. The chooser
/// counter moves toward the second component when it was correct and the
/// first was not, and toward the first in the converse case; ties leave it
/// unchanged.
///
/// # Examples
///
/// ```
/// use dvp_core::{FcmPredictor, HybridPredictor, Interned, StridePredictor};
/// use dvp_trace::Pc;
///
/// let mut hybrid = Interned::new(HybridPredictor::stride_fcm(2));
/// let pc = Pc(0x44);
/// // A plain stride sequence: the stride side carries it.
/// for v in (0..30u64).map(|i| 3 * i) {
///     hybrid.observe(pc, v);
/// }
/// assert_eq!(hybrid.predict(pc), Some(90));
/// ```
#[derive(Debug)]
pub struct HybridPredictor<A, B> {
    first: A,
    second: B,
    name: String,
    chooser: PcTable<i16>,
}

impl HybridPredictor<StridePredictor, FcmPredictor> {
    /// The hybrid the paper motivates: two-delta stride + order-`order` FCM.
    #[must_use]
    pub fn stride_fcm(order: usize) -> Self {
        HybridPredictor::new(StridePredictor::two_delta(), FcmPredictor::new(order))
    }
}

impl<A: Predictor, B: Predictor> HybridPredictor<A, B> {
    /// Creates a hybrid of `first` and `second` with a ±8 saturating chooser.
    #[must_use]
    pub fn new(first: A, second: B) -> Self {
        let name = format!("hybrid({}+{})", first.name(), second.name());
        HybridPredictor { first, second, name, chooser: PcTable::default() }
    }

    /// Which component the chooser currently favours for instruction `id`
    /// (`false` = first, `true` = second). Unseen instructions default to
    /// the first component.
    #[must_use]
    pub fn favours_second(&self, id: PcId) -> bool {
        self.chooser.get(id).is_some_and(|&c| c > 0)
    }
}

impl<A: Predictor, B: Predictor> Predictor for HybridPredictor<A, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.first.static_entries().max(self.second.static_entries())
    }

    fn reserve_ids(&mut self, n: usize) {
        self.chooser.reserve(n);
        self.first.reserve_ids(n);
        self.second.reserve_ids(n);
    }

    fn keeps_per_id_state(&self) -> bool {
        self.first.keeps_per_id_state() && self.second.keeps_per_id_state()
    }

    fn bank_form(&self) -> Option<BankForm> {
        match (self.first.bank_form(), self.second.bank_form()) {
            (Some(BankForm::TwoDeltaStride), Some(BankForm::Fcm(order))) => {
                Some(BankForm::StrideFcm(order))
            }
            _ => None,
        }
    }

    #[inline]
    fn predict(&self, id: PcId, pc: Pc) -> Option<Value> {
        let (a, b) = (self.first.predict(id, pc), self.second.predict(id, pc));
        arbitrate(self.chooser.get(id).map_or(0, |&c| c), a, b)
    }

    #[inline]
    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        // Each component's fused step returns its pre-update prediction
        // and trains it in the same walk (the components' states are
        // independent, so stepping `first` before predicting `second`
        // changes nothing); the chooser slot is located once for both the
        // arbitration read and the training write.
        let a = self.first.step(id, pc, actual);
        let b = self.second.step(id, pc, actual);
        train_chooser(self.chooser.slot_mut(id), CHOOSER_MAX, (a, b), actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interned, LastValuePredictor};

    const PC: Pc = Pc(0x500);

    fn accuracy<P: Predictor>(p: &mut Interned<P>, seq: &[Value]) -> f64 {
        let correct = seq.iter().filter(|&&v| p.observe(PC, v)).count();
        correct as f64 / seq.len() as f64
    }

    #[test]
    fn hybrid_matches_stride_on_pure_strides() {
        let seq: Vec<Value> = (0..200).map(|i| 5 * i).collect();
        let mut hybrid = Interned::new(HybridPredictor::stride_fcm(2));
        let mut stride = Interned::new(StridePredictor::two_delta());
        let ha = accuracy(&mut hybrid, &seq);
        let sa = accuracy(&mut stride, &seq);
        assert!(ha >= sa - 0.02, "hybrid {ha} should track stride {sa}");
    }

    #[test]
    fn hybrid_matches_fcm_on_repeated_non_strides() {
        let period = [17u64, 3, 99, 41, 8];
        let seq: Vec<Value> = period.iter().copied().cycle().take(300).collect();
        let mut hybrid = Interned::new(HybridPredictor::stride_fcm(2));
        let mut fcm = Interned::new(FcmPredictor::new(2));
        let ha = accuracy(&mut hybrid, &seq);
        let fa = accuracy(&mut fcm, &seq);
        assert!(ha >= fa - 0.05, "hybrid {ha} should approach fcm {fa}");
        // And it must beat stride alone by a wide margin on this sequence.
        let mut stride = Interned::new(StridePredictor::two_delta());
        let sa = accuracy(&mut stride, &seq);
        assert!(ha > sa + 0.3, "hybrid {ha} vs stride {sa}");
    }

    #[test]
    fn chooser_shifts_to_better_component() {
        let mut hybrid =
            Interned::new(HybridPredictor::new(LastValuePredictor::new(), FcmPredictor::new(1)));
        // Alternating values: last-value is always wrong, fcm learns it.
        for &v in [1u64, 2].iter().cycle().take(40) {
            hybrid.observe(PC, v);
        }
        assert!(hybrid.favours_second(PcId(0)));
    }

    #[test]
    fn falls_back_to_other_component_when_favourite_has_no_prediction() {
        let mut hybrid =
            Interned::new(HybridPredictor::new(LastValuePredictor::new(), FcmPredictor::new(3)));
        hybrid.update(PC, 42);
        // Chooser defaults to first (last-value), which has a prediction.
        assert_eq!(hybrid.predict(PC), Some(42));
    }

    #[test]
    fn name_composes_component_names() {
        let hybrid = Interned::new(HybridPredictor::stride_fcm(3));
        assert_eq!(hybrid.name(), "hybrid(s2+fcm3)");
    }
}
