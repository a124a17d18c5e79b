//! The common interface of all value predictors, and the `Pc`-keyed
//! adapter over it.

use dvp_trace::{Pc, PcId, PcInterner, Value};
use std::ops::Deref;

/// What [`Predictor::bank_form`] declares: one of the paper's predictors
/// that the replay engine may run inside an [`FcmBank`](crate::FcmBank)
/// job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankForm {
    /// [`StridePredictor::two_delta`](crate::StridePredictor::two_delta):
    /// the first part of a [`BankForm::StrideFcm`]. A lone one replays on
    /// its own.
    TwoDeltaStride,
    /// [`FcmPredictor::new`](crate::FcmPredictor::new) of this order
    /// (lazy exclusion): one member of a bank.
    Fcm(usize),
    /// A two-delta stride first and a lazy-exclusion FCM of this order
    /// second under the ±8 chooser, as
    /// [`HybridPredictor::stride_fcm`](crate::HybridPredictor::stride_fcm)
    /// builds it: derived from the order's bank column when the bank has
    /// one.
    StrideFcm(usize),
}

/// A data value predictor in the paper's idealized setting.
///
/// A predictor is a map from microarchitectural state to a predicted next
/// value. Following Section 2 of Sazeides & Smith (1997), predictors here:
///
/// * are indexed **only** by the program counter of the instruction being
///   predicted (one table entry per static instruction, no aliasing,
///   unbounded tables);
/// * are updated **immediately** after each prediction with the true value
///   (no update latency).
///
/// # Keying
///
/// Every method names the instruction twice: by its dense [`PcId`] (from
/// the caller's [`PcInterner`]) and by its [`Pc`]. The unbounded
/// predictors keep one slot per id in a flat vector and ignore the PC; the
/// finite, aliased tables ([`TableSpec`](crate::TableSpec)) index by PC
/// bits and ignore the id. The one caller obligation is id consistency:
/// all ids passed to one instance must come from a single interner. The
/// replay engine passes its trace's ids; [`Interned`] wraps a predictor
/// with an interner of its own for callers that only have PCs.
///
/// [`step`](Predictor::step) is the whole protocol: it returns the
/// prediction in force *before* `actual` is learned, then learns it. A
/// `None` prediction (e.g. the first dynamic instance of an instruction) is
/// counted as incorrect, exactly as an implementation that must always
/// produce *some* value would at best guess.
///
/// # Examples
///
/// ```
/// use dvp_core::{LastValuePredictor, Predictor};
/// use dvp_trace::{Pc, PcId};
///
/// let mut p = LastValuePredictor::new();
/// let (id, pc) = (PcId(0), Pc(0x400100));
/// assert_eq!(p.step(id, pc, 7), None); // nothing seen yet
/// assert_eq!(p.predict(id, pc), Some(7));
/// ```
///
/// Predictors are `Send + Sync` so traces can be processed from worker
/// threads and results cached in statics; every table type in this crate
/// (dense slot vectors of plain values) satisfies this automatically.
pub trait Predictor: Send + Sync {
    /// A short human-readable name (used in experiment reports),
    /// e.g. `"l"`, `"s2"`, `"fcm3"`. Names are fixed at construction;
    /// calling this allocates nothing.
    fn name(&self) -> &str;

    /// Number of occupied per-instruction slots (report-time only: this
    /// may scan the table).
    fn static_entries(&self) -> usize;

    /// Pre-sizes dense state for `n` interned ids (a no-op for predictors
    /// without dense state). The replay engine calls this with the trace
    /// interner's length before a replay.
    fn reserve_ids(&mut self, n: usize) {
        let _ = n;
    }

    /// Whether every prediction for an instruction depends only on that
    /// instruction's own earlier values: state lives in one slot per
    /// [`PcId`], no slot is shared, and nothing outside the slots changes
    /// a prediction. The unbounded `l`, `s2` and FCM predictors declare
    /// it; the finite tables (aliased by PC bits) and delayed updates (one
    /// queue over every instruction) keep the default, `false`.
    ///
    /// The replay engine reads this once per configuration per replay: a
    /// predictor that declares it replays each instruction's records on
    /// their own, with fresh state; any other is refused.
    fn keeps_per_id_state(&self) -> bool {
        false
    }

    /// Which of the paper's predictors this instance is, when the replay
    /// engine may run it inside an [`FcmBank`](crate::FcmBank) job:
    /// [`StridePredictor::two_delta`](crate::StridePredictor::two_delta),
    /// [`FcmPredictor::new`](crate::FcmPredictor::new), or a hybrid of the
    /// two ([`HybridPredictor::stride_fcm`](crate::HybridPredictor::stride_fcm)).
    /// Every other predictor keeps the default, `None`.
    ///
    /// The engine reads this from one built instance per configuration
    /// per replay, never from a name: a lazy-exclusion FCM becomes a
    /// member of its bank's shared table, and a stride/FCM hybrid whose
    /// order the bank also replays takes its FCM part from that member's
    /// hit column ([`ChooserFold`](crate::ChooserFold)).
    fn bank_form(&self) -> Option<BankForm> {
        None
    }

    /// The predicted next value of the instruction `id` (at `pc`), or
    /// `None` when no prediction can be made yet.
    fn predict(&self, id: PcId, pc: Pc) -> Option<Value>;

    /// Predict-then-update: returns the prediction that was in force
    /// *before* `actual` was learned, and learns it (tables are updated
    /// immediately — the paper's idealization). In-crate predictors locate
    /// the instruction's slot once and do both halves on it.
    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value>;

    /// Batched [`step`](Predictor::step): replays a run of records in
    /// order, writing whether each record was predicted correctly into
    /// `correct`.
    ///
    /// Semantically this **is** the per-record loop — the default does
    /// exactly `correct[i] = self.step(ids[i], pcs[i], values[i]) ==
    /// Some(values[i])` for each `i` in order, and implementations must
    /// preserve that equivalence bit for bit (the engine's determinism
    /// guarantee rests on batch boundaries being invisible). The point of
    /// the method is dispatch amortization: a replay loop driving a
    /// `Box<dyn Predictor>` pays one virtual call per *chunk* instead of
    /// one per record, and the per-record calls inside the default body
    /// dispatch statically on the concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the four slices have different lengths.
    fn observe_batch(&mut self, ids: &[PcId], pcs: &[Pc], values: &[Value], correct: &mut [bool]) {
        assert!(
            ids.len() == pcs.len() && pcs.len() == values.len() && values.len() == correct.len(),
            "observe_batch slice lengths differ"
        );
        for i in 0..ids.len() {
            correct[i] = self.step(ids[i], pcs[i], values[i]) == Some(values[i]);
        }
    }
}

impl<P: Predictor + ?Sized> Predictor for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn static_entries(&self) -> usize {
        (**self).static_entries()
    }

    fn reserve_ids(&mut self, n: usize) {
        (**self).reserve_ids(n)
    }

    fn keeps_per_id_state(&self) -> bool {
        (**self).keeps_per_id_state()
    }

    fn bank_form(&self) -> Option<BankForm> {
        (**self).bank_form()
    }

    fn predict(&self, id: PcId, pc: Pc) -> Option<Value> {
        (**self).predict(id, pc)
    }

    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        (**self).step(id, pc, actual)
    }

    fn observe_batch(&mut self, ids: &[PcId], pcs: &[Pc], values: &[Value], correct: &mut [bool]) {
        (**self).observe_batch(ids, pcs, values, correct)
    }
}

/// A predictor driven by PC alone: it owns the one [`PcInterner`] that
/// numbers the PCs it is fed, so its ids always come from one interner.
///
/// [`predict`](Interned::predict) on a PC never stepped passes the next
/// free id, which no dense slot holds yet (so unbounded tables answer
/// `None`), while the finite tables still see the PC and its aliasing.
/// Read access to the wrapped predictor goes through `Deref`; there is no
/// mutable access, which would let foreign ids in.
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, Predictor, StridePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(StridePredictor::two_delta());
/// let pc = Pc(0x80);
/// for v in [10, 20, 30] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(40));
/// assert!(p.observe(pc, 40));
/// assert_eq!(p.static_entries(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Interned<P: ?Sized> {
    interner: PcInterner,
    predictor: P,
}

impl<P: Predictor> Interned<P> {
    /// Wraps `predictor`, which must not have been driven by ids yet.
    #[must_use]
    pub fn new(predictor: P) -> Self {
        Interned { interner: PcInterner::new(), predictor }
    }

    /// The wrapped predictor, with the interner dropped.
    #[must_use]
    pub fn into_inner(self) -> P {
        self.predictor
    }
}

impl<P: Predictor + ?Sized> Interned<P> {
    /// The predicted next value of the instruction at `pc`.
    #[must_use]
    pub fn predict(&self, pc: Pc) -> Option<Value> {
        let next = || PcId(u32::try_from(self.interner.len()).expect("more than u32::MAX PCs"));
        self.predictor.predict(self.interner.get(pc).unwrap_or_else(next), pc)
    }

    /// [`Predictor::step`] keyed by PC.
    pub fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let id = self.interner.intern(pc);
        self.predictor.step(id, pc, actual)
    }

    /// Learns `actual` for `pc` (a [`step`](Interned::step) whose
    /// prediction is dropped).
    pub fn update(&mut self, pc: Pc, actual: Value) {
        let _ = self.step(pc, actual);
    }

    /// Steps and returns whether the prediction was made and correct.
    pub fn observe(&mut self, pc: Pc, actual: Value) -> bool {
        self.step(pc, actual) == Some(actual)
    }
}

impl<P: ?Sized> Deref for Interned<P> {
    type Target = P;

    fn deref(&self) -> &P {
        &self.predictor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LastValuePredictor;

    #[test]
    fn observe_is_step_then_compare() {
        let mut p = Interned::new(LastValuePredictor::new());
        let pc = Pc(8);
        assert!(!p.observe(pc, 3)); // no prior history: incorrect
        assert!(p.observe(pc, 3)); // last value repeats: correct
        assert!(!p.observe(pc, 4)); // changed: incorrect
        assert!(p.observe(pc, 4));
    }

    #[test]
    fn step_returns_the_pre_update_prediction() {
        let mut p = LastValuePredictor::new();
        let (id, pc) = (PcId(0), Pc(8));
        assert_eq!(p.step(id, pc, 3), None);
        assert_eq!(p.step(id, pc, 4), Some(3));
        assert_eq!(p.step(id, pc, 5), Some(4));
    }

    #[test]
    fn interned_numbers_pcs_in_first_appearance_order() {
        let mut p = Interned::new(LastValuePredictor::new());
        p.update(Pc(16), 1);
        p.update(Pc(4), 2);
        let inner: &LastValuePredictor = &p;
        assert_eq!(inner.predict(PcId(0), Pc(0)), Some(1));
        assert_eq!(inner.predict(PcId(1), Pc(0)), Some(2));
        // A never-stepped PC reads the next free id: an empty slot.
        assert_eq!(p.predict(Pc(8)), None);
        assert_eq!(p.static_entries(), 2);
        assert_eq!(p.into_inner().static_entries(), 2);
    }

    #[test]
    fn observe_batch_matches_the_per_record_loop() {
        let mut batched: Box<dyn Predictor> = Box::new(LastValuePredictor::new());
        let mut looped = LastValuePredictor::new();
        let stream: Vec<(PcId, Pc, Value)> =
            [(0u32, 8u64, 3u64), (1, 16, 4), (0, 8, 3), (0, 8, 5), (1, 16, 4)]
                .into_iter()
                .map(|(id, pc, v)| (PcId(id), Pc(pc), v))
                .collect();
        let ids: Vec<PcId> = stream.iter().map(|r| r.0).collect();
        let pcs: Vec<Pc> = stream.iter().map(|r| r.1).collect();
        let values: Vec<Value> = stream.iter().map(|r| r.2).collect();
        let mut correct = vec![false; stream.len()];
        batched.observe_batch(&ids, &pcs, &values, &mut correct);
        for (i, &(id, pc, v)) in stream.iter().enumerate() {
            assert_eq!(correct[i], looped.step(id, pc, v) == Some(v), "record {i}");
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn observe_batch_rejects_mismatched_lengths() {
        let mut p = LastValuePredictor::new();
        let mut correct = [false; 2];
        p.observe_batch(&[PcId(0)], &[Pc(8)], &[3], &mut correct);
    }

    #[test]
    fn boxed_predictor_delegates() {
        let mut p: Box<dyn Predictor> = Box::new(LastValuePredictor::new());
        let pc = Pc(16);
        p.reserve_ids(4);
        assert_eq!(p.step(PcId(0), pc, 9), None);
        assert_eq!(p.predict(PcId(0), pc), Some(9));
        assert_eq!(p.name(), "l");
        assert_eq!(p.static_entries(), 1);
        assert_eq!(p.step(PcId(0), pc, 9), Some(9));
    }
}
