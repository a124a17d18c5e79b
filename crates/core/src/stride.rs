//! Stride prediction (Section 2.1 of the paper).

use crate::table::PcTable;
use crate::{BankForm, Predictor};
use dvp_trace::{Pc, PcId, Value};

/// Update policy of a [`StridePredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StridePolicy {
    /// Saturating-counter hysteresis (Gonzalez & Gonzalez, 1997): a correct
    /// prediction raises the confidence counter (up to 3), a wrong one
    /// lowers it, and the stride is replaced only while the counter is
    /// below 1. This reduces the mispredictions on repeated stride
    /// sequences to one per iteration.
    ///
    /// This is the stride predictor of the paper's Table 1 and Figure 2
    /// ("s-sat3t1").
    Hysteresis,
    /// The two-delta method (Eickemeyer & Vassiliadis, 1993): maintain two
    /// strides `s1` (always updated) and `s2` (used for prediction); `s2` is
    /// overwritten only when the same new stride is seen twice in a row.
    ///
    /// This is the variant the paper evaluates (predictor "s2").
    #[default]
    TwoDelta,
}

/// Saturation ceiling of the [`StridePolicy::Hysteresis`] counter.
const HYSTERESIS_MAX: u8 = 3;

/// Under [`StridePolicy::Hysteresis`], the stride may change only while
/// the counter is below this value.
const HYSTERESIS_THRESHOLD: u8 = 1;

#[derive(Debug, Clone)]
pub(crate) struct StrideEntry {
    last: Value,
    /// Prediction stride (`s2` in the two-delta scheme).
    stride: Value,
    /// Most recent observed delta (`s1` in the two-delta scheme).
    last_delta: Value,
    counter: u8,
}

// The unbounded table holds one entry per static instruction and the
// finite tables one per slot: three words and the counter pad to 32 bytes.
const _: () = assert!(std::mem::size_of::<StrideEntry>() == 32);

/// The stride predictor: predicts `last + stride`, where the stride is
/// derived from the difference of the two most recent values.
///
/// All stride arithmetic is performed with wrapping (modulo 2⁶⁴) semantics:
/// values are register bit patterns, and the 32-bit simulator sign-extends
/// results so that small negative strides behave correctly.
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, StridePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(StridePredictor::two_delta());
/// let pc = Pc(0x80);
/// for v in [10, 20, 30] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(40));
/// ```
#[derive(Debug, Clone)]
pub struct StridePredictor {
    policy: StridePolicy,
    table: PcTable<StrideEntry>,
}

impl Default for StridePredictor {
    fn default() -> Self {
        StridePredictor::with_policy(StridePolicy::default())
    }
}

impl StridePredictor {
    /// Creates a stride predictor with the paper's two-delta policy (the
    /// [`Default`]), named for symmetry with the paper's "s2".
    #[must_use]
    pub fn two_delta() -> Self {
        StridePredictor::with_policy(StridePolicy::TwoDelta)
    }

    /// Creates a stride predictor with the given update `policy`.
    #[must_use]
    pub fn with_policy(policy: StridePolicy) -> Self {
        StridePredictor { policy, table: PcTable::default() }
    }

    fn update_entry(policy: StridePolicy, entry: &mut StrideEntry, actual: Value) {
        let delta = actual.wrapping_sub(entry.last);
        match policy {
            StridePolicy::Hysteresis => {
                let predicted = entry.last.wrapping_add(entry.stride);
                if predicted == actual {
                    entry.counter = entry.counter.saturating_add(1).min(HYSTERESIS_MAX);
                } else {
                    entry.counter = entry.counter.saturating_sub(1);
                }
                if entry.counter < HYSTERESIS_THRESHOLD {
                    entry.stride = delta;
                }
            }
            StridePolicy::TwoDelta => {
                if delta == entry.last_delta {
                    entry.stride = delta;
                }
                entry.last_delta = delta;
            }
        }
        entry.last = actual;
    }

    /// The prediction an entry holds. With [`step_slot`](Self::step_slot),
    /// this is the whole rule: the unbounded and the finite predictors run
    /// it over their own tables.
    pub(crate) fn predict_slot(entry: Option<&StrideEntry>) -> Option<Value> {
        entry.map(|e| e.last.wrapping_add(e.stride))
    }

    /// The fused slot step: one state access serves both the prediction
    /// and the policy update.
    #[inline]
    pub(crate) fn step_slot(
        policy: StridePolicy,
        slot: &mut Option<StrideEntry>,
        actual: Value,
    ) -> Option<Value> {
        match slot {
            Some(entry) => {
                let prediction = entry.last.wrapping_add(entry.stride);
                Self::update_entry(policy, entry, actual);
                Some(prediction)
            }
            None => {
                *slot = Some(StrideEntry { last: actual, stride: 0, last_delta: 0, counter: 0 });
                None
            }
        }
    }
}

impl Predictor for StridePredictor {
    fn name(&self) -> &str {
        match self.policy {
            StridePolicy::Hysteresis => "s-sat3t1",
            StridePolicy::TwoDelta => "s2",
        }
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.table.reserve(n);
    }

    fn keeps_per_id_state(&self) -> bool {
        true
    }

    fn bank_form(&self) -> Option<BankForm> {
        (self.policy == StridePolicy::TwoDelta).then_some(BankForm::TwoDeltaStride)
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        Self::predict_slot(self.table.get(id))
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        Self::step_slot(self.policy, self.table.slot_mut(id), actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interned;

    const PC: Pc = Pc(0x200);

    fn mispredictions(policy: StridePolicy, seq: &[Value], skip: usize) -> usize {
        let mut p = Interned::new(StridePredictor::with_policy(policy));
        seq.iter()
            .enumerate()
            .filter(|&(i, &v)| {
                let wrong = p.predict(PC) != Some(v);
                p.update(PC, v);
                wrong && i >= skip
            })
            .count()
    }

    #[test]
    fn two_delta_predicts_affine_sequence_after_three_values() {
        let mut p = Interned::new(StridePredictor::two_delta());
        let seq: Vec<Value> = (0..20).map(|i| 100 + 7 * i).collect();
        let mut correct_from = None;
        for (i, &v) in seq.iter().enumerate() {
            if p.predict(PC) == Some(v) && correct_from.is_none() {
                correct_from = Some(i);
            }
            p.update(PC, v);
        }
        // v0 seeds, v1 sets s1, v2 confirms s1 into s2, v3 is predicted.
        assert_eq!(correct_from, Some(3));
    }

    #[test]
    fn two_delta_predicts_negative_strides() {
        let mut p = Interned::new(StridePredictor::two_delta());
        for v in [1000u64, 990, 980, 970] {
            p.update(PC, v);
        }
        assert_eq!(p.predict(PC), Some(960));
    }

    #[test]
    fn stride_wraps_through_zero_with_sign_extended_values() {
        // Sign-extended 32-bit sequence: -2, -1, 0, 1 as u64 bit patterns.
        let seq = [(-2i64) as u64, (-1i64) as u64, 0, 1];
        let mut p = Interned::new(StridePredictor::two_delta());
        for &v in &seq[..3] {
            p.update(PC, v);
        }
        assert_eq!(p.predict(PC), Some(1));
    }

    #[test]
    fn constant_sequence_is_a_zero_stride() {
        let mut p = Interned::new(StridePredictor::two_delta());
        p.update(PC, 5);
        assert_eq!(p.predict(PC), Some(5), "initial stride is zero: acts as last-value");
        p.update(PC, 5);
        assert_eq!(p.predict(PC), Some(5));
    }

    #[test]
    fn two_delta_mispredicts_once_per_repeat() {
        let seq: Vec<Value> = (0..40).map(|i| 1 + (i % 4)).collect();
        let miss = mispredictions(StridePolicy::TwoDelta, &seq, 4);
        assert_eq!(miss, 9, "one miss per repeated period");
    }

    #[test]
    fn hysteresis_mispredicts_once_per_repeat() {
        let seq: Vec<Value> = (0..44).map(|i| 1 + (i % 4)).collect();
        // Skip two periods: the counter needs to warm past the threshold.
        let miss = mispredictions(StridePolicy::Hysteresis, &seq, 8);
        assert_eq!(miss, 9, "one miss per repeated period");
    }

    #[test]
    fn two_delta_does_not_adopt_single_outlier_stride() {
        let mut p = Interned::new(StridePredictor::two_delta());
        for v in [10u64, 20, 30, 40] {
            p.update(PC, v);
        }
        // One outlier delta (+100), then the old stride resumes.
        p.update(PC, 140);
        // s1 is now 100 but s2 is still 10: prediction uses s2.
        assert_eq!(p.predict(PC), Some(150));
    }

    #[test]
    fn names_distinguish_policies() {
        assert_eq!(Interned::new(StridePredictor::two_delta()).name(), "s2");
        let h = Interned::new(StridePredictor::with_policy(StridePolicy::Hysteresis));
        assert_eq!(h.name(), "s-sat3t1");
    }

    #[test]
    fn static_entries_counts_distinct_pcs() {
        let mut p = Interned::new(StridePredictor::two_delta());
        for i in 0..5 {
            p.update(Pc(i * 4), i);
        }
        assert_eq!(p.static_entries(), 5);
    }
}
