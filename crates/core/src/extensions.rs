//! Computational predictors beyond last-value and stride — the directions
//! the paper sketches in Sections 2.1 and 4.1 but does not evaluate:
//!
//! * [`ShiftPredictor`] — "for shifts a computational predictor might shift
//!   the last value according to the last shift distance to arrive at a
//!   prediction" (Section 4.1);
//! * [`TwoLevelStridePredictor`] — "one could use two different strides, an
//!   'inner' one and an 'outer' one – typically corresponding to loop nests
//!   – to eliminate the mispredictions that occur at the beginning of
//!   repeating stride sequences" (Section 2.1).

use crate::table::PcTable;
use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// Finds the shift distance `k` (`-63..=63`, negative = right shift) such
/// that shifting `from` by `k` yields `to`, if any. Zero inputs and the
/// identity are excluded (they carry no shift information).
fn shift_distance(from: Value, to: Value) -> Option<i8> {
    if from == 0 || to == 0 || from == to {
        return None;
    }
    for k in 1..64u32 {
        if from << k == to {
            return Some(k as i8);
        }
        if from >> k == to {
            return Some(-(k as i8));
        }
    }
    None
}

fn apply_shift(value: Value, k: i8) -> Value {
    if k >= 0 {
        value.wrapping_shl(u32::from(k.unsigned_abs()))
    } else {
        value.wrapping_shr(u32::from(k.unsigned_abs()))
    }
}

#[derive(Debug, Clone)]
struct ShiftEntry {
    last: Value,
    /// The shift used for predictions (adopted after two sightings, like
    /// the two-delta stride rule).
    shift: Option<i8>,
    /// Most recently observed shift.
    last_shift: Option<i8>,
}

/// A computational predictor whose operation matches shift instructions:
/// it predicts `last << k` (or `>>`), where `k` is the shift distance
/// relating the two most recent values.
///
/// Like the two-delta stride predictor, the prediction shift is replaced
/// only when the same new distance is observed twice in a row. When no
/// shift relation is present, it degenerates to last-value prediction —
/// matching how the stride predictor degenerates on constants.
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, ShiftPredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(ShiftPredictor::new());
/// let pc = Pc(0x44);
/// for v in [1u64, 2, 4, 8] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(16));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShiftPredictor {
    table: PcTable<ShiftEntry>,
}

impl ShiftPredictor {
    /// Creates an empty shift predictor.
    #[must_use]
    pub fn new() -> Self {
        ShiftPredictor::default()
    }

    fn predict_entry(entry: &ShiftEntry) -> Value {
        match entry.shift {
            Some(k) => apply_shift(entry.last, k),
            None => entry.last,
        }
    }

    fn update_entry(e: &mut ShiftEntry, actual: Value) {
        let observed = shift_distance(e.last, actual);
        if observed.is_some() && observed == e.last_shift {
            e.shift = observed;
        } else if observed.is_none() && e.last_shift.is_none() {
            // Two consecutive non-shift transitions: fall back to
            // last-value behaviour.
            e.shift = None;
        }
        e.last_shift = observed;
        e.last = actual;
    }

    /// The fused slot step: one state access for predict + update.
    fn step_slot(slot: &mut Option<ShiftEntry>, actual: Value) -> Option<Value> {
        match slot {
            Some(entry) => {
                let prediction = Self::predict_entry(entry);
                Self::update_entry(entry, actual);
                Some(prediction)
            }
            None => {
                *slot = Some(ShiftEntry { last: actual, shift: None, last_shift: None });
                None
            }
        }
    }
}

impl Predictor for ShiftPredictor {
    fn name(&self) -> &str {
        "shift"
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.table.reserve(n);
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        self.table.get(id).map(Self::predict_entry)
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        Self::step_slot(self.table.slot_mut(id), actual)
    }
}

#[derive(Debug, Clone)]
struct TwoLevelEntry {
    last: Value,
    // Inner stride, two-delta style.
    inner: Value,
    inner_last: Value,
    // Learned period: values per inner run.
    period: Option<u64>,
    last_period: Option<u64>,
    steps_in_run: u64,
    // Outer stride: delta between successive run starts, two-delta style.
    run_start: Value,
    outer: Option<Value>,
    outer_last: Option<Value>,
}

/// A two-level (inner/outer) stride predictor for nested-loop value
/// patterns such as `0 1 2 3, 100 101 102 103, 200 …`.
///
/// The inner stride behaves exactly like the two-delta stride predictor.
/// In addition, the predictor learns the *period* (run length) and the
/// *outer stride* (delta between run start values); once both have been
/// confirmed twice, the wrap-around value is predicted too — eliminating
/// the one-miss-per-iteration floor of plain stride prediction on repeated
/// stride sequences.
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, TwoLevelStridePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(TwoLevelStridePredictor::new());
/// let pc = Pc(0x88);
/// // Four runs of 0..4 stepped by 100 teach the period and outer stride
/// // (each needs two confirming run boundaries)...
/// for run in 0..4u64 {
///     for i in 0..4u64 {
///         p.update(pc, 100 * run + i);
///     }
/// }
/// // ...so the *start of the next run* is predicted correctly.
/// assert_eq!(p.predict(pc), Some(400));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TwoLevelStridePredictor {
    table: PcTable<TwoLevelEntry>,
}

impl TwoLevelStridePredictor {
    /// Creates an empty two-level stride predictor.
    #[must_use]
    pub fn new() -> Self {
        TwoLevelStridePredictor::default()
    }

    fn predict_entry(e: &TwoLevelEntry) -> Value {
        if let (Some(period), Some(outer)) = (e.period, e.outer) {
            // At the end of a confirmed run, predict the next run's start.
            if e.steps_in_run + 1 >= period {
                return e.run_start.wrapping_add(outer);
            }
        }
        e.last.wrapping_add(e.inner)
    }

    /// The fused slot step: one state access for predict + update.
    fn step_slot(slot: &mut Option<TwoLevelEntry>, actual: Value) -> Option<Value> {
        let prediction = slot.as_ref().map(Self::predict_entry);
        let entry = slot.get_or_insert(TwoLevelEntry {
            last: actual,
            inner: 0,
            inner_last: 0,
            period: None,
            last_period: None,
            steps_in_run: 0,
            run_start: actual,
            outer: None,
            outer_last: None,
        });
        Self::update_entry(entry, actual);
        prediction
    }

    fn update_entry(entry: &mut TwoLevelEntry, actual: Value) {
        if entry.steps_in_run == 0 && entry.last == actual && entry.inner == 0 {
            // Freshly inserted entry (or a constant start): nothing to
            // learn yet.
            return;
        }
        let delta = actual.wrapping_sub(entry.last);
        if delta == entry.inner || entry.inner == 0 && delta == entry.inner_last {
            // Continuing the inner run (or confirming a new inner stride).
            if delta == entry.inner_last {
                entry.inner = delta;
            }
            entry.inner_last = delta;
            entry.steps_in_run += 1;
        } else {
            // Run boundary: learn period and outer stride two-delta style.
            let run_len = entry.steps_in_run + 1;
            if Some(run_len) == entry.last_period {
                entry.period = Some(run_len);
            }
            entry.last_period = Some(run_len);

            let outer_delta = actual.wrapping_sub(entry.run_start);
            if Some(outer_delta) == entry.outer_last {
                entry.outer = Some(outer_delta);
            }
            entry.outer_last = Some(outer_delta);

            entry.run_start = actual;
            entry.steps_in_run = 0;
            entry.inner_last = delta;
        }
        entry.last = actual;
    }
}

impl Predictor for TwoLevelStridePredictor {
    fn name(&self) -> &str {
        "s2level"
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.table.reserve(n);
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        self.table.get(id).map(Self::predict_entry)
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        Self::step_slot(self.table.slot_mut(id), actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequences::{measure_learning, repeated_stride};
    use crate::{Interned, StridePredictor};

    const PC: Pc = Pc(0x700);

    #[test]
    fn shift_distance_finds_left_and_right() {
        assert_eq!(shift_distance(1, 8), Some(3));
        assert_eq!(shift_distance(8, 1), Some(-3));
        assert_eq!(shift_distance(3, 48), Some(4));
        assert_eq!(shift_distance(5, 7), None);
        assert_eq!(shift_distance(0, 8), None);
        assert_eq!(shift_distance(4, 4), None);
    }

    #[test]
    fn shift_predictor_learns_doubling() {
        let mut p = ShiftPredictor::new();
        let seq: Vec<Value> = (0..20).map(|i| 1u64 << i).collect();
        let learning = measure_learning(&mut p, &seq);
        // Two values set last_shift, the third confirms: correct from then.
        assert!(learning.learning_time.unwrap() <= 3);
        assert!(learning.learning_degree > 0.99);
    }

    #[test]
    fn shift_predictor_learns_halving() {
        let mut p = Interned::new(ShiftPredictor::new());
        for v in [4096u64, 1024, 256, 64] {
            p.update(PC, v);
        }
        assert_eq!(p.predict(PC), Some(16));
    }

    #[test]
    fn shift_predictor_beats_stride_on_geometric_sequences() {
        let seq: Vec<Value> = (0..30).map(|i| 3u64 << i).collect();
        let shift = measure_learning(&mut ShiftPredictor::new(), &seq);
        let stride = measure_learning(&mut StridePredictor::two_delta(), &seq);
        assert!(shift.accuracy() > 0.8, "{}", shift.accuracy());
        assert!(stride.accuracy() < 0.1, "{}", stride.accuracy());
    }

    #[test]
    fn shift_predictor_degenerates_to_last_value_on_constants() {
        let mut p = Interned::new(ShiftPredictor::new());
        for _ in 0..5 {
            p.update(PC, 42);
        }
        assert_eq!(p.predict(PC), Some(42));
    }

    #[test]
    fn shift_predictor_does_not_adopt_single_outlier() {
        let mut p = Interned::new(ShiftPredictor::new());
        for v in [7u64, 7, 7, 14, 7, 7] {
            p.update(PC, v);
        }
        // One doubling among constants must not switch it to shifting.
        assert_eq!(p.predict(PC), Some(7));
    }

    #[test]
    fn two_level_eliminates_wrap_misses() {
        // Plain stride gets one miss per period on repeated strides; the
        // two-level predictor should reach (nearly) zero in steady state.
        let seq = repeated_stride(1, 1, 6, 240);
        let two_level = measure_learning(&mut TwoLevelStridePredictor::new(), &seq);
        let plain = measure_learning(&mut StridePredictor::two_delta(), &seq);
        assert!(two_level.learning_degree > 0.97, "two-level LD {}", two_level.learning_degree);
        assert!(plain.learning_degree < 0.90, "plain LD {}", plain.learning_degree);
    }

    #[test]
    fn two_level_learns_outer_stride() {
        let mut p = TwoLevelStridePredictor::new();
        let mut seq = Vec::new();
        for run in 0..8u64 {
            for i in 0..5u64 {
                seq.push(1000 * run + i);
            }
        }
        let learning = measure_learning(&mut p, &seq);
        // Period and outer stride each need two boundaries to confirm;
        // after that every value, including wrap-arounds, predicts.
        assert!(learning.learning_degree > 0.9, "{learning:?}");
    }

    #[test]
    fn two_level_still_handles_plain_strides() {
        let mut p = TwoLevelStridePredictor::new();
        let seq: Vec<Value> = (0..50).map(|i| 10 + 3 * i).collect();
        let learning = measure_learning(&mut p, &seq);
        assert!(learning.learning_degree > 0.99);
    }

    #[test]
    fn two_level_handles_constants() {
        let mut p = Interned::new(TwoLevelStridePredictor::new());
        for _ in 0..10 {
            p.update(PC, 5);
        }
        assert_eq!(p.predict(PC), Some(5));
    }

    #[test]
    fn names_and_entries() {
        let mut s = Interned::new(ShiftPredictor::new());
        let mut t = Interned::new(TwoLevelStridePredictor::new());
        s.update(PC, 1);
        t.update(PC, 1);
        assert_eq!(s.name(), "shift");
        assert_eq!(t.name(), "s2level");
        assert_eq!(s.static_entries(), 1);
        assert_eq!(t.static_entries(), 1);
    }
}
