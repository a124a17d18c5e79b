//! Running several predictors in lockstep and correlating their correct
//! sets (Section 4.2 / Figure 8 of the paper).

use crate::{Interned, Predictor};
use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcSlots, TraceRecord, Value};

const N_CATEGORIES: usize = InstrCategory::ALL.len();

/// Bitmask of which predictors in a [`PredictorSet`] were correct on one
/// dynamic instruction. Bit *i* corresponds to predictor *i* in insertion
/// order.
pub type CorrectMask = u32;

/// Per-PC tally used for per-static-instruction analyses (Figure 9).
#[derive(Debug, Clone, Default)]
pub struct PcTally {
    /// Dynamic occurrences of this static instruction.
    pub total: u64,
    /// Correct predictions per predictor (indexed as in the set).
    pub correct: Vec<u64>,
    /// Category of the static instruction.
    pub category: Option<InstrCategory>,
}

/// Runs a group of predictors over the same trace and records, for every
/// dynamic instruction, the *subset* of predictors that were correct.
///
/// This reproduces the methodology behind Figure 8 of the paper (the
/// `l`/`s`/`f`/`ls`/`lf`/`sf`/`lsf`/`np` breakdown) and, from its per-PC
/// tallies, Figure 9 (cumulative improvement of FCM over stride across
/// static instructions).
///
/// # Examples
///
/// ```
/// use dvp_core::{FcmPredictor, LastValuePredictor, PredictorSet, StridePredictor};
/// use dvp_trace::{InstrCategory, Observer, Pc, PcId};
///
/// let mut set = PredictorSet::new();
/// set.push(Box::new(LastValuePredictor::new()));
/// set.push(Box::new(StridePredictor::two_delta()));
/// set.push(Box::new(FcmPredictor::new(3)));
///
/// // One static instruction (id 0) producing 0, 1, 2, ...
/// let values: Vec<u64> = (0..100).collect();
/// let ids = vec![PcId(0); values.len()];
/// let pcs = vec![Pc(0x10); values.len()];
/// let categories = vec![InstrCategory::AddSub; values.len()];
/// set.observe_batch(&ids, &pcs, &values, &categories);
/// // On a pure stride sequence the stride predictor (bit 1) dominates.
/// let stride_only = set.subset_count(None, 0b010);
/// assert!(stride_only > 50);
/// ```
#[derive(Default)]
pub struct PredictorSet {
    predictors: Vec<Box<dyn Predictor>>,
    /// subset_counts[category][mask] and an extra row for "all categories".
    subset_counts: Vec<Vec<u64>>,
    /// Per-static-instruction tallies (one dense slot per PC).
    per_pc: PcSlots<PcTally>,
    total: u64,
    /// Batch scratch, reused across calls: each record's correct-set mask,
    /// and one predictor's outcomes.
    masks: Vec<CorrectMask>,
    correct: Vec<bool>,
}

impl std::fmt::Debug for PredictorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PredictorSet")
            .field("predictors", &self.names())
            .field("total", &self.total)
            .finish()
    }
}

impl PredictorSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        PredictorSet::default()
    }

    /// The canonical trio of the paper's Figure 8: last value, two-delta
    /// stride, and order-3 FCM (bits 0, 1, 2 respectively).
    #[must_use]
    pub fn paper_trio() -> Self {
        let mut set = PredictorSet::new();
        set.push(Box::new(crate::LastValuePredictor::new()));
        set.push(Box::new(crate::StridePredictor::two_delta()));
        set.push(Box::new(crate::FcmPredictor::new(3)));
        set
    }

    /// Adds a predictor; its correctness is reported in the next free bit.
    ///
    /// # Panics
    ///
    /// Panics if the set already holds 32 predictors, or if records were
    /// already observed (the subset accounting cannot be retrofitted).
    pub fn push(&mut self, predictor: Box<dyn Predictor>) {
        assert!(self.predictors.len() < 32, "at most 32 predictors per set");
        assert_eq!(self.total, 0, "predictors must be added before observing records");
        self.predictors.push(predictor);
        let n_masks = 1usize << self.predictors.len();
        self.subset_counts = vec![vec![0; n_masks]; N_CATEGORIES + 1];
    }

    /// Number of predictors in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.predictors.len()
    }

    /// Whether the set contains no predictors.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.predictors.is_empty()
    }

    /// Names of the predictors, in bit order.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.predictors.iter().map(|p| p.name().to_owned()).collect()
    }

    /// Count of dynamic instructions whose correct-set is *exactly* `mask`,
    /// within `category` (or across all categories when `None`).
    #[must_use]
    pub fn subset_count(&self, category: Option<InstrCategory>, mask: CorrectMask) -> u64 {
        let row = category.map(|c| c.index()).unwrap_or(N_CATEGORIES);
        self.subset_counts.get(row).and_then(|r| r.get(mask as usize)).copied().unwrap_or(0)
    }

    /// Fraction (of the category's dynamic instructions) whose correct-set
    /// is exactly `mask`.
    #[must_use]
    pub fn subset_fraction(&self, category: Option<InstrCategory>, mask: CorrectMask) -> f64 {
        let row = category.map(|c| c.index()).unwrap_or(N_CATEGORIES);
        let denom: u64 = self.subset_counts.get(row).map(|r| r.iter().sum()).unwrap_or(0);
        if denom == 0 {
            0.0
        } else {
            self.subset_count(category, mask) as f64 / denom as f64
        }
    }

    /// Total correct predictions for predictor `index` (any subset
    /// containing its bit), across all categories.
    #[must_use]
    pub fn correct_total(&self, index: usize) -> u64 {
        let bit = 1u64 << index;
        self.subset_counts[N_CATEGORIES]
            .iter()
            .enumerate()
            .filter(|(mask, _)| (*mask as u64) & bit != 0)
            .map(|(_, &count)| count)
            .sum()
    }

    /// Total records observed.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-PC tallies translated back to their PCs (report-formatting
    /// time). Order follows the driving id space (first appearance for a
    /// sequential replay).
    #[must_use]
    pub fn per_pc_tallies(&self) -> Vec<(Pc, PcTally)> {
        self.per_pc.iter().map(|(pc, t)| (pc, t.clone())).collect()
    }

    /// Accuracy of predictor `index` over everything observed so far.
    #[must_use]
    pub fn accuracy(&self, index: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct_total(index) as f64 / self.total as f64
        }
    }
}

/// Correlated replay: every predictor observes each batch, and each
/// record's correct-set mask is tallied.
impl Observer for PredictorSet {
    /// When every predictor keeps per-id state
    /// ([`Predictor::keeps_per_id_state`]): one instruction's batch keeps
    /// their entries hot. A set holding a finite table or a delayed
    /// predictor folds in trace order, the only order that gives its
    /// one-pass answer.
    ///
    /// Measured at quick scale on 2 vCPU with a warm trace directory,
    /// medians of 5 runs, PC-major against trace order: `figure8` 1.64
    /// against 2.34 CPU-s at `--workers 1`, 1.09 against 2.21 s wall at
    /// `--workers 2`, max RSS 305 against 448 MiB (`figure9` alike);
    /// `ext-entropy` 1.97 against 2.46 CPU-s, 1.32 against 2.16 s wall,
    /// max RSS 289 against 264 MiB (the instruction index).
    fn pc_major(&self) -> bool {
        self.predictors.iter().all(|p| p.keeps_per_id_state())
    }

    /// Feeds the batch to every predictor through its
    /// [`observe_batch`](Predictor::observe_batch) — one virtual call per
    /// predictor per batch; batch boundaries are invisible, as each keeps
    /// strictly per-PC state — then tallies each record's correct-set mask.
    ///
    /// # Panics
    ///
    /// Panics if the four slices have different lengths.
    fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    ) {
        let n = ids.len();
        assert!(
            pcs.len() == n && values.len() == n && categories.len() == n,
            "observe_batch slice lengths differ"
        );
        self.masks.clear();
        self.masks.resize(n, 0);
        self.correct.clear();
        self.correct.resize(n, false);
        for (i, p) in self.predictors.iter_mut().enumerate() {
            p.observe_batch(ids, pcs, values, &mut self.correct);
            for (mask, &ok) in self.masks.iter_mut().zip(&self.correct) {
                *mask |= CorrectMask::from(ok) << i;
            }
        }
        let predictors = self.predictors.len();
        for (j, &mask) in self.masks.iter().enumerate() {
            self.subset_counts[categories[j].index()][mask as usize] += 1;
            self.subset_counts[N_CATEGORIES][mask as usize] += 1;
            let tally = self.per_pc.get_or_insert_with(ids[j], pcs[j], || PcTally {
                total: 0,
                correct: vec![0; predictors],
                category: Some(categories[j]),
            });
            tally.total += 1;
            for (i, c) in tally.correct.iter_mut().enumerate() {
                *c += u64::from((mask >> i) & 1);
            }
        }
        self.total += n as u64;
    }

    /// Adds another set's counts into this one; per-PC tallies merge
    /// through [`PcSlots::merge`].
    ///
    /// # Panics
    ///
    /// Panics if the two sets hold different predictor configurations
    /// (compared by name).
    fn merge(&mut self, other: PredictorSet) {
        assert_eq!(self.names(), other.names(), "mismatched predictor banks");
        if self.subset_counts.is_empty() {
            self.subset_counts = other.subset_counts;
        } else {
            for (mine, theirs) in self.subset_counts.iter_mut().zip(&other.subset_counts) {
                for (m, t) in mine.iter_mut().zip(theirs) {
                    *m += t;
                }
            }
        }
        self.total += other.total;
        self.per_pc.merge(other.per_pc, |mine, theirs| {
            mine.total += theirs.total;
            for (m, t) in mine.correct.iter_mut().zip(theirs.correct) {
                *m += t;
            }
        });
    }
}

/// Convenience: run a whole trace through a single predictor and return
/// `(correct, total)`.
///
/// # Examples
///
/// ```
/// use dvp_core::{run_trace, Interned, StridePredictor};
/// use dvp_trace::{InstrCategory, Pc, TraceRecord};
///
/// let trace: Vec<_> = (0..50u64)
///     .map(|i| TraceRecord::new(Pc(4), InstrCategory::AddSub, 2 * i))
///     .collect();
/// let mut stride = Interned::new(StridePredictor::two_delta());
/// let (correct, total) = run_trace(&mut stride, trace.iter());
/// assert_eq!(total, 50);
/// assert!(correct >= 47); // misses only the warmup
/// ```
pub fn run_trace<'a, P, I>(predictor: &mut Interned<P>, records: I) -> (u64, u64)
where
    P: Predictor + ?Sized,
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut correct = 0u64;
    let mut total = 0u64;
    for rec in records {
        if predictor.observe(rec.pc, rec.value) {
            correct += 1;
        }
        total += 1;
    }
    (correct, total)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{FcmPredictor, LastValuePredictor, StridePredictor};
    use dvp_trace::PcInterner;
    use std::collections::HashMap;

    fn rec(pc: u64, value: Value) -> TraceRecord {
        TraceRecord::new(Pc(pc), InstrCategory::AddSub, value)
    }

    /// Feeds `records` one at a time under first-appearance ids.
    pub(crate) fn feed<O: Observer>(observer: &mut O, records: &[TraceRecord]) {
        let mut interner = PcInterner::new();
        for r in records {
            observer.observe_batch(&[interner.intern(r.pc)], &[r.pc], &[r.value], &[r.category]);
        }
    }

    fn trio_over(records: &[TraceRecord]) -> PredictorSet {
        let mut set = PredictorSet::paper_trio();
        feed(&mut set, records);
        set
    }

    #[test]
    fn masks_partition_the_trace() {
        let set = trio_over(&(0..200u64).map(|i| rec(8, i % 5)).collect::<Vec<_>>());
        let sum: u64 = (0..8u32).map(|m| set.subset_count(None, m)).sum();
        assert_eq!(sum, set.total());
        assert_eq!(set.total(), 200);
    }

    #[test]
    fn constant_sequence_is_caught_by_all_three() {
        let set = trio_over(&[rec(8, 42); 100]);
        // After warmup, all predictors agree: mask 0b111 dominates.
        assert!(set.subset_count(None, 0b111) >= 95);
    }

    #[test]
    fn stride_sequence_excludes_last_value() {
        let set = trio_over(&(0..100u64).map(|i| rec(8, 10 * i)).collect::<Vec<_>>());
        // Stride-only (FCM cannot extrapolate, last-value is always stale).
        assert!(set.subset_count(None, 0b010) >= 90);
        assert_eq!(set.subset_count(None, 0b001), 0);
    }

    #[test]
    fn repeated_non_stride_is_fcm_only() {
        let period = [9u64, 2, 77, 31, 5, 18];
        let set =
            trio_over(&period.iter().cycle().take(300).map(|&v| rec(8, v)).collect::<Vec<_>>());
        let fcm_only = set.subset_count(None, 0b100);
        assert!(fcm_only > 250, "fcm-only count {fcm_only}");
    }

    #[test]
    fn per_category_counts_are_separate() {
        let records: Vec<TraceRecord> = (0..50u64)
            .flat_map(|i| {
                [
                    TraceRecord::new(Pc(0), InstrCategory::Loads, i),
                    TraceRecord::new(Pc(4), InstrCategory::Shift, 7),
                ]
            })
            .collect();
        let set = trio_over(&records);
        let loads_total: u64 =
            (0..8u32).map(|m| set.subset_count(Some(InstrCategory::Loads), m)).sum();
        assert_eq!(loads_total, 50);
        assert!(set.subset_count(Some(InstrCategory::Shift), 0b111) >= 45);
    }

    #[test]
    fn subset_fractions_sum_to_one() {
        let set = trio_over(&(0..100u64).map(|i| rec(8, i * i)).collect::<Vec<_>>());
        let sum: f64 = (0..8u32).map(|m| set.subset_fraction(None, m)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correct_total_matches_direct_run() {
        let trace: Vec<TraceRecord> = (0..150u64).map(|i| rec(16, (i * 37) % 11)).collect();
        let mut set = PredictorSet::new();
        set.push(Box::new(LastValuePredictor::new()));
        set.push(Box::new(StridePredictor::two_delta()));
        set.push(Box::new(FcmPredictor::new(2)));
        feed(&mut set, &trace);
        let (c_l, _) = run_trace(&mut Interned::new(LastValuePredictor::new()), trace.iter());
        let (c_s, _) = run_trace(&mut Interned::new(StridePredictor::two_delta()), trace.iter());
        let (c_f, _) = run_trace(&mut Interned::new(FcmPredictor::new(2)), trace.iter());
        assert_eq!(set.correct_total(0), c_l);
        assert_eq!(set.correct_total(1), c_s);
        assert_eq!(set.correct_total(2), c_f);
    }

    #[test]
    fn per_pc_tallies_record_category_and_counts() {
        let records: Vec<TraceRecord> =
            (0..40u64).map(|i| TraceRecord::new(Pc(12), InstrCategory::Logic, i % 2)).collect();
        let tallies = trio_over(&records).per_pc_tallies();
        let (pc, tally) = &tallies[0];
        assert_eq!(*pc, Pc(12));
        assert_eq!(tally.total, 40);
        assert_eq!(tally.category, Some(InstrCategory::Logic));
        assert_eq!(tally.correct.len(), 3);
        // FCM learns the alternation; last value never does.
        assert!(tally.correct[2] > tally.correct[0]);
    }

    #[test]
    fn sharded_merge_equals_sequential_run() {
        // Feed a multi-PC trace sequentially into one set, and sharded by
        // pc % 2 into two sets merged afterwards: all counts must agree.
        let records: Vec<TraceRecord> = (0..300u64)
            .map(|i| {
                let pc = 4 * (i % 3);
                TraceRecord::new(Pc(pc), InstrCategory::AddSub, (i / 3) % 7)
            })
            .collect();
        let sequential = trio_over(&records);
        let (even, odd): (Vec<TraceRecord>, Vec<TraceRecord>) =
            records.iter().partition(|r| r.pc.0 % 2 == 0);
        let mut merged = trio_over(&even);
        merged.merge(trio_over(&odd));
        assert_eq!(merged.total(), sequential.total());
        for mask in 0..8u32 {
            assert_eq!(merged.subset_count(None, mask), sequential.subset_count(None, mask));
        }
        for index in 0..3 {
            assert_eq!(merged.correct_total(index), sequential.correct_total(index));
        }
        let m: HashMap<Pc, PcTally> = merged.per_pc_tallies().into_iter().collect();
        let s: HashMap<Pc, PcTally> = sequential.per_pc_tallies().into_iter().collect();
        assert_eq!(m.len(), s.len());
        for (pc, tally) in &s {
            assert_eq!(m[pc].total, tally.total, "{pc}");
            assert_eq!(m[pc].correct, tally.correct, "{pc}");
        }
    }

    #[test]
    fn batches_of_any_size_equal_per_record_feeding() {
        // The same multi-PC, multi-category stream fed one record at a
        // time and in batches of several sizes must agree on every tally.
        let records: Vec<TraceRecord> = (0..240u64)
            .map(|i| {
                let pc = 4 * (i % 5);
                let cat = if i % 2 == 0 { InstrCategory::Loads } else { InstrCategory::AddSub };
                TraceRecord::new(Pc(pc), cat, (i / 5) % 4)
            })
            .collect();
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = records.iter().map(|r| interner.intern(r.pc)).collect();
        let pcs: Vec<Pc> = records.iter().map(|r| r.pc).collect();
        let values: Vec<Value> = records.iter().map(|r| r.value).collect();
        let categories: Vec<InstrCategory> = records.iter().map(|r| r.category).collect();
        let sequential = trio_over(&records);
        for chunk in [7usize, 64, 240] {
            let mut batched = PredictorSet::paper_trio();
            for start in (0..records.len()).step_by(chunk) {
                let span = start..(start + chunk).min(records.len());
                batched.observe_batch(
                    &ids[span.clone()],
                    &pcs[span.clone()],
                    &values[span.clone()],
                    &categories[span],
                );
            }
            assert_eq!(batched.total(), sequential.total(), "chunk {chunk}");
            for mask in 0..8u32 {
                for category in [None, Some(InstrCategory::Loads)] {
                    assert_eq!(
                        batched.subset_count(category, mask),
                        sequential.subset_count(category, mask),
                        "chunk {chunk} {category:?} mask {mask}"
                    );
                }
            }
            let b: HashMap<Pc, PcTally> = batched.per_pc_tallies().into_iter().collect();
            let s: HashMap<Pc, PcTally> = sequential.per_pc_tallies().into_iter().collect();
            assert_eq!(b.len(), s.len());
            for (pc, tally) in &s {
                assert_eq!(b[pc].correct, tally.correct, "chunk {chunk} {pc}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn observe_batch_rejects_mismatched_lengths() {
        PredictorSet::paper_trio().observe_batch(&[PcId(0)], &[Pc(0)], &[1], &[]);
    }

    #[test]
    #[should_panic(expected = "mismatched predictor banks")]
    fn merge_rejects_different_banks() {
        let mut trio = PredictorSet::paper_trio();
        let mut single = PredictorSet::new();
        single.push(Box::new(LastValuePredictor::new()));
        trio.merge(single);
    }

    #[test]
    #[should_panic(expected = "before observing")]
    fn cannot_push_after_observing() {
        let mut set = PredictorSet::new();
        set.push(Box::new(LastValuePredictor::new()));
        feed(&mut set, &[rec(0, 1)]);
        set.push(Box::new(StridePredictor::two_delta()));
    }
}
