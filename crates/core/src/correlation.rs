//! Correlating the correct sets of several predictors over one trace
//! (Section 4.2 / Figures 8 and 9 of the paper).

use crate::{Interned, Predictor};
use dvp_trace::{InstrCategory, Pc, TraceRecord};

const N_CATEGORIES: usize = InstrCategory::ALL.len();

/// Bitmask of which configurations of a [`Correlation`] were correct on
/// one dynamic instruction. Bit *i* corresponds to configuration *i* in
/// bank order.
pub type CorrectMask = u32;

/// Per-PC tally used for per-static-instruction analyses (Figure 9).
#[derive(Debug, Clone, Default)]
pub struct PcTally {
    /// Dynamic occurrences of this static instruction.
    pub total: u64,
    /// Correct predictions per configuration (in bank order).
    pub correct: Vec<u64>,
    /// Category of the static instruction.
    pub category: Option<InstrCategory>,
}

/// The correct sets of a bank of predictor configurations replayed over
/// the same records: for every dynamic instruction, the *subset* of
/// configurations that were correct, counted per category, and one
/// [`PcTally`] per static instruction.
///
/// This is the report behind Figure 8 of the paper (the
/// `l`/`s`/`f`/`ls`/`lf`/`sf`/`lsf`/`np` breakdown) and, from its per-PC
/// tallies, Figure 9 (cumulative improvement of FCM over stride across
/// static instructions). The replay engine builds it one static
/// instruction at a time (`dvp_engine::ReplayEngine::correlate`), and
/// [`push_pc`](Correlation::push_pc) folds in each instruction's records.
///
/// # Examples
///
/// ```
/// use dvp_core::Correlation;
/// use dvp_trace::{InstrCategory, Pc};
///
/// let mut report = Correlation::new(vec!["s2".into(), "fcm3".into()]);
/// // One instruction: stride alone was right twice, both once, neither once.
/// report.push_pc(Pc(0x10), &[InstrCategory::AddSub; 4], &[0b01, 0b01, 0b11, 0b00]);
/// assert_eq!(report.subset_count(None, 0b01), 2);
/// assert_eq!(report.correct_total(0), 3);
/// assert_eq!(report.accuracy(1), 0.25);
/// ```
#[derive(Debug, Clone)]
pub struct Correlation {
    names: Vec<String>,
    /// subset_counts[category][mask] and an extra row for "all categories".
    subset_counts: Vec<Vec<u64>>,
    /// Per-static-instruction tallies, in the order they were pushed.
    per_pc: Vec<(Pc, PcTally)>,
    total: u64,
}

impl Correlation {
    /// An empty report over configurations named `names`, in bank order.
    ///
    /// # Panics
    ///
    /// Panics if there are more than 32 configurations (a
    /// [`CorrectMask`] holds one bit per configuration).
    #[must_use]
    pub fn new(names: Vec<String>) -> Self {
        assert!(names.len() <= 32, "at most 32 configurations per correlation");
        let masks = 1usize << names.len();
        Correlation {
            names,
            subset_counts: vec![vec![0; masks]; N_CATEGORIES + 1],
            per_pc: Vec::new(),
            total: 0,
        }
    }

    /// Folds in one static instruction's records, given in trace order as
    /// each record's category and correct-set mask, and appends its
    /// [`PcTally`] (categorized by its first record). An instruction
    /// without records appends nothing.
    ///
    /// # Panics
    ///
    /// Panics if the two slices have different lengths.
    pub fn push_pc(&mut self, pc: Pc, categories: &[InstrCategory], masks: &[CorrectMask]) {
        assert_eq!(categories.len(), masks.len(), "push_pc slice lengths differ");
        let Some(&first) = categories.first() else { return };
        let mut tally =
            PcTally { total: 0, correct: vec![0; self.names.len()], category: Some(first) };
        for (&category, &mask) in categories.iter().zip(masks) {
            self.subset_counts[category.index()][mask as usize] += 1;
            self.subset_counts[N_CATEGORIES][mask as usize] += 1;
            for (i, c) in tally.correct.iter_mut().enumerate() {
                *c += u64::from((mask >> i) & 1);
            }
        }
        tally.total = masks.len() as u64;
        self.total += tally.total;
        self.per_pc.push((pc, tally));
    }

    /// Appends another report's static instructions and adds its counts.
    ///
    /// # Panics
    ///
    /// Panics if the two reports name different configurations.
    pub fn merge(&mut self, other: Correlation) {
        assert_eq!(self.names, other.names, "mismatched predictor banks");
        for (mine, theirs) in self.subset_counts.iter_mut().zip(&other.subset_counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
        self.total += other.total;
        self.per_pc.extend(other.per_pc);
    }

    /// Names of the configurations, in bit order.
    #[must_use]
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Count of dynamic instructions whose correct-set is *exactly* `mask`,
    /// within `category` (or across all categories when `None`).
    #[must_use]
    pub fn subset_count(&self, category: Option<InstrCategory>, mask: CorrectMask) -> u64 {
        let row = category.map_or(N_CATEGORIES, InstrCategory::index);
        self.subset_counts[row].get(mask as usize).copied().unwrap_or(0)
    }

    /// Fraction (of the category's dynamic instructions) whose correct-set
    /// is exactly `mask`.
    #[must_use]
    pub fn subset_fraction(&self, category: Option<InstrCategory>, mask: CorrectMask) -> f64 {
        let row = category.map_or(N_CATEGORIES, InstrCategory::index);
        let denom: u64 = self.subset_counts[row].iter().sum();
        if denom == 0 {
            0.0
        } else {
            self.subset_count(category, mask) as f64 / denom as f64
        }
    }

    /// Total correct predictions for configuration `index` (any subset
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

    /// Total records folded in.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Per-PC tallies with their PCs, in the order the instructions were
    /// pushed (first appearance in the trace, for the engine's replay).
    #[must_use]
    pub fn per_pc_tallies(&self) -> &[(Pc, PcTally)] {
        &self.per_pc
    }

    /// Accuracy of configuration `index` over everything folded in.
    #[must_use]
    pub fn accuracy(&self, index: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct_total(index) as f64 / self.total as f64
        }
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
mod tests {
    use super::*;

    const LOADS: InstrCategory = InstrCategory::Loads;
    const SHIFT: InstrCategory = InstrCategory::Shift;

    fn trio() -> Correlation {
        Correlation::new(["l", "s2", "fcm3"].map(String::from).to_vec())
    }

    /// Three instructions: masks cycle through every subset of the trio.
    fn three_pcs() -> Correlation {
        let mut report = trio();
        for (pc, category, n) in [(0u64, LOADS, 40u32), (4, SHIFT, 17), (8, LOADS, 1)] {
            let masks: Vec<CorrectMask> = (0..n).map(|i| (i * 5 + pc as u32) % 8).collect();
            report.push_pc(Pc(pc), &vec![category; n as usize], &masks);
        }
        report
    }

    #[test]
    fn masks_partition_the_records() {
        let report = three_pcs();
        assert_eq!(report.total(), 58);
        let sum: u64 = (0..8u32).map(|m| report.subset_count(None, m)).sum();
        assert_eq!(sum, report.total());
        let fractions: f64 = (0..8u32).map(|m| report.subset_fraction(None, m)).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
        assert_eq!(report.subset_count(None, 8), 0, "no mask past the bank");
    }

    #[test]
    fn per_category_counts_are_separate() {
        let report = three_pcs();
        let loads: u64 = (0..8u32).map(|m| report.subset_count(Some(LOADS), m)).sum();
        let shift: u64 = (0..8u32).map(|m| report.subset_count(Some(SHIFT), m)).sum();
        assert_eq!((loads, shift), (41, 17));
        let fractions: f64 = (0..8u32).map(|m| report.subset_fraction(Some(SHIFT), m)).sum();
        assert!((fractions - 1.0).abs() < 1e-9);
        assert_eq!(report.subset_fraction(Some(InstrCategory::Set), 0), 0.0, "empty category");
    }

    #[test]
    fn per_pc_tallies_count_each_bit_in_push_order() {
        let report = three_pcs();
        let tallies = report.per_pc_tallies();
        assert_eq!(tallies.iter().map(|(pc, _)| pc.0).collect::<Vec<_>>(), [0, 4, 8]);
        let (_, shift) = &tallies[1];
        assert_eq!((shift.total, shift.category), (17, Some(SHIFT)));
        let masks: Vec<u32> = (0..17u32).map(|i| (i * 5 + 4) % 8).collect();
        for (bit, &correct) in shift.correct.iter().enumerate() {
            assert_eq!(correct, masks.iter().filter(|&&m| m >> bit & 1 == 1).count() as u64);
        }
        for index in 0..3 {
            let per_pc: u64 = tallies.iter().map(|(_, t)| t.correct[index]).sum();
            assert_eq!(report.correct_total(index), per_pc);
        }
        let mut empty = trio();
        empty.push_pc(Pc(12), &[], &[]);
        assert!(empty.per_pc_tallies().is_empty() && empty.total() == 0);
        assert_eq!(empty.accuracy(0), 0.0);
    }

    #[test]
    fn merge_appends_instructions_and_adds_counts() {
        let whole = three_pcs();
        let mut halves = [trio(), trio()];
        for (i, (pc, tally)) in whole.per_pc_tallies().iter().enumerate() {
            let masks: Vec<u32> =
                (0..tally.total as u32).map(|j| (j * 5 + pc.0 as u32) % 8).collect();
            let categories = vec![tally.category.expect("categorized"); masks.len()];
            halves[usize::from(i > 0)].push_pc(*pc, &categories, &masks);
        }
        let [mut merged, second] = halves;
        merged.merge(second);
        assert_eq!(merged.total(), whole.total());
        for category in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
            for mask in 0..8u32 {
                assert_eq!(merged.subset_count(category, mask), whole.subset_count(category, mask));
            }
        }
        let pcs = |r: &Correlation| -> Vec<(Pc, u64, Vec<u64>)> {
            r.per_pc_tallies().iter().map(|(pc, t)| (*pc, t.total, t.correct.clone())).collect()
        };
        assert_eq!(pcs(&merged), pcs(&whole));
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn push_pc_rejects_mismatched_lengths() {
        trio().push_pc(Pc(0), &[LOADS], &[]);
    }

    #[test]
    #[should_panic(expected = "mismatched predictor banks")]
    fn merge_rejects_different_banks() {
        trio().merge(Correlation::new(vec!["l".into()]));
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn a_mask_holds_at_most_32_configurations() {
        let _ = Correlation::new((0..33).map(|i| format!("c{i}")).collect());
    }
}
