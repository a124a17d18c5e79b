//! Static and dynamic instruction accounting over a trace.

use crate::{InstrCategory, Observer, Pc, PcId, TraceRecord, Value};
use std::collections::HashSet;

const N_CATEGORIES: usize = InstrCategory::ALL.len();

/// Per-category dynamic counts.
///
/// # Examples
///
/// ```
/// use dvp_trace::{CategoryMix, InstrCategory};
///
/// let mut mix = CategoryMix::new();
/// mix.record(InstrCategory::AddSub);
/// mix.record(InstrCategory::AddSub);
/// mix.record(InstrCategory::Loads);
/// assert_eq!(mix.count(InstrCategory::AddSub), 2);
/// assert!((mix.fraction(InstrCategory::Loads) - 1.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CategoryMix {
    counts: [u64; N_CATEGORIES],
    total: u64,
}

impl CategoryMix {
    /// Creates an empty mix.
    #[must_use]
    pub fn new() -> Self {
        CategoryMix::default()
    }

    /// Adds one dynamic instruction of `category`.
    pub fn record(&mut self, category: InstrCategory) {
        self.counts[category.index()] += 1;
        self.total += 1;
    }

    /// Dynamic count for `category`.
    #[must_use]
    pub fn count(&self, category: InstrCategory) -> u64 {
        self.counts[category.index()]
    }

    /// Total dynamic count across all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of the total contributed by `category` (0 if the mix is empty).
    #[must_use]
    pub fn fraction(&self, category: InstrCategory) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(category) as f64 / self.total as f64
        }
    }

    /// Iterates over `(category, count)` pairs in reporting order.
    pub fn iter(&self) -> impl Iterator<Item = (InstrCategory, u64)> + '_ {
        InstrCategory::ALL.iter().map(|&c| (c, self.count(c)))
    }
}

/// Aggregate statistics of a value trace: dynamic counts, static (distinct-PC)
/// counts, per category and overall.
///
/// This drives Tables 2, 4 and 5 of the paper: Table 2 reports dynamic
/// predicted-instruction counts per benchmark, Table 4 the static count per
/// category, and Table 5 the dynamic percentage per category.
///
/// # Examples
///
/// ```
/// use dvp_trace::{InstrCategory, Pc, TraceRecord, TraceSummary};
///
/// let mut summary = TraceSummary::new();
/// summary.record(&TraceRecord::new(Pc(4), InstrCategory::Loads, 10));
/// summary.record(&TraceRecord::new(Pc(4), InstrCategory::Loads, 11));
/// assert_eq!(summary.dynamic_total(), 2);
/// assert_eq!(summary.static_count(InstrCategory::Loads), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    dynamic: CategoryMix,
    static_pcs: [HashSet<Pc>; N_CATEGORIES],
}

impl TraceSummary {
    /// Creates an empty summary.
    #[must_use]
    pub fn new() -> Self {
        TraceSummary::default()
    }

    /// Folds one record into the summary.
    pub fn record(&mut self, rec: &TraceRecord) {
        self.dynamic.record(rec.category);
        self.static_pcs[rec.category.index()].insert(rec.pc);
    }

    /// Total number of dynamic records seen.
    #[must_use]
    pub fn dynamic_total(&self) -> u64 {
        self.dynamic.total()
    }

    /// Dynamic record count for `category`.
    #[must_use]
    pub fn dynamic_count(&self, category: InstrCategory) -> u64 {
        self.dynamic.count(category)
    }

    /// Dynamic fraction for `category` (as in the paper's Table 5).
    #[must_use]
    pub fn dynamic_fraction(&self, category: InstrCategory) -> f64 {
        self.dynamic.fraction(category)
    }

    /// Number of distinct static instructions for `category` (Table 4).
    #[must_use]
    pub fn static_count(&self, category: InstrCategory) -> u64 {
        self.static_pcs[category.index()].len() as u64
    }

    /// Number of distinct static instructions over all categories.
    ///
    /// A PC can only belong to one category in a well-formed trace, so this is
    /// the sum of the per-category static counts.
    #[must_use]
    pub fn static_total(&self) -> u64 {
        self.static_pcs.iter().map(|s| s.len() as u64).sum()
    }

    /// Access to the dynamic category mix.
    #[must_use]
    pub fn dynamic_mix(&self) -> &CategoryMix {
        &self.dynamic
    }
}

/// Each record goes through [`TraceSummary::record`].
impl Observer for TraceSummary {
    fn observe_batch(
        &mut self,
        _ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    ) {
        for ((&pc, &value), &category) in pcs.iter().zip(values).zip(categories) {
            self.record(&TraceRecord::new(pc, category, value));
        }
    }
}

impl FromIterator<TraceRecord> for TraceSummary {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        let mut summary = TraceSummary::new();
        iter.into_iter().for_each(|rec| summary.record(&rec));
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pc: u64, cat: InstrCategory, value: u64) -> TraceRecord {
        TraceRecord::new(Pc(pc), cat, value)
    }

    #[test]
    fn empty_summary_is_all_zero() {
        let s = TraceSummary::new();
        assert_eq!(s.dynamic_total(), 0);
        assert_eq!(s.static_total(), 0);
        for cat in InstrCategory::ALL {
            assert_eq!(s.dynamic_count(cat), 0);
            assert_eq!(s.static_count(cat), 0);
            assert_eq!(s.dynamic_fraction(cat), 0.0);
        }
    }

    #[test]
    fn static_counts_deduplicate_pcs() {
        let recs = [
            rec(0, InstrCategory::AddSub, 1),
            rec(0, InstrCategory::AddSub, 2),
            rec(4, InstrCategory::AddSub, 3),
            rec(8, InstrCategory::Loads, 4),
        ];
        let s: TraceSummary = recs.iter().copied().collect();
        assert_eq!(s.static_count(InstrCategory::AddSub), 2);
        assert_eq!(s.static_count(InstrCategory::Loads), 1);
        assert_eq!(s.static_total(), 3);
        assert_eq!(s.dynamic_total(), 4);
    }

    #[test]
    fn dynamic_fractions_sum_to_one() {
        let recs = [
            rec(0, InstrCategory::AddSub, 1),
            rec(4, InstrCategory::Shift, 2),
            rec(8, InstrCategory::Set, 3),
            rec(12, InstrCategory::Lui, 4),
        ];
        let s: TraceSummary = recs.iter().copied().collect();
        let total: f64 = InstrCategory::ALL.iter().map(|&c| s.dynamic_fraction(c)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn category_mix_iter_is_in_reporting_order() {
        let mut mix = CategoryMix::new();
        mix.record(InstrCategory::Other);
        let items: Vec<_> = mix.iter().collect();
        assert_eq!(items.len(), 8);
        assert_eq!(items[0].0, InstrCategory::AddSub);
        assert_eq!(items[7], (InstrCategory::Other, 1));
    }
}
