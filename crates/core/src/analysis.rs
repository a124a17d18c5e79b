//! Accuracy accounting and value-characteristic analyses (Sections 4.1–4.3).

use crate::correlation::PcTally;
use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcSlots, Value};
use std::collections::HashSet;

const N_CATEGORIES: usize = InstrCategory::ALL.len();

/// Per-category and overall prediction accuracy accounting.
///
/// The paper's accuracy metric is *correct predictions / all predicted
/// instructions*; an instruction for which the predictor had no basis
/// (returned `None`) counts against accuracy.
///
/// # Examples
///
/// ```
/// use dvp_core::AccuracyTracker;
/// use dvp_trace::InstrCategory;
///
/// let mut acc = AccuracyTracker::new();
/// acc.record(InstrCategory::AddSub, true);
/// acc.record(InstrCategory::AddSub, false);
/// assert_eq!(acc.accuracy(Some(InstrCategory::AddSub)), 0.5);
/// assert_eq!(acc.total(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccuracyTracker {
    predicted: [u64; N_CATEGORIES],
    correct: [u64; N_CATEGORIES],
}

impl AccuracyTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        AccuracyTracker::default()
    }

    /// Records the outcome of one prediction.
    pub fn record(&mut self, category: InstrCategory, correct: bool) {
        self.predicted[category.index()] += 1;
        if correct {
            self.correct[category.index()] += 1;
        }
    }

    /// Number of predictions in `category` (or overall with `None`).
    #[must_use]
    pub fn predicted(&self, category: Option<InstrCategory>) -> u64 {
        match category {
            Some(c) => self.predicted[c.index()],
            None => self.predicted.iter().sum(),
        }
    }

    /// Number of correct predictions in `category` (or overall).
    #[must_use]
    pub fn correct(&self, category: Option<InstrCategory>) -> u64 {
        match category {
            Some(c) => self.correct[c.index()],
            None => self.correct.iter().sum(),
        }
    }

    /// Accuracy in `[0, 1]` for `category` (or overall with `None`);
    /// 0 when nothing was predicted.
    #[must_use]
    pub fn accuracy(&self, category: Option<InstrCategory>) -> f64 {
        let denom = self.predicted(category);
        if denom == 0 {
            0.0
        } else {
            self.correct(category) as f64 / denom as f64
        }
    }

    /// Total predictions across all categories.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.predicted(None)
    }

    /// Merges another tracker into this one.
    pub fn merge(&mut self, other: &AccuracyTracker) {
        for i in 0..N_CATEGORIES {
            self.predicted[i] += other.predicted[i];
            self.correct[i] += other.correct[i];
        }
    }
}

/// The unique-value buckets of Figure 10: 1, 4, 16, …, 65536, >65536.
pub const VALUE_BUCKETS: [u64; 9] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536];

/// Per-static-instruction unique-value profile (Section 4.3, Figure 10).
///
/// Tracks, for every static instruction, the set of distinct values it has
/// produced and its dynamic execution count, then buckets static
/// instructions (and, weighted, dynamic instructions) by how many unique
/// values they generate.
///
/// # Examples
///
/// ```
/// use dvp_core::ValueProfile;
/// use dvp_trace::{InstrCategory, Observer, Pc, PcId};
///
/// let mut profile = ValueProfile::new();
/// let values: Vec<u64> = (0..10).map(|i| i % 2).collect();
/// profile.observe_batch(&[PcId(0); 10], &[Pc(0); 10], &values, &[InstrCategory::AddSub; 10]);
/// // PC 0 produced 2 unique values over 10 dynamic executions.
/// let (static_hist, dynamic_hist) = profile.histograms(None);
/// assert_eq!(static_hist[1], 1); // bucket "≤4 values" holds the one PC
/// assert_eq!(dynamic_hist[1], 10);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ValueProfile {
    /// Per static instruction: category, distinct values, executions.
    entries: PcSlots<(InstrCategory, HashSet<Value>, u64)>,
}

impl ValueProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Self {
        ValueProfile::default()
    }

    /// Number of distinct static instructions profiled.
    #[must_use]
    pub fn static_count(&self) -> usize {
        self.entries.iter().count()
    }

    /// Bucket index in [`VALUE_BUCKETS`] for a unique-value count
    /// (`VALUE_BUCKETS.len()` = the ">65536" overflow bucket).
    #[must_use]
    pub fn bucket_of(unique: u64) -> usize {
        VALUE_BUCKETS.iter().position(|&b| unique <= b).unwrap_or(VALUE_BUCKETS.len())
    }

    /// Histograms over the buckets of [`VALUE_BUCKETS`] plus the overflow
    /// bucket: `(static counts, dynamic-weighted counts)`, restricted to
    /// `category` (or everything with `None`).
    #[must_use]
    pub fn histograms(&self, category: Option<InstrCategory>) -> (Vec<u64>, Vec<u64>) {
        let statics = self.entries.iter().map(|(_, (cat, values, executions))| {
            (*cat, Self::bucket_of(values.len() as u64), *executions)
        });
        histograms(VALUE_BUCKETS.len() + 1, category, statics)
    }
}

/// `(static counts, dynamic-weighted counts)` over `n` buckets, from each
/// static instruction's `(category, bucket, executions)`, restricted to
/// `category` (or everything with `None`).
pub(crate) fn histograms(
    n: usize,
    category: Option<InstrCategory>,
    statics: impl Iterator<Item = (InstrCategory, usize, u64)>,
) -> (Vec<u64>, Vec<u64>) {
    let mut hists = (vec![0u64; n], vec![0u64; n]);
    for (cat, bucket, executions) in statics {
        if category.is_none_or(|want| cat == want) {
            hists.0[bucket] += 1;
            hists.1[bucket] += executions;
        }
    }
    hists
}

impl Observer for ValueProfile {
    fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    ) {
        for (j, &value) in values.iter().enumerate() {
            let entry = self
                .entries
                .get_or_insert_with(ids[j], pcs[j], || (categories[j], HashSet::new(), 0));
            entry.1.insert(value);
            entry.2 += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        self.entries.merge(other.entries, |mine, theirs| {
            mine.1.extend(theirs.1);
            mine.2 += theirs.2;
        });
    }
}

/// One point of the Figure 9 curve: after including the best `static_pct`
/// percent of static instructions, `improvement_pct` percent of the total
/// FCM-over-stride improvement is covered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImprovementPoint {
    /// Percent (0–100) of the improving static instructions included.
    pub static_pct: f64,
    /// Percent (0–100) of the total improvement covered.
    pub improvement_pct: f64,
}

/// Builds the Figure 9 cumulative-improvement curve from per-PC tallies.
///
/// `better` and `worse` index into each [`PcTally::correct`] vector (for the
/// paper's `l`, `s2`, `fcm3` trio: FCM = index 2, stride = index 1 of
/// each [`Correlation`](crate::Correlation) tally).
/// Only static instructions where `better` strictly beats `worse`
/// participate, mirroring the paper's construction ("a list of static
/// instructions for which the fcm predictor gives better performance...
/// sorted in descending order of improvement").
///
/// Tallies are keyed by dense ids upstream; the curve needs neither PCs
/// nor ids — any slice of per-static-instruction tallies works.
///
/// Returns points at each integer percent of static instructions, plus the
/// exact endpoint.
#[must_use]
pub fn improvement_curve(
    tallies: &[PcTally],
    better: usize,
    worse: usize,
    category: Option<InstrCategory>,
) -> Vec<ImprovementPoint> {
    let mut gains: Vec<u64> = tallies
        .iter()
        .filter(|t| category.is_none() || t.category == category)
        .filter_map(|t| {
            let b = t.correct.get(better).copied().unwrap_or(0);
            let w = t.correct.get(worse).copied().unwrap_or(0);
            (b > w).then(|| b - w)
        })
        .collect();
    gains.sort_unstable_by(|a, b| b.cmp(a));
    let total: u64 = gains.iter().sum();
    if total == 0 || gains.is_empty() {
        return vec![ImprovementPoint { static_pct: 0.0, improvement_pct: 0.0 }];
    }
    let n = gains.len();
    let mut points = Vec::with_capacity(101);
    let mut cum = 0u64;
    let mut next_pct = 0.0f64;
    for (i, gain) in gains.iter().enumerate() {
        cum += gain;
        let static_pct = (i + 1) as f64 / n as f64 * 100.0;
        if static_pct >= next_pct || i + 1 == n {
            points.push(ImprovementPoint {
                static_pct,
                improvement_pct: cum as f64 / total as f64 * 100.0,
            });
            next_pct = static_pct.floor() + 1.0;
        }
    }
    points
}

/// Interpolates the improvement percentage at a given static-instruction
/// percentage on a Figure 9 curve.
#[must_use]
pub fn improvement_at(points: &[ImprovementPoint], static_pct: f64) -> f64 {
    let mut best = 0.0f64;
    for p in points {
        if p.static_pct <= static_pct {
            best = best.max(p.improvement_pct);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::feed;
    use dvp_trace::TraceRecord;

    fn profile(records: &[TraceRecord]) -> ValueProfile {
        let mut p = ValueProfile::new();
        feed(&mut p, records);
        p
    }

    #[test]
    fn tracker_counts_per_category_and_overall() {
        let mut acc = AccuracyTracker::new();
        for i in 0..10 {
            acc.record(InstrCategory::Loads, i % 2 == 0);
        }
        for _ in 0..5 {
            acc.record(InstrCategory::Shift, false);
        }
        assert_eq!(acc.predicted(Some(InstrCategory::Loads)), 10);
        assert_eq!(acc.correct(Some(InstrCategory::Loads)), 5);
        assert_eq!(acc.accuracy(Some(InstrCategory::Loads)), 0.5);
        assert_eq!(acc.accuracy(Some(InstrCategory::Shift)), 0.0);
        assert_eq!(acc.total(), 15);
        assert!((acc.accuracy(None) - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_merge_adds_counts() {
        let mut a = AccuracyTracker::new();
        a.record(InstrCategory::Set, true);
        let mut b = AccuracyTracker::new();
        b.record(InstrCategory::Set, false);
        a.merge(&b);
        assert_eq!(a.predicted(Some(InstrCategory::Set)), 2);
        assert_eq!(a.correct(Some(InstrCategory::Set)), 1);
    }

    #[test]
    fn empty_tracker_accuracy_is_zero() {
        let acc = AccuracyTracker::new();
        assert_eq!(acc.accuracy(None), 0.0);
        assert_eq!(acc.accuracy(Some(InstrCategory::Lui)), 0.0);
    }

    #[test]
    fn bucket_boundaries_match_figure10() {
        assert_eq!(ValueProfile::bucket_of(1), 0);
        assert_eq!(ValueProfile::bucket_of(2), 1);
        assert_eq!(ValueProfile::bucket_of(4), 1);
        assert_eq!(ValueProfile::bucket_of(5), 2);
        assert_eq!(ValueProfile::bucket_of(65536), 8);
        assert_eq!(ValueProfile::bucket_of(65537), 9);
    }

    #[test]
    fn profile_separates_categories() {
        let profile = profile(&[
            TraceRecord::new(Pc(0), InstrCategory::AddSub, 1),
            TraceRecord::new(Pc(4), InstrCategory::Loads, 2),
        ]);
        let (s_add, _) = profile.histograms(Some(InstrCategory::AddSub));
        let (s_all, _) = profile.histograms(None);
        assert_eq!(s_add.iter().sum::<u64>(), 1);
        assert_eq!(s_all.iter().sum::<u64>(), 2);
    }

    #[test]
    fn single_value_statics_fill_the_first_bucket() {
        let records: Vec<TraceRecord> = (0..4u64)
            .flat_map(|i| {
                [
                    TraceRecord::new(Pc(0), InstrCategory::AddSub, 9),
                    TraceRecord::new(Pc(4), InstrCategory::AddSub, i),
                ]
            })
            .collect();
        let whole = profile(&records);
        assert_eq!(whole.histograms(None).0[..2], [1, 1]);
        assert_eq!(whole.static_count(), 2);

        // PC shards merge into the whole.
        let (even, odd): (Vec<TraceRecord>, Vec<TraceRecord>) =
            records.iter().partition(|r| r.pc == Pc(0));
        let mut merged = profile(&odd);
        merged.merge(profile(&even));
        assert_eq!(merged.histograms(None), whole.histograms(None));
    }

    #[test]
    fn empty_profile_is_safe() {
        let profile = ValueProfile::new();
        assert_eq!(profile.static_count(), 0);
        let (s, d) = profile.histograms(None);
        assert!(s.iter().all(|&x| x == 0) && d.iter().all(|&x| x == 0));
    }

    fn tally(total: u64, correct: Vec<u64>) -> PcTally {
        PcTally { total, correct, category: Some(InstrCategory::AddSub) }
    }

    #[test]
    fn improvement_curve_is_monotone_and_reaches_100() {
        // Three improving statics with gains 50, 30, 20 and one regressing.
        let tallies = vec![
            tally(100, vec![0, 10, 60]),
            tally(100, vec![0, 20, 50]),
            tally(100, vec![0, 30, 50]),
            tally(100, vec![0, 90, 40]),
        ];
        let points = improvement_curve(&tallies, 2, 1, None);
        let last = points.last().unwrap();
        assert!((last.improvement_pct - 100.0).abs() < 1e-9);
        assert!((last.static_pct - 100.0).abs() < 1e-9);
        for w in points.windows(2) {
            assert!(w[1].improvement_pct >= w[0].improvement_pct);
            assert!(w[1].static_pct >= w[0].static_pct);
        }
        // The single best PC (1/3 of improving statics) covers 50% of the gain.
        let at_34 = improvement_at(&points, 34.0);
        assert!((at_34 - 50.0).abs() < 1e-9, "{at_34}");
    }

    #[test]
    fn improvement_curve_empty_when_no_gain() {
        let tallies = vec![tally(10, vec![5, 5, 5])];
        let points = improvement_curve(&tallies, 2, 1, None);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].improvement_pct, 0.0);
    }

    #[test]
    fn improvement_curve_respects_category_filter() {
        let mut other = tally(10, vec![0, 0, 10]);
        other.category = Some(InstrCategory::Shift);
        let tallies = vec![tally(10, vec![0, 0, 10]), other];
        let points = improvement_curve(&tallies, 2, 1, Some(InstrCategory::Shift));
        // Only one improving PC in Shift: the curve jumps straight to 100%.
        assert!((points[0].improvement_pct - 100.0).abs() < 1e-9);
    }
}
