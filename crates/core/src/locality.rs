//! History-depth value locality (the metric of Lipasti, Wilkerson & Shen).
//!
//! The paper's Section 1.2 frames its related work in terms of *value
//! locality*: *"The potential for value predictability was reported in terms
//! of 'history depth', that is, how many times a value produced by an
//! instruction repeats when checked against the most recent n values. A
//! pronounced difference is observed between the locality with history depth
//! 1 and history depth 16."* Last-value prediction exploits exactly depth-1
//! locality.
//!
//! [`LocalityProfile`] measures that metric on a value trace: for each
//! dynamic instruction, whether its result matches one of the `n` most
//! recent **distinct** values produced by the same static instruction, for
//! every depth `n` up to a configured maximum. The distinct-value history is
//! kept in most-recently-used order, which is what a depth-`n` value file
//! would store. Depth-1 locality is an exact upper bound on last-value
//! prediction accuracy; the depth-16 vs depth-1 gap is the headroom that
//! motivates context-based prediction.

use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcSlots, Value};

const N_CATEGORIES: usize = InstrCategory::ALL.len();

/// Measures value locality at every history depth `1..=max_depth`.
///
/// # Examples
///
/// ```
/// use dvp_core::LocalityProfile;
/// use dvp_trace::{InstrCategory, Observer, Pc, PcId};
///
/// let mut profile = LocalityProfile::new(4);
/// // An alternating value stream: never equal to the previous value, always
/// // equal to one of the previous two.
/// let values: Vec<u64> = (0..100).map(|i| i % 2).collect();
/// profile.observe_batch(&[PcId(0); 100], &[Pc(0); 100], &values, &[InstrCategory::AddSub; 100]);
/// assert_eq!(profile.locality(1, None), 0.0);
/// assert!(profile.locality(2, None) > 0.95);
/// ```
#[derive(Debug, Clone)]
pub struct LocalityProfile {
    max_depth: usize,
    /// Per static instruction: its distinct recent values, most recent
    /// first, at most `max_depth` long.
    recent: PcSlots<Vec<Value>>,
    /// `hits[d][c]`: dynamic instructions of category `c` whose value matched
    /// at depth exactly `d + 1` (i.e. position `d` in the MRU list).
    hits: Vec<[u64; N_CATEGORIES]>,
    total: [u64; N_CATEGORIES],
}

impl LocalityProfile {
    /// Creates a profile measuring depths `1..=max_depth`.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is 0 or greater than 1024.
    #[must_use]
    pub fn new(max_depth: usize) -> Self {
        assert!(
            (1..=1024).contains(&max_depth),
            "max_depth {max_depth} outside the sensible range 1..=1024"
        );
        LocalityProfile {
            max_depth,
            recent: PcSlots::default(),
            hits: vec![[0; N_CATEGORIES]; max_depth],
            total: [0; N_CATEGORIES],
        }
    }

    /// The deepest history depth measured.
    #[must_use]
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Value locality at history `depth` for `category` (or overall with
    /// `None`): the fraction of dynamic instructions whose value matched one
    /// of the `depth` most recent distinct values of the same static
    /// instruction. 0 when nothing was recorded.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is 0 or exceeds [`max_depth`](Self::max_depth).
    #[must_use]
    pub fn locality(&self, depth: usize, category: Option<InstrCategory>) -> f64 {
        assert!(
            (1..=self.max_depth).contains(&depth),
            "depth {depth} outside 1..={}",
            self.max_depth
        );
        let total = match category {
            Some(c) => self.total[c.index()],
            None => self.total.iter().sum(),
        };
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = self.hits[..depth]
            .iter()
            .map(|by_cat| match category {
                Some(c) => by_cat[c.index()],
                None => by_cat.iter().sum(),
            })
            .sum();
        hits as f64 / total as f64
    }

    /// The locality series for depths `1..=max_depth`.
    #[must_use]
    pub fn series(&self, category: Option<InstrCategory>) -> Vec<f64> {
        (1..=self.max_depth).map(|d| self.locality(d, category)).collect()
    }

    /// Total dynamic instructions recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total.iter().sum()
    }

    /// Number of distinct static instructions seen.
    #[must_use]
    pub fn static_count(&self) -> usize {
        self.recent.iter().count()
    }
}

impl Observer for LocalityProfile {
    fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    ) {
        let max_depth = self.max_depth;
        for (j, &value) in values.iter().enumerate() {
            let cat = categories[j].index();
            self.total[cat] += 1;
            let recent =
                self.recent.get_or_insert_with(ids[j], pcs[j], || Vec::with_capacity(max_depth));
            if let Some(depth) = recent.iter().position(|&v| v == value) {
                self.hits[depth][cat] += 1;
                recent.remove(depth);
            } else if recent.len() == max_depth {
                recent.pop();
            }
            recent.insert(0, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::feed;
    use crate::{Interned, LastValuePredictor};
    use dvp_trace::TraceRecord;

    fn rec(pc: u64, value: Value) -> TraceRecord {
        TraceRecord::new(Pc(pc), InstrCategory::AddSub, value)
    }

    fn profile(max_depth: usize, records: &[TraceRecord]) -> LocalityProfile {
        let mut p = LocalityProfile::new(max_depth);
        feed(&mut p, records);
        p
    }

    #[test]
    fn constant_stream_has_full_depth1_locality() {
        let p = profile(4, &[rec(0, 42); 100]);
        // 99 of 100 hits (the first observation has no history).
        assert!((p.locality(1, None) - 0.99).abs() < 1e-12);
    }

    #[test]
    fn locality_is_monotone_in_depth() {
        let mut state = 7u64;
        let records: Vec<TraceRecord> = (0..5000)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                rec((i % 13) * 4, state >> 59) // values in 0..32: many repeats
            })
            .collect();
        let series = profile(8, &records).series(None);
        for w in series.windows(2) {
            assert!(w[1] >= w[0], "locality must be monotone: {series:?}");
        }
        assert!(series[7] > series[0], "depth-8 should see strictly more hits here");
    }

    #[test]
    fn depth1_locality_bounds_last_value_accuracy() {
        // Last-value prediction can be correct only when the value equals
        // the most recent one, so depth-1 locality is an upper bound (equal,
        // for the always-update policy and MRU bookkeeping, on streams
        // where the last value is the MRU head — e.g. any stream).
        let mut lvp = Interned::new(LastValuePredictor::new());
        let mut correct = 0u64;
        let mut state = 3u64;
        let records: Vec<TraceRecord> = (0..2000)
            .map(|i| {
                state = state.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(0x14057b7ef767814f);
                let r = rec((i % 7) * 4, state >> 60);
                correct += u64::from(lvp.observe(r.pc, r.value));
                r
            })
            .collect();
        let profile = profile(1, &records);
        let accuracy = correct as f64 / records.len() as f64;
        assert!(
            profile.locality(1, None) >= accuracy - 1e-12,
            "locality {} < accuracy {accuracy}",
            profile.locality(1, None)
        );
    }

    #[test]
    fn alternating_stream_needs_depth_two() {
        let p = profile(2, &(0..1000u64).map(|i| rec(0, i % 2)).collect::<Vec<_>>());
        assert_eq!(p.locality(1, None), 0.0);
        assert!(p.locality(2, None) > 0.99);
    }

    #[test]
    fn mru_reordering_keeps_hot_values_shallow() {
        // Stream: a a a b a a a b ... — "a" stays at MRU head except right
        // after each "b".
        let records: Vec<TraceRecord> =
            (0..400u64).map(|i| rec(0, if i % 4 == 3 { 1 } else { 0 })).collect();
        let p = profile(2, &records);
        // Depth 1 catches the a-after-a repeats: roughly half the stream.
        assert!(p.locality(1, None) > 0.45);
        // Depth 2 catches everything after warmup.
        assert!(p.locality(2, None) > 0.98);
    }

    #[test]
    fn per_category_accounting_is_disjoint() {
        let records: Vec<TraceRecord> = (0..10)
            .flat_map(|_| {
                [
                    TraceRecord::new(Pc(0), InstrCategory::Loads, 5),
                    TraceRecord::new(Pc(4), InstrCategory::Shift, 6),
                ]
            })
            .collect();
        let p = profile(2, &records);
        assert!(p.locality(1, Some(InstrCategory::Loads)) > 0.8);
        assert!(p.locality(1, Some(InstrCategory::Shift)) > 0.8);
        assert_eq!(p.locality(1, Some(InstrCategory::MultDiv)), 0.0);
        assert_eq!(p.total(), 20);
        assert_eq!(p.static_count(), 2);
    }

    #[test]
    fn distinct_history_is_bounded_by_depth() {
        // With max_depth 2, a 3-value rotation overflows the history: every
        // access misses because the needed value was just evicted.
        let rotation: Vec<TraceRecord> = (0..999u64).map(|i| rec(0, i % 3)).collect();
        let p = profile(2, &rotation);
        assert_eq!(p.locality(2, None), 0.0, "LRU of 2 thrashes on period-3 rotation");

        // Depth 3 captures it fully.
        let deep = profile(3, &rotation);
        assert!(deep.locality(3, None) > 0.99);
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = LocalityProfile::new(16);
        assert_eq!(p.locality(1, None), 0.0);
        assert_eq!(p.locality(16, None), 0.0);
        assert_eq!(p.total(), 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=4")]
    fn rejects_depth_beyond_max() {
        let p = LocalityProfile::new(4);
        let _ = p.locality(5, None);
    }

    #[test]
    #[should_panic(expected = "sensible range")]
    fn rejects_zero_max_depth() {
        let _ = LocalityProfile::new(0);
    }

    #[test]
    fn one_batch_folds_like_single_records() {
        let mut p = LocalityProfile::new(2);
        p.observe_batch(&[PcId(0); 10], &[Pc(0); 10], &[1; 10], &[InstrCategory::AddSub; 10]);
        assert_eq!(p.total(), 10);
        assert_eq!(p.series(None), profile(2, &[rec(0, 1); 10]).series(None));
        assert!(p.locality(1, None) > 0.8);
    }
}
