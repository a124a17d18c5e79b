//! Information content of value streams (the Hammerstrom connection).
//!
//! Section 1.2 of the paper cites Hammerstrom's information-theoretic study
//! of programs: *"His study of the information content of address and
//! instruction streams revealed a high degree of redundancy. This high
//! degree of redundancy immediately suggests predictability."*
//!
//! [`EntropyProfile`] makes that argument measurable for *value* streams: it
//! computes the zeroth-order Shannon entropy of each static instruction's
//! value distribution. A static instruction with entropy 0 always produces
//! the same value (trivially predictable); one with entropy `h` needs at
//! least `h` bits of information per execution from *somewhere* (context,
//! computation, or operand values) to be predicted reliably. Bucketing
//! static instructions by entropy and measuring predictor accuracy per
//! bucket (the `ext-entropy` experiment) quantifies how redundancy and
//! predictability co-vary — and where the paper's predictors run out of
//! exploitable redundancy.

use crate::analysis::histograms;
use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcSlots, Value};
use std::collections::HashMap;

/// Upper bounds (in bits) of the entropy buckets; the final bucket is
/// unbounded. A 64-bit value stream's entropy never exceeds 64 bits.
pub const ENTROPY_BUCKETS: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Shannon entropy (bits) of a discrete distribution given by `counts`.
///
/// Zero counts are ignored; an empty or single-outcome distribution has
/// entropy 0. The terms are summed in ascending count order, so the bits
/// of the result do not depend on the order `counts` come in (callers
/// pass hash-map values, and floating-point addition is not associative).
///
/// # Examples
///
/// ```
/// use dvp_core::shannon_entropy;
///
/// assert_eq!(shannon_entropy([8u64, 0]), 0.0);
/// let h = shannon_entropy([1u64, 1]);
/// assert!((h - 1.0).abs() < 1e-12); // a fair coin is one bit
/// ```
#[must_use]
pub fn shannon_entropy<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let mut counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    counts.sort_unstable();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let total = total as f64;
    -counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total;
            p * p.log2()
        })
        .sum::<f64>()
}

/// Per-static-instruction value-stream entropy accounting.
///
/// # Examples
///
/// ```
/// use dvp_core::EntropyProfile;
/// use dvp_trace::{InstrCategory, Observer, Pc, PcId};
///
/// // PC 0 is constant; PC 4 is uniform over 4 values (2 bits).
/// let ids: Vec<PcId> = (0..32).map(|i| PcId(i % 2)).collect();
/// let pcs: Vec<Pc> = ids.iter().map(|id| Pc(4 * u64::from(id.0))).collect();
/// let values: Vec<u64> = (0..32).map(|i| if i % 2 == 0 { 7 } else { i / 2 % 4 }).collect();
/// let mut profile = EntropyProfile::new();
/// profile.observe_batch(&ids, &pcs, &values, &[InstrCategory::Loads; 32]);
/// assert_eq!(profile.entropy_of(Pc(0)), Some(0.0));
/// assert!((profile.entropy_of(Pc(4)).unwrap() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EntropyProfile {
    /// Per static instruction: its category and each value's count.
    entries: PcSlots<(InstrCategory, HashMap<Value, u64>)>,
}

impl EntropyProfile {
    /// Creates an empty profile.
    #[must_use]
    pub fn new() -> Self {
        EntropyProfile::default()
    }

    /// `(pc, category, entropy, executions)` of each profiled static
    /// instruction, in slot order.
    fn statics(&self) -> impl Iterator<Item = (Pc, InstrCategory, f64, u64)> + '_ {
        self.entries.iter().map(|(pc, (category, counts))| {
            (pc, *category, shannon_entropy(counts.values().copied()), counts.values().sum())
        })
    }

    /// Zeroth-order entropy (bits) of the value stream of the static
    /// instruction at `pc`, or `None` if it was never observed.
    #[must_use]
    pub fn entropy_of(&self, pc: Pc) -> Option<f64> {
        self.statics().find(|&(at, ..)| at == pc).map(|(_, _, h, _)| h)
    }

    /// Number of distinct static instructions profiled.
    #[must_use]
    pub fn static_count(&self) -> usize {
        self.entries.iter().count()
    }

    /// Every profiled static instruction as `(pc, entropy, executions)`,
    /// in ascending PC order: the canonical order the means sum in, so
    /// they do not depend on how many shards built the profile.
    #[must_use]
    pub fn entropies(&self) -> Vec<(Pc, f64, u64)> {
        let mut all: Vec<_> = self.statics().map(|(pc, _, h, n)| (pc, h, n)).collect();
        all.sort_unstable_by_key(|&(pc, ..)| pc);
        all
    }

    /// Mean entropy over static instructions (each PC weighted equally).
    #[must_use]
    pub fn static_mean_entropy(&self) -> f64 {
        let all = self.entropies();
        if all.is_empty() {
            return 0.0;
        }
        all.iter().map(|&(_, h, _)| h).sum::<f64>() / all.len() as f64
    }

    /// Mean entropy weighted by dynamic execution count — the entropy of the
    /// static instruction an *average dynamic instruction* comes from.
    #[must_use]
    pub fn dynamic_mean_entropy(&self) -> f64 {
        let all = self.entropies();
        let total: u64 = all.iter().map(|&(.., n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        all.iter().map(|&(_, h, n)| h * n as f64).sum::<f64>() / total as f64
    }

    /// Bucket index in [`ENTROPY_BUCKETS`] for an entropy value
    /// (`ENTROPY_BUCKETS.len()` = the unbounded top bucket).
    #[must_use]
    pub fn bucket_of(entropy: f64) -> usize {
        ENTROPY_BUCKETS.iter().position(|&bound| entropy <= bound).unwrap_or(ENTROPY_BUCKETS.len())
    }

    /// Histograms over the entropy buckets: `(static counts,
    /// dynamic-weighted counts)`, restricted to `category` (or everything
    /// with `None`).
    #[must_use]
    pub fn histograms(&self, category: Option<InstrCategory>) -> (Vec<u64>, Vec<u64>) {
        let statics = self.statics().map(|(_, cat, h, n)| (cat, Self::bucket_of(h), n));
        histograms(ENTROPY_BUCKETS.len() + 1, category, statics)
    }

    /// Display labels for the entropy buckets, in order.
    #[must_use]
    pub fn bucket_labels() -> Vec<String> {
        let mut labels: Vec<String> = Vec::with_capacity(ENTROPY_BUCKETS.len() + 1);
        labels.push("0".to_owned());
        for bound in &ENTROPY_BUCKETS[1..] {
            labels.push(format!("<={bound}"));
        }
        labels.push(format!(">{}", ENTROPY_BUCKETS[ENTROPY_BUCKETS.len() - 1]));
        labels
    }
}

impl Observer for EntropyProfile {
    fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    ) {
        for (j, &value) in values.iter().enumerate() {
            let (_, counts) =
                self.entries.get_or_insert_with(ids[j], pcs[j], || (categories[j], HashMap::new()));
            *counts.entry(value).or_insert(0) += 1;
        }
    }

    fn merge(&mut self, other: Self) {
        self.entries.merge(other.entries, |(_, mine), (_, theirs)| {
            for (value, count) in theirs {
                *mine.entry(value).or_insert(0) += count;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::feed;
    use dvp_trace::TraceRecord;

    fn rec(pc: u64, value: Value) -> TraceRecord {
        TraceRecord::new(Pc(pc), InstrCategory::AddSub, value)
    }

    fn profile(records: &[TraceRecord]) -> EntropyProfile {
        let mut p = EntropyProfile::new();
        feed(&mut p, records);
        p
    }

    #[test]
    fn entropy_of_uniform_distribution_is_log2_n() {
        assert!((shannon_entropy([5u64, 5, 5, 5]) - 2.0).abs() < 1e-12);
        assert!((shannon_entropy(vec![1u64; 8]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_certain_outcome_is_zero() {
        assert_eq!(shannon_entropy([100u64]), 0.0);
        assert_eq!(shannon_entropy(std::iter::empty()), 0.0);
        assert_eq!(shannon_entropy([0u64, 0, 7]), 0.0);
    }

    #[test]
    fn entropy_bits_do_not_depend_on_count_order() {
        // Every permutation (Heap's algorithm) must give the same bits.
        let mut counts = [1u64, 2, 3, 5, 7, 11, 13];
        let reference = shannon_entropy(counts).to_bits();
        let mut stack = [0usize; 7];
        let (mut i, mut permutations) = (1, 1);
        while i < counts.len() {
            if stack[i] < i {
                counts.swap(if i % 2 == 0 { 0 } else { stack[i] }, i);
                assert_eq!(shannon_entropy(counts).to_bits(), reference, "{counts:?}");
                (stack[i], i, permutations) = (stack[i] + 1, 1, permutations + 1);
            } else {
                (stack[i], i) = (0, i + 1);
            }
        }
        assert_eq!(permutations, 5040);
    }

    #[test]
    fn entropy_is_maximal_for_uniform() {
        // Skewing a 2-outcome distribution lowers entropy below 1 bit.
        let skewed = shannon_entropy([9u64, 1]);
        assert!(skewed > 0.0 && skewed < 1.0, "{skewed}");
    }

    #[test]
    fn profile_tracks_per_pc_distributions() {
        let p = profile(&(0..32u64).flat_map(|i| [rec(0, 1), rec(4, i % 2)]).collect::<Vec<_>>());
        assert_eq!(p.entropy_of(Pc(0)), Some(0.0));
        assert!((p.entropy_of(Pc(4)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(p.entropy_of(Pc(8)), None);
        assert_eq!(p.static_count(), 2);
    }

    #[test]
    fn mean_entropies_weight_as_documented() {
        // PC 0: entropy 0, executed 90 times; PC 4: entropy 1, executed 10.
        let mut records = vec![rec(0, 5); 90];
        records.extend((0..10u64).map(|i| rec(4, i % 2)));
        let p = profile(&records);
        assert!((p.static_mean_entropy() - 0.5).abs() < 1e-9);
        assert!((p.dynamic_mean_entropy() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(EntropyProfile::bucket_of(0.0), 0);
        assert_eq!(EntropyProfile::bucket_of(0.3), 1);
        assert_eq!(EntropyProfile::bucket_of(1.0), 2);
        assert_eq!(EntropyProfile::bucket_of(3.9), 4);
        assert_eq!(EntropyProfile::bucket_of(8.0), 5);
        assert_eq!(EntropyProfile::bucket_of(20.0), 6);
    }

    #[test]
    fn histograms_cover_all_statics() {
        // PC 0 has entropy 0; PC 4 log2(100) ≈ 6.6.
        let p = profile(&(0..100u64).flat_map(|i| [rec(0, 7), rec(4, i)]).collect::<Vec<_>>());
        let (s, d) = p.histograms(None);
        assert_eq!(s.iter().sum::<u64>(), 2);
        assert_eq!(d.iter().sum::<u64>(), 200);
        assert_eq!(s[0], 1, "constant PC in the zero bucket");
        assert_eq!(s[5], 1, "high-entropy PC in the <=8 bucket");
    }

    #[test]
    fn histograms_respect_category_filter() {
        let p = profile(&[
            TraceRecord::new(Pc(0), InstrCategory::Loads, 1),
            TraceRecord::new(Pc(4), InstrCategory::Shift, 1),
        ]);
        let (s, _) = p.histograms(Some(InstrCategory::Loads));
        assert_eq!(s.iter().sum::<u64>(), 1);
    }

    #[test]
    fn entropies_are_in_pc_order_and_shard_merges_are_exact() {
        let records: Vec<TraceRecord> =
            (0..300u64).map(|i| rec(4 * ((i * 7) % 5), (i * i) % (1 + i % 5))).collect();
        let whole = profile(&records);
        let (even, odd): (Vec<TraceRecord>, Vec<TraceRecord>) =
            records.iter().partition(|r| r.pc.0 % 8 == 0);
        let mut merged = profile(&odd);
        merged.merge(profile(&even));
        let pcs: Vec<Pc> = merged.entropies().iter().map(|&(pc, ..)| pc).collect();
        assert_eq!(pcs, [Pc(0), Pc(4), Pc(8), Pc(12), Pc(16)]);
        let bits = |p: &EntropyProfile| {
            (
                p.static_mean_entropy().to_bits(),
                p.dynamic_mean_entropy().to_bits(),
                p.histograms(None),
            )
        };
        assert_eq!(bits(&merged), bits(&whole));
    }

    #[test]
    fn bucket_labels_align_with_buckets() {
        let labels = EntropyProfile::bucket_labels();
        assert_eq!(labels.len(), ENTROPY_BUCKETS.len() + 1);
        assert_eq!(labels[0], "0");
        assert_eq!(labels.last().unwrap(), ">8");
    }

    #[test]
    fn empty_profile_is_safe() {
        let p = EntropyProfile::new();
        assert_eq!(p.static_mean_entropy(), 0.0);
        assert_eq!(p.dynamic_mean_entropy(), 0.0);
        let (s, d) = p.histograms(None);
        assert!(s.iter().all(|&x| x == 0) && d.iter().all(|&x| x == 0));
    }

    #[test]
    fn batches_fold_like_single_records() {
        let records: Vec<TraceRecord> = (0..5u64).map(|i| rec(0, i)).collect();
        let mut p = EntropyProfile::new();
        let values: Vec<Value> = records.iter().map(|r| r.value).collect();
        p.observe_batch(&[PcId(0); 5], &[Pc(0); 5], &values, &[InstrCategory::AddSub; 5]);
        assert_eq!(p.static_count(), 1);
        assert_eq!(
            p.entropy_of(Pc(0)).unwrap().to_bits(),
            profile(&records).entropy_of(Pc(0)).unwrap().to_bits()
        );
        assert!(p.entropy_of(Pc(0)).unwrap() > 2.0);
    }
}
