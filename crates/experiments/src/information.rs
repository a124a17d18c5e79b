//! Extension experiments `ext-locality` and `ext-entropy`: the two
//! information-theoretic framings the paper's related-work section builds
//! on (Section 1.2).
//!
//! * **Value locality by history depth** — Lipasti, Wilkerson & Shen's
//!   metric; the paper: *"A pronounced difference is observed between the
//!   locality with history depth 1 and history depth 16."* `ext-locality`
//!   reproduces that observation on this repository's workloads.
//! * **Value-stream entropy** — Hammerstrom's redundancy argument:
//!   *"high degree of redundancy immediately suggests predictability."*
//!   `ext-entropy` buckets static instructions by the entropy of their value
//!   stream and shows prediction accuracy falling as entropy rises.

use crate::context::TraceStore;
use crate::table_fmt::{pct, TextTable};
use crate::values::pool;
use dvp_core::{EntropyProfile, FcmPredictor, LocalityProfile, PredictorSet, ENTROPY_BUCKETS};
use dvp_workloads::{Benchmark, BuildError};

/// History depths reported by [`locality`] (Lipasti et al. report 1 and 16;
/// the intermediate depths show the shape between them).
pub const LOCALITY_DEPTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// FCM order whose per-PC accuracy [`entropy`] correlates with entropy
/// (order 3 is the paper's headline context predictor).
pub const ENTROPY_FCM_ORDER: usize = 3;

/// Per-benchmark value locality at each depth of [`LOCALITY_DEPTHS`].
#[derive(Debug, Clone)]
pub struct LocalityResults {
    /// `(benchmark, locality at each depth)` rows, in [`Benchmark::ALL`]
    /// order.
    pub rows: Vec<(Benchmark, Vec<f64>)>,
}

/// Measures history-depth value locality for every benchmark, one driver
/// fold per trace on the store's engine.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn locality(store: &mut TraceStore) -> Result<LocalityResults, BuildError> {
    let engine = store.engine().clone();
    let max_depth = *LOCALITY_DEPTHS.last().expect("non-empty depth list");
    let mut rows = Vec::with_capacity(Benchmark::ALL.len());
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        let profile = engine.observe(&trace, || LocalityProfile::new(max_depth));
        let series: Vec<f64> = LOCALITY_DEPTHS.iter().map(|&d| profile.locality(d, None)).collect();
        rows.push((benchmark, series));
    }
    Ok(LocalityResults { rows })
}

impl LocalityResults {
    /// Mean locality (over benchmarks) at each depth of [`LOCALITY_DEPTHS`].
    #[must_use]
    pub fn means(&self) -> Vec<f64> {
        let n = self.rows.len().max(1);
        (0..LOCALITY_DEPTHS.len())
            .map(|i| self.rows.iter().map(|(_, s)| s[i]).sum::<f64>() / n as f64)
            .collect()
    }

    /// Renders the per-benchmark locality table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut header = vec!["bench".to_owned()];
        header.extend(LOCALITY_DEPTHS.iter().map(|d| format!("depth{d}")));
        let mut table = TextTable::new(header);
        for (benchmark, series) in &self.rows {
            let mut cells = vec![benchmark.name().to_owned()];
            cells.extend(series.iter().map(|&v| pct(v)));
            table.row(cells);
        }
        let mut cells = vec!["mean".to_owned()];
        cells.extend(self.means().into_iter().map(pct));
        table.row(cells);
        format!(
            "ext-locality: value locality vs history depth\n\
             (paper Section 1.2: 'a pronounced difference is observed between\n\
             the locality with history depth 1 and history depth 16')\n\n{}",
            table.render()
        )
    }
}

/// Pooled entropy characteristics and their correlation with prediction
/// accuracy.
#[derive(Debug, Clone)]
pub struct EntropyResults {
    /// Static-instruction counts per entropy bucket (pooled).
    pub static_hist: Vec<u64>,
    /// Dynamic-weighted counts per entropy bucket (pooled).
    pub dynamic_hist: Vec<u64>,
    /// `(predictions, correct)` of the order-[`ENTROPY_FCM_ORDER`] FCM
    /// predictor per entropy bucket (pooled).
    pub fcm_by_bucket: Vec<(u64, u64)>,
    /// `(benchmark, static mean entropy, dynamic mean entropy)` rows.
    pub bench_means: Vec<(Benchmark, f64, f64)>,
}

/// Profiles value-stream entropy and correlates it with FCM accuracy: per
/// benchmark, one fold of an [`EntropyProfile`] and one of a single-FCM
/// [`PredictorSet`], both on the store's engine (every tally is per PC,
/// so splitting by instruction never changes a count); pooled figures sum
/// the benchmarks'.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn entropy(store: &mut TraceStore) -> Result<EntropyResults, BuildError> {
    let engine = store.engine().clone();
    let mut fcm_by_bucket = vec![(0u64, 0u64); ENTROPY_BUCKETS.len() + 1];
    let (mut hists, mut bench_means) = (Vec::new(), Vec::new());
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        let profile = engine.observe(&trace, EntropyProfile::new);
        let fcm = engine.observe(&trace, || {
            let mut set = PredictorSet::new();
            set.push(Box::new(FcmPredictor::new(ENTROPY_FCM_ORDER)));
            set
        });
        // Join the FCM's per-PC outcomes to entropy buckets, once per
        // static instruction.
        let entropies = profile.entropies();
        for (pc, tally) in fcm.per_pc_tallies() {
            let at = entropies.binary_search_by_key(&pc, |&(at, ..)| at).expect("profiled PC");
            let bucket = &mut fcm_by_bucket[EntropyProfile::bucket_of(entropies[at].1)];
            bucket.0 += tally.total;
            bucket.1 += tally.correct[0];
        }
        let means = (profile.static_mean_entropy(), profile.dynamic_mean_entropy());
        bench_means.push((benchmark, means.0, means.1));
        hists.push(profile.histograms(None));
    }
    let (static_hist, dynamic_hist) = pool(hists);
    Ok(EntropyResults { static_hist, dynamic_hist, fcm_by_bucket, bench_means })
}

impl EntropyResults {
    /// FCM accuracy in the bucket with index `bucket`, or `None` if nothing
    /// was predicted there.
    #[must_use]
    pub fn fcm_accuracy(&self, bucket: usize) -> Option<f64> {
        let (predicted, correct) = *self.fcm_by_bucket.get(bucket)?;
        (predicted > 0).then(|| correct as f64 / predicted as f64)
    }

    /// Renders both halves: the bucket distribution with per-bucket FCM
    /// accuracy, and per-benchmark mean entropies.
    #[must_use]
    pub fn render(&self) -> String {
        let labels = EntropyProfile::bucket_labels();
        let mut table =
            TextTable::new(vec!["entropy(bits)", "static%", "dynamic%", "fcm3-accuracy"]);
        let s_total: u64 = self.static_hist.iter().sum();
        let d_total: u64 = self.dynamic_hist.iter().sum();
        for (i, label) in labels.iter().enumerate() {
            let s = if s_total == 0 { 0.0 } else { self.static_hist[i] as f64 / s_total as f64 };
            let d = if d_total == 0 { 0.0 } else { self.dynamic_hist[i] as f64 / d_total as f64 };
            let acc = self.fcm_accuracy(i).map_or("-".to_owned(), pct);
            table.row(vec![label.clone(), pct(s), pct(d), acc]);
        }
        let mut means = TextTable::new(vec!["bench", "static-mean", "dynamic-mean"]);
        for (benchmark, s, d) in &self.bench_means {
            means.row(vec![benchmark.name().to_owned(), format!("{s:.2}"), format!("{d:.2}")]);
        }
        format!(
            "ext-entropy: value-stream entropy vs predictability\n\
             (paper Section 1.2, after Hammerstrom: redundancy 'immediately\n\
             suggests predictability')\n\n{}\nMean entropy per benchmark (bits):\n{}",
            table.render(),
            means.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_store() -> TraceStore {
        TraceStore::with_scale_div(1000).with_record_cap(if cfg!(debug_assertions) {
            20_000
        } else {
            100_000
        })
    }

    #[test]
    fn locality_rises_with_depth_for_every_benchmark() {
        let mut store = test_store();
        let results = locality(&mut store).unwrap();
        assert_eq!(results.rows.len(), 7);
        for (benchmark, series) in &results.rows {
            for w in series.windows(2) {
                assert!(w[1] >= w[0], "{benchmark}: {series:?}");
            }
        }
        // The paper's "pronounced difference": depth 16 clearly beats
        // depth 1 on average.
        let means = results.means();
        assert!(
            means[LOCALITY_DEPTHS.len() - 1] > means[0] + 0.10,
            "depth-16 {means:?} should exceed depth-1 by >10 points"
        );
        assert!(results.render().contains("ext-locality"));
    }

    #[test]
    fn entropy_low_buckets_predict_better_than_high() {
        let mut store = test_store();
        let results = entropy(&mut store).unwrap();
        // Find the lowest and highest buckets with enough mass to be stable.
        let populated: Vec<usize> = (0..results.fcm_by_bucket.len())
            .filter(|&i| results.fcm_by_bucket[i].0 > 500)
            .collect();
        assert!(populated.len() >= 2, "{:?}", results.fcm_by_bucket);
        let low = results.fcm_accuracy(populated[0]).unwrap();
        let high = results.fcm_accuracy(*populated.last().unwrap()).unwrap();
        assert!(
            low > high,
            "low-entropy statics must be more predictable: low {low} vs high {high}"
        );
        assert!(results.render().contains("ext-entropy"));
    }

    #[test]
    fn entropy_bench_means_are_positive_and_bounded() {
        let mut store = test_store();
        let results = entropy(&mut store).unwrap();
        assert_eq!(results.bench_means.len(), 7);
        for (benchmark, s, d) in &results.bench_means {
            assert!((0.0..=64.0).contains(s), "{benchmark} static mean {s}");
            assert!((0.0..=64.0).contains(d), "{benchmark} dynamic mean {d}");
        }
    }
}
