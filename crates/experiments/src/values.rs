//! Figure 10: how many unique values static instructions generate, and the
//! dynamic weight of each bucket (Section 4.3 of the paper).

use crate::context::TraceStore;
use crate::overlap::SHOWN_CATEGORIES;
use crate::table_fmt::{pct, TextTable};
use dvp_core::{ValueProfile, VALUE_BUCKETS};
use dvp_engine::ReplayEngine;
use dvp_trace::InstrCategory;
use dvp_workloads::{Benchmark, BuildError};

/// Figure 10 results: one value profile per benchmark, pooled when
/// reported.
#[derive(Debug)]
pub struct ValueResults {
    /// Each benchmark's profile, in [`Benchmark::ALL`] order.
    pub per_benchmark: Vec<(Benchmark, ValueProfile)>,
}

/// Runs the value-characteristics analysis: one sequential driver fold of
/// a [`ValueProfile`] per benchmark.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn run(store: &mut TraceStore) -> Result<ValueResults, BuildError> {
    let mut per_benchmark = Vec::with_capacity(Benchmark::ALL.len());
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        // Sequential on purpose: this fold is cheap, and sharded 8 ways on
        // 2 workers it measured slower (0.57 -> 0.61 s wall).
        per_benchmark
            .push((benchmark, ReplayEngine::sequential().observe(&trace, ValueProfile::new)));
    }
    Ok(ValueResults { per_benchmark })
}

/// Sums `(static, dynamic)` histograms bucket by bucket: static
/// instructions of different benchmarks are never the same instruction.
pub(crate) fn pool(hists: impl IntoIterator<Item = (Vec<u64>, Vec<u64>)>) -> (Vec<u64>, Vec<u64>) {
    let add = |a: Vec<u64>, b: Vec<u64>| a.iter().zip(&b).map(|(x, y)| x + y).collect();
    hists.into_iter().reduce(|a, b| (add(a.0, b.0), add(a.1, b.1))).unwrap_or_default()
}

impl ValueResults {
    /// Bucket labels in display order.
    #[must_use]
    pub fn bucket_labels() -> Vec<String> {
        let mut labels: Vec<String> =
            VALUE_BUCKETS.iter().map(std::string::ToString::to_string).collect();
        labels.push(format!(">{}", VALUE_BUCKETS[VALUE_BUCKETS.len() - 1]));
        labels
    }

    /// Pooled histograms over every benchmark: `(static counts,
    /// dynamic-weighted counts)` per bucket, restricted to `category` (or
    /// everything with `None`).
    #[must_use]
    pub fn histograms(&self, category: Option<InstrCategory>) -> (Vec<u64>, Vec<u64>) {
        pool(self.per_benchmark.iter().map(|(_, profile)| profile.histograms(category)))
    }

    /// Fraction of static instructions generating exactly one value (the
    /// paper reports > 50%): the first bucket's share.
    #[must_use]
    pub fn single_value_static_fraction(&self) -> f64 {
        let (static_hist, _) = self.histograms(None);
        static_hist[0] as f64 / static_hist.iter().sum::<u64>().max(1) as f64
    }

    fn render_half(&self, dynamic: bool) -> String {
        let mut header = vec!["Values".to_owned(), "All".to_owned()];
        header.extend(SHOWN_CATEGORIES.iter().map(|c| c.code().to_owned()));
        let mut table = TextTable::new(header);
        let mut columns = vec![self.histograms(None)];
        columns.extend(SHOWN_CATEGORIES.iter().map(|&c| self.histograms(Some(c))));
        let select =
            |pair: &(Vec<u64>, Vec<u64>)| if dynamic { pair.1.clone() } else { pair.0.clone() };
        let hists: Vec<Vec<u64>> = columns.iter().map(select).collect();
        let totals: Vec<u64> = hists.iter().map(|h| h.iter().sum()).collect();
        for (i, label) in Self::bucket_labels().into_iter().enumerate() {
            let mut cells = vec![label];
            for (hist, &total) in hists.iter().zip(&totals) {
                let fraction = if total == 0 { 0.0 } else { hist[i] as f64 / total as f64 };
                cells.push(pct(fraction));
            }
            table.row(cells);
        }
        table.render()
    }

    /// Renders Figure 10 (both halves: static and dynamic-weighted).
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "Figure 10: unique values generated per static instruction\n\
             (paper: >50% of statics generate one value; >90% generate <64;\n\
              >90% of dynamics come from statics generating <=4096 values)\n\n\
             Static instructions (%% per bucket):\n{}\n\
             Dynamic instructions (%% per bucket, weighted by execution count):\n{}\n\
             Single-value static fraction: {:.1}%\n",
            self.render_half(false),
            self.render_half(true),
            self.single_value_static_fraction() * 100.0,
        )
    }

    /// Fraction of dynamic instructions from statics generating at most
    /// `bound` unique values.
    #[must_use]
    pub fn dynamic_fraction_below(&self, bound: u64) -> f64 {
        let (_, dynamic) = self.histograms(None);
        let total: u64 = dynamic.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let cutoff = ValueProfile::bucket_of(bound);
        let below: u64 = dynamic.iter().take(cutoff + 1).sum();
        below as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_shape() {
        let mut store = TraceStore::with_scale_div(1000)
            .with_record_cap(if cfg!(debug_assertions) { 25_000 } else { 150_000 });
        let results = run(&mut store).unwrap();
        // Paper: a large fraction of statics produce a single value, and
        // most dynamics come from statics with bounded value sets.
        let single = results.single_value_static_fraction();
        assert!(single > 0.25, "single-value statics {single}");
        let below_4096 = results.dynamic_fraction_below(4096);
        assert!(below_4096 > 0.80, "dynamics from <=4096-value statics: {below_4096}");
        assert!(results.render().contains("Figure 10"));
    }

    #[test]
    fn bucket_labels_cover_all_buckets() {
        let labels = ValueResults::bucket_labels();
        assert_eq!(labels.len(), VALUE_BUCKETS.len() + 1);
        assert_eq!(labels[0], "1");
        assert!(labels.last().unwrap().starts_with('>'));
    }
}
