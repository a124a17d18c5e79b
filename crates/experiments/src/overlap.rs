//! Figure 8 (correlation of correctly predicted sets) and Figure 9
//! (cumulative improvement of FCM over stride across static instructions).

use crate::context::TraceStore;
use crate::table_fmt::{pct, TextTable};
use dvp_core::{improvement_at, improvement_curve, ImprovementPoint, PcTally, PredictorSet};
use dvp_engine::ReplayEngine;
use dvp_trace::InstrCategory;
use dvp_workloads::{Benchmark, BuildError};

/// The subset masks in the paper's legend order (bit 0 = last value,
/// bit 1 = stride, bit 2 = fcm).
pub const SUBSETS: [(&str, u32); 8] = [
    ("np", 0b000),
    ("l", 0b001),
    ("s", 0b010),
    ("ls", 0b011),
    ("f", 0b100),
    ("lf", 0b101),
    ("sf", 0b110),
    ("lsf", 0b111),
];

/// Categories shown in Figures 8–10.
pub const SHOWN_CATEGORIES: [InstrCategory; 5] = [
    InstrCategory::AddSub,
    InstrCategory::Loads,
    InstrCategory::Logic,
    InstrCategory::Shift,
    InstrCategory::Set,
];

/// Combined results for Figures 8 and 9 (computed in one pass: both need
/// the same l/s2/fcm3 lockstep run).
#[derive(Debug)]
pub struct OverlapResults {
    /// Per-benchmark predictor sets (kept for per-benchmark queries).
    pub per_benchmark: Vec<(Benchmark, PredictorSet)>,
    /// Every benchmark's per-static-instruction tallies, concatenated
    /// (static instructions of different benchmarks are never the same).
    pub pooled_tallies: Vec<PcTally>,
}

/// Runs the l + s2 + fcm3 lockstep over every benchmark, through the
/// replay engine.
///
/// The correct-*subset* of each dynamic instruction needs all three
/// predictors on the same record, so each benchmark replays through
/// [`ReplayEngine::observe`]: every unit of instructions runs its own
/// [`PredictorSet::paper_trio`] and the unit sets merge back — exact
/// counts, so the result is identical to a sequential pass at any worker
/// count.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn run(store: &mut TraceStore, engine: &ReplayEngine) -> Result<OverlapResults, BuildError> {
    store.prefetch(engine, &Benchmark::ALL)?;
    let mut per_benchmark: Vec<(Benchmark, PredictorSet)> = Vec::new();
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        per_benchmark.push((benchmark, engine.observe(&trace, PredictorSet::paper_trio)));
    }

    let mut pooled_tallies = Vec::new();
    for (_, set) in &per_benchmark {
        pooled_tallies.extend(set.per_pc_tallies().into_iter().map(|(_, tally)| tally));
    }
    Ok(OverlapResults { per_benchmark, pooled_tallies })
}

impl OverlapResults {
    /// Mean (across benchmarks) fraction of dynamic instructions whose
    /// correct-set is exactly `mask`, within `category`.
    #[must_use]
    pub fn mean_subset_fraction(&self, category: Option<InstrCategory>, mask: u32) -> f64 {
        let fractions: Vec<f64> =
            self.per_benchmark.iter().map(|(_, set)| set.subset_fraction(category, mask)).collect();
        fractions.iter().sum::<f64>() / fractions.len() as f64
    }

    /// Renders Figure 8.
    #[must_use]
    pub fn render_figure8(&self) -> String {
        let mut header = vec!["Subset".to_owned(), "All".to_owned()];
        header.extend(SHOWN_CATEGORIES.iter().map(|c| c.code().to_owned()));
        let mut table = TextTable::new(header);
        for (name, mask) in SUBSETS {
            let mut cells = vec![name.to_owned(), pct(self.mean_subset_fraction(None, mask))];
            cells.extend(
                SHOWN_CATEGORIES.iter().map(|&c| pct(self.mean_subset_fraction(Some(c), mask))),
            );
            table.row(cells);
        }
        format!(
            "Figure 8: contribution of the different predictors (% of dynamic instructions)\n\
             (l = last value only correct, s = stride only, f = fcm only, np = none;\n\
              paper: np ~18%, lsf ~40%, f-only >20%, l+ls <5% beyond what fcm catches)\n{}",
            table.render()
        )
    }

    /// The Figure 9 cumulative-improvement curve (fcm over stride) for a
    /// category (or all instructions with `None`).
    #[must_use]
    pub fn figure9_curve(&self, category: Option<InstrCategory>) -> Vec<ImprovementPoint> {
        // Indexes into PredictorSet::paper_trio: 1 = stride, 2 = fcm.
        improvement_curve(&self.pooled_tallies, 2, 1, category)
    }

    /// Renders Figure 9 as a table of curve samples.
    #[must_use]
    pub fn render_figure9(&self) -> String {
        let samples = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0, 50.0, 100.0];
        let mut header = vec!["% improving statics".to_owned(), "All".to_owned()];
        header.extend(SHOWN_CATEGORIES.iter().map(|c| c.code().to_owned()));
        let mut table = TextTable::new(header);
        let all_curve = self.figure9_curve(None);
        let cat_curves: Vec<Vec<ImprovementPoint>> =
            SHOWN_CATEGORIES.iter().map(|&c| self.figure9_curve(Some(c))).collect();
        for s in samples {
            let mut cells =
                vec![format!("{s:.0}"), format!("{:.1}", improvement_at(&all_curve, s))];
            cells.extend(cat_curves.iter().map(|c| format!("{:.1}", improvement_at(c, s))));
            table.row(cells);
        }
        format!(
            "Figure 9: cumulative % of total fcm-over-stride improvement vs\n\
             % of improving static instructions (paper: ~20% of statics give ~97%)\n{}",
            table.render()
        )
    }

    /// Convenience: the improvement coverage at 20% of static instructions
    /// (the paper's headline number is ~97%).
    #[must_use]
    pub fn improvement_at_20pct(&self) -> f64 {
        improvement_at(&self.figure9_curve(None), 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_fractions_partition_unity() {
        let mut store = TraceStore::with_scale_div(1000)
            .with_record_cap(if cfg!(debug_assertions) { 25_000 } else { 150_000 });
        let results = run(&mut store, &ReplayEngine::new()).unwrap();
        let total: f64 = SUBSETS.iter().map(|&(_, m)| results.mean_subset_fraction(None, m)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn fcm_only_exceeds_stride_only_beyond_fcm() {
        // The fcm-only fraction needs warm context tables (~100k records),
        // so no debug-build cap reduction here.
        let mut store = TraceStore::with_scale_div(1000).with_record_cap(150_000);
        let results = run(&mut store, &ReplayEngine::new()).unwrap();
        // Paper: fcm captures > 20% alone; stride+lv beyond fcm < 5%-ish.
        let f_only = results.mean_subset_fraction(None, 0b100);
        let beyond_fcm = results.mean_subset_fraction(None, 0b001)
            + results.mean_subset_fraction(None, 0b010)
            + results.mean_subset_fraction(None, 0b011);
        assert!(f_only > beyond_fcm, "f {f_only} vs l/s/ls {beyond_fcm}");
    }

    #[test]
    fn improvement_concentrates_in_few_statics() {
        let mut store = TraceStore::with_scale_div(1000)
            .with_record_cap(if cfg!(debug_assertions) { 25_000 } else { 150_000 });
        let results = run(&mut store, &ReplayEngine::new()).unwrap();
        let at20 = results.improvement_at_20pct();
        assert!(at20 > 60.0, "20% of statics should cover most improvement: {at20}");
        assert!(results.render_figure8().contains("lsf"));
        assert!(results.render_figure9().contains("Figure 9"));
    }
}
