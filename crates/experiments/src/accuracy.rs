//! Figures 3–7: prediction accuracy of l, s2, fcm1, fcm2, fcm3 — overall
//! and per instruction category, per benchmark.

use crate::context::TraceStore;
use crate::table_fmt::{pct, TextTable};
use dvp_core::{AccuracyTracker, PredictorConfig};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_trace::InstrCategory;
use dvp_workloads::{Benchmark, BuildError};

/// Names of the predictors, in reporting order (L, S2, FCM1, FCM2, FCM3).
#[must_use]
pub fn predictor_names() -> Vec<String> {
    PredictorConfig::paper_bank().iter().map(|c| c.name().to_owned()).collect()
}

/// Per-benchmark accuracy accounting for all five predictors.
#[derive(Debug)]
pub struct AccuracyResults {
    /// `(benchmark, per-predictor trackers)` in predictor reporting order.
    pub per_benchmark: Vec<(Benchmark, Vec<AccuracyTracker>)>,
}

/// Runs the accuracy experiment through the replay engine: the full
/// predictor×benchmark matrix (5 × 7 cells, further split into PC shards)
/// fans out over the engine's worker pool. Predictor tables are per
/// benchmark (as in the paper) and per shard, so workers share nothing;
/// the merged tallies are identical to a sequential lockstep pass at any
/// worker count.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn run(store: &mut TraceStore, engine: &ReplayEngine) -> Result<AccuracyResults, BuildError> {
    store.prefetch(engine, &Benchmark::ALL)?;
    let traces: Vec<SharedTrace> =
        Benchmark::ALL.iter().map(|&b| store.trace(b)).collect::<Result<_, _>>()?;
    let matrix = engine.replay_matrix(&traces, &PredictorConfig::paper_bank());
    let per_benchmark = Benchmark::ALL
        .into_iter()
        .zip(matrix)
        .map(|(benchmark, replays)| {
            (benchmark, replays.into_iter().map(|replay| replay.tracker).collect())
        })
        .collect();
    Ok(AccuracyResults { per_benchmark })
}

impl AccuracyResults {
    /// Accuracy of predictor `index` on `benchmark` for `category`
    /// (or overall with `None`).
    #[must_use]
    pub fn accuracy(
        &self,
        benchmark: Benchmark,
        index: usize,
        category: Option<InstrCategory>,
    ) -> f64 {
        self.per_benchmark
            .iter()
            .find(|(b, _)| *b == benchmark)
            .map_or(0.0, |(_, trackers)| trackers[index].accuracy(category))
    }

    /// Arithmetic mean across benchmarks (the paper's averaging rule) of
    /// predictor `index` for `category`.
    #[must_use]
    pub fn mean_accuracy(&self, index: usize, category: Option<InstrCategory>) -> f64 {
        let accs: Vec<f64> = self
            .per_benchmark
            .iter()
            .filter(|(_, trackers)| trackers[index].predicted(category) > 0)
            .map(|(_, trackers)| trackers[index].accuracy(category))
            .collect();
        if accs.is_empty() {
            0.0
        } else {
            accs.iter().sum::<f64>() / accs.len() as f64
        }
    }

    fn render_for(&self, category: Option<InstrCategory>, title: &str, paper_note: &str) -> String {
        let names = predictor_names();
        let mut header = vec!["Benchmark".to_owned()];
        header.extend(names.iter().cloned());
        let mut table = TextTable::new(header);
        for (benchmark, trackers) in &self.per_benchmark {
            let mut cells = vec![benchmark.name().to_owned()];
            cells.extend(trackers.iter().map(|t| pct(t.accuracy(category))));
            table.row(cells);
        }
        let mut mean_cells = vec!["mean".to_owned()];
        for index in 0..names.len() {
            mean_cells.push(pct(self.mean_accuracy(index, category)));
        }
        table.row(mean_cells);
        format!("{title}\n{paper_note}\n{}", table.render())
    }

    /// Renders Figure 3 (overall accuracy).
    #[must_use]
    pub fn render_overall(&self) -> String {
        self.render_for(
            None,
            "Figure 3: prediction success, all instructions (%)",
            "(paper means: L ~40, S2 ~56, FCM3 ~78; ordering L < S2 < FCM1 < FCM2 < FCM3)",
        )
    }

    /// Renders one of Figures 4–7 for a category.
    #[must_use]
    pub fn render_category(&self, category: InstrCategory) -> String {
        let figure = match category {
            InstrCategory::AddSub => "Figure 4",
            InstrCategory::Loads => "Figure 5",
            InstrCategory::Logic => "Figure 6",
            InstrCategory::Shift => "Figure 7",
            other => return format!("(no paper figure for category {other})"),
        };
        let note = match category {
            InstrCategory::AddSub => "(paper: stride does especially well here)",
            InstrCategory::Loads => "(paper: loads are harder; stride ~ last value)",
            InstrCategory::Logic => "(paper: very predictable, especially by fcm)",
            _ => "(paper: shifts are the most difficult to predict)",
        };
        self.render_for(
            Some(category),
            &format!("{figure}: prediction success, {} instructions (%)", category.code()),
            note,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::{FcmPredictor, Predictor, StridePredictor};

    #[test]
    fn ordering_matches_paper_on_small_traces() {
        // The steady-state comparison below needs FCM warmup, which needs
        // ~100k records — so no debug-build cap reduction here.
        let mut store = TraceStore::with_scale_div(1000).with_record_cap(150_000);
        let results = run(&mut store, &ReplayEngine::new()).unwrap();
        // Robust orderings at small trace lengths: L < S2, L < FCM3, and
        // FCM order monotonicity. (The full S2 < FCM3 ordering needs FCM
        // warmup and is asserted at larger caps in tests/paper_claims.rs.)
        let l = results.mean_accuracy(0, None);
        let s2 = results.mean_accuracy(1, None);
        let fcm1 = results.mean_accuracy(2, None);
        let fcm2 = results.mean_accuracy(3, None);
        let fcm3 = results.mean_accuracy(4, None);
        assert!(l < s2, "L {l} < S2 {s2}");
        assert!(l < fcm3, "L {l} < FCM3 {fcm3}");
        assert!(fcm1 <= fcm2 + 0.02 && fcm2 <= fcm3 + 0.02, "{fcm1} {fcm2} {fcm3}");
        assert!((0.15..0.80).contains(&l), "L plausibility: {l}");
        assert!((0.40..0.98).contains(&fcm3), "FCM3 plausibility: {fcm3}");

        // Steady-state comparison (warmup excluded): feed the first half,
        // then measure on the second half, where context tables are warm —
        // there FCM3 must beat stride, the paper's central result.
        use dvp_workloads::Benchmark;
        let mut s2_ss = (0u64, 0u64);
        let mut fcm_ss = (0u64, 0u64);
        for benchmark in Benchmark::ALL {
            let trace = store.trace(benchmark).unwrap();
            let half = trace.len() / 2;
            let mut stride = StridePredictor::two_delta();
            let mut fcm = FcmPredictor::new(3);
            for (i, (rec, id)) in trace.iter_with_ids().enumerate() {
                let sc = stride.step(id, rec.pc, rec.value) == Some(rec.value);
                let fc = fcm.step(id, rec.pc, rec.value) == Some(rec.value);
                if i >= half {
                    s2_ss.0 += u64::from(sc);
                    s2_ss.1 += 1;
                    fcm_ss.0 += u64::from(fc);
                    fcm_ss.1 += 1;
                }
            }
        }
        let s2_steady = s2_ss.0 as f64 / s2_ss.1 as f64;
        let fcm_steady = fcm_ss.0 as f64 / fcm_ss.1 as f64;
        assert!(
            fcm_steady > s2_steady,
            "steady-state fcm3 {fcm_steady:.3} must beat s2 {s2_steady:.3}"
        );
    }

    #[test]
    fn renders_contain_all_benchmarks() {
        let mut store = TraceStore::with_scale_div(1000)
            .with_record_cap(if cfg!(debug_assertions) { 25_000 } else { 150_000 });
        let results = run(&mut store, &ReplayEngine::new()).unwrap();
        let text = results.render_overall();
        for benchmark in Benchmark::ALL {
            assert!(text.contains(benchmark.name()));
        }
        for cat in [
            InstrCategory::AddSub,
            InstrCategory::Loads,
            InstrCategory::Logic,
            InstrCategory::Shift,
        ] {
            assert!(results.render_category(cat).contains("Figure"));
        }
    }
}
