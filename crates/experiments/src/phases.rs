//! Phase sampling over the paper's workloads: SimPoint plans plus the
//! sampled-vs-full accuracy error harness.
//!
//! The replay engine can already replay every record of every trace; this
//! module asks how few records it could get away with. [`report`] builds
//! each benchmark's deterministic [`PhasePlan`] (profiling pass +
//! seeded k-means in `dvp-engine`, default
//! [`PhaseOptions`](dvp_engine::PhaseOptions)) and renders it — the
//! `repro phases` output, byte-identical at every `--workers` setting
//! because planning is a pure sequential function of the trace.
//! [`validate`] is the error harness behind `repro --sample`: it replays
//! every workload three ways — fully, sampled with functional warming
//! (state exact, only representative windows tallied), and sampled cold
//! (only warmup + windows touched at all) — and tables the absolute
//! accuracy error per predictor family next to the record-count
//! reduction. The harness *gates on the warm mode*: its estimate differs
//! from the full replay only by the clustering's weighting error, so a
//! drift past [`ERROR_LIMIT_PP`] percentage points on any family means
//! the profiling features or the clustering regressed and the run fails
//! with a nonzero exit code, not a silent bias. The cold column is
//! reported, not gated: history-hungry predictors (the unbounded `fcm`
//! tables) are structurally under-warmed by any short prefix, and the
//! harness is precisely the instrument that quantifies that bias.

use crate::context::TraceStore;
use crate::table_fmt::{pct, TextTable};
use dvp_core::PredictorConfig;
use dvp_engine::ReplayEngine;
use dvp_trace::PhasePlan;
use dvp_workloads::{Benchmark, BuildError};

/// Largest tolerated absolute sampled-vs-full accuracy error, in
/// percentage points, per (benchmark, configuration) cell.
pub const ERROR_LIMIT_PP: f64 = 1.0;

/// The phase plans of a set of benchmarks, in input order — the data
/// behind `repro phases`.
#[derive(Debug, Clone)]
pub struct PhasesReport {
    /// `(benchmark, its plan)` pairs.
    pub plans: Vec<(Benchmark, PhasePlan)>,
}

/// Builds (or recalls) the default phase plan of every benchmark in
/// `benchmarks`, generating traces through `store` as needed.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn report(
    store: &mut TraceStore,
    benchmarks: &[Benchmark],
) -> Result<PhasesReport, BuildError> {
    let mut plans = Vec::with_capacity(benchmarks.len());
    for &benchmark in benchmarks {
        plans.push((benchmark, store.phase_plan(benchmark)?));
    }
    Ok(PhasesReport { plans })
}

impl PhasesReport {
    /// Renders the plan summary and the per-phase detail tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut summary = TextTable::new(vec![
            "Benchmark",
            "Records",
            "Windows",
            "Phases",
            "Replayed",
            "Replayed%",
        ]);
        let mut detail =
            TextTable::new(vec!["Benchmark", "Phase", "Weight%", "Start", "End", "Cluster"]);
        for (benchmark, plan) in &self.plans {
            let windows = if plan.window_records == 0 {
                0
            } else {
                plan.total_records.div_ceil(plan.window_records)
            };
            let replayed = plan.replayed_records();
            let share = if plan.total_records == 0 {
                0.0
            } else {
                replayed as f64 / plan.total_records as f64
            };
            summary.row(vec![
                benchmark.name().to_owned(),
                plan.total_records.to_string(),
                windows.to_string(),
                plan.phases.len().to_string(),
                replayed.to_string(),
                pct(share),
            ]);
            for (i, phase) in plan.phases.iter().enumerate() {
                detail.row(vec![
                    benchmark.name().to_owned(),
                    i.to_string(),
                    pct(plan.weight(i)),
                    phase.start.to_string(),
                    phase.end.to_string(),
                    phase.cluster_records.to_string(),
                ]);
            }
        }
        let header = self
            .plans
            .first()
            .map(|(_, plan)| {
                format!(
                    "(window {} records, warmup {} records, seed {:#x})\n",
                    plan.window_records, plan.warmup_records, plan.seed
                )
            })
            .unwrap_or_default();
        format!(
            "SimPoint phase plans: representative windows per workload\n{header}{}\n\n\
             Per-phase representatives (weight = trace share of the cluster)\n{}",
            summary.render(),
            detail.render()
        )
    }
}

/// One (benchmark, configuration) cell of the error harness.
#[derive(Debug, Clone)]
pub struct SampleCell {
    /// Configuration name, in bank order.
    pub config: String,
    /// Full-replay overall accuracy.
    pub full: f64,
    /// Functionally-warmed sampled estimate (state exact, windows
    /// tallied) — the gated number.
    pub warm: f64,
    /// Cold sampled estimate (only warmup + windows touched).
    pub cold: f64,
}

impl SampleCell {
    /// Absolute warm-estimate error in percentage points — the gated
    /// quantity.
    #[must_use]
    pub fn error_pp(&self) -> f64 {
        (self.full - self.warm).abs() * 100.0
    }

    /// Absolute cold-estimate error in percentage points (reported,
    /// not gated).
    #[must_use]
    pub fn cold_error_pp(&self) -> f64 {
        (self.full - self.cold).abs() * 100.0
    }
}

/// One benchmark's row of the error harness.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Records in the (possibly capped) trace.
    pub records: u64,
    /// Records inside tallied representative windows — what both
    /// sampled modes *measure*.
    pub tallied: u64,
    /// Records the cold sampled replay touches at all (warmup +
    /// windows).
    pub replayed: u64,
    /// Per-configuration accuracies, in bank order.
    pub cells: Vec<SampleCell>,
}

impl SampleRow {
    /// Full-trace records over tallied records (0.0 only for an empty
    /// plan, which an empty trace never reaches here).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.tallied == 0 {
            0.0
        } else {
            self.records as f64 / self.tallied as f64
        }
    }
}

/// The full sampled-vs-full validation matrix — the data behind
/// `repro --sample`.
#[derive(Debug, Clone)]
pub struct SampleValidation {
    /// One row per benchmark, in [`Benchmark::ALL`] order.
    pub rows: Vec<SampleRow>,
}

/// Replays every benchmark fully, warm-sampled, and cold-sampled under
/// `bank` and collects the per-family accuracy errors. Traces and plans
/// come from `store` (so a configured trace directory serves both
/// without simulating).
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn validate(
    store: &mut TraceStore,
    engine: &ReplayEngine,
    bank: &[PredictorConfig],
) -> Result<SampleValidation, BuildError> {
    let mut rows = Vec::with_capacity(Benchmark::ALL.len());
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        let plan = store.phase_plan(benchmark)?;
        let full = engine.replay(&trace, bank);
        let warm = engine.replay_sampled_warm(&trace, bank, &plan);
        let cold = engine.replay_sampled(&trace, bank, &plan);
        let cells = full
            .iter()
            .zip(&warm)
            .zip(&cold)
            .map(|((full, warm), cold)| SampleCell {
                config: full.name.clone(),
                full: full.accuracy(),
                warm: warm.weighted_accuracy(&plan, None),
                cold: cold.weighted_accuracy(&plan, None),
            })
            .collect();
        rows.push(SampleRow {
            benchmark,
            records: trace.len() as u64,
            tallied: plan.simulated_records(),
            replayed: plan.replayed_records(),
            cells,
        });
    }
    Ok(SampleValidation { rows })
}

impl SampleValidation {
    /// The largest error across every cell, in percentage points.
    #[must_use]
    pub fn max_error_pp(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|row| row.cells.iter().map(SampleCell::error_pp))
            .fold(0.0, f64::max)
    }

    /// The smallest record-count reduction across benchmarks.
    #[must_use]
    pub fn min_reduction(&self) -> f64 {
        self.rows.iter().map(SampleRow::reduction).fold(f64::INFINITY, f64::min)
    }

    /// Whether every cell's error is within [`ERROR_LIMIT_PP`].
    #[must_use]
    pub fn all_within_limit(&self) -> bool {
        self.max_error_pp() <= ERROR_LIMIT_PP
    }

    /// Renders the validation table plus a verdict line. The `Warm`
    /// columns are the gated estimate (functional warming: exact state,
    /// windows tallied); the `Cold` columns quantify the bias of
    /// replaying warmup + windows alone.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Benchmark",
            "Config",
            "Full%",
            "Warm%",
            "WarmErr(pp)",
            "Cold%",
            "ColdErr(pp)",
            "Tallied",
            "Reduction",
        ]);
        for row in &self.rows {
            for cell in &row.cells {
                table.row(vec![
                    row.benchmark.name().to_owned(),
                    cell.config.clone(),
                    pct(cell.full),
                    pct(cell.warm),
                    format!("{:.2}", cell.error_pp()),
                    pct(cell.cold),
                    format!("{:.2}", cell.cold_error_pp()),
                    row.tallied.to_string(),
                    format!("{:.1}x", row.reduction()),
                ]);
            }
        }
        format!(
            "Phase-sampled replay vs full replay (overall accuracy)\n{}\n\
             max warm |error| {:.2} pp (limit {ERROR_LIMIT_PP:.2}), \
             min tallied-record reduction {:.1}x: {}",
            table.render(),
            self.max_error_pp(),
            self.min_reduction(),
            if self.all_within_limit() { "within limit" } else { "OVER LIMIT" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_store() -> TraceStore {
        TraceStore::with_scale_div(1000).with_record_cap(20_000)
    }

    #[test]
    fn report_is_deterministic_and_renders_every_benchmark() {
        let benchmarks = [Benchmark::M88k, Benchmark::Compress];
        let a = report(&mut tiny_store(), &benchmarks).expect("plans");
        let b = report(&mut tiny_store(), &benchmarks).expect("plans");
        assert_eq!(a.plans, b.plans);
        let text = a.render();
        assert!(text.contains("m88k") && text.contains("compress"), "{text}");
        assert!(text.contains("Replayed%"), "{text}");
    }

    #[test]
    fn validation_reports_errors_and_reductions() {
        let mut store = tiny_store();
        let engine = ReplayEngine::new().with_workers(2);
        let bank = PredictorConfig::fcm_orders([1]);
        let validation = validate(&mut store, &engine, &bank).expect("validates");
        assert_eq!(validation.rows.len(), Benchmark::ALL.len());
        for row in &validation.rows {
            assert_eq!(row.cells.len(), 1);
            // Tallied windows are disjoint and in bounds; the cold
            // replay's total can exceed the trace length on a tiny
            // capped trace (each phase warms its own cold predictor),
            // but never by more than one warmup region per phase.
            assert!(row.tallied > 0 && row.tallied <= row.records, "{row:?}");
            let plan = store.phase_plan(row.benchmark).expect("plan is memoized");
            let bound = row.records + plan.warmup_records * plan.phases.len() as u64;
            assert!(row.replayed > 0 && row.replayed <= bound, "{row:?}");
        }
        let text = validation.render();
        assert!(text.contains("max warm |error|"), "{text}");
    }
}
