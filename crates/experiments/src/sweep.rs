//! The synthetic scenario sweep: a (scenario × parameter × predictor)
//! matrix mapping where each predictor family wins and breaks.
//!
//! The paper's experiments probe seven fixed workloads; this extension
//! probes *behaviour classes* directly. [`default_grid`] enumerates a
//! parameter grid over every [`ScenarioKind`] (pure and jittered strides,
//! cycle lengths, Markov orders, chase arenas, alphabet sizes, a blend),
//! [`run`] replays all of them under a predictor bank on the parallel
//! engine, and each row is scored against the generator's *analytic*
//! expectation ([`Scenario::expected`]) — an order-k Markov chain must
//! saturate `fcm{k}`, a pure stride must saturate `s2`, uniform noise must
//! defeat everyone. A predictor regression therefore surfaces as a `met:
//! no` cell (and a nonzero `repro sweep` exit code), not just a golden
//! diff.
//!
//! Scenario traces go through the shared [`TraceStore`] path: generated
//! once per process, persisted in the fingerprint-keyed container cache
//! with `--trace-dir`, and replayed with bit-identical results at any
//! worker count.
//!
//! # Examples
//!
//! ```
//! use dvp_core::PredictorConfig;
//! use dvp_engine::ReplayEngine;
//! use dvp_experiments::{sweep, TraceStore};
//! use dvp_workloads::synthetic::{Scenario, ScenarioKind};
//!
//! let grid = [Scenario::new(ScenarioKind::Stride { stride: 3, jitter_pct: 0 }, 4, 512, 1)];
//! let mut store = TraceStore::new();
//! let results =
//!     sweep::run(&mut store, &ReplayEngine::sequential(), &grid, &PredictorConfig::paper_bank());
//! assert!(results.all_met(), "a pure stride must saturate s2:\n{}", results.render());
//! ```

use crate::context::TraceStore;
use crate::json;
use crate::table_fmt::{pct, TextTable};
use dvp_core::PredictorConfig;
use dvp_engine::ReplayEngine;
use dvp_workloads::synthetic::{Expectation, Scenario, ScenarioKind};

/// One scenario's replay outcome: per-configuration accuracy against the
/// generator's analytic expectation.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The scenario that produced this row.
    pub scenario: Scenario,
    /// Records actually replayed (after any store record cap).
    pub records: u64,
    /// `(configuration name, overall accuracy)` in bank order.
    pub accuracy: Vec<(String, f64)>,
    /// The analytic expectation the accuracies were checked against.
    pub expected: Expectation,
    /// Sampled-replay check (`Some` only under [`run_sampled`]): the
    /// largest absolute sampled-vs-full accuracy error across the bank,
    /// in percentage points, using the functionally-warmed estimator
    /// (exact state, representative windows tallied).
    pub sampled_err_pp: Option<f64>,
    /// Whether every configuration satisfied the expectation (and, under
    /// [`run_sampled`], the sampling error stayed within
    /// [`crate::phases::ERROR_LIMIT_PP`]).
    pub met: bool,
}

/// Results of a full sweep, renderable as a table, CSV, or JSON.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Configuration names, in bank order (the table's accuracy columns).
    pub bank: Vec<String>,
    /// One row per scenario, in grid order.
    pub rows: Vec<SweepRow>,
}

/// The default scenario × parameter grid of `repro sweep`. `quick` shrinks
/// the per-PC record count (the floors in [`Scenario::expected`] adapt, so
/// every row is expected to stay `met` at either size).
#[must_use]
pub fn default_grid(quick: bool) -> Vec<Scenario> {
    let (pcs, rpp) = if quick { (16, 3072) } else { (32, 16384) };
    let kinds = [
        ScenarioKind::Constant,
        ScenarioKind::Stride { stride: 1, jitter_pct: 0 },
        ScenarioKind::Stride { stride: -7, jitter_pct: 0 },
        ScenarioKind::Stride { stride: 3, jitter_pct: 5 },
        ScenarioKind::Periodic { period: 4 },
        ScenarioKind::Periodic { period: 64 },
        ScenarioKind::Markov { order: 1, alphabet: 4 },
        ScenarioKind::Markov { order: 2, alphabet: 4 },
        ScenarioKind::Markov { order: 3, alphabet: 4 },
        ScenarioKind::Chase { heap: 64 },
        ScenarioKind::Chase { heap: 512 },
        ScenarioKind::Random { alphabet: 4 },
        ScenarioKind::Random { alphabet: 1 << 20 },
        ScenarioKind::Mixed,
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(index, kind)| Scenario::new(kind, pcs, rpp, 0xD1CE_0000 + index as u64))
        .collect()
}

/// Replays every scenario of `grid` under every configuration of `bank`
/// (one `replay_matrix` call — the full matrix fans out as (trace, config,
/// shard) jobs) and scores each row against its analytic expectation.
/// Scenario traces are acquired through `store` (and generated on its
/// engine), so a configured trace directory serves warm runs without
/// generating.
pub fn run(
    store: &mut TraceStore,
    engine: &ReplayEngine,
    grid: &[Scenario],
    bank: &[PredictorConfig],
) -> SweepResults {
    run_inner(store, engine, grid, bank, false)
}

/// As [`run`], additionally replaying every scenario *sampled* under its
/// SimPoint phase plan (default [`dvp_engine::PhaseOptions`]) and
/// recording the worst sampled-vs-full accuracy error per row — the
/// `repro sweep --sample` path. A row only counts as `met` if it meets
/// its analytic expectation **and** its error stays within
/// [`crate::phases::ERROR_LIMIT_PP`], so a sampling-bias regression
/// fails the sweep exactly like a predictor regression.
pub fn run_sampled(
    store: &mut TraceStore,
    engine: &ReplayEngine,
    grid: &[Scenario],
    bank: &[PredictorConfig],
) -> SweepResults {
    run_inner(store, engine, grid, bank, true)
}

fn run_inner(
    store: &mut TraceStore,
    engine: &ReplayEngine,
    grid: &[Scenario],
    bank: &[PredictorConfig],
    sample: bool,
) -> SweepResults {
    let traces = store.synthetic_traces(grid);
    let matrix = engine.replay_matrix(&traces, bank);
    let rows = grid
        .iter()
        .zip(&traces)
        .zip(matrix)
        .map(|((scenario, trace), replays)| {
            let accuracy: Vec<(String, f64)> = replays
                .into_iter()
                .map(|r| {
                    let acc = r.accuracy();
                    (r.name, acc)
                })
                .collect();
            let sampled_err_pp = sample.then(|| {
                let plan = store.scenario_phase_plan(scenario, trace);
                let sampled = engine.replay_sampled_warm(trace, bank, &plan);
                accuracy
                    .iter()
                    .zip(&sampled)
                    .map(|((_, full), sampled)| {
                        (full - sampled.weighted_accuracy(&plan, None)).abs() * 100.0
                    })
                    .fold(0.0, f64::max)
            });
            let expected = scenario.expected();
            let met = expected.met(&accuracy)
                && sampled_err_pp.is_none_or(|err| err <= crate::phases::ERROR_LIMIT_PP);
            SweepRow {
                scenario: *scenario,
                records: trace.len() as u64,
                accuracy,
                expected,
                sampled_err_pp,
                met,
            }
        })
        .collect();
    SweepResults { bank: bank.iter().map(|c| c.name().to_owned()).collect(), rows }
}

impl SweepResults {
    /// Whether every row satisfied its analytic expectation.
    #[must_use]
    pub fn all_met(&self) -> bool {
        self.rows.iter().all(|row| row.met)
    }

    /// Whether these results carry sampled-replay error columns (i.e.
    /// they came from [`run_sampled`]).
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.rows.iter().any(|row| row.sampled_err_pp.is_some())
    }

    /// Renders the human-readable table (the `repro sweep` default).
    #[must_use]
    pub fn render(&self) -> String {
        let sampled = self.sampled();
        let mut header = vec!["Scenario".to_owned(), "Params".to_owned(), "Records".to_owned()];
        header.extend(self.bank.iter().cloned());
        if sampled {
            header.push("Err(pp)".to_owned());
        }
        header.push("Expect".to_owned());
        header.push("Met".to_owned());
        let mut table = TextTable::new(header);
        for row in &self.rows {
            let mut cells = vec![
                row.scenario.name().to_owned(),
                row.scenario.params(),
                row.records.to_string(),
            ];
            cells.extend(row.accuracy.iter().map(|(_, acc)| pct(*acc)));
            if sampled {
                cells.push(format!("{:.2}", row.sampled_err_pp.unwrap_or(0.0)));
            }
            cells.push(row.expected.describe());
            cells.push(if row.met { "yes" } else { "NO" }.to_owned());
            table.row(cells);
        }
        format!(
            "Synthetic scenario sweep: accuracy (%) vs analytic expectation\n\
             (each generator isolates one behaviour class; `Expect` is derived\n\
             from its parameters, and `Met` flags predictor regressions)\n{}",
            table.render()
        )
    }

    /// Renders machine-readable CSV (accuracies as raw fractions).
    #[must_use]
    pub fn render_csv(&self) -> String {
        let sampled = self.sampled();
        let mut out = String::from("scenario,params,seed,records");
        for name in &self.bank {
            out.push(',');
            out.push_str(name);
        }
        if sampled {
            out.push_str(",sampled_err_pp");
        }
        out.push_str(",expect,met\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{},\"{}\",{},{}",
                row.scenario.name(),
                row.scenario.params(),
                row.scenario.seed(),
                row.records
            ));
            for (_, acc) in &row.accuracy {
                out.push_str(&format!(",{acc:.6}"));
            }
            if sampled {
                out.push_str(&format!(",{:.6}", row.sampled_err_pp.unwrap_or(0.0)));
            }
            out.push_str(&format!(",\"{}\",{}\n", row.expected.describe(), row.met));
        }
        out
    }

    /// Renders machine-readable JSON (an array of row objects).
    #[must_use]
    pub fn render_json(&self) -> String {
        let quote = |text: &str| {
            let mut quoted = String::new();
            json::write_string(text, &mut quoted);
            quoted
        };
        let mut out = String::from("[\n");
        for (i, row) in self.rows.iter().enumerate() {
            let accuracy = row
                .accuracy
                .iter()
                .map(|(name, acc)| format!("{}: {acc:.6}", quote(name)))
                .collect::<Vec<_>>()
                .join(", ");
            let saturating = row
                .expected
                .saturating
                .iter()
                .map(|name| quote(name))
                .collect::<Vec<_>>()
                .join(", ");
            let ceiling = row
                .expected
                .others_ceiling
                .map_or_else(|| "null".to_owned(), |c| format!("{c:.6}"));
            let err = row
                .sampled_err_pp
                .map_or_else(String::new, |e| format!("\"sampled_err_pp\": {e:.6}, "));
            out.push_str(&format!(
                "  {{\"scenario\": {}, \"params\": {}, \"seed\": {}, \"records\": {}, \
                 \"accuracy\": {{{accuracy}}}, {err}\"expected\": {{\"saturating\": [{saturating}], \
                 \"floor\": {:.6}, \"others_ceiling\": {ceiling}}}, \"met\": {}}}{}\n",
                quote(row.scenario.name()),
                quote(&row.scenario.params()),
                row.scenario.seed(),
                row.records,
                row.expected.floor,
                row.met,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> Vec<Scenario> {
        vec![
            Scenario::new(ScenarioKind::Stride { stride: 2, jitter_pct: 0 }, 2, 600, 1),
            Scenario::new(ScenarioKind::Random { alphabet: 1 << 20 }, 2, 600, 2),
        ]
    }

    fn tiny_results() -> SweepResults {
        let mut store = TraceStore::new();
        run(&mut store, &ReplayEngine::sequential(), &tiny_grid(), &PredictorConfig::paper_bank())
    }

    #[test]
    fn tiny_sweep_meets_expectations_and_renders_everywhere() {
        let results = tiny_results();
        assert_eq!(results.rows.len(), 2);
        assert!(results.all_met(), "{}", results.render());
        let table = results.render();
        assert!(table.contains("stride") && table.contains("random"), "{table}");
        assert!(table.contains("yes"), "{table}");
        let csv = results.render_csv();
        assert_eq!(csv.lines().count(), 3, "{csv}");
        assert!(csv.starts_with("scenario,params,seed,records,l,s2,fcm1,fcm2,fcm3,expect,met"));
        let json = results.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"scenario\": \"stride\""), "{json}");
        // The rendering is one well-formed JSON value.
        let mut parser = json::Parser::new(&json);
        parser.skip_value().expect("well-formed");
        parser.finish().expect("nothing after the array");
    }

    #[test]
    fn sweep_is_identical_at_any_worker_count() {
        let sequential = tiny_results();
        let mut store = TraceStore::new();
        let parallel = run(
            &mut store,
            &ReplayEngine::new().with_workers(4),
            &tiny_grid(),
            &PredictorConfig::paper_bank(),
        );
        assert_eq!(sequential.render(), parallel.render());
        assert_eq!(sequential.render_json(), parallel.render_json());
    }

    #[test]
    fn default_grid_covers_every_kind_at_both_sizes() {
        for quick in [false, true] {
            let grid = default_grid(quick);
            let kinds: std::collections::HashSet<&str> = grid.iter().map(|s| s.name()).collect();
            assert_eq!(kinds.len(), 7, "all seven generator classes present");
            // Distinct seeds so scenarios never share a value stream.
            let seeds: std::collections::HashSet<u64> = grid.iter().map(|s| s.seed()).collect();
            assert_eq!(seeds.len(), grid.len());
        }
        assert!(default_grid(true)[0].records_per_pc() < default_grid(false)[0].records_per_pc());
    }

    #[test]
    fn sampled_sweep_adds_error_columns_and_plain_sweep_does_not() {
        let mut store = TraceStore::new();
        let results = run_sampled(
            &mut store,
            &ReplayEngine::new().with_workers(2),
            &tiny_grid(),
            &PredictorConfig::paper_bank(),
        );
        assert!(results.sampled());
        // Each tiny trace fits one window, so its plan replays the whole
        // trace and the sampled estimate is exact.
        for row in &results.rows {
            assert_eq!(row.sampled_err_pp, Some(0.0), "{row:?}");
            assert!(row.met, "{row:?}");
        }
        assert!(results.render().contains("Err(pp)"));
        assert!(results.render_csv().contains("sampled_err_pp"));
        assert!(results.render_json().contains("sampled_err_pp"));

        let plain = tiny_results();
        assert!(!plain.sampled());
        assert!(!plain.render().contains("Err(pp)"));
        assert!(!plain.render_csv().contains("sampled_err_pp"));
        assert!(!plain.render_json().contains("sampled_err_pp"));
    }
}
