//! Workload characterization: Table 2 (benchmark sizes), Table 3
//! (instruction categories), Tables 4–5 (static counts and dynamic
//! percentages of predicted instructions by type).

use crate::context::TraceStore;
use crate::table_fmt::{pct, TextTable};
use dvp_engine::ReplayEngine;
use dvp_trace::{InstrCategory, TraceSummary};
use dvp_workloads::{Benchmark, BuildError};

/// One benchmark's Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Which benchmark.
    pub benchmark: Benchmark,
    /// Input name.
    pub input: String,
    /// Total dynamic instructions retired.
    pub retired: u64,
    /// Predicted (register-writing) dynamic instructions.
    pub predicted: u64,
}

/// Table 2: benchmark characteristics.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// One row per benchmark.
    pub rows: Vec<Table2Row>,
}

/// Runs Table 2.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn table2(store: &mut TraceStore) -> Result<Table2, BuildError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let predicted = store.predicted(benchmark)?;
        let retired = store.retired(benchmark)?;
        rows.push(Table2Row {
            benchmark,
            input: store.workload(benchmark).input_name().to_owned(),
            retired,
            predicted,
        });
    }
    Ok(Table2 { rows })
}

impl Table2 {
    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = TextTable::new(vec![
            "Benchmark",
            "SPEC analog",
            "Input",
            "Dynamic Instr.",
            "Predicted",
            "Predicted %",
        ]);
        for row in &self.rows {
            table.row(vec![
                row.benchmark.name().to_owned(),
                row.benchmark.spec_analog().to_owned(),
                row.input.clone(),
                row.retired.to_string(),
                row.predicted.to_string(),
                pct(row.predicted as f64 / row.retired as f64),
            ]);
        }
        format!(
            "Table 2: benchmark characteristics (paper: predicted fraction 62%-84%)\n{}",
            table.render()
        )
    }
}

/// Table 3: the instruction categories (definitional — included so the
/// report is self-contained).
#[must_use]
pub fn table3() -> String {
    let mut table = TextTable::new(vec!["Instruction Types", "Code"]);
    let desc: [(&str, InstrCategory); 8] = [
        ("Addition, Subtraction", InstrCategory::AddSub),
        ("Loads", InstrCategory::Loads),
        ("And, Or, Xor, Nor", InstrCategory::Logic),
        ("Shifts", InstrCategory::Shift),
        ("Compare and Set", InstrCategory::Set),
        ("Multiply and Divide", InstrCategory::MultDiv),
        ("Load immediate (upper)", InstrCategory::Lui),
        ("Jump-and-link, Other", InstrCategory::Other),
    ];
    for (text, cat) in desc {
        table.row(vec![text.to_owned(), cat.code().to_owned()]);
    }
    format!("Table 3: instruction categories\n{}", table.render())
}

/// Tables 4 and 5: per-benchmark static counts and dynamic percentages of
/// predicted instructions by category.
#[derive(Debug, Clone)]
pub struct Table45 {
    /// Per benchmark, the trace summary it was computed from.
    pub summaries: Vec<(Benchmark, TraceSummary)>,
}

/// Runs Tables 4–5: one sequential driver fold of a [`TraceSummary`] per
/// benchmark.
///
/// # Errors
///
/// Propagates workload build/run errors.
pub fn table45(store: &mut TraceStore) -> Result<Table45, BuildError> {
    let mut summaries = Vec::new();
    for benchmark in Benchmark::ALL {
        let trace = store.trace(benchmark)?;
        // Sequential on purpose: this fold is cheap, and sharded 8 ways on
        // 2 workers it measured slower (0.49 -> 0.52 s wall).
        summaries.push((benchmark, ReplayEngine::sequential().observe(&trace, TraceSummary::new)));
    }
    Ok(Table45 { summaries })
}

impl Table45 {
    /// Renders Table 4 (static counts).
    #[must_use]
    pub fn render_static(&self) -> String {
        let mut header = vec!["Type".to_owned()];
        header.extend(self.summaries.iter().map(|(b, _)| b.name().to_owned()));
        let mut table = TextTable::new(header);
        for cat in InstrCategory::ALL {
            let mut cells = vec![cat.code().to_owned()];
            cells.extend(self.summaries.iter().map(|(_, s)| s.static_count(cat).to_string()));
            table.row(cells);
        }
        format!("Table 4: predicted instructions - static count\n{}", table.render())
    }

    /// Renders Table 5 (dynamic percentages).
    #[must_use]
    pub fn render_dynamic(&self) -> String {
        let mut header = vec!["Type".to_owned()];
        header.extend(self.summaries.iter().map(|(b, _)| b.name().to_owned()));
        let mut table = TextTable::new(header);
        for cat in InstrCategory::ALL {
            let mut cells = vec![cat.code().to_owned()];
            cells.extend(self.summaries.iter().map(|(_, s)| pct(s.dynamic_fraction(cat))));
            table.row(cells);
        }
        format!(
            "Table 5: predicted instructions - dynamic %\n\
             (paper: AddSub 34-52%, Loads 20-49% dominate)\n{}",
            table.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_store() -> TraceStore {
        TraceStore::with_scale_div(1000).with_record_cap(if cfg!(debug_assertions) {
            25_000
        } else {
            150_000
        }) // min scale 1 everywhere
    }

    #[test]
    fn table2_has_all_benchmarks_and_sane_fractions() {
        let mut store = small_store();
        let t = table2(&mut store).unwrap();
        assert_eq!(t.rows.len(), 7);
        for row in &t.rows {
            let f = row.predicted as f64 / row.retired as f64;
            assert!((0.5..1.0).contains(&f), "{}: {f}", row.benchmark);
        }
        assert!(t.render().contains("compress"));
    }

    #[test]
    fn table3_lists_all_categories() {
        let text = table3();
        for cat in InstrCategory::ALL {
            assert!(text.contains(cat.code()), "{}", cat.code());
        }
    }

    #[test]
    fn table45_percentages_sum_to_100() {
        let mut store = small_store();
        let t = table45(&mut store).unwrap();
        for (benchmark, summary) in &t.summaries {
            let total: f64 = InstrCategory::ALL.iter().map(|&c| summary.dynamic_fraction(c)).sum();
            assert!((total - 1.0).abs() < 1e-9, "{benchmark}");
        }
        assert!(t.render_static().contains("Table 4"));
        assert!(t.render_dynamic().contains("Table 5"));
    }
}
