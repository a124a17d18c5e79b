//! `repro bench` — the perf-smoke harness behind `BENCH_20.json`.
//!
//! Replays one fixed, seeded synthetic trace through each predictor
//! family's batched dense hot path ([`Predictor::observe_batch`] over the
//! trace's chunks — exactly how the replay engine drives predictors) and
//! reports records/second per family as stable, hand-rolled JSON. The
//! committed baseline (`BENCH_20.json` at the repository root; the older
//! `BENCH_9.json`, `BENCH_14.json` and `BENCH_17.json` stay as the records
//! they were) lets CI run a comparison with a deliberately generous
//! regression tripwire: machine-to-machine variance is expected; a family
//! running **3x** slower than baseline is not. Hits are no timing, so a
//! family whose `correct` count moves fails the check outright.

use dvp_core::{HybridPredictor, Predictor, PredictorConfig};
use dvp_engine::SharedTrace;
use dvp_trace::Value;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use std::fmt::Write as _;
use std::time::Instant;

use crate::{json, TextTable};

/// Records in the full-scale bench trace (`--quick` divides by the
/// global scale divisor).
pub const BENCH_RECORDS: usize = 200_000;

/// Replay passes per family; the fastest pass is reported (min-of-N
/// rejects scheduler noise without averaging it in).
pub const BENCH_PASSES: usize = 3;

/// Per-family ratio above which [`check`] fails the run.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// One family's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Predictor family name (`l`, `s2`, `fcm1`..`fcm3`, `hybrid`).
    pub name: String,
    /// Correct predictions over the trace — a determinism witness: this
    /// count depends only on the seeded trace, never on timing.
    pub correct: u64,
    /// Fastest-pass cost per record, in nanoseconds.
    pub ns_per_record: f64,
}

/// The family bank the bench replays: the paper's five plus the hybrid.
fn bench_bank() -> Vec<PredictorConfig> {
    let mut bank = PredictorConfig::paper_bank();
    bank.push(PredictorConfig::new("hybrid", || Box::new(HybridPredictor::stride_fcm(2))));
    bank
}

/// The fixed bench input: a seeded `Mixed` scenario (every sequence
/// class the paper taxonomizes), capped at `records`.
#[must_use]
pub fn bench_trace(records: usize) -> SharedTrace {
    let pcs = 64u32;
    let per_pc = u32::try_from(records.div_ceil(pcs as usize)).unwrap_or(u32::MAX);
    let scenario = Scenario::new(ScenarioKind::Mixed, pcs, per_pc, 9);
    let mut builder = SharedTrace::builder();
    scenario.generate_with(&mut |rec| {
        if builder.len() < records {
            builder.push(rec);
        }
    });
    builder.finish()
}

/// Replays every family over the seeded trace, `passes` times each, and
/// returns the per-family results in bank order.
#[must_use]
pub fn run(records: usize, passes: usize) -> Vec<BenchResult> {
    let trace = bench_trace(records);
    let mut values: Vec<Value> = Vec::new();
    let mut correct_buf: Vec<bool> = Vec::new();
    bench_bank()
        .iter()
        .map(|config| {
            let mut best = f64::INFINITY;
            let mut correct = 0u64;
            for _ in 0..passes.max(1) {
                let mut predictor = config.build();
                predictor.reserve_ids(trace.interner().len());
                let mut hits = 0u64;
                let start = Instant::now();
                for (chunk, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
                    values.clear();
                    values.extend(chunk.iter().map(|r| r.value));
                    let pcs: Vec<_> = chunk.iter().map(|r| r.pc).collect();
                    correct_buf.clear();
                    correct_buf.resize(chunk.len(), false);
                    predictor.observe_batch(ids, &pcs, &values, &mut correct_buf);
                    hits += correct_buf.iter().filter(|&&ok| ok).count() as u64;
                }
                let nanos = start.elapsed().as_nanos() as f64;
                best = best.min(nanos / trace.len().max(1) as f64);
                correct = hits;
            }
            BenchResult { name: config.name().to_owned(), correct, ns_per_record: best }
        })
        .collect()
}

/// Renders results as the stable `BENCH_*.json` shape. The engine epoch
/// identifies which predictor-semantics surface produced the numbers, so
/// two baseline files are only comparable when their epochs match
/// ([`parse_baseline`] skips the field).
#[must_use]
pub fn to_json(records: usize, results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"records\": {records},");
    let _ = writeln!(out, "  \"engine_epoch\": \"{:016x}\",", dvp_engine::engine_epoch());
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        out.push_str("    {\"name\": ");
        json::write_string(&r.name, &mut out);
        let _ = writeln!(
            out,
            ", \"correct\": {}, \"ns_per_record\": {:.2}}}{comma}",
            r.correct, r.ns_per_record
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// A committed baseline as [`parse_baseline`] reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Records the baseline replayed; [`check`] compares only runs of
    /// the same trace.
    pub records: usize,
    /// Per-family results in file order.
    pub results: Vec<BenchResult>,
}

/// Reads a baseline JSON file written by [`to_json`] back. Fields it
/// does not know (the engine epoch) are skipped; any other shape is an
/// error, as is a file without a record count or without result rows.
///
/// # Errors
///
/// What is malformed or missing.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut parser = json::Parser::new(text);
    let mut records = None;
    let mut results = Vec::new();
    parser.object(|parser, key| -> Result<(), String> {
        match key.as_str() {
            "records" => records = Some(parser.number("records")?),
            "results" => {
                parser.array(|parser| parse_result(parser).map(|row| results.push(row)))?
            }
            _ => parser.skip_value()?,
        }
        Ok(())
    })?;
    parser.finish()?;
    let records = records.ok_or("no `records` count")?;
    if results.is_empty() {
        return Err("no `results` rows".to_owned());
    }
    Ok(Baseline { records, results })
}

/// One `{"name": …, "correct": …, "ns_per_record": …}` row.
fn parse_result(parser: &mut json::Parser) -> Result<BenchResult, String> {
    let (mut name, mut correct, mut ns_per_record) = (None, None, None);
    parser.object(|parser, key| -> Result<(), json::Error> {
        match key.as_str() {
            "name" => name = Some(parser.string()?),
            "correct" => correct = Some(parser.number("correct")?),
            "ns_per_record" => ns_per_record = Some(parser.number("ns_per_record")?),
            _ => parser.skip_value()?,
        }
        Ok(())
    })?;
    match (name, correct, ns_per_record) {
        (Some(name), Some(correct), Some(ns_per_record)) => {
            Ok(BenchResult { name, correct, ns_per_record })
        }
        _ => Err("a result row lacks `name`, `correct` or `ns_per_record`".to_owned()),
    }
}

/// Compares a run of `records` records to a baseline: renders a
/// side-by-side table (returned, for the caller to print) and reports
/// whether the check failed. It fails when the runs replayed different
/// record counts (their timings and hits are not comparable), when any
/// family's `correct` count differs from the baseline's (the trace or the
/// predictor's semantics moved), or when any family crossed the
/// [`REGRESSION_FACTOR`] tripwire.
#[must_use]
pub fn check(records: usize, results: &[BenchResult], baseline: &Baseline) -> (String, bool) {
    if records != baseline.records {
        let report = format!(
            "the baseline replayed {} records but this run replayed {records}: not comparable\n",
            baseline.records
        );
        return (report, true);
    }
    let mut table = TextTable::new(vec![
        "family",
        "baseline ns/rec",
        "current ns/rec",
        "ratio",
        "correct",
        "verdict",
    ]);
    let mut failed = false;
    for r in results {
        let Some(base) = baseline.results.iter().find(|b| b.name == r.name) else {
            table.row(vec![
                r.name.clone(),
                "-".into(),
                format!("{:.2}", r.ns_per_record),
                "-".into(),
                r.correct.to_string(),
                "no baseline".into(),
            ]);
            continue;
        };
        let ratio = if base.ns_per_record > 0.0 {
            r.ns_per_record / base.ns_per_record
        } else {
            f64::INFINITY
        };
        let verdict = if r.correct != base.correct {
            failed = true;
            format!("WRONG (baseline {})", base.correct)
        } else if ratio > REGRESSION_FACTOR {
            failed = true;
            "REGRESSED".to_owned()
        } else {
            "ok".to_owned()
        };
        table.row(vec![
            r.name.clone(),
            format!("{:.2}", base.ns_per_record),
            format!("{:.2}", r.ns_per_record),
            format!("{ratio:.2}x"),
            r.correct.to_string(),
            verdict,
        ]);
    }
    (table.render(), failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_trace_is_deterministic_and_sized() {
        let a = bench_trace(5_000);
        let b = bench_trace(5_000);
        assert_eq!(a.len(), 5_000);
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn results_cover_every_family_with_deterministic_hits() {
        let first = run(2_000, 1);
        let names: Vec<&str> = first.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["l", "s2", "fcm1", "fcm2", "fcm3", "hybrid"]);
        let second = run(2_000, 1);
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.correct, b.correct, "{} hits must not depend on timing", a.name);
            assert!(a.ns_per_record > 0.0);
        }
    }

    fn result(name: &str, correct: u64, ns_per_record: f64) -> BenchResult {
        BenchResult { name: name.into(), correct, ns_per_record }
    }

    fn baseline(records: usize, results: Vec<BenchResult>) -> Baseline {
        Baseline { records, results }
    }

    #[test]
    fn json_round_trips_through_the_baseline_parser() {
        let results = vec![result("l", 10, 5.25), result("fcm3", 7, 123.5)];
        let json = to_json(1_000, &results);
        assert_eq!(parse_baseline(&json), Ok(baseline(1_000, results)));
        // The epoch stamp identifies the producing semantics surface and
        // must never confuse the baseline parser.
        let stamp = format!("\"engine_epoch\": \"{:016x}\"", dvp_engine::engine_epoch());
        assert!(json.contains(&stamp), "{json}");
        // A file without a record count or without rows is no baseline.
        let no_count = parse_baseline(&json.replace("\"records\"", "\"rows\"")).unwrap_err();
        assert!(no_count.contains("no `records` count"), "{no_count}");
        let no_rows = parse_baseline("{\"records\": 1000}").unwrap_err();
        assert!(no_rows.contains("no `results` rows"), "{no_rows}");
        let short_row = json.replace(", \"correct\": 7", "");
        assert!(parse_baseline(&short_row).unwrap_err().contains("lacks"));
        assert!(parse_baseline(&format!("{json}}}")).unwrap_err().contains("trailing"));
    }

    #[test]
    fn committed_baselines_parse_to_their_rows() {
        // Every committed `BENCH_*.json`, read as the line scanner that
        // preceded the JSON parser read it: 200,000 records and the same
        // six rows, hits unchanged since the first baseline.
        let files = [
            (include_str!("../../../BENCH_9.json"), [7.40, 9.19, 510.57, 530.39, 745.54, 580.25]),
            (include_str!("../../../BENCH_14.json"), [5.94, 7.44, 177.94, 213.17, 406.80, 254.99]),
            (include_str!("../../../BENCH_17.json"), [9.56, 10.71, 157.58, 161.83, 219.27, 194.57]),
            (include_str!("../../../BENCH_20.json"), [6.69, 7.98, 163.45, 246.34, 365.24, 330.31]),
        ];
        let names = ["l", "s2", "fcm1", "fcm2", "fcm3", "hybrid"];
        let correct = [40_615, 82_496, 120_904, 120_904, 120_904, 161_464];
        for (text, ns) in files {
            let rows = (0..6).map(|i| result(names[i], correct[i], ns[i])).collect();
            let parsed = parse_baseline(text).expect("committed baseline parses");
            assert_eq!(parsed, baseline(200_000, rows));
            // Files stamped with this epoch are exactly what the writer
            // renders for their rows.
            if text.contains(&format!("{:016x}", dvp_engine::engine_epoch())) {
                assert_eq!(to_json(parsed.records, &parsed.results), text);
            }
        }
    }

    #[test]
    fn check_trips_only_past_the_regression_factor() {
        let base = baseline(1_000, vec![result("l", 4, 10.0), result("s2", 5, 10.0)]);
        // 2.9x is inside the generous budget.
        let fine = vec![result("l", 4, 29.0), result("s2", 5, 10.0)];
        let (report, failed) = check(1_000, &fine, &base);
        assert!(!failed, "{report}");
        assert!(report.contains("2.90x"), "{report}");
        // 3.1x trips.
        let slow = vec![result("s2", 5, 31.0)];
        let (report, failed) = check(1_000, &slow, &base);
        assert!(failed, "{report}");
        assert!(report.contains("REGRESSED"), "{report}");
        // A family missing from the baseline reports, but never trips.
        let novel = vec![result("new", 0, 1.0)];
        let (report, failed) = check(1_000, &novel, &base);
        assert!(!failed);
        assert!(report.contains("no baseline"), "{report}");
    }

    #[test]
    fn check_fails_on_a_record_count_mismatch() {
        // A smaller trace runs faster per record: that is not a speedup.
        let base = baseline(200_000, vec![result("fcm3", 120_904, 745.0)]);
        let quick = vec![result("fcm3", 29_495, 300.0)];
        let (report, failed) = check(50_000, &quick, &base);
        assert!(failed, "{report}");
        assert!(report.contains("200000") && report.contains("50000"), "{report}");
    }

    #[test]
    fn check_fails_on_a_correct_count_mismatch() {
        // Fast but wrong: the witness moved, so the timing means nothing.
        let base = baseline(1_000, vec![result("fcm1", 500, 100.0), result("l", 40, 5.0)]);
        let current = vec![result("fcm1", 499, 50.0), result("l", 40, 5.0)];
        let (report, failed) = check(1_000, &current, &base);
        assert!(failed, "{report}");
        assert!(report.contains("WRONG (baseline 500)"), "{report}");
        assert_eq!(report.matches("WRONG").count(), 1, "{report}");
    }
}
