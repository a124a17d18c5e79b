//! `repro bench` — the perf-smoke harness behind `BENCH_34.json`.
//!
//! Replays one fixed, seeded synthetic trace through each predictor
//! family's batched dense hot path ([`Predictor::observe_batch`] over the
//! trace's chunks — exactly how the replay engine drives predictors) and
//! reports ns/record per family as stable, hand-rolled JSON, then times
//! [`phase_plan`] over that trace and over one four times as long (rows
//! `plan` and `plan.4n`), a sequential [`ReplayEngine::load_trace`] of
//! the trace's container (row `decode`) and the trace writer
//! [`cache::write_container`] (row `encode`), and finally the paper
//! bank's three FCM orders as one [`FcmBank`] (row `fcm1-3`), as the
//! replay engine runs them, and a sequential resident
//! [`ReplayEngine::replay`] of the paper bank over a trace of 100,000 PCs
//! made as `repro trace gen` makes one (row `replay.100k`), where a cost
//! paid per instruction shows, and one of the paper bank plus the hybrid
//! over the bench trace (row `replay.bank`), where the engine derives the
//! hybrid from the bank's `fcm2` column. The committed baseline
//! (`BENCH_34.json` at the repository root; the older `BENCH_9.json`,
//! `BENCH_14.json`, `BENCH_17.json`, `BENCH_20.json`, `BENCH_24.json`,
//! `BENCH_25.json`, `BENCH_27.json`, `BENCH_28.json`, `BENCH_30.json`,
//! `BENCH_31.json` and `BENCH_32.json` stay as the records they were)
//! lets CI run a comparison with a deliberately generous regression
//! tripwire: machine-to-machine variance is expected; a row running
//! **3x** slower than baseline is not. Hits are no timing, so a row whose
//! `correct` count moves fails the check outright.

use dvp_core::{FcmBank, HybridPredictor, Predictor, PredictorConfig};
use dvp_engine::{phase_plan, PhaseOptions, ReplayEngine, SharedTrace};
use dvp_trace::io::v2;
use dvp_trace::Value;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use std::fmt::Write as _;
use std::io::Cursor;
use std::time::Instant;

use crate::{cache, json, TextTable};

/// Records in the full-scale bench trace (`--quick` divides by the
/// global scale divisor).
pub const BENCH_RECORDS: usize = 200_000;

/// Passes per row; the fastest pass is reported (min-of-N rejects
/// scheduler noise without averaging it in).
pub const BENCH_PASSES: usize = 3;

/// Per-row ratio above which [`check`] fails the run.
pub const REGRESSION_FACTOR: f64 = 3.0;

/// One row's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Predictor family name (`l`, `s2`, `fcm1`..`fcm3`, `hybrid`),
    /// `plan`/`plan.4n` for phase profiling, `decode` for container
    /// decode, `encode` for the container writer, `fcm1-3` for the
    /// banked FCM orders, `replay.100k` for the engine's replay of a
    /// trace of many PCs, or `replay.bank` for its replay of the bench
    /// bank.
    pub name: String,
    /// Correct predictions over the trace (for the profiling rows, the
    /// plan's simulated records; for `decode`, the records decoded; for
    /// `encode`, the container's bytes; for `fcm1-3`, `replay.100k` and
    /// `replay.bank`, the members' hits summed) — a determinism witness: this count
    /// depends only on the seeded trace, never on timing.
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

/// PCs of the `replay.100k` row's trace.
const WIDE_PCS: usize = 100_000;

/// The fixed bench input: a seeded `Mixed` scenario (every sequence
/// class the paper taxonomizes) over 64 PCs, capped at `records`.
#[must_use]
pub fn bench_trace(records: usize) -> SharedTrace {
    scenario_trace(records, 64, 9)
}

/// A seeded `Mixed` scenario over `pcs` PCs (at most one per record),
/// capped at `records`, as `repro trace gen` makes one.
fn scenario_trace(records: usize, pcs: usize, seed: u64) -> SharedTrace {
    let pcs = u32::try_from(pcs.min(records.max(1))).unwrap_or(u32::MAX);
    let per_pc = u32::try_from(records.div_ceil(pcs as usize)).unwrap_or(u32::MAX);
    let scenario = Scenario::new(ScenarioKind::Mixed, pcs, per_pc, seed);
    let mut builder = SharedTrace::builder();
    scenario.generate_with(&mut |rec| {
        if builder.len() < records {
            builder.push(rec);
        }
    });
    builder.finish()
}

/// Replays every family over the seeded trace, `passes` times each, and
/// returns the per-family results in bank order, followed by the phase
/// profiling rows `plan` (the same trace) and `plan.4n` (the bench trace
/// at four times the records) — a per-record profiling cost that grows
/// with trace length shows as `plan.4n` running slower than `plan` — the
/// container decode row `decode`, the container write row `encode` and
/// the FCM bank row `fcm1-3` (all three the same trace), and the engine
/// rows `replay.100k` (the paper bank over a trace of as many records over
/// 100,000 PCs) and `replay.bank` (the bench bank over the bench trace).
#[must_use]
pub fn run(records: usize, passes: usize) -> Vec<BenchResult> {
    let trace = bench_trace(records);
    let mut results = replay_rows(&trace, passes);
    results.push(plan_row("plan", &trace, passes));
    let rows = [decode_row(&trace, passes), encode_row(&trace, passes), bank_row(&trace, passes)];
    let bank = engine_row("replay.bank", &trace, &bench_bank(), passes);
    drop(trace);
    results.push(plan_row("plan.4n", &bench_trace(4 * records), passes));
    results.extend(rows);
    let wide = scenario_trace(records, WIDE_PCS, 1);
    results.push(engine_row("replay.100k", &wide, &PredictorConfig::paper_bank(), passes));
    results.push(bank);
    results
}

/// The fastest of `passes` sequential resident [`ReplayEngine::replay`]s
/// of `bank` over `trace`, each of a fresh copy (interned before the
/// clock starts), so every pass also pays the replay's one-time grouping
/// of the records by instruction. The bank's hits summed are the row's
/// witness.
fn engine_row(
    name: &str,
    trace: &SharedTrace,
    bank: &[PredictorConfig],
    passes: usize,
) -> BenchResult {
    let engine = ReplayEngine::sequential();
    let mut best = f64::INFINITY;
    let mut correct = 0u64;
    for _ in 0..passes.max(1) {
        let fresh = SharedTrace::from_chunks(trace.chunks().to_vec());
        let start = Instant::now();
        let replays = engine.replay(&fresh, bank);
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / trace.len().max(1) as f64);
        correct = replays.iter().map(|r| r.tracker.correct(None)).sum();
    }
    BenchResult { name: name.to_owned(), correct, ns_per_record: best }
}

/// One row per bench family, replaying `trace` `passes` times each.
fn replay_rows(trace: &SharedTrace, passes: usize) -> Vec<BenchResult> {
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

/// The fastest of `passes` replays of `trace` through an [`FcmBank`] of
/// orders 1 to 3 — one context walk per record for fcm1, fcm2 and fcm3,
/// as the replay engine runs the paper bank's FCM orders — over the
/// trace's chunks, like the family rows. Its witness is the three
/// members' hits summed, so it equals the sum of the `fcm1`..`fcm3`
/// rows' hits.
fn bank_row(trace: &SharedTrace, passes: usize) -> BenchResult {
    let mut best = f64::INFINITY;
    let mut correct = 0u64;
    let mut values: Vec<Value> = Vec::new();
    let mut columns: Vec<bool> = Vec::new();
    for _ in 0..passes.max(1) {
        let mut bank = FcmBank::new(1..=3);
        bank.reserve_ids(trace.interner().len());
        let mut hits = 0u64;
        let start = Instant::now();
        for (chunk, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
            values.clear();
            values.extend(chunk.iter().map(|r| r.value));
            columns.clear();
            columns.resize(3 * chunk.len(), false);
            bank.observe_batch(ids, &values, &mut columns);
            hits += columns.iter().filter(|&&ok| ok).count() as u64;
        }
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / trace.len().max(1) as f64);
        correct = hits;
    }
    BenchResult { name: "fcm1-3".to_owned(), correct, ns_per_record: best }
}

/// The fastest of `passes` default [`phase_plan`]s of `trace`; the plan's
/// simulated record count is the row's determinism witness.
fn plan_row(name: &str, trace: &SharedTrace, passes: usize) -> BenchResult {
    let mut best = f64::INFINITY;
    let mut correct = 0u64;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        let plan = phase_plan(trace, &PhaseOptions::default());
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / trace.len().max(1) as f64);
        correct = plan.simulated_records();
    }
    BenchResult { name: name.to_owned(), correct, ns_per_record: best }
}

/// The fastest of `passes` sequential [`ReplayEngine::load_trace`]s of
/// `trace`'s in-memory container, written as the trace cache writes one
/// (compressed chunks plus the persisted interner, so ids come from
/// read-only lookups): decompression, decoding and id assignment on one
/// thread. The records decoded are the row's witness.
fn decode_row(trace: &SharedTrace, passes: usize) -> BenchResult {
    let mut bytes = Vec::new();
    let sections = [(v2::SECTION_INTERNER, v2::encode_interner(trace.interner()))];
    v2::write_compressed(
        &mut bytes,
        &v2::TraceMeta::default(),
        trace.chunks().iter().map(Vec::as_slice),
        &sections,
    )
    .expect("an in-memory container write cannot fail");
    let engine = ReplayEngine::sequential();
    let mut best = f64::INFINITY;
    let mut correct = 0u64;
    for _ in 0..passes.max(1) {
        let start = Instant::now();
        let loaded = engine.load_trace(&bytes);
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / trace.len().max(1) as f64);
        correct = loaded.expect("the bench container decodes").1.len() as u64;
    }
    BenchResult { name: "decode".to_owned(), correct, ns_per_record: best }
}

/// The fastest of `passes` [`cache::write_container`]s of `trace` — the
/// phase plan on this thread while a scoped encoder compresses and writes
/// the payloads, then the sections and the header — into an in-memory
/// [`Cursor`] (no file, no fsync). The container's byte count is the
/// row's witness.
fn encode_row(trace: &SharedTrace, passes: usize) -> BenchResult {
    let mut best = f64::INFINITY;
    let mut correct = 0u64;
    for _ in 0..passes.max(1) {
        let mut cursor = Cursor::new(Vec::new());
        let start = Instant::now();
        cache::write_container(&mut cursor, &v2::TraceMeta::default(), trace)
            .expect("an in-memory container write cannot fail");
        let nanos = start.elapsed().as_nanos() as f64;
        best = best.min(nanos / trace.len().max(1) as f64);
        correct = cursor.get_ref().len() as u64;
    }
    BenchResult { name: "encode".to_owned(), correct, ns_per_record: best }
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
    /// Per-row results in file order.
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
/// row's `correct` count differs from the baseline's (the trace or the
/// semantics moved), or when any row crossed the [`REGRESSION_FACTOR`]
/// tripwire.
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
        "row",
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
        assert_eq!(
            names,
            [
                "l",
                "s2",
                "fcm1",
                "fcm2",
                "fcm3",
                "hybrid",
                "plan",
                "plan.4n",
                "decode",
                "encode",
                "fcm1-3",
                "replay.100k",
                "replay.bank"
            ]
        );
        assert_eq!(first[8].correct, 2_000);
        let fcm: u64 = first[2..5].iter().map(|r| r.correct).sum();
        assert_eq!(first[10].correct, fcm, "the bank's members hit as the lone rows do");
        let mut container = Cursor::new(Vec::new());
        cache::write_container(&mut container, &v2::TraceMeta::default(), &bench_trace(2_000))
            .expect("writes");
        assert_eq!(first[9].correct, container.get_ref().len() as u64);
        let wide = scenario_trace(2_000, WIDE_PCS, 1);
        assert_eq!(wide.interner().len(), 2_000, "one PC per record when records are fewer");
        let bank = PredictorConfig::paper_bank();
        let hits: u64 = ReplayEngine::sequential()
            .replay(&wide, &bank)
            .iter()
            .map(|r| r.tracker.correct(None))
            .sum();
        assert_eq!(first[11].correct, hits);
        let families: u64 = first[..6].iter().map(|r| r.correct).sum();
        assert_eq!(first[12].correct, families, "the engine's bank hits as the lone rows do");
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
        // six family rows, hits unchanged since the first baseline;
        // `BENCH_24.json` adds the two phase-profiling rows,
        // `BENCH_25.json` the decode row and `BENCH_27.json` the encode
        // row; `BENCH_28.json` times the 64-byte FCM entries,
        // `BENCH_30.json` adds the `fcm1-3` bank row, `BENCH_31.json`
        // the `replay.100k` engine row and `BENCH_32.json` the
        // `replay.bank` engine row; `BENCH_34.json` times the FCM bank
        // cleared between instructions.
        let files: [(&str, &[f64]); 12] = [
            (include_str!("../../../BENCH_9.json"), &[7.40, 9.19, 510.57, 530.39, 745.54, 580.25]),
            (include_str!("../../../BENCH_14.json"), &[5.94, 7.44, 177.94, 213.17, 406.80, 254.99]),
            (
                include_str!("../../../BENCH_17.json"),
                &[9.56, 10.71, 157.58, 161.83, 219.27, 194.57],
            ),
            (include_str!("../../../BENCH_20.json"), &[6.69, 7.98, 163.45, 246.34, 365.24, 330.31]),
            (
                include_str!("../../../BENCH_24.json"),
                &[7.04, 7.20, 156.90, 235.96, 361.46, 258.12, 47.66, 57.78],
            ),
            (
                include_str!("../../../BENCH_25.json"),
                &[7.74, 7.15, 170.58, 254.01, 383.10, 245.18, 48.45, 51.57, 36.12],
            ),
            (
                include_str!("../../../BENCH_27.json"),
                &[3.63, 4.63, 155.35, 237.49, 361.30, 307.83, 52.72, 75.94, 35.85, 60.31],
            ),
            (
                include_str!("../../../BENCH_28.json"),
                &[4.49, 5.13, 137.49, 243.45, 318.39, 218.23, 55.79, 49.73, 36.64, 54.46],
            ),
            (
                include_str!("../../../BENCH_30.json"),
                &[4.71, 5.71, 161.04, 290.29, 390.38, 288.19, 61.63, 59.59, 39.86, 75.29, 511.89],
            ),
            (
                include_str!("../../../BENCH_31.json"),
                &[
                    3.46, 4.47, 147.56, 200.87, 260.11, 198.17, 49.79, 46.46, 32.17, 42.43, 356.15,
                    300.81,
                ],
            ),
            (
                include_str!("../../../BENCH_32.json"),
                &[
                    3.47, 4.34, 121.03, 189.45, 277.10, 188.73, 42.87, 58.95, 30.71, 92.60, 333.11,
                    428.46, 225.30,
                ],
            ),
            (
                include_str!("../../../BENCH_34.json"),
                &[
                    3.54, 4.52, 130.30, 193.42, 290.71, 179.12, 40.65, 48.32, 31.87, 81.36, 314.50,
                    213.33, 249.53,
                ],
            ),
        ];
        let names = [
            "l",
            "s2",
            "fcm1",
            "fcm2",
            "fcm3",
            "hybrid",
            "plan",
            "plan.4n",
            "decode",
            "encode",
            "fcm1-3",
            "replay.100k",
            "replay.bank",
        ];
        let correct = [
            40_615, 82_496, 120_904, 120_904, 120_904, 161_464, 18_432, 38_144, 200_000, 657_267,
            362_712, 100_005, 647_287,
        ];
        for (text, ns) in files {
            let rows =
                ns.iter().enumerate().map(|(i, &ns)| result(names[i], correct[i], ns)).collect();
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
