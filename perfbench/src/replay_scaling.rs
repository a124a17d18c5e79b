//! `replay-scaling`: resident `ReplayEngine::replay` of the paper bank plus
//! the hybrid over seeded synthetic traces of N and 4N records.
//!
//! Three scenario kinds: `mixed` (the `repro bench` trace), `stride`
//! (address-like: every record is a new value for its PC) and `periodic`
//! (a bounded value set, the control). Predictor state grows with the
//! number of distinct values, so a per-record cost that grows with trace
//! length shows as the 4N/N ratio; periodic should stay flat.

use dvp_core::{Predictor, PredictorConfig};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_trace::Value;
use dvp_workloads::synthetic::ScenarioKind;
use std::hint::black_box;
use std::time::Instant;

use crate::common::{
    derive_seed, full_bank, note_peak_rss, repeat_setup, reset_peak_rss, rounds, synthetic_trace,
    tallies, timed, Checks, Ctx, Layers, Measured, Metric, Tallies,
};
use crate::host;
use crate::stats::median;

const PCS: u32 = 64;

/// N records; the large traces hold 4N.
const N: usize = 50_000;

/// Set-up repetitions; generation is quick, so more of them steady the
/// median.
const SETUPS: usize = 7;

const KINDS: [&str; 3] = ["mixed", "stride", "periodic"];

/// Families whose heap footprint the traced run reports.
const FOOTPRINT_FAMILIES: [&str; 2] = ["fcm3", "hybrid"];

fn kind(name: &str) -> ScenarioKind {
    match name {
        "mixed" => ScenarioKind::Mixed,
        "stride" => ScenarioKind::Stride { stride: 8, jitter_pct: 0 },
        "periodic" => ScenarioKind::Periodic { period: 64 },
        other => unreachable!("no scenario kind `{other}`"),
    }
}

/// One input trace: scenario kind, size label, and the trace.
struct Input {
    kind: &'static str,
    size: &'static str,
    trace: SharedTrace,
}

/// The six traces. The mixed scenario takes the run's seed unchanged, so
/// at seed 9 the `mixed` 4N trace is the 200k-record trace `repro bench`
/// replays, and its `core.*.mixed.4n` rows line up with `BENCH_9.json`.
fn inputs(seed: u64) -> Vec<Input> {
    let mut out = Vec::new();
    for (i, name) in KINDS.into_iter().enumerate() {
        let scenario_seed = if name == "mixed" { seed } else { derive_seed(seed, i as u64) };
        for (size, records) in [("n", N), ("4n", 4 * N)] {
            out.push(Input {
                kind: name,
                size,
                trace: synthetic_trace(kind(name), PCS, records, scenario_seed),
            });
        }
    }
    out
}

/// A single-threaded pass of one predictor over a trace through its
/// batched hot path, exactly as `repro bench` drives it: correct count and
/// host ns per record.
fn observe_pass(config: &PredictorConfig, trace: &SharedTrace) -> (Box<dyn Predictor>, u64, f64) {
    let mut values: Vec<Value> = Vec::with_capacity(dvp_engine::DEFAULT_CHUNK_LEN);
    let mut pcs = Vec::with_capacity(dvp_engine::DEFAULT_CHUNK_LEN);
    let mut correct = Vec::with_capacity(dvp_engine::DEFAULT_CHUNK_LEN);
    let mut predictor = config.build();
    predictor.reserve_ids(trace.interner().len());
    let start = Instant::now();
    let mut hits = 0u64;
    for (chunk, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
        values.clear();
        values.extend(chunk.iter().map(|r| r.value));
        pcs.clear();
        pcs.extend(chunk.iter().map(|r| r.pc));
        correct.clear();
        correct.resize(chunk.len(), false);
        predictor.observe_batch(ids, &pcs, &values, &mut correct);
        hits += correct.iter().filter(|&&ok| ok).count() as u64;
    }
    let ns = start.elapsed().as_nanos() as f64 / trace.len().max(1) as f64;
    (black_box(predictor), hits, ns)
}

/// Checks the engine's tallies against single-threaded passes.
fn check_against_core(inputs: &[Input], engine_tallies: &[Tallies], checks: &mut Checks) {
    let bank = full_bank();
    for (input, tallies) in inputs.iter().zip(engine_tallies) {
        for (config, (name, correct, _)) in bank.iter().zip(tallies) {
            let (_, hits, _) = observe_pass(config, &input.trace);
            checks.record(hits == *correct, || {
                format!(
                    "{name} on {}.{}: engine {correct} correct, core {hits}",
                    input.kind, input.size
                )
            });
        }
    }
}

/// One round: the bank over every trace; returns ns per record per input.
/// With `sample_host`, the host clock is sampled after each trace.
fn round(
    engine: &ReplayEngine,
    inputs: &[Input],
    tracer: &crate::spans::Tracer,
    sample_host: bool,
) -> (Vec<f64>, Vec<Tallies>) {
    let bank = full_bank();
    let mut ns = Vec::new();
    let mut out = Vec::new();
    for input in inputs {
        let name = format!("engine.replay.{}.{}", input.kind, input.size);
        let (replays, secs) = timed(|| tracer.span(&name, || engine.replay(&input.trace, &bank)));
        if sample_host {
            eprintln!("P {:.4} {secs:.6}", host::t0());
            host::sample();
        }
        ns.push(secs * 1e9 / input.trace.len() as f64);
        out.push(tallies(&replays));
    }
    (ns, out)
}

/// The 4N/N ratio of median ns per record, per scenario kind.
fn ratios(inputs: &[Input], ns: &[Vec<f64>]) -> Vec<(&'static str, f64)> {
    KINDS
        .iter()
        .map(|k| {
            let at = |size: &str| {
                let i = inputs.iter().position(|x| x.kind == *k && x.size == size).expect("input");
                median(&ns.iter().map(|r| r[i]).collect::<Vec<_>>())
            };
            (*k, at("4n") / at("n"))
        })
        .collect()
}

/// `scaling_4x`: the worst kind's ratio.
fn scaling(inputs: &[Input], ns: &[Vec<f64>]) -> f64 {
    ratios(inputs, ns).into_iter().map(|(_, r)| r).fold(f64::MIN, f64::max)
}

fn sizes() -> Vec<(&'static str, String)> {
    vec![
        ("records_n", N.to_string()),
        ("records_4n", (4 * N).to_string()),
        ("pcs", PCS.to_string()),
        ("bank", full_bank().iter().map(|c| c.name().to_owned()).collect::<Vec<_>>().join("+")),
    ]
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (inputs, setup_s) = repeat_setup(SETUPS, |_| Ok(inputs(ctx.seed)))?;
    let mut m = Measured { setup_s, ..Measured::default() };
    // One thread: on two shared cores, a second worker measures the
    // neighbours' load as much as the program.
    let engine = ReplayEngine::sequential();
    reset_peak_rss();
    let mut ns: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Vec<Tallies>> = None;
    m.rounds_s = rounds(
        ctx.seconds,
        3,
        120.0,
        |index| {
            let (round_ns, round_tallies) = round(&engine, &inputs, ctx.tracer, true);
            note_peak_rss(index, &mut m.peak_rss_mb);
            let records = inputs.iter().map(|input| input.trace.len() as f64);
            let secs = round_ns.iter().zip(records).map(|(ns, n)| ns * n).sum::<f64>() / 1e9;
            ns.push(round_ns);
            match &first {
                None => first = Some(round_tallies),
                Some(reference) => {
                    for (input, (a, b)) in inputs.iter().zip(reference.iter().zip(&round_tallies)) {
                        m.checks.record(a == b, || {
                            format!("tallies on {}.{} moved between rounds", input.kind, input.size)
                        });
                    }
                }
            }
            Ok(secs)
        },
        || false,
    )?;
    let first = first.expect("at least one round");
    check_against_core(&inputs, &first, &mut m.checks);
    m.rounds_are_requests();
    m.extra.push(Metric::new("scaling_4x", scaling(&inputs, &ns), "ratio"));
    for (kind, ratio) in ratios(&inputs, &ns) {
        m.extra.push(Metric::new(format!("scaling_4x.{kind}"), ratio, "ratio"));
    }
    let digest: u64 = first.iter().flatten().fold(0u64, |h, (_, c, p)| derive_seed(h ^ c, *p));
    m.sizes = sizes();
    m.sizes.push(("tally_digest", format!("{digest:016x}")));
    Ok(m)
}

pub fn profile(ctx: &Ctx, out: &mut Layers, checks: &mut Checks) -> Result<(), String> {
    let tracer = ctx.tracer;
    let (inputs, gen_s) = timed(|| tracer.span("synthetic.generate", || inputs(ctx.seed)));
    let records: usize = inputs.iter().map(|i| i.trace.len()).sum();
    out.push(Metric::new("synthetic.ns_per_record", gen_s * 1e9 / records as f64, "ns"));

    let engine = ReplayEngine::new();
    let untraced = crate::spans::Tracer::new(false);
    let ((_, _), untraced_s) = timed(|| round(&engine, &inputs, &untraced, false));
    let ((ns, engine_tallies), traced_s) = timed(|| round(&engine, &inputs, tracer, false));
    out.push(Metric::new("scaling_4x", scaling(&inputs, &[ns]), "ratio"));
    out.push(Metric::new("overhead.replay-scaling.wall_s", traced_s / untraced_s - 1.0, "ratio"));

    let bank = full_bank();
    for config in &bank {
        let family = config.name();
        for (input, tallies) in inputs.iter().zip(&engine_tallies) {
            let footprint = input.size == "4n" && FOOTPRINT_FAMILIES.contains(&family);
            let span = format!("core.{family}.{}.{}", input.kind, input.size);
            let ((predictor, hits, ns), bytes) = if footprint {
                crate::alloc::net_bytes(|| {
                    tracer.span(&span, || observe_pass(config, &input.trace))
                })
            } else {
                (tracer.span(&span, || observe_pass(config, &input.trace)), 0)
            };
            drop(predictor);
            let engine_correct =
                tallies.iter().find(|(n, _, _)| n == family).map_or(u64::MAX, |t| t.1);
            checks.record(hits == engine_correct, || {
                format!("core {family} on {}.{} disagrees with the engine", input.kind, input.size)
            });
            out.push(Metric::new(
                format!("core.{family}.ns_per_record.{}.{}", input.kind, input.size),
                ns,
                "ns",
            ));
            // The last-value and stride counts are checked above but not
            // reported: the per-layer list holds at most 128 metrics.
            if input.size == "4n" && !matches!(family, "l" | "s2") {
                out.push(Metric::new(
                    format!("core.{family}.correct.{}.4n", input.kind),
                    hits as f64,
                    "count",
                ));
            }
            if footprint {
                out.push(Metric::new(
                    format!("core.{family}.alloc_bytes.{}.4n", input.kind),
                    bytes as f64,
                    "bytes",
                ));
            }
        }
    }

    let sequential = ReplayEngine::sequential();
    for input in inputs.iter().filter(|i| i.size == "4n") {
        let (_, secs) =
            timed(|| tracer.span("engine.replay_pool", || engine.replay(&input.trace, &bank)));
        out.push(Metric::new(format!("engine.replay_s.{}", input.kind), secs, "s"));
        let (_, secs) =
            timed(|| tracer.span("engine.replay_seq", || sequential.replay(&input.trace, &bank)));
        out.push(Metric::new(format!("engine.replay_seq_s.{}", input.kind), secs, "s"));
    }
    Ok(())
}
