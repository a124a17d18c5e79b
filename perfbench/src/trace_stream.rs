//! `trace-stream`: one large seeded `mixed` v4 container, written during
//! set-up, then per round:
//!
//! - (a) `TraceCache::write_through` of the trace into a fresh directory
//!   (encode, phase plan, fsync, rename);
//! - (b) `ReplayEngine::replay_streaming` with the cheap `l`+`s2` bank at
//!   the default chunk window;
//! - (c) `replay_sampled_streaming` over the container's `PHAS` plan;
//! - (d) a resident `load_trace`.
//!
//! The cheap bank keeps predictor work small, so container encode and
//! decode, the chunk window and the streaming replay paths dominate. Writes (a)
//! sit beside reads (b–d), so a read-path gain that costs the write path
//! shows.

use dvp_engine::{phase_plan, PhaseOptions, ReplayEngine, SharedTrace};
use dvp_experiments::cache::TraceCache;
use dvp_trace::io::v2::{self, TraceMeta};
use dvp_trace::PhasePlan;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use crate::common::{
    cheap_bank, derive_seed, note_peak_rss, remove_dir, repeat_setup, reset_peak_rss, rounds,
    synthetic_trace, tallies, timed, Checks, Ctx, Layers, Measured, Metric, Tallies, Timings,
};
use crate::host;
use crate::spans::Tracer;

const PCS: u32 = 64;

/// Records in the container.
const RECORDS: usize = 2_000_000;

const SETUPS: usize = 3;

/// The container written during set-up and what the checks compare with.
struct Input {
    trace: SharedTrace,
    meta: TraceMeta,
    path: PathBuf,
    bytes: Vec<u8>,
}

fn scenario_seed(seed: u64) -> u64 {
    derive_seed(seed, 0x5743)
}

fn meta(seed: u64) -> TraceMeta {
    let per_pc = u32::try_from(RECORDS.div_ceil(PCS as usize)).expect("fits");
    let scenario = Scenario::new(ScenarioKind::Mixed, PCS, per_pc, scenario_seed(seed));
    TraceMeta {
        fingerprint: scenario.fingerprint(Some(RECORDS)),
        retired: RECORDS as u64,
        predicted: RECORDS as u64,
    }
}

fn write(dir: &Path, meta: &TraceMeta, trace: &SharedTrace) -> Result<PathBuf, String> {
    TraceCache::new(dir).write_through(meta, trace).map_err(|e| format!("write-through: {e}"))
}

fn set_up(ctx: &Ctx) -> Result<(Input, Timings), String> {
    repeat_setup(SETUPS, |i| {
        let dir = ctx.dir(&format!("container-{i}"))?;
        let trace = synthetic_trace(ScenarioKind::Mixed, PCS, RECORDS, scenario_seed(ctx.seed));
        let meta = meta(ctx.seed);
        let path = write(&dir, &meta, &trace)?;
        let bytes = fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(Input { trace, meta, path, bytes })
    })
}

fn open(path: &Path) -> Result<BufReader<fs::File>, String> {
    fs::File::open(path).map(BufReader::new).map_err(|e| format!("open {}: {e}", path.display()))
}

/// What the resident paths say the streaming paths must produce.
struct Reference {
    full: Tallies,
    sampled: Vec<(String, Vec<(u64, u64)>)>,
    plan: PhasePlan,
}

fn sampled_tallies(replays: &[dvp_engine::SampledReplay]) -> Vec<(String, Vec<(u64, u64)>)> {
    replays
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.phases.iter().map(|t| (t.correct(None), t.predicted(None))).collect(),
            )
        })
        .collect()
}

fn reference(engine: &ReplayEngine, input: &Input) -> Result<Reference, String> {
    let bank = cheap_bank();
    let plan = TraceCache::read_phase_plan(&input.path)
        .map_err(|e| format!("read plan: {e}"))?
        .ok_or("the container carries no phase plan")?;
    Ok(Reference {
        full: tallies(&engine.replay(&input.trace, &bank)),
        sampled: sampled_tallies(&engine.replay_sampled(&input.trace, &bank, &plan)),
        plan,
    })
}

/// One round of (a)–(d), each step checked; returns the seconds of each.
/// With `sample_host`, the host clock is sampled after each step.
#[allow(clippy::too_many_arguments)]
fn round(
    ctx: &Ctx,
    engine: &ReplayEngine,
    input: &Input,
    expect: &Reference,
    tracer: &Tracer,
    checks: &mut Checks,
    index: usize,
    sample_host: bool,
) -> Result<[f64; 4], String> {
    let between = |x: f64| {
        if sample_host {
            eprintln!("P {:.4} {x:.6}", host::t0());
            host::sample();
        }
    };
    let bank = cheap_bank();
    let dir = ctx.dir(&format!("write-{index}"))?;
    let (written, a) = timed(|| {
        tracer.span("trace_cache.write_through", || write(&dir, &input.meta, &input.trace))
    });
    let same =
        written.and_then(|p| fs::read(&p).map_err(|e| e.to_string())).map(|b| b == input.bytes);
    checks.record(matches!(same, Ok(true)), || format!("(a) write-through bytes differ: {same:?}"));
    remove_dir(&dir);
    between(a);

    let reader = open(&input.path)?;
    let (streamed, b) =
        timed(|| tracer.span("engine.stream", || engine.replay_streaming(reader, &bank)));
    let ok = streamed.as_ref().map(|(_, r)| tallies(r) == expect.full);
    checks.record(matches!(ok, Ok(true)), || format!("(b) streaming tallies differ: {ok:?}"));
    between(b);

    let reader = open(&input.path)?;
    let (sampled, c) = timed(|| {
        tracer.span("engine.stream_sampled", || {
            let plan = TraceCache::read_phase_plan(&input.path)?.unwrap_or_default();
            engine.replay_sampled_streaming(reader, &bank, &plan)
        })
    });
    let ok = sampled.as_ref().map(|(_, r)| sampled_tallies(r) == expect.sampled);
    checks
        .record(matches!(ok, Ok(true)), || format!("(c) sampled streaming tallies differ: {ok:?}"));
    between(c);

    let (loaded, d) = timed(|| {
        tracer.span("engine.load", || {
            let bytes = fs::read(&input.path)?;
            engine.load_trace(&bytes)
        })
    });
    let ok = loaded.as_ref().map(|(_, t)| t.chunks() == input.trace.chunks());
    checks.record(matches!(ok, Ok(true)), || format!("(d) loaded records differ: {ok:?}"));
    between(d);
    Ok([a, b, c, d])
}

fn sizes() -> Vec<(&'static str, String)> {
    vec![
        ("records", RECORDS.to_string()),
        ("pcs", PCS.to_string()),
        ("chunk_records", dvp_engine::DEFAULT_CHUNK_LEN.to_string()),
        ("chunk_window", dvp_engine::DEFAULT_CHUNK_WINDOW.to_string()),
        ("bank", "l+s2".to_owned()),
    ]
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let (input, setup_s) = set_up(ctx)?;
    let engine = ReplayEngine::new();
    let expect = reference(&engine, &input)?;
    let mut m = Measured { setup_s, ..Measured::default() };
    reset_peak_rss();
    m.rounds_s = rounds(
        ctx.seconds,
        3,
        120.0,
        |i| {
            let steps = round(ctx, &engine, &input, &expect, ctx.tracer, &mut m.checks, i, true)?;
            note_peak_rss(i, &mut m.peak_rss_mb);
            Ok(steps.iter().sum())
        },
        || false,
    )?;
    m.rounds_are_requests();
    m.sizes = sizes();
    m.sizes.push(("container_bytes", input.bytes.len().to_string()));
    Ok(m)
}

pub fn profile(ctx: &Ctx, out: &mut Layers, checks: &mut Checks) -> Result<(), String> {
    let tracer = ctx.tracer;
    let (input, _) = set_up(ctx)?;
    let engine = ReplayEngine::new();
    let expect = reference(&engine, &input)?;
    let untraced = Tracer::new(false);
    let untraced_s: f64 =
        round(ctx, &engine, &input, &expect, &untraced, checks, 0, false)?.iter().sum();
    let steps = round(ctx, &engine, &input, &expect, tracer, checks, 1, false)?;
    let traced_s: f64 = steps.iter().sum();
    let [_, stream, sampled, load] = steps;
    let n = RECORDS as f64;
    out.push(Metric::new("engine.load_ns_per_record", load * 1e9 / n, "ns"));
    out.push(Metric::new("engine.stream_ns_per_record", stream * 1e9 / n, "ns"));
    out.push(Metric::new("engine.stream_sampled_ns_per_record", sampled * 1e9 / n, "ns"));
    let header = v2::read_header(&mut open(&input.path)?).map_err(|e| e.to_string())?;
    let plan = &expect.plan;
    let mut base = 0u64;
    let mut decoded = 0usize;
    for chunk in &header.chunks {
        let end = base + u64::from(chunk.records);
        // Sampled streaming decodes a chunk when any phase's warm-up or
        // window overlaps it.
        if plan
            .phases
            .iter()
            .any(|p| p.start.saturating_sub(plan.warmup_records) < end && base < p.end)
        {
            decoded += 1;
        }
        base = end;
    }
    out.push(Metric::new("engine.stream_chunks_decoded", decoded as f64, "count"));
    out.push(Metric::new("engine.stream_chunks_total", header.chunks.len() as f64, "count"));

    // Container encode, in memory: compressed (v4) and uncompressed (v3).
    let sections = [(v2::SECTION_INTERNER, v2::encode_interner(input.trace.interner()))];
    let chunks = || input.trace.chunks().iter().map(Vec::as_slice);
    let mut v4 = Vec::new();
    let (encoded, encode_s) = timed(|| {
        tracer.span("trace_io.encode", || {
            v2::write_compressed(&mut v4, &input.meta, chunks(), &sections)
        })
    });
    checks.record(encoded.is_ok(), || format!("v4 encode failed: {encoded:?}"));
    let mut v3 = Vec::new();
    let plain = v2::write_with_sections(&mut v3, &input.meta, chunks(), &sections);
    checks.record(plain.is_ok(), || format!("v3 encode failed: {plain:?}"));
    out.push(Metric::new("trace_io.encode_ns_per_record", encode_s * 1e9 / n, "ns"));
    out.push(Metric::new("trace_io.bytes_per_record", v4.len() as f64 / n, "bytes"));
    out.push(Metric::new(
        "trace_io.compress_ratio",
        v3.len() as f64 / v4.len().max(1) as f64,
        "ratio",
    ));

    let (plan, plan_s) = timed(|| {
        tracer.span("simpoint.plan", || phase_plan(&input.trace, &PhaseOptions::default()))
    });
    checks.record(plan == expect.plan, || "recomputed phase plan differs from PHAS".to_owned());
    let (_, warm_s) = timed(|| {
        tracer.span("simpoint.warm", || {
            engine.replay_sampled_warm(&input.trace, &cheap_bank(), &plan)
        })
    });
    out.push(Metric::new("simpoint.plan_ns_per_record", plan_s * 1e9 / n, "ns"));
    out.push(Metric::new("simpoint.warm_ns_per_record", warm_s * 1e9 / n, "ns"));
    out.push(Metric::new("simpoint.tallied_share", plan.simulated_records() as f64 / n, "ratio"));
    out.push(Metric::new("overhead.trace-stream.wall_s", traced_s / untraced_s - 1.0, "ratio"));
    Ok(())
}
