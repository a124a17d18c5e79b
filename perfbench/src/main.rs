//! The pipeline benchmark: one workload per run, measured untraced for the
//! end-to-end metrics or traced for the per-layer ones. See `README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --repro <repro binary> --golden <repro_quick_all.txt> --work <dir>
//!           [--commit <id>] [--source-digest <hex>]
//! ```
//!
//! Human-readable lines come first on stdout; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod alloc;
mod common;
mod host;
mod paper_quick;
mod replay_scaling;
mod serve_mix;
mod spans;
mod stats;
mod trace_stream;

use common::{Checks, Ctx, Layers, Measured, Metric};
use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["paper-quick", "replay-scaling", "trace-stream", "serve-mix"];

/// The end-to-end metrics of the result line (`end_to_end` in
/// `BENCHMARK.json`); the report prints the others too.
const RESULT_METRICS: [&str; 3] = ["setup_s", "wall_s", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repro: PathBuf,
    golden: PathBuf,
    work: PathBuf,
    commit: String,
    source_digest: String,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let i = raw.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        raw.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seed = get("--seed")?.parse().map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        repro: get("--repro")?.into(),
        golden: get("--golden")?.into(),
        work: get("--work")?.into(),
        commit: get("--commit").unwrap_or_else(|_| "unknown".to_owned()),
        source_digest: get("--source-digest").unwrap_or_else(|_| "unknown".to_owned()),
    })
}

/// The end-to-end metrics, in result-line order, with the line describing
/// how each was taken.
fn end_to_end(m: &Measured) -> Vec<(Metric, String)> {
    use stats::{median, p99_or_median, tail};
    let lat: Vec<f64> = m.requests.iter().map(|r| r.latency_s * 1e3).collect();
    let hits: Vec<f64> = m.requests.iter().filter(|r| r.hit).map(|r| r.latency_s * 1e3).collect();
    let measured_s: f64 = m.rounds_s.raw_s.iter().sum();
    let (p99, hit99, highest) = (p99_or_median(&lat), p99_or_median(&hits), tail(&lat));
    let rounds = m.rounds_s.corrected();
    vec![
        (
            Metric::new("setup_s", median(&m.setup_s.corrected()), "s"),
            format!(
                "host-corrected median of {} set-ups; raw median {} s, host clock median {} s",
                m.setup_s.len(),
                median(&m.setup_s.raw_s),
                median(&m.setup_s.reference_s)
            ),
        ),
        (
            Metric::new("wall_s", median(&rounds), "s"),
            format!(
                "host-corrected median of {} rounds, fastest {} s, slowest {} s; \
                 raw median {} s, host clock median {} s",
                rounds.len(),
                rounds.iter().copied().fold(f64::INFINITY, f64::min),
                rounds.iter().copied().fold(0.0, f64::max),
                median(&m.rounds_s.raw_s),
                median(&m.rounds_s.reference_s)
            ),
        ),
        (Metric::new("peak_rss_mb", m.peak_rss_mb, "MiB"), "VmHWM over the rounds".to_owned()),
        (
            Metric::new("jobs_per_s", lat.len() as f64 / measured_s, "jobs/s"),
            format!("{} requests in {measured_s:.3} s", lat.len()),
        ),
        (
            Metric::new("latency_p50_ms", median(&lat), "ms"),
            format!("p50 over {} samples", lat.len()),
        ),
        (
            Metric::new("latency_p99_ms", p99.value, "ms"),
            format!(
                "{}; highest qualifying: {} ms at {}",
                p99.label(),
                highest.value,
                highest.label()
            ),
        ),
        (Metric::new("hit_latency_p99_ms", hit99.value, "ms"), hit99.label()),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let comma = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{comma}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push('}');
    out
}

fn result_line(checks: &Checks, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted.max(1),
        if checks.attempted == 0 { 1 } else { checks.failed },
        json_metrics(metrics)
    )
}

fn run(args: &Args, ctx: &Ctx) -> Result<(Checks, Vec<Metric>), String> {
    if !args.trace {
        let mut m = match args.workload.as_str() {
            "paper-quick" => paper_quick::measure(ctx),
            "replay-scaling" => replay_scaling::measure(ctx),
            "trace-stream" => trace_stream::measure(ctx),
            _ => serve_mix::measure(ctx),
        }?;
        let (pairs, checks) = (end_to_end(&m), std::mem::take(&mut m.checks));
        let sizes: Vec<String> = m.sizes.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("# sizes {}", sizes.join(" "));
        for (metric, how) in &pairs {
            println!("# {} = {} {} ({how})", metric.name, metric.value, metric.unit);
        }
        println!(
            "# failed_share = {} ratio ({} failed of {} attempted)",
            checks.failed_share(),
            checks.failed,
            checks.attempted
        );
        for extra in &m.extra {
            println!("# {} = {} {}", extra.name, extra.value, extra.unit);
        }
        let result = pairs.into_iter().map(|(metric, _)| metric);
        return Ok((
            checks,
            result.filter(|m| RESULT_METRICS.contains(&m.name.as_str())).collect(),
        ));
    }
    // The traced run profiles every layer: each workload once, untraced
    // and then traced, so the gap between the two is the tracing overhead.
    let mut layers: Layers = Vec::new();
    let mut checks = Checks::default();
    paper_quick::profile(ctx, &mut layers, &mut checks)?;
    replay_scaling::profile(ctx, &mut layers, &mut checks)?;
    trace_stream::profile(ctx, &mut layers, &mut checks)?;
    serve_mix::profile(ctx, &mut layers, &mut checks)?;
    let spans = ctx.tracer.spans();
    let path = ctx.work.with_extension("spans.jsonl");
    std::fs::write(&path, spans::to_json_lines(&spans))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# {} spans written to {}", spans.len(), path.display());
    for metric in &layers {
        println!("# {} = {} {}", metric.name, metric.value, metric.unit);
    }
    println!("# failed_share = {} ratio", checks.failed_share());
    Ok((checks, layers))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 \
                 --repro PATH --golden PATH --work DIR [--commit ID] [--source-digest HEX]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    for path in [&args.repro, &args.golden] {
        if !path.is_file() {
            eprintln!("perfbench: {} is not a file", path.display());
            return ExitCode::FAILURE;
        }
    }
    let work = args.work.join(format!("{}-s{}-{}", args.workload, args.seed, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        repro: args.repro.clone(),
        golden: args.golden.clone(),
        tracer: &tracer,
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# stamp engine_epoch={:016x} nproc={nproc} commit={} source_digest={}",
        dvp_engine::engine_epoch(),
        args.commit,
        args.source_digest
    );
    let outcome = run(&args, &ctx);
    common::remove_dir(&work);
    match outcome {
        Ok((checks, metrics)) => {
            for note in &checks.notes {
                eprintln!("perfbench: check failed: {note}");
            }
            println!("{}", result_line(&checks, &metrics));
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {why}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_output_raises_failed_share_and_clears_correct() {
        let golden = b"Table 1\n".to_vec();
        let mut checks = Checks::default();
        for output in [golden.clone(), golden.clone(), b"Table 1?\n".to_vec(), golden.clone()] {
            checks.record(output == golden, || "output differs from the golden".to_owned());
        }
        assert_eq!((checks.attempted, checks.failed), (4, 1));
        assert_eq!(checks.failed_share(), 0.25);
        let line = result_line(&checks, &[Metric::new("wall_s", 1.5, "s")]);
        assert!(
            line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"),
            "{line}"
        );

        let mut clean = Checks::default();
        clean.record(true, String::new);
        assert_eq!(clean.failed_share(), 0.0);
        assert!(result_line(&clean, &[]).starts_with("{\"correct\": true"));
    }

    #[test]
    fn a_run_that_checked_nothing_is_not_correct() {
        let none = Checks::default();
        assert_eq!(none.failed_share(), 1.0);
        assert!(
            result_line(&none, &[]).contains("\"correct\": false, \"attempted\": 1, \"failed\": 1")
        );
    }

    #[test]
    fn metric_values_keep_every_digit() {
        let json = json_metrics(&[Metric::new("latency_ms", 1.203_456_789_123, "ms")]);
        assert_eq!(json, "{\"latency_ms\": {\"value\": 1.203456789123, \"unit\": \"ms\"}}");
    }
}
