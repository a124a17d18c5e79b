//! `paper-quick`: `repro --quick --trace-dir <dir> all`, as researchers run
//! it, against a trace cache that set-up filled.
//!
//! The input is pinned by `tests/golden/repro_quick_all.txt`: the quick
//! run has no seed of its own, so the workload seed is only recorded.

use dvp_engine::ReplayEngine;
use dvp_experiments::cache::{CacheStats, TraceCache};
use dvp_experiments::{
    accuracy, analytic, characterize, information, overlap, realism, sensitivity, speedup, values,
    TraceStore, REFERENCE_OPT,
};
use dvp_trace::io::v2::TraceMeta;
use dvp_trace::InstrCategory;
use dvp_workloads::Benchmark;
use std::ffi::OsStr;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::common::{
    repeat_setup, rounds, timed, watch_rss, Ctx, Layers, Measured, Metric, Timings,
};
use crate::spans::Tracer;

/// Scale divisor of `repro --quick`.
const QUICK_DIV: u32 = 4;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// Empty spans timed to price one span.
const SPAN_PROBES: usize = 10_000;

/// The ids `repro all` prints, in its order.
const ALL_IDS: [&str; 23] = [
    "table1",
    "figure1",
    "figure2",
    "table2",
    "table3",
    "table4",
    "table5",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "table6",
    "table7",
    "figure11",
    "ext-tables",
    "ext-delay",
    "ext-locality",
    "ext-entropy",
    "ext-speedup",
];

/// The experiments whose self time the traced run reports, as
/// `exp.<id>_s`. `analytic` covers the four outputs that need no
/// workload (Tables 1 and 3, Figures 1 and 2).
const TIMED: [&str; 14] = [
    "analytic",
    "table2",
    "table45",
    "accuracy",
    "overlap",
    "values",
    "table6",
    "table7",
    "figure11",
    "ext-tables",
    "ext-delay",
    "ext-locality",
    "ext-entropy",
    "ext-speedup",
];

/// Runs `repro` with `args`; returns its stdout, host seconds, and peak
/// resident MiB.
fn run_repro(repro: &Path, args: &[&OsStr]) -> Result<(Vec<u8>, f64, f64), String> {
    let start = Instant::now();
    let child = Command::new(repro)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
    let pid = child.id();
    let done = AtomicBool::new(false);
    let (output, rss) = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| watch_rss(pid, &done));
        let output = child.wait_with_output();
        done.store(true, Ordering::SeqCst);
        (output, watcher.join().expect("the memory watcher does not panic"))
    });
    let secs = start.elapsed().as_secs_f64();
    let output = output.map_err(|e| format!("cannot wait for repro: {e}"))?;
    if !output.status.success() {
        return Err(format!("repro {args:?} exited with {}", output.status));
    }
    Ok((output.stdout, secs, rss))
}

/// The cold fill users run before a warm `repro all`.
fn export(ctx: &Ctx, dir: &Path) -> Result<f64, String> {
    let args = [OsStr::new("--quick"), OsStr::new("--trace-dir"), dir.as_os_str()];
    let args: Vec<&OsStr> =
        args.into_iter().chain([OsStr::new("trace"), OsStr::new("export")]).collect();
    run_repro(&ctx.repro, &args).map(|(_, _, rss)| rss)
}

fn warm_all(ctx: &Ctx, dir: &Path) -> Result<(Vec<u8>, f64, f64), String> {
    let args =
        [OsStr::new("--quick"), OsStr::new("--trace-dir"), dir.as_os_str(), OsStr::new("all")];
    run_repro(&ctx.repro, &args)
}

fn golden(ctx: &Ctx) -> Result<Vec<u8>, String> {
    fs::read(&ctx.golden).map_err(|e| format!("cannot read {}: {e}", ctx.golden.display()))
}

fn set_up(ctx: &Ctx) -> Result<(std::path::PathBuf, Timings, f64), String> {
    let mut rss = 0.0f64;
    let (dir, secs) = repeat_setup(SETUPS, |i| {
        let dir = ctx.dir(&format!("traces-{i}"))?;
        rss = rss.max(export(ctx, &dir)?);
        Ok(dir)
    })?;
    Ok((dir, secs, rss))
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let golden = golden(ctx)?;
    let (dir, setup_s, _) = set_up(ctx)?;
    let mut m = Measured { setup_s, ..Measured::default() };
    m.rounds_s = rounds(
        ctx.seconds,
        1,
        f64::INFINITY,
        |_| {
            let (stdout, secs, rss) = warm_all(ctx, &dir)?;
            m.peak_rss_mb = m.peak_rss_mb.max(rss);
            m.checks.record(stdout == golden, || {
                "repro --quick all stdout differs from tests/golden/repro_quick_all.txt".to_owned()
            });
            Ok(secs)
        },
        || false,
    )?;
    m.rounds_are_requests();
    m.sizes = vec![("scale_div", QUICK_DIV.to_string()), ("input", "golden-pinned".to_owned())];
    Ok(m)
}

/// The in-process replica of `repro`'s experiment harness, with a span
/// around every call into an experiment and every render.
struct Harness<'t> {
    tracer: &'t Tracer,
    store: TraceStore,
    engine: ReplayEngine,
    accuracy: Option<accuracy::AccuracyResults>,
    overlap: Option<overlap::OverlapResults>,
}

impl Harness<'_> {
    fn accuracy(&mut self) -> Result<&accuracy::AccuracyResults, String> {
        if self.accuracy.is_none() {
            let results =
                self.tracer.span("exp.accuracy", || accuracy::run(&mut self.store, &self.engine));
            self.accuracy = Some(results.map_err(|e| format!("accuracy: {e:?}"))?);
        }
        Ok(self.accuracy.as_ref().expect("just filled"))
    }

    fn overlap(&mut self) -> Result<&overlap::OverlapResults, String> {
        if self.overlap.is_none() {
            let results =
                self.tracer.span("exp.overlap", || overlap::run(&mut self.store, &self.engine));
            self.overlap = Some(results.map_err(|e| format!("overlap: {e:?}"))?);
        }
        Ok(self.overlap.as_ref().expect("just filled"))
    }

    /// One experiment's text, as `repro` prints it for `id`.
    fn run(&mut self, id: &str) -> Result<String, String> {
        let t = self.tracer;
        let fail = |e: dvp_workloads::BuildError| format!("{id}: {e:?}");
        let render = |f: &dyn Fn() -> String| t.span("exp.render", f);
        let engine = self.engine.clone();
        let store = &mut self.store;
        Ok(match id {
            "table1" => t.span("exp.analytic", || {
                let table = analytic::table1();
                render(&|| table.render())
            }),
            "figure1" => t.span("exp.analytic", || {
                let figure = analytic::figure1();
                render(&|| figure.render())
            }),
            "figure2" => t.span("exp.analytic", || {
                let figure = analytic::figure2();
                render(&|| figure.render())
            }),
            "table3" => t.span("exp.analytic", characterize::table3),
            "table2" => {
                let table = t.span("exp.table2", || characterize::table2(store)).map_err(fail)?;
                render(&|| table.render())
            }
            "table4" | "table5" => {
                let table = t.span("exp.table45", || characterize::table45(store)).map_err(fail)?;
                if id == "table4" {
                    render(&|| table.render_static())
                } else {
                    render(&|| table.render_dynamic())
                }
            }
            "figure3" | "figure4" | "figure5" | "figure6" | "figure7" => {
                let category = match id {
                    "figure4" => Some(InstrCategory::AddSub),
                    "figure5" => Some(InstrCategory::Loads),
                    "figure6" => Some(InstrCategory::Logic),
                    "figure7" => Some(InstrCategory::Shift),
                    _ => None,
                };
                let results = self.accuracy()?;
                render(&|| match category {
                    Some(c) => results.render_category(c),
                    None => results.render_overall(),
                })
            }
            "figure8" | "figure9" => {
                let results = self.overlap()?;
                render(&|| {
                    if id == "figure8" {
                        results.render_figure8()
                    } else {
                        results.render_figure9()
                    }
                })
            }
            "figure10" => {
                let v = t.span("exp.values", || values::run(store)).map_err(fail)?;
                render(&|| v.render())
            }
            "table6" => {
                let table =
                    t.span("exp.table6", || sensitivity::table6(store, &engine)).map_err(fail)?;
                render(&|| table.render())
            }
            "table7" => {
                let table =
                    t.span("exp.table7", || sensitivity::table7(store, &engine)).map_err(fail)?;
                render(&|| table.render())
            }
            "figure11" => {
                let figure = t
                    .span("exp.figure11", || sensitivity::figure11(store, &engine))
                    .map_err(fail)?;
                render(&|| figure.render())
            }
            "ext-tables" => {
                let table = t
                    .span("exp.ext-tables", || realism::table_sweep(store, &engine))
                    .map_err(fail)?;
                render(&|| table.render())
            }
            "ext-delay" => {
                let table = t
                    .span("exp.ext-delay", || realism::delay_sweep(store, &engine))
                    .map_err(fail)?;
                render(&|| table.render())
            }
            "ext-locality" => {
                let l =
                    t.span("exp.ext-locality", || information::locality(store)).map_err(fail)?;
                render(&|| l.render())
            }
            "ext-entropy" => {
                let e = t.span("exp.ext-entropy", || information::entropy(store)).map_err(fail)?;
                render(&|| e.render())
            }
            "ext-speedup" => {
                let s = t.span("exp.ext-speedup", || speedup::run(store, &engine)).map_err(fail)?;
                render(&|| s.render())
            }
            other => return Err(format!("unknown experiment `{other}`")),
        })
    }
}

/// The traced run: the quick run in-process with spans, an uncached
/// simulation of every benchmark, and a write-through of each simulated
/// trace. An untraced twin of a run this long would double the traced
/// run, so its tracing overhead is the spans it recorded times the
/// measured cost of one span, over its time.
pub fn profile(
    ctx: &Ctx,
    out: &mut Layers,
    checks: &mut crate::common::Checks,
) -> Result<(), String> {
    let tracer = ctx.tracer;
    let golden = golden(ctx)?;
    let (dir, _, _) = set_up(ctx)?;

    let before = tracer.spans().len();
    let (traced, traced_s) = timed(|| -> Result<(Vec<u8>, CacheStats), String> {
        let mut harness = Harness {
            tracer,
            store: TraceStore::with_scale_div(QUICK_DIV).with_trace_dir(&dir),
            engine: ReplayEngine::new(),
            accuracy: None,
            overlap: None,
        };
        tracer
            .span("trace_cache.lookup", || harness.store.prefetch(&harness.engine, &Benchmark::ALL))
            .map_err(|e| format!("prefetch: {e:?}"))?;
        let mut text = Vec::new();
        for id in ALL_IDS {
            text.extend_from_slice(harness.run(id)?.as_bytes());
            text.push(b'\n');
        }
        Ok((text, harness.store.cache_stats()))
    });
    let recorded = tracer.spans().len() - before;
    let (text, stats) = traced?;
    checks.record(text == golden, || "traced quick run differs from the golden".to_owned());
    out.push(Metric::new("trace_cache.hits", stats.disk_hits as f64, "count"));
    out.push(Metric::new("trace_cache.simulated", stats.simulated as f64, "count"));
    out.push(Metric::new("trace_cache.written", stats.written as f64, "count"));
    out.push(Metric::new("trace_cache.invalid", stats.invalid as f64, "count"));

    // Simulation with no cache at all, one benchmark at a time.
    let mut store = TraceStore::with_scale_div(QUICK_DIV);
    let mut traces = Vec::new();
    for benchmark in Benchmark::ALL {
        let trace = tracer
            .span("sim.simulate", || store.trace(benchmark))
            .map_err(|e| format!("simulate {}: {e:?}", benchmark.name()))?;
        traces.push((benchmark, trace));
    }
    let cache = TraceCache::new(ctx.dir("write-through")?);
    for (benchmark, trace) in &traces {
        let meta = TraceMeta {
            fingerprint: TraceCache::fingerprint(&store.workload(*benchmark), REFERENCE_OPT, None),
            retired: store.retired(*benchmark).map_err(|e| format!("{e:?}"))?,
            predicted: store.predicted(*benchmark).map_err(|e| format!("{e:?}"))?,
        };
        let written =
            tracer.span("trace_cache.write_through", || cache.write_through(&meta, trace));
        checks.record(written.is_ok(), || {
            format!("write-through of {}: {written:?}", benchmark.name())
        });
    }

    let totals = crate::spans::reduce(&tracer.spans());
    let records: usize = traces.iter().map(|(_, t)| t.len()).sum();
    let sim_s = totals.get("sim.simulate").map_or(0.0, |t| t.total_s);
    out.push(Metric::new("sim.simulate_s", sim_s, "s"));
    out.push(Metric::new("sim.records", records as f64, "count"));
    out.push(Metric::new("sim.ns_per_record", sim_s * 1e9 / records.max(1) as f64, "ns"));
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    out.push(Metric::new("trace_cache.lookup_s", total("trace_cache.lookup"), "s"));
    out.push(Metric::new("trace_cache.write_through_s", total("trace_cache.write_through"), "s"));
    for id in TIMED {
        let secs = totals.get(&format!("exp.{id}")).map_or(0.0, |t| t.self_s);
        out.push(Metric::new(format!("exp.{id}_s"), secs, "s"));
    }
    out.push(Metric::new("exp.render_s", total("exp.render"), "s"));
    let probe = Tracer::new(true);
    let (_, probe_s) = timed(|| (0..SPAN_PROBES).for_each(|_| probe.span("probe", || ())));
    let span_s = probe_s / SPAN_PROBES as f64;
    out.push(Metric::new(
        "overhead.paper-quick.wall_s",
        recorded as f64 * span_s / traced_s,
        "ratio",
    ));
    Ok(())
}
