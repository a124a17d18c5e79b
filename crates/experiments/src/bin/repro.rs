//! `repro` — regenerate the tables and figures of Sazeides & Smith (1997).
//!
//! ```text
//! repro all                          # everything, in paper order
//! repro figure3 table6               # specific experiments
//! repro --quick all                  # 1/4-scale workloads (faster, noisier)
//! repro --workers 4 all              # cap the replay engine at 4 threads
//! repro --workers 1 all              # sequential reference (byte-identical output)
//! repro --trace-dir traces/ all      # persistent cache: cold run saves, warm runs load
//! repro --quick all --sample         # also check phase-sampled replay (<=1pp error)
//! repro --list                       # list experiment ids
//! repro sweep                        # synthetic scenario x predictor matrix
//! repro sweep --quick --format csv   # smaller grid, machine-readable output
//! repro phases                       # SimPoint phase plans per workload
//! repro bench                        # per-family perf smoke (ns/record, JSON)
//! repro bench --check BENCH_34.json  # compare against the committed baseline
//! repro trace export --trace-dir d/  # simulate + persist all benchmark traces
//! repro trace stats  --trace-dir d/  # list cached containers
//! repro trace verify --trace-dir d/  # validate every checksum + record
//! repro trace gen --records N --out f  # synthetic container of N records
//! repro trace replay f               # stream a container in bounded memory
//! repro trace replay f --warm        # phase-sampled, with functional warming
//! repro serve --result-dir results/  # replay daemon with a persistent result cache
//! repro serve --router ADDR1,ADDR2   # consistent-hash router over workers
//! repro client ADDR --spec job.json  # submit a job, stream its frames
//! repro client ADDR --spec a.json --spec b.json --batch  # many jobs, one round trip
//! repro job --spec job.json          # one job inline, byte-identical to the daemon
//! repro cache stats --result-dir d/  # classify entries vs this binary's epoch
//! repro cache purge --stale --result-dir d/  # drop entries it would refuse to serve
//! ```
//!
//! All workload-driven experiments run through the `dvp-engine` parallel
//! replay engine: each benchmark's trace is simulated once into a shared
//! buffer, and each trace's replays fan out across worker threads one
//! instruction at a time, in a fixed set of units of instructions. With
//! `--trace-dir`, traces additionally persist across runs as compressed
//! version-4 containers (spec: `docs/TRACE_FORMAT.md`; a file of any
//! other version is regenerated) and later runs replay them without
//! simulating at all — the tables are byte-identical at any `--workers`
//! setting and whether a trace came from the simulator or the cache.
//! Cache activity is reported on stderr (`[repro] trace cache: ...`),
//! never on stdout.
//!
//! Every command line is read by one argument cursor ([`Args`]). The global
//! flags may appear anywhere; each subcommand's usage is written once, in
//! [`TOOLS`], and each experiment id once, in [`EXPERIMENTS`]. Every tool
//! returns its error as text, which `main` prints once before exiting 1.

use dvp_core::PredictorConfig;
use dvp_engine::{ReplayEngine, SharedTrace, SharedTraceBuilder};
use dvp_experiments::cache::{self, CacheEntry, TraceCache};
use dvp_experiments::serve::{
    replay_table, run_job, sampled_report, Frame, JobSpec, Outcome, Router, RouterOptions,
    ServeClient, ServeOptions, Server,
};
use dvp_experiments::{
    accuracy, analytic, bench, characterize, durable, information, overlap, phases, realism,
    result_cache, sensitivity, speedup, sweep, values, TextTable, TraceStore,
};
use dvp_trace::io::{v2, TraceIoError};
use dvp_trace::InstrCategory;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use dvp_workloads::{Benchmark, BuildError};
use std::fmt::Display;
use std::fs;
use std::io::{self, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Renders one experiment's output.
type Render = fn(&mut Harness) -> Result<String, BuildError>;

/// Every experiment id in `repro all` order (the paper's tables and
/// figures first, then the extras/extensions), with whether it replays
/// every benchmark's cached trace — the single source of truth driving
/// the upfront parallel prefetch — and how it renders. (Experiments marked
/// `false` either need no workloads at all or generate their own traces:
/// the sensitivity experiments build gcc variants — cached individually
/// through the store's disk tier — and `ext-speedup` collects dependence
/// traces.)
const EXPERIMENTS: [(&str, bool, Render); 23] = [
    ("table1", false, |_| Ok(analytic::table1().render())),
    ("figure1", false, |_| Ok(analytic::figure1().render())),
    ("figure2", false, |_| Ok(analytic::figure2().render())),
    ("table2", true, |h| Ok(characterize::table2(&mut h.store)?.render())),
    ("table3", false, |_| Ok(characterize::table3())),
    ("table4", true, |h| Ok(characterize::table45(&mut h.store)?.render_static())),
    ("table5", true, |h| Ok(characterize::table45(&mut h.store)?.render_dynamic())),
    ("figure3", true, |h| Ok(h.accuracy()?.render_overall())),
    ("figure4", true, |h| Ok(h.accuracy()?.render_category(InstrCategory::AddSub))),
    ("figure5", true, |h| Ok(h.accuracy()?.render_category(InstrCategory::Loads))),
    ("figure6", true, |h| Ok(h.accuracy()?.render_category(InstrCategory::Logic))),
    ("figure7", true, |h| Ok(h.accuracy()?.render_category(InstrCategory::Shift))),
    ("figure8", true, |h| Ok(h.overlap()?.render_figure8())),
    ("figure9", true, |h| Ok(h.overlap()?.render_figure9())),
    ("figure10", true, |h| Ok(values::run(&mut h.store)?.render())),
    ("table6", false, |h| Ok(sensitivity::table6(&mut h.store, &h.engine)?.render())),
    ("table7", false, |h| Ok(sensitivity::table7(&mut h.store, &h.engine)?.render())),
    ("figure11", false, |h| Ok(sensitivity::figure11(&mut h.store, &h.engine)?.render())),
    ("ext-tables", true, |h| Ok(realism::table_sweep(&mut h.store, &h.engine)?.render())),
    ("ext-delay", true, |h| Ok(realism::delay_sweep(&mut h.store, &h.engine)?.render())),
    ("ext-locality", true, |h| Ok(information::locality(&mut h.store)?.render())),
    ("ext-entropy", true, |h| Ok(information::entropy(&mut h.store)?.render())),
    ("ext-speedup", false, |h| Ok(speedup::run(&h.store, &h.engine)?.render())),
];

/// A `repro` subcommand: its name, its usage lines (the only copy; the
/// top-level usage prints them too) and its entry point.
struct Tool {
    name: &'static str,
    usage: &'static [&'static str],
    run: fn(Args, &Globals) -> Result<ExitCode, String>,
}

/// Every subcommand, in usage order.
const TOOLS: [Tool; 8] = [
    Tool {
        name: "sweep",
        usage: &["repro sweep [--quick] [--sample] [--format table|csv|json]"],
        run: run_sweep_tool,
    },
    Tool {
        name: "phases",
        usage: &["repro phases [BENCHMARK...] [--quick]"],
        run: run_phases_tool,
    },
    Tool {
        name: "bench",
        usage: &["repro bench [--quick] [--records N | --check FILE] [--passes N]"],
        run: run_bench_tool,
    },
    Tool {
        name: "trace",
        usage: &[
            "repro trace <export|stats|verify> --trace-dir DIR [--quick]",
            "repro trace gen --records N --out FILE [--pcs N] [--seed S] [--chunk-records N]",
            "repro trace replay FILE [--resident] [--sample] [--warm]",
        ],
        run: run_trace_tool,
    },
    Tool {
        name: "serve",
        usage: &[
            "repro serve [--listen ADDR] [--queue N] [--inflight N] [--job-workers N] \
             [--results N] [--result-dir DIR]",
            "repro serve --router ADDR,ADDR... [--listen ADDR] [--retries N]",
        ],
        run: run_serve_tool,
    },
    Tool {
        name: "client",
        usage: &["repro client ADDR [--job JSON]... [--spec FILE]... [--batch] [--payload-only] \
                  [--ping] [--stats] [--shutdown]"],
        run: run_client_tool,
    },
    Tool { name: "job", usage: &["repro job (--json JSON | --spec FILE)"], run: run_job_tool },
    Tool {
        name: "cache",
        usage: &[
            "repro cache stats --result-dir DIR",
            "repro cache purge --stale --result-dir DIR",
        ],
        run: run_cache_tool,
    },
];

/// The experiments' own usage line.
const EXPERIMENTS_USAGE: &str =
    "repro [--quick] [--sample] [--trace-dir DIR] all | <experiment>...";

/// What the top-level usage says after the command lines.
const ABOUT: &str = "\
The global flags --quick, --sample, --workers/-j N, --chunk-window N and
--trace-dir DIR may appear anywhere on the command line; every command
that uses one honours it.

Regenerates the tables and figures of Sazeides & Smith (MICRO-30 1997)
through the parallel replay engine (default: all cores; output is
byte-identical at any worker count). With --trace-dir, workload traces
persist across runs as version-4 containers (a file of any other version
is regenerated) and warm runs simulate no workload trace (ext-speedup
still simulates its dependence traces on every run). `repro sweep`
replays the synthetic scenario x predictor matrix instead; `repro phases`
prints each workload's SimPoint phase plan; --sample checks phase-sampled
replay against the full replay (and fails the run past a 1pp error).
`repro trace replay` streams a container through a bounded chunk window
(--chunk-window) without ever holding the full trace in memory (--sample
replays only its stored phase plan; --warm functionally warms: exact
state, windows tallied). `repro serve` runs a replay daemon
(newline-delimited JSON over TCP) with an epoch-versioned,
fingerprint-keyed result cache; with --router it forwards each job to the
worker owning its key instead (rendezvous hashing; relayed payloads are
byte-identical). `repro client` submits jobs (--batch sends them as one
request); `repro job` runs one job inline with byte-identical output;
`repro cache` inspects and purges a result directory against this
binary's engine epoch.";

/// `usage: ` followed by `lines`, one command per line.
fn usage_text(lines: &[&str]) -> String {
    format!("usage: {}", lines.join("\n       "))
}

/// The one argument cursor: every tool reads its arguments front to back,
/// and every parse error it reports names the flag and ends in the tool's
/// usage.
struct Args {
    rest: std::vec::IntoIter<String>,
    tool: &'static str,
    usage: String,
}

impl Args {
    fn new(args: Vec<String>, tool: &'static str, usage: String) -> Args {
        Args { rest: args.into_iter(), tool, usage }
    }

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    /// `message`, followed by the tool's usage (if it has one).
    fn error(&self, message: impl Display) -> String {
        if self.usage.is_empty() {
            message.to_string()
        } else {
            format!("{message}\n{}", self.usage)
        }
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| self.error(format!("{flag} expects a value")))
    }

    /// The positive integer following `flag`.
    fn count(&mut self, flag: &str) -> Result<usize, String> {
        let value = self.value(flag)?;
        match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(self.error(format!("{flag} expects a positive integer, got `{value}`"))),
        }
    }

    /// The error for an argument the tool does not accept.
    fn unknown(&self, arg: &str) -> String {
        let kind = if arg.starts_with('-') { "flag" } else { "argument" };
        self.error(format!("unknown {} {kind} `{arg}`", self.tool))
    }
}

/// The flags accepted anywhere on the command line.
struct Globals {
    scale_div: u32,
    engine: ReplayEngine,
    trace_dir: Option<PathBuf>,
    sample: bool,
}

impl Globals {
    /// A trace store at the run's scale and on the run's engine, over the
    /// trace directory if any.
    fn store(&self) -> TraceStore {
        let store = TraceStore::with_scale_div(self.scale_div).with_engine(self.engine.clone());
        match &self.trace_dir {
            Some(dir) => store.with_trace_dir(dir),
            None => store,
        }
    }
}

/// Reports the store's cache activity on stderr: stdout must stay
/// byte-identical between cold and warm runs. A fully warm run reports
/// `0 simulated`.
fn report_cache(store: &TraceStore) {
    if store.cache().is_some() {
        eprintln!("[repro] trace cache: {}", store.cache_stats());
    }
}

fn build_failed(err: BuildError) -> String {
    format!("workload generation failed: {err:?}")
}

fn exit_status(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the listening address (scripts poll stdout for it to learn an
/// ephemeral port).
fn announce(addr: SocketAddr) {
    println!("listening on {addr}");
    let _ = io::stdout().flush();
}

/// What the experiments share: one trace store, one engine, and the
/// accuracy and overlap results that several figures render.
struct Harness {
    store: TraceStore,
    engine: ReplayEngine,
    accuracy: Option<accuracy::AccuracyResults>,
    overlap: Option<overlap::OverlapResults>,
}

impl Harness {
    fn accuracy(&mut self) -> Result<&accuracy::AccuracyResults, BuildError> {
        if self.accuracy.is_none() {
            eprintln!("[repro] running accuracy experiment (figures 3-7)...");
            self.accuracy = Some(accuracy::run(&mut self.store, &self.engine)?);
        }
        Ok(self.accuracy.as_ref().expect("just initialized"))
    }

    fn overlap(&mut self) -> Result<&overlap::OverlapResults, BuildError> {
        if self.overlap.is_none() {
            eprintln!("[repro] running overlap experiment (figures 8-9)...");
            self.overlap = Some(overlap::run(&mut self.store, &self.engine)?);
        }
        Ok(self.overlap.as_ref().expect("just initialized"))
    }
}

/// The bare file name of a cache entry (the full path if the name is
/// unrepresentable).
fn entry_name(path: &Path) -> String {
    path.file_name()
        .map_or_else(|| path.display().to_string(), |n| n.to_string_lossy().into_owned())
}

/// Prints a cache listing: a table with one row per readable entry (its
/// file name, then `cells`), then one `unreadable:` line per entry whose
/// header did not parse. Returns how many were unreadable.
fn print_listing<'a, E: Display>(
    columns: Vec<&str>,
    entries: impl IntoIterator<Item = (&'a Path, Result<Vec<String>, E>)>,
) -> usize {
    let mut table = TextTable::new(columns);
    let mut unreadable: Vec<String> = Vec::new();
    for (path, cells) in entries {
        let file = entry_name(path);
        match cells {
            Ok(cells) => table.row(std::iter::once(file).chain(cells).collect()),
            Err(err) => unreadable.push(format!("{file}: {err}")),
        }
    }
    if !table.is_empty() {
        println!("{}", table.render());
    }
    for line in &unreadable {
        println!("unreadable: {line}");
    }
    unreadable.len()
}

fn cache_entries(cache: &TraceCache) -> Result<Vec<CacheEntry>, String> {
    cache.entries().map_err(|err| format!("cannot list {}: {err}", cache.dir().display()))
}

/// Prints a header-level listing of every container in the cache directory
/// to stdout. Fails if a file cannot even be listed.
fn print_cache_stats(cache: &TraceCache) -> Result<ExitCode, String> {
    let entries = cache_entries(cache)?;
    println!("trace cache at {}: {} container(s)", cache.dir().display(), entries.len());
    let columns = vec!["File", "Workload", "Input", "Opt", "Scale", "Records", "Chunks", "KiB"];
    let unreadable = print_listing(
        columns,
        entries.iter().map(|entry| {
            let cells = entry.header.as_ref().map(|header| {
                let fp = &header.meta.fingerprint;
                vec![
                    fp.workload.clone(),
                    fp.input.clone(),
                    fp.opt_level.clone(),
                    fp.scale.to_string(),
                    header.record_count.to_string(),
                    header.chunks.len().to_string(),
                    (entry.bytes / 1024).to_string(),
                ]
            });
            (entry.path.as_path(), cells)
        }),
    );
    Ok(exit_status(unreadable == 0))
}

/// Fully validates every container in the cache directory (header +
/// every chunk checksum + every record decodes, in parallel on `engine`).
fn verify_cache(cache: &TraceCache, engine: &ReplayEngine) -> Result<ExitCode, String> {
    let entries = cache_entries(cache)?;
    if entries.is_empty() {
        println!("trace cache at {}: nothing to verify", cache.dir().display());
        return Ok(ExitCode::SUCCESS);
    }
    let mut failures = 0usize;
    for entry in &entries {
        let file = entry_name(&entry.path);
        match TraceCache::verify_file(engine, &entry.path) {
            Ok(header) => println!(
                "OK   {file} ({} records, {} chunks, {} KiB)",
                header.record_count,
                header.chunks.len(),
                entry.bytes / 1024
            ),
            Err(err) => {
                failures += 1;
                println!("FAIL {file}: {err}");
            }
        }
    }
    println!("verified {} container(s), {failures} failure(s)", entries.len());
    Ok(exit_status(failures == 0))
}

/// `repro sweep`: fan the synthetic scenario × predictor matrix through
/// the engine and render it as a table, CSV, or JSON. Fails when any
/// scenario misses its analytic expectation (a predictor regression), so
/// CI catches semantic failures even without a golden.
fn run_sweep_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let mut format = "table".to_owned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => format = args.value(&arg)?,
            _ => return Err(args.unknown(&arg)),
        }
    }
    if !["table", "csv", "json"].contains(&format.as_str()) {
        return Err(format!("unknown sweep format `{format}` (expected table, csv, or json)"));
    }
    let mut store = globals.store();
    let engine = &globals.engine;
    let grid = sweep::default_grid(globals.scale_div > 1);
    let bank = PredictorConfig::paper_bank();
    let sample = globals.sample;
    eprintln!(
        "[repro] sweeping {} scenarios x {} configurations ({} workers{})...",
        grid.len(),
        bank.len(),
        engine.workers(),
        if sample { ", sampled check on" } else { "" }
    );
    let results = if sample {
        sweep::run_sampled(&mut store, engine, &grid, &bank)
    } else {
        sweep::run(&mut store, engine, &grid, &bank)
    };
    match format.as_str() {
        "csv" => print!("{}", results.render_csv()),
        "json" => println!("{}", results.render_json()),
        _ => println!("{}", results.render()),
    }
    report_cache(&store);
    if !results.all_met() {
        return Err(format!(
            "[repro] sweep: at least one scenario missed its analytic expectation{}",
            if sample { " or exceeded the sampling error limit" } else { "" }
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro phases`: build (or recall from the trace cache) every requested
/// benchmark's SimPoint phase plan and print the plan tables. The plans
/// are a pure sequential function of each trace, so the output is
/// byte-identical at any `--workers`/`--chunk-window` setting.
fn run_phases_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let mut benchmarks: Vec<Benchmark> = Vec::new();
    while let Some(arg) = args.next() {
        let Some(&benchmark) = Benchmark::ALL.iter().find(|b| b.name() == arg) else {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            let expected = names.join(", ");
            return Err(args
                .error(format!("unknown phases benchmark `{arg}` (expected one of: {expected})")));
        };
        if !benchmarks.contains(&benchmark) {
            benchmarks.push(benchmark);
        }
    }
    if benchmarks.is_empty() {
        benchmarks.extend(Benchmark::ALL);
    }
    let mut store = globals.store();
    eprintln!("[repro] planning phases for {} workload(s)...", benchmarks.len());
    let report = phases::report(&mut store, &benchmarks).map_err(build_failed)?;
    println!("{}", report.render());
    report_cache(&store);
    Ok(ExitCode::SUCCESS)
}

/// `repro bench`: the perf-smoke harness. Replays the fixed seeded
/// synthetic trace through every predictor family's batched dense hot
/// path, times phase profiling at that length and at four times it and
/// a sequential load of the trace's container, and prints ns/record JSON (the `BENCH_*.json` shape) on stdout. With `--check FILE` it replays at the baseline's record count
/// (so `--records` is a usage error there) and renders a
/// baseline-vs-current table on stderr, failing when a row's hits
/// differ from the baseline's or its time crosses the generous
/// regression tripwire (timing noise is expected; a 3x slowdown is not).
fn run_bench_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let (mut records, mut passes, mut check) = (None, bench::BENCH_PASSES, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--records" => records = Some(args.count(&arg)?),
            "--passes" => passes = args.count(&arg)?,
            "--check" => check = Some(PathBuf::from(args.value(&arg)?)),
            _ => return Err(args.unknown(&arg)),
        }
    }
    let baseline = match check {
        None => None,
        Some(_) if records.is_some() => {
            return Err(args.error("--check replays at the baseline's record count; drop --records"))
        }
        Some(path) => {
            let text = fs::read_to_string(&path)
                .map_err(|err| format!("cannot read baseline {}: {err}", path.display()))?;
            let baseline = bench::parse_baseline(&text)
                .map_err(|why| format!("baseline {}: {why}", path.display()))?;
            Some(baseline)
        }
    };
    let records = match &baseline {
        Some(baseline) => baseline.records,
        None => records.unwrap_or(bench::BENCH_RECORDS / globals.scale_div as usize),
    };
    eprintln!("[repro] bench: {records} records x {passes} passes per row...");
    let results = bench::run(records, passes);
    print!("{}", bench::to_json(records, &results));
    if let Some(baseline) = baseline {
        let (report, failed) = bench::check(records, &results, &baseline);
        eprintln!("{report}");
        if failed {
            return Err(format!(
                "[repro] bench: the check failed (hits differ from the baseline, or a row \
                 regressed past {}x)",
                bench::REGRESSION_FACTOR
            ));
        }
        eprintln!("[repro] bench: hits match the baseline; all rows within the budget");
    }
    Ok(ExitCode::SUCCESS)
}

/// `repro trace <export|stats|verify|gen|replay>`.
fn run_trace_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let command = args.next().unwrap_or_default();
    match command.as_str() {
        "gen" => return run_trace_gen(args),
        "replay" => return run_trace_replay(args, globals),
        _ => {}
    }
    let Some(dir) = &globals.trace_dir else {
        return Err(args.error("repro trace requires --trace-dir"));
    };
    if let Some(extra) = args.next() {
        return Err(args.unknown(&extra));
    }
    match command.as_str() {
        "export" => {
            let mut store = globals.store();
            let engine = &globals.engine;
            eprintln!(
                "[repro] exporting all benchmark traces to {} ({} workers)...",
                dir.display(),
                engine.workers()
            );
            store.prefetch(engine, &Benchmark::ALL).map_err(build_failed)?;
            // Also persist the sensitivity studies' variant traces (Table
            // 6 inputs, Table 7 optimization levels) so a later
            // `repro all` against this directory simulates nothing.
            sensitivity::variant_jobs(&store)
                .and_then(|jobs| store.variant_traces(jobs))
                .map_err(|err| format!("variant workload generation failed: {err:?}"))?;
            report_cache(&store);
            print_cache_stats(store.cache().expect("configured above"))
        }
        "stats" => print_cache_stats(&TraceCache::new(dir)),
        "verify" => verify_cache(&TraceCache::new(dir), &globals.engine),
        "" => Err(args.error("repro trace expects a command")),
        _ => Err(args.error(format!("unknown trace command `{command}`"))),
    }
}

/// `repro trace gen`: write a synthetic trace container of a requested
/// size — the generator behind the CI bounded-memory replay check, and a
/// quick way to make large inputs for `repro trace replay`. The container
/// is the trace cache's ([`cache::write_container`], crash-safe through
/// [`durable::replace_file`]): compressed payloads stream to the file
/// from an encoder thread while this one profiles the trace, and the
/// stored phase plan lets `repro trace replay --sample` skip profiling.
fn run_trace_gen(mut args: Args) -> Result<ExitCode, String> {
    args.tool = "trace gen";
    let (mut records, mut out, mut seed) = (None, None, 1u64);
    let (mut pcs, mut chunk_records) = (64usize, dvp_engine::DEFAULT_CHUNK_LEN);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--records" => records = Some(args.count(&arg)?),
            "--pcs" => pcs = args.count(&arg)?,
            "--chunk-records" => chunk_records = args.count(&arg)?,
            "--seed" => {
                let value = args.value(&arg)?;
                seed = value.parse().map_err(|_| {
                    args.error(format!("--seed expects an unsigned integer, got `{value}`"))
                })?;
            }
            "--out" => out = Some(PathBuf::from(args.value(&arg)?)),
            _ => return Err(args.unknown(&arg)),
        }
    }
    let (Some(cap), Some(out)) = (records, out) else {
        return Err(args.error("repro trace gen requires --records N and --out FILE"));
    };
    let pcs = u32::try_from(pcs.min(cap.max(1))).unwrap_or(u32::MAX);
    let per_pc = u32::try_from(cap.div_ceil(pcs as usize)).unwrap_or(u32::MAX);
    let scenario = Scenario::new(ScenarioKind::Mixed, pcs, per_pc, seed);
    let mut builder = SharedTraceBuilder::with_chunk_len(chunk_records);
    scenario.generate_with(&mut |rec| {
        if builder.len() < cap {
            builder.push(rec);
        }
    });
    let trace = builder.finish();
    let meta = v2::TraceMeta {
        fingerprint: scenario.fingerprint(Some(cap)),
        retired: scenario.total_records(),
        predicted: scenario.total_records(),
    };
    let (header, _) =
        durable::replace_file(&out, |writer| cache::write_container(writer, &meta, &trace))
            .map_err(|err| format!("cannot write {}: {err}", out.display()))?;
    eprintln!(
        "[repro] wrote {} records in {} chunks to {}",
        header.record_count,
        header.chunks.len(),
        out.display()
    );
    Ok(ExitCode::SUCCESS)
}

/// Replays the container at `path` either resident (`load_trace`, then
/// `on_trace`) or streaming (`on_stream` over the open file).
fn replay_container<T>(
    path: &Path,
    engine: &ReplayEngine,
    resident: bool,
    on_trace: impl FnOnce(&SharedTrace) -> T,
    on_stream: impl FnOnce(io::BufReader<fs::File>) -> Result<(v2::Header, T), TraceIoError>,
) -> Result<(v2::Header, T), String> {
    let outcome = if resident {
        fs::read(path)
            .map_err(TraceIoError::from)
            .and_then(|bytes| engine.load_trace(&bytes))
            .map(|(header, trace)| (header, on_trace(&trace)))
    } else {
        fs::File::open(path)
            .map_err(TraceIoError::from)
            .and_then(|file| on_stream(io::BufReader::new(file)))
    };
    outcome.map_err(|err| format!("cannot replay {}: {err}", path.display()))
}

/// `repro trace replay`: replay one container through the paper's
/// predictor bank — streaming through the bounded chunk window by default
/// (fixed resident memory, whatever the file size), or fully resident with
/// `--resident`. The global `--sample` replays only the container's stored
/// phase plan (the `PHAS` section written by `repro trace gen` and the
/// trace cache): streaming, chunks no phase touches are never decoded.
/// `--warm` samples with functional warming instead: every record is
/// observed to keep predictor state exact (every chunk decodes), but still
/// only the plan's windows are tallied — slower than cold sampling, but
/// the weighted estimate matches the full replay to within the
/// clustering's weighting error even for history-hungry predictors. Every
/// printed number is an exact integer tally (or derived from the per-phase
/// tallies), byte-identical between the streaming and resident paths at
/// any engine setting.
fn run_trace_replay(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    args.tool = "trace replay";
    let (mut file, mut resident, mut warm) = (None, false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--resident" => resident = true,
            "--warm" => warm = true,
            _ if !arg.starts_with('-') && file.is_none() => file = Some(PathBuf::from(&arg)),
            _ => return Err(args.unknown(&arg)),
        }
    }
    let path = file.ok_or_else(|| args.error("repro trace replay requires a container file"))?;
    let engine = &globals.engine;
    let bank = PredictorConfig::paper_bank();
    if !globals.sample && !warm {
        let (header, replays) = replay_container(
            &path,
            engine,
            resident,
            |trace| engine.replay(trace, &bank),
            |reader| engine.replay_streaming(reader, &bank),
        )?;
        println!("replayed {} records in {} chunks", header.record_count, header.chunks.len());
        println!("{}", replay_table(&replays));
        return Ok(ExitCode::SUCCESS);
    }
    let plan = match TraceCache::read_phase_plan(&path) {
        Ok(Some(plan)) => plan,
        Ok(None) => {
            return Err(format!(
                "cannot sample {}: the container carries no phase plan (PHAS section); \
                 regenerate it with `repro trace gen` or replay without --sample",
                path.display()
            ))
        }
        Err(err) => return Err(format!("cannot sample {}: {err}", path.display())),
    };
    let (header, replays) = if warm {
        replay_container(
            &path,
            engine,
            resident,
            |trace| engine.replay_sampled_warm(trace, &bank, &plan),
            |reader| engine.replay_sampled_warm_streaming(reader, &bank, &plan),
        )?
    } else {
        replay_container(
            &path,
            engine,
            resident,
            |trace| engine.replay_sampled(trace, &bank, &plan),
            |reader| engine.replay_sampled_streaming(reader, &bank, &plan),
        )?
    };
    println!("{}", sampled_report(&replays, &plan, header.record_count, warm));
    Ok(ExitCode::SUCCESS)
}

/// Flags that configure a daemon's job execution; a router executes
/// nothing, so it refuses them.
const WORKER_FLAGS: [&str; 5] =
    ["--queue", "--inflight", "--job-workers", "--results", "--result-dir"];

/// `repro serve`: run the replay daemon until a client requests shutdown.
/// With `--router a,b,...` it runs the consistent-hash front door instead
/// (no jobs execute locally); each of its workers is a plain daemon.
fn run_serve_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let mut options = ServeOptions { trace_dir: globals.trace_dir.clone(), ..Default::default() };
    let (mut backends, mut retries, mut worker_flag) = (None, None, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => options.listen = args.value(&arg)?,
            "--router" => {
                let list: Vec<String> = args
                    .value(&arg)?
                    .split(',')
                    .map(str::trim)
                    .filter(|b| !b.is_empty())
                    .map(String::from)
                    .collect();
                if list.is_empty() {
                    return Err(args.error("--router expects at least one backend address"));
                }
                backends = Some(list);
            }
            "--retries" => retries = Some(u32::try_from(args.count(&arg)?).unwrap_or(u32::MAX)),
            "--queue" => options.queue_capacity = args.count(&arg)?,
            "--inflight" => options.inflight_cap = args.count(&arg)?,
            "--job-workers" => options.job_workers = args.count(&arg)?,
            "--results" => options.memory_entries = args.count(&arg)?,
            "--result-dir" => options.result_dir = Some(PathBuf::from(args.value(&arg)?)),
            _ => return Err(args.unknown(&arg)),
        }
        if WORKER_FLAGS.contains(&arg.as_str()) {
            worker_flag.get_or_insert(arg);
        }
    }
    let listen = options.listen.clone();
    if listen.parse::<SocketAddr>().is_err() {
        return Err(format!("invalid --listen address `{listen}`"));
    }
    let Some(backends) = backends else {
        if retries.is_some() {
            return Err(args.error("--retries applies only to --router mode"));
        }
        let server = Server::start(globals.engine.clone(), options)
            .map_err(|err| format!("cannot bind {listen}: {err}"))?;
        announce(server.addr());
        eprintln!("[repro] result cache: {}", server.join());
        return Ok(ExitCode::SUCCESS);
    };
    if let Some(flag) = worker_flag {
        return Err(
            args.error(format!("{flag} is a worker flag and does not apply to --router mode"))
        );
    }
    if let Some(bad) = backends.iter().find(|b| b.parse::<SocketAddr>().is_err()) {
        return Err(format!("invalid --router backend `{bad}` (expected host:port)"));
    }
    let backend_count = backends.len();
    let connect_attempts = retries.unwrap_or(RouterOptions::default().connect_attempts);
    let router =
        Router::start(RouterOptions { listen: listen.clone(), backends, connect_attempts })
            .map_err(|err| format!("cannot bind {listen}: {err}"))?;
    announce(router.addr());
    let stats = router.join();
    eprintln!(
        "[repro] router: {backend_count} backend(s), {} forwarded, {} backend_down",
        stats.forwarded, stats.backend_down
    );
    Ok(ExitCode::SUCCESS)
}

fn read_spec(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|err| format!("cannot read job spec `{path}`: {err}"))
}

fn parse_spec(text: &str) -> Result<JobSpec, String> {
    JobSpec::parse(text).map_err(|why| format!("invalid job spec: {why}"))
}

/// Prints one job's outcome. A result is `Ok(false)`; a job the tier
/// turned away (`rejected`, `backend_down`; exit code 2) is `Ok(true)`; a
/// failed job is its error message.
fn report_outcome(outcome: Outcome, payload_only: bool) -> Result<bool, String> {
    match outcome {
        Outcome::Result { payload, .. } => {
            if payload_only {
                print!("{payload}");
            }
            Ok(false)
        }
        Outcome::Rejected { reason } => {
            eprintln!("job rejected: {reason}");
            Ok(true)
        }
        Outcome::BackendDown { backend, reason } => {
            eprintln!("backend down ({backend}): {reason}");
            Ok(true)
        }
        Outcome::Error { message } => Err(format!("job failed: {message}")),
    }
}

/// `repro client`: submit jobs to a running daemon and stream the frames.
fn run_client_tool(mut args: Args, _: &Globals) -> Result<ExitCode, String> {
    let addr = args.next().filter(|a| !a.starts_with("--"));
    let addr = addr.ok_or_else(|| args.error("repro client expects a server address"))?;
    let mut jobs: Vec<String> = Vec::new();
    let (mut batch, mut payload_only, mut ping, mut stats, mut shutdown) =
        (false, false, false, false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--job" => jobs.push(args.value(&arg)?),
            "--spec" => jobs.push(read_spec(&args.value(&arg)?)?),
            "--batch" => batch = true,
            "--payload-only" => payload_only = true,
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--shutdown" => shutdown = true,
            _ => return Err(args.unknown(&arg)),
        }
    }
    // Validate locally before touching the network — a bad spec is the
    // caller's mistake, not the server's — and canonicalize to the
    // one-line wire form (a spec file may be pretty-printed or end in a
    // newline, neither of which survives a line protocol).
    for job in &mut jobs {
        *job = parse_spec(job)?.to_json();
    }
    let mut client =
        ServeClient::connect(&addr).map_err(|err| format!("cannot connect to {addr}: {err}"))?;
    let connection_failed = |err: io::Error| format!("connection to {addr} failed: {err}");
    if ping {
        client.ping().map_err(|err| format!("ping failed: {err}"))?;
        if !payload_only {
            println!("pong");
        }
    }
    let echo = |frame: &Frame| {
        if !payload_only {
            println!("{}", frame.raw);
        }
    };
    let (mut turned_away, mut failed) = (false, false);
    if batch {
        // One `jobs` request, one interleaved stream; outcomes come back
        // in input order regardless of completion order. A failed job
        // does not stop the others from being reported.
        for outcome in client.submit_batch_streaming(&jobs, echo).map_err(connection_failed)? {
            match report_outcome(outcome, payload_only) {
                Ok(away) => turned_away |= away,
                Err(message) => {
                    eprintln!("{message}");
                    failed = true;
                }
            }
        }
    } else {
        for job in &jobs {
            let outcome = client.submit_streaming(job, echo).map_err(connection_failed)?;
            turned_away |= report_outcome(outcome, payload_only)?;
        }
    }
    if stats {
        println!("{}", client.stats().map_err(|err| format!("stats failed: {err}"))?);
    }
    if shutdown {
        client.shutdown().map_err(|err| format!("shutdown failed: {err}"))?;
    }
    Ok(if !failed && turned_away { ExitCode::from(2) } else { exit_status(!failed) })
}

/// `repro job`: run one job spec inline, without a daemon. The payload is
/// byte-identical to what `repro serve` streams for the same spec.
fn run_job_tool(mut args: Args, globals: &Globals) -> Result<ExitCode, String> {
    let mut text = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => text = Some(args.value(&arg)?),
            "--spec" => text = Some(read_spec(&args.value(&arg)?)?),
            _ => return Err(args.unknown(&arg)),
        }
    }
    let spec = parse_spec(&text.ok_or_else(|| args.error("repro job expects a spec"))?)?;
    let payload = run_job(&spec, &globals.engine, globals.trace_dir.as_deref())
        .map_err(|why| format!("job failed: {why}"))?;
    // The payload already ends in a newline; print! keeps the bytes
    // identical to the daemon's result frame.
    print!("{payload}");
    Ok(ExitCode::SUCCESS)
}

/// `repro cache <stats|purge>`: inspect and maintain an on-disk result
/// cache without starting a daemon. `stats` classifies every entry
/// against the running binary's engine epoch; `purge --stale` deletes
/// exactly the entries this binary would refuse to serve.
fn run_cache_tool(mut args: Args, _: &Globals) -> Result<ExitCode, String> {
    let (mut command, mut dir, mut stale) = (None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--result-dir" => dir = Some(PathBuf::from(args.value(&arg)?)),
            "--stale" => stale = true,
            "stats" | "purge" if command.is_none() => command = Some(arg),
            _ => return Err(args.unknown(&arg)),
        }
    }
    let command = command.ok_or_else(|| args.error("repro cache expects a command"))?;
    let dir = dir.ok_or_else(|| args.error("repro cache requires --result-dir"))?;
    let epoch = dvp_engine::engine_epoch();
    if command == "purge" {
        if !stale {
            return Err(args.error(
                "repro cache purge requires --stale (only staleness-based purging is supported)",
            ));
        }
        let report = result_cache::purge_stale(&dir, epoch)
            .map_err(|err| format!("cannot purge {}: {err}", dir.display()))?;
        println!(
            "purged {} stale entr{}, kept {} current (engine epoch {epoch:016x})",
            report.removed,
            if report.removed == 1 { "y" } else { "ies" },
            report.kept
        );
        return Ok(ExitCode::SUCCESS);
    }
    if stale {
        return Err(args.error("--stale applies only to `repro cache purge`"));
    }
    let entries = result_cache::scan_entries(&dir)
        .map_err(|err| format!("cannot list {}: {err}", dir.display()))?;
    println!(
        "result cache at {}: {} entr{}, engine epoch {epoch:016x}",
        dir.display(),
        entries.len(),
        if entries.len() == 1 { "y" } else { "ies" }
    );
    let (mut current, mut stale_count) = (0usize, 0usize);
    let unreadable = print_listing(
        vec!["File", "Epoch", "State", "KiB"],
        entries.iter().map(|entry| {
            let cells = entry.header.as_ref().map(|header| {
                let state = if header.is_current(epoch) {
                    current += 1;
                    "current"
                } else {
                    stale_count += 1;
                    "stale"
                };
                let epoch = format!("{:016x}", header.epoch);
                vec![epoch, state.to_owned(), (entry.bytes / 1024).to_string()]
            });
            (entry.path.as_path(), cells)
        }),
    );
    println!("{current} current, {stale_count} stale, {unreadable} unreadable");
    Ok(ExitCode::SUCCESS)
}

/// Runs the requested experiments in order (with `all` anywhere, every
/// experiment), then — with `--sample` — the phase-sampling error harness.
fn run_experiments(ids: &[String], globals: Globals) -> Result<ExitCode, String> {
    // Check every argument before doing any work: a flag no parser took is
    // a mistyped flag, not an experiment id.
    if let Some(flag) = ids.iter().find(|arg| arg.starts_with('-')) {
        return Err(Args::new(Vec::new(), "repro", usage_text(&[EXPERIMENTS_USAGE])).unknown(flag));
    }
    let experiments = if ids.iter().any(|id| id == "all") {
        EXPERIMENTS.to_vec()
    } else {
        let find = |id: &String| {
            EXPERIMENTS.iter().find(|(name, ..)| name == id).copied().ok_or_else(|| {
                let targets: Vec<&str> = ["all"]
                    .into_iter()
                    .chain(TOOLS.iter().map(|tool| tool.name))
                    .chain(EXPERIMENTS.iter().map(|(name, ..)| *name))
                    .collect();
                format!("unknown target `{id}`\nvalid targets: {}", targets.join(", "))
            })
        };
        ids.iter().map(find).collect::<Result<Vec<_>, String>>()?
    };
    let sample = globals.sample;
    let mut harness =
        Harness { store: globals.store(), engine: globals.engine, accuracy: None, overlap: None };
    // Experiments that replay every benchmark's trace share the store's
    // cache: generate all traces up front, in parallel, before the first
    // table. (Experiments left out generate what they need themselves.)
    if experiments.iter().any(|&(_, prefetch, _)| prefetch) {
        eprintln!("[repro] prefetching benchmark traces ({} workers)...", harness.engine.workers());
        harness.store.prefetch(&harness.engine, &Benchmark::ALL).map_err(build_failed)?;
    }
    for (_, _, render) in experiments {
        println!("{}", render(&mut harness).map_err(build_failed)?);
    }
    // `--sample` appends the phase-sampling error harness after the normal
    // experiment output (so existing goldens never change) and turns an
    // over-limit sampling error into a failed run.
    let mut sample_ok = true;
    if sample {
        eprintln!("[repro] validating phase-sampled replay against the full replay...");
        let bank = PredictorConfig::paper_bank();
        let validation =
            phases::validate(&mut harness.store, &harness.engine, &bank).map_err(build_failed)?;
        println!("{}", validation.render());
        sample_ok = validation.all_within_limit();
    }
    report_cache(&harness.store);
    if !sample_ok {
        return Err("[repro] --sample: a sampled accuracy estimate exceeded the error limit".into());
    }
    Ok(ExitCode::SUCCESS)
}

/// Reads the global flags from anywhere in `argv`, then hands the rest to
/// the `--list`, the named tool, the usage or the experiments.
fn run(argv: Vec<String>) -> Result<ExitCode, String> {
    let (mut scale_div, mut engine, mut trace_dir) = (1, ReplayEngine::new(), None);
    let mut sample = false;
    let mut rest: Vec<String> = Vec::new();
    let mut args = Args::new(argv, "", String::new());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale_div = 4,
            "--workers" | "-j" => engine = engine.with_workers(args.count(&arg)?),
            "--chunk-window" => engine = engine.with_chunk_window(args.count(&arg)?),
            "--sample" => sample = true,
            "--trace-dir" => trace_dir = Some(PathBuf::from(args.value(&arg)?)),
            _ => rest.push(arg),
        }
    }
    let globals = Globals { scale_div, engine, trace_dir, sample };
    if rest.iter().any(|a| a == "--list" || a == "-l") {
        for (id, ..) in EXPERIMENTS {
            println!("{id}");
        }
        return Ok(ExitCode::SUCCESS);
    }
    let first = rest.first().map_or("", String::as_str);
    if let Some(tool) = TOOLS.iter().find(|tool| tool.name == first) {
        rest.remove(0);
        return (tool.run)(Args::new(rest, tool.name, usage_text(tool.usage)), &globals);
    }
    if rest.is_empty() || rest.iter().any(|a| a == "--help" || a == "-h") {
        let mut lines = vec![EXPERIMENTS_USAGE];
        lines.extend(TOOLS.iter().flat_map(|tool| tool.usage.iter().copied()));
        lines.push("repro --list");
        return Err(format!("{}\n\n{ABOUT}", usage_text(&lines)));
    }
    run_experiments(&rest, globals)
}

fn main() -> ExitCode {
    run(std::env::args().skip(1).collect()).unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}
