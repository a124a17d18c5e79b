//! `repro` — regenerate the tables and figures of Sazeides & Smith (1997).
//!
//! ```text
//! repro all                          # everything, in paper order
//! repro figure3 table6               # specific experiments
//! repro --quick all                  # 1/4-scale workloads (faster, noisier)
//! repro --workers 4 all              # cap the replay engine at 4 threads
//! repro --workers 1 all              # sequential reference run (same output)
//! repro --trace-dir cache/ all       # persistent trace cache: first run
//!                                    # simulates + saves, later runs load
//! repro --no-trace-cache ...         # ignore --trace-dir for this run
//! repro trace export --trace-dir d/  # simulate + persist all benchmark traces
//! repro trace stats  --trace-dir d/  # list cached containers (header-level)
//! repro trace verify --trace-dir d/  # full checksum + decode validation
//! repro trace gen --records N --out f # synthetic container of N records
//! repro trace replay f               # stream-replay a container in bounded
//!                                    # memory (--resident loads it whole)
//! repro --chunk-window N ...         # live chunks resident while streaming
//! repro sweep                        # synthetic scenario × predictor matrix
//! repro sweep --quick --format csv   # smaller grid, machine-readable output
//! repro phases                       # SimPoint phase plans per workload
//! repro bench                        # per-family perf smoke (records/sec JSON)
//! repro bench --check BENCH_17.json  # ... at the committed baseline's size,
//!                                    # failing on changed hits or a 3x slowdown
//! repro --quick all --sample         # additionally validate phase-sampled
//!                                    # replay against the full replay (≤1pp)
//! repro sweep --sample               # sweep with sampled-error gating
//! repro trace replay f --sample      # replay only the container's PHAS plan
//! repro trace replay f --warm        # sampled with functional warming (state
//!                                    # exact; only the plan's windows tallied)
//! repro serve                        # replay daemon on an ephemeral port
//! repro serve --listen 0.0.0.0:7117  # ... on a fixed address
//! repro serve --result-dir results/  # persist the result cache across runs
//! repro serve --router H:P,H:P       # consistent-hash front door: forward
//!                                    # each job to the worker owning its key
//! repro client ADDR --job '{...}'    # submit a job, stream its frames
//! repro client ADDR --job '{...}' --job '{...}' --batch  # one round trip
//! repro client ADDR --spec job.json --payload-only --stats --shutdown
//! repro job --spec job.json          # run one job inline (no daemon); output
//!                                    # is byte-identical to the served result
//! repro cache stats --result-dir d/  # classify entries vs this binary's epoch
//! repro cache purge --stale --result-dir d/  # drop other-epoch entries
//! repro --list                       # list experiment ids
//! ```
//!
//! All workload-driven experiments run through the `dvp-engine` parallel
//! replay engine: each benchmark's trace is simulated once into a shared
//! buffer, and the predictor×workload matrix fans out across worker
//! threads with per-PC sharding. With `--trace-dir`, traces additionally
//! persist across runs as compressed version-4 containers (spec:
//! `docs/TRACE_FORMAT.md`; a file of any other version is regenerated)
//! and later runs replay them without simulating at all — the tables are
//! byte-identical at any `--workers`/`--shards` setting and whether a
//! trace came from the simulator or the cache. Cache activity is reported
//! on stderr (`[repro] trace cache: ...`), never on stdout.

use dvp_core::PredictorConfig;
use dvp_engine::{ReplayEngine, SharedTraceBuilder};
use dvp_experiments::cache::TraceCache;
use dvp_experiments::result_cache;
use dvp_experiments::serve::{
    run_job, JobSpec, Outcome, Router, RouterOptions, ServeClient, ServeOptions, Server,
};
use dvp_experiments::{
    accuracy, analytic, characterize, durable, information, overlap, phases, realism, sensitivity,
    speedup, sweep, values, TextTable, TraceStore,
};
use dvp_trace::io::v2;
use dvp_trace::InstrCategory;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use dvp_workloads::Benchmark;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every experiment id in `repro all` order (the paper's tables and
/// figures first, then the extras/extensions), with whether it replays
/// every benchmark's cached trace — the single source of truth driving
/// the upfront parallel prefetch. (Experiments marked `false` either need
/// no workloads at all or generate their own traces: the sensitivity
/// experiments build gcc variants — cached individually through the
/// store's disk tier — and `ext-speedup` collects dependence traces.)
const EXPERIMENTS: [(&str, bool); 23] = [
    ("table1", false),
    ("figure1", false),
    ("figure2", false),
    ("table2", true),
    ("table3", false),
    ("table4", true),
    ("table5", true),
    ("figure3", true),
    ("figure4", true),
    ("figure5", true),
    ("figure6", true),
    ("figure7", true),
    ("figure8", true),
    ("figure9", true),
    ("figure10", true),
    ("table6", false),
    ("table7", false),
    ("figure11", false),
    ("ext-tables", true),
    ("ext-delay", true),
    ("ext-locality", true),
    ("ext-entropy", true),
    ("ext-speedup", false),
];

struct Harness {
    store: TraceStore,
    engine: ReplayEngine,
    accuracy: Option<accuracy::AccuracyResults>,
    overlap: Option<overlap::OverlapResults>,
}

impl Harness {
    fn accuracy(&mut self) -> &accuracy::AccuracyResults {
        if self.accuracy.is_none() {
            eprintln!("[repro] running accuracy experiment (figures 3-7)...");
            self.accuracy =
                Some(accuracy::run(&mut self.store, &self.engine).expect("accuracy experiment"));
        }
        self.accuracy.as_ref().expect("just initialized")
    }

    fn overlap(&mut self) -> &overlap::OverlapResults {
        if self.overlap.is_none() {
            eprintln!("[repro] running overlap experiment (figures 8-9)...");
            self.overlap =
                Some(overlap::run(&mut self.store, &self.engine).expect("overlap experiment"));
        }
        self.overlap.as_ref().expect("just initialized")
    }

    fn run(&mut self, id: &str) -> Option<String> {
        let engine = self.engine.clone();
        let text = match id {
            "table1" => analytic::table1().render(),
            "figure1" => analytic::figure1().render(),
            "figure2" => analytic::figure2().render(),
            "table2" => characterize::table2(&mut self.store).expect("table2").render(),
            "table3" => characterize::table3(),
            "table4" => characterize::table45(&mut self.store).expect("table4").render_static(),
            "table5" => characterize::table45(&mut self.store).expect("table5").render_dynamic(),
            "figure3" => self.accuracy().render_overall(),
            "figure4" => self.accuracy().render_category(InstrCategory::AddSub),
            "figure5" => self.accuracy().render_category(InstrCategory::Loads),
            "figure6" => self.accuracy().render_category(InstrCategory::Logic),
            "figure7" => self.accuracy().render_category(InstrCategory::Shift),
            "figure8" => self.overlap().render_figure8(),
            "figure9" => self.overlap().render_figure9(),
            "figure10" => values::run(&mut self.store).expect("figure10").render(),
            "table6" => sensitivity::table6(&mut self.store, &engine).expect("table6").render(),
            "table7" => sensitivity::table7(&mut self.store, &engine).expect("table7").render(),
            "figure11" => {
                sensitivity::figure11(&mut self.store, &engine).expect("figure11").render()
            }
            "ext-tables" => {
                realism::table_sweep(&mut self.store, &engine).expect("ext-tables").render()
            }
            "ext-delay" => {
                realism::delay_sweep(&mut self.store, &engine).expect("ext-delay").render()
            }
            "ext-locality" => {
                information::locality(&mut self.store).expect("ext-locality").render()
            }
            "ext-entropy" => information::entropy(&mut self.store).expect("ext-entropy").render(),
            "ext-speedup" => speedup::run(&self.store, &engine).expect("ext-speedup").render(),
            _ => return None,
        };
        Some(text)
    }
}

fn parse_count(args: &[String], index: usize, flag: &str) -> Option<usize> {
    let Some(value) = args.get(index) else {
        eprintln!("{flag} expects a positive integer value");
        return None;
    };
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("{flag} expects a positive integer, got `{value}`");
            None
        }
    }
}

/// The bare file name of a cache entry for listings (falls back to the
/// full path if the name is unrepresentable).
fn entry_name(entry: &dvp_experiments::cache::CacheEntry) -> String {
    entry
        .path
        .file_name()
        .map_or_else(|| entry.path.display().to_string(), |n| n.to_string_lossy().into_owned())
}

/// Prints a header-level listing of every container in the cache directory
/// to stdout. Returns failure if a file cannot even be listed.
fn print_cache_stats(cache: &TraceCache) -> ExitCode {
    let entries = match cache.entries() {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("cannot list {}: {err}", cache.dir().display());
            return ExitCode::FAILURE;
        }
    };
    println!("trace cache at {}: {} container(s)", cache.dir().display(), entries.len());
    if entries.is_empty() {
        return ExitCode::SUCCESS;
    }
    let mut table = TextTable::new(vec![
        "File", "Workload", "Input", "Opt", "Scale", "Records", "Chunks", "KiB",
    ]);
    let mut broken: Vec<String> = Vec::new();
    for entry in &entries {
        let file = entry_name(entry);
        match &entry.header {
            Ok(header) => {
                let fp = &header.meta.fingerprint;
                table.row(vec![
                    file,
                    fp.workload.clone(),
                    fp.input.clone(),
                    fp.opt_level.clone(),
                    fp.scale.to_string(),
                    header.record_count.to_string(),
                    header.chunks.len().to_string(),
                    (entry.bytes / 1024).to_string(),
                ]);
            }
            Err(err) => broken.push(format!("{file}: {err}")),
        }
    }
    if !table.is_empty() {
        println!("{}", table.render());
    }
    for line in &broken {
        println!("unreadable: {line}");
    }
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Fully validates every container in the cache directory (header +
/// every chunk checksum + every record decodes, in parallel on `engine`).
fn verify_cache(cache: &TraceCache, engine: &ReplayEngine) -> ExitCode {
    let entries = match cache.entries() {
        Ok(entries) => entries,
        Err(err) => {
            eprintln!("cannot list {}: {err}", cache.dir().display());
            return ExitCode::FAILURE;
        }
    };
    if entries.is_empty() {
        println!("trace cache at {}: nothing to verify", cache.dir().display());
        return ExitCode::SUCCESS;
    }
    let mut failures = 0usize;
    for entry in &entries {
        let file = entry_name(entry);
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
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `repro sweep` tool: fan the synthetic scenario × predictor matrix
/// through the engine and render it as a table, CSV, or JSON. Exits
/// nonzero when any scenario misses its analytic expectation (a predictor
/// regression), so CI catches semantic failures even without a golden.
fn run_sweep_tool(
    commands: &[String],
    trace_dir: Option<PathBuf>,
    quick: bool,
    engine: &ReplayEngine,
    sample: bool,
) -> ExitCode {
    let usage = "usage: repro sweep [--quick] [--sample] [--format table|csv|json] [--workers N] \
                 [--shards N] [--trace-dir DIR]";
    let mut format = "table".to_owned();
    let mut skip = false;
    for (i, arg) in commands.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--format" => {
                let Some(value) = commands.get(i + 1) else {
                    eprintln!("--format expects one of: table, csv, json\n{usage}");
                    return ExitCode::FAILURE;
                };
                if !["table", "csv", "json"].contains(&value.as_str()) {
                    eprintln!("unknown sweep format `{value}` (expected table, csv, or json)");
                    return ExitCode::FAILURE;
                }
                format = value.clone();
                skip = true;
            }
            other => {
                eprintln!("unknown sweep argument `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut store = TraceStore::new();
    if let Some(dir) = &trace_dir {
        store = store.with_trace_dir(dir);
    }
    let grid = sweep::default_grid(quick);
    let bank = PredictorConfig::paper_bank();
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
    if store.cache().is_some() {
        eprintln!("[repro] trace cache: {}", store.cache_stats());
    }
    if results.all_met() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "[repro] sweep: at least one scenario missed its analytic expectation{}",
            if sample { " or exceeded the sampling error limit" } else { "" }
        );
        ExitCode::FAILURE
    }
}

/// The `repro phases` tool: build (or recall from the trace cache) every
/// requested benchmark's SimPoint phase plan and print the plan tables.
/// `repro bench`: the perf-smoke harness. Replays the fixed seeded
/// synthetic trace through every predictor family's batched dense hot
/// path and prints records/second JSON (the `BENCH_*.json` shape) on
/// stdout. With `--check FILE` it replays at the baseline's record count
/// (so `--records` is a usage error there) and renders a
/// baseline-vs-current table on stderr, failing when a family's hits
/// differ from the baseline's or its time crosses the generous
/// regression tripwire (timing noise is expected; a 3x slowdown is not).
fn run_bench_tool(commands: &[String], scale_div: u32) -> ExitCode {
    let usage = "usage: repro bench [--quick] [--records N | --check FILE] [--passes N]";
    let mut records: Option<usize> = None;
    let mut passes = dvp_experiments::bench::BENCH_PASSES;
    let mut check: Option<PathBuf> = None;
    let mut skip = false;
    for (i, arg) in commands.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--records" => {
                let Some(n) = parse_count(commands, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                records = Some(n);
                skip = true;
            }
            "--passes" => {
                let Some(n) = parse_count(commands, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                passes = n;
                skip = true;
            }
            "--check" => {
                let Some(path) = commands.get(i + 1) else {
                    eprintln!("--check expects a baseline JSON path\n{usage}");
                    return ExitCode::FAILURE;
                };
                check = Some(PathBuf::from(path));
                skip = true;
            }
            other => {
                eprintln!("unknown bench argument `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let baseline = match &check {
        None => None,
        Some(_) if records.is_some() => {
            eprintln!("--check replays at the baseline's record count; drop --records\n{usage}");
            return ExitCode::FAILURE;
        }
        Some(path) => {
            let text = match fs::read_to_string(path) {
                Ok(text) => text,
                Err(err) => {
                    eprintln!("cannot read baseline {}: {err}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            let Some(baseline) = dvp_experiments::bench::parse_baseline(&text) else {
                eprintln!("baseline {} holds no record count or no results", path.display());
                return ExitCode::FAILURE;
            };
            Some(baseline)
        }
    };
    let records = match &baseline {
        Some(baseline) => baseline.records,
        None => records.unwrap_or(dvp_experiments::bench::BENCH_RECORDS / scale_div as usize),
    };
    eprintln!("[repro] bench: {records} records x {passes} passes per family...");
    let results = dvp_experiments::bench::run(records, passes);
    print!("{}", dvp_experiments::bench::to_json(records, &results));
    if let Some(baseline) = baseline {
        let (report, failed) = dvp_experiments::bench::check(records, &results, &baseline);
        eprintln!("{report}");
        if failed {
            eprintln!(
                "[repro] bench: the check failed (hits differ from the baseline, or a family \
                 regressed past {}x)",
                dvp_experiments::bench::REGRESSION_FACTOR
            );
            return ExitCode::FAILURE;
        }
        eprintln!("[repro] bench: hits match the baseline; all families within the budget");
    }
    ExitCode::SUCCESS
}

/// The plans are a pure sequential function of each trace, so the output
/// is byte-identical at any `--workers`/`--shards`/`--chunk-window`
/// setting.
fn run_phases_tool(commands: &[String], trace_dir: Option<PathBuf>, scale_div: u32) -> ExitCode {
    let usage = "usage: repro phases [BENCHMARK...] [--quick] [--trace-dir DIR]";
    let mut benchmarks: Vec<Benchmark> = Vec::new();
    for arg in commands {
        match Benchmark::ALL.iter().find(|b| b.name() == arg.as_str()) {
            Some(&benchmark) => {
                if !benchmarks.contains(&benchmark) {
                    benchmarks.push(benchmark);
                }
            }
            None => {
                let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                eprintln!(
                    "unknown phases benchmark `{arg}` (expected one of: {})\n{usage}",
                    names.join(", ")
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if benchmarks.is_empty() {
        benchmarks.extend(Benchmark::ALL);
    }
    let mut store = TraceStore::with_scale_div(scale_div);
    if let Some(dir) = &trace_dir {
        store = store.with_trace_dir(dir);
    }
    eprintln!("[repro] planning phases for {} workload(s)...", benchmarks.len());
    match phases::report(&mut store, &benchmarks) {
        Ok(report) => {
            println!("{}", report.render());
            if store.cache().is_some() {
                eprintln!("[repro] trace cache: {}", store.cache_stats());
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("workload generation failed: {err:?}");
            ExitCode::FAILURE
        }
    }
}

/// `repro trace gen`: write a synthetic trace container of a requested
/// size — the generator behind the CI bounded-memory replay check, and a
/// quick way to make large inputs for `repro trace replay`.
fn run_trace_gen(args: &[String], usage: &str) -> ExitCode {
    let mut records: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut seed = 1u64;
    let mut pcs = 64usize;
    let mut chunk_records = dvp_engine::DEFAULT_CHUNK_LEN;
    let mut skip = false;
    for (i, arg) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--records" => {
                let Some(n) = parse_count(args, i + 1, arg) else { return ExitCode::FAILURE };
                records = Some(n);
                skip = true;
            }
            "--pcs" => {
                let Some(n) = parse_count(args, i + 1, arg) else { return ExitCode::FAILURE };
                pcs = n;
                skip = true;
            }
            "--chunk-records" => {
                let Some(n) = parse_count(args, i + 1, arg) else { return ExitCode::FAILURE };
                chunk_records = n;
                skip = true;
            }
            "--seed" => {
                let Some(value) = args.get(i + 1).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("--seed expects an unsigned integer");
                    return ExitCode::FAILURE;
                };
                seed = value;
                skip = true;
            }
            "--out" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--out expects a file path");
                    return ExitCode::FAILURE;
                };
                out = Some(PathBuf::from(path));
                skip = true;
            }
            other => {
                eprintln!("unknown trace gen argument `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(cap), Some(out)) = (records, out) else {
        eprintln!("repro trace gen requires --records N and --out FILE\n{usage}");
        return ExitCode::FAILURE;
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
    // The records are resident anyway, so embed the phase plan too:
    // `repro trace replay --sample` then needs no profiling pass.
    let plan = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
    let sections = [
        (v2::SECTION_INTERNER, v2::encode_interner(trace.interner())),
        (v2::SECTION_PHASES, v2::encode_phases(&plan)),
    ];
    let result = durable::replace_file(&out, |writer| {
        v2::write_compressed(writer, &meta, trace.chunks().iter().map(Vec::as_slice), &sections)
    });
    match result {
        Ok(header) => {
            eprintln!(
                "[repro] wrote {} records in {} chunks to {}",
                header.record_count,
                header.chunks.len(),
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("cannot write {}: {err}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// `repro trace replay`: replay one container through the paper's
/// predictor bank — streaming through the bounded chunk window by default
/// (fixed resident memory, whatever the file size), or fully resident with
/// `--resident`. Both paths print byte-identical tallies.
fn run_trace_replay(args: &[String], engine: &ReplayEngine, usage: &str, sample: bool) -> ExitCode {
    let mut file: Option<PathBuf> = None;
    let mut resident = false;
    let mut sample = sample;
    let mut warm = false;
    for arg in args {
        match arg.as_str() {
            "--resident" => resident = true,
            "--sample" => sample = true,
            "--warm" => {
                sample = true;
                warm = true;
            }
            other if !other.starts_with('-') && file.is_none() => file = Some(PathBuf::from(other)),
            other => {
                eprintln!("unknown trace replay argument `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = file else {
        eprintln!("repro trace replay requires a container file\n{usage}");
        return ExitCode::FAILURE;
    };
    let bank = PredictorConfig::paper_bank();
    if sample {
        return run_trace_replay_sampled(&path, resident, warm, engine, &bank);
    }
    let outcome = if resident {
        fs::read(&path).map_err(dvp_trace::io::TraceIoError::from).and_then(|bytes| {
            engine.load_trace(&bytes).map(|(header, trace)| (header, engine.replay(&trace, &bank)))
        })
    } else {
        fs::File::open(&path)
            .map_err(dvp_trace::io::TraceIoError::from)
            .and_then(|file| engine.replay_streaming(io::BufReader::new(file), &bank))
    };
    let (header, replays) = match outcome {
        Ok(result) => result,
        Err(err) => {
            eprintln!("cannot replay {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // Exact integer tallies only: the output must be byte-identical
    // between the streaming and resident paths at any engine setting.
    println!("replayed {} records in {} chunks", header.record_count, header.chunks.len());
    let mut table = TextTable::new(vec!["Config", "Predicted", "Correct"]);
    for replay in &replays {
        table.row(vec![
            replay.name.clone(),
            replay.tracker.predicted(None).to_string(),
            replay.tracker.correct(None).to_string(),
        ]);
    }
    println!("{}", table.render());
    ExitCode::SUCCESS
}

/// `repro trace replay --sample`: replay only the container's stored
/// phase plan (the `PHAS` section written by `repro trace gen` and the
/// trace cache). Streaming by default — chunks no phase touches are
/// never even decoded — or resident with `--resident`. With `--warm` the
/// replay functionally warms instead: every record is observed to keep
/// predictor state exact (every chunk decodes), but still only the
/// plan's windows are tallied — slower than cold sampling, but the
/// weighted estimate matches the full replay to within the clustering's
/// weighting error even for history-hungry predictors. The per-phase
/// tallies (and therefore every printed number) are byte-identical
/// between the streaming and resident paths at any engine setting.
fn run_trace_replay_sampled(
    path: &std::path::Path,
    resident: bool,
    warm: bool,
    engine: &ReplayEngine,
    bank: &[PredictorConfig],
) -> ExitCode {
    let plan = match TraceCache::read_phase_plan(path) {
        Ok(Some(plan)) => plan,
        Ok(None) => {
            eprintln!(
                "cannot sample {}: the container carries no phase plan (PHAS section); \
                 regenerate it with `repro trace gen` or replay without --sample",
                path.display()
            );
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("cannot sample {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let outcome = if resident {
        fs::read(path).map_err(dvp_trace::io::TraceIoError::from).and_then(|bytes| {
            engine.load_trace(&bytes).map(|(header, trace)| {
                let replays = if warm {
                    engine.replay_sampled_warm(&trace, bank, &plan)
                } else {
                    engine.replay_sampled(&trace, bank, &plan)
                };
                (header, replays)
            })
        })
    } else {
        fs::File::open(path).map_err(dvp_trace::io::TraceIoError::from).and_then(|file| {
            let reader = io::BufReader::new(file);
            if warm {
                engine.replay_sampled_warm_streaming(reader, bank, &plan)
            } else {
                engine.replay_sampled_streaming(reader, bank, &plan)
            }
        })
    };
    let (header, replays) = match outcome {
        Ok(result) => result,
        Err(err) => {
            eprintln!("cannot replay {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "sampled {} of {} records across {} phases{}",
        if warm { plan.simulated_records() } else { plan.replayed_records() },
        header.record_count,
        plan.phases.len(),
        if warm { " (functional warming)" } else { "" }
    );
    // Simulated/Correct are exact integer tallies over the representative
    // windows; Weighted% is the plan-weighted full-trace estimate.
    let mut table = TextTable::new(vec!["Config", "Simulated", "Correct", "Weighted%"]);
    for replay in &replays {
        let correct: u64 = replay.phases.iter().map(|t| t.correct(None)).sum();
        table.row(vec![
            replay.name.clone(),
            replay.simulated().to_string(),
            correct.to_string(),
            format!("{:.2}", replay.weighted_accuracy(&plan, None) * 100.0),
        ]);
    }
    println!("{}", table.render());
    ExitCode::SUCCESS
}

/// The `repro trace <export|stats|verify|gen|replay>` tool.
fn run_trace_tool(
    commands: &[String],
    trace_dir: Option<PathBuf>,
    scale_div: u32,
    engine: &ReplayEngine,
    sample: bool,
) -> ExitCode {
    let usage =
        "usage: repro trace <export|stats|verify> --trace-dir DIR [--quick] [--workers N]\n\
                 \x20      repro trace gen --records N --out FILE [--pcs N] [--seed S] \
                 [--chunk-records N]\n\
                 \x20      repro trace replay FILE [--resident] [--sample] [--warm] [--workers N] \
                 [--shards N] [--chunk-window N]";
    match commands.first().map(String::as_str) {
        Some("gen") => return run_trace_gen(&commands[1..], usage),
        Some("replay") => return run_trace_replay(&commands[1..], engine, usage, sample),
        _ => {}
    }
    let Some(dir) = trace_dir else {
        eprintln!("repro trace requires --trace-dir\n{usage}");
        return ExitCode::FAILURE;
    };
    let [command] = commands else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    match command.as_str() {
        "export" => {
            let mut store = TraceStore::with_scale_div(scale_div).with_trace_dir(&dir);
            eprintln!(
                "[repro] exporting all benchmark traces to {} ({} workers)...",
                dir.display(),
                engine.workers()
            );
            if let Err(err) = store.prefetch(engine, &Benchmark::ALL) {
                eprintln!("workload generation failed: {err:?}");
                return ExitCode::FAILURE;
            }
            // Also persist the sensitivity studies' variant traces (Table
            // 6 inputs, Table 7 optimization levels) so a later
            // `repro all` against this directory simulates nothing.
            let variants = sensitivity::variant_jobs(&store)
                .and_then(|jobs| store.variant_traces(engine, jobs));
            if let Err(err) = variants {
                eprintln!("variant workload generation failed: {err:?}");
                return ExitCode::FAILURE;
            }
            eprintln!("[repro] trace cache: {}", store.cache_stats());
            print_cache_stats(store.cache().expect("configured above"))
        }
        "stats" => print_cache_stats(&TraceCache::new(dir)),
        "verify" => verify_cache(&TraceCache::new(dir), engine),
        other => {
            eprintln!("unknown trace command `{other}`\n{usage}");
            ExitCode::FAILURE
        }
    }
}

/// `repro serve`: run the replay daemon until a client requests shutdown.
/// With `--router a,b,...` it runs the consistent-hash front door instead
/// (no jobs execute locally); each of its workers is a plain daemon.
fn run_serve_tool(args: &[String], trace_dir: Option<PathBuf>, engine: &ReplayEngine) -> ExitCode {
    let usage = "usage: repro serve [--listen ADDR] [--queue N] [--inflight N] \
                 [--job-workers N] [--results N] [--result-dir DIR]\n\
                 \x20      repro serve --router ADDR,ADDR... [--listen ADDR] [--retries N]";
    let mut options = ServeOptions { trace_dir, ..ServeOptions::default() };
    let mut router_backends: Option<Vec<String>> = None;
    let mut retries: Option<u32> = None;
    // Worker-tier flags make no sense on a router (it executes nothing);
    // remember which ones appeared so the conflict error can name them.
    let mut worker_flags: Vec<&str> = Vec::new();
    let mut skip = false;
    for (i, arg) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--listen" => {
                let Some(addr) = args.get(i + 1) else {
                    eprintln!("--listen expects an address\n{usage}");
                    return ExitCode::FAILURE;
                };
                options.listen = addr.clone();
                skip = true;
            }
            "--router" => {
                let Some(list) = args.get(i + 1) else {
                    eprintln!("--router expects a comma-separated backend list\n{usage}");
                    return ExitCode::FAILURE;
                };
                let backends: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|b| !b.is_empty())
                    .map(String::from)
                    .collect();
                if backends.is_empty() {
                    eprintln!("--router expects at least one backend address\n{usage}");
                    return ExitCode::FAILURE;
                }
                router_backends = Some(backends);
                skip = true;
            }
            "--retries" => {
                let Some(n) = parse_count(args, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                retries = Some(u32::try_from(n).unwrap_or(u32::MAX));
                skip = true;
            }
            "--queue" => {
                let Some(n) = parse_count(args, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                options.queue_capacity = n;
                worker_flags.push("--queue");
                skip = true;
            }
            "--inflight" => {
                let Some(n) = parse_count(args, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                options.inflight_cap = n;
                worker_flags.push("--inflight");
                skip = true;
            }
            "--job-workers" => {
                let Some(n) = parse_count(args, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                options.job_workers = n;
                worker_flags.push("--job-workers");
                skip = true;
            }
            "--results" => {
                let Some(n) = parse_count(args, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                options.memory_entries = n;
                worker_flags.push("--results");
                skip = true;
            }
            "--result-dir" => {
                let Some(dir) = args.get(i + 1) else {
                    eprintln!("--result-dir expects a directory path\n{usage}");
                    return ExitCode::FAILURE;
                };
                options.result_dir = Some(PathBuf::from(dir));
                worker_flags.push("--result-dir");
                skip = true;
            }
            other => {
                eprintln!("unknown serve flag `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    if options.listen.parse::<std::net::SocketAddr>().is_err() {
        eprintln!("invalid --listen address `{}`", options.listen);
        return ExitCode::FAILURE;
    }
    if let Some(backends) = router_backends {
        if let Some(flag) = worker_flags.first() {
            eprintln!("{flag} is a worker flag and does not apply to --router mode\n{usage}");
            return ExitCode::FAILURE;
        }
        for backend in &backends {
            if backend.parse::<std::net::SocketAddr>().is_err() {
                eprintln!("invalid --router backend `{backend}` (expected host:port)");
                return ExitCode::FAILURE;
            }
        }
        let router_options = RouterOptions {
            listen: options.listen.clone(),
            backends,
            connect_attempts: retries.unwrap_or(RouterOptions::default().connect_attempts),
        };
        let backend_count = router_options.backends.len();
        let router = match Router::start(router_options) {
            Ok(router) => router,
            Err(err) => {
                eprintln!("cannot bind {}: {err}", options.listen);
                return ExitCode::FAILURE;
            }
        };
        // CI and scripts poll stdout for this line to learn the port.
        println!("listening on {}", router.addr());
        let _ = io::Write::flush(&mut io::stdout());
        let stats = router.join();
        eprintln!(
            "[repro] router: {backend_count} backend(s), {} forwarded, {} backend_down",
            stats.forwarded, stats.backend_down
        );
        return ExitCode::SUCCESS;
    }
    if retries.is_some() {
        eprintln!("--retries applies only to --router mode\n{usage}");
        return ExitCode::FAILURE;
    }
    let server = match Server::start(engine.clone(), options.clone()) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("cannot bind {}: {err}", options.listen);
            return ExitCode::FAILURE;
        }
    };
    // CI and scripts poll stdout for this line to learn the ephemeral port.
    println!("listening on {}", server.addr());
    let _ = io::Write::flush(&mut io::stdout());
    let stats = server.join();
    eprintln!("[repro] result cache: {stats}");
    ExitCode::SUCCESS
}

/// `repro cache <stats|purge>`: inspect and maintain an on-disk result
/// cache without starting a daemon. `stats` classifies every entry
/// against the running binary's engine epoch; `purge --stale` deletes
/// exactly the entries this binary would refuse to serve.
fn run_cache_tool(args: &[String]) -> ExitCode {
    let usage = "usage: repro cache stats --result-dir DIR\n\
                 \x20      repro cache purge --stale --result-dir DIR";
    let mut command: Option<String> = None;
    let mut result_dir: Option<PathBuf> = None;
    let mut stale = false;
    let mut skip = false;
    for (i, arg) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--result-dir" => {
                let Some(dir) = args.get(i + 1) else {
                    eprintln!("--result-dir expects a directory path\n{usage}");
                    return ExitCode::FAILURE;
                };
                result_dir = Some(PathBuf::from(dir));
                skip = true;
            }
            "--stale" => stale = true,
            "stats" | "purge" if command.is_none() => command = Some(arg.clone()),
            other => {
                eprintln!("unknown cache argument `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(command) = command else {
        eprintln!("repro cache expects a command\n{usage}");
        return ExitCode::FAILURE;
    };
    let Some(dir) = result_dir else {
        eprintln!("repro cache requires --result-dir\n{usage}");
        return ExitCode::FAILURE;
    };
    let epoch = dvp_engine::engine_epoch();
    match command.as_str() {
        "stats" => {
            if stale {
                eprintln!("--stale applies only to `repro cache purge`\n{usage}");
                return ExitCode::FAILURE;
            }
            let entries = match result_cache::scan_entries(&dir) {
                Ok(entries) => entries,
                Err(err) => {
                    eprintln!("cannot list {}: {err}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "result cache at {}: {} entr{}, engine epoch {epoch:016x}",
                dir.display(),
                entries.len(),
                if entries.len() == 1 { "y" } else { "ies" }
            );
            let (mut current, mut stale_count, mut unreadable) = (0usize, 0usize, 0usize);
            let mut table = TextTable::new(vec!["File", "Epoch", "State", "KiB"]);
            let mut broken: Vec<String> = Vec::new();
            for entry in &entries {
                let file = entry.path.file_name().map_or_else(
                    || entry.path.display().to_string(),
                    |n| n.to_string_lossy().into_owned(),
                );
                match &entry.header {
                    Ok(header) => {
                        let state = if header.is_current(epoch) {
                            current += 1;
                            "current"
                        } else {
                            stale_count += 1;
                            "stale"
                        };
                        table.row(vec![
                            file,
                            format!("{:016x}", header.epoch),
                            state.to_owned(),
                            (entry.bytes / 1024).to_string(),
                        ]);
                    }
                    Err(err) => {
                        unreadable += 1;
                        broken.push(format!("{file}: {err}"));
                    }
                }
            }
            if !table.is_empty() {
                println!("{}", table.render());
            }
            for line in &broken {
                println!("unreadable: {line}");
            }
            println!("{current} current, {stale_count} stale, {unreadable} unreadable");
            ExitCode::SUCCESS
        }
        "purge" => {
            if !stale {
                eprintln!(
                    "repro cache purge requires --stale (only staleness-based \
                           purging is supported)\n{usage}"
                );
                return ExitCode::FAILURE;
            }
            match result_cache::purge_stale(&dir, epoch) {
                Ok(report) => {
                    println!(
                        "purged {} stale entr{}, kept {} current (engine epoch {epoch:016x})",
                        report.removed,
                        if report.removed == 1 { "y" } else { "ies" },
                        report.kept
                    );
                    ExitCode::SUCCESS
                }
                Err(err) => {
                    eprintln!("cannot purge {}: {err}", dir.display());
                    ExitCode::FAILURE
                }
            }
        }
        _ => unreachable!("command is validated above"),
    }
}

/// `repro client`: submit jobs to a running daemon and stream the frames.
fn run_client_tool(args: &[String]) -> ExitCode {
    let usage = "usage: repro client ADDR [--job JSON]... [--spec FILE]... [--batch] \
                 [--payload-only] [--ping] [--stats] [--shutdown]";
    let Some(addr) = args.first().filter(|a| !a.starts_with("--")).cloned() else {
        eprintln!("repro client expects a server address\n{usage}");
        return ExitCode::FAILURE;
    };
    let mut jobs: Vec<String> = Vec::new();
    let mut batch = false;
    let mut payload_only = false;
    let mut do_ping = false;
    let mut do_stats = false;
    let mut do_shutdown = false;
    let rest = &args[1..];
    let mut skip = false;
    for (i, arg) in rest.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--job" => {
                let Some(spec) = rest.get(i + 1) else {
                    eprintln!("--job expects a JSON job spec\n{usage}");
                    return ExitCode::FAILURE;
                };
                jobs.push(spec.clone());
                skip = true;
            }
            "--spec" => {
                let Some(path) = rest.get(i + 1) else {
                    eprintln!("--spec expects a file path\n{usage}");
                    return ExitCode::FAILURE;
                };
                match fs::read_to_string(path) {
                    Ok(text) => jobs.push(text),
                    Err(err) => {
                        eprintln!("cannot read job spec `{path}`: {err}");
                        return ExitCode::FAILURE;
                    }
                }
                skip = true;
            }
            "--batch" => batch = true,
            "--payload-only" => payload_only = true,
            "--ping" => do_ping = true,
            "--stats" => do_stats = true,
            "--shutdown" => do_shutdown = true,
            other => {
                eprintln!("unknown client flag `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Validate locally before touching the network — a bad spec is the
    // caller's mistake, not the server's — and canonicalize to the
    // one-line wire form (a spec file may be pretty-printed or end in a
    // newline, neither of which survives a line protocol).
    for job in &mut jobs {
        match JobSpec::parse(job) {
            Ok(spec) => *job = spec.to_json(),
            Err(why) => {
                eprintln!("invalid job spec: {why}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut client = match ServeClient::connect(&addr) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("cannot connect to {addr}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if do_ping {
        if let Err(err) = client.ping() {
            eprintln!("ping failed: {err}");
            return ExitCode::FAILURE;
        }
        if !payload_only {
            println!("pong");
        }
    }
    let mut worst = ExitCode::SUCCESS;
    if batch {
        // One `jobs` request, one interleaved stream; outcomes come back
        // in input order regardless of completion order.
        let outcomes = match client.submit_batch_streaming(&jobs, |frame| {
            if !payload_only {
                println!("{}", frame.raw);
            }
        }) {
            Ok(outcomes) => outcomes,
            Err(err) => {
                eprintln!("connection to {addr} failed: {err}");
                return ExitCode::FAILURE;
            }
        };
        let mut failed = false;
        for outcome in outcomes {
            match outcome {
                Outcome::Result { payload, .. } => {
                    if payload_only {
                        print!("{payload}");
                    }
                }
                Outcome::Rejected { reason } => {
                    eprintln!("job rejected: {reason}");
                    if !failed {
                        worst = ExitCode::from(2);
                    }
                }
                Outcome::BackendDown { backend, reason } => {
                    eprintln!("backend down ({backend}): {reason}");
                    if !failed {
                        worst = ExitCode::from(2);
                    }
                }
                Outcome::Error { message } => {
                    eprintln!("job failed: {message}");
                    failed = true;
                    worst = ExitCode::FAILURE;
                }
            }
        }
    } else {
        for job in &jobs {
            let outcome = client.submit_streaming(job, |frame| {
                if !payload_only {
                    println!("{}", frame.raw);
                }
            });
            match outcome {
                Ok(Outcome::Result { payload, .. }) => {
                    if payload_only {
                        print!("{payload}");
                    }
                }
                Ok(Outcome::Rejected { reason }) => {
                    eprintln!("job rejected: {reason}");
                    worst = ExitCode::from(2);
                }
                Ok(Outcome::BackendDown { backend, reason }) => {
                    eprintln!("backend down ({backend}): {reason}");
                    worst = ExitCode::from(2);
                }
                Ok(Outcome::Error { message }) => {
                    eprintln!("job failed: {message}");
                    return ExitCode::FAILURE;
                }
                Err(err) => {
                    eprintln!("connection to {addr} failed: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    if do_stats {
        match client.stats() {
            Ok(line) => println!("{line}"),
            Err(err) => {
                eprintln!("stats failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if do_shutdown {
        if let Err(err) = client.shutdown() {
            eprintln!("shutdown failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    worst
}

/// `repro job`: run one job spec inline, without a daemon. The payload is
/// byte-identical to what `repro serve` streams for the same spec.
fn run_job_tool(args: &[String], trace_dir: Option<PathBuf>, engine: &ReplayEngine) -> ExitCode {
    let usage = "usage: repro job (--json JSON | --spec FILE)";
    let mut text: Option<String> = None;
    let mut skip = false;
    for (i, arg) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--json" => {
                let Some(json) = args.get(i + 1) else {
                    eprintln!("--json expects a JSON job spec\n{usage}");
                    return ExitCode::FAILURE;
                };
                text = Some(json.clone());
                skip = true;
            }
            "--spec" => {
                let Some(path) = args.get(i + 1) else {
                    eprintln!("--spec expects a file path\n{usage}");
                    return ExitCode::FAILURE;
                };
                match fs::read_to_string(path) {
                    Ok(contents) => text = Some(contents),
                    Err(err) => {
                        eprintln!("cannot read job spec `{path}`: {err}");
                        return ExitCode::FAILURE;
                    }
                }
                skip = true;
            }
            other => {
                eprintln!("unknown job flag `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(text) = text else {
        eprintln!("repro job expects a spec\n{usage}");
        return ExitCode::FAILURE;
    };
    let spec = match JobSpec::parse(&text) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("invalid job spec: {why}");
            return ExitCode::FAILURE;
        }
    };
    match run_job(&spec, engine, trace_dir.as_deref()) {
        Ok(payload) => {
            // The payload already ends in a newline; print! keeps the
            // bytes identical to the daemon's result frame.
            print!("{payload}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("job failed: {why}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_div = 1;
    let mut engine = ReplayEngine::new();
    let mut trace_dir: Option<PathBuf> = None;
    let mut no_trace_cache = false;
    let mut sample = false;
    let mut args: Vec<String> = Vec::new();
    let mut skip = false;
    for (i, arg) in raw.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        match arg.as_str() {
            "--quick" => scale_div = 4,
            "--workers" | "-j" => {
                let Some(workers) = parse_count(&raw, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                engine = engine.with_workers(workers);
                skip = true;
            }
            "--shards" => {
                let Some(shards) = parse_count(&raw, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                engine = engine.with_shards(shards);
                skip = true;
            }
            "--chunk-window" => {
                let Some(chunks) = parse_count(&raw, i + 1, arg) else {
                    return ExitCode::FAILURE;
                };
                engine = engine.with_chunk_window(chunks);
                skip = true;
            }
            "--sample" => sample = true,
            "--trace-dir" => {
                let Some(dir) = raw.get(i + 1) else {
                    eprintln!("--trace-dir expects a directory path");
                    return ExitCode::FAILURE;
                };
                trace_dir = Some(PathBuf::from(dir));
                skip = true;
            }
            "--no-trace-cache" => no_trace_cache = true,
            _ => args.push(arg.clone()),
        }
    }
    if no_trace_cache {
        trace_dir = None;
    }
    if args.iter().any(|a| a == "--list" || a == "-l") {
        for (id, _) in EXPERIMENTS {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("trace") {
        return run_trace_tool(&args[1..], trace_dir, scale_div, &engine, sample);
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep_tool(&args[1..], trace_dir, scale_div > 1, &engine, sample);
    }
    if args.first().map(String::as_str) == Some("phases") {
        return run_phases_tool(&args[1..], trace_dir, scale_div);
    }
    if args.first().map(String::as_str) == Some("bench") {
        return run_bench_tool(&args[1..], scale_div);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve_tool(&args[1..], trace_dir, &engine);
    }
    if args.first().map(String::as_str) == Some("client") {
        return run_client_tool(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("cache") {
        return run_cache_tool(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("job") {
        return run_job_tool(&args[1..], trace_dir, &engine);
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: repro [--quick] [--sample] [--workers N] [--shards N] [--trace-dir DIR] \
             [--no-trace-cache] [--chunk-window N]\n             \
             all | <experiment>...\n       \
             repro sweep [--sample] [--format table|csv|json]\n       \
             repro phases [BENCHMARK...]\n       \
             repro bench [--records N | --check FILE] [--passes N]\n       \
             repro trace <export|stats|verify> --trace-dir DIR\n       \
             repro trace gen --records N --out FILE [--pcs N] [--seed S]\n       \
             repro trace replay FILE [--resident] [--sample] [--warm]\n       \
             repro serve [--listen ADDR] [--queue N] [--inflight N] \
             [--job-workers N] [--results N] [--result-dir DIR]\n       \
             repro serve --router ADDR,ADDR... [--listen ADDR] [--retries N]\n       \
             repro client ADDR [--job JSON]... [--spec FILE]... [--batch] \
             [--payload-only] [--ping] [--stats] [--shutdown]\n       \
             repro job (--json JSON | --spec FILE)\n       \
             repro cache <stats|purge --stale> --result-dir DIR\n       \
             repro --list\n\n\
             Regenerates the tables and figures of Sazeides & Smith (MICRO-30 1997)\n\
             through the parallel replay engine (default: all cores; output is\n\
             byte-identical at any worker count). With --trace-dir, workload traces\n\
             persist across runs as version-4 containers (a file of any other\n\
             version is regenerated) and warm runs perform zero simulation.\n\
             `repro sweep` replays the synthetic scenario x predictor matrix\n\
             instead; `repro phases` prints each workload's SimPoint phase plan;\n\
             --sample checks phase-sampled replay against the full replay (and\n\
             fails the run past a 1pp error). `repro trace replay` streams a container through a\n\
             bounded chunk window (--chunk-window) without ever holding the full\n\
             trace in memory (--sample replays only its stored phase plan;\n\
             --warm functionally warms: exact state, windows tallied). `repro\n\
             serve` runs a replay daemon (newline-delimited JSON over TCP) with\n\
             an epoch-versioned, fingerprint-keyed result cache; with --router\n\
             it forwards each job to the worker owning its key instead (rendez-\n\
             vous hashing; relayed payloads are byte-identical). `repro client`\n\
             submits jobs (--batch sends them as one request); `repro job` runs\n\
             one job inline with byte-identical output; `repro cache` inspects\n\
             and purges a result directory against this binary's engine epoch."
        );
        return ExitCode::FAILURE;
    }

    let ids: Vec<String> = if args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|(id, _)| (*id).to_owned()).collect()
    } else {
        args
    };

    let mut store = TraceStore::with_scale_div(scale_div);
    if let Some(dir) = &trace_dir {
        store = store.with_trace_dir(dir);
    }
    let mut harness = Harness { store, engine, accuracy: None, overlap: None };
    // Experiments that replay every benchmark's trace share the store's
    // cache: generate all traces up front, in parallel, before the first
    // table. (Experiments left out generate what they need themselves.)
    if ids
        .iter()
        .any(|id| EXPERIMENTS.iter().any(|&(name, needs_traces)| needs_traces && name == id))
    {
        eprintln!("[repro] prefetching benchmark traces ({} workers)...", harness.engine.workers());
        if let Err(err) = harness.store.prefetch(&harness.engine, &Benchmark::ALL) {
            eprintln!("workload generation failed: {err:?}");
            return ExitCode::FAILURE;
        }
    }
    for id in &ids {
        match harness.run(id) {
            Some(text) => {
                println!("{text}");
            }
            None => {
                let ids: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                eprintln!("unknown target `{id}`");
                eprintln!("valid targets: all, sweep, phases, trace, {}", ids.join(", "));
                return ExitCode::FAILURE;
            }
        }
    }
    // `--sample` appends the phase-sampling error harness after the normal
    // experiment output (so existing goldens never change) and turns an
    // over-limit sampling error into a failed run.
    let mut sample_ok = true;
    if sample {
        eprintln!("[repro] validating phase-sampled replay against the full replay...");
        match phases::validate(&mut harness.store, &harness.engine, &PredictorConfig::paper_bank())
        {
            Ok(validation) => {
                println!("{}", validation.render());
                sample_ok = validation.all_within_limit();
            }
            Err(err) => {
                eprintln!("workload generation failed: {err:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if harness.store.cache().is_some() {
        // Stats go to stderr: stdout must stay byte-identical between cold
        // and warm runs. A fully warm run reports `0 simulated`.
        eprintln!("[repro] trace cache: {}", harness.store.cache_stats());
    }
    if sample_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("[repro] --sample: a sampled accuracy estimate exceeded the error limit");
        ExitCode::FAILURE
    }
}
