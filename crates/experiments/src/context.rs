//! Shared experiment context: workload traces generated once, cached in
//! memory, and optionally persisted to a disk tier.

use crate::cache::{CacheLookup, CacheStats, TraceCache};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_trace::io::v2::{Fingerprint, TraceMeta};
use dvp_trace::PhasePlan;
use dvp_workloads::synthetic::Scenario;
use dvp_workloads::{Benchmark, BuildError, Workload};
use std::collections::HashMap;
use std::path::PathBuf;

/// The optimization level every cross-benchmark experiment uses.
///
/// `O1` is the closest analog of the paper's `-O3` binaries for this
/// toolchain: its instruction mix (Table 5 comparison) matches the paper
/// best — `O0` stores every local to memory (loads dominate unrealistically)
/// and `O2`'s register promotion suppresses loads below the paper's range.
/// Table 7 sweeps all levels explicitly.
pub const REFERENCE_OPT: OptLevel = OptLevel::O1;

/// Step budget for any single workload run.
pub const STEP_BUDGET: u64 = 2_000_000_000;

/// Simulates one workload at `opt` into a [`SharedTrace`], returning
/// `(trace, retired, predicted)`. The trace respects `record_cap`;
/// `retired` and `predicted` always count the full run.
fn generate(
    workload: &Workload,
    opt: OptLevel,
    record_cap: Option<usize>,
) -> Result<(SharedTrace, u64, u64), BuildError> {
    let mut machine = workload.machine(opt)?;
    let mut builder = SharedTrace::builder();
    let mut predicted = 0u64;
    let cap = record_cap.unwrap_or(usize::MAX);
    machine.run_with(STEP_BUDGET, &mut |rec| {
        predicted += 1;
        if builder.len() < cap {
            builder.push(rec);
        }
    })?;
    Ok((builder.finish(), machine.retired(), predicted))
}

/// Generates one synthetic scenario into a [`SharedTrace`] (through the
/// same builder/interner path as simulation), returning `(trace, emitted)`
/// where `emitted` counts the full stream — always exactly
/// [`Scenario::total_records`], since generation is unconditional; the
/// record cap only truncates what is stored.
fn generate_synthetic(scenario: &Scenario, record_cap: Option<usize>) -> (SharedTrace, u64) {
    let mut builder = SharedTrace::builder();
    let cap = record_cap.unwrap_or(usize::MAX);
    scenario.generate_with(&mut |rec| {
        if builder.len() < cap {
            builder.push(rec);
        }
    });
    (builder.finish(), scenario.total_records())
}

/// Lazily generates and caches the value trace of each benchmark so that a
/// `repro all` run simulates every workload **at most** once — and, with a
/// trace directory configured, at most once *ever* per configuration.
///
/// Traces are held as [`SharedTrace`]s: handing one to an experiment (or to
/// every job of a parallel replay) clones an [`Arc`](std::sync::Arc), never
/// the records. [`TraceStore::prefetch`] generates several benchmarks'
/// traces concurrently on a [`ReplayEngine`]'s worker pool; generation is
/// deterministic per benchmark, so a prefetched store is indistinguishable
/// from a lazily-filled one.
///
/// # The disk tier
///
/// [`TraceStore::with_trace_dir`] adds a persistent [`TraceCache`] below
/// the in-memory map. Every miss consults the directory first (validating
/// checksums and the workload [fingerprint](dvp_trace::io::v2::Fingerprint)
/// before trusting a file) and writes freshly simulated traces through, so
/// the *next* process starts warm. Traces loaded from disk are
/// byte-identical to freshly simulated ones — `tests/trace_cache.rs` pins
/// this on real workloads — and [`TraceStore::cache_stats`] reports how
/// many simulations the run actually performed.
///
/// # Examples
///
/// ```
/// use dvp_experiments::TraceStore;
/// use dvp_workloads::Benchmark;
///
/// let mut store = TraceStore::with_scale_div(50);
/// let trace = store.trace(Benchmark::M88k)?;
/// assert!(!trace.is_empty());
/// assert_eq!(store.cache_stats().simulated, 1);
/// # Ok::<(), dvp_workloads::BuildError>(())
/// ```
#[derive(Debug)]
pub struct TraceStore {
    traces: HashMap<Benchmark, SharedTrace>,
    retired: HashMap<Benchmark, u64>,
    predicted: HashMap<Benchmark, u64>,
    phase_plans: HashMap<Benchmark, PhasePlan>,
    scale_div: u32,
    record_cap: Option<usize>,
    cache: Option<TraceCache>,
    stats: CacheStats,
}

impl Default for TraceStore {
    /// Equivalent to [`TraceStore::new`] (a derived default would set
    /// `scale_div` to 0 and divide by zero on first use).
    fn default() -> Self {
        TraceStore {
            traces: HashMap::new(),
            retired: HashMap::new(),
            predicted: HashMap::new(),
            phase_plans: HashMap::new(),
            scale_div: 1,
            record_cap: None,
            cache: None,
            stats: CacheStats::default(),
        }
    }
}

impl TraceStore {
    /// A store using each benchmark's default scale.
    #[must_use]
    pub fn new() -> Self {
        TraceStore::default()
    }

    /// A store whose workloads run at `default_scale / div` (min 1) — used
    /// by tests and quick runs.
    #[must_use]
    pub fn with_scale_div(div: u32) -> Self {
        TraceStore { scale_div: div.max(1), ..TraceStore::default() }
    }

    /// Additionally truncates every cached trace to at most `cap` records
    /// (trace *generation* is cheap; predictor passes are not). Used by the
    /// test suite.
    #[must_use]
    pub fn with_record_cap(mut self, cap: usize) -> Self {
        self.record_cap = Some(cap);
        self
    }

    /// Adds the persistent disk tier rooted at `dir`: misses are looked up
    /// there before simulating, and simulated traces are written through.
    #[must_use]
    pub fn with_trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(TraceCache::new(dir));
        self
    }

    /// The disk tier, if one is configured.
    #[must_use]
    pub fn cache(&self) -> Option<&TraceCache> {
        self.cache.as_ref()
    }

    /// What this store has done so far across both tiers. A run that only
    /// hit the disk tier shows `simulated == 0`.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// The workload configuration this store runs for `benchmark`.
    #[must_use]
    pub fn workload(&self, benchmark: Benchmark) -> Workload {
        let scale = (benchmark.default_scale() / self.scale_div).max(1);
        Workload::reference(benchmark).with_scale(scale)
    }

    /// Looks one workload configuration up in the disk tier (if any).
    fn disk_lookup(
        &mut self,
        engine: &ReplayEngine,
        workload: &Workload,
        opt: OptLevel,
    ) -> Option<(TraceMeta, SharedTrace)> {
        let fingerprint = TraceCache::fingerprint(workload, opt, self.record_cap);
        self.disk_lookup_fingerprint(engine, &fingerprint)
    }

    /// Looks one fingerprint up in the disk tier (if any), recording stats
    /// and reporting rejected candidates on stderr.
    fn disk_lookup_fingerprint(
        &mut self,
        engine: &ReplayEngine,
        fingerprint: &Fingerprint,
    ) -> Option<(TraceMeta, SharedTrace)> {
        match self.cache.as_ref()?.lookup(engine, fingerprint) {
            CacheLookup::Hit(meta, trace) => {
                self.stats.disk_hits += 1;
                Some((meta, trace))
            }
            CacheLookup::Miss => None,
            CacheLookup::Invalid(why) => {
                self.stats.invalid += 1;
                eprintln!("[trace-cache] rejected {why}; regenerating");
                None
            }
        }
    }

    /// Writes a freshly simulated trace through to the disk tier (if any);
    /// write failures are warnings, never run failures.
    fn write_through(
        &mut self,
        workload: &Workload,
        opt: OptLevel,
        retired: u64,
        predicted: u64,
        trace: &SharedTrace,
    ) {
        let meta = TraceMeta {
            fingerprint: TraceCache::fingerprint(workload, opt, self.record_cap),
            retired,
            predicted,
        };
        self.write_through_meta(&meta, trace);
    }

    /// Fingerprint-generic write-through (synthetic traces share it).
    fn write_through_meta(&mut self, meta: &TraceMeta, trace: &SharedTrace) {
        let Some(cache) = &self.cache else { return };
        match cache.write_through(meta, trace) {
            Ok(_) => self.stats.written += 1,
            Err(err) => eprintln!(
                "[trace-cache] write-through failed for {}: {err}",
                meta.fingerprint.workload
            ),
        }
    }

    /// Loads `benchmark`'s trace from the disk tier or simulates it (with
    /// write-through), without touching the in-memory map.
    fn acquire(
        &mut self,
        engine: &ReplayEngine,
        benchmark: Benchmark,
    ) -> Result<(SharedTrace, u64, u64), BuildError> {
        let workload = self.workload(benchmark);
        if let Some((meta, trace)) = self.disk_lookup(engine, &workload, REFERENCE_OPT) {
            return Ok((trace, meta.retired, meta.predicted));
        }
        let (trace, retired, predicted) = generate(&workload, REFERENCE_OPT, self.record_cap)?;
        self.stats.simulated += 1;
        self.write_through(&workload, REFERENCE_OPT, retired, predicted, &trace);
        Ok((trace, retired, predicted))
    }

    /// The cached trace for `benchmark`, generating it on first use. The
    /// returned [`SharedTrace`] is a cheap clone of the cached buffer.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors.
    pub fn trace(&mut self, benchmark: Benchmark) -> Result<SharedTrace, BuildError> {
        if !self.traces.contains_key(&benchmark) {
            // The lazy path has no caller-provided engine; decode inline.
            let engine = ReplayEngine::sequential();
            let (trace, retired, predicted) = self.acquire(&engine, benchmark)?;
            self.retired.insert(benchmark, retired);
            self.predicted.insert(benchmark, predicted);
            self.traces.insert(benchmark, trace);
        }
        Ok(self.traces[&benchmark].clone())
    }

    /// Fills every not-yet-cached trace among `benchmarks` in parallel on
    /// `engine`'s worker pool: disk hits are decoded chunk-for-chunk
    /// through the pool, the rest are simulated concurrently (and written
    /// through when a trace directory is configured). Already-cached
    /// benchmarks are untouched; duplicates are filled once.
    ///
    /// # Errors
    ///
    /// Propagates the first (in benchmark order) workload build/run error;
    /// traces that generated successfully are discarded in that case.
    pub fn prefetch(
        &mut self,
        engine: &ReplayEngine,
        benchmarks: &[Benchmark],
    ) -> Result<(), BuildError> {
        let mut missing: Vec<Benchmark> = Vec::new();
        for &benchmark in benchmarks {
            if !self.traces.contains_key(&benchmark) && !missing.contains(&benchmark) {
                missing.push(benchmark);
            }
        }
        // Disk tier first: each hit streams through the worker pool.
        let mut to_simulate: Vec<Benchmark> = Vec::new();
        for benchmark in missing {
            let workload = self.workload(benchmark);
            match self.disk_lookup(engine, &workload, REFERENCE_OPT) {
                Some((meta, trace)) => {
                    self.retired.insert(benchmark, meta.retired);
                    self.predicted.insert(benchmark, meta.predicted);
                    self.traces.insert(benchmark, trace);
                }
                None => to_simulate.push(benchmark),
            }
        }
        let record_cap = self.record_cap;
        let jobs: Vec<(Benchmark, Workload)> =
            to_simulate.into_iter().map(|b| (b, self.workload(b))).collect();
        let generated = engine.try_map(jobs, |(benchmark, workload)| {
            generate(&workload, REFERENCE_OPT, record_cap).map(|result| (benchmark, result))
        })?;
        for (benchmark, (trace, retired, predicted)) in generated {
            self.stats.simulated += 1;
            let workload = self.workload(benchmark);
            self.write_through(&workload, REFERENCE_OPT, retired, predicted, &trace);
            self.retired.insert(benchmark, retired);
            self.predicted.insert(benchmark, predicted);
            self.traces.insert(benchmark, trace);
        }
        Ok(())
    }

    /// Loads or generates arbitrary `(workload, opt)` variant traces —
    /// e.g. the sensitivity studies' alternate inputs and optimization
    /// levels — returning for each job, in input order, the (possibly
    /// record-capped) trace and the full run's predicted-instruction
    /// count. A job whose fingerprint matches a benchmark trace already in
    /// memory (Table 6's reference input, Table 7's reference level) is
    /// served from it; the rest go through the disk tier. Misses simulate
    /// in parallel on `engine` and are written through; variants are not
    /// added to the in-memory benchmark map (each experiment runs once per
    /// process — persistence is what pays).
    ///
    /// # Errors
    ///
    /// Propagates the first (in input order) workload build/run error.
    pub fn variant_traces(
        &mut self,
        engine: &ReplayEngine,
        jobs: Vec<(Workload, OptLevel)>,
    ) -> Result<Vec<(SharedTrace, u64)>, BuildError> {
        let mut out: Vec<Option<(SharedTrace, u64)>> = vec![None; jobs.len()];
        let mut to_simulate: Vec<(usize, Workload, OptLevel)> = Vec::new();
        for (index, (workload, opt)) in jobs.into_iter().enumerate() {
            let fingerprint = TraceCache::fingerprint(&workload, opt, self.record_cap);
            let memo = self.traces.iter().find(|(&benchmark, _)| {
                TraceCache::fingerprint(&self.workload(benchmark), REFERENCE_OPT, self.record_cap)
                    == fingerprint
            });
            if let Some((benchmark, trace)) = memo {
                out[index] = Some((trace.clone(), self.predicted[benchmark]));
                continue;
            }
            match self.disk_lookup_fingerprint(engine, &fingerprint) {
                Some((meta, trace)) => out[index] = Some((trace, meta.predicted)),
                None => to_simulate.push((index, workload, opt)),
            }
        }
        let record_cap = self.record_cap;
        let generated = engine.try_map(to_simulate, |(index, workload, opt)| {
            generate(&workload, opt, record_cap).map(|result| (index, workload, opt, result))
        })?;
        for (index, workload, opt, (trace, retired, predicted)) in generated {
            self.stats.simulated += 1;
            self.write_through(&workload, opt, retired, predicted, &trace);
            out[index] = Some((trace, predicted));
        }
        Ok(out.into_iter().map(|slot| slot.expect("every job filled")).collect())
    }

    /// Loads or generates the traces of synthetic [`Scenario`]s through
    /// the disk tier, returning one [`SharedTrace`] per scenario, in input
    /// order. Exactly like [`TraceStore::variant_traces`], misses are
    /// produced in parallel on `engine` and written through (fingerprinted
    /// by [`Scenario::fingerprint`]), so a warm `repro sweep --trace-dir`
    /// run generates nothing; scenarios are not held in the in-memory
    /// benchmark map. Generated scenarios count as `simulated` in
    /// [`CacheStats`].
    ///
    /// Generation is infallible (no compiler or simulator is involved) and
    /// honours the store's record cap — the cap truncates the stored trace
    /// without changing what the full scenario would emit.
    pub fn synthetic_traces(
        &mut self,
        engine: &ReplayEngine,
        scenarios: &[Scenario],
    ) -> Vec<SharedTrace> {
        let mut out: Vec<Option<SharedTrace>> = vec![None; scenarios.len()];
        let mut to_generate: Vec<(usize, Scenario)> = Vec::new();
        for (index, scenario) in scenarios.iter().enumerate() {
            let fingerprint = scenario.fingerprint(self.record_cap);
            match self.disk_lookup_fingerprint(engine, &fingerprint) {
                Some((_, trace)) => out[index] = Some(trace),
                None => to_generate.push((index, *scenario)),
            }
        }
        let record_cap = self.record_cap;
        let generated = engine.map(to_generate, |(index, scenario)| {
            (index, scenario, generate_synthetic(&scenario, record_cap))
        });
        for (index, scenario, (trace, emitted)) in generated {
            self.stats.simulated += 1;
            let meta = TraceMeta {
                fingerprint: scenario.fingerprint(record_cap),
                retired: emitted,
                predicted: emitted,
            };
            self.write_through_meta(&meta, &trace);
            out[index] = Some(trace);
        }
        out.into_iter().map(|slot| slot.expect("every scenario filled")).collect()
    }

    /// The SimPoint phase plan for `benchmark`'s trace (default
    /// [`dvp_engine::PhaseOptions`]), computed once per store. The plan is
    /// a pure function of the trace, so recomputing here always agrees
    /// with the copy a container's `PHAS` section persists — there is no
    /// staleness to manage.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors (the trace is generated if
    /// needed).
    pub fn phase_plan(&mut self, benchmark: Benchmark) -> Result<PhasePlan, BuildError> {
        if !self.phase_plans.contains_key(&benchmark) {
            let trace = self.trace(benchmark)?;
            let plan = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
            self.phase_plans.insert(benchmark, plan);
        }
        Ok(self.phase_plans[&benchmark].clone())
    }

    /// Total dynamic (retired) instructions for `benchmark`'s run,
    /// available after [`TraceStore::trace`] has been called for it.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors (the trace is generated if
    /// needed).
    pub fn retired(&mut self, benchmark: Benchmark) -> Result<u64, BuildError> {
        self.trace(benchmark)?;
        Ok(self.retired[&benchmark])
    }

    /// The configured record cap, if any (consumers generating their own
    /// traces — e.g. Tables 6/7 — honour it too).
    #[must_use]
    pub fn record_cap(&self) -> Option<usize> {
        self.record_cap
    }

    /// Total predicted (register-writing) instructions in the full run —
    /// unaffected by any record cap.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors.
    pub fn predicted(&mut self, benchmark: Benchmark) -> Result<u64, BuildError> {
        self.trace(benchmark)?;
        Ok(self.predicted[&benchmark])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_matches_lazy_generation() {
        let benchmarks = [Benchmark::M88k, Benchmark::Compress];
        let mut lazy = TraceStore::with_scale_div(1000).with_record_cap(5_000);
        let mut eager = TraceStore::with_scale_div(1000).with_record_cap(5_000);
        eager
            .prefetch(&ReplayEngine::new().with_workers(2), &benchmarks)
            .expect("prefetch succeeds");
        for benchmark in benchmarks {
            let a = lazy.trace(benchmark).unwrap();
            let b = eager.trace(benchmark).unwrap();
            assert_eq!(a.to_vec(), b.to_vec(), "{benchmark}");
            assert_eq!(lazy.retired(benchmark).unwrap(), eager.retired(benchmark).unwrap());
            assert_eq!(lazy.predicted(benchmark).unwrap(), eager.predicted(benchmark).unwrap());
        }
        assert_eq!(lazy.cache_stats().simulated, 2);
        assert_eq!(eager.cache_stats().simulated, 2);
        assert_eq!(lazy.cache_stats().disk_hits, 0, "no disk tier configured");
    }

    #[test]
    fn synthetic_traces_fill_in_input_order_and_count_as_simulated() {
        use dvp_workloads::synthetic::ScenarioKind;
        let scenarios = [
            Scenario::new(ScenarioKind::Constant, 2, 50, 1),
            Scenario::new(ScenarioKind::Periodic { period: 4 }, 3, 40, 2),
        ];
        let mut store = TraceStore::new();
        let traces = store.synthetic_traces(&ReplayEngine::new().with_workers(2), &scenarios);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].len(), 100);
        assert_eq!(traces[1].len(), 120);
        assert_eq!(store.cache_stats().simulated, 2);
        assert_eq!(store.cache_stats().disk_hits, 0, "no disk tier configured");
        // Identical to direct generation through the same builder path.
        assert_eq!(traces[1].to_vec(), scenarios[1].records());
    }

    #[test]
    fn synthetic_record_cap_truncates_the_stored_trace() {
        use dvp_workloads::synthetic::ScenarioKind;
        let scenario = Scenario::new(ScenarioKind::Constant, 2, 100, 3);
        let mut store = TraceStore::new().with_record_cap(30);
        let traces = store.synthetic_traces(&ReplayEngine::sequential(), &[scenario]);
        assert_eq!(traces[0].len(), 30);
        assert_eq!(traces[0].to_vec(), scenario.records()[..30]);
    }

    #[test]
    fn failed_write_through_still_returns_the_simulated_trace() {
        // A regular file where the trace directory should be: the lookup
        // cannot read and every write-through fails.
        let blocker =
            std::env::temp_dir().join(format!("dvp-blocked-trace-dir-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").expect("writes the blocker");
        let mut cached =
            TraceStore::with_scale_div(1000).with_record_cap(500).with_trace_dir(&blocker);
        let mut uncached = TraceStore::with_scale_div(1000).with_record_cap(500);
        let trace = cached.trace(Benchmark::M88k).expect("a failed write-through is a warning");
        assert_eq!(trace.to_vec(), uncached.trace(Benchmark::M88k).unwrap().to_vec());
        let stats = cached.cache_stats();
        assert_eq!((stats.simulated, stats.written, stats.disk_hits), (1, 0, 0));
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn record_cap_bounds_the_trace_but_not_predicted() {
        let mut store = TraceStore::with_scale_div(1000).with_record_cap(100);
        let trace = store.trace(Benchmark::M88k).unwrap();
        assert_eq!(trace.len(), 100);
        assert!(store.predicted(Benchmark::M88k).unwrap() > 100);
    }
}
