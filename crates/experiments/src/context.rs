//! Shared experiment context: workload traces generated once, cached in
//! memory, and optionally persisted to a disk tier.

use crate::cache::{CacheLookup, CacheStats, TraceCache};
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_trace::io::v2::{Fingerprint, TraceMeta};
use dvp_trace::{PhasePlan, TraceRecord};
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

/// Where a trace comes from: a workload simulated at an optimization
/// level, or a synthetic scenario.
enum Source {
    Workload(Workload, OptLevel),
    Scenario(Scenario),
}

impl Source {
    /// The cache key of the trace this source produces under `record_cap`.
    fn fingerprint(&self, record_cap: Option<usize>) -> Fingerprint {
        match self {
            Source::Workload(workload, opt) => TraceCache::fingerprint(workload, *opt, record_cap),
            Source::Scenario(scenario) => scenario.fingerprint(record_cap),
        }
    }

    /// Runs the source through the [`SharedTrace`] builder (and so the PC
    /// interner). The trace respects `record_cap`; the metadata's
    /// `retired` and `predicted` always count the full run (for a
    /// scenario, both are [`Scenario::total_records`]).
    fn generate(&self, record_cap: Option<usize>) -> Result<(TraceMeta, SharedTrace), BuildError> {
        let (mut builder, mut predicted) = (SharedTrace::builder(), 0u64);
        let cap = record_cap.unwrap_or(usize::MAX);
        let mut sink = |rec: TraceRecord| {
            predicted += 1;
            if builder.len() < cap {
                builder.push(rec);
            }
        };
        let retired = match self {
            Source::Workload(workload, opt) => {
                let mut machine = workload.machine(*opt)?;
                machine.run_with(STEP_BUDGET, &mut sink)?;
                machine.retired()
            }
            Source::Scenario(scenario) => {
                scenario.generate_with(&mut sink);
                scenario.total_records()
            }
        };
        let meta = TraceMeta { fingerprint: self.fingerprint(record_cap), retired, predicted };
        Ok((meta, builder.finish()))
    }
}

/// Lazily generates and caches the value trace of each benchmark so that a
/// `repro all` run simulates every workload **at most** once — and, with a
/// trace directory configured, at most once *ever* per configuration.
///
/// Traces are held as [`SharedTrace`]s: handing one to an experiment (or to
/// every job of a parallel replay) clones an [`Arc`](std::sync::Arc), never
/// the records. The store carries the run's [`ReplayEngine`]
/// ([`TraceStore::with_engine`]; [`ReplayEngine::sequential`] by default):
/// disk loads decode chunk-for-chunk on its worker pool, and missing traces
/// generate there concurrently. Generation is deterministic per
/// configuration, so the engine never changes a trace.
///
/// # One path, three tiers
///
/// Benchmark traces ([`TraceStore::trace`], [`TraceStore::prefetch`]),
/// variant workloads ([`TraceStore::variant_traces`]) and synthetic
/// scenarios ([`TraceStore::synthetic_traces`]) all come through one path,
/// keyed by their [fingerprint](dvp_trace::io::v2::Fingerprint). Each
/// request is served, in input order, from the first tier that has it:
///
/// 1. the in-memory map of benchmark traces (variants with a benchmark's
///    fingerprint, such as Table 6's reference input, are served from it);
/// 2. the disk tier, when [`TraceStore::with_trace_dir`] adds a persistent
///    [`TraceCache`] (checksums and the fingerprint are validated before a
///    file is trusted);
/// 3. one batch on the engine that generates each distinct missing
///    fingerprint once and writes it through to the disk tier inside the
///    same job, so the *next* process starts warm.
///
/// Traces loaded from disk are byte-identical to freshly generated ones —
/// `tests/trace_cache.rs` pins this on real workloads — and
/// [`TraceStore::cache_stats`] reports how many generations the run
/// actually performed. When one job of a batch fails, the batch returns
/// the earliest error: traces that generated before it are already
/// persisted, but the store keeps none of them.
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
    traces: HashMap<Fingerprint, (TraceMeta, SharedTrace)>,
    /// The phase plan each trace arrived with (the one its container
    /// stores, or the one written with it), else the one profiled on first
    /// request.
    plans: HashMap<Fingerprint, PhasePlan>,
    scale_div: u32,
    record_cap: Option<usize>,
    engine: ReplayEngine,
    cache: Option<TraceCache>,
    stats: CacheStats,
}

impl Default for TraceStore {
    /// Equivalent to [`TraceStore::new`] (a derived default would set
    /// `scale_div` to 0 and divide by zero on first use).
    fn default() -> Self {
        TraceStore {
            traces: HashMap::new(),
            plans: HashMap::new(),
            scale_div: 1,
            record_cap: None,
            engine: ReplayEngine::sequential(),
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

    /// Loads and generates traces on `engine` instead of the default
    /// [`ReplayEngine::sequential`].
    #[must_use]
    pub fn with_engine(mut self, engine: ReplayEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine this store loads and generates on; analyses that fold
    /// its traces may run on it too.
    #[must_use]
    pub fn engine(&self) -> &ReplayEngine {
        &self.engine
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

    /// Serves every source, in input order, from memory, then the disk
    /// tier, then one batch on the store's engine that generates each
    /// distinct missing fingerprint once and writes it through in the same
    /// job. With `keep`, the results join the in-memory map.
    fn fetch(
        &mut self,
        sources: Vec<Source>,
        keep: bool,
    ) -> Result<Vec<(TraceMeta, SharedTrace)>, BuildError> {
        let record_cap = self.record_cap;
        let mut found: HashMap<Fingerprint, Option<(TraceMeta, SharedTrace)>> = HashMap::new();
        let (mut order, mut missing) = (Vec::with_capacity(sources.len()), Vec::new());
        for source in sources {
            let fingerprint = source.fingerprint(record_cap);
            if !found.contains_key(&fingerprint) {
                let hit = match (self.traces.get(&fingerprint), &self.cache) {
                    (Some(hit), _) => Some(hit.clone()),
                    (None, Some(cache)) => match cache.lookup(&self.engine, &fingerprint) {
                        CacheLookup::Hit(meta, trace, plan) => {
                            self.stats.disk_hits += 1;
                            if let Some(plan) = plan {
                                self.plans.insert(fingerprint.clone(), plan);
                            }
                            Some((meta, trace))
                        }
                        CacheLookup::Miss => None,
                        CacheLookup::Invalid(why) => {
                            self.stats.invalid += 1;
                            eprintln!("[trace-cache] rejected {why}; regenerating");
                            None
                        }
                    },
                    (None, None) => None,
                };
                if hit.is_none() {
                    missing.push(source);
                }
                found.insert(fingerprint.clone(), hit);
            }
            order.push(fingerprint);
        }
        // Write failures are warnings, never run failures.
        let cache = self.cache.as_ref();
        let generated = self.engine.try_map(missing, |source| -> Result<_, BuildError> {
            let (meta, trace) = source.generate(record_cap)?;
            let plan = cache.and_then(|cache| match cache.write_through_with_plan(&meta, &trace) {
                Ok((_, plan)) => Some(plan),
                Err(err) => {
                    let workload = &meta.fingerprint.workload;
                    eprintln!("[trace-cache] write-through failed for {workload}: {err}");
                    None
                }
            });
            Ok((meta, trace, plan))
        })?;
        for (meta, trace, plan) in generated {
            self.stats.simulated += 1;
            if let Some(plan) = plan {
                self.stats.written += 1;
                self.plans.insert(meta.fingerprint.clone(), plan);
            }
            found.insert(meta.fingerprint.clone(), Some((meta, trace)));
        }
        let fetched: Vec<(TraceMeta, SharedTrace)> = order
            .iter()
            .map(|fingerprint| found[fingerprint].clone().expect("found or generated"))
            .collect();
        if keep {
            for (meta, trace) in &fetched {
                self.traces.insert(meta.fingerprint.clone(), (meta.clone(), trace.clone()));
            }
        }
        Ok(fetched)
    }

    /// `benchmark`'s reference trace and its run totals, kept in memory.
    fn benchmark(&mut self, benchmark: Benchmark) -> Result<(TraceMeta, SharedTrace), BuildError> {
        let source = Source::Workload(self.workload(benchmark), REFERENCE_OPT);
        Ok(self.fetch(vec![source], true)?.remove(0))
    }

    /// The cached trace for `benchmark`, generating it on first use. The
    /// returned [`SharedTrace`] is a cheap clone of the cached buffer.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors.
    pub fn trace(&mut self, benchmark: Benchmark) -> Result<SharedTrace, BuildError> {
        Ok(self.benchmark(benchmark)?.1)
    }

    /// Fills every not-yet-cached trace among `benchmarks` in one batch:
    /// disk hits decode chunk-for-chunk on the worker pool, the rest
    /// simulate concurrently. Already-cached benchmarks are untouched;
    /// duplicates are filled once.
    ///
    /// The batch runs on `engine`, not on the store's own: this parameter
    /// stays only because the frozen `perfbench` harness passes it, and the
    /// next change to that harness removes it.
    ///
    /// # Errors
    ///
    /// Propagates the first (in benchmark order) workload build/run error.
    pub fn prefetch(
        &mut self,
        engine: &ReplayEngine,
        benchmarks: &[Benchmark],
    ) -> Result<(), BuildError> {
        let sources = benchmarks
            .iter()
            .map(|&benchmark| Source::Workload(self.workload(benchmark), REFERENCE_OPT))
            .collect();
        let own = std::mem::replace(&mut self.engine, engine.clone());
        let fetched = self.fetch(sources, true);
        self.engine = own;
        fetched.map(drop)
    }

    /// Loads or generates arbitrary `(workload, opt)` variant traces —
    /// e.g. the sensitivity studies' alternate inputs and optimization
    /// levels — returning for each job, in input order, the (possibly
    /// record-capped) trace and the full run's predicted-instruction
    /// count. A job whose fingerprint matches a benchmark trace already in
    /// memory (Table 6's reference input, Table 7's reference level) is
    /// served from it, and a job listed twice generates once. Variants are
    /// not added to the in-memory benchmark map (each experiment runs once
    /// per process — persistence is what pays).
    ///
    /// # Errors
    ///
    /// Propagates the first (in input order) workload build/run error.
    pub fn variant_traces(
        &mut self,
        jobs: Vec<(Workload, OptLevel)>,
    ) -> Result<Vec<(SharedTrace, u64)>, BuildError> {
        let sources = jobs.into_iter().map(|(workload, opt)| Source::Workload(workload, opt));
        let fetched = self.fetch(sources.collect(), false)?;
        Ok(fetched.into_iter().map(|(meta, trace)| (trace, meta.predicted)).collect())
    }

    /// Loads or generates the traces of synthetic [`Scenario`]s, returning
    /// one [`SharedTrace`] per scenario, in input order. Misses persist
    /// (fingerprinted by [`Scenario::fingerprint`]), so a warm `repro
    /// sweep --trace-dir` run generates nothing; scenarios are not held in
    /// the in-memory benchmark map. Generated scenarios count as
    /// `simulated` in [`CacheStats`].
    ///
    /// Generation is infallible (no compiler or simulator is involved) and
    /// honours the store's record cap — the cap truncates the stored trace
    /// without changing what the full scenario would emit.
    pub fn synthetic_traces(&mut self, scenarios: &[Scenario]) -> Vec<SharedTrace> {
        let sources = scenarios.iter().map(|&scenario| Source::Scenario(scenario)).collect();
        let fetched = self.fetch(sources, false).expect("scenario generation cannot fail");
        fetched.into_iter().map(|(_, trace)| trace).collect()
    }

    /// The SimPoint phase plan for `benchmark`'s trace (default
    /// [`dvp_engine::PhaseOptions`]): the plan the trace arrived with —
    /// the `PHAS` section of the container a disk hit loaded, or the plan
    /// written with it — else profiled once per store. The plan is a pure
    /// function of the trace, so the stored copy and a fresh profile agree.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors (the trace is generated if
    /// needed).
    pub fn phase_plan(&mut self, benchmark: Benchmark) -> Result<PhasePlan, BuildError> {
        let (meta, trace) = self.benchmark(benchmark)?;
        Ok(self.plan_of(&meta.fingerprint, &trace))
    }

    /// As [`TraceStore::phase_plan`], for `scenario`, whose trace
    /// [`TraceStore::synthetic_traces`] returned as `trace`.
    pub fn scenario_phase_plan(&mut self, scenario: &Scenario, trace: &SharedTrace) -> PhasePlan {
        let fingerprint = Source::Scenario(*scenario).fingerprint(self.record_cap);
        self.plan_of(&fingerprint, trace)
    }

    /// The plan `fingerprint`'s trace arrived with, else `trace`'s profile,
    /// kept for the next request.
    fn plan_of(&mut self, fingerprint: &Fingerprint, trace: &SharedTrace) -> PhasePlan {
        self.plans
            .entry(fingerprint.clone())
            .or_insert_with(|| dvp_engine::phase_plan(trace, &dvp_engine::PhaseOptions::default()))
            .clone()
    }

    /// Total dynamic (retired) instructions for `benchmark`'s run.
    ///
    /// # Errors
    ///
    /// Propagates workload build/run errors (the trace is generated if
    /// needed).
    pub fn retired(&mut self, benchmark: Benchmark) -> Result<u64, BuildError> {
        Ok(self.benchmark(benchmark)?.0.retired)
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
        Ok(self.benchmark(benchmark)?.0.predicted)
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
        let mut store = TraceStore::new().with_engine(ReplayEngine::new().with_workers(2));
        let traces = store.synthetic_traces(&scenarios);
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
        let traces = store.synthetic_traces(&[scenario]);
        assert_eq!(traces[0].len(), 30);
        assert_eq!(traces[0].to_vec(), scenario.records()[..30]);
    }

    #[test]
    fn a_job_listed_twice_in_one_batch_simulates_once() {
        let mut store = TraceStore::with_scale_div(1000)
            .with_record_cap(2_000)
            .with_engine(ReplayEngine::new().with_workers(2));
        let job = (store.workload(Benchmark::Cc), OptLevel::O0);
        let traces = store.variant_traces(vec![job.clone(), job]).expect("simulates");
        assert_eq!(store.cache_stats().simulated, 1);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].0.to_vec(), traces[1].0.to_vec());
        assert_eq!(traces[0].1, traces[1].1);
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

    /// A unique, self-cleaning trace directory under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("dvp-store-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn default_plan(trace: &SharedTrace) -> PhasePlan {
        dvp_engine::phase_plan(trace, &dvp_engine::PhaseOptions::default())
    }

    #[test]
    fn cold_and_warm_stores_hand_out_the_profile_of_the_trace() {
        let tmp = TempDir::new("plans");
        let store =
            || TraceStore::with_scale_div(1000).with_record_cap(4_000).with_trace_dir(&tmp.0);
        let mut cold = store();
        let cold_plan = cold.phase_plan(Benchmark::M88k).expect("generates");
        let mut warm = store();
        let warm_plan = warm.phase_plan(Benchmark::M88k).expect("loads");
        assert_eq!(warm.cache_stats().disk_hits, 1);
        let trace = warm.trace(Benchmark::M88k).unwrap();
        assert_eq!(warm_plan, default_plan(&trace));
        assert_eq!(cold_plan, warm_plan);
        let mut uncached = TraceStore::with_scale_div(1000).with_record_cap(4_000);
        assert_eq!(uncached.phase_plan(Benchmark::M88k).unwrap(), warm_plan);
    }

    #[test]
    fn a_stored_phase_plan_is_served_as_stored() {
        use dvp_trace::io::v2;
        use dvp_trace::SimPointPhase;
        use dvp_workloads::synthetic::ScenarioKind;
        // A container whose valid plan is not the default profile of its
        // trace: one phase weighing the whole trace. Serving it unchanged
        // shows the store did not profile the trace a second time.
        let tmp = TempDir::new("stored-plan");
        let scenario = Scenario::new(ScenarioKind::Mixed, 8, 500, 7);
        let mut cold = TraceStore::new().with_trace_dir(&tmp.0);
        let trace = cold.synthetic_traces(&[scenario]).pop().unwrap();
        let records = trace.len() as u64;
        let planted = PhasePlan {
            window_records: 100,
            warmup_records: 0,
            seed: 0,
            total_records: records,
            phases: vec![SimPointPhase { cluster_records: records, start: 0, end: 100 }],
        };
        planted.validate().expect("a valid plan");
        assert_ne!(planted, default_plan(&trace));
        let path = cold.cache().unwrap().path_for(&scenario.fingerprint(None));
        let meta = v2::split_bytes(&std::fs::read(&path).unwrap()).expect("written").0.meta;
        let sections = [
            (v2::SECTION_INTERNER, v2::encode_interner(trace.interner())),
            (v2::SECTION_PHASES, v2::encode_phases(&planted)),
        ];
        let mut bytes = Vec::new();
        v2::write_compressed(
            &mut bytes,
            &meta,
            trace.chunks().iter().map(Vec::as_slice),
            &sections,
        )
        .unwrap();
        std::fs::write(&path, bytes).unwrap();

        let mut warm = TraceStore::new().with_trace_dir(&tmp.0);
        let served = warm.synthetic_traces(&[scenario]).pop().unwrap();
        assert_eq!(warm.cache_stats().disk_hits, 1);
        assert_eq!(warm.scenario_phase_plan(&scenario, &served), planted);
    }

    #[test]
    fn record_cap_bounds_the_trace_but_not_predicted() {
        let mut store = TraceStore::with_scale_div(1000).with_record_cap(100);
        let trace = store.trace(Benchmark::M88k).unwrap();
        assert_eq!(trace.len(), 100);
        assert!(store.predicted(Benchmark::M88k).unwrap() > 100);
    }
}
