//! The replay engine: fan predictor configurations out over a shared trace.

use crate::drive::Plan;
use crate::{par_map, try_par_map, SharedTrace};
use dvp_core::{AccuracyTracker, PredictorConfig};
use dvp_trace::Observer;

/// PC-major units per resident trace, at every worker count.
///
/// A unit is a contiguous range of instruction ids holding about a
/// sixteenth of the trace's records ([`PcIndex::units`]), and one job
/// replays every per-PC model over it, one instruction at a time with
/// fresh state. A job's live predictor state is one instruction's, so the
/// count does not size any table: it only bounds the parallelism of one
/// replay, and sixteen keeps a few workers busy even when the largest
/// instruction holds a few percent of its trace. It never depends on
/// `--workers`, so the jobs, and every observer merge, are the same at
/// any worker count.
///
/// [`PcIndex::units`]: crate::shared::PcIndex::units
pub(crate) const UNITS: usize = 16;

/// A parallel replay engine over [`SharedTrace`] buffers.
///
/// The engine turns every replay request into independent jobs on a
/// fixed-size [`par_map`] worker pool. A configuration whose predictor
/// keeps strictly per-instruction state
/// ([`Predictor::keeps_per_id_state`](dvp_core::Predictor::keeps_per_id_state):
/// the unbounded `l`, `s2`, FCM and their hybrid) replays PC-major, each
/// instruction's records in one run with fresh state, grouped into
/// sixteen units of instructions; its tallies are exact integer counts,
/// so they merge back to **bit-identical** results at any worker count
/// (see the crate-level quickstart). Any other configuration (a finite,
/// aliased table; delayed updates) replays as one job over every record
/// in trace order, which is also exact. Jobs drive predictors through
/// [`dvp_core::Predictor::observe_batch`]: one slot access per record per
/// predictor, no hashing.
#[derive(Debug, Clone)]
pub struct ReplayEngine {
    workers: usize,
    chunk_window: usize,
}

/// The merged outcome of replaying one predictor configuration over one
/// trace: the configuration's name and its per-category accuracy tally.
#[derive(Debug, Clone)]
pub struct ConfigReplay {
    /// Name of the [`PredictorConfig`] that produced this tally.
    pub name: String,
    /// Per-category correct/predicted counts, merged over every job.
    pub tracker: AccuracyTracker,
}

impl ConfigReplay {
    /// Overall accuracy in `[0, 1]` (0 when the trace was empty).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        self.tracker.accuracy(None)
    }

    /// The result of configuration `name` from its merged full-replay
    /// tally.
    pub(crate) fn new((name, tallies): (String, Vec<AccuracyTracker>)) -> Self {
        ConfigReplay { name, tracker: tallies.into_iter().next().expect("one full tally") }
    }
}

impl Default for ReplayEngine {
    fn default() -> Self {
        ReplayEngine::new()
    }
}

impl ReplayEngine {
    /// An engine using every available core.
    #[must_use]
    pub fn new() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        ReplayEngine { workers, chunk_window: crate::DEFAULT_CHUNK_WINDOW }
    }

    /// An engine that runs everything inline on the calling thread: one
    /// worker, the same jobs. Results are identical to any parallel
    /// configuration; only the wall clock moves.
    #[must_use]
    pub fn sequential() -> Self {
        ReplayEngine::new().with_workers(1)
    }

    /// Sets the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets how many decoded chunks the streaming replay window may hold
    /// at once (clamped to at least 1). Smaller windows bound resident
    /// memory tighter; larger windows give the decoder more runway. The
    /// setting never changes replay tallies — only residency and wall
    /// clock.
    #[must_use]
    pub fn with_chunk_window(mut self, chunks: usize) -> Self {
        self.chunk_window = chunks.max(1);
        self
    }

    /// The worker-thread count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The streaming replay window capacity, in chunks.
    #[must_use]
    pub fn chunk_window(&self) -> usize {
        self.chunk_window
    }

    /// [`par_map`] on this engine's worker pool: applies `f` to every item,
    /// results in input order.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        par_map(self.workers, items, f)
    }

    /// [`try_par_map`] on this engine's worker pool.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest (lowest-index) failing job.
    pub fn try_map<T, R, E, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, E>
    where
        T: Send,
        R: Send,
        E: Send,
        F: Fn(T) -> Result<R, E> + Sync,
    {
        try_par_map(self.workers, items, f)
    }

    /// Replays one trace under a bank of predictor configurations and
    /// returns one merged [`ConfigReplay`] per configuration, in bank
    /// order.
    #[must_use]
    pub fn replay(&self, trace: &SharedTrace, bank: &[PredictorConfig]) -> Vec<ConfigReplay> {
        self.drive_bank(trace, Plan::Full, bank).into_iter().map(ConfigReplay::new).collect()
    }

    /// Replays every trace under every configuration of the bank — the full
    /// predictor×workload matrix, one trace after another, each as
    /// independent jobs on the worker pool. Returns, for
    /// each trace (outer, in input order), one merged [`ConfigReplay`] per
    /// configuration (inner, in bank order).
    #[must_use]
    pub fn replay_matrix(
        &self,
        traces: &[SharedTrace],
        bank: &[PredictorConfig],
    ) -> Vec<Vec<ConfigReplay>> {
        traces.iter().map(|trace| self.replay(trace, bank)).collect()
    }

    /// Folds one trace through an [`Observer`] — a correlated
    /// [`dvp_core::PredictorSet`] (Figures 8/9) or a per-instruction
    /// profile. When one built observer answers [`Observer::pc_major`],
    /// the observer is folded over the sixteen units of instructions:
    /// `build` makes one per unit, each observes its instructions'
    /// records one instruction at a time under their trace ids, and the
    /// unit observers merge in unit order. Otherwise it folds the whole
    /// trace in trace order. Either gives exactly the observer of one
    /// pass over the trace.
    pub fn observe<O, F>(&self, trace: &SharedTrace, build: F) -> O
    where
        O: Observer + Send,
        F: Fn() -> O + Sync,
    {
        let per_pc = build().pc_major();
        let make = |_, _| build();
        self.drive(trace, Plan::Full, &[per_pc], make).pop().expect("one merged observer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::{
        FiniteLastValuePredictor, LastValuePredictor, Predictor, PredictorSet, TableSpec,
    };
    use dvp_trace::{InstrCategory, Pc, PcId, TraceRecord};

    fn mixed_trace(n: u64) -> SharedTrace {
        (0..n)
            .map(|i| {
                let pc = Pc(4 * (i % 13));
                let category =
                    if i % 3 == 0 { InstrCategory::Loads } else { InstrCategory::AddSub };
                // A mix of strides, repeats, and noise per PC.
                let value = match i % 13 {
                    0..=4 => i / 13,
                    5..=8 => (i / 13) % 4,
                    _ => (i * 2_654_435_761) % 97,
                };
                TraceRecord::new(pc, category, value)
            })
            .collect()
    }

    #[test]
    fn replay_matches_one_lockstep_pass_at_every_worker_count() {
        let trace = mixed_trace(5000);
        let bank = PredictorConfig::paper_bank();
        let reference: Vec<AccuracyTracker> = bank
            .iter()
            .map(|config| {
                let mut predictor = config.build();
                let mut tracker = AccuracyTracker::new();
                for (rec, id) in trace.iter_with_ids() {
                    let hit = predictor.step(id, rec.pc, rec.value) == Some(rec.value);
                    tracker.record(rec.category, hit);
                }
                tracker
            })
            .collect();
        for workers in [1, 2, 3, 4, 8, 16] {
            let replays = ReplayEngine::new().with_workers(workers).replay(&trace, &bank);
            assert_eq!(replays.len(), bank.len());
            for ((config, replay), tracker) in bank.iter().zip(&replays).zip(&reference) {
                assert_eq!(replay.name, config.name());
                for category in dvp_trace::InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                    assert_eq!(
                        (replay.tracker.correct(category), replay.tracker.predicted(category)),
                        (tracker.correct(category), tracker.predicted(category)),
                        "workers={workers} {} {category:?}",
                        replay.name
                    );
                }
            }
        }
    }

    /// Records seen by each observer a fold merged, in merge order.
    struct Units {
        pc_major: bool,
        seen: Vec<u64>,
    }

    impl Observer for Units {
        fn pc_major(&self) -> bool {
            self.pc_major
        }
        fn observe_batch(&mut self, ids: &[PcId], _: &[Pc], _: &[u64], _: &[InstrCategory]) {
            *self.seen.last_mut().expect("one count per observer") += ids.len() as u64;
        }
        fn merge(&mut self, other: Self) {
            self.seen.extend(other.seen);
        }
    }

    #[test]
    fn observe_builds_one_observer_per_unit_balanced_by_records() {
        // 120 PCs, skewed: the busiest executes far more than the rest.
        let trace: SharedTrace = (0..6000u64)
            .map(|i| TraceRecord::new(Pc(4 * ((i % 13) * (i % 17) % 120)), InstrCategory::Logic, i))
            .collect();
        let mut per_pc = std::collections::HashMap::new();
        for rec in &trace {
            *per_pc.entry(rec.pc).or_insert(0u64) += 1;
        }
        let largest = per_pc.values().copied().max().expect("records");
        let len = trace.len() as u64;
        let mut seen = Vec::new();
        for engine in [ReplayEngine::sequential(), ReplayEngine::new().with_workers(4)] {
            let units = engine.observe(&trace, || Units { pc_major: true, seen: vec![0] }).seen;
            assert_eq!(units.len(), UNITS, "{engine:?}");
            assert_eq!(units.iter().sum::<u64>(), len);
            assert!(units.iter().all(|&n| n <= len / UNITS as u64 + largest), "{units:?}");
            assert!(units.iter().filter(|&&n| n > 0).count() > UNITS / 2, "{units:?}");
            seen.push(units);
        }
        assert_eq!(seen[0], seen[1], "the units do not depend on the worker count");
        let set = ReplayEngine::sequential().observe(&mixed_trace(1000), PredictorSet::paper_trio);
        assert_eq!(set.total(), 1000);
    }

    #[test]
    fn observe_folds_a_record_order_observer_once_over_the_whole_trace() {
        let trace = mixed_trace(1000);
        for engine in [ReplayEngine::sequential(), ReplayEngine::new().with_workers(4)] {
            let units = engine.observe(&trace, || Units { pc_major: false, seen: vec![0] }).seen;
            assert_eq!(units, [1000], "{engine:?}");
            let summary = engine.observe(&trace, dvp_trace::TraceSummary::new);
            let one_pass: dvp_trace::TraceSummary = trace.iter().copied().collect();
            assert_eq!(summary.dynamic_total(), 1000);
            assert_eq!(summary.static_total(), one_pass.static_total());
        }
    }

    #[test]
    fn a_set_with_a_finite_member_folds_as_one_pass() {
        let trace = mixed_trace(3000);
        let build = || {
            let mut set = PredictorSet::new();
            set.push(Box::new(LastValuePredictor::new()));
            set.push(Box::new(FiniteLastValuePredictor::new(TableSpec::new(2))));
            set
        };
        assert!(!build().pc_major(), "a finite table aliases across PCs");
        let mut one_pass = build();
        for (r, id) in trace.iter_with_ids() {
            one_pass.observe_batch(&[id], &[r.pc], &[r.value], &[r.category]);
        }
        for engine in [ReplayEngine::sequential(), ReplayEngine::new().with_workers(3)] {
            let set = engine.observe(&trace, build);
            for mask in 0..4u32 {
                assert_eq!(set.subset_count(None, mask), one_pass.subset_count(None, mask));
            }
        }
        // Aliasing shows: the finite table hits where one PC per slot would not.
        assert_ne!(one_pass.subset_count(None, 0b10), 0);
    }

    #[test]
    fn replay_matrix_layout_is_trace_major_bank_minor() {
        let traces = [mixed_trace(500), mixed_trace(900)];
        let bank = PredictorConfig::fcm_orders([1, 2]);
        let matrix = ReplayEngine::new().with_workers(3).replay_matrix(&traces, &bank);
        assert_eq!(matrix.len(), 2);
        for (trace, row) in traces.iter().zip(&matrix) {
            assert_eq!(row.len(), 2);
            assert_eq!(row[0].name, "fcm1");
            assert_eq!(row[1].name, "fcm2");
            for replay in row {
                assert_eq!(replay.tracker.total(), trace.len() as u64);
            }
        }
    }

    #[test]
    fn correlated_replay_matches_sequential_set() {
        let trace = mixed_trace(4000);
        let mut sequential = PredictorSet::paper_trio();
        for (r, id) in trace.iter_with_ids() {
            sequential.observe_batch(&[id], &[r.pc], &[r.value], &[r.category]);
        }
        let merged = ReplayEngine::new().with_workers(4).observe(&trace, PredictorSet::paper_trio);
        assert_eq!(merged.total(), sequential.total());
        for mask in 0..8u32 {
            assert_eq!(merged.subset_count(None, mask), sequential.subset_count(None, mask));
        }
        let m: std::collections::HashMap<_, _> = merged.per_pc_tallies().into_iter().collect();
        let s: std::collections::HashMap<_, _> = sequential.per_pc_tallies().into_iter().collect();
        assert_eq!(m.len(), s.len());
        for (pc, tally) in &s {
            assert_eq!(m[pc].correct, tally.correct, "{pc}");
        }
    }

    #[test]
    fn empty_trace_and_empty_bank_are_safe() {
        let engine = ReplayEngine::new();
        let empty = SharedTrace::new();
        let replays = engine.replay(&empty, &PredictorConfig::paper_bank());
        assert!(replays.iter().all(|r| r.tracker.total() == 0 && r.accuracy() == 0.0));
        let none = engine.replay(&mixed_trace(10), &[]);
        assert!(none.is_empty());
    }
}
