//! The replay engine: fan predictor configurations out over a shared trace.

use crate::batch::BatchScratch;
use crate::drive::Plan;
use crate::{par_map, try_par_map, SharedTrace};
use dvp_core::{AccuracyTracker, PredictorConfig};
use dvp_trace::Observer;

/// PC-major units per resident trace, at every worker count.
///
/// A unit is a contiguous range of instruction ids holding about a
/// sixteenth of the trace's records ([`PcIndex::units`]), and one job
/// replays every model over it, one instruction at a time from
/// cleared state, allocations kept. A job's live predictor state is one
/// instruction's, so the count does not size any table: it only bounds
/// the parallelism of one replay, and sixteen keeps a few workers busy
/// even when the largest instruction holds a few percent of its trace. It
/// never depends on `--workers`, so the jobs, and every merge of their
/// reports, are the same at any worker count. A streamed replay takes
/// it as its cap on consumer threads, one PC shard each.
///
/// [`PcIndex::units`]: crate::shared::PcIndex::units
pub(crate) const UNITS: usize = 16;

/// A parallel replay engine over [`SharedTrace`] buffers.
///
/// The engine turns every replay request into independent jobs on a
/// fixed-size [`par_map`] worker pool. Every configuration must keep
/// strictly per-instruction state
/// ([`Predictor::keeps_per_id_state`](dvp_core::Predictor::keeps_per_id_state):
/// the unbounded `l`, `s2`, FCM and their hybrid), and replays PC-major,
/// each instruction's records in one run from cleared state, allocations
/// kept (an FCM bank is cleared between instructions, any other predictor
/// built again), grouped into sixteen units of instructions; its tallies
/// are exact integer counts, so they merge back to **bit-identical**
/// results at any worker count (see the crate-level quickstart). Every
/// bank method panics on any other configuration (a finite, aliased
/// table; delayed updates). Jobs drive predictors through
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
    ///
    /// # Panics
    ///
    /// Panics, naming the configuration, if some configuration's predictor
    /// does not declare
    /// [`keeps_per_id_state`](dvp_core::Predictor::keeps_per_id_state) (a
    /// finite table, delayed updates): the engine replays one instruction
    /// at a time.
    #[must_use]
    pub fn replay(&self, trace: &SharedTrace, bank: &[PredictorConfig]) -> Vec<ConfigReplay> {
        self.drive_bank(trace, Plan::Full, bank).into_iter().map(ConfigReplay::new).collect()
    }

    /// Folds one trace through an [`Observer`] (a per-instruction profile,
    /// a trace summary) in one pass in trace order on the calling thread:
    /// `build` makes the one observer, and each chunk reaches it as one
    /// batch of columns under the trace's ids. The engine's settings
    /// (workers, chunk window) do not affect it.
    pub fn observe<O: Observer>(&self, trace: &SharedTrace, build: impl FnOnce() -> O) -> O {
        let mut observer = build();
        let mut scratch = BatchScratch::default();
        for (records, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
            scratch.gather(records, ids);
            scratch.observe_into(&mut observer);
        }
        observer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_trace::{InstrCategory, Pc, TraceRecord};

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

    #[test]
    fn observe_folds_the_whole_trace_in_one_pass() {
        let trace = mixed_trace(1000);
        let one_pass: dvp_trace::TraceSummary = trace.iter().copied().collect();
        let summary = ReplayEngine::sequential().observe(&trace, dvp_trace::TraceSummary::new);
        assert_eq!(summary.dynamic_total(), 1000);
        assert_eq!(summary.static_total(), one_pass.static_total());
    }

    #[test]
    fn empty_trace_and_empty_bank_are_safe() {
        let engine = ReplayEngine::new();
        let empty = SharedTrace::new();
        let replays = engine.replay(&empty, &PredictorConfig::paper_bank());
        assert!(replays.iter().all(|r| r.tracker.total() == 0 && r.accuracy() == 0.0));
        let none = engine.replay(&mixed_trace(10), &[]);
        assert!(none.is_empty());
        let report = engine.correlate(&mixed_trace(10), &[]);
        assert_eq!((report.total(), report.subset_count(None, 0)), (10, 10));
        assert_eq!(report.per_pc_tallies().len(), 10);
        assert_eq!(engine.correlate(&empty, &PredictorConfig::paper_bank()).total(), 0);
    }
}
