//! # dvp-engine — the parallel shared-trace replay engine
//!
//! Every experiment in *The Predictability of Data Values* (Sazeides &
//! Smith, MICRO-30, 1997) is a replay: simulate a workload to get a value
//! trace, feed the trace to one or more predictors, tally the outcomes.
//! This crate makes replays fast without changing a single tally:
//!
//! 1. **Materialize each trace once.** A [`SharedTrace`] is a chunked
//!    record buffer behind an [`Arc`](std::sync::Arc) — cloning it into any
//!    number of replay jobs costs an atomic increment, never a copy.
//! 2. **Fan configurations out across threads.** A [`ReplayEngine`] turns a
//!    bank of [`PredictorConfig`](dvp_core::PredictorConfig)s into
//!    independent jobs on a fixed-size [`par_map`] worker pool. The FCM orders of a bank
//!    (every config whose built predictor declares a lazy-exclusion FCM,
//!    [`dvp_core::Predictor::bank_form`]) share one job as a
//!    [`dvp_core::FcmBank`]: one context walk per record for all of
//!    them, each tallied as its own configuration. A stride/FCM hybrid
//!    (`HybridPredictor::stride_fcm(k)`) whose order the bank has joins
//!    that job: its hits are folded from its own stride column and the
//!    order-`k` bank column ([`dvp_core::ChooserFold`]), so its FCM part
//!    is not replayed a second time.
//! 3. **Replay one instruction at a time.** The paper's predictors keep
//!    strictly per-instruction state ([`dvp_core::Predictor::keeps_per_id_state`]),
//!    so a record's hit depends only on its own PC's value sequence. A
//!    resident trace's records are grouped by [`PcId`](dvp_trace::PcId)
//!    once (a counting sort, kept with the trace), and the ids are split
//!    into the same sixteen units, balanced by record count, at any worker
//!    count. One job per unit gathers each instruction's records once and
//!    replays them through every per-instruction configuration, each from
//!    cleared state, allocations kept: a worker holds one instruction's
//!    tables at a time, and an FCM bank reuses them for the next. A
//!    configuration without per-instruction state (finite aliased tables,
//!    delayed updates) is refused: every bank method panics on it.
//!    [`ReplayEngine::correlate`] runs a whole bank per
//!    instruction the same way and reports, per record, which configs
//!    were correct ([`dvp_core::Correlation`], Figures 8 and 9).
//! 4. **Merge deterministically.** Unit tallies are exact integer counts,
//!    merged in a fixed order; results are **bit-identical at any worker
//!    count**, including the single-worker configuration. Every
//!    replay method — full, correlated, streaming, cold- or warm-sampled —
//!    is a thin wrapper over one private driver: a chunk source (resident
//!    or streamed) folded through one job loop under a replay plan.
//! 5. **Load persisted traces in parallel.** [`ReplayEngine::load_trace`]
//!    assembles a [`SharedTrace`] chunk for chunk from a trace
//!    container ([`dvp_trace::io::v2`]) on the same worker pool — each
//!    chunk decodes as an independent, checksummed job, and no
//!    intermediate flat record vector is ever built.
//! 6. **Stream huge traces in bounded memory.**
//!    [`ReplayEngine::replay_streaming`] decodes a container one chunk at
//!    a time into a bounded window ([`DEFAULT_CHUNK_WINDOW`]) feeding the
//!    workers, each owning one PC shard (a hash of the PC) of every
//!    per-instruction configuration: resident memory is fixed whatever
//!    the trace length, and tallies stay byte-identical to the resident
//!    path. A resident trace holds at most `u32::MAX` records; a longer
//!    container streams.
//! 7. **Sample phases instead of replaying everything.** [`phase_plan`]
//!    clusters fixed-length trace windows SimPoint-style (seeded,
//!    deterministic); [`ReplayEngine::replay_sampled`] then replays one
//!    weighted representative window per cluster — a ≥10x record
//!    reduction — and its streaming form skips decoding untouched chunks.
//! 8. **Accept work asynchronously.** A [`JobQueue`] puts a bounded,
//!    admission-controlled submission surface in front of the engine for
//!    long-lived services (`repro serve`): [`JobQueue::try_submit`] never
//!    blocks — it admits a job, or refuses with a structured
//!    [`SubmitError`] when the backlog is full.
//! 9. **Version persisted results.** [`engine_epoch`] fingerprints the
//!    predictor-semantics surface (crate versions plus
//!    [`SEMANTICS_REVISION`]); services fold it into every persisted
//!    result-cache key and entry header, so results rendered by a binary
//!    with different semantics are recomputed, never served.
//!
//! # Quickstart
//!
//! ```
//! use dvp_core::PredictorConfig;
//! use dvp_engine::{ReplayEngine, SharedTrace};
//! use dvp_trace::{InstrCategory, Pc, TraceRecord};
//!
//! // Materialize a trace once (in production: one per workload, from the
//! // simulator).
//! let trace: SharedTrace = (0..1000u64)
//!     .map(|i| TraceRecord::new(Pc(4 * (i % 8)), InstrCategory::AddSub, i / 8))
//!     .collect();
//!
//! // Replay the paper's five predictors over it, in parallel.
//! let engine = ReplayEngine::new(); // all cores
//! let replays = engine.replay(&trace, &PredictorConfig::paper_bank());
//! assert_eq!(replays.len(), 5);
//!
//! // Identical tallies at any thread count — parallelism is invisible in
//! // the results.
//! let reference = ReplayEngine::sequential().replay(&trace, &PredictorConfig::paper_bank());
//! for (a, b) in replays.iter().zip(&reference) {
//!     assert_eq!(a.tracker.correct(None), b.tracker.correct(None));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod drive;
mod jobs;
mod load;
mod pool;
mod replay;
mod shared;
mod simpoint;

pub use jobs::{
    compiled_epoch, engine_epoch, JobQueue, SubmitError, ENGINE_EPOCH_ENV, SEMANTICS_REVISION,
};
pub use pool::{par_map, try_par_map};
pub use replay::{ConfigReplay, ReplayEngine};
pub use shared::{SharedTrace, SharedTraceBuilder, DEFAULT_CHUNK_LEN, DEFAULT_CHUNK_WINDOW};
pub use simpoint::{phase_plan, PhaseOptions, SampledReplay, DEFAULT_WINDOW_RECORDS};
