//! # dvp-core — data value predictors
//!
//! This crate implements the value-prediction models studied in
//! *The Predictability of Data Values* (Y. Sazeides and J. E. Smith,
//! MICRO-30, 1997), in the paper's idealized setting: per-static-instruction
//! (per-PC) tables of unbounded size, updated immediately with correct
//! values.
//!
//! Two families of predictors are provided:
//!
//! * **Computational** predictors compute the next value from previous
//!   values: [`LastValuePredictor`] (the identity function, the paper's
//!   always-update "l") and [`StridePredictor`] (adds a delta; the paper's
//!   "s2" two-delta variant is the default, and Table 1's hysteresis
//!   stride the other policy).
//! * **Context-based** predictors learn which values follow a particular
//!   history: [`FcmPredictor`], a finite-context-method predictor with
//!   blending and lazy exclusion over exact counts, derived from
//!   text-compression models (single-order models serve Figure 1).
//!
//! [`HybridPredictor`] combines a computational and a context-based
//! component with a per-PC chooser, following the hybrid scheme the paper
//! motivates in its Section 4.2.
//!
//! Evaluation scaffolding lives alongside the predictors:
//! [`PredictorSet`] correlates the correct-prediction sets of several
//! predictors (Figure 8/9 of the paper), [`AccuracyTracker`] and
//! [`ValueProfile`] implement the Section 4 accounting,
//! [`EntropyProfile`] and [`LocalityProfile`] the Section 1.2 framings,
//! and [`sequences`] generates and measures the Section 1.1 sequence
//! taxonomy (Table 1, Figure 2).
//!
//! The set and the three profiles are [`dvp_trace::Observer`]s: they fold
//! `(PcId, Pc)`-keyed record columns through `observe_batch`, keep their
//! per-instruction state in one dense [`dvp_trace::PcSlots`] table, and
//! `merge` PC shards exactly, so the replay engine's one observer entry
//! (`dvp_engine::ReplayEngine::observe`) runs any of them sharded, with
//! results identical to one sequential pass.
//!
//! # Quickstart
//!
//! ```
//! use dvp_core::{FcmPredictor, Interned, StridePredictor};
//! use dvp_trace::Pc;
//!
//! // A repeating non-stride sequence, the kind only context-based
//! // prediction captures (paper Section 1.1).
//! let sequence = [1u64, 42, 7, 1, 42, 7, 1, 42, 7];
//! let pc = Pc(0x400100);
//!
//! let mut stride = Interned::new(StridePredictor::two_delta());
//! let mut fcm = Interned::new(FcmPredictor::new(2));
//! let mut stride_correct = 0;
//! let mut fcm_correct = 0;
//! for &v in &sequence {
//!     stride_correct += u32::from(stride.observe(pc, v));
//!     fcm_correct += u32::from(fcm.observe(pc, v));
//! }
//! assert!(fcm_correct > stride_correct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// This crate's version — part of the predictor-semantics surface folded
/// into the engine epoch (`dvp_engine::engine_epoch`), which versions
/// every persisted result-cache entry.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

mod analysis;
mod config;
mod dataflow;
mod delayed;
mod entropy;
mod fcm;
mod finite;
mod hybrid;
mod last_value;
mod locality;
mod predictor;
pub mod sequences;
mod set;
mod stride;
mod table;

pub use analysis::{
    improvement_at, improvement_curve, AccuracyTracker, ImprovementPoint, ValueProfile,
    VALUE_BUCKETS,
};
pub use config::PredictorConfig;
pub use dataflow::{dataflow_height, oracle_height, value_predicted_height, SpeedupReport};
pub use delayed::DelayedPredictor;
pub use entropy::{shannon_entropy, EntropyProfile, ENTROPY_BUCKETS};
pub use fcm::{Blending, FcmBank, FcmPredictor};
pub use finite::{
    hash_history, FiniteFcmPredictor, FiniteHybridPredictor, FiniteLastValuePredictor,
    FiniteStridePredictor, TableSpec,
};
pub use hybrid::{ChooserFold, HybridPredictor};
pub use last_value::LastValuePredictor;
pub use locality::LocalityProfile;
pub use predictor::{BankForm, Interned, Predictor};
pub use set::{run_trace, CorrectMask, PcTally, PredictorSet};
pub use stride::{StridePolicy, StridePredictor};
