//! # dvp — *The Predictability of Data Values*, reproduced in Rust
//!
//! A full reproduction of Y. Sazeides and J. E. Smith, *The Predictability
//! of Data Values*, MICRO-30, 1997 — the seminal limit study of data value
//! prediction — including every substrate the paper depends on:
//!
//! * [`core`] — the paper's predictors: last-value, two-delta stride,
//!   finite-context-method (FCM) with blending and lazy exclusion, hybrids,
//!   and the sequence-predictability framework (LT/LD).
//! * [`isa`] / [`asm`] / [`sim`] — a 32-bit RISC ISA, assembler, and
//!   traced functional simulator (the SimpleScalar substitute).
//! * [`lang`] — a compiler for Mini, a small C-like language, with three
//!   optimization levels (the `-O` flag substitute for Table 7).
//! * [`workloads`] — seven SPEC95int-inspired benchmark programs.
//! * [`engine`] — the parallel shared-trace replay engine: each workload
//!   trace is materialized once and predictor configurations fan out
//!   across threads with per-PC sharding, merging to bit-identical tallies
//!   at any worker count.
//! * [`experiments`] — regeneration harnesses for every table and figure,
//!   driven by the `repro` binary and parallelized through the engine.
//!
//! This facade crate re-exports everything for one-line access:
//!
//! ```
//! use dvp::core::{FcmPredictor, Interned};
//! use dvp::trace::Pc;
//!
//! let mut fcm = Interned::new(FcmPredictor::new(2));
//! for &v in [1u64, 5, 9, 1, 5, 9, 1, 5].iter() {
//!     fcm.observe(Pc(0), v);
//! }
//! assert_eq!(fcm.predict(Pc(0)), Some(9));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// Every `rust` code block in README.md compiles and runs as a doctest of
// this crate, so the README's examples can never rot.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

pub use dvp_asm as asm;
pub use dvp_core as core;
pub use dvp_engine as engine;
pub use dvp_experiments as experiments;
pub use dvp_isa as isa;
pub use dvp_lang as lang;
pub use dvp_sim as sim;
pub use dvp_trace as trace;
pub use dvp_workloads as workloads;
