//! # dvp-experiments — regenerating every table and figure of the paper
//!
//! One module per experiment group of *The Predictability of Data Values*
//! (Sazeides & Smith, MICRO-30, 1997), plus the `repro` binary that prints
//! them:
//!
//! | paper artifact | module | `repro` id |
//! |----------------|--------|------------|
//! | Table 1 (LT/LD by sequence class) | [`analytic`] | `table1` |
//! | Figure 1 (FCM worked example)     | [`analytic`] | `figure1` |
//! | Figure 2 (stride vs fcm)          | [`analytic`] | `figure2` |
//! | Table 2 (benchmark characteristics) | [`characterize`] | `table2` |
//! | Table 3 (instruction categories)  | [`characterize`] | `table3` |
//! | Table 4 (static counts)           | [`characterize`] | `table4` |
//! | Table 5 (dynamic %)               | [`characterize`] | `table5` |
//! | Figures 3–7 (accuracy)            | [`accuracy`] | `figure3`..`figure7` |
//! | Figure 8 (correct-set overlap)    | [`overlap`] | `figure8` |
//! | Figure 9 (improvement curve)      | [`overlap`] | `figure9` |
//! | Figure 10 (unique values)         | [`values`] | `figure10` |
//! | Table 6 (input sensitivity)       | [`sensitivity`] | `table6` |
//! | Table 7 (flag sensitivity)        | [`sensitivity`] | `table7` |
//! | Figure 11 (order sweep)           | [`sensitivity`] | `figure11` |
//!
//! Four extension experiments go beyond the paper, relaxing its stated
//! idealizations (Section 3) and quantifying its Section 1.2 framing:
//!
//! | extension | module | `repro` id |
//! |-----------|--------|------------|
//! | accuracy vs table size (aliasing) | [`realism`] | `ext-tables` |
//! | accuracy vs update delay          | [`realism`] | `ext-delay` |
//! | value locality by history depth   | [`information`] | `ext-locality` |
//! | value-stream entropy vs accuracy  | [`information`] | `ext-entropy` |
//! | dataflow-limit speedup            | [`speedup`] | `ext-speedup` |
//! | synthetic scenario × predictor matrix | [`sweep`] | `sweep` (subcommand) |
//! | SimPoint phase plans + sampling error harness | [`phases`] | `phases` (subcommand), `--sample` |
//! | per-family perf smoke vs committed baseline | [`mod@bench`] | `bench` (subcommand) |
//!
//! All workload-driven experiments share a [`TraceStore`] so each benchmark
//! is simulated once per `repro` invocation — and, with `repro
//! --trace-dir`, at most once *ever* per configuration: the [`cache`]
//! module persists traces as chunked version-4 containers (byte-level
//! spec in `docs/TRACE_FORMAT.md`) that later runs load in parallel
//! instead of simulating, with byte-identical output. Both on-disk caches
//! write through one crash-safe path, [`durable`].
//!
//! # Examples
//!
//! ```
//! use dvp_experiments::{analytic, TraceStore};
//!
//! // The analytic experiments need no workloads at all:
//! let table1 = analytic::table1();
//! println!("{}", table1.render());
//!
//! // Workload-driven experiments share a trace store:
//! let mut store = TraceStore::with_scale_div(100); // tiny traces for docs
//! let table2 = dvp_experiments::characterize::table2(&mut store)?;
//! assert_eq!(table2.rows.len(), 7);
//! # Ok::<(), dvp_workloads::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod analytic;
pub mod bench;
pub mod cache;
pub mod characterize;
mod context;
pub mod durable;
pub mod information;
pub mod overlap;
pub mod phases;
pub mod realism;
pub mod result_cache;
pub mod sensitivity;
pub mod serve;
pub mod speedup;
pub mod sweep;
mod table_fmt;
pub mod values;

pub use context::{TraceStore, REFERENCE_OPT, STEP_BUDGET};
pub use table_fmt::{pct, TextTable};
