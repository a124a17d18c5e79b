//! Value-trace vocabulary shared across the `dvp` workspace.
//!
//! The reproduction of *The Predictability of Data Values* (Sazeides & Smith,
//! MICRO-30, 1997) is organized around **value traces**: streams of
//! [`TraceRecord`]s, one per dynamic instruction that writes a general-purpose
//! register. A record carries the instruction's address ([`Pc`]), its
//! [`InstrCategory`] (the paper's Table 3 grouping), and the produced
//! [`Value`].
//!
//! This crate is deliberately tiny and dependency-free so that both the
//! producers of traces (the `dvp-sim` functional simulator) and the consumers
//! (the `dvp-core` predictors and the `dvp-experiments` harness) can share it
//! without pulling in each other.
//!
//! # Examples
//!
//! ```
//! use dvp_trace::{InstrCategory, Pc, TraceRecord, TraceSummary};
//!
//! let records = [
//!     TraceRecord::new(Pc(0x100), InstrCategory::AddSub, 1),
//!     TraceRecord::new(Pc(0x104), InstrCategory::Loads, 42),
//!     TraceRecord::new(Pc(0x100), InstrCategory::AddSub, 2),
//! ];
//! let summary: TraceSummary = records.iter().copied().collect();
//! assert_eq!(summary.dynamic_total(), 3);
//! assert_eq!(summary.static_total(), 2);
//! assert_eq!(summary.dynamic_count(InstrCategory::AddSub), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod category;
mod dataflow;
mod fnv;
mod intern;
pub mod io;
mod phase;
mod record;
mod summary;

pub use category::InstrCategory;
pub use dataflow::{DepNode, MAX_DEPS};
pub use fnv::{fnv1a64, Fnv};
pub use intern::{Observer, PcId, PcInterner, PcSlots};
pub use phase::{PhasePlan, PhasePlanError, SimPointPhase};
pub use record::{Pc, TraceRecord, Value};
pub use summary::{CategoryMix, TraceSummary};
