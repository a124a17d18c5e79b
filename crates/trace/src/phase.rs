//! SimPoint-style phase-sampling plans.
//!
//! A [`PhasePlan`] summarizes a trace as a small set of *representative
//! windows*: the trace is sliced into fixed-length record windows, each
//! window is fingerprinted with a behavior vector, the vectors are
//! clustered, and one window per cluster — weighted by how many records
//! its cluster covers — stands in for the whole trace during replay.
//! Replaying only the representatives (plus a short warmup prefix each)
//! approximates full-trace predictor accuracy at a small fraction of the
//! records.
//!
//! This crate owns only the *vocabulary* and the on-disk shape (the plan
//! persists as the `PHAS` optional section of a trace container — see
//! `docs/TRACE_FORMAT.md`); the profiling pass, the clustering, and the
//! sampled replay live in `dvp-engine`.
//!
//! # Examples
//!
//! ```
//! use dvp_trace::{PhasePlan, SimPointPhase};
//!
//! let plan = PhasePlan {
//!     window_records: 100,
//!     warmup_records: 100,
//!     seed: 7,
//!     total_records: 1000,
//!     phases: vec![
//!         SimPointPhase { cluster_records: 600, start: 200, end: 300 },
//!         SimPointPhase { cluster_records: 400, start: 700, end: 800 },
//!     ],
//! };
//! plan.validate().expect("well-formed plan");
//! assert!((plan.weight(0) - 0.6).abs() < 1e-12);
//! assert_eq!(plan.simulated_records(), 200);
//! ```

use std::fmt;

/// One phase of a [`PhasePlan`]: a cluster of similar trace windows,
/// represented by the single window `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPointPhase {
    /// Total records across every window of this cluster — the phase's
    /// weight numerator (the denominator is the plan's `total_records`).
    pub cluster_records: u64,
    /// First record index (inclusive) of the representative window.
    pub start: u64,
    /// One past the last record index of the representative window.
    pub end: u64,
}

impl SimPointPhase {
    /// Records in the representative window.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.end - self.start
    }
}

/// A complete phase-sampling plan for one trace.
///
/// The plan is pure data: record indices into the trace it was built
/// from, integer cluster sizes (so the on-disk form has no floats and
/// round-trips exactly), and the parameters that produced it. Weights
/// are derived: phase *i* carries `cluster_records[i] / total_records`,
/// and [`PhasePlan::validate`] guarantees the weights sum to exactly 1.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhasePlan {
    /// Records per profiling window (every window of the trace, not just
    /// the representatives, had this many records; the final window may
    /// have fewer).
    pub window_records: u64,
    /// Records replayed untallied immediately before each representative
    /// window to warm predictor state (clamped at the start of the
    /// trace).
    pub warmup_records: u64,
    /// Seed of the deterministic clustering that produced the plan.
    pub seed: u64,
    /// Total records of the trace the plan was built from.
    pub total_records: u64,
    /// The phases, ordered by ascending `start`.
    pub phases: Vec<SimPointPhase>,
}

/// Why a [`PhasePlan`] failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhasePlanError {
    message: String,
}

impl fmt::Display for PhasePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid phase plan: {}", self.message)
    }
}

impl std::error::Error for PhasePlanError {}

fn plan_err(message: impl Into<String>) -> PhasePlanError {
    PhasePlanError { message: message.into() }
}

impl PhasePlan {
    /// Checks the plan's internal consistency: a positive window length,
    /// non-empty in-bounds representative windows no longer than one
    /// window each, strictly ascending and non-overlapping phases, and
    /// cluster sizes that sum to exactly `total_records` (so the derived
    /// weights sum to exactly 1). An empty-trace plan must be entirely
    /// empty.
    ///
    /// # Errors
    ///
    /// Returns a [`PhasePlanError`] naming the first violation.
    pub fn validate(&self) -> Result<(), PhasePlanError> {
        if self.total_records == 0 {
            return if self.phases.is_empty() {
                Ok(())
            } else {
                Err(plan_err("phases present for an empty trace"))
            };
        }
        if self.window_records == 0 {
            return Err(plan_err("window length is zero"));
        }
        if self.phases.is_empty() {
            return Err(plan_err("no phases for a non-empty trace"));
        }
        let mut covered = 0u64;
        let mut prev_end = 0u64;
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.start >= phase.end {
                return Err(plan_err(format!(
                    "phase {i} window {}..{} is empty or reversed",
                    phase.start, phase.end
                )));
            }
            if phase.end > self.total_records {
                return Err(plan_err(format!(
                    "phase {i} window ends at {} past the {}-record trace",
                    phase.end, self.total_records
                )));
            }
            if phase.window_len() > self.window_records {
                return Err(plan_err(format!(
                    "phase {i} window holds {} records, over the {}-record window length",
                    phase.window_len(),
                    self.window_records
                )));
            }
            if i > 0 && phase.start < prev_end {
                return Err(plan_err(format!(
                    "phase {i} window starts at {} inside the previous phase (ends {prev_end})",
                    phase.start
                )));
            }
            prev_end = phase.end;
            covered = covered.checked_add(phase.cluster_records).ok_or_else(|| {
                plan_err(format!("cluster record counts overflow u64 at phase {i}"))
            })?;
        }
        if covered != self.total_records {
            return Err(plan_err(format!(
                "cluster record counts sum to {covered}, trace holds {}",
                self.total_records
            )));
        }
        Ok(())
    }

    /// The weight of phase `index`: the fraction of the trace its cluster
    /// covers. Weights over all phases sum to exactly 1 for a validated
    /// plan (the integer numerators sum to the denominator).
    #[must_use]
    pub fn weight(&self, index: usize) -> f64 {
        if self.total_records == 0 {
            return 0.0;
        }
        self.phases[index].cluster_records as f64 / self.total_records as f64
    }

    /// Records inside representative (tallied) windows.
    #[must_use]
    pub fn simulated_records(&self) -> u64 {
        self.phases.iter().map(SimPointPhase::window_len).sum()
    }

    /// Records a sampled replay touches: each representative window plus
    /// its warmup prefix (clamped at record 0). Phases replay as
    /// independent jobs — each warms its own cold predictor — so a warmup
    /// region overlapping an earlier phase still costs its records again.
    #[must_use]
    pub fn replayed_records(&self) -> u64 {
        self.phases
            .iter()
            .map(|phase| phase.end - phase.start.saturating_sub(self.warmup_records))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> PhasePlan {
        PhasePlan {
            window_records: 10,
            warmup_records: 10,
            seed: 1,
            total_records: 100,
            phases: vec![
                SimPointPhase { cluster_records: 30, start: 0, end: 10 },
                SimPointPhase { cluster_records: 70, start: 50, end: 60 },
            ],
        }
    }

    #[test]
    fn valid_plan_passes_and_weights_sum_to_one() {
        let plan = plan();
        plan.validate().expect("valid");
        let sum: f64 = (0..plan.phases.len()).map(|i| plan.weight(i)).sum();
        assert_eq!(sum, 1.0);
        assert_eq!(plan.simulated_records(), 20);
        // Phase 0 starts at 0 (no warmup possible), phase 1 warms 40..50.
        assert_eq!(plan.replayed_records(), 30);
    }

    #[test]
    fn empty_trace_plan_is_valid_only_when_empty() {
        let empty = PhasePlan::default();
        empty.validate().expect("empty plan for empty trace");
        let bad = PhasePlan { phases: plan().phases, ..PhasePlan::default() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_out_of_range_and_overlapping_windows() {
        let mut past_end = plan();
        past_end.phases[1].end = 101;
        past_end.phases[1].start = 91;
        assert!(past_end.validate().unwrap_err().to_string().contains("past"));

        let mut reversed = plan();
        reversed.phases[0].end = 0;
        assert!(reversed.validate().is_err());

        let mut overlapping = plan();
        overlapping.phases[1].start = 5;
        overlapping.phases[1].end = 15;
        assert!(overlapping.validate().unwrap_err().to_string().contains("inside"));

        let mut oversized = plan();
        oversized.phases[1].start = 40;
        assert!(oversized.validate().unwrap_err().to_string().contains("window length"));
    }

    #[test]
    fn rejects_weights_not_summing_to_total() {
        let mut short = plan();
        short.phases[1].cluster_records = 60;
        assert!(short.validate().unwrap_err().to_string().contains("sum to 90"));
    }

    #[test]
    fn warmup_counts_per_phase_even_when_regions_overlap() {
        let mut adjacent = plan();
        adjacent.phases[1].start = 10;
        adjacent.phases[1].end = 20;
        adjacent.validate().expect("adjacent windows are valid");
        // Phase 1's warmup region 0..10 coincides with phase 0's window,
        // but each phase replays independently with its own cold
        // predictor, so those records cost twice: 10 + (20 - 0).
        assert_eq!(adjacent.replayed_records(), 30);
    }
}
