//! Dataflow-limit analysis: what value prediction buys in execution time.
//!
//! The paper's introduction motivates value prediction as an attack on
//! *"data dependences [that] are often thought to present a fundamental
//! performance barrier"*, and its Section 5 concludes that *"value
//! prediction has significant potential for performance improvement"*. This
//! module quantifies that potential with the classic dataflow-limit model
//! of Lipasti & Shen (reference [2] of the paper):
//!
//! * Execution is constrained **only** by data dependences (perfect control
//!   prediction, unlimited fetch/issue width, unit-latency operations).
//! * The **dataflow height** of a trace is the longest dependence chain —
//!   the minimum number of cycles any machine obeying true dependences
//!   needs.
//! * A **correctly predicted** value breaks the dependence edges leaving
//!   its producer: consumers issue immediately instead of waiting.
//! * A **mispredicted** value (when speculating on every prediction) costs
//!   its consumers a recovery `penalty` on top of the true completion time.
//!
//! Speedup is the ratio of unpredicted to predicted dataflow height. This
//! is a limit study in exactly the paper's spirit: it bounds what any real
//! pipeline could get from the studied predictors.

use crate::{Interned, Predictor};
use dvp_trace::DepNode;

/// The longest data-dependence chain in `nodes`, in unit-latency cycles.
///
/// Every node costs one cycle and can start only after all of its producers
/// have finished. An empty trace has height 0.
///
/// # Examples
///
/// ```
/// use dvp_core::dataflow_height;
/// use dvp_trace::{DepNode, InstrCategory, Pc, TraceRecord};
///
/// let rec = |v| Some(TraceRecord::new(Pc(0x100), InstrCategory::AddSub, v));
/// let chain = vec![
///     DepNode::new(rec(1), [None, None, None]),
///     DepNode::new(rec(2), [Some(0), None, None]),
///     DepNode::new(rec(3), [Some(1), None, None]),
/// ];
/// assert_eq!(dataflow_height(&chain), 3);
/// ```
#[must_use]
pub fn dataflow_height(nodes: &[DepNode]) -> u64 {
    let mut finish = vec![0u64; nodes.len()];
    let mut height = 0;
    for (i, node) in nodes.iter().enumerate() {
        let ready = node.deps().map(|d| finish[d as usize]).max().unwrap_or(0);
        finish[i] = ready + 1;
        height = height.max(finish[i]);
    }
    height
}

/// Outcome of a value-predicted dataflow-limit run (see
/// [`value_predicted_height`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeedupReport {
    /// Dataflow height without prediction.
    pub base_height: u64,
    /// Dataflow height with the predictor breaking dependences.
    pub vp_height: u64,
    /// Total nodes in the trace (including stores).
    pub nodes: u64,
    /// Predictable (register-writing) nodes.
    pub predictable: u64,
    /// Nodes for which the predictor ventured a prediction.
    pub predicted: u64,
    /// Nodes predicted correctly.
    pub correct: u64,
}

impl SpeedupReport {
    /// `base_height / vp_height` — the dataflow-limit speedup.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.vp_height == 0 {
            1.0
        } else {
            self.base_height as f64 / self.vp_height as f64
        }
    }

    /// Prediction accuracy over predictable nodes (the paper's metric).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.predictable == 0 {
            0.0
        } else {
            self.correct as f64 / self.predictable as f64
        }
    }

    /// Dataflow-limit instructions per cycle without prediction.
    #[must_use]
    pub fn base_ipc(&self) -> f64 {
        if self.base_height == 0 {
            0.0
        } else {
            self.nodes as f64 / self.base_height as f64
        }
    }
}

/// Computes the dataflow height when `predictor` speculates on values, and
/// the baseline height, in one pass.
///
/// For every predictable node the predictor is consulted (and immediately
/// updated, the paper's idealization). The value a consumer waits for
/// becomes available at:
///
/// * time 0 — producer predicted correctly (the dependence is broken);
/// * producer finish + `penalty` — predicted but wrong (mis-speculation
///   recovery);
/// * producer finish — no prediction was made (no speculation attempted).
///
/// With `penalty == 0` mis-speculation is free and the result is the pure
/// oracle-gated relaxation: `vp_height <= base_height` always holds.
///
/// # Examples
///
/// ```
/// use dvp_core::{value_predicted_height, Interned, LastValuePredictor};
/// use dvp_trace::{DepNode, InstrCategory, Pc, TraceRecord};
///
/// // A dependence chain of constant values: last-value prediction breaks
/// // every edge after its first observation.
/// let rec = |v| Some(TraceRecord::new(Pc(0x100), InstrCategory::AddSub, v));
/// let nodes: Vec<DepNode> = (0..10u64)
///     .map(|i| DepNode::new(rec(7), [i.checked_sub(1), None, None]))
///     .collect();
/// let report = value_predicted_height(&nodes, &mut Interned::new(LastValuePredictor::new()), 0);
/// assert_eq!(report.base_height, 10);
/// assert!(report.vp_height < report.base_height);
/// assert!(report.speedup() > 1.0);
/// ```
#[must_use]
pub fn value_predicted_height<P: Predictor + ?Sized>(
    nodes: &[DepNode],
    predictor: &mut Interned<P>,
    penalty: u64,
) -> SpeedupReport {
    let mut base_finish = vec![0u64; nodes.len()];
    let mut vp_finish = vec![0u64; nodes.len()];
    // When a consumer may use node i's value: 0 if predicted correctly,
    // vp_finish + penalty if mispredicted, vp_finish if unpredicted.
    let mut avail = vec![0u64; nodes.len()];
    let mut report = SpeedupReport {
        base_height: 0,
        vp_height: 0,
        nodes: nodes.len() as u64,
        predictable: 0,
        predicted: 0,
        correct: 0,
    };
    for (i, node) in nodes.iter().enumerate() {
        let base_ready = node.deps().map(|d| base_finish[d as usize]).max().unwrap_or(0);
        base_finish[i] = base_ready + 1;
        report.base_height = report.base_height.max(base_finish[i]);

        let vp_ready = node.deps().map(|d| avail[d as usize]).max().unwrap_or(0);
        vp_finish[i] = vp_ready + 1;
        report.vp_height = report.vp_height.max(vp_finish[i]);

        avail[i] = match node.record {
            Some(rec) => {
                report.predictable += 1;
                match predictor.step(rec.pc, rec.value) {
                    Some(v) if v == rec.value => {
                        report.predicted += 1;
                        report.correct += 1;
                        0
                    }
                    Some(_) => {
                        report.predicted += 1;
                        vp_finish[i].saturating_add(penalty)
                    }
                    None => vp_finish[i],
                }
            }
            // Stores cannot be predicted; their consumers always wait.
            None => vp_finish[i],
        };
    }
    report
}

/// The dataflow height with a perfect (oracle) value predictor: every
/// register value is known at dispatch, so only store-to-load forwarding
/// chains remain.
///
/// This is the absolute floor of [`value_predicted_height`] over all
/// possible predictors and the dataflow analog of the paper's "data values
/// are very predictable" headline.
///
/// # Examples
///
/// ```
/// use dvp_core::{dataflow_height, oracle_height};
/// use dvp_trace::{DepNode, InstrCategory, Pc, TraceRecord};
///
/// let rec = |v| Some(TraceRecord::new(Pc(0x100), InstrCategory::AddSub, v));
/// let chain: Vec<DepNode> = (0..8u64)
///     .map(|i| DepNode::new(rec(i * i), [i.checked_sub(1), None, None]))
///     .collect();
/// assert_eq!(dataflow_height(&chain), 8);
/// assert_eq!(oracle_height(&chain), 1); // every edge breaks
/// ```
#[must_use]
pub fn oracle_height(nodes: &[DepNode]) -> u64 {
    let mut avail = vec![0u64; nodes.len()];
    let mut height = 0;
    for (i, node) in nodes.iter().enumerate() {
        let ready = node.deps().map(|d| avail[d as usize]).max().unwrap_or(0);
        let finish = ready + 1;
        height = height.max(finish);
        avail[i] = if node.is_predictable() { 0 } else { finish };
    }
    height
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FcmPredictor, LastValuePredictor, StridePredictor};
    use dvp_trace::{InstrCategory, Pc, TraceRecord};

    fn rec(pc: u64, value: u64) -> Option<TraceRecord> {
        Some(TraceRecord::new(Pc(pc), InstrCategory::AddSub, value))
    }

    fn chain(values: &[u64]) -> Vec<DepNode> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                DepNode::new(rec(0x100, v), [i.checked_sub(1).map(|p| p as u64), None, None])
            })
            .collect()
    }

    #[test]
    fn empty_trace_has_zero_height() {
        assert_eq!(dataflow_height(&[]), 0);
        assert_eq!(oracle_height(&[]), 0);
    }

    #[test]
    fn independent_nodes_have_height_one() {
        let nodes: Vec<DepNode> =
            (0..50).map(|i| DepNode::new(rec(0x100 + i * 4, i), [None, None, None])).collect();
        assert_eq!(dataflow_height(&nodes), 1);
    }

    #[test]
    fn chain_height_equals_length() {
        let nodes = chain(&[1, 2, 3, 4, 5]);
        assert_eq!(dataflow_height(&nodes), 5);
    }

    #[test]
    fn diamond_takes_longest_path() {
        // 0 -> {1, 2} -> 3, with an extra hop under 2.
        let nodes = vec![
            DepNode::new(rec(0x0, 1), [None, None, None]),
            DepNode::new(rec(0x4, 2), [Some(0), None, None]),
            DepNode::new(rec(0x8, 3), [Some(0), None, None]),
            DepNode::new(rec(0xc, 4), [Some(2), None, None]),
            DepNode::new(rec(0x10, 5), [Some(1), Some(3), None]),
        ];
        assert_eq!(dataflow_height(&nodes), 4);
    }

    #[test]
    fn oracle_reduces_all_register_chains_to_unit_height() {
        let nodes = chain(&[5, 9, 2, 8, 4]);
        assert_eq!(oracle_height(&nodes), 1);
    }

    #[test]
    fn oracle_cannot_break_store_chains() {
        // store -> load -> store -> load (alternating, all linked).
        let nodes = vec![
            DepNode::new(None, [None, None, None]),
            DepNode::new(rec(0x4, 1), [Some(0), None, None]),
            DepNode::new(None, [Some(1), None, None]),
            DepNode::new(rec(0xc, 2), [Some(2), None, None]),
        ];
        // Loads are predicted (avail 0) but stores still wait for loads'
        // finish via their own register inputs... here store 2 waits on
        // load 1? No: load 1 is predictable, so its avail is 0. Store 2
        // finishes at 1; load 3 waits for store 2: finish 2.
        assert_eq!(oracle_height(&nodes), 2);
    }

    #[test]
    fn perfect_last_value_prediction_collapses_constant_chain() {
        let nodes = chain(&[7; 20]);
        let report =
            value_predicted_height(&nodes, &mut Interned::new(LastValuePredictor::new()), 0);
        assert_eq!(report.base_height, 20);
        // First node unpredicted (cold), afterwards every edge breaks.
        assert!(report.vp_height <= 3, "{report:?}");
        assert!(report.speedup() > 6.0);
        assert_eq!(report.correct, 19);
    }

    #[test]
    fn stride_prediction_collapses_induction_chain() {
        let values: Vec<u64> = (0..32).map(|i| 100 + 4 * i).collect();
        let nodes = chain(&values);
        let report =
            value_predicted_height(&nodes, &mut Interned::new(StridePredictor::two_delta()), 0);
        assert_eq!(report.base_height, 32);
        assert!(report.vp_height < 8, "{report:?}");
    }

    #[test]
    fn random_values_get_no_speedup() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let values: Vec<u64> = (0..64)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            })
            .collect();
        let nodes = chain(&values);
        let report = value_predicted_height(&nodes, &mut Interned::new(FcmPredictor::new(2)), 0);
        assert_eq!(report.base_height, report.vp_height, "{report:?}");
        assert!((report.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_penalty_never_hurts() {
        // Anti-correlated values: stride predicts but is always wrong.
        let values: Vec<u64> = (0..40).map(|i| if i % 2 == 0 { 0 } else { u64::MAX / 2 }).collect();
        let nodes = chain(&values);
        let report =
            value_predicted_height(&nodes, &mut Interned::new(StridePredictor::two_delta()), 0);
        assert!(report.vp_height <= report.base_height, "{report:?}");
    }

    #[test]
    fn penalty_makes_reckless_speculation_costly() {
        let values: Vec<u64> = (0..40).map(|i| (i * i) ^ 0x55).collect();
        let nodes = chain(&values);
        let free =
            value_predicted_height(&nodes, &mut Interned::new(StridePredictor::two_delta()), 0);
        let costly =
            value_predicted_height(&nodes, &mut Interned::new(StridePredictor::two_delta()), 10);
        assert!(costly.vp_height > free.vp_height, "{costly:?} vs {free:?}");
        assert!(costly.vp_height > costly.base_height, "penalty can exceed the baseline");
    }

    #[test]
    fn report_counters_are_consistent() {
        let nodes = chain(&[1, 2, 3, 1, 2, 3, 1, 2, 3]);
        let report = value_predicted_height(&nodes, &mut Interned::new(FcmPredictor::new(2)), 0);
        assert_eq!(report.nodes, 9);
        assert_eq!(report.predictable, 9);
        assert!(report.correct <= report.predicted);
        assert!(report.predicted <= report.predictable);
        assert!((0.0..=1.0).contains(&report.accuracy()));
        assert!(report.base_ipc() > 0.0);
    }

    #[test]
    fn oracle_is_a_lower_bound_for_any_predictor() {
        let values: Vec<u64> = (0..64).map(|i| (i % 5) * 3).collect();
        let nodes = chain(&values);
        let oracle = oracle_height(&nodes);
        for p in [
            Box::new(LastValuePredictor::new()) as Box<dyn Predictor>,
            Box::new(StridePredictor::two_delta()),
            Box::new(FcmPredictor::new(3)),
        ] {
            let mut p = Interned::new(p);
            let report = value_predicted_height(&nodes, &mut p, 0);
            assert!(report.vp_height >= oracle, "{} beat the oracle", p.name());
        }
    }
}
