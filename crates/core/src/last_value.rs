//! Last-value prediction (Section 2.1 of the paper).

use crate::table::PcTable;
use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// Replacement policy of a [`LastValuePredictor`].
///
/// The paper describes the always-update form plus two hysteresis variants
/// and notes their subtle difference: the saturating-counter form switches to
/// a new value after (possibly inconsistent) incorrect behavior, whereas the
/// consecutive-confirmation form switches only after the new value has been
/// observed several times *in succession*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LastValuePolicy {
    /// Replace the stored value on every update. This is the policy the
    /// paper evaluates (predictor "l").
    #[default]
    Always,
    /// Saturating-counter hysteresis: the counter is incremented on a correct
    /// prediction (up to `max`) and decremented on an incorrect one; the
    /// stored value is replaced only when the counter falls below
    /// `threshold`.
    SaturatingCounter {
        /// Saturation ceiling of the counter.
        max: u8,
        /// Replacement happens when the counter is below this value.
        threshold: u8,
    },
    /// Replace the stored value only after the same new value has been seen
    /// this many times in a row.
    ConsecutiveConfirm {
        /// Number of consecutive occurrences required before switching.
        required: u8,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct LastValueEntry {
    stored: Value,
    counter: u8,
    candidate: Option<Value>,
    run: u8,
}

/// The last-value predictor: predicts that an instruction will produce the
/// same value it produced last time (the identity function — the simplest
/// *computational* predictor).
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, LastValuePolicy, LastValuePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(LastValuePredictor::new());
/// let pc = Pc(0x40);
/// for v in [5, 5, 5, 5] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(5));
///
/// // A sticky variant that needs two consecutive sightings to switch:
/// let mut sticky = Interned::new(LastValuePredictor::with_policy(
///     LastValuePolicy::ConsecutiveConfirm { required: 2 },
/// ));
/// sticky.update(pc, 5);
/// sticky.update(pc, 9); // first sighting of 9: still predicts 5
/// assert_eq!(sticky.predict(pc), Some(5));
/// sticky.update(pc, 9); // second consecutive sighting: switches
/// assert_eq!(sticky.predict(pc), Some(9));
/// ```
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    policy: LastValuePolicy,
    name: String,
    table: PcTable<LastValueEntry>,
}

impl Default for LastValuePredictor {
    fn default() -> Self {
        LastValuePredictor::with_policy(LastValuePolicy::default())
    }
}

impl LastValuePredictor {
    /// Creates an always-update last-value predictor (the paper's "l").
    #[must_use]
    pub fn new() -> Self {
        LastValuePredictor::default()
    }

    /// Creates a last-value predictor with the given replacement `policy`.
    #[must_use]
    pub fn with_policy(policy: LastValuePolicy) -> Self {
        let name = match policy {
            LastValuePolicy::Always => "l".to_owned(),
            LastValuePolicy::SaturatingCounter { max, threshold } => {
                format!("l-sat{max}t{threshold}")
            }
            LastValuePolicy::ConsecutiveConfirm { required } => format!("l-conf{required}"),
        };
        LastValuePredictor { policy, name, table: PcTable::default() }
    }

    /// The replacement policy in use.
    #[must_use]
    pub fn policy(&self) -> LastValuePolicy {
        self.policy
    }

    fn update_entry(policy: LastValuePolicy, entry: &mut LastValueEntry, actual: Value) {
        match policy {
            LastValuePolicy::Always => entry.stored = actual,
            LastValuePolicy::SaturatingCounter { max, threshold } => {
                if actual == entry.stored {
                    entry.counter = entry.counter.saturating_add(1).min(max);
                } else {
                    entry.counter = entry.counter.saturating_sub(1);
                    if entry.counter < threshold {
                        entry.stored = actual;
                        entry.counter = threshold;
                    }
                }
            }
            LastValuePolicy::ConsecutiveConfirm { required } => {
                if actual == entry.stored {
                    entry.candidate = None;
                    entry.run = 0;
                } else {
                    if entry.candidate == Some(actual) {
                        entry.run = entry.run.saturating_add(1);
                    } else {
                        entry.candidate = Some(actual);
                        entry.run = 1;
                    }
                    if entry.run >= required.max(1) {
                        entry.stored = actual;
                        entry.candidate = None;
                        entry.run = 0;
                    }
                }
            }
        }
    }

    /// The prediction an entry holds. With [`step_slot`](Self::step_slot),
    /// this is the whole rule: the unbounded and the finite predictors run
    /// it over their own tables.
    pub(crate) fn predict_slot(entry: Option<&LastValueEntry>) -> Option<Value> {
        entry.map(|e| e.stored)
    }

    /// The fused slot step: reads the slot's prediction, then applies the
    /// update — one state access for the whole observation.
    #[inline]
    pub(crate) fn step_slot(
        policy: LastValuePolicy,
        slot: &mut Option<LastValueEntry>,
        actual: Value,
    ) -> Option<Value> {
        match slot {
            Some(entry) => {
                let prediction = entry.stored;
                Self::update_entry(policy, entry, actual);
                Some(prediction)
            }
            None => {
                *slot =
                    Some(LastValueEntry { stored: actual, counter: 0, candidate: None, run: 0 });
                None
            }
        }
    }
}

impl Predictor for LastValuePredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.table.reserve(n);
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        Self::predict_slot(self.table.get(id))
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        Self::step_slot(self.policy, self.table.slot_mut(id), actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interned;

    const PC: Pc = Pc(0x100);

    fn run(policy: LastValuePolicy, seq: &[Value]) -> Vec<Option<Value>> {
        let mut p = Interned::new(LastValuePredictor::with_policy(policy));
        seq.iter()
            .map(|&v| {
                let pred = p.predict(PC);
                p.update(PC, v);
                pred
            })
            .collect()
    }

    #[test]
    fn always_tracks_most_recent_value() {
        let preds = run(LastValuePolicy::Always, &[1, 2, 2, 3]);
        assert_eq!(preds, vec![None, Some(1), Some(2), Some(2)]);
    }

    #[test]
    fn perfect_on_constant_sequence_after_one_observation() {
        let preds = run(LastValuePolicy::Always, &[5; 10]);
        assert_eq!(preds[0], None);
        assert!(preds[1..].iter().all(|&p| p == Some(5)));
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut p = Interned::new(LastValuePredictor::new());
        p.update(Pc(0), 1);
        p.update(Pc(4), 2);
        assert_eq!(p.predict(Pc(0)), Some(1));
        assert_eq!(p.predict(Pc(4)), Some(2));
        assert_eq!(p.static_entries(), 2);
    }

    #[test]
    fn saturating_counter_resists_transient_change() {
        let policy = LastValuePolicy::SaturatingCounter { max: 3, threshold: 2 };
        // Build up confidence in 7, then see a single blip of 9.
        let preds = run(policy, &[7, 7, 7, 7, 9, 7, 7]);
        // After the blip the counter drops but stays >= threshold, so the
        // stored value remains 7 and the post-blip prediction is correct.
        assert_eq!(preds[5], Some(7));
        assert_eq!(preds[6], Some(7));
    }

    #[test]
    fn saturating_counter_eventually_switches() {
        let policy = LastValuePolicy::SaturatingCounter { max: 3, threshold: 2 };
        let mut p = Interned::new(LastValuePredictor::with_policy(policy));
        p.update(PC, 7);
        for _ in 0..10 {
            p.update(PC, 9);
        }
        assert_eq!(p.predict(PC), Some(9));
    }

    #[test]
    fn consecutive_confirm_requires_run_of_new_value() {
        let policy = LastValuePolicy::ConsecutiveConfirm { required: 3 };
        let mut p = Interned::new(LastValuePredictor::with_policy(policy));
        p.update(PC, 1);
        p.update(PC, 2);
        p.update(PC, 2);
        assert_eq!(p.predict(PC), Some(1), "two sightings are not enough");
        p.update(PC, 2);
        assert_eq!(p.predict(PC), Some(2), "third consecutive sighting switches");
    }

    #[test]
    fn consecutive_confirm_run_is_broken_by_interleaving() {
        let policy = LastValuePolicy::ConsecutiveConfirm { required: 2 };
        // 2s never occur twice in a row, so the prediction stays 1.
        let preds = run(policy, &[1, 2, 1, 2, 1, 2, 1]);
        assert!(preds[1..].iter().all(|&p| p == Some(1)), "{preds:?}");
    }

    #[test]
    fn confirm_required_zero_behaves_like_required_one() {
        let policy = LastValuePolicy::ConsecutiveConfirm { required: 0 };
        let mut p = Interned::new(LastValuePredictor::with_policy(policy));
        p.update(PC, 1);
        p.update(PC, 2);
        assert_eq!(p.predict(PC), Some(2));
    }

    #[test]
    fn names_distinguish_policies() {
        assert_eq!(Interned::new(LastValuePredictor::new()).name(), "l");
        let sat =
            Interned::new(LastValuePredictor::with_policy(LastValuePolicy::SaturatingCounter {
                max: 3,
                threshold: 1,
            }));
        assert_eq!(sat.name(), "l-sat3t1");
        let conf =
            Interned::new(LastValuePredictor::with_policy(LastValuePolicy::ConsecutiveConfirm {
                required: 2,
            }));
        assert_eq!(conf.name(), "l-conf2");
    }
}
