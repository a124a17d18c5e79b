//! Last-value prediction (Section 2.1 of the paper).

use crate::table::PcTable;
use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// An instruction's entry: the value it produced last.
#[derive(Debug, Clone)]
pub(crate) struct LastValueEntry {
    stored: Value,
}

// The unbounded table holds one entry per static instruction and the
// finite tables one per slot: the stored value alone.
const _: () = assert!(std::mem::size_of::<LastValueEntry>() == 8);

/// The last-value predictor: predicts that an instruction will produce the
/// same value it produced last time (the identity function — the simplest
/// *computational* predictor). Every update replaces the stored value: the
/// paper's always-update "l".
///
/// # Examples
///
/// ```
/// use dvp_core::{Interned, LastValuePredictor};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(LastValuePredictor::new());
/// let pc = Pc(0x40);
/// for v in [5, 5, 5, 5] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(5));
/// p.update(pc, 9);
/// assert_eq!(p.predict(pc), Some(9));
/// ```
#[derive(Debug, Clone, Default)]
pub struct LastValuePredictor {
    table: PcTable<LastValueEntry>,
}

impl LastValuePredictor {
    /// Creates an always-update last-value predictor (the paper's "l").
    #[must_use]
    pub fn new() -> Self {
        LastValuePredictor::default()
    }

    /// The prediction an entry holds. With [`step_slot`](Self::step_slot),
    /// this is the whole rule: the unbounded and the finite predictors run
    /// it over their own tables.
    pub(crate) fn predict_slot(entry: Option<&LastValueEntry>) -> Option<Value> {
        entry.map(|e| e.stored)
    }

    /// The fused slot step: reads the slot's prediction, then stores
    /// `actual` — one state access for the whole observation.
    #[inline]
    pub(crate) fn step_slot(slot: &mut Option<LastValueEntry>, actual: Value) -> Option<Value> {
        slot.replace(LastValueEntry { stored: actual }).map(|e| e.stored)
    }
}

impl Predictor for LastValuePredictor {
    fn name(&self) -> &str {
        "l"
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }

    fn reserve_ids(&mut self, n: usize) {
        self.table.reserve(n);
    }

    fn keeps_per_id_state(&self) -> bool {
        true
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        Self::predict_slot(self.table.get(id))
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        Self::step_slot(self.table.slot_mut(id), actual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interned;

    const PC: Pc = Pc(0x100);

    fn run(seq: &[Value]) -> Vec<Option<Value>> {
        let mut p = Interned::new(LastValuePredictor::new());
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
        let preds = run(&[1, 2, 2, 3]);
        assert_eq!(preds, vec![None, Some(1), Some(2), Some(2)]);
    }

    #[test]
    fn perfect_on_constant_sequence_after_one_observation() {
        let preds = run(&[5; 10]);
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
    fn name_is_the_papers() {
        assert_eq!(Interned::new(LastValuePredictor::new()).name(), "l");
    }
}
