//! The dense per-instruction state table shared by every unbounded
//! predictor in this crate.
//!
//! The paper's idealized predictors keep "one table entry per static
//! instruction". [`PcTable`] models that entry set as a flat slot vector
//! indexed by the caller's dense [`PcId`]s: one bounds-checked access per
//! record, and no `Pc` anywhere.

use dvp_trace::PcId;

/// Dense per-static-instruction storage: `PcId → Option<S>`.
#[derive(Debug, Clone)]
pub(crate) struct PcTable<S> {
    slots: Vec<Option<S>>,
}

impl<S> Default for PcTable<S> {
    // Manual impl: the derive would needlessly bound `S: Default`.
    fn default() -> Self {
        PcTable { slots: Vec::new() }
    }
}

impl<S> PcTable<S> {
    /// Pre-sizes the slot vector for `n` dense ids.
    pub(crate) fn reserve(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, || None);
        }
    }

    /// Read-only slot lookup (`None` past the end).
    #[inline]
    pub(crate) fn get(&self, id: PcId) -> Option<&S> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable slot, growing the vector as needed.
    #[inline]
    pub(crate) fn slot_mut(&mut self, id: PcId) -> &mut Option<S> {
        let index = id.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        &mut self.slots[index]
    }

    /// Number of occupied slots (a scan: report time only).
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_addressed_by_id_and_grow_past_reserve() {
        let mut table: PcTable<u64> = PcTable::default();
        table.reserve(3);
        *table.slot_mut(PcId(2)) = Some(5);
        *table.slot_mut(PcId(10)) = Some(1);
        assert_eq!(table.get(PcId(2)), Some(&5));
        assert_eq!(table.get(PcId(10)), Some(&1));
        assert_eq!(table.get(PcId(0)), None);
        assert_eq!(table.get(PcId(11)), None);
        assert_eq!(table.len(), 2);
    }
}
