//! Where a predictor keeps an instruction's entry.
//!
//! The paper's idealized predictors keep "one table entry per static
//! instruction". [`PcTable`] models that entry set as a flat slot vector
//! indexed by the caller's dense [`PcId`]s: one bounds-checked access per
//! record, and no `Pc` anywhere.
//!
//! The finite predictors run the same per-entry rules over [`SlotTable`],
//! the direct-mapped table of the VHT/VPT organization: `2^index_bits`
//! slots picked by PC bits ([`TableSpec`]), each owned by the instruction
//! whose partial tag it holds. A lookup under another tag finds nothing,
//! and a write under another tag first empties the slot, so the rule
//! starts a fresh entry for the new owner. Untagged tables give every
//! instruction the tag 0: aliasing instructions silently share an entry.

use crate::TableSpec;
use dvp_trace::{Pc, PcId};

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

/// Direct-mapped, optionally tagged storage: `Pc → Option<S>` over
/// [`TableSpec::slots`] slots, each holding its owner's tag and entry.
#[derive(Debug, Clone)]
pub(crate) struct SlotTable<S> {
    spec: TableSpec,
    slots: Vec<(u64, Option<S>)>,
}

impl<S> SlotTable<S> {
    /// An empty table of the given geometry.
    pub(crate) fn new(spec: TableSpec) -> Self {
        SlotTable { spec, slots: (0..spec.slots()).map(|_| (0, None)).collect() }
    }

    /// The table geometry.
    pub(crate) fn spec(&self) -> TableSpec {
        self.spec
    }

    /// The entry `pc`'s slot holds, if `pc`'s tag owns it.
    #[inline]
    pub(crate) fn get(&self, pc: Pc) -> Option<&S> {
        let (owner, entry) = &self.slots[self.spec.index_of(pc)];
        entry.as_ref().filter(|_| *owner == self.spec.tag_of(pc))
    }

    /// `pc`'s slot, reallocated (emptied and re-tagged) first when another
    /// tag owns it.
    #[inline]
    pub(crate) fn slot_mut(&mut self, pc: Pc) -> &mut Option<S> {
        let tag = self.spec.tag_of(pc);
        let (owner, entry) = &mut self.slots[self.spec.index_of(pc)];
        if *owner != tag {
            (*owner, *entry) = (tag, None);
        }
        entry
    }

    /// Number of occupied slots (a scan: report time only).
    pub(crate) fn len(&self) -> usize {
        self.slots.iter().filter(|(_, entry)| entry.is_some()).count()
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

    #[test]
    fn a_foreign_tag_misses_and_a_write_under_it_reallocates() {
        // 16 slots, 8-bit tags: word 0x11 folds to slot 0 under tag 1.
        let mut table: SlotTable<u64> = SlotTable::new(TableSpec::new(4).with_tag_bits(8));
        let (a, b) = (Pc(0), Pc(0x11 * 4));
        *table.slot_mut(a) = Some(1);
        assert_eq!(table.get(a), Some(&1));
        assert_eq!(table.get(b), None, "b's tag does not own the slot");
        assert_eq!(*table.slot_mut(b), None, "writing under b's tag empties the slot");
        *table.slot_mut(b) = Some(2);
        assert_eq!(table.get(a), None);
        assert_eq!(table.get(b), Some(&2));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn untagged_aliases_share_one_entry() {
        let mut table: SlotTable<u64> = SlotTable::new(TableSpec::new(4));
        let (a, b) = (Pc(0), Pc(0x11 * 4));
        *table.slot_mut(a) = Some(1);
        assert_eq!(table.get(b), Some(&1));
        assert_eq!(table.slot_mut(b).take(), Some(1));
        assert_eq!(table.len(), 0);
    }
}
