//! PC interning: dense ids for static instructions.
//!
//! The paper's idealized predictors keep "one table entry per static
//! instruction" (Section 2). Interning assigns every distinct [`Pc`] in a
//! trace a dense [`PcId`] — `0, 1, 2, …` in order of first appearance — so
//! that a predictor's per-instruction state can live in a flat `Vec` indexed
//! by `PcId` instead of a hash map keyed by `Pc`. The replay hot loop then
//! pays one indexed slot access per record where it used to pay two hash
//! probes (`predict` then `update`), and a trace sharder can split the id
//! space into contiguous ranges instead of hashing every record's PC again.
//!
//! A [`PcInterner`] is materialized once per shared trace and carried
//! alongside it; the v2 trace container can persist it as an optional
//! section so warm cache loads skip the sequential interning pass (see
//! `docs/TRACE_FORMAT.md`).

use crate::{InstrCategory, Pc, Value};
use std::collections::HashMap;
use std::fmt;

/// A dense identifier for one static instruction within one trace.
///
/// Ids are assigned by a [`PcInterner`] in order of first appearance and are
/// only meaningful relative to the interner (or trace) that produced them:
/// id 3 of one trace and id 3 of another generally name different PCs.
///
/// # Examples
///
/// ```
/// use dvp_trace::{Pc, PcId, PcInterner};
///
/// let mut interner = PcInterner::new();
/// assert_eq!(interner.intern(Pc(0x400100)), PcId(0));
/// assert_eq!(interner.intern(Pc(0x400104)), PcId(1));
/// assert_eq!(interner.intern(Pc(0x400100)), PcId(0)); // stable
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PcId(pub u32);

impl PcId {
    /// The id as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A bijective symbol table between [`Pc`]s and dense [`PcId`]s.
///
/// Interning is deterministic: feeding the same PC sequence always produces
/// the same id assignment (first appearance order). Both directions are
/// O(1): [`PcInterner::get`] hashes a PC once, [`PcInterner::pc`] indexes a
/// vector.
///
/// # Examples
///
/// ```
/// use dvp_trace::{Pc, PcInterner};
///
/// let mut interner = PcInterner::new();
/// for pc in [Pc(8), Pc(4), Pc(8), Pc(12)] {
///     interner.intern(pc);
/// }
/// assert_eq!(interner.len(), 3);
/// assert_eq!(interner.pc(interner.get(Pc(4)).unwrap()), Pc(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PcInterner {
    ids: HashMap<Pc, PcId>,
    pcs: Vec<Pc>,
}

impl PcInterner {
    /// An empty interner.
    #[must_use]
    pub fn new() -> Self {
        PcInterner::default()
    }

    /// Rebuilds an interner from its id-ordered PC table (`pcs[i]` is the
    /// PC of id `i`) — the inverse of [`PcInterner::pcs`], used when a
    /// persisted table is loaded from a trace container.
    ///
    /// # Errors
    ///
    /// Returns the first duplicated [`Pc`] if the table is not injective (a
    /// corrupt or hand-edited section; a valid interner never repeats a
    /// PC).
    pub fn from_pcs(pcs: Vec<Pc>) -> Result<Self, Pc> {
        let mut ids = HashMap::with_capacity(pcs.len());
        for (index, &pc) in pcs.iter().enumerate() {
            if ids.insert(pc, PcId(index as u32)).is_some() {
                return Err(pc);
            }
        }
        Ok(PcInterner { ids, pcs })
    }

    /// The id of `pc`, assigning the next dense id on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct PCs are interned (a trace
    /// with four billion static instructions does not fit the dense-state
    /// model this type exists for).
    pub fn intern(&mut self, pc: Pc) -> PcId {
        if let Some(&id) = self.ids.get(&pc) {
            return id;
        }
        let id = PcId(u32::try_from(self.pcs.len()).expect("more than u32::MAX static PCs"));
        self.ids.insert(pc, id);
        self.pcs.push(pc);
        id
    }

    /// The id of `pc`, if it has been interned.
    #[must_use]
    pub fn get(&self, pc: Pc) -> Option<PcId> {
        self.ids.get(&pc).copied()
    }

    /// The PC of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    #[must_use]
    pub fn pc(&self, id: PcId) -> Pc {
        self.pcs[id.index()]
    }

    /// Number of distinct PCs interned (= the smallest id not yet
    /// assigned).
    #[must_use]
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether no PC has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The id-ordered PC table: element `i` is the PC of id `i`. This is
    /// the exact byte content of the container's persisted interner
    /// section.
    #[must_use]
    pub fn pcs(&self) -> &[Pc] {
        &self.pcs
    }

    /// Iterates `(id, pc)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PcId, Pc)> + '_ {
        self.pcs.iter().enumerate().map(|(index, &pc)| (PcId(index as u32), pc))
    }
}

impl PartialEq for PcInterner {
    fn eq(&self, other: &Self) -> bool {
        // The id-ordered table determines the map; comparing it alone keeps
        // equality O(n) and independent of hash-map iteration order.
        self.pcs == other.pcs
    }
}

impl Eq for PcInterner {}

/// Per-static-instruction state, stored densely by [`PcId`]: slot `i`
/// holds id `i`'s state and its [`Pc`], recorded when the slot is created,
/// so reports name their instructions without the interner that drove
/// the fold.
#[derive(Debug, Clone)]
pub struct PcSlots<T> {
    slots: Vec<Option<(Pc, T)>>,
}

impl<T> Default for PcSlots<T> {
    fn default() -> Self {
        PcSlots { slots: Vec::new() }
    }
}

impl<T> PcSlots<T> {
    /// The state of `id`, created by `make` and tagged with `pc` on first
    /// sight.
    pub fn get_or_insert_with(&mut self, id: PcId, pc: Pc, make: impl FnOnce() -> T) -> &mut T {
        if id.index() >= self.slots.len() {
            self.slots.resize_with(id.index() + 1, || None);
        }
        &mut self.slots[id.index()].get_or_insert_with(|| (pc, make())).1
    }

    /// Iterates the occupied slots as `(pc, state)`, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Pc, &T)> + '_ {
        self.slots.iter().flatten().map(|(pc, state)| (*pc, state))
    }

    /// Folds `other` in, matching slots by PC (shards of a resident trace
    /// share its ids, but each consumer of a streamed container interns
    /// its own): `add` combines the states of a PC both hold, and the rest
    /// are appended. The merged table is a report; its slots follow no
    /// interner.
    pub fn merge(&mut self, other: PcSlots<T>, mut add: impl FnMut(&mut T, T)) {
        let index: HashMap<Pc, usize> =
            self.slots.iter().enumerate().filter_map(|(i, s)| Some((s.as_ref()?.0, i))).collect();
        for (pc, state) in other.slots.into_iter().flatten() {
            match index.get(&pc).and_then(|&i| self.slots[i].as_mut()) {
                Some((_, mine)) => add(mine, state),
                None => self.slots.push(Some((pc, state))),
            }
        }
    }
}

/// A fold over a trace's records that the replay driver runs sharded by
/// PC: correlated predictor sets, the per-instruction profiles, trace
/// summaries.
///
/// Records arrive in trace order as parallel columns, with ids from one
/// interner per observer. State is per PC and totals are exact sums, so
/// the merge of observers of a trace's disjoint PC shards equals the
/// observer of the whole trace, at any shard count.
pub trait Observer: Sized {
    /// Folds a run of records, given as parallel columns.
    fn observe_batch(
        &mut self,
        ids: &[PcId],
        pcs: &[Pc],
        values: &[Value],
        categories: &[InstrCategory],
    );

    /// Folds in another observer's report of records this one did not see.
    fn merge(&mut self, other: Self);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_first_appearance_ordered() {
        let mut interner = PcInterner::new();
        let stream = [Pc(0x20), Pc(0x10), Pc(0x20), Pc(0x30), Pc(0x10)];
        let ids: Vec<PcId> = stream.iter().map(|&pc| interner.intern(pc)).collect();
        assert_eq!(ids, [PcId(0), PcId(1), PcId(0), PcId(2), PcId(1)]);
        assert_eq!(interner.len(), 3);
        assert_eq!(interner.pcs(), [Pc(0x20), Pc(0x10), Pc(0x30)]);
    }

    #[test]
    fn round_trips_both_directions() {
        let mut interner = PcInterner::new();
        for i in 0..100u64 {
            interner.intern(Pc(4 * (i % 37)));
        }
        for (id, pc) in interner.iter() {
            assert_eq!(interner.get(pc), Some(id));
            assert_eq!(interner.pc(id), pc);
        }
        assert_eq!(interner.len(), 37);
    }

    #[test]
    fn from_pcs_rebuilds_and_rejects_duplicates() {
        let mut original = PcInterner::new();
        for pc in [Pc(8), Pc(16), Pc(4)] {
            original.intern(pc);
        }
        let rebuilt = PcInterner::from_pcs(original.pcs().to_vec()).expect("injective");
        assert_eq!(rebuilt, original);
        assert_eq!(rebuilt.get(Pc(16)), Some(PcId(1)));

        let dup = PcInterner::from_pcs(vec![Pc(8), Pc(4), Pc(8)]);
        assert_eq!(dup.unwrap_err(), Pc(8));
    }

    #[test]
    fn empty_interner_is_well_behaved() {
        let interner = PcInterner::new();
        assert!(interner.is_empty());
        assert_eq!(interner.get(Pc(0)), None);
        assert_eq!(interner.iter().count(), 0);
        assert_eq!(PcInterner::from_pcs(Vec::new()).unwrap(), interner);
    }

    #[test]
    fn slots_merge_by_pc_across_unrelated_id_spaces() {
        let mut a: PcSlots<u64> = PcSlots::default();
        *a.get_or_insert_with(PcId(0), Pc(8), || 0) += 3;
        *a.get_or_insert_with(PcId(2), Pc(4), || 0) += 1;
        let mut b: PcSlots<u64> = PcSlots::default();
        *b.get_or_insert_with(PcId(0), Pc(4), || 0) += 10;
        *b.get_or_insert_with(PcId(3), Pc(12), || 0) += 5;
        assert_eq!((a.iter().count(), b.iter().count()), (2, 2));
        a.merge(b, |mine, theirs| *mine += theirs);
        let mut merged: Vec<(Pc, u64)> = a.iter().map(|(pc, &n)| (pc, n)).collect();
        merged.sort_unstable();
        assert_eq!(merged, [(Pc(4), 11), (Pc(8), 3), (Pc(12), 5)]);
        assert_eq!(PcSlots::<u8>::default().iter().count(), 0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(PcId(7).to_string(), "#7");
    }
}
