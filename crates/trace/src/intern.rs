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
/// O(1): [`PcInterner::pc`] indexes a vector, and [`PcInterner::get`] and
/// [`PcInterner::intern`] first try a direct-mapped memo of `(pc, id)`
/// slots (one multiply, one load, one compare; a power of two at least
/// twice the PC count, at most 4096 slots, so 64 KiB) before they hash the
/// PC into the map that owns the ids. `intern` and [`PcInterner::from_pcs`]
/// fill the memo and `get` only reads it, so a built interner is shared
/// read-only across threads. A PC whose slot holds another PC falls
/// through to the map: PCs crafted to collide in the memo cost one
/// compare more than the map alone, never a scan.
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
#[derive(Clone, Default)]
pub struct PcInterner {
    ids: HashMap<Pc, PcId>,
    pcs: Vec<Pc>,
    /// Direct-mapped `(pc, id + 1)` slots in front of `ids`; a zero tag
    /// marks an empty slot. Empty (no slots) until the first PC lands.
    memo: Vec<(Pc, u32)>,
}

/// The most memo slots an interner keeps (64 KiB of `(Pc, u32)` pairs).
const MEMO_CAP: usize = 4096;

/// The fewest memo slots an interner with any PC keeps.
const MEMO_MIN: usize = 16;

impl fmt::Debug for PcInterner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcInterner").field("pcs", &self.pcs).finish_non_exhaustive()
    }
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
        let mut interner = PcInterner { ids, pcs, memo: Vec::new() };
        interner.resize_memo();
        Ok(interner)
    }

    /// The id of `pc`, assigning the next dense id on first sight.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct PCs are interned (a trace
    /// with four billion static instructions does not fit the dense-state
    /// model this type exists for).
    pub fn intern(&mut self, pc: Pc) -> PcId {
        if let Some(id) = self.memo_get(pc) {
            return id;
        }
        let next = self.pcs.len();
        let id = *self
            .ids
            .entry(pc)
            .or_insert_with(|| PcId(u32::try_from(next).expect("more than u32::MAX static PCs")));
        if id.index() == next {
            self.pcs.push(pc);
            if self.memo.len() < MEMO_CAP && 2 * self.pcs.len() > self.memo.len() {
                self.resize_memo();
            }
        }
        self.memo_put(pc, id);
        id
    }

    /// The id of `pc`, if it has been interned.
    #[must_use]
    pub fn get(&self, pc: Pc) -> Option<PcId> {
        self.memo_get(pc).or_else(|| self.ids.get(&pc).copied())
    }

    /// The memo slot of `pc`: the top bits of a Fibonacci multiply. The
    /// engine's `shard_of_pc` takes the same product's upper word modulo
    /// the shard count, which fixes its low bits, not its top ones, so
    /// the PCs of one streaming shard still spread over every slot.
    fn memo_slot(&self, pc: Pc) -> usize {
        let bits = self.memo.len().trailing_zeros();
        (pc.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    fn memo_get(&self, pc: Pc) -> Option<PcId> {
        if self.memo.is_empty() {
            return None;
        }
        let (slot_pc, tag) = self.memo[self.memo_slot(pc)];
        (slot_pc == pc && tag != 0).then(|| PcId(tag - 1))
    }

    /// Files `pc` in its slot. The memo has slots once any PC is
    /// interned; the one id without a tag (`u32::MAX`) stays in the map
    /// only.
    fn memo_put(&mut self, pc: Pc, id: PcId) {
        if let Some(tag) = id.0.checked_add(1) {
            let slot = self.memo_slot(pc);
            self.memo[slot] = (pc, tag);
        }
    }

    /// Rebuilds the memo at the power of two at least twice the PC count
    /// (within [`MEMO_MIN`]..=[`MEMO_CAP`]), refilled in id order.
    fn resize_memo(&mut self) {
        if self.pcs.is_empty() {
            return;
        }
        let slots = (2 * self.pcs.len()).next_power_of_two().clamp(MEMO_MIN, MEMO_CAP);
        self.memo = vec![(Pc(0), 0); slots];
        for index in 0..self.pcs.len() {
            self.memo_put(self.pcs[index], PcId(index as u32));
        }
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

/// A fold over a trace's records that the replay driver runs in one pass
/// in trace order: the per-instruction profiles, trace summaries.
///
/// Records arrive in trace order as parallel columns, with ids from one
/// interner per observer. Totals are exact sums, so when state is
/// strictly per PC the merge of observers of a trace's disjoint sets of
/// PCs equals the observer of the whole trace, whatever the order the PCs
/// were visited in.
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

    /// Interns `stream` with `get` before and after every `intern`, and
    /// checks ids, lookups, the PC table, `Clone`, `==` and `from_pcs`
    /// against a `HashMap` oracle. Returns the interner.
    fn check_against_oracle(stream: &[Pc], absent: Pc) -> PcInterner {
        let mut interner = PcInterner::new();
        let mut oracle: HashMap<Pc, PcId> = HashMap::new();
        let mut order = Vec::new();
        for (step, &pc) in stream.iter().enumerate() {
            assert_eq!(interner.get(pc), oracle.get(&pc).copied(), "get before, step {step}");
            let want = *oracle.entry(pc).or_insert_with(|| {
                order.push(pc);
                PcId(order.len() as u32 - 1)
            });
            assert_eq!(interner.intern(pc), want, "intern, step {step}");
            assert_eq!(interner.get(pc), Some(want), "get after, step {step}");
            assert_eq!(interner.get(absent), None);
            if step % 7 == 0 {
                // An earlier PC, which may have lost its memo slot since.
                let earlier = stream[step / 2];
                assert_eq!(interner.get(earlier), oracle.get(&earlier).copied());
            }
        }
        assert_eq!(interner.pcs(), order);
        assert_eq!(interner.len(), oracle.len());
        for (&pc, &id) in &oracle {
            assert_eq!(interner.get(pc), Some(id));
            assert_eq!(interner.pc(id), pc);
        }
        let rebuilt = PcInterner::from_pcs(order.clone()).expect("injective");
        let mut clone = interner.clone();
        assert!(rebuilt == interner && clone == interner);
        for &pc in &order {
            assert_eq!(
                (rebuilt.get(pc), clone.get(pc)),
                (oracle.get(&pc).copied(), oracle.get(&pc).copied())
            );
        }
        // The clone interns on its own; the original is untouched.
        assert_eq!(clone.intern(absent), PcId(order.len() as u32));
        assert!(clone != interner);
        assert_eq!(interner.get(absent), None);
        interner
    }

    /// The multiplicative inverse of an odd `k` modulo 2^64.
    fn inverse(k: u64) -> u64 {
        let mut x = k; // correct to 3 bits; each Newton step doubles that
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(k.wrapping_mul(x)));
        }
        x
    }

    #[test]
    fn pcs_crafted_to_share_one_memo_slot_fall_through_to_the_map() {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let k_inv = inverse(K);
        assert_eq!(K.wrapping_mul(k_inv), 1);
        // 600 PCs whose products share their top 12 bits: one slot at
        // every memo size up to the cap.
        let crafted: Vec<Pc> =
            (0..600u64).map(|i| Pc(k_inv.wrapping_mul((0xABC << 52) | i))).collect();
        let mut stream: Vec<Pc> = crafted.iter().flat_map(|&pc| [pc, crafted[0], pc]).collect();
        stream.extend(crafted.iter().rev());
        let interner = check_against_oracle(&stream, Pc(k_inv.wrapping_mul((0xABC << 52) | 999)));
        let slots: std::collections::HashSet<usize> =
            crafted.iter().map(|&pc| interner.memo_slot(pc)).collect();
        assert_eq!(slots.len(), 1);
        assert_eq!(interner.memo.len(), 2048);
    }

    #[test]
    fn more_pcs_than_memo_slots_keep_first_appearance_ids() {
        let mut state = 7u64;
        let stream: Vec<Pc> = (0..40_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                Pc(4 * ((state >> 40) % 6_000))
            })
            .collect();
        let interner = check_against_oracle(&stream, Pc(3));
        assert!(interner.len() > MEMO_CAP, "{} PCs", interner.len());
        assert_eq!(interner.memo.len(), MEMO_CAP);
        let rebuilt = PcInterner::from_pcs(interner.pcs().to_vec()).expect("injective");
        assert_eq!(rebuilt.memo.len(), MEMO_CAP);
    }

    #[test]
    fn memo_grows_with_the_pc_count() {
        let mut interner = PcInterner::new();
        assert!(interner.memo.is_empty());
        let mut next = 0u64;
        for (n, want) in [(1, MEMO_MIN), (8, MEMO_MIN), (9, 32), (100, 256), (1025, MEMO_CAP)] {
            for pc in next..n {
                assert_eq!(interner.intern(Pc(8 * pc)), PcId(pc as u32));
            }
            next = n;
            assert_eq!(interner.memo.len(), want, "{n} PCs");
        }
        check_against_oracle(&[Pc(0), Pc(0), Pc(16), Pc(0)], Pc(8));
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
