//! Finite-table predictors: the step from the paper's idealization to
//! implementable hardware.
//!
//! The paper simulates **unbounded** tables with one entry per static
//! instruction and flags the consequence itself (Section 4.3): *"We assume
//! unbounded tables in our study, but when real implementations are
//! considered, of course this will not be possible"*, and (Section 4.4)
//! *"these results are for unbounded tables, so aliasing effects caused by
//! different data set sizes will not appear. This may not be the case with
//! fixed table sizes."*
//!
//! This module supplies that missing step: fixed-size, direct-mapped
//! versions of all three predictor families and of the stride + context
//! hybrid, so the aliasing effect can be measured (see the `ext-tables`
//! experiment, `repro ext-tables`). The context-based predictor follows the
//! two-level **VHT/VPT** organization of Sazeides & Smith's own follow-up
//! technical report (*Implementations of Context Based Value Predictors*,
//! TR-ECE-97-8): a Value History Table indexed by PC holds the recent value
//! history, which is hashed into a Value Prediction Table holding one
//! predicted value per (hashed) context.
//!
//! Finiteness changes only *where* an instruction's entry lives, not the
//! rule that updates it. The last-value, two-delta stride and chooser rules
//! are the unbounded predictors' own (their `step_slot`s and the hybrid's
//! `arbitrate`/`train_chooser`), run here over the crate's direct-mapped
//! slot table, which alone computes slot indices and checks tags. Only the
//! VPT, one value per hashed context behind a 2-bit replacement counter,
//! has no unbounded counterpart.
//!
//! Within this module, predictions degrade for exactly two reasons, both of
//! which the unbounded predictors rule out by construction:
//!
//! * **index aliasing** — two static instructions (or two contexts) map to
//!   the same slot and overwrite each other's state;
//! * **lossy contexts** — the VPT keeps a single value per hashed context
//!   instead of exact per-value counts.

use crate::{hybrid, last_value::LastValueEntry, stride::StrideEntry, table::SlotTable};
use crate::{LastValuePredictor, Predictor, StridePolicy, StridePredictor};
use dvp_trace::{Pc, PcId, Value};

// The finite predictors index their direct-mapped tables by PC bits and
// ignore the dense id: aliasing between static instructions is the very
// effect they exist to measure.

/// Geometry of one direct-mapped prediction table.
///
/// A table has `2^index_bits` slots. Each slot optionally stores a partial
/// tag of `tag_bits` bits: with a tag, a lookup whose tag mismatches makes
/// **no** prediction (the slot is then reallocated on update); without tags
/// (`tag_bits == 0`) every lookup matches and aliasing instructions silently
/// share state — cheaper, but destructive.
///
/// # Examples
///
/// ```
/// use dvp_core::TableSpec;
///
/// let spec = TableSpec::new(10).with_tag_bits(8);
/// assert_eq!(spec.slots(), 1024);
/// assert_eq!(spec.tag_bits(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableSpec {
    index_bits: u32,
    tag_bits: u32,
}

impl TableSpec {
    /// A direct-mapped, untagged table with `2^index_bits` slots.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28 (a 256M-entry table
    /// stops being "finite" in any interesting sense).
    #[must_use]
    pub fn new(index_bits: u32) -> Self {
        assert!(
            (1..=28).contains(&index_bits),
            "index_bits {index_bits} outside the sensible range 1..=28"
        );
        TableSpec { index_bits, tag_bits: 0 }
    }

    /// Adds a partial tag of `tag_bits` bits to every slot.
    ///
    /// # Panics
    ///
    /// Panics if `tag_bits > 32`.
    #[must_use]
    pub fn with_tag_bits(self, tag_bits: u32) -> Self {
        assert!(tag_bits <= 32, "tag_bits {tag_bits} > 32");
        TableSpec { tag_bits, ..self }
    }

    /// Number of slots (`2^index_bits`).
    #[must_use]
    pub fn slots(&self) -> usize {
        1 << self.index_bits
    }

    /// Width of the index in bits.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Width of the per-slot tag in bits (0 = untagged).
    #[must_use]
    pub fn tag_bits(&self) -> u32 {
        self.tag_bits
    }

    /// Index of `pc`, folding all PC bits above the index into it so that
    /// large code footprints still spread over the whole table.
    ///
    /// Instruction addresses are word-aligned, so the two zero bits are
    /// dropped first (as any hardware table would).
    #[must_use]
    pub fn index_of(&self, pc: Pc) -> usize {
        fold(pc.0 >> 2, self.index_bits) as usize
    }

    /// The tag of `pc` under this geometry (0 when untagged).
    #[must_use]
    pub fn tag_of(&self, pc: Pc) -> u64 {
        // Tag from the bits just above the index, so PCs with equal index
        // still get distinct tags (a zero-width mask leaves 0).
        ((pc.0 >> 2) >> self.index_bits) & ((1u64 << self.tag_bits) - 1)
    }
}

/// Folds a 64-bit word into `bits` bits by xor-ing `bits`-wide chunks.
fn fold(mut word: u64, bits: u32) -> u64 {
    debug_assert!((1..=32).contains(&bits));
    let mask = (1u64 << bits) - 1;
    let mut acc = 0u64;
    while word != 0 {
        acc ^= word & mask;
        word >>= bits;
    }
    acc
}

/// Hashes an ordered value history into an `index_bits`-wide table index.
///
/// Each history element is folded to the index width and then rotated by its
/// position before xor-ing, so that the hash is order-sensitive (the
/// histories `[1, 2]` and `[2, 1]` map to different contexts, as full
/// concatenation would).
///
/// # Examples
///
/// ```
/// use dvp_core::hash_history;
///
/// let a = hash_history(&[1, 2, 3], 12);
/// let b = hash_history(&[3, 2, 1], 12);
/// assert!(a < 1 << 12);
/// assert_ne!(a, b); // order-sensitive
/// ```
#[must_use]
pub fn hash_history(history: &[Value], index_bits: u32) -> u64 {
    let mask = (1u64 << index_bits) - 1;
    let shift = (index_bits / 3).max(1);
    let mut acc = 0u64;
    for &v in history {
        acc = (acc << shift | acc >> (index_bits - shift.min(index_bits - 1))) & mask;
        acc ^= fold(v, index_bits);
    }
    acc & mask
}

/// A fixed-size, direct-mapped last-value predictor.
///
/// The finite counterpart of [`LastValuePredictor`] with the always-update
/// policy, whose rule it runs over a direct-mapped table. Aliasing static
/// instructions overwrite each other's last value (untagged) or evict each
/// other (tagged).
///
/// # Examples
///
/// ```
/// use dvp_core::{FiniteLastValuePredictor, Interned, TableSpec};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(FiniteLastValuePredictor::new(TableSpec::new(8)));
/// let pc = Pc(0x400100);
/// p.update(pc, 7);
/// assert_eq!(p.predict(pc), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct FiniteLastValuePredictor {
    name: String,
    table: SlotTable<LastValueEntry>,
}

impl FiniteLastValuePredictor {
    /// Creates the predictor with the given table geometry.
    #[must_use]
    pub fn new(spec: TableSpec) -> Self {
        let name = format!("l-{}", spec.slots());
        FiniteLastValuePredictor { name, table: SlotTable::new(spec) }
    }

    /// The table geometry.
    #[must_use]
    pub fn spec(&self) -> TableSpec {
        self.table.spec()
    }

    /// Estimated storage cost in bits (values + tags).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.spec().slots() as u64 * (64 + u64::from(self.spec().tag_bits()))
    }
}

impl Predictor for FiniteLastValuePredictor {
    fn predict(&self, _id: PcId, pc: Pc) -> Option<Value> {
        LastValuePredictor::predict_slot(self.table.get(pc))
    }

    fn step(&mut self, _id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        LastValuePredictor::step_slot(self.table.slot_mut(pc), actual)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }
}

/// A fixed-size, direct-mapped two-delta stride predictor.
///
/// The finite counterpart of [`StridePredictor::two_delta`], whose rule it
/// runs over a direct-mapped table. A tag mismatch resets the slot for the
/// new instruction (losing the old stride); untagged aliasing corrupts
/// strides silently.
///
/// # Examples
///
/// ```
/// use dvp_core::{FiniteStridePredictor, Interned, TableSpec};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(FiniteStridePredictor::new(TableSpec::new(8).with_tag_bits(8)));
/// let pc = Pc(0x80);
/// for v in [10, 20, 30] {
///     p.update(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(40));
/// ```
#[derive(Debug, Clone)]
pub struct FiniteStridePredictor {
    name: String,
    table: SlotTable<StrideEntry>,
}

impl FiniteStridePredictor {
    /// Creates the predictor with the given table geometry.
    #[must_use]
    pub fn new(spec: TableSpec) -> Self {
        FiniteStridePredictor { name: format!("s2-{}", spec.slots()), table: SlotTable::new(spec) }
    }

    /// The table geometry.
    #[must_use]
    pub fn spec(&self) -> TableSpec {
        self.table.spec()
    }

    /// Estimated storage cost in bits (three 64-bit fields + tag per slot).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.spec().slots() as u64 * (3 * 64 + u64::from(self.spec().tag_bits()))
    }
}

impl Predictor for FiniteStridePredictor {
    fn predict(&self, _id: PcId, pc: Pc) -> Option<Value> {
        StridePredictor::predict_slot(self.table.get(pc))
    }

    fn step(&mut self, _id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        StridePredictor::step_slot(StridePolicy::TwoDelta, self.table.slot_mut(pc), actual)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.table.len()
    }
}

/// A fixed-size two-level context-based (FCM) predictor.
///
/// The hardware organization from Sazeides & Smith's follow-up report: a
/// **Value History Table** (VHT) indexed by PC holds the last `order` values
/// of each static instruction; the history is hashed ([`hash_history`]) into
/// a **Value Prediction Table** (VPT) that stores a single predicted value
/// per hashed context, guarded by a 2-bit saturating replacement counter.
///
/// Relative to the unbounded [`FcmPredictor`](crate::FcmPredictor) this
/// predictor loses accuracy through VHT aliasing, VPT context aliasing, and
/// keeping one value (not a frequency distribution) per context — the three
/// costs of implementability.
///
/// # Examples
///
/// ```
/// use dvp_core::{FiniteFcmPredictor, Interned, TableSpec};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(FiniteFcmPredictor::new(2, TableSpec::new(8), TableSpec::new(12)));
/// let pc = Pc(0x10);
/// // Repeating non-stride sequence: learnable by context, not by stride.
/// for _ in 0..3 {
///     for v in [5u64, 19, 3] {
///         p.update(pc, v);
///     }
/// }
/// assert_eq!(p.predict(pc), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct FiniteFcmPredictor {
    order: usize,
    name: String,
    vht: SlotTable<Vec<Value>>,
    vpt_spec: TableSpec,
    vpt: Vec<Option<(Value, u8)>>,
}

impl FiniteFcmPredictor {
    /// Ceiling of the VPT replacement counter (2-bit counter).
    pub const DEFAULT_REPLACE_MAX: u8 = 3;

    /// Creates an order-`order` two-level predictor with the given VHT and
    /// VPT geometries and a 2-bit replacement counter.
    ///
    /// # Panics
    ///
    /// Panics if `order` is 0 or greater than 8 (the paper's sweep stops at
    /// 8 and hardware history registers are short).
    #[must_use]
    pub fn new(order: usize, vht_spec: TableSpec, vpt_spec: TableSpec) -> Self {
        assert!((1..=8).contains(&order), "order {order} outside 1..=8");
        let name = format!("fcm{order}-vht{}-vpt{}", vht_spec.slots(), vpt_spec.slots());
        let (vht, vpt) = (SlotTable::new(vht_spec), vec![None; vpt_spec.slots()]);
        FiniteFcmPredictor { order, name, vht, vpt_spec, vpt }
    }

    /// The VHT geometry.
    #[must_use]
    pub fn vht_spec(&self) -> TableSpec {
        self.vht.spec()
    }

    /// Estimated storage cost in bits: VHT histories + tags, VPT values +
    /// confidence counters.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let (vht, vpt) = (self.vht_spec(), self.vpt_spec);
        vht.slots() as u64 * (self.order as u64 * 64 + u64::from(vht.tag_bits()))
            + vpt.slots() as u64 * (64 + 2)
    }

    /// The VPT index of `pc`'s current context, if the VHT holds a
    /// full-length history for it.
    fn vpt_index(&self, pc: Pc) -> Option<usize> {
        let history = self.vht.get(pc).filter(|h| h.len() == self.order)?;
        Some(hash_history(history, self.vpt_spec.index_bits()) as usize)
    }

    /// The fused VPT step: reads the prediction of the current context's
    /// slot, then trains it with `actual` (hysteresis-guarded replacement).
    fn step_vpt(&mut self, vpt_index: usize, actual: Value) -> Option<Value> {
        let slot = &mut self.vpt[vpt_index];
        let prediction = slot.map(|(value, _)| value);
        match slot {
            Some((value, confidence)) if *value == actual => {
                *confidence = confidence.saturating_add(1).min(Self::DEFAULT_REPLACE_MAX);
            }
            Some((value, 0)) => *value = actual,
            Some((_, confidence)) => *confidence -= 1,
            None => *slot = Some((actual, 0)),
        }
        prediction
    }
}

impl Predictor for FiniteFcmPredictor {
    fn predict(&self, _id: PcId, pc: Pc) -> Option<Value> {
        self.vpt_index(pc).and_then(|i| self.vpt[i]).map(|(value, _)| value)
    }

    fn step(&mut self, _id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        // Step the VPT entry of the *current* context (hashed once for
        // both the prediction read and the training write), then shift
        // the new value into the VHT history.
        let prediction = self.vpt_index(pc).and_then(|i| self.step_vpt(i, actual));
        let history = self.vht.slot_mut(pc).get_or_insert_with(|| Vec::with_capacity(self.order));
        if history.len() == self.order {
            history.remove(0);
        }
        history.push(actual);
        prediction
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.vht.len()
    }
}

/// Saturation bound of the finite hybrid's chooser counters (the range of
/// a 2-bit-equivalent counter, `-3..=3`).
const CHOOSER_MAX: i16 = 3;

/// A fixed-size stride + context hybrid with a saturating-counter chooser.
///
/// Section 4.2 of the paper argues for a hybrid — *"one should try to use a
/// stride predictor for most predictions, and use fcm prediction to get the
/// remaining 20%"* — because context prediction "is the more expensive
/// approach". The cost argument only bites once tables are finite, so this
/// is the hybrid at its natural design point: both components and the
/// chooser are direct-mapped tables. Components predict and update on every
/// observation, and the chooser runs the rule of the unbounded
/// [`HybridPredictor`](crate::HybridPredictor) with bound 3. The chooser is
/// untagged (chooser aliasing is benign — it only sways which component is
/// asked first).
///
/// # Examples
///
/// ```
/// use dvp_core::{FiniteHybridPredictor, Interned, TableSpec};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(FiniteHybridPredictor::paper_geometry(10));
/// let pc = Pc(0x44);
/// // A stride run followed by a repeating non-stride: the hybrid rides the
/// // stride component first, then the chooser migrates to the context side.
/// for v in (0..20u64).map(|i| 4 * i) {
///     p.observe(pc, v);
/// }
/// assert_eq!(p.predict(pc), Some(80));
/// ```
#[derive(Debug, Clone)]
pub struct FiniteHybridPredictor {
    stride: FiniteStridePredictor,
    fcm: FiniteFcmPredictor,
    name: String,
    chooser: SlotTable<i16>,
}

impl FiniteHybridPredictor {
    /// Builds the hybrid with explicit geometries for the stride table, the
    /// FCM (VHT and VPT), and the chooser (whose tag bits are ignored).
    #[must_use]
    pub fn new(
        stride_spec: TableSpec,
        order: usize,
        vht_spec: TableSpec,
        vpt_spec: TableSpec,
        chooser_spec: TableSpec,
    ) -> Self {
        let stride = FiniteStridePredictor::new(stride_spec);
        let fcm = FiniteFcmPredictor::new(order, vht_spec, vpt_spec);
        let name = format!("hybrid-{}+{}", stride.name(), fcm.name());
        let chooser = SlotTable::new(TableSpec::new(chooser_spec.index_bits()));
        FiniteHybridPredictor { stride, fcm, name, chooser }
    }

    /// The balanced geometry used by the `table_sizing` example: stride,
    /// VHT and chooser tables of `2^index_bits` entries, an order-2 FCM,
    /// and a VPT four bits larger.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is outside `1..=24` (the VPT adds 4 bits and
    /// [`TableSpec::new`] caps at 28).
    #[must_use]
    pub fn paper_geometry(index_bits: u32) -> Self {
        assert!(
            (1..=24).contains(&index_bits),
            "index_bits {index_bits} outside the sensible range 1..=24"
        );
        let spec = TableSpec::new(index_bits);
        FiniteHybridPredictor::new(spec, 2, spec, TableSpec::new(index_bits + 4), spec)
    }

    /// The stride component.
    #[must_use]
    pub fn stride(&self) -> &FiniteStridePredictor {
        &self.stride
    }

    /// The context (FCM) component.
    #[must_use]
    pub fn fcm(&self) -> &FiniteFcmPredictor {
        &self.fcm
    }

    /// Whether the chooser currently favours the context component for
    /// `pc`. Fresh slots favour the (cheaper, faster-learning) stride side.
    #[must_use]
    pub fn favours_fcm(&self, pc: Pc) -> bool {
        self.chooser.get(pc).is_some_and(|&c| c > 0)
    }

    /// Total storage in bits: both components plus the 2-bit-equivalent
    /// chooser counters.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        let chooser = self.chooser.spec().slots() as u64 * 2;
        self.stride.storage_bits() + self.fcm.storage_bits() + chooser
    }
}

impl Predictor for FiniteHybridPredictor {
    fn predict(&self, id: PcId, pc: Pc) -> Option<Value> {
        let (s, f) = (self.stride.predict(id, pc), self.fcm.predict(id, pc));
        hybrid::arbitrate(self.chooser.get(pc).map_or(0, |&c| c), s, f)
    }

    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        let s = self.stride.step(id, pc, actual);
        let f = self.fcm.step(id, pc, actual);
        hybrid::train_chooser(self.chooser.slot_mut(pc), CHOOSER_MAX, (s, f), actual)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        self.stride.static_entries().max(self.fcm.static_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interned, LastValuePredictor, StridePredictor};

    const PC: Pc = Pc(0x400100);

    /// Finds two word-aligned PCs that share a slot index under `spec` but
    /// (when tagged) have different tags — a genuine aliasing pair.
    fn colliding_pair(spec: TableSpec) -> (Pc, Pc) {
        let a = Pc(0x100);
        for candidate in (1..1u64 << 20).map(|i| Pc(0x100 + i * 4)) {
            if spec.index_of(candidate) == spec.index_of(a)
                && (spec.tag_bits() == 0 || spec.tag_of(candidate) != spec.tag_of(a))
            {
                return (a, candidate);
            }
        }
        unreachable!("a colliding pair always exists in a 2^20 PC scan of a small table");
    }

    #[test]
    fn spec_slot_count_and_masking() {
        let spec = TableSpec::new(6);
        assert_eq!(spec.slots(), 64);
        for pc in (0..4096).map(|i| Pc(i * 4)) {
            assert!(spec.index_of(pc) < 64);
        }
    }

    #[test]
    fn spec_untagged_tags_are_zero() {
        let spec = TableSpec::new(6);
        assert_eq!(spec.tag_of(Pc(0x400100)), 0);
        assert_eq!(spec.tag_of(Pc(0x8)), 0);
    }

    #[test]
    fn spec_tags_distinguish_same_index_pcs() {
        let spec = TableSpec::new(6).with_tag_bits(8);
        let (a, b) = colliding_pair(spec);
        assert_eq!(spec.index_of(a), spec.index_of(b));
        assert_ne!(spec.tag_of(a), spec.tag_of(b));
    }

    #[test]
    #[should_panic(expected = "outside the sensible range")]
    fn spec_rejects_zero_index_bits() {
        let _ = TableSpec::new(0);
    }

    #[test]
    #[should_panic(expected = "outside the sensible range")]
    fn spec_rejects_huge_index_bits() {
        let _ = TableSpec::new(29);
    }

    #[test]
    fn fold_is_stable_and_bounded() {
        for bits in 1..=32 {
            let folded = fold(0xdead_beef_cafe_f00d, bits);
            assert!(folded < 1u64 << bits, "bits {bits}");
            assert_eq!(folded, fold(0xdead_beef_cafe_f00d, bits));
        }
        assert_eq!(fold(0, 8), 0);
    }

    #[test]
    fn history_hash_is_order_sensitive_and_bounded() {
        let h1 = hash_history(&[1, 2, 3], 10);
        let h2 = hash_history(&[3, 2, 1], 10);
        assert!(h1 < 1024 && h2 < 1024);
        assert_ne!(h1, h2);
        // And deterministic.
        assert_eq!(h1, hash_history(&[1, 2, 3], 10));
    }

    #[test]
    fn history_hash_handles_single_bit_tables() {
        assert!(hash_history(&[u64::MAX, 7, 0], 1) < 2);
    }

    #[test]
    fn finite_last_value_matches_unbounded_without_aliasing() {
        // 16 distinct PCs in a 256-slot tagged table: no collisions by
        // construction (consecutive word addresses map to consecutive slots).
        let spec = TableSpec::new(8).with_tag_bits(8);
        let mut finite = Interned::new(FiniteLastValuePredictor::new(spec));
        let mut ideal = Interned::new(LastValuePredictor::new());
        let mut state = 0x1234_5678_u64;
        for step in 0..2000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pc = Pc(0x400000 + (step % 16) * 4);
            let value = state >> 32;
            assert_eq!(finite.predict(pc), ideal.predict(pc), "step {step}");
            finite.update(pc, value);
            ideal.update(pc, value);
        }
    }

    #[test]
    fn finite_stride_matches_unbounded_without_aliasing() {
        let spec = TableSpec::new(8).with_tag_bits(8);
        let mut finite = Interned::new(FiniteStridePredictor::new(spec));
        let mut ideal = Interned::new(StridePredictor::two_delta());
        for step in 0u64..3000 {
            let pc = Pc(0x400000 + (step % 32) * 4);
            // Mix of stride-y and erratic values.
            let value = if step % 3 == 0 { step * 8 } else { step ^ 0x5a5a };
            assert_eq!(finite.predict(pc), ideal.predict(pc), "step {step}");
            finite.update(pc, value);
            ideal.update(pc, value);
        }
    }

    #[test]
    fn untagged_aliasing_is_destructive_for_last_value() {
        let spec = TableSpec::new(4);
        let mut p = Interned::new(FiniteLastValuePredictor::new(spec));
        let (a, b) = colliding_pair(spec);
        // Interleaved constant streams: each observation clobbers the other.
        let mut correct = 0;
        for _ in 0..50 {
            correct += u32::from(p.observe(a, 111));
            correct += u32::from(p.observe(b, 222));
        }
        assert_eq!(correct, 0, "untagged aliasing destroys two constant streams");

        // The unbounded predictor gets all but the two cold misses.
        let mut ideal = Interned::new(LastValuePredictor::new());
        let mut ideal_correct = 0;
        for _ in 0..50 {
            ideal_correct += u32::from(ideal.observe(a, 111));
            ideal_correct += u32::from(ideal.observe(b, 222));
        }
        assert_eq!(ideal_correct, 98);
    }

    #[test]
    fn tagged_aliasing_thrashes_but_never_mispredicts_across_pcs() {
        let spec = TableSpec::new(4).with_tag_bits(8);
        let mut p = Interned::new(FiniteLastValuePredictor::new(spec));
        let (a, b) = colliding_pair(spec);
        for _ in 0..10 {
            // After b's update, a's lookup tag-mismatches: no prediction,
            // never b's value.
            p.update(b, 222);
            assert_eq!(p.predict(a), None);
            p.update(a, 111);
            assert_eq!(p.predict(b), None);
        }
    }

    #[test]
    fn finite_fcm_learns_repeated_non_stride_sequence() {
        let mut p =
            Interned::new(FiniteFcmPredictor::new(2, TableSpec::new(8), TableSpec::new(12)));
        let period = [9u64, 4, 7, 12];
        let mut preds = Vec::new();
        for _ in 0..6 {
            for &v in &period {
                preds.push(p.predict(PC) == Some(v));
                p.update(PC, v);
            }
        }
        // After two periods every context has been installed once; with a
        // dedicated VPT there are no collisions and LD is 100%.
        assert!(preds[8..].iter().all(|&c| c), "{preds:?}");
    }

    #[test]
    fn finite_fcm_cold_start_makes_no_prediction() {
        let p = Interned::new(FiniteFcmPredictor::new(3, TableSpec::new(6), TableSpec::new(10)));
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn finite_fcm_needs_full_history_before_predicting() {
        let mut p =
            Interned::new(FiniteFcmPredictor::new(3, TableSpec::new(6), TableSpec::new(10)));
        p.update(PC, 1);
        p.update(PC, 2);
        assert_eq!(p.predict(PC), None, "only 2 of 3 history values present");
        p.update(PC, 3);
        // Full history now exists, but its context was never seen: the VPT
        // slot may be empty (no prediction) — never a panic.
        let _ = p.predict(PC);
    }

    #[test]
    fn finite_fcm_replacement_hysteresis_protects_stable_value() {
        // With a warm counter, a single interfering write does not evict the
        // established prediction.
        let mut p = Interned::new(FiniteFcmPredictor::new(1, TableSpec::new(4), TableSpec::new(8)));
        // Train: context [7] -> 7 repeatedly (constant stream).
        for _ in 0..10 {
            p.update(PC, 7);
        }
        assert_eq!(p.predict(PC), Some(7));
        // One deviation: context [7] -> 9. Counter absorbs it.
        p.update(PC, 9);
        // History is now [9]; drive it back to [7] and re-check context [7].
        p.update(PC, 7);
        assert_eq!(p.predict(PC), Some(7), "hysteresis kept the stable value");
    }

    #[test]
    fn vht_eviction_loses_history() {
        let vht = TableSpec::new(2).with_tag_bits(8); // 4 slots
        let mut p = Interned::new(FiniteFcmPredictor::new(2, vht, TableSpec::new(10)));
        let (a, b) = colliding_pair(vht); // same VHT slot, different tag
        for _ in 0..4 {
            for v in [1u64, 2, 3] {
                p.update(a, v);
            }
        }
        assert!(p.predict(a).is_some());
        p.update(b, 5); // evicts a's history
        assert_eq!(p.predict(a), None, "history lost to VHT eviction");
    }

    #[test]
    fn storage_bits_accounting() {
        let l = Interned::new(FiniteLastValuePredictor::new(TableSpec::new(10).with_tag_bits(8)));
        assert_eq!(l.storage_bits(), 1024 * (64 + 8));
        let s = Interned::new(FiniteStridePredictor::new(TableSpec::new(10)));
        assert_eq!(s.storage_bits(), 1024 * 192);
        let f = Interned::new(FiniteFcmPredictor::new(2, TableSpec::new(10), TableSpec::new(12)));
        assert_eq!(f.storage_bits(), 1024 * 128 + 4096 * 66);
    }

    #[test]
    fn names_encode_geometry() {
        assert_eq!(Interned::new(FiniteStridePredictor::new(TableSpec::new(8))).name(), "s2-256");
        assert_eq!(
            Interned::new(FiniteFcmPredictor::new(3, TableSpec::new(8), TableSpec::new(10))).name(),
            "fcm3-vht256-vpt1024"
        );
    }

    #[test]
    #[should_panic(expected = "outside 1..=8")]
    fn finite_fcm_rejects_order_zero() {
        let _ = Interned::new(FiniteFcmPredictor::new(0, TableSpec::new(4), TableSpec::new(8)));
    }

    #[test]
    fn static_entries_counts_occupied_slots() {
        let mut p = Interned::new(FiniteLastValuePredictor::new(TableSpec::new(8)));
        assert_eq!(p.static_entries(), 0);
        p.update(Pc(0x0), 1);
        p.update(Pc(0x4), 2);
        assert_eq!(p.static_entries(), 2);
        // Updating the same PC does not add a slot.
        p.update(Pc(0x0), 3);
        assert_eq!(p.static_entries(), 2);
    }

    #[test]
    fn rides_stride_component_on_affine_sequences() {
        let mut p = Interned::new(FiniteHybridPredictor::paper_geometry(8));
        let mut correct = 0;
        for v in (0..50u64).map(|i| 10 + 7 * i) {
            correct += u32::from(p.observe(PC, v));
        }
        assert!(correct >= 46, "stride side must carry affine runs: {correct}");
        assert!(!p.favours_fcm(PC), "no reason to leave the stride side");
    }

    #[test]
    fn chooser_migrates_to_fcm_on_repeated_non_strides() {
        let mut p = Interned::new(FiniteHybridPredictor::paper_geometry(8));
        let period = [11u64, 3, 99, 20];
        for _ in 0..12 {
            for &v in &period {
                p.observe(PC, v);
            }
        }
        assert!(p.favours_fcm(PC), "context side wins repeated non-strides");
        // And in steady state predictions are correct.
        let mut correct = 0;
        for _ in 0..3 {
            for &v in &period {
                correct += u32::from(p.observe(PC, v));
            }
        }
        assert_eq!(correct, 12);
    }

    #[test]
    fn beats_both_components_on_mixed_pcs() {
        // One PC strides (fcm cannot extrapolate), another rotates a
        // non-stride period (stride cannot follow): the hybrid must beat
        // either component alone on the combined trace.
        let stride_pc = Pc(0x100);
        let rotate_pc = Pc(0x104);
        let period = [5u64, 77, 13];
        let feed = |mut p: Interned<Box<dyn Predictor>>| {
            let mut correct = 0u32;
            for i in 0..300u64 {
                correct += u32::from(p.observe(stride_pc, 3 * i));
                correct += u32::from(p.observe(rotate_pc, period[(i % 3) as usize]));
            }
            correct
        };
        let hybrid = feed(Interned::new(Box::new(FiniteHybridPredictor::paper_geometry(10))));
        let stride_only =
            feed(Interned::new(Box::new(FiniteStridePredictor::new(TableSpec::new(10)))));
        let fcm_only = feed(Interned::new(Box::new(FiniteFcmPredictor::new(
            2,
            TableSpec::new(10),
            TableSpec::new(14),
        ))));
        assert!(hybrid > stride_only, "hybrid {hybrid} vs stride {stride_only}");
        assert!(hybrid > fcm_only, "hybrid {hybrid} vs fcm {fcm_only}");
    }

    #[test]
    fn falls_back_across_components_when_one_has_no_prediction() {
        let mut p = Interned::new(FiniteHybridPredictor::paper_geometry(6));
        // One observation: the stride side already predicts (last + 0), the
        // fcm side has no full history. The hybrid must still predict.
        p.update(PC, 42);
        assert_eq!(p.predict(PC), Some(42));
    }

    #[test]
    fn storage_accounts_for_all_three_structures() {
        let p = Interned::new(FiniteHybridPredictor::paper_geometry(8));
        let sum = p.stride().storage_bits() + p.fcm().storage_bits() + 256 * 2;
        assert_eq!(p.storage_bits(), sum);
    }

    #[test]
    fn name_is_composed() {
        let p = Interned::new(FiniteHybridPredictor::paper_geometry(4));
        assert_eq!(p.name(), "hybrid-s2-16+fcm2-vht16-vpt256");
    }

    #[test]
    #[should_panic(expected = "sensible range")]
    fn rejects_oversized_geometry() {
        let _ = Interned::new(FiniteHybridPredictor::paper_geometry(25));
    }
}
