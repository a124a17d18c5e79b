//! The realizable hybrid: finite stride + finite context + finite chooser.
//!
//! Section 4.2 of the paper argues for a hybrid — *"one should try to use a
//! stride predictor for most predictions, and use fcm prediction to get the
//! remaining 20%"* — because context prediction "is the more expensive
//! approach". The cost argument only bites once tables are finite, so this
//! module provides the hybrid at its natural design point: every structure
//! (both components and the chooser) is a fixed-size direct-mapped table.
//!
//! This is the destination of the paper's whole Section 4: measured
//! accuracy close to the idealized fcm at a fraction of its storage,
//! because the stride component covers the strides cheaply and the
//! context component's tables only need to win on the hard 20%.

use crate::finite::{FiniteFcmPredictor, FiniteStridePredictor, TableSpec};
use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// A fixed-size stride + context hybrid with a saturating-counter chooser.
///
/// All three structures are direct-mapped tables; the chooser is untagged
/// (chooser aliasing is benign — it only sways which component is asked
/// first). Components predict and update on every observation, exactly like
/// the unbounded [`HybridPredictor`](crate::HybridPredictor); the chooser
/// counter moves toward the component that was correct when the other was
/// wrong.
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
    chooser_spec: TableSpec,
    chooser: Vec<i8>,
    chooser_max: i8,
}

impl FiniteHybridPredictor {
    /// Builds the hybrid with explicit geometries for the stride table, the
    /// FCM (VHT and VPT), and the chooser.
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
        FiniteHybridPredictor {
            stride,
            fcm,
            name,
            chooser_spec,
            chooser: vec![0; chooser_spec.slots()],
            chooser_max: 3,
        }
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
        self.chooser[self.chooser_spec.index_of(pc)] > 0
    }

    /// Total storage in bits: both components plus the 2-bit-equivalent
    /// chooser counters.
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.stride.storage_bits() + self.fcm.storage_bits() + self.chooser_spec.slots() as u64 * 2
    }
}

impl Predictor for FiniteHybridPredictor {
    fn predict(&self, id: PcId, pc: Pc) -> Option<Value> {
        let (s, f) = (self.stride.predict(id, pc), self.fcm.predict(id, pc));
        if self.favours_fcm(pc) {
            f.or(s)
        } else {
            s.or(f)
        }
    }

    fn step(&mut self, id: PcId, pc: Pc, actual: Value) -> Option<Value> {
        // The fused feed loop: each component predicts and trains in one
        // table walk (its own fused step), and the chooser slot is indexed
        // once for both the arbitration read and the training write.
        let s_pred = self.stride.step(id, pc, actual);
        let f_pred = self.fcm.step(id, pc, actual);
        let slot = &mut self.chooser[self.chooser_spec.index_of(pc)];
        let prediction = if *slot > 0 { f_pred.or(s_pred) } else { s_pred.or(f_pred) };
        let s_correct = s_pred == Some(actual);
        let f_correct = f_pred == Some(actual);
        if s_correct != f_correct {
            *slot = if f_correct {
                (*slot + 1).min(self.chooser_max)
            } else {
                (*slot - 1).max(-self.chooser_max)
            };
        }
        prediction
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
    use crate::Interned;

    const PC: Pc = Pc(0x400100);

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
