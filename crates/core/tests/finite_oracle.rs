//! The finite-table predictors, pinned outcome for outcome to their
//! per-record direct-mapped rules.
//!
//! Each oracle below spells one finite predictor out as the hardware does
//! it: a slot vector indexed by `TableSpec::index_of`, a partial tag per
//! slot that must match for a prediction, and a slot reallocated when an
//! update arrives under another tag. The oracles carry their own copies of
//! the last-value, two-delta stride, VHT shift, VPT hysteresis and chooser
//! arithmetic, so the predictors, which run the unbounded families' shared
//! rules over one direct-mapped table, are checked against an independent
//! statement of every rule. Random PC/value streams over 2–6-bit tables,
//! tagged and untagged, make aliasing and tag thrash the common case.

use dvp_core::{
    hash_history, FiniteFcmPredictor, FiniteHybridPredictor, FiniteLastValuePredictor,
    FiniteStridePredictor, Interned, Predictor, TableSpec,
};
use dvp_trace::{Pc, Value};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };

/// A per-record oracle: the prediction in force, then the update.
trait Oracle {
    fn predict(&self, pc: Pc) -> Option<Value>;
    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value>;
    fn occupied(&self) -> usize;
}

/// A direct-mapped slot vector; each slot holds `(tag, state)`.
fn slots<S: Clone>(spec: TableSpec) -> Vec<Option<(u64, S)>> {
    vec![None; spec.slots()]
}

/// The state `pc`'s slot holds under `pc`'s tag.
fn lookup<S>(spec: TableSpec, slots: &[Option<(u64, S)>], pc: Pc) -> Option<&S> {
    let (tag, state) = slots[spec.index_of(pc)].as_ref()?;
    (*tag == spec.tag_of(pc)).then_some(state)
}

struct LastValueOracle {
    spec: TableSpec,
    slots: Vec<Option<(u64, Value)>>,
}

impl Oracle for LastValueOracle {
    fn predict(&self, pc: Pc) -> Option<Value> {
        lookup(self.spec, &self.slots, pc).copied()
    }

    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.predict(pc);
        self.slots[self.spec.index_of(pc)] = Some((self.spec.tag_of(pc), actual));
        prediction
    }

    fn occupied(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Two-delta stride state: `(last, stride, last_delta)`.
type StrideState = (Value, Value, Value);

struct StrideOracle {
    spec: TableSpec,
    slots: Vec<Option<(u64, StrideState)>>,
}

impl Oracle for StrideOracle {
    fn predict(&self, pc: Pc) -> Option<Value> {
        lookup(self.spec, &self.slots, pc).map(|&(last, stride, _)| last.wrapping_add(stride))
    }

    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let tag = self.spec.tag_of(pc);
        let slot = &mut self.slots[self.spec.index_of(pc)];
        match slot {
            Some((t, (last, stride, last_delta))) if *t == tag => {
                let prediction = last.wrapping_add(*stride);
                let delta = actual.wrapping_sub(*last);
                if delta == *last_delta {
                    *stride = delta;
                }
                *last_delta = delta;
                *last = actual;
                Some(prediction)
            }
            _ => {
                *slot = Some((tag, (actual, 0, 0)));
                None
            }
        }
    }

    fn occupied(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// VHT histories by PC, one `(value, confidence)` per hashed context in
/// the VPT.
struct FcmOracle {
    order: usize,
    vht_spec: TableSpec,
    vpt_spec: TableSpec,
    vht: Vec<Option<(u64, Vec<Value>)>>,
    vpt: Vec<Option<(Value, u8)>>,
}

impl FcmOracle {
    fn new(order: usize, vht_spec: TableSpec, vpt_spec: TableSpec) -> Self {
        FcmOracle {
            order,
            vht_spec,
            vpt_spec,
            vht: slots(vht_spec),
            vpt: vec![None; vpt_spec.slots()],
        }
    }

    fn vpt_index(&self, pc: Pc) -> Option<usize> {
        let history = lookup(self.vht_spec, &self.vht, pc)?;
        (history.len() == self.order)
            .then(|| hash_history(history, self.vpt_spec.index_bits()) as usize)
    }
}

impl Oracle for FcmOracle {
    fn predict(&self, pc: Pc) -> Option<Value> {
        self.vpt[self.vpt_index(pc)?].map(|(value, _)| value)
    }

    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.predict(pc);
        if let Some(index) = self.vpt_index(pc) {
            let slot = &mut self.vpt[index];
            *slot = Some(match *slot {
                None => (actual, 0),
                Some((value, confidence)) if value == actual => (value, (confidence + 1).min(3)),
                Some((_, 0)) => (actual, 0),
                Some((value, confidence)) => (value, confidence - 1),
            });
        }
        let tag = self.vht_spec.tag_of(pc);
        let slot = &mut self.vht[self.vht_spec.index_of(pc)];
        match slot {
            Some((t, history)) if *t == tag => {
                if history.len() == self.order {
                    history.remove(0);
                }
                history.push(actual);
            }
            _ => *slot = Some((tag, vec![actual])),
        }
        prediction
    }

    fn occupied(&self) -> usize {
        self.vht.iter().flatten().count()
    }
}

/// Stride + FCM under an untagged chooser of counters in `-3..=3`.
struct HybridOracle {
    stride: StrideOracle,
    fcm: FcmOracle,
    chooser_spec: TableSpec,
    chooser: Vec<i8>,
}

impl Oracle for HybridOracle {
    fn predict(&self, pc: Pc) -> Option<Value> {
        let (s, f) = (self.stride.predict(pc), self.fcm.predict(pc));
        if self.chooser[self.chooser_spec.index_of(pc)] > 0 {
            f.or(s)
        } else {
            s.or(f)
        }
    }

    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.predict(pc);
        let s_correct = self.stride.step(pc, actual) == Some(actual);
        let f_correct = self.fcm.step(pc, actual) == Some(actual);
        let counter = &mut self.chooser[self.chooser_spec.index_of(pc)];
        if s_correct != f_correct {
            *counter = if f_correct { (*counter + 1).min(3) } else { (*counter - 1).max(-3) };
        }
        prediction
    }

    fn occupied(&self) -> usize {
        self.stride.occupied().max(self.fcm.occupied())
    }
}

/// Drives `predictor` and `oracle` through `stream` side by side, checking
/// `predict` before and the prediction `step` returns at every record, and
/// the occupied-slot counts at the end.
fn pin<P: Predictor>(predictor: P, mut oracle: impl Oracle, stream: &[(Pc, Value)]) {
    let mut predictor = Interned::new(predictor);
    for (i, &(pc, value)) in stream.iter().enumerate() {
        prop_assert_eq!(predictor.predict(pc), oracle.predict(pc), "predict at record {}", i);
        prop_assert_eq!(predictor.step(pc, value), oracle.step(pc, value), "step at record {}", i);
    }
    prop_assert_eq!(predictor.static_entries(), oracle.occupied());
}

/// A table geometry: 2–6 index bits, untagged or with 1–8 tag bits.
fn arb_spec() -> impl Strategy<Value = TableSpec> {
    (2u32..=6, prop_oneof![Just(0u32), 1u32..=8])
        .prop_map(|(index_bits, tag_bits)| TableSpec::new(index_bits).with_tag_bits(tag_bits))
}

/// Records over up to 512 word-aligned PCs (far more than any table has
/// slots, with enough high bits to vary the tags). A value is either from
/// a small alphabet (contexts repeat) or the PC's step on an affine run
/// (strides pay).
fn arb_stream() -> impl Strategy<Value = Vec<(Pc, Value)>> {
    (1u64..=512, prop::collection::vec((any::<u64>(), 0u64..6, any::<bool>()), 1..600)).prop_map(
        |(pcs, raw)| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (pc, small, affine))| {
                    let value = if affine { 7 * i as u64 } else { small };
                    (Pc(0x1000 + 4 * (pc % pcs)), value)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn finite_last_value_is_its_direct_mapped_rule(spec in arb_spec(), stream in arb_stream()) {
        pin(FiniteLastValuePredictor::new(spec), LastValueOracle { spec, slots: slots(spec) }, &stream);
    }

    #[test]
    fn finite_stride_is_its_direct_mapped_rule(spec in arb_spec(), stream in arb_stream()) {
        pin(FiniteStridePredictor::new(spec), StrideOracle { spec, slots: slots(spec) }, &stream);
    }

    #[test]
    fn finite_fcm_is_its_vht_vpt_rule(
        order in 1usize..=4,
        vht in arb_spec(),
        vpt in arb_spec(),
        stream in arb_stream(),
    ) {
        pin(FiniteFcmPredictor::new(order, vht, vpt), FcmOracle::new(order, vht, vpt), &stream);
    }

    #[test]
    fn finite_hybrid_is_its_direct_mapped_chooser_rule(
        stride_spec in arb_spec(),
        order in 1usize..=4,
        vht in arb_spec(),
        vpt in arb_spec(),
        chooser_spec in arb_spec(),
        stream in arb_stream(),
    ) {
        let predictor = FiniteHybridPredictor::new(stride_spec, order, vht, vpt, chooser_spec);
        let oracle = HybridOracle {
            stride: StrideOracle { spec: stride_spec, slots: slots(stride_spec) },
            fcm: FcmOracle::new(order, vht, vpt),
            chooser_spec,
            chooser: vec![0; chooser_spec.slots()],
        };
        pin(predictor, oracle, &stream);
    }

    #[test]
    fn paper_geometry_hybrid_is_its_direct_mapped_chooser_rule(
        index_bits in 2u32..=6,
        stream in arb_stream(),
    ) {
        let spec = TableSpec::new(index_bits);
        let oracle = HybridOracle {
            stride: StrideOracle { spec, slots: slots(spec) },
            fcm: FcmOracle::new(2, spec, TableSpec::new(index_bits + 4)),
            chooser_spec: spec,
            chooser: vec![0; spec.slots()],
        };
        pin(FiniteHybridPredictor::paper_geometry(index_bits), oracle, &stream);
    }
}
