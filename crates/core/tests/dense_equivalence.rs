//! Property suite pinning the one predictor surface to the paper's
//! definitions and to id-independence.
//!
//! Every predictor is keyed by a dense `PcId` plus its `Pc`. These
//! properties check three things: that `Interned<P>` (which numbers PCs
//! itself) reproduces hand-rolled `HashMap<Pc, _>` oracles of the
//! last-value and stride definitions; that *which* dense ids a stream
//! arrives under never changes an outcome, for every predictor family
//! (the resident replay path uses the trace's interner, the streaming path
//! a per-consumer one, and both must agree); and that the finite tables
//! keep aliasing by PC even for PCs `Interned` has never stepped.

use dvp_core::{
    Blending, DelayedPredictor, FcmPredictor, FiniteFcmPredictor, FiniteHybridPredictor,
    FiniteLastValuePredictor, FiniteStridePredictor, HybridPredictor, Interned, LastValuePredictor,
    Predictor, StridePredictor, TableSpec,
};
use dvp_trace::{Pc, PcId, PcInterner, Value};
use proptest::prelude::*;
use std::collections::HashMap;

const CASES: u32 = if cfg!(debug_assertions) { 16 } else { 64 };

/// A random (pc, value) stream over a small PC set (so per-PC state gets
/// real reuse) with semi-repetitive values (so predictions actually hit).
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<(Pc, Value)>> {
    prop::collection::vec((0u64..12, 0u64..6), 1..max_len)
        .prop_map(|raw| raw.into_iter().map(|(pc, v)| (Pc(0x400 + 4 * pc), v)).collect())
}

/// One instance of every predictor family, in a fixed order.
fn families() -> Vec<Box<dyn Predictor>> {
    let mut bank: Vec<Box<dyn Predictor>> = vec![
        Box::new(LastValuePredictor::new()),
        Box::new(StridePredictor::two_delta()),
        Box::new(HybridPredictor::stride_fcm(2)),
        Box::new(DelayedPredictor::new(FcmPredictor::new(2), 3)),
        Box::new(FiniteLastValuePredictor::new(TableSpec::new(3))),
        Box::new(FiniteStridePredictor::new(TableSpec::new(3).with_tag_bits(4))),
        Box::new(FiniteFcmPredictor::new(2, TableSpec::new(3), TableSpec::new(6))),
        Box::new(FiniteHybridPredictor::paper_geometry(3)),
    ];
    for order in 0..4 {
        for blending in [Blending::LazyExclusion, Blending::SingleOrder] {
            bank.push(Box::new(FcmPredictor::with_config(order, blending)));
        }
    }
    bank
}

/// Steps `p` through the stream under `ids`, checking before every step
/// that `predict` reads the prediction `step` then returns.
fn outcomes(p: &mut dyn Predictor, stream: &[(Pc, Value)], ids: &[PcId]) -> Vec<Option<Value>> {
    p.reserve_ids(ids.iter().map(|id| id.index() + 1).max().unwrap_or(0));
    stream
        .iter()
        .zip(ids)
        .map(|(&(pc, value), &id)| {
            let predicted = p.predict(id, pc);
            let stepped = p.step(id, pc, value);
            assert_eq!(predicted, stepped, "{}: predict and step disagree at {pc}", p.name());
            stepped
        })
        .collect()
}

/// A pseudo-random permutation of `0..n` (Fisher–Yates over splitmix64).
fn permutation(n: usize, mut seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        perm.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
    }
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn interned_last_value_matches_hashmap_oracle(stream in arb_stream(300)) {
        // Oracle: the paper's always-update last-value table as a bare map.
        let mut oracle: HashMap<Pc, Value> = HashMap::new();
        let mut p = Interned::new(LastValuePredictor::new());
        for &(pc, value) in &stream {
            prop_assert_eq!(p.predict(pc), oracle.get(&pc).copied(), "{}", pc);
            let expected = oracle.insert(pc, value) == Some(value);
            prop_assert_eq!(p.observe(pc, value), expected, "{}", pc);
        }
        prop_assert_eq!(p.static_entries(), oracle.len());
    }

    #[test]
    fn interned_stride_matches_hashmap_oracle(stream in arb_stream(300)) {
        // Oracle: the two-delta rule (Eickemeyer & Vassiliadis) as a bare
        // map of (last, s1, s2).
        let mut oracle: HashMap<Pc, (Value, Value, Value)> = HashMap::new();
        let mut p = Interned::new(StridePredictor::two_delta());
        for &(pc, value) in &stream {
            let expected = match oracle.get_mut(&pc) {
                Some((last, s1, s2)) => {
                    let correct = last.wrapping_add(*s2) == value;
                    let delta = value.wrapping_sub(*last);
                    if delta == *s1 {
                        *s2 = delta;
                    }
                    *s1 = delta;
                    *last = value;
                    correct
                }
                None => {
                    oracle.insert(pc, (value, 0, 0));
                    false
                }
            };
            prop_assert_eq!(p.observe(pc, value), expected, "{}", pc);
        }
        prop_assert_eq!(p.static_entries(), oracle.len());
    }

    /// Relabelling the dense ids — first-appearance order versus a random
    /// permutation of it — changes no outcome of any family.
    #[test]
    fn outcomes_do_not_depend_on_the_id_labelling(stream in arb_stream(250), seed in any::<u64>()) {
        let mut interner = PcInterner::new();
        let first: Vec<PcId> = stream.iter().map(|&(pc, _)| interner.intern(pc)).collect();
        let perm = permutation(interner.len(), seed);
        let relabelled: Vec<PcId> = first.iter().map(|id| PcId(perm[id.index()])).collect();
        for (mut a, mut b) in families().into_iter().zip(families()) {
            let want = outcomes(a.as_mut(), &stream, &first);
            let got = outcomes(b.as_mut(), &stream, &relabelled);
            prop_assert_eq!(&got, &want, "{} depends on the id labelling", a.name());
            prop_assert_eq!(a.static_entries(), b.static_entries(), "{}", a.name());
        }
    }

    /// `Interned` is the same model as driving the predictor with a trace
    /// interner's ids directly.
    #[test]
    fn interned_matches_trace_ids_for_every_family(stream in arb_stream(200)) {
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = stream.iter().map(|&(pc, _)| interner.intern(pc)).collect();
        for (mut direct, wrapped) in families().into_iter().zip(families()) {
            let want = outcomes(direct.as_mut(), &stream, &ids);
            let mut wrapped = Interned::new(wrapped);
            let got: Vec<Option<Value>> =
                stream.iter().map(|&(pc, value)| wrapped.step(pc, value)).collect();
            prop_assert_eq!(&got, &want, "{}", direct.name());
            prop_assert_eq!(wrapped.static_entries(), direct.static_entries());
        }
    }

    #[test]
    fn interner_round_trip_and_collision_freedom(pcs in prop::collection::vec(any::<u64>(), 1..400)) {
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = pcs.iter().map(|&pc| interner.intern(Pc(pc))).collect();
        // Stable: re-interning yields the same id.
        for (&pc, &id) in pcs.iter().zip(&ids) {
            prop_assert_eq!(interner.intern(Pc(pc)), id);
            prop_assert_eq!(interner.get(Pc(pc)), Some(id));
            prop_assert_eq!(interner.pc(id), Pc(pc));
        }
        // Dense and collision-free: ids are exactly 0..len, one per
        // distinct PC.
        let distinct: std::collections::HashSet<u64> = pcs.iter().copied().collect();
        prop_assert_eq!(interner.len(), distinct.len());
        let mut seen = std::collections::HashSet::new();
        for (id, pc) in interner.iter() {
            prop_assert!(id.index() < interner.len());
            prop_assert!(seen.insert(pc), "pc {} interned twice", pc);
        }
        // And the persisted-table rebuild is the identity.
        let rebuilt = PcInterner::from_pcs(interner.pcs().to_vec()).expect("bijective");
        prop_assert_eq!(&rebuilt, &interner);
    }
}

/// A PC `Interned` has never stepped still aliases in a finite table: it
/// reads the value its slot-mate left there, while an unbounded table has
/// nothing for it.
#[test]
fn never_stepped_pc_reads_its_aliased_finite_slot() {
    let spec = TableSpec::new(4);
    let stepped = Pc(0x100);
    let alias = (1..1u64 << 12)
        .map(|i| Pc(0x100 + 4 * i))
        .find(|&pc| spec.index_of(pc) == spec.index_of(stepped))
        .expect("an untagged 16-slot table aliases within 4096 PCs");
    let mut finite = Interned::new(FiniteLastValuePredictor::new(spec));
    let mut unbounded = Interned::new(LastValuePredictor::new());
    finite.update(stepped, 42);
    unbounded.update(stepped, 42);
    assert_eq!(finite.predict(alias), Some(42));
    assert_eq!(unbounded.predict(alias), None);
}
