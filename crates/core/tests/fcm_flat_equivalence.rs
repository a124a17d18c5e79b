//! The flat arena-backed FCM must be bit-for-bit the paper's model.
//!
//! `FcmPredictor` stores every (instruction, order, context) entry in one
//! open-addressed table with rolling context hashes and inline follower
//! counts. These properties pin its observable behaviour — predictions,
//! entry counts, blending and lazy-exclusion divergence, saturating
//! halving — to `OracleFcm`, a direct nested-`HashMap` transliteration of
//! Section 2.2 with none of the flat layout. A second property pins
//! `Predictor::observe_batch` to the per-record loop for every predictor
//! family the experiments replay.

use std::collections::HashMap;

use dvp_core::{Blending, CounterMode, FcmPredictor, Interned, Predictor, PredictorConfig};
use dvp_trace::{Pc, PcId, PcInterner, Value};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };

/// One context's frequency table in the oracle: `(value, count, stamp)`
/// rows plus the per-context recency clock. Stamps are unique within a
/// context, so the argmax by `(count, stamp)` is deterministic — the same
/// tie-break the paper's "most frequent, most recent wins" rule implies.
#[derive(Debug, Default)]
struct OracleCtx {
    followers: Vec<(Value, u64, u64)>,
    tick: u64,
}

impl OracleCtx {
    fn top(&self) -> Option<Value> {
        self.followers.iter().max_by_key(|&&(_, count, stamp)| (count, stamp)).map(|&(v, _, _)| v)
    }

    fn bump(&mut self, value: Value, mode: CounterMode) {
        self.tick += 1;
        let count = match self.followers.iter_mut().find(|(v, _, _)| *v == value) {
            Some(row) => {
                row.1 += 1;
                row.2 = self.tick;
                row.1
            }
            None => {
                self.followers.push((value, 1, self.tick));
                1
            }
        };
        if let CounterMode::Saturating { max } = mode {
            if count >= u64::from(max) {
                for row in &mut self.followers {
                    row.1 /= 2;
                }
                self.followers.retain(|&(_, count, _)| count > 0);
            }
        }
    }
}

/// Per-instruction oracle state: the recent-value window and one
/// context-keyed map per order `0..=k`.
#[derive(Debug)]
struct OracleSlot {
    hist: Vec<Value>,
    tables: Vec<HashMap<Box<[Value]>, OracleCtx>>,
}

/// The paper's order-k FCM with blending, written the obvious way:
/// nested maps, boxed context keys, no sharing between orders.
struct OracleFcm {
    order: usize,
    blending: Blending,
    counter_mode: CounterMode,
    slots: HashMap<Pc, OracleSlot>,
}

impl OracleFcm {
    fn new(order: usize, blending: Blending, counter_mode: CounterMode) -> Self {
        OracleFcm { order, blending, counter_mode, slots: HashMap::new() }
    }

    /// `(prediction, longest matched order)` for the slot's current
    /// window. An entry that exists but has no followers (possible after
    /// saturating halving) fails to match and the descent continues —
    /// exactly the `or_default()` reuse semantics of the nested model.
    fn descend(&self, slot: &OracleSlot) -> (Option<Value>, Option<usize>) {
        let ctx_at = |ord: usize| &slot.hist[slot.hist.len() - ord..];
        match self.blending {
            Blending::SingleOrder => {
                if slot.hist.len() >= self.order {
                    if let Some(top) =
                        slot.tables[self.order].get(ctx_at(self.order)).and_then(OracleCtx::top)
                    {
                        return (Some(top), None);
                    }
                }
                (None, None)
            }
            Blending::LazyExclusion | Blending::Full => {
                for ord in (0..=self.order.min(slot.hist.len())).rev() {
                    if let Some(top) = slot.tables[ord].get(ctx_at(ord)).and_then(OracleCtx::top) {
                        return (Some(top), Some(ord));
                    }
                }
                (None, None)
            }
        }
    }

    fn predict(&self, pc: Pc) -> Option<Value> {
        self.slots.get(&pc).and_then(|slot| self.descend(slot).0)
    }

    fn update(&mut self, pc: Pc, actual: Value) {
        let order = self.order;
        self.slots.entry(pc).or_insert_with(|| OracleSlot {
            hist: Vec::new(),
            tables: (0..=order).map(|_| HashMap::new()).collect(),
        });
        let matched = match self.blending {
            Blending::SingleOrder => None,
            Blending::LazyExclusion | Blending::Full => self.descend(&self.slots[&pc]).1,
        };
        let lowest = match self.blending {
            Blending::SingleOrder => order,
            Blending::Full => 0,
            Blending::LazyExclusion => matched.unwrap_or(0),
        };
        let slot = self.slots.get_mut(&pc).expect("just inserted");
        for ord in lowest..=order {
            if ord > slot.hist.len() {
                continue;
            }
            let ctx: Box<[Value]> = slot.hist[slot.hist.len() - ord..].into();
            slot.tables[ord].entry(ctx).or_default().bump(actual, self.counter_mode);
        }
        if order > 0 {
            slot.hist.push(actual);
            if slot.hist.len() > order {
                slot.hist.remove(0);
            }
        }
    }

    fn step(&mut self, pc: Pc, actual: Value) -> Option<Value> {
        let prediction = self.predict(pc);
        self.update(pc, actual);
        prediction
    }

    fn context_entries(&self) -> usize {
        self.slots.values().map(|s| s.tables.iter().map(HashMap::len).sum::<usize>()).sum()
    }
}

/// A short stream over a handful of PCs and a small value alphabet —
/// small domains force context reuse, ties, and (with saturating
/// counters) emptied entries.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<(Pc, Value)>> {
    prop::collection::vec((0u64..6, 0u64..5), 1..max_len)
        .prop_map(|raw| raw.into_iter().map(|(pc, v)| (Pc(0x400 + 4 * pc), v)).collect())
}

fn arb_config() -> impl Strategy<Value = (usize, Blending, CounterMode)> {
    (
        0usize..=5,
        prop_oneof![
            Just(Blending::LazyExclusion),
            Just(Blending::Full),
            Just(Blending::SingleOrder)
        ],
        prop_oneof![
            Just(CounterMode::Exact),
            (1u32..=4).prop_map(|max| CounterMode::Saturating { max }),
        ],
    )
}

/// A long stream over one to three PCs where half the values come from a
/// wide alphabet and half from four hot values: low-order contexts then
/// collect hundreds of followers (past the scan threshold, through
/// several relocations of their follower lists and indexes) while the hot
/// values keep swapping the argmax and, under small saturating maxima,
/// keep halving the lists.
fn arb_wide_stream() -> impl Strategy<Value = Vec<(Pc, Value)>> {
    (1u64..=3, prop::collection::vec((0u64..3, prop_oneof![0u64..512, 0u64..4]), 1..4_000))
        .prop_map(|(pcs, raw)| {
            raw.into_iter().map(|(pc, v)| (Pc(0x400 + 4 * (pc % pcs)), v)).collect()
        })
}

fn arb_wide_config() -> impl Strategy<Value = (usize, Blending, CounterMode)> {
    (
        0usize..=3,
        prop_oneof![
            Just(Blending::LazyExclusion),
            Just(Blending::Full),
            Just(Blending::SingleOrder)
        ],
        prop_oneof![
            Just(CounterMode::Exact),
            (1u32..=64).prop_map(|max| CounterMode::Saturating { max }),
        ],
    )
}

/// Steps the flat predictor and the oracle through `stream` in lockstep,
/// requiring the same pre-update prediction at every record.
fn assert_lockstep(
    flat: &mut Interned<FcmPredictor>,
    oracle: &mut OracleFcm,
    stream: impl IntoIterator<Item = (Pc, Value)>,
) {
    for (i, (pc, value)) in stream.into_iter().enumerate() {
        assert_eq!(flat.step(pc, value), oracle.step(pc, value), "record {i} ({pc:?}, {value})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The flat table agrees with the nested-map oracle record for
    /// record: same pre-update prediction, same entry count, same final
    /// predictions — across orders (0..=5 spans the inline-key limit),
    /// all three blendings, and both counter modes (saturating maxima
    /// small enough to empty contexts).
    #[test]
    fn flat_fcm_equals_nested_oracle(
        config in arb_config(),
        stream in arb_stream(300),
    ) {
        let (order, blending, counter_mode) = config;
        let mut flat = Interned::new(FcmPredictor::with_config(order, blending, counter_mode));
        let mut oracle = OracleFcm::new(order, blending, counter_mode);
        for (i, &(pc, value)) in stream.iter().enumerate() {
            prop_assert_eq!(
                flat.step(pc, value),
                oracle.step(pc, value),
                "prediction diverged at record {} of {:?}",
                i,
                &stream
            );
        }
        prop_assert_eq!(flat.context_entries(), oracle.context_entries());
        for &(pc, _) in &stream {
            prop_assert_eq!(flat.predict(pc), oracle.predict(pc));
        }
    }

    /// Driving the flat predictor directly with a trace interner's ids
    /// (as the replay engine does) tracks the oracle exactly too.
    #[test]
    fn flat_fcm_dense_surface_equals_nested_oracle(
        config in arb_config(),
        stream in arb_stream(200),
    ) {
        let (order, blending, counter_mode) = config;
        let mut flat = FcmPredictor::with_config(order, blending, counter_mode);
        let mut oracle = OracleFcm::new(order, blending, counter_mode);
        let mut interner = PcInterner::new();
        for (i, &(pc, value)) in stream.iter().enumerate() {
            let id = interner.intern(pc);
            let want = oracle.step(pc, value) == Some(value);
            prop_assert_eq!(
                flat.step(id, pc, value) == Some(value),
                want,
                "outcome diverged at record {}",
                i
            );
        }
        prop_assert_eq!(flat.context_entries(), oracle.context_entries());
    }

    /// Large follower lists — indexed, relocated, argmax-swapped and
    /// halved — agree with the oracle record for record.
    #[test]
    fn wide_alphabet_fcm_equals_nested_oracle(
        config in arb_wide_config(),
        stream in arb_wide_stream(),
    ) {
        let (order, blending, counter_mode) = config;
        let mut flat = Interned::new(FcmPredictor::with_config(order, blending, counter_mode));
        let mut oracle = OracleFcm::new(order, blending, counter_mode);
        assert_lockstep(&mut flat, &mut oracle, stream.iter().copied());
        prop_assert_eq!(flat.context_entries(), oracle.context_entries());
        for &(pc, _) in &stream {
            prop_assert_eq!(flat.predict(pc), oracle.predict(pc));
        }
    }

    /// `observe_batch` is the per-record loop, bit for bit, for every
    /// predictor family in the paper bank and at every chunking.
    #[test]
    fn observe_batch_matches_per_record_observe_for_every_family(
        stream in arb_stream(250),
        chunk in 1usize..=64,
    ) {
        let mut interner = PcInterner::new();
        let ids: Vec<PcId> = stream.iter().map(|&(pc, _)| interner.intern(pc)).collect();
        let pcs: Vec<Pc> = stream.iter().map(|&(pc, _)| pc).collect();
        let values: Vec<Value> = stream.iter().map(|&(_, v)| v).collect();
        for config in PredictorConfig::paper_bank() {
            let mut reference = config.build();
            let want: Vec<bool> = stream
                .iter()
                .zip(&ids)
                .map(|(&(pc, v), &id)| reference.step(id, pc, v) == Some(v))
                .collect();
            let mut batched = config.build();
            let mut got = vec![false; stream.len()];
            let mut at = 0;
            while at < stream.len() {
                let hi = (at + chunk).min(stream.len());
                batched.observe_batch(
                    &ids[at..hi],
                    &pcs[at..hi],
                    &values[at..hi],
                    &mut got[at..hi],
                );
                at = hi;
            }
            prop_assert_eq!(&got, &want, "{} diverged at chunk {}", config.name(), chunk);
            for (&id, &pc) in ids.iter().zip(&pcs) {
                prop_assert_eq!(batched.predict(id, pc), reference.predict(id, pc));
            }
        }
    }
}

/// Lazy exclusion and full blending genuinely diverge — and the flat
/// implementation diverges in exactly the way the oracle does.
///
/// Order 1, stream `1 2 1 2 7`, then predict with history `[7]` (context
/// never seen, so the order-0 model decides):
///
/// * **lazy** stopped feeding order 0 once order 1 matched, leaving
///   `{1: 2, 2: 1}` → predicts 1;
/// * **full** kept counting, leaving `{1: 2, 2: 2, 7: 1}` with 2 stamped
///   later → predicts 2.
#[test]
fn lazy_exclusion_divergence_is_reproduced_exactly() {
    let stream = [1u64, 2, 1, 2, 7];
    let pc = Pc(0x400);
    let mut outcomes = Vec::new();
    for blending in [Blending::LazyExclusion, Blending::Full] {
        let mut flat = Interned::new(FcmPredictor::with_config(1, blending, CounterMode::Exact));
        let mut oracle = OracleFcm::new(1, blending, CounterMode::Exact);
        for &v in &stream {
            assert_eq!(flat.step(pc, v), oracle.step(pc, v), "{blending:?}");
        }
        assert_eq!(flat.predict(pc), oracle.predict(pc), "{blending:?}");
        outcomes.push(flat.predict(pc));
    }
    assert_eq!(outcomes, vec![Some(1), Some(2)], "the two blendings must diverge");
}

/// Saturating halving with `max = 1` empties contexts on every bump; the
/// emptied entries must keep existing (and keep failing to match) in
/// both implementations.
#[test]
fn saturating_emptied_contexts_agree_with_the_oracle() {
    let pc = Pc(0x400);
    let mode = CounterMode::Saturating { max: 1 };
    let mut flat = Interned::new(FcmPredictor::with_config(2, Blending::LazyExclusion, mode));
    let mut oracle = OracleFcm::new(2, Blending::LazyExclusion, mode);
    for &v in &[5u64, 5, 3, 5, 3, 3, 5] {
        assert_eq!(flat.step(pc, v), oracle.step(pc, v));
    }
    assert_eq!(flat.predict(pc), oracle.predict(pc));
    assert_eq!(flat.context_entries(), oracle.context_entries());
}

/// One order-0 context collects 10,000 distinct followers, then a
/// mid-list value is bumped until it is the clear argmax, then (with
/// saturating counters) the list is halved and regrown. Every prediction,
/// the argmax and the entry count track the oracle throughout.
#[test]
fn one_context_with_ten_thousand_followers_agrees_with_the_oracle() {
    let pc = Pc(0x400);
    for mode in [CounterMode::Exact, CounterMode::Saturating { max: 64 }] {
        let mut flat = Interned::new(FcmPredictor::with_config(0, Blending::LazyExclusion, mode));
        let mut oracle = OracleFcm::new(0, Blending::LazyExclusion, mode);
        let distinct = (0..10_000u64).map(|v| (pc, v * 7 + 1));
        // Every seventh value gets a second count, so some survive halving.
        let repeats = (0..10_000u64).step_by(7).map(|v| (pc, v * 7 + 1));
        let mid = 5_000 * 7 + 1;
        let bumps = std::iter::repeat_n((pc, mid), 100);
        let regrow = (0..3_000u64).flat_map(|v| [(pc, v * 11 + 3), (pc, mid), (pc, 4 * 7 + 1)]);
        assert_lockstep(&mut flat, &mut oracle, distinct.chain(repeats));
        assert_eq!(flat.predict(pc), oracle.predict(pc), "{mode:?}: before the bumps");
        assert_lockstep(&mut flat, &mut oracle, bumps);
        assert_eq!(flat.predict(pc), Some(mid), "{mode:?}: the bumped value is the argmax");
        assert_lockstep(&mut flat, &mut oracle, regrow);
        assert_eq!(flat.predict(pc), oracle.predict(pc), "{mode:?}: after regrowth");
        assert_eq!(flat.context_entries(), 1);
        assert_eq!(flat.context_entries(), oracle.context_entries());
    }
}

/// A stride-like stream: four PCs each sweep their own array (base plus
/// eight times the position, wrapping after 6,000 to 9,000 elements), so
/// the first sweep makes a fresh context at every order on every record
/// and later sweeps hit at order 3. The table grows past ninety thousand
/// entries; it starts at 64 buckets and doubles before passing 7/8 load,
/// so more than `7/8 * (64 << 10)` entries means more than ten doublings.
#[test]
fn stride_stream_across_many_bucket_growths_agrees_with_the_oracle() {
    let mut flat = Interned::new(FcmPredictor::new(3));
    let mut oracle = OracleFcm::new(3, Blending::LazyExclusion, CounterMode::Exact);
    let stream = (0..100_000u64).map(|i| {
        let (pc, n) = (i % 4, i / 4);
        (Pc(0x400 + 4 * pc), ((pc + 1) << 32) | (8 * (n % (6_000 + 1_000 * pc))))
    });
    assert_lockstep(&mut flat, &mut oracle, stream);
    assert!(flat.context_entries() > 7 * (64 << 10) / 8, "{}", flat.context_entries());
    assert_eq!(flat.context_entries(), oracle.context_entries());
    for pc in (0..4).map(|pc| Pc(0x400 + 4 * pc)) {
        assert_eq!(flat.predict(pc), oracle.predict(pc));
    }
}

/// One saturating order-0 context outgrows the follower scan (eight
/// followers), so its list gains an index, halves down to six live
/// followers, and grows past its old capacity again. Predictions and the
/// entry count track the oracle throughout.
#[test]
fn a_long_follower_list_halves_below_the_scan_and_regrows_with_the_oracle() {
    let pc = Pc(0x400);
    let mode = CounterMode::Saturating { max: 8 };
    let mut flat = Interned::new(FcmPredictor::with_config(0, Blending::LazyExclusion, mode));
    let mut oracle = OracleFcm::new(0, Blending::LazyExclusion, mode);
    let fresh = |base: Value, n: Value| (base..base + n).map(move |v| (pc, v));
    // 24 distinct followers (an indexed list of capacity 32), five seen twice.
    let grow = fresh(100, 24).chain((0..5).map(|v| (pc, 100 + 4 * v)));
    // A hot value reaches the maximum and every count halves: the five
    // doubles and the hot value stay live, the 19 singles drop out.
    let halve = std::iter::repeat_n((pc, 7), 8);
    // 40 fresh followers pass the old capacity, then a second hot value
    // halves the regrown list.
    let regrow = fresh(1_000, 40).chain(std::iter::repeat_n((pc, 1_003), 7));
    for (phase, stream) in [
        ("grow", grow.collect::<Vec<_>>()),
        ("halve", halve.collect()),
        ("regrow", regrow.collect()),
    ] {
        assert_lockstep(&mut flat, &mut oracle, stream);
        assert_eq!(flat.predict(pc), oracle.predict(pc), "after {phase}");
        assert_eq!(flat.context_entries(), oracle.context_entries(), "after {phase}");
    }
    assert_eq!(flat.predict(pc), Some(1_003), "the second hot value leads after its halving");
    assert_eq!(flat.context_entries(), 1);
}
