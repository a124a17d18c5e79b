//! Every member of an `FcmBank` must be bit for bit a lone `FcmPredictor`.
//!
//! The bank keeps one history and one table of (instruction, order,
//! context) keys for all of its members, with the follower values shared
//! and one column of counts and one argmax front per member. These
//! properties step a bank and one lone `FcmPredictor::new(k)` per member
//! order through the same stream and require the same pre-update
//! prediction from every member at every record — over small alphabets,
//! where the orders disagree, and over the layouts the bank switches
//! between: inline and spilled keys (orders above three), keys shared by
//! more members than fit inline, lists with thousands of followers, and
//! counts past `u16::MAX`. A cleared bank must in turn be bit for bit a
//! new bank of its orders, whatever it learned before.

use dvp_core::{FcmBank, FcmPredictor, Predictor};
use dvp_trace::{Pc, PcId, Value};
use proptest::prelude::*;

const CASES: u32 = if cfg!(debug_assertions) { 24 } else { 96 };

/// Steps `bank` and one lone predictor per member through `stream` of
/// `(id, value)` records, requiring identical predictions throughout.
/// Returns each member's correct count.
fn assert_lockstep(bank: &mut FcmBank, stream: impl IntoIterator<Item = (u32, Value)>) -> Vec<u64> {
    let orders = bank.orders().to_vec();
    let mut lone: Vec<FcmPredictor> = orders.iter().map(|&k| FcmPredictor::new(k)).collect();
    let mut predictions = vec![None; orders.len()];
    let mut hits = vec![0u64; orders.len()];
    for (i, (id, value)) in stream.into_iter().enumerate() {
        let id = PcId(id);
        bank.step(id, value, &mut predictions);
        for (m, p) in lone.iter_mut().enumerate() {
            let want = p.step(id, Pc(0), value);
            assert_eq!(
                predictions[m], want,
                "fcm{} diverged at record {i} (id {id:?}, value {value})",
                orders[m]
            );
            hits[m] += u64::from(want == Some(value));
        }
    }
    hits
}

/// A short stream over a handful of instructions and a small value
/// alphabet: small domains force context reuse, ties, and members that
/// match at different orders.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<(u32, Value)>> {
    prop::collection::vec((0u32..5, 0u64..4), 1..max_len)
}

/// The member sets the paper's figures run, plus a gapped pair.
fn arb_members() -> impl Strategy<Value = Vec<usize>> {
    prop_oneof![Just(vec![1, 2, 3]), Just((1..=8).collect()), Just(vec![2, 5]),]
}

/// A stream over 2, 4 or 16 values: two make every order's contexts
/// recur, sixteen make order-0 and order-1 lists that spill and carry a
/// follower index.
fn arb_alphabet_stream(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, Value)>> {
    prop_oneof![Just(2u64), Just(4), Just(16)]
        .prop_flat_map(move |k| prop::collection::vec((0u32..5, 0..k), len.clone()))
}

/// Three histories, each cleared before the next: long, short, long, or
/// short, long, short. A long one grows the bucket index that a short
/// one after it leaves sparse.
fn arb_histories() -> impl Strategy<Value = Vec<Vec<(u32, Value)>>> {
    (arb_alphabet_stream(600..2_000), arb_alphabet_stream(1..40), any::<bool>()).prop_map(
        |(long, short, flip)| {
            if flip {
                vec![short.clone(), long, short]
            } else {
                vec![long.clone(), short, long]
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// After any history, a cleared bank steps and batches exactly as a
    /// new bank of its orders: the same predictions at every record, the
    /// same `observe_batch` columns, and the same keys.
    #[test]
    fn a_cleared_bank_equals_a_new_one(
        members in prop_oneof![
            Just(vec![1, 2, 3]),
            Just((1..=8).collect()),
            prop::collection::vec(0usize..=9, 1..6),
        ],
        histories in arb_histories(),
        chunk in 1usize..=64,
    ) {
        let k = FcmBank::new(members.iter().copied()).orders().len();
        let mut stepped = FcmBank::new(members.iter().copied());
        let mut batched = FcmBank::new(members.iter().copied());
        for (h, history) in histories.iter().enumerate() {
            if h > 0 {
                stepped.clear();
                batched.clear();
                prop_assert_eq!(stepped.context_entries(), 0);
            }
            let mut new = FcmBank::new(members.iter().copied());
            let (mut got, mut want) = (vec![None; k], vec![None; k]);
            for (i, &(id, v)) in history.iter().enumerate() {
                stepped.step(PcId(id), v, &mut got);
                new.step(PcId(id), v, &mut want);
                prop_assert_eq!(&got, &want, "history {} record {}", h, i);
            }
            prop_assert_eq!(stepped.context_entries(), new.context_entries());
            let (ids, values): (Vec<PcId>, Vec<Value>) =
                history.iter().map(|&(id, v)| (PcId(id), v)).unzip();
            let n = ids.len();
            let mut want = vec![false; n * k];
            FcmBank::new(members.iter().copied()).observe_batch(&ids, &values, &mut want);
            let mut got = vec![false; n * k];
            for at in (0..n).step_by(chunk) {
                let hi = (at + chunk).min(n);
                let mut columns = vec![false; (hi - at) * k];
                batched.observe_batch(&ids[at..hi], &values[at..hi], &mut columns);
                for (m, column) in columns.chunks(hi - at).enumerate() {
                    got[m * n + at..m * n + hi].copy_from_slice(column);
                }
            }
            prop_assert_eq!(got, want, "history {}", h);
        }
    }

    /// fcm1–3, fcm1–8 and {fcm2, fcm5} agree with lone predictors record
    /// for record.
    #[test]
    fn bank_members_equal_lone_predictors(
        members in arb_members(),
        stream in arb_stream(600),
    ) {
        let mut bank = FcmBank::new(members);
        assert_lockstep(&mut bank, stream);
    }

    /// Any set of orders from 0 to 9, given in any order and with
    /// repeats, is a bank of its distinct orders, ascending.
    #[test]
    fn any_member_set_equals_lone_predictors(
        members in prop::collection::vec(0usize..=9, 1..6),
        stream in arb_stream(400),
    ) {
        let mut bank = FcmBank::new(members.iter().copied());
        let mut want = members.clone();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(bank.orders(), want.as_slice());
        assert_lockstep(&mut bank, stream);
    }

    /// `observe_batch` writes each member's column exactly as the
    /// per-record `step` loop predicts, at every chunking.
    #[test]
    fn observe_batch_columns_match_per_record_steps(
        members in arb_members(),
        stream in arb_stream(300),
        chunk in 1usize..=64,
    ) {
        let (ids, values): (Vec<PcId>, Vec<Value>) =
            stream.iter().map(|&(id, v)| (PcId(id), v)).unzip();
        let mut reference = FcmBank::new(members.iter().copied());
        let k = members.len();
        let mut predictions = vec![None; k];
        let mut want = vec![vec![false; ids.len()]; k];
        for (i, (&id, &v)) in ids.iter().zip(&values).enumerate() {
            reference.step(id, v, &mut predictions);
            for m in 0..k {
                want[m][i] = predictions[m] == Some(v);
            }
        }
        let mut batched = FcmBank::new(members.iter().copied());
        let mut got = vec![vec![false; ids.len()]; k];
        for at in (0..ids.len()).step_by(chunk) {
            let hi = (at + chunk).min(ids.len());
            let n = hi - at;
            let mut columns = vec![false; n * k];
            batched.observe_batch(&ids[at..hi], &values[at..hi], &mut columns);
            for (m, column) in columns.chunks(n).enumerate() {
                got[m][at..hi].copy_from_slice(column);
            }
        }
        prop_assert_eq!(got, want);
        prop_assert_eq!(batched.context_entries(), reference.context_entries());
    }
}

/// Keys of orders 4 to 8 keep their contexts in the key arena, and the
/// low-order keys of fcm1–8 are shared by more members than fit inline:
/// a periodic stream per instruction with a period longer than three,
/// broken now and then, runs through both.
#[test]
fn spilled_keys_and_wide_keys_agree_with_lone_predictors() {
    let stream = (0..40_000u64).map(|i| {
        let id = (i % 3) as u32;
        let n = i / 3;
        let period = 5 + u64::from(id);
        let value = if n % 97 == 0 { 1_000 + n } else { (n % period) * 10 };
        (id, value)
    });
    let mut bank = FcmBank::new(1..=8);
    let hits = assert_lockstep(&mut bank, stream);
    assert!(hits.iter().all(|&h| h > 30_000), "{hits:?}");
}

/// One order-0 and order-1 context per instruction collects thousands of
/// distinct followers (a stride sweep), with a few hot values that keep
/// moving every member's argmax, so the shared lists spill, index and
/// grow several times.
#[test]
fn thousands_of_followers_agree_with_lone_predictors() {
    for members in [vec![1, 2, 3], (1..=8).collect::<Vec<_>>()] {
        let stream = (0..30_000u64).map(|i| {
            let id = (i % 2) as u32;
            let value = match i % 5 {
                0 | 3 => 7,
                1 => 1 << 40 | i,
                _ => (i * 2_654_435_761) % 6_000,
            };
            (id, value)
        });
        let mut bank = FcmBank::new(members);
        assert_lockstep(&mut bank, stream);
    }
}

/// One context is followed by two values, alternately, more than 65,535
/// times each: fcm1's count column in that shared key passes `u16::MAX`
/// (the other members match at higher orders and stop counting there),
/// and every member still agrees, through the ties the alternation makes,
/// before and after the overflow.
#[test]
fn counts_past_u16_max_agree_with_lone_predictors() {
    let (x, a, b) = (3u64, 11u64, 22u64);
    let rounds = 66_000u64;
    let stream = (0..rounds).flat_map(|_| [x, a, x, b]).map(|v| (0u32, v));
    let mut bank = FcmBank::new([1, 2, 3]);
    let hits = assert_lockstep(&mut bank, stream);
    // After `x` fcm1's front is always the value it saw last, so it is
    // always wrong there; fcm2 and fcm3 see `a, x` or `b, x` and are right
    // at every record once warm.
    assert!(hits[0] <= 2 * rounds && hits[1] >= 4 * rounds - 8, "{hits:?}");
}
