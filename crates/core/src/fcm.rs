//! Finite context method (FCM) prediction (Section 2.2 of the paper).
//!
//! # Flat value-history table
//!
//! Logically the model is the paper's: per static instruction, per order
//! `0..=k`, a map from the full concatenated context to a frequency table
//! of following values. Physically all of that state lives in one flat,
//! arena-backed, open-addressed **value-history table** ([`Vht`]) shared
//! by every (instruction, order) pair:
//!
//! - **Inline context keys.** A context of up to three values is stored
//!   inline in its entry (`[Value; 3]` + length); longer contexts spill to
//!   a shared key arena. Probes always compare the full key — the hash is
//!   only an accelerator, so matching semantics are identical to the old
//!   `HashMap<Box<[Value]>, _>` ("full concatenation ... no aliasing").
//! - **Rolling context hashes.** Each slot maintains `H_j = mix(v) + B·H_{j-1}`
//!   for `j = 1..=k` incrementally per record ([`History`]), so an order-k
//!   blended predictor derives all of its probe hashes from one shared
//!   rolling state instead of rehashing `j` boxed slices per record.
//! - **Inline follower counts, then lists of their own.** The
//!   per-context `(value, count)` frequency table starts as a
//!   two-element inline array. A list that outgrows it moves into a
//!   `Spilled` list with allocations of its own, which doubles through
//!   the allocator, so the blocks a grown list gives back are reused. The
//!   entry's first follower is always the current argmax, so a prediction
//!   is one read.
//! - **Constant-time follower updates.** A list longer than a short scan
//!   carries an open-addressed follower index beside its followers: a
//!   power-of-two region of twice the list's capacity holding
//!   `1 + position` per follower, probed from `mix(value)`. It is rebuilt
//!   when the list grows and patched in two slots when an argmax swap
//!   moves two followers, so a bump costs O(1) amortized however many
//!   distinct values the context has seen (a PC's order-0 context sees
//!   every value it ever produced).
//! - **Arenas that never copy themselves.** Entries, spilled keys and
//!   the spilled lists' headers live on fixed pages of 4096 items that
//!   are allocated once at full size and never grow, so growth never
//!   moves or copies what is stored, and never holds an old and a new
//!   array at once. [`FcmBank::clear`] forgets every key but keeps each
//!   arena's first page, and the bucket index while the cleared keys
//!   filled it past an eighth: a bank that replays one instruction after
//!   another starts each from cleared state, allocations kept.
//! - **Tagged buckets.** Each bucket is one `u64` word packing the low 32
//!   bits of the context hash (the tag) above `1 + entry index`. A probe
//!   compares tags in the bucket array and reads an entry only on a tag
//!   match, and growth reseats every word by its tag without reading a
//!   single entry.
//! - **One cache line per entry.** A follower is its value and count: the
//!   one being bumped or appended is always the most recent, so comparing
//!   its count against the front's (`>=`) breaks ties toward recency
//!   without storing when each value was seen. An inline list's length is
//!   the prefix of followers with a count, and a spilled list keeps its
//!   position in the inline storage it left behind, so an entry takes 64
//!   bytes.
//! - **Fused multi-order probe.** One descending walk locates the longest
//!   matching context and caches every probed entry index; the update
//!   phase reuses those hits instead of re-probing.
//!
//! # A bank of orders in one table
//!
//! The paper's figures run FCM as a bank (fcm1–3 in Figure 3, fcm1–8 in
//! Figure 11). Every member of a bank walks the same per-instruction
//! history and probes the same keys; only the follower counts differ,
//! because lazy exclusion updates each member from its own longest match
//! up to its own order. [`FcmBank`] therefore keeps one [`History`] and
//! one table of (slot, order, context) keys for all members. A key holds
//! its follower values once, and every member whose order reaches the
//! key's order owns a column of counts and its own argmax front there. A
//! member's context exists only where it has counted a follower, so one
//! descending walk of at most `K + 1` probes (K the largest order) finds
//! every member's longest match, and the update finds each follower once
//! for every member that counts it. Each member stays bit for bit a lone
//! [`FcmPredictor::new`] of its order.

use crate::{BankForm, Predictor};
use dvp_trace::{Pc, PcId, Value};

/// How the per-order models of an [`FcmPredictor`] are combined.
///
/// An order-*k* FCM predictor is built from models of orders *k* down to 0
/// (an order-0 model is an unconditional value-frequency table). The paper
/// uses *blending* (Bell, Cleary & Witten) to combine them. Either way,
/// each context keeps exact counts of the values that followed it, as the
/// paper simulates ("maintains exact counts for each value that follows a
/// particular context").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Blending {
    /// The prediction comes from the longest matching context, and only the
    /// models at that order **and higher** are updated. This is the variant
    /// the paper evaluates ("the blending algorithm with lazy exclusion").
    #[default]
    LazyExclusion,
    /// Only the order-*k* model exists; if its context has never been seen,
    /// no prediction is made. These are the single-order models of the
    /// paper's Figure 1.
    SingleOrder,
}

/// Hard ceiling on the order (a guard against accidentally unbounded
/// contexts; the paper studies orders 1..=8).
const MAX_ORDER: usize = 64;

/// Context values stored inline in a [`CtxEntry`]; longer keys spill.
const INLINE_KEY: usize = 3;

/// Followers stored inline in a [`CtxEntry`]; higher fanout spills.
const INLINE_FOLLOWERS: usize = 2;

/// Spilled follower lists up to this capacity find a follower by scanning;
/// larger lists carry an open-addressed follower index. Measured on the
/// replay-scaling traces, every threshold from 2 to 32 ran within noise
/// of the others and 8 had the lowest median: a scan of up to eight rows
/// costs about one index probe and needs no index region.
const SCAN_CAP: usize = 8;

/// Probe-cache sentinel: "this (slot, order, context) has no entry".
const NO_ENTRY: u32 = u32::MAX;

/// Rolling-hash base (odd, so multiplication is a bijection on `u64`).
const HASH_B: u64 = 0x9E37_79B9_7F4A_7C15;

/// Mixes the slot id into the bucket hash.
const SLOT_SALT: u64 = 0xA24B_AED4_963E_E407;

/// Mixes the order into the bucket hash.
const ORDER_SALT: u64 = 0x9FB2_1C65_1E98_DF25;

/// Bucket hash of an order-`ord` context of `slot` whose rolling hash is
/// `g` (0 at order 0).
#[inline]
fn ctx_hash(g: u64, slot: usize, ord: usize) -> u64 {
    mix(g ^ (slot as u64).wrapping_mul(SLOT_SALT) ^ (ord as u64 + 1).wrapping_mul(ORDER_SALT))
}

/// `splitmix64` finalizer: full-avalanche 64-bit mixer.
#[inline]
fn mix(x: u64) -> u64 {
    let mut z = x;
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One `(value, count)` row of a context's frequency table. A live
/// follower's count is at least 1; an unused inline row reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Follower {
    value: Value,
    count: u64,
}

/// The key half of a table entry: what [`Vht`] compares and stores
/// without knowing how the entry keeps its followers.
trait Keyed {
    /// A fresh entry, with no followers, for a context of `key_len`
    /// values of `slot`. `key` is the context itself when it fits inline;
    /// otherwise `key[0]` is its offset into the key arena.
    fn fresh(slot: u32, key_len: u8, key: [Value; INLINE_KEY]) -> Self;
    /// Owning slot, context length and inline key, as given to `fresh`.
    fn key(&self) -> (u32, usize, &[Value; INLINE_KEY]);
}

/// One (slot, order, context) entry of the flat table.
///
/// Invariant: the first follower (inline or spilled) is the argmax by
/// count, ties going to the value counted most recently — predictions
/// never scan. Only a follower just counted can overtake the front, and it
/// is the most recent, so it takes the front when its count reaches the
/// front's.
#[derive(Debug, Clone)]
struct CtxEntry {
    /// Owning dense slot (per-instruction isolation is part of the key).
    slot: u32,
    /// Context length == the model order this entry belongs to.
    key_len: u8,
    /// Follower capacity is `1 << cap_log2`; up to `INLINE_FOLLOWERS`
    /// means inline storage.
    cap_log2: u8,
    /// The context itself when `key_len <= INLINE_KEY`; otherwise `key[0]`
    /// is its offset into the key arena.
    key: [Value; INLINE_KEY],
    /// Inline follower storage (the common case: most contexts are
    /// followed by one or two distinct values): the live followers are the
    /// prefix with a nonzero count. Once the list spills, the storage is
    /// dead and `inline[0].value` holds the spilled list's position.
    inline: [Follower; INLINE_FOLLOWERS],
}

// Stride-like traces create one entry per order per record, so the entry
// size sets both their memory and their cache misses. The fields take 62
// bytes; alignment pads them to 64, one cache line.
const _: () = assert!(std::mem::size_of::<Follower>() == 16);
const _: () = assert!(std::mem::size_of::<CtxEntry>() == 64);
// Capacities are powers of two (`cap_log2`), so index regions are too.
const _: () = assert!(INLINE_FOLLOWERS.is_power_of_two());
// An inline list that doubles still fits the scan, so it needs no index.
const _: () = assert!(2 * INLINE_FOLLOWERS <= SCAN_CAP);

impl Keyed for CtxEntry {
    fn fresh(slot: u32, key_len: u8, key: [Value; INLINE_KEY]) -> Self {
        CtxEntry {
            slot,
            key_len,
            cap_log2: INLINE_FOLLOWERS.trailing_zeros() as u8,
            key,
            inline: [Follower::default(); INLINE_FOLLOWERS],
        }
    }

    #[inline]
    fn key(&self) -> (u32, usize, &[Value; INLINE_KEY]) {
        (self.slot, self.key_len as usize, &self.key)
    }
}

impl CtxEntry {
    #[inline]
    fn cap(&self) -> usize {
        1 << self.cap_log2
    }

    /// The live inline followers (the list has not spilled).
    #[inline]
    fn inline_len(&self) -> usize {
        self.inline.iter().take_while(|f| f.count > 0).count()
    }

    /// The position of the spilled follower list (the list has spilled).
    #[inline]
    fn list_pos(&self) -> u32 {
        self.inline[0].value as u32
    }
}

/// Bumps `value` inside a short follower list by scanning it, maintaining
/// the front-is-argmax invariant. Returns `false` when the value is not
/// present (the caller appends it).
#[inline]
fn bump_scanned(fs: &mut [Follower], value: Value) -> bool {
    let Some(i) = fs.iter().position(|f| f.value == value) else { return false };
    bump_at(fs, i);
    true
}

/// Counts one occurrence of follower `i` and swaps it to the front when it
/// becomes the argmax. The bumped follower is the most recent, so it is
/// the argmax exactly when its count reaches the front's.
#[inline]
fn bump_at(fs: &mut [Follower], i: usize) {
    fs[i].count += 1;
    if fs[i].count >= fs[0].count {
        fs.swap(0, i);
    }
}

/// Bumps `value` in a long follower list through its index `region` (see
/// [`index_find`]). An argmax swap rewrites the two slots it moves.
/// Returns `false` when the value is not present.
#[inline]
fn bump_indexed(fs: &mut [Follower], region: &mut [u32], value: Value) -> bool {
    let Some((i, b)) = index_find(region, value, |at| fs[at].value) else { return false };
    let front = fs[0].value;
    bump_at(fs, i);
    if i > 0 && fs[0].value == value {
        let slot = front_slot(region, front);
        region[slot] = i as u32 + 1;
        region[b] = 1;
    }
    true
}

/// Finds `value` through a follower index `region`: a power-of-two
/// open-addressed table of `1 + position` (0 = empty), probed linearly
/// from `mix(value)` and confirmed against `value_at(position)`. Returns
/// the follower's position and the region slot holding it.
#[inline]
fn index_find(
    region: &[u32],
    value: Value,
    value_at: impl Fn(usize) -> Value,
) -> Option<(usize, usize)> {
    let mask = region.len() - 1;
    let mut b = mix(value) as usize & mask;
    loop {
        match region[b] {
            0 => return None,
            s if value_at(s as usize - 1) == value => return Some((s as usize - 1, b)),
            _ => b = (b + 1) & mask,
        }
    }
}

/// The index slot of the front follower, found on its value's probe path
/// (each position appears exactly once in a region).
#[inline]
fn front_slot(region: &[u32], front: Value) -> usize {
    let mask = region.len() - 1;
    let mut b = mix(front) as usize & mask;
    while region[b] != 1 {
        b = (b + 1) & mask;
    }
    b
}

/// Records follower position `at` for `value` in an index region (which
/// is at most half full, so an empty slot always exists).
#[inline]
fn index_insert(region: &mut [u32], value: Value, at: usize) {
    let mask = region.len() - 1;
    let mut b = mix(value) as usize & mask;
    while region[b] != 0 {
        b = (b + 1) & mask;
    }
    region[b] = at as u32 + 1;
}

/// Rebuilds an index region from scratch over a follower list's values.
fn index_rebuild(region: &mut [u32], values: impl Iterator<Item = Value>) {
    region.fill(0);
    for (at, value) in values.enumerate() {
        index_insert(region, value, at);
    }
}

/// The index a table of `len` entries gives its next entry. It stays
/// below [`NO_ENTRY`], so it never reads as "absent" to the descent and
/// `1 + idx` never wraps to the empty bucket word.
#[inline]
fn next_index(len: usize) -> u32 {
    u32::try_from(len)
        .ok()
        .filter(|&idx| idx < NO_ENTRY)
        .expect("context entries fit below NO_ENTRY")
}

/// A bucket word: the hash tag above `1 + idx`. `idx` stays below
/// [`NO_ENTRY`], so the low half is never 0 and a word is never empty.
#[inline]
fn bucket(tag: u32, idx: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(idx + 1)
}

/// Writes `word` into the first empty bucket on its tag's probe path.
#[inline]
fn seat(buckets: &mut [u64], word: u64) {
    let mask = buckets.len() - 1;
    let mut b = (word >> 32) as usize & mask;
    while buckets[b] != 0 {
        b = (b + 1) & mask;
    }
    buckets[b] = word;
}

/// Items per [`Paged`] page, as a shift: a position is
/// `page << PAGE_BITS | offset`.
const PAGE_BITS: u32 = 12;

/// Items per [`Paged`] page.
const PAGE: usize = 1 << PAGE_BITS;

/// Append-only storage on fixed pages of [`PAGE`] items. Each page is
/// allocated once at full capacity and never grows, so nothing stored
/// ever moves or is copied, and growing the arena never holds an old and
/// a new copy at once (a doubling `Vec` does both).
#[derive(Debug)]
struct Paged<T> {
    pages: Vec<Vec<T>>,
}

impl<T> Default for Paged<T> {
    fn default() -> Self {
        Paged { pages: Vec::new() }
    }
}

// A derived clone would size each page to its length, so a clone's last
// page would grow, and move, on its next push.
impl<T: Clone> Clone for Paged<T> {
    fn clone(&self) -> Self {
        let pages = self
            .pages
            .iter()
            .map(|page| {
                let mut copy = Vec::with_capacity(PAGE);
                copy.extend_from_slice(page);
                copy
            })
            .collect();
        Paged { pages }
    }
}

impl<T> Paged<T> {
    /// The position the next [`Paged::push`] returns while the last page
    /// has room: the item count when every write is a push.
    fn len(&self) -> usize {
        self.pages.last().map_or(0, |last| ((self.pages.len() - 1) << PAGE_BITS) + last.len())
    }

    /// The last page and its number, after starting a fresh page unless
    /// the last one has room for `n` more items.
    fn page_with_room(&mut self, n: usize) -> (usize, &mut Vec<T>) {
        assert!(n <= PAGE, "a run of {n} items does not fit a page");
        if self.pages.last().is_none_or(|last| last.len() + n > PAGE) {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        let page = self.pages.len() - 1;
        (page, &mut self.pages[page])
    }

    /// Appends `item` and returns its position.
    fn push(&mut self, item: T) -> u32 {
        let (page, items) = self.page_with_room(1);
        let pos = position(page, items.len());
        items.push(item);
        pos
    }

    /// Forgets every item: positions restart at 0 on the first page,
    /// whose allocation stays, and every later page goes back to the
    /// allocator.
    fn clear(&mut self) {
        self.pages.truncate(1);
        if let Some(first) = self.pages.first_mut() {
            first.clear();
        }
    }

    #[inline]
    fn get(&self, pos: u32) -> &T {
        &self.pages[(pos >> PAGE_BITS) as usize][pos as usize & (PAGE - 1)]
    }

    #[inline]
    fn get_mut(&mut self, pos: u32) -> &mut T {
        &mut self.pages[(pos >> PAGE_BITS) as usize][pos as usize & (PAGE - 1)]
    }

    /// The `n` items of the run at `pos`.
    #[inline]
    fn run(&self, pos: u32, n: usize) -> &[T] {
        let at = pos as usize & (PAGE - 1);
        &self.pages[(pos >> PAGE_BITS) as usize][at..at + n]
    }

    #[inline]
    fn run_mut(&mut self, pos: u32, n: usize) -> &mut [T] {
        let at = pos as usize & (PAGE - 1);
        &mut self.pages[(pos >> PAGE_BITS) as usize][at..at + n]
    }
}

impl<T: Clone + Default> Paged<T> {
    /// Appends a run of `n` default items inside one page (a run never
    /// crosses a page; a page end too short for it is left unused) and
    /// returns the run's position.
    fn reserve_run(&mut self, n: usize) -> u32 {
        let (page, items) = self.page_with_room(n);
        let pos = position(page, items.len());
        items.resize(items.len() + n, T::default());
        pos
    }
}

/// The [`Paged`] position of `offset` in `page`.
#[inline]
fn position(page: usize, offset: usize) -> u32 {
    u32::try_from((page << PAGE_BITS) | offset).expect("paged arena fits u32")
}

/// A follower list that outgrew the inline pair, in allocations of its
/// own: the live followers, with room for the entry's capacity, and once
/// that capacity passes [`SCAN_CAP`] an index region of twice the
/// capacity (empty below it). Growth reallocates both, so the allocator
/// gets back, and reuses, what the smaller list held.
#[derive(Debug, Clone, Default)]
struct Spilled {
    fs: Vec<Follower>,
    index: Box<[u32]>,
}

/// The flat open-addressed value-history table: every (slot, order,
/// context) entry `E` of the predictor, plus the key arena and the
/// arena `L` of follower lists that outgrew their entries. Entries are
/// never removed (matching the unbounded paper model), so entry indices
/// are stable across bucket growth — the fused probe caches them safely.
/// The paged arenas never move what they hold.
#[derive(Debug, Clone)]
struct Vht<E = CtxEntry, L = Spilled> {
    /// Power-of-two open-addressed index of packed words (see [`bucket`]),
    /// 0 = empty.
    buckets: Vec<u64>,
    /// Entry arena, append-only; an entry's index is its position.
    entries: Paged<E>,
    /// Spilled context keys (orders above `INLINE_KEY`), append-only.
    keys: Paged<Value>,
    /// Follower lists that outgrew their entries, append-only; an entry
    /// keeps its list's position in its dead inline storage.
    spilled: Paged<L>,
}

impl<E, L> Default for Vht<E, L> {
    fn default() -> Self {
        Vht {
            buckets: Vec::new(),
            entries: Paged::default(),
            keys: Paged::default(),
            spilled: Paged::default(),
        }
    }
}

impl<E: Keyed, L> Vht<E, L> {
    /// Number of distinct (slot, order, context) entries ever created.
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn key_matches(&self, e: &E, slot: u32, ctx: &[Value]) -> bool {
        let (owner, key_len, key) = e.key();
        owner == slot
            && key_len == ctx.len()
            && if ctx.len() <= INLINE_KEY {
                key[..ctx.len()] == *ctx
            } else {
                self.keys.run(key[0] as u32, ctx.len()) == ctx
            }
    }

    /// Finds the entry for `(slot, ctx)` under `hash`, or [`NO_ENTRY`].
    /// Only a bucket whose tag matches costs an entry read.
    #[inline]
    fn probe(&self, hash: u64, slot: u32, ctx: &[Value]) -> u32 {
        if self.buckets.is_empty() {
            return NO_ENTRY;
        }
        let tag = hash as u32;
        let mask = self.buckets.len() - 1;
        let mut b = tag as usize & mask;
        loop {
            let word = self.buckets[b];
            if word == 0 {
                return NO_ENTRY;
            }
            if (word >> 32) as u32 == tag {
                let idx = word as u32 - 1;
                if self.key_matches(self.entries.get(idx), slot, ctx) {
                    return idx;
                }
            }
            b = (b + 1) & mask;
        }
    }

    /// Inserts a fresh empty entry for `(slot, ctx)` (which must not be
    /// present) and returns its index.
    fn insert(&mut self, hash: u64, slot: u32, ctx: &[Value]) -> u32 {
        let idx = next_index(self.entries.len());
        if self.buckets.is_empty() {
            self.buckets = vec![0; 64];
        } else if (self.entries.len() + 1) * 8 > self.buckets.len() * 7 {
            self.grow();
        }
        let mut key = [0; INLINE_KEY];
        if ctx.len() <= INLINE_KEY {
            key[..ctx.len()].copy_from_slice(ctx);
        } else {
            let pos = self.keys.reserve_run(ctx.len());
            self.keys.run_mut(pos, ctx.len()).copy_from_slice(ctx);
            key[0] = Value::from(pos);
        }
        let pushed = self.entries.push(E::fresh(slot, ctx.len() as u8, key));
        assert_eq!(pushed, idx, "an entry's index is its position");
        seat(&mut self.buckets, bucket(hash as u32, idx));
        idx
    }

    /// Forgets every entry, key and list, keeping the arenas' first
    /// pages. The bucket index is zeroed in place while the entries
    /// filled it past an eighth, and dropped otherwise, so a clear never
    /// costs more than the inserts it follows: a huge index is not zeroed
    /// again after every small one.
    fn clear(&mut self) {
        if self.entries.len() * 8 >= self.buckets.len() {
            self.buckets.fill(0);
        } else {
            self.buckets = Vec::new();
        }
        self.entries.clear();
        self.keys.clear();
        self.spilled.clear();
    }

    /// Doubles the bucket index, reseating every word by its tag in bucket
    /// order. No entry is read.
    fn grow(&mut self) {
        let mut buckets = vec![0; self.buckets.len() * 2];
        for &word in self.buckets.iter().filter(|&&word| word != 0) {
            seat(&mut buckets, word);
        }
        self.buckets = buckets;
    }

    /// Probes for the current order-`ord` context of `slot` in `history`.
    #[inline]
    fn find(&self, history: &History, slot: usize, ord: usize) -> u32 {
        self.probe(history.hash_at(slot, ord), slot as u32, history.context(slot, ord))
    }

    /// Inserts the current order-`ord` context of `slot` in `history`.
    fn add(&mut self, history: &History, slot: usize, ord: usize) -> u32 {
        self.insert(history.hash_at(slot, ord), slot as u32, history.context(slot, ord))
    }
}

impl Vht {
    /// The entry's current argmax value. Every entry has a follower: the
    /// update that inserts an entry bumps it in the same call, and counts
    /// only ever grow.
    #[inline]
    fn top_value(&self, idx: u32) -> Value {
        let e = self.entries.get(idx);
        if e.cap() <= INLINE_FOLLOWERS {
            e.inline[0].value
        } else {
            self.spilled.get(e.list_pos()).fs[0].value
        }
    }

    /// Counts one occurrence of `value` after this entry's context.
    fn bump(&mut self, idx: u32, value: Value) {
        let e = self.entries.get_mut(idx);
        let bumped = if e.cap() <= INLINE_FOLLOWERS {
            let len = e.inline_len();
            bump_scanned(&mut e.inline[..len], value)
        } else {
            let Spilled { fs, index } = self.spilled.get_mut(e.list_pos());
            if index.is_empty() {
                bump_scanned(fs, value)
            } else {
                bump_indexed(fs, index, value)
            }
        };
        if !bumped {
            self.push_follower(idx, value);
        }
    }

    /// Appends a fresh `(value, 1)` follower, relocating the list first
    /// when it is full. The newest follower takes the front exactly when
    /// the front's count is 1 too (it then wins the tie on recency).
    fn push_follower(&mut self, idx: u32, value: Value) {
        let e = self.entries.get(idx);
        let len = if e.cap() <= INLINE_FOLLOWERS {
            e.inline_len()
        } else {
            self.spilled.get(e.list_pos()).fs.len()
        };
        if len == e.cap() {
            self.relocate(idx);
        }
        let e = self.entries.get_mut(idx);
        let fresh = Follower { value, count: 1 };
        if e.cap() <= INLINE_FOLLOWERS {
            e.inline[len] = fresh;
            if len > 0 && e.inline[0].count <= 1 {
                e.inline.swap(0, len);
            }
            return;
        }
        let Spilled { fs, index } = self.spilled.get_mut(e.list_pos());
        fs.push(fresh);
        let to_front = len > 0 && fs[0].count <= 1;
        if !index.is_empty() {
            if to_front {
                let front = front_slot(index, fs[0].value);
                index[front] = len as u32 + 1;
                index_insert(index, value, 0);
            } else {
                index_insert(index, value, len);
            }
        }
        if to_front {
            fs.swap(0, len);
        }
    }

    /// Doubles a full follower list's capacity: an inline list moves into
    /// a fresh [`Spilled`] list, whose position takes over the inline
    /// storage, and a spilled list reallocates its own followers, building
    /// its index once it outgrows the scan.
    fn relocate(&mut self, idx: u32) {
        let e = self.entries.get_mut(idx);
        let cap = e.cap();
        e.cap_log2 += 1;
        if cap <= INLINE_FOLLOWERS {
            let mut fs = Vec::with_capacity(2 * cap);
            fs.extend_from_slice(&e.inline);
            e.inline[0].value =
                Value::from(self.spilled.push(Spilled { fs, index: Box::default() }));
            return;
        }
        let Spilled { fs, index } = self.spilled.get_mut(e.list_pos());
        fs.reserve_exact(cap);
        if 2 * cap > SCAN_CAP {
            *index = vec![0; 4 * cap].into_boxed_slice();
            index_rebuild(index, fs.iter().map(|f| f.value));
        }
    }
}

/// Per-slot value histories and rolling context hashes, `order` values
/// deep: the state every probe of an order-`order` predictor (or bank)
/// derives its keys and hashes from.
#[derive(Debug, Clone)]
struct History {
    order: usize,
    /// Per-slot recent values, strided `order` wide, newest last within
    /// `hist_len[slot]`.
    hist: Vec<Value>,
    /// Live history length per slot (0..=order).
    hist_len: Vec<u8>,
    /// Per-slot rolling hashes `H_1..H_order`, strided `order` wide:
    /// `ghash[slot*order + j-1]` covers the most recent `j` values.
    ghash: Vec<u64>,
}

impl History {
    fn new(order: usize) -> Self {
        History { order, hist: Vec::new(), hist_len: Vec::new(), ghash: Vec::new() }
    }

    /// Grows the per-slot arenas to cover `slot`.
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.hist_len.len() {
            self.hist_len.resize(slot + 1, 0);
            self.hist.resize((slot + 1) * self.order, 0);
            self.ghash.resize((slot + 1) * self.order, 0);
        }
    }

    /// Forgets every slot's values, keeping the slots.
    fn clear(&mut self) {
        self.hist_len.fill(0);
        self.ghash.fill(0);
    }

    /// Values the slot has seen, up to the order.
    #[inline]
    fn len(&self, slot: usize) -> usize {
        self.hist_len[slot] as usize
    }

    /// Bucket hash for the current order-`ord` context of `slot`, derived
    /// from the rolling state (no key material is touched).
    #[inline]
    fn hash_at(&self, slot: usize, ord: usize) -> u64 {
        let g = if ord == 0 { 0 } else { self.ghash[slot * self.order + ord - 1] };
        ctx_hash(g, slot, ord)
    }

    /// The current order-`ord` context of `slot`, oldest value first.
    /// Requires `len(slot) >= ord`.
    #[inline]
    fn context(&self, slot: usize, ord: usize) -> &[Value] {
        let end = slot * self.order + self.len(slot);
        &self.hist[end - ord..end]
    }

    /// Slides `actual` into the slot's history window and rolls every
    /// order's hash forward in place (descending, so each step reads the
    /// previous record's lower-order state).
    fn push(&mut self, slot: usize, actual: Value) {
        let order = self.order;
        if order == 0 {
            return;
        }
        let base = slot * order;
        let len = self.hist_len[slot] as usize;
        if len == order {
            self.hist.copy_within(base + 1..base + order, base);
            self.hist[base + order - 1] = actual;
        } else {
            self.hist[base + len] = actual;
            self.hist_len[slot] = (len + 1) as u8;
        }
        let mixed = mix(actual);
        let g = &mut self.ghash[base..base + order];
        for j in (1..order).rev() {
            g[j] = mixed.wrapping_add(HASH_B.wrapping_mul(g[j - 1]));
        }
        g[0] = mixed;
    }
}

/// Result of the fused descending probe: the prediction, the longest
/// matched order, and every entry index the descent touched (reused
/// verbatim by the update, which only re-probes orders the descent never
/// reached).
struct Descent {
    prediction: Option<Value>,
    matched: Option<usize>,
    /// Lowest order actually probed; `found[ord]` is valid for
    /// `ord >= probed_down`.
    probed_down: usize,
    /// Cached probe results per order ([`NO_ENTRY`] = probed, absent).
    found: [u32; MAX_ORDER + 1],
}

/// A finite context method value predictor with blending.
///
/// For every static instruction the predictor keeps the last *k* values
/// (the *context*) and, per order 0..=k, a table mapping each historical
/// context to the frequency of each value that followed it. The predicted
/// value is the most frequent follower of the longest matching context.
///
/// This enables prediction of *any* repeating sequence — stride or
/// non-stride — which is exactly the flexibility the paper identifies as the
/// strong point of context-based prediction.
///
/// # Examples
///
/// ```
/// use dvp_core::{FcmPredictor, Interned};
/// use dvp_trace::Pc;
///
/// let mut p = Interned::new(FcmPredictor::new(2));
/// let pc = Pc(0x10);
/// // A repeating non-stride sequence: 1 -13 99 1 -13 99 ...
/// let seq = [1u64, (-13i64) as u64, 99];
/// for _ in 0..2 {
///     for &v in &seq {
///         p.update(pc, v);
///     }
/// }
/// // Context (-13, 99) was followed by 1 last time around.
/// assert_eq!(p.predict(pc), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct FcmPredictor {
    blending: Blending,
    name: String,
    history: History,
    vht: Vht,
}

impl FcmPredictor {
    /// Creates an order-`order` FCM predictor with lazy-exclusion blending
    /// — the configuration evaluated in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `order > 64` (a guard against accidentally unbounded
    /// contexts; the paper studies orders 1..=8).
    #[must_use]
    pub fn new(order: usize) -> Self {
        FcmPredictor::with_config(order, Blending::LazyExclusion)
    }

    /// Creates an FCM predictor with the given blending.
    ///
    /// # Panics
    ///
    /// Panics if `order > 64`.
    #[must_use]
    pub fn with_config(order: usize, blending: Blending) -> Self {
        assert!(order <= MAX_ORDER, "FCM order {order} is unreasonably large");
        let blend = match blending {
            Blending::LazyExclusion => "",
            Blending::SingleOrder => "-single",
        };
        let name = format!("fcm{order}{blend}");
        FcmPredictor { blending, name, history: History::new(order), vht: Vht::default() }
    }

    /// Total number of distinct (order, context) pairs stored across all
    /// static instructions — a proxy for the unbounded-table cost the paper
    /// discusses in Section 4.3.
    #[must_use]
    pub fn context_entries(&self) -> usize {
        self.vht.len()
    }

    /// The fused descending probe: longest-match search and probe-result
    /// cache in one walk over the shared rolling-hash state.
    fn descend(&self, slot: usize) -> Descent {
        let order = self.history.order;
        let mut d = Descent {
            prediction: None,
            matched: None,
            probed_down: order + 1,
            found: [NO_ENTRY; MAX_ORDER + 1],
        };
        let hist_len = self.history.len(slot);
        match self.blending {
            Blending::SingleOrder => {
                if hist_len >= order {
                    let idx = self.vht.find(&self.history, slot, order);
                    d.found[order] = idx;
                    d.probed_down = order;
                    if idx != NO_ENTRY {
                        d.prediction = Some(self.vht.top_value(idx));
                    }
                }
            }
            Blending::LazyExclusion => {
                for ord in (0..=order.min(hist_len)).rev() {
                    let idx = self.vht.find(&self.history, slot, ord);
                    d.found[ord] = idx;
                    d.probed_down = ord;
                    if idx != NO_ENTRY {
                        d.matched = Some(ord);
                        d.prediction = Some(self.vht.top_value(idx));
                        break;
                    }
                }
            }
        }
        d
    }

    /// Pre-update prediction for an in-range slot.
    fn predict_slot(&self, slot: usize) -> Option<Value> {
        if slot >= self.history.hist_len.len() {
            return None;
        }
        self.descend(slot).prediction
    }

    /// Applies the model update for `actual`, reusing the descent's cached
    /// probes, then advances the history and rolling hashes.
    fn apply_update(&mut self, slot: usize, d: &Descent, actual: Value) {
        let order = self.history.order;
        let hist_len = self.history.len(slot);
        let lowest_updated = match self.blending {
            Blending::SingleOrder => order,
            // Lazy exclusion: update the matched order and higher. On a
            // complete miss (no context matched anywhere) every order is
            // seeded.
            Blending::LazyExclusion => d.matched.unwrap_or(0),
        };
        for ord in lowest_updated..=order.min(hist_len) {
            let mut idx = if ord >= d.probed_down {
                d.found[ord]
            } else {
                self.vht.find(&self.history, slot, ord)
            };
            if idx == NO_ENTRY {
                idx = self.vht.add(&self.history, slot, ord);
            }
            self.vht.bump(idx, actual);
        }
        self.history.push(slot, actual);
    }
}

impl Predictor for FcmPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        if self.history.order == 0 {
            // No history to count: every stepped slot owns exactly one
            // (empty) order-0 context.
            self.vht.len()
        } else {
            self.history.hist_len.iter().filter(|&&len| len > 0).count()
        }
    }

    fn reserve_ids(&mut self, n: usize) {
        if n > 0 {
            self.history.ensure_slot(n - 1);
        }
    }

    fn keeps_per_id_state(&self) -> bool {
        true
    }

    fn bank_form(&self) -> Option<BankForm> {
        (self.blending == Blending::LazyExclusion).then_some(BankForm::Fcm(self.history.order))
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        self.predict_slot(id.index())
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        let slot = id.index();
        self.history.ensure_slot(slot);
        let d = self.descend(slot);
        self.apply_update(slot, &d, actual);
        d.prediction
    }
}

/// Count columns an inline [`BankEntry`] holds: a key shared by more
/// members keeps its followers in a [`BankList`] from the start.
const INLINE_COLUMNS: usize = 3;

/// A [`BankEntry`]'s `len` once its followers live in a [`BankList`]
/// with 16-bit count cells.
const NARROW_LIST: u8 = u8::MAX;

/// A [`BankEntry`]'s `len` once its [`BankList`]'s cells are 32 bits.
const WIDE_LIST: u8 = u8::MAX - 1;

/// A [`BankList`] front no follower holds: the member has counted
/// nothing after this context.
const NO_FRONT: u32 = u32::MAX;

/// One (slot, order, context) key of an [`FcmBank`]. The members whose
/// order reaches the key's order each own one count column, in member
/// order.
///
/// Each column keeps its own argmax front, which moves to a follower when
/// that column's count of it reaches the front's count: the follower just
/// counted is the column's most recent, so ties go to recency exactly as
/// in a lone [`CtxEntry`].
#[derive(Debug, Clone)]
struct BankEntry {
    slot: u32,
    key_len: u8,
    /// Inline followers in use, or [`NARROW_LIST`] / [`WIDE_LIST`].
    len: u8,
    /// Inline fronts, two bits per column: 0 while the member has no
    /// count here, else 1 + the position of its argmax follower.
    fronts: u8,
    key: [Value; INLINE_KEY],
    /// Inline follower values, shared by every column. Once the list
    /// spills, `values[0]` holds its [`BankList`] position.
    values: [Value; INLINE_FOLLOWERS],
    /// Inline counts per column and follower. A count that would pass
    /// `u16::MAX` spills the list first.
    counts: [[u16; INLINE_FOLLOWERS]; INLINE_COLUMNS],
}

// The fields take 60 bytes: a bank key is one cache line, like a lone
// entry, and a front fits its two bits.
const _: () = assert!(std::mem::size_of::<BankEntry>() == 64);
const _: () = assert!(2 * INLINE_COLUMNS <= u8::BITS as usize && INLINE_FOLLOWERS < 4);

impl Keyed for BankEntry {
    fn fresh(slot: u32, key_len: u8, key: [Value; INLINE_KEY]) -> Self {
        BankEntry {
            slot,
            key_len,
            len: 0,
            fronts: 0,
            key,
            values: [0; INLINE_FOLLOWERS],
            counts: [[0; INLINE_FOLLOWERS]; INLINE_COLUMNS],
        }
    }

    #[inline]
    fn key(&self) -> (u32, usize, &[Value; INLINE_KEY]) {
        (self.slot, self.key_len as usize, &self.key)
    }
}

impl BankEntry {
    /// The spilled list's position and whether its cells are wide, once
    /// the followers have left the entry.
    #[inline]
    fn list(&self) -> Option<(u32, bool)> {
        (usize::from(self.len) > INLINE_FOLLOWERS)
            .then(|| (self.values[0] as u32, self.len == WIDE_LIST))
    }
}

/// A bank key's followers once they outgrow the entry, in two
/// allocations, so that a list header is no larger than a lone
/// [`Spilled`] list's: the shared values, and one body of words holding
/// each column's argmax front ([`NO_FRONT`] while absent), then, once
/// the values have room for more than [`SCAN_CAP`] followers, an index
/// region (see [`index_find`]) of twice that room, then one row of
/// `width` count cells for every follower there is room for. A cell is
/// 16 bits, two to a word (a stride instruction's order-0 list holds a
/// row for every value it produced), until a count would pass
/// `u16::MAX`; the list then widens to a word a cell, and its entry
/// records which. Followers never move, so the body is rebuilt only when
/// the room doubles or the cells widen.
#[derive(Debug, Clone, Default)]
struct BankList {
    values: Vec<Value>,
    body: Box<[u32]>,
}

/// Reads cell `k` of a cell region.
#[inline]
fn cell(cells: &[u32], wide: bool, k: usize) -> u32 {
    if wide {
        cells[k]
    } else {
        (cells[k / 2] >> (16 * (k % 2))) & 0xFFFF
    }
}

/// Writes cell `k` of a cell region.
#[inline]
fn set_cell(cells: &mut [u32], wide: bool, k: usize, count: u32) {
    if wide {
        cells[k] = count;
    } else {
        let shift = 16 * (k % 2);
        cells[k / 2] = (cells[k / 2] & !(0xFFFF << shift)) | (count << shift);
    }
}

impl BankList {
    /// An empty list of a key `width` columns wide.
    fn new(width: usize) -> Self {
        BankList { values: Vec::new(), body: vec![NO_FRONT; width].into_boxed_slice() }
    }

    /// The index region's length for room for `room` followers.
    fn region(room: usize) -> usize {
        if room > SCAN_CAP {
            2 * room.next_power_of_two()
        } else {
            0
        }
    }

    /// Where the cells start in the body.
    #[inline]
    fn cells_at(&self, width: usize) -> usize {
        width + BankList::region(self.values.capacity())
    }

    /// The position of `value` among the followers.
    #[inline]
    fn find(&self, width: usize, value: Value) -> Option<usize> {
        match BankList::region(self.values.capacity()) {
            0 => self.values.iter().position(|&v| v == value),
            region => index_find(&self.body[width..width + region], value, |at| self.values[at])
                .map(|(at, _)| at),
        }
    }

    /// Counts `value` once for each column in `cols`, appending it as a
    /// new follower when absent. Counts nothing and returns `false` when a
    /// narrow count would pass `u16::MAX` (the caller widens the list).
    fn bump(&mut self, width: usize, wide: bool, value: Value, cols: &[u8]) -> bool {
        let at = self.find(width, value).unwrap_or_else(|| self.push(width, wide, value));
        let start = self.cells_at(width);
        let (fronts, rest) = self.body.split_at_mut(width);
        let cells = &mut rest[start - width..];
        let row = at * width;
        let full = if wide { u32::MAX } else { u32::from(u16::MAX) };
        if cols.iter().any(|&col| cell(cells, wide, row + usize::from(col)) == full) {
            assert!(!wide, "a follower counted 2^32 times");
            return false;
        }
        for &col in cols {
            let col = usize::from(col);
            let count = cell(cells, wide, row + col) + 1;
            set_cell(cells, wide, row + col, count);
            let front = fronts[col];
            if front == NO_FRONT || count >= cell(cells, wide, front as usize * width + col) {
                fronts[col] = at as u32;
            }
        }
        true
    }

    /// Appends `value` with a zero count in every column, doubling the
    /// room first when the list is full, and returns its position.
    fn push(&mut self, width: usize, wide: bool, value: Value) -> usize {
        let at = self.values.len();
        if at == self.values.capacity() {
            self.rebuild(width, wide, wide, (2 * at).max(2 * INLINE_FOLLOWERS));
        }
        self.values.push(value);
        let region = BankList::region(self.values.capacity());
        if region > 0 {
            index_insert(&mut self.body[width..width + region], value, at);
        }
        at
    }

    /// Rebuilds the body with room for at least `room` followers and
    /// `wide` cells, keeping every front and count.
    fn rebuild(&mut self, width: usize, was_wide: bool, wide: bool, room: usize) {
        let (len, old) = (self.values.len(), self.cells_at(width));
        self.values.reserve_exact(room - len);
        let room = self.values.capacity();
        let region = BankList::region(room);
        let cells = if wide { width * room } else { (width * room).div_ceil(2) };
        let mut body = vec![0; width + region + cells].into_boxed_slice();
        body[..width].copy_from_slice(&self.body[..width]);
        for k in 0..len * width {
            let count = cell(&self.body[old..], was_wide, k);
            set_cell(&mut body[width + region..], wide, k, count);
        }
        if region > 0 {
            index_rebuild(&mut body[width..width + region], self.values.iter().copied());
        }
        self.body = body;
    }
}

impl Vht<BankEntry, BankList> {
    /// Column `col`'s argmax follower of entry `idx`, or `None` when that
    /// member has counted nothing after the entry's context.
    #[inline]
    fn column_top(&self, idx: u32, col: usize) -> Option<Value> {
        let e = self.entries.get(idx);
        match e.list() {
            None => match (e.fronts >> (2 * col)) & 3 {
                0 => None,
                front => Some(e.values[usize::from(front) - 1]),
            },
            Some((list, _)) => {
                let list = self.spilled.get(list);
                match list.body[col] {
                    NO_FRONT => None,
                    front => Some(list.values[front as usize]),
                }
            }
        }
    }

    /// Counts one occurrence of `value` after entry `idx`'s context for
    /// each column in `cols` of the key's `width`: the follower is found
    /// (or appended) once for all of them.
    fn bump_columns(&mut self, idx: u32, width: usize, value: Value, cols: &[u8]) {
        let e = self.entries.get_mut(idx);
        if e.list().is_none() && width <= INLINE_COLUMNS {
            let len = usize::from(e.len);
            let at = match e.values[..len].iter().position(|&v| v == value) {
                Some(at) => {
                    cols.iter().all(|&col| e.counts[usize::from(col)][at] < u16::MAX).then_some(at)
                }
                None if len < INLINE_FOLLOWERS => {
                    e.values[len] = value;
                    e.len += 1;
                    Some(len)
                }
                None => None,
            };
            if let Some(at) = at {
                for &col in cols {
                    let col = usize::from(col);
                    let counts = &mut e.counts[col];
                    counts[at] += 1;
                    let front = usize::from((e.fronts >> (2 * col)) & 3);
                    if front == 0 || counts[at] >= counts[front - 1] {
                        e.fronts = (e.fronts & !(3 << (2 * col))) | ((at as u8 + 1) << (2 * col));
                    }
                }
                return;
            }
        }
        if e.list().is_none() {
            self.spill_columns(idx, width);
        }
        let (list, wide) = self.entries.get(idx).list().expect("spilled above");
        let list = self.spilled.get_mut(list);
        if !list.bump(width, wide, value, cols) {
            list.rebuild(width, false, true, list.values.capacity());
            assert!(list.bump(width, true, value, cols), "a widened list counts");
            self.entries.get_mut(idx).len = WIDE_LIST;
        }
    }

    /// Moves entry `idx`'s inline followers, counts and fronts into a
    /// fresh narrow [`BankList`] of a key `width` columns wide.
    fn spill_columns(&mut self, idx: u32, width: usize) {
        let e = self.entries.get_mut(idx);
        let len = usize::from(e.len);
        let mut list = BankList::new(width);
        for &value in &e.values[..len] {
            list.push(width, false, value);
        }
        let start = list.cells_at(width);
        for col in 0..width.min(INLINE_COLUMNS) {
            if let Some(at) = usize::from((e.fronts >> (2 * col)) & 3).checked_sub(1) {
                list.body[col] = at as u32;
            }
            for at in 0..len {
                let count = u32::from(e.counts[col][at]);
                set_cell(&mut list.body[start..], false, at * width + col, count);
            }
        }
        e.len = NARROW_LIST;
        e.values[0] = Value::from(self.spilled.push(list));
    }
}

/// A bank of lazy-exclusion FCM predictors of several orders over one
/// shared table: each member predicts and learns bit for bit as a lone
/// [`FcmPredictor::new`] of its order would, while one descending walk
/// per record serves them all.
///
/// All members see the same per-instruction history, so the bank keeps
/// one history and one table of (instruction, order, context) keys. A
/// key holds its follower values once; every member whose order reaches
/// the key's order counts followers in a column of its own and keeps its
/// own argmax there, and a member's context exists only where it has
/// counted. The walk probes each order once, from the largest down, until
/// every member has found its longest match (at most K + 1 probes for a
/// largest order K), and the update counts each follower once for all
/// the members that learn it.
///
/// # Examples
///
/// ```
/// use dvp_core::{FcmBank, FcmPredictor, Predictor};
/// use dvp_trace::{Pc, PcId};
///
/// let mut bank = FcmBank::new([3, 1]);
/// assert_eq!(bank.orders(), [1, 3]);
/// let mut lone = [FcmPredictor::new(1), FcmPredictor::new(3)];
/// let mut predictions = [None; 2];
/// for v in [1u64, 2, 3, 1, 2, 4, 1, 2, 3, 1, 2] {
///     bank.step(PcId(0), v, &mut predictions);
///     for (member, p) in lone.iter_mut().enumerate() {
///         assert_eq!(predictions[member], p.step(PcId(0), Pc(0), v));
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct FcmBank {
    /// Member orders, ascending and distinct.
    orders: Vec<usize>,
    /// `first[ord]`: the first member whose order reaches `ord`. Members
    /// `first[ord]..` own columns `0..` of an order-`ord` key.
    first: Vec<usize>,
    /// Histories as deep as the largest order.
    history: History,
    vht: Vht<BankEntry, BankList>,
}

impl FcmBank {
    /// A bank of one lazy-exclusion member per distinct order in
    /// `orders`, kept in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `orders` is empty or names an order above 64.
    #[must_use]
    pub fn new(orders: impl IntoIterator<Item = usize>) -> Self {
        let mut orders: Vec<usize> = orders.into_iter().collect();
        orders.sort_unstable();
        orders.dedup();
        let top = *orders.last().expect("an FCM bank needs a member");
        assert!(top <= MAX_ORDER, "FCM order {top} is unreasonably large");
        let first = (0..=top).map(|ord| orders.partition_point(|&o| o < ord)).collect();
        FcmBank { orders, first, history: History::new(top), vht: Vht::default() }
    }

    /// The members' orders, ascending: member `m` has order `orders()[m]`.
    #[must_use]
    pub fn orders(&self) -> &[usize] {
        &self.orders
    }

    /// Distinct (instruction, order, context) keys in the shared table.
    #[must_use]
    pub fn context_entries(&self) -> usize {
        self.vht.len()
    }

    /// Pre-sizes the per-instruction state for `n` interned ids.
    pub fn reserve_ids(&mut self, n: usize) {
        if n > 0 {
            self.history.ensure_slot(n - 1);
        }
    }

    /// Forgets everything the members learned, keeping the table's
    /// allocations: afterwards the bank predicts and counts exactly as a
    /// new bank of the same orders, and an instruction replayed after
    /// another pays no allocation of the pages the first one filled.
    ///
    /// ```
    /// use dvp_core::FcmBank;
    /// use dvp_trace::PcId;
    ///
    /// let mut bank = FcmBank::new([1, 2]);
    /// let mut predictions = [None; 2];
    /// for v in [4u64, 5, 4, 5] {
    ///     bank.step(PcId(0), v, &mut predictions);
    /// }
    /// assert_eq!(predictions, [Some(5), Some(5)]);
    /// bank.clear();
    /// assert_eq!(bank.context_entries(), 0);
    /// bank.step(PcId(0), 4, &mut predictions);
    /// assert_eq!(predictions, [None, None]);
    /// ```
    pub fn clear(&mut self) {
        self.history.clear();
        self.vht.clear();
    }

    /// Predict-then-update for every member at once: writes member `m`'s
    /// prediction before `actual` is learned into `predictions[m]`, then
    /// learns `actual` as each member would.
    ///
    /// # Panics
    ///
    /// Panics unless `predictions` has one element per member.
    pub fn step(&mut self, id: PcId, actual: Value, predictions: &mut [Option<Value>]) {
        let members = self.orders.len();
        assert_eq!(predictions.len(), members, "one prediction per bank member");
        let slot = id.index();
        self.history.ensure_slot(slot);
        let top = self.history.len(slot);
        predictions.fill(None);
        // Each member's lowest updated order: its longest match, or 0.
        let mut lowest = [0u8; MAX_ORDER + 1];
        let mut found = [NO_ENTRY; MAX_ORDER + 1];
        let mut unmatched = members;
        let mut ord = top;
        loop {
            let idx = self.vht.find(&self.history, slot, ord);
            found[ord] = idx;
            if idx != NO_ENTRY {
                let first = self.first[ord];
                for (col, m) in (first..members).enumerate() {
                    if predictions[m].is_none() {
                        predictions[m] = self.vht.column_top(idx, col);
                        if predictions[m].is_some() {
                            lowest[m] = ord as u8;
                            unmatched -= 1;
                        }
                    }
                }
            }
            if unmatched == 0 || ord == 0 {
                break;
            }
            ord -= 1;
        }
        // Update every member from its lowest order up to its own: one
        // key per order, one follower lookup for all the columns counting
        // it. An order no member updates gets no key.
        let mut cols = [0u8; MAX_ORDER + 1];
        for (o, &probed) in found.iter().enumerate().take(top + 1).skip(ord) {
            let first = self.first[o];
            let mut n = 0;
            for (col, m) in (first..members).enumerate() {
                if usize::from(lowest[m]) <= o {
                    cols[n] = col as u8;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let idx = match probed {
                NO_ENTRY => self.vht.add(&self.history, slot, o),
                idx => idx,
            };
            self.vht.bump_columns(idx, members - first, actual, &cols[..n]);
        }
        self.history.push(slot, actual);
    }

    /// Batched [`step`](FcmBank::step): replays a run of records in order
    /// and writes whether member `m` predicted record `i` correctly into
    /// `correct[m * ids.len() + i]` (one column per member).
    ///
    /// # Panics
    ///
    /// Panics unless `values` matches `ids` in length and `correct` holds
    /// one column of that length per member.
    pub fn observe_batch(&mut self, ids: &[PcId], values: &[Value], correct: &mut [bool]) {
        let (n, members) = (ids.len(), self.orders.len());
        assert!(
            values.len() == n && correct.len() == n * members,
            "observe_batch wants one value per id and one column per member"
        );
        let mut predictions = [None; MAX_ORDER + 1];
        for (i, (&id, &value)) in ids.iter().zip(values).enumerate() {
            self.step(id, value, &mut predictions[..members]);
            for (m, &prediction) in predictions[..members].iter().enumerate() {
                correct[m * n + i] = prediction == Some(value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interned;

    const PC: Pc = Pc(0x300);

    fn feed(p: &mut Interned<FcmPredictor>, seq: &[Value]) -> Vec<Option<Value>> {
        seq.iter()
            .map(|&v| {
                let pred = p.predict(PC);
                p.update(PC, v);
                pred
            })
            .collect()
    }

    #[test]
    fn predicts_repeated_non_stride_sequence_after_one_period() {
        let mut p = Interned::new(FcmPredictor::new(2));
        let period = [1u64, u64::MAX - 12, 99, 7];
        let seq: Vec<Value> = period.iter().copied().cycle().take(16).collect();
        let preds = feed(&mut p, &seq);
        // After the first period + order values the order-2 contexts repeat,
        // and everything is predicted correctly (paper: LD = 100%).
        for (i, (&pred, &actual)) in preds.iter().zip(&seq).enumerate().skip(period.len() + 2) {
            assert_eq!(pred, Some(actual), "index {i}");
        }
    }

    #[test]
    fn predicts_repeated_stride_sequence() {
        let mut p = Interned::new(FcmPredictor::new(2));
        let seq: Vec<Value> = (0..24).map(|i| 1 + (i % 4)).collect();
        let preds = feed(&mut p, &seq);
        for (i, (&pred, &actual)) in preds.iter().zip(&seq).enumerate().skip(6) {
            assert_eq!(pred, Some(actual), "index {i}");
        }
    }

    #[test]
    fn cannot_predict_novel_stride_sequence() {
        // A pure (non-repeating) stride sequence never repeats a context, so
        // the high orders never match; the low orders predict stale values.
        let mut p = Interned::new(FcmPredictor::new(3));
        let seq: Vec<Value> = (0..32).map(|i| 10 + 3 * i).collect();
        let preds = feed(&mut p, &seq);
        let correct = preds.iter().zip(&seq).filter(|(&p, &a)| p == Some(a)).count();
        assert_eq!(correct, 0, "fcm cannot extrapolate strides (paper Table 1, row S)");
    }

    #[test]
    fn figure1_worked_example_order_by_order() {
        // The sequence from the paper's Figure 1: a a a b c a a a b c a a a ?
        let (a, b, c) = (1u64, 2u64, 3u64);
        let seq = [a, a, a, b, c, a, a, a, b, c, a, a, a];
        // Single-order models exactly as drawn in the figure.
        for (order, expected) in [(0, a), (1, a), (2, a), (3, b)] {
            let mut p = Interned::new(FcmPredictor::with_config(order, Blending::SingleOrder));
            for &v in &seq {
                p.update(PC, v);
            }
            assert_eq!(p.predict(PC), Some(expected), "order {order}");
        }
    }

    #[test]
    fn order_zero_is_a_frequency_table() {
        let mut p = Interned::new(FcmPredictor::new(0));
        for &v in &[5u64, 5, 5, 9, 9] {
            p.update(PC, v);
        }
        assert_eq!(p.predict(PC), Some(5));
        for _ in 0..3 {
            p.update(PC, 9);
        }
        assert_eq!(p.predict(PC), Some(9));
    }

    #[test]
    fn ties_break_toward_most_recent_value() {
        let mut p = Interned::new(FcmPredictor::new(0));
        p.update(PC, 1);
        p.update(PC, 2);
        // Both values have count 1; 2 is more recent.
        assert_eq!(p.predict(PC), Some(2));
        p.update(PC, 1);
        // Now 1 has count 2.
        assert_eq!(p.predict(PC), Some(1));

        // One order-0 context walks through 1 -> 2 inline followers, the
        // spill at 3 and the follower index built at 9, every count tied.
        let (id, pc) = (PcId(0), PC);
        let mut p = FcmPredictor::new(0);
        let mut caps = Vec::new();
        for n in 1..=17 {
            p.step(id, pc, n);
            assert_eq!(p.predict(id, pc), Some(n), "newest of {n} tied followers");
            let e = p.vht.entries.get(0);
            caps.push(e.cap());
            if e.cap() > SCAN_CAP {
                assert!(!p.vht.spilled.get(e.list_pos()).index.is_empty());
            }
            // Counting every follower again, oldest first: each bump ties
            // the front, so each older follower retakes it in turn.
            let mut q = p.clone();
            for older in 1..=n {
                q.step(id, pc, older);
                assert_eq!(q.predict(id, pc), Some(older), "tie retaken among {n}");
            }
        }
        assert_eq!(caps[..3], [2, 2, 4]);
        assert_eq!(caps[7..9], [8, 16]);
        assert_eq!(p.context_entries(), 1);
    }

    #[test]
    fn blending_falls_back_to_lower_orders() {
        let mut p = Interned::new(FcmPredictor::new(3));
        // Only two values seen: order-3 context cannot exist yet, but lower
        // orders still predict.
        p.update(PC, 4);
        p.update(PC, 4);
        assert_eq!(p.predict(PC), Some(4));
    }

    #[test]
    fn single_order_makes_no_prediction_without_full_context_match() {
        let mut p = Interned::new(FcmPredictor::with_config(2, Blending::SingleOrder));
        p.update(PC, 1);
        p.update(PC, 2);
        p.update(PC, 3);
        // Context is now (2, 3), never seen before.
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn lazy_exclusion_does_not_update_lower_orders_on_high_match() {
        let mut p = Interned::new(FcmPredictor::new(1));
        // 1 2 1: order 1 has not matched yet, so order 0 counts every value
        // ({1: 2, 2: 1}). From the second 2 on, order 1 matches and order 0
        // is no longer updated.
        for &v in &[1u64, 2, 1, 2, 1, 2, 9] {
            p.update(PC, v);
        }
        // Context (9) is novel, so order 0 predicts: still {1: 2, 2: 1}.
        // Updating every order would have left {1: 3, 2: 3, 9: 1}, whose
        // tie breaks toward the more recent 2.
        assert_eq!(p.predict(PC), Some(1));
    }

    #[test]
    fn exact_counts_outweigh_a_short_burst() {
        let mut p = Interned::new(FcmPredictor::with_config(0, Blending::SingleOrder));
        for _ in 0..100 {
            p.update(PC, 7);
        }
        for _ in 0..4 {
            p.update(PC, 9);
        }
        assert_eq!(p.predict(PC), Some(7));
    }

    #[test]
    fn no_aliasing_between_pcs() {
        let mut p = Interned::new(FcmPredictor::new(1));
        for i in 0..4 {
            p.update(Pc(0), 10);
            p.update(Pc(4), 20);
            let _ = i;
        }
        assert_eq!(p.predict(Pc(0)), Some(10));
        assert_eq!(p.predict(Pc(4)), Some(20));
        assert_eq!(p.static_entries(), 2);
    }

    #[test]
    fn context_entries_grow_with_distinct_contexts() {
        let mut p = Interned::new(FcmPredictor::new(1));
        assert_eq!(p.context_entries(), 0);
        p.update(PC, 1);
        p.update(PC, 2);
        p.update(PC, 3);
        // Order 0 has one (empty) context; order 1 has contexts (1,) and (2,).
        assert_eq!(p.context_entries(), 3);
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(Interned::new(FcmPredictor::new(3)).name(), "fcm3");
        let single = Interned::new(FcmPredictor::with_config(2, Blending::SingleOrder));
        assert_eq!(single.name(), "fcm2-single");
    }

    #[test]
    #[should_panic(expected = "unreasonably large")]
    fn rejects_absurd_order() {
        let _ = Interned::new(FcmPredictor::new(65));
    }

    #[test]
    fn spilled_context_keys_do_not_alias() {
        // Order > INLINE_KEY forces keys through the key arena; distinct
        // 5-value contexts must stay distinct (full-concatenation match).
        let mut p = Interned::new(FcmPredictor::with_config(5, Blending::SingleOrder));
        let period = [11u64, 22, 33, 44, 55, 66, 77];
        for &v in period.iter().cycle().take(42) {
            p.update(PC, v);
        }
        // Every order-5 window of the period maps to exactly one follower;
        // after several periods the next value is always predicted.
        let preds = feed(&mut p, &period.iter().copied().cycle().take(14).collect::<Vec<_>>());
        for (i, (&pred, &actual)) in preds.iter().zip(period.iter().cycle().take(14)).enumerate() {
            assert_eq!(pred, Some(actual), "index {i}");
        }
    }

    #[test]
    fn high_fanout_contexts_spill_and_keep_exact_argmax() {
        // One order-0 context followed by many distinct values exercises the
        // spilled follower lists and the front-is-argmax invariant.
        let mut p = Interned::new(FcmPredictor::new(0));
        for v in 0..40u64 {
            p.update(PC, v);
        }
        // All counts are 1; the most recent value wins the tie.
        assert_eq!(p.predict(PC), Some(39));
        for _ in 0..2 {
            p.update(PC, 17);
        }
        // 17 now has count 3 — the clear argmax.
        assert_eq!(p.predict(PC), Some(17));
        assert_eq!(p.context_entries(), 1);
    }

    /// Two distinct order-1 contexts of slot 0 whose hashes share their
    /// low 32 bits (the bucket tag), found by a birthday search: about ten
    /// such pairs are expected among the first 300k candidates.
    fn tag_collision() -> (Value, Value) {
        let mut seen = std::collections::HashMap::new();
        (0..300_000)
            .find_map(|v| seen.insert(ctx_hash(mix(v), 0, 1) as u32, v).map(|first| (first, v)))
            .expect("a 32-bit tag collision among 300k contexts")
    }

    #[test]
    fn colliding_tags_resolve_by_full_key_before_and_after_growth() {
        let (a, b) = tag_collision();
        let (hash_a, hash_b) = (ctx_hash(mix(a), 0, 1), ctx_hash(mix(b), 0, 1));
        assert_eq!(hash_a as u32, hash_b as u32);
        let (id, pc) = (PcId(0), PC);
        let mut p = FcmPredictor::with_config(1, Blending::SingleOrder);
        // Contexts (a) -> 11 and (b) -> 22 share a tag, so they share a home
        // bucket at every table size.
        for v in [a, 11, b, 22] {
            p.step(id, pc, v);
        }
        let entry_a = p.vht.probe(hash_a, 0, &[a]);
        let entry_b = p.vht.probe(hash_b, 0, &[b]);
        assert!(entry_a != NO_ENTRY && entry_b != NO_ENTRY && entry_a != entry_b);
        for grown in [false, true] {
            if grown {
                p.vht.grow();
            }
            assert_eq!(p.vht.probe(hash_a, 0, &[a]), entry_a, "grown: {grown}");
            assert_eq!(p.vht.probe(hash_b, 0, &[b]), entry_b, "grown: {grown}");
            for (context, follower) in [(a, 11), (b, 22)] {
                let mut q = p.clone();
                q.step(id, pc, context);
                assert_eq!(q.predict(id, pc), Some(follower), "grown: {grown}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "below NO_ENTRY")]
    fn entry_indices_stop_below_the_absent_sentinel() {
        // The last usable index still packs into a non-empty bucket word.
        assert_eq!(bucket(7, next_index(NO_ENTRY as usize - 1)), (7 << 32) | u64::from(NO_ENTRY));
        let _ = next_index(NO_ENTRY as usize);
    }

    #[test]
    fn a_run_past_a_page_end_starts_the_next_page_and_reads_back_intact() {
        let mut arena: Paged<Follower> = Paged::default();
        let row = |value: Value| Follower { value, count: value + 1 };
        for value in 0..(PAGE - 6) as Value {
            arena.push(row(value));
        }
        // A run of four fits the six slots left on page 0; the next run of
        // four does not fit the two after it, so it opens page 1.
        let fits = arena.reserve_run(4);
        assert_eq!(fits as usize, PAGE - 6);
        let next = arena.reserve_run(4);
        assert_eq!(next, 1 << PAGE_BITS);
        assert_eq!((arena.pages.len(), arena.len()), (2, PAGE + 4));
        for (pos, base) in [(fits, 100_000), (next, 200_000)] {
            for (i, f) in arena.run_mut(pos, 4).iter_mut().enumerate() {
                *f = row(base + i as Value);
            }
        }
        let want = |base: Value| (0..4).map(|i| row(base + i)).collect::<Vec<_>>();
        assert_eq!(arena.run(fits, 4), want(100_000));
        assert_eq!(arena.run(next, 4), want(200_000));
        assert_eq!(*arena.get(0), row(0));
        assert_eq!(*arena.get((PAGE - 7) as u32), row((PAGE - 7) as Value));
    }

    #[test]
    fn a_cloned_arena_fills_its_last_page_in_place() {
        let mut arena: Paged<Value> = Paged::default();
        arena.push(1);
        let mut copy = arena.clone();
        let first: *const Value = copy.get(0);
        for v in 2..=PAGE as Value {
            copy.push(v);
        }
        assert!(std::ptr::eq(copy.get(0), first), "the clone's page moved");
        assert_eq!((copy.pages.len(), copy.len()), (1, PAGE));
        assert_eq!((*arena.get(0), arena.len()), (1, 1));
    }

    #[test]
    fn entries_and_spilled_lists_never_move_across_pages_of_inserts() {
        fn hash(v: Value) -> u64 {
            ctx_hash(mix(v), 0, 1)
        }
        // Three followers each: every entry spills a list of four.
        fn insert_spilled(vht: &mut Vht, v: Value) -> u32 {
            let idx = vht.insert(hash(v), 0, &[v]);
            for follower in [v, v + 1, v + 2] {
                vht.bump(idx, follower);
            }
            idx
        }
        let mut vht = Vht::default();
        let first = insert_spilled(&mut vht, 0);
        let entry: *const CtxEntry = vht.entries.get(first);
        let list_pos = vht.entries.get(first).list_pos();
        let list: *const Spilled = vht.spilled.get(list_pos);
        // A doubling `Vec` would have reallocated, and moved entry 0,
        // many times over these inserts.
        for v in 1..=(2 * PAGE) as Value {
            insert_spilled(&mut vht, 10 * v);
        }
        assert!(vht.entries.pages.len() > 2 && vht.spilled.pages.len() > 2);
        assert!(std::ptr::eq(vht.entries.get(first), entry), "entry 0 moved");
        assert!(std::ptr::eq(vht.spilled.get(list_pos), list), "entry 0's list moved");
        assert_eq!(vht.probe(hash(0), 0, &[0]), first);
        assert_eq!(vht.top_value(first), 2);
    }

    #[test]
    fn a_cleared_arena_restarts_at_zero_on_its_kept_first_page() {
        let mut arena: Paged<Value> = Paged::default();
        for v in 0..(2 * PAGE + 5) as Value {
            arena.push(v);
        }
        let page: *const Value = arena.pages[0].as_ptr();
        assert_eq!(arena.pages.len(), 3);
        arena.clear();
        assert_eq!((arena.pages.len(), arena.len()), (1, 0));
        assert_eq!(arena.pages[0].capacity(), PAGE);
        assert_eq!(arena.pages[0].as_ptr(), page, "the first page's allocation stays");
        assert_eq!(arena.push(7), 0);
        assert_eq!(arena.reserve_run(3), 1);
        assert_eq!((*arena.get(0), arena.len()), (7, 4));
        // An arena that never held a page has nothing to keep.
        let mut empty: Paged<Value> = Paged::default();
        empty.clear();
        assert!(empty.pages.is_empty());
    }

    #[test]
    fn clearing_keeps_a_dense_bucket_index_and_drops_a_sparse_one() {
        let hash = |v: Value| ctx_hash(mix(v), 0, 1);
        let mut vht: Vht = Vht::default();
        for v in 0..1_000 {
            vht.insert(hash(v), 0, &[v]);
        }
        let dense = vht.buckets.len();
        assert!(vht.len() * 8 >= dense);
        vht.clear();
        assert_eq!(vht.buckets.len(), dense, "a dense index is zeroed in place");
        assert!(vht.buckets.iter().all(|&word| word == 0));
        assert_eq!((vht.len(), vht.probe(hash(5), 0, &[5])), (0, NO_ENTRY));
        // One key in the kept index leaves it sparse: the next clear drops it.
        assert_eq!(vht.insert(hash(5), 0, &[5]), 0);
        assert_eq!(vht.probe(hash(5), 0, &[5]), 0);
        vht.clear();
        assert!(vht.buckets.is_empty(), "a sparse index goes back to the allocator");
        assert_eq!(vht.probe(hash(5), 0, &[5]), NO_ENTRY);
        assert_eq!(vht.insert(hash(5), 0, &[5]), 0);
        assert_eq!(vht.buckets.len(), 64);
    }

    #[test]
    fn a_cleared_bank_holds_no_contexts_and_relearns_like_a_new_one() {
        let stream: Vec<Value> = (0..3_000u64).map(|i| (i / 3) * (i / 5) % 17).collect();
        let mut bank = FcmBank::new(1..=4);
        let mut predictions = [None; 4];
        for &v in &stream {
            bank.step(PcId(0), v, &mut predictions);
        }
        assert!(bank.context_entries() > 100);
        bank.clear();
        assert_eq!(bank.context_entries(), 0);
        let mut new = FcmBank::new(1..=4);
        let mut want = [None; 4];
        for (i, &v) in stream.iter().rev().enumerate() {
            bank.step(PcId(0), v, &mut predictions);
            new.step(PcId(0), v, &mut want);
            assert_eq!(predictions, want, "record {i}");
        }
        assert_eq!(bank.context_entries(), new.context_entries());
    }
}
