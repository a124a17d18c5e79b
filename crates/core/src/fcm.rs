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
//!   for `j = 1..=k` incrementally per record, so an order-k blended
//!   predictor derives all of its probe hashes from one shared rolling
//!   state instead of rehashing `j` boxed slices per record.
//! - **Inline follower counts, then lists of their own.** The
//!   per-context `(value, count, stamp)` frequency table starts as a
//!   two-element inline array. A list that outgrows it moves into a
//!   `Spilled` list with allocations of its own, which doubles through
//!   the allocator, so the blocks a grown list gives back are reused. The
//!   entry's first follower is always the current argmax, so a prediction
//!   is one read.
//! - **Constant-time follower updates.** A list longer than a short scan
//!   carries an open-addressed follower index beside its followers: a
//!   power-of-two region of twice the list's capacity holding
//!   `1 + position` per follower, probed from `mix(value)`. It is rebuilt
//!   when the list grows, patched in two slots when an argmax swap moves
//!   two followers, and rebuilt after saturating-mode halving, so a bump
//!   costs O(1) amortized however many distinct values the context has
//!   seen (a PC's order-0 context sees every value it ever produced).
//! - **Arenas that never copy themselves.** Entries, spilled keys and
//!   the spilled lists' headers live on fixed pages of 4096 items that
//!   are allocated once at full size and never grow, so growth never
//!   moves or copies what is stored, and never holds an old and a new
//!   array at once.
//! - **Tagged buckets.** Each bucket is one `u64` word packing the low 32
//!   bits of the context hash (the tag) above `1 + entry index`. A probe
//!   compares tags in the bucket array and reads an entry only on a tag
//!   match, and growth reseats every word by its tag without reading a
//!   single entry.
//! - **A compact entry.** Stamps come from one predictor-wide bump clock
//!   (they only order followers within one context, so the argmax and
//!   its tie-breaks are unchanged), the narrow fields pack, and a spilled
//!   list needs one position, keeping an entry at 88 bytes.
//! - **Fused multi-order probe.** One descending walk locates the longest
//!   matching context and caches every probed entry index; the update
//!   phase reuses those hits instead of re-probing.

use crate::Predictor;
use dvp_trace::{Pc, PcId, Value};

/// How the per-order models of an [`FcmPredictor`] are combined.
///
/// An order-*k* FCM predictor is built from models of orders *k* down to 0
/// (an order-0 model is an unconditional value-frequency table). The paper
/// uses *blending* (Bell, Cleary & Witten) to combine them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Blending {
    /// The prediction comes from the longest matching context, and only the
    /// models at that order **and higher** are updated. This is the variant
    /// the paper evaluates ("the blending algorithm with lazy exclusion").
    #[default]
    LazyExclusion,
    /// The prediction comes from the longest matching context, but the
    /// models at **every** order are updated on every value.
    Full,
    /// Only the order-*k* model exists; if its context has never been seen,
    /// no prediction is made. (Not used by the paper; provided for
    /// ablation.)
    SingleOrder,
}

/// How value occurrences are counted inside each context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CounterMode {
    /// Exact, unbounded counts. This is what the paper simulates
    /// ("maintains exact counts for each value that follows a particular
    /// context").
    #[default]
    Exact,
    /// Small saturating counters: when any count reaches `max`, all counts
    /// for that context are halved. The paper notes this weights recent
    /// history more heavily, as in text compression practice.
    Saturating {
        /// Count at which all counters of the context are halved.
        max: u32,
    },
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

/// One `(value, count, stamp)` row of a context's frequency table. Stamps
/// come from one predictor-wide clock, so they are unique within an entry
/// and ordered by recency — count ties always break deterministically
/// toward the most recent value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Follower {
    value: Value,
    count: u64,
    stamp: u64,
}

/// One (slot, order, context) entry of the flat table.
///
/// Invariant: while `len > 0`, the first follower (inline or spilled) is
/// the argmax by `(count, stamp)` — predictions never scan.
#[derive(Debug, Clone)]
struct CtxEntry {
    /// Owning dense slot (per-instruction isolation is part of the key).
    slot: u32,
    /// Live followers.
    len: u32,
    /// The position of the spilled follower list when not inline.
    spill_pos: u32,
    /// Context length == the model order this entry belongs to.
    key_len: u8,
    /// Follower capacity is `1 << cap_log2`; up to `INLINE_FOLLOWERS`
    /// means inline storage.
    cap_log2: u8,
    /// The context itself when `key_len <= INLINE_KEY`; otherwise `key[0]`
    /// is its offset into the key arena.
    key: [Value; INLINE_KEY],
    /// Inline follower storage (the common case: most contexts are
    /// followed by one or two distinct values).
    inline: [Follower; INLINE_FOLLOWERS],
}

// Stride-like traces create one entry per order per record, so the entry
// size sets both their memory and their cache misses. The fields take 86
// bytes; alignment pads them to 88.
const _: () = assert!(std::mem::size_of::<CtxEntry>() == 88);
// Capacities are powers of two (`cap_log2`), so index regions are too.
const _: () = assert!(INLINE_FOLLOWERS.is_power_of_two());
// An inline list that doubles still fits the scan, so it needs no index.
const _: () = assert!(2 * INLINE_FOLLOWERS <= SCAN_CAP);

impl CtxEntry {
    #[inline]
    fn cap(&self) -> usize {
        1 << self.cap_log2
    }
}

/// Bumps `value` inside a short follower list by scanning it, maintaining
/// the front-is-argmax invariant. Returns the new count, or `None` when
/// the value is not present (the caller appends it).
#[inline]
fn bump_scanned(fs: &mut [Follower], value: Value, stamp: u64) -> Option<u64> {
    let i = fs.iter().position(|f| f.value == value)?;
    Some(bump_at(fs, i, stamp))
}

/// Counts one occurrence of follower `i`, swaps it to the front when it
/// becomes the argmax, and returns its new count. The bumped follower
/// holds the newest stamp, so it is the argmax exactly when its count
/// reaches the front's.
#[inline]
fn bump_at(fs: &mut [Follower], i: usize, stamp: u64) -> u64 {
    fs[i].count += 1;
    fs[i].stamp = stamp;
    let count = fs[i].count;
    if count >= fs[0].count {
        fs.swap(0, i);
    }
    count
}

/// Bumps `value` in a long follower list through its index `region`: a
/// power-of-two open-addressed table of `1 + position` (0 = empty),
/// probed linearly from `mix(value)` and confirmed against the stored
/// value. An argmax swap rewrites the two slots it moves.
#[inline]
fn bump_indexed(fs: &mut [Follower], region: &mut [u32], value: Value, stamp: u64) -> Option<u64> {
    let mask = region.len() - 1;
    let mut b = mix(value) as usize & mask;
    let i = loop {
        match region[b] {
            0 => return None,
            s if fs[s as usize - 1].value == value => break s as usize - 1,
            _ => b = (b + 1) & mask,
        }
    };
    let front = fs[0].value;
    let count = bump_at(fs, i, stamp);
    if i > 0 && fs[0].value == value {
        let slot = front_slot(region, front);
        region[slot] = i as u32 + 1;
        region[b] = 1;
    }
    Some(count)
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

/// Rebuilds an index region from scratch over a follower list.
fn index_rebuild(region: &mut [u32], fs: &[Follower]) {
    region.fill(0);
    for (at, f) in fs.iter().enumerate() {
        index_insert(region, f.value, at);
    }
}

/// Halves every count, drops zeros, and re-seats the argmax at the front
/// (halving can flip ties toward newer stamps). Returns the live length.
fn halve_followers(fs: &mut [Follower]) -> u32 {
    let mut keep = 0;
    for i in 0..fs.len() {
        let count = fs[i].count / 2;
        if count > 0 {
            fs[keep] = Follower { count, ..fs[i] };
            keep += 1;
        }
    }
    let live = &mut fs[..keep];
    if let Some(best) =
        live.iter().enumerate().max_by_key(|(_, f)| (f.count, f.stamp)).map(|(i, _)| i)
    {
        live.swap(0, best);
    }
    u32::try_from(keep).expect("follower list fits u32")
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
/// context) entry of the predictor, plus the key and follower arenas.
/// Entries are never removed (matching the unbounded paper model), so
/// entry indices are stable across bucket growth — the fused probe caches
/// them safely. The paged arenas never move what they hold.
#[derive(Debug, Clone, Default)]
struct Vht {
    /// Power-of-two open-addressed index of packed words (see [`bucket`]),
    /// 0 = empty.
    buckets: Vec<u64>,
    /// Entry arena, append-only; an entry's index is its position.
    entries: Paged<CtxEntry>,
    /// Spilled context keys (orders above `INLINE_KEY`), append-only.
    keys: Paged<Value>,
    /// Follower lists that outgrew the inline pair, append-only; a
    /// spilled entry's `spill_pos` is its list's position.
    spilled: Paged<Spilled>,
    /// Predictor-wide bump clock. Stamps only order followers within one
    /// context, so one shared clock breaks ties exactly as per-context
    /// clocks would.
    clock: u64,
}

impl Vht {
    /// Number of distinct (slot, order, context) entries ever created.
    fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    fn key_matches(&self, e: &CtxEntry, slot: u32, ctx: &[Value]) -> bool {
        e.slot == slot
            && e.key_len as usize == ctx.len()
            && if ctx.len() <= INLINE_KEY {
                e.key[..ctx.len()] == *ctx
            } else {
                self.keys.run(e.key[0] as u32, ctx.len()) == ctx
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
        let pushed = self.entries.push(CtxEntry {
            slot,
            len: 0,
            spill_pos: 0,
            key_len: ctx.len() as u8,
            cap_log2: INLINE_FOLLOWERS.trailing_zeros() as u8,
            key,
            inline: [Follower::default(); INLINE_FOLLOWERS],
        });
        assert_eq!(pushed, idx, "an entry's index is its position");
        seat(&mut self.buckets, bucket(hash as u32, idx));
        idx
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

    /// The entry's current argmax value, or `None` while it has no
    /// followers (an emptied context stops matching but keeps existing,
    /// exactly like an empty `ContextCounts` in the nested-map model).
    #[inline]
    fn top_value(&self, idx: u32) -> Option<Value> {
        let e = self.entries.get(idx);
        if e.len == 0 {
            return None;
        }
        Some(if e.cap() <= INLINE_FOLLOWERS {
            e.inline[0].value
        } else {
            self.spilled.get(e.spill_pos).fs[0].value
        })
    }

    /// Counts one occurrence of `value` after this entry's context:
    /// `count += 1`, stamp = fresh tick, with saturating-mode halving.
    fn bump(&mut self, idx: u32, value: Value, mode: CounterMode) {
        self.clock += 1;
        let stamp = self.clock;
        let e = self.entries.get_mut(idx);
        let bumped = if e.cap() <= INLINE_FOLLOWERS {
            bump_scanned(&mut e.inline[..e.len as usize], value, stamp)
        } else {
            let Spilled { fs, index } = self.spilled.get_mut(e.spill_pos);
            if index.is_empty() {
                bump_scanned(fs, value, stamp)
            } else {
                bump_indexed(fs, index, value, stamp)
            }
        };
        let count = match bumped {
            Some(count) => count,
            None => {
                self.push_follower(idx, value, stamp);
                1
            }
        };
        if let CounterMode::Saturating { max } = mode {
            if count >= u64::from(max) {
                self.halve(idx);
            }
        }
    }

    /// Appends a fresh `(value, 1, stamp)` follower, relocating the list
    /// first when it is full. The newest follower takes the front exactly
    /// when the front's count is 1 too (it then wins the tie on recency).
    fn push_follower(&mut self, idx: u32, value: Value, stamp: u64) {
        let e = self.entries.get(idx);
        if e.len as usize == e.cap() {
            self.relocate(idx);
        }
        let e = self.entries.get_mut(idx);
        let len = e.len as usize;
        e.len += 1;
        let fresh = Follower { value, count: 1, stamp };
        if e.cap() <= INLINE_FOLLOWERS {
            e.inline[len] = fresh;
            if len > 0 && e.inline[0].count <= 1 {
                e.inline.swap(0, len);
            }
            return;
        }
        let Spilled { fs, index } = self.spilled.get_mut(e.spill_pos);
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
    /// a fresh [`Spilled`] list, and a spilled list reallocates its own
    /// followers, building its index once it outgrows the scan.
    fn relocate(&mut self, idx: u32) {
        let e = self.entries.get_mut(idx);
        let (len, cap) = (e.len as usize, e.cap());
        e.cap_log2 += 1;
        if cap <= INLINE_FOLLOWERS {
            let mut fs = Vec::with_capacity(2 * cap);
            fs.extend_from_slice(&e.inline[..len]);
            e.spill_pos = self.spilled.push(Spilled { fs, index: Box::default() });
            return;
        }
        let Spilled { fs, index } = self.spilled.get_mut(e.spill_pos);
        fs.reserve_exact(cap);
        if 2 * cap > SCAN_CAP {
            *index = vec![0; 4 * cap].into_boxed_slice();
            index_rebuild(index, fs);
        }
    }

    /// Saturating-mode halving of one entry's followers.
    fn halve(&mut self, idx: u32) {
        let e = self.entries.get_mut(idx);
        e.len = if e.cap() <= INLINE_FOLLOWERS {
            halve_followers(&mut e.inline[..e.len as usize])
        } else {
            let Spilled { fs, index } = self.spilled.get_mut(e.spill_pos);
            let live = halve_followers(fs);
            fs.truncate(live as usize);
            if !index.is_empty() {
                index_rebuild(index, fs);
            }
            live
        };
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
    order: usize,
    blending: Blending,
    counter_mode: CounterMode,
    name: String,
    /// Per-slot recent values, strided `order` wide, newest last within
    /// `hist_len[slot]`.
    hist: Vec<Value>,
    /// Live history length per slot (0..=order).
    hist_len: Vec<u8>,
    /// Per-slot rolling hashes `H_1..H_order`, strided `order` wide:
    /// `ghash[slot*order + j-1]` covers the most recent `j` values.
    ghash: Vec<u64>,
    vht: Vht,
}

impl FcmPredictor {
    /// Creates an order-`order` FCM predictor with lazy-exclusion blending
    /// and exact counters — the configuration evaluated in the paper.
    ///
    /// # Panics
    ///
    /// Panics if `order > 64` (a guard against accidentally unbounded
    /// contexts; the paper studies orders 1..=8).
    #[must_use]
    pub fn new(order: usize) -> Self {
        FcmPredictor::with_config(order, Blending::LazyExclusion, CounterMode::Exact)
    }

    /// Creates an FCM predictor with full control over blending and counter
    /// handling.
    ///
    /// # Panics
    ///
    /// Panics if `order > 64`.
    #[must_use]
    pub fn with_config(order: usize, blending: Blending, counter_mode: CounterMode) -> Self {
        assert!(order <= MAX_ORDER, "FCM order {order} is unreasonably large");
        let blend = match blending {
            Blending::LazyExclusion => "",
            Blending::Full => "-full",
            Blending::SingleOrder => "-single",
        };
        let ctr = match counter_mode {
            CounterMode::Exact => String::new(),
            CounterMode::Saturating { max } => format!("-sat{max}"),
        };
        let name = format!("fcm{order}{blend}{ctr}");
        FcmPredictor {
            order,
            blending,
            counter_mode,
            name,
            hist: Vec::new(),
            hist_len: Vec::new(),
            ghash: Vec::new(),
            vht: Vht::default(),
        }
    }

    /// The predictor's order (context length).
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// The blending policy in use.
    #[must_use]
    pub fn blending(&self) -> Blending {
        self.blending
    }

    /// The counter mode in use.
    #[must_use]
    pub fn counter_mode(&self) -> CounterMode {
        self.counter_mode
    }

    /// Total number of distinct (order, context) pairs stored across all
    /// static instructions — a proxy for the unbounded-table cost the paper
    /// discusses in Section 4.3.
    #[must_use]
    pub fn context_entries(&self) -> usize {
        self.vht.len()
    }

    /// Grows the per-slot arenas to cover `slot`.
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.hist_len.len() {
            self.hist_len.resize(slot + 1, 0);
            self.hist.resize((slot + 1) * self.order, 0);
            self.ghash.resize((slot + 1) * self.order, 0);
        }
    }

    /// Bucket hash for the current order-`ord` context of `slot`, derived
    /// from the rolling state (no key material is touched).
    #[inline]
    fn hash_at(&self, slot: usize, ord: usize) -> u64 {
        let g = if ord == 0 { 0 } else { self.ghash[slot * self.order + ord - 1] };
        ctx_hash(g, slot, ord)
    }

    /// Probes the VHT for the current order-`ord` context of `slot`.
    /// Requires `hist_len[slot] >= ord`.
    #[inline]
    fn probe_ord(&self, slot: usize, ord: usize) -> u32 {
        let base = slot * self.order;
        let hist_len = self.hist_len[slot] as usize;
        let ctx = &self.hist[base + hist_len - ord..base + hist_len];
        self.vht.probe(self.hash_at(slot, ord), slot as u32, ctx)
    }

    /// The fused descending probe: longest-match search and probe-result
    /// cache in one walk over the shared rolling-hash state.
    fn descend(&self, slot: usize) -> Descent {
        let order = self.order;
        let mut d = Descent {
            prediction: None,
            matched: None,
            probed_down: order + 1,
            found: [NO_ENTRY; MAX_ORDER + 1],
        };
        let hist_len = self.hist_len[slot] as usize;
        match self.blending {
            Blending::SingleOrder => {
                if hist_len >= order {
                    let idx = self.probe_ord(slot, order);
                    d.found[order] = idx;
                    d.probed_down = order;
                    if idx != NO_ENTRY {
                        d.prediction = self.vht.top_value(idx);
                    }
                }
            }
            Blending::LazyExclusion | Blending::Full => {
                for ord in (0..=order).rev() {
                    if ord > hist_len {
                        continue;
                    }
                    let idx = self.probe_ord(slot, ord);
                    d.found[ord] = idx;
                    d.probed_down = ord;
                    if idx != NO_ENTRY {
                        if let Some(value) = self.vht.top_value(idx) {
                            d.matched = Some(ord);
                            d.prediction = Some(value);
                            break;
                        }
                    }
                }
            }
        }
        d
    }

    /// Pre-update prediction for an in-range slot.
    fn predict_slot(&self, slot: usize) -> Option<Value> {
        if slot >= self.hist_len.len() {
            return None;
        }
        self.descend(slot).prediction
    }

    /// Applies the model update for `actual`, reusing the descent's cached
    /// probes, then advances the history and rolling hashes.
    fn apply_update(&mut self, slot: usize, d: &Descent, actual: Value) {
        let order = self.order;
        let mode = self.counter_mode;
        let hist_len = self.hist_len[slot] as usize;
        let lowest_updated = match self.blending {
            Blending::SingleOrder => order,
            Blending::Full => 0,
            // Lazy exclusion: update the matched order and higher. On a
            // complete miss (no context matched anywhere) every order is
            // seeded.
            Blending::LazyExclusion => d.matched.unwrap_or(0),
        };
        let base = slot * order;
        for ord in lowest_updated..=order {
            if ord > hist_len {
                continue;
            }
            let mut idx =
                if ord >= d.probed_down { d.found[ord] } else { self.probe_ord(slot, ord) };
            if idx == NO_ENTRY {
                let hash = self.hash_at(slot, ord);
                let ctx = &self.hist[base + hist_len - ord..base + hist_len];
                idx = self.vht.insert(hash, slot as u32, ctx);
            }
            self.vht.bump(idx, actual, mode);
        }
        self.push_history(slot, actual);
    }

    /// Slides `actual` into the slot's history window and rolls every
    /// order's hash forward in place (descending, so each step reads the
    /// previous record's lower-order state).
    fn push_history(&mut self, slot: usize, actual: Value) {
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

impl Predictor for FcmPredictor {
    fn name(&self) -> &str {
        &self.name
    }

    fn static_entries(&self) -> usize {
        if self.order == 0 {
            // No history to count: every stepped slot owns exactly one
            // (empty) order-0 context.
            self.vht.len()
        } else {
            self.hist_len.iter().filter(|&&len| len > 0).count()
        }
    }

    fn reserve_ids(&mut self, n: usize) {
        if n > 0 {
            self.ensure_slot(n - 1);
        }
    }

    #[inline]
    fn predict(&self, id: PcId, _pc: Pc) -> Option<Value> {
        self.predict_slot(id.index())
    }

    #[inline]
    fn step(&mut self, id: PcId, _pc: Pc, actual: Value) -> Option<Value> {
        let slot = id.index();
        self.ensure_slot(slot);
        let d = self.descend(slot);
        self.apply_update(slot, &d, actual);
        d.prediction
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
            let mut p = Interned::new(FcmPredictor::with_config(
                order,
                Blending::SingleOrder,
                CounterMode::Exact,
            ));
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
        let mut p =
            Interned::new(FcmPredictor::with_config(2, Blending::SingleOrder, CounterMode::Exact));
        p.update(PC, 1);
        p.update(PC, 2);
        p.update(PC, 3);
        // Context is now (2, 3), never seen before.
        assert_eq!(p.predict(PC), None);
    }

    #[test]
    fn lazy_exclusion_does_not_update_lower_orders_on_high_match() {
        // Construct a case where lazy exclusion and full blending diverge.
        let mut lazy = Interned::new(FcmPredictor::with_config(
            1,
            Blending::LazyExclusion,
            CounterMode::Exact,
        ));
        let mut full =
            Interned::new(FcmPredictor::with_config(1, Blending::Full, CounterMode::Exact));
        // Sequence: 1 2 1 2 1 2 ... then suddenly a fresh context.
        for &v in &[1u64, 2, 1, 2, 1, 2] {
            lazy.update(PC, v);
            full.update(PC, v);
        }
        // Under full blending the order-0 model has counts for both 1 and 2;
        // under lazy exclusion order-0 stopped being updated once order-1
        // matched, so its counts differ.
        let novel = Pc(0x999);
        assert_eq!(lazy.predict(novel), None);
        assert_eq!(full.predict(novel), None);
        // Probe the internal divergence through context_entries: both have
        // the same contexts, but the counts differ. Verify via behaviour:
        // feed a value that only order 0 can predict.
        // (1,2) alternation: after the run, history = [2]; context (2) -> 1.
        assert_eq!(lazy.predict(PC), Some(1));
        assert_eq!(full.predict(PC), Some(1));
    }

    #[test]
    fn saturating_counters_halve_and_adapt_faster() {
        let mode = CounterMode::Saturating { max: 4 };
        let mut p = Interned::new(FcmPredictor::with_config(0, Blending::SingleOrder, mode));
        // Value 7 is seen many times; counts saturate around max.
        for _ in 0..100 {
            p.update(PC, 7);
        }
        // A short burst of 9s now overtakes quickly because 7's count was
        // halved rather than reaching 100.
        for _ in 0..4 {
            p.update(PC, 9);
        }
        assert_eq!(p.predict(PC), Some(9), "saturating counters favour recent history");

        // With exact counters the same burst cannot overtake.
        let mut exact =
            Interned::new(FcmPredictor::with_config(0, Blending::SingleOrder, CounterMode::Exact));
        for _ in 0..100 {
            exact.update(PC, 7);
        }
        for _ in 0..4 {
            exact.update(PC, 9);
        }
        assert_eq!(exact.predict(PC), Some(7));
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
        let single =
            Interned::new(FcmPredictor::with_config(2, Blending::SingleOrder, CounterMode::Exact));
        assert_eq!(single.name(), "fcm2-single");
        let sat = Interned::new(FcmPredictor::with_config(
            1,
            Blending::Full,
            CounterMode::Saturating { max: 16 },
        ));
        assert_eq!(sat.name(), "fcm1-full-sat16");
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
        let mut p =
            Interned::new(FcmPredictor::with_config(5, Blending::SingleOrder, CounterMode::Exact));
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
        let mut p = FcmPredictor::with_config(1, Blending::SingleOrder, CounterMode::Exact);
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
        let row = |value: Value| Follower { value, count: value + 1, stamp: 2 * value };
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
                vht.bump(idx, follower, CounterMode::Exact);
            }
            idx
        }
        let mut vht = Vht::default();
        let first = insert_spilled(&mut vht, 0);
        let entry: *const CtxEntry = vht.entries.get(first);
        let spill_pos = vht.entries.get(first).spill_pos;
        let list: *const Spilled = vht.spilled.get(spill_pos);
        // A doubling `Vec` would have reallocated, and moved entry 0,
        // many times over these inserts.
        for v in 1..=(2 * PAGE) as Value {
            insert_spilled(&mut vht, 10 * v);
        }
        assert!(vht.entries.pages.len() > 2 && vht.spilled.pages.len() > 2);
        assert!(std::ptr::eq(vht.entries.get(first), entry), "entry 0 moved");
        assert!(std::ptr::eq(vht.spilled.get(spill_pos), list), "entry 0's list moved");
        assert_eq!(vht.probe(hash(0), 0, &[0]), first);
        assert_eq!(vht.top_value(first), Some(2));
    }

    #[test]
    fn saturating_halving_can_empty_a_context_which_then_reseeds() {
        // max = 1: every bump halves the just-bumped count back to zero, so
        // the context stays empty and never predicts — but keeps existing.
        let mut p = Interned::new(FcmPredictor::with_config(
            0,
            Blending::SingleOrder,
            CounterMode::Saturating { max: 1 },
        ));
        p.update(PC, 5);
        p.update(PC, 5);
        assert_eq!(p.predict(PC), None);
        assert_eq!(p.context_entries(), 1);
    }
}
