//! The shared trace buffer: a workload's value trace, materialized once and
//! cloned cheaply into every replay job.

use dvp_trace::{Pc, PcId, PcInterner, TraceRecord};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Records per chunk of a [`SharedTrace`] (64 Ki records ≈ 1.5 MiB): large
/// enough that chunk boundaries are invisible to the replay inner loop,
/// small enough that building a trace never reallocates a giant buffer.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Default capacity (in chunks) of the streaming replay window
/// ([`ReplayEngine::replay_streaming`](crate::ReplayEngine::replay_streaming)).
///
/// Four in-flight chunks keep the decoder a comfortable lap ahead of the
/// replay workers while bounding the window to `4 × chunk_capacity`
/// records regardless of trace length (see [`ReplayEngine::replay_streaming`](crate::ReplayEngine::replay_streaming)
/// for what else is resident).
pub const DEFAULT_CHUNK_WINDOW: usize = 4;

/// An immutable value trace held in fixed-size chunks behind an [`Arc`].
///
/// A `SharedTrace` is materialized **once** per workload (simulation is the
/// expensive step) and then handed to every predictor configuration that
/// replays it: cloning costs one atomic increment, never a copy of the
/// records. The chunked layout lets the builder grow the trace without a
/// single monolithic reallocation while keeping iteration contiguous in
/// practice.
///
/// # Examples
///
/// ```
/// use dvp_engine::SharedTrace;
/// use dvp_trace::{InstrCategory, Pc, TraceRecord};
///
/// let records: Vec<TraceRecord> = (0..10u64)
///     .map(|i| TraceRecord::new(Pc(4 * i % 8), InstrCategory::AddSub, i))
///     .collect();
/// let trace = SharedTrace::from_records(records.clone());
/// assert_eq!(trace.len(), 10);
/// let clone = trace.clone(); // no copy: both views share the records
/// assert_eq!(clone.iter().copied().collect::<Vec<_>>(), records);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedTrace {
    chunks: Arc<Vec<Vec<TraceRecord>>>,
    /// Per-chunk dense ids, parallel to `chunks` (`ids[c][i]` is the
    /// interned id of `chunks[c][i].pc`).
    ids: Arc<Vec<Vec<PcId>>>,
    /// The trace's PC symbol table, materialized once at construction.
    interner: Arc<PcInterner>,
    len: usize,
    /// The records grouped by instruction, built by the first resident
    /// replay that needs it and shared by every clone.
    pc_index: Arc<OnceLock<Option<PcIndex>>>,
}

impl SharedTrace {
    /// An empty trace.
    #[must_use]
    pub fn new() -> Self {
        SharedTrace::default()
    }

    /// Wraps an already-collected record vector (one chunk, no copying).
    #[must_use]
    pub fn from_records(records: Vec<TraceRecord>) -> Self {
        let chunks = if records.is_empty() { Vec::new() } else { vec![records] };
        Self::from_chunks(chunks)
    }

    /// Assembles a trace directly from pre-built chunks, preserving their
    /// boundaries and copying nothing (empty chunks are dropped). This is
    /// how a trace container becomes a `SharedTrace` without an intermediate
    /// flat `Vec<TraceRecord>`: each decoded chunk moves straight into the
    /// shared buffer (see [`ReplayEngine::load_trace`](crate::ReplayEngine::load_trace)).
    ///
    /// The PC interner (and the per-record dense ids) are materialized in
    /// one sequential pass here; when a container carries a persisted
    /// interner section, the engine's loader skips that pass and assigns
    /// ids chunk-parallel instead.
    #[must_use]
    pub fn from_chunks(chunks: Vec<Vec<TraceRecord>>) -> Self {
        let chunks: Vec<Vec<TraceRecord>> =
            chunks.into_iter().filter(|chunk| !chunk.is_empty()).collect();
        let mut interner = PcInterner::new();
        let ids: Vec<Vec<PcId>> = chunks
            .iter()
            .map(|chunk| chunk.iter().map(|rec| interner.intern(rec.pc)).collect())
            .collect();
        SharedTrace::from_parts(chunks, ids, interner)
    }

    /// Assembles a trace from chunks, pre-computed per-chunk ids, and the
    /// interner that produced them (the parallel load path: each chunk's
    /// ids are computed concurrently against a read-only persisted
    /// interner).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `ids` is not parallel to `chunks`.
    pub(crate) fn from_parts(
        chunks: Vec<Vec<TraceRecord>>,
        ids: Vec<Vec<PcId>>,
        interner: PcInterner,
    ) -> Self {
        debug_assert_eq!(
            chunks.iter().map(Vec::len).collect::<Vec<_>>(),
            ids.iter().map(Vec::len).collect::<Vec<_>>(),
            "ids must be parallel to chunks"
        );
        let len = chunks.iter().map(Vec::len).sum();
        SharedTrace {
            chunks: Arc::new(chunks),
            ids: Arc::new(ids),
            interner: Arc::new(interner),
            len,
            pc_index: Arc::default(),
        }
    }

    /// An incremental builder with the default chunk size.
    #[must_use]
    pub fn builder() -> SharedTraceBuilder {
        SharedTraceBuilder::with_chunk_len(DEFAULT_CHUNK_LEN)
    }

    /// Number of records in the trace.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all records in trace order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> + '_ {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Iterates `(record, dense id)` pairs in trace order — the replay
    /// hot-loop surface: the id hands every predictor its slot index with
    /// no per-record hashing anywhere.
    pub fn iter_with_ids(&self) -> impl Iterator<Item = (&TraceRecord, PcId)> + '_ {
        self.chunks
            .iter()
            .zip(self.ids.iter())
            .flat_map(|(chunk, ids)| chunk.iter().zip(ids.iter().copied()))
    }

    /// The trace's PC symbol table: every distinct PC, in first-appearance
    /// order, mapped to dense ids `0..len`.
    #[must_use]
    pub fn interner(&self) -> &PcInterner {
        &self.interner
    }

    /// The underlying chunks, in trace order (every chunk is non-empty).
    #[must_use]
    pub fn chunks(&self) -> &[Vec<TraceRecord>] {
        &self.chunks
    }

    /// Per-chunk dense-id vectors, parallel to [`SharedTrace::chunks`]
    /// (`id_chunks()[c][i]` is the interned id of `chunks()[c][i].pc`).
    ///
    /// Together with [`SharedTrace::chunks`] this is the slice surface
    /// batched replay drives: each `(records, ids)` pair feeds one
    /// [`observe_batch`](dvp_core::Predictor::observe_batch) call.
    #[must_use]
    pub fn id_chunks(&self) -> &[Vec<PcId>] {
        &self.ids
    }

    /// The trace's records grouped by instruction ([`PcIndex`]), built on
    /// the first call and shared by every clone; `None` when a position
    /// would not fit the index's `u32` (a trace over `u32::MAX` records).
    pub(crate) fn pc_index(&self) -> Option<&PcIndex> {
        self.pc_index.get_or_init(|| PcIndex::build(self)).as_ref()
    }

    /// Copies the trace into a flat vector.
    #[must_use]
    pub fn to_vec(&self) -> Vec<TraceRecord> {
        self.iter().copied().collect()
    }

    /// A trace holding at most the first `cap` records. Returns a clone
    /// (no copy) when the trace is already within the cap.
    #[must_use]
    pub fn truncated(&self, cap: usize) -> SharedTrace {
        if self.len <= cap {
            return self.clone();
        }
        let mut builder = SharedTrace::builder();
        for rec in self.iter().take(cap) {
            builder.push(*rec);
        }
        builder.finish()
    }
}

/// A resident trace's record positions grouped by instruction: the
/// positions of id `i`, ascending, are `positions[starts[i]..starts[i + 1]]`.
///
/// One counting sort over the ids builds it (4 bytes per record plus 4 per
/// id). It resolves a position to its record under any chunk layout,
/// ragged [`SharedTrace::from_chunks`] boundaries included.
#[derive(Debug)]
pub(crate) struct PcIndex {
    positions: Vec<u32>,
    starts: Vec<u32>,
    /// The position of each chunk's first record.
    chunk_starts: Vec<u32>,
}

impl PcIndex {
    /// Indexes `trace`, or `None` when it holds more than `u32::MAX`
    /// records.
    fn build(trace: &SharedTrace) -> Option<PcIndex> {
        let total = u32::try_from(trace.len()).ok()?;
        let mut starts = vec![0u32; trace.interner().len() + 1];
        for id in trace.id_chunks().iter().flatten() {
            starts[id.index() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut next = starts[..starts.len() - 1].to_vec();
        let mut positions = vec![0u32; total as usize];
        let mut chunk_starts = Vec::with_capacity(trace.chunks().len());
        let mut at = 0u32;
        for ids in trace.id_chunks() {
            chunk_starts.push(at);
            for id in ids {
                let slot = &mut next[id.index()];
                positions[*slot as usize] = at;
                *slot += 1;
                at += 1;
            }
        }
        Some(PcIndex { positions, starts, chunk_starts })
    }

    /// The number of ids indexed (the interner's length).
    pub(crate) fn ids(&self) -> usize {
        self.starts.len() - 1
    }

    /// The ascending record positions of id `id`.
    pub(crate) fn positions(&self, id: usize) -> &[u32] {
        &self.positions[self.starts[id] as usize..self.starts[id + 1] as usize]
    }

    /// `units` contiguous id ranges covering every id, balanced by record
    /// count: range `u` starts at the first id with at least
    /// `u × len / units` records before it, so no range holds more than
    /// `len / units` records plus its largest id's.
    pub(crate) fn units(&self, units: usize) -> Vec<Range<usize>> {
        let total = self.positions.len() as u64;
        let units = units.max(1) as u64;
        let bound = |u: u64| {
            let want = u * total;
            self.starts[..self.ids()].partition_point(|&s| u64::from(s) * units < want)
        };
        let mut bounds: Vec<usize> = (0..units).map(bound).collect();
        bounds.push(self.ids());
        bounds.windows(2).map(|w| w[0]..w[1]).collect()
    }

    /// Calls `f` with each of `positions` (ascending) and its record in
    /// `chunks`, the chunks this index was built from.
    pub(crate) fn for_each_record(
        &self,
        chunks: &[Vec<TraceRecord>],
        positions: &[u32],
        mut f: impl FnMut(u32, &TraceRecord),
    ) {
        let Some(&first) = positions.first() else { return };
        let mut chunk = self.chunk_starts.partition_point(|&s| s <= first) - 1;
        let mut start = self.chunk_starts[chunk];
        let mut end = self.chunk_starts.get(chunk + 1).copied().unwrap_or(u32::MAX);
        for &at in positions {
            while at >= end {
                chunk += 1;
                start = end;
                end = self.chunk_starts.get(chunk + 1).copied().unwrap_or(u32::MAX);
            }
            f(at, &chunks[chunk][(at - start) as usize]);
        }
    }
}

/// The PC shard a static instruction belongs to — the partition streaming
/// replay splits a container by, one shard per consumer thread.
///
/// Each PC hashes to a fixed shard (a Fibonacci multiply, because raw
/// `pc % nshards` collapses on 4-aligned Sim32 PCs). Only predictors that
/// keep strictly per-PC state are sharded, so shard membership only
/// decides *which* job observes a PC's value stream, never what that
/// stream contains: sharded replays merge back to bit-identical tallies.
///
/// # Panics
///
/// Panics if `nshards` is zero.
#[must_use]
pub fn shard_of_pc(pc: Pc, nshards: usize) -> usize {
    assert!(nshards > 0, "nshards must be positive");
    ((pc.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % nshards
}

/// A bounded broadcast window of live refcounted chunks: the heart of the
/// streaming replay pipeline.
///
/// One producer ([`push`](ChunkWindow::push)) decodes chunks in trace
/// order; `consumers` independent consumers ([`next`](ChunkWindow::next))
/// each see **every** chunk, in order, at their own pace. The window holds
/// at most `capacity` chunks: the producer blocks while the slowest
/// consumer is `capacity` chunks behind, and a chunk's storage is dropped
/// as soon as every consumer has moved past it. A consumer holds one clone
/// while it replays a chunk, and only the chunk just behind the window can
/// be held once evicted, so the window keeps at most `capacity + 1` chunks
/// alive no matter how long the trace is (the producer's next chunk,
/// decoded while it waits for room, is its own).
///
/// [`abort`](ChunkWindow::abort) poisons the window (decode error
/// upstream): consumers drain immediately and the producer never blocks
/// again.
pub(crate) struct ChunkWindow<T> {
    state: Mutex<WindowState<T>>,
    /// Signalled when a chunk lands or the stream finishes/aborts.
    produced: Condvar,
    /// Signalled when eviction frees window space.
    consumed: Condvar,
    capacity: usize,
}

struct WindowState<T> {
    /// Global chunk index of `slots[0]`.
    base: usize,
    slots: VecDeque<Arc<T>>,
    /// Per-consumer next global chunk index (always `>= base`).
    pos: Vec<usize>,
    done: bool,
    poisoned: bool,
}

impl<T> ChunkWindow<T> {
    /// A window of `capacity.max(1)` chunks feeding `consumers` readers.
    pub(crate) fn new(capacity: usize, consumers: usize) -> Self {
        ChunkWindow {
            state: Mutex::new(WindowState {
                base: 0,
                slots: VecDeque::new(),
                pos: vec![0; consumers],
                done: false,
                poisoned: false,
            }),
            produced: Condvar::new(),
            consumed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Appends the next chunk, blocking while the window is full. With no
    /// consumers the chunk is dropped immediately (the producer still
    /// drives the stream to validate it).
    pub(crate) fn push(&self, chunk: T) {
        let mut state = self.state.lock().expect("window lock poisoned");
        if state.pos.is_empty() || state.poisoned {
            return;
        }
        while state.slots.len() >= self.capacity && !state.poisoned {
            state = self.consumed.wait(state).expect("window lock poisoned");
        }
        if state.poisoned {
            return;
        }
        state.slots.push_back(Arc::new(chunk));
        self.produced.notify_all();
    }

    /// Marks the stream complete: consumers drain the remaining chunks and
    /// then see `None`.
    pub(crate) fn finish(&self) {
        let mut state = self.state.lock().expect("window lock poisoned");
        state.done = true;
        self.produced.notify_all();
        self.consumed.notify_all();
    }

    /// Poisons the window after an upstream decode error: every consumer's
    /// next [`next`](ChunkWindow::next) returns `None` without draining.
    pub(crate) fn abort(&self) {
        let mut state = self.state.lock().expect("window lock poisoned");
        state.done = true;
        state.poisoned = true;
        self.produced.notify_all();
        self.consumed.notify_all();
    }

    /// The next chunk for consumer `consumer`, blocking until one lands.
    /// Returns `None` once the stream is finished and drained (or
    /// immediately after [`abort`](ChunkWindow::abort)).
    pub(crate) fn next(&self, consumer: usize) -> Option<Arc<T>> {
        let mut state = self.state.lock().expect("window lock poisoned");
        loop {
            if state.poisoned {
                return None;
            }
            let index = state.pos[consumer];
            if index < state.base + state.slots.len() {
                let chunk = Arc::clone(&state.slots[index - state.base]);
                state.pos[consumer] = index + 1;
                // Evict every chunk all consumers have moved past.
                let min_pos = state.pos.iter().copied().min().unwrap_or(index + 1);
                let mut evicted = false;
                while state.base < min_pos {
                    state.slots.pop_front();
                    state.base += 1;
                    evicted = true;
                }
                if evicted {
                    self.consumed.notify_all();
                }
                return Some(chunk);
            }
            if state.done {
                return None;
            }
            state = self.produced.wait(state).expect("window lock poisoned");
        }
    }
}

impl<'a> IntoIterator for &'a SharedTrace {
    type Item = &'a TraceRecord;
    type IntoIter = std::iter::FlatMap<
        std::slice::Iter<'a, Vec<TraceRecord>>,
        std::slice::Iter<'a, TraceRecord>,
        fn(&'a Vec<TraceRecord>) -> std::slice::Iter<'a, TraceRecord>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

impl FromIterator<TraceRecord> for SharedTrace {
    fn from_iter<T: IntoIterator<Item = TraceRecord>>(iter: T) -> Self {
        let mut builder = SharedTrace::builder();
        for rec in iter {
            builder.push(rec);
        }
        builder.finish()
    }
}

/// Incrementally builds a [`SharedTrace`] chunk by chunk.
///
/// # Examples
///
/// ```
/// use dvp_engine::SharedTrace;
/// use dvp_trace::{InstrCategory, Pc, TraceRecord};
///
/// let mut builder = SharedTrace::builder();
/// for i in 0..100u64 {
///     builder.push(TraceRecord::new(Pc(8), InstrCategory::Loads, i));
/// }
/// let trace = builder.finish();
/// assert_eq!(trace.len(), 100);
/// ```
#[derive(Debug)]
pub struct SharedTraceBuilder {
    chunks: Vec<Vec<TraceRecord>>,
    ids: Vec<Vec<PcId>>,
    current: Vec<TraceRecord>,
    current_ids: Vec<PcId>,
    interner: PcInterner,
    chunk_len: usize,
    len: usize,
}

impl Default for SharedTraceBuilder {
    /// Equivalent to [`SharedTrace::builder`] (a derived default would set
    /// `chunk_len` to 0 and silently disable chunking).
    fn default() -> Self {
        SharedTraceBuilder::with_chunk_len(DEFAULT_CHUNK_LEN)
    }
}

impl SharedTraceBuilder {
    /// A builder whose chunks hold `chunk_len` records each.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    #[must_use]
    pub fn with_chunk_len(chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk_len must be positive");
        SharedTraceBuilder {
            chunks: Vec::new(),
            ids: Vec::new(),
            current: Vec::new(),
            current_ids: Vec::new(),
            interner: PcInterner::new(),
            chunk_len,
            len: 0,
        }
    }

    /// Appends one record (interning its PC as it lands).
    pub fn push(&mut self, rec: TraceRecord) {
        if self.current.capacity() == 0 {
            self.current.reserve_exact(self.chunk_len);
            self.current_ids.reserve_exact(self.chunk_len);
        }
        self.current_ids.push(self.interner.intern(rec.pc));
        self.current.push(rec);
        self.len += 1;
        if self.current.len() == self.chunk_len {
            self.chunks.push(std::mem::take(&mut self.current));
            self.ids.push(std::mem::take(&mut self.current_ids));
        }
    }

    /// Records pushed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing has been pushed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Seals the builder into an immutable [`SharedTrace`].
    #[must_use]
    pub fn finish(mut self) -> SharedTrace {
        if !self.current.is_empty() {
            self.chunks.push(self.current);
            self.ids.push(self.current_ids);
        }
        SharedTrace::from_parts(self.chunks, self.ids, self.interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_trace::{InstrCategory, Pc};

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n).map(|i| TraceRecord::new(Pc(4 * (i % 5)), InstrCategory::AddSub, i)).collect()
    }

    #[test]
    fn builder_chunks_and_preserves_order() {
        let recs = records(1000);
        let mut builder = SharedTraceBuilder::with_chunk_len(64);
        for &rec in &recs {
            builder.push(rec);
        }
        let trace = builder.finish();
        assert_eq!(trace.len(), 1000);
        assert_eq!(trace.chunks().len(), 1000usize.div_ceil(64));
        assert!(trace.chunks().iter().all(|c| !c.is_empty()));
        assert_eq!(trace.to_vec(), recs);
    }

    #[test]
    fn clone_shares_storage() {
        let trace = SharedTrace::from_records(records(100));
        let clone = trace.clone();
        assert!(std::ptr::eq(trace.chunks().as_ptr(), clone.chunks().as_ptr()));
    }

    #[test]
    fn truncated_caps_and_avoids_copies_when_within_cap() {
        let trace = SharedTrace::from_records(records(100));
        let capped = trace.truncated(30);
        assert_eq!(capped.len(), 30);
        assert_eq!(capped.to_vec(), records(100)[..30]);
        let uncapped = trace.truncated(1000);
        assert!(std::ptr::eq(trace.chunks().as_ptr(), uncapped.chunks().as_ptr()));
    }

    #[test]
    fn interner_and_ids_follow_first_appearance() {
        let trace: SharedTrace = records(300).into_iter().collect();
        // records() cycles 5 PCs; first appearance order is Pc(0), Pc(4)…
        assert_eq!(trace.interner().len(), 5);
        for (rec, id) in trace.iter_with_ids() {
            assert_eq!(trace.interner().get(rec.pc), Some(id));
            assert_eq!(trace.interner().pc(id), rec.pc);
        }
        // from_records and the builder agree on interning.
        let flat = SharedTrace::from_records(records(300));
        assert_eq!(flat.interner(), trace.interner());
    }

    #[test]
    fn shard_of_pc_partitions_aligned_pcs_and_is_stable() {
        // 4-aligned PCs must spread over all shards, and the assignment is
        // a pure function of (pc, nshards).
        for nshards in [1, 2, 3, 8] {
            let mut hit = vec![false; nshards];
            for i in 0..400u64 {
                let shard = shard_of_pc(Pc(0x40_0000 + 4 * i), nshards);
                assert!(shard < nshards);
                assert_eq!(shard, shard_of_pc(Pc(0x40_0000 + 4 * i), nshards));
                hit[shard] = true;
            }
            assert!(hit.iter().all(|&h| h), "{nshards} shards all non-empty");
        }
    }

    #[test]
    fn chunk_window_broadcasts_in_order_and_bounds_residency() {
        let window = ChunkWindow::<Vec<u32>>::new(2, 3);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|consumer| {
                    let window = &window;
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        while let Some(chunk) = window.next(consumer) {
                            seen.extend_from_slice(&chunk);
                        }
                        seen
                    })
                })
                .collect();
            for start in (0..30u32).step_by(3) {
                // The push blocks whenever the slowest consumer is 2
                // chunks behind, so at most 2 chunks are ever resident.
                window.push(vec![start, start + 1, start + 2]);
                let state = window.state.lock().expect("lock");
                assert!(state.slots.len() <= 2, "window overfull: {}", state.slots.len());
            }
            window.finish();
            let expected: Vec<u32> = (0..30).collect();
            for handle in handles {
                assert_eq!(handle.join().expect("consumer"), expected);
            }
        });
    }

    #[test]
    fn chunk_window_abort_unblocks_everyone() {
        let window = ChunkWindow::<u32>::new(1, 2);
        std::thread::scope(|scope| {
            let consumers: Vec<_> = (0..2)
                .map(|consumer| {
                    let window = &window;
                    scope.spawn(move || {
                        let mut count = 0;
                        while window.next(consumer).is_some() {
                            count += 1;
                        }
                        count
                    })
                })
                .collect();
            window.push(1);
            window.abort();
            // Post-abort pushes are dropped, not blocked on.
            window.push(2);
            window.push(3);
            for handle in consumers {
                assert!(handle.join().expect("consumer") <= 1);
            }
        });
    }

    #[test]
    fn chunk_window_without_consumers_never_blocks() {
        let window = ChunkWindow::<u32>::new(1, 0);
        for i in 0..100 {
            window.push(i); // capacity 1, no consumers: must not deadlock
        }
        window.finish();
    }

    #[test]
    fn the_index_waits_for_a_pc_major_replay_and_is_shared_by_clones() {
        use crate::ReplayEngine;
        use dvp_core::PredictorConfig;
        use dvp_trace::io::v2;
        let engine = ReplayEngine::sequential();
        let mut bytes = Vec::new();
        v2::write_compressed(&mut bytes, &v2::TraceMeta::default(), records(300).chunks(64), &[])
            .expect("writes");
        let mut builder = SharedTraceBuilder::with_chunk_len(64);
        records(300).into_iter().for_each(|rec| builder.push(rec));
        let built = [
            SharedTrace::from_records(records(300)),
            builder.finish(),
            engine.load_trace(&bytes).expect("loads").1,
        ];
        for trace in built {
            let clone = trace.clone();
            assert!(trace.pc_index.get().is_none(), "no index before a replay needs one");
            let _ = engine.observe(&trace, dvp_trace::TraceSummary::new);
            assert!(trace.pc_index.get().is_none(), "a record-order fold needs none");
            let _ = engine.replay(&trace, &PredictorConfig::paper_bank());
            let index = clone.pc_index.get().and_then(Option::as_ref).expect("built once");
            assert!(std::ptr::eq(index, trace.pc_index().expect("indexed")));
            assert_eq!((index.ids(), index.positions(0).len()), (5, 60));
        }
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let trace = SharedTrace::new();
        assert!(trace.is_empty());
        assert_eq!(trace.iter().count(), 0);
        assert_eq!(trace.interner().len(), 0);
        assert_eq!(trace.iter_with_ids().count(), 0);
        assert!(SharedTrace::builder().is_empty());
    }
}
