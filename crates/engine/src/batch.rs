//! Chunk-granular batched replay driving.
//!
//! The replay driver funnels every record into
//! [`dvp_core::Predictor::observe_batch`] (or
//! [`dvp_trace::Observer::observe_batch`]) through this scratch buffer,
//! so the per-record cost is a few vector writes and the virtual predictor
//! dispatch amortizes over a chunk. Batch boundaries are invisible in the
//! tallies: `observe_batch` is bit-for-bit the per-record loop, so *any*
//! flush schedule produces identical results.

use crate::drive::BankJob;
use crate::shared::{shard_of_pc, PcIndex};
use dvp_core::Predictor;
use dvp_trace::{InstrCategory, Observer, Pc, PcId, PcInterner, TraceRecord, Value};

/// Reusable structure-of-arrays gather buffers for batched replay.
///
/// One shape: a gather selects records together with each record's dense
/// id and global trace position — [`gather`](BatchScratch::gather) takes
/// a span of a resident chunk with its ids,
/// [`gather_positions`](BatchScratch::gather_positions) one instruction's
/// records of a resident trace through its [`PcIndex`], and
/// [`gather_interning`](BatchScratch::gather_interning) interns the
/// selected records of a streamed chunk (optionally only one PC shard's)
/// as it goes — and [`observe`](BatchScratch::observe) replays the
/// selection through one `observe_batch` call, yielding `(position,
/// category, correct)` per record in trace order;
/// [`observe_bank`](BatchScratch::observe_bank) does the same for an
/// FCM bank and its derived hybrids ([`BankJob`]), with one correct column
/// per member, and
/// [`observe_into`](BatchScratch::observe_into) hands the columns to an
/// [`Observer`]. Observing leaves the selection as it was, so one gather
/// feeds any number of models.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    ids: Vec<PcId>,
    pcs: Vec<Pc>,
    values: Vec<Value>,
    categories: Vec<InstrCategory>,
    /// Global position of the first record the selection came from.
    base: u64,
    /// Each selected record's offset from `base`.
    offsets: Vec<u32>,
    correct: Vec<bool>,
}

impl BatchScratch {
    /// Replaces the selection with all of `records` (parallel to `ids`,
    /// the first at global position `base`).
    pub(crate) fn gather(&mut self, base: u64, records: &[TraceRecord], ids: &[PcId]) {
        self.select(base, records, |offset, _| Some(ids[offset]));
    }

    /// Replaces the selection with the records at `positions` (ascending,
    /// as [`PcIndex::positions`] gives them) of the trace `index` was built
    /// from, whose chunks are `chunks`: one instruction's records, every
    /// one under local id 0.
    pub(crate) fn gather_positions(
        &mut self,
        chunks: &[Vec<TraceRecord>],
        index: &PcIndex,
        positions: &[u32],
    ) {
        self.clear(0);
        index.for_each_record(chunks, positions, |at, rec| self.push(PcId(0), rec, at));
    }

    /// Replaces the selection with `records` (the first at global
    /// position `base`) — all of them, or with `Some((shards, shard))`
    /// only those whose PC falls in `shard` of `shards` — interning each
    /// selected PC into `interner`, so the ids name only PCs this
    /// selection's owner replays.
    pub(crate) fn gather_interning(
        &mut self,
        base: u64,
        records: &[TraceRecord],
        interner: &mut PcInterner,
        shard: Option<(usize, usize)>,
    ) {
        self.select(base, records, |_, rec| {
            shard
                .is_none_or(|(shards, s)| shard_of_pc(rec.pc, shards) == s)
                .then(|| interner.intern(rec.pc))
        });
    }

    /// Replaces the selection with the records `pick` gives an id.
    fn select(
        &mut self,
        base: u64,
        records: &[TraceRecord],
        mut pick: impl FnMut(usize, &TraceRecord) -> Option<PcId>,
    ) {
        self.clear(base);
        for (offset, rec) in records.iter().enumerate() {
            if let Some(id) = pick(offset, rec) {
                self.push(id, rec, offset as u32);
            }
        }
    }

    /// Empties the selection, whose offsets will count from `base`.
    fn clear(&mut self, base: u64) {
        self.base = base;
        self.ids.clear();
        self.pcs.clear();
        self.values.clear();
        self.categories.clear();
        self.offsets.clear();
    }

    /// Appends one record, `offset` records past `base`.
    fn push(&mut self, id: PcId, rec: &TraceRecord, offset: u32) {
        self.ids.push(id);
        self.pcs.push(rec.pc);
        self.values.push(rec.value);
        self.categories.push(rec.category);
        self.offsets.push(offset);
    }

    /// The number of records selected.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The PC of the first selected record and every selected record's
    /// category: one instruction's, for a
    /// [`gather_positions`](BatchScratch::gather_positions) selection.
    /// `None` when nothing is selected.
    pub(crate) fn instruction(&self) -> Option<(Pc, &[InstrCategory])> {
        Some((*self.pcs.first()?, &self.categories))
    }

    /// Replays the selection through one `observe_batch` call. Returns the
    /// chunk's global position and, in trace order, each selected
    /// record's offset in the chunk, its category, and whether it was
    /// predicted correctly.
    pub(crate) fn observe(
        &mut self,
        predictor: &mut dyn Predictor,
    ) -> (u64, &[u32], &[InstrCategory], &[bool]) {
        self.correct.clear();
        self.correct.resize(self.ids.len(), false);
        predictor.observe_batch(&self.ids, &self.pcs, &self.values, &mut self.correct);
        (self.base, &self.offsets, &self.categories, &self.correct)
    }

    /// [`observe`](BatchScratch::observe) for a bank: the correct flags
    /// are one column per member, member `m`'s at
    /// `correct[m * n..(m + 1) * n]` for `n` selected records.
    pub(crate) fn observe_bank(
        &mut self,
        bank: &mut BankJob,
    ) -> (u64, &[u32], &[InstrCategory], &[bool]) {
        self.correct.clear();
        self.correct.resize(self.ids.len() * bank.columns(), false);
        bank.observe_batch(&self.ids, &self.pcs, &self.values, &mut self.correct);
        (self.base, &self.offsets, &self.categories, &self.correct)
    }

    /// Folds the selection into an observer.
    pub(crate) fn observe_into<O: Observer>(&self, observer: &mut O) {
        observer.observe_batch(&self.ids, &self.pcs, &self.values, &self.categories);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::{AccuracyTracker, PredictorConfig};
    use dvp_trace::PcInterner;

    fn stream() -> (Vec<TraceRecord>, Vec<PcId>) {
        let mut interner = PcInterner::new();
        (0..500u64)
            .map(|i| {
                let cat = if i % 4 == 0 { InstrCategory::Loads } else { InstrCategory::Logic };
                let rec = TraceRecord::new(Pc(8 * (i % 7)), cat, (i / 7) % 5);
                (rec, interner.intern(rec.pc))
            })
            .unzip()
    }

    #[test]
    fn chunked_observe_matches_per_record_loop_for_every_config() {
        let (records, ids) = stream();
        for config in PredictorConfig::paper_bank() {
            let mut reference = config.build();
            let mut want = AccuracyTracker::new();
            for (rec, &id) in records.iter().zip(&ids) {
                let hit = reference.step(id, rec.pc, rec.value) == Some(rec.value);
                want.record(rec.category, hit);
            }
            for chunk in [3usize, 64, 500] {
                let mut predictor = config.build();
                let mut got = AccuracyTracker::new();
                let mut scratch = BatchScratch::default();
                for (c, (recs, idch)) in records.chunks(chunk).zip(ids.chunks(chunk)).enumerate() {
                    scratch.gather((c * chunk) as u64, recs, idch);
                    let (_, _, categories, correct) = scratch.observe(predictor.as_mut());
                    for (&cat, &ok) in categories.iter().zip(correct) {
                        got.record(cat, ok);
                    }
                }
                for cat in InstrCategory::ALL.into_iter().map(Some).chain([None]) {
                    assert_eq!(got.correct(cat), want.correct(cat), "{} {chunk}", config.name());
                    assert_eq!(got.predicted(cat), want.predicted(cat));
                }
            }
        }
    }

    #[test]
    fn gathers_select_with_global_positions() {
        let (records, ids) = stream();
        let mut scratch = BatchScratch::default();
        scratch.gather(1000, &records[10..40], &ids[10..40]);
        assert_eq!(scratch.ids, ids[10..40]);
        assert_eq!(scratch.offsets, (0..30).collect::<Vec<u32>>());
        scratch.gather(0, &records[5..5], &ids[5..5]);
        assert!(scratch.ids.is_empty() && scratch.offsets.is_empty());

        // Resident PC-major: one instruction's records through the index,
        // across ragged chunk boundaries, at their trace positions and
        // under local id 0.
        let chunks: Vec<Vec<TraceRecord>> =
            [0..3, 3..4, 4..90, 90..91, 91..500].map(|r| records[r].to_vec()).into();
        let trace = crate::SharedTrace::from_chunks(chunks);
        let index = trace.pc_index();
        for id in 0..7 {
            let picked: Vec<usize> = (0..500).filter(|&i| ids[i].index() == id).collect();
            let positions = index.positions(id);
            assert_eq!(positions, picked.iter().map(|&i| i as u32).collect::<Vec<_>>());
            scratch.gather_positions(trace.chunks(), index, positions);
            assert_eq!(
                scratch.values,
                picked.iter().map(|&i| records[i].value).collect::<Vec<_>>()
            );
            assert_eq!(scratch.pcs, picked.iter().map(|&i| records[i].pc).collect::<Vec<_>>());
            assert!(scratch.ids.iter().all(|&id| id == PcId(0)));
            let mut p = PredictorConfig::paper_bank()[0].build();
            let (base, offsets, _, _) = scratch.observe(p.as_mut());
            assert_eq!(base, 0);
            assert_eq!(offsets, positions);
        }

        // Streaming: the shard is read off the PC, and only the selected
        // PCs are interned, densely in their first-appearance order.
        let mut interner = PcInterner::new();
        scratch.gather_interning(1000, &records[10..40], &mut interner, Some((3, 1)));
        let picked: Vec<usize> = (10..40).filter(|&i| shard_of_pc(records[i].pc, 3) == 1).collect();
        assert!(!picked.is_empty() && picked.len() < 30);
        assert_eq!(scratch.pcs, picked.iter().map(|&i| records[i].pc).collect::<Vec<_>>());
        assert!(interner.pcs().iter().all(|&pc| shard_of_pc(pc, 3) == 1));
        let want: Vec<PcId> =
            picked.iter().map(|&i| interner.get(records[i].pc).expect("interned")).collect();
        assert_eq!(scratch.ids, want);
        assert_eq!(scratch.offsets, picked.iter().map(|&i| i as u32 - 10).collect::<Vec<_>>());
        scratch.gather_interning(7, &records[..3], &mut interner, None);
        assert_eq!(scratch.pcs, records[..3].iter().map(|r| r.pc).collect::<Vec<_>>());
    }
}
