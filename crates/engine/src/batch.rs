//! Chunk-granular batched replay driving.
//!
//! The replay driver funnels every record into
//! [`dvp_core::Predictor::observe_batch`] (or
//! [`dvp_trace::Observer::observe_batch`]) through this scratch buffer,
//! so the per-record cost is a few vector writes and the virtual predictor
//! dispatch amortizes over a chunk. Batch boundaries are invisible in the
//! tallies: `observe_batch` is bit-for-bit the per-record loop, so *any*
//! flush schedule produces identical results.

use dvp_core::Predictor;
use dvp_trace::{InstrCategory, Observer, Pc, PcId, TraceRecord, Value};

/// Reusable structure-of-arrays gather buffers for batched replay.
///
/// One shape: [`gather`](BatchScratch::gather) selects a span of a chunk
/// (optionally only one PC shard's records) together with each record's
/// global trace position, and [`observe`](BatchScratch::observe) replays
/// the selection through one `observe_batch` call, yielding
/// `(position, category, correct)` per record in trace order;
/// [`observe_into`](BatchScratch::observe_into) hands the same columns to
/// an [`Observer`].
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
    /// Replaces the selection with `records` (parallel to `ids`, the first
    /// at global position `base`) — all of them, or with `Some((shard_of,
    /// shard))` only those whose id maps to `shard`.
    pub(crate) fn gather(
        &mut self,
        base: u64,
        records: &[TraceRecord],
        ids: &[PcId],
        shard: Option<(&[usize], usize)>,
    ) {
        self.base = base;
        self.ids.clear();
        self.pcs.clear();
        self.values.clear();
        self.categories.clear();
        self.offsets.clear();
        for (offset, (rec, &id)) in (0..).zip(records.iter().zip(ids)) {
            if shard.is_none_or(|(shard_of, s)| shard_of[id.index()] == s) {
                self.ids.push(id);
                self.pcs.push(rec.pc);
                self.values.push(rec.value);
                self.categories.push(rec.category);
                self.offsets.push(offset);
            }
        }
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
                    scratch.gather((c * chunk) as u64, recs, idch, None);
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
    fn gather_selects_one_shard_with_global_positions() {
        let (records, ids) = stream();
        let shard_of: Vec<usize> = (0..7).map(|id| id % 3).collect();
        let mut scratch = BatchScratch::default();
        scratch.gather(1000, &records[10..40], &ids[10..40], Some((&shard_of, 1)));
        let picked: Vec<usize> = (10..40).filter(|&i| shard_of[ids[i].index()] == 1).collect();
        assert!(!picked.is_empty() && picked.len() < 30);
        let rebuilt: Vec<TraceRecord> = (0..scratch.ids.len())
            .map(|j| TraceRecord::new(scratch.pcs[j], scratch.categories[j], scratch.values[j]))
            .collect();
        assert_eq!(rebuilt, picked.iter().map(|&i| records[i]).collect::<Vec<_>>());
        assert_eq!(scratch.ids, picked.iter().map(|&i| ids[i]).collect::<Vec<_>>());
        let mut p = PredictorConfig::paper_bank()[0].build();
        let (base, offsets, _, _) = scratch.observe(p.as_mut());
        let positions: Vec<u64> = offsets.iter().map(|&at| base + u64::from(at)).collect();
        assert_eq!(positions, picked.iter().map(|&i| 990 + i as u64).collect::<Vec<_>>());
        scratch.gather(0, &records[5..5], &ids[5..5], None);
        assert!(scratch.ids.is_empty() && scratch.offsets.is_empty());
    }
}
