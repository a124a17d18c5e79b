//! Parallel loading of persisted v2 trace containers into [`SharedTrace`]s,
//! and the streaming replay path that never materializes one.

use crate::drive::Plan;
use crate::shared::MAX_RESIDENT_RECORDS;
use crate::{ConfigReplay, ReplayEngine, SharedTrace};
use dvp_core::PredictorConfig;
use dvp_trace::io::v2;
use dvp_trace::io::TraceIoError;
use dvp_trace::{Pc, PcId, TraceRecord};
use std::io::Read;

impl ReplayEngine {
    /// Decodes an in-memory v2 trace container into a [`SharedTrace`],
    /// chunk for chunk, on this engine's worker pool.
    ///
    /// Chunks are self-contained (delta bases reset at chunk boundaries,
    /// each index entry carries its own checksum), so every chunk decodes
    /// as an independent job and moves straight into the shared buffer: no
    /// flat record vector is ever built, and chunk boundaries survive a
    /// save/load round trip exactly.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] for an unsupported version, a malformed
    /// header, a header counting more than `u32::MAX` records (a resident
    /// trace's bound: stream such a container with
    /// [`replay_streaming`](ReplayEngine::replay_streaming); no chunk is
    /// decoded), a chunk failing validation, a truncated payload section, a
    /// torn or corrupt trailing section, or a persisted interner section
    /// that misses a PC — for the lowest-index failing chunk, whichever
    /// worker hit it first.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvp_engine::{ReplayEngine, SharedTrace};
    /// use dvp_trace::io::v2;
    /// use dvp_trace::{InstrCategory, Pc, TraceRecord};
    ///
    /// let records: Vec<TraceRecord> =
    ///     (0..500u64).map(|i| TraceRecord::new(Pc(4 * (i % 9)), InstrCategory::AddSub, i)).collect();
    /// let mut bytes = Vec::new();
    /// v2::write_compressed(&mut bytes, &v2::TraceMeta::default(), records.chunks(128), &[])?;
    ///
    /// let (header, trace) = ReplayEngine::new().load_trace(&bytes)?;
    /// assert_eq!(trace.to_vec(), records);
    /// assert_eq!(trace.chunks().len(), header.chunks.len());
    /// # Ok::<(), dvp_trace::io::TraceIoError>(())
    /// ```
    pub fn load_trace(&self, bytes: &[u8]) -> Result<(v2::Header, SharedTrace), TraceIoError> {
        let (header, payload, sections) = v2::split_with_sections(bytes)?;
        if header.record_count > MAX_RESIDENT_RECORDS as u64 {
            return Err(TraceIoError::Format {
                message: format!(
                    "container holds {} records, over the {MAX_RESIDENT_RECORDS} a resident \
                     trace can index; stream it instead",
                    header.record_count
                ),
            });
        }
        let interner = sections
            .iter()
            .find(|section| section.magic == v2::SECTION_INTERNER)
            .map(|section| v2::decode_interner(section.body))
            .transpose()?;
        let stale = |pc: Pc| TraceIoError::Format {
            message: format!("interner section does not cover {pc} (stale section)"),
        };
        // One job per chunk: decode it and, when the container persists
        // its interner, assign the chunk's ids by read-only lookups — so
        // id assignment fans out chunk-parallel instead of running as one
        // sequential interning pass.
        let parts = self.try_map(header.chunks.clone(), |info| {
            let chunk = v2::decode_chunk(v2::chunk_payload(payload, &info)?, &info)?;
            let ids = match &interner {
                Some(interner) => chunk
                    .iter()
                    .map(|rec| interner.get(rec.pc).ok_or_else(|| stale(rec.pc)))
                    .collect::<Result<Vec<PcId>, _>>()?,
                None => Vec::new(),
            };
            Ok::<_, TraceIoError>((chunk, ids))
        })?;
        let (chunks, ids): (Vec<Vec<TraceRecord>>, Vec<Vec<PcId>>) = parts.into_iter().unzip();
        let trace = match interner {
            Some(interner) => SharedTrace::from_parts(chunks, ids, interner),
            None => SharedTrace::from_chunks(chunks),
        };
        Ok((header, trace))
    }

    /// Replays a container **streaming**: chunks decode one at a time on
    /// the calling thread and flow through a bounded window
    /// ([`with_chunk_window`](ReplayEngine::with_chunk_window)) to the
    /// replay workers — the full record buffer is never resident. Workers
    /// replay chunk *N* while chunk *N + 1* decompresses, so the pipeline
    /// hides decode latency behind predictor work.
    ///
    /// Resident records are bounded by `(chunk_window + 2) ×
    /// chunk_capacity` decoded records — the window, the evicted chunk
    /// consumers may still replay, and the chunk the producer decoded
    /// while it waits for room — plus one gather buffer per worker, which
    /// holds the worker's PC shard of at most one chunk; none of it grows
    /// with trace length. Workers split the container into one PC shard
    /// each for every per-instruction configuration; any other
    /// configuration is one unsharded job.
    /// Tallies are byte-identical to [`replay`](ReplayEngine::replay) on
    /// the loaded trace at every worker and window setting.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] for a malformed header, a payload that
    /// ends inside a chunk, any chunk failing validation (checksum,
    /// decompression, record count, category bytes), or a torn trailing
    /// section — in which case all partial tallies are discarded.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvp_core::PredictorConfig;
    /// use dvp_engine::{ReplayEngine, SharedTrace};
    /// use dvp_trace::io::v2;
    /// use dvp_trace::{InstrCategory, Pc, TraceRecord};
    ///
    /// let records: Vec<TraceRecord> =
    ///     (0..2000u64).map(|i| TraceRecord::new(Pc(4 * (i % 9)), InstrCategory::AddSub, i / 9)).collect();
    /// let mut bytes = Vec::new();
    /// v2::write_compressed(&mut bytes, &v2::TraceMeta::default(), records.chunks(256), &[])?;
    ///
    /// let engine = ReplayEngine::new();
    /// let bank = PredictorConfig::paper_bank();
    /// let (header, streamed) = engine.replay_streaming(bytes.as_slice(), &bank)?;
    /// assert_eq!(header.record_count, 2000);
    ///
    /// // Byte-identical to the resident path.
    /// let (_, trace) = engine.load_trace(&bytes)?;
    /// let resident = engine.replay(&trace, &bank);
    /// for (s, r) in streamed.iter().zip(&resident) {
    ///     assert_eq!(s.tracker.correct(None), r.tracker.correct(None));
    ///     assert_eq!(s.tracker.predicted(None), r.tracker.predicted(None));
    /// }
    /// # Ok::<(), dvp_trace::io::TraceIoError>(())
    /// ```
    pub fn replay_streaming<R: Read>(
        &self,
        reader: R,
        bank: &[PredictorConfig],
    ) -> Result<(v2::Header, Vec<ConfigReplay>), TraceIoError> {
        let (header, tallies) = self.drive_bank_stream(reader, Plan::Full, bank)?;
        Ok((header, tallies.into_iter().map(ConfigReplay::new).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_trace::{InstrCategory, Pc, TraceRecord};

    fn records(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                TraceRecord::new(
                    Pc(0x40_0000 + 4 * (i % 200)),
                    InstrCategory::from_index((i % 8) as usize).expect("valid"),
                    i.wrapping_mul(2_654_435_761),
                )
            })
            .collect()
    }

    fn container(n: u64, capacity: usize) -> Vec<u8> {
        let mut bytes = Vec::new();
        v2::write_compressed(
            &mut bytes,
            &v2::TraceMeta::default(),
            records(n).chunks(capacity),
            &[],
        )
        .expect("writes");
        bytes
    }

    #[test]
    fn parallel_load_matches_sequential_and_preserves_chunking() {
        let bytes = container(10_000, 1024);
        let reference = ReplayEngine::sequential().load_trace(&bytes).expect("loads");
        for workers in [2, 4, 16] {
            let (header, trace) =
                ReplayEngine::new().with_workers(workers).load_trace(&bytes).expect("loads");
            assert_eq!(header, reference.0);
            assert_eq!(trace.to_vec(), records(10_000), "{workers} workers");
            assert_eq!(trace.chunks().len(), 10);
            assert!(trace.chunks()[..9].iter().all(|c| c.len() == 1024));
        }
    }

    #[test]
    fn shared_trace_round_trips_chunk_for_chunk() {
        // Save a builder-chunked trace, load it back: same chunk layout.
        let mut builder = SharedTrace::builder();
        for rec in records(200_000) {
            builder.push(rec);
        }
        let original = builder.finish();
        let mut bytes = Vec::new();
        v2::write_compressed(
            &mut bytes,
            &v2::TraceMeta::default(),
            original.chunks().iter().map(Vec::as_slice),
            &[],
        )
        .expect("writes");
        let (_, loaded) = ReplayEngine::new().load_trace(&bytes).expect("loads");
        assert_eq!(loaded.chunks(), original.chunks());
    }

    /// A container carrying the persisted-interner section, as the trace
    /// cache writes it.
    fn container_with_interner(n: u64, capacity: usize) -> Vec<u8> {
        let trace = SharedTrace::from_records(records(n));
        let sections = [(v2::SECTION_INTERNER, v2::encode_interner(trace.interner()))];
        let mut bytes = Vec::new();
        v2::write_with_sections(
            &mut bytes,
            &v2::TraceMeta::default(),
            records(n).chunks(capacity),
            &sections,
        )
        .expect("writes");
        bytes
    }

    #[test]
    fn persisted_interner_load_equals_fresh_interning() {
        let plain = container(8_000, 1024);
        let sectioned = container_with_interner(8_000, 1024);
        for workers in [1, 4] {
            let engine = ReplayEngine::new().with_workers(workers);
            let (_, fresh) = engine.load_trace(&plain).expect("loads without section");
            let (_, warm) = engine.load_trace(&sectioned).expect("loads with section");
            assert_eq!(warm.to_vec(), fresh.to_vec(), "{workers} workers");
            assert_eq!(warm.interner(), fresh.interner(), "{workers} workers");
            let warm_ids: Vec<_> = warm.iter_with_ids().map(|(_, id)| id).collect();
            let fresh_ids: Vec<_> = fresh.iter_with_ids().map(|(_, id)| id).collect();
            assert_eq!(warm_ids, fresh_ids, "{workers} workers");
        }
    }

    #[test]
    fn stale_interner_section_is_rejected() {
        // A section that does not cover every PC in the payload is a
        // corrupt or stale artifact and must fail loudly, not mis-id.
        let trace = SharedTrace::from_records(records(50));
        let mut pcs = trace.interner().pcs().to_vec();
        pcs.pop();
        let partial = dvp_trace::PcInterner::from_pcs(pcs).expect("still bijective");
        let sections = [(v2::SECTION_INTERNER, v2::encode_interner(&partial))];
        let mut bytes = Vec::new();
        v2::write_with_sections(
            &mut bytes,
            &v2::TraceMeta::default(),
            records(50).chunks(16),
            &sections,
        )
        .expect("writes");
        let err = ReplayEngine::new().load_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("does not cover"), "{err}");
    }

    #[test]
    fn load_propagates_chunk_errors() {
        let mut bytes = container(5000, 512);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // corrupt the final chunk's payload
        let err = ReplayEngine::new().load_trace(&bytes).unwrap_err();
        assert!(err.to_string().contains("chunk checksum"), "{err}");
    }

    #[test]
    fn empty_container_loads_to_empty_trace() {
        let bytes = container(0, 16);
        let (header, trace) = ReplayEngine::new().load_trace(&bytes).expect("loads");
        assert!(trace.is_empty());
        assert_eq!(header.record_count, 0);
    }

    /// (name, correct, predicted) triples — the full tally surface that
    /// streaming must reproduce byte for byte.
    fn tally_surface(replays: &[ConfigReplay]) -> Vec<(String, Vec<(u64, u64)>)> {
        replays
            .iter()
            .map(|r| {
                let per_category = dvp_trace::InstrCategory::ALL
                    .into_iter()
                    .map(Some)
                    .chain([None])
                    .map(|c| (r.tracker.correct(c), r.tracker.predicted(c)))
                    .collect();
                (r.name.clone(), per_category)
            })
            .collect()
    }

    #[test]
    fn streaming_replay_validates_sections_and_tolerates_them() {
        let bytes = container_with_interner(8_000, 512);
        let bank = dvp_core::PredictorConfig::fcm_orders([1, 2]);
        let (_, trace) = ReplayEngine::sequential().load_trace(&bytes).expect("loads");
        let reference = tally_surface(&ReplayEngine::sequential().replay(&trace, &bank));
        let engine = ReplayEngine::new().with_workers(3).with_chunk_window(2);
        let (_, streamed) = engine.replay_streaming(bytes.as_slice(), &bank).expect("streams");
        assert_eq!(tally_surface(&streamed), reference);
        // A torn section frame after the payload must still fail.
        let mut torn = bytes.clone();
        torn.truncate(torn.len() - 3);
        let err = engine.replay_streaming(torn.as_slice(), &bank).unwrap_err();
        assert!(err.to_string().contains("section"), "{err}");
    }

    #[test]
    fn streaming_replay_rejects_corruption_and_truncation() {
        let bank = dvp_core::PredictorConfig::paper_bank();
        let engine = ReplayEngine::new().with_chunk_window(2);
        // Corrupt payload byte → chunk checksum error.
        let mut corrupt = container(5_000, 512);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let err = engine.replay_streaming(corrupt.as_slice(), &bank).unwrap_err();
        assert!(err.to_string().contains("chunk checksum"), "{err}");
        // Stream that ends inside a chunk → structured error, no hang.
        let whole = container(5_000, 512);
        let torn = &whole[..whole.len() - 40];
        let err = engine.replay_streaming(torn, &bank).unwrap_err();
        assert!(err.to_string().contains("ends inside chunk"), "{err}");
    }

    #[test]
    fn streaming_replay_handles_empty_bank_and_empty_trace() {
        let engine = ReplayEngine::new();
        let (header, replays) =
            engine.replay_streaming(container(3_000, 512).as_slice(), &[]).expect("streams");
        assert_eq!(header.record_count, 3_000);
        assert!(replays.is_empty());
        // An empty bank still validates the stream end to end.
        let mut corrupt = container(3_000, 512);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        assert!(engine.replay_streaming(corrupt.as_slice(), &[]).is_err());
        let bank = dvp_core::PredictorConfig::paper_bank();
        let (_, replays) =
            engine.replay_streaming(container(0, 16).as_slice(), &bank).expect("streams");
        assert!(replays.iter().all(|r| r.tracker.total() == 0));
    }
}
