//! The persistent trace cache: a disk tier under the in-memory
//! [`TraceStore`](crate::TraceStore).
//!
//! Generating a trace — compiling the workload and simulating it to
//! completion — is pure fixed cost that every `repro` invocation used to
//! repeat, because the in-memory trace cache dies with the process. This
//! module persists each generated trace as a version-4 container
//! ([`dvp_trace::io::v2`], specified in `docs/TRACE_FORMAT.md`) inside a
//! cache directory, keyed by the workload's [`Fingerprint`] (benchmark,
//! input, seed, scale, optimization level, record cap). A later run with
//! the same configuration loads the container — decoded chunk-for-chunk
//! on the replay engine's worker pool, which parallelizes where the
//! simulator cannot — instead of simulating, is byte-identical to a cold
//! run, and needs neither the compiler nor the simulator. The containers
//! themselves are durable, externally consumable artifacts (`repro trace
//! export/stats/verify` manages them).
//!
//! The cache is **safe by construction**, not by trust:
//!
//! * a hit is only served when the stored fingerprint equals the expected
//!   one — a stale file (different scale, input, …) is reported and
//!   treated as a miss;
//! * every load validates the header checksum and each chunk's checksum,
//!   so a corrupted file is detected, reported, and regenerated;
//! * a container of any version but 4 is invalid the same way, so a file
//!   an older build wrote is regenerated, never served;
//! * writes go through [`durable::replace_file`] (temporary file, fsync,
//!   rename), so a crashed run never leaves a torn container behind;
//! * cache failures (unwritable directory, corrupt file) never fail the
//!   run — they fall back to simulation and are counted in
//!   [`CacheStats`].

use crate::durable;
use dvp_engine::{ReplayEngine, SharedTrace};
use dvp_lang::OptLevel;
use dvp_trace::io::v2::{self, Fingerprint, Header, TraceMeta};
use dvp_trace::io::TraceIoError;
use dvp_trace::PhasePlan;
use dvp_workloads::Workload;
use std::fmt;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};

/// File extension of persisted trace containers.
pub const TRACE_EXTENSION: &str = "dvpt";

/// Counters describing what a [`TraceStore`](crate::TraceStore) did across
/// its memory and disk tiers. `repro --trace-dir` prints them at the end
/// of a run; a fully warm run shows `0 simulated`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Traces generated by running the simulator.
    pub simulated: u64,
    /// Traces served from a valid on-disk container.
    pub disk_hits: u64,
    /// Containers written through to disk after simulation.
    pub written: u64,
    /// On-disk candidates rejected (corrupt container or stale
    /// fingerprint) and regenerated.
    pub invalid: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} disk hits, {} simulated, {} written, {} invalid",
            self.disk_hits, self.simulated, self.written, self.invalid
        )
    }
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid container with the expected fingerprint: its metadata, the
    /// loaded trace, and the phase plan its [`v2::SECTION_PHASES`]
    /// section carries (`None` for a container without one).
    Hit(TraceMeta, SharedTrace, Option<PhasePlan>),
    /// No container on disk for this fingerprint.
    Miss,
    /// A container exists but must not be used; the string says why
    /// (corrupt, an unsupported version, or a stale fingerprint).
    Invalid(String),
}

/// One `*.dvpt` file found in a cache directory (see
/// [`TraceCache::entries`]).
#[derive(Debug)]
pub struct CacheEntry {
    /// Absolute path of the container.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// The parsed header, or why parsing failed. A parsed header does not
    /// imply the payload is intact — [`TraceCache::verify_file`] checks
    /// that.
    pub header: Result<Header, TraceIoError>,
}

/// The disk tier: a directory of fingerprint-keyed trace containers.
///
/// This type only does I/O and validation; hit/miss accounting lives in
/// the owning [`TraceStore`](crate::TraceStore)'s [`CacheStats`].
///
/// # Examples
///
/// ```no_run
/// use dvp_experiments::cache::TraceCache;
/// use dvp_experiments::REFERENCE_OPT;
/// use dvp_workloads::{Benchmark, Workload};
///
/// let cache = TraceCache::new("/tmp/dvp-traces");
/// let workload = Workload::reference(Benchmark::M88k);
/// let fp = TraceCache::fingerprint(&workload, REFERENCE_OPT, None);
/// println!("would cache at {}", cache.path_for(&fp).display());
/// ```
#[derive(Debug)]
pub struct TraceCache {
    dir: PathBuf,
    /// Guards the one-time orphaned-`.tmp-*` sweep of the directory.
    swept: std::sync::Once,
}

impl TraceCache {
    /// A cache rooted at `dir`. The directory is created on first use; a
    /// directory that cannot be created surfaces as write warnings, never
    /// as a failed run.
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache { dir: dir.into(), swept: std::sync::Once::new() }
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The fingerprint identifying the trace `workload` produces at `opt`
    /// with `record_cap` — the cache key.
    #[must_use]
    pub fn fingerprint(
        workload: &Workload,
        opt: OptLevel,
        record_cap: Option<usize>,
    ) -> Fingerprint {
        Fingerprint {
            workload: workload.benchmark().name().to_owned(),
            input: workload.input_name().to_owned(),
            opt_level: opt.to_string(),
            seed: workload.seed(),
            scale: workload.scale(),
            record_cap: record_cap.map_or(u64::MAX, |cap| cap as u64),
        }
    }

    /// The container path for `fingerprint`: human-scannable prefix
    /// (workload, input, opt level) plus the full digest, so distinct
    /// configurations never collide.
    #[must_use]
    pub fn path_for(&self, fingerprint: &Fingerprint) -> PathBuf {
        let name = format!(
            "{}-{}-{}-{:016x}.{TRACE_EXTENSION}",
            fingerprint.workload,
            fingerprint.input,
            fingerprint.opt_level,
            fingerprint.digest()
        );
        self.dir.join(name)
    }

    /// Looks `fingerprint` up on disk, decoding a candidate container on
    /// `engine`'s worker pool and validating its checksums and stored
    /// fingerprint. A hit carries the phase plan the container stores, so
    /// a sampled replay of a cached trace needs no profiling pass; a plan
    /// that fails validation or does not cover the trace makes the
    /// container invalid.
    #[must_use]
    pub fn lookup(&self, engine: &ReplayEngine, fingerprint: &Fingerprint) -> CacheLookup {
        self.sweep_orphans();
        let path = self.path_for(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return CacheLookup::Miss,
            Err(err) => {
                return CacheLookup::Invalid(format!("{}: unreadable: {err}", path.display()))
            }
        };
        match engine.load_trace(&bytes) {
            Ok((header, trace)) if header.meta.fingerprint == *fingerprint => {
                match stored_plan(&bytes, trace.len()) {
                    Ok(plan) => CacheLookup::Hit(header.meta, trace, plan),
                    Err(err) => CacheLookup::Invalid(format!("{}: {err}", path.display())),
                }
            }
            Ok((header, _)) => CacheLookup::Invalid(format!(
                "{}: stale fingerprint (file: {:?}, expected: {:?})",
                path.display(),
                header.meta.fingerprint,
                fingerprint
            )),
            Err(err) => CacheLookup::Invalid(format!("{}: {err}", path.display())),
        }
    }

    /// Persists a trace as a compressed container through
    /// [`write_container`] (the trace's PC interner and SimPoint phase
    /// plan ride along as sections, so a warm load assigns dense ids by
    /// parallel read-only lookups and a sampled replay needs no profiling
    /// pass). The file is written through [`durable::replace_file`], so
    /// neither a crashed run nor a machine crash right after the rename
    /// can expose a torn or empty container under the final name, and
    /// concurrent writers of one fingerprint each commit a whole
    /// container.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TraceIoError`] on any I/O or encoding
    /// failure (callers treat this as a warning, not a fatal error).
    pub fn write_through(
        &self,
        meta: &TraceMeta,
        trace: &SharedTrace,
    ) -> Result<PathBuf, TraceIoError> {
        self.write_through_with_plan(meta, trace).map(|(path, _)| path)
    }

    /// As [`TraceCache::write_through`], also returning the phase plan the
    /// container stores, so the caller never profiles the trace again.
    ///
    /// # Errors
    ///
    /// As [`TraceCache::write_through`].
    pub fn write_through_with_plan(
        &self,
        meta: &TraceMeta,
        trace: &SharedTrace,
    ) -> Result<(PathBuf, PhasePlan), TraceIoError> {
        fs::create_dir_all(&self.dir)?;
        self.sweep_orphans();
        let path = self.path_for(&meta.fingerprint);
        let (_, plan) =
            durable::replace_file(&path, |writer| write_container(writer, meta, trace))?;
        Ok((path, plan))
    }

    /// Sweeps the temporary files of dead writers from the directory
    /// ([`durable::sweep_orphans`]), once per cache instance.
    fn sweep_orphans(&self) {
        self.swept.call_once(|| durable::sweep_orphans(&self.dir, durable::SWEEP_MIN_AGE));
    }

    /// All `*.dvpt` containers in the cache directory, sorted by file
    /// name, each with its parsed (but not payload-verified) header. A
    /// missing directory is an empty cache.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing failures other than a missing
    /// directory.
    pub fn entries(&self) -> io::Result<Vec<CacheEntry>> {
        let dir = match fs::read_dir(&self.dir) {
            Ok(dir) => dir,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(err) => return Err(err),
        };
        let mut entries = Vec::new();
        for entry in dir {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(TRACE_EXTENSION) {
                continue;
            }
            let bytes = entry.metadata()?.len();
            let header = fs::File::open(&path)
                .map_err(TraceIoError::from)
                .and_then(|file| v2::read_header(&mut io::BufReader::new(file)));
            entries.push(CacheEntry { path, bytes, header });
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Fully verifies one container: version and header, every chunk
    /// checksum, every record decodes, every trailing section frame.
    /// Decoding fans out on `engine`.
    ///
    /// # Errors
    ///
    /// Returns the first [`TraceIoError`] the container violates.
    pub fn verify_file(engine: &ReplayEngine, path: &Path) -> Result<Header, TraceIoError> {
        let bytes = fs::read(path)?;
        engine.load_trace(&bytes).map(|(header, _)| header)
    }

    /// Reads the phase plan stored in a container's
    /// [`v2::SECTION_PHASES`] section without materializing the record
    /// payload: the payload bytes stream past unparsed, only the header
    /// and the trailing section frames are validated. `Ok(None)` means
    /// the container is intact but carries no plan (e.g. it was written
    /// before phase sampling existed).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceIoError`] if the file cannot be read, the header
    /// or any trailing section frame fails validation, or the plan body
    /// decodes to an inconsistent plan.
    pub fn read_phase_plan(path: &Path) -> Result<Option<PhasePlan>, TraceIoError> {
        let mut reader = io::BufReader::new(fs::File::open(path)?);
        let header = v2::read_header(&mut reader)?;
        let payload_bytes: u64 = header.chunks.iter().map(|c| u64::from(c.len)).sum();
        let copied = io::copy(&mut io::Read::take(&mut reader, payload_bytes), &mut io::sink())?;
        if copied != payload_bytes {
            return Err(TraceIoError::Format {
                message: format!("payload truncated: {copied} of {payload_bytes} bytes present"),
            });
        }
        let mut rest = Vec::new();
        io::Read::read_to_end(&mut reader, &mut rest)?;
        let sections = v2::validate_trailing(&rest)?;
        sections
            .iter()
            .find(|section| section.magic == v2::SECTION_PHASES)
            .map(|section| v2::decode_phases(section.body))
            .transpose()
    }
}

/// Writes `trace` as a compressed container with its PC interner and its
/// default SimPoint phase plan as sections — the one trace writer, behind
/// [`TraceCache::write_through`] and `repro trace gen` — and returns the
/// header and the plan.
///
/// The write runs on two cores. A scoped encoder thread streams each
/// compressed payload to `writer` as soon as it is made
/// ([`v2::write_payloads`]) while the calling thread profiles the trace;
/// after joining the encoder, the calling thread appends the `PCIN` and
/// `PHAS` sections and seeks back to write the header
/// ([`v2::PendingHeader::finish`]). The bytes equal those of a one-thread
/// [`v2::write_compressed`] with the same sections. The plan stays on the
/// calling thread on purpose: the profiling columns (about 12 bytes per
/// record) would otherwise land in a second malloc arena that later work
/// on this thread never reuses, and peak memory would grow by them.
///
/// # Errors
///
/// The first I/O or encoding failure. A failed payload write surfaces
/// after the plan finishes (the encoder is joined either way).
pub fn write_container<W: Write + Seek + Send>(
    writer: &mut W,
    meta: &TraceMeta,
    trace: &SharedTrace,
) -> Result<(Header, PhasePlan), TraceIoError> {
    let (pending, plan) = std::thread::scope(|scope| {
        let chunks = trace.chunks().iter().map(Vec::as_slice);
        let encoder = scope.spawn(|| v2::write_payloads(&mut *writer, meta, chunks, true));
        let plan = dvp_engine::phase_plan(trace, &dvp_engine::PhaseOptions::default());
        (encoder.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)), plan)
    });
    let sections = [
        (v2::SECTION_INTERNER, v2::encode_interner(trace.interner())),
        (v2::SECTION_PHASES, v2::encode_phases(&plan)),
    ];
    let header = pending?.finish(writer, &sections)?;
    Ok((header, plan))
}

/// The phase plan in a validated container's sections, if it has one,
/// checked to cover all `records` records of its trace.
fn stored_plan(bytes: &[u8], records: usize) -> Result<Option<PhasePlan>, TraceIoError> {
    let (_, _, sections) = v2::split_with_sections(bytes)?;
    let Some(section) = sections.iter().find(|section| section.magic == v2::SECTION_PHASES) else {
        return Ok(None);
    };
    let plan = v2::decode_phases(section.body)?;
    if plan.total_records != records as u64 {
        return Err(TraceIoError::Format {
            message: format!(
                "phase section covers {} records, the trace holds {records}",
                plan.total_records
            ),
        });
    }
    Ok(Some(plan))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::REFERENCE_OPT;
    use dvp_trace::{InstrCategory, Pc, TraceRecord};
    use dvp_workloads::Benchmark;

    /// A unique, self-cleaning temp dir under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("dvp-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_trace(n: u64) -> SharedTrace {
        (0..n)
            .map(|i| TraceRecord::new(Pc(0x400 + 4 * (i % 31)), InstrCategory::AddSub, i % 17))
            .collect()
    }

    fn sample_meta() -> TraceMeta {
        let workload = Workload::reference(Benchmark::M88k);
        TraceMeta {
            fingerprint: TraceCache::fingerprint(&workload, REFERENCE_OPT, Some(4096)),
            retired: 99,
            predicted: 77,
        }
    }

    #[test]
    fn lookup_misses_then_hits_after_write_through() {
        let tmp = TempDir::new("roundtrip");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        assert!(matches!(cache.lookup(&engine, &meta.fingerprint), CacheLookup::Miss));

        let trace = sample_trace(5000);
        let path = cache.write_through(&meta, &trace).expect("writes");
        assert!(path.exists());
        match cache.lookup(&engine, &meta.fingerprint) {
            CacheLookup::Hit(got_meta, got_trace, _) => {
                assert_eq!(got_meta, meta);
                assert_eq!(got_trace.to_vec(), trace.to_vec());
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(TraceCache::verify_file(&engine, &path).is_ok());
    }

    #[test]
    fn stale_fingerprint_is_invalid_not_hit() {
        let tmp = TempDir::new("stale");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        cache.write_through(&meta, &sample_trace(100)).expect("writes");
        // Same path, different expectation: simulate a config change by
        // renaming the file onto another fingerprint's path.
        let mut expected = meta.fingerprint.clone();
        expected.scale += 1;
        fs::rename(cache.path_for(&meta.fingerprint), cache.path_for(&expected)).unwrap();
        match cache.lookup(&engine, &expected) {
            CacheLookup::Invalid(why) => assert!(why.contains("stale fingerprint"), "{why}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_container_is_invalid_and_fails_verify() {
        let tmp = TempDir::new("corrupt");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        let path = cache.write_through(&meta, &sample_trace(2000)).expect("writes");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(cache.lookup(&engine, &meta.fingerprint), CacheLookup::Invalid(_)));
        assert!(TraceCache::verify_file(&engine, &path).is_err());
    }

    #[test]
    fn entries_lists_containers_and_flags_unparsable_ones() {
        let tmp = TempDir::new("entries");
        let cache = TraceCache::new(&tmp.0);
        assert!(cache.entries().expect("missing dir is empty").is_empty());

        let meta = sample_meta();
        cache.write_through(&meta, &sample_trace(300)).expect("writes");
        fs::write(tmp.0.join("garbage.dvpt"), b"not a container").unwrap();
        fs::write(tmp.0.join("ignored.txt"), b"other file").unwrap();

        let entries = cache.entries().expect("lists");
        assert_eq!(entries.len(), 2);
        let parsed: Vec<bool> = entries.iter().map(|e| e.header.is_ok()).collect();
        assert_eq!(parsed.iter().filter(|ok| **ok).count(), 1);
        let good = entries.iter().find(|e| e.header.is_ok()).unwrap();
        assert_eq!(good.header.as_ref().unwrap().record_count, 300);
        assert_eq!(good.bytes, fs::metadata(&good.path).unwrap().len());
    }

    #[test]
    fn writes_are_compressed_version_4_containers() {
        let tmp = TempDir::new("versions");
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        let trace = sample_trace(4000);
        let cache = TraceCache::new(&tmp.0);
        let path = cache.write_through(&meta, &trace).expect("writes");
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes[4], v2::VERSION);
        assert!((bytes.len() as u64) < 17 * 4000, "far smaller than the flat encoding");
        match cache.lookup(&engine, &meta.fingerprint) {
            CacheLookup::Hit(_, got, _) => assert_eq!(got.to_vec(), trace.to_vec()),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_write_throughs_of_one_fingerprint_all_commit() {
        // Serve's job workers share one trace directory: two jobs on one
        // workload write the same fingerprint at once. Each write must
        // own its temporary file, or one truncates the other's and a
        // rename fails.
        let tmp = TempDir::new("concurrent");
        let cache = TraceCache::new(&tmp.0);
        let meta = sample_meta();
        let trace = sample_trace(20_000);
        for writers in [2, 8] {
            let start = std::sync::Barrier::new(writers);
            let results: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..writers)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            cache.write_through(&meta, &trace)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            for result in results {
                result.expect("every concurrent write-through commits");
            }
            match cache.lookup(&ReplayEngine::sequential(), &meta.fingerprint) {
                CacheLookup::Hit(_, got, _) => assert_eq!(got.to_vec(), trace.to_vec()),
                other => panic!("expected hit after {writers} writers, got {other:?}"),
            }
            let names: Vec<String> = fs::read_dir(&tmp.0)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            assert!(names.iter().all(|n| !n.contains(".tmp-")), "temporary files left: {names:?}");
        }
    }

    #[test]
    fn first_use_sweeps_orphans_once_per_instance() {
        let tmp = TempDir::new("sweep");
        fs::create_dir_all(&tmp.0).unwrap();
        // Pid 4_000_000_000 is far above any real pid_max: a dead writer,
        // and two hours is past the sweep's age gate.
        let dead = tmp.0.join(format!("stale.{TRACE_EXTENSION}.tmp-4000000000-0"));
        let plant = || {
            fs::write(&dead, b"partial").unwrap();
            let two_hours_ago =
                std::time::SystemTime::now() - std::time::Duration::from_secs(2 * 3600);
            fs::File::options()
                .write(true)
                .open(&dead)
                .unwrap()
                .set_modified(two_hours_ago)
                .unwrap();
        };
        plant();
        let cache = TraceCache::new(&tmp.0);
        let _ = cache.lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(!dead.exists(), "a dead writer's old temporary file is swept on first use");
        // A re-planted orphan survives lookups on the same instance…
        plant();
        let _ = cache.lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(dead.exists());
        // …and is collected by the next instance's first use.
        let _ =
            TraceCache::new(&tmp.0).lookup(&ReplayEngine::sequential(), &sample_meta().fingerprint);
        assert!(!dead.exists());
    }

    #[test]
    fn write_through_embeds_the_recomputed_phase_plan() {
        let tmp = TempDir::new("phases");
        let meta = sample_meta();
        let trace = sample_trace(6000);
        let expected = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
        let path = TraceCache::new(&tmp.0).write_through(&meta, &trace).expect("writes");
        let stored = TraceCache::read_phase_plan(&path)
            .expect("section frames validate")
            .expect("plan section present");
        assert_eq!(stored, expected);
    }

    #[test]
    fn two_core_write_equals_the_one_thread_write() {
        let meta = sample_meta();
        for n in [0, 1, 5000] {
            let trace = sample_trace(n);
            let plan = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
            let sections = [
                (v2::SECTION_INTERNER, v2::encode_interner(trace.interner())),
                (v2::SECTION_PHASES, v2::encode_phases(&plan)),
            ];
            let mut expected = Vec::new();
            let chunks = trace.chunks().iter().map(Vec::as_slice);
            let expected_header =
                v2::write_compressed(&mut expected, &meta, chunks, &sections).expect("writes");
            let mut cursor = io::Cursor::new(Vec::new());
            let (header, got_plan) = write_container(&mut cursor, &meta, &trace).expect("writes");
            assert_eq!(cursor.into_inner(), expected, "{n} records");
            assert_eq!((header, got_plan), (expected_header, plan));
        }
    }

    #[test]
    fn empty_and_one_record_traces_round_trip_with_their_plans() {
        let tmp = TempDir::new("tiny");
        let cache = TraceCache::new(&tmp.0);
        let engine = ReplayEngine::new();
        let meta = sample_meta();
        for n in [0, 1] {
            let trace = sample_trace(n);
            let path = cache.write_through(&meta, &trace).expect("writes");
            let plan = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
            assert_eq!(plan.total_records, n);
            assert_eq!(TraceCache::read_phase_plan(&path).expect("reads"), Some(plan.clone()));
            match cache.lookup(&engine, &meta.fingerprint) {
                CacheLookup::Hit(got_meta, got, stored) => {
                    assert_eq!(got_meta, meta);
                    assert_eq!(got.to_vec(), trace.to_vec(), "{n} records");
                    assert_eq!(stored, Some(plan));
                }
                other => panic!("expected a hit for {n} records, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_phase_section_that_misses_the_trace_is_invalid() {
        let tmp = TempDir::new("plan-mismatch");
        fs::create_dir_all(&tmp.0).unwrap();
        let cache = TraceCache::new(&tmp.0);
        let meta = sample_meta();
        let trace = sample_trace(500);
        // A valid plan, but of a shorter trace.
        let plan = dvp_engine::phase_plan(&sample_trace(400), &dvp_engine::PhaseOptions::default());
        let sections = [(v2::SECTION_PHASES, v2::encode_phases(&plan))];
        let mut bytes = Vec::new();
        let chunks = trace.chunks().iter().map(Vec::as_slice);
        v2::write_compressed(&mut bytes, &meta, chunks, &sections).unwrap();
        fs::write(cache.path_for(&meta.fingerprint), bytes).unwrap();
        match cache.lookup(&ReplayEngine::sequential(), &meta.fingerprint) {
            CacheLookup::Invalid(why) => assert!(why.contains("covers 400 records"), "{why}"),
            other => panic!("expected invalid, got {other:?}"),
        }
    }

    #[test]
    fn containers_without_a_phase_section_read_as_none() {
        let tmp = TempDir::new("no-phases");
        fs::create_dir_all(&tmp.0).unwrap();
        let trace = sample_trace(500);
        let path = tmp.0.join(format!("legacy.{TRACE_EXTENSION}"));
        let mut writer = io::BufWriter::new(fs::File::create(&path).unwrap());
        let chunks = trace.chunks().iter().map(Vec::as_slice);
        v2::write_with_sections(&mut writer, &sample_meta(), chunks, &[]).unwrap();
        io::Write::flush(&mut writer).unwrap();
        drop(writer);
        assert_eq!(TraceCache::read_phase_plan(&path).expect("valid container"), None);
    }

    #[test]
    fn distinct_configs_get_distinct_paths() {
        let cache = TraceCache::new("/nowhere");
        let w = Workload::reference(Benchmark::Cc);
        let a = TraceCache::fingerprint(&w, OptLevel::O0, None);
        let b = TraceCache::fingerprint(&w, OptLevel::O2, None);
        let c = TraceCache::fingerprint(&w.clone().with_scale(1), OptLevel::O0, None);
        let d = TraceCache::fingerprint(&w, OptLevel::O0, Some(10));
        let paths = [&a, &b, &c, &d].map(|fp| cache.path_for(fp));
        for (i, p) in paths.iter().enumerate() {
            for q in &paths[i + 1..] {
                assert_ne!(p, q);
            }
        }
    }
}
