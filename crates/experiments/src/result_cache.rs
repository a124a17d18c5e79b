//! The fingerprint-keyed result cache behind `repro serve`.
//!
//! A replay job is deterministic: the same (workload or scenario) ×
//! predictor bank × parameters always renders the same payload, byte for
//! byte. That makes finished cells perfect memoization targets for a
//! long-lived daemon: the first client pays for the replay, every later
//! identical job is answered from cache — and the answer must be
//! **byte-identical** to the cold one, or the cache is corrupting results.
//!
//! [`ResultCache`] is a two-tier store:
//!
//! * an in-memory LRU of at most `capacity` entries (recency updated on
//!   every hit, least-recently-used evicted first), and
//! * an optional on-disk tier ([`ResultCache::with_dir`]) of one
//!   checksummed entry file per key, written through the same durability
//!   path as the trace cache ([`durable::replace_file`]): a `kill -9`
//!   mid-write can never leave a torn entry under the final name, and
//!   orphaned temporary files of dead writers are swept on first use.
//!
//! Like the trace cache, the disk tier is **safe by construction**: every
//! read re-validates the entry byte for byte (magic, version, lengths,
//! checksum, exact file size, stored key, stored engine epoch) and any
//! violation is rejected, counted in [`ResultCacheStats::invalid`], and
//! treated as a miss — a corrupt *or stale* entry is recomputed, never
//! served. The on-disk entry layout is specified byte-level in
//! `docs/RESULT_FORMAT.md`; [`encode_entry`] / [`decode_entry`] are the
//! reference codec and are public so the corruption test suite can attack
//! the format directly.
//!
//! # Versioning: the engine epoch
//!
//! A payload is only as durable as the semantics that rendered it. Every
//! entry therefore stamps the **engine epoch**
//! ([`dvp_engine::engine_epoch`]) — a fingerprint of the
//! predictor-semantics surface — into its header, and [`decode_entry`]
//! rejects entries whose epoch differs from the reader's. An entry of any
//! other format version is rejected the same way: recomputing a result is
//! cheap, serving a stale one is a correctness bug. [`scan_entries`] and
//! [`purge_stale`] are the header-level maintenance surface behind `repro
//! cache stats` / `repro cache purge --stale`.

use crate::durable;
use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// File extension of persisted result entries.
pub const RESULT_EXTENSION: &str = "dvpr";

/// Magic bytes opening every result entry file.
pub const RESULT_MAGIC: [u8; 4] = *b"DVPR";

/// The one entry format version this build reads and writes; entries of
/// any other version are rejected and recomputed.
pub const RESULT_VERSION: u8 = 2;

/// FNV-1a 64 of one byte slice — the entry checksum function (same
/// algorithm as the trace container's, `docs/TRACE_FORMAT.md`).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Byte length of the fixed header: magic (4) + version (1) + engine
/// epoch (8) + key length (4) + payload length (4).
const HEAD: usize = 4 + 1 + 8 + 4 + 4;

/// Encodes one result-cache entry: `"DVPR"` + version + engine epoch
/// (u64 LE) + key length (u32 LE) + payload length (u32 LE) + key +
/// payload + FNV-1a 64 (u64 LE) over everything before the checksum. See
/// `docs/RESULT_FORMAT.md`.
#[must_use]
pub fn encode_entry(key: &str, payload: &str, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEAD + key.len() + payload.len() + 8);
    out.extend_from_slice(&RESULT_MAGIC);
    out.push(RESULT_VERSION);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(key.len() as u32).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(key.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes and validates one entry read under `key` at engine epoch
/// `epoch`, returning the payload. Every framing invariant is checked —
/// magic, version, declared lengths vs the exact file size (trailing bytes
/// are an error), the checksum over everything before it (see
/// [`read_entry_header`]), then the stored engine epoch vs the reader's,
/// UTF-8 of the payload, and that the stored key equals the expected one
/// (a mis-filed entry must never be served for the wrong job).
///
/// # Errors
///
/// A human-readable description of the first violated invariant, naming
/// the byte offset and the expected-vs-found values.
pub fn decode_entry(key: &str, epoch: u64, bytes: &[u8]) -> Result<String, String> {
    let header = read_entry_header(bytes)?;
    // Epoch staleness is checked after the checksum so a corrupted epoch
    // field reports as corruption, and only an intact entry from a
    // different build reports as stale.
    if header.epoch != epoch {
        return Err(format!(
            "stale engine epoch at offset 5: entry {:016x}, current {epoch:016x}",
            header.epoch
        ));
    }
    if header.key != key {
        return Err(format!(
            "key mismatch at offset {HEAD}: entry holds `{}`, expected `{key}`",
            header.key
        ));
    }
    let start = HEAD + key.len();
    let payload = std::str::from_utf8(&bytes[start..start + header.payload_len as usize])
        .map_err(|err| format!("payload at offset {start} is not UTF-8: {err}"))?;
    Ok(payload.to_owned())
}

/// The validated header of one on-disk entry — the key-independent view
/// `repro cache` maintenance works from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryHeader {
    /// The engine epoch stamped into the entry.
    pub epoch: u64,
    /// The canonical job key the entry was written under.
    pub key: String,
    /// Declared payload length in bytes.
    pub payload_len: u32,
}

impl EntryHeader {
    /// Whether the entry may be served at `current` epoch.
    #[must_use]
    pub fn is_current(&self, current: u64) -> bool {
        self.epoch == current
    }
}

/// Parses and integrity-checks one entry without knowing its key or the
/// current epoch: magic, version, declared lengths vs the exact file size,
/// checksum and UTF-8 of the key are validated, and the stored identity is
/// returned for the caller to judge (staleness is a policy, corruption a
/// fact).
///
/// # Errors
///
/// A human-readable description of the first violated invariant, naming
/// the byte offset and the expected-vs-found values.
pub fn read_entry_header(bytes: &[u8]) -> Result<EntryHeader, String> {
    if bytes.len() < HEAD + 8 {
        return Err(format!(
            "entry too short: {} bytes on disk, at least {} required",
            bytes.len(),
            HEAD + 8
        ));
    }
    if bytes[..4] != RESULT_MAGIC {
        return Err(format!(
            "bad magic at offset 0: expected {RESULT_MAGIC:02x?}, found {:02x?}",
            &bytes[..4]
        ));
    }
    if bytes[4] != RESULT_VERSION {
        return Err(format!(
            "unsupported version at offset 4: expected {RESULT_VERSION}, found {}",
            bytes[4]
        ));
    }
    let epoch = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes")) as usize;
    let payload_len = u32::from_le_bytes(bytes[17..21].try_into().expect("4 bytes"));
    let body_end = HEAD + key_len + payload_len as usize;
    if bytes.len() != body_end + 8 {
        return Err(format!(
            "length mismatch: {} bytes on disk, {} declared \
             (key_len {key_len} at offset 13, payload_len {payload_len} at offset 17)",
            bytes.len(),
            body_end + 8
        ));
    }
    let stored_sum = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    let actual_sum = fnv1a64(&bytes[..body_end]);
    if stored_sum != actual_sum {
        return Err(format!(
            "checksum mismatch at offset {body_end}: stored {stored_sum:016x}, \
             actual {actual_sum:016x}"
        ));
    }
    let key = std::str::from_utf8(&bytes[HEAD..HEAD + key_len])
        .map_err(|err| format!("key at offset {HEAD} is not UTF-8: {err}"))?
        .to_owned();
    Ok(EntryHeader { epoch, key, payload_len })
}

/// One on-disk `.dvpr` file as seen by maintenance: its path, size, and
/// header verdict.
#[derive(Debug)]
pub struct EntryInfo {
    /// The entry file.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// The parsed header, or why parsing/validation failed.
    pub header: Result<EntryHeader, String>,
}

/// Lists every `.dvpr` entry under `dir` (sorted by file name for
/// deterministic output) with its header verdict. Temp files and foreign
/// files are ignored.
///
/// # Errors
///
/// Any I/O error listing the directory (a missing directory is an error;
/// an unreadable *entry* is reported in its [`EntryInfo::header`]).
pub fn scan_entries(dir: &Path) -> io::Result<Vec<EntryInfo>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some(RESULT_EXTENSION) {
            continue;
        }
        let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
        let header = match fs::read(&path) {
            Ok(raw) => read_entry_header(&raw),
            Err(err) => Err(format!("unreadable: {err}")),
        };
        out.push(EntryInfo { path, bytes, header });
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(out)
}

/// What [`purge_stale`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PurgeReport {
    /// Entries removed: stale-epoch, other-version, or invalid.
    pub removed: usize,
    /// Entries kept: valid v2 entries at the current epoch.
    pub kept: usize,
}

/// Removes every entry under `dir` that [`decode_entry`] would refuse to
/// serve at `current` epoch — stale-epoch entries, entries of another
/// format version, and corrupt files — keeping only current, intact
/// entries.
///
/// # Errors
///
/// Any I/O error listing the directory or removing a file.
pub fn purge_stale(dir: &Path, current: u64) -> io::Result<PurgeReport> {
    let mut report = PurgeReport::default();
    for info in scan_entries(dir)? {
        if info.header.as_ref().is_ok_and(|h| h.is_current(current)) {
            report.kept += 1;
        } else {
            fs::remove_file(&info.path)?;
            report.removed += 1;
        }
    }
    Ok(report)
}

/// Counters describing what a [`ResultCache`] did. `repro serve` prints
/// them on shutdown; a warm identical job shows up as a result hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultCacheStats {
    /// Jobs answered from the in-memory tier.
    pub hits: u64,
    /// Jobs found in neither tier (and therefore computed).
    pub misses: u64,
    /// Jobs answered from a valid on-disk entry (counted separately from
    /// `hits`; a disk hit also repopulates the memory tier).
    pub disk_hits: u64,
    /// Entries written through to disk.
    pub written: u64,
    /// In-memory entries evicted by the LRU policy.
    pub evictions: u64,
    /// On-disk candidates rejected (corrupt, truncated, mis-keyed) and
    /// recomputed.
    pub invalid: u64,
}

impl fmt::Display for ResultCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} result hits, {} misses, {} disk hits, {} written, {} evicted, {} invalid",
            self.hits, self.misses, self.disk_hits, self.written, self.evictions, self.invalid
        )
    }
}

/// A two-tier (in-memory LRU + optional on-disk) cache of rendered job
/// payloads, keyed by the job's canonical fingerprint string (see the
/// [module docs](self)).
///
/// # Examples
///
/// ```
/// use dvp_experiments::result_cache::ResultCache;
///
/// let mut cache = ResultCache::new(2);
/// assert_eq!(cache.get("job-a"), None);
/// cache.insert("job-a", "payload-a");
/// assert_eq!(cache.get("job-a").as_deref(), Some("payload-a"));
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache {
    /// Most-recently-used first. Linear scans are fine: the memory tier
    /// is small by design (tens of entries), and payloads dominate.
    entries: VecDeque<(String, String)>,
    capacity: usize,
    dir: Option<PathBuf>,
    /// The engine epoch stamped into every written entry and required of
    /// every read one.
    epoch: u64,
    stats: ResultCacheStats,
    /// Guards the one-time orphaned-`.tmp-*` sweep of the directory.
    swept: std::sync::Once,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` entries, at the
    /// process-wide engine epoch ([`dvp_engine::engine_epoch`]). Capacity
    /// 0 disables the memory tier (every insert is immediately dropped).
    #[must_use]
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            entries: VecDeque::new(),
            capacity,
            dir: None,
            epoch: dvp_engine::engine_epoch(),
            stats: ResultCacheStats::default(),
            swept: std::sync::Once::new(),
        }
    }

    /// Adds the on-disk tier rooted at `dir` (created on first write).
    /// Disk failures never fail a job — they are reported to stderr,
    /// counted, and treated as misses.
    #[must_use]
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> ResultCache {
        self.dir = Some(dir.into());
        self
    }

    /// Overrides the engine epoch this cache writes and accepts —
    /// primarily for tests simulating a restart on a different binary.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> ResultCache {
        self.epoch = epoch;
        self
    }

    /// The engine epoch this cache writes and accepts.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The on-disk entry path for `key`: the key's FNV-1a 64 digest as
    /// the file name (keys hold `|`-separated spec fields, not
    /// path-safe characters).
    #[must_use]
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("{:016x}.{RESULT_EXTENSION}", fnv1a64(key.as_bytes()))))
    }

    /// Counters so far.
    #[must_use]
    pub fn stats(&self) -> ResultCacheStats {
        self.stats
    }

    /// Entries currently resident in the memory tier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks `key` up: memory first (refreshing its recency), then disk
    /// (a valid entry repopulates the memory tier). `None` is a miss —
    /// including the case of an on-disk entry that fails validation,
    /// which is reported and counted in
    /// [`ResultCacheStats::invalid`] so the caller recomputes it.
    pub fn get(&mut self, key: &str) -> Option<String> {
        if let Some(pos) = self.entries.iter().position(|(k, _)| k == key) {
            let entry = self.entries.remove(pos).expect("position just found");
            let payload = entry.1.clone();
            self.entries.push_front(entry);
            self.stats.hits += 1;
            return Some(payload);
        }
        if let Some(payload) = self.disk_get(key) {
            self.stats.disk_hits += 1;
            self.remember(key, &payload);
            return Some(payload);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a computed payload in both tiers: front of the memory LRU
    /// (evicting from the back while over capacity) and, when a directory
    /// is configured, written through to disk atomically
    /// ([`durable::replace_file`]).
    pub fn insert(&mut self, key: &str, payload: &str) {
        self.remember(key, payload);
        if let Err(err) = self.disk_put(key, payload) {
            eprintln!("[result-cache] write failed for `{key}`: {err}");
        }
    }

    fn remember(&mut self, key: &str, payload: &str) {
        self.entries.retain(|(k, _)| k != key);
        self.entries.push_front((key.to_owned(), payload.to_owned()));
        while self.entries.len() > self.capacity {
            self.entries.pop_back();
            self.stats.evictions += 1;
        }
    }

    fn disk_get(&mut self, key: &str) -> Option<String> {
        let path = self.path_for(key)?;
        self.sweep_orphans();
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == io::ErrorKind::NotFound => return None,
            Err(err) => {
                self.stats.invalid += 1;
                eprintln!(
                    "[result-cache] rejected {}: unreadable: {err}; recomputing",
                    path.display()
                );
                return None;
            }
        };
        match decode_entry(key, self.epoch, &bytes) {
            Ok(payload) => Some(payload),
            Err(why) => {
                self.stats.invalid += 1;
                eprintln!("[result-cache] rejected {}: {why}; recomputing", path.display());
                None
            }
        }
    }

    fn disk_put(&mut self, key: &str, payload: &str) -> io::Result<()> {
        let (Some(dir), Some(path)) = (self.dir.as_deref(), self.path_for(key)) else {
            return Ok(());
        };
        fs::create_dir_all(dir)?;
        self.sweep_orphans();
        let entry = encode_entry(key, payload, self.epoch);
        durable::replace_file(&path, |writer| writer.write_all(&entry))?;
        self.stats.written += 1;
        Ok(())
    }

    /// Sweeps the temporary files of dead writers from the directory
    /// ([`durable::sweep_orphans`]), once per cache instance.
    fn sweep_orphans(&self) {
        let Some(dir) = self.dir.as_deref() else { return };
        self.swept.call_once(|| durable::sweep_orphans(dir, durable::SWEEP_MIN_AGE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique, self-cleaning temp dir under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir = std::env::temp_dir()
                .join(format!("dvp-result-cache-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (key, payload) in
            [("k", "v"), ("", ""), ("job a|b|c", "line one\nline two\n"), ("π", "τ✓")]
        {
            let bytes = encode_entry(key, payload, 7);
            assert_eq!(decode_entry(key, 7, &bytes).as_deref(), Ok(payload), "key `{key}`");
        }
    }

    #[test]
    fn decode_rejects_wrong_key_magic_version_and_length() {
        let bytes = encode_entry("right-key", "payload", 7);
        assert_eq!(
            decode_entry("wrong-key", 7, &bytes).unwrap_err(),
            "key mismatch at offset 21: entry holds `right-key`, expected `wrong-key`"
        );

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_entry("right-key", 7, &bad).unwrap_err(),
            "bad magic at offset 0: expected [44, 56, 50, 52], found [58, 56, 50, 52]"
        );

        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            decode_entry("right-key", 7, &bad).unwrap_err(),
            "unsupported version at offset 4: expected 2, found 9"
        );

        let mut long = bytes.clone();
        long.push(0);
        let err = decode_entry("right-key", 7, &long).unwrap_err();
        assert!(err.contains("length mismatch"), "{err}");
        assert!(err.contains("key_len 9 at offset 13"), "{err}");
        assert!(err.contains("payload_len 7 at offset 17"), "{err}");
        assert!(decode_entry("right-key", 7, &bytes[..bytes.len() - 1])
            .unwrap_err()
            .contains("length mismatch"));
        assert_eq!(
            decode_entry("right-key", 7, b"DV").unwrap_err(),
            "entry too short: 2 bytes on disk, at least 29 required"
        );
    }

    #[test]
    fn decode_rejects_stale_epochs() {
        // An intact entry from a different build: stale, with both epochs
        // named so the operator can see which build wrote it.
        let bytes = encode_entry("k", "payload", 0xAAAA);
        assert_eq!(
            decode_entry("k", 0xBBBB, &bytes).unwrap_err(),
            "stale engine epoch at offset 5: entry 000000000000aaaa, current 000000000000bbbb"
        );
    }

    #[test]
    fn headers_parse_and_judge_currency() {
        let header = read_entry_header(&encode_entry("job|x", "body", 42)).unwrap();
        assert_eq!(header, EntryHeader { epoch: 42, key: "job|x".into(), payload_len: 4 });
        assert!(header.is_current(42));
        assert!(!header.is_current(43));

        let mut other_version = encode_entry("job|x", "body", 42);
        other_version[4] = 1;
        assert!(read_entry_header(&other_version).unwrap_err().contains("unsupported version"));

        let mut corrupt = encode_entry("job|x", "body", 42);
        let last = corrupt.len() - 1;
        corrupt[last] ^= 1;
        assert!(read_entry_header(&corrupt).unwrap_err().contains("checksum mismatch"));
    }

    #[test]
    fn scan_and_purge_keep_only_current_entries() {
        let tmp = TempDir::new("purge");
        fs::create_dir_all(&tmp.0).unwrap();
        fs::write(tmp.0.join("current.dvpr"), encode_entry("a", "A", 7)).unwrap();
        fs::write(tmp.0.join("stale.dvpr"), encode_entry("b", "B", 6)).unwrap();
        let mut legacy = encode_entry("c", "C", 7);
        legacy[4] = 1;
        fs::write(tmp.0.join("legacy.dvpr"), legacy).unwrap();
        fs::write(tmp.0.join("torn.dvpr"), b"DVPR").unwrap();
        fs::write(tmp.0.join("ignored.txt"), b"not an entry").unwrap();
        fs::write(tmp.0.join("inflight.dvpr.tmp-1-0"), b"partial").unwrap();

        let infos = scan_entries(&tmp.0).unwrap();
        let names: Vec<_> =
            infos.iter().map(|i| i.path.file_name().unwrap().to_str().unwrap()).collect();
        assert_eq!(names, ["current.dvpr", "legacy.dvpr", "stale.dvpr", "torn.dvpr"]);
        let current: Vec<bool> =
            infos.iter().map(|i| i.header.as_ref().is_ok_and(|h| h.is_current(7))).collect();
        assert_eq!(current, [true, false, false, false]);

        let report = purge_stale(&tmp.0, 7).unwrap();
        assert_eq!(report, PurgeReport { removed: 3, kept: 1 });
        assert!(tmp.0.join("current.dvpr").exists());
        assert!(!tmp.0.join("stale.dvpr").exists());
        assert!(!tmp.0.join("legacy.dvpr").exists());
        assert!(!tmp.0.join("torn.dvpr").exists());
        assert!(tmp.0.join("ignored.txt").exists(), "foreign files are untouched");
        assert!(tmp.0.join("inflight.dvpr.tmp-1-0").exists(), "temp files are the sweep's job");
    }

    #[test]
    fn memory_tier_hits_and_misses_are_counted() {
        let mut cache = ResultCache::new(4);
        assert_eq!(cache.get("a"), None);
        cache.insert("a", "A");
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        assert_eq!(cache.get("b"), None);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.written), (1, 2, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used_and_get_refreshes_recency() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "A");
        cache.insert("b", "B");
        // Touch `a` so `b` is now least recently used.
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        cache.insert("c", "C");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get("b"), None, "LRU entry `b` was evicted");
        assert_eq!(cache.get("a").as_deref(), Some("A"));
        assert_eq!(cache.get("c").as_deref(), Some("C"));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinserting_a_key_replaces_without_growing() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "old");
        cache.insert("a", "new");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("a").as_deref(), Some("new"));
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn capacity_zero_disables_the_memory_tier() {
        let mut cache = ResultCache::new(0);
        cache.insert("a", "A");
        assert!(cache.is_empty());
        assert_eq!(cache.get("a"), None);
    }

    #[test]
    fn disk_tier_survives_a_fresh_instance() {
        let tmp = TempDir::new("disk-roundtrip");
        let mut cold = ResultCache::new(4).with_dir(&tmp.0);
        cold.insert("job|x", "result body\n");
        assert_eq!(cold.stats().written, 1);

        // A fresh instance (new process, after a crash, …) misses memory
        // but hits disk — and repopulates its memory tier.
        let mut warm = ResultCache::new(4).with_dir(&tmp.0);
        assert_eq!(warm.get("job|x").as_deref(), Some("result body\n"));
        assert_eq!(warm.stats().disk_hits, 1);
        assert_eq!(warm.get("job|x").as_deref(), Some("result body\n"));
        assert_eq!(warm.stats().hits, 1);
    }

    #[test]
    fn corrupt_disk_entry_is_rejected_and_recomputable() {
        let tmp = TempDir::new("corrupt");
        let mut cache = ResultCache::new(0).with_dir(&tmp.0);
        cache.insert("job|x", "good payload");
        let path = cache.path_for("job|x").expect("disk tier configured");
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut fresh = ResultCache::new(0).with_dir(&tmp.0);
        assert_eq!(fresh.get("job|x"), None, "corrupt entry must read as a miss");
        assert_eq!(fresh.stats().invalid, 1);
        // Recompute-and-overwrite heals the entry.
        fresh.insert("job|x", "good payload");
        assert_eq!(fresh.get("job|x").as_deref(), Some("good payload"));
    }

    #[test]
    fn hash_collision_with_a_different_key_is_rejected() {
        // Two keys can map to the same file only via an FNV collision; a
        // mis-filed entry simulates that by renaming.
        let tmp = TempDir::new("mis-filed");
        let mut cache = ResultCache::new(0).with_dir(&tmp.0);
        cache.insert("key-one", "payload-one");
        let from = cache.path_for("key-one").unwrap();
        let to = cache.path_for("key-two").unwrap();
        fs::rename(from, to).unwrap();
        assert_eq!(cache.get("key-two"), None, "stored key must match the lookup key");
        assert_eq!(cache.stats().invalid, 1);
    }

    #[test]
    fn entries_from_an_older_epoch_are_never_served() {
        // The epoch-staleness regression, disk tier: epoch A writes, a
        // restart at epoch B (new binary, changed semantics) must
        // recompute — the stale payload is rejected, counted, and then
        // healed by the recompute's write-through.
        let tmp = TempDir::new("epoch-flip");
        let mut before = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xA);
        before.insert("job|x", "old bytes\n");
        assert_eq!(before.get("job|x").as_deref(), Some("old bytes\n"));

        let mut after = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xB);
        assert_eq!(after.get("job|x"), None, "stale-epoch entry must read as a miss");
        assert_eq!((after.stats().invalid, after.stats().misses), (1, 1));
        after.insert("job|x", "new bytes\n");
        assert_eq!(after.get("job|x").as_deref(), Some("new bytes\n"));

        // And the old binary, restarted, now refuses the new entry too:
        // staleness is symmetric, never a downgrade path.
        let mut rollback = ResultCache::new(4).with_dir(&tmp.0).with_epoch(0xA);
        assert_eq!(rollback.get("job|x"), None);
    }

    #[test]
    fn stats_render_greppable() {
        let mut cache = ResultCache::new(2);
        cache.insert("a", "A");
        let _ = cache.get("a");
        assert_eq!(
            cache.stats().to_string(),
            "1 result hits, 0 misses, 0 disk hits, 0 written, 0 evicted, 0 invalid"
        );
    }
}
