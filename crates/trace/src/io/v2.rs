//! The chunked trace container (version 4): a durable, compact,
//! parallel-loadable on-disk format for value traces. (The module keeps
//! the name of the chunked format's first version; version 4 is the only
//! one read or written.)
//!
//! A container is a self-describing header (magic + version, workload
//! [`Fingerprint`], record/chunk counts, checksums), a chunk index, a
//! sequence of independently decodable chunk payloads, and optional
//! trailing [`Section`]s. Records inside a chunk are delta-encoded: each
//! PC is stored as a zigzag LEB128 delta from the previous record's PC
//! (resetting at every chunk boundary, so chunks never depend on each
//! other), the category as one byte, and the value as an unsigned LEB128
//! varint. Each payload is then framed by a method byte, stored raw or
//! LZ-compressed (see [`super::compress`]).
//!
//! The byte-level layout is specified in `docs/TRACE_FORMAT.md` (repository
//! root) precisely enough to implement a reader without consulting this
//! source. Integrity is two-tier: the header (including the chunk index and
//! its per-chunk checksums) is covered by a header checksum, and every
//! chunk payload by its index entry's checksum — any single corrupted byte
//! anywhere in a container is detected.
//!
//! # Examples
//!
//! ```
//! use dvp_trace::io::v2;
//! use dvp_trace::{InstrCategory, Pc, TraceRecord};
//!
//! let records: Vec<TraceRecord> =
//!     (0..1000u64).map(|i| TraceRecord::new(Pc(4 * (i % 7)), InstrCategory::Loads, i / 7)).collect();
//! let meta = v2::TraceMeta {
//!     fingerprint: v2::Fingerprint::default(),
//!     retired: 5000,
//!     predicted: 1000,
//! };
//! let mut buf = Vec::new();
//! v2::write_compressed(&mut buf, &meta, records.chunks(256), &[])?;
//! let (header, back) = v2::read(&mut buf.as_slice())?;
//! assert_eq!(back, records);
//! assert_eq!(header.record_count, 1000);
//! assert_eq!(header.chunks.len(), 4); // 1000 records / 256 per chunk
//! # Ok::<(), dvp_trace::io::TraceIoError>(())
//! ```

use super::{format_err, TraceIoError};
use crate::{fnv1a64, Fnv, InstrCategory, Pc, PcInterner, PhasePlan, SimPointPhase, TraceRecord};
use std::io::{Cursor, Read, Seek, SeekFrom, Write};

/// The one container version this build reads and writes. Any other
/// version byte is a [`TraceIoError::UnsupportedVersion`] error.
pub const VERSION: u8 = 4;

/// Magic bytes of the container: `"DVPT"` + [`VERSION`].
pub const MAGIC: [u8; 5] = [b'D', b'V', b'P', b'T', VERSION];

/// Section magic of the persisted PC-interner table (`"PCIN"`).
pub const SECTION_INTERNER: [u8; 4] = *b"PCIN";

/// Section magic of the persisted phase-sampling plan (`"PHAS"`).
pub const SECTION_PHASES: [u8; 4] = *b"PHAS";

/// Default records per chunk (matches the engine's shared-buffer chunking,
/// so a `SharedTrace` round-trips chunk-for-chunk).
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// Identity of the workload run that produced a trace.
///
/// A persistent cache keys files by this fingerprint and must refuse a hit
/// whose stored fingerprint differs from the one it expects — a stale file
/// (different input, scale, optimization level, or record cap) would
/// silently change every downstream table. String fields keep the type
/// independent of the workload crate; [`Fingerprint::digest`] condenses it
/// to a filename-friendly hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Fingerprint {
    /// Workload (benchmark) name, e.g. `"m88k"`.
    pub workload: String,
    /// Input name, e.g. `"gcc.i"` or `"m88k.ref"`.
    pub input: String,
    /// Optimization level the workload was compiled at, e.g. `"O1"`.
    pub opt_level: String,
    /// Seed of the workload's deterministic input generator.
    pub seed: u64,
    /// Outer repetition count (trace-length control).
    pub scale: u32,
    /// Record cap applied while tracing (`u64::MAX` = uncapped).
    pub record_cap: u64,
}

impl Fingerprint {
    /// A 64-bit digest of the fingerprint (FNV-1a over the canonical field
    /// encoding) — stable across processes, suitable for cache file names.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvp_trace::io::v2::Fingerprint;
    ///
    /// let a = Fingerprint { workload: "m88k".into(), scale: 10, ..Fingerprint::default() };
    /// let b = Fingerprint { workload: "m88k".into(), scale: 5, ..Fingerprint::default() };
    /// assert_ne!(a.digest(), b.digest());
    /// assert_eq!(a.digest(), a.clone().digest());
    /// ```
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut fnv = Fnv::new();
        for field in [&self.workload, &self.input, &self.opt_level] {
            fnv.update(&(field.len() as u64).to_le_bytes());
            fnv.update(field.as_bytes());
        }
        fnv.update(&self.seed.to_le_bytes());
        fnv.update(&self.scale.to_le_bytes());
        fnv.update(&self.record_cap.to_le_bytes());
        fnv.finish()
    }
}

/// Trace-level metadata persisted alongside the records.
///
/// `retired` and `predicted` describe the *full* workload run (they are
/// unaffected by any record cap), so a cache hit can answer the same
/// questions a fresh simulation would.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceMeta {
    /// Identity of the producing workload run.
    pub fingerprint: Fingerprint,
    /// Total dynamic (retired) instructions of the full run.
    pub retired: u64,
    /// Total predicted (register-writing) instructions of the full run.
    pub predicted: u64,
}

/// One chunk-index entry: where a chunk's payload lives and how to check
/// it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Byte offset of the payload from the start of the payload section.
    pub offset: u64,
    /// Stored payload length in bytes, method byte included.
    pub len: u32,
    /// Decoded chunk-encoding length in bytes: what the payload body
    /// decompresses to (or is, when stored raw).
    pub raw_len: u32,
    /// Number of records encoded in the payload (always > 0).
    pub records: u32,
    /// FNV-1a 64 checksum of the *stored* payload bytes, so corruption is
    /// caught before any decompression work.
    pub checksum: u64,
}

/// A parsed header: everything before the payload section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Trace metadata (fingerprint + run totals).
    pub meta: TraceMeta,
    /// Total records across all chunks.
    pub record_count: u64,
    /// Maximum records any chunk holds.
    pub chunk_capacity: u32,
    /// The chunk index, in payload order.
    pub chunks: Vec<ChunkInfo>,
}

impl Header {
    /// Total payload bytes following the header. Saturating — the header
    /// validator rejects any index whose offsets would overflow, so a
    /// validated header never saturates here.
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.chunks.last().map_or(0, |c| c.offset.saturating_add(u64::from(c.len)))
    }
}

/// One optional trailing section of a container.
///
/// Sections live after the last chunk payload, each framed as
/// `magic[4] + len:u64 + checksum:u64 + body[len]`. A reader walks the
/// frames and **skips** any section whose magic it does not understand —
/// which is how new section kinds can be added without a version bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Section<'a> {
    /// Four-byte section kind, e.g. [`SECTION_INTERNER`].
    pub magic: [u8; 4],
    /// The section body (already checksum-validated).
    pub body: &'a [u8],
}

/// Validates the bytes following the last chunk payload: every optional
/// section frame is walked and checksum-verified, sections of unknown
/// kind included, and the sections are returned. Streaming readers call
/// this after consuming the payload region.
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] for a torn or corrupt section frame.
pub fn validate_trailing(mut rest: &[u8]) -> Result<Vec<Section<'_>>, TraceIoError> {
    let mut sections = Vec::new();
    while !rest.is_empty() {
        // Infallible frame destructuring: a short region fails with a
        // structured error, never a panicking `expect`.
        let frame_left = rest.len();
        let torn = || {
            format_err(format!(
                "container ends inside an optional-section frame ({frame_left} bytes left)"
            ))
        };
        let (magic, after_magic) = rest.split_first_chunk::<4>().ok_or_else(torn)?;
        let (len_bytes, after_len) = after_magic.split_first_chunk::<8>().ok_or_else(torn)?;
        let (checksum_bytes, body_and_rest) =
            after_len.split_first_chunk::<8>().ok_or_else(torn)?;
        let magic = *magic;
        let checksum = u64::from_le_bytes(*checksum_bytes);
        let len = usize::try_from(u64::from_le_bytes(*len_bytes))
            .map_err(|_| format_err("optional section exceeds addressable memory"))?;
        let Some(body) = body_and_rest.get(..len) else {
            return Err(format_err(format!(
                "optional section {:?} truncated: {} body bytes present, frame declares {len}",
                String::from_utf8_lossy(&magic),
                body_and_rest.len()
            )));
        };
        if fnv1a64(body) != checksum {
            return Err(format_err(format!(
                "optional section {:?} checksum mismatch (corrupt section)",
                String::from_utf8_lossy(&magic)
            )));
        }
        sections.push(Section { magic, body });
        rest = &body_and_rest[len..];
    }
    Ok(sections)
}

/// Encodes a PC interner as a [`SECTION_INTERNER`] body: `count:u32`
/// followed by `count` little-endian `u64` PCs in id order.
#[must_use]
pub fn encode_interner(interner: &PcInterner) -> Vec<u8> {
    let pcs = interner.pcs();
    let mut body = Vec::with_capacity(4 + pcs.len() * 8);
    body.extend_from_slice(&u32::try_from(pcs.len()).expect("interner fits u32").to_le_bytes());
    for pc in pcs {
        body.extend_from_slice(&pc.0.to_le_bytes());
    }
    body
}

/// Decodes a [`SECTION_INTERNER`] body back into a [`PcInterner`].
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] when the body length disagrees with
/// the declared count or the table repeats a PC (an interner is a
/// bijection; a duplicate means the section is corrupt or hand-made).
pub fn decode_interner(body: &[u8]) -> Result<PcInterner, TraceIoError> {
    let Some((count_bytes, mut pcs_bytes)) = body.split_first_chunk::<4>() else {
        return Err(format_err("interner section ends inside its count field"));
    };
    let count = u32::from_le_bytes(*count_bytes) as usize;
    let need = count
        .checked_mul(8)
        .ok_or_else(|| format_err(format!("interner section count {count} overflows")))?;
    if pcs_bytes.len() != need {
        return Err(format_err(format!(
            "interner section declares {count} PCs but carries {} bytes (need {need})",
            pcs_bytes.len(),
        )));
    }
    let mut pcs = Vec::with_capacity(pcs_bytes.len() / 8);
    while let Some((pc_bytes, rest)) = pcs_bytes.split_first_chunk::<8>() {
        pcs.push(Pc(u64::from_le_bytes(*pc_bytes)));
        pcs_bytes = rest;
    }
    PcInterner::from_pcs(pcs)
        .map_err(|pc| format_err(format!("interner section repeats {pc} (not a bijection)")))
}

/// Encodes a phase-sampling plan as a [`SECTION_PHASES`] body:
/// `window_records:u64 + warmup_records:u64 + seed:u64 +
/// total_records:u64 + count:u32`, then `count` 24-byte phases
/// (`cluster_records:u64 + start:u64 + end:u64`), all little-endian.
/// The encoding is integer-only, so a plan round-trips exactly.
#[must_use]
pub fn encode_phases(plan: &PhasePlan) -> Vec<u8> {
    let mut body = Vec::with_capacity(36 + plan.phases.len() * 24);
    body.extend_from_slice(&plan.window_records.to_le_bytes());
    body.extend_from_slice(&plan.warmup_records.to_le_bytes());
    body.extend_from_slice(&plan.seed.to_le_bytes());
    body.extend_from_slice(&plan.total_records.to_le_bytes());
    body.extend_from_slice(&u32::try_from(plan.phases.len()).expect("plan fits u32").to_le_bytes());
    for phase in &plan.phases {
        body.extend_from_slice(&phase.cluster_records.to_le_bytes());
        body.extend_from_slice(&phase.start.to_le_bytes());
        body.extend_from_slice(&phase.end.to_le_bytes());
    }
    body
}

/// Decodes a [`SECTION_PHASES`] body back into a [`PhasePlan`],
/// re-validating it via [`PhasePlan::validate`] — a structurally invalid
/// plan (out-of-range windows, weights that do not sum to the trace) is
/// rejected even when its frame checksum matches, so a sampled replay can
/// never run on a silently mis-weighted plan.
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] when the body length disagrees with
/// the declared phase count or the decoded plan fails validation.
pub fn decode_phases(body: &[u8]) -> Result<PhasePlan, TraceIoError> {
    fn u64_field(rest: &mut &[u8], what: &str) -> Result<u64, TraceIoError> {
        let (bytes, tail) = rest
            .split_first_chunk::<8>()
            .ok_or_else(|| format_err(format!("phase section ends inside {what}")))?;
        *rest = tail;
        Ok(u64::from_le_bytes(*bytes))
    }
    let mut rest = body;
    let window_records = u64_field(&mut rest, "its window length")?;
    let warmup_records = u64_field(&mut rest, "its warmup length")?;
    let seed = u64_field(&mut rest, "its seed")?;
    let total_records = u64_field(&mut rest, "its record total")?;
    let (count_bytes, mut rest) = rest
        .split_first_chunk::<4>()
        .ok_or_else(|| format_err("phase section ends inside its phase count"))?;
    let count = u32::from_le_bytes(*count_bytes) as usize;
    let need = count
        .checked_mul(24)
        .ok_or_else(|| format_err(format!("phase section count {count} overflows")))?;
    if rest.len() != need {
        return Err(format_err(format!(
            "phase section declares {count} phases but carries {} body bytes (need {})",
            rest.len(),
            need
        )));
    }
    let mut phases = Vec::with_capacity(count);
    for _ in 0..count {
        phases.push(SimPointPhase {
            cluster_records: u64_field(&mut rest, "a phase")?,
            start: u64_field(&mut rest, "a phase")?,
            end: u64_field(&mut rest, "a phase")?,
        });
    }
    let plan = PhasePlan { window_records, warmup_records, seed, total_records, phases };
    plan.validate().map_err(|e| format_err(e.to_string()))?;
    Ok(plan)
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------------

/// Appends `value` as unsigned LEB128 (7 bits per byte, high bit =
/// continuation).
fn push_uvarint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads one unsigned LEB128 varint from `bytes` at `*pos`, advancing it.
fn take_uvarint(bytes: &[u8], pos: &mut usize, what: &str) -> Result<u64, TraceIoError> {
    let start = *pos;
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let Some(&byte) = bytes.get(*pos) else {
            return Err(format_err(format!(
                "chunk payload ends inside a {what} varint at byte offset {start}"
            )));
        };
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // The 10th byte (shift 63) may only contribute one bit.
            if shift == 63 && byte > 1 {
                return Err(format_err(format!(
                    "{what} varint at byte offset {start} overflows 64 bits"
                )));
            }
            return Ok(value);
        }
    }
    Err(format_err(format!("{what} varint at byte offset {start} longer than 10 bytes")))
}

/// Zigzag-encodes a signed delta so small magnitudes of either sign stay
/// short in LEB128.
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(encoded: u64) -> i64 {
    ((encoded >> 1) as i64) ^ -((encoded & 1) as i64)
}

// ---------------------------------------------------------------------------
// chunk encode / decode
// ---------------------------------------------------------------------------

/// Encodes one chunk's records: per record, zigzag-LEB128 PC delta (from
/// the previous record in the *same chunk*; the first record's delta is
/// from PC 0), one category byte, LEB128 value.
fn encode_chunk(records: &[TraceRecord]) -> Vec<u8> {
    // Typical payloads run ~3-5 bytes/record; reserve on the high side to
    // avoid the last doubling.
    let mut buf = Vec::with_capacity(records.len() * 6);
    let mut prev_pc = 0u64;
    for rec in records {
        push_uvarint(&mut buf, zigzag(rec.pc.0.wrapping_sub(prev_pc) as i64));
        buf.push(rec.category.index() as u8);
        push_uvarint(&mut buf, rec.value);
        prev_pc = rec.pc.0;
    }
    buf
}

/// Bytes of the widest encoded record: a 10-byte zigzag PC-delta varint,
/// the category byte, and a 10-byte value varint.
const MAX_RECORD_BYTES: u64 = 21;

/// Describes an index entry whose decoded length no record count can
/// produce: a record encodes to at least 3 bytes (1-byte PC delta,
/// category, 1-byte value) and at most [`MAX_RECORD_BYTES`]. Checked
/// before anything is sized from the entry, so a hostile index entry can
/// force neither a giant record vector nor a giant payload buffer.
fn impossible_decoded_len(info: &ChunkInfo) -> Option<String> {
    let records = u64::from(info.records);
    (!(3 * records..=MAX_RECORD_BYTES * records).contains(&u64::from(info.raw_len))).then(|| {
        format!(
            "declares {} records in {} decoded bytes \
             (records need at least 3 bytes and at most {MAX_RECORD_BYTES} bytes each)",
            info.records, info.raw_len
        )
    })
}

/// Decodes one chunk payload against its index entry, validating length,
/// checksum, record count, and that the payload is fully consumed. The
/// checksum is verified over the stored bytes first, then the payload is
/// unframed and, when compressed, decompressed (see [`super::compress`])
/// before record decoding.
///
/// Chunks are self-contained (the PC delta base resets at each chunk
/// boundary), so any subset of a container's chunks can be decoded
/// concurrently and independently.
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] on any mismatch between payload and
/// index entry, a corrupt payload or compression frame, or an invalid
/// category byte.
pub fn decode_chunk(payload: &[u8], info: &ChunkInfo) -> Result<Vec<TraceRecord>, TraceIoError> {
    if payload.len() != info.len as usize {
        return Err(format_err(format!(
            "chunk payload is {} bytes, index says {}",
            payload.len(),
            info.len
        )));
    }
    if fnv1a64(payload) != info.checksum {
        return Err(format_err(format!(
            "chunk checksum mismatch at payload offset {} (corrupt chunk)",
            info.offset
        )));
    }
    if let Some(message) = impossible_decoded_len(info) {
        return Err(format_err(format!("chunk {message}")));
    }
    let raw =
        super::compress::decompress_payload(payload, info.raw_len as usize).map_err(
            |e| match e {
                TraceIoError::Format { message } => {
                    format_err(format!("chunk at payload offset {}: {message}", info.offset))
                }
                other => other,
            },
        )?;
    decode_records(&raw, info.records)
}

/// Decodes `count` delta/varint records from a raw (uncompressed) chunk
/// encoding, requiring the bytes to be fully consumed.
fn decode_records(bytes: &[u8], count: u32) -> Result<Vec<TraceRecord>, TraceIoError> {
    let mut records = Vec::with_capacity(count as usize);
    let mut pos = 0usize;
    let mut prev_pc = 0u64;
    for _ in 0..count {
        let pc = prev_pc.wrapping_add(unzigzag(take_uvarint(bytes, &mut pos, "pc delta")?) as u64);
        let Some(&cat_byte) = bytes.get(pos) else {
            return Err(format_err(format!(
                "chunk payload ends before a category byte at byte offset {pos}"
            )));
        };
        pos += 1;
        let category = InstrCategory::from_index(cat_byte as usize).ok_or_else(|| {
            format_err(format!("invalid category byte {cat_byte} at byte offset {}", pos - 1))
        })?;
        let value = take_uvarint(bytes, &mut pos, "value")?;
        records.push(TraceRecord::new(Pc(pc), category, value));
        prev_pc = pc;
    }
    if pos != bytes.len() {
        return Err(format_err(format!(
            "{} unconsumed bytes after the last record of a chunk",
            bytes.len() - pos
        )));
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// header serialization
// ---------------------------------------------------------------------------

fn push_str(buf: &mut Vec<u8>, s: &str, what: &str) -> Result<(), TraceIoError> {
    let len = u16::try_from(s.len())
        .map_err(|_| format_err(format!("{what} string exceeds 65535 bytes")))?;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Serializes everything the header checksum covers: the fixed fields, the
/// fingerprint, and the chunk index (28 bytes per entry).
fn encode_header_tail(header: &Header) -> Result<Vec<u8>, TraceIoError> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&header.record_count.to_le_bytes());
    buf.extend_from_slice(&header.chunk_capacity.to_le_bytes());
    let chunk_count =
        u32::try_from(header.chunks.len()).map_err(|_| format_err("more than u32::MAX chunks"))?;
    buf.extend_from_slice(&chunk_count.to_le_bytes());
    buf.extend_from_slice(&header.meta.retired.to_le_bytes());
    buf.extend_from_slice(&header.meta.predicted.to_le_bytes());
    let fp = &header.meta.fingerprint;
    push_str(&mut buf, &fp.workload, "workload")?;
    push_str(&mut buf, &fp.input, "input")?;
    push_str(&mut buf, &fp.opt_level, "opt-level")?;
    buf.extend_from_slice(&fp.seed.to_le_bytes());
    buf.extend_from_slice(&fp.scale.to_le_bytes());
    buf.extend_from_slice(&fp.record_cap.to_le_bytes());
    for chunk in &header.chunks {
        buf.extend_from_slice(&chunk.offset.to_le_bytes());
        buf.extend_from_slice(&chunk.len.to_le_bytes());
        buf.extend_from_slice(&chunk.raw_len.to_le_bytes());
        buf.extend_from_slice(&chunk.records.to_le_bytes());
        buf.extend_from_slice(&chunk.checksum.to_le_bytes());
    }
    Ok(buf)
}

struct TailReader<'a, R: Read> {
    reader: &'a mut R,
    fnv: Fnv,
    /// Absolute byte offset of the next unread header byte (the tail
    /// starts right after the 5-byte magic and 8-byte checksum), so
    /// truncation errors can name where the header ended.
    offset: usize,
}

impl<R: Read> TailReader<'_, R> {
    fn exact(&mut self, buf: &mut [u8], what: &str) -> Result<(), TraceIoError> {
        self.reader.read_exact(buf).map_err(|_| {
            format_err(format!("header ends inside {what} at byte offset {}", self.offset))
        })?;
        self.fnv.update(buf);
        self.offset += buf.len();
        Ok(())
    }

    fn u16(&mut self, what: &str) -> Result<u16, TraceIoError> {
        let mut buf = [0u8; 2];
        self.exact(&mut buf, what)?;
        Ok(u16::from_le_bytes(buf))
    }

    fn u32(&mut self, what: &str) -> Result<u32, TraceIoError> {
        let mut buf = [0u8; 4];
        self.exact(&mut buf, what)?;
        Ok(u32::from_le_bytes(buf))
    }

    fn u64(&mut self, what: &str) -> Result<u64, TraceIoError> {
        let mut buf = [0u8; 8];
        self.exact(&mut buf, what)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self, what: &str) -> Result<String, TraceIoError> {
        let len = self.u16(what)? as usize;
        let mut buf = vec![0u8; len];
        self.exact(&mut buf, what)?;
        String::from_utf8(buf).map_err(|_| format_err(format!("{what} string is not UTF-8")))
    }
}

/// Reads and validates a header (magic through chunk index), leaving the
/// reader positioned at the first payload byte.
///
/// Validation covers the magic and version, the header checksum, UTF-8
/// fingerprint strings, and index consistency: contiguous ascending
/// offsets, non-empty chunks within `chunk_capacity`, decoded lengths a
/// record count can produce, stored lengths at most one byte over the
/// decoded length, and per-chunk record counts summing to `record_count`.
///
/// # Errors
///
/// Returns [`TraceIoError::UnsupportedVersion`] for any version byte but
/// [`VERSION`], a [`TraceIoError::Format`] describing the first other
/// violation, or [`TraceIoError::Io`] on read failure.
pub fn read_header<R: Read>(reader: &mut R) -> Result<Header, TraceIoError> {
    let mut magic = [0u8; 5];
    reader.read_exact(&mut magic).map_err(|_| format_err("missing container header"))?;
    if magic[..4] != MAGIC[..4] {
        return Err(format_err("bad magic bytes (not a dvp trace container)"));
    }
    if magic[4] != VERSION {
        return Err(TraceIoError::UnsupportedVersion(magic[4]));
    }
    let mut checksum_buf = [0u8; 8];
    reader
        .read_exact(&mut checksum_buf)
        .map_err(|_| format_err("header ends inside the header checksum"))?;
    let expected_checksum = u64::from_le_bytes(checksum_buf);

    let mut tail = TailReader { reader, fnv: Fnv::new(), offset: MAGIC.len() + 8 };
    let record_count = tail.u64("record count")?;
    let chunk_capacity = tail.u32("chunk capacity")?;
    let chunk_count = tail.u32("chunk count")?;
    let retired = tail.u64("retired count")?;
    let predicted = tail.u64("predicted count")?;
    let fingerprint = Fingerprint {
        workload: tail.string("workload")?,
        input: tail.string("input")?,
        opt_level: tail.string("opt-level")?,
        seed: tail.u64("seed")?,
        scale: tail.u32("scale")?,
        record_cap: tail.u64("record cap")?,
    };
    // Sized by what the reader actually supplies, never by the (still
    // unvalidated) declared count: a hostile 33-byte header could
    // otherwise claim u32::MAX entries and force a ~100 GiB allocation
    // before the first EOF check.
    let mut chunks = Vec::new();
    for i in 0..chunk_count {
        let what = format!("chunk index entry {i}");
        let offset = tail.u64(&what)?;
        chunks.push(ChunkInfo {
            offset,
            len: tail.u32(&what)?,
            raw_len: tail.u32(&what)?,
            records: tail.u32(&what)?,
            checksum: tail.u64(&what)?,
        });
    }
    if tail.fnv.finish() != expected_checksum {
        return Err(format_err("header checksum mismatch (corrupt header)"));
    }

    let mut expected_offset = 0u64;
    let mut total_records = 0u64;
    for (i, chunk) in chunks.iter().enumerate() {
        if chunk.offset != expected_offset {
            return Err(format_err(format!(
                "chunk {i} offset {} is not contiguous (expected {expected_offset})",
                chunk.offset
            )));
        }
        if chunk.records == 0 || chunk.len == 0 {
            return Err(format_err(format!("chunk {i} is empty")));
        }
        if chunk.records > chunk_capacity {
            return Err(format_err(format!(
                "chunk {i} holds {} records, over the declared capacity {chunk_capacity}",
                chunk.records
            )));
        }
        if let Some(message) = impossible_decoded_len(chunk) {
            return Err(format_err(format!("chunk {i} {message}")));
        }
        // A conforming writer stores incompressible chunks raw, so the
        // stored payload (method byte included) never exceeds the decoded
        // length by more than one byte.
        if u64::from(chunk.len) > u64::from(chunk.raw_len) + 1 {
            return Err(format_err(format!(
                "chunk {i} stores {} bytes for {} decoded bytes \
                 (compressed payloads may exceed raw by at most the method byte)",
                chunk.len, chunk.raw_len
            )));
        }
        expected_offset = expected_offset
            .checked_add(u64::from(chunk.len))
            .ok_or_else(|| format_err(format!("chunk {i} offset overflows u64")))?;
        total_records = total_records
            .checked_add(u64::from(chunk.records))
            .ok_or_else(|| format_err(format!("record counts overflow u64 at chunk {i}")))?;
    }
    if total_records != record_count {
        return Err(format_err(format!(
            "chunk record counts sum to {total_records}, header says {record_count}"
        )));
    }
    Ok(Header {
        meta: TraceMeta { fingerprint, retired, predicted },
        record_count,
        chunk_capacity,
        chunks,
    })
}

/// Parses a whole in-memory container into its header and exactly-sized
/// payload section. This is the entry point for parallel loading: slice
/// the returned payload by each [`ChunkInfo`] and hand the slices to
/// [`decode_chunk`] on any number of threads.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on a malformed header, a truncated payload
/// section, or a torn or corrupt section frame after the last chunk.
pub fn split_bytes(bytes: &[u8]) -> Result<(Header, &[u8]), TraceIoError> {
    // Optional sections are validated (framing + checksums) and skipped.
    split_with_sections(bytes).map(|(header, payload, _)| (header, payload))
}

/// As [`split_bytes`], additionally returning the container's optional
/// trailing sections. Consumers
/// pick the sections they understand by magic — e.g. [`SECTION_INTERNER`]
/// via [`decode_interner`] — and ignore the rest.
///
/// # Errors
///
/// As [`split_bytes`], plus a [`TraceIoError::Format`] for a torn or
/// corrupt section frame (including sections of unknown kind).
pub fn split_with_sections(
    bytes: &[u8],
) -> Result<(Header, &[u8], Vec<Section<'_>>), TraceIoError> {
    let mut cursor = bytes;
    let header = read_header(&mut cursor)?;
    let payload_len = usize::try_from(header.payload_len())
        .map_err(|_| format_err("payload section exceeds addressable memory"))?;
    if cursor.len() < payload_len {
        return Err(format_err(format!(
            "payload section truncated: {} bytes present, index needs {payload_len}",
            cursor.len()
        )));
    }
    let (payload, rest) = cursor.split_at(payload_len);
    Ok((header, payload, validate_trailing(rest)?))
}

/// The payload slice of one chunk within a [`split_bytes`] payload section.
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] when the entry's offset and length
/// reach outside the payload section — only possible for a hand-made
/// entry, since a validated header's index always fits its payload.
pub fn chunk_payload<'a>(payload: &'a [u8], info: &ChunkInfo) -> Result<&'a [u8], TraceIoError> {
    usize::try_from(info.offset)
        .ok()
        .and_then(|start| Some((start, start.checked_add(info.len as usize)?)))
        .and_then(|(start, end)| payload.get(start..end))
        .ok_or_else(|| {
            format_err(format!(
                "chunk at byte offset {} (len {}) overruns the {}-byte payload section",
                info.offset,
                info.len,
                payload.len()
            ))
        })
}

// ---------------------------------------------------------------------------
// whole-container write / read
// ---------------------------------------------------------------------------

/// Writes a container from pre-chunked records (empty chunks are
/// skipped), every payload stored raw (method byte 0), with optional
/// trailing sections as `(magic, body)` pairs, framed and checksummed per
/// the spec. The declared chunk capacity is the largest chunk's record
/// count, so a write → [`read()`] round trip preserves chunk boundaries
/// exactly.
///
/// The container is built by [`write_payloads`] and [`PendingHeader::finish`]
/// in an in-memory buffer and then written to `writer` in one piece; a
/// caller with a seekable writer should call those two directly.
///
/// # Errors
///
/// Propagates I/O failures; returns a [`TraceIoError::Format`] if a
/// fingerprint string or the chunk count overflows its field.
pub fn write_with_sections<'a, W, I>(
    writer: &mut W,
    meta: &TraceMeta,
    chunks: I,
    sections: &[([u8; 4], Vec<u8>)],
) -> Result<Header, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = &'a [TraceRecord]>,
{
    write_buffered(writer, meta, chunks, sections, false)
}

/// As [`write_with_sections`], but compressing each chunk payload the LZ
/// codec shrinks (see [`super::compress`]) and storing the rest raw, so a
/// compressed container is never larger than its stored twin — and on
/// real traces considerably smaller. This is what the trace cache writes.
///
/// # Errors
///
/// As [`write_with_sections`].
pub fn write_compressed<'a, W, I>(
    writer: &mut W,
    meta: &TraceMeta,
    chunks: I,
    sections: &[([u8; 4], Vec<u8>)],
) -> Result<Header, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = &'a [TraceRecord]>,
{
    write_buffered(writer, meta, chunks, sections, true)
}

/// Runs the streaming writer over an in-memory [`Cursor`] and copies the
/// finished container to a writer that cannot seek.
fn write_buffered<'a, W, I>(
    writer: &mut W,
    meta: &TraceMeta,
    chunks: I,
    sections: &[([u8; 4], Vec<u8>)],
    compress: bool,
) -> Result<Header, TraceIoError>
where
    W: Write,
    I: IntoIterator<Item = &'a [TraceRecord]>,
{
    let mut cursor = Cursor::new(Vec::new());
    let header =
        write_payloads(&mut cursor, meta, chunks, compress)?.finish(&mut cursor, sections)?;
    writer.write_all(cursor.get_ref())?;
    Ok(header)
}

/// A container whose chunk payloads [`write_payloads`] has written but
/// whose header slot still holds zeros: [`PendingHeader::finish`] appends
/// the trailing sections and then writes the header.
#[derive(Debug)]
#[must_use = "a container is only valid once its header is written by `finish`"]
pub struct PendingHeader {
    /// Writer position of the container's first byte.
    start: u64,
    /// Bytes reserved for the magic, the header checksum and the tail.
    reserved: usize,
    /// The finished header: fingerprint, counts and the chunk index.
    header: Header,
}

/// The streaming half of a container write: reserves the header at the
/// writer's current position (its length is fixed by the fingerprint and
/// the count of non-empty chunks), then encodes each non-empty chunk and
/// writes its payload (LZ-compressed where the codec shrinks it when
/// `compress`, else stored raw) as soon as it is made, so no more than one
/// payload is held at a time. The writer is left after the last payload,
/// where [`PendingHeader::finish`] appends the sections.
///
/// The split lets the payloads stream out while the caller computes
/// section bodies (such as the phase plan) elsewhere; the bytes equal
/// those of [`write_compressed`] (or [`write_with_sections`]) for the same
/// input.
///
/// # Errors
///
/// Propagates I/O failures; returns a [`TraceIoError::Format`] if a
/// fingerprint string, a chunk or the chunk count overflows its field.
pub fn write_payloads<'a, W, I>(
    writer: &mut W,
    meta: &TraceMeta,
    chunks: I,
    compress: bool,
) -> Result<PendingHeader, TraceIoError>
where
    W: Write + Seek,
    I: IntoIterator<Item = &'a [TraceRecord]>,
{
    let chunks: Vec<&[TraceRecord]> = chunks.into_iter().filter(|c| !c.is_empty()).collect();
    let mut header =
        Header { meta: meta.clone(), record_count: 0, chunk_capacity: 0, chunks: Vec::new() };
    let reserved = MAGIC.len() + 8 + encode_header_tail(&header)?.len() + 28 * chunks.len();
    let start = writer.stream_position()?;
    writer.write_all(&vec![0u8; reserved])?;
    let mut offset = 0u64;
    for chunk in chunks {
        let raw = encode_chunk(chunk);
        let records = u32::try_from(chunk.len())
            .map_err(|_| format_err("chunk holds more than u32::MAX records"))?;
        let raw_len = u32::try_from(raw.len())
            .map_err(|_| format_err("chunk payload exceeds u32::MAX bytes"))?;
        let payload = if compress {
            super::compress::compress_payload(&raw)
        } else {
            super::compress::store_payload(&raw)
        };
        let len = u32::try_from(payload.len())
            .map_err(|_| format_err("chunk payload exceeds u32::MAX bytes"))?;
        writer.write_all(&payload)?;
        header.chunks.push(ChunkInfo {
            offset,
            len,
            raw_len,
            records,
            checksum: fnv1a64(&payload),
        });
        offset += u64::from(len);
        header.record_count += u64::from(records);
        header.chunk_capacity = header.chunk_capacity.max(records);
    }
    Ok(PendingHeader { start, reserved, header })
}

impl PendingHeader {
    /// Completes the container [`write_payloads`] began on `writer`:
    /// appends each `(magic, body)` section, framed and checksummed per
    /// the spec, seeks back to write the header and its checksum into the
    /// reserved slot, and leaves the writer at the container's end.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, seeks included; returns a
    /// [`TraceIoError::Format`] if the chunk count overflows its field.
    pub fn finish<W: Write + Seek>(
        self,
        writer: &mut W,
        sections: &[([u8; 4], Vec<u8>)],
    ) -> Result<Header, TraceIoError> {
        for (magic, body) in sections {
            writer.write_all(magic)?;
            writer.write_all(&(body.len() as u64).to_le_bytes())?;
            writer.write_all(&fnv1a64(body).to_le_bytes())?;
            writer.write_all(body)?;
        }
        let end = writer.stream_position()?;
        let tail = encode_header_tail(&self.header)?;
        // A longer header would overwrite the first payload bytes.
        assert_eq!(MAGIC.len() + 8 + tail.len(), self.reserved, "the header fills its slot");
        writer.seek(SeekFrom::Start(self.start))?;
        writer.write_all(&MAGIC)?;
        writer.write_all(&fnv1a64(&tail).to_le_bytes())?;
        writer.write_all(&tail)?;
        writer.seek(SeekFrom::Start(end))?;
        Ok(self.header)
    }
}

/// Reads a whole container sequentially, validating every checksum and
/// every trailing section frame.
///
/// # Errors
///
/// Returns a [`TraceIoError`] on I/O failure or any format violation.
pub fn read<R: Read>(reader: &mut R) -> Result<(Header, Vec<TraceRecord>), TraceIoError> {
    let header = read_header(reader)?;
    // Grown as payloads actually arrive — `record_count` is validated
    // against the index but the payloads may still be absent, and a
    // hostile header must not size an allocation.
    let mut records = Vec::new();
    for (i, info) in header.chunks.iter().enumerate() {
        let mut payload = vec![0u8; info.len as usize];
        reader.read_exact(&mut payload).map_err(|_| {
            format_err(format!("payload truncated inside chunk {i} (of {})", header.chunks.len()))
        })?;
        records.extend(decode_chunk(&payload, info)?);
    }
    // Validate (and skip) the optional-section region.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest)?;
    validate_trailing(&rest)?;
    Ok((header, records))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                // Descending and wrapping PCs exercise the signed delta path.
                let pc = 0x40_0000u64.wrapping_sub(4 * (i % 11)).wrapping_add(8 * i);
                let category = InstrCategory::from_index((i % 8) as usize).expect("valid");
                let value = match i % 3 {
                    0 => i,
                    1 => u64::MAX - i,
                    _ => 0,
                };
                TraceRecord::new(Pc(pc), category, value)
            })
            .collect()
    }

    fn meta() -> TraceMeta {
        TraceMeta {
            fingerprint: Fingerprint {
                workload: "m88k".into(),
                input: "m88k.ref".into(),
                opt_level: "O1".into(),
                seed: 0xD1CE,
                scale: 10,
                record_cap: u64::MAX,
            },
            retired: 123_456,
            predicted: 54_321,
        }
    }

    fn container(n: u64, capacity: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_with_sections(&mut buf, &meta(), sample(n).chunks(capacity), &[]).expect("writes");
        buf
    }

    #[test]
    fn round_trip_preserves_records_meta_and_chunking() {
        let records = sample(1000);
        let buf = container(1000, 256);
        let (header, back) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(back, records);
        assert_eq!(header.meta, meta());
        assert_eq!(header.record_count, 1000);
        assert_eq!(header.chunk_capacity, 256);
        assert_eq!(header.chunks.len(), 4);
        assert_eq!(header.chunks[3].records, 1000 - 3 * 256);
    }

    #[test]
    fn stored_container_is_denser_than_flat_records() {
        // A flat encoding spends 17 bytes per record (pc, category, value).
        let stored = container(4000, DEFAULT_CHUNK_CAPACITY);
        assert!(
            stored.len() * 2 < 17 * 4000,
            "stored container ({}) should be well under half of 17 bytes/record",
            stored.len()
        );
    }

    #[test]
    fn empty_trace_round_trips() {
        let buf = container(0, 64);
        let (header, back) = read(&mut buf.as_slice()).expect("reads");
        assert!(back.is_empty());
        assert_eq!(header.record_count, 0);
        assert!(header.chunks.is_empty());
    }

    #[test]
    fn empty_chunks_are_skipped() {
        let records = sample(10);
        let mut buf = Vec::new();
        let chunks: [&[TraceRecord]; 4] = [&[], &records[..4], &[], &records[4..]];
        let header = write_with_sections(&mut buf, &meta(), chunks, &[]).expect("writes");
        assert_eq!(header.chunks.len(), 2);
        let (_, back) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(back, records);
    }

    #[test]
    fn chunks_decode_independently() {
        let records = sample(600);
        let buf = container(600, 200);
        let (header, payload) = split_bytes(&buf).expect("splits");
        // Decode only the middle chunk, alone.
        let slice = chunk_payload(payload, &header.chunks[1]).expect("in bounds");
        let mid = decode_chunk(slice, &header.chunks[1]).expect("decodes");
        assert_eq!(mid, records[200..400]);
    }

    #[test]
    fn rejects_flipped_magic_and_wrong_versions() {
        let mut buf = container(50, 16);
        buf[0] ^= 0xff;
        let err = read(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");

        // The retired versions 1–3 and any future version are one
        // structured error, from every reader.
        for version in [1u8, 2, 3, 5, 9] {
            let mut other = container(50, 16);
            other[4] = version;
            let err = read(&mut other.as_slice()).unwrap_err();
            assert!(matches!(err, TraceIoError::UnsupportedVersion(v) if v == version), "{err}");
            assert!(
                err.to_string().contains(&format!("unsupported container version {version}")),
                "{err}"
            );
            assert!(matches!(split_bytes(&other), Err(TraceIoError::UnsupportedVersion(_))));
        }
    }

    #[test]
    fn rejects_corrupt_header_and_corrupt_payload() {
        let buf = container(300, 100);
        let (header, _) = split_bytes(&buf).expect("splits");
        let payload_start = buf.len() - header.payload_len() as usize;

        // Flip one byte inside the header tail (after magic + checksum).
        let mut bad_header = buf.clone();
        bad_header[14] ^= 0x01;
        let err = read(&mut bad_header.as_slice()).unwrap_err();
        assert!(err.to_string().contains("header checksum"), "{err}");

        // Flip one byte inside each chunk payload.
        for chunk in &header.chunks {
            let mut bad = buf.clone();
            bad[payload_start + chunk.offset as usize] ^= 0x80;
            let err = read(&mut bad.as_slice()).unwrap_err();
            assert!(err.to_string().contains("chunk checksum"), "{err}");
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let buf = container(300, 100);
        for cut in [3, 8, 20, buf.len() / 2, buf.len() - 1] {
            assert!(read(&mut buf[..cut].as_ref()).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = container(120, 50);
        buf.push(0x00);
        let err = read(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("optional-section frame"), "{err}");
        let err = split_bytes(&buf).unwrap_err();
        assert!(err.to_string().contains("optional-section frame"), "{err}");
    }

    #[test]
    fn decode_chunk_rejects_mismatched_index_entry() {
        let buf = container(100, 100);
        let (header, payload) = split_bytes(&buf).expect("splits");
        let info = header.chunks[0];
        // Wrong length.
        assert!(decode_chunk(&payload[..info.len as usize - 1], &info).is_err());
        // Wrong record count (checksum still matches, counts don't).
        let short = ChunkInfo { records: info.records - 1, ..info };
        let slice = chunk_payload(payload, &short).expect("in bounds");
        let err = decode_chunk(slice, &short).unwrap_err();
        assert!(err.to_string().contains("unconsumed"), "{err}");
        // An entry reaching outside the payload section errors instead of
        // panicking on the slice.
        let outside = ChunkInfo { offset: payload.len() as u64, ..info };
        let err = chunk_payload(payload, &outside).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
    }

    #[test]
    fn fingerprint_digest_distinguishes_every_field() {
        let base = meta().fingerprint;
        let variants = [
            Fingerprint { workload: "go".into(), ..base.clone() },
            Fingerprint { input: "go.ref".into(), ..base.clone() },
            Fingerprint { opt_level: "O2".into(), ..base.clone() },
            Fingerprint { seed: 1, ..base.clone() },
            Fingerprint { scale: 11, ..base.clone() },
            Fingerprint { record_cap: 100, ..base.clone() },
        ];
        for variant in variants {
            assert_ne!(variant.digest(), base.digest(), "{variant:?}");
        }
    }

    #[test]
    fn varint_primitives_round_trip_extremes() {
        for value in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            push_uvarint(&mut buf, value);
            let mut pos = 0;
            assert_eq!(take_uvarint(&buf, &mut pos, "test").unwrap(), value);
            assert_eq!(pos, buf.len());
        }
        for delta in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(delta)), delta);
        }
    }

    #[test]
    fn decode_chunk_rejects_impossible_record_count_without_allocating() {
        // A record needs at least 3 payload bytes; an index entry claiming
        // u32::MAX records in 3 bytes must fail fast (and must not size a
        // ~100 GiB vector from the hostile count).
        let payload = [0u8, 0, 0];
        let info = ChunkInfo {
            offset: 0,
            len: 3,
            raw_len: 3,
            records: u32::MAX,
            checksum: fnv1a64(&payload),
        };
        let err = decode_chunk(&payload, &info).unwrap_err();
        assert!(err.to_string().contains("at least 3 bytes"), "{err}");
    }

    #[test]
    fn rejects_hostile_header_with_valid_checksum_but_impossible_counts() {
        // Valid header checksum, impossible geometry: u32::MAX records
        // claimed in a 3-byte chunk. Must fail in header validation, not
        // by attempting a giant allocation in the decoder.
        let hostile = handcrafted_container(
            u64::from(u32::MAX),
            u32::MAX,
            &[(0, 4, 3, u32::MAX)],
            &[0, 0, 0, 0],
        );
        let err = read(&mut hostile.as_slice()).unwrap_err();
        assert!(err.to_string().contains("at least 3 bytes"), "{err}");

        // Likewise a header claiming u32::MAX index entries backed by a
        // tiny file: must hit EOF cheaply, not pre-size the index.
        let mut truncated_index = handcrafted_container(0, 0, &[], &[]);
        let chunk_count_at = 5 + 8 + 8 + 4; // magic, checksum, record_count, capacity
        truncated_index[chunk_count_at..chunk_count_at + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read(&mut truncated_index.as_slice()).unwrap_err();
        assert!(err.to_string().contains("chunk index entry"), "{err}");
    }

    fn interner_of(records: &[TraceRecord]) -> PcInterner {
        let mut interner = PcInterner::new();
        for rec in records {
            interner.intern(rec.pc);
        }
        interner
    }

    fn sectioned_container(n: u64, capacity: usize) -> (Vec<u8>, PcInterner) {
        let records = sample(n);
        let interner = interner_of(&records);
        let sections = [(SECTION_INTERNER, encode_interner(&interner))];
        let mut buf = Vec::new();
        write_with_sections(&mut buf, &meta(), records.chunks(capacity), &sections)
            .expect("writes");
        (buf, interner)
    }

    #[test]
    fn interner_section_round_trips() {
        let (buf, interner) = sectioned_container(500, 128);
        assert_eq!(buf[4], VERSION);
        let (header, _, sections) = split_with_sections(&buf).expect("splits");
        assert_eq!(header.record_count, 500);
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].magic, SECTION_INTERNER);
        let decoded = decode_interner(sections[0].body).expect("decodes");
        assert_eq!(decoded, interner);
        // The sequential reader also accepts (and skips) the section.
        let (_, records) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(records, sample(500));
    }

    #[test]
    fn unknown_sections_are_validated_and_skipped() {
        let records = sample(100);
        let sections = [
            ([b'X', b'Y', b'Z', b'W'], vec![1, 2, 3]),
            (SECTION_INTERNER, encode_interner(&interner_of(&records))),
        ];
        let mut buf = Vec::new();
        write_with_sections(&mut buf, &meta(), records.chunks(40), &sections).expect("writes");
        let (_, _, got) = split_with_sections(&buf).expect("splits");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].magic, *b"XYZW");
        assert_eq!(got[0].body, [1, 2, 3]);
        // split_bytes (the section-oblivious surface) skips them cleanly.
        let (header, payload) = split_bytes(&buf).expect("splits");
        assert_eq!(payload.len() as u64, header.payload_len());
        // And read() still returns the records.
        let (_, back) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(back, records);
    }

    #[test]
    fn corrupt_or_torn_sections_are_rejected() {
        let (buf, _) = sectioned_container(300, 100);
        // Flip one byte inside the section body.
        let mut corrupt = buf.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40;
        let err = split_with_sections(&corrupt).unwrap_err();
        assert!(err.to_string().contains("section"), "{err}");
        assert!(read(&mut corrupt.as_slice()).is_err());
        // Truncate inside the section frame and inside its body.
        for cut in [buf.len() - 1, buf.len() - 10] {
            let err = split_with_sections(&buf[..cut]).unwrap_err();
            assert!(
                err.to_string().contains("section") || err.to_string().contains("truncated"),
                "{err}"
            );
        }
    }

    #[test]
    fn decode_interner_rejects_malformed_bodies() {
        // Truncated count.
        assert!(decode_interner(&[1, 0]).is_err());
        // Count/body length mismatch.
        let mut body = 2u32.to_le_bytes().to_vec();
        body.extend_from_slice(&8u64.to_le_bytes());
        assert!(decode_interner(&body).is_err());
        // Duplicate PC.
        let mut dup = 2u32.to_le_bytes().to_vec();
        dup.extend_from_slice(&8u64.to_le_bytes());
        dup.extend_from_slice(&8u64.to_le_bytes());
        let err = decode_interner(&dup).unwrap_err();
        assert!(err.to_string().contains("bijection"), "{err}");
    }

    fn sample_plan() -> PhasePlan {
        PhasePlan {
            window_records: 64,
            warmup_records: 64,
            seed: 0xD1CE,
            total_records: 1000,
            phases: vec![
                SimPointPhase { cluster_records: 250, start: 64, end: 128 },
                SimPointPhase { cluster_records: 750, start: 640, end: 704 },
            ],
        }
    }

    #[test]
    fn phase_section_round_trips_in_a_container() {
        let records = sample(500);
        let plan = sample_plan();
        let sections = [(SECTION_PHASES, encode_phases(&plan))];
        let mut buf = Vec::new();
        write_with_sections(&mut buf, &meta(), records.chunks(128), &sections).expect("writes");
        assert_eq!(buf[4], VERSION);
        let (_, _, sections) = split_with_sections(&buf).expect("splits");
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].magic, SECTION_PHASES);
        assert_eq!(decode_phases(sections[0].body).expect("decodes"), plan);
        // The sequential reader accepts (and skips) the section.
        let (_, back) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(back, records);
    }

    #[test]
    fn decode_phases_rejects_malformed_bodies() {
        let body = encode_phases(&sample_plan());
        // Truncations inside the fixed fields, the count, and a phase.
        for cut in [0, 7, 20, 34, body.len() - 1] {
            assert!(decode_phases(&body[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Count/body length mismatch.
        let mut long = body.clone();
        long.extend_from_slice(&[0; 24]);
        let err = decode_phases(&long).unwrap_err();
        assert!(err.to_string().contains("declares"), "{err}");
        // A structurally invalid plan (weights not summing to the trace)
        // is rejected even though the bytes themselves are well-formed.
        let mut bad_plan = sample_plan();
        bad_plan.phases[1].cluster_records = 1;
        let err = decode_phases(&encode_phases(&bad_plan)).unwrap_err();
        assert!(err.to_string().contains("invalid phase plan"), "{err}");
    }

    #[test]
    fn rejects_overlong_varint() {
        // 11 continuation bytes: longer than any valid 64-bit varint.
        let payload = super::super::compress::store_payload(&[0xffu8; 11]);
        let info =
            ChunkInfo { offset: 0, len: 12, raw_len: 11, records: 1, checksum: fnv1a64(&payload) };
        let err = decode_chunk(&payload, &info).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");
    }

    fn compressed_container(n: u64, capacity: usize) -> (Vec<u8>, PcInterner) {
        let records = sample(n);
        let interner = interner_of(&records);
        let sections = [(SECTION_INTERNER, encode_interner(&interner))];
        let mut buf = Vec::new();
        write_compressed(&mut buf, &meta(), records.chunks(capacity), &sections).expect("writes");
        (buf, interner)
    }

    #[test]
    fn compressed_round_trips_records_sections_and_chunking() {
        let (buf, interner) = compressed_container(1000, 256);
        assert_eq!(buf[4], VERSION);
        let (header, records) = read(&mut buf.as_slice()).expect("reads");
        assert_eq!(records, sample(1000));
        assert_eq!(header.record_count, 1000);
        assert_eq!(header.chunks.len(), 4);
        assert!(header.chunks.iter().all(|c| c.len <= c.raw_len), "every chunk compresses");
        let (_, payload, sections) = split_with_sections(&buf).expect("splits");
        assert_eq!(payload.len() as u64, header.payload_len());
        assert_eq!(sections.len(), 1);
        assert_eq!(decode_interner(sections[0].body).expect("decodes"), interner);
        // Chunks still decode independently.
        let slice = chunk_payload(payload, &header.chunks[2]).expect("in bounds");
        assert_eq!(
            decode_chunk(slice, &header.chunks[2]).expect("decodes"),
            sample(1000)[512..768]
        );
    }

    #[test]
    fn compressed_is_smaller_than_stored_on_real_shaped_traces() {
        let records = sample(4000);
        let mut stored = Vec::new();
        write_with_sections(&mut stored, &meta(), records.chunks(512), &[]).expect("writes");
        let mut packed = Vec::new();
        write_compressed(&mut packed, &meta(), records.chunks(512), &[]).expect("writes");
        assert!(packed.len() < stored.len(), "{} should beat {}", packed.len(), stored.len());
    }

    #[test]
    fn compression_never_expands_a_chunk() {
        // High-entropy values defeat the LZ matcher; the stored fallback
        // makes the compressed container no larger than the stored one.
        let mut state = 0x9E37_79B9u64;
        let records: Vec<TraceRecord> = (0..600)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                TraceRecord::new(
                    Pc(state),
                    InstrCategory::from_index((i % 8) as usize).expect("valid"),
                    state.rotate_left(17),
                )
            })
            .collect();
        let mut stored = Vec::new();
        let hs =
            write_with_sections(&mut stored, &meta(), records.chunks(200), &[]).expect("writes");
        let mut packed = Vec::new();
        let hp = write_compressed(&mut packed, &meta(), records.chunks(200), &[]).expect("writes");
        assert_eq!(read(&mut packed.as_slice()).expect("reads").1, records);
        for (a, b) in hs.chunks.iter().zip(&hp.chunks) {
            assert!(b.len <= a.len, "chunk grew: {a:?} -> {b:?}");
        }
        assert!(packed.len() <= stored.len());
    }

    #[test]
    fn empty_compressed_trace_round_trips() {
        let mut buf = Vec::new();
        write_compressed(&mut buf, &meta(), std::iter::empty::<&[TraceRecord]>(), &[])
            .expect("writes");
        assert_eq!(buf[4], VERSION);
        let (header, records) = read(&mut buf.as_slice()).expect("reads");
        assert!(records.is_empty());
        assert_eq!(header.record_count, 0);
    }

    #[test]
    fn streamed_container_is_written_in_place_after_existing_bytes() {
        // The header is written last, by seeking back: a container begun
        // mid-stream lands after the bytes already there, equals the
        // buffered write byte for byte, and leaves the writer at its end.
        let (whole, interner) = compressed_container(1000, 96);
        let sections = [(SECTION_INTERNER, encode_interner(&interner))];
        let records = sample(1000);
        let mut cursor = Cursor::new(b"prefix".to_vec());
        cursor.set_position(6);
        let pending =
            write_payloads(&mut cursor, &meta(), records.chunks(96), true).expect("streams");
        let header = pending.finish(&mut cursor, &sections).expect("finishes");
        assert_eq!(cursor.position(), cursor.get_ref().len() as u64);
        assert_eq!(&cursor.get_ref()[..6], b"prefix");
        assert_eq!(&cursor.get_ref()[6..], whole.as_slice());
        assert_eq!(header.chunks.len(), 11);
        // Stored payloads stream the same way.
        let mut stored = Cursor::new(Vec::new());
        write_payloads(&mut stored, &meta(), records.chunks(96), false)
            .and_then(|pending| pending.finish(&mut stored, &[]))
            .expect("streams");
        assert_eq!(stored.into_inner(), container(1000, 96));
    }

    #[test]
    fn compressed_detects_payload_and_header_corruption() {
        let (buf, _) = compressed_container(600, 128);
        let (header, _, _) = split_with_sections(&buf).expect("splits");
        // Header byte.
        let mut bad = buf.clone();
        bad[14] ^= 0x01;
        assert!(read(&mut bad.as_slice()).is_err());
        // First byte of each compressed payload (the method byte) — caught
        // by the chunk checksum before any decompression runs.
        let (_, payload, _) = split_with_sections(&buf).expect("splits");
        // The payload slice borrows from `buf`; recover its start offset.
        let payload_offset = payload.as_ptr() as usize - buf.as_ptr() as usize;
        for chunk in &header.chunks {
            let mut bad = buf.clone();
            bad[payload_offset + chunk.offset as usize] ^= 0x80;
            let err = read(&mut bad.as_slice()).unwrap_err();
            assert!(err.to_string().contains("chunk checksum"), "{err}");
        }
        // Every single-bit flip of the version byte lands on an
        // unsupported version.
        for bit in 0..8 {
            let mut bad = buf.clone();
            bad[4] ^= 1 << bit;
            assert!(read(&mut bad.as_slice()).is_err(), "version flip bit {bit} accepted");
        }
    }

    /// Spec-conformance helper: builds a container byte by byte from
    /// `docs/TRACE_FORMAT.md` alone (28-byte index entries, independent FNV
    /// implementation), so hostile headers with *valid* checksums can be
    /// constructed.
    fn handcrafted_container(
        record_count: u64,
        chunk_capacity: u32,
        index: &[(u64, u32, u32, u32)], // (offset, len, raw_len, records)
        payload: &[u8],
    ) -> Vec<u8> {
        fn fnv(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        let mut tail = Vec::new();
        tail.extend_from_slice(&record_count.to_le_bytes());
        tail.extend_from_slice(&chunk_capacity.to_le_bytes());
        tail.extend_from_slice(&(index.len() as u32).to_le_bytes());
        tail.extend_from_slice(&0u64.to_le_bytes()); // retired
        tail.extend_from_slice(&0u64.to_le_bytes()); // predicted
        for _ in 0..3 {
            tail.extend_from_slice(&0u16.to_le_bytes()); // empty fp strings
        }
        tail.extend_from_slice(&0u64.to_le_bytes()); // seed
        tail.extend_from_slice(&0u32.to_le_bytes()); // scale
        tail.extend_from_slice(&0u64.to_le_bytes()); // record_cap
        for &(offset, len, raw_len, records) in index {
            tail.extend_from_slice(&offset.to_le_bytes());
            tail.extend_from_slice(&len.to_le_bytes());
            tail.extend_from_slice(&raw_len.to_le_bytes());
            tail.extend_from_slice(&records.to_le_bytes());
            let chunk =
                &payload[offset as usize..(offset as usize + len as usize).min(payload.len())];
            tail.extend_from_slice(&fnv(chunk).to_le_bytes());
        }
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DVPT\x04");
        bytes.extend_from_slice(&fnv(&tail).to_le_bytes());
        bytes.extend_from_slice(&tail);
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn handcrafted_stored_container_is_accepted() {
        // One chunk, one record (pc 0, category 0, value 0): raw encoding
        // is three zero bytes, stored payload is the method byte plus
        // those three bytes.
        let payload = [0u8, 0, 0, 0]; // METHOD_STORED + raw
        let bytes = handcrafted_container(1, 1, &[(0, 4, 3, 1)], &payload);
        let (header, records) = read(&mut bytes.as_slice()).expect("valid by the spec");
        assert_eq!(records, vec![TraceRecord::new(Pc(0), InstrCategory::ALL[0], 0)]);
        assert_eq!(header.record_count, 1);
        assert_eq!(header.chunks[0].raw_len, 3);
    }

    #[test]
    fn rejects_hostile_geometry_with_valid_checksums() {
        // raw_len below the 3-bytes-per-record floor.
        let payload = [0u8, 0, 0, 0];
        let hostile = handcrafted_container(2, 2, &[(0, 4, 3, 2)], &payload);
        let err = read(&mut hostile.as_slice()).unwrap_err();
        assert!(err.to_string().contains("at least 3 bytes"), "{err}");
        // Stored length exceeding raw_len + 1 (a conforming writer would
        // have stored the chunk raw).
        let payload = [0u8; 10];
        let hostile = handcrafted_container(1, 1, &[(0, 10, 3, 1)], &payload);
        let err = read(&mut hostile.as_slice()).unwrap_err();
        assert!(err.to_string().contains("method byte"), "{err}");
        // A stored body whose real length disagrees with raw_len.
        let payload = [0u8, 0, 0, 0]; // stored, 3 raw bytes
        let hostile = handcrafted_container(1, 1, &[(0, 4, 4, 1)], &payload);
        let err = read(&mut hostile.as_slice()).unwrap_err();
        assert!(err.to_string().contains("stored chunk body"), "{err}");
    }
}
