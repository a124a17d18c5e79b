//! Per-chunk payload framing of the version-4 container.
//!
//! A chunk payload is one *method* byte followed by the chunk body:
//!
//! ```text
//! offset  size   field
//! +0      1      method   0 = stored (body is the raw chunk encoding)
//!                         1 = LZ (body is a `minilz` stream)
//! +1      len−1  body
//! ```
//!
//! [`compress_payload`] picks whichever framing is smaller and
//! [`store_payload`] always stores, so a stored payload is exactly
//! `raw_len + 1` bytes and an LZ payload is strictly smaller than that —
//! which is what lets the header validator bound `len ≤ raw_len + 1`.
//! The chunk checksum in the index covers the *stored* bytes (method byte
//! included), so corruption is detected before any decompression work
//! happens.

use super::{format_err, TraceIoError};
use std::borrow::Cow;

/// Method byte of an uncompressed (stored) chunk body.
pub const METHOD_STORED: u8 = 0;
/// Method byte of a `minilz`-compressed chunk body.
pub const METHOD_LZ: u8 = 1;

/// Frames one raw chunk encoding as a stored payload: the
/// [`METHOD_STORED`] byte followed by the raw bytes.
#[must_use]
pub fn store_payload(raw: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(1 + raw.len());
    payload.push(METHOD_STORED);
    payload.extend_from_slice(raw);
    payload
}

/// Frames one raw chunk encoding as a v4 payload, compressing when that
/// is a net win and storing the raw bytes otherwise. The result is never
/// longer than `raw.len() + 1`.
#[must_use]
pub fn compress_payload(raw: &[u8]) -> Vec<u8> {
    let packed = minilz::compress(raw);
    if packed.len() < raw.len() {
        let mut payload = Vec::with_capacity(1 + packed.len());
        payload.push(METHOD_LZ);
        payload.extend_from_slice(&packed);
        payload
    } else {
        store_payload(raw)
    }
}

/// Recovers the raw chunk encoding from a v4 payload. `raw_len` is the
/// index entry's declared decoded length; the result is exactly that
/// long. A stored body is borrowed, never copied.
///
/// The decoder grows its output with the bytes actually produced, so a
/// hostile `raw_len` cannot force a large allocation.
///
/// # Errors
///
/// Returns a [`TraceIoError::Format`] for an empty payload, an unknown
/// method byte, a stored body whose length disagrees with `raw_len`, or
/// any malformed LZ stream (truncation, bad offsets, wrong decoded
/// length) — decoding never panics.
pub fn decompress_payload(payload: &[u8], raw_len: usize) -> Result<Cow<'_, [u8]>, TraceIoError> {
    let Some((&method, body)) = payload.split_first() else {
        return Err(format_err("compressed chunk payload is empty (missing method byte)"));
    };
    match method {
        METHOD_STORED => {
            if body.len() == raw_len {
                Ok(Cow::Borrowed(body))
            } else {
                Err(format_err(format!(
                    "stored chunk body is {} bytes, index declares {raw_len}",
                    body.len()
                )))
            }
        }
        METHOD_LZ => minilz::decompress(body, raw_len)
            .map(Cow::Owned)
            .map_err(|e| format_err(format!("chunk decompression failed: {e}"))),
        other => Err(format_err(format!("unknown chunk compression method {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repetitive_payloads_compress_and_round_trip() {
        let raw = b"delta delta delta delta ".repeat(50);
        let payload = compress_payload(&raw);
        assert_eq!(payload[0], METHOD_LZ);
        assert!(payload.len() < raw.len());
        assert_eq!(decompress_payload(&payload, raw.len()).expect("round trips"), raw);
    }

    #[test]
    fn incompressible_payloads_fall_back_to_stored() {
        // A pseudo-random body the greedy matcher cannot shrink.
        let mut state = 0x1234_5678_9abc_def0u64;
        let raw: Vec<u8> = (0..256)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect();
        let payload = compress_payload(&raw);
        assert_eq!(payload[0], METHOD_STORED);
        assert_eq!(payload.len(), raw.len() + 1);
        assert_eq!(decompress_payload(&payload, raw.len()).expect("round trips"), raw);
    }

    #[test]
    fn empty_payload_round_trips_as_stored() {
        let payload = compress_payload(&[]);
        assert_eq!(payload, [METHOD_STORED]);
        assert!(decompress_payload(&payload, 0).expect("round trips").is_empty());
    }

    #[test]
    fn hostile_payloads_error_instead_of_panicking() {
        assert!(decompress_payload(&[], 0).is_err(), "missing method byte");
        assert!(decompress_payload(&[7, 1, 2], 2).is_err(), "unknown method");
        assert!(decompress_payload(&[METHOD_STORED, 1, 2], 3).is_err(), "stored length lies");
        assert!(decompress_payload(&[METHOD_LZ, 0xFF], 10).is_err(), "torn LZ stream");
        // Single-byte flips of a valid payload must never panic.
        let raw = b"flip me flip me flip me ".repeat(20);
        let payload = compress_payload(&raw);
        for position in 0..payload.len() {
            let mut corrupt = payload.clone();
            corrupt[position] ^= 0xff;
            let _ = decompress_payload(&corrupt, raw.len());
        }
    }
}
