//! The result cache's isolation guarantee, hammered property-style: *no*
//! corruption of an on-disk entry may ever surface as a served payload.
//! Every flipped byte, truncation, or appended tail must be detected by
//! the container's framing (magic, version, lengths, FNV-1a checksum,
//! key echo) and answered with reject-and-recompute — never bad bytes.

use dvp_experiments::result_cache::{decode_entry, encode_entry, fnv1a64, ResultCache};
use proptest::prelude::*;
use std::path::PathBuf;

/// The engine epoch every entry in this suite is written and read under
/// (corruption detection must be epoch-independent).
const EPOCH: u64 = 0x00c0_ffee_0000_0001;

/// A unique, self-cleaning temp directory under the system temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("dvp-result-corrupt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const KEY: &str = "syn-stride|n2,d5,j0|syn|seed3|scale32|bank=l+s2|sample=0";
const PAYLOAD: &str = "replayed 64 records\nConfig  Predicted\nl  64\ns2  64\n";

/// Exhaustive single-byte-flip sweep (not sampled: every offset, a
/// deterministic XOR pattern) — the checksum must catch all of them.
#[test]
fn every_single_byte_flip_is_rejected() {
    let good = encode_entry(KEY, PAYLOAD, EPOCH);
    assert!(decode_entry(KEY, EPOCH, &good).is_ok(), "the untouched entry decodes");
    for offset in 0..good.len() {
        let mut bad = good.clone();
        bad[offset] ^= 0x5a;
        assert!(
            decode_entry(KEY, EPOCH, &bad).is_err(),
            "flipping byte {offset} of {} went undetected",
            good.len()
        );
    }
}

/// The reject reasons carry the byte offset and expected-vs-found values
/// (the trace-reader idiom): pin the exact wording per failure class.
#[test]
fn reject_reasons_carry_offsets_and_expected_vs_found() {
    let good = encode_entry(KEY, PAYLOAD, EPOCH);

    let err = decode_entry(KEY, EPOCH, &good[..10]).unwrap_err();
    assert_eq!(err, "entry too short: 10 bytes on disk, at least 29 required");

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    let err = decode_entry(KEY, EPOCH, &bad_magic).unwrap_err();
    assert_eq!(err, "bad magic at offset 0: expected [44, 56, 50, 52], found [58, 56, 50, 52]");

    // Every version but the current one, the retired pre-epoch 1
    // included, is refused with the same reason.
    for version in [1u8, 9] {
        let mut other = good.clone();
        other[4] = version;
        let err = decode_entry(KEY, EPOCH, &other).unwrap_err();
        assert_eq!(err, format!("unsupported version at offset 4: expected 2, found {version}"));
    }

    let mut truncated = good.clone();
    truncated.truncate(good.len() - 3);
    let err = decode_entry(KEY, EPOCH, &truncated).unwrap_err();
    assert_eq!(
        err,
        format!(
            "length mismatch: {} bytes on disk, {} declared \
             (key_len {} at offset 13, payload_len {} at offset 17)",
            good.len() - 3,
            good.len(),
            KEY.len(),
            PAYLOAD.len()
        )
    );

    let mut flipped = good.clone();
    let payload_mid = 21 + KEY.len() + PAYLOAD.len() / 2;
    flipped[payload_mid] ^= 0x01;
    let err = decode_entry(KEY, EPOCH, &flipped).unwrap_err();
    let body_end = good.len() - 8;
    assert!(err.starts_with(&format!("checksum mismatch at offset {body_end}: stored ")), "{err}");
    let stored = fnv1a64(&good[..body_end]);
    assert!(err.contains(&format!("stored {stored:016x}")), "{err}");

    // Staleness is judged only after the checksum passes, so an intact
    // entry from another build reports as stale — never as corrupt.
    let err = decode_entry(KEY, EPOCH + 1, &good).unwrap_err();
    assert_eq!(
        err,
        format!("stale engine epoch at offset 5: entry {EPOCH:016x}, current {:016x}", EPOCH + 1)
    );

    let err = decode_entry("other|key", EPOCH, &encode_entry(KEY, PAYLOAD, EPOCH)).unwrap_err();
    assert_eq!(
        err,
        format!("key mismatch at offset 21: entry holds `{KEY}`, expected `other|key`")
    );
}

/// Every proper prefix is rejected: torn writes can never serve.
#[test]
fn every_truncation_is_rejected() {
    let good = encode_entry(KEY, PAYLOAD, EPOCH);
    for len in 0..good.len() {
        assert!(
            decode_entry(KEY, EPOCH, &good[..len]).is_err(),
            "truncating to {len} of {} went undetected",
            good.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random multi-byte corruption of random payloads is rejected, and
    /// recomputing (re-inserting) over the damaged file fully recovers:
    /// the rewritten entry decodes to the new payload.
    #[test]
    fn random_corruption_is_rejected_and_recomputable(
        seed in any::<u64>(),
        payload_len in 1usize..512,
        flips in 1usize..8,
    ) {
        // A seeded xorshift keeps the generated payload and the damage
        // deterministic per case.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let payload: String =
            (0..payload_len).map(|_| char::from(b' ' + (next() % 95) as u8)).collect();
        let good = encode_entry(KEY, &payload, EPOCH);
        prop_assert_eq!(decode_entry(KEY, EPOCH, &good).unwrap(), payload.clone());

        let mut bad = good.clone();
        for _ in 0..flips {
            let offset = (next() % bad.len() as u64) as usize;
            let mask = (next() % 255) as u8 + 1; // never a zero mask
            bad[offset] ^= mask;
        }
        if bad != good {
            prop_assert!(decode_entry(KEY, EPOCH, &bad).is_err());
        }

        // Trailing junk after a valid entry is also rejected (the header
        // lengths must account for every byte in the file).
        let mut tail = good.clone();
        tail.extend_from_slice(&next().to_le_bytes()[..1 + (next() % 7) as usize]);
        prop_assert!(decode_entry(KEY, EPOCH, &tail).is_err());
    }
}

/// End-to-end reject-and-recompute through the cache itself: damage the
/// on-disk entry every way at once, watch a fresh cache miss (never serve
/// the damage), then recompute and serve the fresh payload.
#[test]
fn damaged_disk_entries_miss_then_recompute() {
    let dir = TempDir::new("recompute");
    let mut writer = ResultCache::new(4).with_dir(&dir.0);
    writer.insert(KEY, PAYLOAD);
    let path = writer.path_for(KEY).expect("disk tier configured");

    for damage in ["flip", "truncate", "append"] {
        let mut bytes = std::fs::read(&path).expect("entry written");
        match damage {
            "flip" => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
            }
            "truncate" => bytes.truncate(bytes.len() - 3),
            _ => bytes.extend_from_slice(b"junk"),
        }
        std::fs::write(&path, &bytes).expect("plant damage");

        // A fresh cache (cold memory tier) must reject the damaged entry…
        let mut reader = ResultCache::new(4).with_dir(&dir.0);
        assert_eq!(reader.get(KEY), None, "{damage}: damaged entry served");
        assert_eq!(reader.stats().invalid, 1, "{damage}: rejection not counted");

        // …and recomputing through it must fully recover the key.
        reader.insert(KEY, PAYLOAD);
        assert_eq!(reader.get(KEY).as_deref(), Some(PAYLOAD), "{damage}: recompute lost");

        let mut again = ResultCache::new(4).with_dir(&dir.0);
        assert_eq!(again.get(KEY).as_deref(), Some(PAYLOAD), "{damage}: rewrite not durable");
    }
}
