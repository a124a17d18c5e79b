//! Property tests over the persisted trace container (version 4): its
//! stored-chunk and compressed-chunk encodings must agree record-for-record
//! on any trace, and both must detect every corruption a single byte flip,
//! a truncation, trailing bytes, or a stale fingerprint can produce.
//!
//! The byte layout under test is specified in `docs/TRACE_FORMAT.md`.

use dvp_trace::io::v2;
use dvp_trace::{InstrCategory, Pc, PhasePlan, SimPointPhase, TraceRecord};
use proptest::collection::vec;
use proptest::prelude::*;

fn record() -> impl Strategy<Value = TraceRecord> {
    // Mix realistic 4-aligned code addresses with arbitrary ones, and
    // values across the whole varint length spectrum.
    let pc = prop_oneof![(0u64..1 << 20).prop_map(|i| 0x40_0000 + 4 * i), any::<u64>(),];
    let value = prop_oneof![0u64..256, any::<u64>()];
    (pc, 0usize..InstrCategory::ALL.len(), value).prop_map(|(pc, cat, value)| {
        TraceRecord::new(Pc(pc), InstrCategory::from_index(cat).expect("valid index"), value)
    })
}

fn records() -> impl Strategy<Value = Vec<TraceRecord>> {
    vec(record(), 0..400)
}

fn meta_for(records: &[TraceRecord]) -> v2::TraceMeta {
    v2::TraceMeta {
        fingerprint: v2::Fingerprint {
            workload: "prop".into(),
            input: "prop.ref".into(),
            opt_level: "O1".into(),
            seed: 7,
            scale: 3,
            record_cap: u64::MAX,
        },
        retired: records.len() as u64 * 3,
        predicted: records.len() as u64,
    }
}

/// A structurally valid phase plan for an `n`-record trace: `phases`
/// distinct windows of `window` records, the trace's record count split
/// across their clusters. Mirrors what `dvp-engine`'s planner emits
/// without depending on it (the dependency points the other way).
fn plan_for(n: usize, window: u64, phases: usize) -> PhasePlan {
    let n = n as u64;
    let windows = n.div_ceil(window).max(1);
    let k = (phases as u64).clamp(1, windows);
    let share = n / k;
    let plan_phases = (0..k)
        .map(|i| {
            // Spread representatives across the trace; give the first
            // phase whatever the even split leaves over.
            let w = i * windows / k;
            SimPointPhase {
                cluster_records: if i == 0 { n - share * (k - 1) } else { share },
                start: w * window,
                end: ((w + 1) * window).min(n),
            }
        })
        .collect();
    let plan = PhasePlan {
        window_records: window,
        warmup_records: window,
        seed: 0x7A5E_5EED,
        total_records: n,
        phases: plan_phases,
    };
    plan.validate().expect("handmade plan is valid");
    plan
}

/// A container with every chunk stored raw (method byte 0).
fn stored_bytes(records: &[TraceRecord], chunk_capacity: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    v2::write_with_sections(&mut buf, &meta_for(records), records.chunks(chunk_capacity), &[])
        .expect("stored writes");
    buf
}

/// A container with every chunk the LZ codec shrinks compressed.
fn compressed_bytes(records: &[TraceRecord], chunk_capacity: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    v2::write_compressed(&mut buf, &meta_for(records), records.chunks(chunk_capacity), &[])
        .expect("compressed writes");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The encoding equivalence: any trace round-trips identically through
    // stored and compressed chunks at any chunk capacity, so compressing
    // the cache can never change an experiment.
    #[test]
    fn stored_and_compressed_round_trips_agree(case in (records(), 1usize..700)) {
        let (records, capacity) = case;
        let (stored_header, via_stored) =
            v2::read(&mut stored_bytes(&records, capacity).as_slice()).expect("stored reads");
        let (header, via_compressed) = v2::read(&mut compressed_bytes(&records, capacity).as_slice())
            .expect("compressed reads");
        prop_assert_eq!(&via_stored, &records);
        prop_assert_eq!(&via_compressed, &records);
        prop_assert_eq!(header.record_count, stored_header.record_count);
        prop_assert_eq!(header.record_count as usize, records.len());
        prop_assert_eq!(header.meta, meta_for(&records));
        prop_assert_eq!(header.chunks.len(), records.len().div_ceil(capacity));
    }

    // Every single-byte corruption of a stored-chunk container is
    // detected: the header (including the chunk index) is covered by the
    // header checksum, each payload (method byte included) by its chunk
    // checksum, the magic by a direct comparison, and every flip of the
    // version byte lands on an unsupported version.
    #[test]
    fn stored_detects_any_single_byte_flip(
        case in (vec(record(), 1..200), any::<u64>()),
        bit in 0u8..8,
    ) {
        let (records, flip) = case;
        let bytes = stored_bytes(&records, 64);
        let position = (flip % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 1 << bit;
        prop_assert!(
            v2::read(&mut corrupt.as_slice()).is_err(),
            "flip of bit {} at byte {} went undetected",
            bit,
            position
        );
    }

    // Any truncation of a stored-chunk container is detected, at every
    // prefix length.
    #[test]
    fn stored_detects_any_truncation(case in (vec(record(), 1..150), any::<u64>())) {
        let (records, cut) = case;
        let bytes = stored_bytes(&records, 32);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(v2::read(&mut bytes[..cut].as_ref()).is_err(), "cut at {} accepted", cut);
    }

    // Any appended bytes are detected: they must parse as a checksummed
    // section frame, and junk never does.
    #[test]
    fn stored_detects_trailing_bytes(case in (records(), vec(any::<u8>(), 1..40))) {
        let (records, junk) = case;
        let mut bytes = stored_bytes(&records, 64);
        bytes.extend_from_slice(&junk);
        let err = v2::read(&mut bytes.as_slice()).unwrap_err();
        prop_assert!(err.to_string().contains("section"), "{}", err);
    }

    // Every single-byte corruption of a compressed container is detected:
    // chunk checksums cover the stored (compressed) bytes and the method
    // byte, the header checksum covers the 28-byte index entries.
    #[test]
    fn compressed_detects_any_single_byte_flip(
        case in (vec(record(), 1..200), any::<u64>()),
        bit in 0u8..8,
    ) {
        let (records, flip) = case;
        let bytes = compressed_bytes(&records, 64);
        let position = (flip % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 1 << bit;
        prop_assert!(
            v2::read(&mut corrupt.as_slice()).is_err(),
            "flip of bit {} at byte {} of a compressed container went undetected",
            bit,
            position
        );
    }

    // Any truncation of a compressed container is detected, at every
    // prefix length — a payload cut lands inside a compressed chunk
    // (stored-byte checksum or decompression failure), a header cut inside
    // the index.
    #[test]
    fn compressed_detects_any_truncation(case in (vec(record(), 1..150), any::<u64>())) {
        let (records, cut) = case;
        let bytes = compressed_bytes(&records, 32);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(v2::read(&mut bytes[..cut].as_ref()).is_err(), "cut at {} accepted", cut);
    }

    // Any appended bytes are detected: injected junk must fail to parse as
    // a checksummed section frame.
    #[test]
    fn compressed_detects_trailing_bytes(case in (records(), vec(any::<u8>(), 1..40))) {
        let (records, junk) = case;
        let mut bytes = compressed_bytes(&records, 64);
        bytes.extend_from_slice(&junk);
        prop_assert!(
            v2::read(&mut bytes.as_slice()).is_err(),
            "{} trailing bytes accepted after a compressed container",
            junk.len()
        );
    }

    // A `PHAS` section round-trips a phase plan exactly through both the
    // stored and compressed encodings, and the same trace
    // written *without* the section stays loadable with identical
    // records — the section is additive, never load-bearing.
    #[test]
    fn phas_section_round_trips_and_stays_optional(
        case in (vec(record(), 1..200), 8u64..64, 1usize..5),
    ) {
        let (records, window, phases) = case;
        let plan = plan_for(records.len(), window, phases);
        prop_assert_eq!(
            &v2::decode_phases(&v2::encode_phases(&plan)).expect("encoded plans decode"),
            &plan
        );
        let meta = meta_for(&records);
        let sections = [(v2::SECTION_PHASES, v2::encode_phases(&plan))];
        for compress in [false, true] {
            let mut with = Vec::new();
            let mut without = Vec::new();
            if compress {
                v2::write_compressed(&mut with, &meta, records.chunks(64), &sections)
                    .expect("writes");
                v2::write_compressed(&mut without, &meta, records.chunks(64), &[])
                    .expect("writes");
            } else {
                v2::write_with_sections(&mut with, &meta, records.chunks(64), &sections)
                    .expect("writes");
                v2::write_with_sections(&mut without, &meta, records.chunks(64), &[])
                    .expect("writes");
            }
            let (_, _, found) = v2::split_with_sections(&with).expect("sectioned reads");
            let body = found
                .iter()
                .find(|s| s.magic == v2::SECTION_PHASES)
                .expect("PHAS section present");
            prop_assert_eq!(&v2::decode_phases(body.body).expect("stored plans decode"), &plan);
            let (_, read_with) = v2::read(&mut with.as_slice()).expect("reads with PHAS");
            let (_, read_without) = v2::read(&mut without.as_slice()).expect("reads without");
            prop_assert_eq!(&read_with, &records);
            prop_assert_eq!(read_with, read_without);
        }
    }

    // Every single-byte flip of a container carrying a `PHAS` section is
    // rejected — the section frame checksum covers the plan bytes, so a
    // corrupted plan can never weight a sampled replay.
    #[test]
    fn phas_single_byte_flip_is_always_rejected(
        case in (vec(record(), 1..120), any::<u64>(), any::<bool>()),
        bit in 0u8..8,
    ) {
        let (records, flip, compress) = case;
        let plan = plan_for(records.len(), 16, 3);
        let meta = meta_for(&records);
        let sections = [(v2::SECTION_PHASES, v2::encode_phases(&plan))];
        let mut bytes = Vec::new();
        if compress {
            v2::write_compressed(&mut bytes, &meta, records.chunks(32), &sections)
                .expect("writes");
        } else {
            v2::write_with_sections(&mut bytes, &meta, records.chunks(32), &sections)
                .expect("writes");
        }
        let position = (flip % bytes.len() as u64) as usize;
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 1 << bit;
        prop_assert!(
            v2::read(&mut corrupt.as_slice()).is_err(),
            "flip of bit {} at byte {} of a PHAS-bearing container went undetected",
            bit,
            position
        );
    }

    // Truncations and trailing junk around the section region are torn
    // frames, not silently shorter plans.
    #[test]
    fn phas_truncation_and_trailing_junk_are_rejected(
        case in (vec(record(), 1..120), any::<u64>(), vec(any::<u8>(), 1..40)),
    ) {
        let (records, cut, junk) = case;
        let plan = plan_for(records.len(), 16, 2);
        let sections = [(v2::SECTION_PHASES, v2::encode_phases(&plan))];
        let mut bytes = Vec::new();
        v2::write_with_sections(&mut bytes, &meta_for(&records), records.chunks(32), &sections)
            .expect("writes");
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(v2::read(&mut &bytes[..cut]).is_err(), "cut at {} accepted", cut);
        let mut extended = bytes.clone();
        extended.extend_from_slice(&junk);
        prop_assert!(
            v2::read(&mut extended.as_slice()).is_err(),
            "{} junk bytes after the PHAS section accepted",
            junk.len()
        );
    }

    // `decode_phases` on arbitrary (unchecksummed) body corruption never
    // yields a structurally invalid plan: every decode either errors or
    // passes `PhasePlan::validate`, so even a caller that skips the frame
    // checksum cannot obtain mis-weighted phases.
    #[test]
    fn phas_body_corruption_never_yields_an_invalid_plan(
        case in (1usize..200, 8u64..64, 1usize..5, any::<u64>()),
        bit in 0u8..8,
    ) {
        let (n, window, phases, flip) = case;
        let mut body = v2::encode_phases(&plan_for(n, window, phases));
        let position = (flip % body.len() as u64) as usize;
        body[position] ^= 1 << bit;
        if let Ok(plan) = v2::decode_phases(&body) {
            plan.validate().expect("decoded plans always validate");
        }
    }

    // A fingerprint mismatch is always observable: the stored fingerprint
    // survives the round trip exactly, so a cache can compare it against
    // the configuration it expects.
    #[test]
    fn fingerprint_survives_round_trip(records in records(), scale in 1u32..100) {
        let mut meta = meta_for(&records);
        meta.fingerprint.scale = scale;
        let mut bytes = Vec::new();
        v2::write_compressed(&mut bytes, &meta, records.chunks(128), &[]).expect("writes");
        let (header, _) = v2::read(&mut bytes.as_slice()).expect("reads");
        prop_assert_eq!(&header.meta.fingerprint, &meta.fingerprint);
        let mut stale = meta.fingerprint.clone();
        stale.scale += 1;
        prop_assert_ne!(header.meta.fingerprint, stale);
    }
}

/// Overwrites one `u32` field of the only index entry of a single-chunk
/// container and re-seals the header checksum, as a forger would: FNV-1a
/// is no authentication, so a hostile header always checksums.
fn forge_index_field(bytes: &mut [u8], field_at: usize, value: u32) {
    let header = v2::read_header(&mut &bytes[..]).expect("valid before forging");
    let header_end = bytes.len() - header.chunks[0].len as usize;
    let field = header_end - 28 + field_at;
    bytes[field..field + 4].copy_from_slice(&value.to_le_bytes());
    let checksum = bytes[13..header_end].iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes[5..13].copy_from_slice(&checksum.to_le_bytes());
}

// A one-record chunk whose index entry declares ~4 GiB of payload must be
// rejected by header validation, naming the chunk, before any reader sizes
// a buffer from it, in either encoding: a forged decoded `raw_len` (offset
// 12 of the 28-byte entry) breaks the per-record bound, a forged stored
// `len` (offset 8) the `len ≤ raw_len + 1` bound.
#[test]
fn forged_chunk_length_is_rejected_before_allocating() {
    let one = [TraceRecord::new(Pc(0x40_0000), InstrCategory::ALL[0], 7)];
    for bytes in [stored_bytes(&one, 1), compressed_bytes(&one, 1)] {
        for (field_at, names) in [(12, "at most 21 bytes"), (8, "method byte")] {
            let mut forged = bytes.clone();
            forge_index_field(&mut forged, field_at, u32::MAX - 15);
            let err = v2::read_header(&mut forged.as_slice()).unwrap_err().to_string();
            assert!(err.contains("chunk 0") && err.contains(names), "{err}");
            assert!(v2::read(&mut forged.as_slice()).is_err());
        }
    }
}
