//! The streaming replay path's core guarantee, verified end-to-end: a
//! container replayed through the bounded chunk window — never holding
//! more than a few chunks in memory — produces tallies *byte-identical*
//! to the fully resident replay, at every worker count, shard count, and
//! window size, for containers with compressed and with stored chunks
//! alike. Corrupt streams must error out, never panic and never return
//! partial tallies.

use dvp::core::PredictorConfig;
use dvp::engine::{ConfigReplay, ReplayEngine, SharedTrace, SharedTraceBuilder};
use dvp::trace::io::v2;
use dvp::trace::InstrCategory;
use dvp::workloads::synthetic::{Scenario, ScenarioKind};

/// Records per chunk in the test containers — small enough that the trace
/// spans many more chunks than any window under test.
const CHUNK_LEN: usize = 1024;
/// Total records: 40 chunks, i.e. 10x the default window of 4 and 40x the
/// smallest window under test.
const RECORDS: usize = 40 * CHUNK_LEN;

fn scenario_trace() -> SharedTrace {
    let scenario = Scenario::new(ScenarioKind::Mixed, 96, (RECORDS / 96) as u32 + 1, 41);
    let mut builder = SharedTraceBuilder::with_chunk_len(CHUNK_LEN);
    scenario.generate_with(&mut |rec| {
        if builder.len() < RECORDS {
            builder.push(rec);
        }
    });
    builder.finish()
}

fn meta() -> v2::TraceMeta {
    v2::TraceMeta {
        fingerprint: v2::Fingerprint {
            workload: "stream".into(),
            input: "stream.ref".into(),
            opt_level: "O1".into(),
            seed: 41,
            scale: 1,
            record_cap: RECORDS as u64,
        },
        retired: RECORDS as u64,
        predicted: RECORDS as u64,
    }
}

fn container(trace: &SharedTrace, compressed: bool) -> Vec<u8> {
    let mut bytes = Vec::new();
    let sections = [(v2::SECTION_INTERNER, v2::encode_interner(trace.interner()))];
    let chunks = trace.chunks().iter().map(Vec::as_slice);
    if compressed {
        v2::write_compressed(&mut bytes, &meta(), chunks, &sections).expect("writes compressed");
    } else {
        v2::write_with_sections(&mut bytes, &meta(), chunks, &sections).expect("writes stored");
    }
    bytes
}

/// Every integer tally a replay produces, in a comparable shape: exact
/// per-category and overall (correct, predicted) counts per configuration.
fn tally_surface(replays: &[ConfigReplay]) -> Vec<(String, Vec<(u64, u64)>)> {
    replays
        .iter()
        .map(|replay| {
            let mut counts: Vec<(u64, u64)> = InstrCategory::ALL
                .iter()
                .map(|&cat| {
                    (replay.tracker.correct(Some(cat)), replay.tracker.predicted(Some(cat)))
                })
                .collect();
            counts.push((replay.tracker.correct(None), replay.tracker.predicted(None)));
            (replay.name.clone(), counts)
        })
        .collect()
}

#[test]
fn streaming_tallies_equal_resident_tallies_at_every_setting() {
    let trace = scenario_trace();
    let bank = PredictorConfig::paper_bank();
    let compressed = container(&trace, true);
    let stored = container(&trace, false);
    assert!(compressed.len() < stored.len(), "compressed container must be smaller");

    // The reference: a fully resident sequential replay.
    let reference_engine = ReplayEngine::sequential();
    let (_, resident) = reference_engine.load_trace(&compressed).expect("loads");
    let reference = tally_surface(&reference_engine.replay(&resident, &bank));

    // The trace spans far more chunks than any window below ever holds
    // resident, so the streaming path genuinely cycles the window.
    assert_eq!(trace.chunks().len(), RECORDS / CHUNK_LEN);
    let settings = [
        (ReplayEngine::new(), "default"),
        (ReplayEngine::new().with_workers(4), "4 workers"),
        (ReplayEngine::new().with_workers(1), "single worker"),
        (ReplayEngine::new().with_chunk_window(1), "window 1"),
        (ReplayEngine::new().with_workers(4).with_chunk_window(2), "window 2"),
        (ReplayEngine::new().with_workers(2).with_chunk_window(8), "window 8"),
    ];
    for (engine, label) in settings {
        for (bytes, encoding) in [(&compressed, "compressed"), (&stored, "stored")] {
            let (header, streamed) =
                engine.replay_streaming(bytes.as_slice(), &bank).expect("streams");
            assert_eq!(header.record_count as usize, RECORDS, "{label}/{encoding}");
            assert_eq!(
                tally_surface(&streamed),
                reference,
                "streaming tallies diverged at {label} on {encoding}"
            );
        }
    }
}

#[test]
fn corrupt_streams_error_instead_of_returning_partial_tallies() {
    let trace = scenario_trace();
    let bank = PredictorConfig::paper_bank();
    let bytes = container(&trace, true);
    let engine = ReplayEngine::new().with_workers(4);

    // A flipped byte deep in the payload: the replay must surface an
    // error even though earlier chunks already streamed through.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() * 3 / 4;
    corrupt[mid] ^= 0xff;
    let err = engine.replay_streaming(corrupt.as_slice(), &bank).unwrap_err();
    assert!(err.to_string().contains("chunk"), "unexpected error: {err}");

    // A stream cut mid-payload reports where it ended.
    let cut = &bytes[..bytes.len() - 200];
    assert!(engine.replay_streaming(cut, &bank).is_err());
}
