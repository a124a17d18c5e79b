//! A container of a retired version, end to end: the trace cache
//! classifies it invalid, never serves it, regenerates it as version 4,
//! and `repro trace verify` names the version and fails.
//!
//! The fixture `fixtures/trace-gen-v3.dvpt` is a real version-3 container
//! (uncompressed chunks plus `PCIN` and `PHAS` sections), as an older
//! build's `repro trace gen --records 200 --pcs 8` wrote it.

use dvp_engine::ReplayEngine;
use dvp_experiments::cache::{CacheLookup, TraceCache};
use dvp_experiments::TraceStore;
use dvp_trace::io::{v2, TraceIoError};
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use std::path::PathBuf;
use std::process::Command;

const FIXTURE: &[u8] = include_bytes!("fixtures/trace-gen-v3.dvpt");

/// What `repro trace gen --records 200 --pcs 8` generates (seed 1).
const RECORDS: usize = 200;

fn scenario() -> Scenario {
    Scenario::new(ScenarioKind::Mixed, 8, 25, 1)
}

/// A unique, self-cleaning temp dir under the system temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dvp-old-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn version_3_container_is_invalid_regenerated_and_never_served() {
    assert_eq!((FIXTURE.len(), FIXTURE[4]), (2072, 3), "the fixture is the version-3 file");
    let tmp = TempDir::new("regenerate");
    let cache = TraceCache::new(&tmp.0);
    let fingerprint = scenario().fingerprint(Some(RECORDS));
    let path = cache.path_for(&fingerprint);
    std::fs::write(&path, FIXTURE).expect("plants the fixture");
    let engine = ReplayEngine::sequential();

    match cache.lookup(&engine, &fingerprint) {
        CacheLookup::Invalid(why) => {
            assert!(why.contains("unsupported container version 3"), "{why}");
        }
        other => panic!("a version-3 container must be invalid, got {other:?}"),
    }
    let err = TraceCache::read_phase_plan(&path).unwrap_err();
    assert!(matches!(err, TraceIoError::UnsupportedVersion(3)), "{err}");

    // The store counts the file invalid, simulates, and rewrites it as v4.
    let mut store = TraceStore::new().with_record_cap(RECORDS).with_trace_dir(&tmp.0);
    let traces = store.synthetic_traces(&[scenario()]);
    assert_eq!(traces[0].to_vec(), scenario().records()[..RECORDS]);
    let stats = store.cache_stats();
    assert_eq!((stats.invalid, stats.simulated, stats.written, stats.disk_hits), (1, 1, 1, 0));
    assert_eq!(std::fs::read(&path).expect("rewritten")[4], v2::VERSION);

    match cache.lookup(&engine, &fingerprint) {
        CacheLookup::Hit(_, trace, _) => assert_eq!(trace.to_vec(), traces[0].to_vec()),
        other => panic!("the regenerated container must hit, got {other:?}"),
    }
    assert!(TraceCache::read_phase_plan(&path).expect("v4 reads").is_some());
}

#[test]
fn trace_verify_names_the_version_and_fails() {
    let tmp = TempDir::new("verify");
    std::fs::write(tmp.0.join("old.dvpt"), FIXTURE).expect("plants the fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["trace", "verify", "--trace-dir"])
        .arg(&tmp.0)
        .output()
        .expect("repro spawns");
    assert!(!out.status.success(), "verify must fail on a version-3 container");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL old.dvpt: unsupported container version 3"), "{stdout}");
}
