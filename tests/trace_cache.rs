//! The persistent trace cache's core guarantee, verified end-to-end on
//! real workloads: a trace served from the disk tier is *identical* to a
//! freshly simulated one — same records, same run totals, and therefore
//! byte-identical rendered experiment output — and a warm store performs
//! zero simulation.

use dvp::engine::ReplayEngine;
use dvp::experiments::cache::{CacheLookup, TraceCache};
use dvp::experiments::{sensitivity, TraceStore, REFERENCE_OPT};
use dvp::workloads::Benchmark;
use std::path::PathBuf;

/// A unique, self-cleaning temp directory under the system temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("dvp-trace-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small store configuration shared by every test in this file.
fn store(dir: &TempDir) -> TraceStore {
    TraceStore::with_scale_div(1000).with_record_cap(20_000).with_trace_dir(&dir.0)
}

#[test]
fn cold_and_warm_stores_serve_identical_traces() {
    let dir = TempDir::new("cold-warm");
    let benchmarks = [Benchmark::M88k, Benchmark::Compress, Benchmark::Xlisp];
    let engine = ReplayEngine::new().with_workers(2);

    // Cold: simulate, write through.
    let mut cold = store(&dir);
    cold.prefetch(&engine, &benchmarks).expect("cold prefetch");
    let cold_stats = cold.cache_stats();
    assert_eq!(cold_stats.simulated, 3, "cold run simulates everything");
    assert_eq!(cold_stats.written, 3, "every simulated trace persists");
    assert_eq!(cold_stats.disk_hits, 0);

    // Warm: a fresh process (store) with the same configuration loads from
    // disk — zero simulation — and serves identical data.
    let mut warm = store(&dir);
    warm.prefetch(&engine, &benchmarks).expect("warm prefetch");
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.simulated, 0, "warm run must not simulate");
    assert_eq!(warm_stats.disk_hits, 3);
    assert_eq!(warm_stats.invalid, 0);
    for benchmark in benchmarks {
        let a = cold.trace(benchmark).expect("cold trace");
        let b = warm.trace(benchmark).expect("warm trace");
        assert_eq!(a.to_vec(), b.to_vec(), "{benchmark}: records must match exactly");
        assert_eq!(
            cold.retired(benchmark).unwrap(),
            warm.retired(benchmark).unwrap(),
            "{benchmark}: retired totals come from the container header"
        );
        assert_eq!(cold.predicted(benchmark).unwrap(), warm.predicted(benchmark).unwrap());
    }
}

#[test]
fn warm_lazy_trace_equals_cold_without_any_engine() {
    let dir = TempDir::new("lazy");
    let mut cold = store(&dir);
    let fresh = cold.trace(Benchmark::Go).expect("simulates");
    assert_eq!(cold.cache_stats().simulated, 1);

    let mut warm = store(&dir);
    let cached = warm.trace(Benchmark::Go).expect("loads");
    assert_eq!(warm.cache_stats().simulated, 0);
    assert_eq!(warm.cache_stats().disk_hits, 1);
    assert_eq!(cached.to_vec(), fresh.to_vec());
}

#[test]
fn a_store_on_a_parallel_engine_loads_the_same_warm_trace() {
    // The store decodes disk hits on its own engine: a two-worker store
    // serves the warm trace byte-identical to a sequential store's.
    let dir = TempDir::new("store-engine");
    let fresh = store(&dir).trace(Benchmark::M88k).expect("simulates");
    let mut sequential = store(&dir);
    let mut parallel = store(&dir).with_engine(ReplayEngine::new().with_workers(2));
    let a = sequential.trace(Benchmark::M88k).expect("sequential load");
    let b = parallel.trace(Benchmark::M88k).expect("parallel load");
    assert_eq!(a.to_vec(), fresh.to_vec());
    assert_eq!(b.to_vec(), a.to_vec());
    assert_eq!(b.interner(), a.interner());
    let stats = parallel.cache_stats();
    assert_eq!((stats.disk_hits, stats.simulated), (1, 0));
}

#[test]
fn cache_hit_output_equals_cache_miss_output() {
    // The acceptance pin: a rendered experiment table must be byte-equal
    // whether its traces were simulated (cache miss) or loaded (cache
    // hit). Table 6 exercises the variant-trace path through the disk
    // tier on five real cc inputs.
    let dir = TempDir::new("pinned-output");
    let engine = ReplayEngine::new();

    let mut miss_store = store(&dir);
    let miss = sensitivity::table6(&mut miss_store, &engine).expect("cold table6");
    assert_eq!(miss_store.cache_stats().simulated, 5, "five cc inputs simulated");

    let mut hit_store = store(&dir);
    let hit = sensitivity::table6(&mut hit_store, &engine).expect("warm table6");
    assert_eq!(hit_store.cache_stats().simulated, 0, "warm table6 must not simulate");
    assert_eq!(hit_store.cache_stats().disk_hits, 5);

    assert_eq!(miss.render(), hit.render(), "cache hit must not change a single byte");

    // And a no-cache store agrees too: the disk tier is invisible in the
    // results, exactly like the engine's parallelism.
    let mut plain = TraceStore::with_scale_div(1000).with_record_cap(20_000);
    let uncached = sensitivity::table6(&mut plain, &engine).expect("uncached table6");
    assert_eq!(uncached.render(), miss.render());
}

#[test]
fn sensitivity_variants_reuse_the_memoized_reference_trace() {
    // Table 6's reference input and Table 7's reference level have the
    // fingerprint of cc's benchmark trace: once that trace is in memory,
    // neither table simulates it again (7 = cc + four other inputs + two
    // other levels, where re-simulating cc twice would give 9), and the
    // tables are byte-equal to a fresh store's.
    let engine = ReplayEngine::new();
    let mut warm = TraceStore::with_scale_div(1000).with_record_cap(20_000);
    warm.prefetch(&engine, &[Benchmark::Cc]).expect("prefetch cc");
    let table6 = sensitivity::table6(&mut warm, &engine).expect("table6");
    let table7 = sensitivity::table7(&mut warm, &engine).expect("table7");
    assert_eq!(warm.cache_stats().simulated, 7);

    let mut fresh = TraceStore::with_scale_div(1000).with_record_cap(20_000);
    assert_eq!(table6.render(), sensitivity::table6(&mut fresh, &engine).expect("t6").render());
    assert_eq!(table7.render(), sensitivity::table7(&mut fresh, &engine).expect("t7").render());
}

#[test]
fn persisted_interner_section_equals_fresh_interning_on_real_workloads() {
    // The container's optional interner section exists so warm loads can
    // skip the sequential interning pass; it must reproduce the exact
    // symbol table (and per-record dense ids) that fresh interning of the
    // simulated trace builds.
    let dir = TempDir::new("interner-section");
    let engine = ReplayEngine::new().with_workers(2);
    let benchmarks = [Benchmark::Ijpeg, Benchmark::M88k];

    let mut cold = store(&dir);
    cold.prefetch(&engine, &benchmarks).expect("cold prefetch");
    let mut warm = store(&dir);
    warm.prefetch(&engine, &benchmarks).expect("warm prefetch");
    assert_eq!(warm.cache_stats().simulated, 0);
    assert_eq!(warm.cache_stats().disk_hits, benchmarks.len() as u64);

    for benchmark in benchmarks {
        let fresh = cold.trace(benchmark).expect("cold trace");
        let loaded = warm.trace(benchmark).expect("warm trace");
        assert_eq!(loaded.interner(), fresh.interner(), "{benchmark}: symbol tables differ");
        assert!(!fresh.interner().is_empty(), "{benchmark}: non-trivial trace expected");
        for ((fresh_rec, fresh_id), (loaded_rec, loaded_id)) in
            fresh.iter_with_ids().zip(loaded.iter_with_ids())
        {
            assert_eq!(fresh_rec, loaded_rec, "{benchmark}");
            assert_eq!(fresh_id, loaded_id, "{benchmark}: dense ids diverged");
        }
    }
}

#[test]
fn synthetic_cold_and_warm_serve_identical_traces_including_interner() {
    // Synthetic scenarios persist through the same container tier as
    // simulated workloads: a warm load must be byte-identical to cold
    // generation — records, run totals, and the symbol table rebuilt from
    // the persisted `PCIN` interner section (dense ids included).
    use dvp::workloads::synthetic::{Scenario, ScenarioKind};
    let dir = TempDir::new("synthetic");
    let engine = ReplayEngine::new().with_workers(2);
    let scenarios = [
        Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 6, 2000, 11),
        Scenario::new(ScenarioKind::Chase { heap: 32 }, 4, 1500, 12),
    ];

    let mut cold = store(&dir).with_engine(engine.clone());
    let fresh = cold.synthetic_traces(&scenarios);
    assert_eq!(cold.cache_stats().simulated, 2, "cold run generates everything");
    assert_eq!(cold.cache_stats().written, 2, "every generated trace persists");

    let mut warm = store(&dir).with_engine(engine.clone());
    let loaded = warm.synthetic_traces(&scenarios);
    assert_eq!(warm.cache_stats().simulated, 0, "warm run must not generate");
    assert_eq!(warm.cache_stats().disk_hits, 2);
    assert_eq!(warm.cache_stats().invalid, 0);
    for ((scenario, a), b) in scenarios.iter().zip(&fresh).zip(&loaded) {
        assert_eq!(a.to_vec(), b.to_vec(), "{scenario}: records must match exactly");
        assert_eq!(a.interner(), b.interner(), "{scenario}: persisted interner diverged");
        assert!(!a.interner().is_empty(), "{scenario}: non-trivial trace expected");
        for ((fresh_rec, fresh_id), (loaded_rec, loaded_id)) in
            a.iter_with_ids().zip(b.iter_with_ids())
        {
            assert_eq!(fresh_rec, loaded_rec, "{scenario}");
            assert_eq!(fresh_id, loaded_id, "{scenario}: dense ids diverged");
        }
    }

    // A reseeded scenario is a different fingerprint: clean miss, fresh
    // generation — never a stale hit.
    let reseeded = Scenario::new(ScenarioKind::Chase { heap: 32 }, 4, 1500, 99);
    let mut other = store(&dir).with_engine(engine);
    let regenerated = other.synthetic_traces(&[reseeded]);
    assert_eq!(other.cache_stats().simulated, 1);
    assert_ne!(regenerated[0].to_vec(), fresh[1].to_vec(), "reseeding must change the stream");
}

#[test]
fn compressed_and_stored_containers_agree_and_compressed_is_smaller() {
    // Compression is an encoding decision, never a semantic one: each
    // benchmark's container as the cache writes it (compressed) and the
    // same trace re-encoded with every chunk stored raw must load
    // identical traces — and the cache's container must actually be
    // smaller on disk, for all seven.
    use dvp::trace::io::v2;

    let dir = TempDir::new("encodings");
    let engine = ReplayEngine::new().with_workers(2);
    let mut compressed = store(&dir);
    compressed.prefetch(&engine, &Benchmark::ALL).expect("compressed prefetch");
    for benchmark in Benchmark::ALL {
        let fresh = compressed.trace(benchmark).expect("compressed trace");
        let fingerprint = TraceCache::fingerprint(
            &compressed.workload(benchmark),
            REFERENCE_OPT,
            compressed.record_cap(),
        );
        let path = compressed.cache().expect("configured").path_for(&fingerprint);
        let packed = std::fs::read(path).expect("written through");
        let (header, _) = engine.load_trace(&packed).expect("compressed loads");
        let sections = [(v2::SECTION_INTERNER, v2::encode_interner(fresh.interner()))];
        let mut stored = Vec::new();
        let chunks = fresh.chunks().iter().map(Vec::as_slice);
        v2::write_with_sections(&mut stored, &header.meta, chunks, &sections).expect("writes");
        let (_, reloaded) = engine.load_trace(&stored).expect("stored loads");
        assert_eq!(
            reloaded.to_vec(),
            fresh.to_vec(),
            "{benchmark}: records must not depend on encoding"
        );
        assert_eq!(
            reloaded.interner(),
            fresh.interner(),
            "{benchmark}: interner must not depend on encoding"
        );
        assert!(
            packed.len() < stored.len(),
            "{benchmark}: compressed container ({} B) not smaller than stored ({} B)",
            packed.len(),
            stored.len()
        );
    }

    // Warm load of the compressed tier: zero simulation, and the trace —
    // including dense ids rebuilt from the persisted PCIN section — is
    // byte-identical to the cold generation.
    let mut warm = store(&dir);
    warm.prefetch(&engine, &Benchmark::ALL).expect("warm prefetch");
    assert_eq!(warm.cache_stats().simulated, 0, "warm compressed run must not simulate");
    assert_eq!(warm.cache_stats().disk_hits, Benchmark::ALL.len() as u64);
    for benchmark in Benchmark::ALL {
        let fresh = compressed.trace(benchmark).expect("cold trace");
        let loaded = warm.trace(benchmark).expect("warm trace");
        assert_eq!(loaded.to_vec(), fresh.to_vec(), "{benchmark}: warm records diverged");
        assert_eq!(loaded.interner(), fresh.interner(), "{benchmark}: warm interner diverged");
        for ((fresh_rec, fresh_id), (loaded_rec, loaded_id)) in
            fresh.iter_with_ids().zip(loaded.iter_with_ids())
        {
            assert_eq!(fresh_rec, loaded_rec, "{benchmark}");
            assert_eq!(fresh_id, loaded_id, "{benchmark}: dense ids diverged");
        }
    }
}

#[test]
fn every_single_byte_corruption_of_a_compressed_container_is_invalid() {
    // Exhaustive sweep over one small compressed container: flip every
    // byte, truncate at every prefix, and append junk — the cache must
    // classify all of them Invalid (the fall-back-to-simulation path) and
    // must never panic or serve a corrupted Hit.
    use dvp::trace::io::v2::{Fingerprint, TraceMeta};
    use dvp::trace::{InstrCategory, Pc, TraceRecord};

    let dir = TempDir::new("flip-sweep");
    let engine = ReplayEngine::new().with_workers(2);
    let trace: dvp::engine::SharedTrace = (0..600u64)
        .map(|i| {
            TraceRecord::new(
                Pc(0x40_0000 + 4 * (i % 24)),
                InstrCategory::ALL[(i % 8) as usize],
                i.wrapping_mul(2_654_435_761),
            )
        })
        .collect();
    let fp = Fingerprint {
        workload: "flip".into(),
        input: "flip.ref".into(),
        opt_level: "O1".into(),
        seed: 5,
        scale: 1,
        record_cap: 600,
    };
    let meta = TraceMeta { fingerprint: fp.clone(), retired: 600, predicted: 600 };
    let cache = TraceCache::new(&dir.0);
    let path = cache.write_through(&meta, &trace).expect("writes through");
    let bytes = std::fs::read(&path).expect("container exists");
    assert_eq!(bytes[4], 4, "write_through compresses by default");
    assert!(matches!(cache.lookup(&engine, &fp), CacheLookup::Hit(..)), "pristine file hits");

    // The only tolerated corruptions are semantically inert ones — e.g. a
    // flip in the optional PCIN section's magic turns it into an unknown
    // (checksum-valid, skipped) section, and a cut at the exact end of the
    // payload removes the optional section region entirely. In both cases
    // the loader re-interns from the records and the served trace must be
    // *exactly* the original; anything else must be Invalid.
    let reference = trace.to_vec();
    let expect_rejected_or_pristine = |what: String| match cache.lookup(&engine, &fp) {
        CacheLookup::Invalid(_) => {}
        CacheLookup::Hit(_, served) => {
            assert_eq!(served.to_vec(), reference, "{what} served a corrupted trace");
            assert_eq!(served.interner(), trace.interner(), "{what} corrupted the interner");
        }
        CacheLookup::Miss => panic!("{what} reported as a miss"),
    };
    for position in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[position] ^= 0xff;
        std::fs::write(&path, &corrupt).expect("rewrites");
        expect_rejected_or_pristine(format!("flipped byte {position}"));
    }
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).expect("rewrites");
        expect_rejected_or_pristine(format!("truncation to {cut} bytes"));
    }
    for extra in [1usize, 7, 19, 64] {
        let mut long = bytes.clone();
        long.resize(bytes.len() + extra, 0xA5);
        std::fs::write(&path, &long).expect("rewrites");
        match cache.lookup(&engine, &fp) {
            CacheLookup::Invalid(_) => {}
            other => panic!("{extra} trailing bytes were served as {other:?}"),
        }
    }

    // Restoring the original bytes restores the hit: nothing above left
    // the cache instance in a bad state.
    std::fs::write(&path, &bytes).expect("restores");
    assert!(matches!(cache.lookup(&engine, &fp), CacheLookup::Hit(..)));
}

#[test]
fn corrupt_and_stale_containers_fall_back_to_simulation() {
    let dir = TempDir::new("fallback");
    let engine = ReplayEngine::new();
    let mut cold = store(&dir);
    let fresh = cold.trace(Benchmark::Perl).expect("simulates");

    // Corrupt the container on disk: the warm store must notice, count it
    // invalid, resimulate, and still produce the right trace.
    let cache = TraceCache::new(&dir.0);
    let fp = TraceCache::fingerprint(&cold.workload(Benchmark::Perl), REFERENCE_OPT, Some(20_000));
    let path = cache.path_for(&fp);
    let mut bytes = std::fs::read(&path).expect("container exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&path, &bytes).expect("rewrites");
    assert!(matches!(cache.lookup(&engine, &fp), CacheLookup::Invalid(_)));

    let mut warm = store(&dir);
    let recovered = warm.trace(Benchmark::Perl).expect("falls back to simulation");
    assert_eq!(warm.cache_stats().invalid, 1);
    assert_eq!(warm.cache_stats().simulated, 1);
    assert_eq!(recovered.to_vec(), fresh.to_vec());

    // The fallback rewrote a valid container; the next store hits it.
    let mut healed = store(&dir);
    let healed_trace = healed.trace(Benchmark::Perl).expect("healed hit");
    assert_eq!(healed.cache_stats().disk_hits, 1);
    assert_eq!(healed_trace.to_vec(), fresh.to_vec());

    // A *stale* file (different configuration) is also rejected: the same
    // container looked up under a different record cap misses cleanly.
    let other = TraceCache::fingerprint(&cold.workload(Benchmark::Perl), REFERENCE_OPT, Some(7));
    assert!(matches!(cache.lookup(&engine, &other), CacheLookup::Miss));
    std::fs::rename(cache.path_for(&fp), cache.path_for(&other)).expect("renames");
    match cache.lookup(&engine, &other) {
        CacheLookup::Invalid(why) => assert!(why.contains("stale"), "{why}"),
        other => panic!("expected stale rejection, got {other:?}"),
    }
}
