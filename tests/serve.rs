//! End-to-end contract of the `repro serve` daemon, over real sockets:
//! concurrent clients get byte-identical payloads to the one-shot path,
//! cache hits are byte-identical to cold computes, admission control
//! rejects structuredly, malformed frames and mid-job disconnects never
//! wedge the server, and a kill-9'd result cache recovers on restart.
//!
//! Flaky-resistance rules used throughout: every server binds port 0 and
//! the tests read the address back; nothing sleeps as a synchronization
//! mechanism (waits go through `Server::wait_idle` or blocking reads with
//! generous timeouts); all randomness is seeded.

use dvp::engine::ReplayEngine;
use dvp::experiments::result_cache::{encode_entry, purge_stale, scan_entries};
use dvp::experiments::serve::{
    route_backend, run_job, JobSpec, Outcome, Router, RouterOptions, RouterStats, ServeClient,
    ServeOptions, Server, MAX_REQUEST_LINE,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

/// A unique, self-cleaning temp directory under the system temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dvp-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The overlapping job matrix the concurrent tests share: small synthetic
/// scenarios only, so the whole suite replays in milliseconds.
fn job_matrix() -> Vec<String> {
    let mut jobs = Vec::new();
    for (kind, extra) in [
        ("constant", String::new()),
        ("stride", ",\"stride\":3".to_owned()),
        ("periodic", ",\"period\":5".to_owned()),
        ("markov", ",\"order\":2,\"alphabet\":4".to_owned()),
        ("random", ",\"alphabet\":16".to_owned()),
        ("chase", ",\"heap\":64".to_owned()),
    ] {
        jobs.push(format!(
            "{{\"scenario\":{{\"kind\":\"{kind}\",\"pcs\":3,\"records_per_pc\":96,\"seed\":11{extra}}},\
             \"bank\":[\"l\",\"s2\",\"fcm2\"]}}"
        ));
    }
    jobs
}

fn engine() -> ReplayEngine {
    ReplayEngine::new().with_workers(2)
}

fn addr_of(server: &Server) -> String {
    server.addr().to_string()
}

/// Waits (bounded) for the router's counters to converge: the client can
/// observe its last terminal frame a beat before the connection thread
/// ticks the counters, so stats assertions must not race that window.
fn wait_router_stats(router: &Router, pred: impl Fn(RouterStats) -> bool) -> RouterStats {
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let stats = router.stats();
        if pred(stats) {
            return stats;
        }
        assert!(std::time::Instant::now() < deadline, "router stats never converged: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn four_concurrent_clients_get_bytes_identical_to_the_one_shot_path() {
    let engine = engine();
    let jobs = job_matrix();
    // The ground truth each client must receive, computed inline through
    // the exact code path `repro job` uses.
    let expected: Vec<String> = jobs
        .iter()
        .map(|job| run_job(&JobSpec::parse(job).unwrap(), &engine, None).expect("tiny job runs"))
        .collect();

    let server = Server::start(engine, ServeOptions::default()).expect("bind ephemeral port");
    let addr = addr_of(&server);
    let handles: Vec<_> = (0..4)
        .map(|client_no| {
            let addr = addr.clone();
            let jobs = jobs.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(&addr).expect("connect");
                // Every client walks the same matrix from a different
                // offset, so identical jobs overlap in flight.
                for i in 0..jobs.len() {
                    let pick = (i + client_no) % jobs.len();
                    match client.submit(&jobs[pick]).expect("transport") {
                        Outcome::Result { payload, .. } => {
                            assert_eq!(
                                payload, expected[pick],
                                "client {client_no} job {pick}: served bytes diverged"
                            );
                        }
                        other => panic!("client {client_no} job {pick}: {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(server.completed(), 24, "4 clients x 6 jobs all reached a terminal frame");
}

#[test]
fn cache_hits_are_byte_identical_to_cold_computes() {
    let server = Server::start(engine(), ServeOptions::default()).expect("bind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    let job = &job_matrix()[3];

    let Outcome::Result { cache, payload: cold } = client.submit(job).expect("transport") else {
        panic!("cold job must complete");
    };
    assert_eq!(cache, "miss");
    let Outcome::Result { cache, payload: warm } = client.submit(job).expect("transport") else {
        panic!("warm job must complete");
    };
    assert_eq!(cache, "hit");
    assert_eq!(cold, warm, "a cache hit must serve the cold bytes verbatim");

    let stats = server.result_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn the_served_golden_job_matches_the_cli_golden_payload() {
    let spec = include_str!("golden/serve_job.json").trim();
    let golden = include_str!("golden/repro_job_quick.txt");
    let server = Server::start(engine(), ServeOptions::default()).expect("bind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    match client.submit(spec).expect("transport") {
        Outcome::Result { payload, .. } => assert_eq!(payload, golden),
        other => panic!("golden job refused: {other:?}"),
    }
}

#[test]
fn admission_control_rejects_structuredly_and_the_connection_survives() {
    // Queue capacity 0: everything past the cache is refused globally.
    let options = ServeOptions { queue_capacity: 0, ..ServeOptions::default() };
    let server = Server::start(engine(), options).expect("bind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    let job = &job_matrix()[0];
    match client.submit(job).expect("transport") {
        Outcome::Rejected { reason } => assert_eq!(reason, "queue full (capacity 0)"),
        other => panic!("expected a global rejection: {other:?}"),
    }
    // The connection is still healthy after a rejection.
    client.ping().expect("rejected connection stays usable");

    // In-flight cap 0: refused per-client before the queue is consulted.
    let options = ServeOptions { inflight_cap: 0, ..ServeOptions::default() };
    let server = Server::start(engine(), options).expect("bind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    match client.submit(job).expect("transport") {
        Outcome::Rejected { reason } => assert_eq!(reason, "in-flight limit (0) reached"),
        other => panic!("expected a per-client rejection: {other:?}"),
    }
    client.ping().expect("rejected connection stays usable");
}

#[test]
fn malformed_frames_get_structured_errors_and_never_kill_the_connection() {
    let server = Server::start(engine(), ServeOptions::default()).expect("bind");
    let router = Router::start(RouterOptions {
        backends: vec![addr_of(&server)],
        ..RouterOptions::default()
    })
    .expect("start router");
    // Both tiers run the same connection loop, so both answer the same
    // garbage with the same structured errors.
    for addr in [addr_of(&server), router.addr().to_string()] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        std::io::BufRead::read_line(&mut reader, &mut line).expect("hello");
        assert!(line.contains("\"frame\":\"hello\""), "{addr}: {line}");

        for (bad, needle) in [
            ("this is not json", "error"),
            ("{\"op\":\"warp\"}", "unknown op `warp`"),
            ("{\"op\":\"ping\",\"bogus\":1}", "unknown request field `bogus`"),
            ("{\"op\":\"submit\",\"job\":{\"scenario\":{\"kind\":\"constant\",\"pcs\":1,\"records_per_pc\":8},\"warp\":9}}", "unknown job field `warp`"),
            ("{\"op\":\"submit\",\"job\":{\"scenario\":{\"kind\":\"stride\",\"pcs\":1,\"records_per_pc\":8,\"stride\":0}}}", "nonzero"),
        ] {
            writeln!(stream, "{bad}").expect("send");
            stream.flush().expect("flush");
            line.clear();
            std::io::BufRead::read_line(&mut reader, &mut line).expect("error frame");
            assert!(line.contains("\"frame\":\"error\""), "{addr}: for `{bad}` got {line}");
            assert!(line.contains(needle), "{addr}: for `{bad}` expected `{needle}` in {line}");
        }

        // After five garbage requests, the server still runs a job.
        drop(reader);
        drop(stream);
        let mut client = ServeClient::connect(&addr).expect("reconnect");
        match client.submit(&job_matrix()[0]).expect("transport") {
            Outcome::Result { .. } => {}
            other => panic!("{addr} wedged after malformed input: {other:?}"),
        }
    }
}

/// Sends one newline-free line a byte past the request-line cap and
/// returns every frame the server wrote before closing the connection.
fn frames_after_an_over_long_line(addr: &str) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).expect("send the giant line");
    stream.flush().expect("flush");
    let reader = std::io::BufReader::new(stream);
    std::io::BufRead::lines(reader).map_while(Result::ok).collect()
}

#[test]
fn an_over_long_request_line_gets_an_error_and_both_tiers_keep_serving() {
    let engine = engine();
    let job = &job_matrix()[1];
    let expected = run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap();
    let worker = Server::start(engine, ServeOptions::default()).expect("bind worker");
    let router = Router::start(RouterOptions {
        backends: vec![addr_of(&worker)],
        ..RouterOptions::default()
    })
    .expect("start router");
    for addr in [addr_of(&worker), router.addr().to_string()] {
        let frames = frames_after_an_over_long_line(&addr);
        assert_eq!(frames.len(), 2, "hello, one error, then the connection closes: {frames:?}");
        assert!(frames[0].contains("\"frame\":\"hello\""), "{frames:?}");
        assert!(frames[1].contains("\"frame\":\"error\""), "{frames:?}");
        assert!(frames[1].contains("exceeds"), "{frames:?}");
        // The server is still up and a second client is served the
        // one-shot bytes.
        let mut client = ServeClient::connect(&addr).expect("second client");
        match client.submit(job).expect("transport") {
            Outcome::Result { payload, .. } => assert_eq!(payload, expected, "{addr}"),
            other => panic!("{addr} after an over-long line: {other:?}"),
        }
    }
}

#[test]
fn a_mid_job_disconnect_never_wedges_the_server_and_the_result_still_caches() {
    let server = Server::start(engine(), ServeOptions::default()).expect("bind");
    let addr = addr_of(&server);
    // A bigger job so the disconnect reliably lands while it computes —
    // though the contract holds either way: frame writes to a dead client
    // are discarded, the job finishes, the payload is cached.
    let job = "{\"scenario\":{\"kind\":\"markov\",\"pcs\":8,\"records_per_pc\":4096,\"seed\":5,\
               \"order\":3,\"alphabet\":8},\"bank\":[\"l\",\"s2\",\"fcm1\",\"fcm2\",\"fcm3\"]}";
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        writeln!(stream, "{{\"op\":\"submit\",\"id\":1,\"job\":{job}}}").expect("send");
        stream.flush().expect("flush");
        // Drop without reading a single frame: the client is gone.
    }
    // `wait_idle` alone could race the connection thread (idle before the
    // job is even admitted), so wait on the terminal-frame counter, with a
    // hard deadline instead of a fixed sleep.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.completed() < 1 {
        assert!(std::time::Instant::now() < deadline, "abandoned job never completed");
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(server.wait_idle(Duration::from_secs(60)), "abandoned job must still finish");
    assert_eq!(server.result_stats().misses, 1, "the abandoned job computed cold");

    // A well-behaved client now gets the abandoned job's payload from
    // cache, byte-identical to an inline compute.
    let mut client = ServeClient::connect(&addr).expect("connect");
    match client.submit(job).expect("transport") {
        Outcome::Result { cache, payload } => {
            assert_eq!(cache, "hit", "the abandoned job's result was cached");
            let inline = run_job(&JobSpec::parse(job).unwrap(), &engine(), None).unwrap();
            assert_eq!(payload, inline);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn a_restarted_server_recovers_disk_results_and_rejects_corrupt_entries() {
    let dir = TempDir::new("restart");
    let engine = engine();
    let jobs = job_matrix();
    let options = || ServeOptions { result_dir: Some(dir.0.clone()), ..ServeOptions::default() };

    // First server lifetime: compute and persist three results.
    let paths: Vec<PathBuf> = {
        let server = Server::start(engine.clone(), options()).expect("bind");
        let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
        for job in &jobs[..3] {
            match client.submit(job).expect("transport") {
                Outcome::Result { cache, .. } => assert_eq!(cache, "miss"),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(server.result_stats().written, 3);
        jobs[..3]
            .iter()
            .map(|job| {
                let key = JobSpec::parse(job).unwrap().canonical_key();
                let path = dir.0.join(format!(
                    "{:016x}.dvpr",
                    dvp::experiments::result_cache::fnv1a64(key.as_bytes())
                ));
                assert!(path.is_file(), "persisted entry for {key}");
                path
            })
            .collect()
        // Server dropped here without a shutdown request — the moral
        // equivalent of kill -9 for the cache directory, which must only
        // ever hold fully-synced, atomically-renamed entries.
    };

    // Simulate crash damage on two of the three surviving entries.
    let bytes = std::fs::read(&paths[1]).expect("entry");
    std::fs::write(&paths[1], &bytes[..bytes.len() - 7]).expect("truncate"); // torn write
    let mut flipped = std::fs::read(&paths[2]).expect("entry");
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&paths[2], &flipped).expect("flip"); // bit rot
                                                        // And one entry whose bytes are valid but belong to a different key.
    let stray_key = "not|the|key";
    // Stamped with the live epoch so decode reaches the key check — the
    // mismatch under test here is the key, not staleness.
    let stray = encode_entry(stray_key, "stray payload", dvp::engine::engine_epoch());
    std::fs::write(&paths[0], stray).expect("mis-file");

    // Second lifetime: the intact... none are intact. All three must be
    // rejected (never served) and transparently recomputed; the payloads
    // still match the inline ground truth.
    let server = Server::start(engine.clone(), options()).expect("rebind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    for job in &jobs[..3] {
        let inline = run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap();
        match client.submit(job).expect("transport") {
            Outcome::Result { cache, payload } => {
                assert_eq!(cache, "miss", "damaged entries must recompute, not serve");
                assert_eq!(payload, inline);
            }
            other => panic!("{other:?}"),
        }
    }
    let stats = server.result_stats();
    assert_eq!(stats.invalid, 3, "all three damaged entries were detected");
    assert_eq!(stats.written, 3, "all three were recomputed and re-persisted");

    // Third lifetime: the repaired entries now serve from disk.
    drop(server);
    let server = Server::start(engine, options()).expect("rebind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    for job in &jobs[..3] {
        match client.submit(job).expect("transport") {
            Outcome::Result { cache, .. } => assert_eq!(cache, "hit"),
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(server.result_stats().disk_hits, 3);
}

#[test]
fn entries_written_under_an_older_epoch_are_recomputed_never_served() {
    let dir = TempDir::new("epoch-flip");
    let engine = engine();
    let job = &job_matrix()[1];
    let spec = JobSpec::parse(job).unwrap();
    let inline = run_job(&spec, &engine, None).expect("inline ground truth");
    // The epoch is folded into the canonical key, so the in-memory LRU
    // can never alias entries across epochs either.
    assert_ne!(spec.canonical_key_at(0xA), spec.canonical_key_at(0xB));
    let options = |epoch: u64| ServeOptions {
        result_dir: Some(dir.0.clone()),
        epoch,
        ..ServeOptions::default()
    };

    // Epoch-A lifetime: compute and persist one result.
    {
        let server = Server::start(engine.clone(), options(0xA)).expect("bind");
        let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
        match client.submit(job).expect("transport") {
            Outcome::Result { cache, payload } => {
                assert_eq!(cache, "miss");
                assert_eq!(payload, inline);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(server.result_stats().written, 1);
    }

    // Epoch-B lifetime over the same directory — the moral equivalent of
    // restarting the daemon on a new binary. The epoch-A entry must never
    // be served: its key (and hence its file name) belongs to the old
    // epoch, so the lookup is a clean miss and the job recomputes.
    let server = Server::start(engine.clone(), options(0xB)).expect("rebind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    match client.submit(job).expect("transport") {
        Outcome::Result { cache, payload } => {
            assert_eq!(cache, "miss", "a stale-epoch entry must recompute, not serve");
            assert_eq!(payload, inline, "the recomputed bytes match the inline ground truth");
        }
        other => panic!("{other:?}"),
    }
    let stats = server.result_stats();
    assert_eq!(stats.hits + stats.disk_hits, 0, "nothing was served across the epoch flip");
    assert_eq!(stats.written, 1, "the epoch-B result was persisted alongside");
    drop(server);

    // Maintenance view: both entries survive on disk, the epoch-A one
    // classified stale (not corrupt); `purge_stale` removes exactly it.
    let entries = scan_entries(&dir.0).expect("scan");
    assert_eq!(entries.len(), 2, "both epochs' entries coexist on disk");
    let stale =
        entries.iter().filter(|e| !e.header.as_ref().is_ok_and(|h| h.is_current(0xB))).count();
    assert_eq!(stale, 1, "the epoch-A entry is stale under epoch B");
    let report = purge_stale(&dir.0, 0xB).expect("purge");
    assert_eq!((report.removed, report.kept), (1, 1));
}

#[test]
fn a_batch_submission_is_byte_identical_to_n_single_submissions() {
    let engine = engine();
    let jobs = job_matrix();
    let expected: Vec<String> = jobs
        .iter()
        .map(|job| run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap())
        .collect();
    let server = Server::start(engine, ServeOptions::default()).expect("bind");
    let addr = addr_of(&server);

    // The whole matrix in one `jobs` round trip...
    let mut batch_client = ServeClient::connect(&addr).expect("connect");
    let outcomes = batch_client.submit_batch(&jobs).expect("transport");
    assert_eq!(outcomes.len(), jobs.len(), "one outcome per submitted job, in input order");
    // ...versus N single submissions on a second connection.
    let mut single_client = ServeClient::connect(&addr).expect("connect");
    for (i, (outcome, job)) in outcomes.iter().zip(&jobs).enumerate() {
        let Outcome::Result { payload: batched, .. } = outcome else {
            panic!("batch slot {i}: {outcome:?}");
        };
        assert_eq!(*batched, expected[i], "batch slot {i} diverged from the inline ground truth");
        match single_client.submit(job).expect("transport") {
            Outcome::Result { payload, .. } => {
                assert_eq!(payload, *batched, "single vs batch bytes differ for job {i}");
            }
            other => panic!("single job {i}: {other:?}"),
        }
    }
    assert_eq!(server.completed(), 2 * jobs.len() as u64);
}

#[test]
fn batch_rejections_are_per_job_and_the_connection_survives() {
    let options = ServeOptions { queue_capacity: 0, ..ServeOptions::default() };
    let server = Server::start(engine(), options).expect("bind");
    let mut client = ServeClient::connect(&addr_of(&server)).expect("connect");
    let jobs = job_matrix();
    let outcomes = client.submit_batch(&jobs).expect("transport");
    assert_eq!(outcomes.len(), jobs.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Rejected { reason } => {
                assert_eq!(reason, "queue full (capacity 0)", "slot {i}");
            }
            other => panic!("slot {i}: {other:?}"),
        }
    }
    client.ping().expect("a fully-rejected batch leaves the connection usable");
}

#[test]
fn routed_worker_direct_and_one_shot_payloads_are_byte_identical() {
    let engine = engine();
    let jobs = job_matrix();
    let expected: Vec<String> = jobs
        .iter()
        .map(|job| run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap())
        .collect();

    // Two workers with disjoint disk tiers, fronted by one router.
    let dir_a = TempDir::new("router-worker-a");
    let dir_b = TempDir::new("router-worker-b");
    let worker_a = Server::start(
        engine.clone(),
        ServeOptions { result_dir: Some(dir_a.0.clone()), ..ServeOptions::default() },
    )
    .expect("bind worker a");
    let worker_b = Server::start(
        engine.clone(),
        ServeOptions { result_dir: Some(dir_b.0.clone()), ..ServeOptions::default() },
    )
    .expect("bind worker b");
    let backends = vec![addr_of(&worker_a), addr_of(&worker_b)];
    let router =
        Router::start(RouterOptions { backends: backends.clone(), ..RouterOptions::default() })
            .expect("start router");
    let router_addr = router.addr().to_string();

    // Single submissions through the router match the one-shot path.
    let mut via_router = ServeClient::connect(&router_addr).expect("connect router");
    let mut routed: Vec<String> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match via_router.submit(job).expect("transport") {
            Outcome::Result { payload, .. } => {
                assert_eq!(payload, expected[i], "routed job {i} diverged from one-shot");
                routed.push(payload);
            }
            other => panic!("routed job {i}: {other:?}"),
        }
    }

    // Asking the owning worker directly serves the same bytes — and from
    // cache, proving the router really did place the job on its owner.
    for (i, job) in jobs.iter().enumerate() {
        let owner = route_backend(&backends, &JobSpec::parse(job).unwrap().canonical_key());
        let mut worker = ServeClient::connect(owner).expect("connect owner");
        match worker.submit(job).expect("transport") {
            Outcome::Result { cache, payload } => {
                assert_eq!(cache, "hit", "job {i} must already live on its owner {owner}");
                assert_eq!(payload, routed[i], "worker-direct vs routed bytes differ for job {i}");
            }
            other => panic!("worker-direct job {i}: {other:?}"),
        }
    }

    // A batch through the router fans out across owners and comes back
    // tagged, in input order, byte-identical again.
    let mut batch_client = ServeClient::connect(&router_addr).expect("connect router");
    let outcomes = batch_client.submit_batch(&jobs).expect("transport");
    assert_eq!(outcomes.len(), jobs.len());
    for (i, outcome) in outcomes.iter().enumerate() {
        match outcome {
            Outcome::Result { payload, .. } => {
                assert_eq!(*payload, expected[i], "batched routed job {i} diverged");
            }
            other => panic!("batched routed job {i}: {other:?}"),
        }
    }

    let total = 2 * jobs.len() as u64;
    let stats = wait_router_stats(&router, |s| s.forwarded + s.backend_down >= total);
    assert_eq!(stats.backend_down, 0);
    assert_eq!(stats.forwarded, total, "every submission was forwarded");
}

#[test]
fn a_dead_backend_yields_backend_down_and_the_live_one_still_serves() {
    let engine = engine();
    let jobs = job_matrix();
    // Reserve an address that is guaranteed closed: bind, note, drop.
    let dead = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve");
        let addr = listener.local_addr().expect("addr").to_string();
        drop(listener);
        addr
    };
    let live = Server::start(engine.clone(), ServeOptions::default()).expect("bind live");
    let live_addr = addr_of(&live);
    let backends = vec![dead.clone(), live_addr.clone()];
    let router = Router::start(RouterOptions {
        backends: backends.clone(),
        connect_attempts: 1,
        ..RouterOptions::default()
    })
    .expect("start router");

    let mut client = ServeClient::connect(&router.addr().to_string()).expect("connect");
    let mut dead_jobs = 0u64;
    let mut live_jobs = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let owner = route_backend(&backends, &JobSpec::parse(job).unwrap().canonical_key());
        match client.submit(job).expect("transport") {
            Outcome::BackendDown { backend, reason } => {
                assert_eq!(owner, dead, "job {i}: only the dead owner may fail");
                assert_eq!(backend, dead, "the frame names the failing backend");
                assert!(reason.contains("unreachable after 1 attempt"), "job {i}: {reason}");
                dead_jobs += 1;
            }
            Outcome::Result { payload, .. } => {
                assert_eq!(owner, live_addr, "job {i}: served, so the live worker owns it");
                let inline = run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap();
                assert_eq!(payload, inline, "job {i} through a degraded tier still byte-exact");
                live_jobs += 1;
            }
            other => panic!("job {i}: {other:?}"),
        }
    }
    assert_eq!(dead_jobs + live_jobs, jobs.len() as u64);
    assert!(dead_jobs > 0, "rendezvous must place some of the matrix on the dead backend");
    assert!(live_jobs > 0, "rendezvous must place some of the matrix on the live backend");
    let stats = wait_router_stats(&router, |s| s.forwarded + s.backend_down >= jobs.len() as u64);
    assert_eq!(stats.forwarded, live_jobs);
    assert_eq!(stats.backend_down, dead_jobs);
    // The connection survives structured failure: the next job for the
    // live owner still round-trips on the same client.
    client.ping().expect("backend_down leaves the client connection usable");
}

/// Reads the first line a server sends on a fresh connection.
fn hello_line(addr: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stream), &mut line).expect("hello");
    line
}

#[test]
fn both_tiers_answer_hello_ping_stats_and_shutdown_locally() {
    let job = &job_matrix()[2];
    let worker = Server::start(engine(), ServeOptions::default()).expect("bind worker");
    let router = Router::start(RouterOptions {
        backends: vec![addr_of(&worker)],
        ..RouterOptions::default()
    })
    .expect("start router");
    let router_addr = router.addr().to_string();
    // One routed job gives both tiers' counters something to report.
    let mut client = ServeClient::connect(&router_addr).expect("connect router");
    assert!(matches!(client.submit(job).expect("transport"), Outcome::Result { .. }));
    wait_router_stats(&router, |s| s.forwarded == 1);

    for (addr, server, stats_field) in [
        (addr_of(&worker), "repro-serve", "\"result_hits\":0,\"misses\":1,"),
        (router_addr, "repro-router", "\"router\":true,\"backends\":1,\"forwarded\":1,"),
    ] {
        let hello = hello_line(&addr);
        assert!(hello.contains("\"frame\":\"hello\",\"protocol\":1,"), "{hello}");
        assert!(hello.contains(&format!("\"server\":\"{server}\"")), "{hello}");
        let mut client = ServeClient::connect(&addr).expect("connect");
        client.ping().expect("pong");
        let stats = client.stats().expect("stats frame");
        assert!(stats.contains(stats_field), "{server}: {stats}");
        client.shutdown().expect("bye");
    }
    // A client's `shutdown` stopped each tier's listener, so both joins
    // return, with their final counters.
    assert_eq!(router.join(), RouterStats { forwarded: 1, backend_down: 0 });
    let stats = worker.join();
    assert_eq!((stats.hits, stats.misses), (0, 1));
}

#[test]
fn a_backend_that_never_says_hello_is_down_after_the_bounded_retries() {
    // An impostor backend: greets every connection with `pong`, then hangs
    // up. The router's two connect attempts each meet it once.
    let impostor = std::net::TcpListener::bind("127.0.0.1:0").expect("bind impostor");
    let impostor_addr = impostor.local_addr().expect("addr").to_string();
    let accepts = std::thread::spawn(move || {
        for stream in impostor.incoming().take(2) {
            let mut stream = stream.expect("accept");
            stream.write_all(b"{\"frame\":\"pong\"}\n").expect("greet");
        }
    });
    let router = Router::start(RouterOptions {
        backends: vec![impostor_addr.clone()],
        connect_attempts: 2,
        ..RouterOptions::default()
    })
    .expect("start router");
    let mut client = ServeClient::connect(&router.addr().to_string()).expect("connect");
    match client.submit(&job_matrix()[0]).expect("transport") {
        Outcome::BackendDown { backend, reason } => {
            assert_eq!(backend, impostor_addr);
            assert_eq!(
                reason,
                "unreachable after 2 attempts: expected a hello frame, got `{\"frame\":\"pong\"}`"
            );
        }
        other => panic!("a backend without a hello must be down: {other:?}"),
    }
    accepts.join().expect("the impostor saw exactly the two attempts");
    client.ping().expect("backend_down leaves the router connection usable");
    let stats = wait_router_stats(&router, |s| s.backend_down == 1);
    assert_eq!(stats.forwarded, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Seeded soak: four clients fire seeded-shuffled bursts from a shared
    /// job pool at one server. Every submission must reach a terminal
    /// frame (no deadlock — `wait_idle` bounds the run), and every payload
    /// must equal its precomputed ground truth (per-job determinism under
    /// contention).
    #[test]
    fn soak_four_clients_under_contention_stay_deterministic(seed in any::<u64>()) {
        let engine = engine();
        let jobs = job_matrix();
        let expected: Vec<String> = jobs
            .iter()
            .map(|job| run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap())
            .collect();
        // Large admission limits: this test soaks throughput, not rejects.
        let options = ServeOptions {
            queue_capacity: 1024,
            inflight_cap: 1024,
            job_workers: 3,
            memory_entries: 4, // smaller than the pool, so eviction churns too
            ..ServeOptions::default()
        };
        let server = Server::start(engine, options).expect("bind");
        let addr = addr_of(&server);

        const PER_CLIENT: usize = 12;
        let handles: Vec<_> = (0..4u64)
            .map(|client_no| {
                let addr = addr.clone();
                let jobs = jobs.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    // Seeded xorshift per client: deterministic, distinct.
                    let mut state = seed ^ (client_no + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    state |= 1;
                    let mut client = ServeClient::connect(&addr).expect("connect");
                    for round in 0..PER_CLIENT {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let pick = (state % jobs.len() as u64) as usize;
                        match client.submit(&jobs[pick]).expect("transport") {
                            Outcome::Result { payload, .. } => assert_eq!(
                                payload, expected[pick],
                                "client {client_no} round {round} job {pick} diverged"
                            ),
                            other => {
                                panic!("client {client_no} round {round}: {other:?}")
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("soak client");
        }
        prop_assert!(server.wait_idle(Duration::from_secs(60)), "queue must drain");
        prop_assert_eq!(server.completed(), 4 * PER_CLIENT as u64);

        // Clean shutdown is part of the soak: ask, then join the server.
        let mut closer = ServeClient::connect(&addr).expect("connect");
        closer.shutdown().expect("bye");
        let stats = server.join();
        prop_assert!(
            stats.hits + stats.misses >= 4 * PER_CLIENT as u64,
            "every submission consulted the cache"
        );
    }
}
