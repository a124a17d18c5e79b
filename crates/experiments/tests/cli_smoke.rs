//! CLI contract of the `repro` binary: exit codes and stderr behaviour
//! for good and bad invocations. Every failing case here must fail *fast*
//! (before any workload is simulated), so the suite stays cheap.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("repro spawns")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn good_target_exits_zero_with_output() {
    // table1 is purely analytic: no workloads, fast even in test builds.
    let out = repro(&["table1"]);
    assert!(out.status.success(), "table1 must succeed: {}", stderr_of(&out));
    assert!(!out.stdout.is_empty(), "a table must land on stdout");
}

#[test]
fn unknown_target_fails_and_lists_valid_targets_on_stderr() {
    // Every id is checked before any experiment runs, so a valid id ahead
    // of the unknown one prints nothing either.
    for args in [&["table99"][..], &["table1", "table99"][..]] {
        let out = repro(args);
        assert!(!out.status.success(), "unknown targets must exit nonzero: {args:?}");
        assert!(out.stdout.is_empty(), "nothing may land on stdout: {args:?}");
        let stderr = stderr_of(&out);
        assert!(stderr.contains("unknown target `table99`"), "{stderr}");
        for target in ["sweep", "trace", "all", "table1", "figure11", "ext-speedup"] {
            assert!(stderr.contains(target), "valid-target list must include {target}: {stderr}");
        }
    }
}

#[test]
fn unknown_flags_fail_as_flags_not_targets() {
    // A mistyped global flag (or one that no longer exists) is reported as
    // an unknown `repro` flag with the experiments usage, never as a target.
    for (args, flag) in [
        (&["--no-trace-cache", "table1"][..], "--no-trace-cache"),
        (&["--trace-dri", "x", "table1"][..], "--trace-dri"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "nothing may land on stdout: {args:?}");
        let stderr = stderr_of(&out);
        assert!(stderr.starts_with(&format!("unknown repro flag `{flag}`\n")), "{stderr}");
        assert!(stderr.contains("usage: repro [--quick]"), "{stderr}");
        assert!(!stderr.contains("unknown target"), "{stderr}");
    }
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = repro(&[]);
    assert!(!out.status.success());
    let stderr = stderr_of(&out);
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stderr.contains("sweep"), "usage must advertise the sweep subcommand: {stderr}");
}

#[test]
fn bad_flag_values_fail_fast() {
    for args in [&["--workers", "0", "table1"][..], &["--workers", "many", "table1"][..]] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(stderr_of(&out).contains("positive integer"), "{args:?}");
    }
    // One missing or bad value per tool, plus a global flag placed after
    // a subcommand: each fails before doing any work and names its flag.
    let cases: [(&[&str], &str); 10] = [
        (&["sweep", "--format"], "--format"),
        (&["bench", "--passes", "0"], "--passes"),
        (&["trace", "gen", "--records"], "--records"),
        (&["trace", "gen", "--seed", "x"], "--seed"),
        (&["serve", "--listen"], "--listen"),
        (&["client", "127.0.0.1:1", "--job"], "--job"),
        (&["job", "--json"], "--json"),
        (&["cache", "stats", "--result-dir"], "--result-dir"),
        (&["sweep", "--workers", "0"], "--workers"),
        (&["table1", "--trace-dir"], "--trace-dir"),
    ];
    for (args, flag) in cases {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        assert!(out.stdout.is_empty(), "nothing may land on stdout: {args:?}");
        assert!(stderr_of(&out).contains(flag), "{args:?}: {}", stderr_of(&out));
    }
}

/// The lines of the first ```` ```text ```` block in `text`, with `prefix`
/// (a doc-comment marker) stripped.
fn text_block<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines()
        .map(|line| line.strip_prefix(prefix).unwrap_or(line).trim_end())
        .skip_while(|line| *line != "```text")
        .skip(1)
        .take_while(|line| *line != "```")
        .collect()
}

#[test]
fn readme_and_module_doc_list_the_same_commands() {
    let source = include_str!("../src/bin/repro.rs");
    let readme = include_str!("../../../README.md");
    let section = readme.split("## The `repro` binary").nth(1).expect("README has the section");
    let doc = text_block(source, "//! ");
    assert!(!doc.is_empty(), "the module doc lists commands");
    assert_eq!(doc, text_block(section, ""), "README and module doc must list the same commands");

    // Every subcommand the list shows appears in the usage text.
    let ids = String::from_utf8(repro(&["--list"]).stdout).expect("utf-8 ids");
    let usage = stderr_of(&repro(&[]));
    for line in doc {
        let word = line.split_whitespace().nth(1).unwrap_or_default();
        if word.starts_with('-') || word == "all" || ids.lines().any(|id| id == word) {
            continue;
        }
        assert!(usage.contains(&format!("repro {word} ")), "usage lacks `repro {word}`: {usage}");
    }
}

#[test]
fn bench_check_replays_only_at_the_baseline_size() {
    // `--check` takes its record count from the baseline, so an explicit
    // `--records` is a usage error, caught before anything replays.
    let out = repro(&["bench", "--records", "1000", "--check", "BENCH_20.json"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing may replay");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("drop --records") && stderr.contains("usage:"), "{stderr}");
    let out = repro(&["bench", "--check", "/nonexistent/baseline.json"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "nothing may replay");
    assert!(stderr_of(&out).contains("cannot read baseline"), "{}", stderr_of(&out));
}

#[test]
fn failed_trace_write_through_warns_and_keeps_the_output() {
    // A regular file where the trace directory should be: the job still
    // prints the simulated result, byte-identical to an uncached run, and
    // the failed write-through is a warning on stderr.
    let blocker = std::env::temp_dir().join(format!("dvp-cli-blocked-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("writes the blocker");
    let job = r#"{"scenario":{"kind":"stride","pcs":2,"records_per_pc":32,"seed":4,"stride":2},"bank":["l"]}"#;
    let uncached = repro(&["job", "--json", job]);
    let blocked = repro(&["--trace-dir", blocker.to_str().expect("utf-8"), "job", "--json", job]);
    let _ = std::fs::remove_file(&blocker);
    assert!(uncached.status.success(), "{}", stderr_of(&uncached));
    assert!(blocked.status.success(), "a failed write-through must not fail the run");
    assert_eq!(blocked.stdout, uncached.stdout);
    assert!(stderr_of(&blocked).contains("write-through failed"), "{}", stderr_of(&blocked));
}

#[test]
fn trace_gen_writes_the_committed_container_byte_for_byte() {
    // `fixtures/trace-gen-v4.dvpt` was written by the one-thread writer
    // that buffered every payload before the header; the streaming writer
    // (header last, by seeking back) must reproduce it exactly.
    let out_path =
        std::env::temp_dir().join(format!("dvp-cli-trace-gen-{}.dvpt", std::process::id()));
    let out = repro(&[
        "trace",
        "gen",
        "--records",
        "3000",
        "--pcs",
        "9",
        "--chunk-records",
        "512",
        "--seed",
        "5",
        "--out",
        out_path.to_str().expect("utf-8"),
    ]);
    let written = std::fs::read(&out_path);
    let _ = std::fs::remove_file(&out_path);
    assert!(out.status.success(), "{}", stderr_of(&out));
    let fixture: &[u8] = include_bytes!("fixtures/trace-gen-v4.dvpt");
    assert!(written.expect("the container exists") == fixture, "container bytes changed");
}

#[test]
fn trace_tool_requires_a_trace_dir() {
    let out = repro(&["trace", "stats"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--trace-dir"), "{}", stderr_of(&out));
}

#[test]
fn sweep_rejects_unknown_formats_and_arguments() {
    let out = repro(&["sweep", "--format", "xml"]);
    assert!(!out.status.success(), "an unknown format must exit nonzero");
    assert!(out.stdout.is_empty(), "nothing may land on stdout");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("unknown sweep format `xml`"), "{stderr}");
    for format in ["table", "csv", "json"] {
        assert!(stderr.contains(format), "valid-format list must include {format}: {stderr}");
    }

    let out = repro(&["sweep", "bogus"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown sweep argument `bogus`"), "{}", stderr_of(&out));

    let out = repro(&["sweep", "--format"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--format expects"), "{}", stderr_of(&out));
}

#[test]
fn phases_rejects_unknown_benchmarks_and_lists_valid_names() {
    let out = repro(&["phases", "nosuchbench"]);
    assert!(!out.status.success(), "an unknown benchmark must exit nonzero");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("unknown phases benchmark `nosuchbench`"), "{stderr}");
    for name in ["compress", "m88k", "xlisp"] {
        assert!(stderr.contains(name), "valid-benchmark list must include {name}: {stderr}");
    }
}

#[test]
fn serve_rejects_bad_listen_addresses_fast() {
    let out = repro(&["serve", "--listen", "not-an-address"]);
    assert!(!out.status.success(), "a bad --listen must exit nonzero");
    assert!(out.stdout.is_empty(), "nothing may land on stdout");
    assert!(
        stderr_of(&out).contains("invalid --listen address `not-an-address`"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["serve", "--bogus"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown serve flag `--bogus`"), "{}", stderr_of(&out));
}

#[test]
fn serve_reports_a_busy_port_as_a_bind_failure() {
    // Hold the port ourselves, then ask the daemon to bind it.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a port to occupy");
    let addr = holder.local_addr().expect("addr").to_string();
    let out = repro(&["serve", "--listen", &addr]);
    assert!(!out.status.success(), "a busy port must exit nonzero");
    assert!(stderr_of(&out).contains(&format!("cannot bind {addr}")), "{}", stderr_of(&out));
}

#[test]
fn client_reports_a_dead_server_as_a_structured_error() {
    // Bind an ephemeral port and drop it immediately: nothing listens
    // there, so the connection is refused (no panic, no hang).
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let out = repro(&["client", &addr, "--ping"]);
    assert!(!out.status.success(), "a dead server must exit nonzero");
    assert!(stderr_of(&out).contains(&format!("cannot connect to {addr}")), "{}", stderr_of(&out));

    let out = repro(&["client"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("expects a server address"), "{}", stderr_of(&out));
}

#[test]
fn client_validates_job_specs_locally_before_connecting() {
    // The address is never dialed: the spec fails first. Prove it by
    // pointing at a port nothing listens on and checking the error is
    // about the spec, not the connection.
    let out = repro(&["client", "127.0.0.1:1", "--job", r#"{"bogus":true}"#]);
    assert!(!out.status.success());
    let stderr = stderr_of(&out);
    assert!(stderr.contains("invalid job spec: unknown job field `bogus`"), "{stderr}");
    assert!(!stderr.contains("cannot connect"), "spec validation must precede dialing: {stderr}");
}

#[test]
fn job_rejects_unknown_fields_and_missing_specs() {
    let out = repro(&[
        "job",
        "--json",
        r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8},"warp":9}"#,
    ]);
    assert!(!out.status.success(), "an unknown job field must exit nonzero");
    assert!(out.stdout.is_empty(), "nothing may land on stdout");
    assert!(
        stderr_of(&out).contains("invalid job spec: unknown job field `warp`"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["job"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("repro job expects a spec"), "{}", stderr_of(&out));

    let out = repro(&["job", "--spec", "/nonexistent/spec.json"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("cannot read job spec"), "{}", stderr_of(&out));
}

#[test]
fn serve_router_flags_validate_fast() {
    // Worker-only flags are refused by name in router mode.
    let out = repro(&["serve", "--router", "127.0.0.1:1", "--queue", "4"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("--queue is a worker flag and does not apply to --router mode"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["serve", "--router", "not-an-address"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("invalid --router backend `not-an-address` (expected host:port)"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["serve", "--retries", "3"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("--retries applies only to --router mode"),
        "{}",
        stderr_of(&out)
    );
}

#[test]
fn cache_tool_validates_arguments_fast() {
    let out = repro(&["cache"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("repro cache expects a command"), "{}", stderr_of(&out));

    let out = repro(&["cache", "stats"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("repro cache requires --result-dir"), "{}", stderr_of(&out));

    let out = repro(&["cache", "purge", "--result-dir", "/nonexistent"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out)
            .contains("repro cache purge requires --stale (only staleness-based purging"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["cache", "stats", "--stale", "--result-dir", "/nonexistent"]);
    assert!(!out.status.success());
    assert!(
        stderr_of(&out).contains("--stale applies only to `repro cache purge`"),
        "{}",
        stderr_of(&out)
    );

    let out = repro(&["cache", "frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("unknown cache argument `frobnicate`"), "{}", stderr_of(&out));
}

/// The epoch bug, end to end at the binary level: a daemon under epoch
/// 1001 persists a result; a binary under epoch 2002 classifies that
/// entry stale (`repro cache stats`) and `purge --stale` removes exactly
/// it — the injection hook (`DVP_ENGINE_EPOCH`) is the same one CI uses.
#[test]
fn cache_tool_classifies_and_purges_across_an_epoch_flip() {
    use std::io::{BufRead, BufReader};

    let dir = std::env::temp_dir().join(format!("dvp-cli-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();

    // Epoch-1001 lifetime: compute one job and persist it.
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("DVP_ENGINE_EPOCH", "1001")
        .args(["serve", "--listen", "127.0.0.1:0", "--result-dir", &dir_arg])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon spawns");
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line.trim().strip_prefix("listening on ").expect("advertised address").to_owned();
    let job = r#"{"scenario":{"kind":"stride","pcs":2,"records_per_pc":32,"seed":4,"stride":2},"bank":["l"]}"#;
    let out = repro(&["client", &addr, "--job", job]);
    assert!(out.status.success(), "cold job: {}", stderr_of(&out));
    let bye = repro(&["client", &addr, "--shutdown"]);
    assert!(bye.status.success(), "shutdown: {}", stderr_of(&bye));
    assert!(daemon.wait().expect("daemon exits").success());

    // A binary at a different epoch must classify that entry stale…
    let stats = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("DVP_ENGINE_EPOCH", "2002")
        .args(["cache", "stats", "--result-dir", &dir_arg])
        .output()
        .expect("cache stats");
    assert!(stats.status.success(), "{}", stderr_of(&stats));
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("0 current, 1 stale, 0 unreadable"), "{text}");

    // …and purge exactly it, leaving an empty (but healthy) cache.
    let purge = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("DVP_ENGINE_EPOCH", "2002")
        .args(["cache", "purge", "--stale", "--result-dir", &dir_arg])
        .output()
        .expect("cache purge");
    assert!(purge.status.success(), "{}", stderr_of(&purge));
    let text = String::from_utf8_lossy(&purge.stdout);
    assert!(text.contains("purged 1 stale entry, kept 0 current"), "{text}");

    let again = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("DVP_ENGINE_EPOCH", "2002")
        .args(["cache", "stats", "--result-dir", &dir_arg])
        .output()
        .expect("cache stats");
    assert!(String::from_utf8_lossy(&again.stdout).contains("0 current, 0 stale, 0 unreadable"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Full binary-level round trip: boot the daemon as a child process on an
/// ephemeral port, run two identical jobs through `repro client`, check
/// the second is served from cache with identical bytes, then shut the
/// daemon down cleanly and read its final stats line.
#[test]
fn serve_and_client_binaries_round_trip_with_a_cache_hit() {
    use std::io::{BufRead, BufReader};

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["serve", "--listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // The daemon prints `listening on ADDR` and flushes before accepting;
    // reading that line is the synchronization point (no sleeps).
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("listening line");
    let addr = line.trim().strip_prefix("listening on ").expect("advertised address").to_owned();

    let job = r#"{"scenario":{"kind":"periodic","pcs":2,"records_per_pc":64,"seed":9,"period":4},"bank":["l","fcm2"]}"#;
    let cold = repro(&["client", &addr, "--job", job, "--payload-only"]);
    assert!(cold.status.success(), "cold job: {}", stderr_of(&cold));
    let warm = repro(&["client", &addr, "--job", job, "--payload-only", "--stats"]);
    assert!(warm.status.success(), "warm job: {}", stderr_of(&warm));

    // The warm run appends the stats frame after the payload; split it off
    // (strip the stats line's own trailing newline first).
    let warm_text = String::from_utf8_lossy(&warm.stdout).into_owned();
    let stripped = warm_text.strip_suffix('\n').expect("stats line ends in a newline");
    let (warm_payload, stats_line) = stripped.rsplit_once('\n').expect("payload then stats");
    let warm_payload = format!("{warm_payload}\n");
    assert_eq!(
        warm_payload.as_bytes(),
        cold.stdout,
        "cache hit must be byte-identical to the cold compute"
    );
    assert!(stats_line.contains("\"result_hits\":1"), "{stats_line}");

    let bye = repro(&["client", &addr, "--shutdown"]);
    assert!(bye.status.success(), "shutdown: {}", stderr_of(&bye));
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon must exit zero after a client shutdown");
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut daemon.stderr.take().expect("piped"), &mut stderr)
        .expect("daemon stderr");
    assert!(stderr.contains("1 result hits, 1 misses"), "final stats line: {stderr}");
}
