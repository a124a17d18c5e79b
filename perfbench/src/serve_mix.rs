//! `serve-mix`: an in-process `Router` over two in-process `Server`
//! workers, each with a fresh result directory and trace directory.
//!
//! Two closed-loop `ServeClient` connections with zero think time submit a
//! seeded mix: repeats drawn from a hot set (result-cache hits) beside
//! fresh specs (misses that generate, replay, render and fsync a result
//! entry). The mix varies banks and includes sampled jobs; the hot set is
//! larger than the workers' in-memory LRU, so some hits come from the disk
//! tier. The loop is closed because each `repro client` caller waits for
//! its reply; misses write while hits read under the same cache lock.

use dvp_engine::ReplayEngine;
use dvp_experiments::result_cache::{fnv1a64, ResultCache, ResultCacheStats};
use dvp_experiments::serve::{
    route_backend, run_job, JobSpec, Outcome, Router, RouterOptions, ServeClient, ServeOptions,
    Server,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::common::{
    derive_seed, note_peak_rss, repeat_setup, reset_peak_rss, rounds, timed, Checks, Ctx, Layers,
    Measured, Metric, Request, Timings,
};
use crate::spans::Tracer;
use crate::stats::{median, tail_up_to, MIN_BEYOND};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
/// In-memory result-cache entries per worker.
const LRU: usize = 8;
/// Distinct specs the hits are drawn from: three times the tier's LRU.
const HOT: usize = 48;
/// Jobs per round, split evenly across the clients.
const JOBS_PER_ROUND: usize = 200;
const HIT_PERCENT: u64 = 75;
const PCS: u32 = 16;
const RECORDS_PER_PC: u32 = 512;
const SETUPS: usize = 3;
/// Hits and misses a run collects at least, so that a p99 over either has
/// ten samples beyond it.
const MIN_SAMPLES: usize = 100 * MIN_BEYOND;
/// Seconds the traced run spends on each of its untraced and traced halves,
/// at most.
const TRACED_HALF_S: f64 = 5.0;
/// Miss specs the traced run replays inline through `run_job`.
const INLINE_SPECS: usize = 32;

/// One job spec as sent, with its canonical result-cache key.
#[derive(Clone)]
struct Spec {
    json: String,
    key: String,
}

/// A spec for job stream `stream`. The stream fixes the scenario kind,
/// the bank and whether the job is sampled, so every seed runs the same
/// mix; the seed picks the scenario's values.
fn spec(seed: u64, stream: u64) -> Spec {
    let scenario_seed = derive_seed(seed, stream) >> 16;
    let kind = match stream % 5 {
        0 => "\"kind\":\"mixed\"",
        1 => "\"kind\":\"stride\",\"stride\":4",
        2 => "\"kind\":\"periodic\",\"period\":32",
        3 => "\"kind\":\"markov\",\"order\":2,\"alphabet\":4",
        _ => "\"kind\":\"chase\",\"heap\":256",
    };
    let bank = match stream % 4 {
        0 => "\"l\",\"s2\"",
        1 => "\"l\",\"s2\",\"fcm1\",\"fcm2\",\"fcm3\"",
        2 => "\"fcm1\",\"fcm2\"",
        _ => "\"s2\",\"fcm3\"",
    };
    let sample = stream.is_multiple_of(3);
    let json = format!(
        "{{\"scenario\":{{{kind},\"pcs\":{PCS},\"records_per_pc\":{RECORDS_PER_PC},\
         \"seed\":{scenario_seed}}},\"bank\":[{bank}],\"sample\":{sample}}}"
    );
    let key = JobSpec::parse(&json).expect("generated specs are valid").canonical_key();
    Spec { json, key }
}

fn hot_set(seed: u64) -> Vec<Spec> {
    (0..HOT as u64).map(|i| spec(seed, i)).collect()
}

/// The jobs one client submits in one round.
fn round_jobs(seed: u64, hot: &[Spec], round: usize, client: usize) -> Vec<Spec> {
    (0..JOBS_PER_ROUND / CLIENTS)
        .map(|j| {
            let stream = (1 << 40) | ((round as u64) << 20) | ((client as u64) << 16) | j as u64;
            let r = derive_seed(seed, stream);
            if r % 100 < HIT_PERCENT {
                hot[((r >> 32) % HOT as u64) as usize].clone()
            } else {
                spec(seed, stream)
            }
        })
        .collect()
}

/// The router and its workers.
struct Tier {
    router: Router,
    workers: Vec<Server>,
}

impl Tier {
    fn start(ctx: &Ctx, name: &str) -> Result<Tier, String> {
        let mut workers = Vec::new();
        for w in 0..WORKERS {
            let options = ServeOptions {
                memory_entries: LRU,
                result_dir: Some(ctx.dir(&format!("{name}-w{w}-results"))?),
                trace_dir: Some(ctx.dir(&format!("{name}-w{w}-traces"))?),
                ..ServeOptions::default()
            };
            workers.push(
                Server::start(ReplayEngine::new(), options).map_err(|e| format!("worker: {e}"))?,
            );
        }
        let router = Router::start(RouterOptions {
            backends: workers.iter().map(|w| w.addr().to_string()).collect(),
            ..RouterOptions::default()
        })
        .map_err(|e| format!("router: {e}"))?;
        Ok(Tier { router, workers })
    }

    fn client(&self) -> Result<ServeClient, String> {
        ServeClient::connect(&self.router.addr().to_string()).map_err(|e| format!("connect: {e}"))
    }

    fn result_stats(&self) -> ResultCacheStats {
        let mut sum = ResultCacheStats::default();
        for w in &self.workers {
            let s = w.result_stats();
            sum.hits += s.hits;
            sum.misses += s.misses;
            sum.disk_hits += s.disk_hits;
            sum.written += s.written;
            sum.evictions += s.evictions;
            sum.invalid += s.invalid;
        }
        sum
    }
}

/// Start plus hot-set warm: every hot spec computed once.
fn set_up(ctx: &Ctx, hot: &[Spec]) -> Result<(Tier, Timings), String> {
    repeat_setup(SETUPS, |i| {
        let tier = Tier::start(ctx, &format!("tier{i}"))?;
        let mut client = tier.client()?;
        for spec in hot {
            match client.submit(&spec.json) {
                Ok(Outcome::Result { .. }) => {}
                other => return Err(format!("warming {} failed: {other:?}", spec.json)),
            }
        }
        Ok(tier)
    })
}

/// What one job did, as the client saw it.
struct Job {
    json: String,
    key: String,
    outcome: Result<Outcome, String>,
    submitted: Instant,
    accepted: Option<Instant>,
    replaying: Option<Instant>,
    done: Instant,
}

impl Job {
    fn latency_s(&self) -> f64 {
        self.done.duration_since(self.submitted).as_secs_f64()
    }

    fn cache_hit(&self) -> bool {
        matches!(&self.outcome, Ok(Outcome::Result { cache, .. }) if cache == "hit")
    }
}

/// Submits one job and records its spans: the four frames (submit,
/// accepted, replaying, result) share the job's id.
fn submit(client: &mut ServeClient, spec: &Spec, tracer: &Tracer, id: u64) -> Job {
    let submitted = Instant::now();
    let mut accepted = None;
    let mut replaying = None;
    let outcome = client
        .submit_streaming(&spec.json, |frame| match frame.frame.as_str() {
            "accepted" => accepted = Some(Instant::now()),
            "progress" => replaying = Some(Instant::now()),
            _ => {}
        })
        .map_err(|e| e.to_string());
    let done = Instant::now();
    let job = tracer.record("serve.job", None, Some(id), submitted, done);
    if let Some(accepted) = accepted {
        tracer.record("serve.admit", job, Some(id), submitted, accepted);
        if let Some(replaying) = replaying {
            tracer.record("serve.queue_wait", job, Some(id), accepted, replaying);
            tracer.record("serve.service", job, Some(id), replaying, done);
        }
    }
    Job {
        json: spec.json.clone(),
        key: spec.key.clone(),
        outcome,
        submitted,
        accepted,
        replaying,
        done,
    }
}

/// Runs one round on every client concurrently; returns its jobs and the
/// host seconds until the last client finished.
fn round(
    seed: u64,
    hot: &[Spec],
    clients: &mut [ServeClient],
    index: usize,
    tracer: &Tracer,
) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let jobs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let list = round_jobs(seed, hot, index, c);
                scope.spawn(move || {
                    list.iter()
                        .enumerate()
                        .map(|(j, spec)| {
                            let id = ((index as u64) << 20) | ((c as u64) << 16) | j as u64;
                            submit(client, spec, tracer, id)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    (jobs, start.elapsed().as_secs_f64())
}

/// What a run keeps of one job once its payload has been checked.
struct Sample {
    latency_s: f64,
    hit: bool,
    queue_ms: Option<f64>,
    service_ms: Option<f64>,
    rejected: bool,
    failed: bool,
}

fn gap_ms(from: Option<Instant>, to: Option<Instant>) -> Option<f64> {
    Some(to?.duration_since(from?).as_secs_f64() * 1e3)
}

/// Checks every job (a result whose payload hashes as the first payload
/// seen for its key does) and keeps its sample; the first few miss specs
/// are kept for timing `run_job` inline.
fn check(
    jobs: Vec<Job>,
    first: &mut HashMap<String, u64>,
    checks: &mut Checks,
    miss_specs: &mut Vec<String>,
) -> Vec<Sample> {
    jobs.into_iter()
        .map(|job| {
            let ok = match &job.outcome {
                Ok(Outcome::Result { payload, .. }) => {
                    let hash = fnv1a64(payload.as_bytes());
                    *first.entry(job.key.clone()).or_insert(hash) == hash
                }
                _ => false,
            };
            checks.record(ok, || format!("job {} ended {:?}", job.json, job.outcome));
            if job.replaying.is_some() && miss_specs.len() < INLINE_SPECS {
                miss_specs.push(job.json.clone());
            }
            Sample {
                latency_s: job.latency_s(),
                hit: job.cache_hit(),
                queue_ms: gap_ms(job.accepted, job.replaying),
                service_ms: gap_ms(job.replaying, Some(job.done)),
                rejected: matches!(job.outcome, Ok(Outcome::Rejected { .. })),
                failed: !matches!(
                    job.outcome,
                    Ok(Outcome::Result { .. } | Outcome::Rejected { .. })
                ),
            }
        })
        .collect()
}

/// Compares the hot set's served payloads with inline `run_job`.
fn check_inline(hot: &[Spec], first: &HashMap<String, u64>, checks: &mut Checks) {
    let engine = ReplayEngine::new();
    for spec in hot {
        let inline = JobSpec::parse(&spec.json).and_then(|s| run_job(&s, &engine, None));
        let served = first.get(&spec.key);
        let ok = matches!((&inline, served), (Ok(p), Some(h)) if fnv1a64(p.as_bytes()) == *h);
        checks.record(ok, || format!("hot spec {} differs from inline run_job", spec.json));
    }
}

fn sizes() -> Vec<(&'static str, String)> {
    vec![
        ("workers", WORKERS.to_string()),
        ("clients", CLIENTS.to_string()),
        ("lru_per_worker", LRU.to_string()),
        ("hot_set", HOT.to_string()),
        ("jobs_per_round", JOBS_PER_ROUND.to_string()),
        ("hit_percent", HIT_PERCENT.to_string()),
        ("records_per_job", (PCS * RECORDS_PER_PC).to_string()),
    ]
}

/// What one stretch of closed-loop rounds produced.
struct Driven {
    samples: Vec<Sample>,
    rounds_s: Timings,
    peak_rss_mb: f64,
    miss_specs: Vec<String>,
}

/// Closed-loop rounds until `seconds` passed and the hits and the misses
/// each leave ten samples beyond their p99.
#[allow(clippy::too_many_arguments)]
fn drive(
    ctx: &Ctx,
    tracer: &Tracer,
    hot: &[Spec],
    clients: &mut [ServeClient],
    first: &mut HashMap<String, u64>,
    checks: &mut Checks,
    seconds: f64,
    round_base: usize,
) -> Result<Driven, String> {
    let mut samples: Vec<Sample> = Vec::new();
    let mut miss_specs = Vec::new();
    let (hits, misses) = (std::cell::Cell::new(0usize), std::cell::Cell::new(0usize));
    let mut peak_rss_mb = 0.0;
    reset_peak_rss();
    let rounds_s = rounds(
        seconds,
        1,
        100.0,
        |i| {
            let (jobs, secs) = round(ctx.seed, hot, clients, round_base + i, tracer);
            note_peak_rss(i, &mut peak_rss_mb);
            let kept = check(jobs, first, checks, &mut miss_specs);
            hits.set(hits.get() + kept.iter().filter(|s| s.hit).count());
            misses.set(misses.get() + kept.iter().filter(|s| s.queue_ms.is_some()).count());
            samples.extend(kept);
            Ok(secs)
        },
        || hits.get() < MIN_SAMPLES || misses.get() < MIN_SAMPLES,
    )?;
    Ok(Driven { samples, rounds_s, peak_rss_mb, miss_specs })
}

fn latency_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_s * 1e3).collect()
}

pub fn measure(ctx: &Ctx) -> Result<Measured, String> {
    let hot = hot_set(ctx.seed);
    let (tier, setup_s) = set_up(ctx, &hot)?;
    let mut m = Measured { setup_s, ..Measured::default() };
    let mut clients = (0..CLIENTS).map(|_| tier.client()).collect::<Result<Vec<_>, _>>()?;
    let mut first = HashMap::new();
    let driven =
        drive(ctx, ctx.tracer, &hot, &mut clients, &mut first, &mut m.checks, ctx.seconds, 0)?;
    m.requests =
        driven.samples.iter().map(|s| Request { latency_s: s.latency_s, hit: s.hit }).collect();
    m.rounds_s = driven.rounds_s;
    m.peak_rss_mb = driven.peak_rss_mb;
    drop(clients);
    drop(tier);
    check_inline(&hot, &first, &mut m.checks);
    m.sizes = sizes();
    Ok(m)
}

/// Pulls `"field":<n>` out of a stats frame.
fn stats_field(line: &str, field: &str) -> Option<u64> {
    let rest = line.split(&format!("\"{field}\":")).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
}

pub fn profile(ctx: &Ctx, out: &mut Layers, checks: &mut Checks) -> Result<(), String> {
    let tracer = ctx.tracer;
    let hot = hot_set(ctx.seed);
    let (tier, _) = set_up(ctx, &hot)?;
    let mut clients = (0..CLIENTS).map(|_| tier.client()).collect::<Result<Vec<_>, _>>()?;
    let mut first = HashMap::new();
    // Each half runs until it has enough samples; the cap keeps the traced
    // run, which profiles every workload, short whatever `--seconds` says.
    let half = (ctx.seconds / 2.0).min(TRACED_HALF_S);
    let untraced = Tracer::new(false);
    let plain = drive(ctx, &untraced, &hot, &mut clients, &mut first, checks, half, 0)?;

    // The traced half: the same loop with spans, and each worker's job
    // queue sampled from `stats` frames on a side connection.
    let stop = AtomicBool::new(false);
    let base = plain.rounds_s.len();
    let (driven, queued_max, running_max) = std::thread::scope(|scope| {
        let pollers: Vec<_> = tier
            .workers
            .iter()
            .map(|w| {
                let addr = w.addr().to_string();
                let stop = &stop;
                scope.spawn(move || {
                    let (mut queued, mut running) = (0u64, 0u64);
                    if let Ok(mut c) = ServeClient::connect(&addr) {
                        while !stop.load(Ordering::SeqCst) {
                            let Ok(line) = c.stats() else { break };
                            queued = queued.max(stats_field(&line, "queued").unwrap_or(0));
                            running = running.max(stats_field(&line, "running").unwrap_or(0));
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                    }
                    (queued, running)
                })
            })
            .collect();
        let driven = drive(ctx, tracer, &hot, &mut clients, &mut first, checks, half, base);
        stop.store(true, Ordering::SeqCst);
        let (mut q, mut r) = (0u64, 0u64);
        for p in pollers {
            let (pq, pr) = p.join().expect("pollers do not panic");
            q = q.max(pq);
            r = r.max(pr);
        }
        (driven, q, r)
    });
    let traced = driven?;

    for (name, xs) in [
        ("serve.queue_wait_ms", traced.samples.iter().filter_map(|s| s.queue_ms).collect()),
        (
            "serve.service_ms",
            traced.samples.iter().filter_map(|s| s.service_ms).collect::<Vec<_>>(),
        ),
    ] {
        if xs.is_empty() {
            return Err(format!("{name}: the traced rounds had no misses"));
        }
        let t = tail_up_to(&xs, 99.0);
        println!("# {name}.p99 is {}", t.label());
        out.push(Metric::new(format!("{name}.p50"), median(&xs), "ms"));
        out.push(Metric::new(format!("{name}.p99"), t.value, "ms"));
    }
    let engine = ReplayEngine::new();
    let mut inline_ms = Vec::new();
    let mut payloads = Vec::new();
    for json in &traced.miss_specs {
        let spec = JobSpec::parse(json).expect("generated specs are valid");
        let (payload, secs) =
            timed(|| tracer.span("serve.run_job", || run_job(&spec, &engine, None)));
        inline_ms.push(secs * 1e3);
        payloads.push((spec.canonical_key(), payload?));
    }
    out.push(Metric::new("serve.run_job_ms", median(&inline_ms), "ms"));
    let all = || plain.samples.iter().chain(&traced.samples);
    out.push(Metric::new("serve.rejected", all().filter(|s| s.rejected).count() as f64, "count"));
    out.push(Metric::new("serve.errors", all().filter(|s| s.failed).count() as f64, "count"));

    // Relay cost: one hot spec routed, minus the same spec sent straight
    // to the worker that owns it.
    let backends: Vec<String> = tier.workers.iter().map(|w| w.addr().to_string()).collect();
    let probe = &hot[0];
    let owner = route_backend(&backends, &probe.key).to_owned();
    let mut direct = ServeClient::connect(&owner).map_err(|e| format!("connect: {e}"))?;
    let mut routed = tier.client()?;
    let (mut via_router, mut via_worker) = (Vec::new(), Vec::new());
    for _ in 0..100 {
        via_router.push(timed(|| routed.submit(&probe.json)).1 * 1e3);
        via_worker.push(timed(|| direct.submit(&probe.json)).1 * 1e3);
    }
    out.push(Metric::new("router.relay_ms", median(&via_router) - median(&via_worker), "ms"));
    let router = tier.router.stats();
    out.push(Metric::new("router.forwarded", router.forwarded as f64, "count"));
    out.push(Metric::new("router.backend_down", router.backend_down as f64, "count"));
    out.push(Metric::new("jobs.queued_max", queued_max as f64, "count"));
    out.push(Metric::new("jobs.running_max", running_max as f64, "count"));

    let stats = tier.result_stats();
    drop((clients, direct, routed));
    drop(tier);
    for (name, v) in [
        ("hits", stats.hits),
        ("misses", stats.misses),
        ("disk_hits", stats.disk_hits),
        ("written", stats.written),
        ("evictions", stats.evictions),
        ("invalid", stats.invalid),
    ] {
        out.push(Metric::new(format!("result_cache.{name}"), v as f64, "count"));
    }
    let served = stats.hits + stats.disk_hits;
    out.push(Metric::new(
        "result_cache.hit_ratio",
        served as f64 / (served + stats.misses).max(1) as f64,
        "ratio",
    ));
    result_cache_calls(ctx, &payloads, out)?;

    let p99 = |xs: &[f64]| tail_up_to(xs, 99.0).value;
    let overhead = |f: fn(&[f64]) -> f64, traced: &[f64], plain: &[f64]| f(traced) / f(plain) - 1.0;
    let (traced_ms, plain_ms) = (latency_ms(&traced.samples), latency_ms(&plain.samples));
    out.push(Metric::new(
        "overhead.serve-mix.wall_s",
        overhead(median, &traced.rounds_s.raw_s, &plain.rounds_s.raw_s),
        "ratio",
    ));
    out.push(Metric::new(
        "overhead.serve-mix.latency_p50_ms",
        overhead(median, &traced_ms, &plain_ms),
        "ratio",
    ));
    out.push(Metric::new(
        "overhead.serve-mix.latency_p99_ms",
        overhead(p99, &traced_ms, &plain_ms),
        "ratio",
    ));
    Ok(())
}

/// Times `ResultCache` calls directly: an insert (memory plus a durable
/// disk entry), a memory-tier get, and a disk-tier get from a fresh cache
/// over the same directory.
fn result_cache_calls(
    ctx: &Ctx,
    entries: &[(String, String)],
    out: &mut Layers,
) -> Result<(), String> {
    let tracer = ctx.tracer;
    let dir = ctx.dir("result-cache-calls")?;
    let us = |secs: f64| secs * 1e6;
    let mut cache = ResultCache::new(entries.len()).with_dir(&dir);
    let inserts: Vec<f64> = entries
        .iter()
        .map(|(k, v)| us(timed(|| tracer.span("result_cache.insert", || cache.insert(k, v))).1))
        .collect();
    let gets: Vec<f64> = entries
        .iter()
        .map(|(k, _)| us(timed(|| tracer.span("result_cache.get", || cache.get(k))).1))
        .collect();
    let mut cold = ResultCache::new(entries.len()).with_dir(&dir);
    let mut disk_ok = true;
    let disk: Vec<f64> = entries
        .iter()
        .map(|(k, v)| {
            let (got, secs) = timed(|| tracer.span("result_cache.disk_get", || cold.get(k)));
            disk_ok &= got.as_deref() == Some(v.as_str());
            us(secs)
        })
        .collect();
    if !disk_ok || cold.stats().disk_hits != entries.len() as u64 {
        return Err("the disk tier did not return what was inserted".to_owned());
    }
    out.push(Metric::new("result_cache.get_us", median(&gets), "us"));
    out.push(Metric::new("result_cache.disk_get_us", median(&disk), "us"));
    out.push(Metric::new("result_cache.insert_us", median(&inserts), "us"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(key: &str, outcome: Result<Outcome, String>) -> Job {
        let now = Instant::now();
        Job {
            json: String::new(),
            key: key.to_owned(),
            outcome,
            submitted: now,
            accepted: Some(now),
            replaying: None,
            done: now,
        }
    }

    fn result(payload: &str) -> Result<Outcome, String> {
        Ok(Outcome::Result { cache: "hit".to_owned(), payload: payload.to_owned() })
    }

    #[test]
    fn a_corrupted_payload_or_a_refusal_raises_failed_share() {
        let mut first = HashMap::new();
        let mut checks = Checks::default();
        let mut specs = Vec::new();
        let jobs = vec![job("a", result("x")), job("b", result("y")), job("a", result("x"))];
        let kept = check(jobs, &mut first, &mut checks, &mut specs);
        assert_eq!((checks.attempted, checks.failed), (3, 0));
        assert!(kept.iter().all(|s| s.hit && !s.failed));

        let jobs = vec![
            job("a", result("x, corrupted")),
            job("b", Ok(Outcome::Rejected { reason: "queue full".to_owned() })),
            job("b", Err("connection reset".to_owned())),
        ];
        let kept = check(jobs, &mut first, &mut checks, &mut specs);
        assert_eq!((checks.attempted, checks.failed), (6, 3));
        assert_eq!(checks.failed_share(), 0.5);
        assert!(kept[1].rejected && !kept[1].failed);
        assert!(kept[2].failed);
    }

    #[test]
    fn every_seed_runs_the_same_mix_of_kinds_banks_and_modes() {
        let shape = |seed: u64| -> Vec<String> {
            (0..60)
                .map(|i| {
                    let json = spec(seed, i).json;
                    let cut = json.find("\"seed\"").expect("spec names its seed");
                    let tail = &json[json.find("\"bank\"").expect("spec names its bank")..];
                    format!("{}{tail}", &json[..cut])
                })
                .collect()
        };
        assert_eq!(shape(1), shape(2));
        assert_ne!(spec(1, 0).key, spec(2, 0).key);
    }
}
