//! `repro serve` — a concurrent replay daemon with a result cache.
//!
//! The paper's experiments are one-shot sweeps; this module turns the
//! replay machinery into a long-lived service answering predictability
//! queries for many concurrent clients. A [`Server`] listens on TCP and
//! speaks a newline-delimited JSON **line protocol**: every request and
//! every response is one JSON object on one line.
//!
//! # The job lifecycle
//!
//! 1. **Admit.** A `submit` request carries a [`JobSpec`] — a synthetic
//!    scenario or a workload, a predictor bank, and options. Specs are
//!    parsed *strictly* (an unknown field is an error, never silently
//!    ignored) and validated before anything is scheduled. Admission is
//!    controlled twice: per client (at most `inflight_cap` unfinished
//!    jobs per connection) and globally (the bounded
//!    [`dvp_engine::JobQueue`] in front of the engine). An
//!    over-limit submit is answered with a structured `rejected` frame,
//!    never queued without bound.
//! 2. **Schedule.** Admitted jobs run on the queue's worker threads; each
//!    job internally fans out on the shared
//!    [`dvp_engine::ReplayEngine`].
//! 3. **Replay.** [`run_job`] materializes the trace (through the
//!    ordinary [`crate::TraceStore`] path, including its disk
//!    tier when a trace directory is configured), replays the requested
//!    bank, and renders a deterministic text payload — byte-identical to
//!    what the one-shot `repro job` CLI prints for the same spec.
//! 4. **Cache.** Completed payloads are memoized in a fingerprint-keyed
//!    [`crate::result_cache::ResultCache`] (in-memory LRU +
//!    optional on-disk tier). The cache key is
//!    [`JobSpec::canonical_key`]: the **engine epoch**
//!    ([`dvp_engine::engine_epoch`], a fingerprint of the
//!    predictor-semantics surface) prefixed to the job descriptor, so an
//!    identical later job on the *same* semantics is answered from cache
//!    byte-identically — and a daemon restarted on a binary with
//!    different semantics recomputes instead of serving stale bytes.
//! 5. **Stream.** The client sees `accepted`, then `progress`, then one
//!    terminal `result` / `error` frame (or an immediate `rejected`).
//!    Frames for one connection are serialized through a per-connection
//!    writer lock, so `accepted` always precedes that job's `result`.
//!
//! # Batch submission
//!
//! A `jobs` request carries many job specs, each tagged with a
//! client-chosen `id`, and is answered by **one interleaved response
//! stream**: per-job `accepted` / `rejected` / `progress` / terminal
//! frames in completion order, every frame carrying its job's id. A
//! whole sweep matrix is one round trip
//! ([`ServeClient::submit_batch`]), with per-job admission control and
//! byte-identical payloads vs N single submissions.
//!
//! # Scale-out: routers and workers
//!
//! The complete canonical key makes jobs location-independent, so the
//! daemon scales out shared-nothing. A [`Router`] (`repro serve
//! --router a,b,...`) accepts the same line protocol and forwards each
//! job to the backend worker owning its canonical key — rendezvous
//! hashing ([`route_backend`]), so each worker (a plain `repro serve`
//! process) owns a disjoint key range with its own disk tier. Backend
//! frames are relayed **verbatim**, so routed payloads are byte-identical
//! to worker-direct and one-shot ones; an unreachable backend produces a
//! structured `backend_down` terminal frame after bounded reconnect
//! attempts, never a hang.
//!
//! Both tiers share one front door: one listener (accept loop, shutdown,
//! join), one connection loop (`hello`, capped request lines, strict
//! parsing, and the locally answered `ping` / `stats` / `shutdown`) and
//! one frame writer. They differ only in what becomes of jobs: the daemon
//! admits them, the router forwards them over backend links that are
//! ordinary [`ServeClient`]s.
//!
//! # Examples
//!
//! ```
//! use dvp_engine::ReplayEngine;
//! use dvp_experiments::serve::{JobSpec, Outcome, ServeClient, ServeOptions, Server, run_job};
//!
//! let engine = ReplayEngine::sequential();
//! let server = Server::start(engine.clone(), ServeOptions::default())?;
//! let mut client = ServeClient::connect(&server.addr().to_string())?;
//!
//! let spec = r#"{"scenario":{"kind":"constant","pcs":2,"records_per_pc":64},"bank":["l"]}"#;
//! let outcome = client.submit(spec)?;
//! let Outcome::Result { payload, .. } = outcome else { panic!("small job is admitted") };
//! // Byte-identical to computing the same job inline:
//! let inline = run_job(&JobSpec::parse(spec).unwrap(), &engine, None).unwrap();
//! assert_eq!(payload, inline);
//! client.shutdown()?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! Routed two-worker tier, batch-submitted through the router — every
//! payload byte-identical to the inline compute:
//!
//! ```
//! use dvp_engine::ReplayEngine;
//! use dvp_experiments::serve::{
//!     JobSpec, Outcome, Router, RouterOptions, ServeClient, ServeOptions, Server, run_job,
//! };
//!
//! let engine = ReplayEngine::sequential();
//! let w1 = Server::start(engine.clone(), ServeOptions::default())?;
//! let w2 = Server::start(engine.clone(), ServeOptions::default())?;
//! let router = Router::start(RouterOptions {
//!     backends: vec![w1.addr().to_string(), w2.addr().to_string()],
//!     ..RouterOptions::default()
//! })?;
//!
//! let jobs = [
//!     r#"{"scenario":{"kind":"constant","pcs":2,"records_per_pc":64},"bank":["l"]}"#,
//!     r#"{"scenario":{"kind":"stride","pcs":2,"records_per_pc":64,"stride":3},"bank":["s2"]}"#,
//! ];
//! let mut client = ServeClient::connect(&router.addr().to_string())?;
//! let outcomes = client.submit_batch(&jobs.map(String::from))?;
//! for (job, outcome) in jobs.iter().zip(&outcomes) {
//!     let Outcome::Result { payload, .. } = outcome else { panic!("admitted") };
//!     let inline = run_job(&JobSpec::parse(job).unwrap(), &engine, None).unwrap();
//!     assert_eq!(*payload, inline);
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

use crate::cache::TraceCache;
use crate::json;
use crate::result_cache::{ResultCache, ResultCacheStats};
use crate::{TextTable, TraceStore, REFERENCE_OPT};
use dvp_core::PredictorConfig;
use dvp_engine::{JobQueue, ReplayEngine};
use dvp_trace::Fnv;
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use dvp_workloads::Benchmark;
use std::collections::HashSet;
use std::io::{self, BufRead, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Version of the line protocol, announced in the `hello` frame.
pub const PROTOCOL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Job specs
// ---------------------------------------------------------------------------

/// What a job replays: a synthetic scenario or a simulated workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// A parameterized synthetic scenario (generated, never simulated).
    Scenario(Scenario),
    /// A real benchmark workload at `default_scale / scale_div`.
    Workload {
        /// The benchmark to simulate.
        benchmark: Benchmark,
        /// Scale divisor (1 = reference scale; `repro --quick` uses 4).
        scale_div: u32,
    },
}

/// One validated replay job: source × predictor bank × options.
///
/// The wire form is a JSON object with exactly one of `"scenario"` /
/// `"workload"`, plus optional `"bank"` (defaults to the paper bank),
/// `"sample"` (phase-sampled replay with functional warming), and
/// `"record_cap"`. Parsing is strict: unknown fields and out-of-range
/// parameters are errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// What to replay.
    pub source: JobSource,
    /// Predictor configuration names (`"l"`, `"s2"`, `"fcm1"`..`"fcm8"`).
    pub bank: Vec<String>,
    /// Replay only a SimPoint phase plan (functionally warmed) instead of
    /// the full trace.
    pub sample: bool,
    /// Truncate the trace to at most this many records.
    pub record_cap: Option<usize>,
}

/// Intermediate scenario fields, collected before kind-aware validation.
#[derive(Default)]
struct ScenarioFields {
    kind: Option<String>,
    pcs: Option<u32>,
    records_per_pc: Option<u32>,
    seed: Option<u64>,
    stride: Option<i64>,
    jitter_pct: Option<u8>,
    period: Option<u32>,
    order: Option<u32>,
    alphabet: Option<u64>,
    heap: Option<u32>,
}

impl ScenarioFields {
    /// Rejects any kind-specific field that does not belong to `kind`.
    fn forbid(&self, kind: &str, allowed: &[&str]) -> Result<(), String> {
        let present: [(&str, bool); 6] = [
            ("stride", self.stride.is_some()),
            ("jitter_pct", self.jitter_pct.is_some()),
            ("period", self.period.is_some()),
            ("order", self.order.is_some()),
            ("alphabet", self.alphabet.is_some()),
            ("heap", self.heap.is_some()),
        ];
        for (name, is_present) in present {
            if is_present && !allowed.contains(&name) {
                return Err(format!("field `{name}` does not apply to scenario kind `{kind}`"));
            }
        }
        Ok(())
    }

    fn require<T: Copy>(value: Option<T>, kind: &str, name: &str) -> Result<T, String> {
        value.ok_or_else(|| format!("scenario kind `{kind}` requires field `{name}`"))
    }

    /// Builds the validated [`Scenario`]. Field presence and which fields
    /// a kind takes are checked here; the parameter ranges are
    /// [`Scenario::try_new`]'s, answered as errors (a daemon must never
    /// panic on client input).
    fn build(self) -> Result<Scenario, String> {
        let kind_name = self.kind.clone().ok_or("scenario requires field `kind`")?;
        let pcs = self.pcs.ok_or("scenario requires field `pcs`")?;
        let records_per_pc =
            self.records_per_pc.ok_or("scenario requires field `records_per_pc`")?;
        let kind = match kind_name.as_str() {
            "constant" => {
                self.forbid(&kind_name, &[])?;
                ScenarioKind::Constant
            }
            "mixed" => {
                self.forbid(&kind_name, &[])?;
                ScenarioKind::Mixed
            }
            "stride" => {
                self.forbid(&kind_name, &["stride", "jitter_pct"])?;
                let stride = Self::require(self.stride, &kind_name, "stride")?;
                ScenarioKind::Stride { stride, jitter_pct: self.jitter_pct.unwrap_or(0) }
            }
            "periodic" => {
                self.forbid(&kind_name, &["period"])?;
                ScenarioKind::Periodic { period: Self::require(self.period, &kind_name, "period")? }
            }
            "markov" => {
                self.forbid(&kind_name, &["order", "alphabet"])?;
                let order = Self::require(self.order, &kind_name, "order")?;
                let alphabet = Self::require(self.alphabet, &kind_name, "alphabet")?;
                // Out of `u32` is out of the 2..=64 range `try_new` checks.
                let alphabet = u32::try_from(alphabet).unwrap_or(u32::MAX);
                ScenarioKind::Markov { order, alphabet }
            }
            "chase" => {
                self.forbid(&kind_name, &["heap"])?;
                ScenarioKind::Chase { heap: Self::require(self.heap, &kind_name, "heap")? }
            }
            "random" => {
                self.forbid(&kind_name, &["alphabet"])?;
                ScenarioKind::Random {
                    alphabet: Self::require(self.alphabet, &kind_name, "alphabet")?,
                }
            }
            other => {
                return Err(format!(
                    "unknown scenario kind `{other}` (expected constant, stride, periodic, \
                     markov, chase, random, or mixed)"
                ))
            }
        };
        Scenario::try_new(kind, pcs, records_per_pc, self.seed.unwrap_or(1))
    }
}

impl JobSpec {
    /// Parses a complete job-spec JSON document (strict: trailing input,
    /// unknown fields, and out-of-range parameters are all errors).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violation.
    pub fn parse(text: &str) -> Result<JobSpec, String> {
        let mut parser = json::Parser::new(text);
        let spec = JobSpec::parse_value(&mut parser)?;
        parser.finish()?;
        Ok(spec)
    }

    /// Parses one job-spec object at the parser's cursor (the form used
    /// inside a `submit` request's `"job"` field).
    fn parse_value(parser: &mut json::Parser) -> Result<JobSpec, String> {
        let mut scenario: Option<Scenario> = None;
        let mut workload: Option<(Benchmark, u32)> = None;
        let mut bank: Option<Vec<String>> = None;
        let mut sample = false;
        let mut record_cap: Option<usize> = None;
        parser.object(|parser, key| {
            match key.as_str() {
                "scenario" => scenario = Some(Self::parse_scenario(parser)?),
                "workload" => workload = Some(Self::parse_workload(parser)?),
                "bank" => {
                    let mut names = Vec::new();
                    parser.array(|parser| parser.string().map(|name| names.push(name)))?;
                    bank = Some(names);
                }
                "sample" => sample = parser.boolean()?,
                "record_cap" => {
                    if !parser.try_null() {
                        let cap: u64 = parser.number("record_cap")?;
                        if cap == 0 {
                            return Err("field `record_cap` must be positive".to_owned());
                        }
                        record_cap =
                            Some(usize::try_from(cap).map_err(|_| "field `record_cap` too large")?);
                    }
                }
                other => return Err(format!("unknown job field `{other}`")),
            }
            Ok(())
        })?;
        let source = match (scenario, workload) {
            (Some(s), None) => JobSource::Scenario(s),
            (None, Some((benchmark, scale_div))) => JobSource::Workload { benchmark, scale_div },
            _ => return Err("job must have exactly one of `scenario` or `workload`".to_owned()),
        };
        let bank = match bank {
            Some(names) if names.is_empty() => {
                return Err("field `bank` must name at least one predictor".to_owned())
            }
            Some(names) => names,
            None => PredictorConfig::paper_bank().iter().map(|c| c.name().to_owned()).collect(),
        };
        for name in &bank {
            if bank_config(name).is_none() {
                return Err(format!(
                    "unknown predictor `{name}` in bank (expected l, s2, or fcm1..fcm8)"
                ));
            }
        }
        Ok(JobSpec { source, bank, sample, record_cap })
    }

    fn parse_scenario(parser: &mut json::Parser) -> Result<Scenario, String> {
        let mut fields = ScenarioFields::default();
        parser.object(|parser, key| {
            match key.as_str() {
                "kind" => fields.kind = Some(parser.string()?),
                "pcs" => fields.pcs = Some(parser.number("pcs")?),
                "records_per_pc" => {
                    fields.records_per_pc = Some(parser.number("records_per_pc")?);
                }
                "seed" => fields.seed = Some(parser.number("seed")?),
                "stride" => fields.stride = Some(parser.number("stride")?),
                "jitter_pct" => fields.jitter_pct = Some(parser.number("jitter_pct")?),
                "period" => fields.period = Some(parser.number("period")?),
                "order" => fields.order = Some(parser.number("order")?),
                "alphabet" => fields.alphabet = Some(parser.number("alphabet")?),
                "heap" => fields.heap = Some(parser.number("heap")?),
                other => return Err(format!("unknown scenario field `{other}`")),
            }
            Ok(())
        })?;
        fields.build()
    }

    fn parse_workload(parser: &mut json::Parser) -> Result<(Benchmark, u32), String> {
        let mut benchmark: Option<Benchmark> = None;
        let mut scale_div = 1u32;
        parser.object(|parser, key| {
            match key.as_str() {
                "benchmark" => {
                    let name = parser.string()?;
                    let Some(&found) = Benchmark::ALL.iter().find(|b| b.name() == name) else {
                        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                        return Err(format!(
                            "unknown benchmark `{name}` (expected one of: {})",
                            names.join(", ")
                        ));
                    };
                    benchmark = Some(found);
                }
                "scale_div" => {
                    scale_div = parser.number("scale_div")?;
                    if scale_div == 0 {
                        return Err("field `scale_div` must be positive".to_owned());
                    }
                }
                other => return Err(format!("unknown workload field `{other}`")),
            }
            Ok(())
        })?;
        let benchmark = benchmark.ok_or("workload requires field `benchmark`")?;
        Ok((benchmark, scale_div))
    }

    /// Renders the spec back to its canonical one-line JSON wire form
    /// (fields in a fixed order; `JobSpec::parse(spec.to_json())`
    /// round-trips).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        match &self.source {
            JobSource::Scenario(s) => {
                out.push_str("\"scenario\":{\"kind\":");
                json::write_string(s.name(), &mut out);
                out.push_str(&format!(
                    ",\"pcs\":{},\"records_per_pc\":{},\"seed\":{}",
                    s.pcs(),
                    s.records_per_pc(),
                    s.seed()
                ));
                match s.kind() {
                    ScenarioKind::Constant | ScenarioKind::Mixed => {}
                    ScenarioKind::Stride { stride, jitter_pct } => {
                        out.push_str(&format!(",\"stride\":{stride},\"jitter_pct\":{jitter_pct}"));
                    }
                    ScenarioKind::Periodic { period } => {
                        out.push_str(&format!(",\"period\":{period}"));
                    }
                    ScenarioKind::Markov { order, alphabet } => {
                        out.push_str(&format!(",\"order\":{order},\"alphabet\":{alphabet}"));
                    }
                    ScenarioKind::Chase { heap } => out.push_str(&format!(",\"heap\":{heap}")),
                    ScenarioKind::Random { alphabet } => {
                        out.push_str(&format!(",\"alphabet\":{alphabet}"));
                    }
                }
                out.push('}');
            }
            JobSource::Workload { benchmark, scale_div } => {
                out.push_str("\"workload\":{\"benchmark\":");
                json::write_string(benchmark.name(), &mut out);
                out.push_str(&format!(",\"scale_div\":{scale_div}}}"));
            }
        }
        out.push_str(",\"bank\":[");
        for (i, name) in self.bank.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(name, &mut out);
        }
        out.push_str(&format!("],\"sample\":{}", self.sample));
        if let Some(cap) = self.record_cap {
            out.push_str(&format!(",\"record_cap\":{cap}"));
        }
        out.push('}');
        out
    }

    /// The job descriptor: the trace fingerprint (workload, input, opt
    /// level, seed, scale, record cap) extended with the bank and
    /// sampling mode — everything *in the spec* that can move a payload
    /// byte. This is the identity line embedded in the rendered payload
    /// itself; the result-cache key is [`JobSpec::canonical_key`], which
    /// additionally binds the engine epoch.
    #[must_use]
    pub fn descriptor(&self) -> String {
        let fp = match &self.source {
            JobSource::Scenario(s) => s.fingerprint(self.record_cap),
            JobSource::Workload { benchmark, scale_div } => {
                let scale = (benchmark.default_scale() / scale_div).max(1);
                let workload = dvp_workloads::Workload::reference(*benchmark).with_scale(scale);
                TraceCache::fingerprint(&workload, REFERENCE_OPT, self.record_cap)
            }
        };
        format!(
            "{}|{}|{}|seed{}|scale{}|cap{}|bank={}|sample={}",
            fp.workload,
            fp.input,
            fp.opt_level,
            fp.seed,
            fp.scale,
            fp.record_cap,
            self.bank.join("+"),
            u8::from(self.sample)
        )
    }

    /// The canonical result-cache (and routing) key: the process-wide
    /// engine epoch ([`dvp_engine::engine_epoch`]) prefixed to the
    /// [`descriptor`](JobSpec::descriptor). Binding the epoch into the
    /// key means a cache — in-memory *or* on-disk — populated by a
    /// binary with different predictor semantics can never satisfy a
    /// lookup from this one.
    #[must_use]
    pub fn canonical_key(&self) -> String {
        self.canonical_key_at(dvp_engine::engine_epoch())
    }

    /// [`canonical_key`](JobSpec::canonical_key) at an explicit epoch —
    /// the hook tests use to simulate a restart on a different binary.
    #[must_use]
    pub fn canonical_key_at(&self, epoch: u64) -> String {
        format!("epoch{epoch:016x}|{}", self.descriptor())
    }
}

/// Resolves one predictor-configuration name: the paper bank's `"l"`,
/// `"s2"`, `"fcm1"`..`"fcm3"`, plus the extended `"fcm4"`..`"fcm8"`.
#[must_use]
pub fn bank_config(name: &str) -> Option<PredictorConfig> {
    if let Some(config) = PredictorConfig::paper_bank().into_iter().find(|c| c.name() == name) {
        return Some(config);
    }
    let order: usize = name.strip_prefix("fcm")?.parse().ok()?;
    if (1..=8).contains(&order) {
        PredictorConfig::fcm_orders([order]).pop()
    } else {
        None
    }
}

/// Runs one job to its rendered text payload — the single code path
/// behind the daemon, the one-shot `repro job` CLI, and the test goldens,
/// so all three are byte-identical by construction.
///
/// `trace_dir` adds the persistent trace-cache tier for workload and
/// scenario traces (results are cached separately, by the caller).
///
/// # Errors
///
/// A human-readable description of the failure (bad bank name, workload
/// build error).
pub fn run_job(
    spec: &JobSpec,
    engine: &ReplayEngine,
    trace_dir: Option<&Path>,
) -> Result<String, String> {
    let configs: Vec<PredictorConfig> = spec
        .bank
        .iter()
        .map(|name| bank_config(name).ok_or_else(|| format!("unknown predictor `{name}` in bank")))
        .collect::<Result<_, _>>()?;
    let mut store = match &spec.source {
        JobSource::Scenario(_) => TraceStore::new(),
        JobSource::Workload { scale_div, .. } => TraceStore::with_scale_div(*scale_div),
    }
    .with_engine(engine.clone());
    if let Some(cap) = spec.record_cap {
        store = store.with_record_cap(cap);
    }
    if let Some(dir) = trace_dir {
        store = store.with_trace_dir(dir);
    }
    let trace = match &spec.source {
        JobSource::Scenario(scenario) => {
            store.synthetic_traces(&[*scenario]).pop().expect("one scenario in, one out")
        }
        JobSource::Workload { benchmark, .. } => {
            store.trace(*benchmark).map_err(|err| format!("workload generation failed: {err:?}"))?
        }
    };
    // The payload embeds the epoch-free descriptor: the rendered bytes
    // describe the job, while epoch-binding lives in the cache key.
    let mut payload = format!("job {}\n", spec.descriptor());
    if spec.sample {
        let plan = dvp_engine::phase_plan(&trace, &dvp_engine::PhaseOptions::default());
        let replays = engine.replay_sampled_warm(&trace, &configs, &plan);
        payload.push_str(&format!(
            "sampled {} of {} records across {} phases (functional warming)\n",
            plan.simulated_records(),
            trace.len(),
            plan.phases.len()
        ));
        let mut table = TextTable::new(vec!["Config", "Simulated", "Correct", "Weighted%"]);
        for replay in &replays {
            let correct: u64 = replay.phases.iter().map(|t| t.correct(None)).sum();
            table.row(vec![
                replay.name.clone(),
                replay.simulated().to_string(),
                correct.to_string(),
                format!("{:.2}", replay.weighted_accuracy(&plan, None) * 100.0),
            ]);
        }
        payload.push_str(&table.render());
    } else {
        let replays = engine.replay(&trace, &configs);
        payload.push_str(&format!("replayed {} records\n", trace.len()));
        let mut table = TextTable::new(vec!["Config", "Predicted", "Correct"]);
        for replay in &replays {
            table.row(vec![
                replay.name.clone(),
                replay.tracker.predicted(None).to_string(),
                replay.tracker.correct(None).to_string(),
            ]);
        }
        payload.push_str(&table.render());
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

fn id_json(id: Option<u64>) -> String {
    id.map_or_else(|| "null".to_owned(), |n| n.to_string())
}

/// The greeting both tiers open a connection with; `server` is
/// `repro-serve` or `repro-router`.
fn hello_frame(server: &str) -> String {
    format!("{{\"frame\":\"hello\",\"protocol\":{PROTOCOL_VERSION},\"server\":\"{server}\"}}")
}

/// A per-job frame with string fields:
/// `{"frame":"<kind>","id":<id>,"<field>":"<value>",...}` (`accepted` /
/// `key`, `rejected` / `reason`, `progress` / `state`, `error` /
/// `message`, `result` / `cache` + `payload`, and the router's
/// `backend_down` / `backend` + `reason` for a job whose owning backend
/// could not be reached or was lost mid-job: structured, never a hang).
fn job_frame(kind: &str, id: Option<u64>, fields: &[(&str, &str)]) -> String {
    let mut out = format!("{{\"frame\":\"{kind}\",\"id\":{}", id_json(id));
    for (field, value) in fields {
        out.push_str(&format!(",\"{field}\":"));
        json::write_string(value, &mut out);
    }
    out.push('}');
    out
}

/// One parsed server frame — the *lenient* counterpart of the server's
/// strict request parsing: unknown fields are skipped so old clients keep
/// working against newer servers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frame {
    /// Frame type: `hello`, `accepted`, `rejected`, `progress`, `result`,
    /// `error`, `backend_down`, `pong`, `stats`, `bye`.
    pub frame: String,
    /// Echo of the submit request's `id`, when the frame belongs to a job.
    pub id: Option<u64>,
    /// The job's canonical result-cache key (`accepted` frames).
    pub key: Option<String>,
    /// Why a job was refused (`rejected` frames).
    pub reason: Option<String>,
    /// Scheduling state (`progress` frames).
    pub state: Option<String>,
    /// `"hit"` or `"miss"` (`result` frames).
    pub cache: Option<String>,
    /// The rendered job payload (`result` frames).
    pub payload: Option<String>,
    /// What went wrong (`error` frames).
    pub message: Option<String>,
    /// The unreachable backend's address (`backend_down` frames).
    pub backend: Option<String>,
    /// The frame's raw JSON line, verbatim.
    pub raw: String,
}

impl Frame {
    /// Parses one frame line, skipping unknown fields.
    ///
    /// # Errors
    ///
    /// Reports malformed JSON or a missing `frame` field.
    pub fn parse(line: &str) -> Result<Frame, String> {
        let mut parser = json::Parser::new(line);
        let mut out = Frame { raw: line.to_owned(), ..Frame::default() };
        let mut saw_frame = false;
        parser.object(|parser, field| -> Result<(), String> {
            match field.as_str() {
                "frame" => {
                    out.frame = parser.string()?;
                    saw_frame = true;
                }
                "id" => {
                    if !parser.try_null() {
                        out.id = Some(parser.number("id")?);
                    }
                }
                "key" => out.key = Some(parser.string()?),
                "reason" => out.reason = Some(parser.string()?),
                "state" => out.state = Some(parser.string()?),
                "cache" => out.cache = Some(parser.string()?),
                "payload" => out.payload = Some(parser.string()?),
                "message" => out.message = Some(parser.string()?),
                "backend" => out.backend = Some(parser.string()?),
                _ => parser.skip_value()?,
            }
            Ok(())
        })?;
        parser.finish()?;
        if !saw_frame {
            return Err("frame is missing `frame`".to_owned());
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon configuration (all fields have conservative defaults).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen address; port 0 binds an ephemeral port (read it back via
    /// [`Server::addr`]).
    pub listen: String,
    /// Maximum *pending* (admitted, not yet running) jobs; an over-limit
    /// submit is rejected.
    pub queue_capacity: usize,
    /// Maximum unfinished jobs per client connection.
    pub inflight_cap: usize,
    /// Worker threads executing jobs (each job fans out on the engine).
    pub job_workers: usize,
    /// In-memory result-cache entries (LRU).
    pub memory_entries: usize,
    /// On-disk result-cache directory (none = memory-only results).
    pub result_dir: Option<PathBuf>,
    /// Trace-cache directory handed to every job's [`TraceStore`].
    pub trace_dir: Option<PathBuf>,
    /// Engine epoch bound into every cache key and on-disk entry.
    /// Defaults to the process-wide [`dvp_engine::engine_epoch`];
    /// overridable so tests can simulate a restart on a different binary
    /// without touching the environment.
    pub epoch: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            listen: "127.0.0.1:0".to_owned(),
            queue_capacity: 64,
            inflight_cap: 8,
            job_workers: 2,
            memory_entries: 64,
            result_dir: None,
            trace_dir: None,
            epoch: dvp_engine::engine_epoch(),
        }
    }
}

/// State shared by the connection threads and job workers.
struct ServerShared {
    engine: ReplayEngine,
    queue: JobQueue,
    cache: Mutex<ResultCache>,
    inflight_cap: usize,
    trace_dir: Option<PathBuf>,
    epoch: u64,
    completed: AtomicU64,
}

impl ServerShared {
    fn stats_frame(&self) -> String {
        let stats = self.cache.lock().expect("cache mutex never poisoned").stats();
        format!(
            "{{\"frame\":\"stats\",\"result_hits\":{},\"misses\":{},\"disk_hits\":{},\
             \"written\":{},\"evicted\":{},\"invalid\":{},\"completed\":{},\"queued\":{},\
             \"running\":{}}}",
            stats.hits,
            stats.misses,
            stats.disk_hits,
            stats.written,
            stats.evictions,
            stats.invalid,
            self.completed.load(Ordering::SeqCst),
            self.queue.queued(),
            self.queue.running()
        )
    }
}

/// The `repro serve` daemon (see the [module docs](self) for the
/// protocol and job lifecycle).
pub struct Server {
    listener: Listener,
    shared: Arc<ServerShared>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr()).finish()
    }
}

impl Server {
    /// Binds `options.listen` and starts accepting connections; jobs run
    /// on `engine`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (busy port, bad address).
    pub fn start(engine: ReplayEngine, options: ServeOptions) -> io::Result<Server> {
        let listener = TcpListener::bind(&options.listen)?;
        let mut cache = ResultCache::new(options.memory_entries).with_epoch(options.epoch);
        if let Some(dir) = &options.result_dir {
            cache = cache.with_dir(dir);
        }
        let shared = Arc::new(ServerShared {
            queue: JobQueue::new(options.job_workers, options.queue_capacity),
            engine,
            cache: Mutex::new(cache),
            inflight_cap: options.inflight_cap,
            trace_dir: options.trace_dir,
            epoch: options.epoch,
            completed: AtomicU64::new(0),
        });
        let conn_shared = Arc::clone(&shared);
        let listener = Listener::start(listener, move |door, stream| {
            let inflight = Arc::new(AtomicUsize::new(0));
            let stats = || conn_shared.stats_frame();
            serve_connection(door, stream, "repro-serve", stats, |writer, jobs| {
                // One interleaved response stream: admit every job in order;
                // its frames then arrive tagged by id in completion order.
                for (id, spec) in jobs {
                    submit_job(&conn_shared, writer, &inflight, id, spec);
                }
            });
        })?;
        Ok(Server { listener, shared })
    }

    /// The bound address (read this back after listening on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.listener.door.addr
    }

    /// Result-cache counters so far.
    #[must_use]
    pub fn result_stats(&self) -> ResultCacheStats {
        self.shared.cache.lock().expect("cache mutex never poisoned").stats()
    }

    /// Jobs that reached a terminal frame (result, cached result, error).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(Ordering::SeqCst)
    }

    /// Blocks until no job is pending or running (or `timeout` elapses);
    /// reports whether the queue went idle.
    #[must_use]
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.shared.queue.wait_idle(timeout)
    }

    /// Begins shutdown: no new connections are accepted. Already-admitted
    /// jobs still run to completion.
    pub fn request_shutdown(&self) {
        self.listener.door.request_shutdown();
    }

    /// Blocks until a client requests shutdown (or one was already
    /// requested), drains in-flight jobs, and returns the final
    /// result-cache counters.
    pub fn join(mut self) -> ResultCacheStats {
        self.listener.join();
        let _ = self.shared.queue.wait_idle(Duration::from_secs(60));
        self.result_stats()
    }
}

/// Longest request line the daemon and the router accept, newline
/// excluded: 1 MiB holds a `jobs` batch of thousands of full-size job
/// specs, far past any queue capacity or in-flight cap. A longer line is
/// answered with an `error` frame and the connection is closed, so a
/// client that never sends `\n` cannot grow a server buffer without bound.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// The request lines of one connection, `\n`- or `\r\n`-terminated,
/// each read through a [`MAX_REQUEST_LINE`] cap. Ends at EOF, on a read
/// error or non-UTF-8 bytes (the client is gone or broken), and after
/// yielding `Err(message)` for an over-long line.
fn request_lines(stream: TcpStream) -> impl Iterator<Item = Result<String, String>> {
    let mut reader = io::BufReader::new(stream);
    let mut buf = Vec::new();
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        buf.clear();
        let cap = MAX_REQUEST_LINE as u64 + 1;
        if !matches!(io::Read::take(&mut reader, cap).read_until(b'\n', &mut buf), Ok(n) if n > 0) {
            return None;
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_LINE {
            done = true;
            return Some(Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes")));
        }
        String::from_utf8(std::mem::take(&mut buf)).ok().map(Ok)
    })
}

/// Writes one protocol line and flushes it: the one place a line meets a
/// socket, for the client and both server tiers alike.
fn write_line(stream: &mut TcpStream, line: &str) -> io::Result<()> {
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// Writes one frame line under its connection's writer lock; write errors
/// mean the client is gone and are deliberately ignored (a disconnected
/// client must never wedge a job).
fn write_frame(writer: &Mutex<TcpStream>, line: &str) {
    let _ = write_line(&mut writer.lock().expect("writer mutex never poisoned"), line);
}

/// One client request, parsed strictly (see [`parse_request`]).
#[derive(Debug)]
enum Request {
    /// A `submit` (one job, optional id) or a `jobs` batch (ids required).
    Jobs(Vec<(Option<u64>, JobSpec)>),
    Ping,
    Stats,
    Shutdown,
}

/// Parses one element of a `jobs` batch array: exactly `{"id": n, "job":
/// {...}}`, both fields required (the id is how the client tells the
/// interleaved response frames apart, so an element without one is
/// useless and rejected up front).
fn parse_batch_element(parser: &mut json::Parser) -> Result<(u64, JobSpec), String> {
    let mut id: Option<u64> = None;
    let mut spec: Option<JobSpec> = None;
    parser.object(|parser, key| {
        match key.as_str() {
            "id" => id = Some(parser.number("id")?),
            "job" => spec = Some(JobSpec::parse_value(parser)?),
            other => return Err(format!("unknown batch-element field `{other}`")),
        }
        Ok(())
    })?;
    let id = id.ok_or("every batch element requires an `id`")?;
    let spec = spec.ok_or("every batch element requires a `job` object")?;
    Ok((id, spec))
}

/// Parses one request line. Strict like the job spec itself: an unknown
/// request field or op is an error answered with an `error` frame.
fn parse_request(line: &str) -> Result<Request, String> {
    let mut parser = json::Parser::new(line);
    let mut op: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut spec: Option<JobSpec> = None;
    let mut batch: Option<Vec<(Option<u64>, JobSpec)>> = None;
    parser.object(|parser, key| {
        match key.as_str() {
            "op" => op = Some(parser.string()?),
            "id" => {
                if !parser.try_null() {
                    id = Some(parser.number("id")?);
                }
            }
            "job" => spec = Some(JobSpec::parse_value(parser)?),
            "jobs" => {
                let mut list = Vec::new();
                let mut seen = HashSet::new();
                parser.array(|parser| {
                    let (el_id, el_spec) = parse_batch_element(parser)?;
                    if !seen.insert(el_id) {
                        return Err(format!("duplicate batch id {el_id}"));
                    }
                    list.push((Some(el_id), el_spec));
                    Ok(())
                })?;
                batch = Some(list);
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
        Ok(())
    })?;
    parser.finish()?;
    match op.as_deref() {
        Some("submit") => {
            if batch.is_some() {
                return Err("op `submit` takes a `job` object, not `jobs`".to_owned());
            }
            let spec = spec.ok_or("submit requires a `job` object")?;
            Ok(Request::Jobs(vec![(id, spec)]))
        }
        Some("jobs") => {
            if spec.is_some() {
                return Err("op `jobs` takes a `jobs` array, not `job`".to_owned());
            }
            let jobs = batch.ok_or("op `jobs` requires a `jobs` array")?;
            if jobs.is_empty() {
                return Err("`jobs` must contain at least one element".to_owned());
            }
            Ok(Request::Jobs(jobs))
        }
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => {
            Err(format!("unknown op `{other}` (expected submit, jobs, ping, stats, or shutdown)"))
        }
        None => Err("request is missing `op`".to_owned()),
    }
}

/// A listener's shutdown switch, shared with its connection threads so a
/// client's `shutdown` request can flip it.
struct Door {
    addr: SocketAddr,
    shutdown: AtomicBool,
}

impl Door {
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// The accept side of both tiers: one thread accepts connections and
/// serves each on a thread of its own. Dropping the listener shuts it
/// down and joins the accept thread.
struct Listener {
    door: Arc<Door>,
    accept: Option<thread::JoinHandle<()>>,
}

impl Listener {
    fn start(
        listener: TcpListener,
        serve: impl Fn(&Door, TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Listener> {
        let door =
            Arc::new(Door { addr: listener.local_addr()?, shutdown: AtomicBool::new(false) });
        let accept_door = Arc::clone(&door);
        let serve = Arc::new(serve);
        let accept = thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_door.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let (door, serve) = (Arc::clone(&accept_door), Arc::clone(&serve));
                thread::spawn(move || serve(&door, stream));
            }
        });
        Ok(Listener { door, accept: Some(accept) })
    }

    /// Blocks until the accept loop stopped (a shutdown was requested).
    fn join(&mut self) {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.door.request_shutdown();
            self.join();
        }
    }
}

/// The connection loop of both tiers: the `hello`, capped request lines,
/// strict parsing, and the locally answered `ping`, `stats` and
/// `shutdown`. A tier supplies its `stats` frame and what becomes of
/// jobs: the daemon admits them, the router forwards them. Every frame
/// goes out through the connection's one writer lock.
fn serve_connection(
    door: &Door,
    stream: TcpStream,
    server: &str,
    stats_frame: impl Fn() -> String,
    mut jobs: impl FnMut(&Arc<Mutex<TcpStream>>, Vec<(Option<u64>, JobSpec)>),
) {
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let writer = Arc::new(Mutex::new(write_half));
    write_frame(&writer, &hello_frame(server));
    for line in request_lines(stream) {
        let line = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => line,
            Err(too_long) => {
                write_frame(&writer, &job_frame("error", None, &[("message", &too_long)]));
                break;
            }
        };
        match parse_request(&line) {
            Err(why) => write_frame(&writer, &job_frame("error", None, &[("message", &why)])),
            Ok(Request::Jobs(list)) => jobs(&writer, list),
            Ok(Request::Ping) => write_frame(&writer, "{\"frame\":\"pong\"}"),
            Ok(Request::Stats) => write_frame(&writer, &stats_frame()),
            Ok(Request::Shutdown) => {
                write_frame(&writer, "{\"frame\":\"bye\"}");
                door.request_shutdown();
                break;
            }
        }
    }
}

fn submit_job(
    shared: &Arc<ServerShared>,
    writer: &Arc<Mutex<TcpStream>>,
    inflight: &Arc<AtomicUsize>,
    id: Option<u64>,
    spec: JobSpec,
) {
    if inflight.load(Ordering::SeqCst) >= shared.inflight_cap {
        let reason = format!("in-flight limit ({}) reached", shared.inflight_cap);
        write_frame(writer, &job_frame("rejected", id, &[("reason", &reason)]));
        return;
    }
    let key = spec.canonical_key_at(shared.epoch);
    let cached = shared.cache.lock().expect("cache mutex never poisoned").get(&key);
    if let Some(payload) = cached {
        // Count completion *before* the terminal frame: a client must
        // never observe its result while `completed()` still lags.
        shared.completed.fetch_add(1, Ordering::SeqCst);
        write_frame(writer, &job_frame("accepted", id, &[("key", &key)]));
        write_frame(writer, &job_frame("result", id, &[("cache", "hit"), ("payload", &payload)]));
        return;
    }
    inflight.fetch_add(1, Ordering::SeqCst);
    let job_shared = Arc::clone(shared);
    let job_writer = Arc::clone(writer);
    let job_inflight = Arc::clone(inflight);
    let job_key = key.clone();
    let job = move || {
        write_frame(&job_writer, &job_frame("progress", id, &[("state", "replaying")]));
        let outcome = run_job(&spec, &job_shared.engine, job_shared.trace_dir.as_deref());
        if let Ok(payload) = &outcome {
            job_shared.cache.lock().expect("cache mutex never poisoned").insert(&job_key, payload);
        }
        // Count completion *before* the terminal frame (see the hit path).
        job_shared.completed.fetch_add(1, Ordering::SeqCst);
        match outcome {
            Ok(payload) => write_frame(
                &job_writer,
                &job_frame("result", id, &[("cache", "miss"), ("payload", &payload)]),
            ),
            Err(why) => write_frame(&job_writer, &job_frame("error", id, &[("message", &why)])),
        }
        job_inflight.fetch_sub(1, Ordering::SeqCst);
    };
    // Hold the writer lock across admission so the worker's `progress`
    // frame can never precede this job's `accepted` frame.
    let mut stream = writer.lock().expect("writer mutex never poisoned");
    let line = match shared.queue.try_submit(job) {
        Ok(_ticket) => job_frame("accepted", id, &[("key", &key)]),
        Err(err) => {
            inflight.fetch_sub(1, Ordering::SeqCst);
            job_frame("rejected", id, &[("reason", &err.to_string())])
        }
    };
    let _ = write_line(&mut stream, &line);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Terminal outcome of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The job finished; `cache` is `"hit"` or `"miss"`.
    Result {
        /// Whether the payload came from the result cache.
        cache: String,
        /// The rendered job payload.
        payload: String,
    },
    /// Admission control refused the job.
    Rejected {
        /// The structured reason (queue full, in-flight limit).
        reason: String,
    },
    /// The job (or the request itself) failed.
    Error {
        /// What went wrong.
        message: String,
    },
    /// The router could not reach the backend owning this job's key
    /// (bounded reconnect attempts exhausted, or the connection was lost
    /// mid-job).
    BackendDown {
        /// The unreachable backend's address.
        backend: String,
        /// Why it is considered down.
        reason: String,
    },
}

/// The [`Outcome`] a terminal frame (`result`, `rejected`, `error`,
/// `backend_down`) carries, or `None` for a frame that does not end its
/// job. The client and the router's relay both find a job's end here.
fn terminal_outcome(frame: Frame) -> Option<Outcome> {
    Some(match frame.frame.as_str() {
        "result" => Outcome::Result {
            cache: frame.cache.unwrap_or_default(),
            payload: frame.payload.unwrap_or_default(),
        },
        "rejected" => Outcome::Rejected { reason: frame.reason.unwrap_or_default() },
        "error" => Outcome::Error { message: frame.message.unwrap_or_default() },
        "backend_down" => Outcome::BackendDown {
            backend: frame.backend.unwrap_or_default(),
            reason: frame.reason.unwrap_or_default(),
        },
        _ => return None,
    })
}

/// The request line submitting `jobs`, each an id and its job JSON
/// (embedded verbatim): one `jobs` batch when `batch`, else a `submit` of
/// the single job.
fn submit_request<S: AsRef<str>>(
    batch: bool,
    jobs: impl IntoIterator<Item = (Option<u64>, S)>,
) -> String {
    let elements: Vec<String> = jobs
        .into_iter()
        .map(|(id, job)| format!("\"id\":{},\"job\":{}", id_json(id), job.as_ref()))
        .collect();
    if batch {
        format!("{{\"op\":\"jobs\",\"jobs\":[{{{}}}]}}", elements.join("},{"))
    } else {
        debug_assert_eq!(elements.len(), 1, "a submit carries one job");
        format!("{{\"op\":\"submit\",{}}}", elements[0])
    }
}

/// A blocking line-protocol client: one connection, sequential requests.
/// Used by `repro client`, the integration suite, and CI.
#[derive(Debug)]
pub struct ServeClient {
    reader: io::BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl ServeClient {
    /// Connects, applies a generous read timeout (jobs are computed
    /// while the client blocks on the result frame), and consumes the
    /// server's `hello`.
    ///
    /// # Errors
    ///
    /// Propagates connect/handshake failures (connection refused, a
    /// non-`hello` first frame).
    pub fn connect(addr: &str) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone()?;
        let mut client = ServeClient { reader: io::BufReader::new(stream), writer, next_id: 1 };
        let hello = client.read_frame()?;
        if hello.frame != "hello" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a hello frame, got `{}`", hello.raw),
            ));
        }
        Ok(client)
    }

    fn send_line(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads the next frame; its `raw` line is what the router relays.
    fn read_frame(&mut self) -> io::Result<Frame> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Frame::parse(line.trim_end_matches(['\n', '\r']))
                .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why));
        }
    }

    /// Submits one job spec (JSON text) and drives the stream to its
    /// terminal frame, handing every frame to `on_frame` on the way.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; protocol-level refusals come back
    /// as [`Outcome::Rejected`] / [`Outcome::Error`].
    pub fn submit_streaming(
        &mut self,
        job_json: &str,
        mut on_frame: impl FnMut(&Frame),
    ) -> io::Result<Outcome> {
        let id = self.next_id;
        self.next_id += 1;
        self.send_line(&submit_request(false, [(Some(id), job_json)]))?;
        loop {
            let frame = self.read_frame()?;
            on_frame(&frame);
            if let Some(outcome) = terminal_outcome(frame) {
                return Ok(outcome);
            }
        }
    }

    /// [`ServeClient::submit_streaming`] without a frame callback.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit(&mut self, job_json: &str) -> io::Result<Outcome> {
        self.submit_streaming(job_json, |_| {})
    }

    /// Submits many job specs as **one** `jobs` request and drives the
    /// single interleaved response stream until every job reached its
    /// terminal frame, handing every frame to `on_frame` on the way.
    ///
    /// Returns one [`Outcome`] per input job, in input order (frames may
    /// arrive in any completion order; ids map them back). A
    /// request-level `error` frame (null id) fails every job that has no
    /// terminal frame yet.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; per-job refusals come back as
    /// [`Outcome::Rejected`] / [`Outcome::Error`] /
    /// [`Outcome::BackendDown`] in the returned vector.
    pub fn submit_batch_streaming(
        &mut self,
        jobs: &[String],
        mut on_frame: impl FnMut(&Frame),
    ) -> io::Result<Vec<Outcome>> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        let first_id = self.next_id;
        self.next_id += jobs.len() as u64;
        self.send_line(&submit_request(true, (first_id..).map(Some).zip(jobs)))?;
        let mut outcomes: Vec<Option<Outcome>> = vec![None; jobs.len()];
        let mut open = jobs.len();
        while open > 0 {
            let frame = self.read_frame()?;
            on_frame(&frame);
            let id = frame.id;
            let Some(outcome) = terminal_outcome(frame) else { continue };
            let slot = id
                .and_then(|id| id.checked_sub(first_id))
                .and_then(|offset| usize::try_from(offset).ok())
                .filter(|offset| *offset < jobs.len());
            match slot {
                Some(index) => {
                    if outcomes[index].is_none() {
                        outcomes[index] = Some(outcome);
                        open -= 1;
                    }
                }
                None => {
                    // A request-level failure (null or unknown id): the
                    // server will send nothing further for this batch, so
                    // it answers every still-open job.
                    for entry in outcomes.iter_mut().filter(|entry| entry.is_none()) {
                        *entry = Some(outcome.clone());
                    }
                    open = 0;
                }
            }
        }
        Ok(outcomes.into_iter().map(|outcome| outcome.expect("every slot filled")).collect())
    }

    /// [`ServeClient::submit_batch_streaming`] without a frame callback.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit_batch(&mut self, jobs: &[String]) -> io::Result<Vec<Outcome>> {
        self.submit_batch_streaming(jobs, |_| {})
    }

    /// Sends a request the server answers with one frame, which must be a
    /// `want` frame.
    fn exchange(&mut self, line: &str, want: &str) -> io::Result<Frame> {
        self.send_line(line)?;
        let frame = self.read_frame()?;
        if frame.frame == want {
            Ok(frame)
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected {want}: {}", frame.raw),
            ))
        }
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures or a non-`pong` response.
    pub fn ping(&mut self) -> io::Result<()> {
        self.exchange("{\"op\":\"ping\"}", "pong").map(drop)
    }

    /// Fetches the server's `stats` frame (raw JSON line).
    ///
    /// # Errors
    ///
    /// Propagates transport failures or a non-`stats` response.
    pub fn stats(&mut self) -> io::Result<String> {
        self.exchange("{\"op\":\"stats\"}", "stats").map(|frame| frame.raw)
    }

    /// Asks the server to shut down and waits for the `bye` ack.
    ///
    /// # Errors
    ///
    /// Propagates transport failures or a non-`bye` response.
    pub fn shutdown(&mut self) -> io::Result<()> {
        self.exchange("{\"op\":\"shutdown\"}", "bye").map(drop)
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Router configuration (see [`Router`]).
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Listen address; port 0 binds an ephemeral port (read it back via
    /// [`Router::addr`]).
    pub listen: String,
    /// Backend worker addresses. Must be nonempty; ownership of the key
    /// space is split across them by [`route_backend`].
    pub backends: Vec<String>,
    /// Bounded TCP connect attempts per backend before its jobs are
    /// answered with `backend_down` frames.
    pub connect_attempts: u32,
}

impl Default for RouterOptions {
    fn default() -> RouterOptions {
        RouterOptions {
            listen: "127.0.0.1:0".to_owned(),
            backends: Vec::new(),
            connect_attempts: 2,
        }
    }
}

/// Router counters (returned by [`Router::stats`] / [`Router::join`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Jobs whose terminal frame was relayed from a backend.
    pub forwarded: u64,
    /// Jobs answered with a `backend_down` frame instead.
    pub backend_down: u64,
}

struct RouterShared {
    backends: Vec<String>,
    connect_attempts: u32,
    forwarded: AtomicU64,
    down: AtomicU64,
}

impl RouterShared {
    fn stats_frame(&self) -> String {
        format!(
            "{{\"frame\":\"stats\",\"router\":true,\"backends\":{},\"forwarded\":{},\
             \"backend_down\":{}}}",
            self.backends.len(),
            self.forwarded.load(Ordering::SeqCst),
            self.down.load(Ordering::SeqCst)
        )
    }

    fn stats(&self) -> RouterStats {
        RouterStats {
            forwarded: self.forwarded.load(Ordering::SeqCst),
            backend_down: self.down.load(Ordering::SeqCst),
        }
    }
}

/// Picks the backend owning `key` by rendezvous (highest-random-weight)
/// hashing: every backend scores an independent hash of
/// `(backend, key)` and the highest score wins.
///
/// Properties the router relies on:
///
/// - **Deterministic and coordination-free** — every router (and every
///   test) agrees on the owner from the backend list alone.
/// - **Order-independent** — permuting the backend list never moves a
///   key (scores don't depend on list position; ties break on the
///   backend *name*).
/// - **Minimal movement** — removing one backend only re-homes the keys
///   it owned; all other keys keep their owner.
#[must_use]
pub fn route_backend<'a>(backends: &'a [String], key: &str) -> &'a str {
    assert!(!backends.is_empty(), "route_backend requires at least one backend");
    let mut best: Option<(&str, u64)> = None;
    for backend in backends {
        let mut fnv = Fnv::new();
        fnv.update(backend.as_bytes());
        fnv.update(&[0]); // separator: ("ab", "c") never collides with ("a", "bc")
        fnv.update(key.as_bytes());
        let score = fnv.finish();
        let wins = match best {
            None => true,
            // Deterministic tie-break on the name keeps the choice
            // independent of list order even on (astronomically unlikely)
            // equal scores.
            Some((b, s)) => score > s || (score == s && backend.as_str() < b),
        };
        if wins {
            best = Some((backend, score));
        }
    }
    best.expect("nonempty backend list").0
}

/// Opens a backend link: a [`ServeClient`] connection, with `attempts`
/// tries and a short, growing backoff between them.
fn connect_backend(addr: &str, attempts: u32) -> Result<ServeClient, String> {
    let mut last = String::new();
    for attempt in 0..attempts {
        if attempt > 0 {
            thread::sleep(Duration::from_millis(50 * u64::from(attempt)));
        }
        match ServeClient::connect(addr) {
            Ok(link) => return Ok(link),
            // The client's EOF text says "server"; a `backend_down`
            // reason names the peer as the backend.
            Err(err) if err.kind() == io::ErrorKind::UnexpectedEof => {
                last = "backend closed the connection".to_owned();
            }
            Err(err) => last = err.to_string(),
        }
    }
    Err(format!("unreachable after {attempts} attempts: {last}"))
}

/// The scale-out front door: accepts the same line protocol as
/// [`Server`] and forwards every job to the backend worker owning its
/// canonical key (see the [module docs](self)). `ping` / `stats` /
/// `shutdown` are answered locally; `shutdown` stops the router only,
/// never its workers.
pub struct Router {
    listener: Listener,
    shared: Arc<RouterShared>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router").field("addr", &self.addr()).finish()
    }
}

impl Router {
    /// Binds `options.listen` and starts accepting connections.
    ///
    /// Backends are *not* dialed here: a worker that is down at start
    /// (or restarts later) costs nothing until a job routes to it, and
    /// then fails fast with a structured `backend_down` frame.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidInput`] when `options.backends` is empty;
    /// otherwise bind failures (busy port, bad address).
    pub fn start(options: RouterOptions) -> io::Result<Router> {
        if options.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "router requires at least one backend",
            ));
        }
        let listener = TcpListener::bind(&options.listen)?;
        let shared = Arc::new(RouterShared {
            backends: options.backends,
            connect_attempts: options.connect_attempts.max(1),
            forwarded: AtomicU64::new(0),
            down: AtomicU64::new(0),
        });
        let conn_shared = Arc::clone(&shared);
        let listener = Listener::start(listener, move |door, stream| {
            // Requests on one router connection are forwarded sequentially
            // by this thread, so backend links can be pooled per-connection
            // without any id-collision risk across clients.
            let mut links: Vec<Option<ServeClient>> =
                conn_shared.backends.iter().map(|_| None).collect();
            let stats = || conn_shared.stats_frame();
            serve_connection(door, stream, "repro-router", stats, |writer, jobs| {
                route_and_forward(&conn_shared, writer, &mut links, jobs);
            });
        })?;
        Ok(Router { listener, shared })
    }

    /// The bound address (read this back after listening on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.listener.door.addr
    }

    /// Forwarding counters so far.
    #[must_use]
    pub fn stats(&self) -> RouterStats {
        self.shared.stats()
    }

    /// Begins shutdown: no new connections are accepted. Workers are
    /// untouched.
    pub fn request_shutdown(&self) {
        self.listener.door.request_shutdown();
    }

    /// Blocks until a client requests shutdown (or one was already
    /// requested) and returns the final forwarding counters.
    pub fn join(mut self) -> RouterStats {
        self.listener.join();
        self.shared.stats()
    }
}

/// Splits `jobs` into per-backend groups by canonical-key ownership
/// (preserving submission order within each group) and forwards each
/// group over that backend's pooled link.
fn route_and_forward(
    shared: &RouterShared,
    client: &Mutex<TcpStream>,
    links: &mut [Option<ServeClient>],
    jobs: Vec<(Option<u64>, JobSpec)>,
) {
    let mut groups: Vec<Vec<(Option<u64>, JobSpec)>> = Vec::new();
    groups.resize_with(shared.backends.len(), Vec::new);
    for (id, spec) in jobs {
        let key = spec.canonical_key();
        let owner = route_backend(&shared.backends, &key);
        let index = shared
            .backends
            .iter()
            .position(|backend| backend == owner)
            .expect("owner comes from the backend list");
        groups[index].push((id, spec));
    }
    for (index, group) in groups.into_iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        forward_group(shared, client, &mut links[index], &shared.backends[index], &group);
    }
}

/// Forwards one per-backend job group and relays the backend's frames to
/// the client, verbatim, until every job in the group reached a terminal
/// frame. A pooled link that turns out to be dead is replaced and the
/// group resent **only if no frame was received yet** (resending after a
/// frame could double-execute a job); past that point, still-open jobs
/// are answered with `backend_down` frames.
fn forward_group(
    shared: &RouterShared,
    client: &Mutex<TcpStream>,
    slot: &mut Option<ServeClient>,
    backend: &str,
    group: &[(Option<u64>, JobSpec)],
) {
    let request =
        submit_request(group.len() > 1, group.iter().map(|(id, spec)| (*id, spec.to_json())));
    let ids: Vec<Option<u64>> = group.iter().map(|(id, _)| *id).collect();
    let backend_down = |id: Option<u64>, reason: &str| {
        job_frame("backend_down", id, &[("backend", backend), ("reason", reason)])
    };
    // One fresh-link resend: a pooled connection may have died since its
    // last use, and that must not cost the client its jobs.
    let mut resends_left = 1u32;
    loop {
        let mut link = match slot.take() {
            Some(link) => link,
            None => match connect_backend(backend, shared.connect_attempts) {
                Ok(link) => link,
                Err(why) => {
                    shared.down.fetch_add(ids.len() as u64, Ordering::SeqCst);
                    for id in &ids {
                        write_frame(client, &backend_down(*id, &why));
                    }
                    return;
                }
            },
        };
        let mut pending: HashSet<Option<u64>> = ids.iter().copied().collect();
        let mut received_any = false;
        if link.send_line(&request).is_ok() {
            while !pending.is_empty() {
                let Ok(frame) = link.read_frame() else { break };
                received_any = true;
                // Relayed verbatim, so routed payloads are byte-identical
                // to worker-direct ones by construction.
                write_frame(client, &frame.raw);
                let id = frame.id;
                if terminal_outcome(frame).is_some() {
                    match id {
                        Some(done) => {
                            pending.remove(&Some(done));
                        }
                        // A request-level failure answers the whole group:
                        // the backend sends nothing further for it.
                        None => pending.clear(),
                    }
                }
            }
        }
        if pending.is_empty() {
            shared.forwarded.fetch_add(ids.len() as u64, Ordering::SeqCst);
            *slot = Some(link); // the link proved healthy: pool it
            return;
        }
        if !received_any && resends_left > 0 {
            resends_left -= 1;
            continue;
        }
        let answered = (ids.len() - pending.len()) as u64;
        shared.forwarded.fetch_add(answered, Ordering::SeqCst);
        shared.down.fetch_add(pending.len() as u64, Ordering::SeqCst);
        // In submission order, as the client sent them.
        for id in ids.iter().filter(|id| pending.contains(id)) {
            write_frame(client, &backend_down(*id, "connection lost mid-job"));
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> &'static str {
        r#"{"scenario":{"kind":"stride","pcs":2,"records_per_pc":32,"seed":3,"stride":5},"bank":["l","s2"]}"#
    }

    #[test]
    fn job_spec_round_trips_through_to_json() {
        let spec = JobSpec::parse(tiny_spec()).expect("valid spec");
        assert_eq!(JobSpec::parse(&spec.to_json()).expect("canonical form reparses"), spec);
        assert!(matches!(spec.source, JobSource::Scenario(_)));
        assert_eq!(spec.bank, vec!["l", "s2"]);
        assert!(!spec.sample);
    }

    #[test]
    fn job_spec_defaults_bank_to_the_paper_bank() {
        let spec = JobSpec::parse(r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8}}"#)
            .expect("valid spec");
        assert_eq!(spec.bank, vec!["l", "s2", "fcm1", "fcm2", "fcm3"]);
    }

    #[test]
    fn job_spec_rejects_unknown_and_misapplied_fields() {
        let unknown = JobSpec::parse(
            r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8},"bogus":1}"#,
        )
        .unwrap_err();
        assert!(unknown.contains("unknown job field `bogus`"), "{unknown}");

        let scenario_field = JobSpec::parse(
            r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8,"warp":9}}"#,
        )
        .unwrap_err();
        assert!(scenario_field.contains("unknown scenario field `warp`"), "{scenario_field}");

        let misapplied = JobSpec::parse(
            r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8,"period":4}}"#,
        )
        .unwrap_err();
        assert!(misapplied.contains("`period` does not apply"), "{misapplied}");

        let both = JobSpec::parse(
            r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8},"workload":{"benchmark":"m88k"}}"#,
        )
        .unwrap_err();
        assert!(both.contains("exactly one of"), "{both}");

        let trailing = JobSpec::parse(&format!("{} junk", tiny_spec())).unwrap_err();
        assert!(trailing.contains("trailing"), "{trailing}");
    }

    #[test]
    fn job_spec_rejects_out_of_range_parameters_instead_of_panicking() {
        for (spec, needle) in [
            (r#"{"scenario":{"kind":"stride","pcs":1,"records_per_pc":8,"stride":0}}"#, "nonzero"),
            (
                r#"{"scenario":{"kind":"markov","pcs":1,"records_per_pc":8,"order":9,"alphabet":4}}"#,
                "order",
            ),
            (
                r#"{"scenario":{"kind":"markov","pcs":1,"records_per_pc":8,"order":8,"alphabet":64}}"#,
                "alphabet^order",
            ),
            (r#"{"scenario":{"kind":"chase","pcs":1,"records_per_pc":8,"heap":1}}"#, "heap"),
            (r#"{"scenario":{"kind":"periodic","pcs":0,"records_per_pc":8,"period":4}}"#, "pcs"),
            (r#"{"workload":{"benchmark":"m88k","scale_div":0}}"#, "scale_div"),
            (r#"{"workload":{"benchmark":"nope"}}"#, "unknown benchmark"),
            (
                r#"{"scenario":{"kind":"constant","pcs":1,"records_per_pc":8},"bank":["zz"]}"#,
                "unknown predictor",
            ),
        ] {
            let err = JobSpec::parse(spec).unwrap_err();
            assert!(err.contains(needle), "spec {spec}: {err}");
        }
    }

    #[test]
    fn bank_config_resolves_paper_and_extended_orders() {
        for name in ["l", "s2", "fcm1", "fcm3", "fcm8"] {
            let config = bank_config(name).expect(name);
            assert_eq!(config.name(), name);
        }
        assert!(bank_config("fcm0").is_none());
        assert!(bank_config("fcm9").is_none());
        assert!(bank_config("hybrid?").is_none());
    }

    #[test]
    fn canonical_keys_separate_every_byte_moving_option() {
        let base = JobSpec::parse(tiny_spec()).unwrap();
        let mut other_bank = base.clone();
        other_bank.bank = vec!["l".to_owned()];
        let mut sampled = base.clone();
        sampled.sample = true;
        let mut capped = base.clone();
        capped.record_cap = Some(16);
        let keys = [&base, &other_bank, &sampled, &capped].map(|s| s.canonical_key());
        for (i, key) in keys.iter().enumerate() {
            for later in &keys[i + 1..] {
                assert_ne!(key, later);
            }
        }
    }

    #[test]
    fn run_job_is_deterministic_across_engines() {
        let spec = JobSpec::parse(tiny_spec()).unwrap();
        let a = run_job(&spec, &ReplayEngine::sequential(), None).expect("runs");
        let b = run_job(&spec, &ReplayEngine::new().with_workers(2).with_shards(3), None)
            .expect("runs");
        assert_eq!(a, b, "payload must be byte-identical at any engine setting");
        assert!(a.starts_with("job syn-stride|"), "{a}");
        assert!(a.contains("replayed 64 records\n"), "{a}");
    }

    #[test]
    fn frames_parse_leniently() {
        let frame = Frame::parse(&job_frame(
            "result",
            Some(7),
            &[("cache", "miss"), ("payload", "line1\nline2")],
        ))
        .expect("parses");
        assert_eq!(frame.frame, "result");
        assert_eq!(frame.id, Some(7));
        assert_eq!(frame.cache.as_deref(), Some("miss"));
        assert_eq!(frame.payload.as_deref(), Some("line1\nline2"));

        // Unknown fields are skipped, null ids read as None.
        let future =
            Frame::parse(r#"{"frame":"accepted","id":null,"key":"k","novel":[1,{"a":2}]}"#)
                .expect("parses");
        assert_eq!(future.id, None);
        assert_eq!(future.key.as_deref(), Some("k"));

        assert!(Frame::parse("{\"id\":1}").unwrap_err().contains("missing `frame`"));
        assert!(Frame::parse("nonsense").is_err());
    }

    #[test]
    fn deeply_nested_unknown_fields_are_an_error_not_an_abort() {
        // A 400 KB frame nesting 200k arrays inside a field the client
        // skips: refused at the parser's depth cap, never a stack overflow.
        let depth = 200_000;
        let line =
            format!("{{\"frame\":\"x\",\"extra\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
        let err = Frame::parse(&line).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Shallow unknown fields still skip.
        let shallow = format!("{{\"frame\":\"x\",\"extra\":{}{}}}", "[".repeat(8), "]".repeat(8));
        assert_eq!(Frame::parse(&shallow).expect("parses").frame, "x");
    }

    #[test]
    fn requests_parse_strictly() {
        assert!(matches!(parse_request("{\"op\":\"ping\"}"), Ok(Request::Ping)));
        assert!(matches!(parse_request("{\"op\":\"stats\"}"), Ok(Request::Stats)));
        let err = parse_request("{\"op\":\"submit\"}").unwrap_err();
        assert!(err.contains("requires a `job`"), "{err}");
        let err = parse_request("{\"op\":\"warp\"}").unwrap_err();
        assert!(err.contains("unknown op `warp`"), "{err}");
        let err = parse_request("{\"op\":\"ping\",\"extra\":1}").unwrap_err();
        assert!(err.contains("unknown request field `extra`"), "{err}");
    }

    #[test]
    fn canonical_keys_bind_the_engine_epoch() {
        let spec = JobSpec::parse(tiny_spec()).unwrap();
        let at_a = spec.canonical_key_at(0xA);
        let at_b = spec.canonical_key_at(0xB);
        assert_ne!(at_a, at_b, "same job, different semantics, different key");
        assert!(at_a.starts_with("epoch000000000000000a|"), "{at_a}");
        assert!(at_a.ends_with(&spec.descriptor()), "{at_a}");
        // The payload identity line stays epoch-free: rendered bytes never
        // depend on which binary computed them.
        assert!(!spec.descriptor().contains("epoch"), "{}", spec.descriptor());
        assert_eq!(spec.canonical_key(), spec.canonical_key_at(dvp_engine::engine_epoch()));
    }

    #[test]
    fn batch_requests_parse_strictly() {
        let element = format!("{{\"id\":1,\"job\":{}}}", tiny_spec());
        let ok = format!("{{\"op\":\"jobs\",\"jobs\":[{element}]}}");
        let Ok(Request::Jobs(jobs)) = parse_request(&ok) else {
            panic!("one-element batch parses")
        };
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].0, Some(1));

        let dup = format!("{{\"op\":\"jobs\",\"jobs\":[{element},{element}]}}");
        assert!(parse_request(&dup).unwrap_err().contains("duplicate batch id 1"));

        let empty = parse_request("{\"op\":\"jobs\",\"jobs\":[]}").unwrap_err();
        assert!(empty.contains("at least one element"), "{empty}");

        let missing_id = format!("{{\"op\":\"jobs\",\"jobs\":[{{\"job\":{}}}]}}", tiny_spec());
        assert!(parse_request(&missing_id).unwrap_err().contains("requires an `id`"));

        let missing_job = parse_request("{\"op\":\"jobs\",\"jobs\":[{\"id\":1}]}").unwrap_err();
        assert!(missing_job.contains("requires a `job`"), "{missing_job}");

        let stray =
            format!("{{\"op\":\"jobs\",\"jobs\":[{{\"id\":1,\"job\":{},\"x\":1}}]}}", tiny_spec());
        assert!(parse_request(&stray).unwrap_err().contains("unknown batch-element field `x`"));

        let cross = format!("{{\"op\":\"submit\",\"jobs\":[{element}]}}");
        assert!(parse_request(&cross).unwrap_err().contains("not `jobs`"));
        let cross = format!("{{\"op\":\"jobs\",\"job\":{}}}", tiny_spec());
        assert!(parse_request(&cross).unwrap_err().contains("not `job`"));
    }

    #[test]
    fn backend_down_frames_round_trip() {
        let line = job_frame(
            "backend_down",
            Some(4),
            &[("backend", "127.0.0.1:9"), ("reason", "unreachable after 2 attempts: x")],
        );
        let frame = Frame::parse(&line).expect("parses");
        assert_eq!(frame.frame, "backend_down");
        assert_eq!(frame.id, Some(4));
        assert_eq!(frame.backend.as_deref(), Some("127.0.0.1:9"));
        assert_eq!(frame.reason.as_deref(), Some("unreachable after 2 attempts: x"));
    }

    #[test]
    fn rendezvous_routing_is_deterministic_and_order_independent() {
        let backends: Vec<String> =
            ["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"].map(String::from).into();
        let mut reversed = backends.clone();
        reversed.reverse();
        let keys: Vec<String> = (0..200).map(|i| format!("epoch00|job{i}")).collect();
        let mut owners_seen = std::collections::BTreeSet::new();
        for key in &keys {
            let owner = route_backend(&backends, key);
            // The documented score: FNV-1a 64 of `backend ‖ 0x00 ‖ key`.
            let score = |b: &String| dvp_trace::fnv1a64(format!("{b}\0{key}").as_bytes());
            assert_eq!(owner, backends.iter().max_by_key(|b| score(b)).unwrap());
            assert_eq!(owner, route_backend(&backends, key), "stable across calls");
            assert_eq!(owner, route_backend(&reversed, key), "independent of list order");
            owners_seen.insert(owner.to_owned());
        }
        assert_eq!(owners_seen.len(), backends.len(), "200 keys cover all 3 backends");

        // Minimal movement: dropping one backend only re-homes its keys.
        let survivors: Vec<String> = backends[..2].to_vec();
        for key in &keys {
            let before = route_backend(&backends, key);
            if before != backends[2] {
                assert_eq!(before, route_backend(&survivors, key), "surviving owners keep keys");
            }
        }
    }

    #[test]
    fn keys_from_different_epochs_route_independently() {
        let backends: Vec<String> = ["a:1", "b:1", "c:1", "d:1"].map(String::from).into();
        let spec = JobSpec::parse(tiny_spec()).unwrap();
        // Not a guarantee for any single spec, but across epochs the owner
        // must be a pure function of the full canonical key.
        let moved = (0u64..32)
            .filter(|&epoch| {
                route_backend(&backends, &spec.canonical_key_at(epoch))
                    != route_backend(&backends, &spec.canonical_key_at(epoch + 1000))
            })
            .count();
        assert!(moved > 0, "epoch is part of the routed key");
    }
}
