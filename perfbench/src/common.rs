//! What every workload shares: checks, measurements, inputs, and helpers.

use dvp_core::{HybridPredictor, PredictorConfig};
use dvp_engine::{ConfigReplay, SharedTrace};
use dvp_workloads::synthetic::{Scenario, ScenarioKind};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host;
use crate::spans::Tracer;

/// Everything a workload needs from the command line.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    /// A fresh directory inside the checkout for this run's files.
    pub work: PathBuf,
    pub repro: PathBuf,
    pub golden: PathBuf,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    /// A fresh, empty directory under the run's work directory.
    pub fn dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Operations attempted and failed. An operation fails when it errors, is
/// refused, or produces output that fails its check.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation; `why` describes it when `ok` is false.
    pub fn record(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(why());
            }
        }
    }

    /// Failed operations as a share of those attempted.
    #[must_use]
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One request of a workload: its latency and whether it was answered
/// from state that set-up or an earlier request prepared.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub latency_s: f64,
    pub hit: bool,
}

/// What an untraced run of one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Timings,
    /// Seconds of each round of the workload's fixed work.
    pub rounds_s: Timings,
    /// Every request completed while measuring.
    pub requests: Vec<Request>,
    /// Resident high-water mark over the first [`RSS_ROUNDS`] measured
    /// rounds, in MiB.
    pub peak_rss_mb: f64,
    pub checks: Checks,
    /// The size parameters that make two runs comparable.
    pub sizes: Vec<(&'static str, String)>,
    /// Figures printed in the report but not part of the result line.
    pub extra: Vec<Metric>,
}

impl Measured {
    /// For workloads whose request is one round of their fixed work: every
    /// round ran on inputs set-up prepared (a filled trace cache, resident
    /// traces, a written container), so each counts as a hit.
    pub fn rounds_are_requests(&mut self) {
        self.requests =
            self.rounds_s.raw_s.iter().map(|&latency_s| Request { latency_s, hit: true }).collect();
    }
}

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Per-layer metrics in the order they were produced.
pub type Layers = Vec<Metric>;

/// Seconds of each repetition of some timed work, with the host clock's
/// reference seconds sampled beside each (see [`crate::host`]).
#[derive(Debug, Default)]
pub struct Timings {
    pub raw_s: Vec<f64>,
    pub reference_s: Vec<f64>,
}

impl Timings {
    /// Records one repetition with the host samples taken since the last,
    /// sampling once more to close it.
    fn push(&mut self, raw_s: f64) {
        self.raw_s.push(raw_s);
        host::sample();
        self.reference_s.push(host::take());
        let e = std::mem::take(&mut *host::EXTRA.lock().unwrap());
        eprintln!("TMP {raw_s:.5} {:.6} {:.6} {:.6}", self.reference_s.last().unwrap(), e.0, e.1);
    }

    /// Each repetition's host-corrected seconds.
    #[must_use]
    pub fn corrected(&self) -> Vec<f64> {
        self.raw_s.iter().zip(&self.reference_s).map(|(&raw, &r)| host::corrected(raw, r)).collect()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.raw_s.len()
    }
}

/// Runs `round` until `seconds` have passed and at least `min_rounds`
/// rounds ran, returning the seconds each round reports for its measured
/// work (which leaves out its checks). `keep_going` can demand more rounds
/// (for example until enough latency samples exist); the run stops at
/// `cap` seconds regardless. The host clock is sampled before each round
/// and after it; a round may sample it between its steps too.
pub fn rounds(
    seconds: f64,
    min_rounds: usize,
    cap: f64,
    mut round: impl FnMut(usize) -> Result<f64, String>,
    keep_going: impl Fn() -> bool,
) -> Result<Timings, String> {
    let start = Instant::now();
    let mut times = Timings::default();
    loop {
        host::restart();
        let secs = round(times.len())?;
        times.push(secs);
        let elapsed = start.elapsed().as_secs_f64();
        let done = elapsed >= seconds && times.len() >= min_rounds && !keep_going();
        if done || elapsed >= cap {
            return Ok(times);
        }
    }
}

/// Seconds taken by `f`, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Runs set-up `times` times and keeps the last result; returns it with
/// each repetition's seconds, with host clock samples before and after each.
pub fn repeat_setup<R>(
    times: usize,
    mut setup: impl FnMut(usize) -> Result<R, String>,
) -> Result<(R, Timings), String> {
    let mut secs = Timings::default();
    let mut last = None;
    for i in 0..times {
        host::restart();
        let (out, s) = timed(|| setup(i));
        secs.push(s);
        last = Some(out?);
    }
    Ok((last.expect("at least one set-up"), secs))
}

/// SplitMix64: derives independent input seeds from the run's seed.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The paper's five predictors plus the stride/fcm hybrid: the bank
/// `repro bench` replays.
#[must_use]
pub fn full_bank() -> Vec<PredictorConfig> {
    let mut bank = PredictorConfig::paper_bank();
    bank.push(PredictorConfig::new("hybrid", || Box::new(HybridPredictor::stride_fcm(2))));
    bank
}

/// The cheap last-value and stride bank.
#[must_use]
pub fn cheap_bank() -> Vec<PredictorConfig> {
    PredictorConfig::paper_bank().into_iter().filter(|c| matches!(c.name(), "l" | "s2")).collect()
}

/// A seeded synthetic trace of exactly `records` records over `pcs` PCs.
#[must_use]
pub fn synthetic_trace(kind: ScenarioKind, pcs: u32, records: usize, seed: u64) -> SharedTrace {
    let per_pc = u32::try_from(records.div_ceil(pcs as usize)).expect("trace sizes fit in u32");
    let scenario = Scenario::new(kind, pcs, per_pc, seed);
    let mut builder = SharedTrace::builder();
    scenario.generate_with(&mut |rec| {
        if builder.len() < records {
            builder.push(rec);
        }
    });
    builder.finish()
}

/// `(name, correct, predicted)` of every configuration of a replay.
pub type Tallies = Vec<(String, u64, u64)>;

/// The [`Tallies`] of a replay, for comparing replays.
#[must_use]
pub fn tallies(replays: &[ConfigReplay]) -> Tallies {
    replays
        .iter()
        .map(|r| (r.name.clone(), r.tracker.correct(None), r.tracker.predicted(None)))
        .collect()
}

/// Rounds the in-process workloads' `peak_rss_mb` covers. A fixed count
/// keeps the figure from depending on how many rounds a run fits: the
/// per-round peak has a long tail (allocator arenas), which more rounds
/// would sample further into.
pub const RSS_ROUNDS: usize = 15;

/// Restarts this process's resident high-water mark from its current
/// resident size, so that [`peak_rss_mb`] covers the measured rounds and
/// not set-up.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Records this process's resident high-water mark once round `index`
/// (counted from 0) is the last of the first [`RSS_ROUNDS`]; a run with
/// fewer rounds records it after every round, so the last one stands.
pub fn note_peak_rss(index: usize, peak: &mut f64) {
    if index < RSS_ROUNDS {
        *peak = peak_rss_mb(None).unwrap_or(0.0);
    }
}

/// The high-water mark of resident memory of `pid` (this process when
/// `None`), in MiB, from `/proc/<pid>/status`.
#[must_use]
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = pid.map_or_else(|| "/proc/self/status".to_owned(), |p| format!("/proc/{p}/status"));
    let status = fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Polls a child's resident high-water mark until `done` is set; returns
/// the last value read (the mark only grows, and the final read is within
/// one poll of the child's exit).
pub fn watch_rss(pid: u32, done: &std::sync::atomic::AtomicBool) -> f64 {
    let mut peak = 0.0f64;
    while !done.load(std::sync::atomic::Ordering::SeqCst) {
        if let Some(mb) = peak_rss_mb(Some(pid)) {
            peak = peak.max(mb);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    peak
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_dir(path: &Path) {
    let _ = fs::remove_dir_all(path);
}
