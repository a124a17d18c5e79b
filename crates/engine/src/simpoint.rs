//! SimPoint-style phase sampling: profile a trace once, cluster its
//! windows, replay only weighted representatives.
//!
//! The paper's tables replay every record of every trace. That is exact
//! but linear in trace length — the wrong trade once `trace gen` makes
//! billion-record containers routine. Phase sampling buys back the wall
//! clock the way SimPoint does for cycle-accurate simulation:
//!
//! 1. **Profile.** [`phase_plan`] slices the trace into fixed-length
//!    record windows and fingerprints each with a small *behavior
//!    vector*: the window's instruction-category mix plus its
//!    last-value / stride / order-1-context / order-3-context hit rates
//!    and its fraction of first-seen static instructions — the same
//!    signals the predictors themselves key on, so windows that cluster
//!    together really are interchangeable *for prediction* (including
//!    how far along the fcm tables' warm-up ramp they sit). Like the
//!    predictors, every proxy reads one static instruction's own value
//!    sequence, so the profile is gathered PC-major: one pass over the
//!    [`PcId`](dvp_trace::PcId) stream files each record's value under
//!    its PC, then each PC's values are walked in turn with one pair of
//!    context maps that stays in cache. Transient memory is about 12
//!    bytes per record and no longer tracks the distinct contexts of
//!    every PC at once.
//! 2. **Cluster.** The vectors are k-means-clustered with a seeded,
//!    fully deterministic procedure (xorshift-seeded farthest-point
//!    init, lowest-index tie-breaks, sequential iterations): the same
//!    trace and options produce a byte-identical
//!    [`PhasePlan`](dvp_trace::PhasePlan) on every machine at every
//!    `--workers` setting.
//! 3. **Replay the representatives.**
//!    [`ReplayEngine::replay_sampled`] replays one window per cluster —
//!    preceded by a warmup prefix observed *untallied* to heat the cold
//!    predictor — and weights each window's tally by the fraction of the
//!    trace its cluster covers. [`ReplayEngine::replay_sampled_streaming`]
//!    does the same against a trace container without materializing
//!    it, skipping the decode (not just the replay) of every chunk no
//!    phase touches.
//!
//! Plans persist as the `PHAS` optional section of a trace container
//! (see `docs/TRACE_FORMAT.md`), so a warm trace cache replays sampled
//! without re-profiling.
//!
//! # Cold sampling vs functional warming
//!
//! Cold sampling touches ~10x fewer records, but a predictor whose tables
//! grow with history (the paper's unbounded `fcm` bank) is *structurally*
//! under-warmed by any short prefix, so a cold estimate runs several
//! percentage points low. [`ReplayEngine::replay_sampled_warm`] (and
//! [`ReplayEngine::replay_sampled_warm_streaming`]) borrows SMARTS's
//! *functional warming* instead: observe every record, tally only the
//! representative windows — the `repro --sample` harness reports both.

use crate::drive::Plan;
use crate::{ReplayEngine, SharedTrace};
use dvp_core::{AccuracyTracker, PredictorConfig};
use dvp_trace::io::{v2, TraceIoError};
use dvp_trace::{InstrCategory, PhasePlan, SimPointPhase};
use std::io::Read;

/// Default records per profiling window.
///
/// 4096 divides [`DEFAULT_CHUNK_LEN`](crate::DEFAULT_CHUNK_LEN) (and
/// every power-of-two chunk capacity down to it), so windows never
/// straddle container chunk boundaries and the streaming sampled replay
/// can skip whole chunks. It is also small enough that the default
/// plan tallies under a tenth of even the shortest tier-1 workload
/// trace.
pub const DEFAULT_WINDOW_RECORDS: usize = 4096;

/// Parameters of the profiling + clustering pass that builds a
/// [`PhasePlan`] (see [`phase_plan`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseOptions {
    /// Records per profiling window (clamped to at least 1). Keep it a
    /// divisor of the container chunk capacity so windows stay
    /// chunk-aligned. Treated as a *maximum*: a trace too short to hold
    /// `clusters * min_reduction` windows of this size is profiled with
    /// a smaller power-of-two window (at least 64 records) instead, so
    /// short traces still cluster meaningfully without giving up the
    /// tallied-record reduction.
    pub window_records: usize,
    /// Windows replayed untallied before each representative to warm
    /// predictor state.
    pub warmup_windows: usize,
    /// Maximum clusters (= phases). The plan may come out smaller when
    /// the trace has fewer windows, or fewer *distinct* behaviors, than
    /// this — or when `min_reduction` caps it. The default of 16 holds
    /// the warm-mode weighting error under one percentage point on every
    /// tier-1 workload while still tallying under a tenth of the
    /// records.
    pub clusters: usize,
    /// Seed of the deterministic k-means init.
    pub seed: u64,
    /// Iteration bound on the k-means refinement loop (clamped to at
    /// least 1; the loop usually converges far earlier).
    pub max_iterations: usize,
    /// Floor on the tallied-record reduction: the phase count is capped
    /// so the representative windows hold at most `1/min_reduction` of
    /// the trace (but always at least one phase; `0` disables the cap).
    /// The default of 10 keeps short traces from spending their whole
    /// cluster budget and eroding the sampling win.
    pub min_reduction: u64,
}

impl Default for PhaseOptions {
    fn default() -> Self {
        PhaseOptions {
            window_records: DEFAULT_WINDOW_RECORDS,
            warmup_windows: 1,
            clusters: 16,
            seed: 0x7A5E_5EED,
            max_iterations: 64,
            min_reduction: 10,
        }
    }
}

/// Behavior-vector layout: one dimension per instruction category, then
/// the last-value / stride hit rates, order-1 and order-3 context
/// (fcm-proxy) hit rates, and the fraction of records whose static
/// instruction first appears in this window. Every dimension is a
/// fraction in `[0, 1]`, so no feature dominates the euclidean metric.
///
/// The context proxies are real per-PC maps (context hash → last
/// successor), not single-entry latches: an unbounded fcm predictor
/// keeps *climbing* while its table fills, and only a table-backed proxy
/// makes that ramp visible in the fingerprint — otherwise every
/// still-warming window looks identical to steady state and the
/// clustering happily picks a cold window to represent the whole trace.
const DIMS: usize = InstrCategory::ALL.len() + 5;
const LAST_DIM: usize = InstrCategory::ALL.len();
const STRIDE_DIM: usize = LAST_DIM + 1;
const CTX1_DIM: usize = LAST_DIM + 2;
const CTX3_DIM: usize = LAST_DIM + 3;
const FRESH_DIM: usize = LAST_DIM + 4;

/// Mixes a PC's last three values into its order-3 context key
/// (FNV-1a over the words).
fn context_mix(history: &[u64; 3]) -> u64 {
    history
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |acc, &v| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Fingerprints every `window_records`-record window of the trace, one
/// static instruction at a time. Every proxy (last value, stride, the
/// order-1/order-3 context maps, first-seen) reads only its own PC's
/// values and window counts are integer sums, so walking PC by PC gives
/// exactly the vectors of a walk in record order. Proxy state persists
/// *across* windows, like real predictor state.
///
/// One pass over the chunks tallies each window's category mix and files
/// every record's value and window index in its PC's column. The PCs are
/// then walked in id order with one pair of context maps, cleared between
/// PCs, and each column is dropped once walked: transient memory is about
/// 12 bytes per record plus one PC's maps.
///
/// # Panics
///
/// Panics if the trace holds more than 2^32 windows.
fn behavior_vectors(trace: &SharedTrace, window_records: usize) -> Vec<[f64; DIMS]> {
    use std::collections::HashMap;
    let window_records = window_records.max(1);
    let n_windows = trace.len().div_ceil(window_records);
    assert!(
        n_windows as u64 <= 1 << 32,
        "{n_windows} profiling windows overflow a u32 window index"
    );
    let mut per_pc = vec![0usize; trace.interner().len()];
    for id in trace.id_chunks().iter().flatten() {
        per_pc[id.index()] += 1;
    }
    let mut values: Vec<Vec<u64>> = per_pc.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut windows: Vec<Vec<u32>> = per_pc.iter().map(|&n| Vec::with_capacity(n)).collect();
    let mut counts = vec![[0u64; DIMS]; n_windows];
    let (mut window, mut in_window) = (0usize, 0usize);
    for (chunk, ids) in trace.chunks().iter().zip(trace.id_chunks()) {
        for (rec, id) in chunk.iter().zip(ids) {
            counts[window][rec.category.index()] += 1;
            values[id.index()].push(rec.value);
            windows[id.index()].push(window as u32);
            in_window += 1;
            if in_window == window_records {
                window += 1;
                in_window = 0;
            }
        }
    }
    // The fcm proxies: order-1 maps the previous value to its last
    // successor; order-3 maps a mix of the last three values, once a PC
    // has that much history.
    let mut map1: HashMap<u64, u64> = HashMap::new();
    let mut map3: HashMap<u64, u64> = HashMap::new();
    for (values, windows) in values.into_iter().zip(windows) {
        let Some(&first) = windows.first() else { continue };
        // Clearing a map costs its whole table, so a table an earlier PC
        // grew would tax every later PC: shrink it to what this PC's
        // records can fill (a no-op unless it is larger), which keeps
        // the clears linear in the trace.
        map1.shrink_to(values.len());
        map3.shrink_to(values.len());
        counts[first as usize][FRESH_DIM] += 1;
        for j in 1..values.len() {
            let (value, prev) = (values[j], values[j - 1]);
            let tally = &mut counts[windows[j] as usize];
            if value == prev {
                tally[LAST_DIM] += 1;
            }
            if j >= 2 && value == prev.wrapping_add(prev.wrapping_sub(values[j - 2])) {
                tally[STRIDE_DIM] += 1;
            }
            if map1.insert(prev, value) == Some(value) {
                tally[CTX1_DIM] += 1;
            }
            if j >= 3
                && map3.insert(context_mix(&[values[j - 3], values[j - 2], prev]), value)
                    == Some(value)
            {
                tally[CTX3_DIM] += 1;
            }
        }
        map1.clear();
        map3.clear();
    }
    let last_len = trace.len() - n_windows.saturating_sub(1) * window_records;
    let window_len = |w: usize| if w + 1 == n_windows { last_len } else { window_records };
    counts.iter().enumerate().map(|(w, counts)| normalized(counts, window_len(w) as u64)).collect()
}

fn normalized(counts: &[u64; DIMS], len: u64) -> [f64; DIMS] {
    let mut vector = [0.0; DIMS];
    for (slot, &count) in vector.iter_mut().zip(counts) {
        *slot = count as f64 / len as f64;
    }
    vector
}

/// The window size actually used for a `total`-record trace: the
/// requested window, or — when the trace cannot hold
/// `clusters * min_reduction` windows of that size — the power of two
/// nearest above `total / (clusters * min_reduction)`, floored at 64
/// records. Traces too short even for 64-record windows (where sampling
/// is pointless anyway) keep the requested size and degenerate to a
/// near-whole-trace plan.
fn effective_window(options: &PhaseOptions, total: u64) -> u64 {
    const MIN_WINDOW: u64 = 64;
    let requested = options.window_records.max(1) as u64;
    let budget = (options.clusters.max(1) as u64).saturating_mul(options.min_reduction);
    if budget == 0
        || total >= budget.saturating_mul(requested)
        || total < budget.saturating_mul(MIN_WINDOW)
    {
        return requested;
    }
    (total / budget).max(1).next_power_of_two().clamp(MIN_WINDOW.min(requested), requested)
}

fn squared_distance(a: &[f64; DIMS], b: &[f64; DIMS]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Seeded deterministic k-means: the seed picks the first centroid,
/// farthest-point selection (lowest index on ties) picks the rest, and
/// the refinement loop runs sequentially — no parallelism, no
/// platform-dependent ordering, so the same inputs always produce the
/// same `(centroids, assignment)`.
fn kmeans(
    vectors: &[[f64; DIMS]],
    clusters: usize,
    seed: u64,
    max_iterations: usize,
) -> (Vec<[f64; DIMS]>, Vec<usize>) {
    let n = vectors.len();
    let k = clusters.clamp(1, n);
    // xorshift has a fixed point at 0; force a bit on.
    let mut state = seed | 1;
    let first = (xorshift64(&mut state) % n as u64) as usize;
    let mut centroids = vec![vectors[first]];
    while centroids.len() < k {
        let mut best = 0usize;
        let mut best_distance = -1.0f64;
        for (i, vector) in vectors.iter().enumerate() {
            let nearest = centroids
                .iter()
                .map(|centroid| squared_distance(centroid, vector))
                .fold(f64::INFINITY, f64::min);
            if nearest > best_distance {
                best = i;
                best_distance = nearest;
            }
        }
        if best_distance <= 0.0 {
            // Every remaining window coincides with a centroid: fewer
            // distinct behaviors than requested clusters.
            break;
        }
        centroids.push(vectors[best]);
    }
    let k = centroids.len();
    let mut assignment = vec![0usize; n];
    for _ in 0..max_iterations.max(1) {
        let mut changed = false;
        for (i, vector) in vectors.iter().enumerate() {
            let mut best = 0usize;
            let mut best_distance = f64::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let distance = squared_distance(centroid, vector);
                if distance < best_distance {
                    best = c;
                    best_distance = distance;
                }
            }
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let mut sums = vec![[0.0; DIMS]; k];
        let mut members = vec![0u64; k];
        for (vector, &cluster) in vectors.iter().zip(&assignment) {
            members[cluster] += 1;
            for (sum, value) in sums[cluster].iter_mut().zip(vector) {
                *sum += value;
            }
        }
        for ((centroid, sum), &count) in centroids.iter_mut().zip(&sums).zip(&members) {
            // A cluster that lost every member keeps its old centroid.
            if count > 0 {
                for (slot, total) in centroid.iter_mut().zip(sum) {
                    *slot = total / count as f64;
                }
            }
        }
    }
    (centroids, assignment)
}

/// Builds a [`PhasePlan`] for `trace`: fingerprint every fixed-length
/// window with its behavior vector (`options.window_records` records
/// each, shrunk for short traces — see
/// [`PhaseOptions::window_records`]), cluster the fingerprints with
/// seeded deterministic k-means, and emit one phase per non-empty
/// cluster — the member window nearest the final centroid represents
/// the cluster, weighted by the records its cluster covers.
///
/// The result is deterministic (a pure function of the trace and the
/// options), always passes [`PhasePlan::validate`], and for an empty
/// trace is the valid empty plan.
///
/// # Examples
///
/// ```
/// use dvp_engine::{phase_plan, PhaseOptions, SharedTrace};
/// use dvp_trace::{InstrCategory, Pc, TraceRecord};
///
/// let trace: SharedTrace = (0..10_000u64)
///     .map(|i| TraceRecord::new(Pc(4 * (i % 7)), InstrCategory::AddSub, i / 7))
///     .collect();
/// let options = PhaseOptions { window_records: 512, clusters: 4, ..PhaseOptions::default() };
/// let plan = phase_plan(&trace, &options);
/// plan.validate().expect("plans are valid by construction");
/// let weights: f64 = (0..plan.phases.len()).map(|i| plan.weight(i)).sum();
/// assert!((weights - 1.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn phase_plan(trace: &SharedTrace, options: &PhaseOptions) -> PhasePlan {
    plan_from(trace.len() as u64, options, |window| behavior_vectors(trace, window))
}

/// [`phase_plan`] over the behavior vectors `vectors` computes for a
/// window length.
fn plan_from(
    total: u64,
    options: &PhaseOptions,
    vectors: impl FnOnce(usize) -> Vec<[f64; DIMS]>,
) -> PhasePlan {
    let window = effective_window(options, total);
    let mut plan = PhasePlan {
        window_records: window,
        warmup_records: window * options.warmup_windows as u64,
        seed: options.seed,
        total_records: total,
        phases: Vec::new(),
    };
    if total == 0 {
        return plan;
    }
    let vectors = vectors(window as usize);
    // Cap phases so the tallied windows hold at most 1/min_reduction of
    // the trace: k * window <= total / min_reduction.
    let clusters = match options.min_reduction {
        0 => options.clusters,
        floor => options.clusters.min(((total / (floor * window)) as usize).max(1)),
    };
    let (centroids, assignment) = kmeans(&vectors, clusters, options.seed, options.max_iterations);
    let window_len = |w: usize| ((w as u64 + 1) * window).min(total) - w as u64 * window;
    for (c, centroid) in centroids.iter().enumerate() {
        let mut cluster_records = 0u64;
        let mut representative: Option<(usize, f64)> = None;
        for (w, &cluster) in assignment.iter().enumerate() {
            if cluster != c {
                continue;
            }
            cluster_records += window_len(w);
            let distance = squared_distance(centroid, &vectors[w]);
            if representative.is_none_or(|(_, best)| distance < best) {
                representative = Some((w, distance));
            }
        }
        let Some((w, _)) = representative else { continue };
        plan.phases.push(SimPointPhase {
            cluster_records,
            start: w as u64 * window,
            end: w as u64 * window + window_len(w),
        });
    }
    plan.phases.sort_by_key(|phase| phase.start);
    plan.validate().expect("constructed phase plan is valid");
    plan
}

/// The outcome of replaying one predictor configuration under a
/// [`PhasePlan`]: the configuration's name and one exact integer tally
/// per phase, in plan order.
///
/// Per-phase tallies (not a pre-merged number) are the deliberate
/// surface: exact counts stay byte-comparable across worker/shard/window
/// settings, and the weighted estimate is derived on demand against the
/// plan that produced them.
#[derive(Debug, Clone)]
pub struct SampledReplay {
    /// Name of the [`PredictorConfig`] that produced these tallies.
    pub name: String,
    /// One tally per plan phase (warmup records are *not* tallied).
    pub phases: Vec<AccuracyTracker>,
}

impl SampledReplay {
    /// The sampled estimate of full-trace accuracy: each phase's
    /// accuracy weighted by the trace fraction its cluster covers.
    /// Phases with no predictions in `category` are skipped and the
    /// remaining weights renormalized (with `None` every phase predicts,
    /// so the weights are exactly the plan's).
    #[must_use]
    pub fn weighted_accuracy(&self, plan: &PhasePlan, category: Option<InstrCategory>) -> f64 {
        let mut accuracy = 0.0;
        let mut weight = 0.0;
        for (i, tracker) in self.phases.iter().enumerate() {
            if tracker.predicted(category) > 0 {
                accuracy += plan.weight(i) * tracker.accuracy(category);
                weight += plan.weight(i);
            }
        }
        if weight == 0.0 {
            0.0
        } else {
            accuracy / weight
        }
    }

    /// Total tallied (simulated) predictions across all phases.
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.phases.iter().map(AccuracyTracker::total).sum()
    }

    /// The result of configuration `name` from its merged per-phase
    /// tallies.
    fn new((name, phases): (String, Vec<AccuracyTracker>)) -> Self {
        SampledReplay { name, phases }
    }
}

impl ReplayEngine {
    /// Replays only the plan's representative windows — each phase an
    /// independent run of every configuration — and returns one
    /// [`SampledReplay`] per configuration, in bank order. Each run starts
    /// a **cold** predictor, warms it on the `plan.warmup_records` records
    /// before its window (observed, never tallied), then tallies the
    /// window itself, one instruction at a time, on that instruction's
    /// records in the span. Tallies are byte-identical at every engine
    /// setting.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`PhasePlan::validate`] or was built for
    /// a trace of a different length — both are programmer errors: plans
    /// come from [`phase_plan`] or from a validated `PHAS` section. Also
    /// panics as [`replay`](ReplayEngine::replay) on a configuration
    /// without per-instruction state.
    ///
    /// # Examples
    ///
    /// ```
    /// use dvp_core::PredictorConfig;
    /// use dvp_engine::{phase_plan, PhaseOptions, ReplayEngine, SharedTrace};
    /// use dvp_trace::{InstrCategory, Pc, TraceRecord};
    ///
    /// let trace: SharedTrace = (0..50_000u64)
    ///     .map(|i| TraceRecord::new(Pc(4 * (i % 9)), InstrCategory::Loads, i % 3))
    ///     .collect();
    /// let options = PhaseOptions { window_records: 1024, clusters: 3, ..PhaseOptions::default() };
    /// let plan = phase_plan(&trace, &options);
    /// let sampled = ReplayEngine::new().replay_sampled(&trace, &PredictorConfig::paper_bank(), &plan);
    /// assert_eq!(sampled.len(), 5);
    /// // The weighted estimate derives from per-phase exact tallies.
    /// let estimate = sampled[0].weighted_accuracy(&plan, None);
    /// assert!((0.0..=1.0).contains(&estimate));
    /// ```
    #[must_use]
    pub fn replay_sampled(
        &self,
        trace: &SharedTrace,
        bank: &[PredictorConfig],
        plan: &PhasePlan,
    ) -> Vec<SampledReplay> {
        let plan = Plan::Cold(plan);
        self.drive_bank(trace, plan, bank).into_iter().map(SampledReplay::new).collect()
    }

    /// Functionally-warmed sampled replay: every configuration observes
    /// every record of every instruction in order, so its state matches
    /// the full replay's
    /// exactly, but tallying only the records inside the plan's
    /// representative windows (warmup prefixes are ignored). The weighted
    /// estimate then differs from the full replay only by the
    /// clustering's weighting error, at the cost of touching every record
    /// once per configuration. Tallies are byte-identical at every engine
    /// setting.
    ///
    /// # Panics
    ///
    /// As [`replay_sampled`](ReplayEngine::replay_sampled).
    #[must_use]
    pub fn replay_sampled_warm(
        &self,
        trace: &SharedTrace,
        bank: &[PredictorConfig],
        plan: &PhasePlan,
    ) -> Vec<SampledReplay> {
        let plan = Plan::Warm(plan);
        self.drive_bank(trace, plan, bank).into_iter().map(SampledReplay::new).collect()
    }

    /// [`replay_sampled`](ReplayEngine::replay_sampled) over a container,
    /// streamed like [`replay_streaming`](ReplayEngine::replay_streaming).
    /// Sampling pays twice here: chunks no phase's warmup or window
    /// touches are **read but never decoded** (nor checksummed). Tallies
    /// are byte-identical to the resident path at every engine setting.
    ///
    /// # Errors
    ///
    /// As [`replay_streaming`](ReplayEngine::replay_streaming), plus an
    /// invalid plan or one whose `total_records` disagrees with the
    /// container header.
    ///
    /// # Panics
    ///
    /// As [`replay`](ReplayEngine::replay), before reading anything.
    pub fn replay_sampled_streaming<R: Read>(
        &self,
        reader: R,
        bank: &[PredictorConfig],
        plan: &PhasePlan,
    ) -> Result<(v2::Header, Vec<SampledReplay>), TraceIoError> {
        let plan = Plan::Cold(plan);
        let (header, tallies) = self.drive_bank_stream(reader, plan, bank)?;
        Ok((header, tallies.into_iter().map(SampledReplay::new).collect()))
    }

    /// [`replay_sampled_warm`](ReplayEngine::replay_sampled_warm) over a
    /// container, streamed like
    /// [`replay_streaming`](ReplayEngine::replay_streaming): every chunk
    /// decodes (warming needs every record) and memory stays bounded by
    /// the chunk window. Tallies are byte-identical to the resident path
    /// at every engine setting.
    ///
    /// # Errors
    ///
    /// As [`replay_sampled_streaming`](ReplayEngine::replay_sampled_streaming).
    ///
    /// # Panics
    ///
    /// As [`replay`](ReplayEngine::replay), before reading anything.
    pub fn replay_sampled_warm_streaming<R: Read>(
        &self,
        reader: R,
        bank: &[PredictorConfig],
        plan: &PhasePlan,
    ) -> Result<(v2::Header, Vec<SampledReplay>), TraceIoError> {
        let plan = Plan::Warm(plan);
        let (header, tallies) = self.drive_bank_stream(reader, plan, bank)?;
        Ok((header, tallies.into_iter().map(SampledReplay::new).collect()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_trace::{InstrCategory, Pc, TraceRecord};

    /// A trace with two genuinely different regimes: a constant-value
    /// first half (last-value heaven) and a strided second half.
    fn phased_trace(n: u64) -> SharedTrace {
        (0..n)
            .map(|i| {
                let pc = Pc(4 * (i % 7));
                let category =
                    if i % 2 == 0 { InstrCategory::Loads } else { InstrCategory::AddSub };
                let value = if i < n / 2 { i % 7 } else { (i / 7) * 3 };
                TraceRecord::new(pc, category, value)
            })
            .collect()
    }

    fn options() -> PhaseOptions {
        PhaseOptions { window_records: 512, clusters: 4, ..PhaseOptions::default() }
    }

    /// The record-order pass [`behavior_vectors`] replaced, kept as its
    /// oracle: it walks the trace once in record order with every PC's
    /// proxy state (two context maps per PC) alive at once.
    fn record_order_vectors(trace: &SharedTrace, window_records: usize) -> Vec<[f64; DIMS]> {
        use std::collections::HashMap;
        let window_records = window_records.max(1) as u64;
        let n_ids = trace.interner().len();
        let mut seen = vec![false; n_ids];
        let mut last = vec![0u64; n_ids];
        let mut stride = vec![0u64; n_ids];
        let mut has_stride = vec![false; n_ids];
        let mut map1: Vec<HashMap<u64, u64>> = vec![HashMap::new(); n_ids];
        let mut map3: Vec<HashMap<u64, u64>> = vec![HashMap::new(); n_ids];
        let mut hist = vec![[0u64; 3]; n_ids];
        let mut depth = vec![0u32; n_ids];
        let mut vectors = Vec::new();
        let mut counts = [0u64; DIMS];
        let mut in_window = 0u64;
        for (rec, id) in trace.iter_with_ids() {
            let i = id.index();
            counts[rec.category.index()] += 1;
            if seen[i] {
                let prev = last[i];
                if rec.value == prev {
                    counts[LAST_DIM] += 1;
                }
                if has_stride[i] && rec.value == prev.wrapping_add(stride[i]) {
                    counts[STRIDE_DIM] += 1;
                }
                if map1[i].insert(prev, rec.value) == Some(rec.value) {
                    counts[CTX1_DIM] += 1;
                }
                if depth[i] >= 3
                    && map3[i].insert(context_mix(&hist[i]), rec.value) == Some(rec.value)
                {
                    counts[CTX3_DIM] += 1;
                }
                stride[i] = rec.value.wrapping_sub(prev);
                has_stride[i] = true;
            } else {
                counts[FRESH_DIM] += 1;
                seen[i] = true;
            }
            hist[i] = [hist[i][1], hist[i][2], rec.value];
            depth[i] = depth[i].saturating_add(1);
            last[i] = rec.value;
            in_window += 1;
            if in_window == window_records {
                vectors.push(normalized(&counts, in_window));
                counts = [0u64; DIMS];
                in_window = 0;
            }
        }
        if in_window > 0 {
            vectors.push(normalized(&counts, in_window));
        }
        vectors
    }

    /// A seeded trace of `records` records over `pcs` PCs (PC 0 takes
    /// about nine in ten records when `skewed`). Each record repeats its
    /// PC's last value, steps it by a per-PC stride, or draws a value
    /// below `range`, so every proxy both hits and misses.
    fn xorshift_trace(seed: u64, records: u64, pcs: u64, skewed: bool, range: u64) -> SharedTrace {
        let mut state = seed | 1;
        let mut last = vec![0u64; pcs as usize];
        (0..records)
            .map(|_| {
                let r = xorshift64(&mut state);
                let pc = if skewed && r % 10 < 9 { 0 } else { (r >> 8) % pcs };
                let value = match (r >> 20) % 4 {
                    0 => last[pc as usize],
                    1 => last[pc as usize].wrapping_add(pc + 1),
                    _ => xorshift64(&mut state) % range,
                };
                last[pc as usize] = value;
                let category = InstrCategory::ALL[(r >> 40) as usize % InstrCategory::ALL.len()];
                TraceRecord::new(Pc(4 * pc), category, value)
            })
            .collect()
    }

    #[test]
    fn pc_major_vectors_match_the_record_order_pass_bit_for_bit() {
        let shapes = [(1, false), (7, false), (300, false), (300, true)];
        let ranges = [4, 1 << 12, u64::MAX];
        // Every proxy dimension must fire somewhere, or the comparison
        // would not cover it.
        let mut fired = [false; DIMS];
        for (seed, (pcs, skewed)) in (1u64..).zip(shapes) {
            for range in ranges {
                // 10,007 records: every window size but 1 leaves a
                // partial last window.
                let trace = xorshift_trace(seed, 10_007, pcs, skewed, range);
                let shards = trace.to_vec().chunks(999).map(<[_]>::to_vec).collect();
                let chunked = SharedTrace::from_chunks(shards);
                for window in [1, 3, 64, 1000, 4096] {
                    let oracle = record_order_vectors(&trace, window);
                    for vector in &oracle {
                        for (fired, &share) in fired.iter_mut().zip(vector) {
                            *fired |= share > 0.0;
                        }
                    }
                    for trace in [&trace, &chunked] {
                        let vectors = behavior_vectors(trace, window);
                        assert_eq!(vectors.len(), oracle.len());
                        for (w, (got, want)) in vectors.iter().zip(&oracle).enumerate() {
                            assert_eq!(
                                got.map(f64::to_bits),
                                want.map(f64::to_bits),
                                "window {w} of {window} records, {pcs} PCs (skewed {skewed}), \
                                 values below {range}"
                            );
                        }
                    }
                }
                for window_records in [64, 256] {
                    let options = PhaseOptions { window_records, ..PhaseOptions::default() };
                    let oracle = plan_from(trace.len() as u64, &options, |window| {
                        record_order_vectors(&trace, window)
                    });
                    assert_eq!(phase_plan(&trace, &options), oracle);
                    assert_eq!(phase_plan(&chunked, &options), oracle);
                }
            }
        }
        assert_eq!(fired, [true; DIMS]);
    }

    #[test]
    fn plan_is_deterministic_valid_and_small() {
        let trace = phased_trace(40_000);
        let plan = phase_plan(&trace, &options());
        assert_eq!(plan, phase_plan(&trace, &options()));
        plan.validate().expect("valid by construction");
        assert!(!plan.phases.is_empty() && plan.phases.len() <= 4);
        let weights: f64 = (0..plan.phases.len()).map(|i| plan.weight(i)).sum();
        assert_eq!(weights, 1.0);
        assert!(
            plan.replayed_records() <= trace.len() as u64 / 4,
            "sampling must skip most records: {} of {}",
            plan.replayed_records(),
            trace.len()
        );
    }

    #[test]
    fn plan_separates_obvious_regimes() {
        // With 2 clusters on a 2-regime trace, one representative must
        // come from each half.
        let trace = phased_trace(40_000);
        let plan = phase_plan(&trace, &PhaseOptions { clusters: 2, ..options() });
        assert_eq!(plan.phases.len(), 2);
        assert!(plan.phases[0].start < 20_000 && plan.phases[1].start >= 20_000, "{plan:?}");
    }

    #[test]
    fn tiny_and_empty_traces_produce_valid_plans() {
        let empty = phase_plan(&SharedTrace::new(), &options());
        assert_eq!(empty.total_records, 0);
        assert!(empty.phases.is_empty());
        empty.validate().expect("empty plan is valid");

        // Fewer records than one window: a single whole-trace phase.
        let tiny = phased_trace(100);
        let plan = phase_plan(&tiny, &options());
        assert_eq!(plan.phases.len(), 1);
        assert_eq!((plan.phases[0].start, plan.phases[0].end), (0, 100));
        assert_eq!(plan.phases[0].cluster_records, 100);
    }

    #[test]
    fn weighted_accuracy_tracks_full_replay() {
        let trace = phased_trace(60_000);
        let plan = phase_plan(&trace, &options());
        let bank = PredictorConfig::paper_bank();
        let engine = ReplayEngine::new();
        let full = engine.replay(&trace, &bank);
        let sampled = engine.replay_sampled(&trace, &bank, &plan);
        for (full, sampled) in full.iter().zip(&sampled) {
            let error = (full.accuracy() - sampled.weighted_accuracy(&plan, None)).abs();
            assert!(
                error <= 0.02,
                "{}: |{} - {}| = {error}",
                full.name,
                full.accuracy(),
                sampled.weighted_accuracy(&plan, None)
            );
        }
    }

    #[test]
    fn warm_sampled_tallies_windows_with_exact_state() {
        let trace = phased_trace(60_000);
        let plan = phase_plan(&trace, &options());
        let bank = PredictorConfig::paper_bank();
        let engine = ReplayEngine::new();
        let full = engine.replay(&trace, &bank);
        let warm = engine.replay_sampled_warm(&trace, &bank, &plan);
        for (full, warm) in full.iter().zip(&warm) {
            // State is exact, so only the clustering's weighting error
            // remains — tighter than the cold bound on the same trace.
            let error = (full.accuracy() - warm.weighted_accuracy(&plan, None)).abs();
            assert!(error <= 0.01, "{}: error {error}", full.name);
            assert_eq!(warm.simulated(), plan.simulated_records());
        }
    }

    #[test]
    fn streaming_rejects_mismatched_plan_and_corrupt_needed_chunks() {
        let records: Vec<TraceRecord> = phased_trace(10_000).to_vec();
        let mut bytes = Vec::new();
        v2::write_compressed(&mut bytes, &v2::TraceMeta::default(), records.chunks(1024), &[])
            .expect("writes");
        let trace = SharedTrace::from_records(records);
        let plan = phase_plan(&trace, &options());
        let bank = PredictorConfig::fcm_orders([1]);

        let mut stale = plan.clone();
        stale.total_records += 512;
        stale.phases[0].cluster_records += 512;
        let err = ReplayEngine::new()
            .replay_sampled_streaming(bytes.as_slice(), &bank, &stale)
            .unwrap_err();
        assert!(err.to_string().contains("phase plan covers"), "{err}");

        // A corrupt byte in the *last* chunk: the plan's final window
        // always lands there or earlier, and the producer still streams
        // every chunk's bytes, so torn payloads surface either as a
        // chunk error or a trailing-section error — never as silence.
        let mut torn = bytes.clone();
        torn.truncate(torn.len() - 40);
        assert!(ReplayEngine::new()
            .replay_sampled_streaming(torn.as_slice(), &bank, &plan)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "different trace")]
    fn resident_sampled_rejects_foreign_plan() {
        let trace = phased_trace(5_000);
        let plan = phase_plan(&phased_trace(6_000), &options());
        let _ = ReplayEngine::new().replay_sampled(&trace, &PredictorConfig::paper_bank(), &plan);
    }
}
