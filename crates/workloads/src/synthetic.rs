//! Synthetic value-pattern scenarios: parameterized, seeded trace
//! generators for mapping where each predictor family wins.
//!
//! The seven benchmark programs probe predictability as it arises in
//! realistic code, but they cannot *isolate* a behaviour class: a `cc` run
//! mixes stride arithmetic, context-repeating loads, and near-random data
//! in unknown proportions. A [`Scenario`] generates a value trace whose
//! per-PC behaviour is a pure, parameterized instance of one class — so
//! the analytically-expected best predictor family is known in advance and
//! a regression in that family surfaces as a semantic failure, not a
//! golden diff. The `repro sweep` subcommand fans a scenario × predictor
//! matrix through the replay engine; `ARCHITECTURE.md` ("Synthetic
//! scenarios") maps each generator to the family it isolates.
//!
//! Every scenario is deterministic: the same [`ScenarioKind`], PC count,
//! per-PC record count, and seed produce a byte-identical record stream on
//! every build and platform (generation uses only [`XorShift`]). Records
//! flow through the same [`TraceRecord`] vocabulary as simulated
//! workloads, so synthetic traces replay on the parallel engine and
//! persist in the trace cache exactly like real ones —
//! [`Scenario::fingerprint`] provides the cache key.
//!
//! | kind | per-PC value stream | expected winner |
//! |------|---------------------|-----------------|
//! | [`Constant`](ScenarioKind::Constant) | one fixed value | every family |
//! | [`Stride`](ScenarioKind::Stride) | arithmetic sequence (+ transient jitter) | `s2` |
//! | [`Periodic`](ScenarioKind::Periodic) | repeating cycle of distinct values | `fcm1+` |
//! | [`Markov`](ScenarioKind::Markov) | order-*k* de Bruijn symbol chain | `fcm{k}+` |
//! | [`Chase`](ScenarioKind::Chase) | pointer walk over a permuted heap | `fcm1+` |
//! | [`Random`](ScenarioKind::Random) | uniform symbols | nobody (chance) |
//! | [`Mixed`](ScenarioKind::Mixed) | per-PC blend of the above | `fcm3` overall |
//!
//! # Examples
//!
//! ```
//! use dvp_workloads::synthetic::{Scenario, ScenarioKind};
//!
//! let scenario = Scenario::new(ScenarioKind::Stride { stride: 3, jitter_pct: 0 }, 2, 50, 7);
//! let records = scenario.records();
//! assert_eq!(records.len(), 100); // 2 PCs x 50 records, round-robin
//! // Per PC the values step by exactly the stride:
//! assert_eq!(records[2].value.wrapping_sub(records[0].value), 3);
//! assert_eq!(records, scenario.records()); // fully deterministic
//! ```

use crate::rng::XorShift;
use dvp_trace::io::v2::Fingerprint;
use dvp_trace::{InstrCategory, Pc, TraceRecord, Value};
use std::fmt;

/// The `opt_level` marker synthetic fingerprints carry (no compiler is
/// involved, so the field records the generator substrate instead).
pub const SYNTHETIC_OPT: &str = "syn";

/// Base address of synthetic static instructions: PC *i* of a scenario is
/// `SYNTHETIC_PC_BASE + 4 * i` (4-aligned, like Sim32 code).
pub const SYNTHETIC_PC_BASE: u64 = 0x5A00_0000;

/// Largest cycle a [`Periodic`](ScenarioKind::Periodic),
/// [`Markov`](ScenarioKind::Markov) (`alphabet^order`), or
/// [`Chase`](ScenarioKind::Chase) scenario may materialize per PC.
pub const MAX_CYCLE: u32 = 1 << 16;

/// A value-pattern generator class plus its parameters.
///
/// Each kind defines the per-PC value stream; the owning [`Scenario`] adds
/// the PC count, per-PC length, and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Every PC produces one fixed (seeded) value forever. All predictor
    /// families saturate after their first observation.
    Constant,
    /// Arithmetic sequences: PC *i* emits `base_i + n * stride`. With
    /// `jitter_pct > 0`, each emitted value is transiently perturbed with
    /// that percent probability (the underlying sequence keeps advancing),
    /// costing the stride predictor ~2 mispredictions per event.
    Stride {
        /// Per-step increment (nonzero; `0` would be [`ScenarioKind::Constant`]).
        stride: i64,
        /// Percent (0–100) of records whose emitted value is perturbed.
        jitter_pct: u8,
    },
    /// A repeating cycle of `period` *distinct* seeded values. One value
    /// of context identifies the cycle position, so `fcm1` (and higher)
    /// saturates after the first lap while stride and last-value fail.
    Periodic {
        /// Cycle length (1..=[`MAX_CYCLE`]).
        period: u32,
    },
    /// An order-`order` context chain over `alphabet` symbols, realized as
    /// a de Bruijn cycle: every length-`order` context occurs exactly once
    /// per lap with a unique successor, and every shorter context is
    /// followed by *all* symbols uniformly. `fcm{order}` saturates after
    /// one lap; every lower order stays near chance (`1/alphabet`) — the
    /// sharpest possible order-separation probe.
    Markov {
        /// Context length that fully determines the successor (1..=8).
        order: u32,
        /// Symbol count (2..=64); symbols map to distinct seeded values.
        alphabet: u32,
    },
    /// Pointer-chase-style dependent values: each PC walks its own seeded
    /// *single-cycle* (Sattolo) permutation of a `heap`-slot arena
    /// (`next = perm[current]`), emitting the slot addresses. The walk is
    /// a value cycle of length exactly `heap` — the previous *value*
    /// determines the next — so `fcm1` saturates after one lap; deltas
    /// are unstructured, so stride fails, and within a lap every value is
    /// distinct, so last-value fails.
    Chase {
        /// Arena slot count (2..=[`MAX_CYCLE`]).
        heap: u32,
    },
    /// Uniform independent symbols from `0..alphabet`: near-random data.
    /// Every family's accuracy stays around chance (`1/alphabet`).
    Random {
        /// Symbol count (>= 2). Large alphabets drive chance toward zero.
        alphabet: u64,
    },
    /// A per-PC blend: PC *i* draws class `i % 5` from {constant, stride,
    /// periodic(8), chase(64), random(65536)}, modelling a program whose
    /// static instructions mix behaviour classes. `fcm3` wins overall
    /// (it saturates three of the five classes).
    Mixed,
}

impl ScenarioKind {
    /// Short class name used in reports and cache fingerprints.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Constant => "constant",
            ScenarioKind::Stride { .. } => "stride",
            ScenarioKind::Periodic { .. } => "periodic",
            ScenarioKind::Markov { .. } => "markov",
            ScenarioKind::Chase { .. } => "chase",
            ScenarioKind::Random { .. } => "random",
            ScenarioKind::Mixed => "mixed",
        }
    }
}

/// A concrete synthetic scenario: a generator class, the number of static
/// instructions (PCs), the per-PC record count, and the master seed.
///
/// Records are emitted round-robin across the PCs (PC 0, PC 1, …, PC 0,
/// …), `records_per_pc` times, so the interleaving resembles a loop body
/// touching every static instruction per iteration. PC *i* reports under
/// instruction category `InstrCategory::ALL[i % 8]`, exercising the
/// per-category accounting paths.
///
/// # Examples
///
/// ```
/// use dvp_workloads::synthetic::{Scenario, ScenarioKind};
///
/// let s = Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 1, 200, 42);
/// assert_eq!(s.name(), "markov");
/// assert_eq!(s.params(), "n1,k2,m4");
/// assert_eq!(s.total_records(), 200);
/// // The cache key is a standard workload fingerprint:
/// assert_eq!(s.fingerprint(None).workload, "syn-markov");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scenario {
    kind: ScenarioKind,
    pcs: u32,
    records_per_pc: u32,
    seed: u64,
}

impl Scenario {
    /// Creates a scenario.
    ///
    /// # Panics
    ///
    /// Panics where [`Scenario::try_new`] returns an error.
    #[must_use]
    pub fn new(kind: ScenarioKind, pcs: u32, records_per_pc: u32, seed: u64) -> Scenario {
        Scenario::try_new(kind, pcs, records_per_pc, seed).expect("invalid scenario")
    }

    /// Creates a scenario, or says which parameter is out of range.
    ///
    /// # Errors
    ///
    /// The shape is degenerate (`pcs == 0`, `records_per_pc == 0`) or a
    /// kind parameter is out of range: zero `stride`, `jitter_pct > 100`,
    /// `period`/`heap`/`alphabet^order` outside `1..=`[`MAX_CYCLE`],
    /// `order` outside `1..=8`, Markov `alphabet` outside `2..=64`, or
    /// `Random` `alphabet < 2`.
    ///
    /// ```
    /// use dvp_workloads::synthetic::{Scenario, ScenarioKind};
    ///
    /// let err = Scenario::try_new(ScenarioKind::Periodic { period: 0 }, 1, 8, 1).unwrap_err();
    /// assert!(err.contains("`period` must be in 1..="), "{err}");
    /// ```
    pub fn try_new(
        kind: ScenarioKind,
        pcs: u32,
        records_per_pc: u32,
        seed: u64,
    ) -> Result<Scenario, String> {
        let problem = match kind {
            _ if pcs == 0 => "scenario `pcs` must be positive".to_owned(),
            _ if records_per_pc == 0 => "scenario `records_per_pc` must be positive".to_owned(),
            ScenarioKind::Stride { stride: 0, .. } => {
                "scenario `stride` must be nonzero (use kind `constant`)".to_owned()
            }
            ScenarioKind::Stride { jitter_pct: 101.., .. } => {
                "scenario `jitter_pct` must be at most 100".to_owned()
            }
            ScenarioKind::Periodic { period } if !(1..=MAX_CYCLE).contains(&period) => {
                format!("scenario `period` must be in 1..={MAX_CYCLE}")
            }
            ScenarioKind::Markov { order, .. } if !(1..=8).contains(&order) => {
                "scenario `order` must be in 1..=8".to_owned()
            }
            ScenarioKind::Markov { alphabet, .. } if !(2..=64).contains(&alphabet) => {
                "scenario `alphabet` must be in 2..=64 for kind `markov`".to_owned()
            }
            ScenarioKind::Markov { order, alphabet }
                if u64::from(alphabet).pow(order) > u64::from(MAX_CYCLE) =>
            {
                format!("scenario alphabet^order exceeds {MAX_CYCLE}")
            }
            ScenarioKind::Chase { heap } if !(2..=MAX_CYCLE).contains(&heap) => {
                format!("scenario `heap` must be in 2..={MAX_CYCLE}")
            }
            ScenarioKind::Random { alphabet: 0 | 1 } => {
                "scenario `alphabet` must be at least 2".to_owned()
            }
            _ => return Ok(Scenario { kind, pcs, records_per_pc, seed }),
        };
        Err(problem)
    }

    /// The generator class and its parameters.
    #[must_use]
    pub fn kind(&self) -> ScenarioKind {
        self.kind
    }

    /// Short class name (`"stride"`, `"markov"`, …).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.kind.name()
    }

    /// Number of static instructions the scenario emits.
    #[must_use]
    pub fn pcs(&self) -> u32 {
        self.pcs
    }

    /// Records emitted per static instruction.
    #[must_use]
    pub fn records_per_pc(&self) -> u32 {
        self.records_per_pc
    }

    /// The master seed (per-PC generators derive sub-seeds from it).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total records the scenario emits (`pcs * records_per_pc`).
    #[must_use]
    pub fn total_records(&self) -> u64 {
        u64::from(self.pcs) * u64::from(self.records_per_pc)
    }

    /// Canonical parameter string: PC count plus the kind's parameters,
    /// e.g. `"n32,d7,j5"`. Used as the fingerprint's `input` field and in
    /// sweep reports; two scenarios of the same kind collide iff their
    /// parameters (other than seed and length) are identical.
    #[must_use]
    pub fn params(&self) -> String {
        let n = self.pcs;
        match self.kind {
            ScenarioKind::Constant | ScenarioKind::Mixed => format!("n{n}"),
            ScenarioKind::Stride { stride, jitter_pct } => format!("n{n},d{stride},j{jitter_pct}"),
            ScenarioKind::Periodic { period } => format!("n{n},p{period}"),
            ScenarioKind::Markov { order, alphabet } => format!("n{n},k{order},m{alphabet}"),
            ScenarioKind::Chase { heap } => format!("n{n},h{heap}"),
            ScenarioKind::Random { alphabet } => format!("n{n},m{alphabet}"),
        }
    }

    /// The cache fingerprint of the trace this scenario generates —
    /// synthetic traces persist in the same fingerprint-keyed container
    /// cache as simulated workloads (`workload` is `"syn-<kind>"`,
    /// `opt_level` is [`SYNTHETIC_OPT`], `scale` is the per-PC record
    /// count).
    #[must_use]
    pub fn fingerprint(&self, record_cap: Option<usize>) -> Fingerprint {
        Fingerprint {
            workload: format!("syn-{}", self.kind.name()),
            input: self.params(),
            opt_level: SYNTHETIC_OPT.to_owned(),
            seed: self.seed,
            scale: self.records_per_pc,
            record_cap: record_cap.map_or(u64::MAX, |cap| cap as u64),
        }
    }

    /// Feeds every record of the scenario to `sink`, in emission order,
    /// without materializing the trace — the synthetic analog of
    /// [`Workload::trace_with`](crate::Workload::trace_with).
    pub fn generate_with<S: FnMut(TraceRecord)>(&self, sink: &mut S) {
        let mut gens: Vec<Gen> = (0..self.pcs).map(|i| self.pc_generator(i)).collect();
        for _ in 0..self.records_per_pc {
            for (i, gen) in gens.iter_mut().enumerate() {
                let pc = Pc(SYNTHETIC_PC_BASE + 4 * i as u64);
                let category = InstrCategory::ALL[i % InstrCategory::ALL.len()];
                sink(TraceRecord::new(pc, category, gen.next()));
            }
        }
    }

    /// Materializes the full trace as a vector.
    #[must_use]
    pub fn records(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.total_records() as usize);
        self.generate_with(&mut |rec| out.push(rec));
        out
    }

    /// What the paper's predictor families should achieve on this
    /// scenario, derived analytically from the generator parameters (cycle
    /// lengths bound warmup; jitter bounds the stride predictor's ceiling).
    #[must_use]
    pub fn expected(&self) -> Expectation {
        let rpp = f64::from(self.records_per_pc);
        // A family that saturates a scenario mispredicts only during
        // warmup: `floor` budgets twice the analytic warmup (plus slack)
        // per PC, so it stays a *semantic* bound, not a tuned one.
        let floor = |warmup: f64| (1.0 - (2.0 * warmup + 4.0) / rpp).max(0.0);
        let fcm_from = |k: u32| (k..=MAX_EXPECTED_FCM_ORDER).map(|o| format!("fcm{o}")).collect();
        match self.kind {
            ScenarioKind::Constant => Expectation {
                saturating: ["l", "s2", "fcm1", "fcm2", "fcm3"].map(str::to_owned).to_vec(),
                floor: floor(2.0),
                others_ceiling: None,
            },
            ScenarioKind::Stride { jitter_pct, .. } => Expectation {
                saturating: vec!["s2".to_owned()],
                // Each jitter event costs the two-delta predictor ~2
                // records (the perturbed one and the one after); budget
                // 2.5 per event. Values never repeat, so context and
                // last-value families stay near zero regardless of jitter.
                floor: (floor(3.0) - 2.5 * f64::from(jitter_pct) / 100.0).max(0.0),
                others_ceiling: Some(0.05),
            },
            ScenarioKind::Periodic { period } => Expectation {
                saturating: fcm_from(1),
                floor: floor(f64::from(period) + 4.0),
                others_ceiling: Some(0.10),
            },
            ScenarioKind::Markov { order, alphabet } => Expectation {
                saturating: fcm_from(order),
                floor: floor(f64::from(alphabet).powi(order as i32) + f64::from(order)),
                // Shorter contexts see all `alphabet` successors uniformly;
                // chance is 1/alphabet, with slack for count-tie dynamics.
                others_ceiling: Some(2.0 / f64::from(alphabet) + 0.10),
            },
            ScenarioKind::Chase { heap } => Expectation {
                saturating: fcm_from(1),
                floor: floor(f64::from(heap) + 4.0),
                others_ceiling: Some(0.10),
            },
            ScenarioKind::Random { alphabet } => Expectation {
                saturating: Vec::new(),
                floor: 0.0,
                others_ceiling: Some(1.5 / alphabet as f64 + 0.02),
            },
            ScenarioKind::Mixed => Expectation {
                // fcm3 saturates the constant, periodic, and chase fifths
                // (~3/5 of records) and is near zero on the rest.
                saturating: vec!["fcm3".to_owned()],
                floor: 0.50,
                others_ceiling: None,
            },
        }
    }

    /// The per-PC value generator, fully determined by `(seed, pc_index)`.
    fn pc_generator(&self, pc_index: u32) -> Gen {
        let mut rng = XorShift::new(
            self.seed ^ (u64::from(pc_index) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        Gen::build(self.kind, pc_index, &mut rng)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name(), self.params())
    }
}

/// Highest FCM order an [`Expectation`] lists as saturating (the sweep
/// bank tops out at `fcm3`; listed-but-absent orders are simply not
/// checked).
const MAX_EXPECTED_FCM_ORDER: u32 = 6;

/// Analytic accuracy expectation for one scenario: which predictor
/// configurations (by report name) should saturate it, the accuracy floor
/// they must reach, and optionally a ceiling every *other* family must
/// stay under.
///
/// An empty `saturating` list with a ceiling describes a chance-level
/// scenario ("nobody should predict this").
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Report names of the configurations expected at or above `floor`.
    pub saturating: Vec<String>,
    /// Accuracy lower bound for the saturating configurations, in `[0, 1]`.
    pub floor: f64,
    /// Accuracy upper bound for every configuration *not* listed in
    /// `saturating` (`None` = unconstrained).
    pub others_ceiling: Option<f64>,
}

impl Expectation {
    /// Whether `(name, accuracy)` results satisfy this expectation. Names
    /// not mentioned in `saturating` are checked against the ceiling (if
    /// any); saturating names absent from `results` are not checked.
    #[must_use]
    pub fn met(&self, results: &[(String, f64)]) -> bool {
        results.iter().all(|(name, acc)| {
            if self.saturating.iter().any(|s| s == name) {
                *acc >= self.floor
            } else {
                self.others_ceiling.is_none_or(|ceiling| *acc <= ceiling)
            }
        })
    }

    /// Compact rendering for report tables, e.g. `"s2>=99.5;rest<=5.0"`,
    /// `"fcm2+>=97.9;rest<=60.0"`, or `"all<=2.0"` (percentages).
    #[must_use]
    pub fn describe(&self) -> String {
        let pct = |x: f64| format!("{:.1}", x * 100.0);
        if self.saturating.is_empty() {
            return match self.others_ceiling {
                Some(ceiling) => format!("all<={}", pct(ceiling)),
                None => "(none)".to_owned(),
            };
        }
        let who = if self.saturating.iter().any(|name| name == "l") {
            "all".to_owned()
        } else if self.saturating.len() > 1
            && self.saturating.iter().all(|name| name.starts_with("fcm"))
        {
            format!("{}+", self.saturating[0])
        } else {
            self.saturating.join("+")
        };
        let mut out = format!("{who}>={}", pct(self.floor));
        if let Some(ceiling) = self.others_ceiling {
            out.push_str(&format!(";rest<={}", pct(ceiling)));
        }
        out
    }
}

/// Per-PC value stream state. Periodic, Markov, and Chase all reduce to a
/// precomputed value cycle; they differ only in how the cycle is built.
#[derive(Debug, Clone)]
enum Gen {
    Constant { value: Value },
    Stride { next: Value, stride: Value, jitter_pct: u8, rng: XorShift },
    Cycle { values: Vec<Value>, pos: usize },
    Random { alphabet: u64, rng: XorShift },
}

impl Gen {
    fn build(kind: ScenarioKind, pc_index: u32, rng: &mut XorShift) -> Gen {
        match kind {
            ScenarioKind::Constant => Gen::Constant { value: rng.next_u64() },
            ScenarioKind::Stride { stride, jitter_pct } => Gen::Stride {
                next: rng.below(1 << 32),
                stride: stride as Value,
                jitter_pct,
                rng: XorShift::new(rng.next_u64()),
            },
            ScenarioKind::Periodic { period } => {
                Gen::Cycle { values: distinct_cycle(period, rng), pos: 0 }
            }
            ScenarioKind::Markov { order, alphabet } => {
                Gen::Cycle { values: markov_cycle(order, alphabet, rng), pos: 0 }
            }
            ScenarioKind::Chase { heap } => Gen::Cycle { values: chase_cycle(heap, rng), pos: 0 },
            ScenarioKind::Random { alphabet } => {
                Gen::Random { alphabet, rng: XorShift::new(rng.next_u64()) }
            }
            // The blend assigns one pure sub-class per PC, in fixed
            // proportion, so the overall expectation stays analytic.
            ScenarioKind::Mixed => {
                let sub = match pc_index % 5 {
                    0 => ScenarioKind::Constant,
                    1 => ScenarioKind::Stride { stride: 1 + rng.below(9) as i64, jitter_pct: 0 },
                    2 => ScenarioKind::Periodic { period: 8 },
                    3 => ScenarioKind::Chase { heap: 64 },
                    _ => ScenarioKind::Random { alphabet: 1 << 16 },
                };
                Gen::build(sub, pc_index, rng)
            }
        }
    }

    fn next(&mut self) -> Value {
        match self {
            Gen::Constant { value } => *value,
            Gen::Stride { next, stride, jitter_pct, rng } => {
                let value = *next;
                *next = next.wrapping_add(*stride);
                if *jitter_pct > 0 && rng.below(100) < u64::from(*jitter_pct) {
                    // Transient perturbation: nonzero offset, sequence
                    // keeps advancing underneath.
                    value.wrapping_add(1 + rng.below(0xFFFE))
                } else {
                    value
                }
            }
            Gen::Cycle { values, pos } => {
                let value = values[*pos];
                *pos = (*pos + 1) % values.len();
                value
            }
            Gen::Random { alphabet, rng } => rng.below(*alphabet),
        }
    }
}

/// `period` pairwise-distinct seeded values: the index lives in the low 16
/// bits (hence [`MAX_CYCLE`]), the seeded entropy above them.
fn distinct_cycle(period: u32, rng: &mut XorShift) -> Vec<Value> {
    (0..period).map(|i| (rng.next_u64() & !0xFFFF) | u64::from(i)).collect()
}

/// The Markov cycle: a de Bruijn sequence of order `order` over `alphabet`
/// symbols (every `order`-context exactly once per lap), rotated to a
/// seeded start phase, with symbols mapped to distinct seeded values.
fn markov_cycle(order: u32, alphabet: u32, rng: &mut XorShift) -> Vec<Value> {
    let symbols = de_bruijn(alphabet as usize, order as usize);
    let map = distinct_cycle(alphabet, rng);
    let start = rng.below(symbols.len() as u64) as usize;
    (0..symbols.len()).map(|i| map[symbols[(start + i) % symbols.len()]]).collect()
}

/// The pointer-chase cycle: walk `next = perm[current]` from a seeded
/// start over a seeded permutation of `heap` slots, emitting
/// 8-byte-strided slot addresses until the walk closes. The permutation
/// is drawn with Sattolo's algorithm (Fisher–Yates restricted to `j < i`),
/// which yields a uniformly random *single-cycle* permutation — so the
/// walk provably visits all `heap` slots for every seed, the lap length
/// (and hence warmup) is exactly `heap`, and within a lap every value is
/// distinct. A plain uniform permutation would make the start slot's
/// cycle length uniform on `1..=heap`, letting an unlucky seed degenerate
/// into a short cycle (even a constant) and voiding the analytic bounds.
fn chase_cycle(heap: u32, rng: &mut XorShift) -> Vec<Value> {
    let heap = heap as usize;
    let mut perm: Vec<usize> = (0..heap).collect();
    for i in (1..heap).rev() {
        let j = rng.below(i as u64) as usize;
        perm.swap(i, j);
    }
    let start = rng.below(heap as u64) as usize;
    let mut values = Vec::new();
    let mut slot = start;
    loop {
        slot = perm[slot];
        values.push(0x2000_0000 + 8 * slot as u64);
        if slot == start {
            break;
        }
    }
    values
}

/// The lexicographically-least de Bruijn sequence `B(m, k)`: length `m^k`,
/// containing every length-`k` word over `0..m` exactly once (cyclically).
/// Standard FKM construction via Lyndon words.
fn de_bruijn(m: usize, k: usize) -> Vec<usize> {
    fn db(t: usize, p: usize, k: usize, m: usize, a: &mut [usize], seq: &mut Vec<usize>) {
        if t > k {
            if k.is_multiple_of(p) {
                seq.extend_from_slice(&a[1..=p]);
            }
        } else {
            a[t] = a[t - p];
            db(t + 1, p, k, m, a, seq);
            for j in (a[t - p] + 1)..m {
                a[t] = j;
                db(t + 1, t, k, m, a, seq);
            }
        }
    }
    let mut a = vec![0usize; k + 1];
    let mut seq = Vec::with_capacity(m.pow(k as u32));
    db(1, 1, k, m, &mut a, &mut seq);
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn every_kind() -> Vec<ScenarioKind> {
        vec![
            ScenarioKind::Constant,
            ScenarioKind::Stride { stride: 7, jitter_pct: 0 },
            ScenarioKind::Stride { stride: -3, jitter_pct: 10 },
            ScenarioKind::Periodic { period: 6 },
            ScenarioKind::Markov { order: 2, alphabet: 4 },
            ScenarioKind::Chase { heap: 16 },
            ScenarioKind::Random { alphabet: 8 },
            ScenarioKind::Mixed,
        ]
    }

    #[test]
    fn every_kind_is_deterministic_and_sized() {
        for kind in every_kind() {
            let s = Scenario::new(kind, 6, 40, 0xABCD);
            let a = s.records();
            let b = s.records();
            assert_eq!(a, b, "{s}");
            assert_eq!(a.len() as u64, s.total_records(), "{s}");
            // Round-robin emission: consecutive records cycle the PCs.
            for (i, rec) in a.iter().enumerate() {
                assert_eq!(rec.pc, Pc(SYNTHETIC_PC_BASE + 4 * (i as u64 % 6)), "{s}");
            }
        }
    }

    #[test]
    fn seeds_and_params_change_the_stream() {
        let base = Scenario::new(ScenarioKind::Periodic { period: 6 }, 2, 50, 1);
        let reseeded = Scenario::new(ScenarioKind::Periodic { period: 6 }, 2, 50, 2);
        let resized = Scenario::new(ScenarioKind::Periodic { period: 7 }, 2, 50, 1);
        assert_ne!(base.records(), reseeded.records());
        assert_ne!(base.records(), resized.records());
    }

    #[test]
    fn stride_steps_by_exactly_the_stride() {
        let s = Scenario::new(ScenarioKind::Stride { stride: -5, jitter_pct: 0 }, 3, 30, 9);
        let recs = s.records();
        for pc_index in 0..3 {
            let values: Vec<Value> =
                recs.iter().skip(pc_index).step_by(3).map(|r| r.value).collect();
            for pair in values.windows(2) {
                assert_eq!(pair[1].wrapping_sub(pair[0]), (-5i64) as Value);
            }
        }
    }

    #[test]
    fn periodic_cycles_distinct_values() {
        let s = Scenario::new(ScenarioKind::Periodic { period: 5 }, 1, 25, 3);
        let values: Vec<Value> = s.records().iter().map(|r| r.value).collect();
        let cycle: HashSet<Value> = values[..5].iter().copied().collect();
        assert_eq!(cycle.len(), 5, "cycle values must be distinct");
        for (i, v) in values.iter().enumerate() {
            assert_eq!(*v, values[i % 5]);
        }
    }

    #[test]
    fn de_bruijn_contains_every_context_once() {
        for (m, k) in [(2, 3), (4, 2), (3, 3)] {
            let seq = de_bruijn(m, k);
            assert_eq!(seq.len(), m.pow(k as u32));
            let mut seen = HashSet::new();
            for i in 0..seq.len() {
                let window: Vec<usize> = (0..k).map(|j| seq[(i + j) % seq.len()]).collect();
                assert!(seen.insert(window), "duplicate {k}-window in B({m},{k})");
            }
            assert_eq!(seen.len(), seq.len());
        }
    }

    #[test]
    fn markov_successor_is_a_function_of_the_order_k_context() {
        let s = Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 3 }, 1, 100, 11);
        let values: Vec<Value> = s.records().iter().map(|r| r.value).collect();
        let mut successor: std::collections::HashMap<(Value, Value), Value> =
            std::collections::HashMap::new();
        for w in values.windows(3) {
            let prev = successor.insert((w[0], w[1]), w[2]);
            assert!(prev.is_none() || prev == Some(w[2]), "order-2 context must determine next");
        }
        assert_eq!(values.iter().collect::<HashSet<_>>().len(), 3, "three symbol values");
    }

    #[test]
    fn chase_walks_a_full_single_cycle_for_every_seed() {
        for seed in 0..20u64 {
            let s = Scenario::new(ScenarioKind::Chase { heap: 16 }, 1, 64, seed);
            let values: Vec<Value> = s.records().iter().map(|r| r.value).collect();
            // The previous value determines the next (it's a pointer walk).
            let mut successor = std::collections::HashMap::new();
            for w in values.windows(2) {
                let prev = successor.insert(w[0], w[1]);
                assert!(prev.is_none() || prev == Some(w[1]), "seed {seed}");
            }
            // Sattolo guarantees the lap covers the whole arena: exactly
            // `heap` distinct 8-strided addresses, repeating with period
            // `heap` — never a degenerate short cycle.
            let lap: HashSet<Value> = values[..16].iter().copied().collect();
            assert_eq!(lap.len(), 16, "seed {seed}: lap must visit every slot");
            for (i, v) in values.iter().enumerate() {
                assert_eq!(*v, values[i % 16], "seed {seed}");
                assert_eq!((v - 0x2000_0000) % 8, 0, "seed {seed}");
                assert!((v - 0x2000_0000) / 8 < 16, "seed {seed}");
            }
        }
    }

    #[test]
    fn random_stays_inside_the_alphabet() {
        let s = Scenario::new(ScenarioKind::Random { alphabet: 8 }, 2, 200, 21);
        let values: HashSet<Value> = s.records().iter().map(|r| r.value).collect();
        assert!(values.iter().all(|v| *v < 8));
        assert!(values.len() > 4, "a 400-draw sample should cover most of the alphabet");
    }

    #[test]
    fn fingerprints_distinguish_every_parameter() {
        let base = Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 4, 100, 7);
        let variants = [
            Scenario::new(ScenarioKind::Markov { order: 3, alphabet: 4 }, 4, 100, 7),
            Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 8 }, 4, 100, 7),
            Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 5, 100, 7),
            Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 4, 101, 7),
            Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, 4, 100, 8),
            Scenario::new(ScenarioKind::Periodic { period: 16 }, 4, 100, 7),
        ];
        for variant in variants {
            assert_ne!(
                variant.fingerprint(None).digest(),
                base.fingerprint(None).digest(),
                "{variant}"
            );
        }
        assert_ne!(base.fingerprint(None).digest(), base.fingerprint(Some(10)).digest());
    }

    #[test]
    fn expectation_met_checks_floor_and_ceiling() {
        let e = Expectation {
            saturating: vec!["s2".to_owned()],
            floor: 0.9,
            others_ceiling: Some(0.1),
        };
        let ok = vec![("s2".to_owned(), 0.95), ("l".to_owned(), 0.01)];
        let weak_winner = vec![("s2".to_owned(), 0.5), ("l".to_owned(), 0.01)];
        let loud_loser = vec![("s2".to_owned(), 0.95), ("l".to_owned(), 0.5)];
        assert!(e.met(&ok));
        assert!(!e.met(&weak_winner));
        assert!(!e.met(&loud_loser));
        assert!(e.describe().contains("s2>=90.0"), "{}", e.describe());
    }

    #[test]
    fn expectation_descriptions_compress() {
        let pcs = 4;
        let all = Scenario::new(ScenarioKind::Constant, pcs, 1000, 1).expected();
        assert!(all.describe().starts_with("all>="), "{}", all.describe());
        let markov =
            Scenario::new(ScenarioKind::Markov { order: 2, alphabet: 4 }, pcs, 1000, 1).expected();
        assert!(markov.describe().starts_with("fcm2+>="), "{}", markov.describe());
        let random = Scenario::new(ScenarioKind::Random { alphabet: 4 }, pcs, 1000, 1).expected();
        assert!(random.describe().starts_with("all<="), "{}", random.describe());
    }

    #[test]
    fn expectation_floors_reflect_warmup() {
        let quick = Scenario::new(ScenarioKind::Markov { order: 3, alphabet: 4 }, 4, 512, 1);
        let long = Scenario::new(ScenarioKind::Markov { order: 3, alphabet: 4 }, 4, 65535, 1);
        assert!(quick.expected().floor < long.expected().floor);
        assert!((0.0..=1.0).contains(&quick.expected().floor));
        assert!(long.expected().floor > 0.99);
    }

    #[test]
    #[should_panic(expected = "`stride` must be nonzero")]
    fn zero_stride_rejected() {
        let _ = Scenario::new(ScenarioKind::Stride { stride: 0, jitter_pct: 0 }, 1, 1, 0);
    }

    #[test]
    #[should_panic(expected = "alphabet^order exceeds")]
    fn oversized_markov_state_space_rejected() {
        let _ = Scenario::new(ScenarioKind::Markov { order: 8, alphabet: 64 }, 1, 1, 0);
    }

    /// Cross-build determinism pin: the exact first values of a fixed
    /// scenario. If this fails on a new toolchain or platform, the
    /// generators are not build-independent and every golden file and
    /// cache fingerprint downstream is suspect.
    #[test]
    fn pinned_stream_prefix_is_build_independent() {
        let s = Scenario::new(ScenarioKind::Random { alphabet: 100 }, 2, 3, 0xD1CE);
        let values: Vec<Value> = s.records().iter().map(|r| r.value).collect();
        assert_eq!(values, [2, 32, 85, 62, 27, 28], "generator output moved between builds");
    }
}
