//! # dvp-workloads — SPEC95int-inspired benchmarks for value-prediction
//! studies
//!
//! The paper traced seven integer SPEC95 benchmarks. SPEC sources are
//! proprietary, so this crate provides seven Mini programs modelled on
//! them, exercising the same algorithmic classes:
//!
//! | name      | SPEC analog    | behaviour                                     |
//! |-----------|----------------|-----------------------------------------------|
//! | compress  | 129.compress   | LZW hash-table compression of synthetic text  |
//! | cc        | 126.gcc        | tokenizer + parser + evaluator over an input file |
//! | go        | 099.go         | board evaluation, flood-fill captures         |
//! | ijpeg     | 132.ijpeg      | 8×8 integer DCT, quantization, RLE            |
//! | m88k      | 124.m88ksim    | interpreter running an embedded register VM   |
//! | perl      | 134.perl       | string hashing, associative arrays, top-k     |
//! | xlisp     | 130.li         | recursive N-queens over a cons-cell heap      |
//!
//! Every workload is deterministic: inputs are generated from fixed seeds
//! (baked into the emitted Mini source), so traces are exactly reproducible.
//! The `cc` workload accepts five different input files, reproducing the
//! paper's Table 6 input-sensitivity experiment.
//!
//! Beyond the seven programs, the [`synthetic`] module *invents* workloads:
//! parameterized, seeded value-pattern generators (constant, stride with
//! jitter, periodic cycles, order-k Markov chains, pointer chases, uniform
//! noise, per-PC blends) whose analytically-expected best predictor family
//! is known in advance. The `repro sweep` subcommand fans them through the
//! replay engine; see `ARCHITECTURE.md` ("Synthetic scenarios").
//!
//! # Examples
//!
//! ```
//! use dvp_lang::OptLevel;
//! use dvp_workloads::{Benchmark, Workload};
//!
//! let workload = Workload::reference(Benchmark::Xlisp).with_scale(1);
//! let trace = workload.trace(OptLevel::O1, 5_000_000)?;
//! assert!(!trace.is_empty());
//! # Ok::<(), dvp_workloads::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;
pub mod rng;
pub mod synthetic;

use dvp_asm::{assemble, AsmError, ProgramImage};
use dvp_lang::{compile, CompileError, OptLevel};
use dvp_sim::{Machine, SimError};
use dvp_trace::TraceRecord;
use std::fmt;

/// The seven benchmarks of the suite (paper Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Benchmark {
    /// LZW hash-table compression of synthetic text (129.compress analog).
    Compress,
    /// Tokenizer + parser + evaluator over an input file (126.gcc analog).
    Cc,
    /// Board evaluation with flood-fill captures (099.go analog).
    Go,
    /// 8×8 integer DCT, quantization, RLE (132.ijpeg analog).
    Ijpeg,
    /// Interpreter running an embedded register VM (124.m88ksim analog).
    M88k,
    /// String hashing, associative arrays, top-k (134.perl analog).
    Perl,
    /// Recursive N-queens over a cons-cell heap (130.li analog).
    Xlisp,
}

impl Benchmark {
    /// All benchmarks in the paper's reporting order.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::Compress,
        Benchmark::Cc,
        Benchmark::Go,
        Benchmark::Ijpeg,
        Benchmark::M88k,
        Benchmark::Perl,
        Benchmark::Xlisp,
    ];

    /// Short name used in reports (the paper uses `cc1` for gcc; we use
    /// `cc`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Compress => "compress",
            Benchmark::Cc => "cc",
            Benchmark::Go => "go",
            Benchmark::Ijpeg => "ijpeg",
            Benchmark::M88k => "m88k",
            Benchmark::Perl => "perl",
            Benchmark::Xlisp => "xlisp",
        }
    }

    /// The SPEC95 benchmark this workload is modelled on.
    #[must_use]
    pub fn spec_analog(self) -> &'static str {
        match self {
            Benchmark::Compress => "129.compress",
            Benchmark::Cc => "126.gcc",
            Benchmark::Go => "099.go",
            Benchmark::Ijpeg => "132.ijpeg",
            Benchmark::M88k => "124.m88ksim",
            Benchmark::Perl => "134.perl",
            Benchmark::Xlisp => "130.li",
        }
    }

    /// Default scale (outer repetition count), tuned so each benchmark
    /// produces roughly 1.5–3 million predicted records at `O1` — past the
    /// point where predictor accuracies stabilize (compare `repro figure3`
    /// with `repro --quick figure3`, which runs quarter-scale traces).
    #[must_use]
    pub fn default_scale(self) -> u32 {
        match self {
            Benchmark::Compress => 4,
            Benchmark::Cc => 4,
            Benchmark::Go => 2,
            Benchmark::Ijpeg => 1,
            Benchmark::M88k => 10,
            Benchmark::Perl => 2,
            Benchmark::Xlisp => 3,
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The five input files of the `cc` workload (paper Table 6):
/// `(name, seed, statement count)`.
pub const CC_INPUTS: [(&str, u64, usize); 5] = [
    ("jump.i", 101, 220),
    ("emit-rtl.i", 202, 260),
    ("gcc.i", 303, 300),
    ("recog.i", 404, 400),
    ("stmt.i", 505, 520),
];

/// Name of the default `cc` input (the one all cross-benchmark experiments
/// use, like the paper's `gcc.i`).
pub const CC_DEFAULT_INPUT: &str = "gcc.i";

/// An error from building or running a workload.
#[derive(Debug)]
pub enum BuildError {
    /// Mini compilation failed.
    Compile(CompileError),
    /// Assembly failed.
    Asm(AsmError),
    /// The program faulted while running.
    Sim(SimError),
    /// An unknown `cc` input-file name was requested.
    UnknownInput(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Compile(e) => write!(f, "compile error: {e}"),
            BuildError::Asm(e) => write!(f, "assembly error: {e}"),
            BuildError::Sim(e) => write!(f, "simulation error: {e}"),
            BuildError::UnknownInput(name) => write!(f, "unknown cc input `{name}`"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> Self {
        BuildError::Compile(e)
    }
}

impl From<AsmError> for BuildError {
    fn from(e: AsmError) -> Self {
        BuildError::Asm(e)
    }
}

impl From<SimError> for BuildError {
    fn from(e: SimError) -> Self {
        BuildError::Sim(e)
    }
}

/// A concrete, runnable workload: a benchmark plus its input and scale.
///
/// # Examples
///
/// ```
/// use dvp_lang::OptLevel;
/// use dvp_workloads::{Benchmark, Workload};
///
/// // The paper's Table 6: the gcc-like workload on another input file.
/// let w = Workload::cc_with_input("jump.i")?.with_scale(1);
/// let image = w.build(OptLevel::O2)?;
/// assert!(!image.text.is_empty());
/// # Ok::<(), dvp_workloads::BuildError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Workload {
    benchmark: Benchmark,
    input_name: String,
    seed: u64,
    scale: u32,
}

impl Workload {
    /// The reference configuration of `benchmark` (default input, default
    /// scale).
    #[must_use]
    pub fn reference(benchmark: Benchmark) -> Workload {
        let (input_name, seed) = match benchmark {
            Benchmark::Cc => {
                let (name, seed, _) = CC_INPUTS
                    .iter()
                    .find(|(n, _, _)| *n == CC_DEFAULT_INPUT)
                    .expect("default input exists");
                ((*name).to_owned(), *seed)
            }
            other => (format!("{}.ref", other.name()), 0xD1CE ^ other as u64),
        };
        Workload { benchmark, input_name, seed, scale: benchmark.default_scale() }
    }

    /// The `cc` workload on one of the five [`CC_INPUTS`] files.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnknownInput`] for names not in [`CC_INPUTS`].
    pub fn cc_with_input(input: &str) -> Result<Workload, BuildError> {
        let (name, seed, _) = CC_INPUTS
            .iter()
            .find(|(n, _, _)| *n == input)
            .ok_or_else(|| BuildError::UnknownInput(input.to_owned()))?;
        Ok(Workload {
            benchmark: Benchmark::Cc,
            input_name: (*name).to_owned(),
            seed: *seed,
            scale: Benchmark::Cc.default_scale(),
        })
    }

    /// Overrides the outer repetition count (trace-length control).
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    #[must_use]
    pub fn with_scale(mut self, scale: u32) -> Workload {
        assert!(scale > 0, "scale must be positive");
        self.scale = scale;
        self
    }

    /// The benchmark this workload instantiates.
    #[must_use]
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The input name (e.g. `"gcc.i"` or `"go.ref"`).
    #[must_use]
    pub fn input_name(&self) -> &str {
        &self.input_name
    }

    /// Seed of the deterministic input generator. Together with the
    /// benchmark, input name, scale, and optimization level this fully
    /// identifies the value trace a run produces — the persistent trace
    /// cache fingerprints files with it.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured scale.
    #[must_use]
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Generates the workload's Mini source.
    #[must_use]
    pub fn source(&self) -> String {
        match self.benchmark {
            Benchmark::Compress => programs::compress::source(self.seed, self.scale),
            Benchmark::Cc => {
                let (_, seed, statements) = CC_INPUTS
                    .iter()
                    .find(|(n, _, _)| *n == self.input_name)
                    .expect("validated at construction");
                let text = programs::cc::input_text(*seed, *statements);
                programs::cc::source(&text, self.scale)
            }
            Benchmark::Go => programs::go::source(self.seed, self.scale),
            Benchmark::Ijpeg => programs::ijpeg::source(self.seed, self.scale),
            Benchmark::M88k => programs::m88k::source(self.seed, self.scale),
            Benchmark::Perl => programs::perl::source(self.seed, self.scale),
            Benchmark::Xlisp => programs::xlisp::source(self.seed, self.scale),
        }
    }

    /// Compiles and assembles the workload at `opt`.
    ///
    /// # Errors
    ///
    /// Propagates compile and assembly errors (these indicate a bug in the
    /// workload generator or toolchain, not user error).
    pub fn build(&self, opt: OptLevel) -> Result<ProgramImage, BuildError> {
        let asm = compile(&self.source(), opt)?;
        Ok(assemble(&asm)?)
    }

    /// Builds the workload and loads it into a fresh machine.
    ///
    /// # Errors
    ///
    /// Propagates build errors.
    pub fn machine(&self, opt: OptLevel) -> Result<Machine, BuildError> {
        Ok(Machine::load(&self.build(opt)?))
    }

    /// Runs the workload to completion (bounded by `max_steps`) and returns
    /// its value trace.
    ///
    /// # Errors
    ///
    /// Propagates build errors and runtime faults.
    pub fn trace(&self, opt: OptLevel, max_steps: u64) -> Result<Vec<TraceRecord>, BuildError> {
        let mut machine = self.machine(opt)?;
        Ok(machine.collect_trace(max_steps)?)
    }

    /// Runs the workload and feeds each trace record to `sink` without
    /// materializing the whole trace.
    ///
    /// # Errors
    ///
    /// Propagates build errors and runtime faults.
    pub fn trace_with<S: FnMut(TraceRecord)>(
        &self,
        opt: OptLevel,
        max_steps: u64,
        sink: &mut S,
    ) -> Result<(), BuildError> {
        let mut machine = self.machine(opt)?;
        machine.run_with(max_steps, sink)?;
        Ok(())
    }

    /// Runs the workload and returns its program output (used by tests to
    /// validate that optimization levels agree).
    ///
    /// # Errors
    ///
    /// Propagates build errors and runtime faults.
    pub fn output(&self, opt: OptLevel, max_steps: u64) -> Result<String, BuildError> {
        let mut machine = self.machine(opt)?;
        machine.run(max_steps)?;
        Ok(machine.output_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_distinct_names() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 7);
    }

    #[test]
    fn reference_workloads_generate_source() {
        for benchmark in Benchmark::ALL {
            let w = Workload::reference(benchmark);
            let src = w.source();
            assert!(src.contains("int main()"), "{benchmark}");
        }
    }

    #[test]
    fn cc_inputs_are_all_constructible() {
        for (name, _, _) in CC_INPUTS {
            let w = Workload::cc_with_input(name).unwrap();
            assert_eq!(w.input_name(), name);
        }
        assert!(matches!(Workload::cc_with_input("missing.i"), Err(BuildError::UnknownInput(_))));
    }

    #[test]
    fn cc_inputs_have_distinct_text() {
        let a = programs::cc::input_text(101, 220);
        let b = programs::cc::input_text(202, 260);
        assert_ne!(a, b);
        assert_eq!(a, programs::cc::input_text(101, 220), "deterministic");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = Workload::reference(Benchmark::Go).with_scale(0);
    }

    #[test]
    fn workload_source_is_deterministic() {
        let a = Workload::reference(Benchmark::Perl).source();
        let b = Workload::reference(Benchmark::Perl).source();
        assert_eq!(a, b);
    }
}
