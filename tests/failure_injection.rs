//! Failure injection across the toolchain: every layer must reject bad
//! input with a meaningful error — never a panic, never silent acceptance.

use dvp::asm::assemble;
use dvp::engine::SharedTrace;
use dvp::experiments::{cache, durable};
use dvp::lang::{compile, OptLevel};
use dvp::sim::{Machine, SimError};
use dvp::trace::io::{v2, TraceIoError};
use dvp::trace::{InstrCategory, Pc, TraceRecord};
use std::io::{self, ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// ----- compiler ------------------------------------------------------------

#[test]
fn compiler_rejects_syntax_error_with_line_number() {
    let err = compile("int main() { return 0 }", OptLevel::O1).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line"), "error should locate the problem: {msg}");
}

#[test]
fn compiler_rejects_undeclared_variable() {
    let err = compile("int main() { return nope; }", OptLevel::O0).unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
}

#[test]
fn compiler_rejects_wrong_arity_call() {
    let source = "
int f(int a, int b) { return a + b; }
int main() { return f(1); }
";
    let err = compile(source, OptLevel::O2).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('f') && (msg.contains("argument") || msg.contains("arity")), "{msg}");
}

#[test]
fn compiler_rejects_assignment_to_rvalue() {
    let err = compile("int main() { 3 = 4; return 0; }", OptLevel::O1).unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn compiler_errors_are_identical_across_opt_levels() {
    // Optimization must not change *whether* a program is accepted.
    let bad = "int main() { return undefined_fn(); }";
    for opt in [OptLevel::O0, OptLevel::O1, OptLevel::O2] {
        assert!(compile(bad, opt).is_err(), "{opt:?} accepted an invalid program");
    }
}

// ----- assembler -------------------------------------------------------------

#[test]
fn assembler_rejects_unknown_mnemonic() {
    let err = assemble(".text\nmain: frobnicate r1, r2\n").unwrap_err();
    assert!(err.to_string().contains("frobnicate"), "{err}");
}

#[test]
fn assembler_rejects_undefined_label() {
    let err = assemble(".text\nmain: b nowhere\n").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("nowhere"), "{msg}");
}

#[test]
fn assembler_rejects_duplicate_label() {
    let err = assemble(".text\nmain: nop\nmain: nop\n").unwrap_err();
    assert!(err.to_string().contains("main"), "{err}");
}

#[test]
fn assembler_rejects_bad_register_name() {
    let err = assemble(".text\nmain: add r99, zero, zero\n").unwrap_err();
    assert!(!err.to_string().is_empty());
}

// ----- simulator ---------------------------------------------------------------

#[test]
fn simulator_faults_on_misaligned_load() {
    let image = assemble(
        "
        .text
main:   li   t0, 2
        lw   t1, 1(t0)      # address 3: not word-aligned
        halt
",
    )
    .expect("assembles");
    let mut machine = Machine::load(&image);
    let err = machine.collect_trace(1000).unwrap_err();
    assert!(
        matches!(err, SimError::Misaligned { addr: 3, .. }),
        "expected a misaligned fault, got {err:?}"
    );
}

#[test]
fn simulator_faults_on_executing_data() {
    // Jumping into .data hits words that do not decode as instructions.
    let image = assemble(
        "
        .text
main:   la   t0, blob
        jr   t0
        halt
        .data
blob:   .word 0xffffffff
",
    )
    .expect("assembles");
    let mut machine = Machine::load(&image);
    let err = machine.collect_trace(1000).unwrap_err();
    assert!(
        matches!(err, SimError::InvalidInstruction { .. } | SimError::MisalignedPc { .. }),
        "expected an instruction fault, got {err:?}"
    );
}

#[test]
fn simulator_survives_infinite_loop_via_step_budget() {
    let image = assemble(".text\nmain: b main\n").expect("assembles");
    let mut machine = Machine::load(&image);
    // Exhausting the budget is a normal outcome, not a fault.
    let trace = machine.collect_trace(10_000).expect("no fault");
    assert!(!machine.halted(), "an infinite loop never halts");
    // A branch-only loop writes no GPR: the trace stays empty.
    assert!(trace.is_empty());
}

#[test]
fn simulator_faults_on_unknown_syscall() {
    let image = assemble(".text\nmain: li v0, 77\n syscall 77\n halt\n").expect("assembles");
    let mut machine = Machine::load(&image);
    assert!(machine.collect_trace(1000).is_err());
}

// ----- trace persistence ----------------------------------------------------------

fn sample_records() -> Vec<TraceRecord> {
    (0..64u64)
        .map(|i| TraceRecord::new(Pc(0x400000 + i * 4), InstrCategory::AddSub, i * 3))
        .collect()
}

fn container(records: &[TraceRecord]) -> Vec<u8> {
    let mut bytes = Vec::new();
    v2::write_compressed(&mut bytes, &v2::TraceMeta::default(), records.chunks(16), &[])
        .expect("serializes");
    bytes
}

#[test]
fn binary_trace_rejects_truncation() {
    let mut bytes = container(&sample_records());
    bytes.truncate(bytes.len() - 5); // cut inside the last chunk
    let err = v2::read(&mut bytes.as_slice()).unwrap_err();
    assert!(
        matches!(err, TraceIoError::Format { .. } | TraceIoError::Io(_)),
        "truncation must be detected: {err}"
    );
}

#[test]
fn binary_trace_rejects_garbage_header() {
    let garbage = b"this is not a trace file at all".to_vec();
    assert!(v2::read(&mut garbage.as_slice()).is_err());
}

#[test]
fn binary_trace_rejects_retired_container_versions() {
    // Versions 1–3 are retired: a structured error, never a best-effort
    // read of a layout this build no longer speaks.
    for version in [1u8, 2, 3] {
        let mut bytes = container(&sample_records());
        bytes[4] = version;
        let err = v2::read(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::UnsupportedVersion(v) if v == version), "{err}");
    }
}

#[test]
fn binary_roundtrip_is_lossless_under_extreme_values() {
    let records = vec![
        TraceRecord::new(Pc(0), InstrCategory::Other, 0),
        TraceRecord::new(Pc(u32::MAX as u64 & !3), InstrCategory::Shift, u64::MAX),
        TraceRecord::new(Pc(4), InstrCategory::Lui, i64::MIN as u64),
    ];
    let (_, back) = v2::read(&mut container(&records).as_slice()).expect("deserializes");
    assert_eq!(records, back);
}

// ----- durable file replacement ----------------------------------------------------

/// A unique, self-cleaning temp dir under the system temp root.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("dvp-failure-{tag}-{}", std::process::id()));
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

/// A writer that accepts `budget` bytes and then fails every write: with
/// `Some(kind)` as that error, with `None` by accepting zero bytes (a short
/// write, which `write_all` reports as `WriteZero`). Over a seekable
/// writer it seeks too, except that with `fail_seek_back` every seek to an
/// absolute position (a streamed container's return to its header) fails.
struct Faulty<W> {
    inner: W,
    budget: usize,
    fault: Option<ErrorKind>,
    fail_seek_back: bool,
}

impl<W: Write> Write for Faulty<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.budget == 0 {
            return match self.fault {
                Some(kind) => Err(io::Error::new(kind, "injected fault")),
                None => Ok(0),
            };
        }
        let n = self.inner.write(&buf[..buf.len().min(self.budget)])?;
        self.budget -= n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<W: Seek> Seek for Faulty<W> {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        if self.fail_seek_back && matches!(pos, SeekFrom::Start(_)) {
            return Err(io::Error::other("injected seek fault"));
        }
        self.inner.seek(pos)
    }
}

/// The names of every file under `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("lists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// Commits `old` at a fresh path, then replaces it through a writer that
/// fails after half of `new`: the error must surface, the committed file
/// must be byte-identical, and no temporary file may remain.
fn assert_failed_replace_keeps_the_old_file(fault: Option<ErrorKind>, expect: ErrorKind) {
    let tmp = TempDir::new(&format!("fault-{expect:?}"));
    let path = tmp.0.join("entry.dvpt");
    let old = b"committed contents".to_vec();
    durable::replace_file(&path, |w| w.write_all(&old)).expect("first write commits");
    let new = vec![0xA5u8; 64 * 1024];
    let err = durable::replace_file(&path, |w| {
        Faulty { inner: w, budget: new.len() / 2, fault, fail_seek_back: false }.write_all(&new)
    })
    .unwrap_err();
    assert_eq!(err.kind(), expect, "{err}");
    assert_eq!(std::fs::read(&path).expect("old file readable"), old);
    assert_eq!(names(&tmp.0), ["entry.dvpt"], "no temporary file may remain");
}

#[test]
fn durable_replace_survives_a_full_disk() {
    assert_failed_replace_keeps_the_old_file(Some(ErrorKind::StorageFull), ErrorKind::StorageFull);
}

#[test]
fn durable_replace_survives_a_short_write() {
    assert_failed_replace_keeps_the_old_file(None, ErrorKind::WriteZero);
}

#[test]
fn durable_replace_survives_a_failed_rename() {
    // The destination is a non-empty directory: the data writes and syncs
    // fine, then the rename fails.
    let tmp = TempDir::new("rename");
    let path = tmp.0.join("entry.dvpt");
    std::fs::create_dir(&path).expect("blocking directory");
    std::fs::write(path.join("inside"), b"committed").expect("writes");
    let result = durable::replace_file(&path, |w| w.write_all(b"new contents"));
    assert!(result.is_err(), "a rename onto a non-empty directory must fail");
    assert_eq!(std::fs::read(path.join("inside")).expect("still there"), b"committed");
    assert_eq!(names(&tmp.0), ["entry.dvpt"], "no temporary file may remain");
}

/// Replaces a committed file with a streamed container of a 200,000-record
/// trace through `Faulty` writers: one that fails inside the first payload
/// and one whose seek back to the header fails. Each time the call must
/// return the I/O error (the encoder thread is joined, never left
/// hanging), the committed file must be byte-identical, and no temporary
/// file may remain.
#[test]
fn streamed_container_write_fails_cleanly_inside_a_payload_and_at_the_seek_back() {
    let tmp = TempDir::new("stream-fault");
    let path = tmp.0.join("entry.dvpt");
    let old = b"committed contents".to_vec();
    durable::replace_file(&path, |w| w.write_all(&old)).expect("first write commits");
    let trace: SharedTrace = (0..200_000u64)
        .map(|i| TraceRecord::new(Pc(0x400000 + 4 * (i % 97)), InstrCategory::AddSub, i * i))
        .collect();
    let meta = v2::TraceMeta::default();
    // The header slot of this one-fingerprint, four-chunk container is a
    // few hundred bytes, so 4 KiB ends inside the first payload.
    for (budget, fail_seek_back) in [(4096, false), (usize::MAX, true)] {
        let (done, outcome) = std::sync::mpsc::channel();
        let (target, trace, meta) = (path.clone(), trace.clone(), meta.clone());
        let writer = std::thread::spawn(move || {
            let result = durable::replace_file(&target, |w| {
                let fault = Some(ErrorKind::StorageFull);
                let mut faulty = Faulty { inner: w, budget, fault, fail_seek_back };
                cache::write_container(&mut faulty, &meta, &trace)
            });
            done.send(result.map(drop)).expect("the test is listening");
        });
        let result = outcome
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("a failed container write returns instead of hanging");
        writer.join().expect("the writer does not panic");
        let err = result.expect_err("the injected fault surfaces");
        assert!(matches!(err, TraceIoError::Io(_)), "{err}");
        let expected = if fail_seek_back { "injected seek fault" } else { "injected fault" };
        assert!(err.to_string().contains(expected), "{err}");
        assert_eq!(std::fs::read(&path).expect("old file readable"), old);
        assert_eq!(names(&tmp.0), ["entry.dvpt"], "no temporary file may remain");
    }
}
