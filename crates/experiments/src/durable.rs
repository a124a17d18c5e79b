//! Crash-safe file replacement and orphan sweeping: the one durability
//! path behind both on-disk caches, the trace cache
//! ([`TraceCache`](crate::cache::TraceCache)) and the result cache
//! ([`ResultCache`](crate::result_cache::ResultCache)).
//!
//! [`replace_file`] writes a temporary sibling, flushes and fsyncs it,
//! renames it over the final name and then fsyncs the directory (best
//! effort). A crash at any point leaves the old file or the new one under
//! the final name, never a torn one. Every write gets its own temporary
//! name, `<final>.tmp-<pid>-<n>` with `n` a process-wide counter, so
//! concurrent writers of one path, in one process or several, never share
//! a temporary file.
//!
//! A writer killed mid-write strands its temporary file: the rename that
//! would have consumed it never ran. [`sweep_orphans`] removes those of
//! dead processes.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Minimum age before an orphaned temporary file may be swept. Protects
/// live temporary files of *other machines* sharing the cache directory
/// over a network filesystem, whose pids are meaningless in the local
/// `/proc`.
pub const SWEEP_MIN_AGE: Duration = Duration::from_secs(3600);

/// What separates a final file name from a temporary file's suffix.
const TMP_MARKER: &str = ".tmp-";

/// Sequence number of the next temporary file this process creates. Only
/// its uniqueness matters, so `Relaxed` increments suffice.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// A fresh temporary sibling of `path`: `<name>.tmp-<pid>-<n>`.
fn tmp_path(path: &Path) -> PathBuf {
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!("{TMP_MARKER}{}-{n}", std::process::id()));
    path.with_file_name(name)
}

/// The pid that owns a temporary file, parsed from its name
/// (`….tmp-<pid>-<n>`, or the `….tmp-<pid>` of older writers). `None`
/// for any other file.
fn tmp_owner(name: &str) -> Option<u32> {
    let (_, suffix) = name.rsplit_once(TMP_MARKER)?;
    suffix.split('-').next()?.parse().ok()
}

/// Atomically and durably replaces `path` with what `write` produces.
///
/// `write` fills a buffered writer over a fresh temporary sibling; the
/// data is then flushed, fsynced and renamed over `path`, and the
/// directory is fsynced (best effort: filesystems without directory fsync
/// still get atomicity). On any error, the caller's included, the
/// temporary file is removed and `path` is untouched.
///
/// # Errors
///
/// The first error from `write`, or from creating, flushing, syncing or
/// renaming the temporary file.
pub fn replace_file<T, E>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<T, E>,
) -> Result<T, E>
where
    E: From<io::Error>,
{
    let tmp = tmp_path(path);
    let result = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        let value = write(&mut writer)?;
        writer.flush()?;
        // Durability, not just atomicity: rename orders the directory
        // entry, but only an fsync orders the *data* against a crash —
        // without it a power cut can leave the final name pointing at a
        // zero-length or partial file.
        writer.get_ref().sync_all()?;
        fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent().and_then(|dir| File::open(dir).ok()) {
            let _ = dir.sync_all();
        }
        Ok(value)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Removes the temporary files of dead writers from `dir`. A file is
/// swept only when its recorded pid is not this process, does not exist in
/// the local `/proc` (when present), *and* the file is at least `min_age`
/// old: a pid absent locally may be a live writer on another machine
/// sharing the directory over a network filesystem, so neither signal
/// alone is trusted. A missing or unreadable directory sweeps nothing.
pub fn sweep_orphans(dir: &Path, min_age: Duration) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(tmp_owner) else { continue };
        if pid == std::process::id() || writer_may_be_alive(pid) || younger_than(&entry, min_age) {
            continue;
        }
        let _ = fs::remove_file(entry.path());
    }
}

/// Whether the process that owns a temporary file could still be running
/// *on this machine*: its pid exists under `/proc`. Without `/proc` the
/// answer is unknowable and `false` is returned — the age gate is then
/// the only protection.
fn writer_may_be_alive(pid: u32) -> bool {
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && proc_root.join(pid.to_string()).exists()
}

/// Whether the file was modified less than `min_age` ago. Unreadable
/// metadata or a future mtime (clock skew) count as young — when in
/// doubt, keep the file.
fn younger_than(entry: &fs::DirEntry, min_age: Duration) -> bool {
    entry
        .metadata()
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.elapsed().ok())
        .is_none_or(|age| age < min_age)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::SystemTime;

    /// A unique, self-cleaning temp dir under the system temp root.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("dvp-durable-test-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn temporary_names_are_unique_and_carry_the_pid() {
        let path = Path::new("/cache/entry.dvpt");
        let (a, b) = (tmp_path(path), tmp_path(path));
        assert_ne!(a, b);
        for tmp in [a, b] {
            assert_eq!(tmp.parent(), path.parent());
            let name = tmp.file_name().and_then(|n| n.to_str()).expect("utf-8 name");
            assert!(name.starts_with("entry.dvpt.tmp-"), "{name}");
            assert_eq!(tmp_owner(name), Some(std::process::id()));
        }
        assert_eq!(tmp_owner("entry.dvpr.tmp-42"), Some(42), "older writers' names parse");
        assert_eq!(tmp_owner("entry.dvpr"), None);
        assert_eq!(tmp_owner("entry.dvpr.tmp-x-1"), None);
    }

    #[test]
    fn replace_file_commits_and_returns_the_writers_value() {
        let tmp = TempDir::new("commit");
        let path = tmp.0.join("entry.bin");
        let len = replace_file(&path, |w| w.write_all(b"first").map(|()| 5)).expect("writes");
        assert_eq!(len, 5);
        replace_file(&path, |w| w.write_all(b"second")).expect("replaces");
        assert_eq!(fs::read(&path).expect("reads"), b"second");
        assert_eq!(fs::read_dir(&tmp.0).expect("lists").count(), 1, "no temporary file left");
    }

    #[test]
    fn sweep_removes_only_old_files_of_dead_writers() {
        let tmp = TempDir::new("sweep");
        let two_hours_ago = SystemTime::now() - Duration::from_secs(2 * 3600);
        // Pid 4_000_000_000 is far above any real pid_max: a dead writer.
        let dead = tmp.0.join("stale.dvpt.tmp-4000000000-7");
        let own = tmp.0.join(format!("inflight.dvpt.tmp-{}-3", std::process::id()));
        let fresh = tmp.0.join("peer.dvpr.tmp-4000000001-0");
        let unrelated = tmp.0.join("keep.dvpt");
        for path in [&dead, &own, &fresh, &unrelated] {
            fs::write(path, b"partial").expect("writes");
        }
        for path in [&dead, &own, &unrelated] {
            let file = File::options().write(true).open(path).expect("opens");
            file.set_modified(two_hours_ago).expect("backdates");
        }

        sweep_orphans(&tmp.0, SWEEP_MIN_AGE);
        assert!(!dead.exists(), "an old file of a dead writer is swept");
        assert!(own.exists(), "this process's in-flight file survives");
        assert!(fresh.exists(), "a fresh file survives the age gate, dead pid or not");
        assert!(unrelated.exists(), "non-temporary files are untouched");
    }
}
