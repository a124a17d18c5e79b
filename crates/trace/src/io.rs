//! Trace persistence: the chunked, checksummed [`v2`] container the
//! persistent trace cache is built on, and its per-chunk compression
//! framing ([`compress`]).
//!
//! The paper's methodology is trace-driven; persisting traces lets
//! experiments replay identical streams without re-simulating, and lets
//! external tools consume them. The container is specified byte for byte
//! in `docs/TRACE_FORMAT.md` at the repository root — the spec is the
//! contract; this module is one implementation of it.
//!
//! **One live version.** Only container version 4 is read or written.
//! Any other version byte is an [`TraceIoError::UnsupportedVersion`]
//! error, which a cache treats as a miss to regenerate.

pub mod compress;
pub mod v2;

use std::fmt;
use std::io;

/// Error while reading a persisted trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a trace in the expected format.
    Format {
        /// Human-readable description of the problem.
        message: String,
    },
    /// A trace container whose version byte is not the one this build
    /// reads ([`v2::VERSION`]).
    UnsupportedVersion(u8),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Format { message } => write!(f, "malformed trace: {message}"),
            TraceIoError::UnsupportedVersion(version) => write!(
                f,
                "unsupported container version {version} (this build reads version {} only)",
                v2::VERSION
            ),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Format { .. } | TraceIoError::UnsupportedVersion(_) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn format_err(message: impl Into<String>) -> TraceIoError {
    TraceIoError::Format { message: message.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let io_err = TraceIoError::from(io::Error::other("boom"));
        assert!(io_err.to_string().contains("boom"));
        assert!(std::error::Error::source(&io_err).is_some());
        let fmt_err = format_err("nope");
        assert!(std::error::Error::source(&fmt_err).is_none());
        let version = TraceIoError::UnsupportedVersion(3);
        assert!(version.to_string().contains("unsupported container version 3"), "{version}");
        assert!(std::error::Error::source(&version).is_none());
    }
}
