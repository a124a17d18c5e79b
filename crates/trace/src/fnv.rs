//! FNV-1a 64: the workspace's one checksum and key hash.
//!
//! Trace-container checksums (`docs/TRACE_FORMAT.md`), result-cache entry
//! checksums and file names, the router's rendezvous scores and the
//! engine epoch all hash with this function, so each of those on-disk or
//! on-wire values is specified by the few lines below.

/// FNV-1a 64-bit offset basis — the hash of zero bytes.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64 hasher: feeding bytes in any split gives the
/// same hash as one [`fnv1a64`] over their concatenation.
///
/// # Examples
///
/// ```
/// use dvp_trace::{fnv1a64, Fnv};
///
/// let mut fnv = Fnv::new();
/// fnv.update(b"value ");
/// fnv.update(b"trace");
/// assert_eq!(fnv.finish(), fnv1a64(b"value trace"));
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Folds `bytes` into the hash.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// The hash of every byte fed so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// FNV-1a 64 of one byte slice.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(bytes);
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        // Vectors from the FNV reference (draft-eastlake-fnv).
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
