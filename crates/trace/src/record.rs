//! The trace record: one entry per predicted dynamic instruction.

use crate::InstrCategory;
use std::fmt;

/// A data value produced by an instruction.
///
/// The paper studies a 32-bit ISA; values are widened to `u64` here so the
/// predictors are reusable for 64-bit substrates. The 32-bit simulator
/// zero-extends its results.
pub type Value = u64;

/// The address of a static instruction.
///
/// Predictors in this reproduction, exactly as in the paper, index their
/// tables *only* by the program counter of the instruction being predicted
/// ("no table aliasing; each static instruction was given its own table
/// entry"). A newtype keeps PCs from being confused with data [`Value`]s.
///
/// # Examples
///
/// ```
/// use dvp_trace::Pc;
///
/// let pc = Pc(0x0040_0000);
/// assert_eq!(format!("{pc}"), "0x00400000");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pc(pub u64);

impl fmt::Display for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:08x}", self.0)
    }
}

impl fmt::LowerHex for Pc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for Pc {
    fn from(raw: u64) -> Self {
        Pc(raw)
    }
}

impl From<Pc> for u64 {
    fn from(pc: Pc) -> Self {
        pc.0
    }
}

/// One entry of a value trace: a dynamic instance of a register-writing
/// instruction.
///
/// # Examples
///
/// ```
/// use dvp_trace::{InstrCategory, Pc, TraceRecord};
///
/// let rec = TraceRecord::new(Pc(0x100), InstrCategory::AddSub, 7);
/// assert_eq!(rec.value, 7);
/// assert_eq!(rec.category, InstrCategory::AddSub);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Address of the static instruction.
    pub pc: Pc,
    /// Reporting category of the instruction.
    pub category: InstrCategory,
    /// The value the instruction wrote to its destination register.
    pub value: Value,
}

impl TraceRecord {
    /// Creates a record.
    #[must_use]
    pub fn new(pc: Pc, category: InstrCategory, value: Value) -> Self {
        TraceRecord { pc, category, value }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:<7} {:#x}", self.pc, self.category, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_display_is_zero_padded_hex() {
        assert_eq!(Pc(0x40).to_string(), "0x00000040");
        assert_eq!(format!("{:x}", Pc(0xabc)), "abc");
    }

    #[test]
    fn pc_conversions_round_trip() {
        let pc = Pc::from(123u64);
        assert_eq!(u64::from(pc), 123);
    }

    #[test]
    fn record_display_contains_fields() {
        let rec = TraceRecord::new(Pc(0x100), InstrCategory::Loads, 0xff);
        let s = rec.to_string();
        assert!(s.contains("0x00000100"), "{s}");
        assert!(s.contains("Loads"), "{s}");
        assert!(s.contains("0xff"), "{s}");
    }
}
