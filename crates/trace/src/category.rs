//! Instruction categories from Table 3 of the paper.

use std::fmt;
use std::str::FromStr;

/// Instruction category used when reporting predictability results.
///
/// These are exactly the groups of Table 3 in Sazeides & Smith (1997):
/// the paper collects prediction results separately for each category because
/// predictability differs markedly between them (e.g. add/subtract results
/// are far more predictable than shift results).
///
/// # Examples
///
/// ```
/// use dvp_trace::InstrCategory;
///
/// assert_eq!(InstrCategory::AddSub.code(), "AddSub");
/// assert_eq!("Loads".parse::<InstrCategory>(), Ok(InstrCategory::Loads));
/// assert_eq!(InstrCategory::ALL.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InstrCategory {
    /// Addition and subtraction (including immediates).
    AddSub,
    /// Loads from memory (all widths and signednesses).
    Loads,
    /// Bitwise logic: and, or, xor, nor (including immediates).
    Logic,
    /// Shifts: logical and arithmetic, immediate and register counts.
    Shift,
    /// Compare-and-set (set on less than, etc.).
    Set,
    /// Multiply and divide.
    MultDiv,
    /// Load upper immediate.
    Lui,
    /// Everything else that writes a register (e.g. jump-and-link results).
    Other,
}

impl InstrCategory {
    /// All categories in the paper's reporting order.
    pub const ALL: [InstrCategory; 8] = [
        InstrCategory::AddSub,
        InstrCategory::Loads,
        InstrCategory::Logic,
        InstrCategory::Shift,
        InstrCategory::Set,
        InstrCategory::MultDiv,
        InstrCategory::Lui,
        InstrCategory::Other,
    ];

    /// The short code used in the paper's tables (e.g. `"AddSub"`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            InstrCategory::AddSub => "AddSub",
            InstrCategory::Loads => "Loads",
            InstrCategory::Logic => "Logic",
            InstrCategory::Shift => "Shift",
            InstrCategory::Set => "Set",
            InstrCategory::MultDiv => "MultDiv",
            InstrCategory::Lui => "Lui",
            InstrCategory::Other => "Other",
        }
    }

    /// Dense index of the category within [`InstrCategory::ALL`].
    ///
    /// Useful for array-backed per-category accounting.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            InstrCategory::AddSub => 0,
            InstrCategory::Loads => 1,
            InstrCategory::Logic => 2,
            InstrCategory::Shift => 3,
            InstrCategory::Set => 4,
            InstrCategory::MultDiv => 5,
            InstrCategory::Lui => 6,
            InstrCategory::Other => 7,
        }
    }

    /// Inverse of [`InstrCategory::index`].
    ///
    /// Returns `None` if `index` is out of range.
    #[must_use]
    pub fn from_index(index: usize) -> Option<InstrCategory> {
        InstrCategory::ALL.get(index).copied()
    }
}

impl fmt::Display for InstrCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Error returned when parsing an [`InstrCategory`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCategoryError {
    input: String,
}

impl fmt::Display for ParseCategoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown instruction category `{}`", self.input)
    }
}

impl std::error::Error for ParseCategoryError {}

impl FromStr for InstrCategory {
    type Err = ParseCategoryError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        InstrCategory::ALL
            .iter()
            .copied()
            .find(|c| c.code().eq_ignore_ascii_case(s))
            .ok_or_else(|| ParseCategoryError { input: s.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_every_variant_once() {
        for (i, cat) in InstrCategory::ALL.iter().enumerate() {
            assert_eq!(cat.index(), i);
            assert_eq!(InstrCategory::from_index(i), Some(*cat));
        }
        assert_eq!(InstrCategory::from_index(8), None);
    }

    #[test]
    fn display_matches_code() {
        for cat in InstrCategory::ALL {
            assert_eq!(cat.to_string(), cat.code());
        }
    }

    #[test]
    fn parse_round_trips() {
        for cat in InstrCategory::ALL {
            assert_eq!(cat.code().parse::<InstrCategory>(), Ok(cat));
        }
    }

    #[test]
    fn parse_is_case_insensitive() {
        assert_eq!("addsub".parse::<InstrCategory>(), Ok(InstrCategory::AddSub));
        assert_eq!("LOADS".parse::<InstrCategory>(), Ok(InstrCategory::Loads));
    }

    #[test]
    fn parse_rejects_unknown() {
        let err = "Floats".parse::<InstrCategory>().unwrap_err();
        assert!(err.to_string().contains("Floats"));
    }
}
