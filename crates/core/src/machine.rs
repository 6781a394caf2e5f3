//! Machine identifiers.
//!
//! Machines are identical (`P` environment in Graham's notation); only
//! their indices matter, including for the *interval* structures where
//! machine order is significant. Following the paper, machines are named
//! `M₁ … Mₘ`; internally we store zero-based indices and convert at the
//! display boundary.

use std::fmt;

/// Zero-based machine index. `MachineId(0)` is the paper's `M₁`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

impl MachineId {
    /// Zero-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// One-based index as used in the paper (`M₁ … Mₘ`).
    #[inline]
    pub fn paper_index(self) -> usize {
        self.0 + 1
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "M{}", self.paper_index())
    }
}

impl From<usize> for MachineId {
    fn from(i: usize) -> Self {
        MachineId(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_one_based() {
        assert_eq!(MachineId(0).to_string(), "M1");
        assert_eq!(MachineId(14).to_string(), "M15");
    }
}
