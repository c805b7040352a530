//! Memory access types issued by cores.
//!
//! Conventional protocols only distinguish reads (R) and writes (W). COUP adds
//! a third primitive, the commutative update (C), carrying the operation type.
//! The generalized non-exclusive implementation of §3.4 goes further and treats
//! reads as just another commutative operation type; the message-level
//! controllers tag requests that way ([`crate::detailed::Class`]).

use std::fmt;

use crate::ops::CommutativeOp;

/// The three primitive request types of the MUSI/MEUSI protocols (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessType {
    /// A load: needs read permission.
    Read,
    /// A store or conventional atomic read-modify-write: needs exclusive permission.
    Write,
    /// A commutative update of the given operation type: needs update-only (or
    /// stronger) permission for the *same* operation type.
    CommutativeUpdate(CommutativeOp),
}

impl AccessType {
    /// Whether this access can be satisfied with only a partial-update buffer
    /// (i.e. it never observes the current value of the data).
    #[must_use]
    pub const fn is_commutative(self) -> bool {
        matches!(self, AccessType::CommutativeUpdate(_))
    }
}

impl fmt::Display for AccessType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessType::Read => write!(f, "R"),
            AccessType::Write => write!(f, "W"),
            AccessType::CommutativeUpdate(op) => write!(f, "C[{op}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commutative_flag() {
        assert!(!AccessType::Read.is_commutative());
        assert!(!AccessType::Write.is_commutative());
        assert!(AccessType::CommutativeUpdate(CommutativeOp::Or64).is_commutative());
    }

    #[test]
    fn display_forms() {
        assert_eq!(AccessType::Read.to_string(), "R");
        assert_eq!(AccessType::Write.to_string(), "W");
        assert!(AccessType::CommutativeUpdate(CommutativeOp::AddF64)
            .to_string()
            .starts_with("C["));
    }
}
