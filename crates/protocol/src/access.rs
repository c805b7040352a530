//! Memory access types issued by cores.
//!
//! Conventional protocols only distinguish reads (R) and writes (W). COUP adds
//! a third primitive, the commutative update (C), carrying the operation type.
//! The generalized non-exclusive implementation of §3.4 goes further and treats
//! reads as just another commutative operation type, so requests are tagged
//! with an [`OpClass`].

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

    /// The operation class this request asks the directory for.
    #[must_use]
    pub fn op_class(self) -> Option<OpClass> {
        match self {
            AccessType::Read => Some(OpClass::ReadOnly),
            AccessType::CommutativeUpdate(op) => Some(OpClass::Update(op)),
            AccessType::Write => None,
        }
    }

    /// One-letter mnemonic used in the paper's figures (R / W / C).
    #[must_use]
    pub const fn letter(self) -> char {
        match self {
            AccessType::Read => 'R',
            AccessType::Write => 'W',
            AccessType::CommutativeUpdate(_) => 'C',
        }
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

/// The operation type a non-exclusive (N-state) line is currently under.
///
/// §3.4: "reads are just another type of commutative operation". A line held
/// non-exclusively by several caches is either in read-only mode or in one
/// specific commutative-update mode; requests of a different class force a
/// type switch (invalidation or reduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Conventional shared/read-only mode (the S state of MESI).
    ReadOnly,
    /// Update-only mode for one commutative operation (the U state).
    Update(CommutativeOp),
}

impl OpClass {
    /// Whether a request of type `access` can be satisfied locally by a cache
    /// holding the line non-exclusively under this class.
    #[must_use]
    pub fn satisfies(self, access: AccessType) -> bool {
        match (self, access) {
            (OpClass::ReadOnly, AccessType::Read) => true,
            (OpClass::Update(held), AccessType::CommutativeUpdate(req)) => held == req,
            _ => false,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpClass::ReadOnly => write!(f, "read-only"),
            OpClass::Update(op) => write!(f, "update-only[{op}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_letters_match_paper() {
        assert_eq!(AccessType::Read.letter(), 'R');
        assert_eq!(AccessType::Write.letter(), 'W');
        assert_eq!(
            AccessType::CommutativeUpdate(CommutativeOp::AddU32).letter(),
            'C'
        );
    }

    #[test]
    fn commutative_flag() {
        assert!(!AccessType::Read.is_commutative());
        assert!(!AccessType::Write.is_commutative());
        assert!(AccessType::CommutativeUpdate(CommutativeOp::Or64).is_commutative());
    }

    #[test]
    fn op_class_mapping() {
        assert_eq!(AccessType::Read.op_class(), Some(OpClass::ReadOnly));
        assert_eq!(AccessType::Write.op_class(), None);
        assert_eq!(
            AccessType::CommutativeUpdate(CommutativeOp::AddU64).op_class(),
            Some(OpClass::Update(CommutativeOp::AddU64))
        );
    }

    #[test]
    fn read_only_class_satisfies_only_reads() {
        let ro = OpClass::ReadOnly;
        assert!(ro.satisfies(AccessType::Read));
        assert!(!ro.satisfies(AccessType::Write));
        assert!(!ro.satisfies(AccessType::CommutativeUpdate(CommutativeOp::AddU32)));
    }

    #[test]
    fn update_class_satisfies_only_same_op() {
        let cls = OpClass::Update(CommutativeOp::AddU32);
        assert!(cls.satisfies(AccessType::CommutativeUpdate(CommutativeOp::AddU32)));
        assert!(!cls.satisfies(AccessType::CommutativeUpdate(CommutativeOp::AddU64)));
        assert!(!cls.satisfies(AccessType::Read));
        assert!(!cls.satisfies(AccessType::Write));
    }

    #[test]
    fn display_forms() {
        assert_eq!(OpClass::ReadOnly.to_string(), "read-only");
        assert!(OpClass::Update(CommutativeOp::Xor64)
            .to_string()
            .contains("XOR"));
        assert!(AccessType::CommutativeUpdate(CommutativeOp::AddF64)
            .to_string()
            .starts_with("C["));
    }
}
