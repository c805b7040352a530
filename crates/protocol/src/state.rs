//! Stable coherence states for private caches and the directory.
//!
//! These are the states of the paper's Fig. 6 (MESI and its COUP extension,
//! MEUSI), at stable-state granularity. The message-level protocol with transient
//! states (Fig. 7) lives in [`crate::detailed`] and is what the model checker
//! exercises; the performance simulator works at this granularity because
//! coherence transactions in it are atomic with respect to each other.

use std::fmt;

use crate::access::AccessType;
use crate::ops::CommutativeOp;

/// Which protocol family a cache hierarchy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Baseline 4-state protocol with the Exclusive optimisation (Fig. 6 minus U).
    Mesi,
    /// MESI extended with the update-only state (MEUSI, Fig. 6) — this is COUP.
    Meusi,
}

impl ProtocolKind {
    /// Whether the protocol supports the update-only state (i.e. is a COUP protocol).
    #[must_use]
    pub const fn supports_update_only(self) -> bool {
        matches!(self, ProtocolKind::Meusi)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ProtocolKind::Mesi => "MESI",
            ProtocolKind::Meusi => "MEUSI",
        };
        f.write_str(name)
    }
}

/// Stable state of a line in a *private* cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PrivateState {
    /// Invalid: no permissions, no data.
    #[default]
    Invalid,
    /// Shared: read-only permission; data valid; other caches may also hold it.
    Shared,
    /// Exclusive: read permission, clean, and no other cache holds the line.
    /// Can be silently upgraded to M (or U via an update) without a directory
    /// transaction in MESI-family protocols.
    Exclusive,
    /// Modified: exclusive read-and-write permission; the only valid copy.
    Modified,
    /// Update-only: may apply commutative updates of the tagged operation;
    /// holds a partial update (not the data value). COUP protocols only.
    UpdateOnly(CommutativeOp),
}

impl PrivateState {
    /// Whether this state holds a valid copy of the data *value* (as opposed to
    /// a partial update or nothing).
    #[must_use]
    pub const fn has_data_value(self) -> bool {
        matches!(
            self,
            PrivateState::Shared | PrivateState::Exclusive | PrivateState::Modified
        )
    }

    /// Whether an access of the given type hits (can be satisfied locally
    /// without a coherence transaction).
    ///
    /// Per §3.1.2, both M and U satisfy commutative updates; E also does, but
    /// performing one transitions E to M (handled by the transition function).
    #[must_use]
    pub fn satisfies(self, access: AccessType) -> bool {
        match (self, access) {
            (PrivateState::Invalid, _) => false,
            (PrivateState::Modified | PrivateState::Exclusive, _) => true,
            (PrivateState::Shared, AccessType::Read) => true,
            (PrivateState::Shared, _) => false,
            (PrivateState::UpdateOnly(held), AccessType::CommutativeUpdate(req)) => held == req,
            (PrivateState::UpdateOnly(_), _) => false,
        }
    }

    /// Short mnemonic (I/S/E/M/U) as used in the paper's figures.
    #[must_use]
    const fn letter(self) -> char {
        match self {
            PrivateState::Invalid => 'I',
            PrivateState::Shared => 'S',
            PrivateState::Exclusive => 'E',
            PrivateState::Modified => 'M',
            PrivateState::UpdateOnly(_) => 'U',
        }
    }
}

impl fmt::Display for PrivateState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrivateState::UpdateOnly(op) => write!(f, "U[{op}]"),
            other => write!(f, "{}", other.letter()),
        }
    }
}

/// Directory-visible sharing mode of a line, as tracked by the in-cache
/// directory at the shared levels.
///
/// The paper notes MUSI needs only one extra bit per directory tag over MSI
/// (exclusive / read-only / update-only), plus the operation-type field when
/// multiple commutative operations are supported (4 bits for 8 ops + read-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirMode {
    /// No private cache holds the line.
    Uncached,
    /// Exactly one private cache holds the line with exclusive permission
    /// (E or M); the directory does not know which of the two.
    Exclusive,
    /// One or more private caches hold the line read-only (S).
    ReadOnly,
    /// One or more private caches hold the line update-only (U) for the given
    /// operation.
    UpdateOnly(CommutativeOp),
}

impl fmt::Display for DirMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirMode::Uncached => write!(f, "uncached"),
            DirMode::Exclusive => write!(f, "Ex"),
            DirMode::ReadOnly => write!(f, "ShR"),
            DirMode::UpdateOnly(op) => write!(f, "ShU[{op}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: CommutativeOp = CommutativeOp::AddU32;
    const OR: CommutativeOp = CommutativeOp::Or64;

    #[test]
    fn protocol_kind_coup_toggles() {
        assert!(ProtocolKind::Meusi.supports_update_only());
        assert!(!ProtocolKind::Mesi.supports_update_only());
    }

    #[test]
    fn modified_satisfies_everything() {
        for access in [
            AccessType::Read,
            AccessType::Write,
            AccessType::CommutativeUpdate(ADD),
            AccessType::CommutativeUpdate(OR),
        ] {
            assert!(PrivateState::Modified.satisfies(access));
            assert!(PrivateState::Exclusive.satisfies(access));
            assert!(!PrivateState::Invalid.satisfies(access));
        }
    }

    #[test]
    fn shared_satisfies_only_reads() {
        assert!(PrivateState::Shared.satisfies(AccessType::Read));
        assert!(!PrivateState::Shared.satisfies(AccessType::Write));
        assert!(!PrivateState::Shared.satisfies(AccessType::CommutativeUpdate(ADD)));
    }

    #[test]
    fn update_only_satisfies_only_matching_op() {
        let u = PrivateState::UpdateOnly(ADD);
        assert!(u.satisfies(AccessType::CommutativeUpdate(ADD)));
        assert!(!u.satisfies(AccessType::CommutativeUpdate(OR)));
        assert!(!u.satisfies(AccessType::Read));
        assert!(!u.satisfies(AccessType::Write));
    }

    #[test]
    fn data_value_and_payload_flags() {
        assert!(PrivateState::Shared.has_data_value());
        assert!(PrivateState::Exclusive.has_data_value());
        assert!(PrivateState::Modified.has_data_value());
        assert!(!PrivateState::Invalid.has_data_value());
        assert!(!PrivateState::UpdateOnly(ADD).has_data_value());
    }

    #[test]
    fn letters_and_display() {
        assert_eq!(PrivateState::Invalid.letter(), 'I');
        assert_eq!(PrivateState::Shared.letter(), 'S');
        assert_eq!(PrivateState::Exclusive.letter(), 'E');
        assert_eq!(PrivateState::Modified.letter(), 'M');
        assert_eq!(PrivateState::UpdateOnly(ADD).letter(), 'U');
        assert_eq!(ProtocolKind::Meusi.to_string(), "MEUSI");
        assert!(DirMode::UpdateOnly(OR).to_string().contains("ShU"));
        assert_eq!(DirMode::Exclusive.to_string(), "Ex");
    }
}
