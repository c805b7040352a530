//! Protocol-level event counters.
//!
//! These counters are kept by every directory/cache controller and aggregated
//! by the simulator into the traffic and AMAT-breakdown figures (Fig. 11 and
//! the off-chip traffic numbers of §5.2).

use std::fmt;
use std::ops::AddAssign;

/// Counters of coherence-protocol events at one controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Requests served without any third-party action.
    pub silent_grants: u64,
    /// Requests that invalidated one or more read-only copies.
    pub invalidating_grants: u64,
    /// Read-only copies invalidated.
    pub copies_invalidated: u64,
    /// Exclusive owners downgraded (to S or U) or invalidated with data.
    pub owner_interventions: u64,
    /// Full reductions performed (read/write/type-switch over an update-only line).
    pub full_reductions: u64,
    /// Partial reductions performed (evictions of update-only copies).
    pub partial_reductions: u64,
    /// Partial-update lines fed to reduction units.
    pub lines_reduced: u64,
    /// Commutative updates that hit locally in U or M.
    pub local_commutative_hits: u64,
    /// Grants of update-only permission.
    pub update_only_grants: u64,
    /// Dirty writebacks received.
    pub writebacks: u64,
}

impl ProtocolStats {
    /// A zeroed set of counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl AddAssign for ProtocolStats {
    fn add_assign(&mut self, rhs: Self) {
        self.silent_grants += rhs.silent_grants;
        self.invalidating_grants += rhs.invalidating_grants;
        self.copies_invalidated += rhs.copies_invalidated;
        self.owner_interventions += rhs.owner_interventions;
        self.full_reductions += rhs.full_reductions;
        self.partial_reductions += rhs.partial_reductions;
        self.lines_reduced += rhs.lines_reduced;
        self.local_commutative_hits += rhs.local_commutative_hits;
        self.update_only_grants += rhs.update_only_grants;
        self.writebacks += rhs.writebacks;
    }
}

impl fmt::Display for ProtocolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "silent grants:        {}", self.silent_grants)?;
        writeln!(f, "invalidating grants:  {}", self.invalidating_grants)?;
        writeln!(f, "copies invalidated:   {}", self.copies_invalidated)?;
        writeln!(f, "owner interventions:  {}", self.owner_interventions)?;
        writeln!(f, "full reductions:      {}", self.full_reductions)?;
        writeln!(f, "partial reductions:   {}", self.partial_reductions)?;
        writeln!(f, "lines reduced:        {}", self.lines_reduced)?;
        writeln!(f, "local commut. hits:   {}", self.local_commutative_hits)?;
        writeln!(f, "update-only grants:   {}", self.update_only_grants)?;
        write!(f, "writebacks:           {}", self.writebacks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut a = ProtocolStats {
            silent_grants: 1,
            full_reductions: 2,
            ..Default::default()
        };
        let b = ProtocolStats {
            silent_grants: 3,
            partial_reductions: 4,
            copies_invalidated: 5,
            writebacks: 6,
            ..Default::default()
        };
        a += b;
        assert_eq!(a.silent_grants, 4);
        assert_eq!(a.full_reductions, 2);
        assert_eq!(a.partial_reductions, 4);
        assert_eq!(a.copies_invalidated, 5);
        assert_eq!(a.writebacks, 6);
    }

    #[test]
    fn display_lists_every_counter() {
        let text = ProtocolStats::default().to_string();
        assert!(text.contains("full reductions"));
        assert!(text.contains("update-only grants"));
        assert!(!text.is_empty());
    }
}
