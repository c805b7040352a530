//! Benchmark characteristics (the paper's Table 2).

use std::fmt;

use coup_protocol::ops::CommutativeOp;

/// One row of Table 2: a benchmark, its input, the commutative operation it
/// uses, and its sequential run time in the paper's setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkCharacteristics {
    /// Benchmark name.
    pub name: &'static str,
    /// Input set used by the paper.
    pub paper_input: &'static str,
    /// Input used by this reproduction (synthetic substitute).
    pub repro_input: &'static str,
    /// Commutative operation the benchmark's updates use.
    pub comm_op: CommutativeOp,
    /// Sequential run time reported by the paper, in millions of cycles.
    pub paper_seq_mcycles: u64,
}

/// The five benchmarks of Table 2, with the synthetic inputs this reproduction
/// substitutes for the paper's (unavailable) input sets.
#[must_use]
pub fn table2() -> Vec<BenchmarkCharacteristics> {
    vec![
        BenchmarkCharacteristics {
            name: "hist",
            paper_input: "GRiN image, 512 bins",
            repro_input: "synthetic image (peaked distribution), 512 bins",
            comm_op: CommutativeOp::AddU32,
            paper_seq_mcycles: 2_720,
        },
        BenchmarkCharacteristics {
            name: "spmv",
            paper_input: "rma10 (UF collection)",
            repro_input: "synthetic banded+hot-row CSC matrix",
            comm_op: CommutativeOp::AddF64,
            paper_seq_mcycles: 94,
        },
        BenchmarkCharacteristics {
            name: "fldanim",
            paper_input: "PARSEC simlarge",
            repro_input: "synthetic structured grid",
            comm_op: CommutativeOp::AddF32,
            paper_seq_mcycles: 5_930,
        },
        BenchmarkCharacteristics {
            name: "pgrank",
            paper_input: "Wikipedia (2007)",
            repro_input: "synthetic power-law graph",
            comm_op: CommutativeOp::AddU64,
            paper_seq_mcycles: 2_850,
        },
        BenchmarkCharacteristics {
            name: "bfs",
            paper_input: "cage15 (UF collection)",
            repro_input: "synthetic power-law graph",
            comm_op: CommutativeOp::Or64,
            paper_seq_mcycles: 5_764,
        },
    ]
}

impl fmt::Display for BenchmarkCharacteristics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:10} {:40} {:14} {:>6} Mcycles",
            self.name, self.paper_input, self.comm_op, self.paper_seq_mcycles
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_the_paper() {
        let t = table2();
        assert_eq!(t.len(), 5);
        assert_eq!(t[0].name, "hist");
        assert_eq!(t[0].comm_op, CommutativeOp::AddU32);
        assert_eq!(t[0].paper_seq_mcycles, 2_720);
        assert_eq!(t[1].comm_op, CommutativeOp::AddF64);
        assert_eq!(t[4].comm_op, CommutativeOp::Or64);
        assert_eq!(t[4].paper_seq_mcycles, 5_764);
    }

    #[test]
    fn every_row_displays() {
        for row in table2() {
            let s = row.to_string();
            assert!(s.contains(row.name));
            assert!(s.contains("Mcycles"));
        }
    }

    #[test]
    fn every_op_is_in_the_paper_set() {
        for row in table2() {
            assert!(
                row.comm_op.in_paper_set(),
                "{} uses an unsupported op",
                row.name
            );
        }
    }
}
