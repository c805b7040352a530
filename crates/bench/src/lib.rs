//! Shared helpers for the COUP benchmark harness.
//!
//! Each binary in `src/bin/` regenerates the table or figure of the paper's
//! evaluation its name gives (`fig10_speedup` is Fig. 10; README.md lists
//! them all); `src/bin/coupbench/` is the repository's benchmark (see
//! `/BENCHMARK.json`).

use coup::experiments::Scale;

/// Parses the common command-line convention of the `fig*` binaries: pass
/// `--paper` to run at a scale close to the paper's inputs, anything else (or
/// nothing) runs the fast, scaled-down version.
#[must_use]
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Small
    }
}

/// Formats a speedup-style ratio for table output.
#[must_use]
pub fn ratio(baseline: u64, improved: u64) -> String {
    if improved == 0 {
        return "-".to_string();
    }
    format!("{:.2}x", baseline as f64 / improved as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats_and_handles_zero() {
        assert_eq!(ratio(200, 100), "2.00x");
        assert_eq!(ratio(100, 0), "-");
    }

    #[test]
    fn default_scale_is_small() {
        assert_eq!(scale_from_args(), Scale::Small);
    }
}
