//! Doc-drift guard: every backticked repository path in `README.md` and
//! `ARCHITECTURE.md` must name a file that exists. A path is a code span
//! that starts with one of the top-level source directories and ends in a
//! source-file extension; spans with a `:line` or `::item` suffix and spans
//! containing whitespace are not paths and are skipped.

use std::path::Path;

const ROOTS: [&str; 5] = ["crates/", "examples/", "tests/", "shims/", ".github/"];
const EXTENSIONS: [&str; 5] = [".rs", ".toml", ".json", ".md", ".yml"];

fn is_repo_path(span: &str) -> bool {
    ROOTS.iter().any(|root| span.starts_with(root))
        && EXTENSIONS.iter().any(|ext| span.ends_with(ext))
        && !span.contains(char::is_whitespace)
}

#[test]
fn every_backticked_path_in_the_docs_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut missing = Vec::new();
    for doc in ["README.md", "ARCHITECTURE.md"] {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|err| panic!("{doc} must be readable: {err}"));
        // Odd segments of a backtick split are the code spans; a ``` fence
        // flips the parity three times, so its body is one (non-path) span.
        for span in text.split('`').skip(1).step_by(2) {
            if is_repo_path(span) && !root.join(span).is_file() {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the docs name files that do not exist:\n{}",
        missing.join("\n")
    );
}
