//! `coup-lint [OPTIONS] [PATH]...` — lints Rust sources for the runtime's
//! atomics house rules (facade imports, SeqCst allowlist, `// ord:`
//! pairing tags, mutation values that name their own tag).
//!
//! With no path arguments it lints `crates/runtime/src`, i.e. it expects
//! to run from the workspace root, which is what CI and
//! `cargo run -p coup-lint` do.
//!
//! Options:
//!
//! - `--format text|github` — diagnostics as human text (default) or
//!   GitHub Actions `::error` annotations.
//! - `--pairing-table` — print the markdown pairing-tag table
//!   (regenerated into ARCHITECTURE.md by the CI doc-drift guard).
//!
//! When `--pairing-table` owns stdout, diagnostics move to stderr. Exit
//! codes are stable across all formats: `0` clean, `1` diagnostics found,
//! `2` usage or I/O error.

use std::path::Path;
use std::process::ExitCode;

use coup_lint::{render_github, render_pairing_table, Report};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Github,
}

fn usage() -> ExitCode {
    eprintln!("usage: coup-lint [--format text|github] [--pairing-table] [PATH]...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = Format::Text;
    let mut pairing = false;
    let mut paths: Vec<String> = Vec::new();

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("github") => format = Format::Github,
                _ => return usage(),
            },
            "--pairing-table" => pairing = true,
            flag if flag.starts_with("--") => return usage(),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        paths.push("crates/runtime/src".to_string());
    }

    let mut merged = Report::default();
    for path in &paths {
        match coup_lint::lint_dir(Path::new(path)) {
            Ok(report) => {
                merged.files += report.files;
                merged.scanned.extend(report.scanned);
                merged.sites.extend(report.sites);
                for tag in report.paired_tags {
                    if !merged.paired_tags.contains(&tag) {
                        merged.paired_tags.push(tag);
                    }
                }
                merged
                    .diagnostics
                    .extend(report.diagnostics.into_iter().map(|mut d| {
                        // Re-anchor relative names under the argument so the
                        // output is clickable from the invocation directory.
                        if !d.file.starts_with(path.as_str()) {
                            d.file = format!("{}/{}", path.trim_end_matches('/'), d.file);
                        }
                        d
                    }));
            }
            Err(err) => {
                eprintln!("coup-lint: {path}: {err}");
                return ExitCode::from(2);
            }
        }
    }
    merged
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    merged.paired_tags.sort();

    if pairing {
        print!("{}", render_pairing_table(&merged.site_table()));
    }

    // When the table owns stdout, diagnostics move to stderr so the table
    // output stays machine-consumable.
    let emit = |line: &str| {
        if pairing {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };

    let clean = merged.diagnostics.is_empty();
    match format {
        Format::Text => {
            if clean {
                emit(&format!("coup-lint: {} files clean", merged.files));
            } else {
                for d in &merged.diagnostics {
                    emit(&d.to_string());
                }
                emit(&format!(
                    "coup-lint: {} violation(s) in {} files",
                    merged.diagnostics.len(),
                    merged.files
                ));
            }
        }
        Format::Github => {
            if clean {
                emit(&format!("coup-lint: {} files clean", merged.files));
            } else {
                let annotations = render_github(&merged.diagnostics);
                if pairing {
                    eprint!("{annotations}");
                } else {
                    print!("{annotations}");
                }
                emit(&format!(
                    "coup-lint: {} violation(s) in {} files",
                    merged.diagnostics.len(),
                    merged.files
                ));
            }
        }
    }

    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
