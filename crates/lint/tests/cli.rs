//! End-to-end checks of the `coup-lint` binary: synthetic trees must
//! produce the documented diagnostics and exit codes, and the real runtime
//! tree must lint clean.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coup-lint-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_coup-lint"))
        .args(args)
        .output()
        .expect("coup-lint must run")
}

#[test]
fn clean_tree_exits_zero() {
    let dir = scratch_dir("clean");
    fs::write(
        dir.join("ok.rs"),
        "fn f(x: &AtomicU64) {\n    // ord: edge\n    x.store(1, Ordering::Release);\n    x.load(Ordering::Acquire); // ord: edge\n}\n",
    )
    .unwrap();
    let out = run_lint(&[dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(stdout.contains("1 files clean"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn violations_exit_one_with_exact_diagnostics() {
    let dir = scratch_dir("dirty");
    fs::write(
        dir.join("bad.rs"),
        concat!(
            "use std::sync::atomic::{AtomicU64, Ordering};\n",
            "fn f(x: &AtomicU64) {\n",
            "    x.store(1, Ordering::SeqCst);\n",
            "    x.store(2, Ordering::Release);\n",
            "    // ord: half-edge\n",
            "    x.store(3, Ordering::Release);\n",
            "}\n",
        ),
    )
    .unwrap();
    let out = run_lint(&[dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    // One diagnostic per seeded violation, each at its exact line.
    assert!(stdout.contains("bad.rs:1: [R-IMPORT]"), "stdout: {stdout}");
    assert!(stdout.contains("bad.rs:3: [R-SEQCST]"), "stdout: {stdout}");
    assert!(stdout.contains("bad.rs:4: [R-TAG]"), "stdout: {stdout}");
    assert!(stdout.contains("bad.rs:6: [R-PAIR]"), "stdout: {stdout}");
    assert!(stdout.contains("`half-edge`"), "stdout: {stdout}");
    assert!(stdout.contains("4 violation(s)"), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_path_exits_two() {
    let out = run_lint(&["/nonexistent/coup-lint-test-path"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!String::from_utf8_lossy(&out.stderr).is_empty());
}

#[test]
fn the_committed_runtime_tree_is_clean_via_the_binary() {
    let runtime_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../runtime/src");
    let out = run_lint(&[runtime_src.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "committed runtime tree has lint violations:\n{stdout}"
    );
}

fn dirty_tree(name: &str) -> PathBuf {
    let dir = scratch_dir(name);
    fs::write(
        dir.join("bad.rs"),
        "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release);\n}\n",
    )
    .unwrap();
    dir
}

#[test]
fn github_format_emits_error_annotations() {
    let dir = dirty_tree("github");
    let out = run_lint(&["--format", "github", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    assert!(
        stdout.contains("line=2,title=coup-lint R-TAG::"),
        "stdout: {stdout}"
    );
    assert!(stdout.starts_with("::error file="), "stdout: {stdout}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn pairing_table_prints_markdown_rows() {
    let dir = scratch_dir("pairing");
    fs::write(
        dir.join("ok.rs"),
        "fn f(x: &AtomicU64) {\n    // ord: edge\n    x.store(1, Ordering::Release);\n    x.load(Ordering::Acquire); // ord: edge\n}\n",
    )
    .unwrap();
    let out = run_lint(&["--pairing-table", dir.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout: {stdout}");
    assert!(
        stdout.starts_with("| `ord:` tag | release side | acquire side |"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("| `edge` | `ok.rs:3` | `ok.rs:4` |"),
        "stdout: {stdout}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_exit_two() {
    let out = run_lint(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = run_lint(&["--format", "yaml"]);
    assert_eq!(out.status.code(), Some(2));

    // The site table is in-process only (`coup_lint::lint_dir`): the flag
    // that used to dump it as JSON is gone, not silently accepted.
    let out = run_lint(&["--sites", "-"]);
    assert_eq!(out.status.code(), Some(2));
}
