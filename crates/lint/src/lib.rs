//! `coup-lint`: the atomics-ordering lint for `coup-runtime`'s lock-free
//! protocols.
//!
//! The runtime routes every atomic through the `crate::sync` facade and
//! documents every non-`Relaxed` ordering with an `// ord: <tag>` pairing
//! comment (see `crates/runtime/src/sync.rs` and the "memory-ordering
//! contract" section of ARCHITECTURE.md). This crate enforces those house
//! rules as a plain source pass — no rustc plumbing, so it runs in CI in
//! milliseconds and its diagnostics are stable:
//!
//! - **R-IMPORT** — `std::sync::atomic` / `core::sync::atomic` may be
//!   named only in `sync.rs`. Everything else must go through the facade,
//!   or the model checker silently loses sight of those atomics.
//! - **R-SEQCST** — `SeqCst` is banned unless the site carries an
//!   `// ord: allow-seqcst(<why>)` justification. Every historical `SeqCst`
//!   in this repo turned out to be either a disguised `AcqRel`/`Release` or
//!   pure habit; the allowlist keeps the escape hatch auditable.
//! - **R-TAG** — every `Release`, `Acquire`, or `AcqRel` token must carry
//!   an `// ord: <tag>[, <tag>…]` comment on the same line or in the
//!   contiguous comment block directly above it, naming the protocol edge
//!   it belongs to.
//! - **R-PAIR** — every `ord:` tag must have at least one release-side
//!   site (`Release`/`AcqRel`, or a release fence) *and* one acquire-side
//!   site (`Acquire`/`AcqRel`, or an acquire fence) across the linted
//!   tree. A one-sided tag is a protocol with a missing half: a publish
//!   nobody reads, or a read nothing orders.
//! - **R-MUTATION** — an ordering constant weakened by
//!   `cfg!(coup_mutation = "<value>")` must carry `<value>` as one of its
//!   own `ord:` tags: the tag is the one name CI's per-edge kill lanes, the
//!   owning model test and the sanitizer's coverage report all key on.
//!
//! String literals and comments are stripped before token scanning —
//! including multi-line strings, raw strings with any number of `#`s, and
//! nested block comments — so `"SeqCst"` in a panic message or `Release`
//! in prose never trips a rule. Named ordering constants
//! (`const FOO: Ordering = Ordering::Release;`, or the same wrapped in
//! `weakened_if(cfg!(coup_mutation = "…"), …)`) are resolved: their use
//! sites inherit the definition's ordering and `ord:` tags, which is what
//! lets a mutation lane swap a constant to `Relaxed` without moving the
//! contract — the lint (and the site table `coup-san` builds from it)
//! always describes the strong definition.
//!
//! Beyond diagnostics, the lint builds a **static site table**
//! ([`SiteTable`]): every source line whose effective ordering is
//! non-`Relaxed`, with its orderings, tags, and how the ordering arrived
//! (literal token, constant definition, or constant use). The `coup-san`
//! sanitizer calls [`lint_dir`] in-process and cross-checks its dynamic
//! edges against this table, and CI regenerates ARCHITECTURE.md's
//! pairing-tag table from [`render_pairing_table`].

use std::collections::HashSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// One lint finding, anchored to a file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path of the offending file, as given to the linter.
    pub file: String,
    /// 1-based line number of the offending site.
    pub line: usize,
    /// Stable rule identifier: `R-IMPORT`, `R-SEQCST`, `R-TAG`, `R-PAIR`,
    /// `R-MUTATION`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a site's non-`Relaxed` ordering comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// A literal `Ordering::…` token at the call site.
    Direct,
    /// The definition line of a named ordering constant.
    ConstDef,
    /// A call site that names an ordering constant.
    ConstUse,
}

/// One entry of the static site table: a source line whose effective
/// memory ordering is non-`Relaxed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// File display name (relative to the linted root).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// How the ordering arrives at this line.
    pub kind: SiteKind,
    /// Ordering-constant name for `ConstDef`/`ConstUse` sites; empty for
    /// `Direct` sites.
    pub via: String,
    /// True when the line calls `fence(…)` rather than an atomic op.
    pub fence: bool,
    /// Effective non-`Relaxed` ordering tokens, sorted and deduped. For a
    /// const use these are the *strong* definition's ordering even when a
    /// `coup_mutation` build compiles it to `Relaxed` — the table describes
    /// the contract, not the build.
    pub orderings: Vec<String>,
    /// `ord:` pairing tags in effect (local comment plus, for const uses,
    /// the definition's), sorted and deduped; `allow-seqcst` excluded.
    pub tags: Vec<String>,
}

/// The static site table: scanned file names plus every ordered site,
/// sorted by `(file, line)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SiteTable {
    /// Sorted display names of the scanned files.
    pub files: Vec<String>,
    /// Sites sorted by `(file, line)`.
    pub sites: Vec<Site>,
}

/// Result of linting a set of sources.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files: usize,
    /// Every finding, in file order then line order.
    pub diagnostics: Vec<Diagnostic>,
    /// Every fully paired `ord:` tag seen across the tree (both a
    /// release-side and an acquire-side site), sorted. Lets callers assert
    /// that a protocol's edges are not just clean but *present* — a
    /// refactor that silently drops a whole edge still lints clean, but
    /// its tag disappears from this list.
    pub paired_tags: Vec<String>,
    /// The static site table entries, sorted by `(file, line)`.
    pub sites: Vec<Site>,
    /// Display names of the scanned files, in scan order.
    pub scanned: Vec<String>,
}

impl Report {
    /// True when no rule fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Extracts the site table (sorted copies of `scanned` and `sites`).
    #[must_use]
    pub fn site_table(&self) -> SiteTable {
        let mut files = self.scanned.clone();
        files.sort();
        let mut sites = self.sites.clone();
        sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        SiteTable { files, sites }
    }
}

/// Which sides of a happens-before edge a site provides.
#[derive(Debug, Default, Clone, Copy)]
struct Sides {
    release: bool,
    acquire: bool,
}

/// Per-tag pairing ledger entry.
#[derive(Debug)]
struct TagEntry {
    sides: Sides,
    first_file: String,
    first_line: usize,
}

/// A registered `const NAME: Ordering = Ordering::<non-Relaxed>;`.
#[derive(Debug)]
struct ConstInfo {
    name: String,
    ordering: &'static str,
    tags: Vec<String>,
}

const ORDERINGS: [&str; 5] = ["Relaxed", "Release", "Acquire", "AcqRel", "SeqCst"];

/// String-literal state carried across lines by [`LineScanner`].
#[derive(Debug, Clone, Copy)]
enum StrMode {
    /// Inside a `"…"` (or `b"…"`) literal; backslash escapes apply.
    Normal,
    /// Inside a raw literal opened with `hashes` `#`s; closes only on
    /// `"` followed by that many `#`s.
    Raw { hashes: usize },
}

/// Splits source lines into code (strings blanked, comments removed) and
/// line-comment text, carrying block-comment depth *and* string state
/// across lines — a multi-line string or `r#"…"#` raw literal spanning
/// lines never leaks tokens into the code channel.
#[derive(Debug, Default)]
struct LineScanner {
    block_depth: usize,
    string: Option<StrMode>,
}

impl LineScanner {
    fn split(&mut self, line: &str) -> (String, String) {
        let bytes: Vec<char> = line.chars().collect();
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < bytes.len() {
            if let Some(mode) = self.string {
                match mode {
                    StrMode::Normal => match bytes[i] {
                        '\\' => i += 2,
                        '"' => {
                            self.string = None;
                            i += 1;
                        }
                        _ => i += 1,
                    },
                    StrMode::Raw { hashes } => {
                        if bytes[i] == '"'
                            && bytes.len() - i > hashes
                            && bytes[i + 1..i + 1 + hashes].iter().all(|c| *c == '#')
                        {
                            self.string = None;
                            i += 1 + hashes;
                        } else {
                            i += 1;
                        }
                    }
                }
                continue;
            }
            if self.block_depth > 0 {
                if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    self.block_depth -= 1;
                    i += 2;
                } else if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            match bytes[i] {
                '/' if bytes.get(i + 1) == Some(&'/') => {
                    comment.push_str(&bytes[i + 2..].iter().collect::<String>());
                    break;
                }
                '/' if bytes.get(i + 1) == Some(&'*') => {
                    self.block_depth += 1;
                    i += 2;
                }
                '"' => {
                    code.push(' ');
                    self.string = Some(StrMode::Normal);
                    i += 1;
                }
                'r' | 'b' if !prev_is_ident(&bytes, i) => {
                    if let Some((skip, mode)) = string_opener(&bytes, i) {
                        code.push(' ');
                        self.string = Some(mode);
                        i += skip;
                    } else {
                        code.push(bytes[i]);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs. lifetime: a char literal closes
                    // within a few chars (`'x'`, `'\n'`, `'\u{..}'`); a
                    // lifetime never closes. Scan ahead for the close
                    // quote.
                    let mut j = i + 1;
                    if bytes.get(j) == Some(&'\\') {
                        j += 1;
                        if bytes.get(j) == Some(&'u') {
                            while j < bytes.len() && bytes[j] != '}' {
                                j += 1;
                            }
                        }
                        j += 1;
                    } else {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'\'') {
                        code.push(' ');
                        i = j + 1;
                    } else {
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        (code, comment)
    }
}

fn prev_is_ident(bytes: &[char], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == '_')
}

/// Detects `r"`, `r#…#"`, `b"`, and `br#…#"` string openers starting at
/// `i` (where `bytes[i]` is `r` or `b`), returning the opener length and
/// the string mode to enter.
fn string_opener(bytes: &[char], i: usize) -> Option<(usize, StrMode)> {
    let mut j = i;
    if bytes.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    if j == i {
        return None;
    }
    if raw {
        let mut hashes = 0;
        while bytes.get(j + hashes) == Some(&'#') {
            hashes += 1;
        }
        (bytes.get(j + hashes) == Some(&'"'))
            .then_some((j + hashes + 1 - i, StrMode::Raw { hashes }))
    } else {
        (bytes.get(j) == Some(&'"')).then_some((j + 1 - i, StrMode::Normal))
    }
}

/// Extracts the `ord:` tags of one comment string: everything after an
/// `ord:` marker that parses as a kebab-case tag, optionally with a
/// parenthesised argument (`allow-seqcst(handoff)`), up to the first token
/// that is neither — so prose may follow the tag list on the same line.
fn ord_tags(comment: &str) -> Vec<String> {
    let mut tags = Vec::new();
    let Some(pos) = comment.find("ord:") else {
        return tags;
    };
    for raw in comment[pos + 4..].split([',', ' ', '\t']) {
        let token = raw.trim();
        if token.is_empty() {
            continue;
        }
        let name = match token.split_once('(') {
            Some((name, rest)) if rest.ends_with(')') => name,
            None => token,
            Some(_) => break,
        };
        let is_tag = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
        if !is_tag {
            break;
        }
        tags.push(name.to_string());
    }
    tags
}

/// Identifier tokens of a sanitized code line.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// `ord:` tags attached to line `idx`: its own trailing comment plus the
/// contiguous comment block directly above it. Attribute lines (a
/// `#[cfg(…)]` gate sitting between a site and its comment block) are
/// skipped, so cfg-gated sites keep their tags; a blank line still breaks
/// the block.
fn line_tags(lines: &[(String, String)], idx: usize) -> Vec<String> {
    let mut tags = ord_tags(&lines[idx].1);
    let mut above = idx;
    while above > 0 {
        above -= 1;
        let (prev_code, prev_comment) = &lines[above];
        let code = prev_code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        let comment_only = code.is_empty() && !prev_comment.is_empty();
        if !is_attr && !comment_only {
            break;
        }
        tags.extend(ord_tags(prev_comment));
    }
    tags
}

/// Parses `[pub(…)] const NAME: Ordering = Ordering::<Ord>;` from one
/// sanitized code line, returning `(NAME, ordering)`.
fn const_def(code: &str) -> Option<(String, &'static str)> {
    let (head, rest) = code.split_once("const ")?;
    // `const` must be an item keyword here, not part of an identifier or a
    // `*const` pointer type.
    if head
        .chars()
        .next_back()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_' || c == '*')
    {
        return None;
    }
    let (name, rest) = rest.split_once(':')?;
    let name = name.trim();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
    {
        return None;
    }
    let (ty, value) = rest.split_once('=')?;
    let ty = ty.trim().trim_start_matches(':');
    if ty != "Ordering" && !ty.ends_with("::Ordering") {
        return None;
    }
    let ord_token = value.trim().split_once("Ordering::").map(|(_, o)| o)?;
    let ord: String = ord_token
        .chars()
        .take_while(char::is_ascii_alphanumeric)
        .collect();
    ORDERINGS
        .iter()
        .find(|o| **o == ord)
        .map(|o| (name.to_string(), *o))
}

/// The `<value>` of a `coup_mutation = "<value>"` test on one *raw* source
/// line (the sanitized line has its string literals blanked).
fn mutation_value(raw: &str) -> Option<&str> {
    let (_, rest) = raw.split_once("coup_mutation")?;
    let (_, rest) = rest.split_once('"')?;
    rest.split_once('"').map(|(value, _)| value)
}

fn push_unique<T: PartialEq>(v: &mut Vec<T>, item: T) {
    if !v.contains(&item) {
        v.push(item);
    }
}

/// Lints in-memory sources: `(name, content)` pairs. The unit of the
/// pairing check (R-PAIR) is the whole set, matching how the binary lints
/// a directory tree.
#[must_use]
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let mut report = Report {
        files: sources.len(),
        scanned: sources.iter().map(|(n, _)| n.clone()).collect(),
        ..Report::default()
    };
    let mut ledger: Vec<(String, TagEntry)> = Vec::new();

    // Pass A: sanitize every file (string/comment state is per file).
    let sanitized: Vec<Vec<(String, String)>> = sources
        .iter()
        .map(|(_, content)| {
            let mut scanner = LineScanner::default();
            content.lines().map(|l| scanner.split(l)).collect()
        })
        .collect();

    // Pass B: register named ordering constants. Only non-Relaxed
    // definitions enter the registry — a cfg-gated `Relaxed` twin is
    // untagged, and letting it in would erase the strong definition's
    // contract. First strong def wins.
    let mut consts: Vec<ConstInfo> = Vec::new();
    let mut def_lines: HashSet<(usize, usize)> = HashSet::new();
    for (fidx, lines) in sanitized.iter().enumerate() {
        let (file, content) = &sources[fidx];
        for (idx, ((code, _), raw)) in lines.iter().zip(content.lines()).enumerate() {
            let Some((name, ordering)) = const_def(code) else {
                continue;
            };
            def_lines.insert((fidx, idx));
            let tags = line_tags(lines, idx);
            if let Some(value) = mutation_value(raw) {
                if !tags.iter().any(|t| t == value) {
                    report.diagnostics.push(Diagnostic {
                        file: file.clone(),
                        line: idx + 1,
                        rule: "R-MUTATION",
                        message: format!(
                            "`{name}` is weakened by `coup_mutation = \"{value}\"` but its \
                             `ord:` tags are [{}]: the mutation value must be the \
                             constant's own tag",
                            tags.join(", ")
                        ),
                    });
                }
            }
            if ordering == "Relaxed" || consts.iter().any(|c| c.name == name) {
                continue;
            }
            consts.push(ConstInfo {
                name,
                ordering,
                tags,
            });
        }
    }

    // Pass C: diagnostics, the pairing ledger, and the site table.
    for (fidx, (name, _)) in sources.iter().enumerate() {
        let lines = &sanitized[fidx];
        let is_sync = Path::new(name).file_name().is_some_and(|f| f == "sync.rs");

        for (idx, (code, _comment)) in lines.iter().enumerate() {
            let lineno = idx + 1;
            if !is_sync
                && (code.contains("std::sync::atomic") || code.contains("core::sync::atomic"))
            {
                report.diagnostics.push(Diagnostic {
                    file: name.clone(),
                    line: lineno,
                    rule: "R-IMPORT",
                    message: "atomics must come from the crate::sync facade; \
                              std::sync::atomic is allowed only in sync.rs"
                        .into(),
                });
            }

            let mut sides = Sides::default();
            let mut seqcst = false;
            let mut orderings: Vec<String> = Vec::new();
            for token in idents(code) {
                match token {
                    "Release" => {
                        sides.release = true;
                        push_unique(&mut orderings, token.to_string());
                    }
                    "Acquire" => {
                        sides.acquire = true;
                        push_unique(&mut orderings, token.to_string());
                    }
                    "AcqRel" => {
                        sides.release = true;
                        sides.acquire = true;
                        push_unique(&mut orderings, token.to_string());
                    }
                    "SeqCst" => {
                        seqcst = true;
                        push_unique(&mut orderings, token.to_string());
                    }
                    _ => {}
                }
            }
            let direct_sides = sides;

            // Const uses: a registered ordering constant named on a
            // non-definition, non-import line pulls in its definition's
            // ordering and tags.
            let trimmed = code.trim();
            let is_import = trimmed.starts_with("use ")
                || trimmed.starts_with("pub use ")
                || trimmed.starts_with("pub(crate) use ")
                || trimmed.starts_with("pub(super) use ");
            let is_def = def_lines.contains(&(fidx, idx));
            let mut via: Vec<&ConstInfo> = Vec::new();
            if !is_def && !is_import {
                for token in idents(code) {
                    if let Some(info) = consts.iter().find(|c| c.name == token) {
                        if !via.iter().any(|v| v.name == info.name) {
                            via.push(info);
                        }
                    }
                }
            }

            if !sides.release && !sides.acquire && !seqcst && via.is_empty() {
                continue;
            }

            // Tags on the site's own line plus the contiguous comment
            // block directly above it.
            let mut tags = line_tags(lines, idx);

            if seqcst {
                if !tags.iter().any(|t| t == "allow-seqcst") {
                    report.diagnostics.push(Diagnostic {
                        file: name.clone(),
                        line: lineno,
                        rule: "R-SEQCST",
                        message: "SeqCst without an `// ord: allow-seqcst(<why>)` \
                                  justification; use the weakest correct ordering \
                                  or justify the total order"
                            .into(),
                    });
                }
                // An allowed SeqCst orders both ways.
                sides.release = true;
                sides.acquire = true;
            }

            for info in &via {
                match info.ordering {
                    "Release" => sides.release = true,
                    "Acquire" => sides.acquire = true,
                    "AcqRel" | "SeqCst" => {
                        sides.release = true;
                        sides.acquire = true;
                    }
                    _ => {}
                }
                push_unique(&mut orderings, info.ordering.to_string());
                for tag in &info.tags {
                    tags.push(tag.clone());
                }
            }

            let mut pairing: Vec<String> = Vec::new();
            for tag in tags.iter().filter(|t| *t != "allow-seqcst") {
                push_unique(&mut pairing, tag.clone());
            }

            if !orderings.is_empty() {
                let kind = if is_def {
                    SiteKind::ConstDef
                } else if via.is_empty() {
                    SiteKind::Direct
                } else {
                    SiteKind::ConstUse
                };
                let via_name = if is_def {
                    const_def(code).map(|(n, _)| n).unwrap_or_default()
                } else {
                    via.iter()
                        .map(|v| v.name.as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let mut site_orderings = orderings.clone();
                site_orderings.sort();
                let mut site_tags = pairing.clone();
                site_tags.sort();
                report.sites.push(Site {
                    file: name.clone(),
                    line: lineno,
                    kind,
                    via: via_name,
                    fence: idents(code).any(|t| t == "fence"),
                    orderings: site_orderings,
                    tags: site_tags,
                });
            }

            if pairing.is_empty() {
                if !seqcst && (direct_sides.release || direct_sides.acquire) {
                    report.diagnostics.push(Diagnostic {
                        file: name.clone(),
                        line: lineno,
                        rule: "R-TAG",
                        message: "Release/Acquire/AcqRel site without an `// ord: <tag>` \
                                  pairing comment (same line or contiguous comment above)"
                            .into(),
                    });
                }
                continue;
            }
            for tag in &pairing {
                match ledger.iter_mut().find(|(t, _)| t == tag) {
                    Some((_, entry)) => {
                        entry.sides.release |= sides.release;
                        entry.sides.acquire |= sides.acquire;
                    }
                    None => ledger.push((
                        tag.clone(),
                        TagEntry {
                            sides,
                            first_file: name.clone(),
                            first_line: lineno,
                        },
                    )),
                }
            }
        }
    }

    for (tag, entry) in &ledger {
        let missing = match (entry.sides.release, entry.sides.acquire) {
            (true, true) => {
                report.paired_tags.push(tag.clone());
                continue;
            }
            (true, false) => "no acquire-side site (Acquire/AcqRel)",
            (false, true) => "no release-side site (Release/AcqRel)",
            (false, false) => "no ordered site at all",
        };
        report.diagnostics.push(Diagnostic {
            file: entry.first_file.clone(),
            line: entry.first_line,
            rule: "R-PAIR",
            message: format!(
                "ord tag `{tag}` has {missing}: a one-sided edge cannot \
                 synchronize; pair it or remove the tag"
            ),
        });
    }

    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report.paired_tags.sort();
    report
        .sites
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

/// Recursively lints every `.rs` file under `root` (or `root` itself if it
/// is a file). Paths in diagnostics are relative to `root` where possible.
///
/// # Errors
///
/// Propagates I/O failures (missing path, unreadable file) — the binary
/// maps these to exit code 2.
pub fn lint_dir(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs(root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let content = fs::read_to_string(&path)?;
        let display = path
            .strip_prefix(root)
            .map(|p| p.display().to_string())
            .ok()
            .filter(|p| !p.is_empty())
            .unwrap_or_else(|| path.display().to_string());
        sources.push((display, content));
    }
    Ok(lint_sources(&sources))
}

fn collect_rs(path: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let meta = fs::metadata(path)?;
    if meta.is_file() {
        if path.extension().is_some_and(|e| e == "rs") {
            out.push(path.to_path_buf());
        }
        return Ok(());
    }
    for entry in fs::read_dir(path)? {
        collect_rs(&entry?.path(), out)?;
    }
    Ok(())
}

// --- renderers ---------------------------------------------------------

fn gh_escape(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Renders diagnostics as GitHub Actions workflow annotations
/// (`::error file=…,line=…,title=…::message`), one per line, so CI
/// surfaces lint findings inline on the PR diff.
#[must_use]
pub fn render_github(diagnostics: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diagnostics {
        let file = gh_escape(&d.file).replace(',', "%2C").replace(':', "%3A");
        out.push_str(&format!(
            "::error file={},line={},title=coup-lint {}::{}\n",
            file,
            d.line,
            d.rule,
            gh_escape(&d.message)
        ));
    }
    out
}

/// Renders the per-tag pairing table as markdown: one row per `ord:` tag
/// with the release-side and acquire-side sites implementing the edge.
/// ARCHITECTURE.md's committed copy is regenerated from this output by the
/// CI doc-drift guard, so the rendering is deterministic.
#[must_use]
pub fn render_pairing_table(table: &SiteTable) -> String {
    let mut tags: Vec<&str> = Vec::new();
    for site in &table.sites {
        for tag in &site.tags {
            push_unique(&mut tags, tag.as_str());
        }
    }
    tags.sort_unstable();

    let mut out = String::new();
    out.push_str("| `ord:` tag | release side | acquire side |\n");
    out.push_str("|---|---|---|\n");
    for tag in tags {
        let cell = |release: bool| -> String {
            let sites: Vec<String> = table
                .sites
                .iter()
                .filter(|s| s.tags.iter().any(|t| t == tag))
                .filter(|s| {
                    s.orderings.iter().any(|o| {
                        o == "AcqRel"
                            || o == "SeqCst"
                            || (release && o == "Release")
                            || (!release && o == "Acquire")
                    })
                })
                .map(|s| format!("`{}:{}`", s.file, s.line))
                .collect();
            if sites.is_empty() {
                "—".to_string()
            } else {
                sites.join(", ")
            }
        };
        out.push_str(&format!("| `{tag}` | {} | {} |\n", cell(true), cell(false)));
    }
    out
}

#[cfg(test)]
mod tests;
