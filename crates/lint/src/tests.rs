use super::*;

fn lint_one(name: &str, src: &str) -> Vec<Diagnostic> {
    lint_sources(&[(name.to_string(), src.to_string())]).diagnostics
}

fn report_one(name: &str, src: &str) -> Report {
    lint_sources(&[(name.to_string(), src.to_string())])
}

#[test]
fn clean_paired_tags_pass() {
    let src = "fn publish(flag: &AtomicU64) {\n    // ord: handoff\n    flag.store(1, Ordering::Release);\n}\nfn consume(flag: &AtomicU64) -> u64 {\n    flag.load(Ordering::Acquire) // ord: handoff\n}\n";
    assert!(lint_one("a.rs", src).is_empty());
}

#[test]
fn acqrel_counts_as_both_sides() {
    let src = "// ord: rmw-edge\nfn f(x: &AtomicU64) { x.fetch_add(1, Ordering::AcqRel); }\n";
    assert!(lint_one("a.rs", src).is_empty());
}

#[test]
fn untagged_release_is_r_tag_with_exact_location() {
    let src = "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release);\n}\n";
    let diags = lint_one("a.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "R-TAG");
    assert_eq!(diags[0].file, "a.rs");
    assert_eq!(diags[0].line, 2);
}

#[test]
fn one_sided_tag_is_r_pair() {
    let src = "// ord: lonely\nfn f(x: &AtomicU64) { x.store(1, Ordering::Release); }\n";
    let diags = lint_one("a.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "R-PAIR");
    assert!(
        diags[0].message.contains("`lonely`") && diags[0].message.contains("no acquire-side site"),
        "unexpected message: {}",
        diags[0].message
    );
}

#[test]
fn stray_seqcst_is_r_seqcst_and_allowlisted_seqcst_passes() {
    let stray = "fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); }\n";
    let diags = lint_one("a.rs", stray);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "R-SEQCST");
    assert_eq!(diags[0].line, 1);

    let allowed =
        "fn f(x: &AtomicU64) { x.load(Ordering::SeqCst); } // ord: allow-seqcst(total-order)\n";
    assert!(lint_one("a.rs", allowed).is_empty());
}

#[test]
fn std_atomic_import_is_r_import_except_in_sync_rs() {
    let src = "use std::sync::atomic::{AtomicU64, Ordering};\n";
    let diags = lint_one("backend.rs", src);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "R-IMPORT");
    assert_eq!(diags[0].line, 1);

    assert!(lint_one("sync.rs", src).is_empty());
    assert!(lint_one("some/dir/sync.rs", src).is_empty());
    // The facade path is exactly what the rule steers people toward.
    assert!(lint_one("backend.rs", "use crate::sync::atomic::Ordering;\n").is_empty());
}

#[test]
fn strings_and_comments_do_not_trip_rules() {
    let src = "// This mentions Ordering::SeqCst and std::sync::atomic in prose.\n/* Release Acquire AcqRel in a block comment. */\nfn f() { let _ = \"Ordering::SeqCst std::sync::atomic Release\"; }\n";
    assert!(lint_one("a.rs", src).is_empty());
}

#[test]
fn contiguous_comment_block_carries_the_tag_but_a_blank_line_breaks_it() {
    let attached = "fn f(x: &AtomicU64) {\n    // why this publishes\n    // ord: edge\n    x.store(1, Ordering::Release);\n    x.load(Ordering::Acquire); // ord: edge\n}\n";
    assert!(lint_one("a.rs", attached).is_empty());

    let detached =
        "fn f(x: &AtomicU64) {\n    // ord: edge\n\n    x.store(1, Ordering::Release);\n}\n";
    let diags = lint_one("a.rs", detached);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "R-TAG");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn tag_list_stops_at_prose() {
    let src = "fn f(x: &AtomicU64) {\n    // ord: edge-a, edge-b — mutation lane weakens this AcqRel edge\n    x.fetch_or(1, Ordering::AcqRel);\n    x.load(Ordering::Acquire); // ord: edge-a\n    // ord: edge-b\n    x.load(Ordering::Acquire);\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn pairing_is_cross_file() {
    let publish = (
        "w.rs".to_string(),
        "// ord: split\nfn w(x: &AtomicU64) { x.store(1, Ordering::Release); }\n".to_string(),
    );
    let consume = (
        "r.rs".to_string(),
        "// ord: split\nfn r(x: &AtomicU64) { x.load(Ordering::Acquire); }\n".to_string(),
    );
    assert!(lint_sources(&[publish.clone(), consume]).is_clean());
    let half = lint_sources(&[publish]);
    assert_eq!(half.diagnostics.len(), 1);
    assert_eq!(half.diagnostics[0].rule, "R-PAIR");
}

#[test]
fn release_fence_pairs_with_acquire_fence() {
    let src = "fn f() {\n    fence(Ordering::Release); // ord: fence-edge\n    fence(Ordering::Acquire); // ord: fence-edge\n}\n";
    assert!(lint_one("a.rs", src).is_empty());
}

// --- tokenizer robustness (raw strings, multi-line strings, nested
// block comments, cfg-gated sites) --------------------------------------

#[test]
fn raw_strings_with_hashes_do_not_trip_rules() {
    let src = "fn f() {\n    let _ = r\"Ordering::SeqCst Release\";\n    let _ = r#\"std::sync::atomic \"quoted\" Acquire\"#;\n    let _ = r##\"AcqRel #\"# still inside SeqCst\"##;\n    let _ = b\"Release\";\n    let _ = br#\"std::sync::atomic\"#;\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn multi_line_strings_do_not_leak_tokens() {
    // A normal string literal spanning lines: every token inside stays in
    // the string channel, and code resumes after the closing quote.
    let src = "fn f(x: &AtomicU64) {\n    let _ = \"prose with\n        Ordering::SeqCst and std::sync::atomic and\n        Release tokens\";\n    x.load(Ordering::Acquire); // ord: str-edge\n    x.store(1, Ordering::Release); // ord: str-edge\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn multi_line_raw_strings_do_not_leak_tokens() {
    let src = "fn f() {\n    let _ = r#\"line one SeqCst\n        line two \" Release \" std::sync::atomic\n        closing\"#;\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");

    // The site right after a raw string closes is still linted.
    let after = "fn f(x: &AtomicU64) {\n    let _ = r#\"text\n        more\"#;\n    x.store(1, Ordering::Release);\n}\n";
    let diags = lint_one("a.rs", after);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "R-TAG");
    assert_eq!(diags[0].line, 4);
}

#[test]
fn nested_block_comments_spanning_lines_do_not_trip_rules() {
    let src = "fn f() {\n    /* outer SeqCst /* inner Release\n       still inner AcqRel */\n       still outer Acquire std::sync::atomic */\n    let x = 1;\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn cfg_gated_sites_keep_tags_from_above_the_attribute() {
    // The `ord:` comment sits above a `#[cfg(...)]` gate; the tag walk
    // must skip the attribute line instead of treating it as code.
    let src = "// ord: gated-edge\n#[cfg(not(weak_twin))]\nfn publish(x: &AtomicU64) {\n    // ord: gated-edge\n    #[cfg(feature = \"extra\")]\n    x.store(1, Ordering::Release);\n}\nfn consume(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Acquire) // ord: gated-edge\n}\n";
    let diags = lint_one("a.rs", src);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn identifiers_ending_in_r_or_b_are_not_string_openers() {
    // `writer"…"` never appears in real code, but `var` / `grab` followed
    // by a call or comparison must not eat the rest of the file.
    let src = "fn f(writer: u64, grab: u64, x: &AtomicU64) {\n    let _ = writer + grab;\n    x.store(1, Ordering::Release);\n}\n";
    let diags = lint_one("a.rs", src);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].rule, "R-TAG");
    assert_eq!(diags[0].line, 3);
}

// --- ordering constants -------------------------------------------------

const CONST_SRC: &str = "// Strong definition carries the contract.\n// ord: const-edge\npub(crate) const PUBLISH: Ordering = Ordering::Release;\n#[cfg(weak_twin)]\npub(crate) const PUBLISH: Ordering = Ordering::Relaxed;\nuse crate::other::PUBLISH;\nfn publish(x: &AtomicU64) {\n    x.store(1, PUBLISH);\n}\nfn consume(x: &AtomicU64) -> u64 {\n    x.load(Ordering::Acquire) // ord: const-edge\n}\n";

#[test]
fn ordering_const_uses_inherit_the_definitions_ordering_and_tags() {
    let report = report_one("a.rs", CONST_SRC);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.paired_tags, vec!["const-edge".to_string()]);

    let kinds: Vec<(usize, SiteKind)> = report.sites.iter().map(|s| (s.line, s.kind)).collect();
    // Line 3: strong def. Line 5 (Relaxed twin) and line 6 (import) emit
    // no site. Line 8: const use. Line 11: direct Acquire.
    assert_eq!(
        kinds,
        vec![
            (3, SiteKind::ConstDef),
            (8, SiteKind::ConstUse),
            (11, SiteKind::Direct),
        ],
        "{:?}",
        report.sites
    );
    let def = &report.sites[0];
    assert_eq!(def.via, "PUBLISH");
    assert_eq!(def.orderings, vec!["Release".to_string()]);
    assert_eq!(def.tags, vec!["const-edge".to_string()]);
    let use_site = &report.sites[1];
    assert_eq!(use_site.via, "PUBLISH");
    assert_eq!(use_site.orderings, vec!["Release".to_string()]);
    assert_eq!(use_site.tags, vec!["const-edge".to_string()]);
}

#[test]
fn a_relaxed_only_const_is_not_a_site() {
    let src =
        "pub const QUIET: Ordering = Ordering::Relaxed;\nfn f(x: &AtomicU64) { x.load(QUIET); }\n";
    let report = report_one("a.rs", src);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert!(report.sites.is_empty(), "{:?}", report.sites);
}

#[test]
fn cfg_gated_const_pair_keeps_the_strong_contract() {
    // Definition order reversed: the Relaxed twin first must not shadow
    // the strong definition.
    let src = "#[cfg(weak_twin)]\npub(crate) const EDGE: Ordering = Ordering::Relaxed;\n// ord: swap-edge\n#[cfg(not(weak_twin))]\npub(crate) const EDGE: Ordering = Ordering::AcqRel;\nfn f(x: &AtomicU64) { x.fetch_add(1, EDGE); }\n";
    let report = report_one("a.rs", src);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.paired_tags, vec!["swap-edge".to_string()]);
    let use_site = report
        .sites
        .iter()
        .find(|s| s.kind == SiteKind::ConstUse)
        .expect("use site");
    assert_eq!(use_site.orderings, vec!["AcqRel".to_string()]);
}

// --- mutation values ----------------------------------------------------

/// `EDGE` as `sync.rs` spells a mutable constant, weakened by `value`.
fn mutable_const_src(value: &str) -> String {
    format!(
        "use super::weakened_if;\n\
         pub(crate) const EDGE: Ordering = weakened_if(cfg!(coup_mutation = \"{value}\"), Ordering::Release); // ord: own-edge\n\
         fn publish(x: &AtomicU64) {{ x.store(1, EDGE); }}\n\
         fn consume(x: &AtomicU64) -> u64 {{ x.load(Ordering::Acquire) }} // ord: own-edge\n"
    )
}

#[test]
fn a_mutation_value_naming_its_own_tag_passes_and_still_resolves() {
    let report = report_one("sync.rs", &mutable_const_src("own-edge"));
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.paired_tags, vec!["own-edge".to_string()]);
    let def = &report.sites[0];
    assert_eq!((def.line, def.kind), (2, SiteKind::ConstDef));
    assert_eq!(def.orderings, vec!["Release".to_string()]);
}

#[test]
fn a_mutation_value_drifting_from_the_tag_is_r_mutation_at_the_definition() {
    let diags = lint_one("sync.rs", &mutable_const_src("own_edge"));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(
        diags[0].to_string().starts_with(
            "sync.rs:2: [R-MUTATION] `EDGE` is weakened by `coup_mutation = \"own_edge\"` \
             but its `ord:` tags are [own-edge]"
        ),
        "{}",
        diags[0]
    );
}

// --- renders ------------------------------------------------------------

#[test]
fn github_render_has_a_stable_shape() {
    let report = report_one(
        "a.rs",
        "fn f(x: &AtomicU64) { x.store(1, Ordering::Release); }\n",
    );
    assert_eq!(report.diagnostics.len(), 1);
    let gh = render_github(&report.diagnostics);
    assert!(
        gh.starts_with("::error file=a.rs,line=1,title=coup-lint R-TAG::"),
        "{gh}"
    );
}

#[test]
fn pairing_table_lists_both_sides_per_tag() {
    let report = report_one("a.rs", CONST_SRC);
    let table = render_pairing_table(&report.site_table());
    let row = table
        .lines()
        .find(|l| l.contains("`const-edge`"))
        .expect("const-edge row");
    assert!(row.contains("`a.rs:3`"), "{row}");
    assert!(row.contains("`a.rs:8`"), "{row}");
    assert!(row.contains("`a.rs:11`"), "{row}");
}

// --- the committed runtime tree ------------------------------------------

fn runtime_report() -> Report {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../runtime/src");
    lint_dir(&root).expect("runtime sources must be readable")
}

#[test]
fn the_real_runtime_tree_is_clean() {
    let report = runtime_report();
    assert!(
        report.is_clean(),
        "coup-lint found violations in crates/runtime/src:\n{}",
        report
            .diagnostics
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files >= 9,
        "expected the full runtime tree, scanned only {} files",
        report.files
    );
    // The nine mutable edges: every ordering constant is defined in
    // `sync.rs`, one per tag, each under the tag CI's kill lanes name.
    let mut defs: Vec<(&str, &str)> = report
        .sites
        .iter()
        .filter(|s| s.kind == SiteKind::ConstDef)
        .map(|s| {
            assert_eq!(s.file, "sync.rs", "{} defined outside sync.rs", s.via);
            assert_eq!(s.tags.len(), 1, "{} carries {:?}", s.via, s.tags);
            (s.tags[0].as_str(), s.via.as_str())
        })
        .collect();
    defs.sort_unstable();
    assert_eq!(
        defs,
        [
            ("drain-quiesce", "QUIESCE_PUBLISH"),
            ("evict-stats", "EVICTION_FOLD"),
            ("queue-wake", "WAKE_PUBLISH"),
            ("ring-publish", "RING_PUBLISH"),
            ("seqlock-epoch", "EPOCH_PUBLISH"),
            ("shard-retire", "SHARD_RETIRE"),
            ("snap-publish", "SNAP_PUBLISH"),
            ("trace-ticket", "TICKET_PUBLISH"),
            ("writer-bitmap", "WRITER_RETIRE"),
        ]
    );
}

/// The sharded submission fabric's ordering contract, as tag groups:
/// every edge of the ring / slot-directory / parker / quiescence
/// protocols must be *present* in the committed tree with both sides
/// tagged. A refactor that drops an edge (or renames its tag on only
/// one side) fails here even though the tree still lints clean.
#[test]
fn the_real_runtime_tree_pairs_the_sharded_submission_tags() {
    let report = runtime_report();
    for tag in [
        // SPSC ring: tail publication and head (space) handoff.
        "ring-publish",
        "ring-consume",
        // Slot directory: claim CAS vs. drainer's FREE store, and the
        // producer's RETIRED store vs. the drainer's state load.
        "shard-claim",
        "shard-retire",
        // Parker epoch word and the pause gate built on it.
        "queue-wake",
        "job-pause",
        // Worker applied-count vs. drain()/shutdown() quiescence.
        "drain-quiesce",
    ] {
        assert!(
            report.paired_tags.iter().any(|t| t == tag),
            "ord tag `{tag}` is missing or one-sided in crates/runtime/src; \
             paired tags present: {:?}",
            report.paired_tags
        );
    }
}

/// The static site table over the committed tree: every ordering constant
/// must have at least one use site inheriting its ordering and every site
/// must carry an ordering — this is the contract `coup-san` loads at
/// runtime.
#[test]
fn the_real_runtime_tree_emits_a_resolvable_site_table() {
    let report = runtime_report();
    let table = report.site_table();
    assert!(table.sites.len() >= 30, "only {} sites", table.sites.len());

    for def in table.sites.iter().filter(|s| s.kind == SiteKind::ConstDef) {
        assert!(
            table
                .sites
                .iter()
                .any(|s| s.kind == SiteKind::ConstUse && s.via.contains(&def.via)),
            "no use site inherits {}",
            def.via
        );
    }

    let mut tags: Vec<&str> = Vec::new();
    for site in &table.sites {
        assert!(
            !site.orderings.is_empty(),
            "{}:{} has no orderings",
            site.file,
            site.line
        );
        for tag in &site.tags {
            if !tags.contains(&tag.as_str()) {
                tags.push(tag);
            }
        }
    }
    assert!(
        tags.len() >= 14,
        "only {} distinct tags: {tags:?}",
        tags.len()
    );
}
