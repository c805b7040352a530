//! Shadow state for the happens-before sanitizer.
//!
//! Every atomic wrapped by [`crate::sync::atomic`] carries a [`ShadowRec`]
//! behind a mutex; every thread carries a [`ThreadCtx`] with its vector
//! clock and the dynamic-site / dynamic-edge ledgers it accumulates. The
//! checks are *metadata-based*, not race-based: an Acquire load that
//! observes a value no Release-side site ever published is flagged
//! deterministically, even on x86 where the hardware would happily order
//! it anyway. The static half of the cross-check is the `ord:` site table
//! produced by `coup-lint` over `crates/runtime/src` — loaded here through
//! the lint *library*, so the dynamic checks and CI's static pass can
//! never disagree about what the table says.
//!
//! Lock order (must never be reversed): per-atomic shadow mutex →
//! thread-local `CTX` RefCell → `GLOBAL` mutex.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::panic::Location;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, OnceLock};

/// How many source lines below an executed op we search for its table
/// entry. `#[track_caller]` reports the line of the method-name token,
/// which for multi-line call expressions sits at or above the line the
/// lint scanner attributes the site to (the `Ordering::` token line).
const WINDOW: u32 = 4;

/// Cap on publication heads carried per atomic and on pending-acquire
/// heads buffered per thread between a relaxed load and an acquire fence.
const HEAD_CAP: usize = 16;
const PEND_CAP: usize = 64;

// ---------------------------------------------------------------------------
// Sites and clocks
// ---------------------------------------------------------------------------

/// A static program location, as reported by `#[track_caller]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) struct SiteId {
    pub(crate) file: &'static str,
    pub(crate) line: u32,
}

impl SiteId {
    #[track_caller]
    pub(crate) fn here() -> SiteId {
        let loc = Location::caller();
        SiteId {
            file: loc.file(),
            line: loc.line(),
        }
    }

    /// The file's path relative to the linted tree (`runtime/src`) — the
    /// name the lint's site table files it under, so two `tests.rs` in
    /// different directories stay apart — or the whole path for a file
    /// outside that tree.
    fn rel(&self) -> &'static str {
        ["runtime/src/", "runtime\\src\\"]
            .iter()
            .find_map(|marker| self.file.rsplit_once(marker))
            .map_or(self.file, |(_, rel)| rel)
    }
}

/// A plain vector clock: one logical-time slot per thread the process has
/// seen. Slots are recycled through the global freelist when threads exit,
/// after their final clock is folded into `Global::retired_clock`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    pub(crate) const fn new() -> VClock {
        VClock(Vec::new())
    }

    fn tick(&mut self, slot: usize) {
        if self.0.len() <= slot {
            self.0.resize(slot + 1, 0);
        }
        self.0[slot] += 1;
    }

    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (mine, theirs) in self.0.iter_mut().zip(other.0.iter()) {
            *mine = (*mine).max(*theirs);
        }
    }
}

/// One publication record: a Release-side site and the writer's clock at
/// the moment of publication. An atomic can carry several (release
/// sequences, fence + store), deduped by site.
#[derive(Clone, Debug)]
pub(crate) struct Head {
    site: SiteId,
    clock: VClock,
}

/// Per-atomic shadow state. Lives behind the wrapper's shadow mutex, so
/// all ops on one atomic serialize through it — that serialization is what
/// makes the metadata checks deterministic.
#[derive(Debug)]
pub(crate) struct ShadowRec {
    /// True until the first store/RMW: initial values are exempt from the
    /// unpublished-acquire check (they are published by variable init).
    init: bool,
    /// Clock slot of the last writer (`usize::MAX` until the first write).
    writer: usize,
    /// Site of the last write, if any.
    site: Option<SiteId>,
    /// Bumped on every store/RMW; diagnostic only.
    epoch: u64,
    /// Whether the last write itself carried release semantics. A release
    /// fence earlier on the writer's thread still contributes a head (the
    /// value *is* synchronized through the fence), but `published` stays
    /// false — which is exactly what the unpublished-acquire check keys on:
    /// the site table declared this line a Release publisher and the
    /// executed op wasn't one.
    published: bool,
    /// Publication heads justifying an acquire of the current value.
    /// Empty ⇒ the last write was relaxed and fence-less.
    heads: Vec<Head>,
}

impl ShadowRec {
    pub(crate) const fn new() -> ShadowRec {
        ShadowRec {
            init: true,
            writer: usize::MAX,
            site: None,
            epoch: 0,
            published: false,
            heads: Vec::new(),
        }
    }
}

fn push_head(heads: &mut Vec<Head>, head: Head) {
    if let Some(existing) = heads.iter_mut().find(|h| h.site == head.site) {
        existing.clock = head.clock;
        return;
    }
    if heads.len() < HEAD_CAP {
        heads.push(head);
    }
}

// ---------------------------------------------------------------------------
// Ordering classification
// ---------------------------------------------------------------------------

fn is_release(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Release | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn is_acquire(order: Ordering) -> bool {
    matches!(
        order,
        Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst
    )
}

fn ord_token(order: Ordering) -> &'static str {
    match order {
        Ordering::Relaxed => "Relaxed",
        Ordering::Release => "Release",
        Ordering::Acquire => "Acquire",
        Ordering::AcqRel => "AcqRel",
        Ordering::SeqCst => "SeqCst",
        // `Ordering` is non_exhaustive; nothing else is constructible today.
        _ => "Unknown",
    }
}

fn ord_bit(order: Ordering) -> u8 {
    match order {
        Ordering::Relaxed => 1,
        Ordering::Release => 2,
        Ordering::Acquire => 4,
        Ordering::AcqRel => 8,
        Ordering::SeqCst => 16,
        _ => 0,
    }
}

fn mask_names(mask: u8) -> Vec<String> {
    let mut out = Vec::new();
    for (bit, name) in [
        (1, "Relaxed"),
        (2, "Release"),
        (4, "Acquire"),
        (8, "AcqRel"),
        (16, "SeqCst"),
    ] {
        if mask & bit != 0 {
            out.push(name.to_string());
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The static site table (loaded once through the lint library)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Entry {
    line: u32,
    /// Const *definitions* are table rows but never execution sites.
    matchable: bool,
    /// Whether any of the entry's orderings is Release/AcqRel/SeqCst —
    /// i.e. whether this site can legitimately publish.
    release_side: bool,
    orderings: Vec<String>,
    tags: Vec<String>,
}

#[derive(Debug)]
struct StaticTable {
    /// Path relative to the linted root → entries sorted by line.
    by_file: HashMap<String, Vec<Entry>>,
    /// Root-relative paths of every file the lint pass scanned; files
    /// outside this set are out of scope for the dynamic checks.
    scanned: HashSet<String>,
    /// Every tag in the table except `allow-seqcst` (a lint pragma, not a
    /// pairing contract) — the denominator of the coverage report.
    all_tags: Vec<String>,
    total_entries: usize,
    /// Set when the table failed to load; all checks no-op but the report
    /// carries the reason so CI fails loudly on the cross-check test.
    error: Option<String>,
}

impl StaticTable {
    fn empty(error: Option<String>) -> StaticTable {
        StaticTable {
            by_file: HashMap::new(),
            scanned: HashSet::new(),
            all_tags: Vec::new(),
            total_entries: 0,
            error,
        }
    }

    fn load() -> StaticTable {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../runtime/src");
        match coup_lint::lint_dir(Path::new(root)) {
            Ok(report) => StaticTable::from_report(&report),
            Err(err) => StaticTable::empty(Some(format!("lint_dir({root}): {err}"))),
        }
    }

    /// Files every site under the name the lint reports for its file: the
    /// path relative to the linted root, which [`SiteId::rel`] recovers from
    /// a `#[track_caller]` location.
    fn from_report(report: &coup_lint::Report) -> StaticTable {
        let table = report.site_table();
        let mut by_file: HashMap<String, Vec<Entry>> = HashMap::new();
        let mut tags: Vec<String> = Vec::new();
        let mut total = 0usize;
        for site in &table.sites {
            let release_side = site
                .orderings
                .iter()
                .any(|o| matches!(o.as_str(), "Release" | "AcqRel" | "SeqCst"));
            by_file.entry(site.file.clone()).or_default().push(Entry {
                line: site.line as u32,
                matchable: site.kind != coup_lint::SiteKind::ConstDef,
                release_side,
                orderings: site.orderings.clone(),
                tags: site.tags.clone(),
            });
            total += 1;
            for tag in &site.tags {
                if tag != "allow-seqcst" && !tags.contains(tag) {
                    tags.push(tag.clone());
                }
            }
        }
        for entries in by_file.values_mut() {
            entries.sort_by_key(|e| e.line);
        }
        tags.sort();
        StaticTable {
            by_file,
            scanned: report.scanned.iter().cloned().collect(),
            all_tags: tags,
            total_entries: total,
            error: None,
        }
    }

    /// The table entry for an executed op at `site`: the nearest matchable
    /// entry in `[line, line + WINDOW]` (the ordering token sits at or
    /// below the method-name token `#[track_caller]` reports).
    fn window_entry(&self, site: SiteId) -> Option<&Entry> {
        let entries = self.by_file.get(site.rel())?;
        entries
            .iter()
            .filter(|e| e.matchable && e.line >= site.line && e.line <= site.line + WINDOW)
            .min_by_key(|e| e.line - site.line)
    }

    /// The table entry exactly at `site` (unpublished-acquire blames the
    /// writer only when its own line is a declared release-side site).
    fn exact_entry(&self, site: SiteId) -> Option<&Entry> {
        let entries = self.by_file.get(site.rel())?;
        entries.iter().find(|e| e.matchable && e.line == site.line)
    }

    fn in_scope(&self, site: SiteId) -> bool {
        self.scanned.contains(site.rel())
    }
}

fn table() -> &'static StaticTable {
    static TABLE: OnceLock<StaticTable> = OnceLock::new();
    TABLE.get_or_init(StaticTable::load)
}

// ---------------------------------------------------------------------------
// Global and per-thread state
// ---------------------------------------------------------------------------

/// Per-site dynamic stats, merged into `GLOBAL` when a thread exits or a
/// snapshot flushes the current thread.
#[derive(Clone, Copy, Debug, Default)]
struct SiteDyn {
    count: u64,
    mask: u8,
}

struct ThreadCtx {
    slot: usize,
    clock: VClock,
    /// Head planted by the latest `fence(Release)`. C11 makes every later
    /// store on this thread synchronize through it, forever — sticky is
    /// the exact semantics, not an approximation.
    rel_fence: Option<Head>,
    /// Heads observed by loads since the last acquire fence; an acquire
    /// fence joins and edges all of them.
    pend_acq: Vec<Head>,
    sites: HashMap<SiteId, SiteDyn>,
    edges: HashMap<(SiteId, SiteId), u64>,
}

impl ThreadCtx {
    fn new() -> ThreadCtx {
        let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
        let slot = global.free.pop().unwrap_or_else(|| {
            let s = global.next_slot;
            global.next_slot += 1;
            s
        });
        global.threads_seen += 1;
        let mut clock = global.retired_clock.clone();
        if let Some(adopt) = PENDING_ADOPT.with(|p| p.borrow_mut().take()) {
            clock.join(&adopt);
        }
        drop(global);
        clock.tick(slot);
        ThreadCtx {
            slot,
            clock,
            rel_fence: None,
            pend_acq: Vec::new(),
            sites: HashMap::new(),
            edges: HashMap::new(),
        }
    }

    fn record_site(&mut self, site: SiteId, order: Ordering) {
        let entry = self.sites.entry(site).or_default();
        entry.count += 1;
        entry.mask |= ord_bit(order);
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
        global.absorb(self.sites.drain(), self.edges.drain());
        let clock = std::mem::take(&mut self.clock);
        global.retired_clock.join(&clock);
        let slot = self.slot;
        global.free.push(slot);
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
    /// Clock handed to a freshly spawned thread by its parent, consumed by
    /// the first `ThreadCtx::new()` on the child.
    static PENDING_ADOPT: RefCell<Option<VClock>> = const { RefCell::new(None) };
}

fn with_ctx<R>(f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
    CTX.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let ctx = borrow.get_or_insert_with(ThreadCtx::new);
        f(ctx)
    })
}

#[derive(Default)]
struct Global {
    next_slot: usize,
    free: Vec<usize>,
    threads_seen: u64,
    /// Join of every exited thread's final clock; newborn threads start
    /// from it so recycled slots never travel backwards in time.
    retired_clock: VClock,
    sites: HashMap<SiteId, SiteDyn>,
    edges: HashMap<(SiteId, SiteId), u64>,
    violations: Vec<Violation>,
    /// Dedupe key: (kind, file, line).
    seen: HashSet<(&'static str, &'static str, u32)>,
}

impl Global {
    /// Merges one thread's site and edge ledgers into the process totals.
    fn absorb(
        &mut self,
        sites: impl IntoIterator<Item = (SiteId, SiteDyn)>,
        edges: impl IntoIterator<Item = ((SiteId, SiteId), u64)>,
    ) {
        for (site, stat) in sites {
            let merged = self.sites.entry(site).or_default();
            merged.count += stat.count;
            merged.mask |= stat.mask;
        }
        for (edge, count) in edges {
            *self.edges.entry(edge).or_default() += count;
        }
    }
}

fn global() -> &'static Mutex<Global> {
    static GLOBAL: OnceLock<Mutex<Global>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(Global::default()))
}

/// A deterministic sanitizer finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `untracked-site`, `ordering-drift`, `unpublished-acquire`, or
    /// `expected-ordering-never-ran`.
    pub kind: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

fn violation(kind: &'static str, site: SiteId, message: String) {
    let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
    if global.seen.insert((kind, site.file, site.line)) {
        global.violations.push(Violation {
            kind,
            file: site.rel().to_string(),
            line: site.line,
            message,
        });
    }
}

// ---------------------------------------------------------------------------
// Eager checks (run inside the atomic's shadow-mutex critical section)
// ---------------------------------------------------------------------------

/// V1 + V2: every in-scope non-Relaxed op must sit in the window of a
/// table entry, and that entry's orderings must include the one executed.
fn check_static(site: SiteId, order: Ordering) {
    if matches!(order, Ordering::Relaxed) {
        return;
    }
    let table = table();
    if table.error.is_some() || !table.in_scope(site) {
        return;
    }
    let token = ord_token(order);
    match table.window_entry(site) {
        None => violation(
            "untracked-site",
            site,
            format!(
                "{}:{} executed a {token} op but no `ord:`-tagged site table entry \
                 covers lines {}..={}",
                site.rel(),
                site.line,
                site.line,
                site.line + WINDOW
            ),
        ),
        Some(entry) if !entry.orderings.iter().any(|o| o == token) => violation(
            "ordering-drift",
            site,
            format!(
                "{}:{} executed {token} but the site table entry at line {} declares [{}]",
                site.rel(),
                site.line,
                entry.line,
                entry.orderings.join(", ")
            ),
        ),
        Some(_) => {}
    }
}

/// check-2: an acquire-side op observed a value whose write carried no
/// release semantics of its own — even though the writer's exact line is a
/// declared release-side site in the static table. A preceding release
/// fence may still have synchronized the value (so no `heads.is_empty()`
/// test here: the fence head is real), but the declared contract of that
/// line was a Release op, and it did not run as one. On x86 the hardware
/// hides this; the shadow metadata does not.
fn check_unpublished(rec: &ShadowRec, reader: SiteId, slot: usize) {
    if rec.init || rec.published || rec.writer == slot {
        return;
    }
    let Some(writer) = rec.site else { return };
    let table = table();
    if table.error.is_some() || !table.in_scope(writer) || !table.in_scope(reader) {
        return;
    }
    let Some(entry) = table.exact_entry(writer) else {
        return;
    };
    if !entry.release_side {
        return;
    }
    violation(
        "unpublished-acquire",
        reader,
        format!(
            "{}:{} acquired a value written by {}:{} (epoch {}), but that write carried \
             no Release edge despite its site table entry declaring [{}]",
            reader.rel(),
            reader.line,
            writer.rel(),
            writer.line,
            rec.epoch,
            entry.orderings.join(", ")
        ),
    );
}

// ---------------------------------------------------------------------------
// Op hooks (called by the facade wrappers, shadow mutex held)
// ---------------------------------------------------------------------------

pub(crate) fn on_store(rec: &mut ShadowRec, site: SiteId, order: Ordering) {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.record_site(site, order);
        check_static(site, order);
        let mut heads = Vec::new();
        if is_release(order) {
            heads.push(Head {
                site,
                clock: ctx.clock.clone(),
            });
        }
        if let Some(fence) = &ctx.rel_fence {
            // A store sequenced after a release fence synchronizes through
            // the fence: the head carries the thread's *current* clock.
            push_head(
                &mut heads,
                Head {
                    site: fence.site,
                    clock: ctx.clock.clone(),
                },
            );
        }
        rec.init = false;
        rec.writer = ctx.slot;
        rec.site = Some(site);
        rec.epoch += 1;
        rec.published = is_release(order);
        rec.heads = heads;
    });
}

/// The load half of a load or RMW: buffer the observed heads for a later
/// acquire fence, and — for an acquire-side op — join and edge them now.
fn observe(ctx: &mut ThreadCtx, rec: &ShadowRec, site: SiteId, order: Ordering) {
    ctx.clock.tick(ctx.slot);
    ctx.record_site(site, order);
    check_static(site, order);
    for head in &rec.heads {
        if ctx.pend_acq.len() >= PEND_CAP {
            break;
        }
        if !ctx.pend_acq.iter().any(|h| h.site == head.site) {
            ctx.pend_acq.push(head.clone());
        }
    }
    if is_acquire(order) {
        for head in &rec.heads {
            ctx.clock.join(&head.clock);
            *ctx.edges.entry((head.site, site)).or_default() += 1;
        }
        check_unpublished(rec, site, ctx.slot);
    }
}

pub(crate) fn on_load(rec: &ShadowRec, site: SiteId, order: Ordering) {
    with_ctx(|ctx| observe(ctx, rec, site, order));
}

pub(crate) fn on_rmw(rec: &mut ShadowRec, site: SiteId, order: Ordering) {
    with_ctx(|ctx| {
        observe(ctx, rec, site, order);
        // RMWs continue release sequences: existing heads survive, and a
        // release RMW adds its own.
        let mut heads = std::mem::take(&mut rec.heads);
        if is_release(order) {
            push_head(
                &mut heads,
                Head {
                    site,
                    clock: ctx.clock.clone(),
                },
            );
        }
        if let Some(fence) = &ctx.rel_fence {
            push_head(
                &mut heads,
                Head {
                    site: fence.site,
                    clock: ctx.clock.clone(),
                },
            );
        }
        rec.init = false;
        rec.writer = ctx.slot;
        rec.site = Some(site);
        rec.epoch += 1;
        rec.published = is_release(order);
        rec.heads = heads;
    });
}

pub(crate) fn on_fence(site: SiteId, order: Ordering) {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.record_site(site, order);
        check_static(site, order);
        if is_acquire(order) {
            let pending = std::mem::take(&mut ctx.pend_acq);
            for head in pending {
                ctx.clock.join(&head.clock);
                *ctx.edges.entry((head.site, site)).or_default() += 1;
            }
        }
        if is_release(order) {
            ctx.rel_fence = Some(Head {
                site,
                clock: ctx.clock.clone(),
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Thread and mutex clock plumbing (used by the facade's thread/Mutex/Condvar)
// ---------------------------------------------------------------------------

/// Parent side of spawn: tick and hand the child a copy of our clock.
pub(crate) fn fork_clock() -> VClock {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.clock.clone()
    })
}

/// Child side of spawn: stash the parent clock for the lazily-built ctx.
pub(crate) fn adopt_clock(clock: VClock) {
    PENDING_ADOPT.with(|p| *p.borrow_mut() = Some(clock));
    // Force ctx creation now so the adoption isn't lost if the closure's
    // first shadow op happens after another thread snapshots.
    with_ctx(|_| {});
}

/// Exiting thread's clock, joined by the parent's `JoinHandle::join`.
pub(crate) fn final_clock() -> VClock {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.clock.clone()
    })
}

pub(crate) fn join_clock(clock: &VClock) {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.clock.join(clock);
    });
}

/// Mutex lock: join the clock the previous holder left in the shadow.
pub(crate) fn mutex_acquired(shadow: &VClock) {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        ctx.clock.join(shadow);
    });
}

/// Mutex unlock: leave our clock for the next holder.
pub(crate) fn mutex_released(shadow: &mut VClock) {
    with_ctx(|ctx| {
        ctx.clock.tick(ctx.slot);
        shadow.join(&ctx.clock);
    });
}

// ---------------------------------------------------------------------------
// Snapshot, V3, coverage, report
// ---------------------------------------------------------------------------

/// One executed atomic site with its dynamic stats.
#[derive(Clone, Debug)]
pub struct DynSite {
    pub file: String,
    pub line: u32,
    pub count: u64,
    /// Orderings actually executed at this site.
    pub orderings: Vec<String>,
}

/// One observed happens-before edge (publisher site → acquirer site).
#[derive(Clone, Debug)]
pub struct DynEdge {
    pub from_file: String,
    pub from_line: u32,
    pub to_file: String,
    pub to_line: u32,
    pub count: u64,
    /// True when both endpoints resolve to site-table entries.
    pub resolved: bool,
}

/// Everything the sanitizer knows at snapshot time.
#[derive(Clone, Debug)]
pub struct SanReport {
    pub threads: u64,
    pub table_entries: usize,
    pub table_error: Option<String>,
    pub sites: Vec<DynSite>,
    pub edges: Vec<DynEdge>,
    pub covered_tags: Vec<String>,
    pub uncovered_tags: Vec<String>,
    /// Table entries no dynamic op ever hit (informational, not a
    /// violation: cfg-gated or stress-only paths may legitimately idle).
    pub unexercised: Vec<String>,
    pub violations: Vec<Violation>,
}

impl SanReport {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.table_error.is_none()
    }

    pub fn coverage_complete(&self) -> bool {
        self.uncovered_tags.is_empty() && !self.covered_tags.is_empty()
    }
}

/// Move the *current* thread's ledgers into `GLOBAL` so a snapshot taken
/// from the main/test thread sees its own ops without the thread exiting.
fn flush_current_thread() {
    CTX.with(|cell| {
        let mut borrow = cell.borrow_mut();
        let Some(ctx) = borrow.as_mut() else { return };
        let sites = std::mem::take(&mut ctx.sites);
        let edges = std::mem::take(&mut ctx.edges);
        let mut global = global().lock().unwrap_or_else(|e| e.into_inner());
        global.absorb(sites, edges);
    });
}

/// Compute the full report: flush this thread, then run the snapshot-time
/// checks (V3 expected-ordering-never-ran, tag coverage) over the merged
/// global ledgers. Non-destructive — safe to call repeatedly.
fn snapshot() -> SanReport {
    flush_current_thread();
    let table = table();
    let global = global().lock().unwrap_or_else(|e| e.into_inner());
    let mut violations = global.violations.clone();

    // Dynamic sites, sorted for stable output.
    let mut sites: Vec<(SiteId, SiteDyn)> = global.sites.iter().map(|(s, d)| (*s, *d)).collect();
    sites.sort_by_key(|(s, _)| (s.rel(), s.line));
    let dyn_sites: Vec<DynSite> = sites
        .iter()
        .map(|(s, d)| DynSite {
            file: s.rel().to_string(),
            line: s.line,
            count: d.count,
            orderings: mask_names(d.mask),
        })
        .collect();

    // V3 + unexercised: for each matchable table entry, sum dynamic ops in
    // the window [entry.line - WINDOW, entry.line]. runs == 0 → listed as
    // unexercised. runs > 0 but NONE of the entry's declared orderings was
    // ever executed there → expected-ordering-never-ran. ("At least one"
    // on purpose: CAS failure orderings and multi-ordering entries need
    // not all fire.)
    let mut unexercised = Vec::new();
    let mut files: Vec<&String> = table.by_file.keys().collect();
    files.sort();
    for file in files {
        for entry in &table.by_file[file] {
            if !entry.matchable {
                continue;
            }
            let lo = entry.line.saturating_sub(WINDOW);
            let mut runs = 0u64;
            let mut mask = 0u8;
            for (site, stat) in &sites {
                if site.rel() == file.as_str() && site.line >= lo && site.line <= entry.line {
                    runs += stat.count;
                    mask |= stat.mask;
                }
            }
            if runs == 0 {
                unexercised.push(format!("{file}:{}", entry.line));
                continue;
            }
            let expected_bits: u8 = entry
                .orderings
                .iter()
                .map(|o| match o.as_str() {
                    "Relaxed" => 1,
                    "Release" => 2,
                    "Acquire" => 4,
                    "AcqRel" => 8,
                    "SeqCst" => 16,
                    _ => 0,
                })
                .fold(0, |a, b| a | b);
            if expected_bits != 0
                && mask & expected_bits == 0
                && !violations.iter().any(|v| {
                    v.kind == "expected-ordering-never-ran"
                        && v.file == **file
                        && v.line == entry.line
                })
            {
                violations.push(Violation {
                    kind: "expected-ordering-never-ran",
                    file: file.to_string(),
                    line: entry.line,
                    message: format!(
                        "{file}:{} declares [{}] but the ops executed in lines {lo}..={} \
                         only ever used [{}]",
                        entry.line,
                        entry.orderings.join(", "),
                        entry.line,
                        mask_names(mask).join(", ")
                    ),
                });
            }
        }
    }

    // Edges + tag coverage: a tag is covered iff some edge's endpoints
    // both resolve to window entries sharing it. Same-thread edges count
    // (documented limitation — the protocol exercise is what we measure).
    let mut edges: Vec<((SiteId, SiteId), u64)> =
        global.edges.iter().map(|(e, c)| (*e, *c)).collect();
    edges.sort_by_key(|((f, t), _)| (f.rel(), f.line, t.rel(), t.line));
    let mut covered: HashSet<String> = HashSet::new();
    let dyn_edges: Vec<DynEdge> = edges
        .iter()
        .map(|((from, to), count)| {
            let from_entry = table.window_entry(*from);
            let to_entry = table.window_entry(*to);
            if let (Some(fe), Some(te)) = (from_entry, to_entry) {
                for tag in &fe.tags {
                    if tag != "allow-seqcst" && te.tags.contains(tag) {
                        covered.insert(tag.clone());
                    }
                }
            }
            DynEdge {
                from_file: from.rel().to_string(),
                from_line: from.line,
                to_file: to.rel().to_string(),
                to_line: to.line,
                count: *count,
                resolved: from_entry.is_some() && to_entry.is_some(),
            }
        })
        .collect();
    let mut covered_tags: Vec<String> = covered.iter().cloned().collect();
    covered_tags.sort();
    let uncovered_tags: Vec<String> = table
        .all_tags
        .iter()
        .filter(|t| !covered.contains(*t))
        .cloned()
        .collect();

    SanReport {
        threads: global.threads_seen,
        table_entries: table.total_entries,
        table_error: table.error.clone(),
        sites: dyn_sites,
        edges: dyn_edges,
        covered_tags,
        uncovered_tags,
        unexercised,
        violations,
    }
}

/// Snapshot and panic with every violation if any were found. The battery
/// test's single assertion point.
pub fn verify() -> SanReport {
    let report = snapshot();
    if !report.violations.is_empty() {
        let mut msg = format!("coup-san: {} violation(s):\n", report.violations.len());
        for v in &report.violations {
            msg.push_str(&format!(
                "  [{}] {}:{}: {}\n",
                v.kind, v.file, v.line, v.message
            ));
        }
        panic!("{msg}");
    }
    if let Some(err) = &report.table_error {
        panic!("coup-san: static site table failed to load: {err}");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two files of the linted tree that share a basename keep separate
    /// table entries: a site resolves only against its own file's rows.
    #[test]
    fn same_named_files_in_different_directories_resolve_separately() {
        let release = "fn f(x: &AtomicU64) {\n    x.store(1, Ordering::Release); // ord: demo\n}\n";
        let acquire = "fn g(x: &AtomicU64) {\n\n\n    x.load(Ordering::Acquire); // ord: demo\n}\n";
        let table = StaticTable::from_report(&coup_lint::lint_sources(&[
            ("backend/tests.rs".to_string(), release.to_string()),
            ("runtime/tests.rs".to_string(), acquire.to_string()),
        ]));
        let at = |file, line| SiteId { file, line };
        let backend = at("crates/runtime/src/backend/tests.rs", 2);
        let runtime = at("/abs/crates/runtime/src/runtime/tests.rs", 4);
        assert_eq!(table.exact_entry(backend).unwrap().orderings, ["Release"]);
        assert_eq!(table.exact_entry(runtime).unwrap().orderings, ["Acquire"]);
        // Line 4 is a site of `runtime/tests.rs` only, and line 2's window
        // (2..=6) must not reach across into the other file's line 4.
        assert!(table.exact_entry(at(backend.file, 4)).is_none());
        assert_eq!(table.window_entry(backend).unwrap().line, 2);
        assert!(table.window_entry(at(backend.file, 3)).is_none());
        assert!(table.in_scope(backend) && table.in_scope(runtime));
        assert!(!table.in_scope(at("crates/other/src/backend/tests.rs", 2)));
    }
}
