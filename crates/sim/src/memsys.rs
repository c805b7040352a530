//! The coherent memory hierarchy: functional data movement plus a
//! critical-path timing model of the system in Fig. 9 / Table 1.
//!
//! # Model
//!
//! Coherence is *functionally exact*: every private cache's state, data copy
//! or partial-update buffer, and the directory's sharer sets are tracked, and
//! every load observes exactly the value produced by the coherence protocol
//! (including reductions of partial updates). Workloads can therefore assert
//! the correctness of their results under both MESI and MEUSI.
//!
//! Timing is a critical-path model:
//!
//! * each access is charged the Table 1 latency of every level it touches;
//! * third-party actions (invalidations, downgrades, reductions) add their
//!   round-trip and reduction-unit latencies to the critical path, computed
//!   *hierarchically*: cores within the requester's chip are handled by the
//!   chip's L3 bank, remote chips are handled through the L4, and partial
//!   updates are aggregated per chip before a final reduction at the L4
//!   (§3.2, "Deeper cache hierarchies");
//! * transactions that require third-party actions on the same line are
//!   serialised (the line "ping-pongs"), which is what makes contended atomic
//!   updates take hundreds of cycles at high core counts under MESI, while
//!   same-operation commutative updates under MEUSI proceed concurrently.
//!
//! A private copy is settled only when it leaves its core's private cache:
//! a Modified copy is written back, an update-only partial is reduced into
//! the line, and a clean copy is dropped (§3.1.2–3.2). Every departure, be it
//! an L2 victim, an invalidation, a reduction or an inclusive L3 recall, goes
//! through one helper that does this fold. An eviction (an L2 victim, or a
//! copy an L3 recall purges) goes through one more, which also charges the
//! copy's message and reduction by its state, so a recalled copy costs what
//! the same copy costs as a victim.
//!
//! Structural simplifications: the directory is complete (no
//! directory-capacity evictions), the sharer set is tracked flat per core
//! with chip grouping derived from core ids, and dirty victims are drained
//! through an unbounded write buffer (off the critical path).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use coup_cache::array::{CacheArray, InsertOutcome};
use coup_protocol::access::AccessType;
use coup_protocol::directory::DirectoryEntry;
use coup_protocol::line::{LineAddr, LineData};
use coup_protocol::ops::CommutativeOp;
use coup_protocol::stable::{local_hit_transition, serve_request, OwnerAction, RequestPlan};
use coup_protocol::state::{DirMode, PrivateState, ProtocolKind};
use coup_protocol::stats::ProtocolStats;

use crate::config::SystemConfig;
use crate::stats::{LatencyBreakdown, TrafficStats};

/// Size, in bytes, of a coherence control message (requests, invalidations, acks).
const CTRL_MSG_BYTES: u64 = 8;
/// Size, in bytes, of a data-carrying message (a cache line plus header).
const DATA_MSG_BYTES: u64 = 72;

/// A map keyed by line address. The keys are simulated addresses, not
/// untrusted input, so one multiply hashes them, the same way on every run.
type LineMap<V> = HashMap<LineAddr, V, BuildHasherDefault<LineHasher>>;

/// Multiply-shift hashing of a `u64` key: the product's high bits mix every
/// key bit, and `finish` rotates them into the low bits that pick a bucket.
#[derive(Debug, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a line map hashes only `LineAddr`'s one u64");
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// What the hierarchy knows of one line beyond the caches' residency: its
/// directory entry, memory's copy, and when the last transaction serialised
/// on it completes. A line with no record reads uncached, zero and 0.
#[derive(Debug, Clone, Copy, Default)]
struct LineRecord {
    entry: DirectoryEntry,
    data: LineData,
    busy_until: u64,
}

/// One private cache line: coherence state plus its payload.
#[derive(Debug, Clone, Copy, Default)]
struct PrivateLine {
    state: PrivateState,
    data: LineData,
}

/// Per-core private cache model: an L1 residency filter (timing only) and the
/// L2, which is the core's coherence point and holds state plus data.
#[derive(Debug)]
struct PrivateCache {
    l1: CacheArray<()>,
    l2: CacheArray<PrivateLine>,
}

/// The result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessResult {
    /// The 64-bit word observed by a load or returned (old value) by an atomic
    /// read-modify-write; zero for stores and commutative updates.
    pub value: u64,
    /// Cycle at which the access completed (the issuing core's new clock).
    pub completes_at: u64,
    /// Critical-path latency breakdown of this access.
    pub latency: LatencyBreakdown,
    /// Whether the access hit in the private cache without a coherence
    /// transaction.
    pub private_hit: bool,
}

/// The coherent memory hierarchy shared by all cores.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: SystemConfig,
    protocol: ProtocolKind,
    lines: LineMap<LineRecord>,
    private: Vec<PrivateCache>,
    l3_resident: Vec<CacheArray<()>>,
    l4_resident: Vec<CacheArray<()>>,
    /// Per chip, one transaction's (invalidations, reductions) there; zero between.
    remote_chips: Vec<(usize, usize)>,
    protocol_stats: ProtocolStats,
    traffic: TrafficStats,
    reduction_cycles: u64,
}

impl MemorySystem {
    /// Builds an empty memory system (all memory reads as zero) for the given
    /// configuration.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> Self {
        let private = (0..cfg.cores)
            .map(|_| PrivateCache {
                l1: CacheArray::new(cfg.capacity.l1_geometry()),
                l2: CacheArray::new(cfg.capacity.l2_geometry()),
            })
            .collect();
        let chips = cfg.chips();
        MemorySystem {
            protocol: cfg.protocol,
            lines: LineMap::default(),
            private,
            l3_resident: (0..chips)
                .map(|_| CacheArray::new(cfg.capacity.l3_geometry()))
                .collect(),
            l4_resident: (0..chips)
                .map(|_| CacheArray::new(cfg.capacity.l4_geometry()))
                .collect(),
            remote_chips: vec![(0, 0); chips],
            protocol_stats: ProtocolStats::new(),
            traffic: TrafficStats::default(),
            reduction_cycles: 0,
            cfg,
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Protocol event counters accumulated so far.
    #[must_use]
    pub fn protocol_stats(&self) -> ProtocolStats {
        self.protocol_stats
    }

    /// Traffic counters accumulated so far.
    #[must_use]
    pub fn traffic(&self) -> TrafficStats {
        self.traffic
    }

    /// Total critical-path cycles spent in reduction units so far.
    #[must_use]
    pub fn reduction_cycles(&self) -> u64 {
        self.reduction_cycles
    }

    /// Directly writes a 64-bit word to memory, bypassing timing. Used to
    /// initialise workload data structures before the timed region.
    ///
    /// # Panics
    ///
    /// Panics if `byte_addr` is not 8-byte aligned.
    pub fn poke(&mut self, byte_addr: u64, value: u64) {
        assert_eq!(byte_addr % 8, 0, "poke address must be word-aligned");
        let line = LineAddr::containing(byte_addr);
        let word = (line.offset_of(byte_addr)) / 8;
        self.record_mut(line).data.set_word(word, value);
    }

    /// Reads the *coherent* value of the 64-bit word at `byte_addr`, bypassing
    /// timing: partial updates buffered in private caches and dirty private
    /// copies are taken into account. Used to check workload results after the
    /// timed region without disturbing statistics.
    ///
    /// # Panics
    ///
    /// Panics if `byte_addr` is not 8-byte aligned.
    #[must_use]
    pub fn peek(&self, byte_addr: u64) -> u64 {
        assert_eq!(byte_addr % 8, 0, "peek address must be word-aligned");
        let line = LineAddr::containing(byte_addr);
        let word_idx = line.offset_of(byte_addr) / 8;
        let LineRecord { entry, data, .. } = self.record(line);
        match entry.mode() {
            DirMode::Exclusive => {
                let owner = entry.sharers().sole_member().expect("exclusive owner");
                let line_data = self.private[owner].l2.peek(line).map_or(data, |p| p.data);
                line_data.word(word_idx)
            }
            DirMode::UpdateOnly(op) => {
                let mut acc = data;
                for core in entry.sharers().iter() {
                    if let Some(p) = self.private[core].l2.peek(line) {
                        acc.reduce_from(op, &p.data);
                    }
                }
                acc.word(word_idx)
            }
            _ => data.word(word_idx),
        }
    }

    /// Performs one memory access issued by `core` at time `now`.
    ///
    /// `operand` is the store value or the commutative/atomic operand;
    /// `op` is the commutative operation for atomic and commutative accesses.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or the address is not aligned to the
    /// access width.
    pub fn access(
        &mut self,
        core: usize,
        now: u64,
        access: AccessType,
        byte_addr: u64,
        operand: u64,
    ) -> AccessResult {
        self.perform(core, now, access, access, byte_addr, operand)
    }

    /// Performs a conventional atomic read-modify-write (e.g. fetch-and-add,
    /// `lock or`): requires exclusive permission under *every* protocol, applies
    /// `op` with `operand`, and returns the old value.
    ///
    /// This is the instruction the paper's baseline implementations use; COUP
    /// workloads use [`MemorySystem::access`] with
    /// [`AccessType::CommutativeUpdate`] instead.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or the address is misaligned.
    pub fn atomic_rmw(
        &mut self,
        core: usize,
        now: u64,
        op: CommutativeOp,
        byte_addr: u64,
        operand: u64,
    ) -> AccessResult {
        let functional = AccessType::CommutativeUpdate(op);
        self.perform(core, now, AccessType::Write, functional, byte_addr, operand)
    }

    /// Performs an access that needs `permission` and does `functional`.
    fn perform(
        &mut self,
        core: usize,
        now: u64,
        permission: AccessType,
        functional: AccessType,
        byte_addr: u64,
        operand: u64,
    ) -> AccessResult {
        assert!(core < self.cfg.cores, "core {core} out of range");
        // Fast path: the private cache can satisfy the access.
        if let Some(result) =
            self.private_hit(core, now, permission, functional, byte_addr, operand)
        {
            return result;
        }
        self.coherence_transaction(core, now, permission, functional, byte_addr, operand)
    }

    /// `line`'s record; the default one if it has none.
    fn record(&self, line: LineAddr) -> LineRecord {
        self.lines.get(&line).copied().unwrap_or_default()
    }

    /// `line`'s record, made if it has none.
    fn record_mut(&mut self, line: LineAddr) -> &mut LineRecord {
        self.lines.entry(line).or_default()
    }

    /// `core`'s private copy of `line` leaves its L1 and L2 and is folded
    /// into the line's record by state: a Modified copy is written back, an
    /// update-only partial is reduced in, a clean copy is dropped. `evicted`
    /// is the copy when an L2 insert has already given it up as its victim.
    /// Returns the departed copy's state, `None` if the core held none.
    fn depart(
        &mut self,
        core: usize,
        line: LineAddr,
        evicted: Option<PrivateLine>,
    ) -> Option<PrivateState> {
        let _ = self.private[core].l1.remove(line);
        let copy = evicted.or_else(|| self.private[core].l2.remove(line))?;
        let data = &mut self.record_mut(line).data;
        match copy.state {
            PrivateState::Modified => *data = copy.data,
            PrivateState::UpdateOnly(op) => data.reduce_from(op, &copy.data),
            _ => {}
        }
        Some(copy.state)
    }

    /// `core`'s copy of `line` is evicted: it departs, the directory forgets
    /// the core, and the departure is charged by the copy's state. A clean
    /// copy sends a control message, a Modified one writes its data back, an
    /// update-only one sends its partial for a partial reduction (Fig. 5c).
    /// `evicted` is as for [`Self::depart`].
    fn evict(&mut self, core: usize, line: LineAddr, evicted: Option<PrivateLine>) {
        let state = self
            .depart(core, line, evicted)
            .expect("cannot evict an invalid line");
        self.record_mut(line).entry.remove_sharer(core);
        match state {
            PrivateState::Modified => {
                self.traffic.onchip_bytes += DATA_MSG_BYTES;
                self.protocol_stats.writebacks += 1;
            }
            PrivateState::UpdateOnly(_) => {
                self.traffic.onchip_bytes += DATA_MSG_BYTES;
                self.protocol_stats.partial_reductions += 1;
                self.protocol_stats.lines_reduced += 1;
                self.reduction_cycles += self.cfg.reduction_unit.latency_per_line();
            }
            _ => self.traffic.onchip_bytes += CTRL_MSG_BYTES,
        }
    }

    // ---- hit path ------------------------------------------------------

    /// Serves the access from `core`'s private caches if its L2 copy
    /// satisfies `permission`, in one L2 lookup that touches recency only
    /// on a hit; `None` leaves every cache as it was, for the coherence
    /// path.
    fn private_hit(
        &mut self,
        core: usize,
        now: u64,
        permission: AccessType,
        functional: AccessType,
        byte_addr: u64,
        operand: u64,
    ) -> Option<AccessResult> {
        let line = LineAddr::containing(byte_addr);
        let private = &mut self.private[core];
        let p = private
            .l2
            .get_mut_if(line, |p| p.state.satisfies(permission))?;
        let lat = self.cfg.latency;
        let mut breakdown = LatencyBreakdown {
            l1: lat.l1 as f64,
            ..Default::default()
        };
        // An L1 hit touches recency; a miss fills the L1 residency filter
        // (its own victims are silent).
        if private.l1.get(line).is_none() {
            breakdown.l2 = lat.l2 as f64;
            let _ = private.l1.insert(line, ());
        }

        let value =
            apply_access_to_line(&mut p.data, p.state, functional, byte_addr, operand, line);
        let next_state = local_hit_transition(p.state, permission);
        p.state = next_state;
        if functional.is_commutative() && matches!(next_state, PrivateState::UpdateOnly(_)) {
            self.protocol_stats.local_commutative_hits += 1;
        }

        let total = breakdown.total() as u64;
        Some(AccessResult {
            value,
            completes_at: now + total,
            latency: breakdown,
            private_hit: true,
        })
    }

    // ---- miss / coherence path ------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn coherence_transaction(
        &mut self,
        core: usize,
        now: u64,
        permission: AccessType,
        functional: AccessType,
        byte_addr: u64,
        operand: u64,
    ) -> AccessResult {
        let line = LineAddr::containing(byte_addr);
        let lat = self.cfg.latency;
        let chip = self.cfg.chip_of(core);
        let entry = self.record(line).entry;
        let plan = serve_request(self.protocol, &entry, core, permission);

        // ---- timing ----
        let mut breakdown = LatencyBreakdown {
            l1: lat.l1 as f64,
            l2: lat.l2 as f64,
            l3: lat.l3 as f64,
            ..Default::default()
        };
        // On-chip request traffic (core -> L3).
        self.traffic.onchip_bytes += CTRL_MSG_BYTES;

        // Group third parties by chip.
        let mut local_invalidations = 0usize;
        let mut local_reductions = 0usize;
        let mut any_remote = false;
        let owner = plan.owner_action.map(|(owner, _)| owner);
        for c in plan.invalidate_readers.iter().chain(owner) {
            let c_chip = self.cfg.chip_of(c);
            if c_chip == chip {
                local_invalidations += 1;
            } else {
                any_remote = true;
                self.remote_chips[c_chip].0 += 1;
            }
        }
        for c in plan.reduce_from.iter() {
            let c_chip = self.cfg.chip_of(c);
            if c_chip == chip {
                local_reductions += 1;
            } else {
                any_remote = true;
                self.remote_chips[c_chip].1 += 1;
            }
        }

        // Does the transaction need the L4 (global directory / home node)?
        let l3_has_line = self.l3_resident[chip].contains(line);
        let needs_l4 = any_remote || !l3_has_line;

        // On-chip third-party actions: handled by the chip's L3 directory.
        if local_invalidations + local_reductions > 0 {
            // Invalidation round trip within the chip.
            breakdown.l3 += lat.l3 as f64;
            self.traffic.onchip_bytes +=
                (local_invalidations + local_reductions) as u64 * CTRL_MSG_BYTES;
            self.traffic.onchip_bytes += local_invalidations as u64 * CTRL_MSG_BYTES;
            self.traffic.onchip_bytes += local_reductions as u64 * DATA_MSG_BYTES;
            if local_reductions > 0 {
                let r = self.cfg.reduction_unit.reduction_latency(local_reductions);
                breakdown.l3 += r as f64;
                self.reduction_cycles += r;
            }
        }

        if needs_l4 {
            // Round trip to the home L4 chip.
            breakdown.network += 2.0 * lat.network as f64;
            breakdown.l4 += lat.l4 as f64;
            self.traffic.offchip_bytes += CTRL_MSG_BYTES; // request
            self.traffic.offchip_bytes += DATA_MSG_BYTES; // response (data or grant)

            // L4 miss goes to main memory.
            let l4_home = chip % self.l4_resident.len();
            if !self.l4_resident[l4_home].contains(line) {
                breakdown.memory += lat.memory as f64;
                self.traffic.memory_bytes += DATA_MSG_BYTES;
                let _ = self.l4_resident[l4_home].insert(line, ());
            } else {
                let _ = self.l4_resident[l4_home].get(line);
            }

            // Remote-chip invalidations / downgrades / reductions issued by the
            // global directory: chips are handled in parallel, so the critical
            // path is the slowest chip plus the final aggregation at the L4.
            if any_remote {
                let mut worst_chip = 0u64;
                let mut partial_lines_at_l4 = 0usize;
                for rchip in 0..self.remote_chips.len() {
                    let (invals, reds) = std::mem::take(&mut self.remote_chips[rchip]);
                    if invals + reds == 0 {
                        continue;
                    }
                    // L4 -> remote chip -> cores -> back: one network round trip
                    // plus the remote L3's fan-out.
                    let mut t = 2 * lat.network + lat.l3;
                    self.traffic.offchip_bytes += CTRL_MSG_BYTES;
                    self.traffic.offchip_bytes += invals as u64 * CTRL_MSG_BYTES;
                    if reds > 0 {
                        let r = self.cfg.reduction_unit.reduction_latency(reds);
                        t += r;
                        self.reduction_cycles += r;
                        partial_lines_at_l4 += 1;
                        self.traffic.offchip_bytes += DATA_MSG_BYTES;
                    } else {
                        self.traffic.offchip_bytes += CTRL_MSG_BYTES;
                    }
                    worst_chip = worst_chip.max(t);
                }
                if local_reductions > 0 {
                    partial_lines_at_l4 += 1;
                }
                if partial_lines_at_l4 > 0 {
                    let r = self
                        .cfg
                        .reduction_unit
                        .reduction_latency(partial_lines_at_l4);
                    worst_chip += r;
                    self.reduction_cycles += r;
                }
                breakdown.l4_invalidations += worst_chip as f64;
            }
        } else {
            // Served entirely within the chip; data comes from the L3.
            let _ = self.l3_resident[chip].get(line);
        }
        // The line is (now) resident in the requester chip's L3.
        self.install_in_l3(chip, line);

        // ---- serialisation ----
        // Transactions with third-party actions, and any transaction that
        // changes who may write the line, serialise on the line.
        let contended = !plan.silent;
        let busy = self.record(line).busy_until;
        let start = if contended { now.max(busy) } else { now };
        let wait = start.saturating_sub(now);
        if wait > 0 {
            // Attribute the serialisation wait to the component that caused it.
            if needs_l4 {
                breakdown.l4_invalidations += wait as f64;
            } else {
                breakdown.l3 += wait as f64;
            }
        }
        let completes_at = now + breakdown.total() as u64;
        if contended {
            self.record_mut(line).busy_until = completes_at;
        }

        // ---- protocol statistics ----
        if plan.silent {
            self.protocol_stats.silent_grants += 1;
        } else {
            self.protocol_stats.invalidating_grants += 1;
        }
        self.protocol_stats.copies_invalidated += plan.invalidate_readers.len() as u64;
        if plan.owner_action.is_some() {
            self.protocol_stats.owner_interventions += 1;
        }
        if !plan.reduce_from.is_empty() {
            self.protocol_stats.full_reductions += 1;
            self.protocol_stats.lines_reduced += plan.reduce_from.len() as u64;
        }
        if matches!(plan.grant, PrivateState::UpdateOnly(_)) {
            self.protocol_stats.update_only_grants += 1;
        }

        // ---- functional execution of the plan ----
        let value = self.execute_plan(core, line, &plan, functional, byte_addr, operand);

        AccessResult {
            value,
            completes_at,
            latency: breakdown,
            private_hit: false,
        }
    }

    /// Applies the data movement described by `plan` and performs the access.
    fn execute_plan(
        &mut self,
        core: usize,
        line: LineAddr,
        plan: &RequestPlan,
        access: AccessType,
        byte_addr: u64,
        operand: u64,
    ) -> u64 {
        // 1. Collect partial updates (full reduction) and invalidate
        //    read-only copies.
        for c in plan
            .reduce_from
            .iter()
            .chain(plan.invalidate_readers.iter())
        {
            let _ = self.depart(c, line, None);
        }

        // 2. Owner action: the owner hands its data value over, and keeps a
        //    copy unless it is invalidated. Only a Modified owner's copy is
        //    a writeback; a clean Exclusive one adds nothing to memory.
        if let Some((owner, action)) = plan.owner_action {
            let owned = if action == OwnerAction::InvalidateWithData {
                self.depart(owner, line, None)
            } else if let Some(p) = self.private[owner].l2.peek_mut(line) {
                let owned = p.state;
                self.lines.entry(line).or_default().data = p.data;
                p.state = PrivateState::Shared;
                if let OwnerAction::DowngradeToUpdateOnly(op) = action {
                    p.state = PrivateState::UpdateOnly(op);
                    p.data = LineData::identity(op);
                    self.protocol_stats.update_only_grants += 1;
                }
                Some(owned)
            } else {
                None
            };
            if owned == Some(PrivateState::Modified) {
                self.protocol_stats.writebacks += 1;
            }
        }

        // 3. Install the granted line at the requester.
        let granted_data = match plan.grant {
            PrivateState::UpdateOnly(op) => LineData::identity(op),
            _ => self.record(line).data,
        };
        let mut new_line = PrivateLine {
            state: plan.grant,
            data: granted_data,
        };

        // Perform the access on the freshly granted copy.
        let value = apply_access_to_line(
            &mut new_line.data,
            new_line.state,
            access,
            byte_addr,
            operand,
            line,
        );
        // A write/atomic on an E grant leaves the copy Modified.
        if (matches!(access, AccessType::Write)
            || (matches!(access, AccessType::CommutativeUpdate(_))
                && new_line.state.has_data_value()))
            && matches!(
                new_line.state,
                PrivateState::Exclusive | PrivateState::Modified
            )
        {
            new_line.state = PrivateState::Modified;
        }

        // 4. Update the directory, then install the copy in the L2, whose
        //    victim is evicted.
        self.record_mut(line).entry = plan.next_entry;
        let l2 = &mut self.private[core].l2;
        if let InsertOutcome::Evicted { addr, payload } = l2.insert(line, new_line) {
            self.evict(core, addr, Some(payload));
        }
        let _ = self.private[core].l1.insert(line, ());

        value
    }

    /// Marks a line resident in a chip's L3, handling inclusive recalls of the
    /// victim it displaces.
    fn install_in_l3(&mut self, chip: usize, line: LineAddr) {
        if self.l3_resident[chip].contains(line) {
            return;
        }
        let InsertOutcome::Evicted { addr, .. } = self.l3_resident[chip].insert(line, ()) else {
            return;
        };
        // Inclusive hierarchy: a victim this chip's cores hold is recalled.
        let sharers = self.record(addr).entry.sharers();
        if !sharers.iter().any(|c| self.cfg.chip_of(c) == chip) {
            return;
        }
        // Every holder's copy is evicted, other chips' too, which leaves the
        // line uncached. (A precise model would keep copies in other chips;
        // collapsing the whole entry is a conservative simplification that
        // only triggers under L3 capacity pressure.)
        for c in sharers.iter() {
            self.evict(c, addr, None);
        }
    }
}

/// Applies an access to a private line's payload and returns the observed value.
fn apply_access_to_line(
    data: &mut LineData,
    state: PrivateState,
    access: AccessType,
    byte_addr: u64,
    operand: u64,
    line: LineAddr,
) -> u64 {
    let word_offset = (line.offset_of(byte_addr) / 8) * 8;
    match access {
        AccessType::Read => data.word(word_offset / 8),
        AccessType::Write => {
            data.set_word(word_offset / 8, operand);
            0
        }
        AccessType::CommutativeUpdate(op) => {
            let lane_offset =
                line.offset_of(byte_addr) - line.offset_of(byte_addr) % op.width().bytes();
            if state.has_data_value() || matches!(state, PrivateState::UpdateOnly(_)) {
                // Atomic fetch-and-op semantics need the old value; commutative
                // updates discard it, so returning it unconditionally is
                // harmless and lets AtomicRmw reuse this path.
                let old = data.lane(op, lane_offset);
                data.apply_update(op, lane_offset, operand);
                old
            } else {
                0
            }
        }
    }
}

#[cfg(test)]
mod tests;
