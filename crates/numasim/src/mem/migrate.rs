//! Rate-limited page migration, queued as **patterned ranges**.
//!
//! Migrations queue up (from `mbind` with move semantics, or from the
//! AutoNUMA daemon) and drain each epoch at a bounded rate, consuming
//! memory-controller and interconnect bandwidth through the fabric: a
//! migration reads the page from its source node and writes it to its
//! destination. This is what makes the DWP tuner's incremental migration
//! *cost* something, reproducing the paper's <= 4 % tuner overhead.
//!
//! The queue stores [`PendingRange`]s — a segment, a page span and a
//! [`MovePattern`] — not individual pages. A pattern is either one
//! `(from, to)` pair for the whole span or a periodic cycle of such slots,
//! which is the shape the paper's Algorithm 1 produces when it rebinds a
//! sub-range into a uniform interleave: one `mbind` queues one range per
//! (extent × policy block) piece instead of one per page. A slot whose
//! page already sat on its target at enqueue time is a *hole*: it is never
//! counted, attempted or moved.
//!
//! The FIFO order over *moved* pages is identical to a per-page queue
//! (ranges are enqueued in ascending page order and split before a moved
//! page on partial completion), so rate limiting, demand accounting and
//! completion behave page for page the same; the per-pair page counts of
//! a partial range are prefix arithmetic over its cycle.

use crate::error::SimError;
use crate::mem::segment::{min_period, slot_count, SegmentId};
use bwap_topology::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// A periodic table of `(from, to)` move slots with the prefix sums that
/// make "how many moved pages" and "where is the i-th moved page" O(1).
/// A slot with `from == to` is a hole.
#[derive(Debug, PartialEq, Eq)]
pub struct MoveCycle {
    slots: Box<[(NodeId, NodeId)]>,
    /// `moved_before[j]`: moved slots among `slots[..j]` (`k + 1` entries,
    /// the last is the per-cycle total).
    moved_before: Box<[u64]>,
    /// Indices of the moved slots, ascending.
    moved_at: Box<[u64]>,
}

impl MoveCycle {
    fn new(slots: &[(NodeId, NodeId)]) -> MoveCycle {
        let mut moved_before = Vec::with_capacity(slots.len() + 1);
        let mut moved_at = Vec::new();
        moved_before.push(0);
        for (j, &(from, to)) in slots.iter().enumerate() {
            if from != to {
                moved_at.push(j as u64);
            }
            moved_before.push(moved_at.len() as u64);
        }
        MoveCycle {
            slots: slots.into(),
            moved_before: moved_before.into(),
            moved_at: moved_at.into(),
        }
    }

    fn period(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Moved slots among the cycle-absolute positions `[0, y)`.
    fn moved_upto(&self, y: u64) -> u64 {
        let k = self.period();
        (y / k) * self.moved_at.len() as u64 + self.moved_before[(y % k) as usize]
    }

    /// Cycle-absolute position of moved slot number `i` (0-based).
    fn moved_pos(&self, i: u64) -> u64 {
        let m = self.moved_at.len() as u64;
        (i / m) * self.period() + self.moved_at[(i % m) as usize]
    }
}

/// What a queued range does to each page it spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MovePattern {
    /// Every page moves `from → to`.
    Const {
        /// Node holding the pages at enqueue time.
        from: NodeId,
        /// Target node.
        to: NodeId,
    },
    /// Page `start + i` of the range follows slot `(phase + i) % period`.
    Cycle {
        /// The shared slot table.
        cycle: Arc<MoveCycle>,
        /// Slot of the range's first page.
        phase: u64,
    },
}

impl MovePattern {
    /// The pattern whose page `i` follows `slots[i % slots.len()]`,
    /// normalized: `None` when every slot is a hole, `Const` when every
    /// slot is the same move, else a `Cycle` of minimal period.
    pub fn from_slots(slots: &[(NodeId, NodeId)]) -> Option<MovePattern> {
        let p = min_period(slots);
        let slots = &slots[..p];
        if slots.iter().all(|&(from, to)| from == to) {
            None
        } else if p == 1 {
            Some(MovePattern::Const { from: slots[0].0, to: slots[0].1 })
        } else {
            Some(MovePattern::Cycle { cycle: Arc::new(MoveCycle::new(slots)), phase: 0 })
        }
    }

    /// Period in pages (1 for `Const`).
    pub(crate) fn period(&self) -> u64 {
        match self {
            MovePattern::Const { .. } => 1,
            MovePattern::Cycle { cycle, .. } => cycle.period(),
        }
    }

    /// The `(from, to)` slot of range-relative page `i`.
    pub(crate) fn slot(&self, i: u64) -> (NodeId, NodeId) {
        match self {
            MovePattern::Const { from, to } => (*from, *to),
            MovePattern::Cycle { cycle, phase } => {
                cycle.slots[((phase + i) % cycle.period()) as usize]
            }
        }
    }

    /// Moved pages among range-relative pages `[a, b)`.
    pub(crate) fn moved_in(&self, a: u64, b: u64) -> u64 {
        match self {
            MovePattern::Const { .. } => b - a,
            MovePattern::Cycle { cycle, phase } => {
                cycle.moved_upto(phase + b) - cycle.moved_upto(phase + a)
            }
        }
    }

    /// Range-relative offset of moved page number `i` (0-based).
    fn moved_offset(&self, i: u64) -> u64 {
        match self {
            MovePattern::Const { .. } => i,
            MovePattern::Cycle { cycle, phase } => {
                cycle.moved_pos(cycle.moved_upto(*phase) + i) - phase
            }
        }
    }

    /// The same pattern seen from range-relative page `off` on.
    fn shifted(&self, off: u64) -> MovePattern {
        match self {
            MovePattern::Const { .. } => self.clone(),
            MovePattern::Cycle { cycle, phase } => {
                MovePattern::Cycle { cycle: cycle.clone(), phase: (phase + off) % cycle.period() }
            }
        }
    }

    /// Every node the pattern names must exist on a `node_count`-node
    /// machine.
    pub(crate) fn validate(&self, node_count: usize) -> Result<(), SimError> {
        let bad = |n: NodeId| n.idx() >= node_count;
        let ok = match self {
            MovePattern::Const { from, to } => !bad(*from) && !bad(*to),
            MovePattern::Cycle { cycle, .. } => {
                cycle.slots.iter().all(|&(from, to)| !bad(from) && !bad(to))
            }
        };
        if ok {
            Ok(())
        } else {
            Err(SimError::InvalidNodes(format!("move pattern names a node >= {node_count}")))
        }
    }
}

/// A queued span of page moves: pages `[start, start + len)` of `segment`,
/// page `start + i` following slot `i` of `pat`. `len` counts holes too;
/// the pages the range moves are [`PendingRange::moved`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingRange {
    /// Segment the pages belong to.
    pub segment: SegmentId,
    /// First page spanned.
    pub start: u64,
    /// Pages spanned, holes included.
    pub len: u64,
    /// Per-page moves; `from` is the node at enqueue time (demand
    /// accounting — completion re-reads the page table).
    pub pat: MovePattern,
}

impl PendingRange {
    /// `len` pages starting at `start`, all moving `from → to`.
    pub fn constant(segment: SegmentId, start: u64, len: u64, from: NodeId, to: NodeId) -> Self {
        PendingRange { segment, start, len, pat: MovePattern::Const { from, to } }
    }

    /// Pages the range moves (holes excluded).
    pub fn moved(&self) -> u64 {
        self.pat.moved_in(0, self.len)
    }

    /// Past-the-end page.
    fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The moved pages in ascending order, as `(page, from, to)`.
    pub fn moves(&self) -> impl Iterator<Item = (u64, NodeId, NodeId)> + '_ {
        (0..self.len).filter_map(|i| {
            let (from, to) = self.pat.slot(i);
            (from != to).then_some((self.start + i, from, to))
        })
    }

    /// The sub-range spanning absolute pages `[a, b)`.
    fn sub(&self, a: u64, b: u64) -> PendingRange {
        debug_assert!(self.start <= a && a <= b && b <= self.end());
        PendingRange {
            segment: self.segment,
            start: a,
            len: b - a,
            pat: self.pat.shifted(a - self.start),
        }
    }

    /// Visit the slots of the first `take` moved pages as
    /// `f(from, to, pages)`, one call per moved slot, in the order the
    /// slots first appear in page order — so a caller tallying pairs sees
    /// them in exactly the order a per-page walk would.
    pub fn for_each_prefix_slot(&self, take: u64, mut f: impl FnMut(NodeId, NodeId, u64)) {
        debug_assert!(take <= self.moved());
        if take == 0 {
            return;
        }
        match &self.pat {
            MovePattern::Const { from, to } => f(*from, *to, take),
            MovePattern::Cycle { cycle, phase } => {
                let k = cycle.period();
                // Pages spanned by the first `take` moved pages.
                let span = self.pat.moved_offset(take - 1) + 1;
                for j in *phase..*phase + span.min(k) {
                    let (from, to) = cycle.slots[(j % k) as usize];
                    if from != to {
                        f(from, to, slot_count(*phase, phase + span, k, j % k));
                    }
                }
            }
        }
    }

    /// Absorb `next` when it continues this range: same segment,
    /// contiguous, and the same pattern carried on in phase.
    pub(crate) fn try_append(&mut self, next: &PendingRange) -> bool {
        if next.segment != self.segment || next.start != self.end() {
            return false;
        }
        let continues = match (&self.pat, &next.pat) {
            (MovePattern::Const { .. }, MovePattern::Const { .. }) => self.pat == next.pat,
            (
                MovePattern::Cycle { cycle: a, phase: pa },
                MovePattern::Cycle { cycle: b, phase: pb },
            ) => a == b && (pa + self.len) % a.period() == *pb,
            _ => false,
        };
        if continues {
            self.len += next.len;
        }
        continues
    }
}

/// Validate a page range against a segment of `segment_len` pages,
/// overflow included.
pub(crate) fn check_range(start: u64, len: u64, segment_len: u64) -> Result<u64, SimError> {
    start.checked_add(len).filter(|&end| end <= segment_len).ok_or(SimError::RangeOutOfBounds {
        start,
        len,
        segment_len,
    })
}

/// FIFO queue of page-move ranges for one process.
#[derive(Debug, Clone, Default)]
pub struct MigrationQueue {
    queue: VecDeque<PendingRange>,
    /// Moved pages across all queued ranges (kept in sync with `queue`).
    pending_pages: u64,
    /// Total pages ever enqueued (stat).
    pub enqueued_total: u64,
    /// Total pages ever migrated (stat).
    pub migrated_total: u64,
}

impl MigrationQueue {
    /// Empty queue.
    pub fn new() -> Self {
        MigrationQueue::default()
    }

    /// Append ranges (deterministic FIFO order). Ranges that move nothing
    /// are dropped; a range continuing the queue tail extends it.
    pub fn enqueue_ranges(&mut self, ranges: impl IntoIterator<Item = PendingRange>) {
        for r in ranges {
            let moved = r.moved();
            if moved == 0 {
                continue;
            }
            self.pending_pages += moved;
            self.enqueued_total += moved;
            if self.queue.back_mut().is_some_and(|back| back.try_append(&r)) {
                continue;
            }
            self.queue.push_back(r);
        }
    }

    /// Pending page count.
    pub fn pending(&self) -> usize {
        self.pending_pages as usize
    }

    /// Number of queued ranges (diagnostics: regular rebinds stay
    /// O(placement blocks), never O(pages)).
    pub fn range_count(&self) -> usize {
        self.queue.len()
    }

    /// Whether no moves are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued ranges in FIFO order (the demand the migration engine
    /// will attempt, front first), without removing them.
    pub fn ranges(&self) -> impl Iterator<Item = &PendingRange> {
        self.queue.iter()
    }

    /// Remove the first `k` moved *pages* from the queue into `out` (those
    /// that completed), splitting the boundary range just before its
    /// `k`-th remaining moved page. Returns the number of pages removed.
    pub fn complete_into(&mut self, k: usize, out: &mut Vec<PendingRange>) -> usize {
        let mut left = (k as u64).min(self.pending_pages);
        let removed = left;
        while left > 0 {
            let front = self.queue.front_mut().expect("pending_pages tracks queue");
            let moved = front.moved();
            if moved <= left {
                left -= moved;
                self.pending_pages -= moved;
                out.push(self.queue.pop_front().expect("non-empty"));
            } else {
                let cut = front.start + front.pat.moved_offset(left);
                out.push(front.sub(front.start, cut));
                *front = front.sub(cut, front.end());
                self.pending_pages -= left;
                left = 0;
            }
        }
        self.migrated_total += removed;
        removed as usize
    }

    /// Remove and return the first `k` pages as ranges (allocating
    /// convenience form of [`MigrationQueue::complete_into`]).
    pub fn complete(&mut self, k: usize) -> Vec<PendingRange> {
        let mut out = Vec::new();
        self.complete_into(k, &mut out);
        out
    }

    /// Drop all pending moves (e.g. when the process exits).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.pending_pages = 0;
    }

    /// Drop pending moves for pages of `segment` in `[start, start+len)`.
    /// A fresh `mbind` over a range supersedes queued moves for it — the
    /// latest policy wins, as with Linux's synchronous `mbind`. Ranges
    /// partially covered are trimmed or split in place. Returns how many
    /// page moves were cancelled. Cancels that touch nothing — e.g. the
    /// paper's Algorithm 1 issuing one `mbind` per *disjoint* sub-range —
    /// cost one read-only pass over the queue, which patterned ranges keep
    /// O(placement blocks) long, and leave it as it is.
    pub fn cancel_range(&mut self, segment: SegmentId, start: u64, len: u64) -> usize {
        if len == 0 {
            return 0;
        }
        let end = start.saturating_add(len);
        if !self.queue.iter().any(|r| r.segment == segment && r.start < end && r.end() > start) {
            return 0;
        }
        let mut cancelled = 0u64;
        let mut kept: VecDeque<PendingRange> = VecDeque::with_capacity(self.queue.len() + 1);
        for r in self.queue.drain(..) {
            if r.segment != segment || r.end() <= start || r.start >= end {
                kept.push_back(r);
                continue;
            }
            let (os, oe) = (r.start.max(start), r.end().min(end));
            cancelled += r.pat.moved_in(os - r.start, oe - r.start);
            for part in [r.sub(r.start, os), r.sub(oe, r.end())] {
                if part.moved() > 0 {
                    kept.push_back(part);
                }
            }
        }
        self.queue = kept;
        self.pending_pages -= cancelled;
        cancelled as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single-page move.
    fn mv(page: u64, from: u16, to: u16) -> PendingRange {
        rg(page, 1, from, to)
    }

    fn rg(start: u64, len: u64, from: u16, to: u16) -> PendingRange {
        PendingRange::constant(SegmentId(0), start, len, NodeId(from), NodeId(to))
    }

    /// A cycle range over pages `[start, start+len)` with slots given as
    /// `(from, to)` pairs.
    fn cyc(start: u64, len: u64, slots: &[(u16, u16)]) -> PendingRange {
        let slots: Vec<(NodeId, NodeId)> =
            slots.iter().map(|&(f, t)| (NodeId(f), NodeId(t))).collect();
        let pat = MovePattern::from_slots(&slots).expect("moves something");
        PendingRange { segment: SegmentId(0), start, len, pat }
    }

    fn pages(ranges: &[PendingRange]) -> Vec<(u64, NodeId, NodeId)> {
        ranges.iter().flat_map(|r| r.moves().collect::<Vec<_>>()).collect()
    }

    #[test]
    fn fifo_order() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([mv(0, 0, 1), mv(1, 0, 1), mv(2, 1, 0)]);
        assert_eq!(q.pending(), 3);
        assert_eq!(q.range_count(), 2, "contiguous same-pair moves coalesce");
        let done = q.complete(2);
        assert_eq!(done, vec![rg(0, 2, 0, 1)]);
        assert_eq!(q.pending(), 1);
        assert_eq!(q.migrated_total, 2);
        assert_eq!(q.enqueued_total, 3);
    }

    #[test]
    fn complete_splits_boundary_range() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 10, 0, 1)]);
        let done = q.complete(4);
        assert_eq!(done, vec![rg(0, 4, 0, 1)]);
        assert_eq!(q.pending(), 6);
        let rest = q.complete(100);
        assert_eq!(rest, vec![rg(4, 6, 0, 1)]);
        assert!(q.is_empty());
        assert_eq!(q.migrated_total, 10);
    }

    #[test]
    fn complete_more_than_pending_is_safe() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([mv(0, 0, 1)]);
        let done = q.complete(10);
        assert_eq!(done.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn ranges_do_not_consume() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([mv(0, 0, 1), mv(1, 1, 2)]);
        let peeked: Vec<_> = q.ranges().cloned().collect();
        assert_eq!(peeked.len(), 2);
        assert_eq!(q.pending(), 2);
    }

    #[test]
    fn clear_empties() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([mv(0, 0, 1)]);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn cancel_range_is_segment_and_range_scoped() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([mv(0, 0, 1), mv(5, 0, 1), mv(10, 0, 1)]);
        q.enqueue_ranges([PendingRange::constant(SegmentId(1), 5, 1, NodeId(0), NodeId(1))]);
        // cancel pages [0, 8) of segment 0
        let cancelled = q.cancel_range(SegmentId(0), 0, 8);
        assert_eq!(cancelled, 2);
        assert_eq!(q.pending(), 2);
        // segment 1's move and segment 0's page 10 survive
        let rest: Vec<_> = q.complete(10);
        assert!(rest.iter().any(|r| r.segment == SegmentId(1)));
        assert!(rest.iter().any(|r| r.start == 10 && r.segment == SegmentId(0)));
    }

    #[test]
    fn cancel_range_splits_covering_range() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([rg(0, 100, 2, 3)]);
        let cancelled = q.cancel_range(SegmentId(0), 40, 20);
        assert_eq!(cancelled, 20);
        assert_eq!(q.pending(), 80);
        let rest = q.complete(1000);
        assert_eq!(rest, vec![rg(0, 40, 2, 3), rg(60, 40, 2, 3)]);
    }

    #[test]
    fn cycle_ranges_count_and_split_moved_pages_only() {
        // Slots: move 0→1, hole on 2, move 0→3 — two moved pages per
        // three-page cycle.
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([cyc(0, 10, &[(0, 1), (2, 2), (0, 3)])]);
        assert_eq!(q.pending(), 7, "pages 0,2,3,5,6,8,9 move");
        assert_eq!(q.range_count(), 1);
        let head = q.complete(3);
        // The head ends just before the 4th moved page (page 5), holding
        // the trailing hole at page 4.
        assert_eq!((head[0].start, head[0].len), (0, 5));
        assert_eq!(pages(&head).iter().map(|m| m.0).collect::<Vec<_>>(), vec![0, 2, 3]);
        let rest = q.complete(100);
        assert_eq!(pages(&rest).iter().map(|m| m.0).collect::<Vec<_>>(), vec![5, 6, 8, 9]);
        assert_eq!(rest[0].pat.slot(0), (NodeId(0), NodeId(3)), "phase carried over");
        assert_eq!(q.migrated_total, 7);
    }

    #[test]
    fn prefix_slots_follow_first_appearance_and_count_exactly() {
        let r = cyc(0, 12, &[(2, 2), (0, 3), (0, 1), (1, 1)]);
        // Moved pages: 1(0→3), 2(0→1), 5(0→3), 6(0→1), 9(0→3), 10(0→1).
        let mut got = Vec::new();
        r.for_each_prefix_slot(3, |f, t, c| got.push((f.0, t.0, c)));
        assert_eq!(got, vec![(0, 3, 2), (0, 1, 1)]);
        got.clear();
        r.sub(2, 12).for_each_prefix_slot(1, |f, t, c| got.push((f.0, t.0, c)));
        assert_eq!(got, vec![(0, 1, 1)], "a shifted range starts mid-cycle");
    }

    #[test]
    fn cancel_range_counts_moved_pages_in_cycles() {
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([cyc(0, 20, &[(0, 1), (1, 1)])]);
        assert_eq!(q.pending(), 10);
        // Pages 5..9 hold moved pages 6 and 8.
        assert_eq!(q.cancel_range(SegmentId(0), 5, 4), 2);
        assert_eq!(q.pending(), 8);
        let left = pages(&q.complete(100));
        assert_eq!(left.iter().map(|m| m.0).collect::<Vec<_>>(), vec![0, 2, 4, 10, 12, 14, 16, 18]);
    }

    #[test]
    fn contiguous_cycle_continuations_coalesce() {
        let whole = cyc(0, 9, &[(0, 1), (0, 2), (3, 3)]);
        let mut q = MigrationQueue::new();
        q.enqueue_ranges([whole.sub(0, 4), whole.sub(4, 9)]);
        assert_eq!(q.range_count(), 1);
        assert_eq!(q.pending() as u64, whole.moved());
    }

    #[test]
    fn from_slots_normalizes() {
        let n = NodeId;
        assert_eq!(MovePattern::from_slots(&[(n(1), n(1)), (n(2), n(2))]), None);
        assert_eq!(
            MovePattern::from_slots(&[(n(0), n(1)), (n(0), n(1))]),
            Some(MovePattern::Const { from: n(0), to: n(1) })
        );
        let p = MovePattern::from_slots(&[(n(0), n(1)), (n(2), n(2)), (n(0), n(1)), (n(2), n(2))])
            .unwrap();
        assert_eq!(p.period(), 2, "minimal period");
    }

    #[test]
    fn range_checks_reject_overflow() {
        assert!(check_range(u64::MAX, 2, 10).is_err());
        assert!(check_range(3, 8, 10).is_err());
        assert_eq!(check_range(3, 7, 10), Ok(10));
    }
}
