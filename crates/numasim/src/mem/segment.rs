//! Virtual memory segments and their page-to-node mapping, kept as
//! run-length **extents** instead of a per-page array.
//!
//! # Representation
//!
//! A segment's placement is a sorted, disjoint, covering list of
//! extents. Each extent maps a contiguous page range either to one
//! node (`Const`) or to a repeating node cycle (`Cycle` — the periodic
//! pattern a round-robin interleave produces, stored once instead of per
//! page). The paper's placement policies are piecewise-regular, so real
//! layouts compress to a handful of extents: a 1M-page
//! weighted-interleave segment is one `Const` extent per positive-weight
//! node, not a megabyte of `u16`s.
//!
//! # Invariants
//!
//! * extents are sorted by `start`, disjoint, and cover `[0, len)`;
//! * every extent has `len > 0`; `Cycle` patterns have their minimal
//!   period ≥ 2 (period-1 cycles normalize to `Const`);
//! * adjacent extents fuse on write when one rule covers both;
//! * `node_counts` always equals the histogram implied by the extents.
//!
//! All mutators preserve the exact page-to-node mapping the historical
//! per-page implementation produced — placement math binary-searches the
//! *same* `MemPolicy::target_node` predicate rather than re-deriving
//! boundaries in floating point, and batched frame allocation replicates
//! the per-page spill loop (see `place`). Migration keeps the
//! representation regular on its own: `non_complying_runs` queues one
//! patterned range per (extent × policy block) piece, and
//! `migrate_range` completes it with one patterned splice, so rebinding
//! into an interleave leaves `Cycle` extents behind rather than per-page
//! fragments. The golden campaign reports pin this equivalence
//! end-to-end.

use crate::error::SimError;
use crate::mem::frames::FramePools;
use crate::mem::migrate::{check_range, MovePattern, PendingRange};
use crate::mem::policy::MemPolicy;
use bwap_topology::NodeId;

/// Identifier of a segment within one process's address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub usize);

/// What a segment holds, which decides who accesses it in the demand model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Shared data accessed uniformly by all threads (the paper's shared
    /// pages assumption).
    Shared,
    /// Thread-private data of one thread (index within the process).
    Private {
        /// Index of the owning thread.
        thread: usize,
    },
}

/// Node-assignment rule of one extent (or of one policy block).
#[derive(Debug, Clone, PartialEq)]
enum Pattern {
    /// Every page of the extent lives on one node.
    Const(NodeId),
    /// Page `p` (extent-relative) lives on `nodes[p % nodes.len()]` — the
    /// shape a round-robin interleave (possibly with spill substitutions)
    /// lays down. The phase is folded into the rotation of `nodes`.
    Cycle(Box<[NodeId]>),
}

impl Pattern {
    /// The rule "page `p` lives on `nodes[p % nodes.len()]`", normalized
    /// to its minimal period (`Const` when that is 1).
    fn cycle(nodes: &[NodeId]) -> Pattern {
        match min_period(nodes) {
            1 => Pattern::Const(nodes[0]),
            p => Pattern::Cycle(nodes[..p].into()),
        }
    }

    fn period(&self) -> u64 {
        match self {
            Pattern::Const(_) => 1,
            Pattern::Cycle(nodes) => nodes.len() as u64,
        }
    }

    /// Node of relative page `rel`.
    fn node(&self, rel: u64) -> NodeId {
        match self {
            Pattern::Const(n) => *n,
            Pattern::Cycle(nodes) => nodes[(rel % nodes.len() as u64) as usize],
        }
    }
}

/// Smallest `p` dividing `s.len()` with `s` made of `s[..p]` repeated.
pub(crate) fn min_period<T: PartialEq>(s: &[T]) -> usize {
    let k = s.len();
    (1..k).find(|&p| k % p == 0 && (p..k).all(|j| s[j] == s[j - p])).unwrap_or(k)
}

fn lcm(a: u64, b: u64) -> u64 {
    let (mut x, mut y) = (a, b);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    a / x * b
}

/// A run of contiguous pages sharing one placement rule.
#[derive(Debug, Clone, PartialEq)]
struct Extent {
    start: u64,
    len: u64,
    pat: Pattern,
}

impl Extent {
    /// Node of absolute page `page` (must lie inside the extent).
    fn node_at(&self, page: u64) -> NodeId {
        debug_assert!(page >= self.start && page < self.start + self.len);
        self.pat.node(page - self.start)
    }

    fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Absorb `next` (which starts where this extent ends) when one rule
    /// covers both: this extent's rule carried on over `next`, or —
    /// typically for a short stub — `next`'s rule carried back over this
    /// one. Both rules are periodic, so one common period of comparisons
    /// decides.
    fn try_fuse(&mut self, next: &Extent) -> bool {
        let k = lcm(self.pat.period(), next.pat.period());
        if (0..next.len.min(k)).all(|j| next.pat.node(j) == self.pat.node(self.len + j)) {
            self.len += next.len;
            return true;
        }
        let p = next.pat.period();
        let before = |j: u64| next.pat.node(p - j % p); // `j` pages before `next`
        if (1..=self.len.min(k)).all(|j| self.pat.node(self.len - j) == before(j)) {
            self.pat = match &next.pat {
                Pattern::Const(n) => Pattern::Const(*n),
                Pattern::Cycle(_) => {
                    let shift = p - self.len % p;
                    Pattern::Cycle((0..p).map(|i| next.pat.node(i + shift)).collect())
                }
            };
            self.len += next.len;
            return true;
        }
        false
    }

    /// Visit `(node, pages)` counts for the absolute sub-range `[a, b)`.
    fn for_each_count(&self, a: u64, b: u64, mut f: impl FnMut(NodeId, u64)) {
        debug_assert!(a >= self.start && b <= self.end() && a <= b);
        if a == b {
            return;
        }
        match &self.pat {
            Pattern::Const(n) => f(*n, b - a),
            Pattern::Cycle(nodes) => {
                let k = nodes.len() as u64;
                let (ra, rb) = (a - self.start, b - self.start);
                for (j, &n) in nodes.iter().enumerate() {
                    let c = slot_count(ra, rb, k, j as u64);
                    if c > 0 {
                        f(n, c);
                    }
                }
            }
        }
    }
}

/// Append `e` to `out`, fusing it into the tail extent when one rule
/// covers both.
fn push_fused(out: &mut Vec<Extent>, e: Extent) {
    if !out.last_mut().is_some_and(|last| last.try_fuse(&e)) {
        out.push(e);
    }
}

/// Number of integers `i` in `[a, b)` with `i % k == j`.
pub(crate) fn slot_count(a: u64, b: u64, k: u64, j: u64) -> u64 {
    let upto = |x: u64| if x <= j { 0 } else { (x - j - 1) / k + 1 };
    upto(b) - upto(a)
}

/// Decompose `policy` over a range of `range_len` pages into blocks of
/// regular structure, each `(rel_start, len, pattern)` with the pattern
/// relative to the *whole policy range*. Exactly mirrors
/// `MemPolicy::target_node` page by page: weighted-interleave block
/// boundaries are found by binary search over the *original* per-page
/// predicate (its mapping is monotone in the page index), so no float
/// re-derivation can drift from the historical placement.
fn policy_blocks(policy: &MemPolicy, range_len: u64, toucher: NodeId) -> Vec<(u64, u64, Pattern)> {
    if range_len == 0 {
        return Vec::new();
    }
    match policy {
        MemPolicy::FirstTouch => vec![(0, range_len, Pattern::Const(toucher))],
        MemPolicy::Bind(n) => vec![(0, range_len, Pattern::Const(*n))],
        MemPolicy::Interleave(set) => {
            let nodes = set.to_vec();
            if nodes.len() == 1 {
                vec![(0, range_len, Pattern::Const(nodes[0]))]
            } else {
                vec![(0, range_len, Pattern::Cycle(nodes.into()))]
            }
        }
        MemPolicy::WeightedInterleave(_) => {
            let mut blocks = Vec::new();
            let mut cur = 0u64;
            while cur < range_len {
                let node = policy.target_node(cur, range_len, toucher);
                // First index past `cur` with a different target.
                let (mut lo, mut hi) = (cur, range_len);
                while lo + 1 < hi {
                    let mid = lo + (hi - lo) / 2;
                    if policy.target_node(mid, range_len, toucher) == node {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                blocks.push((cur, hi - cur, Pattern::Const(node)));
                cur = hi;
            }
            blocks
        }
    }
}

/// A contiguous range of virtual pages, each mapped to a physical node.
/// All pages are populated at creation (the paper's applications touch
/// their full working set during initialization, before `BWAP-init`).
#[derive(Debug, Clone)]
pub struct Segment {
    kind: SegmentKind,
    /// Length in pages.
    len: u64,
    /// Sorted, disjoint, covering placement runs.
    extents: Vec<Extent>,
    /// Cached histogram: pages per node.
    node_counts: Vec<u64>,
}

impl Segment {
    /// Allocate and place `len` pages under `policy`. `toucher` is the node
    /// of the first-touching thread (the master thread for shared segments,
    /// the owner for private ones). `fallback` gives the spill order when
    /// the target node is full (nearest-first, like Linux zone fallback).
    ///
    /// The placement is computed analytically per policy block — a
    /// million-page bind is a handful of pool operations — but lands every
    /// page on exactly the node the historical page-at-a-time loop chose:
    /// free counts only shrink during placement, so "first node of
    /// `[target] + fallback` with a free frame" is constant between pool
    /// exhaustions and whole runs can be granted at once (see
    /// [`FramePools::alloc_run`]).
    pub fn place(
        kind: SegmentKind,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Result<Self, SimError> {
        let node_count = frames.node_count();
        policy.validate(node_count)?;
        if fallback.len() < node_count {
            return Err(SimError::InvalidNodes(format!(
                "fallback table covers {} of {node_count} nodes",
                fallback.len()
            )));
        }
        let mut seg =
            Segment { kind, len: 0, extents: Vec::new(), node_counts: vec![0u64; node_count] };
        for (_, block_len, pat) in policy_blocks(policy, len, toucher) {
            match pat {
                Pattern::Const(target) => {
                    for (node, granted) in
                        frames.alloc_run(target, &fallback[target.idx()], block_len)?
                    {
                        seg.push_const(node, granted);
                    }
                }
                Pattern::Cycle(nodes) => seg.place_cycle(&nodes, block_len, frames, fallback)?,
            }
        }
        debug_assert_eq!(seg.len, len);
        Ok(seg)
    }

    /// Place `total` pages round-robin over `nodes`, spilling exactly like
    /// the per-page loop. Between pool exhaustions the *effective* target
    /// of each cycle slot (first free node of its spill chain) is fixed,
    /// so whole batches of cycles collapse into one `Cycle` extent; each
    /// exhaustion starts a new regime.
    fn place_cycle(
        &mut self,
        nodes: &[NodeId],
        total: u64,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Result<(), SimError> {
        let k = nodes.len();
        debug_assert!(k >= 2);
        let mut placed = 0u64;
        let mut eff = vec![NodeId(0); k];
        let mut share: Vec<(NodeId, u64)> = Vec::with_capacity(k);
        while placed < total {
            for (j, &n) in nodes.iter().enumerate() {
                eff[j] = frames.first_free(n, &fallback[n.idx()])?;
            }
            // Pages each node receives per full cycle under this regime.
            share.clear();
            for &e in &eff {
                match share.iter_mut().find(|(n, _)| *n == e) {
                    Some((_, c)) => *c += 1,
                    None => share.push((e, 1)),
                }
            }
            let cycles = share.iter().map(|&(n, s)| frames.free(n) / s).min().expect("k >= 2");
            if cycles == 0 {
                // Not a full cycle of room: step page by page (each step can
                // exhaust a pool and change the spill picture) until the
                // next cycle boundary.
                let boundary = placed + (k as u64 - placed % k as u64);
                while placed < boundary.min(total) {
                    let slot = (placed % k as u64) as usize;
                    let target = nodes[slot];
                    let node = frames.first_free(target, &fallback[target.idx()])?;
                    frames.alloc(node, 1)?;
                    self.push_const(node, 1);
                    placed += 1;
                }
                continue;
            }
            let pages = (total - placed).min(cycles * k as u64);
            // Grant every node its exact share of these `pages`, starting
            // at the current cycle phase.
            let phase = (placed % k as u64) as usize;
            let full = pages / k as u64;
            let rem = (pages % k as u64) as usize;
            for j in 0..k {
                let node = eff[(phase + j) % k];
                let cnt = full + u64::from(j < rem);
                if cnt > 0 {
                    frames.alloc(node, cnt)?;
                }
            }
            let rotated: Vec<NodeId> = (0..k).map(|j| eff[(phase + j) % k]).collect();
            self.push_cycle(&rotated, pages);
            placed += pages;
        }
        Ok(())
    }

    /// Append `len` pages on `node` to the tail of the segment, merging
    /// with the previous extent when possible.
    fn push_const(&mut self, node: NodeId, len: u64) {
        if len == 0 {
            return;
        }
        self.node_counts[node.idx()] += len;
        push_fused(&mut self.extents, Extent { start: self.len, len, pat: Pattern::Const(node) });
        self.len += len;
    }

    /// Append `len` pages cycling over `nodes` (phase already folded into
    /// the rotation). Degenerate cycles normalize to `Const`.
    fn push_cycle(&mut self, nodes: &[NodeId], len: u64) {
        if len == 0 {
            return;
        }
        let pat = if len == 1 { Pattern::Const(nodes[0]) } else { Pattern::cycle(nodes) };
        let ext = Extent { start: self.len, len, pat };
        ext.for_each_count(ext.start, ext.end(), |n, c| self.node_counts[n.idx()] += c);
        push_fused(&mut self.extents, ext);
        self.len += len;
    }

    /// Segment kind.
    pub fn kind(&self) -> SegmentKind {
        self.kind
    }

    /// Length in pages.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the segment has no pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of extents currently describing the placement (diagnostics /
    /// perf assertions: regular placements stay O(nodes), never O(pages)).
    pub fn extent_count(&self) -> usize {
        self.extents.len()
    }

    /// Approximate heap footprint of the placement bookkeeping, bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        let ext = self.extents.capacity() * std::mem::size_of::<Extent>();
        let cycles: usize = self
            .extents
            .iter()
            .map(|e| match &e.pat {
                Pattern::Const(_) => 0,
                Pattern::Cycle(nodes) => nodes.len() * std::mem::size_of::<NodeId>(),
            })
            .sum();
        ext + cycles + self.node_counts.capacity() * std::mem::size_of::<u64>()
    }

    /// Index of the extent containing `page`.
    fn extent_index(&self, page: u64) -> usize {
        debug_assert!(page < self.len, "page {page} out of bounds ({})", self.len);
        self.extents.partition_point(|e| e.start <= page) - 1
    }

    /// Node currently holding page `i`.
    pub fn node_of(&self, i: u64) -> NodeId {
        assert!(i < self.len, "page {i} out of bounds ({})", self.len);
        self.extents[self.extent_index(i)].node_at(i)
    }

    /// Pages per node.
    pub fn node_counts(&self) -> &[u64] {
        &self.node_counts
    }

    /// Fraction of pages per node (all zeros for an empty segment).
    pub fn distribution(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.node_counts.len()];
        self.fill_distribution(&mut out);
        out
    }

    /// Write the per-node page fractions into `out` (allocation-free
    /// epoch-loop variant of [`Segment::distribution`]).
    pub fn fill_distribution(&self, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.node_counts.len());
        let total = self.len as f64;
        if total == 0.0 {
            out.fill(0.0);
            return;
        }
        for (o, &c) in out.iter_mut().zip(&self.node_counts) {
            *o = c as f64 / total;
        }
    }

    /// Move page `i` to `to`, updating the histogram. The caller is
    /// responsible for frame accounting.
    pub fn relocate(&mut self, i: u64, to: NodeId) {
        if self.node_of(i) == to {
            return;
        }
        self.relocate_run(i, 1, to);
    }

    /// Move the `len` pages starting at `start` to `to`, splitting the
    /// overlapped extents — the O(extents) bulk form of
    /// [`Segment::relocate`]. Page-table only: the caller accounts frames.
    pub fn relocate_run(&mut self, start: u64, len: u64, to: NodeId) {
        let end = check_range(start, len, self.len).expect("relocate_run out of bounds");
        if len == 0 {
            return;
        }
        let (i0, i1) = (self.extent_index(start), self.extent_index(end - 1));
        // Histogram: drop the overlapped pages' old homes, add the new one.
        let mut counts_delta_applied = 0u64;
        for e in &self.extents[i0..=i1] {
            let counts = &mut self.node_counts;
            e.for_each_count(start.max(e.start), end.min(e.end()), |n, c| {
                counts[n.idx()] -= c;
                counts_delta_applied += c;
            });
        }
        debug_assert_eq!(counts_delta_applied, len);
        self.node_counts[to.idx()] += len;
        let (first, last) = (&self.extents[i0], &self.extents[i1]);
        let prefix = (first.start < start).then(|| trim(first, first.start, start));
        let suffix = (last.end() > end).then(|| trim(last, end, last.end()));
        let mid = Extent { start, len, pat: Pattern::Const(to) };
        self.replace(i0, i1, prefix.into_iter().chain([mid]).chain(suffix));
    }

    /// Replace `extents[i0..=i1]` by `new` (covering the same pages) and
    /// fuse every seam the splice created.
    fn replace(&mut self, i0: usize, i1: usize, new: impl IntoIterator<Item = Extent>) {
        let before = self.extents.len();
        self.extents.splice(i0..=i1, new);
        let past_new = i1 + 1 + self.extents.len() - before;
        for i in (i0.max(1)..=past_new.min(self.extents.len() - 1)).rev() {
            let (head, tail) = self.extents.split_at_mut(i);
            if head[i - 1].try_fuse(&tail[0]) {
                self.extents.remove(i);
            }
        }
    }

    /// Visit the maximal constant-node runs covering `[start, start+len)`
    /// in ascending page order: `f(run_start, run_len, node)`. O(runs) for
    /// `Const` extents; `Cycle` extents yield their per-page alternation.
    pub fn for_each_run(&self, start: u64, len: u64, mut f: impl FnMut(u64, u64, NodeId) -> bool) {
        let end = check_range(start, len, self.len).expect("run walk out of bounds");
        if len == 0 {
            return;
        }
        let mut idx = self.extent_index(start);
        let mut run_start = start;
        let mut run_node = self.extents[idx].node_at(start);
        let mut pos = start;
        'outer: while pos < end {
            let e = &self.extents[idx];
            let e_end = e.end().min(end);
            match &e.pat {
                Pattern::Const(n) => {
                    if *n != run_node {
                        if !f(run_start, pos - run_start, run_node) {
                            return;
                        }
                        run_start = pos;
                        run_node = *n;
                    }
                    pos = e_end;
                }
                Pattern::Cycle(nodes) => {
                    let k = nodes.len() as u64;
                    while pos < e_end {
                        let n = nodes[((pos - e.start) % k) as usize];
                        if n != run_node {
                            if !f(run_start, pos - run_start, run_node) {
                                return;
                            }
                            run_start = pos;
                            run_node = n;
                        }
                        pos += 1;
                    }
                }
            }
            if pos < end {
                idx += 1;
            } else {
                break 'outer;
            }
        }
        f(run_start, end - run_start, run_node);
    }

    /// The pages of `[start, start+len)` that are **not** on the node
    /// `policy` assigns them (relative to this range) — the page set an
    /// `MPOL_MF_MOVE` `mbind` migrates — as ranges of segment `id` in
    /// ascending page order. One range per (extent × policy block) piece:
    /// the piece's (current node, target) rule is periodic, so a Const
    /// extent rebound into an interleave is one patterned range whose
    /// complying slots are holes, not one range per moved page. Wholly
    /// complying pieces — including a re-applied interleave whose cycle
    /// aligns with the existing extents — queue nothing. O(extents +
    /// policy blocks) ranges, each built in O(period).
    pub fn non_complying_runs(
        &self,
        id: SegmentId,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Result<Vec<PendingRange>, SimError> {
        let end = check_range(start, len, self.len)?;
        let mut ranges: Vec<PendingRange> = Vec::new();
        if matches!(policy, MemPolicy::FirstTouch) || len == 0 {
            // First-touch never migrates existing pages.
            return Ok(ranges);
        }
        let blocks = policy_blocks(policy, len, toucher);
        let mut slots: Vec<(NodeId, NodeId)> = Vec::new();
        let mut pos = start;
        let mut ext_idx = self.extent_index(start);
        let mut blk_idx = 0usize;
        while pos < end {
            let e = &self.extents[ext_idx];
            let (b_rel, b_len, b_pat) = &blocks[blk_idx];
            let b_end = start + b_rel + b_len;
            let piece_end = e.end().min(b_end);
            // One period of (current node, target) slots from `pos` on.
            slots.clear();
            slots.extend(
                (0..lcm(e.pat.period(), b_pat.period()))
                    .map(|j| (e.pat.node(pos - e.start + j), b_pat.node(pos - start + j))),
            );
            if let Some(pat) = MovePattern::from_slots(&slots) {
                let r = PendingRange { segment: id, start: pos, len: piece_end - pos, pat };
                if r.moved() > 0 && !ranges.last_mut().is_some_and(|last| last.try_append(&r)) {
                    ranges.push(r);
                }
            }
            pos = piece_end;
            if pos < end {
                if pos == e.end() {
                    ext_idx += 1;
                }
                if pos == b_end {
                    blk_idx += 1;
                }
            }
        }
        Ok(ranges)
    }

    /// Per-page expansion of [`Segment::non_complying_runs`] as
    /// `(page, target)` — the historical interface, kept for tests and
    /// callers that want the explicit page list.
    pub fn non_complying(
        &self,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Result<Vec<(u64, NodeId)>, SimError> {
        let ranges = self.non_complying_runs(SegmentId(0), start, len, policy, toucher)?;
        Ok(ranges.iter().flat_map(|r| r.moves().map(|(p, _, to)| (p, to))).collect())
    }

    /// Complete the queued moves of pages `[start, start + len)`, page
    /// `start + i` following `pat.slot(i)`, in ascending page order
    /// against the live page table and frame pools. A moved slot's page
    /// lands when it is not already on its target and the target has a
    /// free frame at that moment — after the pages before it released
    /// theirs — and is dropped (left in place) otherwise; holes never
    /// move. `landed(from, to, pages)` reports what moved, each slot's
    /// pair in first-appearance page order.
    ///
    /// The span is rebuilt with one splice. Inside each overlapped extent
    /// the (current node, target) rule is periodic, and whole periods are
    /// applied in bulk for as long as their outcome provably repeats — the
    /// way [`Segment::place`] batches spill regimes: when a destination
    /// can run out (or a dropped slot's destination gains room), the batch
    /// ends at that period boundary and the outcome is recomputed.
    pub fn migrate_range(
        &mut self,
        start: u64,
        len: u64,
        pat: &MovePattern,
        frames: &mut FramePools,
        landed: impl FnMut(NodeId, NodeId, u64),
    ) {
        let end = check_range(start, len, self.len).expect("migrate_range out of bounds");
        if len == 0 {
            return;
        }
        let (i0, i1) = (self.extent_index(start), self.extent_index(end - 1));
        let first = &self.extents[i0];
        let mut splice = Splice { frames, counts: &mut self.node_counts, out: Vec::new(), landed };
        if first.start < start {
            splice.out.push(trim(first, first.start, start));
        }
        for e in &self.extents[i0..=i1] {
            let (a, b) = (start.max(e.start), end.min(e.end()));
            splice.piece(e, a, b, pat, a - start);
        }
        let last = &self.extents[i1];
        if last.end() > end {
            push_fused(&mut splice.out, trim(last, end, last.end()));
        }
        let out = splice.out;
        self.replace(i0, i1, out);
    }
}

/// The state one [`Segment::migrate_range`] threads through its pieces.
struct Splice<'a, F> {
    frames: &'a mut FramePools,
    counts: &'a mut [u64],
    /// Replacement extents for the span, fused as they are pushed.
    out: Vec<Extent>,
    landed: F,
}

impl<F: FnMut(NodeId, NodeId, u64)> Splice<'_, F> {
    /// Complete the moves over pages `[a, b)` of extent `e`, page `a + i`
    /// following `pat.slot(off + i)`.
    fn piece(&mut self, e: &Extent, a: u64, b: u64, pat: &MovePattern, off: u64) {
        let n = b - a;
        // One period of the combined rule from page `a` (or the whole
        // piece if shorter): the page's node now, and where it should go
        // (`None` for a hole or a page already there).
        let t = lcm(e.pat.period(), pat.period()).min(n) as usize;
        let cur: Vec<NodeId> = (0..t as u64).map(|j| e.pat.node(a - e.start + j)).collect();
        let dst: Vec<Option<NodeId>> = (0..t)
            .map(|j| {
                let (from, to) = pat.slot(off + j as u64);
                (from != to && to != cur[j]).then_some(to)
            })
            .collect();
        if dst.iter().all(Option::is_none) {
            push_fused(&mut self.out, trim(e, a, b));
            return;
        }
        let mut res = cur.clone();
        let mut room = vec![0u64; t];
        let mut net = vec![0i64; self.counts.len()];
        let mut done = 0u64;
        while done < n {
            let m = (t as u64).min(n - done) as usize;
            // Dry-run one period on the live pools: `room[j]` is the free
            // frames slot j's destination has just before it, `net` each
            // node's free-frame change over the period.
            net.fill(0);
            for j in 0..m {
                res[j] = cur[j];
                let Some(to) = dst[j] else { continue };
                room[j] = (self.frames.free(to) as i64 + net[to.idx()]) as u64;
                if room[j] > 0 {
                    net[to.idx()] -= 1;
                    net[cur[j].idx()] += 1;
                    res[j] = to;
                }
            }
            // Periods that provably repeat this outcome: a landing slot
            // keeps landing while its room stays >= 1; a dropped one (room
            // 0) keeps dropping while its destination gains nothing.
            let mut periods = if m == t { (n - done) / t as u64 } else { 1 };
            for j in 0..m {
                let Some(to) = dst[j] else { continue };
                let d = net[to.idx()];
                if res[j] == to && d < 0 {
                    periods = periods.min((room[j] - 1) / d.unsigned_abs() + 1);
                } else if res[j] != to && d > 0 {
                    periods = 1;
                }
            }
            // Apply them: sources first, so every grant below is covered.
            for j in (0..m).filter(|&j| res[j] != cur[j]) {
                self.frames.release(cur[j], periods);
            }
            for j in (0..m).filter(|&j| res[j] != cur[j]) {
                self.frames.alloc(res[j], periods).expect("room checked in the dry run");
                self.counts[cur[j].idx()] -= periods;
                self.counts[res[j].idx()] += periods;
                (self.landed)(cur[j], res[j], periods);
            }
            let len = if m == t { periods * t as u64 } else { m as u64 };
            let pat = Pattern::cycle(&res[..m]);
            push_fused(&mut self.out, Extent { start: a + done, len, pat });
            done += len;
        }
    }
}

/// The sub-extent of `e` covering absolute pages `[a, b)`, with cycle
/// phases re-folded.
fn trim(e: &Extent, a: u64, b: u64) -> Extent {
    debug_assert!(a >= e.start && b <= e.end() && a < b);
    let pat = match &e.pat {
        Pattern::Const(n) => Pattern::Const(*n),
        Pattern::Cycle(nodes) => {
            let k = nodes.len();
            let shift = ((a - e.start) % k as u64) as usize;
            let rotated: Vec<NodeId> = (0..k).map(|j| nodes[(shift + j) % k]).collect();
            Pattern::Cycle(rotated.into_boxed_slice())
        }
    };
    Extent { start: a, len: b - a, pat }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::{machines, NodeSet};

    fn frames() -> FramePools {
        FramePools::from_machine(&machines::machine_b())
    }

    fn no_fallback(n: usize) -> Vec<Vec<NodeId>> {
        vec![Vec::new(); n]
    }

    #[test]
    fn first_touch_places_on_toucher() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            100,
            &MemPolicy::FirstTouch,
            NodeId(2),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts()[2], 100);
        assert_eq!(f.used(NodeId(2)), 100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.extent_count(), 1);
    }

    #[test]
    fn interleave_places_round_robin() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(3)]);
        let s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::Interleave(set),
            NodeId(1),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[5, 0, 0, 5]);
        assert_eq!(s.node_of(0), NodeId(0));
        assert_eq!(s.node_of(1), NodeId(3));
        assert_eq!(s.extent_count(), 1, "round-robin is one cycle extent");
    }

    #[test]
    fn weighted_places_proportionally() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[100, 200, 300, 400]);
        let d = s.distribution();
        assert!((d[3] - 0.4).abs() < 1e-12);
        assert_eq!(s.extent_count(), 4, "one block per positive weight");
    }

    #[test]
    fn weighted_interleave_memory_is_o_extents() {
        // The acceptance bound: a 1M-page weighted-interleave segment must
        // cost O(extents) bookkeeping (< 10 KiB), not ~2 MiB of per-page
        // node ids.
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            1_000_000,
            &MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[100_000, 200_000, 300_000, 400_000]);
        assert!(s.extent_count() <= 4, "{} extents", s.extent_count());
        assert!(s.approx_heap_bytes() < 10 * 1024, "{} bytes", s.approx_heap_bytes());
    }

    #[test]
    fn spill_when_node_full() {
        let m = machines::twin();
        let mut f = FramePools::from_machine(&m);
        let cap0 = f.capacity(NodeId(0));
        f.alloc(NodeId(0), cap0 - 10).unwrap();
        let fallback = vec![vec![NodeId(1)], vec![NodeId(0)]];
        let s = Segment::place(
            SegmentKind::Shared,
            30,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &fallback,
        )
        .unwrap();
        assert_eq!(s.node_counts(), &[10, 20]);
        assert_eq!(s.extent_count(), 2);
    }

    #[test]
    fn interleave_spill_matches_per_page_semantics() {
        // Interleave over {0, 1} with node 0 nearly full: once node 0
        // drains, its cycle slots spill to node 1 — same as the historical
        // per-page alloc_with_fallback loop.
        let m = machines::twin();
        let mut f = FramePools::from_machine(&m);
        let cap0 = f.capacity(NodeId(0));
        f.alloc(NodeId(0), cap0 - 3).unwrap();
        let fallback = vec![vec![NodeId(1)], vec![NodeId(0)]];
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &fallback,
        )
        .unwrap();
        // Per-page: pages 0,2,4 land on node 0 (3 free), pages 1,3,5,7,9 on
        // node 1, and pages 6,8 (slot 0, node 0 full) spill to node 1.
        assert_eq!(s.node_counts(), &[3, 7]);
        for i in [0u64, 2, 4] {
            assert_eq!(s.node_of(i), NodeId(0), "page {i}");
        }
        for i in [1u64, 3, 5, 6, 7, 8, 9] {
            assert_eq!(s.node_of(i), NodeId(1), "page {i}");
        }
    }

    #[test]
    fn relocate_updates_histogram() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Private { thread: 0 },
            4,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate(1, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 0, 0, 1]);
        assert_eq!(s.node_of(1), NodeId(3));
        // no-op relocate
        s.relocate(1, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 0, 0, 1]);
        assert_eq!(s.node_of(0), NodeId(0));
        assert_eq!(s.node_of(2), NodeId(0));
        assert_eq!(s.node_of(3), NodeId(0));
    }

    #[test]
    fn relocate_run_splits_and_merges_extents() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            100,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate_run(10, 30, NodeId(2));
        assert_eq!(s.node_counts(), &[70, 0, 30, 0]);
        assert_eq!(s.extent_count(), 3);
        assert_eq!(s.node_of(9), NodeId(0));
        assert_eq!(s.node_of(10), NodeId(2));
        assert_eq!(s.node_of(39), NodeId(2));
        assert_eq!(s.node_of(40), NodeId(0));
        // Moving it back re-merges into a single extent.
        s.relocate_run(10, 30, NodeId(0));
        assert_eq!(s.extent_count(), 1);
        assert_eq!(s.node_counts(), &[100, 0, 0, 0]);
    }

    #[test]
    fn relocate_inside_cycle_extent_splits_phases() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let mut s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate(4, NodeId(3));
        assert_eq!(s.node_counts(), &[3, 4, 0, 1]);
        let expect = [0u16, 1, 0, 1, 3, 1, 0, 1];
        for (i, &n) in expect.iter().enumerate() {
            assert_eq!(s.node_of(i as u64), NodeId(n), "page {i}");
        }
    }

    #[test]
    fn for_each_run_yields_maximal_runs() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            10,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        s.relocate_run(4, 2, NodeId(2));
        let mut runs = Vec::new();
        s.for_each_run(0, 10, |a, l, n| {
            runs.push((a, l, n));
            true
        });
        assert_eq!(runs, vec![(0, 4, NodeId(0)), (4, 2, NodeId(2)), (6, 4, NodeId(0))]);
        // Sub-range walk.
        runs.clear();
        s.for_each_run(3, 3, |a, l, n| {
            runs.push((a, l, n));
            true
        });
        assert_eq!(runs, vec![(3, 1, NodeId(0)), (4, 2, NodeId(2))]);
    }

    #[test]
    fn non_complying_lists_moves() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let moves = s.non_complying(0, 8, &MemPolicy::Interleave(set), NodeId(0)).unwrap();
        // round-robin targets: 0,1,0,1,... -> odd indices move to node 1
        assert_eq!(moves, vec![(1, NodeId(1)), (3, NodeId(1)), (5, NodeId(1)), (7, NodeId(1))]);
    }

    #[test]
    fn non_complying_sub_range_uses_relative_indices() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(1),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let moves = s.non_complying(4, 4, &MemPolicy::Bind(NodeId(1)), NodeId(0)).unwrap();
        assert!(moves.is_empty()); // already on node 1
        let moves = s.non_complying(4, 4, &MemPolicy::Bind(NodeId(2)), NodeId(0)).unwrap();
        assert_eq!(moves.len(), 4);
        assert_eq!(moves[0], (4, NodeId(2)));
    }

    #[test]
    fn non_complying_runs_are_patterned_and_skip_aligned_cycles() {
        let mut f = frames();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let s = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::Interleave(set),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let id = SegmentId(0);
        // Re-applying the same interleave is a no-op detected at the
        // extent level, without touching pages.
        let runs =
            s.non_complying_runs(id, 0, 1000, &MemPolicy::Interleave(set), NodeId(0)).unwrap();
        assert!(runs.is_empty());
        // Binding everything to node 0 moves exactly the node-1 slots: one
        // range whose node-0 slots are holes.
        let runs =
            s.non_complying_runs(id, 0, 1000, &MemPolicy::Bind(NodeId(0)), NodeId(0)).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].moved(), 500);
        assert!(runs[0]
            .moves()
            .all(|(p, from, to)| p % 2 == 1 && from == NodeId(1) && to == NodeId(0)));
        // A bind over a constant extent is a single constant range.
        let mut f2 = frames();
        let s2 = Segment::place(
            SegmentKind::Shared,
            1000,
            &MemPolicy::FirstTouch,
            NodeId(2),
            &mut f2,
            &no_fallback(4),
        )
        .unwrap();
        let runs =
            s2.non_complying_runs(id, 0, 1000, &MemPolicy::Bind(NodeId(3)), NodeId(0)).unwrap();
        assert_eq!(runs, vec![PendingRange::constant(id, 0, 1000, NodeId(2), NodeId(3))]);
    }

    /// Queue an interleave rebind of `s` and complete it in chunks of
    /// `chunk` moved pages, returning the pages that landed.
    fn drain(s: &mut Segment, f: &mut FramePools, policy: &MemPolicy, chunk: usize) -> u64 {
        let mut q = crate::mem::migrate::MigrationQueue::new();
        q.enqueue_ranges(
            s.non_complying_runs(SegmentId(0), 0, s.len(), policy, NodeId(0)).unwrap(),
        );
        let mut landed = 0;
        while !q.is_empty() {
            for r in q.complete(chunk) {
                s.migrate_range(r.start, r.len, &r.pat, f, |_, _, pages| landed += pages);
            }
        }
        landed
    }

    #[test]
    fn interleave_rebind_completes_into_one_cycle_extent() {
        let mut f = frames();
        let mut s = Segment::place(
            SegmentKind::Shared,
            10_000,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1), NodeId(2)]);
        // Odd chunks split the range mid-cycle; the pieces still fuse.
        let landed = drain(&mut s, &mut f, &MemPolicy::Interleave(set), 333);
        assert_eq!(landed, 6666);
        assert_eq!(s.extent_count(), 1, "{:?}", s.extents);
        assert_eq!(s.node_counts(), &[3334, 3333, 3333, 0]);
        for n in 0..3u16 {
            assert_eq!(f.used(NodeId(n)), s.node_counts()[n as usize]);
        }
        assert_eq!(s.node_of(4), NodeId(1));
    }

    #[test]
    fn completion_drops_what_a_full_destination_cannot_hold() {
        let m = machines::twin();
        let mut f = FramePools::from_machine(&m);
        let cap1 = f.capacity(NodeId(1));
        f.alloc(NodeId(1), cap1 - 5).unwrap();
        let mut s = Segment::place(
            SegmentKind::Shared,
            40,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(2),
        )
        .unwrap();
        let set = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let landed = drain(&mut s, &mut f, &MemPolicy::Interleave(set), 7);
        // Per page: the first five odd pages land on node 1, then it is
        // full and the other fifteen stay on node 0.
        assert_eq!(landed, 5);
        assert_eq!(s.node_counts(), &[35, 5]);
        assert_eq!(f.free(NodeId(1)), 0);
        for p in 0..40u64 {
            let want = if p % 2 == 1 && p < 10 { 1 } else { 0 };
            assert_eq!(s.node_of(p), NodeId(want), "page {p}");
        }
        assert!(s.extent_count() <= 2, "{:?}", s.extents);
    }

    #[test]
    fn short_fallback_table_is_an_error_not_a_panic() {
        let mut f = frames(); // 4-node machine
        let r = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Bind(NodeId(3)),
            NodeId(0),
            &mut f,
            &no_fallback(2), // too short: indexing node 3 used to panic
        );
        assert!(matches!(r, Err(crate::error::SimError::InvalidNodes(_))), "{r:?}");
        // Nothing was allocated.
        for n in 0..4u16 {
            assert_eq!(f.used(NodeId(n)), 0);
        }
    }

    #[test]
    fn non_complying_rejects_bad_range() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::FirstTouch,
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        assert!(s.non_complying(5, 4, &MemPolicy::Bind(NodeId(1)), NodeId(0)).is_err());
    }

    #[test]
    fn first_touch_mbind_never_moves() {
        let mut f = frames();
        let s = Segment::place(
            SegmentKind::Shared,
            8,
            &MemPolicy::Bind(NodeId(2)),
            NodeId(0),
            &mut f,
            &no_fallback(4),
        )
        .unwrap();
        let moves = s.non_complying(0, 8, &MemPolicy::FirstTouch, NodeId(0)).unwrap();
        assert!(moves.is_empty());
    }

    #[test]
    fn slot_count_is_exact() {
        for k in 1..5u64 {
            for a in 0..10u64 {
                for b in a..12u64 {
                    for j in 0..k {
                        let naive = (a..b).filter(|i| i % k == j).count() as u64;
                        assert_eq!(slot_count(a, b, k, j), naive, "a={a} b={b} k={k} j={j}");
                    }
                }
            }
        }
    }
}
