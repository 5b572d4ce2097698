//! Equivalence suite: the extent-based [`Segment`] and the patterned
//! migration queue against a naive per-page reference model (the
//! historical `Vec<u16>` page table and per-page move queue, re-stated
//! here verbatim). Random machines, random pre-pressure on the frame pools
//! (to force spill and dropped migrations), random policies and random
//! place/relocate/mbind/complete traces must agree on every observable:
//! `node_of` for every page, `node_counts`, distributions, frame
//! accounting, the non-complying move set, the expanded contents of the
//! migration queue, the per-pair demand of a partial drain and its order,
//! and which completed pages landed or were dropped.

use bwap_topology::{MemClass, NodeId, NodeSet, NodeSpec, TopologyBuilder};
use numasim::mem::frames::FramePools;
use numasim::mem::migrate::{MigrationQueue, MovePattern, PendingRange};
use numasim::mem::segment::{Segment, SegmentId, SegmentKind};
use numasim::MemPolicy;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// The historical per-page segment: one `u16` per page, every operation a
/// page-at-a-time loop. This is the semantics oracle.
struct RefSegment {
    pages: Vec<u16>,
    counts: Vec<u64>,
}

impl RefSegment {
    fn place(
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
        frames: &mut FramePools,
        fallback: &[Vec<NodeId>],
    ) -> Option<RefSegment> {
        let mut pages = Vec::with_capacity(len as usize);
        let mut counts = vec![0u64; frames.node_count()];
        for i in 0..len {
            let target = policy.target_node(i, len, toucher);
            let got = frames.alloc_with_fallback(target, &fallback[target.idx()]).ok()?;
            pages.push(got.0);
            counts[got.idx()] += 1;
        }
        Some(RefSegment { pages, counts })
    }

    fn relocate(&mut self, i: u64, to: NodeId) {
        let from = self.pages[i as usize];
        if from == to.0 {
            return;
        }
        self.counts[from as usize] -= 1;
        self.counts[to.idx()] += 1;
        self.pages[i as usize] = to.0;
    }

    fn non_complying(
        &self,
        start: u64,
        len: u64,
        policy: &MemPolicy,
        toucher: NodeId,
    ) -> Vec<(u64, NodeId)> {
        let mut moves = Vec::new();
        if matches!(policy, MemPolicy::FirstTouch) {
            return moves;
        }
        for rel in 0..len {
            let abs = start + rel;
            let target = policy.target_node(rel, len, toucher);
            if self.pages[abs as usize] != target.0 {
                moves.push((abs, target));
            }
        }
        moves
    }
}

/// A small random machine with a random expander subset (see
/// `tests/props.rs`).
fn random_machine(seed: u64) -> bwap_topology::MachineTopology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..=6usize);
    let mut b = TopologyBuilder::new("prop");
    for i in 0..n {
        let mem_gib = rng.gen_range(1..=4) as f64 / 256.0;
        if i > 0 && rng.gen_bool(0.3) {
            b = b.node(NodeSpec::memory_only(mem_gib, 10.0, MemClass::new("slow", 0.5, 2.0)));
        } else {
            b = b.node(NodeSpec::new(2, mem_gib, 10.0, 16.0));
        }
    }
    for i in 0..n {
        b = b.symmetric_link(NodeId(i as u16), NodeId(((i + 1) % n) as u16), 6.0);
    }
    b.auto_routes()
        .default_path_caps()
        .hop_latencies(90.0, 50.0)
        .build()
        .expect("random ring validates")
}

fn random_policy(rng: &mut impl Rng, n: usize) -> MemPolicy {
    match rng.gen_range(0..4) {
        0 => MemPolicy::FirstTouch,
        1 => MemPolicy::Bind(NodeId(rng.gen_range(0..n) as u16)),
        2 => {
            let picked: Vec<NodeId> =
                (0..n).filter(|_| rng.gen_bool(0.5)).map(|i| NodeId(i as u16)).collect();
            let set = if picked.is_empty() {
                NodeSet::single(NodeId(rng.gen_range(0..n) as u16))
            } else {
                NodeSet::from_nodes(picked)
            };
            MemPolicy::Interleave(set)
        }
        _ => {
            let raw: Vec<f64> = (0..n)
                .map(|_| if rng.gen_bool(0.25) { 0.0 } else { rng.gen_range(0.1..4.0) })
                .collect();
            let sum: f64 = raw.iter().sum();
            if sum == 0.0 {
                MemPolicy::FirstTouch
            } else {
                MemPolicy::WeightedInterleave(raw.iter().map(|w| w / sum).collect())
            }
        }
    }
}

fn nearest_fallback(m: &bwap_topology::MachineTopology) -> Vec<Vec<NodeId>> {
    let n = m.node_count();
    (0..n)
        .map(|t| {
            let mut others: Vec<NodeId> =
                (0..n).filter(|&i| i != t).map(|i| NodeId(i as u16)).collect();
            others.sort_by(|a, b| {
                m.latency_ns()
                    .get(*a, NodeId(t as u16))
                    .partial_cmp(&m.latency_ns().get(*b, NodeId(t as u16)))
                    .unwrap()
                    .then(a.0.cmp(&b.0))
            });
            others
        })
        .collect()
}

fn assert_equal(seg: &Segment, reference: &RefSegment) {
    assert_eq!(seg.len(), reference.pages.len() as u64);
    assert_eq!(seg.node_counts(), &reference.counts[..]);
    for i in 0..seg.len() {
        assert_eq!(seg.node_of(i), NodeId(reference.pages[i as usize]), "page {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    /// Placement under every policy, including forced spill, lands every
    /// page exactly where the per-page loop did — and leaves the frame
    /// pools in the same state.
    #[test]
    fn place_matches_per_page_reference(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x51ce);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        // Random pre-pressure so some placements spill mid-run.
        for i in 0..n {
            let node = NodeId(i as u16);
            let cap = frames.capacity(node);
            let used = rng.gen_range(0..=cap);
            frames.alloc(node, used).unwrap();
        }
        let mut ref_frames = frames.clone();
        let policy = random_policy(&mut rng, n);
        let toucher = NodeId(rng.gen_range(0..n) as u16);
        let len = rng.gen_range(0..800u64);
        let seg = Segment::place(SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback);
        let reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback);
        match (&seg, &reference) {
            (Ok(seg), Some(reference)) => {
                assert_equal(seg, reference);
                for i in 0..n {
                    prop_assert_eq!(frames.used(NodeId(i as u16)), ref_frames.used(NodeId(i as u16)));
                }
            }
            (Err(_), None) => {} // both out of memory
            (got, want) => prop_assert!(false, "divergent outcome: {:?} vs ref {:?}",
                got.is_ok(), want.is_some()),
        }
    }

    /// Random relocate / relocate_run / non_complying traces keep the
    /// extent segment and the per-page reference in lock-step, and the
    /// range queue expands to exactly the per-page move list.
    #[test]
    fn mutation_trace_matches_per_page_reference(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed_f00d);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        let mut ref_frames = frames.clone();
        let len = rng.gen_range(1..600u64);
        let policy = random_policy(&mut rng, n);
        let toucher = NodeId(rng.gen_range(0..n) as u16);
        let mut seg = match Segment::place(SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let mut reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback)
            .expect("extent place succeeded");
        for _ in 0..40 {
            match rng.gen_range(0..3) {
                0 => {
                    let i = rng.gen_range(0..len);
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    seg.relocate(i, to);
                    reference.relocate(i, to);
                }
                1 => {
                    let start = rng.gen_range(0..len);
                    let l = rng.gen_range(0..=(len - start).min(64));
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    if l > 0 {
                        seg.relocate_run(start, l, to);
                        for p in start..start + l {
                            reference.relocate(p, to);
                        }
                    }
                }
                _ => {
                    let start = rng.gen_range(0..len);
                    let l = rng.gen_range(0..=len - start);
                    let q_policy = random_policy(&mut rng, n);
                    let q_toucher = NodeId(rng.gen_range(0..n) as u16);
                    let runs = seg
                        .non_complying_runs(SegmentId(0), start, l, &q_policy, q_toucher)
                        .expect("range in bounds");
                    let expanded: Vec<(u64, NodeId)> =
                        runs.iter().flat_map(|r| r.moves().map(|(p, _, to)| (p, to))).collect();
                    let want = reference.non_complying(start, l, &q_policy, q_toucher);
                    prop_assert_eq!(&expanded, &want);
                    // `from` on every moved page matches the page table.
                    for (p, from, _) in runs.iter().flat_map(|r| r.moves()) {
                        prop_assert_eq!(from, seg.node_of(p));
                    }
                    // Queue round-trip: enqueued ranges expand to the same
                    // page sequence, FIFO order preserved.
                    let mut q = MigrationQueue::new();
                    q.enqueue_ranges(runs.iter().cloned());
                    prop_assert_eq!(q.pending(), want.len());
                    let queued: Vec<(u64, NodeId)> =
                        q.ranges().flat_map(|r| r.moves().map(|(p, _, to)| (p, to))).collect();
                    prop_assert_eq!(&queued, &want);
                }
            }
        }
        assert_equal(&seg, &reference);
        let mut dist = vec![0.0; n];
        seg.fill_distribution(&mut dist);
        prop_assert_eq!(seg.distribution(), dist);
    }

    /// `cancel_range` on the range queue drops exactly the pages a
    /// per-page `retain` would, constant and patterned ranges alike.
    #[test]
    fn cancel_range_matches_per_page_retain(seed in 0u64..2000) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut q = MigrationQueue::new();
        let mut model: Vec<(usize, u64, NodeId, NodeId)> = Vec::new(); // (segment, page, from, to)
        for _ in 0..rng.gen_range(1..30usize) {
            let segment = rng.gen_range(0..3usize);
            let start = rng.gen_range(0..200u64);
            let l = rng.gen_range(1..40u64);
            let slots: Vec<(NodeId, NodeId)> = (0..rng.gen_range(1..6))
                .map(|_| (NodeId(rng.gen_range(0..4) as u16), NodeId(rng.gen_range(0..4) as u16)))
                .collect();
            let Some(pat) = MovePattern::from_slots(&slots) else { continue };
            let r = PendingRange { segment: SegmentId(segment), start, len: l, pat };
            model.extend(r.moves().map(|(p, from, to)| (segment, p, from, to)));
            q.enqueue_ranges([r]);
        }
        for _ in 0..5 {
            let segment = rng.gen_range(0..3usize);
            let start = rng.gen_range(0..220u64);
            let l = rng.gen_range(0..60u64);
            let cancelled = q.cancel_range(SegmentId(segment), start, l);
            let before = model.len();
            model.retain(|&(s, p, ..)| !(s == segment && p >= start && p < start + l));
            prop_assert_eq!(cancelled, before - model.len());
            prop_assert_eq!(q.pending(), model.len());
        }
        let queued: Vec<(usize, u64, NodeId, NodeId)> = q
            .ranges()
            .flat_map(|r| r.moves().map(|(p, from, to)| (r.segment.0, p, from, to)))
            .collect();
        prop_assert_eq!(queued, model);
    }
}

proptest! {
    // Cheap cases (small segments); run many, because the rare outcomes
    // — a full node that is both a destination and a source within one
    // period — decide whether bulk completion is exact.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Random `mbind`s (cancel + enqueue, as the engine does), random
    /// partial drains and foreign page moves on pre-pressured pools: the
    /// patterned queue's per-pair demand for the next `attempt` pages, and
    /// its completion by patterned splices, match the per-page reference —
    /// demand counts and their first-appearance order, the landed pairs
    /// and their order, the dropped pages, the page table, node counts and
    /// frame pools.
    #[test]
    fn completion_matches_per_page_reference(seed in 0u64..4000) {
        let m = random_machine(seed);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd4a1_2e5e);
        let n = m.node_count();
        let fallback = nearest_fallback(&m);
        let mut frames = FramePools::from_machine(&m);
        let len = rng.gen_range(1..600u64);
        let policy = random_policy(&mut rng, n);
        let toucher = NodeId(rng.gen_range(0..n) as u16);
        let mut ref_frames = frames.clone();
        let mut seg = match Segment::place(SegmentKind::Shared, len, &policy, toucher, &mut frames, &fallback) {
            Ok(s) => s,
            Err(_) => return Ok(()),
        };
        let mut reference = RefSegment::place(len, &policy, toucher, &mut ref_frames, &fallback)
            .expect("extent place succeeded");
        // Pressure: leave each node only a few free frames (often none),
        // so drains run destinations dry mid-range.
        for i in 0..n {
            let node = NodeId(i as u16);
            let keep = if rng.gen_bool(0.4) { 0 } else { rng.gen_range(0..40u64) };
            let keep = keep.min(frames.free(node));
            let take = frames.free(node) - keep;
            frames.alloc(node, take).unwrap();
            ref_frames.alloc(node, take).unwrap();
        }
        let mut q = MigrationQueue::new();
        let mut ref_q: Vec<(u64, NodeId, NodeId)> = Vec::new(); // (page, from, to)
        for _ in 0..30 {
            match rng.gen_range(0..4) {
                0 => {
                    // mbind with MPOL_MF_MOVE over a random sub-range.
                    let start = rng.gen_range(0..len);
                    let l = rng.gen_range(0..=len - start);
                    let p = random_policy(&mut rng, n);
                    let t = NodeId(rng.gen_range(0..n) as u16);
                    q.cancel_range(SegmentId(0), start, l);
                    q.enqueue_ranges(seg.non_complying_runs(SegmentId(0), start, l, &p, t).unwrap());
                    ref_q.retain(|&(pg, ..)| pg < start || pg >= start + l);
                    for (pg, to) in reference.non_complying(start, l, &p, t) {
                        ref_q.push((pg, NodeId(reference.pages[pg as usize]), to));
                    }
                }
                1 => {
                    // Another agent moves a page (frames permitting), so
                    // queued `from`s can go stale.
                    let pg = rng.gen_range(0..len);
                    let to = NodeId(rng.gen_range(0..n) as u16);
                    let from = seg.node_of(pg);
                    if from != to && frames.free(to) > 0 {
                        for f in [&mut frames, &mut ref_frames] {
                            f.alloc(to, 1).unwrap();
                            f.release(from, 1);
                        }
                        seg.relocate(pg, to);
                        reference.relocate(pg, to);
                    }
                }
                _ => {
                    prop_assert_eq!(q.pending(), ref_q.len());
                    if ref_q.is_empty() {
                        continue;
                    }
                    // Demand of the next `attempt` pages, as the engine
                    // builds it.
                    let attempt = rng.gen_range(1..=ref_q.len());
                    let mut want = Tally::default();
                    for &(_, from, to) in &ref_q[..attempt] {
                        want.add(from, to, 1);
                    }
                    let mut got = Tally::default();
                    let mut left = attempt as u64;
                    for r in q.ranges() {
                        let take = r.moved().min(left);
                        left -= take;
                        r.for_each_prefix_slot(take, |from, to, c| got.add(from, to, c));
                    }
                    prop_assert_eq!(&got.0, &want.0);
                    // Complete `k` pages.
                    let k = rng.gen_range(1..=ref_q.len());
                    let mut want_landed = Tally::default();
                    let mut want_dropped = Vec::new();
                    for (pg, _, to) in ref_q.drain(..k) {
                        let cur = NodeId(reference.pages[pg as usize]);
                        if cur == to {
                            continue;
                        }
                        if ref_frames.free(to) == 0 {
                            want_dropped.push(pg);
                            continue;
                        }
                        ref_frames.alloc(to, 1).unwrap();
                        ref_frames.release(cur, 1);
                        reference.relocate(pg, to);
                        want_landed.add(cur, to, 1);
                    }
                    let done = q.complete(k);
                    let mut got_landed = Tally::default();
                    for r in &done {
                        seg.migrate_range(r.start, r.len, &r.pat, &mut frames, |from, to, c| {
                            got_landed.add(from, to, c)
                        });
                    }
                    let got_dropped: Vec<u64> = done
                        .iter()
                        .flat_map(|r| r.moves())
                        .filter(|&(pg, _, to)| seg.node_of(pg) != to)
                        .map(|(pg, ..)| pg)
                        .collect();
                    prop_assert_eq!(&got_landed.0, &want_landed.0);
                    prop_assert_eq!(got_dropped, want_dropped);
                }
            }
            for i in 0..n {
                prop_assert_eq!(frames.used(NodeId(i as u16)), ref_frames.used(NodeId(i as u16)));
            }
        }
        assert_equal(&seg, &reference);
        let queued: Vec<(u64, NodeId, NodeId)> = q.ranges().flat_map(|r| r.moves()).collect();
        prop_assert_eq!(queued, ref_q);
    }
}

/// Page counts per `(from, to)` pair in first-appearance order.
#[derive(Default, Debug)]
struct Tally(Vec<((NodeId, NodeId), u64)>);

impl Tally {
    fn add(&mut self, from: NodeId, to: NodeId, pages: u64) {
        match self.0.iter_mut().find(|(pair, _)| *pair == (from, to)) {
            Some((_, c)) => *c += pages,
            None => self.0.push(((from, to), pages)),
        }
    }
}
