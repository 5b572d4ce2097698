//! Weighted, demand-bounded max-min fair allocation by progressive filling.
//!
//! The solver works on [`Bundle`]s: composite flows whose whole usage vector
//! scales with a single *activity* level. Classic per-flow max-min is the
//! special case of one resource usage entry per bundle.
//!
//! Progressive filling: raise every unfrozen bundle's activity at a rate
//! proportional to its weight until either a resource saturates (freezing
//! every bundle using it) or a bundle reaches its demand cap (freezing just
//! that bundle). Repeat until all bundles are frozen. The result is the
//! unique weighted max-min fair allocation.

/// A composite flow. `usage` lists `(resource index, capacity consumed per
/// unit of activity)` pairs; entries must reference valid resources and have
/// positive coefficients. `cap` bounds the activity (use `f64::INFINITY`
/// for unbounded probes); `weight` is the fairness weight (e.g. number of
/// threads behind the bundle).
#[derive(Debug, Clone)]
pub struct Bundle {
    /// `(resource index, usage per unit activity)`; a resource may appear
    /// at most once per bundle.
    pub usage: Vec<(usize, f64)>,
    /// Maximum activity (demand bound).
    pub cap: f64,
    /// Fairness weight; must be positive.
    pub weight: f64,
}

impl Bundle {
    /// Convenience constructor.
    pub fn new(usage: Vec<(usize, f64)>, cap: f64, weight: f64) -> Self {
        Bundle { usage, cap, weight }
    }
}

/// A set of bundles stored flat (headers + one shared usage arena), so the
/// epoch hot loop can rebuild the solver input every epoch without
/// per-bundle allocations. [`solve_maxmin`] is the convenience wrapper
/// over `&[Bundle]`.
#[derive(Debug, Clone, Default)]
pub struct BundleSet {
    /// `(usage_end, cap, weight)` per bundle; usage `i` spans
    /// `usage[headers[i-1].0..headers[i].0]`.
    headers: Vec<(usize, f64, f64)>,
    usage: Vec<(usize, f64)>,
}

impl BundleSet {
    /// Empty set.
    pub fn new() -> Self {
        BundleSet::default()
    }

    /// Drop all bundles, keeping the allocations.
    pub fn clear(&mut self) {
        self.headers.clear();
        self.usage.clear();
    }

    /// Start a new bundle; follow with [`BundleSet::push_usage`] calls.
    pub fn push_bundle(&mut self, cap: f64, weight: f64) {
        self.headers.push((self.usage.len(), cap, weight));
    }

    /// Add one `(resource, usage per unit activity)` entry to the bundle
    /// opened by the last [`BundleSet::push_bundle`].
    pub fn push_usage(&mut self, resource: usize, coeff: f64) {
        debug_assert!(!self.headers.is_empty(), "push_bundle first");
        self.usage.push((resource, coeff));
        self.headers.last_mut().expect("bundle open").0 = self.usage.len();
    }

    /// Number of bundles.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the set has no bundles.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    fn usage_of(&self, i: usize) -> &[(usize, f64)] {
        let start = if i == 0 { 0 } else { self.headers[i - 1].0 };
        &self.usage[start..self.headers[i].0]
    }

    fn cap(&self, i: usize) -> f64 {
        self.headers[i].1
    }

    fn weight(&self, i: usize) -> f64 {
        self.headers[i].2
    }
}

/// Reusable buffers for [`solve_maxmin_set`]: the progressive-filling
/// rounds refill these in place instead of allocating a fresh
/// `vec![0.0; nr]` per round.
#[derive(Debug, Clone, Default)]
pub struct MaxminScratch {
    load: Vec<f64>,
    remaining: Vec<f64>,
    active: Vec<bool>,
    saturated: Vec<usize>,
}

/// Result of [`solve_maxmin`].
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// Activity level per bundle (same order as input).
    pub activity: Vec<f64>,
    /// For each bundle, the resource that froze it (`None` if it reached
    /// its demand cap instead) — the *binding constraint*, useful for
    /// diagnosing whether a workload is controller-, link-, path- or
    /// ingress-bound.
    pub binding: Vec<Option<usize>>,
    /// Total usage per resource after allocation.
    pub used: Vec<f64>,
}

impl Allocation {
    /// Utilization (used / capacity) of resource `r`.
    pub fn utilization(&self, caps: &[f64], r: usize) -> f64 {
        if caps[r] == 0.0 {
            0.0
        } else {
            self.used[r] / caps[r]
        }
    }

    /// Whether `self` and `other` hold the same bits (floats compare by
    /// `to_bits`, so `-0.0 != 0.0`).
    pub fn bitwise_eq(&self, other: &Allocation) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        bits_eq(&self.activity, &other.activity)
            && self.binding == other.binding
            && bits_eq(&self.used, &other.used)
    }
}

const EPS: f64 = 1e-12;

/// Compute the weighted, demand-bounded max-min fair allocation of
/// `bundles` over resources with the given `capacities`.
///
/// Panics if a bundle references an out-of-range resource, has a
/// non-positive weight, or a non-positive usage coefficient.
///
/// Convenience wrapper over [`solve_maxmin_set`] for callers outside the
/// epoch hot loop.
pub fn solve_maxmin(capacities: &[f64], bundles: &[Bundle]) -> Allocation {
    let mut set = BundleSet::new();
    for b in bundles {
        set.push_bundle(b.cap, b.weight);
        for &(r, c) in &b.usage {
            set.push_usage(r, c);
        }
    }
    let mut ws = MaxminScratch::default();
    let mut out = Allocation { activity: Vec::new(), binding: Vec::new(), used: Vec::new() };
    solve_maxmin_set(capacities, &set, &mut ws, &mut out);
    out
}

/// Allocation-free form of [`solve_maxmin`]: all working state lives in
/// `ws` and the result in `out`, both reused across epochs. The math —
/// including the per-round `load` refill order — is operation-for-
/// operation identical to the historical allocating implementation, so
/// results are bitwise reproducible across the refactor.
pub fn solve_maxmin_set(
    capacities: &[f64],
    set: &BundleSet,
    ws: &mut MaxminScratch,
    out: &mut Allocation,
) {
    for i in 0..set.len() {
        assert!(set.weight(i) > 0.0, "bundle weight must be positive");
        for &(r, c) in set.usage_of(i) {
            assert!(r < capacities.len(), "resource index {r} out of range");
            assert!(c > 0.0, "usage coefficient must be positive");
        }
    }
    let nb = set.len();
    let nr = capacities.len();
    out.activity.clear();
    out.activity.resize(nb, 0.0);
    out.binding.clear();
    out.binding.resize(nb, None);
    ws.remaining.clear();
    ws.remaining.extend_from_slice(capacities);
    ws.active.clear();
    ws.active.extend((0..nb).map(|i| set.cap(i) > EPS && !set.usage_of(i).is_empty()));
    ws.load.clear();
    ws.load.resize(nr, 0.0);
    // Bundles with no usage get their full cap immediately (they consume
    // nothing); bundles with zero cap stay at zero.
    for i in 0..nb {
        if set.usage_of(i).is_empty() {
            out.activity[i] = if set.cap(i).is_finite() { set.cap(i) } else { 0.0 };
        }
    }

    // Each iteration freezes at least one bundle, so at most nb rounds.
    for _round in 0..nb {
        if !ws.active.iter().any(|&a| a) {
            break;
        }
        // Weighted load per resource from active bundles (buffer refilled
        // in place, same accumulation order as ever).
        ws.load.fill(0.0);
        for i in 0..nb {
            if !ws.active[i] {
                continue;
            }
            for &(r, c) in set.usage_of(i) {
                ws.load[r] += set.weight(i) * c;
            }
        }
        // Largest uniform step `delta` (activity increases by weight*delta).
        let mut delta = f64::INFINITY;
        let mut limit_resource: Option<usize> = None;
        for r in 0..nr {
            if ws.load[r] > EPS {
                let d = ws.remaining[r] / ws.load[r];
                if d < delta {
                    delta = d;
                    limit_resource = Some(r);
                }
            }
        }
        let mut limit_bundle: Option<usize> = None;
        for i in 0..nb {
            if ws.active[i] && set.cap(i).is_finite() {
                let d = (set.cap(i) - out.activity[i]) / set.weight(i);
                if d < delta {
                    delta = d;
                    limit_bundle = Some(i);
                    limit_resource = None;
                }
            }
        }
        if !delta.is_finite() {
            // Nothing limits the step: unbounded bundles with no usable
            // resource load (cannot happen with positive coefficients).
            break;
        }
        let delta = delta.max(0.0);
        // Apply the step.
        for i in 0..nb {
            if !ws.active[i] {
                continue;
            }
            out.activity[i] += set.weight(i) * delta;
            for &(r, c) in set.usage_of(i) {
                ws.remaining[r] -= set.weight(i) * c * delta;
            }
        }
        // Freeze: bundle that hit its cap, and bundles using any resource
        // that saturated this round.
        if let Some(i) = limit_bundle {
            ws.active[i] = false;
        }
        // A resource counts as saturated if its remaining capacity is
        // negligible relative to its original capacity.
        ws.saturated.clear();
        ws.saturated.extend(
            (0..nr)
                .filter(|&r| ws.load[r] > EPS && ws.remaining[r] <= 1e-9 * capacities[r].max(1.0)),
        );
        if !ws.saturated.is_empty() {
            for i in 0..nb {
                if !ws.active[i] {
                    continue;
                }
                if let Some(&r) =
                    ws.saturated.iter().find(|&&r| set.usage_of(i).iter().any(|&(br, _)| br == r))
                {
                    ws.active[i] = false;
                    out.binding[i] = Some(r);
                }
            }
        } else if limit_bundle.is_none() && limit_resource.is_some() {
            // Defensive: the limiting resource should have been caught by
            // the saturation scan; freeze its users explicitly.
            let r = limit_resource.unwrap();
            for i in 0..nb {
                if ws.active[i] && set.usage_of(i).iter().any(|&(br, _)| br == r) {
                    ws.active[i] = false;
                    out.binding[i] = Some(r);
                }
            }
        }
    }

    out.used.clear();
    out.used.resize(nr, 0.0);
    for i in 0..nb {
        for &(r, c) in set.usage_of(i) {
            out.used[r] += out.activity[i] * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn single_bundle_demand_bounded() {
        let alloc = solve_maxmin(&[10.0], &[Bundle::new(vec![(0, 1.0)], 4.0, 1.0)]);
        approx(alloc.activity[0], 4.0);
        assert_eq!(alloc.binding[0], None); // stopped by demand, not resource
        approx(alloc.used[0], 4.0);
    }

    #[test]
    fn single_bundle_resource_bounded() {
        let alloc = solve_maxmin(&[10.0], &[Bundle::new(vec![(0, 1.0)], f64::INFINITY, 1.0)]);
        approx(alloc.activity[0], 10.0);
        assert_eq!(alloc.binding[0], Some(0));
    }

    #[test]
    fn equal_split_between_equal_bundles() {
        let b = Bundle::new(vec![(0, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[12.0], &[b.clone(), b]);
        approx(alloc.activity[0], 6.0);
        approx(alloc.activity[1], 6.0);
    }

    #[test]
    fn weighted_split() {
        let b1 = Bundle::new(vec![(0, 1.0)], f64::INFINITY, 3.0);
        let b2 = Bundle::new(vec![(0, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[12.0], &[b1, b2]);
        approx(alloc.activity[0], 9.0);
        approx(alloc.activity[1], 3.0);
    }

    #[test]
    fn demand_bounded_releases_to_others() {
        // Bundle 0 only wants 2; bundle 1 takes the rest.
        let b1 = Bundle::new(vec![(0, 1.0)], 2.0, 1.0);
        let b2 = Bundle::new(vec![(0, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[12.0], &[b1, b2]);
        approx(alloc.activity[0], 2.0);
        approx(alloc.activity[1], 10.0);
    }

    #[test]
    fn bottleneck_chain() {
        // Bundle 0 crosses resources 0 and 1; bundle 1 only resource 1.
        // Resource 0 is tight (3), resource 1 loose (10): bundle 0 frozen
        // at 3 by resource 0; bundle 1 then takes 7 of resource 1.
        let b0 = Bundle::new(vec![(0, 1.0), (1, 1.0)], f64::INFINITY, 1.0);
        let b1 = Bundle::new(vec![(1, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[3.0, 10.0], &[b0, b1]);
        approx(alloc.activity[0], 3.0);
        approx(alloc.activity[1], 7.0);
        assert_eq!(alloc.binding[0], Some(0));
        assert_eq!(alloc.binding[1], Some(1));
    }

    #[test]
    fn composite_usage_scales_together() {
        // Bundle consumes 2x on resource 0 and 1x on resource 1 per unit.
        let b = Bundle::new(vec![(0, 2.0), (1, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[10.0, 10.0], &[b]);
        approx(alloc.activity[0], 5.0); // resource 0 binds at activity 5
        assert_eq!(alloc.binding[0], Some(0));
        approx(alloc.used[0], 10.0);
        approx(alloc.used[1], 5.0);
    }

    #[test]
    fn lockstep_semantics_match_paper_eq1() {
        // Paper Eq. 1: a worker reading with weights {0.5, 0.5} from a
        // 10 GB/s local node and a 2 GB/s remote path finishes at the pace
        // of the remote transfer. Bundle demand vector = (0.5, 0.5) per
        // unit activity; activity is total GB/s of useful progress.
        let b = Bundle::new(vec![(0, 0.5), (1, 0.5)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[10.0, 2.0], &[b]);
        approx(alloc.activity[0], 4.0); // 2 GB/s path / 0.5 share
        assert_eq!(alloc.binding[0], Some(1));
        // With bandwidth-proportional weights (Eq. 2: 10/12, 2/12) the same
        // resources support activity 12.
        let b = Bundle::new(vec![(0, 10.0 / 12.0), (1, 2.0 / 12.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[10.0, 2.0], &[b]);
        approx(alloc.activity[0], 12.0);
    }

    #[test]
    fn zero_cap_bundle_gets_nothing() {
        let b = Bundle::new(vec![(0, 1.0)], 0.0, 1.0);
        let alloc = solve_maxmin(&[10.0], &[b]);
        approx(alloc.activity[0], 0.0);
        approx(alloc.used[0], 0.0);
    }

    #[test]
    fn empty_inputs() {
        let alloc = solve_maxmin(&[5.0], &[]);
        assert!(alloc.activity.is_empty());
        approx(alloc.used[0], 0.0);
    }

    #[test]
    fn three_way_asymmetric_contention() {
        // Two bundles share resource 0; one also needs tight resource 1.
        let b0 = Bundle::new(vec![(0, 1.0), (1, 1.0)], f64::INFINITY, 1.0);
        let b1 = Bundle::new(vec![(0, 1.0)], f64::INFINITY, 1.0);
        let alloc = solve_maxmin(&[10.0, 2.0], &[b0, b1]);
        approx(alloc.activity[0], 2.0); // frozen by resource 1
        approx(alloc.activity[1], 8.0); // rest of resource 0
    }

    #[test]
    fn bundle_set_reuse_is_bitwise_identical() {
        // The scratch-based entry point must agree bit for bit with the
        // allocating wrapper, including when its buffers carry state from
        // a previous, differently-shaped solve.
        let bundles = [
            Bundle::new(vec![(0, 1.0), (1, 0.7)], 1.0, 3.0),
            Bundle::new(vec![(1, 1.3)], f64::INFINITY, 1.0),
            Bundle::new(vec![(0, 0.2), (2, 1.0)], 2.5, 2.0),
        ];
        let caps = [10.0, 2.0, 4.0];
        let reference = solve_maxmin(&caps, &bundles);
        let mut ws = MaxminScratch::default();
        let mut out = Allocation::default();
        // Dirty the buffers with an unrelated solve first.
        let mut warm = BundleSet::new();
        warm.push_bundle(f64::INFINITY, 1.0);
        warm.push_usage(0, 2.0);
        solve_maxmin_set(&[7.0], &warm, &mut ws, &mut out);
        // Now the real one.
        let mut set = BundleSet::new();
        for b in &bundles {
            set.push_bundle(b.cap, b.weight);
            for &(r, c) in &b.usage {
                set.push_usage(r, c);
            }
        }
        solve_maxmin_set(&caps, &set, &mut ws, &mut out);
        assert_eq!(out.activity, reference.activity);
        assert_eq!(out.binding, reference.binding);
        assert_eq!(out.used, reference.used);
    }

    #[test]
    #[should_panic(expected = "resource index")]
    fn out_of_range_resource_panics() {
        solve_maxmin(&[1.0], &[Bundle::new(vec![(3, 1.0)], 1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "weight must be positive")]
    fn zero_weight_panics() {
        solve_maxmin(&[1.0], &[Bundle::new(vec![(0, 1.0)], 1.0, 0.0)]);
    }
}
