//! Property tests for the content-addressed cell descriptor: injectivity
//! across every campaign axis (perturbing any axis changes the
//! descriptor), seed-normalization (per-cell seeds that no policy reads
//! do *not* change it), and the soundness invariant exact memoization
//! rests on — equal descriptors produce byte-identical outcomes.

use bwap::BwapConfig;
use bwap_runtime::campaign::cache::encode_entry;
use bwap_runtime::{
    cell_descriptor, run_cell_for, CampaignSpec, DwpPoint, EngineMode, PlacementPolicy,
    ScenarioKind,
};
use bwap_topology::machines;
use proptest::prelude::*;

/// One fully-specified single-cell campaign coordinate.
#[derive(Debug, Clone, PartialEq)]
struct Coord {
    machine: usize,
    workload: usize,
    policy: usize,
    scenario: usize,
    workers: usize,
    dwp: usize,
    engine: usize,
    seed: u64,
}

const MACHINES: usize = 3;
const WORKLOADS: usize = 2;
const POLICIES: usize = 5;
const SCENARIOS: usize = 2;
const DWPS: usize = 4; // online, 0.0, 0.5, 1.0
const ENGINES: usize = 2;

fn policy(i: usize) -> PlacementPolicy {
    match i {
        0 => PlacementPolicy::FirstTouch,
        1 => PlacementPolicy::UniformWorkers,
        2 => PlacementPolicy::UniformAll,
        3 => PlacementPolicy::Bwap(BwapConfig::default()),
        _ => PlacementPolicy::Bwap(BwapConfig::static_dwp(0.3)),
    }
}

fn dwp(i: usize) -> DwpPoint {
    match i {
        0 => DwpPoint::AsConfigured,
        1 => DwpPoint::Static(0.0),
        2 => DwpPoint::Static(0.5),
        _ => DwpPoint::Static(1.0),
    }
}

fn spec_for(c: &Coord) -> CampaignSpec {
    let machine = match c.machine {
        0 => machines::machine_a(),
        1 => machines::machine_b(),
        _ => machines::machine_tiered(),
    };
    let workload = match c.workload {
        0 => bwap_workloads::streamcluster().scaled_down(32.0),
        _ => bwap_workloads::ocean_cp().scaled_down(32.0),
    };
    let scenario =
        if c.scenario == 0 { ScenarioKind::Standalone } else { ScenarioKind::Coscheduled };
    let engine = if c.engine == 0 { EngineMode::Stepped } else { EngineMode::EventDriven };
    CampaignSpec::new("prop", machine)
        .workloads(vec![workload])
        .policies(vec![policy(c.policy)])
        .scenarios(vec![scenario])
        .worker_counts(vec![c.workers])
        .dwp_grid(vec![dwp(c.dwp)])
        .seed(c.seed)
        .engine_mode(engine)
}

/// The descriptor of a coordinate's single cell, if the coordinate
/// enumerates one (static-DWP points apply only to BWAP policies).
fn descriptor_of(c: &Coord) -> Option<String> {
    let spec = spec_for(c);
    let cells = spec.cells();
    cells.first().map(|cell| cell_descriptor(&spec, cell).text().to_string())
}

fn coord() -> impl Strategy<Value = Coord> {
    (
        0..MACHINES,
        0..WORKLOADS,
        0..POLICIES,
        0..SCENARIOS,
        1..=2usize,
        0..DWPS,
        0..ENGINES,
        0u64..1000,
    )
        .prop_map(|(machine, workload, policy, scenario, workers, dwp, engine, seed)| Coord {
            machine,
            workload,
            policy,
            scenario,
            workers,
            dwp,
            engine,
            seed,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Perturbing any single campaign axis changes the descriptor —
    /// distinct simulations can never share a cache entry. (The DWP axis
    /// is perturbed within the static range so the known, *intentional*
    /// fold `bwap x Static(d)` == `static_dwp(d) x online` stays out of
    /// the picture; the fold itself is pinned in a separate test.)
    #[test]
    fn perturbing_any_axis_changes_the_descriptor(c in coord(), axis in 0..6usize) {
        let mut p = c.clone();
        match axis {
            0 => p.machine = (c.machine + 1) % MACHINES,
            1 => p.workload = (c.workload + 1) % WORKLOADS,
            2 => p.scenario = (c.scenario + 1) % SCENARIOS,
            3 => p.workers = if c.workers == 1 { 2 } else { 1 },
            4 => p.engine = (c.engine + 1) % ENGINES,
            // Static DWP value flip, BWAP policies only (other policies
            // don't enumerate static points).
            _ => {
                p.policy = 3;
                p.dwp = if c.dwp <= 1 { 2 } else { 1 };
                if p == c { p.dwp = 3; }
            }
        }
        let (Some(a), Some(b)) = (descriptor_of(&c), descriptor_of(&p)) else {
            // Coordinate enumerated no cell (static DWP on a non-BWAP
            // policy): nothing to compare.
            return Ok(());
        };
        // (axis {axis} perturbation must change the descriptor)
        prop_assert_ne!(a, b);
    }

    /// Campaign seeds are left out: every shipped policy is
    /// deterministic (none consumes a seed), so two campaigns differing
    /// only in seed share every cell — and the cache.
    #[test]
    fn seed_does_not_change_the_descriptor(c in coord(), other_seed in 1000u64..2000) {
        let mut p = c.clone();
        p.seed = other_seed;
        prop_assert_eq!(descriptor_of(&c), descriptor_of(&p));
    }

    /// Distinct policy indices map to distinct descriptors, *except* the
    /// documented fold: a pre-fixed static-DWP BWAP config equals the
    /// default BWAP config at the matching static grid point.
    #[test]
    fn policies_are_distinguished(c in coord(), pa in 0..POLICIES, pb in 0..POLICIES) {
        let mut a = c.clone();
        a.policy = pa;
        a.dwp = 0;
        let mut b = c.clone();
        b.policy = pb;
        b.dwp = 0;
        let (da, db) = (descriptor_of(&a).unwrap(), descriptor_of(&b).unwrap());
        if pa == pb {
            prop_assert_eq!(da, db);
        } else {
            prop_assert_ne!(da, db);
        }
    }
}

proptest! {
    // Execution-backed cases are expensive; a few random coordinates per
    // run still cover the product space over CI history.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The soundness contract of exact memoization: equal descriptors
    /// imply byte-identical outcomes. Exercised through the intentional
    /// equivalence (default BWAP at a static grid point vs a pre-fixed
    /// static config run as-configured) — two *different* declared cells
    /// whose descriptors coincide, run independently, must produce
    /// bit-identical results.
    #[test]
    fn equal_descriptors_imply_byte_identical_outcomes(
        machine in 0..2usize, // symmetric machines: both scenarios valid everywhere
        scenario in 0..SCENARIOS,
        di in 0..4usize,
    ) {
        let d = [0.0f64, 0.25, 0.5, 1.0][di];
        let base = Coord {
            machine, workload: 0, policy: 3, scenario, workers: 1, dwp: 0, engine: 0, seed: 7,
        };
        let grid_spec = spec_for(&base).dwp_grid(vec![DwpPoint::Static(d)]);
        let fixed_spec = spec_for(&base)
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::static_dwp(d))])
            .dwp_grid(vec![DwpPoint::AsConfigured]);
        let (gc, fc) = (grid_spec.cells(), fixed_spec.cells());
        prop_assert_eq!(gc.len(), 1);
        prop_assert_eq!(fc.len(), 1);
        let gd = cell_descriptor(&grid_spec, &gc[0]);
        let fd = cell_descriptor(&fixed_spec, &fc[0]);
        prop_assert_eq!(gd.text(), fd.text(), "the fold must produce equal descriptors");
        let g = run_cell_for(&grid_spec, &gc[0]).map_err(|e| e.to_string());
        let f = run_cell_for(&fixed_spec, &fc[0]).map_err(|e| e.to_string());
        // Bit-exact comparison via the cache encoding (floats as bits).
        prop_assert_eq!(encode_entry(&gd, &g), encode_entry(&fd, &f));
    }
}
