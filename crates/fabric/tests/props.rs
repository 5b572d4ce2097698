//! Property tests over the allocator: max-min optimality and physical
//! consistency of the demand translation.

use bwap_fabric::{
    solve_maxmin, Allocation, Bundle, ControllerModel, DemandSet, FlowDemand, ResourceTable,
    SolveScratch,
};
use bwap_topology::{machines, NodeId};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn random_problem(seed: u64) -> (Vec<f64>, Vec<Bundle>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let nr = rng.gen_range(2..10usize);
    let caps: Vec<f64> = (0..nr).map(|_| rng.gen_range(1.0..20.0)).collect();
    let bundles: Vec<Bundle> = (0..rng.gen_range(1..12usize))
        .map(|_| {
            let mut usage = Vec::new();
            for _ in 0..rng.gen_range(1..=nr) {
                let r = rng.gen_range(0..nr);
                if !usage.iter().any(|&(x, _): &(usize, f64)| x == r) {
                    usage.push((r, rng.gen_range(0.2..2.0)));
                }
            }
            Bundle::new(usage, f64::INFINITY, rng.gen_range(0.5..3.0))
        })
        .collect();
    (caps, bundles)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Max-min optimality (water-filling property): no bundle's activity
    /// can be raised without violating a capacity, because each is frozen
    /// by a saturated resource.
    #[test]
    fn allocation_is_pareto_maximal(seed in 0u64..5000) {
        let (caps, bundles) = random_problem(seed);
        let alloc = solve_maxmin(&caps, &bundles);
        for (i, b) in bundles.iter().enumerate() {
            // Raising bundle i by epsilon must overflow some resource.
            let eps = 1e-6;
            let overflows = b.usage.iter().any(|&(r, c)| {
                alloc.used[r] + eps * c > caps[r] * (1.0 + 1e-9)
            });
            prop_assert!(
                overflows,
                "bundle {i} could still grow: activity {}",
                alloc.activity[i]
            );
        }
    }

    /// Scaling all capacities and demands together scales the allocation
    /// (the solver is positively homogeneous).
    #[test]
    fn solver_is_scale_invariant(seed in 0u64..2000, scale in 0.1f64..10.0) {
        let (caps, bundles) = random_problem(seed);
        let a1 = solve_maxmin(&caps, &bundles);
        let caps2: Vec<f64> = caps.iter().map(|c| c * scale).collect();
        let a2 = solve_maxmin(&caps2, &bundles);
        for i in 0..bundles.len() {
            prop_assert!((a2.activity[i] - a1.activity[i] * scale).abs()
                <= 1e-6 * (1.0 + a1.activity[i] * scale));
        }
    }

    /// Translating application demand through the network builder never
    /// exceeds machine resources, for arbitrary placements and demand
    /// levels.
    #[test]
    fn demand_translation_respects_machine(
        demand in 0.5f64..60.0,
        share0 in 0.0f64..1.0,
        cross in any::<bool>(),
    ) {
        let m = machines::machine_a();
        let rt = ResourceTable::from_machine(&m);
        let cm = ControllerModel::default();
        let cpu = if cross { NodeId(4) } else { NodeId(0) };
        let mut ds = DemandSet::new();
        ds.begin_group(8.0, 1.0);
        ds.add_flow(FlowDemand { mem: NodeId(0), cpu, read_gbps: demand * share0, write_gbps: 0.1 });
        ds.add_flow(FlowDemand {
            mem: NodeId(3),
            cpu,
            read_gbps: demand * (1.0 - share0),
            write_gbps: 0.0,
        });
        let mut solved = Allocation::default();
        ds.solve_into(&m, &rt, &cm, &mut SolveScratch::default(), &mut solved);
        let u = solved.activity[0];
        prop_assert!((0.0..=1.0 + 1e-9).contains(&u));
        for (r, &used) in solved.used.iter().enumerate() {
            prop_assert!(used <= rt.capacities()[r] * (1.0 + 1e-6), "resource {r}");
        }
    }
}
