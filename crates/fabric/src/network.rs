//! Assembling application demand into solver bundles.
//!
//! The simulated OS describes each epoch's demand as a set of
//! [`GroupSpec`]s — one per `(process, worker node)` pair — listing the
//! read/write traffic that group directs at each memory node *per unit of
//! activity* (activity 1.0 = the group running unstalled). Solving yields
//! each group's achieved activity `u ∈ [0, 1]`: the lock-step utilization
//! that drives progress and stall accounting in `numasim`.

use crate::controller::ControllerModel;
use crate::maxmin::{solve_maxmin_set, Allocation, BundleSet, MaxminScratch};
use crate::resource::{ResourceKind, ResourceTable};
use bwap_topology::{Direction, LinkId, MachineTopology, NodeId};

/// Caller-chosen identifier to map outcomes back to processes/nodes.
pub type GroupId = u64;

/// Traffic one group sends to one memory node, in GB/s per unit activity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// Memory node holding the pages.
    pub mem: NodeId,
    /// CPU node where the accessing threads run.
    pub cpu: NodeId,
    /// Read traffic (data flows `mem -> cpu`).
    pub read_gbps: f64,
    /// Write traffic (data flows `cpu -> mem`).
    pub write_gbps: f64,
}

/// One lock-step demand group.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// Caller identifier, returned in [`GroupOutcome`].
    pub id: GroupId,
    /// Fairness weight (number of hardware threads driving the demand).
    pub weight: f64,
    /// Maximum activity; 1.0 for applications (cannot run faster than
    /// unstalled), `f64::INFINITY` for open-loop probes.
    pub cap: f64,
    /// Per-memory-node traffic at activity 1.0.
    pub flows: Vec<FlowDemand>,
}

/// Outcome for one group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupOutcome {
    /// Caller identifier.
    pub id: GroupId,
    /// Achieved activity (for applications: lock-step utilization in
    /// `[0, 1]`).
    pub activity: f64,
    /// The binding constraint, if the group was frozen by a resource
    /// rather than by its own demand cap.
    pub binding: Option<ResourceKind>,
}

/// A complete epoch demand: all groups competing on the machine, stored
/// flat (group headers + one shared flow arena) so the epoch hot loop can
/// rebuild it every epoch without allocating. Groups are appended either
/// wholesale ([`DemandSet::push`]) or incrementally
/// ([`DemandSet::begin_group`] + [`DemandSet::add_flow`]).
#[derive(Debug, Default)]
pub struct DemandSet {
    headers: Vec<GroupHeader>,
    flows: Vec<FlowDemand>,
}

#[derive(Debug, Clone, Copy)]
struct GroupHeader {
    id: GroupId,
    weight: f64,
    cap: f64,
    /// Exclusive end of this group's span in `flows` (its start is the
    /// previous header's end).
    flows_end: usize,
}

/// Solver result: per-group outcomes plus the raw allocation for resource
/// utilization diagnostics.
#[derive(Debug, Clone, Default)]
pub struct SolveResult {
    /// One outcome per input group, same order.
    pub outcomes: Vec<GroupOutcome>,
    /// Raw allocation (resource usage vector, bindings by dense index).
    pub allocation: Allocation,
}

impl SolveResult {
    /// Whether `self` and `other` hold the same bits (floats compare by
    /// `to_bits`, so `-0.0 != 0.0`).
    pub fn bitwise_eq(&self, other: &SolveResult) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let (a, b) = (&self.allocation, &other.allocation);
        self.outcomes.len() == other.outcomes.len()
            && self.outcomes.iter().zip(&other.outcomes).all(|(x, y)| {
                x.id == y.id
                    && x.activity.to_bits() == y.activity.to_bits()
                    && x.binding == y.binding
            })
            && bits_eq(&a.activity, &b.activity)
            && a.binding == b.binding
            && bits_eq(&a.used, &b.used)
    }

    /// The directed per-link bandwidth shares this solve granted, in
    /// GB/s: `(link, direction, share)` for every link direction of the
    /// `resources` table the solve ran against, in dense resource order.
    /// This is the max-min share actually flowing over each hop — the
    /// quantity the run-trace layer records per epoch — not the link's
    /// capacity ([`ResourceTable::capacities`]) or its utilization
    /// fraction ([`Allocation::utilization`]).
    pub fn link_shares<'a>(
        &'a self,
        resources: &'a ResourceTable,
    ) -> impl Iterator<Item = (LinkId, Direction, f64)> + 'a {
        (0..resources.link_count()).flat_map(move |l| {
            [Direction::AtoB, Direction::BtoA].into_iter().map(move |d| {
                let r = resources.link_dir(LinkId(l), d);
                (LinkId(l), d, self.allocation.used.get(r).copied().unwrap_or(0.0))
            })
        })
    }
}

/// Reusable buffers for [`DemandSet::solve_into`]: the dense usage
/// accumulator, the flat bundle set, and the max-min solver scratch.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    dense: Vec<f64>,
    bundles: BundleSet,
    maxmin: MaxminScratch,
}

impl DemandSet {
    /// Build an empty demand set.
    pub fn new() -> Self {
        DemandSet::default()
    }

    /// Drop all groups, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.headers.clear();
        self.flows.clear();
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.headers.len()
    }

    /// Whether the set has no groups.
    pub fn is_empty(&self) -> bool {
        self.headers.is_empty()
    }

    /// Start a new group; follow with [`DemandSet::add_flow`] calls.
    pub fn begin_group(&mut self, id: GroupId, weight: f64, cap: f64) {
        self.headers.push(GroupHeader { id, weight, cap, flows_end: self.flows.len() });
    }

    /// Add one flow to the group opened by the last
    /// [`DemandSet::begin_group`].
    pub fn add_flow(&mut self, f: FlowDemand) {
        debug_assert!(!self.headers.is_empty(), "begin_group first");
        self.flows.push(f);
        self.headers.last_mut().expect("group open").flows_end = self.flows.len();
    }

    /// Add a group wholesale.
    pub fn push(&mut self, g: GroupSpec) {
        self.begin_group(g.id, g.weight, g.cap);
        for f in g.flows {
            self.add_flow(f);
        }
    }

    fn group_flows(&self, i: usize) -> &[FlowDemand] {
        let start = if i == 0 { 0 } else { self.headers[i - 1].flows_end };
        &self.flows[start..self.headers[i].flows_end]
    }

    /// Translate groups into bundles and solve (allocating convenience
    /// form of [`DemandSet::solve_into`]).
    pub fn solve(
        &self,
        machine: &MachineTopology,
        resources: &ResourceTable,
        ctrl_model: &ControllerModel,
    ) -> SolveResult {
        let mut ws = SolveScratch::default();
        let mut out = SolveResult::default();
        self.solve_into(machine, resources, ctrl_model, &mut ws, &mut out);
        out
    }

    /// Translate groups into bundles and solve, reusing `ws` and writing
    /// the result into `out` — the allocation-free epoch-loop entry point.
    /// Identical math (and bitwise-identical results) to
    /// [`DemandSet::solve`].
    pub fn solve_into(
        &self,
        machine: &MachineTopology,
        resources: &ResourceTable,
        ctrl_model: &ControllerModel,
        ws: &mut SolveScratch,
        out: &mut SolveResult,
    ) {
        ws.bundles.clear();
        for i in 0..self.len() {
            let h = self.headers[i];
            accumulate_bundle(
                self.group_flows(i),
                h.cap,
                h.weight,
                machine,
                resources,
                ctrl_model,
                &mut ws.dense,
                &mut ws.bundles,
            );
        }
        solve_maxmin_set(resources.capacities(), &ws.bundles, &mut ws.maxmin, &mut out.allocation);
        out.outcomes.clear();
        out.outcomes.extend(self.headers.iter().enumerate().map(|(i, h)| GroupOutcome {
            id: h.id,
            activity: out.allocation.activity[i],
            binding: out.allocation.binding[i].map(|r| resources.kind(r)),
        }));
    }
}

/// Accumulate a group's flows into one bundle usage vector appended to
/// `bundles`. Dense accumulation then index-order sparsification keeps a
/// resource listed once, in the same order as ever.
#[allow(clippy::too_many_arguments)]
fn accumulate_bundle(
    flows: &[FlowDemand],
    cap: f64,
    weight: f64,
    machine: &MachineTopology,
    resources: &ResourceTable,
    ctrl_model: &ControllerModel,
    dense: &mut Vec<f64>,
    bundles: &mut BundleSet,
) {
    dense.clear();
    dense.resize(resources.len(), 0.0);
    for f in flows {
        debug_assert!(f.read_gbps >= 0.0 && f.write_gbps >= 0.0);
        if f.read_gbps > 0.0 {
            // Data flows mem -> cpu.
            dense[resources.ctrl(f.mem)] += ctrl_model.controller_usage(f.read_gbps, 0.0);
            dense[resources.ingress(f.cpu)] += f.read_gbps;
            if f.mem != f.cpu {
                dense[resources.path_cap(f.mem, f.cpu)] += f.read_gbps;
                for hop in machine.routes().get(f.mem, f.cpu).hops() {
                    dense[resources.link_dir(hop.link, hop.dir)] += f.read_gbps;
                }
            }
        }
        if f.write_gbps > 0.0 {
            // Data flows cpu -> mem; the write lands on mem's controller
            // with amplification, traversing the cpu->mem route.
            dense[resources.ctrl(f.mem)] += ctrl_model.controller_usage(0.0, f.write_gbps);
            if f.mem != f.cpu {
                dense[resources.path_cap(f.cpu, f.mem)] += f.write_gbps;
                for hop in machine.routes().get(f.cpu, f.mem).hops() {
                    dense[resources.link_dir(hop.link, hop.dir)] += f.write_gbps;
                }
            }
        }
    }
    bundles.push_bundle(cap, weight);
    for (r, &c) in dense.iter().enumerate() {
        if c > 0.0 {
            bundles.push_usage(r, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    fn setup() -> (MachineTopology, ResourceTable, ControllerModel) {
        let m = machines::machine_b();
        let rt = ResourceTable::from_machine(&m);
        (m, rt, ControllerModel::default())
    }

    #[test]
    fn local_only_group_bounded_by_cap() {
        let (m, rt, cm) = setup();
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 7,
            weight: 7.0,
            cap: 1.0,
            flows: vec![FlowDemand {
                mem: NodeId(0),
                cpu: NodeId(0),
                read_gbps: 10.0,
                write_gbps: 0.0,
            }],
        });
        let r = ds.solve(&m, &rt, &cm);
        assert_eq!(r.outcomes[0].id, 7);
        assert!((r.outcomes[0].activity - 1.0).abs() < 1e-9);
        assert_eq!(r.outcomes[0].binding, None);
    }

    #[test]
    fn link_shares_cover_every_direction_and_follow_traffic() {
        let (m, rt, cm) = setup();
        // Local-only traffic crosses no link: every directed share is 0.
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 0,
            weight: 1.0,
            cap: 1.0,
            flows: vec![FlowDemand {
                mem: NodeId(0),
                cpu: NodeId(0),
                read_gbps: 5.0,
                write_gbps: 0.0,
            }],
        });
        let r = ds.solve(&m, &rt, &cm);
        let shares: Vec<_> = r.link_shares(&rt).collect();
        assert_eq!(shares.len(), 2 * rt.link_count());
        assert!(shares.iter().all(|(_, _, s)| *s == 0.0));
        // Directed pairs appear in dense resource order.
        assert_eq!((shares[0].0, shares[0].1), (LinkId(0), Direction::AtoB));
        assert_eq!((shares[1].0, shares[1].1), (LinkId(0), Direction::BtoA));

        // A remote read must put its full rate on some link hop.
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 0,
            weight: 1.0,
            cap: 1.0,
            flows: vec![FlowDemand {
                mem: NodeId(1),
                cpu: NodeId(0),
                read_gbps: 5.0,
                write_gbps: 0.0,
            }],
        });
        let r = ds.solve(&m, &rt, &cm);
        let max = r.link_shares(&rt).map(|(_, _, s)| s).fold(0.0, f64::max);
        assert!((max - 5.0).abs() < 1e-9, "remote read share missing: {max}");
    }

    #[test]
    fn local_saturation_binds_at_controller() {
        let (m, rt, cm) = setup();
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 0,
            weight: 7.0,
            cap: 1.0,
            flows: vec![FlowDemand {
                mem: NodeId(0),
                cpu: NodeId(0),
                read_gbps: 40.0, // above the 28 GB/s controller
                write_gbps: 0.0,
            }],
        });
        let r = ds.solve(&m, &rt, &cm);
        assert!((r.outcomes[0].activity - 28.0 / 40.0).abs() < 1e-9);
        assert_eq!(r.outcomes[0].binding, Some(ResourceKind::Controller(NodeId(0))));
    }

    #[test]
    fn writes_amplified_at_controller() {
        let (m, rt, cm) = setup();
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 0,
            weight: 7.0,
            cap: f64::INFINITY,
            flows: vec![FlowDemand {
                mem: NodeId(0),
                cpu: NodeId(0),
                read_gbps: 0.0,
                write_gbps: 1.0,
            }],
        });
        let r = ds.solve(&m, &rt, &cm);
        // all-write stream achieves 28 / 1.25 = 22.4 GB/s
        assert!((r.outcomes[0].activity - 28.0 / 1.25).abs() < 1e-9);
    }

    #[test]
    fn qpi_congestion_shared_between_cross_socket_readers() {
        let (m, rt, cm) = setup();
        // Both node-2 and node-3 CPUs read from node 0: they share the QPI
        // (16 GB/s) and node 0's controller.
        let mk = |id, cpu| GroupSpec {
            id,
            weight: 7.0,
            cap: f64::INFINITY,
            flows: vec![FlowDemand {
                mem: NodeId(0),
                cpu: NodeId(cpu),
                read_gbps: 1.0,
                write_gbps: 0.0,
            }],
        };
        let mut ds = DemandSet::new();
        ds.push(mk(0, 2));
        ds.push(mk(1, 3));
        let r = ds.solve(&m, &rt, &cm);
        let total = r.outcomes[0].activity + r.outcomes[1].activity;
        // QPI (16) binds before the controller (28) or the path caps
        // (13.5 + 12.6 = 26.1): the pair must split exactly 16 GB/s.
        assert!((total - 16.0).abs() < 1e-6, "total {total}");
        // max-min: equal weights -> equal split
        assert!((r.outcomes[0].activity - 8.0).abs() < 1e-6);
    }

    #[test]
    fn lockstep_group_paced_by_slowest_transfer() {
        let (m, rt, cm) = setup();
        // Node-0 threads read 10 GB/s from node 0 and 10 GB/s from node 1
        // per unit activity; the weakest constraint is... none below cap,
        // so activity reaches 1. Then triple the demand: the intra-socket
        // link (21 GB/s) binds the node-1 leg: activity = 21/30.
        let mut ds = DemandSet::new();
        ds.push(GroupSpec {
            id: 0,
            weight: 7.0,
            cap: 1.0,
            flows: vec![
                FlowDemand { mem: NodeId(0), cpu: NodeId(0), read_gbps: 30.0, write_gbps: 0.0 },
                FlowDemand { mem: NodeId(1), cpu: NodeId(0), read_gbps: 30.0, write_gbps: 0.0 },
            ],
        });
        let r = ds.solve(&m, &rt, &cm);
        // ingress at node 0 is 42: total read 60 per activity -> 0.7 from
        // ingress; node-1 leg limited by link/path 21/30 = 0.7 too; ctrl 0
        // at 28/30... controller 0 is the binding one (28/30 ≈ 0.933 > 0.7).
        // The tightest is min(42/60, 21/30, 28/30, 21(path)/30) = 0.7.
        assert!((r.outcomes[0].activity - 0.7).abs() < 1e-9, "{}", r.outcomes[0].activity);
    }

    #[test]
    fn two_processes_weighted_by_threads() {
        let (m, rt, cm) = setup();
        let mk = |id, weight| GroupSpec {
            id,
            weight,
            cap: f64::INFINITY,
            flows: vec![FlowDemand {
                mem: NodeId(1),
                cpu: NodeId(1),
                read_gbps: 1.0,
                write_gbps: 0.0,
            }],
        };
        let mut ds = DemandSet::new();
        ds.push(mk(0, 6.0));
        ds.push(mk(1, 1.0));
        let r = ds.solve(&m, &rt, &cm);
        // 28 GB/s controller split 6:1
        assert!((r.outcomes[0].activity - 24.0).abs() < 1e-6);
        assert!((r.outcomes[1].activity - 4.0).abs() < 1e-6);
    }

    #[test]
    fn empty_demand_set() {
        let (m, rt, cm) = setup();
        let r = DemandSet::new().solve(&m, &rt, &cm);
        assert!(r.outcomes.is_empty());
        assert!(r.allocation.used.iter().all(|&u| u == 0.0));
    }
}
