//! Assembling application demand into solver bundles.
//!
//! The simulated OS describes each epoch's demand as a [`DemandSet`] of
//! lock-step groups — one per `(process, worker node)` pair — listing the
//! read/write traffic each group directs at each memory node *per unit of
//! activity* (activity 1.0 = the group running unstalled). Solving yields
//! each group's achieved activity `u ∈ [0, 1]`: the lock-step utilization
//! that drives progress and stall accounting in `numasim`.

use crate::controller::ControllerModel;
use crate::maxmin::{solve_maxmin_set, Allocation, BundleSet, MaxminScratch};
use crate::resource::ResourceTable;
use bwap_topology::{MachineTopology, NodeId};

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

/// A complete epoch demand: all groups competing on the machine, stored
/// flat (group headers + one shared flow arena) so the epoch hot loop can
/// rebuild it every epoch without allocating. Each group is opened with
/// [`DemandSet::begin_group`] and filled with [`DemandSet::add_flow`].
#[derive(Debug, Default)]
pub struct DemandSet {
    headers: Vec<GroupHeader>,
    flows: Vec<FlowDemand>,
}

#[derive(Debug, Clone, Copy)]
struct GroupHeader {
    weight: f64,
    cap: f64,
    /// Exclusive end of this group's span in `flows` (its start is the
    /// previous header's end).
    flows_end: usize,
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

    /// Start a new group with fairness `weight` (the number of hardware
    /// threads driving the demand) and activity bound `cap` (1.0 for
    /// applications, which cannot run faster than unstalled;
    /// `f64::INFINITY` for open-loop probes). Follow with
    /// [`DemandSet::add_flow`] calls.
    pub fn begin_group(&mut self, weight: f64, cap: f64) {
        self.headers.push(GroupHeader { weight, cap, flows_end: self.flows.len() });
    }

    /// Add one flow to the group opened by the last
    /// [`DemandSet::begin_group`].
    pub fn add_flow(&mut self, f: FlowDemand) {
        debug_assert!(!self.headers.is_empty(), "begin_group first");
        self.flows.push(f);
        self.headers.last_mut().expect("group open").flows_end = self.flows.len();
    }

    fn group_flows(&self, i: usize) -> &[FlowDemand] {
        let start = if i == 0 { 0 } else { self.headers[i - 1].flows_end };
        &self.flows[start..self.headers[i].flows_end]
    }

    /// Translate groups into bundles and solve, reusing `ws` and writing
    /// the weighted max-min allocation into `out`: group `i` runs at
    /// activity `out.activity[i]`, and `out.binding[i]` is the resource
    /// that froze it (name it with [`ResourceTable::kind`]), `None` when
    /// it reached its cap.
    pub fn solve_into(
        &self,
        machine: &MachineTopology,
        resources: &ResourceTable,
        ctrl_model: &ControllerModel,
        ws: &mut SolveScratch,
        out: &mut Allocation,
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
        solve_maxmin_set(resources.capacities(), &ws.bundles, &mut ws.maxmin, out);
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
    use crate::resource::ResourceKind;
    use bwap_topology::{machines, LinkId};

    /// Solve `ds` on machine B.
    fn solve(ds: &DemandSet) -> (ResourceTable, Allocation) {
        let m = machines::machine_b();
        let rt = ResourceTable::from_machine(&m);
        let mut alloc = Allocation::default();
        let cm = ControllerModel::default();
        ds.solve_into(&m, &rt, &cm, &mut SolveScratch::default(), &mut alloc);
        (rt, alloc)
    }

    /// `read_gbps` of threads on `cpu` reading from `mem`.
    fn read(mem: u16, cpu: u16, read_gbps: f64) -> FlowDemand {
        FlowDemand { mem: NodeId(mem), cpu: NodeId(cpu), read_gbps, write_gbps: 0.0 }
    }

    /// One group per `(weight, cap, flows)`.
    fn demand(groups: &[(f64, f64, &[FlowDemand])]) -> DemandSet {
        let mut ds = DemandSet::new();
        for &(weight, cap, flows) in groups {
            ds.begin_group(weight, cap);
            for &f in flows {
                ds.add_flow(f);
            }
        }
        ds
    }

    #[test]
    fn local_only_group_bounded_by_cap() {
        let (_, a) = solve(&demand(&[(7.0, 1.0, &[read(0, 0, 10.0)])]));
        assert!((a.activity[0] - 1.0).abs() < 1e-9);
        assert_eq!(a.binding[0], None);
    }

    #[test]
    fn link_shares_cover_every_direction_and_follow_traffic() {
        // Local-only traffic crosses no link: every directed share is 0.
        let (rt, a) = solve(&demand(&[(1.0, 1.0, &[read(0, 0, 5.0)])]));
        let shares: Vec<_> = rt.link_shares(&a).collect();
        assert_eq!(shares.len(), machines::machine_b().links().len());
        assert!(shares.iter().all(|&(_, ab, ba)| ab == 0.0 && ba == 0.0));
        // One entry per link, in link order.
        assert!(shares.iter().enumerate().all(|(i, &(l, _, _))| l == LinkId(i)));

        // A remote read must put its full rate on some link direction.
        let (rt, a) = solve(&demand(&[(1.0, 1.0, &[read(1, 0, 5.0)])]));
        let max = rt.link_shares(&a).map(|(_, ab, ba)| ab.max(ba)).fold(0.0, f64::max);
        assert!((max - 5.0).abs() < 1e-9, "remote read share missing: {max}");
    }

    #[test]
    fn local_saturation_binds_at_controller() {
        // 40 GB/s is above the 28 GB/s controller.
        let (rt, a) = solve(&demand(&[(7.0, 1.0, &[read(0, 0, 40.0)])]));
        assert!((a.activity[0] - 28.0 / 40.0).abs() < 1e-9);
        assert_eq!(a.binding[0].map(|r| rt.kind(r)), Some(ResourceKind::Controller(NodeId(0))));
    }

    #[test]
    fn writes_amplified_at_controller() {
        let write = FlowDemand { mem: NodeId(0), cpu: NodeId(0), read_gbps: 0.0, write_gbps: 1.0 };
        let (_, a) = solve(&demand(&[(7.0, f64::INFINITY, &[write])]));
        // all-write stream achieves 28 / 1.25 = 22.4 GB/s
        assert!((a.activity[0] - 28.0 / 1.25).abs() < 1e-9);
    }

    #[test]
    fn qpi_congestion_shared_between_cross_socket_readers() {
        // Both node-2 and node-3 CPUs read from node 0: they share the QPI
        // (16 GB/s) and node 0's controller.
        let (_, a) = solve(&demand(&[
            (7.0, f64::INFINITY, &[read(0, 2, 1.0)]),
            (7.0, f64::INFINITY, &[read(0, 3, 1.0)]),
        ]));
        let total = a.activity[0] + a.activity[1];
        // QPI (16) binds before the controller (28) or the path caps
        // (13.5 + 12.6 = 26.1): the pair must split exactly 16 GB/s.
        assert!((total - 16.0).abs() < 1e-6, "total {total}");
        // max-min: equal weights -> equal split
        assert!((a.activity[0] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn lockstep_group_paced_by_slowest_transfer() {
        // Node-0 threads read 10 GB/s from node 0 and 10 GB/s from node 1
        // per unit activity; the weakest constraint is... none below cap,
        // so activity reaches 1. Then triple the demand: the intra-socket
        // link (21 GB/s) binds the node-1 leg: activity = 21/30.
        let (_, a) = solve(&demand(&[(7.0, 1.0, &[read(0, 0, 30.0), read(1, 0, 30.0)])]));
        // ingress at node 0 is 42: total read 60 per activity -> 0.7 from
        // ingress; node-1 leg limited by link/path 21/30 = 0.7 too; ctrl 0
        // at 28/30... controller 0 is the binding one (28/30 ≈ 0.933 > 0.7).
        // The tightest is min(42/60, 21/30, 28/30, 21(path)/30) = 0.7.
        assert!((a.activity[0] - 0.7).abs() < 1e-9, "{}", a.activity[0]);
    }

    #[test]
    fn two_processes_weighted_by_threads() {
        let (_, a) = solve(&demand(&[
            (6.0, f64::INFINITY, &[read(1, 1, 1.0)]),
            (1.0, f64::INFINITY, &[read(1, 1, 1.0)]),
        ]));
        // 28 GB/s controller split 6:1
        assert!((a.activity[0] - 24.0).abs() < 1e-6);
        assert!((a.activity[1] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn empty_demand_set() {
        let (_, a) = solve(&DemandSet::new());
        assert!(a.activity.is_empty());
        assert!(a.used.iter().all(|&u| u == 0.0));
    }
}
