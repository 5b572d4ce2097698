//! Capacity resources of a machine, densely indexed for the solver.

use crate::maxmin::Allocation;
use bwap_topology::{Direction, LinkId, MachineTopology, NodeId};

/// What a resource slot represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// Memory controller of a node (GB/s served from its DRAM).
    Controller(NodeId),
    /// Core-side ingress limit of a node (GB/s its cores can absorb). For
    /// memory-only expander nodes no application flow ever terminates
    /// here; the cap then bounds the write side of page migrations into
    /// the node (the DMA/migration engine).
    Ingress(NodeId),
    /// One direction of a physical link.
    LinkDir(LinkId, Direction),
    /// Calibrated end-to-end cap for an ordered `(src mem, dst cpu)` pair;
    /// shared by every flow moving data from `src` to `dst`.
    PathCap(NodeId, NodeId),
}

/// Dense table of all resources of a machine with their capacities (GB/s).
#[derive(Debug, Clone)]
pub struct ResourceTable {
    kinds: Vec<ResourceKind>,
    caps: Vec<f64>,
    n: usize,
    links: usize,
}

impl ResourceTable {
    /// Build the resource table for a machine.
    pub fn from_machine(m: &MachineTopology) -> Self {
        let n = m.node_count();
        let links = m.links().len();
        let mut kinds = Vec::with_capacity(2 * n + 2 * links + n * n);
        let mut caps = Vec::with_capacity(kinds.capacity());
        for i in 0..n {
            kinds.push(ResourceKind::Controller(NodeId(i as u16)));
            caps.push(m.node(NodeId(i as u16)).ctrl_bw);
        }
        for i in 0..n {
            kinds.push(ResourceKind::Ingress(NodeId(i as u16)));
            caps.push(m.node(NodeId(i as u16)).ingress_bw);
        }
        for (li, link) in m.links().iter().enumerate() {
            kinds.push(ResourceKind::LinkDir(LinkId(li), Direction::AtoB));
            caps.push(link.cap_ab);
            kinds.push(ResourceKind::LinkDir(LinkId(li), Direction::BtoA));
            caps.push(link.cap_ba);
        }
        for s in 0..n {
            for d in 0..n {
                kinds.push(ResourceKind::PathCap(NodeId(s as u16), NodeId(d as u16)));
                caps.push(m.path_caps().get(NodeId(s as u16), NodeId(d as u16)));
            }
        }
        ResourceTable { kinds, caps, n, links }
    }

    /// Number of resources.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// Whether the table is empty (never true for a valid machine).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }

    /// Capacities slice, indexed by resource id.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Kind of resource `i`.
    pub fn kind(&self, i: usize) -> ResourceKind {
        self.kinds[i]
    }

    /// Resource id of a node's memory controller.
    #[inline]
    pub fn ctrl(&self, n: NodeId) -> usize {
        n.idx()
    }

    /// Resource id of a node's ingress limit.
    #[inline]
    pub fn ingress(&self, n: NodeId) -> usize {
        self.n + n.idx()
    }

    /// Resource id of a directed link.
    #[inline]
    pub fn link_dir(&self, l: LinkId, d: Direction) -> usize {
        2 * self.n
            + 2 * l.0
            + match d {
                Direction::AtoB => 0,
                Direction::BtoA => 1,
            }
    }

    /// Resource id of the `(src, dst)` path cap.
    #[inline]
    pub fn path_cap(&self, src: NodeId, dst: NodeId) -> usize {
        2 * self.n + 2 * self.links + src.idx() * self.n + dst.idx()
    }

    /// The directed per-link bandwidth shares `alloc` granted, in GB/s:
    /// `(link, direction, share)` for every link direction of this table,
    /// in dense resource order, where `alloc` solved against this table.
    /// This is the max-min share actually flowing over each hop — the
    /// quantity the run-trace layer records per epoch — not the link's
    /// capacity ([`ResourceTable::capacities`]) or its utilization
    /// fraction ([`Allocation::utilization`]).
    pub fn link_shares<'a>(
        &'a self,
        alloc: &'a Allocation,
    ) -> impl Iterator<Item = (LinkId, Direction, f64)> + 'a {
        (0..self.links).flat_map(move |l| {
            [Direction::AtoB, Direction::BtoA].into_iter().map(move |d| {
                let r = self.link_dir(LinkId(l), d);
                (LinkId(l), d, alloc.used.get(r).copied().unwrap_or(0.0))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    #[test]
    fn indices_are_dense_and_consistent() {
        let m = machines::machine_b();
        let rt = ResourceTable::from_machine(&m);
        assert_eq!(rt.len(), 2 * 4 + 2 * 3 + 16);
        assert_eq!(rt.kind(rt.ctrl(NodeId(2))), ResourceKind::Controller(NodeId(2)));
        assert_eq!(rt.kind(rt.ingress(NodeId(0))), ResourceKind::Ingress(NodeId(0)));
        assert_eq!(
            rt.kind(rt.link_dir(LinkId(1), Direction::BtoA)),
            ResourceKind::LinkDir(LinkId(1), Direction::BtoA)
        );
        assert_eq!(
            rt.kind(rt.path_cap(NodeId(3), NodeId(1))),
            ResourceKind::PathCap(NodeId(3), NodeId(1))
        );
    }

    #[test]
    fn capacities_match_machine() {
        let m = machines::machine_a();
        let rt = ResourceTable::from_machine(&m);
        assert_eq!(rt.capacities()[rt.ctrl(NodeId(4))], 10.5);
        assert!((rt.capacities()[rt.ingress(NodeId(0))] - 9.2 * 1.6).abs() < 1e-9);
        assert_eq!(
            rt.capacities()[rt.path_cap(NodeId(0), NodeId(1))],
            m.path_caps().get(NodeId(0), NodeId(1))
        );
    }

    #[test]
    fn every_resource_positive() {
        for m in [
            machines::machine_a(),
            machines::machine_b(),
            machines::twin(),
            machines::machine_tiered(),
        ] {
            let rt = ResourceTable::from_machine(&m);
            assert!(rt.capacities().iter().all(|&c| c > 0.0));
            assert!(!rt.is_empty());
        }
    }

    #[test]
    fn memory_only_nodes_keep_a_migration_ingress_cap() {
        // CPU-less expanders still get an ingress resource: it bounds
        // migration writes into the tier at the tier's own bandwidth.
        let m = machines::machine_tiered();
        let rt = ResourceTable::from_machine(&m);
        for n in [NodeId(2), NodeId(3)] {
            assert!(m.node(n).is_memory_only());
            let cap = rt.capacities()[rt.ingress(n)];
            assert_eq!(cap, m.node(n).ctrl_bw);
        }
    }
}
