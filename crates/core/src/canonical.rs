//! The canonical tuner: optimal weights for the idealized bandwidth-bound
//! reference application (paper §III-A).

use crate::error::BwapError;
use crate::weights::WeightDistribution;
use bwap_topology::{BwMatrix, MachineTopology, NodeId, NodeSet};

/// `minbw(n_i) = min_{w ∈ workers} bw(n_i -> w)` — the bandwidth of the
/// weakest path from each memory node to any worker node (paper Eq. 4's
/// denominator).
pub fn min_bandwidths(bw: &BwMatrix, workers: NodeSet) -> Result<Vec<f64>, BwapError> {
    let n = bw.node_count();
    if workers.is_empty() {
        return Err(BwapError::InvalidWorkers("empty worker set".into()));
    }
    if !workers.is_subset(NodeSet::first(n)) {
        return Err(BwapError::InvalidWorkers(format!("{workers} exceeds {n} nodes")));
    }
    Ok((0..n)
        .map(|i| workers.iter().map(|w| bw.get(NodeId(i as u16), w)).fold(f64::INFINITY, f64::min))
        .collect())
}

/// The canonical weight distribution (paper Eq. 5; Eq. 2 when `workers` is
/// a single node): every node's weight proportional to its minimum
/// bandwidth to the worker set.
///
/// ```
/// use bwap_topology::{machines, NodeSet, NodeId};
/// use bwap::canonical_weights;
///
/// let m = machines::machine_a();
/// let w = canonical_weights(m.path_caps(), NodeSet::from_nodes([NodeId(0), NodeId(1)])).unwrap();
/// // Workers keep the largest weights; every node gets a non-zero share.
/// assert!(w.get(NodeId(0)) > w.get(NodeId(3)));
/// assert!(w.as_slice().iter().all(|&x| x > 0.0));
/// ```
pub fn canonical_weights(bw: &BwMatrix, workers: NodeSet) -> Result<WeightDistribution, BwapError> {
    WeightDistribution::from_raw(min_bandwidths(bw, workers)?)
}

/// Canonical weights for a concrete machine: Eq. 5 over the *rectangular*
/// memory×worker view of the bandwidth matrix — every memory node (rows,
/// CPU-less expander tiers included) gets a weight proportional to its
/// weakest path into the worker set (columns). Rejects worker sets that
/// include memory-only nodes, which can never host threads.
///
/// ```
/// use bwap_topology::machines;
/// use bwap::canonical_weights_on;
///
/// let m = machines::machine_tiered();
/// let w = canonical_weights_on(&m, m.worker_nodes()).unwrap();
/// // The slow expander tier still gets a non-zero share, proportional to
/// // its (lower) bandwidth toward the workers.
/// assert!(w.as_slice().iter().all(|&x| x > 0.0));
/// ```
pub fn canonical_weights_on(
    machine: &MachineTopology,
    workers: NodeSet,
) -> Result<WeightDistribution, BwapError> {
    if !workers.is_subset(machine.worker_nodes()) {
        return Err(BwapError::InvalidWorkers(format!(
            "{workers} includes memory-only nodes (workers must be within {})",
            machine.worker_nodes()
        )));
    }
    canonical_weights(machine.path_caps(), workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    #[test]
    fn eq5_on_fig1a_two_workers() {
        // Hand-computed from Fig. 1a with workers {N1, N2}:
        // minbw(N1) = min(9.2, 5.5), minbw(N3) = min(2.9, 3.6), ...
        let m = machines::machine_a();
        let workers = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let mb = min_bandwidths(m.path_caps(), workers).unwrap();
        assert_eq!(mb, vec![5.5, 5.5, 2.9, 1.8, 1.8, 2.8, 1.8, 2.8]);
        let sum: f64 = mb.iter().sum();
        let w = canonical_weights(m.path_caps(), workers).unwrap();
        assert!((w.get(NodeId(0)) - 5.5 / sum).abs() < 1e-12);
        assert!((w.get(NodeId(3)) - 1.8 / sum).abs() < 1e-12);
        assert!(w.is_normalized());
    }

    #[test]
    fn eq2_single_worker_uses_row_to_that_worker() {
        // Single worker N5 (index 4): weights proportional to column 4 of
        // the matrix read as bw(i -> N5).
        let m = machines::machine_a();
        let w = canonical_weights(m.path_caps(), NodeSet::single(NodeId(4))).unwrap();
        let col: Vec<f64> =
            (0..8).map(|i| m.path_caps().get(NodeId(i as u16), NodeId(4))).collect();
        let sum: f64 = col.iter().sum();
        for i in 0..8 {
            assert!((w.get(NodeId(i as u16)) - col[i as usize] / sum).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_machine_gives_uniform_weights() {
        // On a fully symmetric machine the canonical distribution must
        // degenerate to uniform-all — BWAP's "do no harm" property.
        let m = machines::symmetric_quad();
        let w =
            canonical_weights(m.path_caps(), NodeSet::from_nodes([NodeId(0), NodeId(1)])).unwrap();
        // workers have local bw 10, remote 6: minbw(worker) = 6 (from the
        // other worker), minbw(non-worker) = 6 -> uniform.
        assert!(w.max_abs_diff(&WeightDistribution::uniform(4)) < 1e-12);
    }

    #[test]
    fn weights_grow_with_more_workers_toward_uniformity() {
        // Paper §IV-A: "as one enlarges the worker node set, the
        // inter-worker canonical weight distributions tend to uniformity".
        let m = machines::machine_a();
        let cv = |k: usize| {
            let workers = NodeSet::first(k);
            canonical_weights(m.path_caps(), workers)
                .unwrap()
                .coefficient_of_variation(m.all_nodes())
        };
        assert!(cv(8) < cv(2), "cv(8W)={} cv(2W)={}", cv(8), cv(2));
    }

    #[test]
    fn tiered_machine_weights_cover_the_expander_tier() {
        // The rectangular memory x worker view: rows = all 4 memory nodes
        // (2 of them CPU-less), columns = the 2 worker nodes.
        let m = machines::machine_tiered();
        let workers = m.worker_nodes();
        let mb = min_bandwidths(m.path_caps(), workers).unwrap();
        // Workers: min(local 18, cross 15) = 15; expanders: 9.9 both ways.
        assert_eq!(mb, vec![15.0, 15.0, 9.9, 9.9]);
        let w = canonical_weights_on(&m, workers).unwrap();
        assert!(w.is_normalized());
        // Fast tier out-weighs the slow tier, but the slow tier is used.
        assert!(w.get(NodeId(0)) > w.get(NodeId(2)));
        assert!(w.get(NodeId(2)) > 0.15);
    }

    #[test]
    fn memory_only_workers_rejected() {
        let m = machines::machine_tiered();
        // Node 2 is a CPU-less expander: it cannot be a worker.
        let err = canonical_weights_on(&m, NodeSet::from_nodes([NodeId(0), NodeId(2)]));
        assert!(err.is_err());
        // The raw-matrix entry point stays machine-agnostic.
        assert!(canonical_weights(m.path_caps(), NodeSet::single(NodeId(2))).is_ok());
    }

    #[test]
    fn empty_workers_rejected() {
        let m = machines::machine_b();
        assert!(canonical_weights(m.path_caps(), NodeSet::EMPTY).is_err());
        assert!(min_bandwidths(m.path_caps(), NodeSet::first(5)).is_err());
    }
}
