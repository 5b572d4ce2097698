//! Single-flow bandwidth probing — the simulated analogue of a
//! `memcpy`-style point-to-point bandwidth benchmark.

use crate::controller::ControllerModel;
use crate::maxmin::Allocation;
use crate::network::{DemandSet, FlowDemand, SolveScratch};
use crate::resource::ResourceTable;
use bwap_topology::{BwMatrix, MachineTopology, NodeId};

/// Measure the machine's node-to-node read bandwidth matrix by running one
/// open-loop flow per ordered pair, one pair at a time (no cross-pair
/// contention). On the reference machines this returns the calibrated
/// matrix exactly — for machine A, the paper's Fig. 1a.
pub fn probe_matrix(machine: &MachineTopology) -> BwMatrix {
    let resources = ResourceTable::from_machine(machine);
    let ctrl_model = ControllerModel::default();
    let n = machine.node_count();
    let mut out = BwMatrix::zeros(n);
    let (mut ds, mut ws, mut alloc) =
        (DemandSet::new(), SolveScratch::default(), Allocation::default());
    for s in 0..n {
        for d in 0..n {
            let (src, dst) = (NodeId(s as u16), NodeId(d as u16));
            ds.clear();
            ds.begin_group(1.0, f64::INFINITY);
            ds.add_flow(FlowDemand { mem: src, cpu: dst, read_gbps: 1.0, write_gbps: 0.0 });
            ds.solve_into(machine, &resources, &ctrl_model, &mut ws, &mut alloc);
            out.set(src, dst, alloc.activity[0]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    #[test]
    fn machine_a_probe_reproduces_fig1a_exactly() {
        let m = machines::machine_a();
        let probed = probe_matrix(&m);
        let err = probed.max_rel_error(&machines::fig1a_matrix()).unwrap();
        assert!(err < 1e-9, "max relative error {err}");
    }

    #[test]
    fn machine_b_probe_reproduces_calibration() {
        let m = machines::machine_b();
        let probed = probe_matrix(&m);
        let err = probed.max_rel_error(m.path_caps()).unwrap();
        assert!(err < 1e-9, "max relative error {err}");
    }

    #[test]
    fn probe_amplitude_matches_paper() {
        assert!((probe_matrix(&machines::machine_a()).amplitude() - 5.83).abs() < 0.01);
        assert!((probe_matrix(&machines::machine_b()).amplitude() - 2.3).abs() < 0.01);
    }

    #[test]
    fn tiered_machine_probe_sees_the_slow_tier() {
        // Single-flow probes on the tiered machine: expander-served rows
        // run at the tier's scaled controller bandwidth. (Columns toward
        // the CPU-less nodes model the migration engine's reach; BWAP's
        // Eq. 5 only ever reads worker columns.)
        let m = machines::machine_tiered();
        let p = probe_matrix(&m);
        for w in [0u16, 1] {
            assert!((p.get(NodeId(2), NodeId(w)) - 9.9).abs() < 1e-9);
            assert!((p.get(NodeId(3), NodeId(w)) - 9.9).abs() < 1e-9);
        }
        assert_eq!(p.get(NodeId(0), NodeId(1)), 15.0);
    }

    #[test]
    fn symmetric_machine_probes_symmetric() {
        let m = machines::symmetric_quad();
        let p = probe_matrix(&m);
        for s in 0..4u16 {
            for d in 0..4u16 {
                assert_eq!(p.get(NodeId(s), NodeId(d)), p.get(NodeId(d), NodeId(s)));
            }
        }
    }
}
