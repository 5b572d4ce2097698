//! Enforcing a weight distribution on a process's memory.

use crate::error::RuntimeError;
use bwap::{user_level_plan, InterleaveMode, WeightDistribution};
use numasim::{MemPolicy, ProcessId, Simulator};

/// Apply `weights` to every segment of `pid` (shared and private — BWAP
/// "decides the placement of every page similarly", paper §IV-A), queueing
/// migration of non-complying pages. Returns the number of pages queued.
///
/// * [`InterleaveMode::Kernel`]: one `mbind` per segment with the
///   weighted-interleave policy (exact ratios).
/// * [`InterleaveMode::UserLevel`]: the paper's Algorithm 1 — sub-range
///   uniform interleaving over shrinking node sets (portable, slightly
///   approximate).
pub fn apply_weights(
    sim: &mut Simulator,
    pid: ProcessId,
    weights: &WeightDistribution,
    mode: InterleaveMode,
) -> Result<usize, RuntimeError> {
    match mode {
        InterleaveMode::Kernel => {
            let policy = MemPolicy::WeightedInterleave(weights.to_vec());
            Ok(sim.apply_policy_all_segments(pid, &policy, true)?)
        }
        InterleaveMode::UserLevel => {
            let segments: Vec<(numasim::SegmentId, u64)> =
                sim.process(pid)?.aspace.iter().map(|(id, s)| (id, s.len())).collect();
            let mut queued = 0;
            for (seg, len) in segments {
                for call in user_level_plan(len, weights)? {
                    queued += sim.mbind(
                        pid,
                        seg,
                        call.start_page,
                        call.len_pages,
                        MemPolicy::Interleave(call.nodes),
                        true,
                    )?;
                }
            }
            Ok(queued)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::{machines, NodeId, NodeSet};
    use numasim::{AppProfile, SimConfig};

    fn spawn_app(sim: &mut Simulator) -> ProcessId {
        let profile = AppProfile {
            name: "t".into(),
            read_gbps_per_thread: 1.0,
            write_gbps_per_thread: 0.0,
            private_frac: 0.2,
            latency_sensitivity: 0.1,
            serial_frac: 0.0,
            multinode_penalty: 0.0,
            shared_pages: 40_000,
            private_pages_per_thread: 500,
            total_traffic_gb: f64::INFINITY,
            open_loop: false,
        };
        sim.spawn(profile, NodeSet::from_nodes([NodeId(0), NodeId(1)]), None, MemPolicy::FirstTouch)
            .unwrap()
    }

    fn weights() -> WeightDistribution {
        WeightDistribution::from_raw(vec![4.0, 3.0, 2.0, 1.0]).unwrap()
    }

    #[test]
    fn kernel_mode_reaches_exact_ratios() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = spawn_app(&mut sim);
        apply_weights(&mut sim, pid, &weights(), InterleaveMode::Kernel).unwrap();
        sim.run_for(3.0); // drain migrations
        let d = sim.full_distribution(pid).unwrap();
        for (i, &target) in weights().as_slice().iter().enumerate() {
            assert!((d[i] - target).abs() < 0.01, "node {i}: {d:?}");
        }
    }

    #[test]
    fn user_level_mode_approximates_ratios() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = spawn_app(&mut sim);
        let queued = apply_weights(&mut sim, pid, &weights(), InterleaveMode::UserLevel).unwrap();
        assert!(queued > 0);
        sim.run_for(3.0);
        let d = sim.full_distribution(pid).unwrap();
        for (i, &target) in weights().as_slice().iter().enumerate() {
            assert!((d[i] - target).abs() < 0.03, "node {i}: {d:?}");
        }
    }

    #[test]
    fn user_level_rebind_of_a_million_pages_stays_o_blocks() {
        // Algorithm 1 rebinds sub-ranges of a weighted-interleave segment
        // into uniform interleaves. Queued as patterned ranges, that is a
        // handful of ranges, not one per page; completed as patterned
        // splices, the drained segment is a handful of extents, never
        // per-page fragments.
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let profile = AppProfile {
            name: "big".into(),
            read_gbps_per_thread: 1.0,
            write_gbps_per_thread: 0.0,
            private_frac: 0.0,
            latency_sensitivity: 0.0,
            serial_frac: 0.0,
            multinode_penalty: 0.0,
            shared_pages: 1_000_000,
            private_pages_per_thread: 0,
            total_traffic_gb: f64::INFINITY,
            open_loop: false,
        };
        let pid = sim
            .spawn(
                profile,
                NodeSet::from_nodes([NodeId(0), NodeId(1)]),
                None,
                MemPolicy::WeightedInterleave(vec![0.1, 0.2, 0.3, 0.4]),
            )
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        let queued = apply_weights(&mut sim, pid, &weights(), InterleaveMode::UserLevel).unwrap();
        assert!(queued > 300_000, "{queued} pages queued");
        let ranges = sim.process(pid).unwrap().migrations.range_count();
        assert!(ranges <= 64, "{ranges} ranges queued");
        while sim.pending_migrations(pid) > 0 {
            sim.step();
        }
        assert_eq!(sim.migrated_pages(pid), queued as u64);
        let segment = sim.process(pid).unwrap().aspace.segment(seg).unwrap();
        assert!(segment.extent_count() <= 64, "{} extents", segment.extent_count());
        let d = segment.distribution();
        for (i, &target) in weights().as_slice().iter().enumerate() {
            assert!((d[i] - target).abs() < 0.01, "node {i}: {d:?}");
        }
    }

    #[test]
    fn kernel_and_user_level_agree_within_paper_bound() {
        // The paper reports <= 3% end-to-end difference; at the placement
        // level the two modes should land within a few percent per node.
        let m = machines::machine_b();
        let run = |mode| {
            let mut sim = Simulator::new(m.clone(), SimConfig::default());
            let pid = spawn_app(&mut sim);
            apply_weights(&mut sim, pid, &weights(), mode).unwrap();
            sim.run_for(3.0);
            sim.full_distribution(pid).unwrap()
        };
        let k = run(InterleaveMode::Kernel);
        let u = run(InterleaveMode::UserLevel);
        for i in 0..4 {
            assert!((k[i] - u[i]).abs() < 0.03, "node {i}: kernel {k:?} vs user {u:?}");
        }
    }
}
