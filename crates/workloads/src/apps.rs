//! The paper's benchmark suite as workload specifications.
//!
//! Bandwidth/mix numbers come straight from Table I (NumaMMA
//! characterization on machine B, one full worker node). Latency
//! sensitivity, scalability and machine-A demand scale are calibration
//! parameters fixed once (see the demand-axes table in
//! `docs/WORKLOADS.md`) — they encode, respectively:
//! which workloads the paper observed to be latency- vs bandwidth-bound
//! (Table II's DWP values), each benchmark's optimal worker count
//! (Fig. 3c/d labels), and machine A's lower per-core demand.

use crate::spec::WorkloadSpec;

/// Ocean, contiguous partitions (SPLASH-2). Table I: 17576/6492 MB/s,
/// 79.3 % private.
pub fn ocean_cp() -> WorkloadSpec {
    WorkloadSpec {
        name: "OC",
        reads_mbps: 17576.0,
        writes_mbps: 6492.0,
        private_frac: 0.793,
        latency_sensitivity: 0.15,
        serial_frac: 0.002,
        multinode_penalty: 0.01,
        shared_pages: 65_536,             // 256 MiB shared grids
        private_pages_per_thread: 24_576, // 96 MiB per-thread tiles
        total_traffic_gb: 1440.0,
        machine_a_scale: 0.55,
        open_loop: false,
    }
}

/// Ocean, non-contiguous partitions (SPLASH-2). Table I: 16053/5578 MB/s,
/// 86.7 % private.
pub fn ocean_ncp() -> WorkloadSpec {
    WorkloadSpec {
        name: "ON",
        reads_mbps: 16053.0,
        writes_mbps: 5578.0,
        private_frac: 0.867,
        latency_sensitivity: 0.15,
        serial_frac: 0.002,
        multinode_penalty: 0.01,
        shared_pages: 65_536,
        private_pages_per_thread: 24_576,
        total_traffic_gb: 1280.0,
        machine_a_scale: 0.55,
        open_loop: false,
    }
}

/// NAS SP, class B. Table I: 11962/5352 MB/s, 19.9 % private. Scales
/// poorly across nodes (its stand-alone optimum is a single worker node,
/// Fig. 3c/d).
pub fn sp_b() -> WorkloadSpec {
    WorkloadSpec {
        name: "SP.B",
        reads_mbps: 11962.0,
        writes_mbps: 5352.0,
        private_frac: 0.199,
        latency_sensitivity: 0.30,
        serial_frac: 0.05,
        multinode_penalty: 0.70,
        shared_pages: 98_304, // 384 MiB
        private_pages_per_thread: 4_096,
        total_traffic_gb: 1000.0,
        machine_a_scale: 0.60,
        open_loop: false,
    }
}

/// PARSEC Streamcluster. Table I: 10055/70 MB/s, 99.8 % shared — the
/// paper's flagship: almost purely shared, read-dominated, and latency
/// sensitive (its machine-B DWP optimum is 100 %, Table II).
pub fn streamcluster() -> WorkloadSpec {
    WorkloadSpec {
        name: "SC",
        reads_mbps: 10055.0,
        writes_mbps: 70.0,
        private_frac: 0.002,
        latency_sensitivity: 0.45,
        serial_frac: 0.005,
        multinode_penalty: 0.08,
        shared_pages: 163_840, // 640 MiB point set
        private_pages_per_thread: 512,
        total_traffic_gb: 640.0,
        machine_a_scale: 1.40,
        open_loop: false,
    }
}

/// NAS FT, class C. Table I: 5585/4715 MB/s, 95 % private,
/// write-intensive.
pub fn ft_c() -> WorkloadSpec {
    WorkloadSpec {
        name: "FT.C",
        reads_mbps: 5585.0,
        writes_mbps: 4715.0,
        private_frac: 0.95,
        latency_sensitivity: 0.20,
        serial_frac: 0.002,
        multinode_penalty: 0.01,
        shared_pages: 32_768,
        private_pages_per_thread: 16_384,
        total_traffic_gb: 640.0,
        machine_a_scale: 1.00,
        open_loop: false,
    }
}

/// PARSEC Swaptions: the CPU-bound, *non* memory-intensive application the
/// paper co-schedules as the high-priority workload A. Runs until stopped.
pub fn swaptions() -> WorkloadSpec {
    WorkloadSpec {
        name: "SW",
        reads_mbps: 1200.0,
        writes_mbps: 200.0,
        private_frac: 0.98,
        latency_sensitivity: 0.05,
        serial_frac: 0.01,
        multinode_penalty: 0.0,
        shared_pages: 8_192,
        private_pages_per_thread: 2_048,
        total_traffic_gb: f64::INFINITY,
        machine_a_scale: 0.60,
        open_loop: false,
    }
}

/// Capacity-pressure variant of Streamcluster: same demand and access mix,
/// but a 6 GiB shared point set that overflows `machine_tiered`'s whole
/// 4 GiB fast tier — at least a third of the shared pages *must* live on
/// the CPU-less expander nodes under any placement.
pub fn streamcluster_xl() -> WorkloadSpec {
    WorkloadSpec { name: "SC.XL", shared_pages: 1_572_864, ..streamcluster() }
}

/// Capacity-pressure variant of Ocean (contiguous): per-thread tiles grown
/// to 384 MiB, so a full 8-thread worker node of `machine_tiered` needs
/// 3 GiB of private pages against a 2 GiB fast node — the private working
/// set spills to the slow tier too.
pub fn ocean_cp_xl() -> WorkloadSpec {
    WorkloadSpec { name: "OC.XL", private_pages_per_thread: 98_304, ..ocean_cp() }
}

/// The capacity-pressure variants: workloads whose working sets overflow
/// the fast tier of [`bwap_topology::machines::machine_tiered`].
pub fn capacity_suite() -> Vec<WorkloadSpec> {
    vec![streamcluster_xl(), ocean_cp_xl()]
}

/// The canonical profiling workload (§III-A3): as many threads as the
/// worker nodes offer, each performing a uniformly-random, read-only
/// traversal of a large shared array, demanding far more bandwidth than
/// any node supplies. Used by the canonical tuner with uniform-all
/// interleaving to estimate `bw(src -> dst)` from per-node throughput
/// counters.
pub fn stream_probe() -> WorkloadSpec {
    WorkloadSpec {
        name: "stream-probe",
        reads_mbps: 70_000.0, // 10 GB/s per thread: saturates everything
        writes_mbps: 0.0,
        private_frac: 0.0,
        latency_sensitivity: 0.0,
        serial_frac: 0.0,
        multinode_penalty: 0.0,
        shared_pages: 262_144, // 1 GiB
        private_pages_per_thread: 16,
        total_traffic_gb: f64::INFINITY,
        machine_a_scale: 1.0,
        open_loop: true,
    }
}

/// The five benchmarks of the paper's evaluation, in its plotting order
/// (SC, OC, ON, SP.B, FT.C — Fig. 2/3).
pub fn suite() -> Vec<WorkloadSpec> {
    vec![streamcluster(), ocean_cp(), ocean_ncp(), sp_b(), ft_c()]
}

/// Look up a workload by its paper abbreviation.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    match name {
        "OC" => Some(ocean_cp()),
        "ON" => Some(ocean_ncp()),
        "SP.B" => Some(sp_b()),
        "SC" => Some(streamcluster()),
        "FT.C" => Some(ft_c()),
        "SW" => Some(swaptions()),
        "SC.XL" => Some(streamcluster_xl()),
        "OC.XL" => Some(ocean_cp_xl()),
        "stream-probe" => Some(stream_probe()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_selection() {
        let names: Vec<&str> = suite().iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["SC", "OC", "ON", "SP.B", "FT.C"]);
    }

    #[test]
    fn table1_values_transcribed_correctly() {
        // Spot-check against the paper's Table I.
        assert_eq!(ocean_cp().reads_mbps, 17576.0);
        assert_eq!(ocean_cp().writes_mbps, 6492.0);
        assert_eq!(ocean_ncp().private_frac, 0.867);
        assert_eq!(sp_b().reads_mbps, 11962.0);
        assert_eq!(streamcluster().writes_mbps, 70.0);
        assert!((streamcluster().private_frac - 0.002).abs() < 1e-12);
        assert_eq!(ft_c().private_frac, 0.95);
    }

    #[test]
    fn by_name_roundtrip() {
        for w in suite().into_iter().chain(capacity_suite()) {
            assert_eq!(by_name(w.name).unwrap(), w);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn capacity_variants_keep_demand_but_grow_the_working_set() {
        let sc = streamcluster();
        let xl = streamcluster_xl();
        assert_eq!(xl.reads_mbps, sc.reads_mbps);
        assert_eq!(xl.private_frac, sc.private_frac);
        assert!(xl.shared_pages > 4 * sc.shared_pages);
        let oc = ocean_cp();
        let oxl = ocean_cp_xl();
        assert_eq!(oxl.shared_pages, oc.shared_pages);
        assert!(oxl.private_pages_per_thread == 4 * oc.private_pages_per_thread);
        // Quick-mode scaling for these variants shrinks traffic only.
        let quick = streamcluster_xl().scaled_down_traffic(8.0);
        assert_eq!(quick.shared_pages, xl.shared_pages);
        assert!((quick.total_traffic_gb - xl.total_traffic_gb / 8.0).abs() < 1e-9);
    }

    #[test]
    fn memory_intensive_apps_saturate_a_machine_b_node_when_spanning_two() {
        // The motivation scenario: two worker nodes first-touching onto one
        // master node must oversubscribe its 28 GB/s controller for the
        // bandwidth-hungry apps.
        for w in [ocean_cp(), ocean_ncp(), sp_b()] {
            let node_demand = w.demand_per_thread_b() * 7.0;
            assert!(
                2.0 * node_demand > 28.0 * 0.9,
                "{} per-node demand {node_demand} too low",
                w.name
            );
        }
    }

    #[test]
    fn swaptions_is_not_memory_intensive() {
        let sw = swaptions();
        assert!(sw.demand_per_thread_b() * 7.0 < 2.0);
        assert!(sw.total_traffic_gb.is_infinite());
    }

    #[test]
    fn probe_demand_swamps_any_controller() {
        let p = stream_probe();
        assert!(p.demand_per_thread_b() * 7.0 > 2.0 * 28.0);
        assert_eq!(p.private_frac, 0.0);
    }
}
