//! Workload specifications and their translation to engine profiles.

use bwap_topology::MachineTopology;
use numasim::AppProfile;

/// A benchmark's memory-demand characterization, in the paper's Table I
/// terms plus the scalability traits its evaluation exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Short name (the paper's abbreviation: OC, ON, SP.B, SC, FT.C).
    pub name: &'static str,
    /// Read bandwidth demand of one full machine-B worker node (7 threads),
    /// MB/s — Table I "Reads".
    pub reads_mbps: f64,
    /// Write bandwidth demand, MB/s — Table I "Writes".
    pub writes_mbps: f64,
    /// Fraction of accesses to thread-private pages — Table I "Private".
    pub private_frac: f64,
    /// Latency-bound share of the serial critical path (`alpha`):
    /// distinguishes streaming workloads (low) from pointer-chasing ones
    /// (high). Calibrated so machine-B behaviour matches the paper (e.g.
    /// Streamcluster prefers worker-local pages on machine B, Table II).
    pub latency_sensitivity: f64,
    /// Amdahl serial fraction.
    pub serial_frac: f64,
    /// Relative slowdown per additional worker node (cross-node
    /// synchronization); reproduces each benchmark's optimal worker count
    /// in the stand-alone scenario (Fig. 3c/d).
    pub multinode_penalty: f64,
    /// Shared segment size, pages.
    pub shared_pages: u64,
    /// Private pages per thread.
    pub private_pages_per_thread: u64,
    /// Total traffic to process, GB (`INFINITY` = runs until stopped).
    pub total_traffic_gb: f64,
    /// Demand multiplier on machine A. The paper's machines differ in core
    /// micro-architecture (Bulldozer vs Broadwell) and per-node core count;
    /// Table I only characterizes machine B, so the machine-A demand is a
    /// calibration parameter (chosen once, before running any experiment,
    /// to keep each workload's controller-saturation ratio comparable to
    /// what the paper reports for machine A).
    pub machine_a_scale: f64,
    /// Open-loop execution (see `numasim::AppProfile::open_loop`): used
    /// only by the canonical tuner's bandwidth probe.
    pub open_loop: bool,
}

/// Threads per machine-B node used by Table I's characterization runs.
const TABLE1_THREADS: f64 = 7.0;

impl WorkloadSpec {
    /// Per-thread demand on machine B (GB/s, read + write).
    pub fn demand_per_thread_b(&self) -> f64 {
        (self.reads_mbps + self.writes_mbps) / TABLE1_THREADS / 1000.0
    }

    /// Read share of traffic.
    pub fn read_frac(&self) -> f64 {
        let total = self.reads_mbps + self.writes_mbps;
        if total == 0.0 {
            1.0
        } else {
            self.reads_mbps / total
        }
    }

    /// Demand multiplier for a machine.
    pub fn demand_scale(&self, machine: &MachineTopology) -> f64 {
        if machine.name() == "machine-a" {
            self.machine_a_scale
        } else {
            1.0
        }
    }

    /// Build the engine profile for a machine.
    pub fn profile_for(&self, machine: &MachineTopology) -> AppProfile {
        let scale = self.demand_scale(machine);
        let per_thread = self.demand_per_thread_b() * scale;
        let rf = self.read_frac();
        AppProfile {
            name: self.name.to_string(),
            read_gbps_per_thread: per_thread * rf,
            write_gbps_per_thread: per_thread * (1.0 - rf),
            private_frac: self.private_frac,
            latency_sensitivity: self.latency_sensitivity,
            serial_frac: self.serial_frac,
            multinode_penalty: self.multinode_penalty,
            shared_pages: self.shared_pages,
            private_pages_per_thread: self.private_pages_per_thread,
            total_traffic_gb: self.total_traffic_gb * scale,
            open_loop: self.open_loop,
        }
    }

    /// Shrink the workload for fast (debug-build) tests: divide the total
    /// traffic and page counts by `factor`, keeping all ratios intact.
    ///
    /// # Panics
    ///
    /// If `factor` is below 1 or NaN.
    pub fn scaled_down(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "factor must be >= 1");
        self.total_traffic_gb /= factor;
        self.shared_pages = (self.shared_pages as f64 / factor).max(64.0) as u64;
        self.private_pages_per_thread =
            (self.private_pages_per_thread as f64 / factor).max(16.0) as u64;
        self
    }

    /// Shrink only the total traffic, keeping the working set intact. This
    /// is the quick-mode scaling for capacity-pressure variants: dividing
    /// their page counts (as [`WorkloadSpec::scaled_down`] does) would
    /// remove the very pressure they exist to exert.
    ///
    /// # Panics
    ///
    /// If `factor` is below 1 or NaN.
    pub fn scaled_down_traffic(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "factor must be >= 1");
        self.total_traffic_gb /= factor;
        self
    }
}

#[cfg(test)]
mod tests {
    use crate::apps;
    use bwap_topology::machines;

    #[test]
    #[should_panic(expected = "factor must be >= 1")]
    fn nan_scale_factor_panics() {
        let _ = apps::streamcluster().scaled_down(f64::NAN);
    }

    #[test]
    fn profiles_validate_on_both_machines() {
        for m in [machines::machine_a(), machines::machine_b()] {
            for w in apps::suite() {
                let p = w.profile_for(&m);
                p.validate().unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name()));
            }
            apps::swaptions().profile_for(&m).validate().unwrap();
            apps::stream_probe().profile_for(&m).validate().unwrap();
        }
    }

    #[test]
    fn demand_matches_table1_on_machine_b() {
        let oc = apps::ocean_cp();
        let m = machines::machine_b();
        let p = oc.profile_for(&m);
        let node_demand_mbps = (p.read_gbps_per_thread + p.write_gbps_per_thread) * 7.0 * 1000.0;
        assert!((node_demand_mbps - (oc.reads_mbps + oc.writes_mbps)).abs() < 1.0);
        let reads = p.read_gbps_per_thread * 7.0 * 1000.0;
        assert!((reads - oc.reads_mbps).abs() < 1.0);
    }

    #[test]
    fn machine_a_scaling_applies() {
        let sc = apps::streamcluster();
        let a = machines::machine_a();
        let b = machines::machine_b();
        let pa = sc.profile_for(&a);
        let pb = sc.profile_for(&b);
        let ra = pa.read_gbps_per_thread / pb.read_gbps_per_thread;
        assert!((ra - sc.machine_a_scale).abs() < 1e-9);
    }

    #[test]
    fn read_frac_bounds() {
        for w in apps::suite() {
            let rf = w.read_frac();
            assert!((0.0..=1.0).contains(&rf), "{}: {rf}", w.name);
        }
    }
}
