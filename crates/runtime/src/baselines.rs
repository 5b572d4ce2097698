//! The placement policies of the paper's evaluation (§IV), behind one
//! enum: Linux first-touch, uniform-workers (the strategy of Carrefour /
//! AsymSched / Baek et al.), uniform-all, AutoNUMA, and BWAP with its
//! ablation variants — plus adaptive BWAP (the §VI future-work daemon,
//! evaluated on phase-structured workloads).

use crate::adaptive::AdaptiveConfig;
use bwap::BwapConfig;
use bwap_topology::NodeSet;
use numasim::autonuma::{AutoNuma, AutoNumaConfig};
use numasim::{MemPolicy, ProcessId, Simulator};

/// A page-placement policy under evaluation.
#[derive(Debug, Clone)]
pub enum PlacementPolicy {
    /// Linux default: pages land where first touched (shared pages
    /// centralize on the master thread's node).
    FirstTouch,
    /// Uniform interleave over the worker nodes.
    UniformWorkers,
    /// Uniform interleave over all nodes.
    UniformAll,
    /// First-touch plus the kernel's locality-driven balancing daemon.
    AutoNuma,
    /// BWAP (full, `BWAP-uniform`, static DWP, kernel/user-level — all via
    /// the config).
    Bwap(BwapConfig),
    /// BWAP with the phase-change watchdog ([`crate::adaptive`], started
    /// by [`crate::AdaptiveBwapDaemon::init`]): re-tunes when the stall
    /// rate departs from the converged level. Stand-alone scenario only.
    AdaptiveBwap(AdaptiveConfig),
}

impl PlacementPolicy {
    /// Label used in reports (matches the paper's plot legends).
    pub fn label(&self) -> String {
        match self {
            PlacementPolicy::FirstTouch => "first-touch".into(),
            PlacementPolicy::UniformWorkers => "uniform-workers".into(),
            PlacementPolicy::UniformAll => "uniform-all".into(),
            PlacementPolicy::AutoNuma => "autonuma".into(),
            PlacementPolicy::Bwap(cfg) => {
                if !cfg.online_tuning {
                    format!("bwap-static({:.0}%)", cfg.fixed_dwp * 100.0)
                } else if cfg.uniform_canonical {
                    "bwap-uniform".into()
                } else {
                    "bwap".into()
                }
            }
            PlacementPolicy::AdaptiveBwap(_) => "bwap-adaptive".into(),
        }
    }

    /// The six policies of Fig. 2/3, in the paper's legend order.
    pub fn evaluation_set() -> Vec<PlacementPolicy> {
        vec![
            PlacementPolicy::FirstTouch,
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::UniformAll,
            PlacementPolicy::AutoNuma,
            PlacementPolicy::Bwap(BwapConfig::bwap_uniform()),
            PlacementPolicy::Bwap(BwapConfig::default()),
        ]
    }

    /// The `numactl`-style memory policy the process is launched under.
    pub fn launch_policy(&self, workers: NodeSet, all: NodeSet) -> MemPolicy {
        match self {
            PlacementPolicy::FirstTouch
            | PlacementPolicy::AutoNuma
            | PlacementPolicy::Bwap(_)
            | PlacementPolicy::AdaptiveBwap(_) => MemPolicy::FirstTouch,
            PlacementPolicy::UniformWorkers => MemPolicy::Interleave(workers),
            PlacementPolicy::UniformAll => MemPolicy::Interleave(all),
        }
    }

    /// Whether this policy needs the AutoNUMA daemon attached.
    pub fn wants_autonuma(&self) -> bool {
        matches!(self, PlacementPolicy::AutoNuma)
    }

    /// Attach the AutoNUMA daemon for `pid` if the policy requires it.
    pub fn attach_autonuma(&self, sim: &mut Simulator, pid: ProcessId) {
        if self.wants_autonuma() {
            let cfg = AutoNumaConfig::default();
            let period = cfg.scan_period;
            let daemon = AutoNuma::for_processes(cfg, vec![pid]);
            sim.add_daemon(Box::new(daemon), period, period);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::NodeId;

    #[test]
    fn labels() {
        assert_eq!(PlacementPolicy::FirstTouch.label(), "first-touch");
        assert_eq!(PlacementPolicy::Bwap(BwapConfig::default()).label(), "bwap");
        assert_eq!(PlacementPolicy::Bwap(BwapConfig::bwap_uniform()).label(), "bwap-uniform");
        assert_eq!(PlacementPolicy::Bwap(BwapConfig::static_dwp(0.4)).label(), "bwap-static(40%)");
        assert_eq!(
            PlacementPolicy::AdaptiveBwap(AdaptiveConfig::default()).label(),
            "bwap-adaptive"
        );
    }

    #[test]
    fn evaluation_set_matches_paper_legends() {
        let labels: Vec<String> =
            PlacementPolicy::evaluation_set().iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec![
                "first-touch",
                "uniform-workers",
                "uniform-all",
                "autonuma",
                "bwap-uniform",
                "bwap"
            ]
        );
    }

    #[test]
    fn launch_policies() {
        let workers = NodeSet::from_nodes([NodeId(0)]);
        let all = NodeSet::first(4);
        assert_eq!(
            PlacementPolicy::UniformWorkers.launch_policy(workers, all),
            MemPolicy::Interleave(workers)
        );
        assert_eq!(
            PlacementPolicy::UniformAll.launch_policy(workers, all),
            MemPolicy::Interleave(all)
        );
        assert_eq!(
            PlacementPolicy::Bwap(BwapConfig::default()).launch_policy(workers, all),
            MemPolicy::FirstTouch
        );
    }
}
