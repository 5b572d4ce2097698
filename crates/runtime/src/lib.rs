//! BWAP runtime: wires the pure decision logic of the `bwap` crate to the
//! simulated OS of `numasim`.
//!
//! * [`profiling`] — the canonical tuner's installation-time procedure:
//!   run the reference bandwidth benchmark under uniform-all interleaving
//!   and read per-path throughput counters (paper §III-A3). Results are
//!   cached per `(machine, worker set)` in a global [`ProfileBook`].
//! * [`apply`] — enforce a weight distribution on a process, either with
//!   the kernel-level weighted-interleave policy or with the user-level
//!   Algorithm 1 plan (a few uniform-interleave `mbind` calls).
//! * [`bwap_daemon`] / [`cosched_daemon`] — the online DWP tuner as a
//!   periodic daemon: samples stall rates every `t` seconds, feeds the
//!   hill climber, applies the placements it requests through incremental
//!   migration.
//! * [`baselines`] — the placement policies the paper compares against
//!   (first-touch, uniform-workers, uniform-all, AutoNUMA) plus BWAP and
//!   its ablation variants, behind one [`baselines::PlacementPolicy`]
//!   enum.
//! * [`adaptive`] — dynamic re-tuning for phase-changing applications
//!   (the paper's first future-work item, §VI), exercised end-to-end by
//!   phase-structured workloads (`bwap_workloads::PhasedWorkload`) and the
//!   `fig_phases` campaign.
//! * [`scenario`] — the paper's two evaluation scenarios (stand-alone and
//!   co-scheduled, §IV-A) as reusable runners for plain and
//!   phase-structured workloads, over one scenario core that every
//!   campaign cell runs through too.
//! * [`fleet`] — fleet-scale serving: open-loop job arrivals over many
//!   machines, pluggable cluster schedulers and deterministic tail-latency
//!   (slowdown-vs-solo) metrics.
//! * [`campaign`] — the declarative experiment-campaign engine: a
//!   [`CampaignSpec`] describes the whole evaluation matrix (a static-DWP
//!   sweep is its `dwp_grid` axis, a worker-count sweep its
//!   `worker_counts` axis); a sharded executor fans the cells out across
//!   threads and collects a machine-readable, versioned
//!   [`CampaignReport`].

pub mod adaptive;
pub mod apply;
pub mod baselines;
pub mod bwap_daemon;
pub mod campaign;
pub mod cosched_daemon;
pub mod error;
pub mod fleet;
pub mod profiling;
pub mod scenario;

pub use adaptive::{AdaptiveBwapDaemon, AdaptiveConfig};
pub use apply::apply_weights;
pub use baselines::PlacementPolicy;
pub use bwap_daemon::{BwapDaemon, TunerHandle};
pub use campaign::{
    cell_descriptor, effective_policy, run_campaign, run_campaign_with, run_cell_for, run_parallel,
    run_parallel_catch, run_parallel_with, CampaignConfig, CampaignReport, CampaignSpec, CellCache,
    CellRecord, DwpPoint, FleetAxis, NodeTierRecord, ScenarioKind,
};
pub use cosched_daemon::CoschedDaemon;
pub use error::RuntimeError;
pub use fleet::{
    jobs_from_trace, poisson_jobs, run_fleet, FleetConfig, FleetJob, FleetOutcome, JobOutcome,
    MachineKind, SchedulerKind,
};
pub use numasim::EngineMode;
pub use profiling::{profile_bandwidth, ProfileBook};
pub use scenario::{
    run_coscheduled, run_standalone, run_standalone_phased, run_standalone_traced, RunResult,
};

/// Static-DWP sweeps (paper Fig. 4) have no runner of their own: a sweep
/// is a campaign over the [`CampaignSpec::dwp_grid`] axis.
#[cfg(test)]
mod sweep {
    mod tests {
        use crate::{run_campaign, CampaignSpec, DwpPoint, PlacementPolicy};
        use bwap::BwapConfig;
        use bwap_topology::machines;

        #[test]
        fn stall_rate_tracks_execution_time() {
            // Paper: "stall rate is effectively correlated to execution time".
            let spec = CampaignSpec::new("static-sweep", machines::machine_b())
                .workloads(vec![bwap_workloads::streamcluster().scaled_down(16.0)])
                .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
                .dwp_grid([0.0, 0.5, 1.0].map(DwpPoint::Static).to_vec());
            let report = run_campaign(&spec);
            let points: Vec<_> =
                report.cells.iter().map(|c| c.result().expect("sweep cell ran")).collect();
            assert_eq!(points.len(), 3);
            // Order by time and by stall fraction: ranks must agree.
            let rank = |key: fn(&crate::RunResult) -> f64| {
                let mut v: Vec<usize> = (0..points.len()).collect();
                v.sort_by(|&a, &b| key(points[a]).partial_cmp(&key(points[b])).unwrap());
                v
            };
            assert_eq!(rank(|p| p.exec_time_s), rank(|p| p.stall_frac), "{points:?}");
        }
    }
}
