//! # BWAP reproduction suite
//!
//! A from-scratch Rust reproduction of *Bandwidth-Aware Page Placement in
//! NUMA Systems* (Gureya et al., IPDPS 2020): the BWAP weighted-interleave
//! placement pipeline, the simulated NUMA machine/OS substrate it is
//! evaluated on, the paper's benchmark workloads, baselines, and the
//! complete experiment harness.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`topology`] (`bwap-topology`) — machines: nodes, links, routes,
//!   bandwidth matrices; the paper's machines A and B.
//! * [`fabric`] (`bwap-fabric`) — bandwidth contention: weighted
//!   demand-bounded max-min fair allocation over controllers, links, path
//!   caps and core ingress.
//! * [`sim`] (`numasim`) — the simulated OS: memory policies, `mbind`,
//!   page migration, AutoNUMA, performance counters, the epoch engine.
//! * [`workloads`] (`bwap-workloads`) — Table I's benchmark suite as
//!   synthetic workload specifications.
//! * [`core`] (`bwap`) — the paper's contribution: canonical tuner
//!   (Eq. 2/5), DWP tuner (stand-alone + co-scheduled), Algorithm 1.
//! * [`runtime`] (`bwap-runtime`) — glue: profiling, daemons, baseline
//!   policies, scenario runners, and the declarative experiment-campaign
//!   engine (`runtime::campaign`).
//! * [`search`] (`bwap-search`) — the offline N-dimensional hill-climbing
//!   oracle (Fig. 1b).
//!
//! The crate relationships and the data flow from `WorkloadSpec` through
//! the simulator and daemons to campaign reports are documented in
//! `docs/ARCHITECTURE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use bwap_suite::prelude::*;
//!
//! // The paper's 8-node asymmetric machine, and Streamcluster scaled for
//! // a fast doc test.
//! let machine = machines::machine_a();
//! let spec = workloads::streamcluster().scaled_down(32.0);
//! let workers = machine.best_worker_set(2);
//!
//! let uniform = run_coscheduled(&machine, &spec, workers, &PlacementPolicy::UniformWorkers)
//!     .unwrap();
//! let bwap = run_coscheduled(
//!     &machine,
//!     &spec,
//!     workers,
//!     &PlacementPolicy::Bwap(BwapConfig::default()),
//! )
//! .unwrap();
//! assert!(bwap.exec_time_s < uniform.exec_time_s);
//! ```

pub use bwap as core;
pub use bwap_fabric as fabric;
pub use bwap_runtime as runtime;
pub use bwap_search as search;
pub use bwap_topology as topology;
pub use bwap_workloads as workloads;
pub use numasim as sim;

/// The commonly-needed surface in one import.
pub mod prelude {
    pub use bwap::{
        apply_dwp, canonical_weights, user_level_plan, BwapConfig, DwpTuner, DwpTunerConfig,
        InterleaveMode, WeightDistribution,
    };
    pub use bwap_runtime::{
        poisson_jobs, run_campaign, run_campaign_with, run_coscheduled, run_coscheduled_phased,
        run_fleet, run_standalone, run_standalone_phased, run_standalone_traced,
        AdaptiveBwapDaemon, AdaptiveConfig, BwapDaemon, CampaignConfig, CampaignReport,
        CampaignSpec, CoschedDaemon, DwpPoint, FleetAxis, FleetConfig, FleetJob, FleetOutcome,
        MachineKind, PlacementPolicy, ProfileBook, RunResult, ScenarioKind, SchedulerKind,
    };
    pub use bwap_topology::{
        machines, MachineTopology, NodeId, NodeSet, NodeSpec, TopologyBuilder,
    };
    pub use bwap_workloads as workloads;
    pub use numasim::{AppProfile, MemPolicy, SimConfig, Simulator, TraceSink};
}
