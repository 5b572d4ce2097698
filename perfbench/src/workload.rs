//! The benchmark's workloads and their set-up.

use bwap::WeightDistribution;
use bwap_bench::experiments::{dwp_dedup_spec, fig_fleet_spec, fig_tiered_spec};
use bwap_runtime::{
    effective_policy, profile_bandwidth, CampaignSpec, PlacementPolicy, ProfileBook, ScenarioKind,
};
use bwap_topology::{MachineTopology, NodeSet};
use std::path::Path;
use std::time::Instant;

/// One of the canned full-scale campaigns the benchmark measures. Why
/// each exists is recorded in this directory's README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fig_tiered`: migration-heavy stand-alone cells on the tiered machine.
    TieredMigrate,
    /// `dwp_dedup`: solve-heavy co-scheduled DWP grid, run cold and then
    /// warm against a fresh cell cache.
    CoschedGrid,
    /// `fig_fleet`: open-loop job streams over a two-machine fleet.
    FleetArrivals,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::TieredMigrate, Workload::CoschedGrid, Workload::FleetArrivals];

    /// Name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TieredMigrate => "tiered_migrate",
            Workload::CoschedGrid => "cosched_grid",
            Workload::FleetArrivals => "fleet_arrivals",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The campaign with its root seed set to `seed`. Only the fleet's
    /// Poisson arrival streams consume it; every policy's effective seed
    /// is 0, so the other cells compute the same results under any seed.
    pub fn spec(self, seed: u64) -> CampaignSpec {
        let spec = match self {
            Workload::TieredMigrate => fig_tiered_spec(false),
            Workload::CoschedGrid => dwp_dedup_spec(false),
            Workload::FleetArrivals => fig_fleet_spec(false),
        };
        spec.seed(seed)
    }

    /// Whether a pass runs the campaign twice, first against a fresh cell
    /// cache and then again from it.
    pub fn uses_cache(self) -> bool {
        self == Workload::CoschedGrid
    }
}

/// Whether a policy starts from [`ProfileBook`]'s canonical weights: BWAP
/// and adaptive BWAP do, unless configured to start uniform.
fn profiles(policy: &PlacementPolicy) -> bool {
    match policy {
        PlacementPolicy::Bwap(cfg) => !cfg.uniform_canonical,
        PlacementPolicy::AdaptiveBwap(acfg) => !acfg.bwap.uniform_canonical,
        _ => false,
    }
}

/// Every `(machine, worker set)` a cell with a profiling policy deploys
/// on, fleet machines included, in first-use order: the installation-time
/// profiles the workload needs. `fleet_arrivals` places uniformly and
/// needs none.
pub fn profile_keys(spec: &CampaignSpec) -> Vec<(MachineTopology, NodeSet)> {
    let mut keys: Vec<(MachineTopology, NodeSet)> = Vec::new();
    for cell in spec.cells().iter().filter(|c| profiles(&effective_policy(spec, c))) {
        let machines = match (&spec.fleet, cell.scenario) {
            (Some(axis), ScenarioKind::Fleet) => {
                axis.machines.iter().map(|m| m.topology()).collect()
            }
            _ => vec![spec.machine.clone()],
        };
        for m in machines {
            let workers = m.best_worker_set(cell.workers);
            if !keys.iter().any(|(k, w)| k.name() == m.name() && *w == workers) {
                keys.push((m, workers));
            }
        }
    }
    keys
}

/// What one set-up produced, and how long its parts took.
pub struct Setup {
    /// The campaign to measure.
    pub spec: CampaignSpec,
    /// Canonical weights per [`profile_keys`] entry.
    pub weights: Vec<WeightDistribution>,
    /// Host seconds spent profiling.
    pub profile_s: f64,
}

/// Build the spec and profile every `(machine, worker set)` it uses.
/// Profiling goes through the same calls [`ProfileBook`] makes, so
/// repeated set-ups each pay the full cost; [`warm_profile_book`] then
/// fills the process-global book once.
pub fn set_up(workload: Workload, seed: u64) -> Result<Setup, String> {
    let spec = workload.spec(seed);
    let t = Instant::now();
    let weights = profile_keys(&spec)
        .iter()
        .map(|(m, workers)| {
            bwap::canonical_weights(&profile_bandwidth(m, *workers), *workers)
                .map_err(|e| format!("profiling {} {workers}: {e}", m.name()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Setup { spec, weights, profile_s: t.elapsed().as_secs_f64() })
}

/// Empty (or create) the directory the passes' cell caches go under.
pub fn prepare_cache_root(cache_root: &Path) -> Result<(), String> {
    if cache_root.exists() {
        std::fs::remove_dir_all(cache_root)
            .map_err(|e| format!("clearing {}: {e}", cache_root.display()))?;
    }
    std::fs::create_dir_all(cache_root)
        .map_err(|e| format!("creating {}: {e}", cache_root.display()))
}

/// Fill [`ProfileBook`] for every profile the set-up computed, so no
/// measured pass pays profiling, and check that the book agrees with the
/// set-up's own computation.
pub fn warm_profile_book(setup: &Setup) -> Result<(), String> {
    for ((m, workers), expected) in profile_keys(&setup.spec).iter().zip(&setup.weights) {
        let got = ProfileBook::canonical_weights(m, *workers);
        if got != *expected {
            return Err(format!(
                "ProfileBook disagrees for {} {workers}: {got} vs {expected}",
                m.name()
            ));
        }
    }
    Ok(())
}
