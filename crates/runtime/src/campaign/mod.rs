//! Declarative experiment campaigns: the whole evaluation matrix as data.
//!
//! The paper's evaluation is a cartesian product — {workloads} ×
//! {policies} × {stand-alone, co-scheduled} × {worker counts} × {static
//! DWPs}. Instead of a hand-rolled serial loop over
//! [`crate::run_standalone`] / [`crate::run_coscheduled`], a
//! [`CampaignSpec`] *declares* the matrix (every table of the paper
//! harness is built from such specs) and [`run_campaign`] executes
//! it: cells are enumerated in a deterministic order, each gets a seed
//! derived from the campaign seed and the cell's identity
//! ([`bwap::seed::derive_seed`]), and a sharded executor
//! ([`executor::run_parallel_with`]) fans them out over
//! `std::thread::scope` workers pulling from a work-stealing queue.
//! Results land in a [`CampaignReport`] — machine-readable JSON with a
//! stable, versioned schema (see `docs/RESULTS_SCHEMA.md`).
//!
//! Because every cell builds its own `Simulator` and the simulator is
//! deterministic, a campaign's cell results are identical at any shard
//! count, and two runs of the same spec + seed produce byte-identical
//! reports modulo the volatile provenance fields (wall time, threads).
//! Integration tests at the workspace root pin both properties.
//!
//! Phase-structured workloads ([`bwap_workloads::PhasedWorkload`]) are a
//! first-class axis: declare them with
//! [`CampaignSpec::phased_workloads`], sweep phase durations with the
//! [`CampaignSpec::phase_periods`] axis, and their cells run the cycling
//! demand timeline through the same scenario core as plain cells (the
//! `fig_phases` campaign pits adaptive BWAP against the static policies
//! this way). Classic campaigns declare no phased workloads and
//! enumerate byte-identically to the pre-phase engine.
//!
//! New scenarios (topologies, workloads, co-schedule mixes) plug in by
//! declaring a spec — not by writing another binary.

pub mod cache;
pub mod descriptor;
pub mod executor;
pub mod report;

pub use cache::CellCache;
pub use descriptor::{cell_descriptor, effective_policy};
pub use executor::{run_parallel, run_parallel_catch, run_parallel_with};
pub use report::{results_dir, CampaignReport, CellRecord, NodeTierRecord, SCHEMA_VERSION};

use crate::baselines::PlacementPolicy;
use crate::error::RuntimeError;
use crate::fleet::{
    jobs_from_trace, poisson_jobs, run_fleet, ArrivalEvent, FleetConfig, MachineKind, SchedulerKind,
};
use crate::scenario::{run_scenario, Measured, RunResult};
use bwap::derive_seed;
use bwap_topology::MachineTopology;
use bwap_workloads::{PhasedWorkload, WorkloadSpec};
use numasim::{EngineMode, SimConfig, TraceSink};
use std::path::{Path, PathBuf};

/// The paper's two evaluation scenarios (§IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// The machine belongs to the measured application alone.
    Standalone,
    /// The measured application shares the machine with the CPU-bound
    /// high-priority Swaptions on the complement of the worker set.
    Coscheduled,
    /// Fleet-scale serving: an open-loop job stream scheduled across many
    /// machines (see [`crate::fleet`]). Cells of this kind exist only
    /// when the spec declares a [`FleetAxis`].
    Fleet,
}

impl ScenarioKind {
    /// Stable label used in cell keys and report JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioKind::Standalone => "standalone",
            ScenarioKind::Coscheduled => "coscheduled",
            ScenarioKind::Fleet => "fleet",
        }
    }
}

/// One point of the static-DWP axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DwpPoint {
    /// Run the policy exactly as declared (for BWAP: the online tuner).
    AsConfigured,
    /// Pin BWAP to this fixed DWP, online search disabled (Fig. 4's
    /// sweep). Cells pairing a static point with a non-BWAP policy are
    /// not generated — the knob does not exist for those policies.
    Static(f64),
}

impl DwpPoint {
    fn label(&self) -> String {
        match self {
            DwpPoint::AsConfigured => "as-configured".into(),
            DwpPoint::Static(d) => format!("dwp={d}"),
        }
    }

    /// The static value, if any (what [`CellRecord::static_dwp`] records).
    pub fn static_value(&self) -> Option<f64> {
        match self {
            DwpPoint::AsConfigured => None,
            DwpPoint::Static(d) => Some(*d),
        }
    }
}

/// A declarative experiment campaign: the full evaluation matrix as data.
///
/// Build one with [`CampaignSpec::new`] plus the chainable axis setters,
/// then hand it to [`run_campaign`]. The cell set is the cartesian
/// product of the four axes (workloads × policies × scenarios × worker
/// counts × DWP grid), minus static-DWP points for policies without a
/// DWP knob.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name: report identity and artifact file stem.
    pub name: String,
    /// Machine every cell runs on.
    pub machine: MachineTopology,
    /// Workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// Phase-structured workload axis, enumerated after the plain
    /// workloads. Empty for classic campaigns — the cell set (and every
    /// existing report) is unchanged unless phased workloads are declared.
    pub phased_workloads: Vec<PhasedWorkload>,
    /// Phase-period axis, applied to phased workloads only: each point
    /// rescales a workload's timeline so one full phase cycle lasts that
    /// many seconds, phases keeping their relative durations (`None`
    /// keeps the native durations). Defaults to `vec![None]`.
    pub phase_periods: Vec<Option<f64>>,
    /// Policy axis.
    pub policies: Vec<PlacementPolicy>,
    /// Scenario axis (default: stand-alone only).
    pub scenarios: Vec<ScenarioKind>,
    /// Worker-count axis (default: 1). Each count resolves to the
    /// machine's rule-of-thumb worker set (`best_worker_set`).
    pub worker_counts: Vec<usize>,
    /// Static-DWP axis (default: as-configured only).
    pub dwp_grid: Vec<DwpPoint>,
    /// Engine configuration shared by every cell.
    pub sim_cfg: SimConfig,
    /// Root seed; every cell derives its own from this plus its key.
    pub seed: u64,
    /// Also run the installation-time bandwidth probe (Fig. 1a) and
    /// attach the matrix to the report.
    pub probe_bandwidth: bool,
    /// Fleet axis: when set, fleet cells (policies × schedulers ×
    /// arrival rates × worker counts × DWP grid) are enumerated *after*
    /// every machine-local cell, so declaring it never perturbs existing
    /// keys, seeds or report bytes. The spec's plain `workloads` double
    /// as the fleet's job catalog.
    pub fleet: Option<FleetAxis>,
}

/// The fleet axis of a campaign: which cluster configurations to sweep.
#[derive(Debug, Clone)]
pub struct FleetAxis {
    /// Machine mix, in scheduler index order.
    pub machines: Vec<MachineKind>,
    /// Cluster schedulers to sweep.
    pub schedulers: Vec<SchedulerKind>,
    /// Poisson arrival rates (jobs per simulated second) to sweep.
    /// Ignored when an explicit [`FleetAxis::trace`] is set.
    pub arrival_rates: Vec<f64>,
    /// Jobs per Poisson stream.
    pub jobs: usize,
    /// Explicit arrival trace: replaces the Poisson axis with a single
    /// `rate=trace` point replaying exactly these events.
    pub trace: Option<Vec<ArrivalEvent>>,
}

impl CampaignSpec {
    /// A spec with empty workload/policy axes and singleton defaults for
    /// the rest (stand-alone, 1 worker, as-configured DWP, seed 0).
    pub fn new(name: &str, machine: MachineTopology) -> Self {
        CampaignSpec {
            name: name.to_string(),
            machine,
            workloads: Vec::new(),
            phased_workloads: Vec::new(),
            phase_periods: vec![None],
            policies: Vec::new(),
            scenarios: vec![ScenarioKind::Standalone],
            worker_counts: vec![1],
            dwp_grid: vec![DwpPoint::AsConfigured],
            sim_cfg: SimConfig::default(),
            seed: 0,
            probe_bandwidth: false,
            fleet: None,
        }
    }

    /// Set the workload axis.
    pub fn workloads(mut self, workloads: Vec<WorkloadSpec>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Set the phase-structured workload axis.
    pub fn phased_workloads(mut self, workloads: Vec<PhasedWorkload>) -> Self {
        self.phased_workloads = workloads;
        self
    }

    /// Set the phase-period axis (cycle seconds; applied to phased
    /// workloads). An empty list restores the default single
    /// native-durations point — it never empties the axis, which would
    /// silently enumerate zero cells for every phased workload.
    pub fn phase_periods(mut self, periods: Vec<f64>) -> Self {
        self.phase_periods =
            if periods.is_empty() { vec![None] } else { periods.into_iter().map(Some).collect() };
        self
    }

    /// Set the policy axis.
    pub fn policies(mut self, policies: Vec<PlacementPolicy>) -> Self {
        self.policies = policies;
        self
    }

    /// Set the scenario axis.
    pub fn scenarios(mut self, scenarios: Vec<ScenarioKind>) -> Self {
        self.scenarios = scenarios;
        self
    }

    /// Set the worker-count axis.
    pub fn worker_counts(mut self, counts: Vec<usize>) -> Self {
        self.worker_counts = counts;
        self
    }

    /// Set the static-DWP axis.
    pub fn dwp_grid(mut self, grid: Vec<DwpPoint>) -> Self {
        self.dwp_grid = grid;
        self
    }

    /// Set the per-cell engine configuration.
    pub fn sim_cfg(mut self, cfg: SimConfig) -> Self {
        self.sim_cfg = cfg;
        self
    }

    /// Select how every cell's simulator advances time (an axis of the
    /// whole campaign, not of individual cells — results are identical in
    /// both modes, so sweeping it per cell would measure nothing).
    pub fn engine_mode(mut self, mode: EngineMode) -> Self {
        self.sim_cfg.mode = mode;
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Request the installation-time bandwidth probe.
    pub fn probe_bandwidth(mut self, probe: bool) -> Self {
        self.probe_bandwidth = probe;
        self
    }

    /// Declare the fleet axis (see [`FleetAxis`]).
    pub fn fleet(mut self, axis: FleetAxis) -> Self {
        self.fleet = Some(axis);
        self
    }

    /// The workload name at a combined index (plain workloads first, then
    /// phased ones — [`CellSpec::workload_idx`]'s coordinate space).
    /// Fleet cells run the whole catalog and carry the sentinel index
    /// `usize::MAX`, reported as `"mix"`.
    pub fn workload_name(&self, idx: usize) -> &str {
        if idx == usize::MAX {
            "mix"
        } else if idx < self.workloads.len() {
            self.workloads[idx].name
        } else {
            &self.phased_workloads[idx - self.workloads.len()].name
        }
    }

    /// Enumerate the campaign's cells in their deterministic order
    /// (workload-major, DWP-minor; plain workloads before phased ones).
    /// Ids, keys and seeds depend only on the spec — never on thread
    /// count or scheduling. Plain-workload keys carry no phase-period
    /// segment, so classic campaigns enumerate byte-identically to the
    /// pre-phase engine.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut cells = Vec::new();
        for (wi, w) in self.workloads.iter().enumerate() {
            self.push_cells(&mut cells, wi, w.name, &[CellPeriod::NotPhased]);
        }
        let periods: Vec<CellPeriod> =
            self.phase_periods.iter().map(|&p| CellPeriod::Phased(p)).collect();
        for (pj, pw) in self.phased_workloads.iter().enumerate() {
            self.push_cells(&mut cells, self.workloads.len() + pj, &pw.name, &periods);
        }
        self.push_fleet_cells(&mut cells);
        cells
    }

    /// Enumerate fleet cells, after every machine-local cell: policies ×
    /// schedulers × arrival rates (a single `trace` point when an
    /// explicit trace is declared) × worker counts × DWP grid.
    fn push_fleet_cells(&self, cells: &mut Vec<CellSpec>) {
        let Some(axis) = &self.fleet else { return };
        let mix: Vec<&str> = axis.machines.iter().map(|m| m.label()).collect();
        let mix = mix.join("+");
        let rates: Vec<Option<f64>> = if axis.trace.is_some() {
            vec![None]
        } else {
            axis.arrival_rates.iter().map(|&r| Some(r)).collect()
        };
        for (pi, p) in self.policies.iter().enumerate() {
            let has_dwp_knob = matches!(p, PlacementPolicy::Bwap(_));
            for &sched in &axis.schedulers {
                for &rate in &rates {
                    for &k in &self.worker_counts {
                        for &dwp in &self.dwp_grid {
                            if dwp.static_value().is_some() && !has_dwp_knob {
                                continue;
                            }
                            let key = format!(
                                "fleet:{mix}|p{pi}:{}|sched={}|rate={}|{k}w|{}",
                                p.label(),
                                sched.label(),
                                match rate {
                                    Some(r) => format!("{r}"),
                                    None => "trace".into(),
                                },
                                dwp.label()
                            );
                            let seed = derive_seed(self.seed, &key);
                            cells.push(CellSpec {
                                id: cells.len(),
                                workload_idx: usize::MAX,
                                policy_idx: pi,
                                scenario: ScenarioKind::Fleet,
                                workers: k,
                                dwp,
                                phase_period: None,
                                scheduler: Some(sched),
                                arrival_rate: rate,
                                key,
                                seed,
                            });
                        }
                    }
                }
            }
        }
    }

    fn push_cells(
        &self,
        cells: &mut Vec<CellSpec>,
        wi: usize,
        workload_name: &str,
        periods: &[CellPeriod],
    ) {
        for (pi, p) in self.policies.iter().enumerate() {
            let has_dwp_knob = matches!(p, PlacementPolicy::Bwap(_));
            for &scenario in &self.scenarios {
                for &k in &self.worker_counts {
                    for &dwp in &self.dwp_grid {
                        if dwp.static_value().is_some() && !has_dwp_knob {
                            continue;
                        }
                        for period in periods {
                            let mut key = format!(
                                "w{wi}:{workload_name}|p{pi}:{}|{}|{k}w|{}",
                                p.label(),
                                scenario.label(),
                                dwp.label()
                            );
                            if let CellPeriod::Phased(p) = period {
                                key.push('|');
                                key.push_str(&match p {
                                    Some(t) => format!("T={t}s"),
                                    None => "T=native".into(),
                                });
                            }
                            let seed = derive_seed(self.seed, &key);
                            cells.push(CellSpec {
                                id: cells.len(),
                                workload_idx: wi,
                                policy_idx: pi,
                                scenario,
                                workers: k,
                                dwp,
                                phase_period: match period {
                                    CellPeriod::NotPhased => None,
                                    CellPeriod::Phased(p) => *p,
                                },
                                scheduler: None,
                                arrival_rate: None,
                                key,
                                seed,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Phase-period coordinate during enumeration: plain workloads have no
/// period segment in their key at all (backward-compatible keys), phased
/// workloads carry one per axis point.
#[derive(Debug, Clone, Copy)]
enum CellPeriod {
    NotPhased,
    Phased(Option<f64>),
}

/// One fully-resolved cell of a campaign matrix.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in enumeration order.
    pub id: usize,
    /// Combined workload coordinate: indices below
    /// `CampaignSpec::workloads.len()` address the plain workload axis,
    /// the rest address [`CampaignSpec::phased_workloads`].
    pub workload_idx: usize,
    /// Index into [`CampaignSpec::policies`].
    pub policy_idx: usize,
    /// Scenario to run.
    pub scenario: ScenarioKind,
    /// Worker-node count.
    pub workers: usize,
    /// Static-DWP point.
    pub dwp: DwpPoint,
    /// Phase-period override for phased-workload cells (`None` for plain
    /// cells and for the native-duration axis point).
    pub phase_period: Option<f64>,
    /// Cluster scheduler of a fleet cell (`None` for machine-local
    /// cells). Always `Some` when `scenario == ScenarioKind::Fleet`.
    pub scheduler: Option<SchedulerKind>,
    /// Poisson arrival rate of a fleet cell, jobs per simulated second
    /// (`None` for machine-local cells and trace-driven fleet cells).
    pub arrival_rate: Option<f64>,
    /// Stable key: seed-derivation input and report identity.
    pub key: String,
    /// Derived seed.
    pub seed: u64,
}

/// Executor knobs, separate from the spec: the same spec must yield the
/// same results under any executor configuration — dedup on or off,
/// cache warm or cold, any thread count.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Worker threads (`None` = one per available core).
    pub threads: Option<usize>,
    /// When set, every cell runs with a [`TraceSink`] attached and writes
    /// a Chrome-trace file `trace-<sanitized cell key>.json` into this
    /// directory (see `docs/TRACING.md`). Tracing never perturbs results:
    /// the deterministic report is byte-identical with or without it.
    /// Cells that share a deduplicated execution share its trace file;
    /// cells served from the cache carry no trace at all.
    pub trace_dir: Option<PathBuf>,
    /// Exact intra-campaign deduplication (default on): cells are grouped
    /// by canonical descriptor ([`cell_descriptor`]), one representative
    /// per class executes, and the result fans out to every member. Off
    /// exists for A/B measurement, not correctness — reports are
    /// byte-identical either way.
    pub dedup: bool,
    /// Persistent cell cache directory. When set, executed classes store
    /// their outcome under `<dir>/<descriptor hash>.cell` and later runs
    /// replay them (see [`cache::CellCache`]), giving warm reruns
    /// near-zero cost and kill-and-resume for free. Sub-campaigns run
    /// elsewhere against the same directory fill it for the full spec
    /// the same way (`docs/ROBUSTNESS.md`). A directory that cannot be
    /// created gives a cold, uncached run, without an error; the
    /// `campaign` binary creates it first and reports the failure.
    pub cache_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig { threads: None, trace_dir: None, dedup: true, cache_dir: None }
    }
}

/// Run a campaign with the default executor configuration (all cores).
pub fn run_campaign(spec: &CampaignSpec) -> CampaignReport {
    run_campaign_with(spec, &CampaignConfig::default())
}

/// Run every cell of `spec` across the sharded executor and collect the
/// report. Cell failures (e.g. a co-scheduled cell on a full-machine
/// worker set) are recorded per cell, never aborting the campaign.
///
/// Execution pipeline (the memoization layer, see `docs/ARCHITECTURE.md`):
///
/// 1. **Dedup** — cells are grouped into equivalence classes by canonical
///    descriptor ([`cell_descriptor`]; exact text match, the hash is only
///    an index). One representative per class executes.
/// 2. **Cache** — with [`CampaignConfig::cache_dir`] set, each class
///    first consults the on-disk [`CellCache`]; hits skip execution
///    entirely, fresh executions are stored for the next run. A killed
///    campaign resumes by replaying its stored classes.
/// 3. **Fan-out** — every member cell of a class receives the class
///    outcome under its own key/seed/identity. The volatile provenance
///    fields `dedup_class` and `cache_hit` record the sharing; the
///    deterministic report is byte-identical to a fully cold,
///    dedup-disabled run.
pub fn run_campaign_with(spec: &CampaignSpec, cfg: &CampaignConfig) -> CampaignReport {
    run_campaign_using(spec, cfg, run_cell)
}

/// [`run_campaign_with`] over an explicit cell runner, called once per
/// executed class. Production passes [`run_cell`]; the parameter exists
/// so a test can substitute a runner that panics on a chosen cell.
fn run_campaign_using<R>(spec: &CampaignSpec, cfg: &CampaignConfig, run: R) -> CampaignReport
where
    R: Fn(
            &CampaignSpec,
            &CellSpec,
            Option<&mut Option<TraceSink>>,
        ) -> Result<RunResult, RuntimeError>
        + Sync,
{
    let t0 = std::time::Instant::now();
    let bw_matrix = spec.probe_bandwidth.then(|| bwap_fabric::probe_matrix(&spec.machine));
    // Heterogeneous machines carry their tier axis into the report;
    // symmetric machines omit it so their reports stay byte-stable.
    let node_tiers = spec.machine.is_heterogeneous().then(|| {
        spec.machine
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, n)| NodeTierRecord {
                node: i as u16,
                class: n.mem_class.name.to_string(),
                cores: n.cores,
                ctrl_bw: n.ctrl_bw,
                lat_scale: n.mem_class.lat_scale,
                mem_pages: n.mem_pages,
            })
            .collect()
    });
    let cells = spec.cells();
    let descs: Vec<_> = cells.iter().map(|c| cell_descriptor(spec, c)).collect();

    // Group cells into descriptor-equivalence classes. Representatives
    // are the lowest-id member, so class order (and therefore execution
    // order) is deterministic. Dedup off = singleton classes.
    let mut class_of = vec![0usize; cells.len()];
    let mut reps: Vec<usize> = Vec::new();
    let mut class_size: Vec<usize> = Vec::new();
    if cfg.dedup {
        let mut by_text: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        for (i, d) in descs.iter().enumerate() {
            let k = *by_text.entry(d.text()).or_insert_with(|| {
                reps.push(i);
                class_size.push(0);
                reps.len() - 1
            });
            class_of[i] = k;
            class_size[k] += 1;
        }
    } else {
        for (i, k) in class_of.iter_mut().enumerate() {
            *k = i;
            reps.push(i);
            class_size.push(1);
        }
    }

    // Replay whatever the persistent cache already holds, then execute
    // only the remaining classes. `(outcome, trace_path, cache_hit)`.
    type ClassOutcome = (Result<RunResult, String>, Option<String>, bool);
    let cache = cfg.cache_dir.as_deref().and_then(CellCache::open);
    let mut class_outcomes: Vec<Option<ClassOutcome>> = reps
        .iter()
        .map(|&rep| cache.as_ref().and_then(|c| c.load(&descs[rep])).map(|o| (o, None, true)))
        .collect();
    let pending: Vec<usize> = (0..reps.len()).filter(|&k| class_outcomes[k].is_none()).collect();
    let executed_cells = pending.len();
    let threads_used = executor::effective_workers(cfg.threads, executed_cells);
    let run = &run;
    let jobs: Vec<_> = pending
        .iter()
        .map(|&k| {
            let cell = cells[reps[k]].clone();
            let trace_dir = cfg.trace_dir.clone();
            move || {
                let mut sink = None;
                let outcome = run(spec, &cell, trace_dir.is_some().then_some(&mut sink));
                let trace_path = match (&trace_dir, sink) {
                    (Some(dir), Some(sink)) => write_trace(dir, &cell.key, &sink),
                    _ => None,
                };
                (outcome.map_err(|e| e.to_string()), trace_path)
            }
        })
        .collect();
    // Panic isolation: a poisoned cell becomes an error cell for its
    // whole dedup class instead of killing the campaign. Panicked
    // outcomes are *never* cached — a later warm run must re-execute,
    // not replay the failure.
    let fresh = run_parallel_catch(cfg.threads, jobs);
    for (&k, caught) in pending.iter().zip(fresh) {
        class_outcomes[k] = Some(match caught {
            Ok((outcome, trace_path)) => {
                if let Some(c) = &cache {
                    c.store(&descs[reps[k]], &outcome);
                }
                (outcome, trace_path, false)
            }
            Err(panic_msg) => (Err(format!("cell panicked: {panic_msg}")), None, false),
        });
    }

    // Fan each class outcome out to its members. Cloned results are
    // re-labelled with the member's own effective policy/workload/workers
    // so an in-memory consumer cannot tell a shared result from a fresh
    // one; the serialized result fields are bit-identical by the
    // determinism contract.
    let unresolved: ClassOutcome =
        (Err("internal: dedup class never resolved".to_string()), None, false);
    let records = cells
        .into_iter()
        .map(|cell| {
            let k = class_of[cell.id];
            // Defensive: an unresolved class (impossible today, since every
            // pending class gets a slot above) degrades to a per-cell error
            // instead of panicking the whole campaign out.
            let (outcome, trace_path, cache_hit) =
                class_outcomes[k].as_ref().unwrap_or(&unresolved);
            let mut outcome = outcome.clone();
            if let Ok(r) = &mut outcome {
                r.policy = effective_policy(spec, &cell).label();
                r.workload = spec.workload_name(cell.workload_idx).to_string();
                r.workers = cell.workers;
            }
            CellRecord {
                id: cell.id,
                workload: spec.workload_name(cell.workload_idx).to_string(),
                policy: spec.policies[cell.policy_idx].label(),
                scenario: cell.scenario,
                workers: cell.workers,
                static_dwp: cell.dwp.static_value(),
                phase_period: cell.phase_period,
                scheduler: cell.scheduler.map(|s| s.label().to_string()),
                arrival_rate_hz: cell.arrival_rate,
                seed: cell.seed,
                dedup_class: (class_size[k] > 1).then(|| descs[cell.id].hash_hex()),
                cache_hit: *cache_hit,
                key: cell.key,
                outcome,
                trace_path: trace_path.clone(),
            }
        })
        .collect();
    CampaignReport {
        schema_version: SCHEMA_VERSION,
        campaign: spec.name.clone(),
        machine: spec.machine.name().to_string(),
        seed: spec.seed,
        threads: threads_used,
        wall_time_s: t0.elapsed().as_secs_f64(),
        engine_mode: (spec.sim_cfg.mode != EngineMode::default())
            .then(|| spec.sim_cfg.mode.label().to_string()),
        executed_cells,
        bw_matrix,
        node_tiers,
        cells: records,
    }
}

/// Run one cell of a spec exactly as [`run_campaign_with`] would, without
/// tracing — for callers that drive the pipeline's layers themselves,
/// such as a benchmark timing cell execution on its own (the `cell` must
/// come from this spec's [`CampaignSpec::cells`] enumeration).
pub fn run_cell_for(spec: &CampaignSpec, cell: &CellSpec) -> Result<RunResult, RuntimeError> {
    run_cell(spec, cell, None)
}

/// Write one cell's Chrome-trace file into `dir`, returning the path
/// written. Tracing is observability, never a reason to fail a cell: a
/// filesystem refusal drops the file (the report then simply carries no
/// `trace_path` for the cell).
fn write_trace(dir: &Path, key: &str, sink: &TraceSink) -> Option<String> {
    let stem: String = key
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || "._-".contains(c) { c } else { '-' })
        .collect();
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("trace-{stem}.json"));
    std::fs::write(&path, sink.to_chrome_json()).ok()?;
    Some(path.display().to_string())
}

/// Run one cell: resolve the worker set, apply the cell's DWP override
/// to the policy, and run the scenario core (fleet cells run the fleet).
/// When `trace` is `Some`, the run is observed by a [`TraceSink`] stored
/// into the slot afterwards.
fn run_cell(
    spec: &CampaignSpec,
    cell: &CellSpec,
    trace: Option<&mut Option<TraceSink>>,
) -> Result<RunResult, RuntimeError> {
    if cell.scenario == ScenarioKind::Fleet {
        return run_fleet_cell(spec, cell, trace);
    }
    // Only worker-capable nodes count: a 4-node tiered machine with two
    // CPU-less expanders supports at most 2 workers.
    let n = spec.machine.worker_node_count();
    if cell.workers == 0 || cell.workers > n {
        return Err(RuntimeError::Scenario(format!(
            "worker count {} out of range for machine with {} worker-capable nodes",
            cell.workers, n
        )));
    }
    // The same override logic the cell's canonical descriptor is built
    // from — extraction keeps the two in lockstep (see `descriptor`).
    let policy = effective_policy(spec, cell);
    let workers = spec.machine.best_worker_set(cell.workers);
    let app = match cell.workload_idx.checked_sub(spec.workloads.len()) {
        Some(i) => Measured::phased(&spec.phased_workloads[i], &spec.machine, cell.phase_period),
        None => Measured::plain(&spec.workloads[cell.workload_idx]),
    };
    let coscheduled = cell.scenario == ScenarioKind::Coscheduled;
    run_scenario(&spec.machine, app, workers, &policy, spec.sim_cfg.clone(), coscheduled, trace)
}

/// Run one fleet cell: build the [`FleetConfig`] from the spec's fleet
/// axis and the cell's coordinates, materialize the arrival stream (the
/// declared trace, or a Poisson stream seeded by the *cell* seed over the
/// spec's workload catalog), run the fleet, and fold the outcome into a
/// [`RunResult`] — `exec_time_s` holds the makespan and the fleet tail
/// metrics ride in the optional fields.
fn run_fleet_cell(
    spec: &CampaignSpec,
    cell: &CellSpec,
    trace: Option<&mut Option<TraceSink>>,
) -> Result<RunResult, RuntimeError> {
    let axis = spec.fleet.as_ref().ok_or_else(|| {
        RuntimeError::Scenario("fleet cell on a spec without a fleet axis".into())
    })?;
    let policy = effective_policy(spec, cell);
    let cfg = FleetConfig {
        machines: axis.machines.iter().map(|m| m.topology()).collect(),
        scheduler: cell.scheduler.expect("fleet cells carry a scheduler"),
        policy: policy.clone(),
        workers: cell.workers,
        sim_cfg: spec.sim_cfg.clone(),
    };
    let jobs = match &axis.trace {
        Some(events) => jobs_from_trace(events),
        None => {
            poisson_jobs(cell.seed, cell.arrival_rate.unwrap_or(0.0), axis.jobs, &spec.workloads)
        }
    };
    let out = run_fleet(&cfg, &jobs, trace)?;
    Ok(RunResult {
        policy: policy.label(),
        workload: "mix".into(),
        workers: cell.workers,
        exec_time_s: out.makespan_s,
        chosen_dwp: None,
        migrated_pages: out.migrated_pages,
        stall_frac: out.stall_frac,
        a_stall_frac: None,
        read_bytes: out.read_bytes,
        traffic_bytes: out.traffic_bytes,
        retunes: None,
        retune_times_s: None,
        phase_switches: None,
        jobs: Some(out.jobs.len() as u64),
        job_slowdowns: Some(out.slowdowns),
        slowdown_p50: out.slowdown_p50,
        slowdown_p95: out.slowdown_p95,
        slowdown_p99: out.slowdown_p99,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap::BwapConfig;
    use bwap_topology::machines;

    fn small_spec() -> CampaignSpec {
        CampaignSpec::new("unit", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![
                PlacementPolicy::UniformWorkers,
                PlacementPolicy::Bwap(BwapConfig::default()),
            ])
            .scenarios(vec![ScenarioKind::Standalone, ScenarioKind::Coscheduled])
            .worker_counts(vec![1, 2])
            .dwp_grid(vec![DwpPoint::AsConfigured, DwpPoint::Static(0.5)])
            .seed(7)
    }

    #[test]
    fn cell_enumeration_is_deterministic_and_skips_static_for_fixed_policies() {
        let spec = small_spec();
        let cells = spec.cells();
        // uniform-workers: 2 scenarios x 2 counts x 1 dwp (static skipped);
        // bwap: 2 x 2 x 2.
        assert_eq!(cells.len(), 4 + 8);
        assert_eq!(cells.iter().map(|c| c.id).collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
        let again = spec.cells();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.seed, b.seed);
        }
        // Keys are unique, so seeds are decorrelated per cell.
        let keys: std::collections::HashSet<_> = cells.iter().map(|c| c.key.clone()).collect();
        assert_eq!(keys.len(), cells.len());
        assert!(cells.iter().all(
            |c| c.dwp.static_value().is_none() || spec.policies[c.policy_idx].label() == "bwap"
        ));
    }

    #[test]
    fn phased_workloads_extend_the_matrix_without_touching_plain_keys() {
        let plain = small_spec().scenarios(vec![ScenarioKind::Standalone]);
        let with_phases = plain
            .clone()
            .phased_workloads(vec![bwap_workloads::sc_bandwidth_flip().scaled_down(32.0)])
            .phase_periods(vec![2.0, 4.0]);
        let a = plain.cells();
        let b = with_phases.cells();
        // The plain prefix is identical, key for key and seed for seed.
        assert!(b.len() > a.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.seed, y.seed);
            assert_eq!(y.phase_period, None);
        }
        // Phased cells carry the period axis in their keys and specs:
        // 2 policies (uniform-workers has no dwp knob: 1 dwp point;
        // bwap: 2) x 2 counts x 2 periods = (1+2) x 2 x 2 = 12.
        let phased: Vec<_> = b.iter().skip(a.len()).collect();
        assert_eq!(phased.len(), 12);
        assert!(phased.iter().all(|c| c.key.contains("SC.FLIP") && c.key.contains("|T=")));
        assert!(phased.iter().all(|c| matches!(c.phase_period, Some(t) if t == 2.0 || t == 4.0)));
        assert_eq!(with_phases.workload_name(1), "SC.FLIP");
    }

    #[test]
    fn phased_campaign_runs_end_to_end_with_adaptive_policy() {
        let spec = CampaignSpec::new("phased-unit", machines::machine_b())
            .phased_workloads(vec![bwap_workloads::sc_bandwidth_flip().scaled_down(64.0)])
            .phase_periods(vec![1.0])
            .policies(vec![
                PlacementPolicy::FirstTouch,
                PlacementPolicy::AdaptiveBwap(crate::adaptive::AdaptiveConfig::default()),
            ])
            .seed(3);
        let report =
            run_campaign_with(&spec, &CampaignConfig { threads: Some(2), ..Default::default() });
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            let r = c.outcome.as_ref().unwrap_or_else(|e| panic!("{}: {e}", c.key));
            assert!(r.phase_switches.is_some(), "{}", c.key);
            assert_eq!(c.phase_period, Some(1.0));
        }
        let adaptive = report
            .cells
            .iter()
            .find(|c| c.policy == "bwap-adaptive")
            .and_then(|c| c.result())
            .expect("adaptive cell ran");
        assert!(adaptive.retunes.is_some());
        let j = report.deterministic_json();
        assert!(j.contains("\"phase_period_s\": 1"));
        assert!(j.contains("\"phase_switches\""));
    }

    fn fleet_axis() -> FleetAxis {
        FleetAxis {
            machines: vec![MachineKind::B, MachineKind::B],
            schedulers: vec![SchedulerKind::RoundRobin, SchedulerKind::LeastLoaded],
            arrival_rates: vec![0.5, 2.0],
            jobs: 3,
            trace: None,
        }
    }

    #[test]
    fn fleet_axis_extends_the_matrix_without_touching_existing_keys() {
        let plain = small_spec();
        let with_fleet = plain.clone().fleet(fleet_axis());
        let a = plain.cells();
        let b = with_fleet.cells();
        // The machine-local prefix is identical, key for key.
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.seed, y.seed);
            assert_eq!(y.scheduler, None);
        }
        // Fleet cells: 2 policies (uniform-workers: 1 dwp point; bwap: 2)
        // x 2 schedulers x 2 rates x 2 counts = (1+2) x 2 x 2 x 2 = 24.
        let fleet: Vec<_> = b.iter().skip(a.len()).collect();
        assert_eq!(fleet.len(), 24);
        for c in &fleet {
            assert_eq!(c.scenario, ScenarioKind::Fleet);
            assert_eq!(c.workload_idx, usize::MAX);
            assert!(c.scheduler.is_some() && c.arrival_rate.is_some());
            assert!(c.key.starts_with("fleet:b+b|"), "{}", c.key);
        }
        assert_eq!(with_fleet.workload_name(usize::MAX), "mix");
    }

    #[test]
    fn fleet_campaign_runs_end_to_end_with_tail_metrics() {
        let spec = CampaignSpec::new("fleet-unit", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(64.0)])
            .policies(vec![PlacementPolicy::UniformWorkers])
            .fleet(FleetAxis {
                machines: vec![MachineKind::B, MachineKind::B],
                schedulers: vec![SchedulerKind::LeastLoaded],
                arrival_rates: vec![2.0],
                jobs: 3,
                trace: None,
            })
            .seed(11);
        let report =
            run_campaign_with(&spec, &CampaignConfig { threads: Some(2), ..Default::default() });
        // One machine-local cell + one fleet cell.
        assert_eq!(report.cells.len(), 2);
        let local = report.cells[0].result().expect("local cell ran");
        assert_eq!(local.jobs, None, "fleet fields stay off machine-local cells");
        let cell = &report.cells[1];
        assert_eq!(cell.workload, "mix");
        assert_eq!(cell.scheduler.as_deref(), Some("least-loaded"));
        assert_eq!(cell.arrival_rate_hz, Some(2.0));
        let r = cell.outcome.as_ref().unwrap_or_else(|e| panic!("{}: {e}", cell.key));
        assert_eq!(r.jobs, Some(3));
        assert_eq!(r.job_slowdowns.as_ref().map(Vec::len), Some(3));
        assert!(r.slowdown_p50.is_some() && r.slowdown_p99.is_some());
        assert!(r.exec_time_s > 0.0, "makespan rides in exec_time_s");
        let j = report.deterministic_json();
        assert!(j.contains("\"scenario\": \"fleet\""));
        assert!(j.contains("\"slowdown_p99\""));
    }

    #[test]
    fn dedup_collapses_equivalent_cells_and_reports_are_byte_identical() {
        // Overlapping axes on purpose: bwap-static(0.5) declared as a
        // policy AND as a grid point — every static(0.5) cell runs once.
        let spec = CampaignSpec::new("dedup-unit", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![
                PlacementPolicy::Bwap(BwapConfig::static_dwp(0.5)),
                PlacementPolicy::Bwap(BwapConfig::default()),
            ])
            .dwp_grid(vec![DwpPoint::AsConfigured, DwpPoint::Static(0.5)])
            .seed(7);
        // 2 policies x 2 dwp points = 4 cells; three of them are the same
        // static(0.5) simulation.
        let on = run_campaign_with(&spec, &CampaignConfig::default());
        let off = run_campaign_with(&spec, &CampaignConfig { dedup: false, ..Default::default() });
        assert_eq!(on.cells.len(), 4);
        assert_eq!(on.executed_cells, 2, "three equivalent cells collapse into one class");
        assert_eq!(off.executed_cells, 4);
        assert_eq!(on.deterministic_json(), off.deterministic_json());
        // Sharing is recorded only on the shared cells.
        let shared: Vec<_> = on.cells.iter().filter(|c| c.dedup_class.is_some()).collect();
        assert_eq!(shared.len(), 3);
        assert!(on.cells.iter().all(|c| !c.cache_hit));
        // Fanned-out results are indistinguishable from fresh ones, down
        // to the effective policy label.
        for (a, b) in on.cells.iter().zip(&off.cells) {
            let (ra, rb) = (a.result().unwrap(), b.result().unwrap());
            assert_eq!(ra.policy, rb.policy);
            assert_eq!(ra.exec_time_s.to_bits(), rb.exec_time_s.to_bits());
        }
    }

    #[test]
    fn cache_serves_warm_reruns_and_partial_resumes() {
        let dir =
            std::env::temp_dir().join(format!("bwap-campaign-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = small_spec();
        let cfg = CampaignConfig { cache_dir: Some(dir.clone()), ..Default::default() };
        let cold = run_campaign_with(&spec, &cfg);
        assert!(cold.executed_cells > 0);
        assert!(cold.cells.iter().all(|c| !c.cache_hit));
        // Warm rerun: zero executions, every cell a hit, bytes identical.
        let warm = run_campaign_with(&spec, &cfg);
        assert_eq!(warm.executed_cells, 0);
        assert!(warm.cells.iter().all(|c| c.cache_hit));
        assert_eq!(cold.deterministic_json(), warm.deterministic_json());
        // Kill-and-resume: delete some entries (a killed run's missing
        // tail) — the resume executes exactly those and matches again.
        let mut removed = 0;
        for (i, entry) in std::fs::read_dir(&dir).unwrap().flatten().enumerate() {
            if entry.path().extension().is_some_and(|e| e == "cell") && i % 2 == 0 {
                std::fs::remove_file(entry.path()).unwrap();
                removed += 1;
            }
        }
        assert!(removed > 0);
        let resumed = run_campaign_with(&spec, &cfg);
        assert_eq!(resumed.executed_cells, removed);
        assert_eq!(cold.deterministic_json(), resumed.deterministic_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_panicking_cell_fails_its_whole_class_and_is_never_cached() {
        let dir =
            std::env::temp_dir().join(format!("bwap-campaign-panic-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The same workload listed twice: each cell of the first copy
        // shares its dedup class with its twin in the second.
        let sc = bwap_workloads::streamcluster().scaled_down(32.0);
        let spec = small_spec()
            .workloads(vec![sc.clone(), sc])
            .scenarios(vec![ScenarioKind::Standalone])
            .worker_counts(vec![1]);
        let baseline = run_campaign_with(&spec, &CampaignConfig::default());
        let cells = spec.cells();
        let victim = cells[0].key.clone();
        let victim_desc = cell_descriptor(&spec, &cells[0]);
        let class: Vec<usize> = cells
            .iter()
            .filter(|c| cell_descriptor(&spec, c).text() == victim_desc.text())
            .map(|c| c.id)
            .collect();
        assert!(class.len() >= 2, "the victim's class has several members: {class:?}");

        let cfg =
            CampaignConfig { threads: Some(2), cache_dir: Some(dir.clone()), ..Default::default() };
        let faulty = run_campaign_using(&spec, &cfg, |spec, cell, trace| {
            if cell.key == victim {
                panic!("test runner panics at {}", cell.key);
            }
            run_cell(spec, cell, trace)
        });
        assert_eq!(faulty.cells.len(), baseline.cells.len());
        for &id in &class {
            let err = faulty.cells[id].outcome.as_ref().unwrap_err();
            assert!(err.contains("cell panicked") && err.contains(&victim), "{err}");
        }
        // Every other cell is untouched, down to its serialized bits.
        let others = |r: &CampaignReport| {
            let mut r = r.clone();
            r.cells.retain(|c| !class.contains(&c.id));
            r.deterministic_json()
        };
        assert_eq!(others(&faulty), others(&baseline));
        // The panic never reached the cache: a plain rerun over the same
        // directory executes exactly the victim's class and heals.
        let cache = CellCache::open(&dir).expect("open");
        assert!(cache.load(&victim_desc).is_none(), "a panicked outcome is never stored");
        let healed = run_campaign_with(
            &spec,
            &CampaignConfig { cache_dir: Some(dir.clone()), ..Default::default() },
        );
        assert_eq!(healed.executed_cells, 1);
        assert_eq!(healed.deterministic_json(), baseline.deterministic_json());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_seeds_depend_on_root_seed() {
        let a = small_spec().cells();
        let b = small_spec().seed(8).cells();
        assert!(a.iter().zip(&b).all(|(x, y)| x.seed != y.seed));
    }

    #[test]
    fn static_dwp_cells_pin_the_tuner() {
        let m = machines::machine_b();
        let spec = CampaignSpec::new("static", m)
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
            .dwp_grid(vec![DwpPoint::Static(0.3)]);
        let report =
            run_campaign_with(&spec, &CampaignConfig { threads: Some(1), ..Default::default() });
        assert_eq!(report.cells.len(), 1);
        let r = report.cells[0].result().expect("cell ran");
        // Online search disabled: the tuner reports exactly the pinned DWP.
        assert_eq!(r.chosen_dwp, Some(0.3));
        assert_eq!(report.cells[0].static_dwp, Some(0.3));
    }

    #[test]
    fn out_of_range_worker_counts_become_cell_errors() {
        let m = machines::machine_b();
        let spec = CampaignSpec::new("bad-workers", m)
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::UniformWorkers])
            .worker_counts(vec![0, 99]);
        let report = run_campaign(&spec);
        assert_eq!(report.cells.len(), 2);
        for c in &report.cells {
            let err = c.outcome.as_ref().unwrap_err();
            assert!(err.contains("out of range"), "{err}");
        }
    }

    #[test]
    fn coscheduled_full_machine_is_an_error_cell_not_a_panic() {
        let m = machines::machine_b();
        let n = m.node_count();
        let spec = CampaignSpec::new("full", m)
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::UniformAll])
            .scenarios(vec![ScenarioKind::Coscheduled])
            .worker_counts(vec![n]);
        let report = run_campaign(&spec);
        assert!(report.cells[0].outcome.is_err());
    }

    #[test]
    fn probe_attaches_bandwidth_matrix() {
        let spec = CampaignSpec::new("probe", machines::machine_a()).probe_bandwidth(true);
        let report = run_campaign(&spec);
        let m = report.bw_matrix.expect("probe requested");
        assert_eq!(m.node_count(), 8);
        assert!(report.cells.is_empty());
    }

    #[test]
    fn report_matches_scenario_runner_output() {
        let m = machines::machine_b();
        let spec = CampaignSpec::new("cross-check", m.clone())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::UniformWorkers])
            .worker_counts(vec![2]);
        let report = run_campaign(&spec);
        let cell = report.find("SC", "uniform-workers", ScenarioKind::Standalone, 2, None);
        let got = cell.expect("cell exists").result().expect("ran");
        let direct = crate::scenario::run_standalone(
            &m,
            &bwap_workloads::streamcluster().scaled_down(32.0),
            m.best_worker_set(2),
            &PlacementPolicy::UniformWorkers,
        )
        .unwrap();
        assert_eq!(got.exec_time_s, direct.exec_time_s);
        assert_eq!(got.migrated_pages, direct.migrated_pages);
    }
}
