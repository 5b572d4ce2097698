//! Every experiment in the paper's evaluation, run by the `paper`
//! binary.
//!
//! Each experiment is declared as one or more [`CampaignSpec`]s and
//! executed by the campaign engine (`bwap-runtime::campaign`), which fans
//! the cells out across threads; its tables are read back from the
//! reports by cell coordinates. The one computation that is not a grid
//! cell is Fig. 1b's offline n-dimensional search, the oracle the
//! baseline policies are normalized against. The `*_spec` functions
//! expose the declarations that the `campaign --spec` CLI, the tests and
//! the benchmark run on their own. Each experiment returns
//! [`ResultTable`]s ready for printing and CSV export. `quick` scales
//! workloads down ~8x for fast smoke runs.

use crate::report::ResultTable;
use bwap::{BwapConfig, DwpTunerConfig};
use bwap_runtime::campaign::CellSpec;
use bwap_runtime::{
    run_campaign, run_parallel, AdaptiveConfig, CampaignSpec, DwpPoint, FleetAxis, MachineKind,
    PlacementPolicy, RunResult, ScenarioKind, SchedulerKind,
};
use bwap_search::{hill_climb, HillClimbConfig, SimEvaluator};
use bwap_topology::{machines, MachineTopology};
use bwap_workloads::WorkloadSpec;
use numasim::SimConfig;

/// Scale factor applied to workloads in quick mode.
const QUICK_FACTOR: f64 = 8.0;

fn suite(quick: bool) -> Vec<WorkloadSpec> {
    bwap_workloads::suite()
        .into_iter()
        .map(|w| if quick { w.scaled_down(QUICK_FACTOR) } else { w })
        .collect()
}

fn streamcluster(quick: bool) -> WorkloadSpec {
    if quick {
        bwap_workloads::streamcluster().scaled_down(QUICK_FACTOR)
    } else {
        bwap_workloads::streamcluster()
    }
}

/// A campaign's results, each next to the coordinates of its cell.
struct Cells(Vec<(CellSpec, RunResult)>);

impl Cells {
    /// Run `spec` and pair every cell with its result. Experiment cells
    /// are expected to succeed: a failed cell panics with its own error
    /// message (a failure is a harness bug).
    fn run(spec: &CampaignSpec) -> Cells {
        let report = run_campaign(spec);
        let pairs =
            spec.cells().into_iter().zip(report.cells).map(|(cell, record)| match record.outcome {
                Ok(result) => (cell, result),
                Err(e) => panic!("cell {} failed: {e}", record.key),
            });
        Cells(pairs.collect())
    }

    /// The result of the first cell whose coordinates satisfy `at`.
    fn get(&self, at: impl Fn(&CellSpec) -> bool) -> &RunResult {
        self.0.iter().find(|(cell, _)| at(cell)).map(|(_, r)| r).expect("no cell at coordinates")
    }

    /// The result of workload `wi` under policy `pi` (for specs whose
    /// other axes hold one point each).
    fn at(&self, wi: usize, pi: usize) -> &RunResult {
        self.get(|c| c.workload_idx == wi && c.policy_idx == pi)
    }
}

/// Fig. 1a campaign: no scenario cells, just the installation-time
/// bandwidth probe of machine A.
pub fn fig1a_spec() -> CampaignSpec {
    CampaignSpec::new("fig1a", machines::machine_a()).probe_bandwidth(true)
}

/// Fig. 1a: the machine-A node-to-node bandwidth matrix, measured by
/// single-flow probes, plus its deviation from the paper's published
/// matrix (zero by calibration).
pub fn fig1a() -> (bwap_topology::BwMatrix, f64) {
    let probed = run_campaign(&fig1a_spec()).bw_matrix.expect("fig1a spec requests the probe");
    let err = probed.max_rel_error(&machines::fig1a_matrix()).expect("same dimensions");
    (probed, err)
}

/// Fig. 1b: first-touch / uniform-workers / uniform-all on machine A with
/// 2 worker nodes, normalized against the offline N-dimensional
/// hill-climbing search (top-10 average). Returns the normalized table
/// (values < 1 mean slower than the search's placement, as in the paper).
pub fn fig1b(quick: bool, search_iterations: usize) -> ResultTable {
    let m = machines::machine_a();
    let workers = m.best_worker_set(2);
    let spec = CampaignSpec::new("fig1b", m.clone())
        .workloads(suite(quick))
        .policies(vec![
            PlacementPolicy::FirstTouch,
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::UniformAll,
        ])
        .worker_counts(vec![2]);
    let baselines = Cells::run(&spec);
    // The offline search, one per app, starting from uniform-workers as
    // in §II. Proposals are evaluated 4 per round through the shared
    // parallel executor (SimEvaluator::evaluate_batch).
    let searches: Vec<_> = spec
        .workloads
        .iter()
        .map(|app| {
            let m = m.clone();
            let app = app.clone();
            move || {
                let start = bwap::WeightDistribution::uniform_over(workers, m.node_count())
                    .expect("workers valid");
                let mut evaluator = SimEvaluator::new(m, app, workers);
                let cfg = HillClimbConfig {
                    iterations: search_iterations,
                    ..HillClimbConfig::batched(4)
                };
                hill_climb(&mut evaluator, start, &cfg).top_k_mean_time
            }
        })
        .collect();
    let searches = run_parallel(searches);
    let mut columns: Vec<String> = spec.policies.iter().map(|p| p.label()).collect();
    columns.push("n-dim-search".into());
    let mut t = ResultTable::new(
        "Fig. 1b: normalized execution time vs n-dim search (machine A, 2 workers)",
        columns,
    );
    for (wi, (app, reference)) in spec.workloads.iter().zip(searches).enumerate() {
        let mut times: Vec<f64> =
            (0..spec.policies.len()).map(|pi| baselines.at(wi, pi).exec_time_s).collect();
        times.push(reference);
        // Paper plots hillclimb/time: 1.0 = as good as the search.
        t.push_row(app.name, times.iter().map(|x| reference / x).collect());
    }
    t
}

/// Table I campaign: every benchmark stand-alone under first-touch on one
/// full machine-B worker node — the characterization runs.
pub fn table1_spec(quick: bool) -> CampaignSpec {
    CampaignSpec::new("table1", machines::machine_b())
        .workloads(suite(quick))
        .policies(vec![PlacementPolicy::FirstTouch])
}

/// Table I: memory-access characterization measured on machine B with one
/// full worker node. Columns: reads MB/s, writes MB/s, private %, shared %.
pub fn table1(quick: bool) -> ResultTable {
    let spec = table1_spec(quick);
    let cells = Cells::run(&spec);
    let mut t = ResultTable::new(
        "Table I: characterization (machine B, 1 full worker node)",
        vec!["reads MB/s".into(), "writes MB/s".into(), "private %".into(), "shared %".into()],
    );
    t.precision = 1;
    for (wi, app) in spec.workloads.iter().enumerate() {
        let r = cells.at(wi, 0);
        let writes = r.traffic_bytes - r.read_bytes;
        t.push_row(
            app.name,
            vec![
                r.read_bytes / r.exec_time_s / 1e6,
                writes / r.exec_time_s / 1e6,
                app.private_frac * 100.0,
                (1.0 - app.private_frac) * 100.0,
            ],
        );
    }
    t
}

/// Campaign behind one co-scheduled panel (Fig. 2 / Fig. 3a/b): every
/// evaluation policy x every benchmark at a fixed worker count.
pub fn cosched_panel_spec(machine: &MachineTopology, workers: usize, quick: bool) -> CampaignSpec {
    CampaignSpec::new(&format!("cosched_{}_{}w", machine.name(), workers), machine.clone())
        .workloads(suite(quick))
        .policies(PlacementPolicy::evaluation_set())
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![workers])
}

/// One co-scheduled panel: every policy x every benchmark at a fixed
/// worker count. Returns `(exec-time table, chosen DWP per app)`.
pub fn cosched_panel(
    machine: &MachineTopology,
    workers: usize,
    quick: bool,
) -> (ResultTable, Vec<(String, f64)>) {
    let spec = cosched_panel_spec(machine, workers, quick);
    let cells = Cells::run(&spec);
    let mut table = ResultTable::new(
        &format!("{}, {} worker(s), co-scheduled: exec time [s]", machine.name(), workers),
        spec.policies.iter().map(|p| p.label()).collect(),
    );
    let mut dwps = Vec::new();
    for (wi, app) in spec.workloads.iter().enumerate() {
        let row: Vec<&RunResult> = (0..spec.policies.len()).map(|pi| cells.at(wi, pi)).collect();
        table.push_row(app.name, row.iter().map(|r| r.exec_time_s).collect());
        if let Some(d) = row.iter().find(|r| r.policy == "bwap").and_then(|r| r.chosen_dwp) {
            dwps.push((app.name.to_string(), d));
        }
    }
    (table, dwps)
}

/// Fig. 3c/d: stand-alone scenario at each application's optimal worker
/// count. The optimum is determined per application under uniform-workers
/// (the incumbent policy), then every policy runs at that count. Returns
/// the exec-time table; row labels carry the chosen worker count.
pub fn standalone_optimal(machine: &MachineTopology, quick: bool) -> ResultTable {
    let candidates: Vec<usize> =
        (0..=machine.node_count().trailing_zeros()).map(|p| 1usize << p).collect();
    let policies = PlacementPolicy::evaluation_set();
    let apps = suite(quick);
    // Stage 1: optimal worker count per app — one campaign sweeping the
    // worker-count axis under the incumbent policy (first minimum wins).
    let sweep = Cells::run(
        &CampaignSpec::new(&format!("standalone_sweep_{}", machine.name()), machine.clone())
            .workloads(apps.clone())
            .policies(vec![PlacementPolicy::UniformWorkers])
            .worker_counts(candidates.clone()),
    );
    let optima: Vec<usize> = (0..apps.len())
        .map(|wi| {
            let time = |k: usize| sweep.get(|c| c.workload_idx == wi && c.workers == k).exec_time_s;
            candidates
                .iter()
                .copied()
                .min_by(|&a, &b| time(a).partial_cmp(&time(b)).unwrap())
                .expect("non-empty candidate set")
        })
        .collect();
    // Stage 2: all policies at the per-app optimum — one campaign per
    // distinct optimal count, over the apps that share it.
    let mut counts = optima.clone();
    counts.sort_unstable();
    counts.dedup();
    let mut rows = vec![Vec::new(); apps.len()];
    for k in counts {
        let members: Vec<usize> = (0..apps.len()).filter(|&ai| optima[ai] == k).collect();
        let spec = CampaignSpec::new(
            &format!("standalone_optimal_{}_{k}w", machine.name()),
            machine.clone(),
        )
        .workloads(members.iter().map(|&ai| apps[ai].clone()).collect())
        .policies(policies.clone())
        .worker_counts(vec![k]);
        let cells = Cells::run(&spec);
        for (wi, &ai) in members.iter().enumerate() {
            rows[ai] = (0..policies.len()).map(|pi| cells.at(wi, pi).exec_time_s).collect();
        }
    }
    let mut table = ResultTable::new(
        &format!("{}, stand-alone at optimal workers: exec time [s]", machine.name()),
        policies.iter().map(|p| p.label()).collect(),
    );
    for ((app, k), row) in apps.iter().zip(&optima).zip(rows) {
        table.push_row(&format!("{} {}W", app.name, k), row);
    }
    table
}

/// Table II campaigns: the co-scheduled BWAP DWP search on both machines,
/// all worker counts (each spec's `worker_counts` axis is the machine's
/// column set).
pub fn table2_specs(quick: bool) -> Vec<CampaignSpec> {
    vec![
        CampaignSpec::new("table2_machine-a", machines::machine_a())
            .workloads(suite(quick))
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
            .scenarios(vec![ScenarioKind::Coscheduled])
            .worker_counts(vec![1, 2, 4]),
        CampaignSpec::new("table2_machine-b", machines::machine_b())
            .workloads(suite(quick))
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
            .scenarios(vec![ScenarioKind::Coscheduled])
            .worker_counts(vec![1, 2]),
    ]
}

/// Table II: DWP chosen by the iterative search, co-scheduled scenario,
/// all worker counts on both machines. Values in percent.
pub fn table2(quick: bool) -> ResultTable {
    let specs = table2_specs(quick);
    let runs: Vec<Cells> = specs.iter().map(Cells::run).collect();
    let mut t = ResultTable::new(
        "Table II: DWP chosen by BWAP's iterative search (co-scheduled), %",
        vec!["A 1W".into(), "A 2W".into(), "A 4W".into(), "B 1W".into(), "B 2W".into()],
    );
    t.precision = 1;
    for (wi, app) in specs[0].workloads.iter().enumerate() {
        let mut row = Vec::new();
        for (spec, cells) in specs.iter().zip(&runs) {
            for &k in &spec.worker_counts {
                let r = cells.get(|c| c.workload_idx == wi && c.workers == k);
                row.push(r.chosen_dwp.expect("bwap reports dwp") * 100.0);
            }
        }
        t.push_row(app.name, row);
    }
    t
}

/// The Fig. 4 static-DWP grid: 0 %, 10 %, ..., 100 %.
pub fn fig4_dwps() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// The Fig. 4 DWP axis: every static point, then the online tuner.
fn fig4_grid() -> Vec<DwpPoint> {
    fig4_dwps()
        .into_iter()
        .map(DwpPoint::Static)
        .chain(std::iter::once(DwpPoint::AsConfigured))
        .collect()
}

/// Fig. 4 campaign: Streamcluster co-scheduled on machine A at 1 and 2
/// workers, swept over the static-DWP grid plus the online tuner.
pub fn fig4_spec(quick: bool) -> CampaignSpec {
    CampaignSpec::new("fig4", machines::machine_a())
        .workloads(vec![streamcluster(quick)])
        .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![1, 2])
        .dwp_grid(fig4_grid())
}

/// A DWP-grid campaign with deliberate axis overlap: the policy set pairs
/// the online tuner with a pre-fixed `static_dwp(0.5)` variant, and the
/// grid revisits the same static points. After the per-cell override is
/// folded in (`bwap_runtime::effective_policy`), every
/// `static_dwp(0.5) x Static(d)` cell collapses onto the matching
/// `default x Static(d)` cell and `static_dwp(0.5) x online` collapses
/// onto `default x Static(0.5)` — 24 declared cells but only 12 distinct
/// simulations. Exactly the shape the exact-dedup pass exists for:
/// `tests/memoization.rs` runs it with dedup on and off, and perfbench's
/// `cosched_grid` workload runs it cold and then over a warm cell cache.
pub fn dwp_dedup_spec(quick: bool) -> CampaignSpec {
    CampaignSpec::new("dwp_dedup", machines::machine_a())
        .workloads(vec![streamcluster(quick)])
        .policies(vec![
            PlacementPolicy::Bwap(BwapConfig::default()),
            PlacementPolicy::Bwap(BwapConfig::static_dwp(0.5)),
        ])
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![1])
        .dwp_grid(fig4_grid())
}

/// Fig. 4: static-DWP sweep for Streamcluster on machine A (1 and 2
/// workers, co-scheduled), plus the point the online tuner picks.
/// Returns one table per worker count with columns: exec time, stall
/// fraction (both normalized to the DWP=0 point as in the paper's
/// normalized axes), and the online tuner's `(dwp, exec time)`.
pub fn fig4(quick: bool) -> Vec<(ResultTable, f64, f64)> {
    let spec = fig4_spec(quick);
    let cells = Cells::run(&spec);
    let mut out = Vec::new();
    for &k in &spec.worker_counts {
        let points: Vec<&RunResult> = fig4_dwps()
            .into_iter()
            .map(|d| cells.get(|c| c.workers == k && c.dwp == DwpPoint::Static(d)))
            .collect();
        let online = cells.get(|c| c.workers == k && c.dwp == DwpPoint::AsConfigured);
        let (t0, s0) = (points[0].exec_time_s, points[0].stall_frac);
        let mut table = ResultTable::new(
            &format!("Fig. 4: SC on machine A, {k} worker(s): normalized vs DWP"),
            vec!["norm exec time".into(), "norm stall rate".into()],
        );
        for (dwp, p) in fig4_dwps().iter().zip(&points) {
            table.push_row(
                &format!("DWP={:3.0}%", dwp * 100.0),
                vec![p.exec_time_s / t0, p.stall_frac / s0],
            );
        }
        out.push((table, online.chosen_dwp.unwrap_or(0.0), online.exec_time_s / t0));
    }
    out
}

/// The tiered campaign's policy set: the incumbents versus BWAP on a
/// machine with CPU-less expander nodes.
fn tiered_policies() -> Vec<PlacementPolicy> {
    vec![
        PlacementPolicy::FirstTouch,
        PlacementPolicy::UniformWorkers,
        PlacementPolicy::UniformAll,
        PlacementPolicy::Bwap(BwapConfig::default()),
    ]
}

/// Fig. T campaign: the heterogeneous-tier scenario on `machine_tiered`
/// (2 worker nodes + 2 CPU-less expanders). Bandwidth-bound workloads and
/// their capacity-pressure variants, stand-alone, at 1 and 2 workers.
/// Quick mode scales traffic only for the capacity variants — shrinking
/// their pages would remove the capacity pressure they exist to exert.
pub fn fig_tiered_spec(quick: bool) -> CampaignSpec {
    let mut apps = vec![streamcluster(quick), {
        let oc = bwap_workloads::ocean_cp();
        if quick {
            oc.scaled_down(QUICK_FACTOR)
        } else {
            oc
        }
    }];
    for w in bwap_workloads::capacity_suite() {
        apps.push(if quick { w.scaled_down_traffic(QUICK_FACTOR) } else { w });
    }
    CampaignSpec::new("fig_tiered", machines::machine_tiered())
        .workloads(apps)
        .policies(tiered_policies())
        .worker_counts(vec![1, 2])
}

/// Phase-cycle period of the `fig_phases` campaign, seconds (one full
/// pass through each workload's timeline).
pub fn fig_phases_period(quick: bool) -> f64 {
    if quick {
        6.0
    } else {
        40.0
    }
}

/// Tuner cadence for the phase campaign. Both the one-shot and the
/// adaptive tuner use it (a fair comparison needs identical search
/// parameters): sampling is much faster than the paper's default so a
/// full re-convergence costs a small fraction of one phase, the regime
/// the §VI future-work scenario assumes.
fn phases_tuner(quick: bool) -> DwpTunerConfig {
    if quick {
        DwpTunerConfig {
            samples_per_iteration: 4,
            trim: 1,
            sample_interval_s: 0.02,
            step: 0.2,
            ..DwpTunerConfig::default()
        }
    } else {
        DwpTunerConfig {
            samples_per_iteration: 6,
            trim: 1,
            sample_interval_s: 0.1,
            step: 0.2,
            ..DwpTunerConfig::default()
        }
    }
}

/// Fig. P campaign: phase-structured workloads on machine B — the
/// SC bandwidth flip and the Ocean footprint swing, cycled at
/// [`fig_phases_period`] — under first-touch, one-shot ("static") BWAP
/// and adaptive BWAP. The flip alternates between a placement that wants
/// pages spread (controller-saturating streaming) and one that wants
/// them worker-local (latency-bound point queries), so no single static
/// placement wins both phases: the adaptive watchdog's home turf.
/// `tests/phases.rs` pins adaptive ≥ static ≥ first-touch on the flip.
pub fn fig_phases_spec(quick: bool) -> CampaignSpec {
    let scale = if quick { QUICK_FACTOR } else { 1.0 };
    let workloads = vec![
        bwap_workloads::sc_bandwidth_flip().scaled_down(scale),
        bwap_workloads::oc_footprint_swing().scaled_down(scale),
    ];
    let static_bwap = BwapConfig { tuner: phases_tuner(quick), ..BwapConfig::default() };
    let adaptive = AdaptiveConfig {
        bwap: static_bwap.clone(),
        // A long phased run re-tunes at every boundary; leave headroom
        // over the default cap without disabling the guard.
        max_retunes: 32,
        ..AdaptiveConfig::default()
    };
    CampaignSpec::new("fig_phases", machines::machine_b())
        .phased_workloads(workloads)
        .phase_periods(vec![fig_phases_period(quick)])
        .policies(vec![
            PlacementPolicy::FirstTouch,
            PlacementPolicy::Bwap(static_bwap),
            PlacementPolicy::AdaptiveBwap(adaptive),
        ])
        .worker_counts(vec![1])
}

/// Fig. F campaign: fleet-scale serving. An open-loop Poisson stream of
/// jobs drawn from a two-app catalog arrives at a heterogeneous two
/// machine fleet (one machine B, one tiered machine with CPU-less
/// expanders); every cluster scheduler is swept at each arrival rate and
/// each fleet cell reports slowdown-vs-solo tail percentiles. The plain
/// workload axis doubles as the fleet's job catalog, so the report also
/// carries each app's machine-local solo run for context.
pub fn fig_fleet_spec(quick: bool) -> CampaignSpec {
    let catalog = vec![streamcluster(quick), {
        let oc = bwap_workloads::ocean_cp();
        if quick {
            oc.scaled_down(QUICK_FACTOR)
        } else {
            oc
        }
    }];
    let (rates, jobs) = if quick { (vec![0.5, 2.0], 4) } else { (vec![0.25, 1.0, 4.0], 16) };
    CampaignSpec::new("fig_fleet", machines::machine_b())
        .workloads(catalog)
        .policies(vec![PlacementPolicy::UniformWorkers])
        .worker_counts(vec![1])
        .fleet(FleetAxis {
            machines: vec![MachineKind::B, MachineKind::Tiered],
            schedulers: SchedulerKind::all().to_vec(),
            arrival_rates: rates,
            jobs,
            trace: None,
        })
        .seed(7)
}

/// Ablation 1: kernel-level vs user-level weighted interleaving, full
/// BWAP, co-scheduled 2 workers on both machines. Values: exec-time ratio
/// user/kernel (paper reports the gap is at most ~3%).
pub fn ablation_interleave_mode(quick: bool) -> ResultTable {
    let apps = suite(quick);
    // One campaign per machine; both variants carry the label `bwap`, so
    // cells are told apart by policy index: 0 = kernel, 1 = user-level.
    let ratios: Vec<Vec<f64>> = [machines::machine_a(), machines::machine_b()]
        .into_iter()
        .map(|m| {
            let spec = CampaignSpec::new(&format!("ablation_interleave_{}", m.name()), m)
                .workloads(apps.clone())
                .policies(vec![
                    PlacementPolicy::Bwap(BwapConfig::kernel_mode()),
                    PlacementPolicy::Bwap(BwapConfig::default()),
                ])
                .scenarios(vec![ScenarioKind::Coscheduled])
                .worker_counts(vec![2]);
            let cells = Cells::run(&spec);
            (0..apps.len())
                .map(|wi| cells.at(wi, 1).exec_time_s / cells.at(wi, 0).exec_time_s)
                .collect()
        })
        .collect();
    let mut t = ResultTable::new(
        "Ablation: user-level (Algorithm 1) / kernel-level exec-time ratio",
        vec!["machine A".into(), "machine B".into()],
    );
    for (wi, app) in apps.iter().enumerate() {
        t.push_row(app.name, ratios.iter().map(|r| r[wi]).collect());
    }
    t
}

/// Ablation 2: online-tuner overhead and accuracy — BWAP with the online
/// search versus the *best* static DWP found by a full sweep (the paper's
/// accuracy/overhead analysis, §IV-B: tuner within one step of optimum,
/// <= 4 % overhead).
pub fn ablation_tuner_overhead(quick: bool) -> ResultTable {
    let spec = CampaignSpec::new("ablation_overhead", machines::machine_a())
        .workloads(suite(quick))
        .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![2])
        .dwp_grid(fig4_grid());
    let cells = Cells::run(&spec);
    let mut t = ResultTable::new(
        "Ablation: DWP tuner vs best static (machine A, 2 workers, co-scheduled)",
        vec![
            "online [s]".into(),
            "best static [s]".into(),
            "overhead %".into(),
            "chosen DWP %".into(),
            "best DWP %".into(),
        ],
    );
    t.precision = 2;
    for (wi, app) in spec.workloads.iter().enumerate() {
        let online = cells.get(|c| c.workload_idx == wi && c.dwp == DwpPoint::AsConfigured);
        // The first minimum in DWP order wins ties.
        let (best_dwp, best) = fig4_dwps()
            .into_iter()
            .map(|d| (d, cells.get(|c| c.workload_idx == wi && c.dwp == DwpPoint::Static(d))))
            .min_by(|a, b| a.1.exec_time_s.partial_cmp(&b.1.exec_time_s).unwrap())
            .expect("non-empty");
        t.push_row(
            app.name,
            vec![
                online.exec_time_s,
                best.exec_time_s,
                (online.exec_time_s / best.exec_time_s - 1.0) * 100.0,
                online.chosen_dwp.expect("bwap") * 100.0,
                best_dwp * 100.0,
            ],
        );
    }
    t
}

/// Streamcluster co-scheduled on machine A at `workers` under each of
/// `policies`, with the engine configured by `sim_cfg` — the single-app
/// campaign behind the model, step-size and migration ablations.
fn sc_ablation(
    name: &str,
    quick: bool,
    workers: usize,
    policies: Vec<PlacementPolicy>,
    sim_cfg: SimConfig,
) -> Cells {
    Cells::run(
        &CampaignSpec::new(name, machines::machine_a())
            .workloads(vec![streamcluster(quick)])
            .policies(policies)
            .scenarios(vec![ScenarioKind::Coscheduled])
            .worker_counts(vec![workers])
            .sim_cfg(sim_cfg),
    )
}

/// Ablation 3: model components — write amplification and loaded-latency
/// inflation switched off, effect on the headline comparison (bwap and
/// first-touch vs uniform-workers speedup, SC machine A 2W co-scheduled).
/// Every policy of a row runs under that row's model.
pub fn ablation_model(quick: bool) -> ResultTable {
    let variants: Vec<(&str, SimConfig)> = vec![
        ("full model", SimConfig::default()),
        (
            "no write amplification",
            SimConfig {
                ctrl_model: bwap_fabric::ControllerModel::symmetric(),
                ..SimConfig::default()
            },
        ),
        ("no loaded latency", SimConfig { latency_inflation: (0.0, 4.0), ..SimConfig::default() }),
    ];
    let mut t = ResultTable::new(
        "Ablation: model components (SC, machine A, 2W): speedups vs uniform-workers",
        vec!["bwap speedup".into(), "first-touch speedup".into()],
    );
    for (label, sim_cfg) in variants {
        // One campaign per model, since a spec has one engine config.
        let policies = vec![
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::Bwap(BwapConfig::default()),
            PlacementPolicy::FirstTouch,
        ];
        let cells = sc_ablation("ablation_model", quick, 2, policies, sim_cfg);
        let uw = cells.at(0, 0).exec_time_s;
        t.push_row(label, vec![uw / cells.at(0, 1).exec_time_s, uw / cells.at(0, 2).exec_time_s]);
    }
    t
}

/// Ablation 4: hill-climb step-size sensitivity (SC machine A 1W).
pub fn ablation_step_size(quick: bool) -> ResultTable {
    let steps = [0.05, 0.10, 0.20];
    // Every variant carries the label `bwap`: cells are read by policy
    // index, which is the step's index.
    let policies = steps
        .iter()
        .map(|&step| {
            let mut cfg = BwapConfig::default();
            cfg.tuner.step = step;
            PlacementPolicy::Bwap(cfg)
        })
        .collect();
    let cells = sc_ablation("ablation_step", quick, 1, policies, SimConfig::default());
    let mut t = ResultTable::new(
        "Ablation: DWP step size (SC, machine A, 1W, co-scheduled)",
        vec!["chosen DWP %".into(), "exec time [s]".into()],
    );
    for (pi, step) in steps.iter().enumerate() {
        let r = cells.at(0, pi);
        t.push_row(
            &format!("x = {:.0}%", step * 100.0),
            vec![r.chosen_dwp.unwrap_or(0.0) * 100.0, r.exec_time_s],
        );
    }
    t
}

/// Ablation 5: migration-bandwidth sensitivity of the tuner (SC machine A
/// 1W): convergence cost at different kernel page-copy budgets.
pub fn ablation_migration_budget(quick: bool) -> ResultTable {
    let mut t = ResultTable::new(
        "Ablation: migration budget (SC, machine A, 1W, co-scheduled)",
        vec!["exec time [s]".into(), "pages migrated".into(), "chosen DWP %".into()],
    );
    t.precision = 1;
    for gbps in [0.5, 2.0, 8.0] {
        // One campaign per budget, since a spec has one engine config.
        let sim_cfg = SimConfig { migration_gbps: gbps, ..SimConfig::default() };
        let policies = vec![PlacementPolicy::Bwap(BwapConfig::default())];
        let cells = sc_ablation("ablation_migration", quick, 1, policies, sim_cfg);
        let r = cells.at(0, 0);
        t.push_row(
            &format!("{gbps} GB/s"),
            vec![r.exec_time_s, r.migrated_pages as f64, r.chosen_dwp.unwrap_or(0.0) * 100.0],
        );
    }
    t
}
