//! Implementations of every experiment in the paper's evaluation, shared
//! by the per-figure binaries and the all-in-one `paper` binary.
//!
//! The scenario-matrix experiments (Fig. 1a, Fig. 2/3, Fig. 4, Tables
//! I/II) are declared as [`CampaignSpec`]s and executed by the campaign
//! engine (`bwap-runtime::campaign`), which fans the cells out across
//! threads; the `*_spec` functions expose the declarations so binaries
//! can also write the machine-readable campaign reports. Each function
//! returns [`ResultTable`]s ready for printing and CSV export. `quick`
//! scales workloads down ~8x for fast smoke runs.

use crate::report::ResultTable;
use bwap::{BwapConfig, DwpTunerConfig};
use bwap_runtime::{
    run_campaign, run_coscheduled, run_coscheduled_with, run_parallel, AdaptiveConfig,
    CampaignReport, CampaignSpec, DwpPoint, FleetAxis, MachineKind, PlacementPolicy, RunResult,
    ScenarioKind, SchedulerKind,
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

/// The cell result at the given coordinates; panics with the cell's own
/// error message if the run failed (experiment cells are expected to
/// succeed — a failure is a harness bug).
fn cell(
    report: &CampaignReport,
    workload: &str,
    policy: &str,
    scenario: ScenarioKind,
    workers: usize,
    static_dwp: Option<f64>,
) -> RunResult {
    let c = report
        .find(workload, policy, scenario, workers, static_dwp)
        .unwrap_or_else(|| panic!("no cell {workload}/{policy}/{}/{workers}w", scenario.label()));
    match &c.outcome {
        Ok(r) => r.clone(),
        Err(e) => panic!("cell {} failed: {e}", c.key),
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
    fig1a_from_report(&run_campaign(&fig1a_spec()))
}

/// Extract Fig. 1a's matrix and error figure from a campaign report.
pub fn fig1a_from_report(report: &CampaignReport) -> (bwap_topology::BwMatrix, f64) {
    let probed = report.bw_matrix.clone().expect("fig1a spec requests the probe");
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
    let apps = suite(quick);
    let jobs: Vec<_> = apps
        .iter()
        .map(|app| {
            let m = m.clone();
            let app = app.clone();
            move || {
                let policies = [
                    PlacementPolicy::FirstTouch,
                    PlacementPolicy::UniformWorkers,
                    PlacementPolicy::UniformAll,
                ];
                let mut times: Vec<f64> = policies
                    .iter()
                    .map(|p| {
                        bwap_runtime::run_standalone(&m, &app, workers, p)
                            .expect("scenario")
                            .exec_time_s
                    })
                    .collect();
                // Offline search, starting from uniform-workers as in §II.
                // Proposals are evaluated 4 per round through the shared
                // parallel executor (SimEvaluator::evaluate_batch).
                let start = bwap::WeightDistribution::uniform_over(workers, m.node_count())
                    .expect("workers valid");
                let mut evaluator = SimEvaluator::new(m.clone(), app.clone(), workers);
                let cfg = HillClimbConfig {
                    iterations: search_iterations,
                    ..HillClimbConfig::batched(4)
                };
                let outcome = hill_climb(&mut evaluator, start, &cfg);
                times.push(outcome.top_k_mean_time);
                times
            }
        })
        .collect();
    let rows = run_parallel(jobs);
    let mut t = ResultTable::new(
        "Fig. 1b: normalized execution time vs n-dim search (machine A, 2 workers)",
        vec![
            "first-touch".into(),
            "uniform-workers".into(),
            "uniform-all".into(),
            "n-dim-search".into(),
        ],
    );
    for (app, times) in apps.iter().zip(rows) {
        // Paper plots hillclimb/time: 1.0 = as good as the search.
        let reference = times[3];
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
    table1_from_report(&spec, &run_campaign(&spec))
}

/// Build Table I from its campaign report.
pub fn table1_from_report(spec: &CampaignSpec, report: &CampaignReport) -> ResultTable {
    let mut t = ResultTable::new(
        "Table I: characterization (machine B, 1 full worker node)",
        vec!["reads MB/s".into(), "writes MB/s".into(), "private %".into(), "shared %".into()],
    );
    t.precision = 1;
    for app in &spec.workloads {
        let r = cell(report, app.name, "first-touch", ScenarioKind::Standalone, 1, None);
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
    let report = run_campaign(&spec);
    let mut table = ResultTable::new(
        &format!("exec time [s], {}, {} worker(s), co-scheduled", machine.name(), workers),
        spec.policies.iter().map(|p| p.label()).collect(),
    );
    let mut dwps = Vec::new();
    for app in &spec.workloads {
        let row: Vec<f64> = spec
            .policies
            .iter()
            .map(|p| {
                cell(&report, app.name, &p.label(), ScenarioKind::Coscheduled, workers, None)
                    .exec_time_s
            })
            .collect();
        table.push_row(app.name, row);
        let bwap = cell(&report, app.name, "bwap", ScenarioKind::Coscheduled, workers, None);
        if let Some(d) = bwap.chosen_dwp {
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
    // worker-count axis under the incumbent policy.
    let sweep_spec =
        CampaignSpec::new(&format!("standalone_sweep_{}", machine.name()), machine.clone())
            .workloads(apps.clone())
            .policies(vec![PlacementPolicy::UniformWorkers])
            .worker_counts(candidates.clone());
    let sweep = run_campaign(&sweep_spec);
    let optima: Vec<usize> = apps
        .iter()
        .map(|app| {
            candidates
                .iter()
                .map(|&k| {
                    (
                        k,
                        cell(
                            &sweep,
                            app.name,
                            "uniform-workers",
                            ScenarioKind::Standalone,
                            k,
                            None,
                        ),
                    )
                })
                .min_by(|a, b| a.1.exec_time_s.partial_cmp(&b.1.exec_time_s).unwrap())
                .expect("non-empty candidate set")
                .0
        })
        .collect();
    // Stage 2: all policies at the per-app optimum. The worker count now
    // depends on the app, so this is a ragged matrix — one job per
    // (app, policy) pair on the same executor.
    let machine_ref = &machine;
    let jobs: Vec<_> = apps
        .iter()
        .zip(&optima)
        .flat_map(|(app, &k)| {
            policies.iter().map(move |policy| {
                let machine = (*machine_ref).clone();
                let app = app.clone();
                let policy = policy.clone();
                move || {
                    let workers = machine.best_worker_set(k);
                    bwap_runtime::run_standalone(&machine, &app, workers, &policy)
                        .expect("scenario")
                }
            })
        })
        .collect();
    let results: Vec<RunResult> = run_parallel(jobs);
    let mut table = ResultTable::new(
        &format!("exec time [s], {}, stand-alone at optimal workers", machine.name()),
        policies.iter().map(|p| p.label()).collect(),
    );
    for (ai, (app, &k)) in apps.iter().zip(&optima).enumerate() {
        let row: Vec<f64> =
            (0..policies.len()).map(|pi| results[ai * policies.len() + pi].exec_time_s).collect();
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
    let apps = suite(quick);
    let reports: Vec<(CampaignReport, Vec<usize>)> = table2_specs(quick)
        .into_iter()
        .map(|spec| {
            let counts = spec.worker_counts.clone();
            (run_campaign(&spec), counts)
        })
        .collect();
    let mut t = ResultTable::new(
        "Table II: DWP chosen by BWAP's iterative search (co-scheduled), %",
        vec!["A 1W".into(), "A 2W".into(), "A 4W".into(), "B 1W".into(), "B 2W".into()],
    );
    t.precision = 1;
    for app in &apps {
        let mut row = Vec::new();
        for (report, counts) in &reports {
            for &k in counts {
                let r = cell(report, app.name, "bwap", ScenarioKind::Coscheduled, k, None);
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

/// Fig. 4 campaign: Streamcluster co-scheduled on machine A at 1 and 2
/// workers, swept over the static-DWP grid plus the online tuner.
pub fn fig4_spec(quick: bool) -> CampaignSpec {
    let grid: Vec<DwpPoint> = fig4_dwps()
        .into_iter()
        .map(DwpPoint::Static)
        .chain(std::iter::once(DwpPoint::AsConfigured))
        .collect();
    CampaignSpec::new("fig4", machines::machine_a())
        .workloads(vec![streamcluster(quick)])
        .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![1, 2])
        .dwp_grid(grid)
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
    let grid: Vec<DwpPoint> = fig4_dwps()
        .into_iter()
        .map(DwpPoint::Static)
        .chain(std::iter::once(DwpPoint::AsConfigured))
        .collect();
    CampaignSpec::new("dwp_dedup", machines::machine_a())
        .workloads(vec![streamcluster(quick)])
        .policies(vec![
            PlacementPolicy::Bwap(BwapConfig::default()),
            PlacementPolicy::Bwap(BwapConfig::static_dwp(0.5)),
        ])
        .scenarios(vec![ScenarioKind::Coscheduled])
        .worker_counts(vec![1])
        .dwp_grid(grid)
}

/// Fig. 4: static-DWP sweep for Streamcluster on machine A (1 and 2
/// workers, co-scheduled), plus the point the online tuner picks.
/// Returns one table per worker count with columns: exec time, stall
/// fraction (both normalized to the DWP=0 point as in the paper's
/// normalized axes), and the online tuner's `(dwp, exec time)`.
pub fn fig4(quick: bool) -> Vec<(ResultTable, f64, f64)> {
    fig4_from_report(&run_campaign(&fig4_spec(quick)))
}

/// Build Fig. 4's tables from its campaign report.
pub fn fig4_from_report(report: &CampaignReport) -> Vec<(ResultTable, f64, f64)> {
    let mut out = Vec::new();
    for k in [1usize, 2] {
        let points: Vec<RunResult> = fig4_dwps()
            .into_iter()
            .map(|d| cell(report, "SC", "bwap", ScenarioKind::Coscheduled, k, Some(d)))
            .collect();
        let online = cell(report, "SC", "bwap", ScenarioKind::Coscheduled, k, None);
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
    let machines_ = [machines::machine_a(), machines::machine_b()];
    let jobs: Vec<_> = apps
        .iter()
        .flat_map(|app| {
            machines_.iter().map(move |m| {
                let m = m.clone();
                let app = app.clone();
                move || {
                    let workers = m.best_worker_set(2);
                    let kernel = run_coscheduled(
                        &m,
                        &app,
                        workers,
                        &PlacementPolicy::Bwap(BwapConfig::kernel_mode()),
                    )
                    .expect("scenario");
                    let user = run_coscheduled(
                        &m,
                        &app,
                        workers,
                        &PlacementPolicy::Bwap(BwapConfig::default()),
                    )
                    .expect("scenario");
                    user.exec_time_s / kernel.exec_time_s
                }
            })
        })
        .collect();
    let ratios = run_parallel(jobs);
    let mut t = ResultTable::new(
        "Ablation: user-level (Algorithm 1) / kernel-level exec-time ratio",
        vec!["machine A".into(), "machine B".into()],
    );
    for (ai, app) in apps.iter().enumerate() {
        t.push_row(app.name, ratios[ai * 2..ai * 2 + 2].to_vec());
    }
    t
}

/// Ablation 2: online-tuner overhead and accuracy — BWAP with the online
/// search versus the *best* static DWP found by a full sweep (the paper's
/// accuracy/overhead analysis, §IV-B: tuner within one step of optimum,
/// <= 4 % overhead).
pub fn ablation_tuner_overhead(quick: bool) -> ResultTable {
    let m = machines::machine_a();
    let workers = m.best_worker_set(2);
    let apps = suite(quick);
    let dwps = fig4_dwps();
    let jobs: Vec<_> = apps
        .iter()
        .map(|app| {
            let m = m.clone();
            let app = app.clone();
            let dwps = dwps.clone();
            move || {
                let online = run_coscheduled(
                    &m,
                    &app,
                    workers,
                    &PlacementPolicy::Bwap(BwapConfig::default()),
                )
                .expect("scenario");
                let sweep = bwap_runtime::dwp_sweep(&m, &app, workers, &dwps, true).expect("sweep");
                let best = sweep
                    .iter()
                    .min_by(|a, b| a.exec_time_s.partial_cmp(&b.exec_time_s).unwrap())
                    .expect("non-empty");
                [
                    online.exec_time_s,
                    best.exec_time_s,
                    (online.exec_time_s / best.exec_time_s - 1.0) * 100.0,
                    online.chosen_dwp.expect("bwap") * 100.0,
                    best.dwp * 100.0,
                ]
            }
        })
        .collect();
    let rows = run_parallel(jobs);
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
    for (app, vals) in apps.iter().zip(rows) {
        t.push_row(app.name, vals.to_vec());
    }
    t
}

/// Ablation 3: model components — write amplification and loaded-latency
/// inflation switched off, effect on the headline comparison (bwap vs
/// uniform-workers speedup, SC machine A 2W co-scheduled).
pub fn ablation_model(quick: bool) -> ResultTable {
    let m = machines::machine_a();
    let workers = m.best_worker_set(2);
    let spec = streamcluster(quick);
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
    let jobs: Vec<_> = variants
        .iter()
        .map(|(_, cfg)| {
            let m = m.clone();
            let spec = spec.clone();
            let cfg = cfg.clone();
            move || {
                let uw = run_coscheduled_with(
                    &m,
                    &spec,
                    workers,
                    &PlacementPolicy::UniformWorkers,
                    cfg.clone(),
                )
                .expect("scenario");
                let bw = run_coscheduled_with(
                    &m,
                    &spec,
                    workers,
                    &PlacementPolicy::Bwap(BwapConfig::default()),
                    cfg,
                )
                .expect("scenario");
                let ft = run_coscheduled_with(
                    &m,
                    &spec,
                    workers,
                    &PlacementPolicy::FirstTouch,
                    SimConfig::default(),
                )
                .expect("scenario");
                [uw.exec_time_s / bw.exec_time_s, uw.exec_time_s / ft.exec_time_s]
            }
        })
        .collect();
    let rows = run_parallel(jobs);
    let mut t = ResultTable::new(
        "Ablation: model components (SC, machine A, 2W): speedups vs uniform-workers",
        vec!["bwap speedup".into(), "first-touch speedup".into()],
    );
    for ((label, _), vals) in variants.iter().zip(rows) {
        t.push_row(label, vals.to_vec());
    }
    t
}

/// Ablation 4: hill-climb step-size sensitivity (SC machine A 1W).
pub fn ablation_step_size(quick: bool) -> ResultTable {
    let m = machines::machine_a();
    let workers = m.best_worker_set(1);
    let spec = streamcluster(quick);
    let steps = [0.05, 0.10, 0.20];
    let jobs: Vec<_> = steps
        .iter()
        .map(|&step| {
            let m = m.clone();
            let spec = spec.clone();
            move || {
                let mut cfg = BwapConfig::default();
                cfg.tuner.step = step;
                let r = run_coscheduled(&m, &spec, workers, &PlacementPolicy::Bwap(cfg))
                    .expect("scenario");
                [r.chosen_dwp.unwrap_or(0.0) * 100.0, r.exec_time_s]
            }
        })
        .collect();
    let rows = run_parallel(jobs);
    let mut t = ResultTable::new(
        "Ablation: DWP step size (SC, machine A, 1W, co-scheduled)",
        vec!["chosen DWP %".into(), "exec time [s]".into()],
    );
    for (step, vals) in steps.iter().zip(rows) {
        t.push_row(&format!("x = {:.0}%", step * 100.0), vals.to_vec());
    }
    t
}

/// Ablation 5: migration-bandwidth sensitivity of the tuner (SC machine A
/// 1W): convergence cost at different kernel page-copy budgets.
pub fn ablation_migration_budget(quick: bool) -> ResultTable {
    let m = machines::machine_a();
    let workers = m.best_worker_set(1);
    let spec = streamcluster(quick);
    let budgets = [0.5, 2.0, 8.0];
    let jobs: Vec<_> = budgets
        .iter()
        .map(|&gbps| {
            let m = m.clone();
            let spec = spec.clone();
            move || {
                let cfg = SimConfig { migration_gbps: gbps, ..SimConfig::default() };
                let r = run_coscheduled_with(
                    &m,
                    &spec,
                    workers,
                    &PlacementPolicy::Bwap(BwapConfig::default()),
                    cfg,
                )
                .expect("scenario");
                [r.exec_time_s, r.migrated_pages as f64, r.chosen_dwp.unwrap_or(0.0) * 100.0]
            }
        })
        .collect();
    let rows = run_parallel(jobs);
    let mut t = ResultTable::new(
        "Ablation: migration budget (SC, machine A, 1W, co-scheduled)",
        vec!["exec time [s]".into(), "pages migrated".into(), "chosen DWP %".into()],
    );
    t.precision = 1;
    for (gbps, vals) in budgets.iter().zip(rows) {
        t.push_row(&format!("{gbps} GB/s"), vals.to_vec());
    }
    t
}
