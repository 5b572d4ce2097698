//! The paper's two evaluation scenarios (§IV-A) as reusable runners.
//!
//! * **Stand-alone**: the machine belongs to one application, deployed on
//!   its (separately tuned) worker set; non-worker nodes are idle memory.
//! * **Co-scheduled**: a CPU-bound high-priority application A (Swaptions)
//!   occupies the remaining nodes while the memory-intensive application B
//!   runs on the worker set; B may place pages on A's nodes but must not
//!   degrade A.
//!
//! Both scenarios also run **phase-structured** workloads
//! ([`bwap_workloads::PhasedWorkload`]): [`run_standalone_phased`] and
//! campaign cells over [`crate::CampaignSpec::phased_workloads`] install
//! the workload's cycling demand timeline on the measured process, so the
//! engine swaps its profile at every phase boundary — the setting the
//! adaptive BWAP daemon ([`PlacementPolicy::AdaptiveBwap`]) exists for.

use crate::baselines::PlacementPolicy;
use crate::bwap_daemon::{AdaptiveBwapDaemon, BwapDaemon, CoschedDaemon, TunerHandle};
use crate::error::RuntimeError;
use bwap_topology::{MachineTopology, NodeSet};
use bwap_workloads::{PhasedWorkload, WorkloadSpec};
use numasim::{AppProfile, ProcessId, SimConfig, Simulator, TraceSink};

/// Hard ceiling on simulated time per run: generous versus the ~10-60 s
/// workloads, small enough to catch accidental livelock in tests.
pub(crate) const MAX_SIM_S: f64 = 3600.0;

/// Outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy label.
    pub policy: String,
    /// Workload name.
    pub workload: String,
    /// Worker count of B.
    pub workers: usize,
    /// Execution time of the measured application, simulated seconds.
    pub exec_time_s: f64,
    /// DWP the tuner settled on (BWAP policies only).
    pub chosen_dwp: Option<f64>,
    /// Pages migrated on behalf of the measured application.
    pub migrated_pages: u64,
    /// Average stall fraction of the measured application over its run.
    pub stall_frac: f64,
    /// Average stall fraction of the co-scheduled high-priority
    /// application over B's run (co-scheduled scenario only).
    pub a_stall_frac: Option<f64>,
    /// Bytes the measured application read from memory, summed over all
    /// node-to-node flows (Table I's "Reads" numerator).
    pub read_bytes: f64,
    /// Total memory traffic (reads + writes) of the measured application.
    pub traffic_bytes: f64,
    /// Phase-change re-tunes the adaptive watchdog performed
    /// (`bwap-adaptive` runs only; `None` for every other policy).
    pub retunes: Option<u64>,
    /// Simulated time of each re-tune, in order (`bwap-adaptive` only).
    pub retune_times_s: Option<Vec<f64>>,
    /// Phase boundaries the measured application crossed (phase-structured
    /// workloads only; `None` for plain specs).
    pub phase_switches: Option<u64>,
    /// Jobs submitted to the fleet (fleet cells only; for those,
    /// `exec_time_s` holds the makespan).
    pub jobs: Option<u64>,
    /// Per-job slowdown-vs-solo samples in arrival order, completed jobs
    /// only (fleet cells only).
    pub job_slowdowns: Option<Vec<f64>>,
    /// Nearest-rank median of `job_slowdowns` (fleet cells with at least
    /// one completed job).
    pub slowdown_p50: Option<f64>,
    /// Nearest-rank 95th percentile of `job_slowdowns`.
    pub slowdown_p95: Option<f64>,
    /// Nearest-rank 99th percentile of `job_slowdowns`.
    pub slowdown_p99: Option<f64>,
}

/// `(read bytes, total traffic bytes)` of `pid` over its whole run.
pub(crate) fn traffic_counters(sim: &Simulator, nodes: usize, pid: ProcessId) -> (f64, f64) {
    let reads: f64 = (0..nodes)
        .flat_map(|s| (0..nodes).map(move |d| (s, d)))
        .map(|(s, d)| sim.counters().flow_read_bytes(pid, s, d))
        .sum();
    (reads, sim.counters().process(pid).traffic_bytes)
}

fn stall_frac_between(sim: &Simulator, pid: ProcessId, start: &numasim::ProcessSample) -> f64 {
    let end = sim.sample(pid).expect("process exists");
    let cycles = end.cycles - start.cycles;
    if cycles <= 0.0 {
        0.0
    } else {
        (end.stall_cycles - start.stall_cycles) / cycles
    }
}

/// Adaptive-watchdog observables for the result record: populated only
/// for the adaptive policy so every other cell's JSON stays unchanged.
fn retune_extras(
    policy: &PlacementPolicy,
    handle: &Option<TunerHandle>,
) -> (Option<u64>, Option<Vec<f64>>) {
    match (policy, handle) {
        (PlacementPolicy::AdaptiveBwap(_), Some(h)) => (Some(h.retunes()), Some(h.retune_times())),
        _ => (None, None),
    }
}

/// Launch the measured application under `policy` (B in the co-scheduled
/// scenario), attaching whatever daemons the policy needs. `spec` defines
/// the memory layout; a phase `timeline`, when given, supplies the spawn
/// profile (phase 0) and is installed on the process so the engine swaps
/// demand profiles at phase boundaries.
///
/// BWAP processes launch with their pages *already at* the canonical
/// distribution: `BWAP-init` runs right after allocation, so its `mbind`
/// applies before pages are faulted in — placement is free, exactly as on
/// Linux. Under the user-level mode the launch placement is what
/// Algorithm 1's sub-range plan realizes (including its rounding error)
/// rather than the exact weights.
/// When `arrive_at` is `Some`, the process is registered via
/// [`Simulator::spawn_at`] instead: memory is placed and daemons attach
/// now, but the process stays pending (no demand) until the engine
/// activates it at the given simulated time — the fleet layer's job
/// submission path (see `crate::fleet`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_measured(
    sim: &mut Simulator,
    machine: &MachineTopology,
    spec: &WorkloadSpec,
    timeline: Option<&[(f64, AppProfile)]>,
    workers: NodeSet,
    policy: &PlacementPolicy,
    cosched_a: Option<ProcessId>,
    arrive_at: Option<f64>,
) -> Result<(ProcessId, Option<TunerHandle>), RuntimeError> {
    let bwap_launch = |cfg: &bwap::BwapConfig| -> Result<numasim::MemPolicy, RuntimeError> {
        let canonical = if cfg.uniform_canonical {
            bwap::WeightDistribution::uniform(machine.node_count())
        } else {
            crate::profiling::ProfileBook::canonical_weights(machine, workers)
        };
        let initial = bwap::apply_dwp(&canonical, workers, cfg.fixed_dwp)?;
        let placed = match cfg.mode {
            bwap::InterleaveMode::Kernel => initial,
            bwap::InterleaveMode::UserLevel => bwap::realized_weights(spec.shared_pages, &initial)?,
        };
        Ok(numasim::MemPolicy::WeightedInterleave(placed.to_vec()))
    };
    let launch_policy = match policy {
        PlacementPolicy::Bwap(cfg) => bwap_launch(cfg)?,
        PlacementPolicy::AdaptiveBwap(acfg) => bwap_launch(&acfg.bwap)?,
        _ => policy.launch_policy(workers, machine.memory_nodes()),
    };
    let profile = match timeline {
        Some(t) => t.first().expect("validated timeline is non-empty").1.clone(),
        None => spec.profile_for(machine),
    };
    let pid = match arrive_at {
        Some(at) => sim.spawn_at(at, profile, workers, None, launch_policy)?,
        None => sim.spawn(profile, workers, None, launch_policy)?,
    };
    if let Some(t) = timeline {
        sim.set_phase_timeline(pid, t.to_vec())?;
    }
    policy.attach_autonuma(sim, pid);
    let handle = match policy {
        PlacementPolicy::Bwap(cfg) => match cosched_a {
            Some(a) => {
                let (daemon, handle) = CoschedDaemon::init(sim, pid, a, cfg, false)?;
                if cfg.online_tuning {
                    daemon.register(sim);
                }
                Some(handle)
            }
            None => {
                let (daemon, handle) = BwapDaemon::init(sim, pid, cfg, false)?;
                if cfg.online_tuning {
                    daemon.register(sim);
                }
                Some(handle)
            }
        },
        PlacementPolicy::AdaptiveBwap(acfg) => {
            if cosched_a.is_some() {
                return Err(RuntimeError::Scenario(
                    "adaptive BWAP supports the stand-alone scenario only (the co-scheduled \
                     tuner has no phase watchdog yet)"
                        .into(),
                ));
            }
            let (daemon, handle) = AdaptiveBwapDaemon::init(sim, pid, acfg, false)?;
            daemon.register(sim);
            Some(handle)
        }
        _ => None,
    };
    Ok((pid, handle))
}

/// Run `spec` alone on `workers` of `machine` under `policy`.
pub fn run_standalone(
    machine: &MachineTopology,
    spec: &WorkloadSpec,
    workers: NodeSet,
    policy: &PlacementPolicy,
) -> Result<RunResult, RuntimeError> {
    let app = Measured::plain(spec);
    run_scenario(machine, app, workers, policy, SimConfig::default(), false, None)
}

/// [`run_standalone`] under an explicit engine configuration that
/// additionally captures a structured run trace: a default-capacity
/// [`TraceSink`] is installed on the simulator before launch and returned
/// alongside the result. Serialize it with [`TraceSink::to_chrome_json`]
/// for Perfetto / `chrome://tracing` (see `docs/TRACING.md`).
pub fn run_standalone_traced(
    machine: &MachineTopology,
    spec: &WorkloadSpec,
    workers: NodeSet,
    policy: &PlacementPolicy,
    sim_cfg: SimConfig,
) -> Result<(RunResult, TraceSink), RuntimeError> {
    let mut slot = None;
    let app = Measured::plain(spec);
    let result = run_scenario(machine, app, workers, policy, sim_cfg, false, Some(&mut slot))?;
    Ok((result, slot.expect("traced run returns its sink")))
}

/// Run a phase-structured workload alone on `workers` under `policy`.
/// `phase_period` overrides every phase's duration (the campaign engine's
/// `phase_period` axis); `None` keeps the workload's native durations.
pub fn run_standalone_phased(
    machine: &MachineTopology,
    phased: &PhasedWorkload,
    workers: NodeSet,
    policy: &PlacementPolicy,
    sim_cfg: SimConfig,
    phase_period: Option<f64>,
) -> Result<RunResult, RuntimeError> {
    let app = Measured::phased(phased, machine, phase_period);
    run_scenario(machine, app, workers, policy, sim_cfg, false, None)
}

/// Run the co-scheduled scenario: Swaptions (A) on the complement of
/// `workers`, `spec` (B) on `workers` under `policy`.
pub fn run_coscheduled(
    machine: &MachineTopology,
    spec: &WorkloadSpec,
    workers: NodeSet,
    policy: &PlacementPolicy,
) -> Result<RunResult, RuntimeError> {
    let app = Measured::plain(spec);
    run_scenario(machine, app, workers, policy, SimConfig::default(), true, None)
}

/// The measured application of a scenario run: the spec that defines its
/// memory layout, the phase timeline that drives its demand (`None` for a
/// plain workload), and the workload name its result carries.
pub(crate) struct Measured<'a> {
    layout: &'a WorkloadSpec,
    timeline: Option<Vec<(f64, AppProfile)>>,
    name: &'a str,
}

impl<'a> Measured<'a> {
    /// A plain workload: its own layout, demand from its profile.
    pub(crate) fn plain(spec: &'a WorkloadSpec) -> Self {
        Measured { layout: spec, timeline: None, name: spec.name }
    }

    /// A phase-structured workload on `machine`, its cycle rescaled to
    /// `phase_period` seconds when given.
    pub(crate) fn phased(
        phased: &'a PhasedWorkload,
        machine: &MachineTopology,
        phase_period: Option<f64>,
    ) -> Self {
        Measured {
            layout: phased.layout_spec(),
            timeline: Some(phased.profiles_for(machine, phase_period)),
            name: &phased.name,
        }
    }
}

/// The scenario core behind every runner, every machine-local campaign
/// cell and the fleet's solo baselines: the measured application `app`
/// runs on `workers` under `policy` (see [`launch_measured`]). With
/// `coscheduled`, Swaptions (A) first occupies the worker-capable nodes
/// the worker set leaves free.
///
/// When `trace` is `Some`, a default-capacity [`TraceSink`] observes the
/// whole run and is stored into the slot afterwards. It is installed
/// before anything spawns, so spawn metadata lands in the trace; in the
/// co-scheduled scenario it observes both A and B (each process gets its
/// own track). An invalid `sim_cfg` is an error, not a panic.
pub(crate) fn run_scenario(
    machine: &MachineTopology,
    app: Measured<'_>,
    workers: NodeSet,
    policy: &PlacementPolicy,
    sim_cfg: SimConfig,
    coscheduled: bool,
    trace: Option<&mut Option<TraceSink>>,
) -> Result<RunResult, RuntimeError> {
    sim_cfg.validate()?;
    // A runs on the worker-capable nodes B leaves free: CPU-less expander
    // nodes can never host A's threads (they stay pure memory donors).
    let workers_a = machine.worker_nodes().difference(workers);
    if coscheduled && workers_a.is_empty() {
        return Err(RuntimeError::Scenario(
            "co-scheduled scenario needs at least one free worker-capable node for A".into(),
        ));
    }
    let mut sim = Simulator::new(machine.clone(), sim_cfg);
    if trace.is_some() {
        sim.set_trace_sink(TraceSink::default());
    }
    let a = if coscheduled {
        Some(sim.spawn(
            bwap_workloads::swaptions().profile_for(machine),
            workers_a,
            None,
            numasim::MemPolicy::FirstTouch,
        )?)
    } else {
        None
    };
    let timeline = app.timeline.as_deref();
    let (pid, handle) =
        launch_measured(&mut sim, machine, app.layout, timeline, workers, policy, a, None)?;
    let start_a = a.map(|a| sim.sample(a)).transpose()?;
    let start = sim.sample(pid)?;
    let exec_time_s = sim.run_until_finished(pid, MAX_SIM_S)?;
    if let Some(slot) = trace {
        *slot = sim.take_trace_sink();
    }
    let (read_bytes, traffic_bytes) = traffic_counters(&sim, machine.node_count(), pid);
    let (retunes, retune_times_s) = retune_extras(policy, &handle);
    Ok(RunResult {
        policy: policy.label(),
        workload: app.name.to_string(),
        workers: workers.len(),
        exec_time_s,
        chosen_dwp: handle.as_ref().map(|h| h.dwp()),
        migrated_pages: sim.migrated_pages(pid),
        stall_frac: stall_frac_between(&sim, pid, &start),
        a_stall_frac: a.zip(start_a).map(|(a, start_a)| stall_frac_between(&sim, a, &start_a)),
        read_bytes,
        traffic_bytes,
        retunes,
        retune_times_s,
        phase_switches: app.timeline.is_some().then(|| sim.phase_switches(pid)),
        jobs: None,
        job_slowdowns: None,
        slowdown_p50: None,
        slowdown_p95: None,
        slowdown_p99: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;
    use bwap_topology::machines;

    fn fast_sc() -> WorkloadSpec {
        bwap_workloads::streamcluster().scaled_down(8.0)
    }

    #[test]
    fn standalone_two_workers_interleave_beats_first_touch() {
        // The motivation result: first-touch centralizes shared pages and
        // loses badly for a shared-heavy workload on two workers.
        let m = machines::machine_b();
        let workers = m.best_worker_set(2);
        let ft = run_standalone(&m, &fast_sc(), workers, &PlacementPolicy::FirstTouch).unwrap();
        let uw = run_standalone(&m, &fast_sc(), workers, &PlacementPolicy::UniformWorkers).unwrap();
        assert!(
            uw.exec_time_s < ft.exec_time_s,
            "uniform-workers {} vs first-touch {}",
            uw.exec_time_s,
            ft.exec_time_s
        );
        // Plain specs report no phase/retune observables.
        assert_eq!(ft.phase_switches, None);
        assert_eq!(ft.retunes, None);
    }

    #[test]
    fn coscheduled_runs_and_reports_a_stats() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(1);
        let r = run_coscheduled(&m, &fast_sc(), workers, &PlacementPolicy::UniformAll).unwrap();
        assert!(r.exec_time_s > 0.0);
        let a_stall = r.a_stall_frac.expect("cosched reports A");
        assert!((0.0..=1.0).contains(&a_stall));
        assert_eq!(r.workers, 1);
    }

    /// The sampling interval is the tuner daemon's period, which the
    /// engine asserts positive: a bad one must fail the run with an error
    /// before any daemon is registered.
    #[test]
    fn bad_tuner_intervals_are_errors_not_panics() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(1);
        for interval in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = bwap::BwapConfig::default();
            cfg.tuner.sample_interval_s = interval;
            let adaptive = AdaptiveConfig { bwap: cfg.clone(), ..AdaptiveConfig::default() };
            let bwap = PlacementPolicy::Bwap(cfg);
            assert!(run_standalone(&m, &fast_sc(), workers, &bwap).is_err(), "{interval}");
            assert!(run_coscheduled(&m, &fast_sc(), workers, &bwap).is_err(), "{interval}");
            let adaptive = PlacementPolicy::AdaptiveBwap(adaptive);
            assert!(run_standalone(&m, &fast_sc(), workers, &adaptive).is_err(), "{interval}");
        }
    }

    #[test]
    fn coscheduled_on_full_machine_rejected() {
        let m = machines::machine_b();
        let r = run_coscheduled(&m, &fast_sc(), m.all_nodes(), &PlacementPolicy::UniformAll);
        assert!(r.is_err());
    }

    #[test]
    fn traced_run_matches_untraced_and_yields_events() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(2);
        let plain =
            run_standalone(&m, &fast_sc(), workers, &PlacementPolicy::UniformWorkers).unwrap();
        let (traced, sink) = run_standalone_traced(
            &m,
            &fast_sc(),
            workers,
            &PlacementPolicy::UniformWorkers,
            SimConfig::default(),
        )
        .unwrap();
        // Observation never perturbs the run.
        assert_eq!(plain.exec_time_s, traced.exec_time_s);
        assert_eq!(plain.migrated_pages, traced.migrated_pages);
        assert!(!sink.is_empty(), "a full run leaves events in the sink");
        let json = sink.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
    }

    #[test]
    fn determinism_across_runs() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(2);
        let a = run_standalone(&m, &fast_sc(), workers, &PlacementPolicy::UniformAll).unwrap();
        let b = run_standalone(&m, &fast_sc(), workers, &PlacementPolicy::UniformAll).unwrap();
        assert_eq!(a.exec_time_s, b.exec_time_s);
    }

    #[test]
    fn phased_standalone_reports_switches_and_runs_all_policies() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(1);
        let flip = bwap_workloads::sc_bandwidth_flip().scaled_down(32.0);
        let r = run_standalone_phased(
            &m,
            &flip,
            workers,
            &PlacementPolicy::UniformAll,
            SimConfig::default(),
            Some(2.0),
        )
        .unwrap();
        assert_eq!(r.workload, "SC.FLIP");
        assert!(r.phase_switches.expect("phased run counts switches") >= 1);
        assert_eq!(r.retunes, None, "non-adaptive policies report no retunes");
    }

    #[test]
    fn adaptive_policy_reports_retunes_and_rejects_cosched() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(1);
        let flip = bwap_workloads::sc_bandwidth_flip().scaled_down(32.0);
        let policy = PlacementPolicy::AdaptiveBwap(AdaptiveConfig::default());
        let r = run_standalone_phased(&m, &flip, workers, &policy, SimConfig::default(), Some(2.0))
            .unwrap();
        assert!(r.retunes.is_some());
        assert_eq!(r.retunes.unwrap() as usize, r.retune_times_s.as_ref().unwrap().len());
        let app = Measured::phased(&flip, &m, Some(2.0));
        let err = run_scenario(&m, app, workers, &policy, SimConfig::default(), true, None);
        assert!(err.unwrap_err().to_string().contains("stand-alone"), "cosched adaptive rejected");
    }

    #[test]
    fn phased_cosched_runs_under_plain_policies() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(1);
        let flip = bwap_workloads::sc_bandwidth_flip().scaled_down(32.0);
        let app = Measured::phased(&flip, &m, Some(2.0));
        let policy = PlacementPolicy::UniformWorkers;
        let r = run_scenario(&m, app, workers, &policy, SimConfig::default(), true, None).unwrap();
        assert!(r.a_stall_frac.is_some());
        assert!(r.phase_switches.is_some());
    }
}
