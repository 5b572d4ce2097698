//! Fleet-scale serving: open-loop job arrivals across many machines.
//!
//! The paper evaluates BWAP one machine at a time; at cluster scale the
//! question changes shape — jobs arrive as an *open-loop stream* (their
//! arrival times do not depend on completions, parsimon's setting), a
//! *cluster scheduler* decides which machine each job lands on, and the
//! metric that matters is the distribution of per-job slowdown versus a
//! solo run, summarized at the tail (p50/p95/p99). This module provides
//! exactly that layer on top of [`numasim`]'s dynamic process arrivals
//! ([`numasim::Simulator::spawn_at`]):
//!
//! * a **fleet** of [`MachineTopology`]s, mixable between the symmetric
//!   machine B and the tiered expander config ([`MachineKind`]);
//! * an **arrival stream**: seeded rate-driven Poisson ([`poisson_jobs`])
//!   over a workload catalog, or an explicit list of [`ArrivalEvent`]s
//!   via [`jobs_from_trace`];
//! * pluggable **cluster schedulers** ([`SchedulerKind`]): round-robin,
//!   least-loaded-bandwidth, and tier-aware;
//! * deterministic **tail metrics**: per-job slowdown-vs-solo samples and
//!   nearest-rank p50/p95/p99 summaries ([`percentile`]).
//!
//! Everything is deterministic: the Poisson schedule is a pure function
//! of the seed, scheduler decisions read simulator state that is itself
//! bit-reproducible, and the whole fleet run is byte-identical across
//! reruns, shard counts and both engine modes (pinned by `tests/fleet.rs`
//! and `crates/numasim/tests/arrival_equiv.rs`). A single-machine fleet
//! with a degenerate scheduler reproduces the equivalent co-scheduled
//! scenario bit-for-bit. See `docs/FLEET.md`.

use crate::baselines::PlacementPolicy;
use crate::error::RuntimeError;
use crate::scenario::{launch_measured, run_scenario, traffic_counters, Measured, MAX_SIM_S};
use bwap_topology::{machines, MachineTopology, NodeSet};
use bwap_workloads::WorkloadSpec;
use numasim::{ProcessId, SimConfig, Simulator, TraceSink};
use std::collections::HashMap;

/// Machine class in a fleet mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// The paper's symmetric 4-node machine B.
    B,
    /// The heterogeneous config with CPU-less expander tiers.
    Tiered,
}

impl MachineKind {
    /// Stable label used in cell keys, CLI flags and reports.
    pub fn label(&self) -> &'static str {
        match self {
            MachineKind::B => "b",
            MachineKind::Tiered => "tiered",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "b" => Some(MachineKind::B),
            "tiered" => Some(MachineKind::Tiered),
            _ => None,
        }
    }

    /// Instantiate the topology.
    pub fn topology(&self) -> MachineTopology {
        match self {
            MachineKind::B => machines::machine_b(),
            MachineKind::Tiered => machines::machine_tiered(),
        }
    }
}

/// Cluster scheduler: which machine does the next job land on?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Jobs cycle through the machines in index order.
    RoundRobin,
    /// The machine with the lowest total controller utilization at the
    /// job's arrival epoch wins (ties go to the lowest index).
    LeastLoaded,
    /// Least-loaded with a fixed penalty on heterogeneous machines, so
    /// jobs prefer symmetric machines until the fleet fills up.
    TierAware,
}

impl SchedulerKind {
    /// Stable label used in cell keys, CLI flags and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::RoundRobin => "round-robin",
            SchedulerKind::LeastLoaded => "least-loaded",
            SchedulerKind::TierAware => "tier-aware",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "round-robin" => Some(SchedulerKind::RoundRobin),
            "least-loaded" => Some(SchedulerKind::LeastLoaded),
            "tier-aware" => Some(SchedulerKind::TierAware),
            _ => None,
        }
    }

    /// Every scheduler, in label order.
    pub fn all() -> [SchedulerKind; 3] {
        [SchedulerKind::RoundRobin, SchedulerKind::LeastLoaded, SchedulerKind::TierAware]
    }
}

/// One job submitted to the fleet.
#[derive(Debug, Clone)]
pub struct FleetJob {
    /// Simulated arrival time, seconds.
    pub at_s: f64,
    /// The workload the job runs.
    pub workload: WorkloadSpec,
    /// Forced departure time (strictly after `at_s`), if any.
    pub depart_s: Option<f64>,
    /// Worker-set override (default: the fleet config's worker count,
    /// resolved per machine). The degenerate co-scheduled equivalence
    /// test uses this to pin jobs to explicit node sets.
    pub workers: Option<NodeSet>,
    /// Placement-policy override (default: the fleet config's policy).
    pub policy: Option<PlacementPolicy>,
}

impl FleetJob {
    /// A plain job: arrive at `at_s`, run `workload` under the fleet's
    /// default policy and worker count, never depart early.
    pub fn new(at_s: f64, workload: WorkloadSpec) -> Self {
        FleetJob { at_s, workload, depart_s: None, workers: None, policy: None }
    }
}

/// Fleet-level run configuration (one campaign cell's worth).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The machines, in scheduler index order.
    pub machines: Vec<MachineTopology>,
    /// Cluster scheduler choosing the machine per job.
    pub scheduler: SchedulerKind,
    /// Placement policy applied to every job (within-machine decision).
    pub policy: PlacementPolicy,
    /// Worker-node count per job (resolved via
    /// [`MachineTopology::best_worker_set`] on the chosen machine).
    pub workers: usize,
    /// Engine configuration shared by every simulator in the fleet.
    pub sim_cfg: SimConfig,
}

/// Per-job outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Workload name.
    pub workload: String,
    /// Index of the machine the scheduler chose.
    pub machine: usize,
    /// Arrival time, simulated seconds.
    pub arrival_s: f64,
    /// Simulated completion (or departure) time.
    pub finished_s: f64,
    /// Execution time: `finished_s - arrival_s`.
    pub exec_time_s: f64,
    /// Whether a scheduled departure cut the job short.
    pub departed_early: bool,
    /// Slowdown versus the job's solo run on the same machine type
    /// (completed jobs only; departed jobs carry no sample).
    pub slowdown: Option<f64>,
}

/// Outcome of a whole fleet run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Per-job outcomes, in arrival order.
    pub jobs: Vec<JobOutcome>,
    /// Time the last job left the fleet (0 for an empty stream).
    pub makespan_s: f64,
    /// Pages migrated across all jobs and machines.
    pub migrated_pages: u64,
    /// Aggregate stall fraction over all jobs' cycles.
    pub stall_frac: f64,
    /// Bytes read across all jobs.
    pub read_bytes: f64,
    /// Total memory traffic across all jobs.
    pub traffic_bytes: f64,
    /// Slowdown samples of completed jobs, in arrival order.
    pub slowdowns: Vec<f64>,
    /// Nearest-rank percentiles of `slowdowns` (`None` when no job
    /// completed).
    pub slowdown_p50: Option<f64>,
    /// 95th percentile.
    pub slowdown_p95: Option<f64>,
    /// 99th percentile.
    pub slowdown_p99: Option<f64>,
}

/// SplitMix64: the classic 64-bit mixer, dependency-free and stable
/// across platforms — the arrival schedule must be a pure function of the
/// seed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from the top 53 bits.
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A seeded open-loop Poisson arrival stream: `count` jobs whose
/// inter-arrival gaps are exponential with rate `rate_hz` (jobs per
/// simulated second), each drawing its workload uniformly from `catalog`.
/// A rate of zero (or below) models a stream that never fires: no jobs.
pub fn poisson_jobs(
    seed: u64,
    rate_hz: f64,
    count: usize,
    catalog: &[WorkloadSpec],
) -> Vec<FleetJob> {
    if rate_hz <= 0.0 || catalog.is_empty() {
        return Vec::new();
    }
    let mut state = seed;
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u = unit_f64(&mut state);
            t += -(1.0 - u).ln() / rate_hz;
            let w = catalog[(splitmix64(&mut state) % catalog.len() as u64) as usize].clone();
            FleetJob::new(t, w)
        })
        .collect()
}

/// One job of an explicit arrival trace ([`crate::FleetAxis::trace`]): a
/// workload landing at a simulated time, optionally forced to depart
/// later.
#[derive(Debug, Clone)]
pub struct ArrivalEvent {
    /// Simulated arrival time, seconds (finite, non-negative).
    pub at_s: f64,
    /// The workload the job runs.
    pub workload: WorkloadSpec,
    /// Forced departure time, strictly after `at_s`, if any.
    pub depart_s: Option<f64>,
}

/// Convert an arrival trace into fleet jobs, in the trace's order
/// ([`run_fleet`] submits them by arrival time and checks their times).
pub fn jobs_from_trace(events: &[ArrivalEvent]) -> Vec<FleetJob> {
    events
        .iter()
        .map(|e| FleetJob {
            at_s: e.at_s,
            workload: e.workload.clone(),
            depart_s: e.depart_s,
            workers: None,
            policy: None,
        })
        .collect()
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q`% of the mass at or below it. Deterministic —
/// no interpolation, so the result is always an actual sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Advance `sim` to the last epoch boundary at or before `t` (no-op when
/// the clock is already past it). Both engine modes advance the same
/// whole number of epochs, so fleet runs are bit-identical across them;
/// the event engine strides across the idle gap in O(1) epochs.
fn advance_to(sim: &mut Simulator, t: f64) {
    let dt = sim.config().epoch_dt;
    let epochs = ((t - sim.clock()) / dt + 1e-9).floor();
    if epochs >= 1.0 {
        // Aim half an epoch short of the nominal target: the clock
        // accumulates one `+= dt` per epoch, so on long streams it sits a
        // few ulps below `epochs * dt` and `run_for`'s boundary test
        // would tip it one epoch past the arrival. The slack makes the
        // advance exactly `epochs` epochs whatever the accumulated dust.
        sim.run_for((epochs - 0.5) * dt);
    }
}

/// Total controller utilization: the load signal the bandwidth-aware
/// schedulers compare across machines.
fn load_of(sim: &Simulator) -> f64 {
    sim.controller_utilization().iter().sum()
}

/// Run an open-loop job stream over a fleet. Every job must arrive at a
/// finite, non-negative time no later than the 3,600 s simulation
/// ceiling, and depart (if at all) at a finite time after it arrives;
/// otherwise the run is a [`RuntimeError::Scenario`]
/// naming the first offending job (an invalid `cfg.sim_cfg` is an error
/// too). Jobs are submitted in arrival-time order (stable for ties); for
/// each job every machine is advanced to the arrival's epoch, the
/// scheduler picks a machine from the fleet's current load, and the job
/// is registered with
/// [`numasim::Simulator::spawn_at`] — the engine activates it exactly at
/// its (possibly mid-epoch) arrival time. After the last arrival, every
/// machine runs until all of its jobs have finished or departed.
///
/// When `trace` is `Some`, machine 0's simulator is traced: its jobs get
/// per-process tracks, its arrivals/departures appear as engine instants,
/// and every scheduler decision (for any machine) is recorded as a
/// `"schedule"` instant on the engine track with `job`, `machine` and
/// `at_s` arguments.
pub fn run_fleet(
    cfg: &FleetConfig,
    jobs: &[FleetJob],
    trace: Option<&mut Option<TraceSink>>,
) -> Result<FleetOutcome, RuntimeError> {
    if cfg.machines.is_empty() {
        return Err(RuntimeError::Scenario("fleet has no machines".into()));
    }
    cfg.sim_cfg.validate()?;
    for (i, job) in jobs.iter().enumerate() {
        if !(job.at_s.is_finite() && job.at_s >= 0.0) {
            return Err(RuntimeError::Scenario(format!(
                "job {i}: arrival time {} must be finite and >= 0",
                job.at_s
            )));
        }
        // The fleet steps every machine up to each arrival, so a later
        // arrival would run past the ceiling every other run stops at.
        if job.at_s > MAX_SIM_S {
            return Err(RuntimeError::Scenario(format!(
                "job {i}: arrival time {} is past the {MAX_SIM_S} s simulation limit",
                job.at_s
            )));
        }
        if let Some(d) = job.depart_s.filter(|&d| !(d.is_finite() && d > job.at_s)) {
            return Err(RuntimeError::Scenario(format!(
                "job {i}: departure time {d} must be finite and after its arrival at {}",
                job.at_s
            )));
        }
    }
    for m in &cfg.machines {
        if cfg.workers == 0 || cfg.workers > m.worker_node_count() {
            return Err(RuntimeError::Scenario(format!(
                "worker count {} out of range for fleet machine {} ({} worker-capable nodes)",
                cfg.workers,
                m.name(),
                m.worker_node_count()
            )));
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].at_s.partial_cmp(&jobs[b].at_s).expect("checked arrivals"));

    let mut sims: Vec<Simulator> =
        cfg.machines.iter().map(|m| Simulator::new(m.clone(), cfg.sim_cfg.clone())).collect();
    if trace.is_some() {
        sims[0].set_trace_sink(TraceSink::default());
    }

    // Placement loop: advance the whole fleet to each arrival, schedule,
    // submit. `placed[j] = (machine, pid)` in original job order.
    let mut placed: Vec<(usize, ProcessId)> = Vec::with_capacity(jobs.len());
    let mut rr_next = 0usize;
    for (seq, &j) in order.iter().enumerate() {
        let job = &jobs[j];
        for sim in sims.iter_mut() {
            advance_to(sim, job.at_s);
        }
        let mi = match cfg.scheduler {
            SchedulerKind::RoundRobin => {
                let mi = rr_next % sims.len();
                rr_next += 1;
                mi
            }
            SchedulerKind::LeastLoaded | SchedulerKind::TierAware => {
                let penalty = |i: usize| {
                    if cfg.scheduler == SchedulerKind::TierAware
                        && cfg.machines[i].is_heterogeneous()
                    {
                        0.5
                    } else {
                        0.0
                    }
                };
                let mut best = 0usize;
                let mut best_score = load_of(&sims[0]) + penalty(0);
                for (i, sim) in sims.iter().enumerate().skip(1) {
                    let score = load_of(sim) + penalty(i);
                    if score < best_score {
                        best = i;
                        best_score = score;
                    }
                }
                best
            }
        };
        sims[0].trace_instant(
            "schedule",
            None,
            &[("job", seq as f64), ("machine", mi as f64), ("at_s", job.at_s)],
        );
        let workers = match job.workers {
            Some(w) => w,
            None => cfg.machines[mi].best_worker_set(cfg.workers),
        };
        let policy = job.policy.as_ref().unwrap_or(&cfg.policy);
        let (pid, _handle) = launch_measured(
            &mut sims[mi],
            &cfg.machines[mi],
            &job.workload,
            None,
            workers,
            policy,
            None,
            Some(job.at_s),
        )?;
        if let Some(d) = job.depart_s {
            sims[mi].depart_at(pid, d)?;
        }
        placed.push((mi, pid));
    }

    // Drain: run every machine until all of its jobs are done.
    for &(mi, pid) in &placed {
        sims[mi].run_until_finished(pid, MAX_SIM_S)?;
    }

    // Solo baselines, memoized per (machine, workload, policy, workers):
    // the denominator of every slowdown sample.
    let mut solo_memo: HashMap<String, f64> = HashMap::new();
    let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs.len());
    let mut slowdowns: Vec<f64> = Vec::new();
    let (mut makespan, mut migrated, mut cycles, mut stalls) = (0.0f64, 0u64, 0.0f64, 0.0f64);
    let (mut read_bytes, mut traffic_bytes) = (0.0f64, 0.0f64);
    for (seq, &j) in order.iter().enumerate() {
        let job = &jobs[j];
        let (mi, pid) = placed[seq];
        let sim = &sims[mi];
        let exec = sim.execution_time(pid).expect("job ran to completion");
        let started = sim.process(pid).map_err(RuntimeError::Sim)?.started_at;
        let finished_s = started + exec;
        let departed_early = job.depart_s.is_some_and(|d| finished_s + 1e-9 >= d);
        let slowdown = if departed_early {
            None
        } else {
            let workers = match job.workers {
                Some(w) => w,
                None => cfg.machines[mi].best_worker_set(cfg.workers),
            };
            let policy = job.policy.clone().unwrap_or_else(|| cfg.policy.clone());
            let memo_key = format!(
                "{}|{}|{}|{}|{:x}",
                cfg.machines[mi].name(),
                workers,
                policy.label(),
                job.workload.name,
                job.workload.total_traffic_gb.to_bits()
            );
            let solo = match solo_memo.get(&memo_key) {
                Some(&t) => t,
                None => {
                    let r = run_scenario(
                        &cfg.machines[mi],
                        Measured::plain(&job.workload),
                        workers,
                        &policy,
                        cfg.sim_cfg.clone(),
                        false,
                        None,
                    )?;
                    solo_memo.insert(memo_key, r.exec_time_s);
                    r.exec_time_s
                }
            };
            Some(exec / solo)
        };
        if let Some(s) = slowdown {
            slowdowns.push(s);
        }
        makespan = makespan.max(finished_s);
        migrated += sim.migrated_pages(pid);
        let pc = sim.counters().process(pid);
        cycles += pc.cycles;
        stalls += pc.stall_cycles;
        let (r, t) = traffic_counters(sim, cfg.machines[mi].node_count(), pid);
        read_bytes += r;
        traffic_bytes += t;
        outcomes.push(JobOutcome {
            workload: job.workload.name.to_string(),
            machine: mi,
            arrival_s: job.at_s,
            finished_s,
            exec_time_s: exec,
            departed_early,
            slowdown,
        });
    }
    if let Some(slot) = trace {
        *slot = sims[0].take_trace_sink();
    }
    let mut sorted = slowdowns.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite slowdowns"));
    Ok(FleetOutcome {
        jobs: outcomes,
        makespan_s: makespan,
        migrated_pages: migrated,
        stall_frac: if cycles <= 0.0 { 0.0 } else { stalls / cycles },
        read_bytes,
        traffic_bytes,
        slowdown_p50: percentile(&sorted, 50.0),
        slowdown_p95: percentile(&sorted, 95.0),
        slowdown_p99: percentile(&sorted, 99.0),
        slowdowns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    fn small_cfg(scheduler: SchedulerKind) -> FleetConfig {
        FleetConfig {
            machines: vec![machines::machine_b(), machines::machine_b()],
            scheduler,
            policy: PlacementPolicy::UniformWorkers,
            workers: 1,
            sim_cfg: SimConfig::default(),
        }
    }

    fn stream(n: usize, gap: f64) -> Vec<FleetJob> {
        (0..n)
            .map(|i| {
                FleetJob::new(i as f64 * gap, bwap_workloads::streamcluster().scaled_down(64.0))
            })
            .collect()
    }

    #[test]
    fn round_robin_alternates_machines() {
        let out = run_fleet(&small_cfg(SchedulerKind::RoundRobin), &stream(4, 0.5), None).unwrap();
        assert_eq!(out.jobs.iter().map(|j| j.machine).collect::<Vec<_>>(), vec![0, 1, 0, 1]);
        assert_eq!(out.slowdowns.len(), 4);
        assert!(out.slowdown_p50.is_some() && out.slowdown_p99.is_some());
        assert!(out.makespan_s > 0.0);
    }

    #[test]
    fn least_loaded_spreads_simultaneous_jobs() {
        // At t=0 both machines are idle and the tie-break sends job 0 to
        // machine 0; a short gap later machine 0 shows bandwidth load, so
        // job 1 must land on machine 1. The gap has to stay well inside
        // job 0's runtime for the load signal to be visible.
        let out =
            run_fleet(&small_cfg(SchedulerKind::LeastLoaded), &stream(2, 0.05), None).unwrap();
        assert_eq!(out.jobs[0].machine, 0);
        assert_eq!(out.jobs[1].machine, 1, "busy machine 0 is skipped");
    }

    #[test]
    fn tier_aware_prefers_symmetric_machines() {
        let cfg = FleetConfig {
            machines: vec![machines::machine_tiered(), machines::machine_b()],
            scheduler: SchedulerKind::TierAware,
            policy: PlacementPolicy::UniformWorkers,
            workers: 1,
            sim_cfg: SimConfig::default(),
        };
        let out = run_fleet(&cfg, &stream(1, 1.0), None).unwrap();
        assert_eq!(out.jobs[0].machine, 1, "idle tiered machine still penalized");
    }

    #[test]
    fn empty_stream_is_fine() {
        let out = run_fleet(&small_cfg(SchedulerKind::RoundRobin), &[], None).unwrap();
        assert!(out.jobs.is_empty());
        assert_eq!(out.makespan_s, 0.0);
        assert_eq!(out.slowdown_p50, None);
        assert!(poisson_jobs(7, 0.0, 10, &[bwap_workloads::streamcluster()]).is_empty());
    }

    #[test]
    fn poisson_stream_is_deterministic_and_rate_scales() {
        let catalog = vec![bwap_workloads::streamcluster(), bwap_workloads::ocean_cp()];
        let a = poisson_jobs(42, 2.0, 50, &catalog);
        let b = poisson_jobs(42, 2.0, 50, &catalog);
        assert_eq!(a.len(), 50);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at_s.to_bits(), y.at_s.to_bits());
            assert_eq!(x.workload.name, y.workload.name);
        }
        let slow = poisson_jobs(42, 0.5, 50, &catalog);
        let last_fast = a.last().unwrap().at_s;
        let last_slow = slow.last().unwrap().at_s;
        assert!(last_slow > last_fast, "lower rate spreads arrivals out");
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
    }

    #[test]
    fn departures_truncate_jobs_and_drop_their_samples() {
        let mut jobs = stream(2, 0.0);
        jobs[0].depart_s = Some(0.1);
        let out = run_fleet(&small_cfg(SchedulerKind::RoundRobin), &jobs, None).unwrap();
        assert!(out.jobs[0].departed_early);
        assert_eq!(out.jobs[0].slowdown, None);
        assert!(out.jobs[0].exec_time_s <= 0.1 + 1e-9);
        assert!(!out.jobs[1].departed_early);
        assert_eq!(out.slowdowns.len(), 1);
    }

    #[test]
    fn solo_job_on_idle_fleet_has_slowdown_one() {
        // One job arriving on an epoch boundary of an otherwise idle
        // fleet evolves exactly like its solo baseline, shifted in time.
        let jobs = vec![FleetJob::new(1.0, bwap_workloads::streamcluster().scaled_down(64.0))];
        let out = run_fleet(&small_cfg(SchedulerKind::RoundRobin), &jobs, None).unwrap();
        let s = out.jobs[0].slowdown.unwrap();
        // Not bit-exact: the fleet clock reaches t=1.0 by accumulating
        // epochs, so the finish interpolation carries float dust.
        assert!((s - 1.0).abs() < 1e-9, "slowdown {s}");
    }

    #[test]
    fn long_sparse_streams_survive_clock_dust() {
        // Regression: on a stream stretching thousands of epochs, the
        // accumulated clock sits a few ulps below the nominal epoch
        // boundary, and an `advance_to` that targeted `epochs * dt`
        // exactly would tip one epoch past a later arrival — making
        // `spawn_at` reject it as in the past. Both engines must place
        // the whole stream and agree on the makespan to the bit.
        let catalog = vec![bwap_workloads::streamcluster().scaled_down(64.0)];
        let jobs = poisson_jobs(11, 0.05, 8, &catalog);
        let cfg = |mode| FleetConfig {
            machines: vec![machines::machine_b()],
            scheduler: SchedulerKind::RoundRobin,
            policy: PlacementPolicy::UniformWorkers,
            workers: 1,
            sim_cfg: SimConfig { mode, ..SimConfig::default() },
        };
        let stepped = run_fleet(&cfg(numasim::EngineMode::Stepped), &jobs, None)
            .expect("sparse stream places every job");
        let event = run_fleet(&cfg(numasim::EngineMode::EventDriven), &jobs, None)
            .expect("sparse stream places every job");
        assert_eq!(stepped.jobs.len(), 8);
        assert_eq!(stepped.makespan_s.to_bits(), event.makespan_s.to_bits());
    }

    #[test]
    fn bad_arrival_and_departure_times_are_errors_not_panics() {
        let cfg = small_cfg(SchedulerKind::RoundRobin);
        let w = bwap_workloads::streamcluster().scaled_down(64.0);
        let jobs = [FleetJob::new(0.0, w.clone()), FleetJob::new(f64::NAN, w.clone())];
        let err = run_fleet(&cfg, &jobs, None).unwrap_err().to_string();
        assert!(err.contains("job 1: arrival time NaN"), "{err}");
        for at in [-1.0, f64::INFINITY, 1e12] {
            let err = run_fleet(&cfg, &[FleetJob::new(at, w.clone())], None).unwrap_err();
            assert!(err.to_string().contains("job 0: arrival time"), "{err}");
        }
        for depart in [1.0, 0.5, f64::NAN, f64::INFINITY] {
            let mut job = FleetJob::new(1.0, w.clone());
            job.depart_s = Some(depart);
            let err = run_fleet(&cfg, &[job], None).unwrap_err();
            assert!(err.to_string().contains("job 0: departure time"), "{err}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), Some(2.0));
        assert_eq!(percentile(&s, 95.0), Some(4.0));
        assert_eq!(percentile(&s, 99.0), Some(4.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
