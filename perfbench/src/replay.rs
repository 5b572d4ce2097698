//! Engine-level replay: every executed cell of a pass is run again from
//! outside the program, with the same calls `run_cell` makes, so each
//! `Simulator::step`, `spawn` and daemon tick can be timed on its own.
//! Each replay must reproduce the campaign's result bit for bit.

use bwap_runtime::campaign::CellSpec;
use bwap_runtime::fleet::{jobs_from_trace, poisson_jobs, run_fleet, FleetConfig};
use bwap_runtime::{
    cell_descriptor, effective_policy, AdaptiveBwapDaemon, BwapDaemon, CampaignReport,
    CampaignSpec, CoschedDaemon, PlacementPolicy, ProfileBook, ScenarioKind, TunerHandle,
};
use numasim::{Daemon, EngineMode, MemPolicy, ProcessState, Simulator};
use std::cell::Cell;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Instant;

/// Simulated-time ceiling per run, as the scenario runners use.
const MAX_SIM_S: f64 = 3600.0;

/// Spans and work counts of one replay of a pass.
#[derive(Debug, Default)]
pub struct EngineSpans {
    /// `step()` calls made while the measured process had no queued
    /// migrations.
    pub epochs_steady: u64,
    /// Seconds in those calls, daemon ticks excluded.
    pub steady_s: f64,
    /// `step()` calls made with migrations queued.
    pub epochs_drain: u64,
    /// Seconds in those calls, daemon ticks excluded.
    pub drain_s: f64,
    /// Pages the measured processes migrated.
    pub pages_migrated: u64,
    /// Seconds in `Simulator::spawn`.
    pub spawn_s: f64,
    /// Seconds in the daemons' `init`.
    pub daemon_init_s: f64,
    /// Daemon ticks.
    pub daemon_ticks: u64,
    /// Seconds in daemon ticks.
    pub daemon_tick_s: f64,
    /// Pages the tuners queued for migration.
    pub pages_queued: u64,
    /// Seconds in `run_fleet`.
    pub fleet_cell_s: f64,
    /// Fleet makespan in epochs times machines, summed over fleet cells.
    pub fleet_machine_epochs: u64,
    /// Replays whose result differed from the campaign's (or failed).
    pub mismatches: u64,
}

/// Counts and times every tick of the daemon it wraps.
struct TimedDaemon {
    inner: Box<dyn Daemon>,
    ticks: Rc<Cell<(u64, f64)>>,
}

impl Daemon for TimedDaemon {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick(&mut self, sim: &mut Simulator) {
        let t = Instant::now();
        self.inner.tick(sim);
        let (n, s) = self.ticks.get();
        self.ticks.set((n + 1, s + t.elapsed().as_secs_f64()));
    }

    fn done(&self) -> bool {
        self.inner.done()
    }
}

/// Replay one representative per descriptor class of `report` (the
/// cells a pass executes) and compare each with the report's result.
pub fn replay_report(spec: &CampaignSpec, report: &CampaignReport, spans: &mut EngineSpans) {
    let mut seen = HashSet::new();
    for (cell, record) in spec.cells().iter().zip(&report.cells) {
        if !seen.insert(cell_descriptor(spec, cell).text().to_string()) {
            continue;
        }
        let replayed = if cell.scenario == ScenarioKind::Fleet {
            replay_fleet(spec, cell, spans)
        } else {
            replay_local(spec, cell, spans)
        };
        let matches = match (&replayed, &record.outcome) {
            (Ok((t, pages)), Ok(r)) => {
                t.to_bits() == r.exec_time_s.to_bits() && *pages == r.migrated_pages
            }
            _ => false,
        };
        if !matches {
            spans.mismatches += 1;
            eprintln!("replay mismatch at {}: {replayed:?}", cell.key);
        }
    }
}

/// One machine-local cell: `(exec_time_s, migrated pages)`.
fn replay_local(
    spec: &CampaignSpec,
    cell: &CellSpec,
    spans: &mut EngineSpans,
) -> Result<(f64, u64), String> {
    if spec.sim_cfg.mode != EngineMode::Stepped {
        return Err("the replay steps epoch by epoch: stepped engine only".into());
    }
    let machine = &spec.machine;
    let policy = effective_policy(spec, cell);
    let workers = machine.best_worker_set(cell.workers);
    let (layout, timeline) = match cell.workload_idx.checked_sub(spec.workloads.len()) {
        Some(i) => {
            let pw = &spec.phased_workloads[i];
            (pw.layout_spec(), Some(pw.profiles_for(machine, cell.phase_period)))
        }
        None => (&spec.workloads[cell.workload_idx], None),
    };
    let mut sim = Simulator::new(machine.clone(), spec.sim_cfg.clone());

    // Co-scheduled cells first place Swaptions (A) by first touch on the
    // worker-capable nodes B leaves free.
    let cosched_a = if cell.scenario == ScenarioKind::Coscheduled {
        let workers_a = machine.worker_nodes().difference(workers);
        if workers_a.is_empty() {
            return Err("no free worker-capable node for A".into());
        }
        let profile = bwap_workloads::swaptions().profile_for(machine);
        let t = Instant::now();
        let a = sim.spawn(profile, workers_a, None, MemPolicy::FirstTouch);
        spans.spawn_s += t.elapsed().as_secs_f64();
        Some(a.map_err(|e| e.to_string())?)
    } else {
        None
    };

    // Launch placement: BWAP policies start at the canonical distribution
    // (as realized by Algorithm 1 in user-level mode).
    let bwap_launch = |cfg: &bwap::BwapConfig| -> Result<MemPolicy, String> {
        let canonical = if cfg.uniform_canonical {
            bwap::WeightDistribution::uniform(machine.node_count())
        } else {
            ProfileBook::canonical_weights(machine, workers)
        };
        let initial =
            bwap::apply_dwp(&canonical, workers, cfg.fixed_dwp).map_err(|e| e.to_string())?;
        let placed = match cfg.mode {
            bwap::InterleaveMode::Kernel => initial,
            bwap::InterleaveMode::UserLevel => {
                bwap::realized_weights(layout.shared_pages, &initial).map_err(|e| e.to_string())?
            }
        };
        Ok(MemPolicy::WeightedInterleave(placed.to_vec()))
    };
    let launch = match &policy {
        PlacementPolicy::Bwap(cfg) => bwap_launch(cfg)?,
        PlacementPolicy::AdaptiveBwap(acfg) => bwap_launch(&acfg.bwap)?,
        _ => policy.launch_policy(workers, machine.memory_nodes()),
    };
    let profile = match &timeline {
        Some(t) => t[0].1.clone(),
        None => layout.profile_for(machine),
    };
    let t = Instant::now();
    let pid = sim.spawn(profile, workers, None, launch);
    spans.spawn_s += t.elapsed().as_secs_f64();
    let pid = pid.map_err(|e| e.to_string())?;
    if let Some(t) = timeline {
        sim.set_phase_timeline(pid, t).map_err(|e| e.to_string())?;
    }
    policy.attach_autonuma(&mut sim, pid);

    // The policy's daemon, wrapped for timing and registered at the
    // tuner's sampling cadence exactly as its `register` would.
    let ticks = Rc::new(Cell::new((0u64, 0.0f64)));
    let register = |sim: &mut Simulator, inner: Box<dyn Daemon>, interval: f64| {
        sim.add_daemon(Box::new(TimedDaemon { inner, ticks: ticks.clone() }), interval, interval);
    };
    let t = Instant::now();
    let handle: Option<TunerHandle> = match &policy {
        PlacementPolicy::Bwap(cfg) => {
            let (daemon, handle): (Box<dyn Daemon>, _) = match cosched_a {
                Some(a) => {
                    let (d, h) = CoschedDaemon::init(&mut sim, pid, a, cfg, false)
                        .map_err(|e| e.to_string())?;
                    (Box::new(d), h)
                }
                None => {
                    let (d, h) =
                        BwapDaemon::init(&mut sim, pid, cfg, false).map_err(|e| e.to_string())?;
                    (Box::new(d), h)
                }
            };
            spans.daemon_init_s += t.elapsed().as_secs_f64();
            if cfg.online_tuning {
                register(&mut sim, daemon, cfg.tuner.sample_interval_s);
            }
            Some(handle)
        }
        PlacementPolicy::AdaptiveBwap(acfg) => {
            if cosched_a.is_some() {
                return Err("adaptive BWAP supports the stand-alone scenario only".into());
            }
            let (d, handle) =
                AdaptiveBwapDaemon::init(&mut sim, pid, acfg, false).map_err(|e| e.to_string())?;
            spans.daemon_init_s += t.elapsed().as_secs_f64();
            register(&mut sim, Box::new(d), acfg.bwap.tuner.sample_interval_s);
            Some(handle)
        }
        _ => None,
    };

    // `run_until_finished`'s loop, one timed step at a time. Daemon ticks
    // happen inside `step`; their time is taken out of the epoch's.
    let deadline = sim.clock() + MAX_SIM_S;
    loop {
        let state = sim.process(pid).map_err(|e| e.to_string())?.state;
        if matches!(state, ProcessState::Finished { .. }) {
            break;
        }
        if sim.clock() >= deadline {
            return Err(format!("timed out at {deadline} s"));
        }
        let draining = sim.pending_migrations(pid) > 0;
        let tick_before = ticks.get().1;
        let t = Instant::now();
        sim.step();
        let secs = t.elapsed().as_secs_f64() - (ticks.get().1 - tick_before);
        if draining {
            spans.epochs_drain += 1;
            spans.drain_s += secs;
        } else {
            spans.epochs_steady += 1;
            spans.steady_s += secs;
        }
    }
    let (n, s) = ticks.get();
    spans.daemon_ticks += n;
    spans.daemon_tick_s += s;
    spans.pages_queued += handle.map_or(0, |h| h.pages_applied());
    let migrated = sim.migrated_pages(pid);
    spans.pages_migrated += migrated;
    let exec = sim.execution_time(pid).ok_or("finished process has no execution time")?;
    Ok((exec, migrated))
}

/// One fleet cell, timed as a whole `run_fleet` call: `(makespan,
/// migrated pages)`.
fn replay_fleet(
    spec: &CampaignSpec,
    cell: &CellSpec,
    spans: &mut EngineSpans,
) -> Result<(f64, u64), String> {
    let axis = spec.fleet.as_ref().ok_or("fleet cell without a fleet axis")?;
    let cfg = FleetConfig {
        machines: axis.machines.iter().map(|m| m.topology()).collect(),
        scheduler: cell.scheduler.ok_or("fleet cell without a scheduler")?,
        policy: effective_policy(spec, cell),
        workers: cell.workers,
        sim_cfg: spec.sim_cfg.clone(),
    };
    let jobs = match &axis.trace {
        Some(events) => jobs_from_trace(events),
        None => {
            poisson_jobs(cell.seed, cell.arrival_rate.unwrap_or(0.0), axis.jobs, &spec.workloads)
        }
    };
    let t = Instant::now();
    let out = run_fleet(&cfg, &jobs, None);
    spans.fleet_cell_s += t.elapsed().as_secs_f64();
    let out = out.map_err(|e| e.to_string())?;
    let epochs = (out.makespan_s / spec.sim_cfg.epoch_dt).round() as u64;
    spans.fleet_machine_epochs += epochs * cfg.machines.len() as u64;
    spans.pages_migrated += out.migrated_pages;
    Ok((out.makespan_s, out.migrated_pages))
}
