//! The BWAP library as a runtime daemon: `BWAP-init` and the online DWP
//! search (paper §III-B).
//!
//! `BWAP-init`: once the application has allocated its initial shared
//! structures, BWAP places its pages at the canonical distribution
//! (DWP = 0) and starts the online hill climb — every `t = 0.2 s` it
//! samples the stall-rate counter, and each full window of `n = 20`
//! samples decides whether to raise DWP by `x = 10 %` through incremental
//! migration.
//!
//! [`BwapDaemon`] is the only BWAP daemon. Its init and its tick are
//! shared by three searches, which differ only in what a sample means:
//!
//! * the stand-alone climb ([`BwapDaemon::init`]);
//! * the co-scheduled variant (§III-B3, [`CoschedDaemon::init`]): the
//!   daemon also samples the high-priority application A, and a stage that
//!   protects A runs before the ordinary climb on the best-effort
//!   application B;
//! * dynamic re-tuning (§VI, [`AdaptiveBwapDaemon::init`]): the watchdog
//!   of [`crate::adaptive`] restarts the climb on a phase change.

use crate::adaptive::{AdaptiveConfig, Watchdog};
use crate::apply::apply_weights;
use crate::error::RuntimeError;
use crate::profiling::ProfileBook;
use bwap::dwp::coschedule::CoschedTuner;
use bwap::dwp::{DwpTuner, TunerAction};
use bwap::{apply_dwp, BwapConfig, WeightDistribution};
use bwap_topology::NodeSet;
use numasim::{Daemon, ProcessId, ProcessSample, Simulator};
use parking_lot::Mutex;
use std::sync::Arc;

/// Snapshot of a tuner's final state, shared with the scenario runner
/// (the daemon itself is owned by the simulator once registered).
#[derive(Debug, Default)]
pub struct TunerReport {
    /// Current / final DWP.
    pub dwp: f64,
    /// Whether the search completed.
    pub finished: bool,
    /// `(dwp, trimmed stall rate)` per iteration of the current climb
    /// (B's stage-2 iterations in the co-scheduled search).
    pub history: Vec<(f64, f64)>,
    /// Pages queued for migration by the tuner's placement changes.
    pub pages_applied: u64,
    /// Phase-change re-tunes performed (adaptive search only).
    pub retunes: u64,
    /// Simulated time of each re-tune (adaptive search only).
    pub retune_times: Vec<f64>,
}

/// Cloneable handle onto a [`TunerReport`].
#[derive(Debug, Clone, Default)]
pub struct TunerHandle {
    inner: Arc<Mutex<TunerReport>>,
}

impl TunerHandle {
    /// Current DWP.
    pub fn dwp(&self) -> f64 {
        self.inner.lock().dwp
    }

    /// Whether the search finished.
    pub fn finished(&self) -> bool {
        self.inner.lock().finished
    }

    /// Iteration history.
    pub fn history(&self) -> Vec<(f64, f64)> {
        self.inner.lock().history.clone()
    }

    /// Total pages the tuner asked to migrate.
    pub fn pages_applied(&self) -> u64 {
        self.inner.lock().pages_applied
    }

    /// Phase-change re-tunes performed so far (always 0 except for the
    /// adaptive search, which counts its watchdog restarts).
    pub fn retunes(&self) -> u64 {
        self.inner.lock().retunes
    }

    /// Simulated timestamps of the re-tunes, in order.
    pub fn retune_times(&self) -> Vec<f64> {
        self.inner.lock().retune_times.clone()
    }

    pub(crate) fn update(&self, f: impl FnOnce(&mut TunerReport)) {
        f(&mut self.inner.lock());
    }
}

/// The BWAP daemon. Create it with [`BwapDaemon::init`],
/// [`CoschedDaemon::init`] or [`AdaptiveBwapDaemon::init`], then register
/// it with [`BwapDaemon::register`].
pub struct BwapDaemon {
    pid: ProcessId,
    cfg: BwapConfig,
    /// `None` once the daemon is done, and from the start for a static
    /// placement.
    search: Option<Search>,
    prev: Option<ProcessSample>,
    handle: TunerHandle,
}

/// The online search a [`BwapDaemon`] drives.
enum Search {
    /// The stand-alone hill climb.
    Climb(DwpTuner),
    /// The co-scheduled two-stage search on B, which also samples A.
    Cosched { tuner: CoschedTuner, pid_a: ProcessId, prev_a: Option<ProcessSample> },
    /// The §VI watchdog around a climb.
    Adaptive(Box<Watchdog>),
}

impl Search {
    /// The climb whose DWP and history the handle mirrors.
    fn climb(&self) -> &DwpTuner {
        match self {
            Search::Climb(climb) => climb,
            Search::Cosched { tuner, .. } => tuner.climb(),
            Search::Adaptive(watchdog) => &watchdog.climb,
        }
    }
}

impl BwapDaemon {
    /// `BWAP-init`: profile (or fetch) the canonical distribution for the
    /// process's worker set, install the initial placement, and prepare
    /// the online tuner. Returns the daemon and a handle for inspecting
    /// the search afterwards.
    ///
    /// Pass `apply_initial = false` when the process was already launched
    /// under the canonical placement (the common real-world flow: the
    /// paper's `BWAP-init` runs right after allocation, so `mbind` applies
    /// before pages are faulted in and the initial placement is free).
    /// With `apply_initial = true` the existing pages migrate to the
    /// canonical distribution instead.
    pub fn init(
        sim: &mut Simulator,
        pid: ProcessId,
        cfg: &BwapConfig,
        apply_initial: bool,
    ) -> Result<(BwapDaemon, TunerHandle), RuntimeError> {
        BwapDaemon::start(sim, pid, cfg, apply_initial, |canonical, workers| {
            Ok(Search::Climb(DwpTuner::new(canonical, workers, cfg.tuner.clone())?))
        })
    }

    /// The `BWAP-init` every search shares: place `pid` at `cfg.fixed_dwp`
    /// of its canonical distribution, then, with online tuning, start the
    /// search `search` builds from the canonical weights and worker set.
    fn start(
        sim: &mut Simulator,
        pid: ProcessId,
        cfg: &BwapConfig,
        apply_initial: bool,
        search: impl FnOnce(WeightDistribution, NodeSet) -> Result<Search, RuntimeError>,
    ) -> Result<(BwapDaemon, TunerHandle), RuntimeError> {
        let workers = sim.process(pid)?.workers;
        let canonical = if cfg.uniform_canonical {
            WeightDistribution::uniform(sim.machine().node_count())
        } else {
            ProfileBook::canonical_weights(sim.machine(), workers)
        };
        let initial = apply_dwp(&canonical, workers, cfg.fixed_dwp)?;
        let queued = if apply_initial { apply_weights(sim, pid, &initial, cfg.mode)? } else { 0 };
        let handle = TunerHandle::default();
        handle.update(|r| {
            r.dwp = cfg.fixed_dwp;
            r.pages_applied = queued as u64;
            r.finished = !cfg.online_tuning;
        });
        let search = if cfg.online_tuning {
            // The online search always starts at DWP = 0 in the paper; we
            // honour cfg.fixed_dwp = 0 for it and treat nonzero fixed_dwp
            // with online tuning as a configuration error.
            if cfg.fixed_dwp != 0.0 {
                return Err(RuntimeError::Scenario(
                    "online tuning starts at DWP = 0; use static_dwp for fixed placements".into(),
                ));
            }
            Some(search(canonical, workers)?)
        } else {
            None
        };
        let daemon =
            BwapDaemon { pid, cfg: cfg.clone(), search, prev: None, handle: handle.clone() };
        Ok((daemon, handle))
    }

    /// Register with the simulator at the tuner's sampling cadence.
    pub fn register(self, sim: &mut Simulator) {
        let interval = self.cfg.tuner.sample_interval_s;
        sim.add_daemon(Box::new(self), interval, interval);
    }
}

/// `BWAP-init` for the co-scheduled scenario (paper §III-B3).
pub struct CoschedDaemon;

impl CoschedDaemon {
    /// Place B canonically and prepare the two-stage search: an external
    /// monitor samples the stall rates of both the high-priority
    /// application A (`pid_a`, whose stall rate gates stage 1) and the
    /// best-effort application B, and drives B's DWP. See
    /// [`BwapDaemon::init`] for `apply_initial`.
    pub fn init(
        sim: &mut Simulator,
        pid_b: ProcessId,
        pid_a: ProcessId,
        cfg: &BwapConfig,
        apply_initial: bool,
    ) -> Result<(BwapDaemon, TunerHandle), RuntimeError> {
        BwapDaemon::start(sim, pid_b, cfg, apply_initial, |canonical, workers| {
            let tuner = CoschedTuner::new(canonical, workers, cfg.tuner.clone())?;
            Ok(Search::Cosched { tuner, pid_a, prev_a: None })
        })
    }
}

/// `BWAP-init` with phase adaptation (paper §VI; see [`crate::adaptive`]).
pub struct AdaptiveBwapDaemon;

impl AdaptiveBwapDaemon {
    /// Place `pid` canonically and start a climb under the watchdog. The
    /// search always starts from DWP = 0, whatever `cfg.bwap.fixed_dwp`
    /// and `cfg.bwap.online_tuning` say. See [`BwapDaemon::init`] for
    /// `apply_initial`.
    pub fn init(
        sim: &mut Simulator,
        pid: ProcessId,
        cfg: &AdaptiveConfig,
        apply_initial: bool,
    ) -> Result<(BwapDaemon, TunerHandle), RuntimeError> {
        // The climb checks its own parameters; the watchdog band must be
        // checked here: a NaN or non-positive threshold would make every
        // comparison fail open and re-tune on every window until the cap
        // kills the search.
        if !(cfg.retune_threshold > 0.0 && cfg.retune_threshold.is_finite()) {
            return Err(RuntimeError::Scenario(format!(
                "retune_threshold {} must be positive and finite",
                cfg.retune_threshold
            )));
        }
        let bwap = BwapConfig { online_tuning: true, fixed_dwp: 0.0, ..cfg.bwap.clone() };
        BwapDaemon::start(sim, pid, &bwap, apply_initial, |canonical, workers| {
            Ok(Search::Adaptive(Box::new(Watchdog::new(cfg, canonical, workers)?)))
        })
    }
}

impl Daemon for BwapDaemon {
    fn name(&self) -> &str {
        "bwap-dwp-tuner"
    }

    fn tick(&mut self, sim: &mut Simulator) {
        if !sim.process(self.pid).is_ok_and(|p| p.is_running()) {
            self.search = None;
            return;
        }
        let Some(search) = self.search.as_mut() else { return };
        let sample = sim.sample(self.pid).expect("process exists");
        let prev = self.prev.replace(sample);
        let stall_a = match search {
            Search::Cosched { pid_a, prev_a, .. } => {
                let sa = sim.sample(*pid_a).expect("A exists");
                prev_a.replace(sa).map(|pa| sa.stall_rate_since(&pa))
            }
            _ => None,
        };
        let Some(prev) = prev else {
            return; // first tick only seeds the window
        };
        // Placement-in-flight is not a steady state to learn from: while
        // the daemon's own migrations drain, stall samples mix placement
        // signal with migration traffic — feeding them to the climb
        // credits the drain to whatever DWP step happened to be under
        // test, and feeding them to the watchdog poisons its reference.
        // (Only the adaptive search skips them: the other two keep the
        // paper's sample-everything behaviour, pinned by golden reports,
        // and `fig_phases` compares the two as the complete systems they
        // are.)
        if matches!(search, Search::Adaptive(_)) && sim.pending_migrations(self.pid) > 0 {
            return;
        }
        let stall_rate = sample.stall_rate_since(&prev);
        let action = match search {
            Search::Climb(climb) => climb.on_sample(stall_rate),
            Search::Cosched { tuner, .. } => {
                tuner.on_samples(stall_a.expect("A is sampled with B"), stall_rate)
            }
            Search::Adaptive(watchdog) if !watchdog.climb.is_finished() => {
                watchdog.climb.on_sample(stall_rate)
            }
            Search::Adaptive(watchdog) => {
                let Some(deviation) = watchdog.watch(stall_rate) else { return };
                if !watchdog.retune(sim, self.pid, self.cfg.mode, &self.handle, deviation) {
                    self.search = None; // past `max_retunes`: the watchdog stops
                }
                return;
            }
        };
        match action {
            TunerAction::Continue => {}
            TunerAction::Apply { dwp, weights } => {
                let queued =
                    apply_weights(sim, self.pid, &weights, self.cfg.mode).expect("placement apply");
                let history = search.climb().history().to_vec();
                self.handle.update(|r| {
                    r.dwp = dwp;
                    r.history = history;
                    r.pages_applied += queued as u64;
                });
            }
            TunerAction::Finished => {
                let climb = search.climb();
                self.handle.update(|r| {
                    r.finished = true;
                    r.dwp = climb.dwp();
                    r.history = climb.history().to_vec();
                });
                // The watchdog keeps watching; every other search is over.
                if !matches!(search, Search::Adaptive(_)) {
                    self.search = None;
                }
            }
        }
    }

    fn done(&self) -> bool {
        self.search.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::{machines, NodeId, NodeSet};
    use numasim::{MemPolicy, SimConfig};

    fn saturating_app() -> numasim::AppProfile {
        bwap_workloads::streamcluster().scaled_down(8.0).profile_for(&machines::machine_b())
    }

    #[test]
    fn init_applies_canonical_placement() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let workers = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let pid = sim.spawn(saturating_app(), workers, None, MemPolicy::FirstTouch).unwrap();
        let cfg = BwapConfig::static_dwp(0.0);
        let (daemon, handle) = BwapDaemon::init(&mut sim, pid, &cfg, true).unwrap();
        assert!(daemon.done());
        assert!(handle.finished());
        assert!(handle.pages_applied() > 0);
        sim.run_for(2.0);
        // Placement matches the canonical distribution of this worker set.
        let canonical = ProfileBook::canonical_weights(sim.machine(), workers);
        let d = sim.shared_distribution(pid).unwrap();
        for i in 0..4 {
            assert!(
                (d[i] - canonical.as_slice()[i]).abs() < 0.03,
                "node {i}: placed {d:?} vs canonical {canonical}"
            );
        }
    }

    #[test]
    fn online_tuner_runs_and_finishes() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let workers = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let mut app = saturating_app();
        app.total_traffic_gb = f64::INFINITY;
        let pid = sim.spawn(app, workers, None, MemPolicy::FirstTouch).unwrap();
        let (daemon, handle) =
            BwapDaemon::init(&mut sim, pid, &BwapConfig::default(), true).unwrap();
        daemon.register(&mut sim);
        sim.run_for(120.0);
        assert!(handle.finished(), "tuner should converge within 120 s");
        assert!(!handle.history().is_empty());
        // SC on machine B is latency-bound: DWP should climb high.
        assert!(handle.dwp() > 0.5, "dwp {}", handle.dwp());
    }

    /// `(dwp, finished, pages_applied, retunes)` of a handle.
    fn pinned(handle: &TunerHandle) -> (f64, bool, u64, u64) {
        (handle.dwp(), handle.finished(), handle.pages_applied(), handle.retunes())
    }

    /// Every search's handle after a quick run, exactly. No report carries
    /// `pages_applied`; perfbench's traced `runtime.daemon.pages_queued`
    /// reads it.
    #[test]
    fn handles_after_a_quick_run_are_pinned() {
        let m = machines::machine_b();
        let workers = m.best_worker_set(2);
        let mut oc = bwap_workloads::ocean_cp().profile_for(&m);
        oc.total_traffic_gb = f64::INFINITY;
        let standalone = |cfg: &BwapConfig| {
            let mut sim = Simulator::new(m.clone(), SimConfig::default());
            let pid = sim.spawn(oc.clone(), workers, None, MemPolicy::FirstTouch).unwrap();
            let (daemon, handle) = BwapDaemon::init(&mut sim, pid, cfg, true).unwrap();
            if cfg.online_tuning {
                daemon.register(&mut sim);
            }
            sim.run_for(60.0);
            pinned(&handle)
        };
        assert_eq!(standalone(&BwapConfig::default()), (0.1, true, 482821, 0));
        assert_eq!(standalone(&BwapConfig::bwap_uniform()), (0.30000000000000004, true, 450581, 0));
        assert_eq!(standalone(&BwapConfig::kernel_mode()), (0.1, true, 275030, 0));
        assert_eq!(standalone(&BwapConfig::static_dwp(0.3)), (0.3, true, 239948, 0));

        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let swaptions = bwap_workloads::swaptions().profile_for(&m);
        let a = sim.spawn(swaptions, workers.complement(4), None, MemPolicy::FirstTouch).unwrap();
        let b = sim.spawn(oc, workers, None, MemPolicy::FirstTouch).unwrap();
        let (daemon, handle) =
            CoschedDaemon::init(&mut sim, b, a, &BwapConfig::default(), true).unwrap();
        daemon.register(&mut sim);
        sim.run_for(60.0);
        assert_eq!(pinned(&handle), (0.2, true, 503223, 0));

        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let mut flip = bwap_workloads::sc_bandwidth_flip().scaled_down(2.0);
        flip.total_traffic_gb = f64::INFINITY;
        let timeline = flip.profiles_for(&m, Some(4.0));
        let pid = sim.spawn(timeline[0].1.clone(), workers, None, MemPolicy::FirstTouch).unwrap();
        sim.set_phase_timeline(pid, timeline).unwrap();
        let mut cfg = AdaptiveConfig::default();
        cfg.bwap.tuner.sample_interval_s = 0.05;
        cfg.bwap.tuner.samples_per_iteration = 4;
        cfg.bwap.tuner.trim = 1;
        let (daemon, handle) = AdaptiveBwapDaemon::init(&mut sim, pid, &cfg, true).unwrap();
        daemon.register(&mut sim);
        sim.run_for(60.0);
        assert_eq!(pinned(&handle), (0.9999999999999999, true, 2186199, 4));
    }

    #[test]
    fn cosched_tuner_converges_without_hurting_a() {
        let m = machines::machine_b();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let workers_b = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let workers_a = workers_b.complement(4);
        let a = sim
            .spawn(
                bwap_workloads::swaptions().profile_for(&m),
                workers_a,
                None,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let mut spec = bwap_workloads::streamcluster().scaled_down(8.0);
        spec.total_traffic_gb = f64::INFINITY;
        let b = sim.spawn(spec.profile_for(&m), workers_b, None, MemPolicy::FirstTouch).unwrap();
        // A's baseline stall rate, alone-with-B-canonical not yet placed.
        let (daemon, handle) =
            CoschedDaemon::init(&mut sim, b, a, &BwapConfig::default(), true).unwrap();
        daemon.register(&mut sim);
        let a0 = sim.sample(a).unwrap();
        sim.run_for(120.0);
        let a1 = sim.sample(a).unwrap();
        assert!(handle.finished(), "cosched search should converge");
        // A is CPU-bound: its stall rate must stay low in absolute terms.
        let a_stall_frac = (a1.stall_cycles - a0.stall_cycles) / (a1.cycles - a0.cycles);
        assert!(a_stall_frac < 0.25, "A stall fraction {a_stall_frac}");
    }

    #[test]
    fn online_with_nonzero_fixed_dwp_rejected() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(saturating_app(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let cfg = BwapConfig { fixed_dwp: 0.3, ..BwapConfig::default() };
        assert!(BwapDaemon::init(&mut sim, pid, &cfg, true).is_err());
    }
}
