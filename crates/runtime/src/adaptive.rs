//! Dynamic re-tuning for phase-changing applications — the first item on
//! the paper's future-work list (§VI: "extend BWAP to dynamically adjust
//! its weight distribution throughout the application's execution time,
//! in order to obtain improved performance for applications whose access
//! patterns change over time").
//!
//! The BWAP daemon's adaptive search ([`crate::AdaptiveBwapDaemon::init`])
//! wraps the ordinary DWP climb with a watchdog: after the climb converges
//! it keeps sampling; when the trimmed stall rate departs from the
//! converged level by more than a configurable relative band, it declares
//! a phase change, re-installs the canonical placement (our simulated
//! `mbind` migrates in both directions, lifting the one-way restriction
//! the paper works around) and restarts the hill climb from DWP = 0.
//! [`AdaptiveConfig::max_retunes`] caps how many restarts an oscillating
//! workload can trigger; each re-tune's count and timestamp is published
//! through the shared [`crate::TunerHandle`] and surfaced in campaign
//! reports.
//!
//! The natural counterpart is a phase-structured workload
//! ([`bwap_workloads::PhasedWorkload`]): spawn it, install its timeline,
//! register the daemon with the adaptive search, and watch the watchdog
//! react —
//!
//! ```
//! use bwap_runtime::{AdaptiveBwapDaemon, AdaptiveConfig};
//! use bwap_topology::machines;
//! use numasim::{MemPolicy, SimConfig, Simulator};
//!
//! let machine = machines::machine_b();
//! let mut sim = Simulator::new(machine.clone(), SimConfig::default());
//! let workers = machine.best_worker_set(1);
//!
//! // A phase-flipping workload, shrunk for a fast doc test.
//! let flip = bwap_workloads::sc_bandwidth_flip().scaled_down(64.0);
//! let timeline = flip.profiles_for(&machine, Some(2.0));
//! let pid = sim
//!     .spawn(timeline[0].1.clone(), workers, None, MemPolicy::FirstTouch)
//!     .unwrap();
//! sim.set_phase_timeline(pid, timeline)?;
//!
//! let cfg = AdaptiveConfig::default();
//! let (daemon, handle) = AdaptiveBwapDaemon::init(&mut sim, pid, &cfg, true)?;
//! daemon.register(&mut sim);
//! sim.run_for(3.0);
//! // The handle exposes the watchdog's activity (re-tune count and
//! // simulated timestamps) while and after the daemon runs.
//! assert_eq!(handle.retunes() as usize, handle.retune_times().len());
//! assert!(handle.retunes() as usize <= cfg.max_retunes);
//! # Ok::<(), bwap_runtime::RuntimeError>(())
//! ```

use crate::apply::apply_weights;
use crate::bwap_daemon::TunerHandle;
use crate::error::RuntimeError;
use bwap::dwp::DwpTuner;
use bwap::sampler::TrimmedSampler;
use bwap::{apply_dwp, BwapConfig, InterleaveMode, WeightDistribution};
use bwap_topology::NodeSet;
use numasim::{ProcessId, Simulator};

/// Configuration of the watchdog around the DWP search.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// The inner BWAP configuration (tuner parameters, interleave mode).
    pub bwap: BwapConfig,
    /// Relative stall-rate deviation from the watchdog's reference level
    /// that triggers a re-tune (e.g. 0.25 = 25 %).
    pub retune_threshold: f64,
    /// Maximum number of automatic re-tunes (guards against oscillating
    /// workloads thrashing the migration engine).
    pub max_retunes: usize,
    /// Full sampler windows discarded after the search converges before
    /// the watchdog arms itself. The climb's final placement change is
    /// still migrating when the search finishes; stall samples taken
    /// while the migration drains would poison the reference level the
    /// watchdog compares against (and a poisoned reference means a
    /// spurious re-tune that throws away a freshly converged placement).
    /// After the settle windows, the next full window *becomes* the
    /// reference.
    pub settle_windows: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            bwap: BwapConfig::default(),
            retune_threshold: 0.15,
            max_retunes: 4,
            settle_windows: 2,
        }
    }
}

/// The watchdog around a DWP climb: once the climb has finished, it keeps
/// sampling, and on a phase change it re-installs the canonical placement
/// and restarts the climb.
pub(crate) struct Watchdog {
    cfg: AdaptiveConfig,
    /// The canonical placement (DWP = 0) a re-tune re-installs.
    initial: WeightDistribution,
    /// The climb a re-tune restarts: DWP = 0, no samples yet.
    fresh: DwpTuner,
    /// The running climb; the watchdog watches once it has finished.
    pub(crate) climb: DwpTuner,
    watcher: TrimmedSampler,
    /// Full windows still to discard before taking the reference.
    settle: usize,
    /// Steady-state stall level measured after the settle windows;
    /// `None` until the first clean window lands.
    reference: Option<f64>,
    retunes: usize,
}

impl Watchdog {
    /// Watch a climb from DWP = 0 of `canonical` on `workers`.
    pub(crate) fn new(
        cfg: &AdaptiveConfig,
        canonical: WeightDistribution,
        workers: NodeSet,
    ) -> Result<Watchdog, RuntimeError> {
        let initial = apply_dwp(&canonical, workers, 0.0)?;
        let fresh = DwpTuner::new(canonical, workers, cfg.bwap.tuner.clone())?;
        let tuner = &cfg.bwap.tuner;
        Ok(Watchdog {
            cfg: cfg.clone(),
            initial,
            climb: fresh.clone(),
            fresh,
            watcher: TrimmedSampler::new(tuner.samples_per_iteration, tuner.trim)?,
            settle: cfg.settle_windows,
            reference: None,
            retunes: 0,
        })
    }

    /// Feed one stall-rate sample taken after the climb finished. Returns
    /// a full window's relative deviation from the reference level when it
    /// leaves the re-tune band: a phase change.
    pub(crate) fn watch(&mut self, stall_rate: f64) -> Option<f64> {
        let mean = self.watcher.push(stall_rate)?;
        if self.settle > 0 {
            self.settle -= 1;
            return None;
        }
        let Some(reference) = self.reference else {
            self.reference = Some(mean);
            return None;
        };
        let deviation = (mean - reference).abs() / reference.max(1e-9);
        if deviation <= self.cfg.retune_threshold {
            return None;
        }
        Some(deviation)
    }

    /// Handle a phase change of `pid`: back to the canonical spread (our
    /// simulated `mbind` migrates in both directions) and a fresh climb,
    /// marked on the trace and counted on the handle. Returns `false`, and
    /// does nothing, once `max_retunes` re-tunes have happened.
    pub(crate) fn retune(
        &mut self,
        sim: &mut Simulator,
        pid: ProcessId,
        mode: InterleaveMode,
        handle: &TunerHandle,
        deviation: f64,
    ) -> bool {
        if self.retunes >= self.cfg.max_retunes {
            return false;
        }
        self.retunes += 1;
        let queued = apply_weights(sim, pid, &self.initial, mode).expect("placement apply");
        let now = sim.clock();
        sim.trace_instant(
            "retune",
            Some(pid),
            &[("deviation", deviation), ("queued_pages", queued as f64)],
        );
        handle.update(|r| {
            r.finished = false;
            r.dwp = 0.0;
            r.pages_applied += queued as u64;
            r.retunes += 1;
            r.retune_times.push(now);
        });
        self.climb = self.fresh.clone();
        self.watcher.reset();
        self.settle = self.cfg.settle_windows;
        self.reference = None;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AdaptiveBwapDaemon;
    use bwap_topology::machines;
    use numasim::{MemPolicy, SimConfig};

    #[test]
    fn adaptive_daemon_retunes_on_phase_change() {
        let m = machines::machine_b();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let workers = m.best_worker_set(1);
        // Phase 1: latency-bound (wants high DWP on machine B).
        let mut spec = bwap_workloads::streamcluster();
        spec.total_traffic_gb = f64::INFINITY;
        let pid = sim.spawn(spec.profile_for(&m), workers, None, MemPolicy::FirstTouch).unwrap();
        let cfg = AdaptiveConfig::default();
        let (daemon, handle) = AdaptiveBwapDaemon::init(&mut sim, pid, &cfg, true).unwrap();
        daemon.register(&mut sim);
        sim.run_for(80.0);
        assert!(handle.finished(), "first search should converge");
        let dwp_phase1 = handle.dwp();
        assert!(dwp_phase1 > 0.5, "SC on machine B climbs high: {dwp_phase1}");

        // Phase 2: bandwidth-hungry streaming (saturates the worker's
        // controller; wants pages spread out, i.e. low DWP).
        let mut hungry = bwap_workloads::stream_probe().profile_for(&m);
        hungry.open_loop = false;
        hungry.read_gbps_per_thread = 12.0; // 84 GB/s per node: heavy saturation
        hungry.shared_pages = spec.shared_pages; // layout unchanged
        sim.set_profile(pid, hungry).unwrap();
        sim.run_for(120.0);
        // The watchdog saw the stall shift and restarted at least once.
        let d = sim.shared_distribution(pid).unwrap();
        assert!(
            d[workers.min().unwrap().idx()] < 0.9,
            "after the bandwidth phase, pages spread out again: {d:?}"
        );
    }

    #[test]
    fn max_retunes_caps_oscillating_workloads() {
        // A workload that flips between a latency-bound and a saturating
        // phase every few seconds would thrash the migration engine
        // forever; the watchdog must stop after `max_retunes` restarts.
        let m = machines::machine_b();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let workers = m.best_worker_set(1);
        let mut flip = bwap_workloads::sc_bandwidth_flip().scaled_down(8.0);
        flip.total_traffic_gb = f64::INFINITY;
        let timeline = flip.profiles_for(&m, Some(4.0));
        let pid = sim.spawn(timeline[0].1.clone(), workers, None, MemPolicy::FirstTouch).unwrap();
        sim.set_phase_timeline(pid, timeline).unwrap();
        let mut cfg = AdaptiveConfig { max_retunes: 2, ..AdaptiveConfig::default() };
        cfg.bwap.tuner.sample_interval_s = 0.05;
        cfg.bwap.tuner.samples_per_iteration = 4;
        cfg.bwap.tuner.trim = 1;
        cfg.bwap.tuner.step = 0.25;
        let (daemon, handle) = AdaptiveBwapDaemon::init(&mut sim, pid, &cfg, true).unwrap();
        daemon.register(&mut sim);
        sim.run_for(60.0);
        // Many more than 2 phase flips happened...
        assert!(sim.phase_switches(pid) > 6, "{} switches", sim.phase_switches(pid));
        // ...but the guard stopped the watchdog at exactly the cap.
        assert_eq!(handle.retunes(), 2);
        let times = handle.retune_times();
        assert_eq!(times.len(), 2);
        assert!(times[0] < times[1]);
    }

    #[test]
    fn set_profile_rejects_finished_and_invalid() {
        let m = machines::machine_b();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let mut spec = bwap_workloads::streamcluster().scaled_down(64.0);
        spec.total_traffic_gb = 0.5;
        let pid = sim
            .spawn(
                spec.profile_for(&m),
                NodeSet::single(bwap_topology::NodeId(0)),
                None,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        let mut bad = spec.profile_for(&m);
        bad.serial_frac = 2.0;
        assert!(sim.set_profile(pid, bad).is_err());
        sim.run_until_finished(pid, 600.0).unwrap();
        assert!(sim.set_profile(pid, spec.profile_for(&m)).is_err());
    }
}
