//! The DWP tuner: one-dimensional online search over the
//! data-to-worker-proximity factor (paper §III-B).

pub mod coschedule;

use crate::error::BwapError;
use crate::sampler::TrimmedSampler;
use crate::weights::WeightDistribution;
use bwap_topology::NodeSet;

/// Re-balance a canonical distribution by the DWP factor: `dwp = 0` keeps
/// the canonical weights; `dwp = 1` moves all mass onto the worker set.
/// Relative weights *within* the worker set and *within* the non-worker
/// set are preserved (Observation 3: per-set proportions transfer across
/// applications; only the split between the sets is application-specific).
pub fn apply_dwp(
    canonical: &WeightDistribution,
    workers: NodeSet,
    dwp: f64,
) -> Result<WeightDistribution, BwapError> {
    if !(0.0..=1.0).contains(&dwp) {
        return Err(BwapError::InvalidDwp(dwp));
    }
    if workers.is_empty() {
        return Err(BwapError::InvalidWorkers("empty worker set".into()));
    }
    let n = canonical.len();
    if !workers.is_subset(NodeSet::first(n)) {
        return Err(BwapError::InvalidWorkers(format!("{workers} exceeds {n} nodes")));
    }
    let a0 = canonical.mass(workers);
    if a0 <= 0.0 {
        return Err(BwapError::InvalidWeights(
            "canonical distribution gives workers zero mass".into(),
        ));
    }
    let non_worker_mass = 1.0 - a0;
    let a = a0 + dwp * non_worker_mass;
    let mut w = canonical.to_vec();
    for (i, wi) in w.iter_mut().enumerate() {
        let is_worker = workers.contains(bwap_topology::NodeId(i as u16));
        if is_worker {
            *wi *= a / a0;
        } else if non_worker_mass > 0.0 {
            *wi *= (1.0 - a) / non_worker_mass;
        }
    }
    WeightDistribution::from_raw(w)
}

/// Hill-climbing parameters (paper defaults from §IV: n = 20, c = 5,
/// t = 0.2 s, x = 10 %).
#[derive(Debug, Clone)]
pub struct DwpTunerConfig {
    /// Stall-rate samples per iteration (`n`).
    pub samples_per_iteration: usize,
    /// Samples discarded at each end after sorting (`c`).
    pub trim: usize,
    /// Seconds between samples (`t`) — the driver's sampling cadence.
    pub sample_interval_s: f64,
    /// DWP increment per iteration (`x`).
    pub step: f64,
    /// Minimum relative stall-rate improvement to keep climbing (guards
    /// against stopping decisions on measurement noise).
    pub min_improvement: f64,
    /// Stage-1 threshold of the co-scheduled variant: the high-priority
    /// application counts as still improving only above this relative
    /// margin. It is deliberately coarser than `min_improvement` — A is
    /// barely memory-bound, so tiny relative wobbles of its small stall
    /// rate must read as "stabilized" (paper §III-B3).
    pub stage1_min_improvement: f64,
}

impl Default for DwpTunerConfig {
    fn default() -> Self {
        DwpTunerConfig {
            samples_per_iteration: 20,
            trim: 5,
            sample_interval_s: 0.2,
            step: 0.10,
            min_improvement: 0.002,
            stage1_min_improvement: 0.02,
        }
    }
}

impl DwpTunerConfig {
    /// Check what both tuners and their drivers rely on: a step in
    /// `(0, 1]` and a finite, positive sampling interval (the driver's
    /// daemon period).
    pub(crate) fn validate(&self) -> Result<(), BwapError> {
        if !(self.step > 0.0 && self.step <= 1.0) {
            return Err(BwapError::InvalidConfig(format!("step {}", self.step)));
        }
        if !(self.sample_interval_s.is_finite() && self.sample_interval_s > 0.0) {
            return Err(BwapError::InvalidConfig(format!(
                "sample_interval_s must be finite and > 0, got {}",
                self.sample_interval_s
            )));
        }
        Ok(())
    }
}

/// What the driver should do after feeding a sample.
#[derive(Debug, Clone, PartialEq)]
pub enum TunerAction {
    /// Keep sampling at the current placement.
    Continue,
    /// Migrate to the given weights (DWP was raised), then keep sampling.
    Apply {
        /// The new DWP value.
        dwp: f64,
        /// The weight distribution realizing it.
        weights: WeightDistribution,
    },
    /// Search over: stay at the current placement.
    Finished,
}

/// Online DWP search. The tuner is a passive state machine: a driver (the
/// BWAP daemon in `bwap-runtime`, or a real libnuma agent) feeds it one
/// stall-rate measurement per `sample_interval_s` and executes the
/// placements it requests. Because `mbind` cannot migrate pages *back*
/// toward the canonical spread without remapping (paper §III-B2), the
/// search is monotone: it climbs while stalls improve and stops — at most
/// one step past the optimum — when they do not (the paper reports the
/// same <= 1-step error margin, Fig. 4).
#[derive(Debug, Clone)]
pub struct DwpTuner {
    cfg: DwpTunerConfig,
    canonical: WeightDistribution,
    workers: NodeSet,
    sampler: TrimmedSampler,
    dwp: f64,
    prev_stall: Option<f64>,
    finished: bool,
    history: Vec<(f64, f64)>,
}

impl DwpTuner {
    /// Start a search from `dwp = 0` (the canonical placement).
    pub fn new(
        canonical: WeightDistribution,
        workers: NodeSet,
        cfg: DwpTunerConfig,
    ) -> Result<Self, BwapError> {
        cfg.validate()?;
        let sampler = TrimmedSampler::new(cfg.samples_per_iteration, cfg.trim)?;
        // Validate the pair early.
        apply_dwp(&canonical, workers, 0.0)?;
        Ok(DwpTuner {
            cfg,
            canonical,
            workers,
            sampler,
            dwp: 0.0,
            prev_stall: None,
            finished: false,
            history: Vec::new(),
        })
    }

    /// Current DWP.
    pub fn dwp(&self) -> f64 {
        self.dwp
    }

    /// Whether the search ended.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// `(dwp, trimmed stall rate)` per completed iteration.
    pub fn history(&self) -> &[(f64, f64)] {
        &self.history
    }

    /// Feed one stall-rate measurement.
    pub fn on_sample(&mut self, stall_rate: f64) -> TunerAction {
        if self.finished {
            return TunerAction::Finished;
        }
        match self.sampler.push(stall_rate) {
            Some(mean) => self.on_window(mean),
            None => TunerAction::Continue,
        }
    }

    /// One iteration on a full window's trimmed stall rate: keep climbing
    /// while stalls improve by more than `min_improvement`. The first
    /// window is the baseline and always probes one step. The co-scheduled
    /// tuner feeds its stage-2 windows here.
    pub(crate) fn on_window(&mut self, mean: f64) -> TunerAction {
        self.history.push((self.dwp, mean));
        let climb = match self.prev_stall {
            None => true, // the baseline window: always try one step
            Some(prev) => mean < prev * (1.0 - self.cfg.min_improvement),
        };
        self.prev_stall = Some(mean);
        if !climb {
            self.finished = true;
            return TunerAction::Finished;
        }
        self.raise()
    }

    /// Raise DWP by one step, or finish if it is already 1.
    pub(crate) fn raise(&mut self) -> TunerAction {
        if self.dwp >= 1.0 - 1e-9 {
            self.finished = true;
            return TunerAction::Finished;
        }
        self.dwp = (self.dwp + self.cfg.step).min(1.0);
        let weights = apply_dwp(&self.canonical, self.workers, self.dwp).expect("dwp in range");
        TunerAction::Apply { dwp: self.dwp, weights }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::NodeId;

    fn canonical() -> WeightDistribution {
        WeightDistribution::from_raw(vec![3.0, 3.0, 2.0, 2.0]).unwrap()
    }

    fn workers() -> NodeSet {
        NodeSet::from_nodes([NodeId(0), NodeId(1)])
    }

    #[test]
    fn dwp_zero_is_canonical_one_is_workers_only() {
        let c = canonical();
        let w0 = apply_dwp(&c, workers(), 0.0).unwrap();
        assert!(w0.max_abs_diff(&c) < 1e-12);
        let w1 = apply_dwp(&c, workers(), 1.0).unwrap();
        assert_eq!(w1.as_slice(), &[0.5, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn dwp_preserves_within_set_ratios() {
        let c = WeightDistribution::from_raw(vec![4.0, 2.0, 3.0, 1.0]).unwrap();
        let w = apply_dwp(&c, workers(), 0.5).unwrap();
        // worker ratio 4:2 preserved
        assert!((w.get(NodeId(0)) / w.get(NodeId(1)) - 2.0).abs() < 1e-9);
        // non-worker ratio 3:1 preserved
        assert!((w.get(NodeId(2)) / w.get(NodeId(3)) - 3.0).abs() < 1e-9);
        // worker mass interpolates: A0 = 0.6 -> A(0.5) = 0.8
        assert!((w.mass(workers()) - 0.8).abs() < 1e-9);
        assert!(w.is_normalized());
    }

    #[test]
    fn dwp_monotone_in_worker_mass() {
        let c = canonical();
        let mut prev = 0.0;
        for i in 0..=10 {
            let d = i as f64 / 10.0;
            let mass = apply_dwp(&c, workers(), d).unwrap().mass(workers());
            assert!(mass >= prev - 1e-12, "mass not monotone at {d}");
            prev = mass;
        }
    }

    #[test]
    fn invalid_dwp_rejected() {
        let c = canonical();
        assert!(apply_dwp(&c, workers(), -0.1).is_err());
        assert!(apply_dwp(&c, workers(), 1.1).is_err());
        assert!(apply_dwp(&c, NodeSet::EMPTY, 0.5).is_err());
    }

    fn quick_cfg() -> DwpTunerConfig {
        DwpTunerConfig {
            samples_per_iteration: 3,
            trim: 0,
            sample_interval_s: 0.1,
            step: 0.25,
            min_improvement: 0.002,
            stage1_min_improvement: 0.05,
        }
    }

    /// Drive a tuner against a synthetic stall curve `f(dwp)`.
    fn run_curve(f: impl Fn(f64) -> f64) -> (f64, usize) {
        let mut t = DwpTuner::new(canonical(), workers(), quick_cfg()).unwrap();
        let mut applies = 0;
        for _ in 0..1000 {
            match t.on_sample(f(t.dwp())) {
                TunerAction::Continue => {}
                TunerAction::Apply { .. } => applies += 1,
                TunerAction::Finished => break,
            }
        }
        (t.dwp(), applies)
    }

    #[test]
    fn finds_interior_optimum_within_one_step() {
        // Convex stall curve with minimum at DWP = 0.5.
        let (dwp, _) = run_curve(|d| 100.0 + (d - 0.5).powi(2) * 100.0);
        // Stops one step past the optimum at most.
        assert!((dwp - 0.75).abs() < 1e-9, "stopped at {dwp}");
    }

    #[test]
    fn monotone_decreasing_curve_reaches_one() {
        let (dwp, applies) = run_curve(|d| 100.0 - 50.0 * d);
        assert!((dwp - 1.0).abs() < 1e-9);
        assert_eq!(applies, 4); // 0.25, 0.5, 0.75, 1.0
    }

    #[test]
    fn monotone_increasing_curve_stops_after_first_probe() {
        let (dwp, applies) = run_curve(|d| 100.0 + 50.0 * d);
        // Probes one step (cannot know without trying), then stops.
        assert!((dwp - 0.25).abs() < 1e-9);
        assert_eq!(applies, 1);
    }

    #[test]
    fn flat_curve_counts_as_no_improvement() {
        let (dwp, _) = run_curve(|_| 100.0);
        assert!((dwp - 0.25).abs() < 1e-9);
    }

    #[test]
    fn history_records_iterations() {
        let mut t = DwpTuner::new(canonical(), workers(), quick_cfg()).unwrap();
        for _ in 0..6 {
            t.on_sample(100.0);
        }
        assert_eq!(t.history().len(), 2);
        assert_eq!(t.history()[0].0, 0.0);
        assert!((t.history()[0].1 - 100.0).abs() < 1e-12);
    }

    #[test]
    fn finished_tuner_stays_finished() {
        let mut t = DwpTuner::new(canonical(), workers(), quick_cfg()).unwrap();
        for _ in 0..100 {
            t.on_sample(100.0);
        }
        assert!(t.is_finished());
        assert_eq!(t.on_sample(0.0), TunerAction::Finished);
    }

    #[test]
    fn bad_config_rejected() {
        let mut cfg = quick_cfg();
        cfg.step = 0.0;
        assert!(DwpTuner::new(canonical(), workers(), cfg).is_err());
        let mut cfg = quick_cfg();
        cfg.trim = 2; // 3 <= 2*2
        assert!(DwpTuner::new(canonical(), workers(), cfg).is_err());
    }
}
