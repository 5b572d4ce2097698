//! The co-scheduled DWP variant (paper §III-B3).
//!
//! Setting: a high-priority, low-memory-intensity application *A* owns some
//! nodes; a best-effort memory-intensive application *B* runs on the
//! remaining nodes and wants to place pages on A's nodes for their spare
//! bandwidth — without degrading A. An external monitor samples both
//! applications' stall rates and drives a two-stage search over B's DWP:
//!
//! * **Stage 1**: raise B's DWP while *A*'s stall rate keeps decreasing
//!   (B's pages leaving A's nodes relieve A); when A's stall rate
//!   stabilizes, the current DWP is a lower bound protecting A.
//! * **Stage 2**: continue the ordinary hill climb guided by *B*'s stall
//!   rate from that lower bound upward.

use crate::dwp::{apply_dwp, DwpTunerConfig, TunerAction};
use crate::error::BwapError;
use crate::sampler::TrimmedSampler;
use crate::weights::WeightDistribution;
use bwap_topology::NodeSet;

/// Which stage the search is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Protecting A: climb while A's stalls drop.
    ProtectHighPriority,
    /// Optimizing B: climb while B's stalls drop.
    OptimizeBestEffort,
    /// Search complete.
    Done,
}

/// Two-stage co-scheduled tuner. Drivers feed one `(stall_A, stall_B)`
/// pair per sampling interval and execute the returned actions on B's
/// placement.
#[derive(Debug, Clone)]
pub struct CoschedTuner {
    cfg: DwpTunerConfig,
    canonical: WeightDistribution,
    workers: NodeSet,
    sampler_a: TrimmedSampler,
    sampler_b: TrimmedSampler,
    stage: Stage,
    dwp: f64,
    prev_a: Option<f64>,
    prev_b: Option<f64>,
    history: Vec<(Stage, f64, f64, f64)>,
}

impl CoschedTuner {
    /// Start from DWP = 0 (canonical placement of B).
    pub fn new(
        canonical: WeightDistribution,
        workers: NodeSet,
        cfg: DwpTunerConfig,
    ) -> Result<Self, BwapError> {
        cfg.validate()?;
        let sampler_a = TrimmedSampler::new(cfg.samples_per_iteration, cfg.trim)?;
        let sampler_b = TrimmedSampler::new(cfg.samples_per_iteration, cfg.trim)?;
        apply_dwp(&canonical, workers, 0.0)?;
        Ok(CoschedTuner {
            cfg,
            canonical,
            workers,
            sampler_a,
            sampler_b,
            stage: Stage::ProtectHighPriority,
            dwp: 0.0,
            prev_a: None,
            prev_b: None,
            history: Vec::new(),
        })
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// Current DWP of B.
    pub fn dwp(&self) -> f64 {
        self.dwp
    }

    /// Whether the search ended.
    pub fn is_finished(&self) -> bool {
        self.stage == Stage::Done
    }

    /// `(stage, dwp, mean stall A, mean stall B)` per iteration.
    pub fn history(&self) -> &[(Stage, f64, f64, f64)] {
        &self.history
    }

    /// Feed one pair of stall-rate measurements.
    pub fn on_samples(&mut self, stall_a: f64, stall_b: f64) -> TunerAction {
        if self.stage == Stage::Done {
            return TunerAction::Finished;
        }
        let ma = self.sampler_a.push(stall_a);
        let mb = self.sampler_b.push(stall_b);
        let (Some(ma), Some(mb)) = (ma, mb) else {
            return TunerAction::Continue;
        };
        self.history.push((self.stage, self.dwp, ma, mb));
        match self.stage {
            Stage::ProtectHighPriority => {
                let improving = match self.prev_a {
                    None => true,
                    Some(prev) => ma < prev * (1.0 - self.cfg.stage1_min_improvement),
                };
                self.prev_a = Some(ma);
                if improving {
                    self.raise()
                } else {
                    // A stabilized: the current DWP is the lower bound.
                    // Hand over to stage 2, seeding B's baseline with this
                    // window's measurement and immediately probing one
                    // step upward (stage 2 behaves like the stand-alone
                    // tuner's first iteration, §III-B-2).
                    self.stage = Stage::OptimizeBestEffort;
                    self.prev_b = Some(mb);
                    self.raise()
                }
            }
            Stage::OptimizeBestEffort => {
                let improving = match self.prev_b {
                    None => true,
                    Some(prev) => mb < prev * (1.0 - self.cfg.min_improvement),
                };
                self.prev_b = Some(mb);
                if improving {
                    self.raise()
                } else {
                    self.stage = Stage::Done;
                    TunerAction::Finished
                }
            }
            Stage::Done => TunerAction::Finished,
        }
    }

    fn raise(&mut self) -> TunerAction {
        if self.dwp >= 1.0 - 1e-9 {
            self.stage = Stage::Done;
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

    fn setup() -> CoschedTuner {
        let canonical = WeightDistribution::from_raw(vec![3.0, 3.0, 2.0, 2.0]).unwrap();
        let workers = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let cfg = DwpTunerConfig {
            samples_per_iteration: 2,
            trim: 0,
            sample_interval_s: 0.1,
            step: 0.2,
            min_improvement: 0.002,
            stage1_min_improvement: 0.05,
        };
        CoschedTuner::new(canonical, workers, cfg).unwrap()
    }

    /// Simulate: A's stall falls until DWP >= bound, then flattens; B's
    /// stall is convex with minimum at `b_opt`.
    fn drive(bound: f64, b_opt: f64) -> (f64, Vec<Stage>) {
        let mut t = setup();
        let mut stages = vec![t.stage()];
        for _ in 0..500 {
            let d = t.dwp();
            let a_stall = 100.0 + 50.0 * (bound - d).max(0.0);
            let b_stall = 100.0 + 80.0 * (d - b_opt).powi(2);
            let action = t.on_samples(a_stall, b_stall);
            if *stages.last().unwrap() != t.stage() {
                stages.push(t.stage());
            }
            if action == TunerAction::Finished {
                break;
            }
        }
        (t.dwp(), stages)
    }

    #[test]
    fn two_stages_run_in_order() {
        let (_, stages) = drive(0.4, 0.8);
        assert_eq!(
            stages,
            vec![Stage::ProtectHighPriority, Stage::OptimizeBestEffort, Stage::Done]
        );
    }

    #[test]
    fn final_dwp_at_least_stage1_bound() {
        let (dwp, _) = drive(0.4, 0.8);
        assert!(dwp >= 0.4 - 1e-9, "dwp {dwp} below A's protection bound");
        // and near B's optimum (within one step overshoot)
        assert!(dwp <= 0.8 + 0.2 + 1e-9, "dwp {dwp}");
        assert!(dwp >= 0.8 - 0.2 - 1e-9, "dwp {dwp}");
    }

    #[test]
    fn b_already_optimal_at_bound_stops_quickly() {
        // B's optimum below A's bound: stage 1 may overshoot the bound by
        // one step (it probes to detect stabilization) and stage 2 probes
        // one more before stopping — never further.
        let (dwp, _) = drive(0.6, 0.2);
        assert!(dwp <= 0.6 + 2.0 * 0.2 + 1e-9, "dwp {dwp}");
    }

    #[test]
    fn reaches_full_dwp_when_both_improve_monotonically() {
        let mut t = setup();
        for _ in 0..500 {
            let d = t.dwp();
            // both strictly improving in DWP
            if t.on_samples(200.0 - 100.0 * d, 300.0 - 200.0 * d) == TunerAction::Finished {
                break;
            }
        }
        assert!((t.dwp() - 1.0).abs() < 1e-9);
        assert!(t.is_finished());
    }

    #[test]
    fn history_tracks_stages_and_means() {
        let mut t = setup();
        t.on_samples(100.0, 100.0);
        t.on_samples(100.0, 100.0);
        assert_eq!(t.history().len(), 1);
        let (stage, dwp, ma, mb) = t.history()[0];
        assert_eq!(stage, Stage::ProtectHighPriority);
        assert_eq!(dwp, 0.0);
        assert!((ma - 100.0).abs() < 1e-12);
        assert!((mb - 100.0).abs() < 1e-12);
    }
}
