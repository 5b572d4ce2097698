//! BWAP runtime configuration — the knobs the paper's `libnuma` extension
//! exposes.

use crate::dwp::DwpTunerConfig;

/// How weighted interleaving is physically enforced (paper §III-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterleaveMode {
    /// The kernel-level weighted interleave policy (exact ratios; requires
    /// the patched kernel — here, `numasim`'s native policy).
    Kernel,
    /// The portable user-level approximation (Algorithm 1): a handful of
    /// uniform-interleave `mbind` calls. The paper's default for its
    /// evaluation; it reports at most 3 % difference from kernel mode.
    UserLevel,
}

/// Configuration of the BWAP placement pipeline.
#[derive(Debug, Clone)]
pub struct BwapConfig {
    /// Enforcement mechanism.
    pub mode: InterleaveMode,
    /// Hill-climbing parameters.
    pub tuner: DwpTunerConfig,
    /// `true` — run the online DWP search (normal operation).
    /// `false` — stay at `fixed_dwp` (used for the static sweeps of
    /// Fig. 4 and for ablations).
    pub online_tuning: bool,
    /// Starting (or, with `online_tuning = false`, permanent) DWP.
    pub fixed_dwp: f64,
    /// Disable the canonical tuner and start from uniform-all — the
    /// paper's `BWAP-uniform` ablation variant.
    pub uniform_canonical: bool,
}

impl Default for BwapConfig {
    fn default() -> Self {
        BwapConfig {
            mode: InterleaveMode::UserLevel,
            tuner: DwpTunerConfig::default(),
            online_tuning: true,
            fixed_dwp: 0.0,
            uniform_canonical: false,
        }
    }
}

impl BwapConfig {
    /// The `BWAP-uniform` variant (§IV: canonical tuner disabled, DWP
    /// search departs from uniform-all).
    pub fn bwap_uniform() -> Self {
        BwapConfig { uniform_canonical: true, ..BwapConfig::default() }
    }

    /// A static placement at the given DWP (no online search).
    pub fn static_dwp(dwp: f64) -> Self {
        BwapConfig { online_tuning: false, fixed_dwp: dwp, ..BwapConfig::default() }
    }

    /// Kernel-level enforcement.
    pub fn kernel_mode() -> Self {
        BwapConfig { mode: InterleaveMode::Kernel, ..BwapConfig::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BwapConfig::default();
        assert_eq!(c.mode, InterleaveMode::UserLevel);
        assert_eq!(c.tuner.samples_per_iteration, 20);
        assert_eq!(c.tuner.trim, 5);
        assert!((c.tuner.sample_interval_s - 0.2).abs() < 1e-12);
        assert!((c.tuner.step - 0.10).abs() < 1e-12);
        assert!(c.online_tuning);
        assert!(!c.uniform_canonical);
    }

    #[test]
    fn variants() {
        assert!(BwapConfig::bwap_uniform().uniform_canonical);
        let s = BwapConfig::static_dwp(0.4);
        assert!(!s.online_tuning);
        assert_eq!(s.fixed_dwp, 0.4);
        assert_eq!(BwapConfig::kernel_mode().mode, InterleaveMode::Kernel);
    }
}
