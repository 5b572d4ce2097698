//! Phase-structured workloads: an ordered timeline of demand profiles.
//!
//! The paper's future-work list (§VI) asks BWAP to "dynamically adjust its
//! weight distribution throughout the application's execution time, in
//! order to obtain improved performance for applications whose access
//! patterns change over time". A [`PhasedWorkload`] is the workload-side
//! half of that scenario: an ordered list of [`Phase`]s, each a full
//! [`WorkloadSpec`] demand characterization plus a duration. The timeline
//! cycles (phase 0 → 1 → … → 0 → …) until the workload's total traffic is
//! processed, so a two-phase workload flip-flops between its demand
//! profiles for its whole run.
//!
//! Only the *demand axes* change between phases — bandwidth, read/write
//! mix, private/shared split, latency sensitivity. The memory layout
//! (segment sizes) is fixed at spawn from [`PhasedWorkload::layout_spec`]
//! (phase 0): a real application does not re-`mmap` its working set at a
//! phase boundary, it shifts which pages are hot. A "shrinking footprint"
//! phase is therefore expressed as a shift of traffic between the private
//! and shared segments (see [`oc_footprint_swing`]), not as a resize.
//!
//! # Examples
//!
//! Build a two-phase bandwidth flip by hand and translate it for the
//! engine:
//!
//! ```
//! use bwap_topology::machines;
//! use bwap_workloads::{Phase, PhasedWorkload};
//!
//! let calm = bwap_workloads::streamcluster();
//! let mut burst = bwap_workloads::streamcluster();
//! burst.reads_mbps = 42_000.0;
//! burst.latency_sensitivity = 0.02;
//!
//! let flip = PhasedWorkload::new(
//!     "flip",
//!     vec![Phase::new(burst, 10.0), Phase::new(calm, 10.0)],
//!     240.0,
//! )?;
//! assert_eq!(flip.phases.len(), 2);
//!
//! // Per-phase engine profiles; `Some(5.0)` rescales the timeline so a
//! // full cycle lasts 5 s (phases keep their relative durations).
//! let timeline = flip.profiles_for(&machines::machine_b(), Some(5.0));
//! assert_eq!(timeline.len(), 2);
//! assert_eq!(timeline[0].0, 2.5);
//! // Every phase counts work against the same workload-level total.
//! assert_eq!(timeline[1].1.total_traffic_gb, 240.0);
//! # Ok::<(), bwap_workloads::PhaseError>(())
//! ```

use crate::spec::WorkloadSpec;
use bwap_topology::MachineTopology;
use numasim::AppProfile;
use std::fmt;

/// One phase of a [`PhasedWorkload`]: a demand characterization active for
/// `duration_s` simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Demand profile while this phase is active. Page counts of phases
    /// after the first are ignored (layout is fixed at spawn).
    pub spec: WorkloadSpec,
    /// How long the phase lasts, simulated seconds.
    pub duration_s: f64,
}

impl Phase {
    /// A phase from a spec and a duration.
    pub fn new(spec: WorkloadSpec, duration_s: f64) -> Phase {
        Phase { spec, duration_s }
    }
}

/// Validation failure while building a [`PhasedWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseError {
    /// The phase list was empty.
    NoPhases,
    /// A phase duration was not a positive finite number.
    BadDuration {
        /// Index of the offending phase.
        phase: usize,
        /// The rejected duration.
        duration_s: f64,
    },
    /// The workload-level total traffic was not positive.
    BadTotalTraffic(f64),
}

impl fmt::Display for PhaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PhaseError::NoPhases => write!(f, "a phased workload needs at least one phase"),
            PhaseError::BadDuration { phase, duration_s } => {
                write!(f, "phase {phase}: duration {duration_s} must be positive and finite")
            }
            PhaseError::BadTotalTraffic(gb) => {
                write!(f, "total_traffic_gb {gb} must be positive")
            }
        }
    }
}

impl std::error::Error for PhaseError {}

/// A workload whose demand characterization changes over time: an ordered,
/// cycling timeline of [`Phase`]s plus a workload-level traffic total.
///
/// See the [module docs](self) for the model and an example; canned
/// phase-flipping variants of the Table-I applications are below
/// ([`sc_bandwidth_flip`], [`ftc_rw_swing`], [`oc_footprint_swing`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedWorkload {
    /// Workload name (report identity, like [`WorkloadSpec::name`]).
    pub name: String,
    /// The timeline, cycled until the total traffic is processed.
    pub phases: Vec<Phase>,
    /// Total traffic to process before completion, GB. Phases share this
    /// one budget — it replaces each phase spec's own `total_traffic_gb`.
    pub total_traffic_gb: f64,
}

impl PhasedWorkload {
    /// Build and validate a phased workload.
    pub fn new(
        name: &str,
        phases: Vec<Phase>,
        total_traffic_gb: f64,
    ) -> Result<PhasedWorkload, PhaseError> {
        if phases.is_empty() {
            return Err(PhaseError::NoPhases);
        }
        for (i, p) in phases.iter().enumerate() {
            if !(p.duration_s > 0.0 && p.duration_s.is_finite()) {
                return Err(PhaseError::BadDuration { phase: i, duration_s: p.duration_s });
            }
        }
        if total_traffic_gb.is_nan() || total_traffic_gb <= 0.0 {
            return Err(PhaseError::BadTotalTraffic(total_traffic_gb));
        }
        Ok(PhasedWorkload { name: name.to_string(), phases, total_traffic_gb })
    }

    /// The spec that defines the memory layout (segment sizes) at spawn:
    /// phase 0. Later phases only contribute demand axes.
    pub fn layout_spec(&self) -> &WorkloadSpec {
        &self.phases[0].spec
    }

    /// Duration of one full cycle through the timeline, seconds.
    pub fn cycle_s(&self) -> f64 {
        self.phases.iter().map(|p| p.duration_s).sum()
    }

    /// Translate the timeline into engine profiles for `machine`: one
    /// `(duration_s, profile)` per phase, in order. Every profile carries
    /// the workload-level [`PhasedWorkload::total_traffic_gb`] (machine
    /// demand scaling applies per phase, exactly as in
    /// [`WorkloadSpec::profile_for`]). `cycle_period` rescales the whole
    /// timeline so one full cycle lasts that many seconds, phases keeping
    /// their *relative* durations — the campaign engine's `phase_period`
    /// axis, sweeping how often behaviour changes without distorting the
    /// workload's internal phase mix.
    pub fn profiles_for(
        &self,
        machine: &MachineTopology,
        cycle_period: Option<f64>,
    ) -> Vec<(f64, AppProfile)> {
        let scale = cycle_period.map_or(1.0, |p| p / self.cycle_s());
        self.phases
            .iter()
            .map(|p| {
                let mut profile = p.spec.profile_for(machine);
                profile.name = format!("{}:{}", self.name, p.spec.name);
                profile.total_traffic_gb = self.total_traffic_gb;
                (p.duration_s * scale, profile)
            })
            .collect()
    }

    /// Shrink for fast tests: divide the traffic total and every phase's
    /// page counts by `factor` (durations are left alone — override them
    /// through the `phase_period` axis or [`PhasedWorkload::with_period`]).
    ///
    /// # Panics
    ///
    /// If `factor` is below 1 or NaN.
    pub fn scaled_down(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "factor must be >= 1");
        self.total_traffic_gb /= factor;
        for p in &mut self.phases {
            p.spec = p.spec.clone().scaled_down(factor);
        }
        self
    }

    /// Rescale the timeline so one full cycle lasts `period_s` seconds,
    /// phases keeping their relative durations — the persisted form of
    /// the `phase_period` campaign axis (identical semantics, so a
    /// workload baked with `with_period(p)` and one run at axis point `p`
    /// behave the same).
    ///
    /// # Panics
    ///
    /// If `period_s` is not positive and finite.
    pub fn with_period(mut self, period_s: f64) -> Self {
        assert!(period_s > 0.0 && period_s.is_finite(), "period must be positive");
        let scale = period_s / self.cycle_s();
        for p in &mut self.phases {
            p.duration_s *= scale;
        }
        self
    }
}

/// Native duration of the canned variants' phases, seconds.
const CANNED_PERIOD_S: f64 = 30.0;

/// Bandwidth flip on Streamcluster's layout (the `OC→SC`-style demand
/// flip): a sixth of each cycle streams at Ocean-class aggregate
/// bandwidth (42 GB/s per full machine-B worker node — 1.5x one
/// controller, zero latency sensitivity, so pages want to spread out),
/// the rest is the SC point set with its pointer-chase share raised to
/// the top of the modelled range (10 GB/s, `latency_sensitivity` 0.55 —
/// pages want to be worker-local). No single static placement is right
/// for both phases — the scenario the adaptive daemon exists for.
///
/// The bandwidth phase comes first so one-shot tuners converge on it.
pub fn sc_bandwidth_flip() -> PhasedWorkload {
    let mut calm = crate::apps::streamcluster();
    calm.latency_sensitivity = 0.55;
    let mut burst = crate::apps::streamcluster();
    burst.reads_mbps = 42_000.0;
    burst.writes_mbps = 0.0;
    burst.latency_sensitivity = 0.0;
    PhasedWorkload::new(
        "SC.FLIP",
        vec![Phase::new(burst, CANNED_PERIOD_S / 5.0), Phase::new(calm, CANNED_PERIOD_S)],
        2800.0,
    )
    .expect("canned workload is valid")
}

/// Read/write-mix swing on FT.C's layout: phase 0 is the Table-I FT.C mix
/// (~46 % writes), phase 1 the same aggregate bandwidth as almost pure
/// reads. Write amplification at the controllers makes the two phases
/// load the fabric differently at identical demand.
pub fn ftc_rw_swing() -> PhasedWorkload {
    let writey = crate::apps::ft_c();
    let mut ready = crate::apps::ft_c();
    let total = ready.reads_mbps + ready.writes_mbps;
    ready.reads_mbps = total * 0.97;
    ready.writes_mbps = total * 0.03;
    PhasedWorkload::new(
        "FT.SWING",
        vec![Phase::new(writey, CANNED_PERIOD_S), Phase::new(ready, CANNED_PERIOD_S)],
        1280.0,
    )
    .expect("canned workload is valid")
}

/// Footprint swing on Ocean-cp's layout: phase 0 works the per-thread
/// private tiles (Table-I OC, 79 % private), phase 1 shrinks the active
/// footprint onto the shared grids (5 % private) at SP.B-class latency
/// sensitivity. The hot set migrates between segments with different
/// natural placements — private pages are born local, the shared grid's
/// best home depends on the policy.
pub fn oc_footprint_swing() -> PhasedWorkload {
    let tiles = crate::apps::ocean_cp();
    let mut grid = crate::apps::ocean_cp();
    grid.private_frac = 0.05;
    grid.latency_sensitivity = 0.30;
    PhasedWorkload::new(
        "OC.SWING",
        vec![Phase::new(tiles, CANNED_PERIOD_S), Phase::new(grid, CANNED_PERIOD_S)],
        2000.0,
    )
    .expect("canned workload is valid")
}

/// The canned phase-structured variants of the Table-I applications.
pub fn phased_suite() -> Vec<PhasedWorkload> {
    vec![sc_bandwidth_flip(), ftc_rw_swing(), oc_footprint_swing()]
}

/// Look up a canned phased workload by name.
pub fn phased_by_name(name: &str) -> Option<PhasedWorkload> {
    phased_suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

    #[test]
    fn validation_rejects_bad_workloads() {
        assert_eq!(PhasedWorkload::new("x", vec![], 1.0), Err(PhaseError::NoPhases));
        let p = Phase::new(crate::apps::streamcluster(), 0.0);
        assert!(matches!(
            PhasedWorkload::new("x", vec![p.clone()], 1.0),
            Err(PhaseError::BadDuration { phase: 0, .. })
        ));
        let mut nan = p.clone();
        nan.duration_s = f64::NAN;
        assert!(matches!(
            PhasedWorkload::new("x", vec![nan], 1.0),
            Err(PhaseError::BadDuration { .. })
        ));
        let ok = Phase::new(crate::apps::streamcluster(), 5.0);
        assert_eq!(PhasedWorkload::new("x", vec![ok], 0.0), Err(PhaseError::BadTotalTraffic(0.0)));
        // Errors render something readable.
        assert!(PhaseError::NoPhases.to_string().contains("at least one"));
    }

    #[test]
    fn canned_variants_validate_on_every_machine() {
        for m in [machines::machine_a(), machines::machine_b(), machines::machine_tiered()] {
            for w in phased_suite() {
                for (d, profile) in w.profiles_for(&m, None) {
                    assert!(d > 0.0);
                    profile
                        .validate()
                        .unwrap_or_else(|e| panic!("{} on {}: {e}", w.name, m.name()));
                    assert_eq!(profile.total_traffic_gb, w.total_traffic_gb);
                }
            }
        }
    }

    #[test]
    fn phased_by_name_roundtrip() {
        for w in phased_suite() {
            assert_eq!(phased_by_name(&w.name).unwrap(), w);
        }
        assert!(phased_by_name("nope").is_none());
    }

    #[test]
    fn cycle_period_rescales_keeping_relative_durations() {
        let w = sc_bandwidth_flip();
        let native: Vec<f64> = w.phases.iter().map(|p| p.duration_s).collect();
        let t = w.profiles_for(&machines::machine_b(), Some(8.0));
        let cycle: f64 = t.iter().map(|(d, _)| d).sum();
        assert!((cycle - 8.0).abs() < 1e-9, "cycle {cycle}");
        // Relative mix preserved: burst stays a sixth of the cycle.
        assert!((t[0].0 / t[1].0 - native[0] / native[1]).abs() < 1e-9);
        // with_period is the persisted form of the same rescale.
        let w = w.with_period(3.0);
        assert!((w.cycle_s() - 3.0).abs() < 1e-9);
        assert!(
            (w.phases[0].duration_s / w.phases[1].duration_s - native[0] / native[1]).abs() < 1e-9
        );
    }

    #[test]
    fn scaled_down_divides_traffic_and_pages_keeps_durations() {
        let w = sc_bandwidth_flip();
        let s = w.clone().scaled_down(8.0);
        assert!((s.total_traffic_gb - w.total_traffic_gb / 8.0).abs() < 1e-9);
        assert_eq!(s.phases[0].spec.shared_pages, w.phases[0].spec.shared_pages / 8);
        assert_eq!(s.phases[0].duration_s, w.phases[0].duration_s);
    }

    #[test]
    fn layout_comes_from_phase_zero() {
        let w = oc_footprint_swing();
        assert_eq!(w.layout_spec().name, "OC");
        assert_eq!(w.layout_spec().shared_pages, crate::apps::ocean_cp().shared_pages);
    }
}
