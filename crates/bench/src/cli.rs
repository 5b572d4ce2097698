//! The campaign-spec CLI vocabulary.
//!
//! [`SpecArgs`] holds the spec-defining axes of the `campaign` binary in
//! their raw textual form and [`SpecArgs::build`] turns them into a
//! validated [`CampaignSpec`]. Executor knobs (threads, trace/cache/output
//! directories, dedup) are not part of the vocabulary:
//! [`SpecArgs::apply`] hands them back to the caller, because they never
//! change a cell's result. Parsing errors are `Err(String)` so the binary
//! decides how to report them.

use bwap::BwapConfig;
use bwap_runtime::{
    AdaptiveConfig, CampaignSpec, DwpPoint, EngineMode, FleetAxis, MachineKind, PlacementPolicy,
    ScenarioKind, SchedulerKind,
};
use bwap_topology::{machines, MachineTopology};
use bwap_workloads::{PhasedWorkload, WorkloadSpec};

/// The largest `--fleet-jobs` accepted: 625x the longest stream a canned
/// spec runs (16 jobs), and about 2.3 MB of arrival schedule per cell
/// descriptor. Every cell's schedule is built before any cell runs, so an
/// unbounded count could exhaust memory up front.
const MAX_FLEET_JOBS: usize = 10_000;

/// The spec-defining subset of the campaign CLI, in textual form.
/// Executor knobs (threads, trace/cache/output directories, dedup) are
/// deliberately *not* here: they never change results.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecArgs {
    /// `--name` (ad-hoc campaigns).
    pub name: String,
    /// `--machine` (`a`, `b`, `tiered`).
    pub machine: String,
    /// `--workloads` (comma list or `all`).
    pub workloads: String,
    /// `--phased` (comma list), empty = none.
    pub phased: String,
    /// `--phase-periods` (comma list of seconds), empty = native.
    pub phase_periods: String,
    /// `--policies` (comma list).
    pub policies: String,
    /// `--scenarios` (comma list).
    pub scenarios: String,
    /// `--workers` (comma list of counts).
    pub workers: String,
    /// `--dwps` (comma list of `online` / values).
    pub dwps: String,
    /// `--fleet` (comma list of machine kinds, e.g. `b,tiered`), empty =
    /// no fleet axis. The plain workload axis doubles as the job catalog.
    pub fleet: String,
    /// `--schedulers` (comma list), empty = every scheduler. Requires
    /// `--fleet`.
    pub schedulers: String,
    /// `--arrival-rates` (comma list of jobs/s), empty = `1`. Requires
    /// `--fleet`.
    pub arrival_rates: String,
    /// `--fleet-jobs` (jobs per Poisson stream, at most 10,000), empty =
    /// `8`. Requires `--fleet`.
    pub fleet_jobs: String,
    /// `--seed`.
    pub seed: u64,
    /// `--engine` (`stepped` / `event`).
    pub engine: String,
    /// `--probe`.
    pub probe: bool,
    /// `--quick` (scales workloads down ~8x).
    pub quick: bool,
    /// `--spec` — a canned experiment campaign; when set, all axis flags
    /// are ignored (the canned spec fixes them) except seed/engine/quick.
    pub spec: String,
}

impl Default for SpecArgs {
    fn default() -> Self {
        SpecArgs {
            name: "campaign".into(),
            machine: "b".into(),
            workloads: "SC".into(),
            phased: String::new(),
            phase_periods: String::new(),
            policies: "uniform-workers".into(),
            scenarios: "standalone".into(),
            workers: "1".into(),
            dwps: "online".into(),
            fleet: String::new(),
            schedulers: String::new(),
            arrival_rates: String::new(),
            fleet_jobs: String::new(),
            seed: 0,
            engine: "stepped".into(),
            probe: false,
            quick: false,
            spec: String::new(),
        }
    }
}

impl SpecArgs {
    /// Consume one spec-defining flag. Returns `Ok(true)` if the flag was
    /// recognized (value consumed), `Ok(false)` if it belongs to the
    /// caller (an executor knob), `Err` on a malformed value.
    pub fn apply(&mut self, flag: &str, value: &mut dyn FnMut() -> String) -> Result<bool, String> {
        match flag {
            "--name" => self.name = value(),
            "--machine" => self.machine = value(),
            "--workloads" => self.workloads = value(),
            "--phased" => self.phased = value(),
            "--phase-periods" => self.phase_periods = value(),
            "--policies" => self.policies = value(),
            "--scenarios" => self.scenarios = value(),
            "--workers" => self.workers = value(),
            "--dwps" => self.dwps = value(),
            "--fleet" => self.fleet = value(),
            "--schedulers" => self.schedulers = value(),
            "--arrival-rates" => self.arrival_rates = value(),
            "--fleet-jobs" => self.fleet_jobs = value(),
            "--seed" => {
                self.seed = value().parse().map_err(|_| "bad --seed (expected u64)".to_string())?
            }
            "--engine" => self.engine = value(),
            "--spec" => self.spec = value(),
            "--probe" => self.probe = true,
            "--quick" => self.quick = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Build the [`CampaignSpec`] these arguments describe.
    pub fn build(&self) -> Result<CampaignSpec, String> {
        let engine = parse_engine(&self.engine)?;
        if !self.spec.is_empty() {
            return Ok(canned_spec(&self.spec, self.quick)?.seed(self.seed).engine_mode(engine));
        }
        let phase_periods: Vec<f64> = if self.phase_periods.is_empty() {
            Vec::new()
        } else {
            self.phase_periods
                .split(',')
                .map(|t| match t.parse::<f64>() {
                    Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
                    _ => Err(format!("bad phase period {t:?} (expected positive seconds)")),
                })
                .collect::<Result<_, String>>()?
        };
        let workers: Vec<usize> = self
            .workers
            .split(',')
            .map(|k| k.parse().map_err(|_| format!("bad worker count {k:?}")))
            .collect::<Result<_, String>>()?;
        let fleet = self.parse_fleet_axis()?;
        let mut spec = CampaignSpec::new(&self.name, parse_machine(&self.machine)?)
            .workloads(parse_workloads(&self.workloads, self.quick)?)
            .phased_workloads(if self.phased.is_empty() {
                Vec::new()
            } else {
                parse_phased(&self.phased, self.quick)?
            })
            .phase_periods(phase_periods)
            .policies(self.policies.split(',').map(parse_policy).collect::<Result<_, String>>()?)
            .scenarios(
                self.scenarios.split(',').map(parse_scenario).collect::<Result<_, String>>()?,
            )
            .worker_counts(workers)
            .dwp_grid(self.dwps.split(',').map(parse_dwp).collect::<Result<_, String>>()?)
            .seed(self.seed)
            .engine_mode(engine)
            .probe_bandwidth(self.probe);
        if let Some(axis) = fleet {
            spec = spec.fleet(axis);
        }
        Ok(spec)
    }

    /// The fleet axis the fleet flags describe, if any. Fleet-only flags
    /// without `--fleet` are an error (they would be silently ignored).
    fn parse_fleet_axis(&self) -> Result<Option<FleetAxis>, String> {
        if self.fleet.is_empty() {
            for (flag, v) in [
                ("--schedulers", &self.schedulers),
                ("--arrival-rates", &self.arrival_rates),
                ("--fleet-jobs", &self.fleet_jobs),
            ] {
                if !v.is_empty() {
                    return Err(format!("{flag} requires --fleet"));
                }
            }
            return Ok(None);
        }
        let machines: Vec<MachineKind> = self
            .fleet
            .split(',')
            .map(|m| {
                MachineKind::parse(m)
                    .ok_or_else(|| format!("unknown fleet machine {m:?} (expected b or tiered)"))
            })
            .collect::<Result<_, String>>()?;
        let schedulers: Vec<SchedulerKind> = if self.schedulers.is_empty() {
            SchedulerKind::all().to_vec()
        } else {
            self.schedulers
                .split(',')
                .map(|s| SchedulerKind::parse(s).ok_or_else(|| format!("unknown scheduler {s:?}")))
                .collect::<Result<_, String>>()?
        };
        let arrival_rates: Vec<f64> = if self.arrival_rates.is_empty() {
            vec![1.0]
        } else {
            self.arrival_rates
                .split(',')
                .map(|r| match r.parse::<f64>() {
                    Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
                    _ => Err(format!("bad arrival rate {r:?} (expected positive jobs/s)")),
                })
                .collect::<Result<_, String>>()?
        };
        let jobs: usize = if self.fleet_jobs.is_empty() {
            8
        } else {
            match self.fleet_jobs.parse::<usize>() {
                Ok(n) if (1..=MAX_FLEET_JOBS).contains(&n) => n,
                _ => {
                    return Err(format!(
                        "bad --fleet-jobs {:?} (expected a count from 1 to {MAX_FLEET_JOBS})",
                        self.fleet_jobs
                    ))
                }
            }
        };
        Ok(Some(FleetAxis { machines, schedulers, arrival_rates, jobs, trace: None }))
    }
}

/// Machine flag values (`a`, `b`, `tiered` and long forms).
pub fn parse_machine(s: &str) -> Result<MachineTopology, String> {
    match s {
        "a" | "A" | "machine-a" => Ok(machines::machine_a()),
        "b" | "B" | "machine-b" => Ok(machines::machine_b()),
        "tiered" | "t" | "T" | "machine-tiered" => Ok(machines::machine_tiered()),
        other => Err(format!("unknown machine {other:?} (expected a, b or tiered)")),
    }
}

/// A canned experiment campaign by name.
pub fn canned_spec(name: &str, quick: bool) -> Result<CampaignSpec, String> {
    use crate::experiments;
    match name {
        "fig1a" => Ok(experiments::fig1a_spec()),
        "fig4" => Ok(experiments::fig4_spec(quick)),
        "table1" => Ok(experiments::table1_spec(quick)),
        "fig_tiered" => Ok(experiments::fig_tiered_spec(quick)),
        "fig_phases" => Ok(experiments::fig_phases_spec(quick)),
        "fig_fleet" => Ok(experiments::fig_fleet_spec(quick)),
        "dwp_dedup" => Ok(experiments::dwp_dedup_spec(quick)),
        other => Err(format!("unknown spec {other:?}")),
    }
}

/// Workload list (`all` or comma names), with the `--quick` scaling.
pub fn parse_workloads(s: &str, quick: bool) -> Result<Vec<WorkloadSpec>, String> {
    let base: Vec<WorkloadSpec> = if s == "all" {
        bwap_workloads::suite()
    } else {
        s.split(',')
            .map(|name| {
                bwap_workloads::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))
            })
            .collect::<Result<_, String>>()?
    };
    Ok(if quick { base.into_iter().map(|w| w.scaled_down(8.0)).collect() } else { base })
}

/// One policy label.
pub fn parse_policy(s: &str) -> Result<PlacementPolicy, String> {
    match s {
        "first-touch" => Ok(PlacementPolicy::FirstTouch),
        "uniform-workers" => Ok(PlacementPolicy::UniformWorkers),
        "uniform-all" => Ok(PlacementPolicy::UniformAll),
        "autonuma" => Ok(PlacementPolicy::AutoNuma),
        "bwap" => Ok(PlacementPolicy::Bwap(BwapConfig::default())),
        "bwap-uniform" => Ok(PlacementPolicy::Bwap(BwapConfig::bwap_uniform())),
        "bwap-adaptive" => Ok(PlacementPolicy::AdaptiveBwap(AdaptiveConfig::default())),
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// Canned phased workloads (comma names), with the `--quick` scaling.
pub fn parse_phased(s: &str, quick: bool) -> Result<Vec<PhasedWorkload>, String> {
    s.split(',')
        .map(|name| {
            let w = bwap_workloads::phased_by_name(name)
                .ok_or_else(|| format!("unknown phased workload {name:?}"))?;
            Ok(if quick { w.scaled_down(8.0) } else { w })
        })
        .collect()
}

/// One scenario label.
pub fn parse_scenario(s: &str) -> Result<ScenarioKind, String> {
    match s {
        "standalone" => Ok(ScenarioKind::Standalone),
        "coscheduled" | "cosched" => Ok(ScenarioKind::Coscheduled),
        other => Err(format!("unknown scenario {other:?}")),
    }
}

/// Engine-mode flag values.
pub fn parse_engine(s: &str) -> Result<EngineMode, String> {
    match s {
        "stepped" => Ok(EngineMode::Stepped),
        "event" | "event-driven" => Ok(EngineMode::EventDriven),
        other => Err(format!("unknown engine {other:?} (expected stepped or event)")),
    }
}

/// One DWP-grid point (`online` or a value in `[0, 1]`).
pub fn parse_dwp(s: &str) -> Result<DwpPoint, String> {
    if s == "online" || s == "as-configured" {
        return Ok(DwpPoint::AsConfigured);
    }
    match s.parse::<f64>() {
        Ok(d) if (0.0..=1.0).contains(&d) => Ok(DwpPoint::Static(d)),
        _ => Err(format!("bad DWP {s:?} (expected `online` or a value in [0, 1])")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Executor knobs are not spec vocabulary: `apply` hands every one
    /// back to the caller (`Ok(false)`) without consuming its value, so
    /// the binary parses it and it never reaches the spec.
    #[test]
    fn executor_knobs_are_rejected_by_the_spec_vocabulary() {
        for knob in ["--threads", "--out", "--trace", "--cache-dir", "--dedup", "--deterministic"] {
            let mut sa = SpecArgs::default();
            let mut value = || -> String { panic!("{knob} must not consume a value") };
            assert_eq!(sa.apply(knob, &mut value), Ok(false), "{knob}");
            assert_eq!(sa, SpecArgs::default(), "{knob} must leave the spec untouched");
        }
    }

    /// The fleet axis flags: defaults, validation, and the guard against
    /// fleet-only flags without `--fleet`.
    #[test]
    fn fleet_flags_build_validate_and_default() {
        // Defaults: every scheduler, one job/s, eight jobs.
        let sa = SpecArgs { fleet: "b".into(), quick: true, ..Default::default() };
        let spec = sa.build().expect("fleet spec");
        let axis = spec.fleet.as_ref().expect("axis present");
        assert_eq!(axis.machines, vec![MachineKind::B]);
        assert_eq!(axis.schedulers, SchedulerKind::all().to_vec());
        assert_eq!(axis.arrival_rates, vec![1.0]);
        assert_eq!(axis.jobs, 8);
        // Explicit values parse into the axis.
        let sa = SpecArgs {
            fleet: "b,tiered".into(),
            schedulers: "least-loaded".into(),
            arrival_rates: "0.25,4".into(),
            fleet_jobs: "3".into(),
            quick: true,
            ..Default::default()
        };
        let axis = sa.build().expect("fleet spec").fleet.expect("axis");
        assert_eq!(axis.machines, vec![MachineKind::B, MachineKind::Tiered]);
        assert_eq!(axis.schedulers, vec![SchedulerKind::LeastLoaded]);
        assert_eq!(axis.arrival_rates, vec![0.25, 4.0]);
        assert_eq!(axis.jobs, 3);
        // Fleet-dependent flags without --fleet are errors, not no-ops.
        for (field, value) in
            [("schedulers", "round-robin"), ("arrival_rates", "1"), ("fleet_jobs", "4")]
        {
            let mut sa = SpecArgs::default();
            match field {
                "schedulers" => sa.schedulers = value.into(),
                "arrival_rates" => sa.arrival_rates = value.into(),
                _ => sa.fleet_jobs = value.into(),
            }
            let err = sa.build().expect_err("fleet-only flag without --fleet");
            assert!(err.contains("requires --fleet"), "{field}: {err}");
        }
        // Malformed axis values are typed errors.
        for (sa, needle) in [
            (SpecArgs { fleet: "z".into(), ..Default::default() }, "unknown fleet machine"),
            (
                SpecArgs { fleet: "b".into(), schedulers: "fifo".into(), ..Default::default() },
                "unknown scheduler",
            ),
            (
                SpecArgs { fleet: "b".into(), arrival_rates: "-1".into(), ..Default::default() },
                "bad arrival rate",
            ),
            (
                SpecArgs { fleet: "b".into(), arrival_rates: "inf".into(), ..Default::default() },
                "bad arrival rate",
            ),
            (
                SpecArgs { fleet: "b".into(), fleet_jobs: "0".into(), ..Default::default() },
                "bad --fleet-jobs",
            ),
        ] {
            let err = sa.build().expect_err("malformed fleet axis");
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        assert!(parse_machine("z").is_err());
        assert!(parse_policy("nope").is_err());
        assert!(parse_dwp("1.5").is_err());
        assert!(parse_engine("warp").is_err());
        let mut sa = SpecArgs::default();
        assert_eq!(sa.apply("--bogus", &mut || "x".to_string()), Ok(false));
        assert!(sa.apply("--seed", &mut || "x".to_string()).is_err());
        let sa = SpecArgs { workloads: "NOPE".into(), ..Default::default() };
        assert!(sa.build().is_err());
    }
}
