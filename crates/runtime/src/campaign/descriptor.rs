//! Canonical descriptors for campaign cells — the memoization key.
//!
//! [`cell_descriptor`] serializes *everything that determines a cell's
//! result* into a [`bwap::descriptor::CellDescriptor`]: the full machine
//! topology (not just its name — custom-built machines may share names),
//! the workload or phase timeline, the **effective** placement policy
//! (the declared policy after the campaign engine's per-cell overrides —
//! see [`effective_policy`]), the scenario, the worker count, the
//! simulation config including the engine mode, and the probe flag.
//!
//! The invariant that makes memoization *exact* rather than approximate:
//! two cells with equal descriptors produce byte-identical
//! `deterministic_json` results. This follows from the determinism
//! contract pinned since PR 4 (a cell's result is a pure function of the
//! inputs above) and is enforced end-to-end by proptest in
//! `crates/runtime/tests/descriptor_props.rs`.
//!
//! Two deliberate normalizations widen the equivalence classes:
//!
//! * **The DWP point is folded into the effective policy**, so
//!   `Bwap(static_dwp(0.5))` at `AsConfigured` and `Bwap(default)` at
//!   `Static(0.5)` — which run the exact same simulation — share one
//!   descriptor.
//! * **The per-cell seed is left out.** Every policy is fully
//!   deterministic and consumes no randomness, and per-cell seeds are
//!   unique by construction — including them verbatim would make every
//!   descriptor unique and dedup vacuous. Fleet cells are the one place a
//!   seed is consumed (the Poisson arrival stream), so their descriptor
//!   serializes the resolved schedule instead. A future stochastic
//!   policy must write the seed it consumes; the proptest invariant is
//!   the backstop that catches a policy that forgets.

use super::{CampaignSpec, CellSpec, DwpPoint, ScenarioKind};
use crate::adaptive::AdaptiveConfig;
use crate::baselines::PlacementPolicy;
use crate::fleet::{jobs_from_trace, poisson_jobs};
use bwap::descriptor::{CellDescriptor, DescriptorBuilder};
use bwap::{BwapConfig, InterleaveMode};
use bwap_topology::{MachineTopology, NodeId};
use bwap_workloads::WorkloadSpec;

/// The policy a cell actually runs: the declared axis policy with the
/// campaign engine's per-cell override applied (for a static DWP point,
/// the pinned DWP with online search disabled).
///
/// `run_cell` and [`cell_descriptor`] both go through this function, so
/// the descriptor can never drift from what executes.
pub fn effective_policy(spec: &CampaignSpec, cell: &CellSpec) -> PlacementPolicy {
    let mut policy = spec.policies[cell.policy_idx].clone();
    if let (PlacementPolicy::Bwap(cfg), DwpPoint::Static(d)) = (&mut policy, cell.dwp) {
        cfg.online_tuning = false;
        cfg.fixed_dwp = d;
    }
    policy
}

/// Build the canonical content-addressed descriptor of one cell.
pub fn cell_descriptor(spec: &CampaignSpec, cell: &CellSpec) -> CellDescriptor {
    if cell.scenario == ScenarioKind::Fleet {
        return fleet_descriptor(spec, cell);
    }
    let mut b = DescriptorBuilder::new("campaign-cell");
    describe_machine(&mut b, &spec.machine);

    // The workload coordinate: a plain spec, or the full phase timeline
    // plus the cycle-period override (profiles_for rescaling is a pure
    // function of timeline + period + machine, all covered here).
    if let Some(pi) = cell.workload_idx.checked_sub(spec.workloads.len()) {
        let pw = &spec.phased_workloads[pi];
        b.field_str("phased", &pw.name);
        b.field_f64("phased.total_traffic_gb", pw.total_traffic_gb);
        b.section("phases", pw.phases.len());
        for (i, phase) in pw.phases.iter().enumerate() {
            b.field_f64(&format!("phase{i}.duration_s"), phase.duration_s);
            describe_workload(&mut b, &format!("phase{i}."), &phase.spec);
        }
        match cell.phase_period {
            Some(t) => b.field_f64("phase_period_s", t),
            None => b.field_bool("phase_period_native", true),
        }
    } else {
        describe_workload(&mut b, "", &spec.workloads[cell.workload_idx]);
    }

    describe_policy(&mut b, &effective_policy(spec, cell));

    b.field_str("scenario", cell.scenario.label());
    b.field_u64("workers", cell.workers as u64);

    b.field_f64("sim.epoch_dt", spec.sim_cfg.epoch_dt);
    b.field_f64("sim.migration_gbps", spec.sim_cfg.migration_gbps);
    b.field_f64("sim.write_amplification", spec.sim_cfg.ctrl_model.write_amplification);
    b.field_f64("sim.latency_inflation.a", spec.sim_cfg.latency_inflation.0);
    b.field_f64("sim.latency_inflation.b", spec.sim_cfg.latency_inflation.1);
    b.field_str("sim.engine", spec.sim_cfg.mode.label());

    b.field_bool("probe_bandwidth", spec.probe_bandwidth);
    b.finish()
}

/// Canonical descriptor of a fleet cell. Everything the fleet run reads
/// goes in: the full topology of every machine in the mix, the scheduler,
/// the effective policy, the worker count, the sim config — and the
/// **resolved arrival schedule**, job by job (arrival/departure times as
/// raw bits plus each job's full workload spec).
///
/// The schedule must be resolved here rather than summarized as
/// `(rate, seed)` because the Poisson stream *consumes* the cell seed
/// while descriptors otherwise leave seeds out: two cells with the same
/// rate under different root seeds run different streams, and only the
/// resolved schedule separates their descriptors. (Conversely, a
/// trace-driven fleet and a Poisson fleet that happen to produce the same
/// schedule genuinely share a result.)
fn fleet_descriptor(spec: &CampaignSpec, cell: &CellSpec) -> CellDescriptor {
    let axis = spec.fleet.as_ref().expect("fleet cells exist only with a fleet axis");
    let mut b = DescriptorBuilder::new("campaign-fleet-cell");
    b.section("fleet.machines", axis.machines.len());
    for (i, kind) in axis.machines.iter().enumerate() {
        // describe_machine uses fixed field names; the index marker keeps
        // the (order-sensitive) descriptor text unambiguous across the mix.
        b.field_u64("fleet.machine_index", i as u64);
        describe_machine(&mut b, &kind.topology());
    }
    b.field_str("fleet.scheduler", cell.scheduler.expect("fleet cell").label());

    let jobs = match &axis.trace {
        Some(events) => jobs_from_trace(events),
        None => {
            poisson_jobs(cell.seed, cell.arrival_rate.unwrap_or(0.0), axis.jobs, &spec.workloads)
        }
    };
    b.section("fleet.jobs", jobs.len());
    for (i, j) in jobs.iter().enumerate() {
        let p = format!("job{i}.");
        b.field_f64(&format!("{p}at_s"), j.at_s);
        if let Some(d) = j.depart_s {
            b.field_f64(&format!("{p}depart_s"), d);
        }
        describe_workload(&mut b, &p, &j.workload);
    }

    describe_policy(&mut b, &effective_policy(spec, cell));

    b.field_str("scenario", cell.scenario.label());
    b.field_u64("workers", cell.workers as u64);

    b.field_f64("sim.epoch_dt", spec.sim_cfg.epoch_dt);
    b.field_f64("sim.migration_gbps", spec.sim_cfg.migration_gbps);
    b.field_f64("sim.write_amplification", spec.sim_cfg.ctrl_model.write_amplification);
    b.field_f64("sim.latency_inflation.a", spec.sim_cfg.latency_inflation.0);
    b.field_f64("sim.latency_inflation.b", spec.sim_cfg.latency_inflation.1);
    b.field_str("sim.engine", spec.sim_cfg.mode.label());
    b.finish()
}

/// Serialize the full machine: nodes (with tiers), links, routes, path
/// capacities and the latency matrix. Bandwidth/latency values go in as
/// raw bit patterns — a one-ulp topology tweak is a different machine.
fn describe_machine(b: &mut DescriptorBuilder, m: &MachineTopology) {
    b.field_str("machine", m.name());
    b.section("nodes", m.node_count());
    for (i, n) in m.nodes().iter().enumerate() {
        let p = format!("node{i}.");
        b.field_u64(&format!("{p}cores"), u64::from(n.cores));
        b.field_u64(&format!("{p}mem_pages"), n.mem_pages);
        b.field_f64(&format!("{p}ctrl_bw"), n.ctrl_bw);
        b.field_f64(&format!("{p}ingress_bw"), n.ingress_bw);
        b.field_str(&format!("{p}mem_class"), n.mem_class.name);
        b.field_f64(&format!("{p}bw_scale"), n.mem_class.bw_scale);
        b.field_f64(&format!("{p}lat_scale"), n.mem_class.lat_scale);
    }
    b.section("links", m.links().len());
    for (i, l) in m.links().iter().enumerate() {
        let p = format!("link{i}.");
        b.field_u64(&format!("{p}a"), u64::from(l.a.0));
        b.field_u64(&format!("{p}b"), u64::from(l.b.0));
        b.field_f64(&format!("{p}cap_ab"), l.cap_ab);
        b.field_f64(&format!("{p}cap_ba"), l.cap_ba);
    }
    let n = m.node_count();
    b.section("routes", n * n);
    for s in 0..n {
        for d in 0..n {
            let (s, d) = (NodeId(s as u16), NodeId(d as u16));
            let hops: Vec<String> = m
                .routes()
                .get(s, d)
                .hops()
                .iter()
                .map(|h| {
                    format!(
                        "{}{}",
                        h.link.0,
                        match h.dir {
                            bwap_topology::Direction::AtoB => '+',
                            bwap_topology::Direction::BtoA => '-',
                        }
                    )
                })
                .collect();
            b.field_str(&format!("route.{}.{}", s.0, d.0), &hops.join(","));
            b.field_f64(&format!("pathcap.{}.{}", s.0, d.0), m.path_caps().get(s, d));
            b.field_f64(&format!("lat.{}.{}", s.0, d.0), m.latency_ns().get(s, d));
        }
    }
}

/// Serialize one workload spec under a field-name prefix (so plain and
/// per-phase specs reuse one encoding).
fn describe_workload(b: &mut DescriptorBuilder, prefix: &str, w: &WorkloadSpec) {
    b.field_str(&format!("{prefix}workload"), w.name);
    b.field_f64(&format!("{prefix}reads_mbps"), w.reads_mbps);
    b.field_f64(&format!("{prefix}writes_mbps"), w.writes_mbps);
    b.field_f64(&format!("{prefix}private_frac"), w.private_frac);
    b.field_f64(&format!("{prefix}latency_sensitivity"), w.latency_sensitivity);
    b.field_f64(&format!("{prefix}serial_frac"), w.serial_frac);
    b.field_f64(&format!("{prefix}multinode_penalty"), w.multinode_penalty);
    b.field_u64(&format!("{prefix}shared_pages"), w.shared_pages);
    b.field_u64(&format!("{prefix}private_pages_per_thread"), w.private_pages_per_thread);
    b.field_f64(&format!("{prefix}total_traffic_gb"), w.total_traffic_gb);
    b.field_f64(&format!("{prefix}machine_a_scale"), w.machine_a_scale);
    b.field_bool(&format!("{prefix}open_loop"), w.open_loop);
}

/// Serialize the effective policy.
fn describe_policy(b: &mut DescriptorBuilder, policy: &PlacementPolicy) {
    match policy {
        PlacementPolicy::FirstTouch => b.field_str("policy", "first-touch"),
        PlacementPolicy::UniformWorkers => b.field_str("policy", "uniform-workers"),
        PlacementPolicy::UniformAll => b.field_str("policy", "uniform-all"),
        PlacementPolicy::AutoNuma => b.field_str("policy", "autonuma"),
        PlacementPolicy::Bwap(cfg) => {
            b.field_str("policy", "bwap");
            describe_bwap(b, "bwap.", cfg);
        }
        PlacementPolicy::AdaptiveBwap(acfg) => {
            b.field_str("policy", "bwap-adaptive");
            describe_adaptive(b, acfg);
        }
    }
}

fn describe_bwap(b: &mut DescriptorBuilder, prefix: &str, cfg: &BwapConfig) {
    b.field_str(
        &format!("{prefix}mode"),
        match cfg.mode {
            InterleaveMode::Kernel => "kernel",
            InterleaveMode::UserLevel => "user-level",
        },
    );
    b.field_u64(&format!("{prefix}tuner.samples"), cfg.tuner.samples_per_iteration as u64);
    b.field_u64(&format!("{prefix}tuner.trim"), cfg.tuner.trim as u64);
    b.field_f64(&format!("{prefix}tuner.sample_interval_s"), cfg.tuner.sample_interval_s);
    b.field_f64(&format!("{prefix}tuner.step"), cfg.tuner.step);
    b.field_f64(&format!("{prefix}tuner.min_improvement"), cfg.tuner.min_improvement);
    b.field_f64(&format!("{prefix}tuner.stage1_min_improvement"), cfg.tuner.stage1_min_improvement);
    b.field_bool(&format!("{prefix}online_tuning"), cfg.online_tuning);
    b.field_f64(&format!("{prefix}fixed_dwp"), cfg.fixed_dwp);
    b.field_bool(&format!("{prefix}uniform_canonical"), cfg.uniform_canonical);
}

fn describe_adaptive(b: &mut DescriptorBuilder, cfg: &AdaptiveConfig) {
    describe_bwap(b, "adaptive.bwap.", &cfg.bwap);
    b.field_f64("adaptive.retune_threshold", cfg.retune_threshold);
    b.field_u64("adaptive.max_retunes", cfg.max_retunes as u64);
    b.field_u64("adaptive.settle_windows", cfg.settle_windows as u64);
}

#[cfg(test)]
impl CampaignSpec {
    /// Test helper: the same spec on a different machine.
    fn machine_swap(mut self, m: MachineTopology) -> Self {
        self.machine = m;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ScenarioKind;
    use bwap_topology::machines;

    fn spec() -> CampaignSpec {
        CampaignSpec::new("desc-unit", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![
                PlacementPolicy::UniformWorkers,
                PlacementPolicy::Bwap(BwapConfig::default()),
            ])
            .scenarios(vec![ScenarioKind::Standalone, ScenarioKind::Coscheduled])
            .worker_counts(vec![1, 2])
            .dwp_grid(vec![DwpPoint::AsConfigured, DwpPoint::Static(0.5)])
            .seed(7)
    }

    #[test]
    fn descriptors_are_stable_across_enumerations() {
        let s = spec();
        let a: Vec<_> = s.cells().iter().map(|c| cell_descriptor(&s, c)).collect();
        let b: Vec<_> = s.cells().iter().map(|c| cell_descriptor(&s, c)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn distinct_axes_distinct_descriptors() {
        let s = spec();
        let cells = s.cells();
        let descs: Vec<_> = cells.iter().map(|c| cell_descriptor(&s, c)).collect();
        for (i, a) in descs.iter().enumerate() {
            for (j, b) in descs.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "cells {} and {} alias", cells[i].key, cells[j].key);
                }
            }
        }
    }

    #[test]
    fn seed_is_normalized_out_for_deterministic_policies() {
        // Same cell under two root seeds: different derived seeds, same
        // descriptor — the policy consumes no randomness.
        let a = spec();
        let b = spec().seed(8);
        let (ca, cb) = (a.cells(), b.cells());
        assert_ne!(ca[0].seed, cb[0].seed);
        assert_eq!(cell_descriptor(&a, &ca[0]), cell_descriptor(&b, &cb[0]));
    }

    #[test]
    fn static_dwp_folds_into_the_effective_policy() {
        // Declaring static DWP 0.5 in the policy config vs sweeping the
        // grid to Static(0.5): the same simulation, one descriptor.
        let via_policy = CampaignSpec::new("a", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::static_dwp(0.5))]);
        let via_grid = CampaignSpec::new("b", machines::machine_b())
            .workloads(vec![bwap_workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::Bwap(BwapConfig::default())])
            .dwp_grid(vec![DwpPoint::Static(0.5)]);
        let (ca, cb) = (via_policy.cells(), via_grid.cells());
        assert_eq!(cell_descriptor(&via_policy, &ca[0]), cell_descriptor(&via_grid, &cb[0]));
    }

    #[test]
    fn machine_engine_and_scenario_reach_the_descriptor() {
        let base = spec();
        let cells = base.cells();
        let d0 = cell_descriptor(&base, &cells[0]);
        let other_machine = spec().machine_swap(machines::machine_a());
        assert_ne!(d0, cell_descriptor(&other_machine, &other_machine.cells()[0]));
        let event = spec().engine_mode(numasim::EngineMode::EventDriven);
        assert_ne!(d0, cell_descriptor(&event, &event.cells()[0]));
        let probe = spec().probe_bandwidth(true);
        assert_ne!(d0, cell_descriptor(&probe, &probe.cells()[0]));
    }

    #[test]
    fn fleet_descriptors_resolve_the_arrival_schedule() {
        use crate::campaign::FleetAxis;
        use crate::fleet::{MachineKind, SchedulerKind};
        let fleet_spec = |seed: u64, trace: Option<Vec<crate::fleet::ArrivalEvent>>| {
            CampaignSpec::new("fleet-desc", machines::machine_b())
                .workloads(vec![bwap_workloads::streamcluster().scaled_down(64.0)])
                .policies(vec![PlacementPolicy::UniformWorkers])
                .fleet(FleetAxis {
                    machines: vec![MachineKind::B],
                    schedulers: vec![SchedulerKind::RoundRobin],
                    arrival_rates: vec![1.0],
                    jobs: 3,
                    trace,
                })
                .seed(seed)
        };
        let fleet_cell = |s: &CampaignSpec| s.cells().into_iter().find(|c| c.scheduler.is_some());
        // Poisson fleets: the schedule consumes the cell seed, so two
        // root seeds must NOT share a descriptor (their streams differ).
        let (a, b) = (fleet_spec(1, None), fleet_spec(2, None));
        let (ca, cb) = (fleet_cell(&a).unwrap(), fleet_cell(&b).unwrap());
        assert_ne!(ca.seed, cb.seed);
        let (da, db) = (cell_descriptor(&a, &ca), cell_descriptor(&b, &cb));
        assert_ne!(da, db, "poisson schedules differ, descriptors must too");
        assert!(da.text().contains("job0.at_s="));
        // Trace-driven fleets: the schedule is explicit, the seed is
        // inert — different root seeds share one descriptor.
        let trace = vec![crate::fleet::ArrivalEvent {
            at_s: 0.5,
            workload: bwap_workloads::streamcluster().scaled_down(64.0),
            depart_s: None,
        }];
        let (ta, tb) = (fleet_spec(1, Some(trace.clone())), fleet_spec(2, Some(trace)));
        let (ca, cb) = (fleet_cell(&ta).unwrap(), fleet_cell(&tb).unwrap());
        assert_eq!(cell_descriptor(&ta, &ca), cell_descriptor(&tb, &cb));
    }

    #[test]
    fn phased_cells_cover_the_timeline_and_period() {
        let s = CampaignSpec::new("phased", machines::machine_b())
            .phased_workloads(vec![bwap_workloads::sc_bandwidth_flip().scaled_down(64.0)])
            .phase_periods(vec![2.0, 4.0])
            .policies(vec![PlacementPolicy::FirstTouch]);
        let cells = s.cells();
        assert_eq!(cells.len(), 2);
        let d: Vec<_> = cells.iter().map(|c| cell_descriptor(&s, c)).collect();
        assert_ne!(d[0], d[1], "phase periods must separate descriptors");
        assert!(d[0].text().contains("phase0.duration_s="));
    }
}
