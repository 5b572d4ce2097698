//! Campaign-engine guarantees the rest of the suite builds on:
//! determinism, shard-count invariance, and edge cases. These pin the
//! properties `docs/RESULTS_SCHEMA.md` promises for report artifacts.

use bwap_suite::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_spec() -> CampaignSpec {
    CampaignSpec::new("itest", machines::machine_b())
        .workloads(vec![
            workloads::streamcluster().scaled_down(32.0),
            workloads::ocean_cp().scaled_down(32.0),
        ])
        .policies(vec![
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::Bwap(BwapConfig::default()),
        ])
        .scenarios(vec![ScenarioKind::Standalone, ScenarioKind::Coscheduled])
        .worker_counts(vec![1, 2])
        .dwp_grid(vec![DwpPoint::AsConfigured, DwpPoint::Static(0.4)])
        .seed(2026)
}

/// Same spec + same seed => byte-identical report, modulo the volatile
/// provenance fields (wall time, thread count) that `deterministic_json`
/// omits.
#[test]
fn report_is_deterministic_for_fixed_spec_and_seed() {
    let spec = small_spec();
    let a = run_campaign(&spec);
    let b = run_campaign(&spec);
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    // The volatile fields still exist in the full artifact.
    assert!(a.to_json().contains("wall_time_s"));
}

/// One executor thread and many executor threads must produce identical
/// cell results: parallelism is an implementation detail, never an input.
#[test]
fn shard_count_invariance() {
    let spec = small_spec();
    let serial =
        run_campaign_with(&spec, &CampaignConfig { threads: Some(1), ..Default::default() });
    let wide = run_campaign_with(&spec, &CampaignConfig { threads: Some(8), ..Default::default() });
    assert!(!serial.cells.is_empty());
    assert_eq!(serial.deterministic_json(), wide.deterministic_json());
}

/// A different root seed re-derives every cell seed but, with the paper's
/// deterministic tuner, leaves the physics unchanged.
#[test]
fn root_seed_changes_cell_seeds_only() {
    let a = run_campaign(&small_spec());
    let b = run_campaign(&small_spec().seed(1));
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.key, y.key);
        assert_ne!(x.seed, y.seed);
        let (rx, ry) = (x.result().unwrap(), y.result().unwrap());
        assert_eq!(rx.exec_time_s, ry.exec_time_s);
    }
}

/// An empty matrix (any empty axis) is a valid campaign: zero cells, a
/// well-formed report, no executor work.
#[test]
fn empty_matrix_yields_empty_report() {
    let spec = CampaignSpec::new("empty", machines::machine_b());
    assert!(spec.cells().is_empty());
    let report = run_campaign(&spec);
    assert!(report.cells.is_empty());
    assert!(report.to_json().contains("\"cells\": []"));

    // Empty via a different axis: workloads set, scenarios cleared.
    let report2 = run_campaign(
        &CampaignSpec::new("empty2", machines::machine_b())
            .workloads(vec![workloads::streamcluster().scaled_down(32.0)])
            .policies(vec![PlacementPolicy::FirstTouch])
            .scenarios(vec![]),
    );
    assert!(report2.cells.is_empty());
}

/// Campaigns compose with the seeded workload generator: randomly drawn
/// (but seed-determined) workloads run like any other spec — the
/// scenario-diversity path future PRs build on.
#[test]
fn seeded_random_workload_campaign_is_reproducible() {
    let gen_workloads = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let bounds = workloads::generator::GeneratorBounds::default();
        vec![workloads::generator::random_workload(&mut rng, &bounds).scaled_down(32.0)]
    };
    let spec = |seed: u64| {
        CampaignSpec::new("random", machines::machine_b())
            .workloads(gen_workloads(seed))
            .policies(vec![PlacementPolicy::UniformWorkers])
            .seed(seed)
    };
    let a = run_campaign(&spec(9));
    let b = run_campaign(&spec(9));
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert!(a.cells[0].result().unwrap().exec_time_s > 0.0);
}

/// An out-of-range engine config is a typed error in every cell, naming
/// the bad field — machine-local and fleet cells alike — never a panic
/// inside `Simulator::new`.
#[test]
fn invalid_sim_config_gives_error_cells_not_panics() {
    let bad = [
        ("epoch_dt", SimConfig { epoch_dt: 0.0, ..SimConfig::default() }),
        (
            "write_amplification",
            SimConfig {
                ctrl_model: bwap_suite::fabric::ControllerModel { write_amplification: 0.5 },
                ..SimConfig::default()
            },
        ),
    ];
    for (field, cfg) in bad {
        let spec = small_spec().sim_cfg(cfg).fleet(FleetAxis {
            machines: vec![MachineKind::B],
            schedulers: vec![SchedulerKind::RoundRobin],
            arrival_rates: vec![1.0],
            jobs: 2,
            trace: None,
        });
        let report = run_campaign(&spec);
        assert!(report.cells.iter().any(|c| c.scenario == ScenarioKind::Fleet));
        for c in &report.cells {
            let err = c.outcome.as_ref().unwrap_err();
            assert!(err.contains(field) && !err.contains("panicked"), "{}: {err}", c.key);
        }
    }
}
