//! Golden pin for the heterogeneous-tier refactor: campaign reports of
//! the *symmetric* reference machines (fig1a's probe, table1 and fig4 at
//! quick scale) must stay byte-identical across refactors, modulo the
//! schema version header. The goldens under `tests/golden/` were blessed
//! before the tiered-node refactor; any physics or serialization drift on
//! the old machines fails these tests.
//!
//! Regenerate deliberately with:
//! `BWAP_BLESS=1 cargo test --test golden_reports`.

use bwap::BwapConfig;
use bwap_bench::experiments::{fig1a_spec, fig4_spec, fig_fleet_spec, table1_spec};
use bwap_runtime::{run_campaign, AdaptiveConfig, CampaignSpec, PlacementPolicy, ScenarioKind};
use bwap_topology::machines;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

/// Drop the schema version header: it is the one line allowed to change
/// for old-machine reports (the tier axis bumped it without touching any
/// symmetric-machine payload).
fn modulo_schema_version(s: &str) -> String {
    s.lines()
        .filter(|l| !l.trim_start().starts_with("\"schema_version\""))
        .collect::<Vec<_>>()
        .join("\n")
}

fn check(name: &str, json: &str) {
    let path = golden_path(name);
    if std::env::var_os("BWAP_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, json).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {} ({e}); bless with BWAP_BLESS=1", path.display())
    });
    assert_eq!(
        modulo_schema_version(&want),
        modulo_schema_version(json),
        "campaign {name} diverged from its pre-refactor golden (modulo schema_version)"
    );
}

#[test]
fn fig1a_report_matches_golden() {
    check("fig1a", &run_campaign(&fig1a_spec()).deterministic_json());
}

#[test]
fn table1_quick_report_matches_golden() {
    check("table1_quick", &run_campaign(&table1_spec(true)).deterministic_json());
}

#[test]
fn fig4_quick_report_matches_golden() {
    check("fig4_quick", &run_campaign(&fig4_spec(true)).deterministic_json());
}

#[test]
fn fig_fleet_quick_report_matches_golden() {
    check("fig_fleet_quick", &run_campaign(&fig_fleet_spec(true)).deterministic_json());
}

/// Every BWAP-init path no paper spec pins: the uniform canonical
/// (`BWAP-uniform`), kernel-mode interleaving, a stand-alone static
/// placement and the adaptive daemon, next to the default climb, in both
/// scenarios. The two co-scheduled adaptive cells are error cells (the
/// watchdog is stand-alone only).
#[test]
fn bwap_variants_quick_report_matches_golden() {
    let spec = CampaignSpec::new("bwap_variants", machines::machine_b())
        .workloads(vec![bwap_workloads::streamcluster().scaled_down(8.0)])
        .policies(vec![
            PlacementPolicy::Bwap(BwapConfig::default()),
            PlacementPolicy::Bwap(BwapConfig::bwap_uniform()),
            PlacementPolicy::Bwap(BwapConfig::kernel_mode()),
            PlacementPolicy::Bwap(BwapConfig::static_dwp(0.3)),
            PlacementPolicy::AdaptiveBwap(AdaptiveConfig::default()),
        ])
        .scenarios(vec![ScenarioKind::Standalone, ScenarioKind::Coscheduled])
        .worker_counts(vec![1, 2]);
    let report = run_campaign(&spec);
    assert_eq!(report.cells.len(), 20);
    check("bwap_variants_quick", &report.deterministic_json());
}
