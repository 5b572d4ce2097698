//! Campaign-level differential pin for the event-driven time engine: every
//! canned experiment family — probe (fig1a), baseline matrix (table1),
//! DWP sweep (fig4), heterogeneous tiers (fig_tiered), phase-structured
//! adaptive (fig_phases) — must produce a byte-identical
//! `deterministic_json` report under `EngineMode::EventDriven`, and the
//! EventDriven reports must also match the blessed goldens under
//! `tests/golden/` (modulo the schema version header, exactly like
//! `tests/golden_reports.rs`). The migration-heavy families (fig_tiered,
//! fig_phases) also pin their stepped reports against goldens here, so
//! tier-1 checks them without running either campaign a second time.
//! The engine-level half of this harness lives in
//! `crates/numasim/tests/event_equiv.rs`.

use bwap_bench::experiments::{
    fig1a_spec, fig4_spec, fig_phases_spec, fig_tiered_spec, table1_spec,
};
use bwap_runtime::{run_campaign, CampaignSpec, EngineMode};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

/// Drop the schema version header (see `tests/golden_reports.rs`).
fn modulo_schema_version(s: &str) -> String {
    s.lines()
        .filter(|l| !l.trim_start().starts_with("\"schema_version\""))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run `spec` under both engines; require byte-identical deterministic
/// reports and return the EventDriven report's full JSON for volatile
/// field checks. With `golden`, also compare the stepped report against
/// `tests/golden/<name>.json` (re-bless deliberately with
/// `BWAP_BLESS=1 cargo test --test event_equiv`).
fn diff(name: &str, spec: CampaignSpec, golden: bool) -> String {
    let stepped = run_campaign(&spec.clone().engine_mode(EngineMode::Stepped));
    let event = run_campaign(&spec.engine_mode(EngineMode::EventDriven));
    for cell in stepped.cells.iter().chain(event.cells.iter()) {
        assert!(cell.outcome.is_ok(), "{name} cell {}: {:?}", cell.key, cell.outcome);
    }
    let stepped_json = stepped.deterministic_json();
    assert_eq!(
        stepped_json,
        event.deterministic_json(),
        "campaign {name}: engine modes must be result-indistinguishable"
    );
    if golden {
        let path = golden_path(name);
        if std::env::var_os("BWAP_BLESS").is_some() {
            std::fs::write(&path, &stepped_json).unwrap();
        } else {
            let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                panic!("missing golden {} ({e}); bless with BWAP_BLESS=1", path.display())
            });
            assert_eq!(
                modulo_schema_version(&want),
                modulo_schema_version(&stepped_json),
                "campaign {name} diverged from its blessed golden"
            );
        }
    }
    event.to_json()
}

#[test]
fn fig1a_probe_campaign_is_engine_mode_invariant() {
    let full = diff("fig1a", fig1a_spec(), false);
    // The engine mode is volatile provenance: present in the full report,
    // absent (with the rest of the volatile block) from the deterministic
    // payload compared above.
    assert!(full.contains("\"engine_mode\": \"event-driven\""));
}

#[test]
fn table1_quick_campaign_is_engine_mode_invariant() {
    diff("table1_quick", table1_spec(true), false);
}

#[test]
fn fig4_quick_sweep_is_engine_mode_invariant() {
    diff("fig4_quick", fig4_spec(true), false);
}

#[test]
fn fig_tiered_quick_campaign_is_engine_mode_invariant() {
    diff("fig_tiered_quick", fig_tiered_spec(true), true);
}

#[test]
fn fig_phases_quick_campaign_is_engine_mode_invariant() {
    diff("fig_phases_quick", fig_phases_spec(true), true);
}

/// The stepped-mode goldens stay authoritative for the event-driven
/// engine: same bytes, not merely self-consistency between fresh runs.
#[test]
fn event_driven_reports_match_the_stepped_goldens() {
    for (name, spec) in [
        ("fig1a", fig1a_spec()),
        ("table1_quick", table1_spec(true)),
        ("fig4_quick", fig4_spec(true)),
    ] {
        let path = golden_path(name);
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
        let got = run_campaign(&spec.engine_mode(EngineMode::EventDriven)).deterministic_json();
        assert_eq!(
            modulo_schema_version(&want),
            modulo_schema_version(&got),
            "campaign {name}: EventDriven diverged from the blessed golden"
        );
    }
}

#[test]
fn stepped_default_emits_no_engine_mode_field() {
    let report = run_campaign(&fig1a_spec());
    assert!(
        !report.to_json().contains("engine_mode"),
        "the default engine stays unmarked (omitted-not-null, schema v2)"
    );
}
