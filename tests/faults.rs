//! Chaos property tests — the robustness headline (`docs/ROBUSTNESS.md`):
//! for any seeded fault schedule under which a campaign completes, the
//! deterministic report is byte-identical to the fault-free run.
//! Recoverable faults (cache corruption, journal loss, delayed cells)
//! move cells between the cached and executed paths but never change
//! what a cell computes; the one deliberate exception, a panicking cell,
//! becomes an error cell in its own slot while every other cell
//! completes.

use bwap_runtime::campaign::faults::ALL_KINDS;
use bwap_runtime::{FaultKind, FaultPlan};
use bwap_suite::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;

/// A small but real matrix: two policies and two DWP points give dedup
/// classes, error fan-out and cache traffic something to act on.
fn chaos_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::new("chaos", machines::machine_b())
        .workloads(vec![workloads::streamcluster().scaled_down(32.0)])
        .policies(vec![
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::Bwap(BwapConfig::default()),
        ])
        .scenarios(vec![ScenarioKind::Standalone])
        .worker_counts(vec![1])
        .dwp_grid(vec![DwpPoint::AsConfigured, DwpPoint::Static(0.5)])
        .seed(seed)
}

fn tmp(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bwap-chaos-{tag}-{case}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `--faults` grammar round-trips: any plan — random rule set in
    /// random construction order, random seed — serializes via
    /// `FaultPlan::to_spec` to a string that parses back (under an
    /// unrelated default seed) into a plan with the same seed, the same
    /// canonical form, and bit-identical decisions for every kind. This
    /// is what makes a logged spec string a complete replay coordinate.
    #[test]
    fn fault_spec_grammar_round_trips(
        rules in prop::collection::vec((0usize..ALL_KINDS.len(), 0.0f64..1.0, 0u64..500), 0..8),
        seed in 0u64..1_000_000,
        other_default in 0u64..1_000,
    ) {
        let mut plan = FaultPlan::new(seed);
        for &(k, rate, param) in &rules {
            plan = plan.with_param(ALL_KINDS[k], rate, param);
        }
        let spec = plan.to_spec();
        let back = FaultPlan::parse(&spec, other_default)
            .unwrap_or_else(|e| panic!("canonical spec {spec:?} must re-parse: {e}"));
        prop_assert_eq!(back.seed(), plan.seed(), "seed survives in {}", &spec);
        prop_assert_eq!(back.to_spec(), spec.clone(), "to_spec is a parse fixpoint");
        prop_assert_eq!(back.is_empty(), plan.is_empty());
        prop_assert_eq!(back.recoverable(), plan.recoverable());
        for kind in ALL_KINDS {
            for key in ["0123456789abcdef", "cell-key", "k7"] {
                prop_assert_eq!(
                    back.decide(kind, key),
                    plan.decide(kind, key),
                    "decision drift for {:?} on {:?} via {}",
                    kind, key, &spec
                );
            }
        }
    }

    /// Out-of-range rates are rejected with the typed rate error, on
    /// either side of [0, 1].
    #[test]
    fn fault_rates_outside_unit_interval_are_rejected(
        above in 1.0001f64..1_000.0,
        below in -1_000.0f64..-0.0001,
    ) {
        for rate in [above, below] {
            let err = FaultPlan::parse(&format!("cache-flip={rate}"), 0).unwrap_err();
            prop_assert!(err.contains("bad fault rate"), "{rate}: {err}");
        }
    }
}

/// Each malformed spec shape gets its own typed, term-naming error — the
/// CLI surfaces these verbatim, so they must stay diagnostic.
#[test]
fn fault_spec_errors_name_the_offending_term() {
    for (spec, needle) in [
        ("warp=0.5", "unknown fault kind"),
        // A retired label too: an old chaos script fails loudly.
        ("disconnect=0.5", "unknown fault kind"),
        ("cache-flip", "bad fault term"),
        ("cache-flip=half", "bad fault rate"),
        ("cell-delay=0.5:soon", "bad fault param"),
        ("seed=banana", "bad fault seed"),
    ] {
        let err = FaultPlan::parse(spec, 0).unwrap_err();
        assert!(err.contains(needle), "{spec:?}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random recoverable fault plans against the in-process pipeline
    /// (cache corruption, journal loss, delayed cells): the campaign
    /// always completes and its deterministic bytes never move. A warm
    /// rerun over the chaos-scarred cache directory is identical too —
    /// corrupted entries degrade to misses, never to wrong results.
    #[test]
    fn recoverable_fault_plans_never_change_the_report(
        plan_seed in 0u64..10_000,
        torn in 0.0f64..1.0,
        flip in 0.0f64..1.0,
        journal in 0.0f64..1.0,
        delay in 0.0f64..1.0,
    ) {
        let spec = chaos_spec(41);
        let golden = run_campaign(&spec).deterministic_json();
        let dir = tmp("local", plan_seed);
        let plan = FaultPlan::new(plan_seed)
            .with(FaultKind::CacheTorn, torn)
            .with(FaultKind::CacheFlip, flip)
            .with(FaultKind::JournalDrop, journal)
            .with_param(FaultKind::CellDelay, delay, 2);
        let cfg = CampaignConfig {
            cache_dir: Some(dir.clone()),
            faults: Some(plan),
            ..Default::default()
        };
        let chaos = run_campaign_with(&spec, &cfg);
        prop_assert_eq!(chaos.deterministic_json(), golden.clone());
        let warm = run_campaign_with(&spec, &cfg);
        prop_assert_eq!(warm.deterministic_json(), golden);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// CellPanic is the one non-recoverable fault: with dedup off (so the
    /// fault keys on each cell's own key), exactly the cells the plan
    /// selects become error cells carrying the panic message, every other
    /// cell completes with results identical to the fault-free baseline —
    /// and the chaos run itself is replayable bit-for-bit.
    #[test]
    fn panicking_cells_become_error_cells_while_others_complete(
        plan_seed in 0u64..10_000,
        rate in 0.05f64..0.95,
    ) {
        let spec = chaos_spec(47);
        let baseline = run_campaign(&spec);
        let plan = FaultPlan::new(plan_seed).with(FaultKind::CellPanic, rate);
        let cfg = CampaignConfig { dedup: false, faults: Some(plan.clone()), ..Default::default() };
        let chaos = run_campaign_with(&spec, &cfg);
        prop_assert_eq!(baseline.cells.len(), chaos.cells.len());
        for (b, c) in baseline.cells.iter().zip(&chaos.cells) {
            prop_assert_eq!(&b.key, &c.key);
            let hit = plan.decide(FaultKind::CellPanic, &c.key).is_some();
            match &c.outcome {
                Err(e) => {
                    prop_assert!(hit, "cell {} errored without a panic fault: {e}", c.key);
                    prop_assert!(e.contains("cell panicked"), "{e}");
                    prop_assert!(e.contains(&c.key), "panic message names the victim: {e}");
                }
                Ok(r) => {
                    prop_assert!(!hit, "cell {} ignored its panic fault", c.key);
                    let br = b.result().expect("baseline cell succeeds");
                    prop_assert_eq!(br.exec_time_s.to_bits(), r.exec_time_s.to_bits());
                }
            }
        }
        let again = run_campaign_with(&spec, &cfg);
        prop_assert_eq!(chaos.deterministic_json(), again.deterministic_json());
    }
}
