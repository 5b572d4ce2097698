//! The benchmark's own checks, on the workloads exactly as a run measures
//! them: every cell matches the committed reference digests, every count
//! a traced run reports repeats exactly, every replay is faithful, and
//! `BENCHMARK.json` names exactly the metrics the program prints.

use bwap_perfbench::workload::Workload;
use bwap_perfbench::{run, Options, END_TO_END, PER_LAYER};
use bwap_workloads::json::Json;
use std::path::PathBuf;

fn traced_run(workload: Workload, tag: &str) -> Vec<(&'static str, &'static str, f64)> {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{}-{tag}-{}",
        workload.name(),
        std::process::id()
    ));
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace: true,
        threads: 2,
        work_dir: work_dir.clone(),
    };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome.unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(outcome.failed, 0, "{}: {:?}", workload.name(), outcome.failures);
    assert!(outcome.attempted > 0);
    outcome.metrics
}

/// Counts (and byte sizes) are work done, never time: two runs must
/// agree exactly, so a later change can claim a count.
fn counts(metrics: &[(&'static str, &'static str, f64)]) -> Vec<(&'static str, f64)> {
    metrics.iter().filter(|(_, u, _)| *u == "count" || *u == "B").map(|&(n, _, v)| (n, v)).collect()
}

fn value(metrics: &[(&'static str, &'static str, f64)], name: &str) -> f64 {
    metrics.iter().find(|(n, _, _)| *n == name).unwrap_or_else(|| panic!("no metric {name}")).2
}

fn check_workload(workload: Workload) -> Vec<(&'static str, &'static str, f64)> {
    let a = traced_run(workload, "a");
    let b = traced_run(workload, "b");
    assert_eq!(counts(&a), counts(&b), "{}: counts differ between runs", workload.name());
    assert_eq!(value(&a, "harness.replay_mismatches"), 0.0, "{}", workload.name());
    assert_eq!(value(&a, "harness.failed_frac"), 0.0, "{}", workload.name());
    let names: Vec<&str> = a.iter().map(|m| m.0).collect();
    assert_eq!(names, PER_LAYER.map(|m| m.0));
    a
}

#[test]
fn tiered_migrate_counts_repeat_and_migrations_drain() {
    let m = check_workload(Workload::TieredMigrate);
    assert!(value(&m, "numasim.epochs_drain") > 0.0);
    assert!(value(&m, "numasim.pages_migrated") > 0.0);
    assert!(value(&m, "runtime.daemon.ticks") > 0.0);
}

#[test]
fn cosched_grid_counts_repeat_and_the_cache_splits_evenly() {
    let m = check_workload(Workload::CoschedGrid);
    // Cold run stores every class, warm run loads every class.
    let classes = value(&m, "runtime.campaign.classes");
    assert_eq!(value(&m, "runtime.campaign.cache_hits") * 2.0, classes);
    assert_eq!(value(&m, "runtime.campaign.cells"), 2.0 * classes, "dedup halves the grid");
}

#[test]
fn fleet_arrivals_counts_repeat_and_nothing_migrates() {
    let m = check_workload(Workload::FleetArrivals);
    assert!(value(&m, "runtime.fleet.machine_epochs") > 0.0);
    assert_eq!(value(&m, "numasim.pages_migrated"), 0.0);
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to this directory");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let pairs = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} is an array"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(pairs("end_to_end"), expect(&END_TO_END));
    assert_eq!(pairs("per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = pairs("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));
}
