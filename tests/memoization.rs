//! Integration tests for content-addressed campaign memoization: golden
//! byte-identity with dedup on/off and cache cold/warm, kill-and-resume
//! (a partially populated cache completes to the exact same bytes),
//! damaged-cache tolerance, and one campaign split over several runs
//! that share a cache directory.

use bwap_bench::cli::SpecArgs;
use bwap_bench::experiments::{dwp_dedup_spec, fig4_spec};
use bwap_runtime::{run_campaign_with, CampaignConfig, CampaignSpec};
use std::path::{Path, PathBuf};

fn tmp(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bwap-memo-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn det(spec: &CampaignSpec, cfg: &CampaignConfig) -> String {
    run_campaign_with(spec, cfg).deterministic_json()
}

/// The report the rest of the suite sees is invariant under every
/// execution strategy: dedup on (default), dedup off, cold cache, warm
/// cache. `fig4_quick` is a real paper campaign with a genuine overlap
/// axis (the online point repeats nothing, but the static grid re-runs
/// the same tuner-off config at each point for two worker counts).
#[test]
fn fig4_reports_are_invariant_under_dedup_and_cache() {
    let spec = fig4_spec(true);
    let baseline = det(&spec, &CampaignConfig { dedup: false, ..Default::default() });
    assert_eq!(baseline, det(&spec, &CampaignConfig::default()), "dedup on == dedup off");

    let cache_dir = tmp("fig4");
    let cached = CampaignConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };
    assert_eq!(baseline, det(&spec, &cached), "cold cache run");
    let warm = run_campaign_with(&spec, &cached);
    assert_eq!(warm.executed_cells, 0, "warm rerun executes nothing");
    assert!(warm.cells.iter().all(|c| c.cache_hit));
    assert_eq!(baseline, warm.deterministic_json(), "warm cache run");
    let _ = std::fs::remove_dir_all(cache_dir);
}

/// Kill-and-resume: interrupt a campaign (simulated by deleting a subset
/// of its cache entries — exactly the state after a mid-run kill, which
/// only persists completed cells), then resume. The resumed campaign
/// executes only the missing classes and its report is byte-identical.
#[test]
fn killed_campaign_resumes_to_byte_identical_report() {
    let spec = dwp_dedup_spec(true);
    let cache_dir = tmp("resume");
    let cfg = CampaignConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };

    let full = run_campaign_with(&spec, &cfg);
    assert!(full.executed_cells > 0);
    let reference = full.deterministic_json();

    // "Kill" the first run after some cells completed: drop every other
    // stored entry.
    let entries = cache_entries(&cache_dir);
    assert_eq!(entries.len(), full.executed_cells, "one entry per executed class");
    let removed: Vec<&PathBuf> = entries.iter().step_by(2).collect();
    for path in &removed {
        std::fs::remove_file(path).expect("simulate lost entry");
    }

    let resumed = run_campaign_with(&spec, &cfg);
    assert_eq!(
        resumed.executed_cells,
        removed.len(),
        "resume executes exactly the missing classes"
    );
    assert_eq!(reference, resumed.deterministic_json(), "resumed report is byte-identical");
    let _ = std::fs::remove_dir_all(cache_dir);
}

/// The stored `.cell` entries of a cache directory, sorted by name.
fn cache_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cell"))
        .collect();
    entries.sort();
    entries
}

/// Replace the last hex digit of an entry's `exec_time_s` line with a
/// different one. The file stays well-formed text, so only the entry
/// checksum tells it from a stored result that really was this number.
fn change_exec_time_digit(entry: &str) -> String {
    let at = entry.find("\nexec_time_s ").expect("an ok entry") + 1;
    let end = at + entry[at..].find('\n').expect("line end");
    let other = if entry.as_bytes()[end - 1] == b'0' { '1' } else { '0' };
    format!("{}{other}{}", &entry[..end - 1], &entry[end..])
}

/// Cache damage (stray garbage, a torn write, a changed result digit)
/// degrades to re-execution of exactly the damaged entries — never to a
/// wrong or failing report — and the rerun heals the cache.
#[test]
fn corrupt_cache_entries_degrade_to_reexecution() {
    let spec = dwp_dedup_spec(true);
    let cache_dir = tmp("corrupt");
    let cfg = CampaignConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };
    let reference = det(&spec, &cfg);

    let mut damaged = 0;
    for (i, entry) in cache_entries(&cache_dir).iter().enumerate() {
        let text = std::fs::read_to_string(entry).expect("entry");
        let damage = match i % 4 {
            0 => "garbage, not an entry".to_string(),
            1 => text[..text.len() / 3].to_string(),
            2 => change_exec_time_digit(&text),
            _ => continue, // leave valid
        };
        std::fs::write(entry, damage).expect("damage");
        damaged += 1;
    }
    assert!(damaged > 0);

    let recovered = run_campaign_with(&spec, &cfg);
    assert_eq!(recovered.executed_cells, damaged, "exactly the damaged entries re-execute");
    assert!(recovered.cells.iter().all(|c| c.outcome.is_ok()));
    assert_eq!(reference, recovered.deterministic_json());
    let warm = run_campaign_with(&spec, &cfg);
    assert_eq!(warm.executed_cells, 0, "the rerun stored every damaged entry again");
    assert_eq!(reference, warm.deterministic_json());
    let _ = std::fs::remove_dir_all(cache_dir);
}

/// The dedup sweep collapses the `dwp_dedup` campaign's 24 declared cells
/// onto 12 distinct simulations, and a dedup-off run of the same spec
/// executes all 24 — with identical reported results.
#[test]
fn dedup_halves_the_dwp_dedup_campaign() {
    let spec = dwp_dedup_spec(true);
    let on = run_campaign_with(&spec, &CampaignConfig::default());
    let off = run_campaign_with(&spec, &CampaignConfig { dedup: false, ..Default::default() });
    assert_eq!(on.cells.len(), 24);
    assert_eq!(on.executed_cells, 12, "exact dedup finds the 12 equivalence classes");
    assert_eq!(off.executed_cells, 24, "dedup off executes every declared cell");
    assert!(
        on.cells.iter().filter(|c| c.dedup_class.is_some()).count() >= 12 * 2 - 1,
        "shared classes carry provenance"
    );
    assert_eq!(on.deterministic_json(), off.deterministic_json());
}

/// Run every sub-campaign against one shared cache directory — as
/// separate machines would, each with its own slice of the flags — then
/// the full spec. The full run must execute nothing, hit the cache for
/// every cell, and report the bytes of a cacheless run.
fn assert_split_replays(tag: &str, full: &SpecArgs, parts: &[SpecArgs]) {
    let cache_dir = tmp(tag);
    let cfg = CampaignConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };
    for part in parts {
        run_campaign_with(&part.build().expect("sub-campaign spec"), &cfg);
    }
    let spec = full.build().expect("full spec");
    let replay = run_campaign_with(&spec, &cfg);
    assert_eq!(replay.executed_cells, 0, "{tag}: the sub-campaigns filled every class");
    assert!(replay.cells.iter().all(|c| c.cache_hit), "{tag}: every cell replays");
    assert_eq!(
        det(&spec, &CampaignConfig::default()),
        replay.deterministic_json(),
        "{tag}: the merged report is byte-identical to a cacheless run"
    );
    let _ = std::fs::remove_dir_all(cache_dir);
}

/// One ad-hoc sweep spread over two runs by workload: descriptors leave
/// the cell seed out, so the `w1:OC` cell of the full sweep finds the
/// entry the `w0:OC` cell of the OC-only run stored.
#[test]
fn sweep_split_by_workload_replays_from_a_shared_cache() {
    let full = SpecArgs {
        workloads: "SC,OC".into(),
        policies: "uniform-workers,bwap".into(),
        scenarios: "standalone,coscheduled".into(),
        workers: "1,2".into(),
        dwps: "online,0.5".into(),
        seed: 42,
        quick: true,
        ..Default::default()
    };
    let part = |w: &str| SpecArgs { workloads: w.into(), ..full.clone() };
    assert_split_replays("split-workload", &full, &[part("SC"), part("OC")]);
}

/// A fleet sweep spread over three runs along the scheduler and the
/// arrival-rate axes. A fleet cell's arrival stream is drawn from its
/// cell seed, whose key names the machine mix, policy, scheduler and
/// rate — so these splits keep every fleet descriptor of the full spec.
#[test]
fn fleet_split_by_scheduler_and_rate_replays_from_a_shared_cache() {
    let full = SpecArgs {
        workloads: "SC,OC".into(),
        policies: "uniform-workers".into(),
        fleet: "b,tiered".into(),
        schedulers: "round-robin,least-loaded,tier-aware".into(),
        arrival_rates: "0.5,2".into(),
        fleet_jobs: "3".into(),
        seed: 7,
        quick: true,
        ..Default::default()
    };
    let part = |schedulers: &str, rates: &str| SpecArgs {
        schedulers: schedulers.into(),
        arrival_rates: rates.into(),
        ..full.clone()
    };
    assert_split_replays(
        "split-fleet",
        &full,
        &[
            part("round-robin", "0.5,2"),
            part("least-loaded,tier-aware", "0.5"),
            part("least-loaded,tier-aware", "2"),
        ],
    );
}
