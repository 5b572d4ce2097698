//! Bad input at the command line is an error, never a panic or a hang:
//! every binary prints `<path>: <error>` on stderr and exits 1 when a
//! path cannot be read or written or a report cannot be rendered (a
//! panic would exit 101 with a backtrace hint instead); `campaign` exits
//! 2 on a flag value it cannot run and reports a cell it cannot simulate
//! as a failed cell.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bwap-cli-errors-{tag}-{}", std::process::id()))
}

/// A path inside a directory that does not exist.
fn missing(name: &str) -> PathBuf {
    tmp("absent").join(name)
}

/// A path below a regular file, which no directory can be created at.
fn under_a_file(tag: &str) -> (PathBuf, PathBuf) {
    let file = tmp(tag);
    std::fs::write(&file, "a file, not a directory").unwrap();
    let below = file.join("sub");
    (file, below)
}

/// Run `cmd`; assert it exits 1 and names `path` on stderr.
fn assert_reports(cmd: &mut Command, path: &Path) {
    let out = cmd.output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{cmd:?}: stderr: {stderr}");
    assert!(stderr.contains(&path.display().to_string()), "{cmd:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{cmd:?}: stderr: {stderr}");
}

fn explorer() -> Command {
    Command::new(env!("CARGO_BIN_EXE_explorer"))
}

fn tracecheck() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tracecheck"))
}

fn campaign() -> Command {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
}

#[test]
fn explorer_reports_a_missing_report() {
    let report = missing("report.campaign.json");
    assert_reports(explorer().arg(&report), &report);
}

#[test]
fn explorer_reports_a_report_that_is_not_json() {
    let dir = tmp("not-json");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("garbage.campaign.json");
    std::fs::write(&report, "this is not JSON").unwrap();
    let out = dir.join("garbage.explorer.html");
    assert_reports(explorer().arg(&report).arg("--out").arg(&out), &report);
    assert!(!out.exists(), "no page is written for an unreadable report");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explorer_reports_a_report_nested_too_deep() {
    // Deep enough to overflow the stack of a reader that recursed once
    // per level, which would abort the process instead of exiting 1.
    let dir = tmp("deep");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("deep.campaign.json");
    std::fs::write(&report, "[".repeat(100_000)).unwrap();
    let out = dir.join("deep.explorer.html");
    assert_reports(explorer().arg(&report).arg("--out").arg(&out), &report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracecheck_reports_a_missing_trace() {
    let trace = missing("trace.json");
    assert_reports(tracecheck().arg(&trace), &trace);
}

#[test]
fn tracecheck_reports_a_missing_report() {
    let report = missing("report.campaign.json");
    assert_reports(tracecheck().arg("--report").arg(&report), &report);
}

#[test]
fn campaign_rejects_fleet_job_counts_past_the_ceiling() {
    // Both used to fail while building cell descriptors, before any cell
    // ran: the first by exhausting memory (exit 134), the second with a
    // capacity-overflow panic (exit 101).
    for jobs in ["100000000", "18446744073709551615"] {
        let args = ["--fleet", "b", "--fleet-jobs", jobs, "--quick"];
        let out = campaign().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("bad --fleet-jobs"), "{args:?}: stderr: {stderr}");
    }
}

#[test]
fn campaign_rejects_thread_counts_past_the_ceiling() {
    // Both used to pass: the executor clamps the count only to the
    // number of classes. Only the parser runs here; no thread starts.
    for threads in ["1025", "18446744073709551615"] {
        let out = campaign().args(["--quick", "--threads", threads]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--threads {threads}: stderr: {stderr}");
        let want = format!("bad --threads \"{threads}\" (expected at most 1024)");
        assert!(stderr.contains(&want), "--threads {threads}: stderr: {stderr}");
    }
}

#[test]
fn campaign_reports_an_unwritable_output_directory() {
    let (file, out) = under_a_file("campaign-out");
    assert_reports(campaign().arg("--quick").arg("--out").arg(&out), &out);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn campaign_reports_an_unusable_cache_directory() {
    // The run used to go ahead without the cache, exit 0 and say
    // nothing, so every rerun executed every cell again.
    let (file, cache) = under_a_file("campaign-cache");
    let out = tmp("campaign-cache-out");
    assert_reports(
        campaign().arg("--quick").arg("--cache-dir").arg(&cache).arg("--out").arg(&out),
        &cache,
    );
    assert!(!out.exists(), "no cell runs and no report is written");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn campaign_reports_an_unwritable_deterministic_report() {
    // A directory squats on the deterministic report's path, so only
    // the second write fails.
    let dir = tmp("deterministic");
    let det = dir.join("campaign.campaign.deterministic.json");
    std::fs::create_dir_all(&det).unwrap();
    assert_reports(campaign().args(["--quick", "--deterministic", "--out"]).arg(&dir), &det);
    assert!(dir.join("campaign.campaign.json").is_file(), "the full report is written first");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn paper_reports_an_unwritable_results_directory() {
    let (file, results) = under_a_file("paper-results");
    let mut paper = Command::new(env!("CARGO_BIN_EXE_paper"));
    assert_reports(paper.arg("--quick").env("BWAP_RESULTS_DIR", &results), &results);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn campaign_fails_fleet_cells_whose_job_arrives_past_the_time_limit() {
    // At 1e-300 jobs/s the one job arrives near 1e300 s; the fleet used to
    // step every machine toward it epoch by epoch and never finish. Each
    // default scheduler makes one fleet cell, and each fails; the plain
    // standalone cell still runs.
    let dir = tmp("far-arrival");
    let args = ["--fleet", "b", "--fleet-jobs", "1", "--arrival-rates", "1e-300", "--quick"];
    let out = campaign().args(args).arg("--out").arg(&dir).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.matches("is past the 3600 s simulation limit").count(), 3, "{stderr}");
    assert!(stderr.contains("3 cell(s) failed"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
