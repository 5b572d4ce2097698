//! Bad input at the command line is an error, never a panic or a hang:
//! `explorer` and `tracecheck` print `<path>: <error>` on stderr and exit
//! 1 when a path cannot be read or a report cannot be rendered (a panic
//! would exit 101 with a backtrace hint instead); `campaign` exits 2 on a
//! flag value it cannot run and reports a cell it cannot simulate as a
//! failed cell.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bwap-cli-errors-{tag}-{}", std::process::id()))
}

/// A path inside a directory that does not exist.
fn missing(name: &str) -> PathBuf {
    tmp("absent").join(name)
}

/// Run `bin` with `args`; assert it exits 1 and names `path` on stderr.
fn assert_reports(bin: &str, args: &[&str], path: &Path) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{bin} {args:?}: stderr: {stderr}");
    assert!(stderr.contains(&path.display().to_string()), "{bin} {args:?}: stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: stderr: {stderr}");
}

#[test]
fn explorer_reports_a_missing_report() {
    let report = missing("report.campaign.json");
    assert_reports(env!("CARGO_BIN_EXE_explorer"), &[report.to_str().unwrap()], &report);
}

#[test]
fn explorer_reports_a_report_that_is_not_json() {
    let dir = tmp("not-json");
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("garbage.campaign.json");
    std::fs::write(&report, "this is not JSON").unwrap();
    let out = dir.join("garbage.explorer.html");
    let args = [report.to_str().unwrap(), "--out", out.to_str().unwrap()];
    assert_reports(env!("CARGO_BIN_EXE_explorer"), &args, &report);
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
    let args = [report.to_str().unwrap(), "--out", out.to_str().unwrap()];
    assert_reports(env!("CARGO_BIN_EXE_explorer"), &args, &report);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracecheck_reports_a_missing_trace() {
    let trace = missing("trace.json");
    assert_reports(env!("CARGO_BIN_EXE_tracecheck"), &[trace.to_str().unwrap()], &trace);
}

#[test]
fn tracecheck_reports_a_missing_report() {
    let report = missing("report.campaign.json");
    let args = ["--report", report.to_str().unwrap()];
    assert_reports(env!("CARGO_BIN_EXE_tracecheck"), &args, &report);
}

#[test]
fn campaign_rejects_fleet_job_counts_past_the_ceiling() {
    // Both used to fail while building cell descriptors, before any cell
    // ran: the first by exhausting memory (exit 134), the second with a
    // capacity-overflow panic (exit 101).
    for jobs in ["100000000", "18446744073709551615"] {
        let args = ["--fleet", "b", "--fleet-jobs", jobs, "--quick"];
        let out = Command::new(env!("CARGO_BIN_EXE_campaign")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains("bad --fleet-jobs"), "{args:?}: stderr: {stderr}");
    }
}

#[test]
fn campaign_rejects_cell_delays_past_the_ceiling() {
    // A delay of u64::MAX ms used to be accepted, and every cell then
    // slept for it: the campaign never finished.
    let args = ["--quick", "--faults", "cell-delay=1:18446744073709551615"];
    let out = Command::new(env!("CARGO_BIN_EXE_campaign")).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("bad fault param"), "stderr: {stderr}");
}

#[test]
fn campaign_fails_fleet_cells_whose_job_arrives_past_the_time_limit() {
    // At 1e-300 jobs/s the one job arrives near 1e300 s; the fleet used to
    // step every machine toward it epoch by epoch and never finish. Each
    // default scheduler makes one fleet cell, and each fails; the plain
    // standalone cell still runs.
    let dir = tmp("far-arrival");
    let args = ["--fleet", "b", "--fleet-jobs", "1", "--arrival-rates", "1e-300", "--quick"];
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.matches("is past the 3600 s simulation limit").count(), 3, "{stderr}");
    assert!(stderr.contains("3 cell(s) failed"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
