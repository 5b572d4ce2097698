//! Benchmark entry point.
//!
//! ```text
//! bwap-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! bwap-perfbench --write-refs <file>
//! ```
//!
//! A measuring run prints a human-readable summary on stderr and, as the
//! last line of stdout, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--write-refs` regenerates the reference
//! digests the correctness check compares against.

use bwap_perfbench::check::{reference_lines, DEFAULT_SEED};
use bwap_perfbench::pipeline::run_pass;
use bwap_perfbench::workload::{set_up, warm_profile_book, Workload};
use bwap_perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main(args: &[String]) -> Result<(), String> {
    let flag = |name: &str| -> Option<&str> {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    // Cell caches live next to the build, inside the checkout.
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let work_dir = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no parent directory")?
        .join("perfbench-work")
        .join(std::process::id().to_string());

    if let Some(path) = flag("--write-refs") {
        return write_refs(&PathBuf::from(path), threads);
    }
    let workload_name = flag("--workload").ok_or("missing --workload")?;
    let workload =
        Workload::parse(workload_name).ok_or(format!("unknown workload {workload_name:?}"))?;
    let seed = flag("--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag("--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("--seconds must be a non-negative number, got {seconds}"));
    }
    let trace = match flag("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let opts = Options { workload, seed, seconds, trace, threads, work_dir: work_dir.clone() };
    let outcome = run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = outcome?;

    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let summary: Vec<String> =
        outcome.metrics.iter().map(|(n, u, v)| format!("{n}={v} {u}")).collect();
    eprintln!(
        "{} seed={seed} threads={threads} (available_parallelism {}) pass walls {:.3?} \
         traced_passes={} failed_frac={} ({}/{} cells)\n  {}",
        workload.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        outcome.pass_walls,
        outcome.traced_passes,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted,
        summary.join("\n  ")
    );
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_number(*v)))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    Ok(())
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Run every workload once at [`DEFAULT_SEED`] and once at the next seed,
/// and write the reference digests.
fn write_refs(path: &PathBuf, threads: usize) -> Result<(), String> {
    let mut out = String::from(
        "# Reference digests of every cell's deterministic record (derived seed\n\
         # zeroed), generated by `bwap-perfbench --write-refs`.\n\
         # workload\tseed (* = every seed)\tcell key\tdigest\n",
    );
    for w in Workload::ALL {
        let mut reports = Vec::new();
        for seed in [DEFAULT_SEED, DEFAULT_SEED + 1] {
            let setup = set_up(w, seed)?;
            warm_profile_book(&setup)?;
            let report = run_pass(&setup.spec, threads, None).reports.remove(0);
            if let Some(c) = report.cells.iter().find(|c| c.outcome.is_err()) {
                return Err(format!(
                    "{}: cell {} errored; not writing references",
                    w.name(),
                    c.key
                ));
            }
            reports.push(report);
        }
        out.push_str(&reference_lines(w.name(), &reports[0], &reports[1]));
        eprintln!("{}: {} cells", w.name(), reports[0].cells.len());
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}
