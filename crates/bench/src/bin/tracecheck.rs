//! Validate Chrome-trace files against the contract `docs/TRACING.md`
//! documents (the strict check Perfetto itself never performs).
//!
//! ```text
//! cargo run --release -p bwap-bench --bin tracecheck -- results/traces
//! cargo run --release -p bwap-bench --bin tracecheck -- trace-a.json trace-b.json
//! cargo run --release -p bwap-bench --bin tracecheck -- --report results/fig_phases.json
//! ```
//!
//! Directories are expanded to their `*.json` entries. Prints one stats
//! line per valid trace and `<path>: <error>` on stderr per unreadable or
//! malformed one; exits 1 if any trace failed or a path cannot be read.
//!
//! `--report` switches to report mode: every cell of the campaign report
//! must either link a valid trace file or be marked `cache_hit` (a cell
//! replayed from the on-disk cell cache never ran, so it legally has no
//! trace — see `docs/PERFORMANCE.md`).

use bwap_bench::fail;
use std::path::{Path, PathBuf};

fn collect(arg: &str, files: &mut Vec<PathBuf>) {
    let p = Path::new(arg);
    if p.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(p)
            .unwrap_or_else(|e| fail(arg, e))
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        entries.sort();
        files.extend(entries);
    } else {
        files.push(p.to_path_buf());
    }
}

fn check_report(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(path, e));
    match bwap_bench::tracecheck::check_report(&text, |trace_path| {
        std::fs::read_to_string(trace_path).map_err(|e| format!("read {trace_path}: {e}"))
    }) {
        Ok(out) => println!(
            "{path}: ok — {} traced cell(s) validated, {} served from cache (no trace)",
            out.validated, out.cache_exempt
        ),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: tracecheck FILE.json|DIR ... | tracecheck --report REPORT.json");
        std::process::exit(2);
    }
    if args[0] == "--report" {
        if args.len() != 2 {
            eprintln!("usage: tracecheck --report REPORT.json");
            std::process::exit(2);
        }
        check_report(&args[1]);
        return;
    }
    let mut files = Vec::new();
    for a in &args {
        collect(a, &mut files);
    }
    if files.is_empty() {
        eprintln!("no trace files found");
        std::process::exit(1);
    }
    let mut failed = 0usize;
    for f in &files {
        let text = match std::fs::read_to_string(f) {
            Ok(text) => text,
            Err(e) => {
                failed += 1;
                eprintln!("{}: {e}", f.display());
                continue;
            }
        };
        match bwap_bench::tracecheck::validate(&text) {
            Ok(s) => println!(
                "{}: ok — {} events, {} slices, {} instants, {} counters, {} flows \
                 ({} open), {} tracks, {} dropped",
                f.display(),
                s.events,
                s.slices,
                s.instants,
                s.counters,
                s.flows,
                s.open_flows,
                s.tracks,
                s.dropped
            ),
            Err(e) => {
                failed += 1;
                eprintln!("{}: INVALID — {e}", f.display());
            }
        }
    }
    if failed > 0 {
        eprintln!("{failed} of {} trace(s) invalid", files.len());
        std::process::exit(1);
    }
}
