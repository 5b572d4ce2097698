//! Experiment harness: the paper's figures, tables and ablations on top
//! of the campaign engine.
//!
//! * [`experiments`] — every evaluation experiment, declared as
//!   `CampaignSpec`s where the experiment is a scenario matrix and
//!   rendered into [`ResultTable`]s.
//! * [`report`] — ASCII/CSV result tables.
//! * [`doc_check`] — the offline markdown link-and-anchor checker behind
//!   the `doc_check` CI gate and `tests/docs_links.rs`.
//! * [`explorer`] — the static-HTML campaign explorer (the `explorer`
//!   binary renders a report's evaluation grid with drill-down links to
//!   per-cell Chrome-trace files).
//! * [`tracecheck`] — the strict `trace_event` contract validator behind
//!   the `tracecheck` binary and `tests/tracing.rs`.
//! * [`cli`] — the campaign-spec flag vocabulary behind the `campaign`
//!   binary: textual axis flags in, a validated `CampaignSpec` out.
//! * The per-figure binaries in `src/bin/` are thin wrappers: declare a
//!   spec, run the campaign, print the tables, save the artifacts. The
//!   `campaign` binary runs ad-hoc specs straight from the command line
//!   (`--trace DIR` records per-cell Chrome traces, `docs/TRACING.md`;
//!   `--cache-dir DIR` memoizes cells on disk, and a directory shared
//!   between machines spreads one campaign over them,
//!   `docs/ROBUSTNESS.md`).
//!
//! # Examples
//!
//! Tables render for terminals and normalize into the paper's speedup
//! semantics without re-running anything:
//!
//! ```
//! use bwap_bench::ResultTable;
//!
//! let mut times = ResultTable::new(
//!     "exec time [s]",
//!     vec!["uniform-workers".into(), "bwap".into()],
//! );
//! times.push_row("SC", vec![10.0, 8.0]);
//!
//! // Fig. 2/3 plot speedups versus the incumbent policy:
//! let speedups = times.normalized_to("uniform-workers");
//! assert_eq!(speedups.get("SC", "bwap"), Some(1.25));
//! assert!(speedups.to_csv().starts_with("label,uniform-workers,bwap"));
//! ```

pub mod cli;
pub mod doc_check;
pub mod experiments;
pub mod explorer;
pub mod report;
pub mod tracecheck;

pub use bwap_runtime::{run_parallel, run_parallel_with};
pub use report::ResultTable;

use std::path::PathBuf;

/// Directory where binaries drop artifacts (`results/` at the repo root,
/// overridable with `BWAP_RESULTS_DIR`) — shared with the campaign
/// engine's JSON reports.
pub fn results_dir() -> PathBuf {
    bwap_runtime::campaign::results_dir()
}

/// Write a CSV artifact, creating the results directory if needed.
/// Returns the path written.
pub fn save_csv(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    std::fs::write(&path, contents)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn save_csv_roundtrip() {
        let dir = std::env::temp_dir().join("bwap-bench-test");
        std::env::set_var("BWAP_RESULTS_DIR", &dir);
        let p = save_csv("probe.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(p).unwrap(), "a,b\n1,2\n");
        std::env::remove_var("BWAP_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
