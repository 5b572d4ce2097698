//! Ad-hoc experiment campaigns from the command line: declare the matrix
//! as flags, let the engine fan it out, get a JSON report under
//! `results/`.
//!
//! ```text
//! cargo run --release -p bwap-bench --bin campaign -- \
//!     --machine b --workloads SC,OC --policies uniform-workers,bwap \
//!     --scenarios standalone,coscheduled --workers 1,2 \
//!     --dwps online,0.0,0.5 --seed 42 --threads 8 --quick
//! ```
//!
//! Every axis defaults to a sensible singleton; `--quick` scales the
//! workloads down ~8x for smoke runs. The summary table prints execution
//! times per cell; the full per-cell data (chosen DWPs, stall fractions,
//! migrations, traffic, per-cell seeds) is in the JSON report.
//!
//! `--spec fig1a|fig4|table1|fig_tiered|fig_phases|fig_fleet|dwp_dedup` renders a
//! canned experiment campaign instead of an ad-hoc matrix (`fig_tiered`
//! is the heterogeneous-tier scenario on the CPU-less-expander machine),
//! and `--out DIR` redirects the report from `results/` — for CI artifact
//! collection and parallel local runs.
//!
//! `--trace DIR` additionally records every cell as a Chrome-trace file
//! `trace-<cell key>.json` in `DIR`, loadable in Perfetto or
//! `chrome://tracing` and linked from the report's `trace_path` fields
//! (see `docs/TRACING.md`). Tracing never changes results.
//!
//! `--cache-dir DIR` memoizes cell outcomes on disk by content hash: a
//! warm rerun (or a killed campaign restarted) replays every stored cell
//! and executes only the remainder, byte-identically. `--dedup off`
//! disables the exact intra-campaign deduplication (on by default; see
//! `docs/PERFORMANCE.md`). Descriptors leave the cell seed out, so
//! sub-campaigns run on different machines against one shared
//! `--cache-dir` fill it for the full spec, which then replays every
//! cell (`docs/ROBUSTNESS.md`). `--deterministic` additionally writes the
//! volatile-free report (`*.deterministic.json`) for byte-for-byte
//! comparison in CI. A report that cannot be written, or a `--cache-dir`
//! that cannot be created, is reported as `<path>: <error>` with exit 1.

use bwap_bench::cli::SpecArgs;
use bwap_bench::{fail, results_dir, ResultTable};
use bwap_runtime::{run_campaign_with, CampaignConfig};
use std::path::PathBuf;

/// The largest `--threads` accepted. The executor starts one OS thread
/// per executed class up to the requested count, so an unbounded value
/// could ask the OS for a thread per cell of a large campaign.
const MAX_THREADS: usize = 1024;

fn usage() -> ! {
    eprintln!(
        "usage: campaign [--name NAME] [--machine a|b|tiered] [--workloads SC,OC,...|all]
                [--policies first-touch,uniform-workers,uniform-all,autonuma,bwap-uniform,bwap,bwap-adaptive]
                [--phased SC.FLIP,FT.SWING,OC.SWING] [--phase-periods 10,30]
                [--scenarios standalone,coscheduled] [--workers 1,2,...]
                [--dwps online,0.0,0.5,...] [--fleet b,tiered,...]
                [--schedulers round-robin,least-loaded,tier-aware]
                [--arrival-rates 0.5,2,...] [--fleet-jobs N]
                [--seed N] [--threads N]
                [--engine stepped|event] [--out DIR] [--trace DIR]
                [--cache-dir DIR] [--dedup on|off]
                [--deterministic] [--probe] [--quick]
       campaign --spec fig1a|fig4|table1|fig_tiered|fig_phases|fig_fleet|dwp_dedup
                [--seed N]
                [--threads N] [--engine stepped|event] [--out DIR] [--trace DIR]
                [--cache-dir DIR] [--dedup on|off]
                [--deterministic] [--quick]

--spec renders a canned experiment campaign (its axes are fixed by the
spec); all other axis flags only apply to ad-hoc campaigns. --phased adds
canned phase-structured workloads; --phase-periods overrides their phase
durations (seconds). --engine selects the simulator's time engine (results
are bit-identical; `event` strides over quiescent intervals — see
docs/ARCHITECTURE.md). --trace writes one Chrome-trace file per cell into
DIR (Perfetto / chrome://tracing; see docs/TRACING.md). --cache-dir
memoizes cell outcomes on disk (warm reruns, kill-and-resume, and
sub-campaigns run on other machines against a shared DIR all replay
byte-identically; see docs/PERFORMANCE.md and docs/ROBUSTNESS.md);
--dedup off disables exact intra-campaign deduplication. --fleet appends
a fleet axis: an open-loop Poisson stream of jobs drawn from the plain
workload catalog arrives at the listed machine mix, swept over
--schedulers and --arrival-rates (jobs/s), with --fleet-jobs jobs per
stream; fleet cells report slowdown-vs-solo tail percentiles (see
docs/FLEET.md). --threads caps the executor's worker threads (at most
1024; default one per core)."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sa = SpecArgs::default();
    let mut threads = None;
    let mut out: Option<PathBuf> = None;
    let mut trace_dir: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut dedup = true;
    let mut deterministic = false;

    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => {
                    eprintln!("{flag} needs a value");
                    usage()
                }
            }
        };
        match flag.as_str() {
            "--threads" => {
                let v = value("--threads");
                match v.parse::<usize>() {
                    Ok(n) if n <= MAX_THREADS => threads = Some(n),
                    _ => {
                        eprintln!("bad --threads {v:?} (expected at most {MAX_THREADS})");
                        usage()
                    }
                }
            }
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--trace" => trace_dir = Some(PathBuf::from(value("--trace"))),
            "--cache-dir" => cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--dedup" => {
                dedup = match value("--dedup").as_str() {
                    "on" => true,
                    "off" => false,
                    other => {
                        eprintln!("bad --dedup {other:?} (expected on or off)");
                        usage()
                    }
                }
            }
            "--deterministic" => deterministic = true,
            other => {
                let mut take = || value(other);
                match sa.apply(other, &mut take) {
                    Ok(true) => {}
                    Ok(false) => {
                        eprintln!("unknown flag {other:?}");
                        usage()
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        usage()
                    }
                }
            }
        }
    }

    let spec = sa.build().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    // The library runs cold when the cache directory cannot be created;
    // on the command line that is a mistake to report, not to absorb.
    if let Some(dir) = &cache_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| fail(dir, e));
    }
    let n_cells = spec.cells().len();
    println!("campaign {:?}: {n_cells} cells on {}", spec.name, spec.machine.name());

    let cfg = CampaignConfig { threads, trace_dir, dedup, cache_dir };
    let report = run_campaign_with(&spec, &cfg);
    println!(
        "executed {} of {} cells ({} served by dedup or cache)",
        report.executed_cells,
        report.cells.len(),
        report.cells.len() - report.executed_cells
    );

    let mut table = ResultTable::new(
        &format!("exec time [s] per cell, campaign {:?}", report.campaign),
        vec!["exec time [s]".into()],
    );
    let mut failed = 0usize;
    for c in &report.cells {
        let label = &c.key;
        match &c.outcome {
            Ok(r) => table.push_row(label, vec![r.exec_time_s]),
            Err(e) => {
                failed += 1;
                eprintln!("cell {label}: ERROR: {e}");
            }
        }
    }
    if !table.rows.is_empty() {
        println!("{table}");
    }
    if let Some(m) = &report.bw_matrix {
        println!("probed bandwidth matrix (GB/s):\n{m}");
    }
    println!(
        "{} cells in {:.2}s on {} threads",
        report.cells.len(),
        report.wall_time_s,
        report.threads
    );
    let dir = out.unwrap_or_else(results_dir);
    let path = report.write_json_in(&dir).unwrap_or_else(|e| fail(&dir, e));
    println!("wrote {}", path.display());
    if deterministic {
        let det_path = path.with_extension("deterministic.json");
        std::fs::write(&det_path, report.deterministic_json())
            .unwrap_or_else(|e| fail(&det_path, e));
        println!("wrote {}", det_path.display());
    }
    let traces = report.cells.iter().filter(|c| c.trace_path.is_some()).count();
    if traces > 0 {
        println!("wrote {traces} trace file(s)");
    }
    if failed > 0 {
        eprintln!("{failed} cell(s) failed");
        std::process::exit(1);
    }
}
