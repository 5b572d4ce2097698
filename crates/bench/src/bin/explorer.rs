//! Render a campaign report as a static HTML explorer page.
//!
//! ```text
//! cargo run --release -p bwap-bench --bin explorer -- results/fig4.campaign.json
//! ```
//!
//! Writes `<stem>.explorer.html` next to the report (override with
//! `--out PATH`): one self-contained page — no network, no external
//! JavaScript — showing the evaluation grid with per-row heat coloring
//! and, when the campaign ran with `--trace`, drill-down links to each
//! cell's Chrome-trace file. See `docs/TRACING.md`.

use bwap_bench::fail;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: explorer REPORT.campaign.json [--out PATH.html]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut report: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => match it.next() {
                Some(p) => out = Some(PathBuf::from(p)),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            p if report.is_none() => report = Some(PathBuf::from(p)),
            _ => usage(),
        }
    }
    let Some(report) = report else { usage() };
    let out = out.unwrap_or_else(|| {
        // fig4.campaign.json -> fig4.explorer.html (plain stem otherwise).
        let stem = report
            .file_name()
            .and_then(|n| n.to_str())
            .map(|n| n.strip_suffix(".campaign.json").unwrap_or(n.trim_end_matches(".json")))
            .unwrap_or("report");
        report.with_file_name(format!("{stem}.explorer.html"))
    });
    let text = std::fs::read_to_string(&report).unwrap_or_else(|e| fail(&report, e));
    let html_dir = out.parent().filter(|p| !p.as_os_str().is_empty()).map(PathBuf::from);
    let html = bwap_bench::explorer::render(&text, html_dir.as_deref())
        .unwrap_or_else(|e| fail(&report, e));
    std::fs::write(&out, html).unwrap_or_else(|e| fail(&out, e));
    println!("wrote {}", out.display());
}
