//! Correctness check: every cell of every pass is compared against a
//! reference digest of its deterministic record.

use bwap::descriptor::content_hash;
use bwap_runtime::{CampaignReport, CellRecord};
use std::collections::HashMap;

/// Reference digests generated from the benchmark's own output at the
/// default seed (regenerate with `--write-refs`, see the README).
pub const REFERENCES: &str = include_str!("../refs/digests.tsv");

/// The seed references are generated at: `fig_fleet`'s own root seed, so
/// the default fleet workload is exactly the canned campaign.
pub const DEFAULT_SEED: u64 = 7;

/// Digest of one cell's deterministic record, its derived seed zeroed so
/// that a cell whose result does not depend on the root seed has one
/// digest under every seed. The record is serialized by
/// [`CampaignReport::deterministic_json`] as a one-cell report.
pub fn cell_digest(report: &CampaignReport, cell: &CellRecord) -> String {
    let one = CampaignReport {
        seed: 0,
        cells: vec![CellRecord { seed: 0, ..cell.clone() }],
        ..report.clone()
    };
    format!("{:016x}", content_hash(&one.deterministic_json()))
}

/// Parsed reference file: `(workload, seed or "*", cell key) -> digest`.
pub struct References {
    digests: HashMap<(String, String, String), String>,
}

impl References {
    /// Parse the tab-separated reference file (`#` starts a comment line).
    pub fn parse(text: &str) -> Result<References, String> {
        let mut digests = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split('\t').collect();
            let [workload, seed, key, digest] = f[..] else {
                return Err(format!("references line {}: expected 4 tab-separated fields", i + 1));
            };
            digests.insert((workload.into(), seed.into(), key.into()), digest.into());
        }
        Ok(References { digests })
    }

    /// The digest a cell must have: the entry for this exact seed, else
    /// the seed-independent (`*`) entry.
    pub fn expected(&self, workload: &str, seed: u64, key: &str) -> Option<&str> {
        let lookup = |s: &str| self.digests.get(&(workload.into(), s.into(), key.into()));
        lookup(&seed.to_string()).or_else(|| lookup("*")).map(String::as_str)
    }
}

/// Counts cells attempted and failed across every pass of a run. A cell
/// fails if it errored or its digest differs from the reference; a cell
/// with no reference must match its first observed digest in this run.
pub struct Checker {
    refs: References,
    workload: String,
    seed: u64,
    first_seen: HashMap<String, String>,
    /// Cell records checked.
    pub attempted: u64,
    /// Cell records that failed.
    pub failed: u64,
    /// One line per failure (printed to stderr).
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `workload` at `seed` against the built-in references.
    pub fn new(workload: &str, seed: u64) -> Result<Checker, String> {
        Ok(Checker {
            refs: References::parse(REFERENCES)?,
            workload: workload.into(),
            seed,
            first_seen: HashMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
    }

    /// Check every cell of one campaign report.
    pub fn check(&mut self, report: &CampaignReport) {
        for cell in &report.cells {
            self.attempted += 1;
            if let Err(e) = &cell.outcome {
                self.fail(format!("{}: error: {e}", cell.key));
                continue;
            }
            let digest = cell_digest(report, cell);
            let expected = match self.refs.expected(&self.workload, self.seed, &cell.key) {
                Some(d) => d.to_string(),
                None => self.first_seen.entry(cell.key.clone()).or_insert(digest.clone()).clone(),
            };
            if digest != expected {
                self.fail(format!("{}: digest {digest}, expected {expected}", cell.key));
            }
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.failures.push(msg);
    }
}

/// The reference lines for one workload: each cell's digest at
/// [`DEFAULT_SEED`], marked `*` when a second seed gives the same digest.
pub fn reference_lines(
    workload: &str,
    at_default: &CampaignReport,
    at_other: &CampaignReport,
) -> String {
    let other: HashMap<&str, String> =
        at_other.cells.iter().map(|c| (c.key.as_str(), cell_digest(at_other, c))).collect();
    let mut out = String::new();
    for c in &at_default.cells {
        let d = cell_digest(at_default, c);
        let seed = if other.get(c.key.as_str()) == Some(&d) {
            "*".to_string()
        } else {
            DEFAULT_SEED.to_string()
        };
        out.push_str(&format!("{workload}\t{seed}\t{}\t{d}\n", c.key));
    }
    out
}
