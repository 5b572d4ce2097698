//! Campaign passes: the pass the end-to-end metrics time, and the layer
//! spans of a traced pass, each taken by calling one layer of
//! [`bwap_runtime::run_campaign_with`]'s pipeline on its own, from outside,
//! on the pass's inputs.

use bwap_runtime::campaign::executor::effective_workers;
use bwap_runtime::{
    cell_descriptor, run_campaign_with, run_cell_for, run_parallel_catch, CampaignConfig,
    CampaignReport, CampaignSpec, CellCache,
};
use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

/// What one pass produced.
pub struct Pass {
    /// One report per campaign call (two when the pass uses the cache).
    pub reports: Vec<CampaignReport>,
    /// Host seconds from the first campaign call to the last serialized
    /// deterministic report.
    pub wall_s: f64,
}

/// One pass. With a cache directory the campaign runs twice: cold (every
/// class stored) and then warm (every class loaded). The executor runs
/// with the CLI defaults (dedup on; the spec's stepped engine) and an
/// explicit thread count.
pub fn run_pass(spec: &CampaignSpec, threads: usize, cache_dir: Option<&Path>) -> Pass {
    let cfg = CampaignConfig {
        threads: Some(threads),
        cache_dir: cache_dir.map(Path::to_path_buf),
        ..CampaignConfig::default()
    };
    let runs = if cache_dir.is_some() { 2 } else { 1 };
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(runs);
    for _ in 0..runs {
        let report = run_campaign_with(spec, &cfg);
        std::hint::black_box(report.deterministic_json());
        reports.push(report);
    }
    Pass { reports, wall_s: t0.elapsed().as_secs_f64() }
}

/// Layer spans and work counts of one traced pass, summed over its
/// campaign calls.
#[derive(Debug, Default)]
pub struct CampaignSpans {
    /// Cells declared.
    pub cells: u64,
    /// Descriptor classes (cells left after dedup).
    pub classes: u64,
    /// Classes served from the cell cache.
    pub cache_hits: u64,
    /// Cache lookups made (one per class when a cache is configured).
    pub cache_lookups: u64,
    /// Seconds in `cell_descriptor`.
    pub descriptor_s: f64,
    /// Seconds in `CellCache::load`.
    pub cache_load_s: f64,
    /// Seconds in `CellCache::store`.
    pub cache_store_s: f64,
    /// Wall seconds of the parallel execute stage.
    pub execute_s: f64,
    /// Executor thread-seconds available during the execute stage.
    pub thread_s: f64,
    /// Seconds of each executed `run_cell_for` call.
    pub cell_s: Vec<f64>,
    /// Seconds in `deterministic_json` + `to_json`.
    pub report_s: f64,
    /// Bytes of the deterministic reports.
    pub report_bytes: u64,
}

impl CampaignSpans {
    /// Seconds in the timed layers, as the pipeline runs them one after
    /// another.
    pub fn layers_s(&self) -> f64 {
        self.descriptor_s + self.cache_load_s + self.cache_store_s + self.execute_s + self.report_s
    }
}

/// The layer spans of `pass`. Counts come from the reports the pass
/// returned; each layer is then timed by calling it on its own with the
/// pass's inputs: `cell_descriptor` once per campaign call, the execute
/// stage (`run_cell_for` of one cell per class on `run_parallel_catch`)
/// once, and, when the pass uses a cache, `CellCache::load` of every
/// class against an empty cache, `store` of every class and `load` again
/// from the full one, as a cold and a warm call do. `scratch` is an
/// unused directory the cache calls may fill; it is removed afterwards.
pub fn trace_pass(
    spec: &CampaignSpec,
    threads: usize,
    pass: &Pass,
    scratch: Option<&Path>,
) -> Result<CampaignSpans, String> {
    let mut spans = CampaignSpans::default();
    let first = pass.reports.first().ok_or("a pass makes at least one campaign call")?;
    // One cell per class, the first of each in id order: the cells the
    // campaign executes.
    let mut seen = HashSet::new();
    let reps: Vec<usize> = first
        .cells
        .iter()
        .filter(|c| c.dedup_class.as_ref().is_none_or(|h| seen.insert(h.clone())))
        .map(|c| c.id)
        .collect();
    for report in &pass.reports {
        spans.cells += report.cells.len() as u64;
        spans.classes += reps.len() as u64;
        if scratch.is_some() {
            spans.cache_lookups += reps.len() as u64;
            spans.cache_hits += (reps.len() - report.executed_cells) as u64;
        }
    }

    let cells = spec.cells();
    let mut descs = Vec::new();
    for _ in &pass.reports {
        let t = Instant::now();
        descs = cells.iter().map(|c| cell_descriptor(spec, c)).collect::<Vec<_>>();
        spans.descriptor_s += t.elapsed().as_secs_f64();
    }

    let jobs: Vec<_> = reps
        .iter()
        .map(|&i| {
            let cell = &cells[i];
            move || {
                let t = Instant::now();
                std::hint::black_box(run_cell_for(spec, cell).is_ok());
                t.elapsed().as_secs_f64()
            }
        })
        .collect();
    let t = Instant::now();
    let executed = run_parallel_catch(Some(threads), jobs);
    spans.execute_s = t.elapsed().as_secs_f64();
    spans.thread_s = spans.execute_s * effective_workers(Some(threads), reps.len()) as f64;
    for secs in executed {
        spans.cell_s.push(secs.map_err(|p| format!("traced execute stage panicked: {p}"))?);
    }

    if let Some(dir) = scratch {
        let cache = CellCache::open(dir).ok_or(format!("opening a cache in {}", dir.display()))?;
        let t = Instant::now();
        let misses = reps.iter().filter(|&&i| cache.load(&descs[i]).is_none()).count();
        spans.cache_load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for &i in &reps {
            cache.store(&descs[i], &first.cells[i].outcome);
        }
        spans.cache_store_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let hits = reps.iter().filter(|&&i| cache.load(&descs[i]).is_some()).count();
        spans.cache_load_s += t.elapsed().as_secs_f64();
        std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        if misses != reps.len() || hits != reps.len() {
            return Err(format!(
                "traced cache calls: {misses} misses cold and {hits} hits warm of {} classes",
                reps.len()
            ));
        }
    }

    for report in &pass.reports {
        let t = Instant::now();
        let json = report.deterministic_json();
        std::hint::black_box(report.to_json());
        spans.report_s += t.elapsed().as_secs_f64();
        spans.report_bytes += json.len() as u64;
    }
    Ok(spans)
}
