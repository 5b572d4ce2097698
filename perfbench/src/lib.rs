//! The repository benchmark: three full-scale canned campaigns, timed end
//! to end with tracing off, and split into layers by a separate traced
//! run that times calls into the workspace's public API from outside.
//! See this directory's README for the workloads and every metric.

pub mod check;
pub mod pipeline;
pub mod replay;
pub mod workload;

use check::Checker;
use pipeline::{run_pass, trace_pass, CampaignSpans};
use replay::{replay_report, EngineSpans};
use std::path::PathBuf;
use std::time::Instant;
use workload::{prepare_cache_root, set_up, warm_profile_book, Workload};

/// End-to-end metrics `(name, unit)`, reported by an untraced run.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics `(name, unit)`, reported by a traced run.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("numasim.epochs_steady", "count"),
    ("numasim.steady_s", "s"),
    ("numasim.steady_us_per_epoch", "us"),
    ("numasim.epochs_drain", "count"),
    ("numasim.drain_s", "s"),
    ("numasim.drain_us_per_epoch", "us"),
    ("numasim.pages_migrated", "count"),
    ("numasim.ns_per_migrated_page", "ns"),
    ("numasim.spawn_s", "s"),
    ("runtime.daemon.init_s", "s"),
    ("runtime.daemon.ticks", "count"),
    ("runtime.daemon.tick_s", "s"),
    ("runtime.daemon.pages_queued", "count"),
    ("runtime.profiling.profiles", "count"),
    ("runtime.profiling.s", "s"),
    ("runtime.fleet.cell_s", "s"),
    ("runtime.fleet.machine_epochs", "count"),
    ("runtime.fleet.us_per_machine_epoch", "us"),
    ("runtime.campaign.cells", "count"),
    ("runtime.campaign.classes", "count"),
    ("runtime.campaign.dedup_ratio", "ratio"),
    ("runtime.campaign.descriptor_s", "s"),
    ("runtime.campaign.cache_store_s", "s"),
    ("runtime.campaign.cache_load_s", "s"),
    ("runtime.campaign.cache_hits", "count"),
    ("runtime.campaign.cache_hit_ratio", "ratio"),
    ("runtime.campaign.execute_s", "s"),
    ("runtime.campaign.cell_p50_s", "s"),
    ("runtime.campaign.cell_max_s", "s"),
    ("runtime.campaign.executor_idle_frac", "ratio"),
    ("runtime.campaign.report_s", "s"),
    ("runtime.campaign.report_bytes", "B"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.replay_mismatches", "count"),
    ("harness.failed_frac", "ratio"),
];

/// Set-ups before the first pass; one more follows every pass, and
/// `setup_s` is the median of them all.
pub const SETUP_REPS: usize = 5;

/// Untraced passes a run makes at least, however short `seconds` is.
pub const MIN_PASSES: usize = 3;

/// One benchmark run.
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Root seed of the workload's campaign.
    pub seed: u64,
    /// Host seconds to keep making passes for.
    pub seconds: f64,
    /// Report per-layer metrics (traced run) instead of end-to-end ones.
    pub trace: bool,
    /// Campaign executor threads.
    pub threads: usize,
    /// Scratch directory for cell caches; removed afterwards.
    pub work_dir: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    /// `(name, unit, value)` in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Cell records checked.
    pub attempted: u64,
    /// Cell records that failed the check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Host seconds of each pass, in order.
    pub pass_walls: Vec<f64>,
    /// Traced passes made.
    pub traced_passes: usize,
}

/// Median of a non-empty sample.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process since the last reset, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One set-up, timed. It runs once on every executor thread at the same
/// time, so it samples the CPUs the passes use: a lone thread lands on
/// either CPU, and the CPUs of a shared host can differ in speed.
fn timed_set_up(
    opts: &Options,
    cache_root: &std::path::Path,
    walls: &mut Vec<f64>,
    profile_walls: &mut Vec<f64>,
) -> Result<workload::Setup, String> {
    let t = Instant::now();
    let mut setups = std::thread::scope(|s| {
        let handles: Vec<_> =
            (0..opts.threads).map(|_| s.spawn(|| set_up(opts.workload, opts.seed))).collect();
        handles.into_iter().map(|h| h.join().expect("set-up thread panicked")).collect::<Vec<_>>()
    })
    .into_iter()
    .collect::<Result<Vec<_>, String>>()?;
    prepare_cache_root(cache_root)?;
    walls.push(t.elapsed().as_secs_f64());
    profile_walls.extend(setups.iter().map(|s| s.profile_s));
    Ok(setups.pop().expect("at least one executor thread"))
}

/// Run the benchmark once: set up, make passes for `seconds`, check every
/// cell, and (traced) time the layers of every second pass and replay the
/// executed cells layer by layer.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let cache_root = opts.work_dir.join("cache");
    let mut setup_walls = Vec::new();
    let mut profile_walls = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        setup = Some(timed_set_up(opts, &cache_root, &mut setup_walls, &mut profile_walls)?);
    }
    let setup = setup.expect("SETUP_REPS > 0");
    warm_profile_book(&setup)?;
    // Peak RSS covers the passes, not set-up: writing 5 resets VmHWM.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    let mut checker = Checker::new(opts.workload.name(), opts.seed)?;
    let mut walls = Vec::new();
    let mut spans: Vec<CampaignSpans> = Vec::new();
    let mut replay_source = None;
    let started = Instant::now();
    for i in 0.. {
        let cache_dir = opts.workload.uses_cache().then(|| cache_root.join(format!("pass{i}")));
        let pass = run_pass(&setup.spec, opts.threads, cache_dir.as_deref());
        walls.push(pass.wall_s);
        for report in &pass.reports {
            checker.check(report);
        }
        if let Some(dir) = &cache_dir {
            std::fs::remove_dir_all(dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        }
        if opts.trace && i % 2 == 1 {
            let scratch = cache_dir.map(|d| d.with_extension("trace"));
            spans.push(trace_pass(&setup.spec, opts.threads, &pass, scratch.as_deref())?);
        }
        // One more set-up sample per pass spreads them over the whole run.
        timed_set_up(opts, &cache_root, &mut setup_walls, &mut profile_walls)?;
        if replay_source.is_none() {
            replay_source = pass.reports.into_iter().next();
        }
        let enough = walls.len() >= MIN_PASSES && (!opts.trace || !spans.is_empty());
        if enough && started.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let peak_rss = peak_rss_mib()?;
    let failed_frac = ratio(checker.failed as f64, checker.attempted as f64);
    let wall_s = median(walls.iter().copied());
    let setup_s = median(setup_walls);
    let profile_s = median(profile_walls);

    let metrics = if opts.trace {
        let mut eng = EngineSpans::default();
        let report = replay_source.expect("at least one pass ran");
        replay_report(&setup.spec, &report, &mut eng);
        let overhead = median(spans.iter().map(CampaignSpans::layers_s)) / wall_s - 1.0;
        layer_metrics(&eng, &spans, setup.weights.len(), profile_s, overhead, failed_frac)
    } else {
        let values = [wall_s, setup_s, peak_rss];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    };
    Ok(Outcome {
        metrics,
        attempted: checker.attempted,
        failed: checker.failed,
        failures: checker.failures,
        pass_walls: walls,
        traced_passes: spans.len(),
    })
}

/// Every [`PER_LAYER`] metric from one replay and the traced passes
/// (times are medians over passes; counts repeat exactly per pass).
fn layer_metrics(
    eng: &EngineSpans,
    spans: &[CampaignSpans],
    profiles: usize,
    profile_s: f64,
    trace_overhead: f64,
    failed_frac: f64,
) -> Vec<(&'static str, &'static str, f64)> {
    let per_pass = |f: &dyn Fn(&CampaignSpans) -> f64| median(spans.iter().map(f));
    let steady_us = 1e6 * ratio(eng.steady_s, eng.epochs_steady as f64);
    let drain_only_s = eng.drain_s - eng.epochs_drain as f64 * steady_us / 1e6;
    let values = [
        eng.epochs_steady as f64,
        eng.steady_s,
        steady_us,
        eng.epochs_drain as f64,
        eng.drain_s,
        1e6 * ratio(eng.drain_s, eng.epochs_drain as f64),
        eng.pages_migrated as f64,
        1e9 * ratio(drain_only_s, eng.pages_migrated as f64),
        eng.spawn_s,
        eng.daemon_init_s,
        eng.daemon_ticks as f64,
        eng.daemon_tick_s,
        eng.pages_queued as f64,
        profiles as f64,
        profile_s,
        eng.fleet_cell_s,
        eng.fleet_machine_epochs as f64,
        1e6 * ratio(eng.fleet_cell_s, eng.fleet_machine_epochs as f64),
        per_pass(&|s| s.cells as f64),
        per_pass(&|s| s.classes as f64),
        per_pass(&|s| ratio(s.cells as f64, s.classes as f64)),
        per_pass(&|s| s.descriptor_s),
        per_pass(&|s| s.cache_store_s),
        per_pass(&|s| s.cache_load_s),
        per_pass(&|s| s.cache_hits as f64),
        per_pass(&|s| ratio(s.cache_hits as f64, s.cache_lookups as f64)),
        per_pass(&|s| s.execute_s),
        per_pass(&|s| if s.cell_s.is_empty() { 0.0 } else { median(s.cell_s.iter().copied()) }),
        per_pass(&|s| s.cell_s.iter().copied().fold(0.0, f64::max)),
        per_pass(&|s| 1.0 - ratio(s.cell_s.iter().sum(), s.thread_s)),
        per_pass(&|s| s.report_s),
        per_pass(&|s| s.report_bytes as f64),
        trace_overhead,
        eng.mismatches as f64,
        failed_frac,
    ];
    PER_LAYER.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
}
