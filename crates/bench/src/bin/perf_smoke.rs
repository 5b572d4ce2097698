//! Perf-smoke harness: times the hot paths the campaigns lean on and
//! records them in `BENCH_campaign.json` at the repo root, so the perf
//! trajectory is tracked in-tree PR over PR.
//!
//! Entries (spec -> wall-seconds, best of `RUNS`):
//!
//! * `fig1a_quick` — the fig1a probe campaign (engine + campaign engine).
//! * `fig_tiered_quick` — the heterogeneous-tier campaign at quick scale
//!   (includes the SC.XL/OC.XL capacity-pressure cells).
//! * `fig_tiered_quick_warm` — the same campaign replayed from a warm
//!   on-disk cell cache (`CampaignConfig::cache_dir`); pinned >= 10x
//!   faster than the cold run (see `docs/PERFORMANCE.md`).
//! * `dwp_dedup_quick_dedup_on` / `dwp_dedup_quick_dedup_off` — the
//!   overlap-heavy DWP-grid campaign with exact intra-sweep dedup on
//!   (default: 24 declared cells, 12 executed) and off (24 executed).
//! * `dwp_dedup_quick_supervised` — dedup-on again with a fault plan
//!   attached whose rules all fire at rate 0: the fault-plan machinery
//!   (per-cell fault decisions, executor panic isolation) is pinned to
//!   add no measurable overhead on a fault-free run (see
//!   `docs/ROBUSTNESS.md`; the key's name is historical).
//! * `ocxl_campaign_quick` — an OC.XL-only campaign cell matrix on
//!   `machine_tiered` (capacity spill + weighted interleave on ~1.6M
//!   pages).
//! * `ocxl_spawn_mbind_step` — the raw engine microbench, the paper's
//!   BWAP-init flow at capacity-pressure scale: spawn OC.XL first-touch on
//!   the tiered machine (~1.6M pages, spilling into the expander tier),
//!   weighted-interleave `mbind` over every segment, then 50 epochs of
//!   migration + demand solving.
//! * `fig_phases_quick` / `fig_phases_quick_traced` — the phase-structured
//!   campaign at quick scale, without and with per-cell trace recording:
//!   the pair bounds the tracing overhead in-tree (tracing-off must stay
//!   within noise of the pre-tracing baseline; see `docs/TRACING.md`).
//! * `fig_phases_quick_event` — the same campaign under
//!   `EngineMode::EventDriven`: results are pinned bit-identical by
//!   `tests/event_equiv.rs`, so the delta to `fig_phases_quick` is pure
//!   engine overhead/savings on a retune-heavy workload.
//! * `steady_phase_long_stepped` / `steady_phase_long_event` — the raw
//!   engine microbench for the event-driven clock's best case: one long
//!   steady phase (no migrations, no retunes) stepped epoch-by-epoch vs
//!   strided in one jump per run; the event run must be >= 5x faster and
//!   finish at the bit-identical clock and progress.
//! * `fleet_quick_stepped` / `fleet_quick_event` — a sparse open-loop
//!   fleet stream (`docs/FLEET.md`): short jobs separated by long idle
//!   gaps, exactly the regime where the event engine strides from one
//!   arrival to the next while the stepped engine burns an epoch solve
//!   every 5 simulated milliseconds of idle fleet. The event run must
//!   be at least 2x faster and finish at the bit-identical makespan
//!   (`tests/fleet.rs` pins the full campaign reports byte-identical).
//!
//! Usage: `cargo run --release -p bwap-bench --bin perf_smoke`
//! (`BWAP_BENCH_OUT` overrides the output path.)

use bwap_bench::experiments;
use bwap_runtime::{run_campaign, EngineMode, PlacementPolicy};
use bwap_topology::machines;
use bwap_topology::NodeSet;
use numasim::{AppProfile, MemPolicy, SimConfig, Simulator};
use std::time::Instant;

/// Timed repetitions per entry; the minimum is recorded.
const RUNS: usize = 3;

fn time_best(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// The OC.XL engine microbench: spawn (first-touch placement under
/// capacity pressure — how BWAP launches), rebind (weighted-interleave
/// mbind over every segment — BWAP-init), step (migration demand +
/// completion + the epoch solve).
fn ocxl_spawn_mbind_step() {
    let m = machines::machine_tiered();
    let mut sim = Simulator::new(m.clone(), SimConfig::default());
    let spec = bwap_workloads::ocean_cp_xl();
    let pid = sim
        .spawn(spec.profile_for(&m), m.worker_nodes(), None, MemPolicy::FirstTouch)
        .expect("spawn OC.XL");
    let weights = bwap::canonical_weights_on(&m, m.worker_nodes())
        .expect("canonical weights on tiered machine")
        .to_vec();
    let queued = sim
        .apply_policy_all_segments(pid, &MemPolicy::WeightedInterleave(weights), true)
        .expect("weighted mbind");
    assert!(queued > 500_000, "rebind must queue real work, got {queued}");
    for _ in 0..50 {
        sim.step();
    }
    assert!(sim.migrated_pages(pid) > 0, "steps must drain migrations");
}

/// The long-steady-phase microbench: one process streaming a fixed amount
/// of work with nothing else happening — the regime where the stepped
/// engine burns an epoch solve every 5 ms of simulated time and the
/// event-driven engine strides from the fixed point straight to the
/// finish. Returns `(final clock, work done)` so the caller can pin the
/// two engines to bit-identical results.
fn steady_phase_long(mode: EngineMode) -> (f64, f64) {
    let m = machines::machine_b();
    let mut sim = Simulator::new(m, SimConfig { mode, ..SimConfig::default() });
    let profile = AppProfile {
        name: "steady-long".into(),
        read_gbps_per_thread: 2.0,
        write_gbps_per_thread: 0.0,
        private_frac: 0.0,
        latency_sensitivity: 0.0,
        serial_frac: 0.0,
        multinode_penalty: 0.0,
        shared_pages: 100_000,
        private_pages_per_thread: 16,
        total_traffic_gb: 1_400.0, // ~100 simulated seconds, 20k epochs
        open_loop: false,
    };
    let pid = sim
        .spawn(profile, NodeSet::single(bwap_topology::NodeId(0)), None, MemPolicy::FirstTouch)
        .expect("spawn steady-long");
    sim.run_until_finished(pid, 200.0).expect("steady-long finishes");
    (sim.clock(), sim.process(pid).expect("process").work_done_gb)
}

/// The sparse-fleet microbench: a seeded Poisson stream of short jobs at
/// a rate low enough that the fleet sits idle most of the simulated run —
/// the stepped engine pays full price for every idle epoch, the event
/// engine strides straight to the next arrival. Returns the makespan so
/// the caller can pin the two engines to bit-identical results.
fn fleet_sparse(mode: EngineMode) -> f64 {
    let catalog = vec![bwap_workloads::streamcluster().scaled_down(256.0)];
    // Mean inter-arrival 20 s vs job runtimes well under a second: the
    // stream is ~99% idle gap.
    let jobs = bwap_runtime::poisson_jobs(11, 0.05, 24, &catalog);
    let cfg = bwap_runtime::FleetConfig {
        machines: vec![machines::machine_b()],
        scheduler: bwap_runtime::SchedulerKind::RoundRobin,
        policy: PlacementPolicy::UniformWorkers,
        workers: 1,
        sim_cfg: SimConfig { mode, ..SimConfig::default() },
    };
    let out = bwap_runtime::run_fleet(&cfg, &jobs, None).expect("sparse fleet run");
    assert_eq!(out.jobs.len(), 24, "every job completes");
    out.makespan_s
}

fn ocxl_campaign_quick() {
    let spec = bwap_runtime::CampaignSpec::new("ocxl-perf", machines::machine_tiered())
        .workloads(vec![bwap_workloads::ocean_cp_xl().scaled_down_traffic(16.0)])
        .policies(vec![
            PlacementPolicy::FirstTouch,
            PlacementPolicy::UniformWorkers,
            PlacementPolicy::Bwap(bwap::BwapConfig::default()),
        ])
        .worker_counts(vec![2])
        .seed(7);
    run_campaign(&spec);
}

fn main() {
    let mut entries: Vec<(&str, f64)> = Vec::new();

    let t = time_best(1, || {
        run_campaign(&experiments::fig1a_spec());
    });
    entries.push(("fig1a_quick", t));
    println!("fig1a_quick: {t:.3} s");

    let t = time_best(1, || {
        run_campaign(&experiments::fig_tiered_spec(true));
    });
    entries.push(("fig_tiered_quick", t));
    println!("fig_tiered_quick: {t:.3} s");

    // Warm-cache rerun of the tiered campaign: a first run populates the
    // on-disk cell cache, then reruns replay every cell from it. The warm
    // time is the memoization payoff the cache exists for — pinned at
    // >= 10x over the cold campaign above. (fig1a is probe-only with zero
    // cells, so the tiered campaign is the cheapest canned spec with a
    // real cell matrix to measure this on.)
    let cache_dir = std::env::temp_dir().join("bwap-perf-smoke-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cached_cfg =
        bwap_runtime::CampaignConfig { cache_dir: Some(cache_dir.clone()), ..Default::default() };
    bwap_runtime::run_campaign_with(&experiments::fig_tiered_spec(true), &cached_cfg);
    let t_warm = time_best(RUNS, || {
        let r = bwap_runtime::run_campaign_with(&experiments::fig_tiered_spec(true), &cached_cfg);
        assert_eq!(r.executed_cells, 0, "warm rerun must be served entirely from cache");
    });
    let _ = std::fs::remove_dir_all(&cache_dir);
    entries.push(("fig_tiered_quick_warm", t_warm));
    println!("fig_tiered_quick_warm: {t_warm:.3} s");
    let cache_speedup = t / t_warm;
    println!("fig_tiered warm-cache speedup (cold/warm): {cache_speedup:.1}x");
    assert!(
        cache_speedup >= 10.0,
        "a warm cache rerun must be >= 10x faster than cold, got {cache_speedup:.1}x"
    );

    // The exact-dedup pair: the dwp_dedup campaign declares 24 cells that
    // collapse onto 12 equivalence classes. Dedup-on must execute strictly
    // fewer cells, and the time delta is the memoization saving.
    let mut executed = (0usize, 0usize);
    let t_on = time_best(1, || {
        let r = bwap_runtime::run_campaign_with(
            &experiments::dwp_dedup_spec(true),
            &bwap_runtime::CampaignConfig::default(),
        );
        executed.0 = r.executed_cells;
    });
    entries.push(("dwp_dedup_quick_dedup_on", t_on));
    println!("dwp_dedup_quick_dedup_on: {t_on:.3} s");
    let t_off = time_best(1, || {
        let r = bwap_runtime::run_campaign_with(
            &experiments::dwp_dedup_spec(true),
            &bwap_runtime::CampaignConfig { dedup: false, ..Default::default() },
        );
        executed.1 = r.executed_cells;
    });
    entries.push(("dwp_dedup_quick_dedup_off", t_off));
    println!("dwp_dedup_quick_dedup_off: {t_off:.3} s");
    assert!(
        executed.0 < executed.1,
        "dedup must execute strictly fewer cells ({} vs {})",
        executed.0,
        executed.1
    );

    // Fault-plan overhead guard: the same dedup-on campaign with a fault
    // plan attached whose every rule fires at rate 0 — every cell still
    // consults the plan and runs under the executor's panic isolation,
    // but no fault ever fires. This must cost nothing measurable.
    let plan = bwap_runtime::FaultPlan::new(9)
        .with(bwap_runtime::FaultKind::CellPanic, 0.0)
        .with(bwap_runtime::FaultKind::CellDelay, 0.0)
        .with(bwap_runtime::FaultKind::CacheFlip, 0.0);
    let t_sup = time_best(1, || {
        let r = bwap_runtime::run_campaign_with(
            &experiments::dwp_dedup_spec(true),
            &bwap_runtime::CampaignConfig { faults: Some(plan.clone()), ..Default::default() },
        );
        assert_eq!(r.executed_cells, executed.0, "a rate-0 plan changes nothing");
    });
    entries.push(("dwp_dedup_quick_supervised", t_sup));
    println!("dwp_dedup_quick_supervised: {t_sup:.3} s");
    assert!(
        t_sup <= t_on * 1.5 + 0.05,
        "a fault plan must add no measurable overhead ({t_sup:.3}s vs {t_on:.3}s fault-free)"
    );

    let t = time_best(1, ocxl_campaign_quick);
    entries.push(("ocxl_campaign_quick", t));
    println!("ocxl_campaign_quick: {t:.3} s");

    let t = time_best(RUNS, ocxl_spawn_mbind_step);
    entries.push(("ocxl_spawn_mbind_step", t));
    println!("ocxl_spawn_mbind_step: {t:.3} s");

    let t = time_best(1, || {
        run_campaign(&experiments::fig_phases_spec(true));
    });
    entries.push(("fig_phases_quick", t));
    println!("fig_phases_quick: {t:.3} s");

    let trace_dir = std::env::temp_dir().join("bwap-perf-smoke-traces");
    let t = time_best(1, || {
        let cfg = bwap_runtime::CampaignConfig {
            trace_dir: Some(trace_dir.clone()),
            ..Default::default()
        };
        bwap_runtime::run_campaign_with(&experiments::fig_phases_spec(true), &cfg);
    });
    let _ = std::fs::remove_dir_all(&trace_dir);
    entries.push(("fig_phases_quick_traced", t));
    println!("fig_phases_quick_traced: {t:.3} s");

    let t = time_best(1, || {
        run_campaign(&experiments::fig_phases_spec(true).engine_mode(EngineMode::EventDriven));
    });
    entries.push(("fig_phases_quick_event", t));
    println!("fig_phases_quick_event: {t:.3} s");

    let stepped_result = steady_phase_long(EngineMode::Stepped);
    let t_stepped = time_best(RUNS, || {
        steady_phase_long(EngineMode::Stepped);
    });
    entries.push(("steady_phase_long_stepped", t_stepped));
    println!("steady_phase_long_stepped: {t_stepped:.3} s");

    let event_result = steady_phase_long(EngineMode::EventDriven);
    let t_event = time_best(RUNS, || {
        steady_phase_long(EngineMode::EventDriven);
    });
    entries.push(("steady_phase_long_event", t_event));
    println!("steady_phase_long_event: {t_event:.3} s");

    assert_eq!(
        stepped_result.0.to_bits(),
        event_result.0.to_bits(),
        "steady-phase clocks must be bit-identical across engines"
    );
    assert_eq!(
        stepped_result.1.to_bits(),
        event_result.1.to_bits(),
        "steady-phase progress must be bit-identical across engines"
    );
    let speedup = t_stepped / t_event;
    println!("steady_phase_long speedup (stepped/event): {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "the event engine must stride a long steady phase >= 5x faster, got {speedup:.1}x"
    );

    let fleet_stepped_makespan = fleet_sparse(EngineMode::Stepped);
    let t_fleet_stepped = time_best(RUNS, || {
        fleet_sparse(EngineMode::Stepped);
    });
    entries.push(("fleet_quick_stepped", t_fleet_stepped));
    println!("fleet_quick_stepped: {t_fleet_stepped:.3} s");

    let fleet_event_makespan = fleet_sparse(EngineMode::EventDriven);
    let t_fleet_event = time_best(RUNS, || {
        fleet_sparse(EngineMode::EventDriven);
    });
    entries.push(("fleet_quick_event", t_fleet_event));
    println!("fleet_quick_event: {t_fleet_event:.3} s");

    assert_eq!(
        fleet_stepped_makespan.to_bits(),
        fleet_event_makespan.to_bits(),
        "sparse-fleet makespan must be bit-identical across engines"
    );
    let fleet_speedup = t_fleet_stepped / t_fleet_event;
    println!("fleet_quick speedup (stepped/event): {fleet_speedup:.1}x");
    assert!(
        fleet_speedup >= 2.0,
        "the event engine must stride sparse arrivals >= 2x faster, got {fleet_speedup:.1}x"
    );

    let mut json = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        json.push_str(&format!("  \"{k}\": {v:.4}"));
        json.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
    }
    json.push_str("}\n");
    let out = std::env::var("BWAP_BENCH_OUT").unwrap_or_else(|_| "BENCH_campaign.json".into());
    std::fs::write(&out, &json).expect("write bench json");
    println!("wrote {out}");
}
