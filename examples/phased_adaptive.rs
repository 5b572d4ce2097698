//! Phase-structured workloads and adaptive BWAP: run the SC bandwidth
//! flip — an application that alternates between a controller-saturating
//! streaming phase and a latency-bound point-query phase — under
//! first-touch, one-shot BWAP and the adaptive re-tuning daemon, and
//! watch the watchdog react at every phase boundary.
//!
//! Run with: `cargo run --release --example phased_adaptive`

use bwap_suite::prelude::*;

fn main() {
    let machine = machines::machine_b();
    let workers = machine.best_worker_set(1);

    // The canned phase-flipping variant of Streamcluster (scaled ~8x so
    // the example finishes in a couple of seconds of wall time), cycled
    // every 6 simulated seconds. See docs/WORKLOADS.md for the timeline.
    let flip = workloads::sc_bandwidth_flip().scaled_down(8.0);
    println!(
        "workload: {} ({} phases per cycle, {} GB total)",
        flip.name,
        flip.phases.len(),
        flip.total_traffic_gb
    );
    println!("worker set: {workers}\n");

    // Tuner cadence must match the phase scale: with 6 s cycles, the
    // paper's default 0.2 s x 20-sample windows would spend a whole
    // phase on one hill-climb iteration. Sample faster, decide sooner —
    // the same parameters for the one-shot and the adaptive tuner, so
    // the comparison is fair.
    let tuner = DwpTunerConfig {
        sample_interval_s: 0.02,
        samples_per_iteration: 4,
        trim: 1,
        step: 0.2,
        ..DwpTunerConfig::default()
    };
    let bwap_cfg = BwapConfig { tuner, ..BwapConfig::default() };
    let adaptive_cfg = AdaptiveConfig {
        bwap: bwap_cfg.clone(),
        max_retunes: 32, // one re-tune per boundary over many cycles
        ..AdaptiveConfig::default()
    };

    let policies = [
        PlacementPolicy::FirstTouch,
        PlacementPolicy::Bwap(bwap_cfg),
        PlacementPolicy::AdaptiveBwap(adaptive_cfg),
    ];
    println!("{:<16} {:>12} {:>10} {:>10}", "policy", "exec time", "retunes", "switches");
    let mut first_touch_time = None;
    let mut results = Vec::new();
    for policy in policies {
        let r = run_standalone_phased(
            &machine,
            &flip,
            workers,
            &policy,
            SimConfig::default(),
            Some(6.0), // phase-cycle period, seconds
        )
        .expect("scenario runs");
        if r.policy == "first-touch" {
            first_touch_time = Some(r.exec_time_s);
        }
        println!(
            "{:<16} {:>10.2} s {:>10} {:>10}",
            r.policy,
            r.exec_time_s,
            r.retunes.map_or("-".to_string(), |n| n.to_string()),
            r.phase_switches.map_or("-".to_string(), |n| n.to_string()),
        );
        results.push(r);
    }

    let reference = first_touch_time.expect("first-touch ran");
    println!("\nspeedup vs first-touch (the Linux default):");
    for r in &results {
        println!("  {:<16} {:.2}x", r.policy, reference / r.exec_time_s);
    }
    if let Some(times) = results.last().and_then(|r| r.retune_times_s.clone()) {
        let rendered: Vec<String> = times.iter().map(|t| format!("{t:.1}")).collect();
        println!("\nadaptive re-tunes at simulated seconds: [{}]", rendered.join(", "));
        println!("(one per phase boundary: the watchdog detects each demand flip)");
    }
}
