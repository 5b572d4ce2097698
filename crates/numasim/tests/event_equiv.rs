//! Differential harness: the event-driven engine against the stepped
//! reference, scenario family by scenario family — steady runs, phase
//! timelines, migration drains (including the queue edge cases the stride
//! logic leans on), tiered machines, traced runs, open-loop probes and
//! scripted daemon interleavings — plus proptest sweeps over random phase
//! timelines, spill regimes, tuner cadences and migration interleavings.
//! Everything must agree to the bit; see `tests/common/mod.rs` for what
//! "agree" means and how divergences are reported.

mod common;

use bwap_topology::{machines, NodeId, NodeSet, NodeSpec, TopologyBuilder};
use common::{assert_equivalent, Action, Drive, ScriptDaemon};
use numasim::{AppProfile, Daemon, MemPolicy, ProcessId, SimConfig, Simulator};
use proptest::prelude::*;

fn profile(total_gb: f64) -> AppProfile {
    AppProfile {
        name: "stream".into(),
        read_gbps_per_thread: 2.0,
        write_gbps_per_thread: 0.0,
        private_frac: 0.0,
        latency_sensitivity: 0.0,
        serial_frac: 0.0,
        multinode_penalty: 0.0,
        shared_pages: 10_000,
        private_pages_per_thread: 16,
        total_traffic_gb: total_gb,
        open_loop: false,
    }
}

/// A machine whose only inter-node link is effectively zero bandwidth
/// (1e-6 GB/s — the builder rejects an exact zero as it would any dead
/// link): migration drains across it make essentially no progress, so
/// the engine must keep treating the drain as an interesting time
/// forever rather than striding over it.
fn starved_link_machine() -> bwap_topology::MachineTopology {
    TopologyBuilder::new("starved-link")
        .nodes(2, NodeSpec::new(2, 0.5, 10.0, 16.0))
        .symmetric_link(NodeId(0), NodeId(1), 1e-6)
        .auto_routes()
        .default_path_caps()
        .hop_latencies(90.0, 60.0)
        .build()
        .expect("starved-link machine validates")
}

#[test]
fn steady_run_to_completion_strides() {
    let m = machines::machine_b();
    let (_, event) = assert_equivalent("steady", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(14.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        Drive::UntilFinished(pid, 100.0)
    });
    // ~200 stepped epochs collapse to a couple of full epochs + strides.
    assert!(event.stride_slices >= 1, "the steady run strides");
    assert!(event.epoch_slices < 20, "full epochs are rare: {}", event.epoch_slices);
}

#[test]
fn saturated_controller_run_strides_identically() {
    let m = machines::machine_b();
    assert_equivalent("saturated", &m, &SimConfig::default(), |sim| {
        let mut p = profile(42.0);
        p.read_gbps_per_thread = 6.0;
        let pid = sim.spawn(p, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        Drive::UntilFinished(pid, 100.0)
    });
}

#[test]
fn latency_sensitive_feedback_reaches_its_fixed_point_in_both_modes() {
    // latency_sensitivity > 0 couples demand to the previous epoch's
    // controller utilization; strides may only begin once that feedback
    // is bitwise-stationary.
    let m = machines::machine_b();
    assert_equivalent("alpha-feedback", &m, &SimConfig::default(), |sim| {
        let mut p = profile(20.0);
        p.read_gbps_per_thread = 5.0;
        p.latency_sensitivity = 0.6;
        p.private_frac = 0.3;
        let pid = sim
            .spawn(
                p,
                NodeSet::from_nodes([NodeId(0), NodeId(1)]),
                None,
                MemPolicy::Interleave(NodeSet::from_nodes([NodeId(0), NodeId(1)])),
            )
            .unwrap();
        Drive::UntilFinished(pid, 200.0)
    });
}

#[test]
fn phased_timeline_switches_at_identical_epochs() {
    let m = machines::machine_b();
    let (_, event) = assert_equivalent("phased", &m, &SimConfig::default(), |sim| {
        let mut busy = profile(40.0);
        busy.read_gbps_per_thread = 6.0;
        let mut calm = busy.clone();
        calm.read_gbps_per_thread = 1.0;
        let pid = sim
            .spawn(busy.clone(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        sim.set_phase_timeline(pid, vec![(0.4, busy), (0.4, calm)]).unwrap();
        Drive::UntilFinished(pid, 600.0)
    });
    assert!(event.stride_slices >= 2, "each steady phase interior strides");
}

#[test]
fn migration_drain_is_never_strided_over() {
    let m = machines::machine_b();
    let (stepped, _) = assert_equivalent("drain", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(1e4), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        sim.mbind(pid, seg, 0, 10_000, MemPolicy::Bind(NodeId(3)), true).unwrap();
        Drive::For(2.0)
    });
    // Each draining epoch solves afresh; once the queue empties, stored
    // plans serve the rest of the run.
    let stats = stepped.stats;
    assert_eq!((stats.full_epochs, stats.solves), (400, 7), "exact work of the stepped run");
}

#[test]
fn multiple_drains_completing_in_the_same_epoch() {
    // Two queues sized under one epoch's budget: both `complete_into`
    // calls land in the same epoch, and the following epoch both drain
    // flows close — after which the stride may begin.
    let m = machines::machine_b();
    assert_equivalent("twin-drains", &m, &SimConfig::default(), |sim| {
        let a = sim
            .spawn(profile(30.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let b = sim
            .spawn(profile(30.0), NodeSet::single(NodeId(1)), None, MemPolicy::FirstTouch)
            .unwrap();
        for (pid, to) in [(a, NodeId(2)), (b, NodeId(3))] {
            let seg = sim.process(pid).unwrap().shared_seg;
            sim.mbind(pid, seg, 0, 500, MemPolicy::Bind(to), true).unwrap();
        }
        Drive::UntilFinished(a, 100.0)
    });
}

#[test]
fn zero_bandwidth_migration_engine_drains_one_page_per_epoch() {
    // migration_gbps = 0 degenerates the per-epoch budget to its floor of
    // one page; every epoch stays a full epoch until the queue empties.
    let m = machines::machine_b();
    let cfg = SimConfig { migration_gbps: 0.0, ..SimConfig::default() };
    assert_equivalent("zero-budget-drain", &m, &cfg, |sim| {
        let pid = sim
            .spawn(profile(1e4), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        sim.mbind(pid, seg, 0, 120, MemPolicy::Bind(NodeId(1)), true).unwrap();
        Drive::For(1.5)
    });
}

#[test]
fn starved_link_drain_makes_no_progress_and_no_strides() {
    let m = starved_link_machine();
    let (stepped, event) = assert_equivalent("starved-link", &m, &SimConfig::default(), |sim| {
        let mut p = profile(f64::INFINITY);
        p.shared_pages = 2_000;
        let pid = sim.spawn(p, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        sim.mbind(pid, seg, 0, 2_000, MemPolicy::Bind(NodeId(1)), true).unwrap();
        Drive::For(1.0)
    });
    // The drain stays pending the whole window, so every epoch remains a
    // full epoch in both modes.
    assert_eq!(event.stride_slices, 0, "a live drain blocks striding");
    assert_eq!(event.epoch_slices, stepped.epoch_slices);
    assert!(stepped.state.iter().any(|l| l.contains("pending=") && !l.contains("pending=0")));
}

#[test]
fn cancel_range_lands_mid_stride() {
    // A scripted daemon queues a big rebind, later cancels the middle of
    // it, later still re-binds a sub-range — each firing interrupts what
    // the event engine would otherwise run as one stride.
    let m = machines::machine_b();
    assert_equivalent("cancel-mid-stride", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(5e3), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        let daemon = ScriptDaemon::new(vec![
            Box::new(move |sim: &mut Simulator| {
                sim.mbind(pid, seg, 0, 8_000, MemPolicy::Bind(NodeId(2)), true).unwrap();
            }),
            Box::new(move |sim: &mut Simulator| {
                // Supersede the middle of the still-draining range: the
                // engine path for this is mbind, whose first act is a
                // cancel_range over [2000, 6000).
                sim.mbind(pid, seg, 2_000, 4_000, MemPolicy::Bind(NodeId(0)), true).unwrap();
            }),
            Box::new(move |sim: &mut Simulator| {
                sim.mbind(pid, seg, 6_000, 2_000, MemPolicy::Bind(NodeId(1)), true).unwrap();
            }),
        ]);
        sim.add_daemon(Box::new(daemon), 0.25, 0.1);
        Drive::For(3.0)
    });
}

#[test]
fn tiered_machine_with_spill_strides_identically() {
    let m = machines::machine_tiered();
    let fast_pages: u64 = m.worker_nodes().iter().map(|w| m.node(w).mem_pages).sum();
    assert_equivalent("tiered-spill", &m, &SimConfig::default(), move |sim| {
        let mut p = profile(60.0);
        p.read_gbps_per_thread = 3.0;
        p.shared_pages = fast_pages + 5_000; // force spill into expanders
        let workers = sim.machine().worker_nodes();
        let pid = sim.spawn(p, workers, None, MemPolicy::Interleave(workers)).unwrap();
        Drive::UntilFinished(pid, 600.0)
    });
}

#[test]
fn open_loop_probe_strides_identically() {
    let m = machines::machine_b();
    assert_equivalent("open-loop", &m, &SimConfig::default(), |sim| {
        let mut p = profile(20.0);
        p.open_loop = true;
        p.read_gbps_per_thread = 4.0;
        let workers = NodeSet::from_nodes([NodeId(0), NodeId(1)]);
        let pid = sim.spawn(p, workers, None, MemPolicy::Interleave(workers)).unwrap();
        Drive::UntilFinished(pid, 200.0)
    });
}

#[test]
fn idle_simulator_with_daemon_cadence_strides_between_fires() {
    // Nothing but a monitor daemon: the stride runs wall-to-wall between
    // fires, and every fire lands at the same clock in both modes.
    let m = machines::machine_b();
    let (_, event) = assert_equivalent("idle-cadence", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let daemon = ScriptDaemon::new(
            (0..6)
                .map(|i| {
                    Box::new(move |sim: &mut Simulator| {
                        let s = sim.sample(pid).unwrap();
                        sim.trace_instant(
                            "probe",
                            Some(pid),
                            &[("i", i as f64), ("traffic", s.traffic_bytes)],
                        );
                    }) as Action
                })
                .collect(),
        );
        sim.add_daemon(Box::new(daemon), 0.5, 0.5);
        Drive::For(4.0)
    });
    assert!(event.stride_slices >= 6, "one stride per inter-fire gap");
    assert!(event.epoch_slices <= 10, "full epochs only at fires: {}", event.epoch_slices);
}

#[test]
fn two_contending_processes_finish_at_identical_times() {
    let m = machines::machine_b();
    assert_equivalent("contention", &m, &SimConfig::default(), |sim| {
        let mut p = profile(28.0);
        p.read_gbps_per_thread = 6.0;
        let a =
            sim.spawn(p.clone(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        let _b =
            sim.spawn(p, NodeSet::single(NodeId(1)), None, MemPolicy::Bind(NodeId(0))).unwrap();
        Drive::UntilFinished(a, 100.0)
    });
}

/// A `cosched_grid` benchmark cell at reduced scale: Streamcluster on
/// machine A's best single worker node (node 4), placed by BWAP at DWP
/// 0.5, beside Swaptions spread over the other seven nodes by first
/// touch. The loaded-latency feedback never reaches a fixed point here:
/// it settles into a period-2 orbit, so the event engine finds no stride
/// and every epoch starts from the controller utilization of two epochs
/// back. The engine must reuse a stored epoch plan, and so skip the demand
/// build and the solve, for almost every epoch (a one-slot memo would
/// rebuild all 1,883).
#[test]
fn coscheduled_period_two_orbit_reuses_stored_solves() {
    let m = machines::machine_a();
    let swaptions = AppProfile {
        name: "SW".into(),
        read_gbps_per_thread: 0.10285714285714284,
        write_gbps_per_thread: 0.017142857142857147,
        private_frac: 0.98,
        latency_sensitivity: 0.05,
        serial_frac: 0.01,
        multinode_penalty: 0.0,
        shared_pages: 8192,
        private_pages_per_thread: 2048,
        total_traffic_gb: f64::INFINITY,
        open_loop: false,
    };
    let streamcluster = AppProfile {
        name: "SC".into(),
        read_gbps_per_thread: 2.011,
        write_gbps_per_thread: 0.01399999999999999,
        private_frac: 0.002,
        latency_sensitivity: 0.45,
        serial_frac: 0.005,
        multinode_penalty: 0.08,
        shared_pages: 20480,
        private_pages_per_thread: 64,
        total_traffic_gb: 112.0,
        open_loop: false,
    };
    // BWAP's DWP-0.5 weights for this worker as its user-level interleave
    // realizes them over 20,480 shared pages.
    let dwp_half = vec![
        0.0425566173735119,
        0.027355957031249996,
        0.06078578404017856,
        0.054714820498511896,
        0.6595650809151784,
        0.08207484654017856,
        0.0440702892485119,
        0.028876604352678564,
    ];
    let worker = NodeSet::single(NodeId(4));
    let (stepped, _) = assert_equivalent("cosched-dwp-0.5", &m, &SimConfig::default(), |sim| {
        let others = m.worker_nodes().difference(worker);
        sim.spawn(swaptions.clone(), others, None, MemPolicy::FirstTouch).unwrap();
        let sc = sim
            .spawn(
                streamcluster.clone(),
                worker,
                None,
                MemPolicy::WeightedInterleave(dwp_half.clone()),
            )
            .unwrap();
        Drive::UntilFinished(sc, 600.0)
    });
    let stats = stepped.stats;
    assert!(
        stats.solves * 20 <= stats.full_epochs,
        "{} solves over {} full epochs: repeated epoch plans were rebuilt",
        stats.solves,
        stats.full_epochs
    );
    assert_eq!((stats.full_epochs, stats.solves), (1883, 65), "exact work of the stepped run");
}

// ---------------------------------------------------------------------------
// Proptest sweeps. Shrinking minimizes the scenario; the panic message
// from `assert_equivalent` then names the first diverging event.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct PhasePlan {
    epochs: usize,
    demand: f64,
    alpha: f64,
}

fn phase_strategy() -> impl Strategy<Value = PhasePlan> {
    (1usize..=80, 0usize..=12, 0usize..=2).prop_map(|(epochs, demand_steps, alpha_steps)| {
        PhasePlan {
            epochs,
            // Include exact zero (idle phases) and saturating demand.
            demand: demand_steps as f64 * 0.75,
            alpha: alpha_steps as f64 * 0.35,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random phase timelines and spill regimes through both engines.
    #[test]
    fn prop_random_phase_timelines_agree(
        phases in prop::collection::vec(phase_strategy(), 1..4),
        shared_pages in prop_oneof![Just(4_000u64), Just(40_000u64), Just(400_000u64)],
        total_steps in 1u64..=40,
        machine_idx in 0usize..3,
        interleave in any::<bool>(),
    ) {
        let m = match machine_idx {
            0 => machines::machine_b(),
            1 => machines::machine_tiered(),
            _ => machines::twin(),
        };
        let name = format!(
            "prop-phased m{machine_idx} sp{shared_pages} ts{total_steps} {phases:?}"
        );
        assert_equivalent(&name, &m, &SimConfig::default(), move |sim| {
            let mk = |plan: &PhasePlan| {
                let mut p = profile(total_steps as f64 * 1.5);
                p.read_gbps_per_thread = plan.demand;
                p.latency_sensitivity = plan.alpha;
                p.shared_pages = shared_pages;
                p
            };
            let workers = sim.machine().worker_nodes();
            let policy = if interleave {
                MemPolicy::Interleave(sim.machine().all_nodes())
            } else {
                MemPolicy::FirstTouch
            };
            let pid = sim.spawn(mk(&phases[0]), workers, None, policy).unwrap();
            if phases.len() > 1 || phases[0].epochs > 1 {
                let timeline: Vec<(f64, AppProfile)> =
                    phases.iter().map(|pl| (pl.epochs as f64 * 0.005, mk(pl))).collect();
                sim.set_phase_timeline(pid, timeline).unwrap();
            }
            Drive::UntilFinished(pid, 30.0)
        });
    }

    /// Random migration interleavings and tuner-style cadences: scripted
    /// daemons fire mbinds/cancels over random ranges at a random period
    /// while the workload runs.
    #[test]
    fn prop_random_migration_interleavings_agree(
        period_epochs in 1u64..=120,
        ops in prop::collection::vec(
            (0u64..9_000, 1u64..2_000, 0u16..4, any::<bool>()),
            1..5
        ),
        demand_steps in 0usize..=10,
        migration_tenth_gbps in prop_oneof![Just(0u32), Just(1u32), Just(20u32)],
    ) {
        let m = machines::machine_b();
        let cfg = SimConfig {
            migration_gbps: migration_tenth_gbps as f64 * 0.1,
            ..SimConfig::default()
        };
        let name = format!(
            "prop-mig p{period_epochs} mig{migration_tenth_gbps} d{demand_steps} {ops:?}"
        );
        assert_equivalent(&name, &m, &cfg, move |sim| {
            let mut p = profile(f64::INFINITY);
            p.read_gbps_per_thread = demand_steps as f64 * 0.6;
            let pid = sim
                .spawn(p, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
                .unwrap();
            let seg = sim.process(pid).unwrap().shared_seg;
            let actions: Vec<Action> = ops
                .iter()
                .cloned()
                .map(|(start, len, node, move_pages)| {
                    Box::new(move |sim: &mut Simulator| {
                        let len = len.min(10_000 - start).max(1);
                        sim.mbind(
                            pid,
                            seg,
                            start,
                            len,
                            MemPolicy::Bind(NodeId(node)),
                            move_pages,
                        )
                        .unwrap();
                    }) as Action
                })
                .collect();
            sim.add_daemon(
                Box::new(ScriptDaemon::new(actions)),
                period_epochs as f64 * 0.005,
                0.01,
            );
            Drive::For(1.2)
        });
    }
}

// Keep clippy honest about the helper being exercised from this binary.
#[test]
fn script_daemon_unregisters_after_its_last_action() {
    let m = machines::machine_b();
    let mut sim = Simulator::new(m, SimConfig::default());
    let pid = sim
        .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
        .unwrap();
    let daemon = ScriptDaemon::new(vec![Box::new(move |sim: &mut Simulator| {
        sim.trace_instant("only-action", Some(pid), &[]);
    })]);
    assert!(!daemon.done());
    sim.add_daemon(Box::new(daemon), 0.05, 0.05);
    sim.run_for(0.5);
    // The daemon ran once and removed itself; the run kept going.
    assert!(sim.clock() > 0.4);
    let _ = ProcessId(0);
}
