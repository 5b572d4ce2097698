//! Differential harness for dynamic process lifecycle: `spawn_at`
//! arrivals and `depart_at` departures through both time engines.
//!
//! Arrivals and departures are exactly the events the event-driven
//! engine's stride logic must not skip over: a stride that overshoots an
//! arrival would activate the process late, and one that overshoots a
//! departure would bill work the process never did. Every scenario here
//! runs under `EngineMode::Stepped` and `EngineMode::EventDriven` and
//! must agree to the bit — trace stream, counter stream and complete
//! final state (see `tests/common/mod.rs`) — plus a proptest sweep over
//! random arrival/departure traces.

mod common;

use bwap_topology::{machines, NodeId, NodeSet};
use common::{assert_equivalent, Drive, RunLog};
use numasim::{AppProfile, MemPolicy, SimConfig};
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

/// The event engine's payoff on a sparse arrival stream, as a work count
/// CI can gate without wall-clock noise: it runs at most a tenth of the
/// stepped engine's full epochs, striding over the idle gaps and steady
/// stretches between arrivals and departures.
fn assert_strides_sparse_arrivals(stepped: &RunLog, event: &RunLog) {
    assert!(
        event.epoch_slices * 10 <= stepped.epoch_slices,
        "strides replace >= 90% of full epochs: {} event vs {} stepped",
        event.epoch_slices,
        stepped.epoch_slices
    );
}

#[test]
fn late_arrival_lands_mid_stride_identically() {
    // The first job runs steady — exactly what the event engine strides
    // over — and the second arrives at a time that is not an epoch
    // multiple, in the middle of that stride. Both engines must activate
    // it at the same epoch boundary.
    let m = machines::machine_b();
    let (_, event) = assert_equivalent("late-arrival", &m, &SimConfig::default(), |sim| {
        sim.spawn(profile(10.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        sim.spawn_at(0.4321, profile(6.0), NodeSet::single(NodeId(1)), None, MemPolicy::FirstTouch)
            .unwrap();
        Drive::For(6.0)
    });
    assert!(event.stride_slices >= 1, "the steady intervals stride");
}

#[test]
fn arrival_into_an_idle_simulator_strides_to_it() {
    // Nothing runs before the arrival: the event engine may cross the
    // idle prefix in one stride but must stop exactly at the arrival.
    let m = machines::machine_b();
    let (stepped, event) = assert_equivalent("idle-arrival", &m, &SimConfig::default(), |sim| {
        sim.spawn_at(1.0, profile(5.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        Drive::For(4.0)
    });
    assert!(event.stride_slices >= 1, "the idle prefix strides");
    assert_strides_sparse_arrivals(&stepped, &event);
}

#[test]
fn simultaneous_arrivals_activate_in_pid_order() {
    let m = machines::machine_b();
    assert_equivalent("simultaneous-arrivals", &m, &SimConfig::default(), |sim| {
        for node in [0u16, 1, 2] {
            sim.spawn_at(
                0.5,
                profile(4.0),
                NodeSet::single(NodeId(node)),
                None,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        }
        Drive::For(4.0)
    });
}

#[test]
fn departure_truncates_the_run_identically() {
    // An infinite job forced out at t=0.7: both engines must retire it at
    // the same epoch and stop billing its work at the same bit pattern.
    let m = machines::machine_b();
    let (stepped, _) = assert_equivalent("departure", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        sim.depart_at(pid, 0.7).unwrap();
        Drive::For(2.0)
    });
    assert!(
        stepped.state.iter().any(|l| l.contains("p0.state=finished@")),
        "the departed process is retired"
    );
}

#[test]
fn departure_during_a_migration_drain_drops_the_queue() {
    // The drain keeps every epoch a full epoch; the departure lands while
    // pages are still queued and must clear the queue identically.
    let m = machines::machine_b();
    let (stepped, _) = assert_equivalent("depart-mid-drain", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn(profile(1e4), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        sim.mbind(pid, seg, 0, 10_000, MemPolicy::Bind(NodeId(3)), true).unwrap();
        sim.depart_at(pid, 0.3).unwrap();
        Drive::For(2.0)
    });
    assert!(
        stepped.state.iter().any(|l| l.contains("pending=0")),
        "the departure clears the migration queue"
    );
}

#[test]
fn staggered_arrivals_and_departures_interleave_identically() {
    // An open-loop-style burst: three staggered arrivals, the middle one
    // forced out while the others still run.
    let m = machines::machine_b();
    let (stepped, event) = assert_equivalent("staggered-fleet", &m, &SimConfig::default(), |sim| {
        sim.spawn_at(0.3, profile(8.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let mid = sim
            .spawn_at(
                0.9,
                profile(f64::INFINITY),
                NodeSet::single(NodeId(1)),
                None,
                MemPolicy::FirstTouch,
            )
            .unwrap();
        sim.spawn_at(1.5, profile(4.0), NodeSet::single(NodeId(2)), None, MemPolicy::FirstTouch)
            .unwrap();
        sim.depart_at(mid, 1.2).unwrap();
        Drive::For(8.0)
    });
    assert_strides_sparse_arrivals(&stepped, &event);
    // Exact work: 1,600 stepped epochs and 13 for the event engine. Each
    // arrival, departure and finish drops the stored epoch plans, so both
    // engines solve the same 13 times; every other stepped epoch reuses a
    // stored plan.
    let work = |r: &RunLog| (r.stats.full_epochs, r.stats.solves);
    assert_eq!((work(&stepped), work(&event)), ((1600, 13), (13, 13)));
}

#[test]
fn run_until_finished_waits_for_a_pending_arrival() {
    // Driving a pending process to completion crosses its own arrival.
    let m = machines::machine_b();
    assert_equivalent("run-until-pending", &m, &SimConfig::default(), |sim| {
        let pid = sim
            .spawn_at(0.8, profile(5.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        Drive::UntilFinished(pid, 100.0)
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random open-loop arrival traces — arrival times off the epoch
    /// grid, random sizes, random worker nodes, optional forced
    /// departures — must agree to the bit between the engines.
    #[test]
    fn prop_random_arrival_traces_agree(
        jobs in prop::collection::vec(
            (
                0.0f64..2.0,            // arrival time
                2.0f64..10.0,           // total traffic GB
                0u16..4,                // worker node on machine B
                any::<bool>(),          // forced departure?
                0.05f64..1.0,           // departure offset after arrival
            ),
            1..5
        ),
        horizon_epochs in 100u64..=900,
    ) {
        let m = machines::machine_b();
        let name = format!("prop-arrivals {jobs:?} h{horizon_epochs}");
        assert_equivalent(&name, &m, &SimConfig::default(), move |sim| {
            for &(at, gb, node, departs, offset) in &jobs {
                let pid = sim
                    .spawn_at(
                        at,
                        profile(gb),
                        NodeSet::single(NodeId(node)),
                        None,
                        MemPolicy::FirstTouch,
                    )
                    .unwrap();
                if departs {
                    sim.depart_at(pid, at + offset).unwrap();
                }
            }
            Drive::For(horizon_epochs as f64 * 0.005)
        });
    }

    /// A departure scheduled before a pending job's activation: the job
    /// must still activate (departure applies from its start) and retire
    /// at max(arrival, departure) in both engines.
    #[test]
    fn prop_departure_racing_the_arrival_agrees(
        at in 0.1f64..1.5,
        depart_delta in -0.05f64..0.5,
    ) {
        let m = machines::machine_b();
        let name = format!("prop-race at{at} d{depart_delta}");
        assert_equivalent(&name, &m, &SimConfig::default(), move |sim| {
            let pid = sim
                .spawn_at(
                    at,
                    profile(f64::INFINITY),
                    NodeSet::single(NodeId(0)),
                    None,
                    MemPolicy::FirstTouch,
                )
                .unwrap();
            let depart = (at + depart_delta).max(0.0);
            sim.depart_at(pid, depart).unwrap();
            Drive::For(3.0)
        });
    }
}

#[test]
fn lifecycle_error_paths_are_typed() {
    use numasim::{SimError, Simulator};
    let m = machines::machine_b();
    let mut sim = Simulator::new(m, SimConfig::default());
    // Arrival in the past or non-finite.
    sim.run_for(0.5);
    for bad in [0.2, f64::NAN, f64::NEG_INFINITY] {
        let err = sim
            .spawn_at(bad, profile(1.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidTime(_)), "{bad}: {err:?}");
    }
    // Departure of a finished process.
    let pid =
        sim.spawn(profile(0.5), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
    sim.run_until_finished(pid, 100.0).unwrap();
    let err = sim.depart_at(pid, sim.clock() + 1.0).unwrap_err();
    assert!(matches!(err, SimError::ProcessFinished(_)), "{err:?}");
    // Departure in the past.
    let pid2 = sim
        .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(1)), None, MemPolicy::FirstTouch)
        .unwrap();
    let err = sim.depart_at(pid2, 0.0).unwrap_err();
    assert!(matches!(err, SimError::InvalidTime(_)), "{err:?}");
}
