//! Fleet-layer guarantees: the open-loop serving campaign (`fig_fleet`)
//! must be deterministic across reruns, executor shard counts and time
//! engines; a degenerate one-machine fleet must reproduce the
//! co-scheduled scenario bit-for-bit; and every fleet cell must carry
//! the slowdown-vs-solo tail metrics `docs/FLEET.md` promises.

use bwap_bench::experiments::fig_fleet_spec;
use bwap_suite::prelude::*;
use numasim::EngineMode;

/// Rerun and shard-count invariance: the fleet axis inherits the
/// campaign engine's determinism contract.
#[test]
fn fig_fleet_quick_is_deterministic_across_reruns_and_shards() {
    let spec = fig_fleet_spec(true);
    let a = run_campaign_with(&spec, &CampaignConfig { threads: Some(1), ..Default::default() });
    let b = run_campaign_with(&spec, &CampaignConfig { threads: Some(8), ..Default::default() });
    let c = run_campaign(&spec);
    assert!(!a.cells.is_empty());
    assert_eq!(a.deterministic_json(), b.deterministic_json());
    assert_eq!(a.deterministic_json(), c.deterministic_json());
}

/// Both time engines produce the same deterministic report, byte for
/// byte — arrivals and departures are exactly the events the
/// event-driven engine's strides must not skip.
#[test]
fn fig_fleet_quick_is_engine_mode_invariant() {
    let stepped = run_campaign(&fig_fleet_spec(true).engine_mode(EngineMode::Stepped));
    let event = run_campaign(&fig_fleet_spec(true).engine_mode(EngineMode::EventDriven));
    assert_eq!(stepped.deterministic_json(), event.deterministic_json());
}

/// Every fleet cell reports the tail metrics, they are internally
/// consistent (sorted percentiles, slowdowns >= 1 within tolerance) and
/// machine-local cells stay free of them.
#[test]
fn fleet_cells_report_tail_metrics() {
    let spec = fig_fleet_spec(true);
    let report = run_campaign(&spec);
    let axis = spec.fleet.as_ref().expect("fig_fleet has a fleet axis");
    let fleet: Vec<_> = report.cells.iter().filter(|c| c.scheduler.is_some()).collect();
    assert_eq!(fleet.len(), axis.schedulers.len() * axis.arrival_rates.len());
    for c in &fleet {
        assert_eq!(c.workload, "mix");
        assert_eq!(c.scenario, ScenarioKind::Fleet);
        let r = c.outcome.as_ref().unwrap_or_else(|e| panic!("{}: {e}", c.key));
        assert_eq!(r.jobs, Some(axis.jobs as u64));
        let slowdowns = r.job_slowdowns.as_ref().expect("completed jobs carry samples");
        assert_eq!(slowdowns.len(), axis.jobs);
        for s in slowdowns {
            // Scheduling may only delay a job relative to its solo run
            // (modulo float dust from clock interpolation).
            assert!(*s >= 1.0 - 1e-9, "slowdown {s} below solo");
        }
        let (p50, p95, p99) = (
            r.slowdown_p50.expect("p50"),
            r.slowdown_p95.expect("p95"),
            r.slowdown_p99.expect("p99"),
        );
        assert!(p50 <= p95 && p95 <= p99, "percentiles ordered: {p50} {p95} {p99}");
        // Makespan rides in exec_time_s and covers the whole stream.
        assert!(r.exec_time_s > 0.0);
    }
    for c in report.cells.iter().filter(|c| c.scheduler.is_none()) {
        let r = c.outcome.as_ref().unwrap();
        assert_eq!(r.jobs, None, "fleet fields stay off machine-local cells");
        assert_eq!(c.arrival_rate_hz, None);
    }
}

/// A one-machine fleet running exactly the co-scheduled scenario's two
/// jobs — Swaptions on the complement under first-touch, the measured
/// app on its workers — reproduces `run_coscheduled`'s execution time
/// bit-for-bit. The fleet layer is a strict generalization, not a
/// reimplementation with different physics.
#[test]
fn degenerate_one_machine_fleet_matches_coscheduled_bit_for_bit() {
    let m = machines::machine_b();
    let app = workloads::streamcluster().scaled_down(32.0);
    let workers = m.best_worker_set(1);
    let workers_a = m.worker_nodes().difference(workers);

    let cosched = run_coscheduled(&m, &app, workers, &PlacementPolicy::UniformWorkers)
        .expect("co-scheduled reference");

    let jobs = vec![
        FleetJob {
            at_s: 0.0,
            workload: workloads::swaptions(),
            // The co-scheduled scenario stops simulating once B finishes
            // and never waits for Swaptions; the fleet drains every job,
            // so force Swaptions out long after B is done — departures
            // after B's completion cannot touch B's counters.
            depart_s: Some(300.0),
            workers: Some(workers_a),
            policy: Some(PlacementPolicy::FirstTouch),
        },
        FleetJob {
            at_s: 0.0,
            workload: app.clone(),
            depart_s: None,
            workers: Some(workers),
            policy: Some(PlacementPolicy::UniformWorkers),
        },
    ];
    let cfg = FleetConfig {
        machines: vec![m.clone()],
        scheduler: SchedulerKind::RoundRobin,
        policy: PlacementPolicy::UniformWorkers,
        workers: 1,
        sim_cfg: SimConfig::default(),
    };
    let out = run_fleet(&cfg, &jobs, None).expect("fleet run");
    assert_eq!(out.jobs.len(), 2);
    let b = &out.jobs[1];
    assert_eq!(b.workload, app.name);
    assert_eq!(
        b.exec_time_s.to_bits(),
        cosched.exec_time_s.to_bits(),
        "degenerate fleet diverged from the co-scheduled scenario: {} vs {}",
        b.exec_time_s,
        cosched.exec_time_s
    );
}

/// The Poisson stream is a pure function of the seed: same seed, same
/// schedule; different seeds, different schedules; and the campaign's
/// fleet descriptors resolve the schedule so cache keys can never
/// collide across seeds.
#[test]
fn poisson_arrivals_are_seeded_and_reproducible() {
    let catalog =
        vec![workloads::streamcluster().scaled_down(64.0), workloads::ocean_cp().scaled_down(64.0)];
    let a = poisson_jobs(42, 2.0, 8, &catalog);
    let b = poisson_jobs(42, 2.0, 8, &catalog);
    assert_eq!(a.len(), 8);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.at_s.to_bits(), y.at_s.to_bits());
        assert_eq!(x.workload.name, y.workload.name);
    }
    let c = poisson_jobs(43, 2.0, 8, &catalog);
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.at_s.to_bits() != y.at_s.to_bits()),
        "different seeds draw different schedules"
    );
}

/// A NaN arrival rate slips past `poisson_jobs`' rate guard and stamps
/// every job with a NaN arrival time. The fleet cell reports that as an
/// error naming the job instead of panicking while sorting the stream.
#[test]
fn nan_arrival_rate_is_an_error_cell_not_a_panic() {
    let spec = CampaignSpec::new("nan-rate", machines::machine_b())
        .workloads(vec![workloads::streamcluster().scaled_down(64.0)])
        .policies(vec![PlacementPolicy::UniformWorkers])
        .scenarios(vec![])
        .fleet(FleetAxis {
            machines: vec![MachineKind::B],
            schedulers: vec![SchedulerKind::RoundRobin],
            arrival_rates: vec![f64::NAN],
            jobs: 3,
            trace: None,
        });
    let report = run_campaign(&spec);
    assert_eq!(report.cells.len(), 1);
    let err = report.cells[0].outcome.as_ref().unwrap_err();
    assert!(err.contains("job 0: arrival time NaN"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
