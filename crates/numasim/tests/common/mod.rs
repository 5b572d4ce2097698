//! Shared reference-run machinery for the engine differential tests.
//!
//! The event-driven engine (`EngineMode::EventDriven`) is pinned to the
//! stepped engine bit-for-bit: [`assert_equivalent`] runs one scenario
//! under both modes and compares
//!
//! * the traced event stream (instants, flows, track metadata — with the
//!   per-epoch/per-stride slices excluded, since the two engines chunk
//!   time differently by design);
//! * the counter stream after consecutive-duplicate removal (the
//!   event-driven engine re-stamps unchanged counters at stride
//!   boundaries; values and change points must match exactly);
//! * the complete final state — clock, per-process progress, placement
//!   distributions, migration totals, performance counters — rendered
//!   through `f64::to_bits` so "equal" means *the same bits*, not "close".
//!
//! Both engines share the epoch accounting, so a fault in it would show
//! on both sides alike. [`capture`] therefore also checks every run on
//! its own: each process's counted traffic matches its progress (see
//! [`assert_traffic_conserved`]).
//!
//! On divergence the panic names the scenario and prints the first
//! differing line from both runs, which is exactly the event one needs to
//! debug a stride bug.

use bwap_topology::MachineTopology;
use numasim::trace::{self, ArgValue, EventPhase, TraceEvent};
use numasim::{
    Daemon, EngineMode, EngineStats, ProcessId, ProcessState, SimConfig, Simulator, TraceSink,
};
use std::collections::VecDeque;

/// How a scenario drives the simulator after setup.
#[allow(dead_code)] // each test binary uses the variants it needs
pub enum Drive {
    /// `run_for(seconds)`.
    For(f64),
    /// `run_until_finished(pid, max_seconds)`, ignoring a timeout error.
    UntilFinished(ProcessId, f64),
}

/// A daemon that performs one scripted action per firing, in order, and
/// unregisters itself when the script is exhausted. The differential
/// tests use it to land mbinds, cancels and profile swaps at controlled
/// times — including in the middle of what the event-driven engine would
/// otherwise run as one long stride.
pub struct ScriptDaemon {
    actions: VecDeque<Action>,
}

/// One scripted daemon action.
pub type Action = Box<dyn FnMut(&mut Simulator)>;

impl ScriptDaemon {
    #[allow(dead_code)] // each test binary scripts daemons as it needs
    pub fn new(actions: Vec<Action>) -> Self {
        ScriptDaemon { actions: actions.into() }
    }
}

impl Daemon for ScriptDaemon {
    fn name(&self) -> &str {
        "script"
    }
    fn tick(&mut self, sim: &mut Simulator) {
        if let Some(mut action) = self.actions.pop_front() {
            action(sim);
        }
    }
    fn done(&self) -> bool {
        self.actions.is_empty()
    }
}

/// Everything observable about one finished run, rendered to exact
/// strings (floats via `to_bits`).
pub struct RunLog {
    /// Non-slice trace events (instants, flows, metadata) in emission
    /// order.
    pub events: Vec<String>,
    /// Counter samples with consecutive duplicates (per series) removed.
    pub counters: Vec<String>,
    /// Final simulator state, one line per fact.
    pub state: Vec<String>,
    /// `epoch` B slices in the trace — the stepped engine's work unit
    /// (the event-driven engine runs strictly fewer full epochs on any
    /// run with a quiescent interval).
    pub epoch_slices: usize,
    /// `stride` B slices in the trace (event-driven only).
    pub stride_slices: usize,
    /// The engine's own work counts at the end of the run.
    #[allow(dead_code)] // not every test binary reads them
    pub stats: EngineStats,
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render_arg(v: &ArgValue) -> String {
    match v {
        ArgValue::U64(u) => format!("u{u}"),
        ArgValue::F64(f) => format!("f{}", bits(*f)),
        ArgValue::Str(s) => format!("s{s:?}"),
    }
}

fn render_event(e: &TraceEvent) -> String {
    let args: Vec<String> = e.args.iter().map(|(k, v)| format!("{k}={}", render_arg(v))).collect();
    format!(
        "{:?} {:?} ts={} track={} id={:?} [{}]",
        e.ph,
        e.name,
        e.ts_us,
        e.track,
        e.id,
        args.join(",")
    )
}

/// Run one scenario under `mode` and capture its [`RunLog`].
pub fn capture<F>(machine: &MachineTopology, base: &SimConfig, mode: EngineMode, setup: F) -> RunLog
where
    F: FnOnce(&mut Simulator) -> Drive,
{
    let cfg = SimConfig { mode, ..base.clone() };
    let mut sim = Simulator::new(machine.clone(), cfg);
    sim.set_trace_sink(TraceSink::default());
    match setup(&mut sim) {
        Drive::For(seconds) => sim.run_for(seconds),
        Drive::UntilFinished(pid, max) => {
            let _ = sim.run_until_finished(pid, max);
        }
    }
    let sink = sim.take_trace_sink().expect("sink installed");
    assert_eq!(sink.dropped(), 0, "differential scenarios must fit the ring");
    assert_traffic_conserved(&sim, sink.events());

    let mut events = Vec::new();
    let mut counters = Vec::new();
    let mut last_counter: Vec<(String, String)> = Vec::new();
    let mut epoch_slices = 0usize;
    let mut stride_slices = 0usize;
    for e in sink.events() {
        match e.ph {
            EventPhase::Begin | EventPhase::End => {
                if e.ph == EventPhase::Begin && e.name == "epoch" {
                    epoch_slices += 1;
                }
                if e.ph == EventPhase::Begin && e.name == "stride" {
                    stride_slices += 1;
                }
            }
            EventPhase::Counter => {
                let args: Vec<String> =
                    e.args.iter().map(|(k, v)| format!("{k}={}", render_arg(v))).collect();
                let value = args.join(",");
                let name = e.name.to_string();
                match last_counter.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, prev)) if *prev == value => continue,
                    Some((_, prev)) => *prev = value.clone(),
                    None => last_counter.push((name.clone(), value.clone())),
                }
                counters.push(format!("{name} ts={} [{value}]", e.ts_us));
            }
            _ => events.push(render_event(e)),
        }
    }

    let mut state = vec![format!("clock={}", bits(sim.clock()))];
    let n = sim.machine().node_count();
    for (i, u) in sim.controller_utilization().iter().enumerate() {
        state.push(format!("ctrl_util[{i}]={}", bits(*u)));
    }
    let mut pid_idx = 0usize;
    while let Ok(p) = sim.process(ProcessId(pid_idx)) {
        let pid = ProcessId(pid_idx);
        state.push(format!("p{pid_idx}.work_done_gb={}", bits(p.work_done_gb)));
        state.push(format!("p{pid_idx}.migration_credit={}", bits(p.migration_credit)));
        match p.state {
            ProcessState::Running => state.push(format!("p{pid_idx}.state=running")),
            ProcessState::Pending { at } => {
                state.push(format!("p{pid_idx}.state=pending@{}", bits(at)));
            }
            ProcessState::Finished { at } => {
                state.push(format!("p{pid_idx}.state=finished@{}", bits(at)));
            }
        }
        state.push(format!(
            "p{pid_idx}.migrated={} pending={} ranges={}",
            p.migrations.migrated_total,
            p.migrations.pending(),
            p.migrations.range_count()
        ));
        state.push(format!("p{pid_idx}.phase_switches={}", sim.phase_switches(pid)));
        let shared: Vec<String> =
            sim.shared_distribution(pid).unwrap().iter().map(|v| bits(*v)).collect();
        state.push(format!("p{pid_idx}.shared=[{}]", shared.join(",")));
        let full: Vec<String> =
            sim.full_distribution(pid).unwrap().iter().map(|v| bits(*v)).collect();
        state.push(format!("p{pid_idx}.full=[{}]", full.join(",")));
        let pc = sim.counters().process(pid);
        state.push(format!(
            "p{pid_idx}.cycles={} stalls={} traffic={}",
            bits(pc.cycles),
            bits(pc.stall_cycles),
            bits(pc.traffic_bytes)
        ));
        for src in 0..n {
            for dst in 0..n {
                let r = sim.counters().flow_read_bytes(pid, src, dst);
                let w = sim.counters().flow_write_bytes(pid, src, dst);
                if r != 0.0 || w != 0.0 {
                    state.push(format!("p{pid_idx}.flow[{src}->{dst}]=r{}w{}", bits(r), bits(w)));
                }
            }
        }
        pid_idx += 1;
    }
    RunLog { events, counters, state, epoch_slices, stride_slices, stats: sim.engine_stats() }
}

/// Every byte of progress is a byte of counted traffic. A process that
/// migrated no pages has counted `work_done_gb` GB, and one that finished
/// its work (a `finished` instant, not a departure) its
/// `total_traffic_gb`, both to within 1e-9 relative (the per-flow
/// products round differently from the per-process rate). Migrated pages
/// count as traffic too, so processes that moved any are skipped.
fn assert_traffic_conserved<'a>(sim: &Simulator, events: impl Iterator<Item = &'a TraceEvent>) {
    let finished: Vec<u64> = events
        .filter(|e| e.ph == EventPhase::Instant && e.name == "finished")
        .map(|e| e.track)
        .collect();
    let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs();
    let mut pid_idx = 0usize;
    while let Ok(p) = sim.process(ProcessId(pid_idx)) {
        let pid = ProcessId(pid_idx);
        pid_idx += 1;
        if p.migrations.migrated_total != 0 {
            continue;
        }
        let traffic = sim.counters().process(pid).traffic_bytes;
        let work = p.work_done_gb * 1e9;
        assert!(close(traffic, work), "p{}: traffic {traffic} B, progress {work} B", pid.0);
        if finished.contains(&trace::process_track(pid)) {
            let total = p.profile.total_traffic_gb * 1e9;
            assert!(close(traffic, total), "p{}: traffic {traffic} B, total {total} B", pid.0);
        }
    }
}

fn compare(scenario: &str, what: &str, stepped: &[String], event: &[String]) {
    let n = stepped.len().max(event.len());
    for i in 0..n {
        let a = stepped.get(i);
        let b = event.get(i);
        if a != b {
            panic!(
                "scenario {scenario:?}: first diverging {what} at index {i}:\n  \
                 stepped: {}\n  event:   {}",
                a.map_or("<missing>".to_string(), |s| s.clone()),
                b.map_or("<missing>".to_string(), |s| s.clone()),
            );
        }
    }
}

/// Run `setup` under both engine modes and require bit-identical results.
/// Returns `(stepped, event)` logs for scenario-specific extra checks
/// (e.g. that the event run actually strode).
pub fn assert_equivalent<F>(
    scenario: &str,
    machine: &MachineTopology,
    base: &SimConfig,
    setup: F,
) -> (RunLog, RunLog)
where
    F: Fn(&mut Simulator) -> Drive,
{
    let stepped = capture(machine, base, EngineMode::Stepped, &setup);
    let event = capture(machine, base, EngineMode::EventDriven, &setup);
    compare(scenario, "event", &stepped.events, &event.events);
    compare(scenario, "counter sample", &stepped.counters, &event.counters);
    compare(scenario, "state line", &stepped.state, &event.state);
    assert_eq!(stepped.stride_slices, 0, "{scenario}: stepped engine never strides");
    assert!(
        event.epoch_slices <= stepped.epoch_slices,
        "{scenario}: event-driven runs at most as many full epochs \
         ({} vs {})",
        event.epoch_slices,
        stepped.epoch_slices
    );
    (stepped, event)
}
