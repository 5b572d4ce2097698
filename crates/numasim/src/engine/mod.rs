//! The epoch-based simulation engine.
//!
//! Each epoch (`SimConfig::epoch_dt` of simulated time) the engine:
//!
//! 1. converts every running process's page placement and workload profile
//!    into lock-step demand groups (one per worker node — see the
//!    crate-private `demand` module);
//! 2. adds rate-limited migration traffic for pending page moves;
//! 3. lets `bwap-fabric` allocate bandwidth (weighted demand-bounded
//!    max-min over the machine's controllers, links, path caps and ingress
//!    limits) and records the controller utilization it produces. Stages
//!    1–3 form the epoch's *plan*: an epoch that starts from the same
//!    controller utilization, bit for bit, as one of the last four plans,
//!    with no migration queued and no process input changed since that
//!    plan was stored, reads it where it is stored instead of rebuilding
//!    it;
//! 4. advances progress, accounts stall cycles and per-flow counters by
//!    replaying the plan's accounting tape (the increments of an epoch in
//!    which no process finishes, recorded once per plan; a finishing
//!    process computes its partial epoch afresh), and completes
//!    migrations;
//! 5. fires due daemons (AutoNUMA, tuners, monitors).
//!
//! Everything is deterministic: identical inputs give identical traces.

pub(crate) mod demand;

use crate::daemon::Daemon;
use crate::error::SimError;
use crate::mem::address_space::AddressSpace;
use crate::mem::frames::FramePools;
use crate::mem::migrate::{check_range, MigrationQueue, PendingRange};
use crate::mem::policy::MemPolicy;
use crate::mem::segment::{SegmentId, SegmentKind};
use crate::perf::{PerfCounters, ProcessSample};
use crate::process::{ProcessId, ProcessState, SimProcess};
use crate::trace::{self, ArgValue, TraceSink};
use crate::CLOCK_HZ;
use bwap_fabric::{
    Allocation, ControllerModel, DemandSet, FlowDemand, ResourceTable, SolveScratch,
};
use bwap_topology::{MachineTopology, NodeId, NodeSet, PAGE_SIZE};
use std::ops::Range;

/// Workload characterization of an application (the simulated analogue of
/// the paper's Table I plus scalability traits).
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Application name (diagnostics, reports).
    pub name: String,
    /// Read demand per thread at reference latency, unstalled (GB/s).
    pub read_gbps_per_thread: f64,
    /// Write demand per thread (GB/s).
    pub write_gbps_per_thread: f64,
    /// Fraction of traffic addressing thread-private pages (Table I
    /// "private accesses").
    pub private_frac: f64,
    /// Fraction of the serial critical path that is latency-bound memory
    /// access (`alpha`): 0 = pure bandwidth streaming, 1 = pure pointer
    /// chasing.
    pub latency_sensitivity: f64,
    /// Amdahl serial fraction (limits thread scaling).
    pub serial_frac: f64,
    /// Relative slowdown per additional worker node (synchronization /
    /// sharing traffic across nodes).
    pub multinode_penalty: f64,
    /// Shared segment size in pages.
    pub shared_pages: u64,
    /// Private segment size per thread, pages.
    pub private_pages_per_thread: u64,
    /// Total traffic to process before completion, GB (`f64::INFINITY`
    /// for continuously running services).
    pub total_traffic_gb: f64,
    /// `false` (normal applications): each worker node's transfers pace
    /// each other in lock-step — progress follows the slowest parallel
    /// transfer (the paper's Eq. 1/3). `true` (bandwidth probes such as
    /// the canonical tuner's reference workload): every `(memory node,
    /// worker)` flow fills its path independently, so per-path counters
    /// expose the asymmetric path bandwidths.
    pub open_loop: bool,
}

impl AppProfile {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |m: String| Err(SimError::InvalidProfile(m));
        if !(self.read_gbps_per_thread >= 0.0 && self.read_gbps_per_thread.is_finite()) {
            return bad(format!("read_gbps {}", self.read_gbps_per_thread));
        }
        if !(self.write_gbps_per_thread >= 0.0 && self.write_gbps_per_thread.is_finite()) {
            return bad(format!("write_gbps {}", self.write_gbps_per_thread));
        }
        for (name, v) in [
            ("private_frac", self.private_frac),
            ("latency_sensitivity", self.latency_sensitivity),
            ("serial_frac", self.serial_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return bad(format!("{name} {v} outside [0,1]"));
            }
        }
        if self.serial_frac >= 1.0 {
            return bad("serial_frac must be < 1".into());
        }
        if !(self.multinode_penalty >= 0.0 && self.multinode_penalty.is_finite()) {
            return bad(format!("multinode_penalty {}", self.multinode_penalty));
        }
        if self.shared_pages == 0 {
            return bad("shared_pages must be > 0".into());
        }
        if self.total_traffic_gb.is_nan() || self.total_traffic_gb <= 0.0 {
            return bad(format!("total_traffic_gb {}", self.total_traffic_gb));
        }
        Ok(())
    }
}

/// How the simulator advances time (see `docs/ARCHITECTURE.md`).
///
/// Both modes produce bit-identical results — `Stepped` is the reference
/// semantics, `EventDriven` is an optimization pinned to it by the
/// differential harness in `tests/event_equiv.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Execute every epoch in full: build demand, solve, account.
    #[default]
    Stepped,
    /// Detect quiescent steady state (no pending migrations, no process
    /// at a finish or phase boundary, bandwidth allocation at its fixed
    /// point) and replay only the progress-accounting stage until the
    /// next interesting time — phase boundary, process finish, daemon
    /// fire, or the run limit — instead of re-solving identical epochs.
    EventDriven,
}

impl EngineMode {
    /// Stable lowercase label (CLI flag values, report provenance).
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Stepped => "stepped",
            EngineMode::EventDriven => "event-driven",
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Epoch length, simulated seconds.
    pub epoch_dt: f64,
    /// Per-process migration engine bandwidth cap (GB/s) — the kernel's
    /// page-copy throughput budget.
    pub migration_gbps: f64,
    /// Memory-controller behaviour.
    pub ctrl_model: ControllerModel,
    /// Loaded-latency inflation `(a, b)`: access latency to a node scales
    /// by `1 + a * rho^b` with `rho` its controller's utilization (see
    /// `demand::latency_inflation`). Set `a = 0` to ablate queueing
    /// delay.
    pub latency_inflation: (f64, f64),
    /// Time-advancement strategy; results are identical in both modes.
    pub mode: EngineMode,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            epoch_dt: 0.005,
            migration_gbps: 2.0,
            ctrl_model: ControllerModel::default(),
            latency_inflation: (2.0, 4.0),
            mode: EngineMode::default(),
        }
    }
}

impl SimConfig {
    /// Check what [`Simulator::new`] relies on: a finite, positive
    /// `epoch_dt` and a valid controller model.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.epoch_dt.is_finite() && self.epoch_dt > 0.0) {
            return Err(SimError::InvalidConfig(format!(
                "epoch_dt must be finite and > 0, got {}",
                self.epoch_dt
            )));
        }
        self.ctrl_model.validate().map_err(SimError::InvalidConfig)
    }
}

struct DaemonSlot {
    next_fire: f64,
    period: f64,
    daemon: Option<Box<dyn Daemon>>,
}

/// One process's migration attempt this epoch (post-solve bookkeeping).
struct MigAttempt {
    pid: ProcessId,
    pages: usize,
}

/// Exact work counts of one [`Simulator`], deterministic for a given
/// scenario, so tests can pin them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Full epochs: calls to [`Simulator::step`], including the one that
    /// opens each event-driven stride.
    pub full_epochs: u64,
    /// Max-min solves run. A full epoch that reuses a stored epoch plan
    /// builds no demand and runs none. Debug builds rebuild every reused
    /// plan to check it; those solves are not counted.
    pub solves: u64,
}

/// Stored epoch plans: the loaded-latency feedback settles into orbits of
/// period 1, 2 or 4, so most full epochs start from one of the last four
/// controller-utilization vectors bit for bit.
const PLAN_SLOTS: usize = 4;

/// What stages 1–3 of a full epoch produce and stages 4–5 read.
#[derive(Default)]
struct EpochPlan {
    /// `(pid, meta)` per application group, parallel to the first groups
    /// of `solved`. A process's groups are contiguous, in pid order.
    app_meta: Vec<(ProcessId, demand::GroupMeta)>,
    /// Arena of per-group traffic-share vectors
    /// ([`demand::GroupMeta::share_off`] indexes into it).
    shares: Vec<f64>,
    /// The bandwidth allocation: the app groups' activities, then one per
    /// migration attempt.
    solved: Allocation,
    /// Controller utilization per node under that allocation.
    util: Vec<f64>,
    /// Stage 4's counter updates for an epoch in which no process
    /// finishes, recorded once per plan.
    tape: AccountingTape,
}

impl EpochPlan {
    /// Whether `self` and `other` hold the same bits.
    fn bitwise_eq(&self, other: &EpochPlan) -> bool {
        self.app_meta.len() == other.app_meta.len()
            && self
                .app_meta
                .iter()
                .zip(&other.app_meta)
                .all(|((p, a), (q, b))| p == q && a.bitwise_eq(b))
            && bits_eq(&self.shares, &other.shares)
            && self.solved.bitwise_eq(&other.solved)
            && bits_eq(&self.util, &other.util)
            && self.tape.bitwise_eq(&other.tape)
    }

    /// Progress rate of the app groups `groups` (one process's), GB/s.
    fn rate_gbps(&self, groups: Range<usize>) -> f64 {
        groups.map(|gi| self.solved.activity[gi] * self.app_meta[gi].1.demand_gbps).sum()
    }

    /// Stage 4's counter updates for the app groups `groups` (one
    /// process's, running `profile`) over `dt_eff` seconds, in the order
    /// they are applied: each group's cycles, then its flows. Both the
    /// tape and the epoch a process finishes in take them from here.
    fn increments(
        &self,
        groups: Range<usize>,
        profile: &AppProfile,
        dt_eff: f64,
        n: usize,
        mut emit: impl FnMut(Increment),
    ) {
        let alpha = profile.latency_sensitivity;
        // One division per process, not one per group per node.
        let read_frac = {
            let tot = profile.read_gbps_per_thread + profile.write_gbps_per_thread;
            if tot > 0.0 {
                profile.read_gbps_per_thread / tot
            } else {
                1.0
            }
        };
        for gi in groups {
            let meta = &self.app_meta[gi].1;
            let u = self.solved.activity[gi];
            let stall = demand::stall_fraction(u, alpha, meta.latency_factor);
            let cycles = meta.cycle_threads * CLOCK_HZ * dt_eff;
            emit(Increment::Cycles { cycles, stall: stall * cycles });
            let node_bytes = u * meta.demand_gbps * 1e9 * dt_eff;
            let share = &self.shares[meta.share_off..meta.share_off + n];
            for (i, &share_i) in share.iter().enumerate() {
                if share_i > 1e-12 {
                    emit(Increment::Flow {
                        src: i as u16,
                        dst: meta.node as u16,
                        read: node_bytes * share_i * read_frac,
                        write: node_bytes * share_i * (1.0 - read_frac),
                    });
                }
            }
        }
    }
}

/// One counter update of stage 4.
#[derive(Clone, Copy)]
enum Increment {
    /// A group's cycles and stall cycles.
    Cycles { cycles: f64, stall: f64 },
    /// Bytes threads on node `dst` read from and wrote to memory on `src`.
    Flow { src: u16, dst: u16, read: f64, write: f64 },
}

impl Increment {
    fn apply(self, counters: &mut PerfCounters, pid: ProcessId) {
        match self {
            Increment::Cycles { cycles, stall } => counters.record_cycles(pid, cycles, stall),
            Increment::Flow { src, dst, read, write } => {
                counters.record_flow(pid, src.into(), dst.into(), read, write)
            }
        }
    }

    /// The variant and every field, floats as bits.
    fn bits(self) -> (bool, u16, u16, u64, u64) {
        match self {
            Increment::Cycles { cycles, stall } => (false, 0, 0, cycles.to_bits(), stall.to_bits()),
            Increment::Flow { src, dst, read, write } => {
                (true, src, dst, read.to_bits(), write.to_bits())
            }
        }
    }
}

/// Stage 4 of an epoch in which no process finishes (`dt_eff == dt`),
/// computed once when its plan is built: each process's progress rate
/// and counter updates. Replaying it hands every accumulator the floats
/// a recomputation would, in the same order.
#[derive(Default)]
struct AccountingTape {
    /// One entry per process with app groups, in pid order.
    procs: Vec<TapeProc>,
    /// Every process's increments, back to back.
    incs: Vec<Increment>,
}

/// One process's part of an [`AccountingTape`]. Its app groups and
/// increments start where the previous entry's end.
struct TapeProc {
    pid: ProcessId,
    /// Progress rate, GB/s.
    rate_gbps: f64,
    /// Exclusive end of its groups in [`EpochPlan::app_meta`].
    groups_end: usize,
    /// Exclusive end of its increments in [`AccountingTape::incs`].
    incs_end: usize,
}

impl AccountingTape {
    /// Record `plan`'s accounting for processes `procs` over `dt` seconds
    /// on an `n`-node machine.
    fn record(&mut self, plan: &EpochPlan, procs: &[SimProcess], dt: f64, n: usize) {
        self.procs.clear();
        self.incs.clear();
        let mut start = 0;
        while start < plan.app_meta.len() {
            let pid = plan.app_meta[start].0;
            debug_assert!(
                self.procs.last().map_or(true, |e| e.pid < pid),
                "groups out of pid order"
            );
            let end = plan.app_meta[start..]
                .iter()
                .position(|(q, _)| *q != pid)
                .map_or(plan.app_meta.len(), |k| start + k);
            plan.increments(start..end, &procs[pid.0].profile, dt, n, |inc| self.incs.push(inc));
            self.procs.push(TapeProc {
                pid,
                rate_gbps: plan.rate_gbps(start..end),
                groups_end: end,
                incs_end: self.incs.len(),
            });
            start = end;
        }
    }

    /// Whether `self` and `other` hold the same bits.
    fn bitwise_eq(&self, other: &AccountingTape) -> bool {
        self.procs.len() == other.procs.len()
            && self.procs.iter().zip(&other.procs).all(|(a, b)| {
                a.pid == b.pid
                    && a.rate_gbps.to_bits() == b.rate_gbps.to_bits()
                    && a.groups_end == b.groups_end
                    && a.incs_end == b.incs_end
            })
            && self.incs.len() == other.incs.len()
            && self.incs.iter().zip(&other.incs).all(|(a, b)| a.bits() == b.bits())
    }
}

/// Whether two float slices hold the same bits (so `-0.0 != 0.0`).
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The last [`PLAN_SLOTS`] epoch plans, each keyed by the controller
/// utilization it was built from. A plan is a pure function of that
/// utilization and of the running processes' inputs (profile, threads,
/// page distributions), so while the latter stay unchanged a
/// bitwise-equal key has a bitwise-equal plan. Plans are read and built
/// where they are stored.
#[derive(Default)]
struct PlanMemo {
    /// The first `live` hold stored plans, the rest are spare buffers.
    slots: Vec<MemoSlot>,
    live: usize,
    /// Hits and stores so far.
    uses: u64,
}

#[derive(Default)]
struct MemoSlot {
    /// The utilization the plan was built from.
    key: Vec<f64>,
    /// [`PlanMemo::uses`] at the slot's last hit or store: the smallest
    /// marks the least recently used.
    used: u64,
    plan: EpochPlan,
}

impl PlanMemo {
    /// Drop every stored plan, keeping the buffers.
    fn clear(&mut self) {
        self.live = 0;
    }

    /// The slot of the plan built from utilization bitwise equal to
    /// `util`, now the most recently used; `None` when none is stored.
    fn lookup(&mut self, util: &[f64]) -> Option<usize> {
        let i = self.slots[..self.live].iter().position(|s| bits_eq(&s.key, util))?;
        self.uses += 1;
        self.slots[i].used = self.uses;
        Some(i)
    }

    /// A slot, keyed by `util` and marked most recently used, for the
    /// caller to build that utilization's plan into: a spare one while
    /// fewer than [`PLAN_SLOTS`] plans are stored, else the least
    /// recently used.
    fn claim(&mut self, util: &[f64]) -> usize {
        let i = if self.live < PLAN_SLOTS {
            if self.slots.len() == self.live {
                self.slots.push(MemoSlot::default());
            }
            self.live += 1;
            self.live - 1
        } else {
            (0..PLAN_SLOTS).min_by_key(|&i| self.slots[i].used).expect("PLAN_SLOTS > 0")
        };
        self.uses += 1;
        let slot = &mut self.slots[i];
        slot.used = self.uses;
        slot.key.clear();
        slot.key.extend_from_slice(util);
        i
    }
}

/// The epoch loop's persistent workspace: every buffer `step` needs,
/// allocated once and reused — in steady state an epoch performs no heap
/// allocation at all (see `docs/PERFORMANCE.md`).
#[derive(Default)]
struct StepScratch {
    /// Fabric demand set (group headers + flow arena).
    ds: DemandSet,
    /// Fabric solver buffers.
    solve_ws: SolveScratch,
    /// Recent plans, reused when an epoch starts from the same utilization.
    plans: PlanMemo,
    /// The slot of `plans` this epoch's plan was found in or built into.
    slot: usize,
    /// Demand-building buffers (cached page distributions, latency
    /// inflation).
    demand_ws: demand::DemandScratch,
    /// Migration groups appended after the app groups.
    mig_meta: Vec<MigAttempt>,
    /// Per-pair page counts of one process's attempted, then landed,
    /// migrations.
    pairs: PairTally,
    /// Ranges completed this epoch.
    completed: Vec<PendingRange>,
}

impl StepScratch {
    /// This epoch's plan, where it lies.
    fn epoch_plan(&self) -> &EpochPlan {
        &self.plans.slots[self.slot].plan
    }
}

/// Page counts per `(from, to)` node pair, with the pairs kept in
/// first-appearance order — the order migration flows enter the solver
/// and the counters, which must match the queue's page order exactly.
#[derive(Default)]
struct PairTally {
    /// Dense `n*n` counts.
    count: Vec<u64>,
    /// Pairs with a non-zero count, first appearance first.
    order: Vec<(NodeId, NodeId)>,
    n: usize,
}

impl PairTally {
    /// Zero every count for an `n`-node machine.
    fn reset(&mut self, n: usize) {
        if self.n != n {
            self.n = n;
            self.count.clear();
            self.count.resize(n * n, 0);
        }
        for &(from, to) in &self.order {
            self.count[from.idx() * n + to.idx()] = 0;
        }
        self.order.clear();
    }

    fn add(&mut self, from: NodeId, to: NodeId, pages: u64) {
        debug_assert!(pages > 0);
        let c = &mut self.count[from.idx() * self.n + to.idx()];
        if *c == 0 {
            self.order.push((from, to));
        }
        *c += pages;
    }

    /// `(from, to, pages)` in first-appearance order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.order.iter().map(|&(from, to)| (from, to, self.count[from.idx() * self.n + to.idx()]))
    }
}

/// The simulated machine + OS. See module docs.
pub struct Simulator {
    machine: MachineTopology,
    resources: ResourceTable,
    cfg: SimConfig,
    frames: FramePools,
    fallback: Vec<Vec<NodeId>>,
    procs: Vec<SimProcess>,
    daemons: Vec<DaemonSlot>,
    clock: f64,
    counters: PerfCounters,
    /// Controller utilization per node in the previous epoch (drives the
    /// loaded-latency feedback).
    ctrl_util: Vec<f64>,
    /// Whether the last full epoch was quiescent: re-running it would
    /// change nothing but the clock and accumulated progress.
    quiescent: bool,
    /// Reused epoch-loop buffers.
    scratch: StepScratch,
    /// Whether a demand input other than the controller utilization may
    /// have changed since the last full epoch: a process spawned, arrived,
    /// departed, finished or switched phase, or was changed through
    /// `process_mut`. The next full epoch then drops every stored plan.
    plans_dirty: bool,
    /// Work counts so far.
    stats: EngineStats,
    /// Structured run tracing; `None` (the default) makes every hook a
    /// single branch and keeps the epoch loop allocation-free.
    trace: Option<TraceSink>,
}

impl Simulator {
    /// Boot a machine.
    ///
    /// # Panics
    ///
    /// If `cfg` fails [`SimConfig::validate`]; callers taking a config
    /// from outside check it first.
    pub fn new(machine: MachineTopology, cfg: SimConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let resources = ResourceTable::from_machine(&machine);
        let frames = FramePools::from_machine(&machine);
        let n = machine.node_count();
        // Allocation spill order: nearest (lowest latency) first.
        let fallback: Vec<Vec<NodeId>> = (0..n)
            .map(|t| {
                let mut others: Vec<NodeId> =
                    (0..n).filter(|&i| i != t).map(|i| NodeId(i as u16)).collect();
                others.sort_by(|a, b| {
                    machine
                        .latency_ns()
                        .get(*a, NodeId(t as u16))
                        .partial_cmp(&machine.latency_ns().get(*b, NodeId(t as u16)))
                        .unwrap()
                        .then(a.0.cmp(&b.0))
                });
                others
            })
            .collect();
        Simulator {
            counters: PerfCounters::new(n),
            machine,
            resources,
            cfg,
            frames,
            fallback,
            procs: Vec::new(),
            daemons: Vec::new(),
            clock: 0.0,
            ctrl_util: vec![0.0; n],
            quiescent: false,
            scratch: StepScratch::default(),
            plans_dirty: false,
            stats: EngineStats::default(),
            trace: None,
        }
    }

    /// Install a [`TraceSink`]: from now on the engine records epochs,
    /// phase switches, migration activity and per-link bandwidth shares
    /// into it (see [`crate::trace`] and `docs/TRACING.md`). Replaces any
    /// previously installed sink. Tracks are named for already-spawned
    /// processes immediately; later spawns name themselves.
    pub fn set_trace_sink(&mut self, mut sink: TraceSink) {
        let ts = trace::ts_us(self.clock);
        sink.note_track(trace::ENGINE_TRACK, "engine", ts);
        for p in &self.procs {
            sink.note_track(trace::process_track(p.id), &p.profile.name, ts);
        }
        self.trace = Some(sink);
    }

    /// Remove and return the installed sink (typically to serialize it
    /// with [`TraceSink::to_chrome_json`] after a run).
    pub fn take_trace_sink(&mut self) -> Option<TraceSink> {
        self.trace.take()
    }

    /// Whether a trace sink is installed.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Record a generic instant marker at the current simulated time, on
    /// a process's track (or the engine track with `pid == None`). A
    /// no-op without a sink. This is the hook daemons layered above the
    /// simulator use to place their own decisions on the timeline — e.g.
    /// the BWAP runtime's adaptive tuner marks each retune — without the
    /// engine knowing their vocabulary.
    pub fn trace_instant(
        &mut self,
        name: &'static str,
        pid: Option<ProcessId>,
        args: &[(&'static str, f64)],
    ) {
        let ts = trace::ts_us(self.clock);
        if let Some(tr) = self.trace.as_mut() {
            let track = pid.map_or(trace::ENGINE_TRACK, trace::process_track);
            tr.instant(
                name,
                ts,
                track,
                args.iter().map(|&(k, v)| (k.into(), ArgValue::F64(v))).collect(),
            );
        }
    }

    /// Controller utilization per node during the previous epoch.
    pub fn controller_utilization(&self) -> &[f64] {
        &self.ctrl_util
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineTopology {
        &self.machine
    }

    /// Current simulated time, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Performance counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Engine configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Work counts so far: full epochs and max-min solves.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Launch a process: pin `threads_per_node` threads (default: every
    /// core) on each worker node, allocate and first-touch its memory under
    /// `policy` (applied to all segments, like `numactl`).
    ///
    /// Shared pages are touched by the master thread on the first worker
    /// node; private pages by their owning thread — so under
    /// [`MemPolicy::FirstTouch`] shared data centralizes on one node, the
    /// pathology the paper's Fig. 1b demonstrates.
    pub fn spawn(
        &mut self,
        profile: AppProfile,
        workers: NodeSet,
        threads_per_node: Option<u16>,
        policy: MemPolicy,
    ) -> Result<ProcessId, SimError> {
        self.spawn_inner(profile, workers, threads_per_node, policy, None)
    }

    /// Register a process that arrives at simulated time `at` (>= the
    /// current clock). Validation and memory placement happen now — pages
    /// are pre-faulted at submission, so placement policies see the final
    /// layout — but the process stays [`ProcessState::Pending`] and
    /// generates no demand until the first epoch boundary at or past `at`,
    /// when the engine activates it and emits an `"arrival"` trace instant.
    ///
    /// An idle event-driven simulator strides across the gap to the next
    /// arrival instead of stepping through it epoch by epoch.
    pub fn spawn_at(
        &mut self,
        at: f64,
        profile: AppProfile,
        workers: NodeSet,
        threads_per_node: Option<u16>,
        policy: MemPolicy,
    ) -> Result<ProcessId, SimError> {
        if !at.is_finite() || at + 1e-12 < self.clock {
            return Err(SimError::InvalidTime(format!(
                "arrival time {at} is before the clock ({})",
                self.clock
            )));
        }
        self.spawn_inner(profile, workers, threads_per_node, policy, Some(at))
    }

    /// Schedule `pid` to depart (leave the machine) at simulated time `at`
    /// (>= the current clock), whether or not its work has completed by
    /// then. The engine retires the process at the first epoch boundary at
    /// or past `at`: it stops generating demand, pending migrations are
    /// dropped (their drain flows close), and a `"departure"` trace
    /// instant is emitted. A later call replaces an earlier schedule. A
    /// pending process may depart before it arrives; it then never runs.
    pub fn depart_at(&mut self, pid: ProcessId, at: f64) -> Result<(), SimError> {
        if !at.is_finite() || at + 1e-12 < self.clock {
            return Err(SimError::InvalidTime(format!(
                "departure time {at} is before the clock ({})",
                self.clock
            )));
        }
        let p = self.process_mut(pid)?;
        if matches!(p.state, ProcessState::Finished { .. }) {
            return Err(SimError::ProcessFinished(pid.0));
        }
        p.departs_at = Some(at);
        Ok(())
    }

    fn spawn_inner(
        &mut self,
        profile: AppProfile,
        workers: NodeSet,
        threads_per_node: Option<u16>,
        policy: MemPolicy,
        arrival: Option<f64>,
    ) -> Result<ProcessId, SimError> {
        profile.validate()?;
        policy.validate(self.machine.node_count())?;
        if workers.is_empty() {
            return Err(SimError::InvalidNodes("empty worker set".into()));
        }
        if !workers.is_subset(self.machine.all_nodes()) {
            return Err(SimError::InvalidNodes(format!("workers {workers} exceed machine")));
        }
        // Threads can only run on worker-capable nodes; CPU-less expander
        // tiers hold pages, never threads (AutoNUMA and the scenario
        // runners rely on this same guarantee).
        if let Some(w) = workers.iter().find(|&w| self.machine.node(w).is_memory_only()) {
            return Err(SimError::InvalidNodes(format!(
                "worker node {w} is memory-only (no cores)"
            )));
        }
        let min_cores =
            workers.iter().map(|w| self.machine.node(w).cores).min().expect("non-empty workers");
        let tpn = threads_per_node.unwrap_or(min_cores);
        if tpn == 0 || tpn > min_cores {
            return Err(SimError::InvalidNodes(format!(
                "threads per node {tpn} exceeds cores {min_cores}"
            )));
        }
        let pid = ProcessId(self.procs.len());
        let mut threads_per_node_vec = vec![0u16; self.machine.node_count()];
        for w in workers.iter() {
            threads_per_node_vec[w.idx()] = tpn;
        }
        let master = workers.min().expect("non-empty workers");
        let mut aspace = AddressSpace::new();
        let shared_seg = aspace.create_segment(
            SegmentKind::Shared,
            profile.shared_pages,
            &policy,
            master,
            &mut self.frames,
            &self.fallback,
        )?;
        let mut private_segs = Vec::new();
        let mut thread_idx = 0usize;
        for w in workers.iter() {
            for _ in 0..tpn {
                let seg = aspace.create_segment(
                    SegmentKind::Private { thread: thread_idx },
                    profile.private_pages_per_thread.max(1),
                    &policy,
                    w,
                    &mut self.frames,
                    &self.fallback,
                )?;
                private_segs.push((w, seg));
                thread_idx += 1;
            }
        }
        self.counters.register_process(pid);
        let (state, started_at) = match arrival {
            Some(at) => (ProcessState::Pending { at }, at),
            None => (ProcessState::Running, self.clock),
        };
        self.procs.push(SimProcess {
            id: pid,
            profile,
            workers,
            threads_per_node: threads_per_node_vec,
            aspace,
            shared_seg,
            private_segs,
            work_done_gb: 0.0,
            state,
            started_at,
            departs_at: None,
            migrations: MigrationQueue::new(),
            migration_credit: 0.0,
            phases: None,
        });
        self.plans_dirty = true;
        if let Some(tr) = self.trace.as_mut() {
            tr.note_track(
                trace::process_track(pid),
                &self.procs[pid.0].profile.name,
                trace::ts_us(self.clock),
            );
        }
        Ok(pid)
    }

    /// Borrow a process.
    pub fn process(&self, pid: ProcessId) -> Result<&SimProcess, SimError> {
        self.procs.get(pid.0).ok_or(SimError::NoSuchProcess(pid.0))
    }

    /// Borrow a process to change it; stored epoch plans are dropped before
    /// the next full epoch.
    fn process_mut(&mut self, pid: ProcessId) -> Result<&mut SimProcess, SimError> {
        self.plans_dirty = true;
        self.procs.get_mut(pid.0).ok_or(SimError::NoSuchProcess(pid.0))
    }

    /// `mbind(2)` analogue: apply `policy` to `[start, start+len)` of a
    /// segment. With `move_pages` (the `MPOL_MF_MOVE | MPOL_MF_STRICT`
    /// combination the paper uses), queues migration of non-complying
    /// pages; they move at the migration engine's rate over the following
    /// epochs. Returns the number of queued page moves.
    ///
    /// Non-compliance is computed per (extent × policy block) piece and
    /// queued as patterned [`PendingRange`]s — O(extents + policy blocks),
    /// not O(pages), even when the policy interleaves; without
    /// `move_pages` the call returns after validation, before any scan.
    pub fn mbind(
        &mut self,
        pid: ProcessId,
        seg: SegmentId,
        start: u64,
        len: u64,
        policy: MemPolicy,
        move_pages: bool,
    ) -> Result<usize, SimError> {
        policy.validate(self.machine.node_count())?;
        let pending = {
            let proc_ = self.process(pid)?;
            let master = proc_.master_node();
            let segment = proc_.aspace.segment(seg)?;
            check_range(start, len, segment.len())?;
            if !move_pages {
                return Ok(0);
            }
            segment.non_complying_runs(seg, start, len, &policy, master)?
        };
        // A new mbind over the range supersedes any moves still queued for
        // it (the latest policy wins, as with Linux's synchronous mbind).
        let proc_ = self.process_mut(pid)?;
        proc_.migrations.cancel_range(seg, start, len);
        let count: u64 = pending.iter().map(PendingRange::moved).sum();
        proc_.migrations.enqueue_ranges(pending);
        if count > 0 {
            if let Some(tr) = self.trace.as_mut() {
                tr.instant(
                    "mbind",
                    trace::ts_us(self.clock),
                    trace::process_track(pid),
                    vec![
                        ("segment".into(), ArgValue::U64(seg.0 as u64)),
                        ("queued".into(), ArgValue::U64(count)),
                    ],
                );
            }
        }
        Ok(count as usize)
    }

    /// Apply one policy across every segment of the process (shared and
    /// private), as `numactl` does for a whole address space. Returns total
    /// queued moves.
    pub fn apply_policy_all_segments(
        &mut self,
        pid: ProcessId,
        policy: &MemPolicy,
        move_pages: bool,
    ) -> Result<usize, SimError> {
        let segs: Vec<(SegmentId, u64)> =
            self.process(pid)?.aspace.iter().map(|(id, s)| (id, s.len())).collect();
        let mut total = 0;
        for (id, len) in segs {
            total += self.mbind(pid, id, 0, len, policy.clone(), move_pages)?;
        }
        Ok(total)
    }

    /// Directly enqueue page-move ranges (used by AutoNUMA and tests).
    /// Every range must name an existing segment, lie inside it and name
    /// only nodes of this machine; otherwise nothing is queued and the
    /// error names the first offender.
    pub fn enqueue_move_ranges(
        &mut self,
        pid: ProcessId,
        ranges: Vec<PendingRange>,
    ) -> Result<(), SimError> {
        let node_count = self.machine.node_count();
        let p = self.process_mut(pid)?;
        for r in &ranges {
            check_range(r.start, r.len, p.aspace.segment(r.segment)?.len())?;
            r.pat.validate(node_count)?;
        }
        p.migrations.enqueue_ranges(ranges);
        Ok(())
    }

    /// Number of queued-but-unfinished page moves.
    pub fn pending_migrations(&self, pid: ProcessId) -> usize {
        self.procs.get(pid.0).map_or(0, |p| p.migrations.pending())
    }

    /// Pages migrated so far on behalf of `pid`.
    pub fn migrated_pages(&self, pid: ProcessId) -> u64 {
        self.procs.get(pid.0).map_or(0, |p| p.migrations.migrated_total)
    }

    /// Replace a running process's workload characterization mid-run —
    /// the simulated analogue of an application entering a new execution
    /// phase (different demand, read/write mix, latency sensitivity).
    /// Memory layout (segment sizes) is kept; only demand characteristics
    /// change. Total work continues counting against the *new* profile's
    /// `total_traffic_gb`.
    pub fn set_profile(&mut self, pid: ProcessId, profile: AppProfile) -> Result<(), SimError> {
        profile.validate()?;
        let p = self.process_mut(pid)?;
        if !p.is_running() {
            return Err(SimError::ProcessFinished(pid.0));
        }
        p.profile = profile;
        Ok(())
    }

    /// Install a cycling phase schedule on a running process: the engine
    /// swaps the process's demand profile at each phase boundary (start of
    /// the first epoch at or past the boundary), cycling phase 0 → 1 → …
    /// → 0 until the process finishes. The simulated analogue of an
    /// application with phase-structured behaviour; memory layout stays
    /// fixed, exactly as with [`Simulator::set_profile`].
    ///
    /// The process's profile is set to phase 0's immediately. Every phase
    /// needs a positive finite duration and a valid profile; the phase
    /// list must be non-empty.
    pub fn set_phase_timeline(
        &mut self,
        pid: ProcessId,
        phases: Vec<(f64, AppProfile)>,
    ) -> Result<(), SimError> {
        if phases.is_empty() {
            return Err(SimError::InvalidProfile("empty phase timeline".into()));
        }
        for (i, (d, profile)) in phases.iter().enumerate() {
            // A phase must span at least one epoch: boundaries are only
            // observed at epoch granularity, and a duration below the
            // float ulp of the clock would never advance `next_switch`
            // (an infinite loop, not just a skipped phase).
            if !(d.is_finite() && *d >= self.cfg.epoch_dt) {
                return Err(SimError::InvalidProfile(format!(
                    "phase {i}: duration {d} shorter than one epoch ({})",
                    self.cfg.epoch_dt
                )));
            }
            profile.validate()?;
        }
        let clock = self.clock;
        let p = self.process_mut(pid)?;
        if !p.is_running() {
            return Err(SimError::ProcessFinished(pid.0));
        }
        p.profile = phases[0].1.clone();
        p.phases = Some(crate::process::PhaseTimeline {
            next_switch: clock + phases[0].0,
            phases,
            idx: 0,
            switches: 0,
        });
        Ok(())
    }

    /// Phase boundaries a process has crossed so far (0 for processes
    /// without a timeline).
    pub fn phase_switches(&self, pid: ProcessId) -> u64 {
        self.procs.get(pid.0).and_then(|p| p.phases.as_ref()).map_or(0, |t| t.switches)
    }

    /// Snapshot of a process's cycle/stall/traffic counters.
    pub fn sample(&self, pid: ProcessId) -> Result<ProcessSample, SimError> {
        let pc = self
            .procs
            .get(pid.0)
            .ok_or(SimError::NoSuchProcess(pid.0))
            .map(|_| self.counters.process(pid))?;
        Ok(ProcessSample {
            time: self.clock,
            cycles: pc.cycles,
            stall_cycles: pc.stall_cycles,
            traffic_bytes: pc.traffic_bytes,
        })
    }

    /// Current page distribution of the shared segment (fractions per
    /// node).
    pub fn shared_distribution(&self, pid: ProcessId) -> Result<Vec<f64>, SimError> {
        let p = self.process(pid)?;
        Ok(p.aspace.segment(p.shared_seg)?.distribution())
    }

    /// Aggregate page distribution over the whole address space.
    pub fn full_distribution(&self, pid: ProcessId) -> Result<Vec<f64>, SimError> {
        let p = self.process(pid)?;
        let counts = p.aspace.node_counts(self.machine.node_count());
        let total: u64 = counts.iter().sum();
        Ok(counts.iter().map(|&c| c as f64 / total.max(1) as f64).collect())
    }

    /// Register a periodic daemon; first fire at `clock + phase`, then
    /// every `period`.
    ///
    /// # Panics
    ///
    /// If `period` is not positive and finite, or `phase` is not finite.
    /// Callers taking a period from outside check it first.
    pub fn add_daemon(&mut self, daemon: Box<dyn Daemon>, period: f64, phase: f64) {
        assert!(
            period > 0.0 && period.is_finite() && phase.is_finite(),
            "daemon period must be finite and positive, phase finite: got {period}, {phase}"
        );
        self.daemons.push(DaemonSlot {
            next_fire: self.clock + phase,
            period,
            daemon: Some(daemon),
        });
    }

    /// Execution time of a finished process.
    pub fn execution_time(&self, pid: ProcessId) -> Option<f64> {
        self.procs.get(pid.0).and_then(|p| p.execution_time())
    }

    /// Advance one epoch.
    pub fn step(&mut self) {
        self.stats.full_epochs += 1;
        let dt = self.cfg.epoch_dt;
        let n = self.machine.node_count();
        let epoch_ts = trace::ts_us(self.clock);
        if let Some(tr) = self.trace.as_mut() {
            tr.begin("epoch", epoch_ts, trace::ENGINE_TRACK);
        }

        // 0a. Lifecycle: activate due arrivals and retire due departures
        // before demand assembly, so a job arriving this epoch contributes
        // demand this epoch and a departing one contributes none.
        let any_lifecycle = self.process_lifecycle(epoch_ts);

        // 0. Phase boundaries: swap demand profiles of phase-structured
        // processes. Steady-state epochs only compare the clock; the
        // profile clone happens at boundaries (a handful per run).
        for p in &mut self.procs {
            if !p.is_running() {
                continue;
            }
            let Some(tl) = p.phases.as_mut() else { continue };
            while self.clock + 1e-12 >= tl.next_switch {
                tl.idx = (tl.idx + 1) % tl.phases.len();
                tl.next_switch += tl.phases[tl.idx].0;
                tl.switches += 1;
                p.profile = tl.phases[tl.idx].1.clone();
                self.plans_dirty = true;
                if let Some(tr) = self.trace.as_mut() {
                    tr.instant(
                        "phase-switch",
                        epoch_ts,
                        trace::process_track(p.id),
                        vec![
                            ("phase".into(), ArgValue::U64(tl.idx as u64)),
                            ("switches".into(), ArgValue::U64(tl.switches)),
                        ],
                    );
                }
            }
        }

        // 1-3. The epoch's plan. Reuse a stored one built from bitwise-equal
        // utilization, where it lies, unless a process input changed since
        // it was stored; otherwise build it into a claimed slot. While
        // migrations are queued their traffic and landings change from
        // epoch to epoch, so such a plan is never looked up, and it is
        // dropped before the next epoch.
        if std::mem::take(&mut self.plans_dirty) {
            self.scratch.plans.clear();
        }
        let queued = self.procs.iter().any(|p| !p.migrations.is_empty());
        let hit = if queued { None } else { self.scratch.plans.lookup(&self.ctrl_util) };
        if let Some(slot) = hit {
            self.scratch.slot = slot;
            self.scratch.mig_meta.clear();
            if cfg!(debug_assertions) {
                let mut fresh = EpochPlan::default();
                self.build_plan(&mut fresh);
                assert!(
                    fresh.bitwise_eq(self.scratch.epoch_plan()),
                    "a reused epoch plan differs from a fresh build"
                );
            }
        } else {
            self.stats.solves += 1;
            self.plans_dirty |= queued;
            let slot = self.scratch.plans.claim(&self.ctrl_util);
            self.scratch.slot = slot;
            let mut plan = std::mem::take(&mut self.scratch.plans.slots[slot].plan);
            self.build_plan(&mut plan);
            self.scratch.plans.slots[slot].plan = plan;
        }
        let scratch = &mut self.scratch;
        if let Some(tr) = self.trace.as_mut() {
            for att in &scratch.mig_meta {
                tr.drain_start(
                    att.pid.0,
                    trace::process_track(att.pid),
                    epoch_ts,
                    self.procs[att.pid.0].migrations.pending() as u64,
                );
            }
        }
        // The demand → allocation → utilization feedback is at its fixed
        // point when the plan reproduces the utilization it was built
        // from: one of the conditions for an event-driven stride.
        let slot = &scratch.plans.slots[scratch.slot];
        let util_fixed = slot.key == slot.plan.util;
        self.ctrl_util.clone_from(&slot.plan.util);
        if let Some(tr) = self.trace.as_mut() {
            tr.link_counters(epoch_ts, self.resources.link_shares(&scratch.epoch_plan().solved));
        }

        // 4. Progress, stalls, counters — the one stage an event-driven
        // stride replays per skipped epoch, so it lives in its own method.
        let any_finished = self.advance_progress();
        let scratch = &mut self.scratch;
        let app_groups = scratch.epoch_plan().app_meta.len();

        // 5. Complete migrations: one patterned splice per completed range.
        for mi in 0..scratch.mig_meta.len() {
            let att = &scratch.mig_meta[mi];
            let u = scratch.epoch_plan().solved.activity[app_groups + mi];
            let pid = att.pid;
            self.procs[pid.0].migration_credit += u * att.pages as f64;
            let done = (self.procs[pid.0].migration_credit + 1e-9).floor() as usize;
            if done == 0 {
                continue;
            }
            self.procs[pid.0].migration_credit -= done as f64;
            let StepScratch { completed, pairs, demand_ws, .. } = &mut *scratch;
            completed.clear();
            self.procs[pid.0].migrations.complete_into(done, completed);
            demand_ws.pages_moved(pid);
            // Pages land against the live page table (a later mbind or
            // AutoNUMA may have moved them since they were queued) and
            // frame pools; the landed pages are counted once per pair.
            pairs.reset(n);
            let aspace = &mut self.procs[pid.0].aspace;
            for r in completed.iter() {
                aspace.segment_mut(r.segment).expect("validated at enqueue").migrate_range(
                    r.start,
                    r.len,
                    &r.pat,
                    &mut self.frames,
                    |from, to, pages| pairs.add(from, to, pages),
                );
            }
            for (from, to, pages) in pairs.iter() {
                let bytes = pages as f64 * PAGE_SIZE as f64;
                self.counters.record_flow(pid, from.idx(), to.idx(), bytes, 0.0);
                self.counters.record_flow(pid, to.idx(), to.idx(), 0.0, bytes);
            }
            if let Some(tr) = self.trace.as_mut() {
                tr.instant(
                    "migrate",
                    epoch_ts,
                    trace::process_track(pid),
                    vec![
                        ("pages".into(), ArgValue::U64(done as u64)),
                        ("ranges".into(), ArgValue::U64(completed.len() as u64)),
                    ],
                );
            }
        }

        // 5b. Close migration-drain flows whose queue emptied — by
        // completing the last range or by the process finishing.
        if let Some(tr) = self.trace.as_mut() {
            for (i, proc) in self.procs.iter().enumerate() {
                if !proc.migrations.is_empty() {
                    continue;
                }
                if tr.open_drain(i).is_some() {
                    tr.drain_end(
                        i,
                        trace::process_track(ProcessId(i)),
                        epoch_ts,
                        proc.migrations.migrated_total,
                    );
                }
            }
        }

        // 6-7. Advance time, fire daemons.
        let no_migrations = scratch.mig_meta.is_empty();
        self.clock += dt;
        if let Some(tr) = self.trace.as_mut() {
            tr.end("epoch", trace::ts_us(self.clock), trace::ENGINE_TRACK);
        }
        let any_fired = self.fire_due_daemons();
        // Quiescent: no migration traffic in the solve, nobody finished,
        // arrived or departed, no daemon mutated anything, and the
        // utilization feedback is at its fixed point — so re-running the
        // epoch would reproduce the same allocation and only accumulate
        // progress at the same rates.
        self.quiescent =
            no_migrations && !any_finished && !any_fired && !any_lifecycle && util_fixed;
    }

    /// Stages 1–3 of [`Simulator::step`], into `plan`: each running
    /// process's demand groups under the loaded latency of the current
    /// controller utilization, one migration group per process with queued
    /// moves (attempts recorded in `scratch.mig_meta`), the bandwidth
    /// allocation, the controller utilization it produces, and the
    /// accounting tape of stage 4. A missed plan is built here, and so is
    /// the debug check of a reused one.
    fn build_plan(&mut self, plan: &mut EpochPlan) {
        let dt = self.cfg.epoch_dt;
        let n = self.machine.node_count();
        let scratch = &mut self.scratch;
        scratch.ds.clear();
        plan.app_meta.clear();
        plan.shares.clear();
        scratch.demand_ws.begin_epoch(
            &self.ctrl_util,
            self.cfg.latency_inflation,
            self.procs.len(),
        );
        for p in &self.procs {
            if !p.is_running() {
                continue;
            }
            demand::build_app_groups(
                p,
                &self.machine,
                &mut scratch.ds,
                &mut plan.app_meta,
                &mut plan.shares,
                &mut scratch.demand_ws,
            );
        }
        scratch.mig_meta.clear();
        for p in &self.procs {
            if p.migrations.is_empty() {
                continue;
            }
            let budget_pages =
                ((self.cfg.migration_gbps * 1e9 * dt) / PAGE_SIZE as f64).ceil() as usize;
            let attempt = budget_pages.min(p.migrations.pending()).max(1);
            // Aggregate the attempted pages by (from, to) — prefix
            // arithmetic over each range's pattern — in first-appearance
            // order, so the emitted flow order matches the queue page
            // order exactly.
            scratch.pairs.reset(n);
            let mut left = attempt as u64;
            for r in p.migrations.ranges() {
                if left == 0 {
                    break;
                }
                let take = r.moved().min(left);
                left -= take;
                r.for_each_prefix_slot(take, |from, to, pages| scratch.pairs.add(from, to, pages));
            }
            scratch.ds.begin_group(1.0, 1.0);
            for (from, to, count) in scratch.pairs.iter() {
                let rate = count as f64 * PAGE_SIZE as f64 / dt / 1e9;
                // Read the page from its current node...
                scratch.ds.add_flow(FlowDemand {
                    mem: from,
                    cpu: to,
                    read_gbps: rate,
                    write_gbps: 0.0,
                });
                // ...and write it into the destination node.
                scratch.ds.add_flow(FlowDemand {
                    mem: to,
                    cpu: to,
                    read_gbps: 0.0,
                    write_gbps: rate,
                });
            }
            scratch.mig_meta.push(MigAttempt { pid: p.id, pages: attempt });
        }
        scratch.ds.solve_into(
            &self.machine,
            &self.resources,
            &self.cfg.ctrl_model,
            &mut scratch.solve_ws,
            &mut plan.solved,
        );
        plan.util.clear();
        plan.util.extend((0..n).map(|i| {
            let r = self.resources.ctrl(NodeId(i as u16));
            plan.solved.utilization(self.resources.capacities(), r)
        }));
        let mut tape = std::mem::take(&mut plan.tape);
        tape.record(plan, &self.procs, dt, n);
        plan.tape = tape;
    }

    /// Stage 0a of [`Simulator::step`]: transition pending processes whose
    /// arrival time the clock has reached to running, and retire processes
    /// whose scheduled departure is due. Returns whether any transition
    /// happened (such an epoch is never quiescent).
    fn process_lifecycle(&mut self, epoch_ts: u64) -> bool {
        let mut any = false;
        for i in 0..self.procs.len() {
            if let ProcessState::Pending { at } = self.procs[i].state {
                if self.clock + 1e-12 >= at {
                    self.procs[i].state = ProcessState::Running;
                    any = true;
                    if let Some(tr) = self.trace.as_mut() {
                        tr.instant(
                            "arrival",
                            epoch_ts,
                            trace::process_track(self.procs[i].id),
                            vec![("at_s".into(), ArgValue::F64(at))],
                        );
                    }
                }
            }
            let Some(at) = self.procs[i].departs_at else { continue };
            if self.clock + 1e-12 < at {
                continue;
            }
            self.procs[i].departs_at = None;
            if matches!(self.procs[i].state, ProcessState::Finished { .. }) {
                continue;
            }
            // Retire at the scheduled time (never before arrival, so
            // execution time stays non-negative for cancelled jobs).
            let started_at = self.procs[i].started_at;
            self.procs[i].state = ProcessState::Finished { at: at.max(started_at) };
            // Dropped migrations leave the page table as-is; stage 5b
            // closes any still-open drain flow this same epoch.
            self.procs[i].migrations.clear();
            any = true;
            if let Some(tr) = self.trace.as_mut() {
                tr.instant(
                    "departure",
                    epoch_ts,
                    trace::process_track(self.procs[i].id),
                    vec![("at_s".into(), ArgValue::F64(at))],
                );
            }
        }
        self.plans_dirty |= any;
        any
    }

    /// Stage 4 of [`Simulator::step`]: convert the solved bandwidth
    /// allocation into progress, stall cycles and per-flow counters, and
    /// finish processes whose remaining work fits in this epoch. Returns
    /// whether any process finished.
    ///
    /// A process that does not finish runs the whole epoch, so its
    /// counter updates are the ones its plan's tape recorded; only the
    /// epoch a process finishes in computes them again, for the fraction
    /// of the epoch it ran. This is also the replay body of an
    /// event-driven stride: while the engine is quiescent the epoch's
    /// plan stays valid, so [`Simulator::step_stride`] re-runs exactly
    /// this accounting (same values, same order — bit-identical floats)
    /// without rebuilding demand or re-solving.
    fn advance_progress(&mut self) -> bool {
        let dt = self.cfg.epoch_dt;
        let n = self.machine.node_count();
        let epoch_ts = trace::ts_us(self.clock);
        let plan = self.scratch.epoch_plan();
        let mut any_finished = false;
        let (mut groups_start, mut incs_start) = (0, 0);
        for e in &plan.tape.procs {
            let groups = groups_start..e.groups_end;
            let incs = incs_start..e.incs_end;
            (groups_start, incs_start) = (e.groups_end, e.incs_end);
            let p = &mut self.procs[e.pid.0];
            let remaining = p.profile.total_traffic_gb - p.work_done_gb;
            let frac = if e.rate_gbps * dt >= remaining && remaining.is_finite() {
                (remaining / (e.rate_gbps * dt)).clamp(0.0, 1.0)
            } else {
                1.0
            };
            let dt_eff = dt * frac;
            if frac == 1.0 {
                for &inc in &plan.tape.incs[incs] {
                    inc.apply(&mut self.counters, e.pid);
                }
            } else {
                plan.increments(groups, &p.profile, dt_eff, n, |inc| {
                    inc.apply(&mut self.counters, e.pid)
                });
            }
            p.work_done_gb += e.rate_gbps * dt_eff;
            if frac < 1.0 {
                any_finished = true;
                self.plans_dirty = true;
                p.state = ProcessState::Finished { at: self.clock + dt_eff };
                p.migrations.clear();
                // Timestamped at the epoch start to keep emission order
                // non-decreasing in ts; the sub-epoch completion time is
                // an argument.
                if let Some(tr) = self.trace.as_mut() {
                    tr.instant(
                        "finished",
                        epoch_ts,
                        trace::process_track(e.pid),
                        vec![("at_s".into(), ArgValue::F64(self.clock + dt_eff))],
                    );
                }
            }
        }
        any_finished
    }

    /// Fire every daemon whose `next_fire` the clock has reached (stage 7
    /// of [`Simulator::step`], also run per replayed epoch of a stride).
    /// Returns whether any daemon ticked.
    fn fire_due_daemons(&mut self) -> bool {
        let mut any_fired = false;
        let mut i = 0;
        while i < self.daemons.len() {
            if self.clock + 1e-12 >= self.daemons[i].next_fire {
                if let Some(mut d) = self.daemons[i].daemon.take() {
                    any_fired = true;
                    d.tick(self);
                    let done = d.done();
                    self.daemons[i].next_fire += self.daemons[i].period;
                    if !done {
                        self.daemons[i].daemon = Some(d);
                    }
                }
            }
            i += 1;
        }
        self.daemons.retain(|s| s.daemon.is_some());
        any_fired
    }

    /// Whether any running process has a phase boundary at or before the
    /// current clock (stage 0 of the next [`Simulator::step`] would swap
    /// profiles).
    fn phase_boundary_due(&self) -> bool {
        self.procs.iter().any(|p| {
            p.is_running()
                && p.phases.as_ref().is_some_and(|tl| self.clock + 1e-12 >= tl.next_switch)
        })
    }

    /// Whether any pending arrival or scheduled departure is at or before
    /// the current clock (stage 0a of the next [`Simulator::step`] would
    /// transition a process). Breaks an event-driven stride the same way a
    /// phase boundary does.
    fn lifecycle_due(&self) -> bool {
        self.procs.iter().any(|p| {
            (matches!(p.state, ProcessState::Pending { at } if self.clock + 1e-12 >= at))
                || (!matches!(p.state, ProcessState::Finished { .. })
                    && p.departs_at.is_some_and(|at| self.clock + 1e-12 >= at))
        })
    }

    /// Advance one event-driven stride, never past `limit`: one full
    /// [`Simulator::step`], then — if that epoch was quiescent — replay
    /// its progress accounting over the following epochs until the next
    /// interesting time (phase boundary, process finish, daemon fire, or
    /// `limit`). Returns the number of epochs advanced.
    ///
    /// Bit-identical to stepping because a replayed epoch executes exactly
    /// the statements a full epoch would: quiescence guarantees demand
    /// assembly and the bandwidth solve would reproduce the allocation
    /// already in scratch, so skipping them is unobservable.
    pub fn step_stride(&mut self, limit: f64) -> u64 {
        self.step();
        let mut epochs = 1u64;
        if !self.quiescent
            || self.clock + 1e-12 >= limit
            || self.phase_boundary_due()
            || self.lifecycle_due()
        {
            return epochs;
        }
        let dt = self.cfg.epoch_dt;
        // At least one epoch will be replayed: open the stride slice on
        // the engine track (per-epoch slices are the stepped engine's; a
        // stride is the event-driven engine's unit of work).
        if let Some(tr) = self.trace.as_mut() {
            tr.begin("stride", trace::ts_us(self.clock), trace::ENGINE_TRACK);
        }
        loop {
            let any_finished = self.advance_progress();
            self.clock += dt;
            epochs += 1;
            let any_fired = self.fire_due_daemons();
            if any_finished
                || any_fired
                || self.clock + 1e-12 >= limit
                || self.phase_boundary_due()
                || self.lifecycle_due()
            {
                break;
            }
        }
        if let Some(tr) = self.trace.as_mut() {
            // Counters are emitted at the stride boundary even when their
            // values did not change, so consumers sampling the trace see
            // the plateau's extent, not a gap.
            let end_ts = trace::ts_us(self.clock);
            let shares = self.resources.link_shares(&self.scratch.epoch_plan().solved);
            tr.link_counters_forced(end_ts, shares);
            tr.end("stride", end_ts, trace::ENGINE_TRACK);
        }
        epochs
    }

    /// Run for a fixed amount of simulated time.
    pub fn run_for(&mut self, seconds: f64) {
        let end = self.clock + seconds;
        match self.cfg.mode {
            EngineMode::Stepped => {
                while self.clock + 1e-12 < end {
                    self.step();
                }
            }
            EngineMode::EventDriven => {
                while self.clock + 1e-12 < end {
                    self.step_stride(end);
                }
            }
        }
    }

    /// Run until `pid` finishes (or `max_seconds` of simulated time pass).
    /// Returns the process's execution time.
    pub fn run_until_finished(
        &mut self,
        pid: ProcessId,
        max_seconds: f64,
    ) -> Result<f64, SimError> {
        let deadline = self.clock + max_seconds;
        loop {
            match self.process(pid)?.state {
                ProcessState::Finished { .. } => {
                    return Ok(self.execution_time(pid).expect("finished"));
                }
                ProcessState::Running | ProcessState::Pending { .. } => {
                    if self.clock >= deadline {
                        return Err(SimError::Timeout { pid: pid.0, deadline });
                    }
                    match self.cfg.mode {
                        EngineMode::Stepped => self.step(),
                        EngineMode::EventDriven => {
                            self.step_stride(deadline);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwap_topology::machines;

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

    #[test]
    fn single_node_unconstrained_runs_at_demand() {
        // 7 threads x 2 GB/s = 14 GB/s < 28 GB/s controller: exec time =
        // 14 GB / 14 GB/s = 1 s.
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(14.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let t = sim.run_until_finished(pid, 100.0).unwrap();
        assert!((t - 1.0).abs() < 0.02, "exec time {t}");
    }

    #[test]
    fn controller_saturation_slows_down() {
        // Demand 42 GB/s against a 28 GB/s controller: u = 2/3, so the
        // 42 GB of work takes 1.5 s.
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let mut p = profile(42.0);
        p.read_gbps_per_thread = 6.0;
        let pid = sim.spawn(p, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        let t = sim.run_until_finished(pid, 100.0).unwrap();
        assert!((t - 1.5).abs() < 0.03, "exec time {t}");
    }

    #[test]
    fn interleave_across_two_nodes_beats_saturated_local() {
        let m = machines::machine_b();
        // Saturating workload: 7 threads x 6 = 42 GB/s demand.
        let mk = |policy| {
            let mut sim = Simulator::new(m.clone(), SimConfig::default());
            let mut p = profile(42.0);
            p.read_gbps_per_thread = 6.0;
            let pid = sim.spawn(p, NodeSet::single(NodeId(0)), None, policy).unwrap();
            sim.run_until_finished(pid, 100.0).unwrap()
        };
        let local = mk(MemPolicy::FirstTouch);
        let spread = mk(MemPolicy::Interleave(NodeSet::from_nodes([NodeId(0), NodeId(1)])));
        assert!(
            spread < local * 0.85,
            "interleaving should relieve the controller: local {local}, spread {spread}"
        );
    }

    #[test]
    fn first_touch_centralizes_shared_pages_on_master() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let workers = NodeSet::from_nodes([NodeId(1), NodeId(2)]);
        let pid = sim.spawn(profile(10.0), workers, None, MemPolicy::FirstTouch).unwrap();
        let d = sim.shared_distribution(pid).unwrap();
        assert!((d[1] - 1.0).abs() < 1e-12, "master node holds all shared pages: {d:?}");
        // private pages are local to each thread's node
        let full = sim.full_distribution(pid).unwrap();
        assert!(full[2] > 0.0);
    }

    #[test]
    fn mbind_migrates_pages_over_time() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(1e6), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        let queued = sim.mbind(pid, seg, 0, 10_000, MemPolicy::Bind(NodeId(3)), true).unwrap();
        assert_eq!(queued, 10_000);
        assert_eq!(sim.pending_migrations(pid), 10_000);
        sim.run_for(0.5);
        // 2 GB/s * 0.5 s / 4 KiB ≈ 244k pages of budget: all 10k done.
        assert_eq!(sim.pending_migrations(pid), 0);
        let d = sim.shared_distribution(pid).unwrap();
        assert!((d[3] - 1.0).abs() < 1e-12, "{d:?}");
        assert_eq!(sim.migrated_pages(pid), 10_000);
    }

    #[test]
    fn mbind_without_move_only_counts_zero() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(10.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        let queued = sim.mbind(pid, seg, 0, 100, MemPolicy::Bind(NodeId(1)), false).unwrap();
        assert_eq!(queued, 0);
        assert_eq!(sim.pending_migrations(pid), 0);
    }

    #[test]
    fn mbind_range_overflow_is_an_error_not_a_panic() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(10.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        for move_pages in [true, false] {
            let r = sim.mbind(pid, seg, u64::MAX, 2, MemPolicy::Bind(NodeId(1)), move_pages);
            assert!(
                matches!(r, Err(SimError::RangeOutOfBounds { start: u64::MAX, len: 2, .. })),
                "{r:?}"
            );
        }
        let segment = sim.process(pid).unwrap().aspace.segment(seg).unwrap();
        let r =
            segment.non_complying_runs(seg, u64::MAX, 2, &MemPolicy::Bind(NodeId(1)), NodeId(0));
        assert!(matches!(r, Err(SimError::RangeOutOfBounds { .. })), "{r:?}");
        assert_eq!(sim.pending_migrations(pid), 0);
    }

    #[test]
    fn enqueue_rejects_unknown_segments() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(10.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let bogus = SegmentId(99);
        let r = sim.enqueue_move_ranges(
            pid,
            vec![PendingRange::constant(bogus, 0, 4, NodeId(0), NodeId(1))],
        );
        assert_eq!(r, Err(SimError::NoSuchSegment(99)));
        assert_eq!(sim.pending_migrations(pid), 0);
        sim.step(); // used to panic looking the segment up at completion
    }

    #[test]
    fn enqueue_rejects_ranges_past_the_segment_end() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(10.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        let seg = sim.process(pid).unwrap().shared_seg;
        let len = sim.process(pid).unwrap().aspace.segment(seg).unwrap().len();
        for (start, l) in [(len - 1, 2), (len, 1), (u64::MAX, 2)] {
            let r = sim.enqueue_move_ranges(
                pid,
                vec![
                    PendingRange::constant(seg, 0, 1, NodeId(0), NodeId(1)),
                    PendingRange::constant(seg, start, l, NodeId(0), NodeId(1)),
                ],
            );
            assert!(matches!(r, Err(SimError::RangeOutOfBounds { .. })), "{start}+{l}: {r:?}");
        }
        // A pattern naming a node the machine lacks is refused too.
        let r = sim.enqueue_move_ranges(
            pid,
            vec![PendingRange::constant(seg, 0, 1, NodeId(0), NodeId(9))],
        );
        assert!(matches!(r, Err(SimError::InvalidNodes(_))), "{r:?}");
        // Nothing was queued, not even the valid leading range.
        assert_eq!(sim.pending_migrations(pid), 0);
        sim.step(); // used to panic walking past the segment end
    }

    #[test]
    fn stall_rate_rises_under_saturation() {
        let m = machines::machine_b();
        let measure = |read_gbps: f64| {
            let mut sim = Simulator::new(m.clone(), SimConfig::default());
            let mut p = profile(f64::INFINITY);
            p.read_gbps_per_thread = read_gbps;
            let pid =
                sim.spawn(p, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
            let s0 = sim.sample(pid).unwrap();
            sim.run_for(1.0);
            let s1 = sim.sample(pid).unwrap();
            s1.stall_rate_since(&s0)
        };
        let light = measure(1.0); // 7 GB/s demand, no contention
        let heavy = measure(10.0); // 70 GB/s demand, heavily starved
        assert!(heavy > light * 2.0, "light {light}, heavy {heavy}");
    }

    #[test]
    fn two_processes_contend_for_one_controller() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let mut p = profile(28.0);
        p.read_gbps_per_thread = 6.0; // 42 GB/s per process demand
        let a =
            sim.spawn(p.clone(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch).unwrap();
        // Second process binds its memory to node 0 as well.
        let b = sim.spawn(p, NodeSet::single(NodeId(1)), None, MemPolicy::Bind(NodeId(0))).unwrap();
        let ta = sim.run_until_finished(a, 100.0).unwrap();
        let tb = sim.run_until_finished(b, 100.0).unwrap();
        // Alone each would take 28/28=1.0s at full controller; sharing the
        // controller they take about double, and within 10% of each other.
        assert!(ta > 1.6 && tb > 1.6, "ta {ta}, tb {tb}");
        assert!((ta - tb).abs() < 0.4, "ta {ta}, tb {tb}");
    }

    #[test]
    fn invalid_spawns_rejected() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        assert!(sim.spawn(profile(1.0), NodeSet::EMPTY, None, MemPolicy::FirstTouch).is_err());
        assert!(sim
            .spawn(profile(1.0), NodeSet::single(NodeId(9)), None, MemPolicy::FirstTouch)
            .is_err());
        assert!(sim
            .spawn(profile(1.0), NodeSet::single(NodeId(0)), Some(99), MemPolicy::FirstTouch)
            .is_err());
        for serial_frac in [1.5, 1.0] {
            let mut bad = profile(1.0);
            bad.serial_frac = serial_frac;
            let r = sim.spawn(bad, NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch);
            assert!(matches!(r, Err(SimError::InvalidProfile(_))), "{serial_frac}: {r:?}");
        }
        // Interleave weights keep their own variant.
        let r = sim.spawn(
            profile(1.0),
            NodeSet::single(NodeId(0)),
            None,
            MemPolicy::WeightedInterleave(vec![0.5; 4]),
        );
        assert!(matches!(r, Err(SimError::InvalidWeights(_))), "{r:?}");
    }

    #[test]
    fn memory_only_nodes_cannot_host_threads_but_hold_pages() {
        let m = machines::machine_tiered();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        // Spawning with a CPU-less worker is rejected with a clear error.
        let err = sim
            .spawn(
                profile(1.0),
                NodeSet::from_nodes([NodeId(0), NodeId(2)]),
                None,
                MemPolicy::FirstTouch,
            )
            .unwrap_err();
        assert!(err.to_string().contains("memory-only"), "{err}");
        // But placing pages *on* the expander tier is fine.
        let pid = sim
            .spawn(profile(1.0), m.worker_nodes(), None, MemPolicy::Interleave(m.all_nodes()))
            .unwrap();
        let d = sim.shared_distribution(pid).unwrap();
        assert!(d[2] > 0.2 && d[3] > 0.2, "expanders hold pages: {d:?}");
    }

    #[test]
    fn capacity_pressure_spills_into_the_expander_tier() {
        // A shared segment larger than the whole fast tier must spill into
        // the CPU-less expanders even under worker-only placement.
        let m = machines::machine_tiered();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let workers = m.worker_nodes();
        let fast_pages: u64 = workers.iter().map(|w| m.node(w).mem_pages).sum();
        let mut p = profile(1.0);
        p.shared_pages = fast_pages + 10_000;
        let pid = sim.spawn(p, workers, None, MemPolicy::Interleave(workers)).unwrap();
        let d = sim.shared_distribution(pid).unwrap();
        assert!(d[2] + d[3] > 0.0, "spill reached the slow tier: {d:?}");
        // Fast tier is full (private segments also landed somewhere).
        assert!(sim.frames.free_in(workers) < 10_000);
    }

    #[test]
    fn phase_timeline_swaps_profiles_at_boundaries() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        // Phase 0: 2 GB/s per thread; phase 1: idle (0 GB/s). 1 s each.
        let mut idle = profile(f64::INFINITY);
        idle.read_gbps_per_thread = 0.0;
        sim.set_phase_timeline(pid, vec![(1.0, profile(f64::INFINITY)), (1.0, idle)]).unwrap();
        let t0 = sim.sample(pid).unwrap();
        sim.run_for(1.0);
        let t1 = sim.sample(pid).unwrap();
        sim.run_for(1.0);
        let t2 = sim.sample(pid).unwrap();
        sim.run_for(1.0);
        let t3 = sim.sample(pid).unwrap();
        // Busy, idle, busy again: traffic flows only in the busy phases.
        assert!(t1.traffic_bytes - t0.traffic_bytes > 1e9);
        assert!((t2.traffic_bytes - t1.traffic_bytes).abs() < 1e6);
        assert!(t3.traffic_bytes - t2.traffic_bytes > 1e9);
        // Boundaries apply at the start of the first epoch at or past
        // them; the boundary at t = 3.0 lands on the next (unrun) epoch.
        assert_eq!(sim.phase_switches(pid), 2);
    }

    #[test]
    fn phase_timeline_validation() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let pid = sim
            .spawn(profile(1.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        assert!(sim.set_phase_timeline(pid, vec![]).is_err());
        assert!(sim.set_phase_timeline(pid, vec![(0.0, profile(1.0))]).is_err());
        assert!(sim.set_phase_timeline(pid, vec![(f64::INFINITY, profile(1.0))]).is_err());
        // Sub-epoch durations are rejected (they could never advance the
        // boundary), including denormals that would not move the clock.
        assert!(sim.set_phase_timeline(pid, vec![(1e-300, profile(1.0))]).is_err());
        let e = sim.set_phase_timeline(pid, vec![(0.001, profile(1.0))]).unwrap_err();
        assert!(matches!(&e, SimError::InvalidProfile(m) if m.contains("shorter than one epoch")));
        assert!(e.to_string().starts_with("invalid workload profile: phase 0"), "{e}");
        let mut bad = profile(1.0);
        bad.serial_frac = 2.0;
        assert!(sim.set_phase_timeline(pid, vec![(1.0, bad)]).is_err());
        assert!(sim.set_phase_timeline(ProcessId(9), vec![(1.0, profile(1.0))]).is_err());
        // Valid timelines install phase 0's profile immediately.
        let mut slow = profile(1.0);
        slow.read_gbps_per_thread = 0.25;
        sim.set_phase_timeline(pid, vec![(5.0, slow)]).unwrap();
        assert_eq!(sim.process(pid).unwrap().profile.read_gbps_per_thread, 0.25);
        assert_eq!(sim.phase_switches(pid), 0);
        // Finished processes reject timelines.
        sim.run_until_finished(pid, 600.0).unwrap();
        assert!(sim.set_phase_timeline(pid, vec![(1.0, profile(1.0))]).is_err());
    }

    /// A steady run reuses its stored epoch plan, and a spawn or a profile
    /// change drops it: the change shows in the very next epoch.
    #[test]
    fn stored_plans_are_dropped_when_process_inputs_change() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let a = sim
            .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
            .unwrap();
        sim.run_for(0.5);
        let settled = sim.engine_stats();
        sim.run_for(0.5);
        assert_eq!(sim.engine_stats().solves, settled.solves, "a steady run reuses its plan");
        let b = sim
            .spawn(profile(f64::INFINITY), NodeSet::single(NodeId(1)), None, MemPolicy::FirstTouch)
            .unwrap();
        sim.step();
        assert!(sim.sample(b).unwrap().traffic_bytes > 0.0, "a spawned process runs at once");
        sim.run_for(0.5);
        let mut idle = profile(f64::INFINITY);
        idle.read_gbps_per_thread = 0.0;
        sim.set_profile(a, idle).unwrap();
        let before = sim.sample(a).unwrap();
        sim.step();
        assert_eq!(sim.sample(a).unwrap().traffic_bytes, before.traffic_bytes, "idle profile");
    }

    /// A hit marks its slot most recently used, so a miss with every slot
    /// full takes the least recently used one; keys compare by bits.
    #[test]
    fn plan_memo_evicts_the_least_recently_used_slot() {
        let mut memo = PlanMemo::default();
        let key = |k: f64| [k, 0.5];
        let slots: Vec<usize> = (0..PLAN_SLOTS).map(|k| memo.claim(&key(k as f64))).collect();
        assert_eq!(memo.lookup(&key(0.0)), Some(slots[0]));
        assert_eq!(memo.lookup(&key(-0.0)), None, "-0.0 is not 0.0");
        assert_eq!(memo.claim(&key(9.0)), slots[1], "key 1 is the least recently used");
        assert_eq!(memo.lookup(&key(1.0)), None);
        for k in [0.0, 2.0, 3.0, 9.0] {
            assert!(memo.lookup(&key(k)).is_some(), "key {k} is still stored");
        }
        memo.clear();
        assert_eq!(memo.lookup(&key(0.0)), None);
    }

    #[test]
    fn phased_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
            let mut p = profile(40.0);
            p.read_gbps_per_thread = 6.0;
            let pid = sim
                .spawn(p.clone(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
                .unwrap();
            let mut calm = p.clone();
            calm.read_gbps_per_thread = 1.0;
            sim.set_phase_timeline(pid, vec![(0.4, p), (0.4, calm)]).unwrap();
            (sim.run_until_finished(pid, 600.0).unwrap(), sim.phase_switches(pid))
        };
        assert_eq!(run(), run());
        assert!(run().1 >= 2, "the run spans several phases");
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let run = || {
            let mut sim = Simulator::new(machines::machine_a(), SimConfig::default());
            let mut p = profile(30.0);
            p.read_gbps_per_thread = 3.0;
            p.private_frac = 0.4;
            let pid = sim
                .spawn(
                    p,
                    NodeSet::from_nodes([NodeId(0), NodeId(1)]),
                    None,
                    MemPolicy::Interleave(NodeSet::from_nodes([NodeId(0), NodeId(1)])),
                )
                .unwrap();
            sim.run_until_finished(pid, 200.0).unwrap()
        };
        assert_eq!(run(), run());
    }

    /// A traced run records the whole event vocabulary: epoch B/E pairs,
    /// the spawn's track name, an `mbind` instant, a paired migration
    /// drain flow, per-epoch `migrate` completions, link counters, phase
    /// switches and the `finished` instant — and the identical run emits
    /// byte-identical JSON.
    #[test]
    fn traced_run_records_migrations_phases_and_links() {
        use crate::trace::EventPhase;
        let run = || {
            let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
            sim.set_trace_sink(TraceSink::default());
            let mut p = profile(6.0);
            p.read_gbps_per_thread = 2.0;
            let pid = sim
                .spawn(p.clone(), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
                .unwrap();
            let mut calm = p.clone();
            calm.read_gbps_per_thread = 0.5;
            sim.set_phase_timeline(pid, vec![(0.2, p), (0.2, calm)]).unwrap();
            // Rebind shared pages across two nodes: queues migrations and
            // puts traffic on the node 0 <-> node 1 links.
            let seg = sim.process(pid).unwrap().shared_seg;
            let queued = sim
                .mbind(
                    pid,
                    seg,
                    0,
                    10_000,
                    MemPolicy::Interleave(NodeSet::from_nodes([NodeId(0), NodeId(1)])),
                    true,
                )
                .unwrap();
            assert!(queued > 0);
            sim.trace_instant("custom-marker", Some(pid), &[("v", 1.5)]);
            sim.run_until_finished(pid, 200.0).unwrap();
            sim.take_trace_sink().expect("sink installed")
        };
        let t = run();
        assert_eq!(t.dropped(), 0, "capacity holds a small run");

        let count = |ph: EventPhase, name: &str| {
            t.events().filter(|e| e.ph == ph && e.name == name).count()
        };
        assert_eq!(count(EventPhase::Begin, "epoch"), count(EventPhase::End, "epoch"));
        assert!(count(EventPhase::Begin, "epoch") > 10);
        assert_eq!(count(EventPhase::Instant, "mbind"), 1);
        assert_eq!(count(EventPhase::Instant, "custom-marker"), 1);
        assert_eq!(count(EventPhase::FlowStart, "migration"), 1);
        assert_eq!(count(EventPhase::FlowEnd, "migration"), 1);
        assert!(count(EventPhase::Instant, "migrate") > 0);
        assert!(count(EventPhase::Instant, "phase-switch") > 0);
        assert_eq!(count(EventPhase::Instant, "finished"), 1);
        assert!(t.events().any(|e| e.ph == EventPhase::Counter));
        assert!(
            t.events()
                .any(|e| e.ph == EventPhase::Metadata
                    && e.track == trace::process_track(ProcessId(0)))
        );

        // Flow start/end share the id; ts never decreases in emission
        // order.
        let s_id = t.events().find(|e| e.ph == EventPhase::FlowStart).unwrap().id;
        let f_id = t.events().find(|e| e.ph == EventPhase::FlowEnd).unwrap().id;
        assert_eq!(s_id, f_id);
        let mut last = 0;
        for e in t.events() {
            assert!(e.ts_us >= last, "ts regressed: {} < {last}", e.ts_us);
            last = e.ts_us;
        }

        assert_eq!(t.to_chrome_json(), run().to_chrome_json(), "traced runs are deterministic");
    }

    /// Tracing leaves the physics untouched: the same run with and
    /// without a sink finishes at the same simulated time.
    #[test]
    fn tracing_does_not_perturb_the_run() {
        let run = |traced: bool| {
            let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
            if traced {
                sim.set_trace_sink(TraceSink::new(64)); // tiny ring, drops heavily
            }
            let pid = sim
                .spawn(profile(14.0), NodeSet::single(NodeId(0)), None, MemPolicy::FirstTouch)
                .unwrap();
            sim.run_until_finished(pid, 100.0).unwrap()
        };
        assert_eq!(run(false), run(true));
    }
}
