//! A simulated NUMA machine and operating system.
//!
//! `numasim` provides the substrate the paper runs on: a multi-node machine
//! (described by `bwap-topology`), an OS memory-management layer with the
//! Linux facilities BWAP builds on, and an epoch-based execution engine that
//! models application progress through the `bwap-fabric` bandwidth
//! allocator.
//!
//! # OS facilities (mirroring Linux)
//!
//! * **Memory policies** ([`mem::policy::MemPolicy`]): first-touch (the
//!   Linux default), `bind`, uniform `interleave` (as in `numactl
//!   --interleave`), and the *weighted interleave* policy the paper adds at
//!   kernel level.
//! * **`mbind`** ([`Simulator::mbind`]): (re)set the policy of a page range
//!   with `MPOL_MF_MOVE`-style migration of non-complying pages — the
//!   primitive under the paper's Algorithm 1.
//! * **Page migration** ([`mem::migrate`]): rate-limited, consuming real
//!   controller/link bandwidth through the fabric.
//! * **AutoNUMA** ([`autonuma::AutoNuma`]): the locality-driven daemon the
//!   paper compares against — migrates private pages to their accessor and
//!   spreads shared pages across worker nodes only.
//! * **Performance counters** ([`perf::PerfCounters`]): per-node served
//!   bytes, per-process `(memory node, CPU node)` traffic matrices (what
//!   the paper's canonical tuner profiles), and per-process stall cycles
//!   (what the DWP tuner samples).
//!
//! # Execution model
//!
//! Applications are characterized by an [`AppProfile`] (demand per thread,
//! read/write mix, private/shared mix, latency sensitivity, scalability).
//! Each epoch the engine converts every process's page placement into
//! lock-step demand bundles, lets the fabric allocate bandwidth, and
//! advances progress by the achieved utilization — see `engine` for the
//! precise equations and their correspondence to the paper's Eq. 1-5.
//!
//! Workload behaviour may change mid-run: [`Simulator::set_profile`] swaps
//! a process's demand characterization once, and
//! [`Simulator::set_phase_timeline`] installs a cycling [`PhaseTimeline`]
//! the engine advances at epoch boundaries (phase-structured workloads).
//!
//! Runs can be observed without being perturbed:
//! [`Simulator::set_trace_sink`] installs a ring-buffered [`TraceSink`]
//! recording epochs, phase switches, migration drains and per-link
//! bandwidth shares as Chrome `trace_event` JSON (see [`trace`] and
//! `docs/TRACING.md`); with no sink installed the hooks cost one branch.

pub mod autonuma;
pub mod daemon;
pub mod engine;
pub mod error;
pub mod mem;
pub mod perf;
pub mod process;
pub mod trace;

pub use daemon::Daemon;
pub use engine::{AppProfile, EngineMode, EngineStats, SimConfig, Simulator};
pub use error::SimError;
pub use mem::policy::MemPolicy;
pub use mem::segment::{SegmentId, SegmentKind};
pub use perf::{PerfCounters, ProcessSample};
pub use process::{PhaseTimeline, ProcessId, ProcessState};
pub use trace::{TraceEvent, TraceSink};

/// Reference DRAM latency used to normalize latency sensitivity across
/// machines (ns). An application's demand rate is defined at this latency.
pub const REFERENCE_LATENCY_NS: f64 = 100.0;

/// Simulated core clock, cycles per second (only affects the absolute scale
/// of stall-rate counters, never any comparison).
pub const CLOCK_HZ: f64 = 2.1e9;
