//! Synthetic workloads reproducing the paper's benchmark selection.
//!
//! The paper evaluates BWAP on memory-intensive applications from PARSEC,
//! SPLASH and NAS: Ocean cp (OC), Ocean ncp (ON), SP.B, Streamcluster (SC)
//! and FT.C, plus the CPU-bound Swaptions as the co-scheduled high-priority
//! application. We cannot run the original binaries on a simulator, but —
//! as the paper's own methodology shows (Table I) — placement behaviour is
//! governed by each application's *memory demand characterization*:
//! read/write bandwidth, private vs shared access mix, latency sensitivity
//! and scalability. [`WorkloadSpec`] captures exactly these axes; the
//! numbers for the five benchmarks are taken from Table I (measured on
//! machine B with one full worker node) with per-machine demand scaling
//! documented on [`WorkloadSpec::profile_for`].
//!
//! [`apps::stream_probe`] is the paper's "canonical application": an
//! extremely bandwidth-intensive, uniformly-random, read-only traversal of
//! a shared array used by the canonical tuner for profiling.
//!
//! Applications whose access patterns *change over time* are modelled by
//! [`PhasedWorkload`] — an ordered, cycling timeline of demand profiles
//! ([`phased`]). The canned phase-flipping variants
//! ([`phased::phased_suite`]) drive the adaptive re-tuning scenario
//! (`fig_phases`). See `docs/WORKLOADS.md` for the full workload model.
//!
//! # Examples
//!
//! A spec is plain data; [`WorkloadSpec::profile_for`] translates it into
//! the per-thread demand profile the simulator consumes, and
//! [`WorkloadSpec::scaled_down`] shrinks it for fast tests while keeping
//! every ratio intact:
//!
//! ```
//! use bwap_topology::machines;
//!
//! let sc = bwap_workloads::streamcluster();
//! assert_eq!(sc.name, "SC");
//! // Table I: Streamcluster is almost all shared reads.
//! assert!(sc.private_frac < 0.01 && sc.read_frac() > 0.99);
//!
//! let profile = sc.scaled_down(8.0).profile_for(&machines::machine_b());
//! profile.validate()?;
//!
//! // The whole suite characterizes on both machines.
//! assert_eq!(bwap_workloads::suite().len(), 5);
//! # Ok::<(), numasim::SimError>(())
//! ```
//!
//! A phase-structured workload is a timeline of such specs; the engine
//! swaps demand profiles at each phase boundary:
//!
//! ```
//! use bwap_workloads::{Phase, PhasedWorkload};
//!
//! let flip = PhasedWorkload::new(
//!     "demo-flip",
//!     vec![
//!         Phase::new(bwap_workloads::ocean_cp(), 10.0),
//!         Phase::new(bwap_workloads::streamcluster(), 10.0),
//!     ],
//!     500.0,
//! )?;
//! let timeline = flip.profiles_for(&bwap_topology::machines::machine_b(), None);
//! assert_eq!(timeline.len(), 2);
//! # Ok::<(), bwap_workloads::PhaseError>(())
//! ```

pub mod apps;
pub mod generator;
pub mod json;
pub mod phased;
pub mod spec;
pub mod table1;

pub use apps::{
    by_name, capacity_suite, ft_c, ocean_cp, ocean_cp_xl, ocean_ncp, sp_b, stream_probe,
    streamcluster, streamcluster_xl, suite, swaptions,
};
pub use phased::{
    ftc_rw_swing, oc_footprint_swing, phased_by_name, phased_suite, sc_bandwidth_flip, Phase,
    PhaseError, PhasedWorkload,
};
pub use spec::WorkloadSpec;
pub use table1::{table1_reference, Table1Row};
