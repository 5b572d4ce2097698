//! **BWAP** — bandwidth-aware weighted page interleaving for NUMA systems.
//!
//! This crate implements the paper's contribution as *pure decision logic*,
//! independent of any particular OS binding: feed it bandwidth matrices and
//! stall-rate samples, get back weight distributions and `mbind` plans. The
//! `bwap-runtime` crate wires it to the simulated OS (`numasim`); the same
//! state machines would drive a real `libnuma` extension unchanged.
//!
//! # Pipeline (paper §III)
//!
//! 1. **Canonical tuner** ([`canonical`]): offline, per machine and worker
//!    set. From a profiled bandwidth matrix it computes the *canonical
//!    weight distribution* — each node weighted by the bandwidth of its
//!    weakest path to any worker (Eq. 5; Eq. 2 for a single worker):
//!    `w_i = minbw(n_i) / Σ_j minbw(n_j)` with
//!    `minbw(n) = min_{w ∈ W} bw(n -> w)`.
//! 2. **DWP tuner** ([`dwp`]): online. Reduces N-dimensional placement to
//!    the scalar *data-to-worker proximity* factor: `DWP = 0` is the
//!    canonical distribution, `DWP = 1` packs everything onto the worker
//!    set, preserving canonical proportions inside the worker and
//!    non-worker subsets. A hill climber driven by trimmed stall-rate
//!    samples (n = 20 per iteration, trim c = 5, step x = 10 %) raises DWP
//!    while stalls keep falling.
//! 3. **Placement** ([`placement`]): either the kernel-level weighted
//!    interleave policy, or the portable user-level approximation (the
//!    paper's Algorithm 1) that issues a handful of uniform-interleave
//!    `mbind` calls over nested node sets whose sub-range sizes make the
//!    aggregate per-node ratios match the weights.
//!
//! The co-scheduled variant (§III-B3) is in [`dwp::coschedule`].
//!
//! # Examples
//!
//! The whole pipeline is pure: feed it a bandwidth matrix, get weights.
//!
//! ```
//! use bwap::{apply_dwp, canonical_weights, user_level_plan};
//! use bwap_topology::{machines, NodeSet};
//!
//! let machine = machines::machine_a();
//! let workers = machine.best_worker_set(2);
//!
//! // Canonical tuner (Eq. 5): weight each node by its weakest path to a
//! // worker.
//! let canonical = canonical_weights(machine.path_caps(), workers)?;
//! assert!(canonical.is_normalized());
//!
//! // DWP tuner: DWP = 1 packs all mass onto the worker set.
//! let packed = apply_dwp(&canonical, workers, 1.0)?;
//! let on_workers: f64 = workers.iter().map(|n| packed.as_slice()[n.idx()]).sum();
//! assert!((on_workers - 1.0).abs() < 1e-9);
//!
//! // Algorithm 1: realize any distribution with a few uniform-interleave
//! // mbind calls.
//! let plan = user_level_plan(4096, &apply_dwp(&canonical, workers, 0.3)?)?;
//! assert!(!plan.is_empty());
//! # Ok::<(), bwap::BwapError>(())
//! ```

pub mod canonical;
pub mod config;
pub mod descriptor;
pub mod dwp;
pub mod error;
pub mod placement;
pub mod sampler;
pub mod seed;
pub mod weights;

pub use canonical::{canonical_weights, canonical_weights_on, min_bandwidths};
pub use config::{BwapConfig, InterleaveMode};
pub use descriptor::{CellDescriptor, DescriptorBuilder};
pub use dwp::{apply_dwp, DwpTuner, DwpTunerConfig, TunerAction};
pub use error::BwapError;
pub use placement::{realized_weights, user_level_plan, MbindCall};
pub use sampler::TrimmedSampler;
pub use seed::derive_seed;
pub use weights::WeightDistribution;
