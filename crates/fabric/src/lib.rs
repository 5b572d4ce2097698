//! Bandwidth-contention fabric for simulated NUMA machines.
//!
//! The fabric answers one question per simulation epoch: *given the memory
//! demand every worker node places on every memory node, how much bandwidth
//! does each one actually get?*
//!
//! The model is a flow network with **weighted, demand-bounded max-min fair
//! allocation** ([`maxmin`]):
//!
//! * Every ordered `(memory node, CPU node)` pair has a calibrated single
//!   flow *path capacity* (the machine's measured bandwidth matrix — for
//!   machine A, the paper's Fig. 1a).
//! * Flows additionally consume the *memory controller* of the memory node
//!   (writes with an amplification factor, see [`controller`]), every
//!   *directed physical link* on their route (so flows crossing the same
//!   interconnect link congest each other), and the CPU node's *ingress*
//!   capacity (a core-side absorption limit).
//! * Flows are grouped into **bundles** that scale in lock-step: a parallel
//!   application that reads pages spread over several nodes advances at the
//!   pace of its *slowest* transfer (the paper's Eq. 1/3), so all its flows
//!   are useful only in the demanded proportion. A bundle's allocation is a
//!   single activity level multiplying its whole demand vector, which is
//!   exactly max-min fairness over composite flows.
//!
//! [`probe::probe_matrix`] reproduces a machine's bandwidth matrix by
//! running one single-flow bundle per node pair — the calibration tests
//! assert it returns Fig. 1a exactly for machine A.

pub mod controller;
pub mod maxmin;
pub mod network;
pub mod probe;
pub mod resource;

pub use controller::ControllerModel;
pub use maxmin::{solve_maxmin, solve_maxmin_set, Allocation, Bundle, BundleSet, MaxminScratch};
pub use network::{DemandSet, FlowDemand, SolveScratch};
pub use probe::probe_matrix;
pub use resource::{ResourceKind, ResourceTable};
