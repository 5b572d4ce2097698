//! Translating processes and page placements into fabric demand.
//!
//! # Execution model
//!
//! An application processes abstract *work* that requires memory traffic.
//! Per thread, at the reference latency `L0` and with no bandwidth
//! starvation, the workload demands `D0 = read + write` GB/s. Placement
//! affects execution through two channels:
//!
//! * **Latency**: a fraction `alpha` of the serial critical path is
//!   latency-bound memory accesses (dependent loads). With average access
//!   latency `L(w)` — placement-weighted over the latency matrix — the
//!   serial time per unit of work scales by
//!   `latency_factor = (1 - alpha) + alpha * L(w)/L0`, so the unstalled
//!   demand becomes `D = D0 / latency_factor`.
//! * **Bandwidth**: the fabric allocates each `(process, worker node)`
//!   group a lock-step utilization `u ∈ [0, 1]` of its demand vector
//!   (the paper's Eq. 1/3 pacing: progress follows the slowest parallel
//!   transfer).
//!
//! Progress per thread is `u * D` bytes of traffic per second; stall
//! cycles follow `stall_frac = 1 - u * (1 - alpha) / latency_factor`
//! (at `u = 1` and local-like latency this is `alpha`, the workload's
//! intrinsic memory-stall share). Parallel efficiency (Amdahl serial
//! fraction plus a per-extra-worker-node penalty) scales demand and
//! progress identically, so poorly scaling applications gain nothing from
//! extra nodes — reproducing the paper's stand-alone scenario where some
//! applications peak below the machine size (Fig. 3c/d).

use crate::engine::AppProfile;
use crate::process::{ProcessId, SimProcess};
use crate::REFERENCE_LATENCY_NS;
use bwap_fabric::{DemandSet, FlowDemand};
use bwap_topology::{MachineTopology, NodeId};

/// Post-solve context for one application group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupMeta {
    /// Worker node index.
    pub node: usize,
    /// Thread count for cycle accounting (open-loop workloads split a
    /// node's threads across flow groups).
    pub cycle_threads: f64,
    /// Aggregate unstalled demand of the node's threads (GB/s), efficiency
    /// and latency adjusted.
    pub demand_gbps: f64,
    /// Serial-time scaling from average access latency.
    pub latency_factor: f64,
    /// Traffic share per memory node: `node_count` values starting at this
    /// offset of the epoch's share arena.
    pub share_off: usize,
}

impl GroupMeta {
    /// Whether `self` and `other` hold the same bits (floats compare by
    /// `to_bits`).
    pub fn bitwise_eq(&self, other: &GroupMeta) -> bool {
        self.node == other.node
            && self.cycle_threads.to_bits() == other.cycle_threads.to_bits()
            && self.demand_gbps.to_bits() == other.demand_gbps.to_bits()
            && self.latency_factor.to_bits() == other.latency_factor.to_bits()
            && self.share_off == other.share_off
    }
}

/// Reusable buffers for demand building: each process's page
/// distributions, kept between epochs, and the epoch's loaded-latency
/// inflation per node. Never reallocated in steady state.
#[derive(Debug, Clone, Default)]
pub(crate) struct DemandScratch {
    /// Page distributions per process, indexed by pid.
    dists: Vec<PageDists>,
    /// Scratch: one segment's distribution.
    seg_dist: Vec<f64>,
    /// Loaded-latency inflation per memory node for this epoch.
    inflation: Vec<f64>,
    /// Scratch: active memory-node indices (open-loop bundle split).
    active: Vec<usize>,
}

impl DemandScratch {
    /// Start an epoch over `procs` processes: evaluate each node's latency
    /// inflation once, from the controller utilization `ctrl_util` of the
    /// previous epoch and the `(a, b)` parameters `lat_infl`.
    pub fn begin_epoch(&mut self, ctrl_util: &[f64], lat_infl: (f64, f64), procs: usize) {
        self.inflation.clear();
        self.inflation
            .extend(ctrl_util.iter().map(|&u| latency_inflation(u, lat_infl.0, lat_infl.1)));
        self.dists.resize_with(procs, PageDists::default);
    }

    /// Pages of `pid` landed on new nodes: recompute its distributions
    /// before its next demand build.
    pub fn pages_moved(&mut self, pid: ProcessId) {
        self.dists[pid.0].valid = false;
    }
}

/// One process's page distributions, as fractions per memory node. A
/// segment's pages change nodes only when a migration lands, so these stay
/// valid from one landing to the next.
#[derive(Debug, Clone, Default)]
struct PageDists {
    /// Whether the fractions match the page tables (false for a new
    /// process and after pages of it land).
    valid: bool,
    /// Shared-segment fractions.
    shared: Vec<f64>,
    /// `n` fractions per worker node: the mean over the private segments
    /// of that node's threads (zeros for a node without threads).
    private: Vec<f64>,
}

impl PageDists {
    /// Recompute from `proc_`'s page tables.
    fn refresh(&mut self, proc_: &SimProcess, n: usize, seg_dist: &mut Vec<f64>) {
        self.shared.resize(n, 0.0);
        proc_
            .aspace
            .segment(proc_.shared_seg)
            .expect("shared segment exists")
            .fill_distribution(&mut self.shared);
        self.private.clear();
        self.private.resize(n * n, 0.0);
        seg_dist.resize(n, 0.0);
        for w in 0..n {
            if proc_.threads_per_node[w] == 0 {
                continue;
            }
            let priv_dist = &mut self.private[w * n..(w + 1) * n];
            let mut priv_segs = 0usize;
            for &(owner, seg) in &proc_.private_segs {
                if owner.idx() == w {
                    proc_
                        .aspace
                        .segment(seg)
                        .expect("private segment exists")
                        .fill_distribution(seg_dist);
                    for (v, &d) in priv_dist.iter_mut().zip(seg_dist.iter()) {
                        *v += d;
                    }
                    priv_segs += 1;
                }
            }
            if priv_segs > 0 {
                for v in priv_dist {
                    *v /= priv_segs as f64;
                }
            }
        }
        self.valid = true;
    }

    /// Whether a fresh [`PageDists::refresh`] would give the same bits.
    fn is_fresh(&self, proc_: &SimProcess, n: usize) -> bool {
        let mut fresh = PageDists::default();
        fresh.refresh(proc_, n, &mut Vec::new());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&self.shared) == bits(&fresh.shared) && bits(&self.private) == bits(&fresh.private)
    }
}

/// Parallel efficiency per thread for `threads` total threads over
/// `worker_nodes` nodes (Amdahl + multi-node communication penalty).
pub(crate) fn parallel_efficiency(profile: &AppProfile, threads: u32, worker_nodes: usize) -> f64 {
    if threads == 0 {
        return 0.0;
    }
    let t = threads as f64;
    let f = profile.serial_frac;
    let speedup = 1.0 / (f + (1.0 - f) / t);
    let node_penalty = 1.0 + profile.multinode_penalty * (worker_nodes.saturating_sub(1)) as f64;
    (speedup / t) / node_penalty
}

/// Queueing-delay inflation of DRAM access latency as a controller
/// approaches saturation: `1 + a * rho^b` with `rho` the controller's
/// utilization in the previous epoch. The shape (flat until ~70 %, then a
/// steep knee toward ~3x at saturation with the default `a = 2, b = 4`)
/// follows measured loaded-latency curves; exact constants only scale the
/// effect, never its direction.
pub(crate) fn latency_inflation(rho: f64, a: f64, b: f64) -> f64 {
    1.0 + a * rho.clamp(0.0, 1.0).powf(b)
}

/// Build the demand groups for one running process, appending fabric
/// groups to `ds`, `(pid, meta)` records to `metas` (parallel, same order)
/// and each group's traffic shares to the arena `shares`. Latencies are
/// inflated by the loads `ws` was given at [`DemandScratch::begin_epoch`].
/// All working memory comes from `ws` — nothing is allocated in steady
/// state.
pub(crate) fn build_app_groups(
    proc_: &SimProcess,
    machine: &MachineTopology,
    ds: &mut DemandSet,
    metas: &mut Vec<(ProcessId, GroupMeta)>,
    shares: &mut Vec<f64>,
    ws: &mut DemandScratch,
) {
    let n = machine.node_count();
    let profile = &proc_.profile;
    let dists = &mut ws.dists[proc_.id.0];
    if dists.valid {
        debug_assert!(dists.is_fresh(proc_, n), "stale page distributions for {:?}", proc_.id);
    } else {
        dists.refresh(proc_, n, &mut ws.seg_dist);
    }
    let dists = &ws.dists[proc_.id.0];
    let total_threads = proc_.total_threads();
    let eff = parallel_efficiency(profile, total_threads, proc_.worker_count());
    let d0_thread = profile.read_gbps_per_thread + profile.write_gbps_per_thread;
    let read_frac = if d0_thread > 0.0 { profile.read_gbps_per_thread / d0_thread } else { 1.0 };
    for w in 0..n {
        let t_w = proc_.threads_per_node[w];
        if t_w == 0 {
            continue;
        }
        let p = profile.private_frac;
        let priv_dist = &dists.private[w * n..(w + 1) * n];
        let share_off = shares.len();
        shares
            .extend(priv_dist.iter().zip(&dists.shared).map(|(&pv, &sh)| p * pv + (1.0 - p) * sh));
        // Average access latency seen from node w, inflated by queueing
        // delay at loaded controllers.
        let lat_w: f64 = (0..n)
            .map(|i| {
                shares[share_off + i]
                    * machine.latency_ns().get(NodeId(i as u16), NodeId(w as u16))
                    * ws.inflation[i]
            })
            .sum();
        let alpha = profile.latency_sensitivity;
        let latency_factor = (1.0 - alpha) + alpha * lat_w / REFERENCE_LATENCY_NS;
        let demand_gbps = t_w as f64 * eff * d0_thread / latency_factor;
        let mk_flow = |share_i: f64, i: usize| FlowDemand {
            mem: NodeId(i as u16),
            cpu: NodeId(w as u16),
            read_gbps: demand_gbps * share_i * read_frac,
            write_gbps: demand_gbps * share_i * (1.0 - read_frac),
        };
        if profile.open_loop {
            // One independent bundle per memory node: fast paths deliver
            // their full share even while slow paths starve. A thread
            // with many outstanding requests turns over slots on a fast
            // path proportionally faster, so when a *shared* resource
            // (core ingress, a controller) binds, per-path throughput
            // splits proportionally to path speed — modelled by weighting
            // each bundle with its path bandwidth. Cycle accounting splits
            // the node's threads across its flow groups so totals stay
            // correct.
            ws.active.clear();
            ws.active
                .extend((0..n).filter(|&i| shares[share_off + i] > 1e-12 && demand_gbps > 0.0));
            let cycle_share = t_w as f64 / ws.active.len().max(1) as f64;
            for idx in 0..ws.active.len() {
                let i = ws.active[idx];
                let share_i = shares[share_off + i];
                let one_hot_off = shares.len();
                for j in 0..n {
                    shares.push(if j == i { 1.0 } else { 0.0 });
                }
                let path_bw = machine.path_caps().get(NodeId(i as u16), NodeId(w as u16));
                ds.begin_group(t_w as f64 * path_bw, 1.0);
                ds.add_flow(mk_flow(share_i, i));
                metas.push((
                    proc_.id,
                    GroupMeta {
                        node: w,
                        cycle_threads: cycle_share,
                        demand_gbps: demand_gbps * share_i,
                        latency_factor,
                        share_off: one_hot_off,
                    },
                ));
            }
        } else {
            ds.begin_group(t_w as f64, 1.0);
            for i in 0..n {
                let share_i = shares[share_off + i];
                if share_i > 1e-12 && demand_gbps > 0.0 {
                    ds.add_flow(mk_flow(share_i, i));
                }
            }
            metas.push((
                proc_.id,
                GroupMeta {
                    node: w,
                    cycle_threads: t_w as f64,
                    demand_gbps,
                    latency_factor,
                    share_off,
                },
            ));
        }
    }
}

/// Stall fraction of threads running at utilization `u` with the given
/// latency factor and latency sensitivity `alpha`.
pub(crate) fn stall_fraction(u: f64, alpha: f64, latency_factor: f64) -> f64 {
    (1.0 - u * (1.0 - alpha) / latency_factor).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(alpha: f64, serial: f64, penalty: f64) -> AppProfile {
        AppProfile {
            name: "t".into(),
            read_gbps_per_thread: 2.0,
            write_gbps_per_thread: 1.0,
            private_frac: 0.0,
            latency_sensitivity: alpha,
            serial_frac: serial,
            multinode_penalty: penalty,
            shared_pages: 100,
            private_pages_per_thread: 10,
            total_traffic_gb: 10.0,
            open_loop: false,
        }
    }

    #[test]
    fn efficiency_perfect_scaling() {
        let p = profile(0.0, 0.0, 0.0);
        assert!((parallel_efficiency(&p, 1, 1) - 1.0).abs() < 1e-12);
        assert!((parallel_efficiency(&p, 16, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_amdahl_limits() {
        let p = profile(0.0, 0.5, 0.0);
        // speedup(4) = 1/(0.5+0.125) = 1.6; eff = 0.4
        assert!((parallel_efficiency(&p, 4, 1) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn efficiency_multinode_penalty() {
        let p = profile(0.0, 0.0, 0.25);
        assert!((parallel_efficiency(&p, 8, 2) - 1.0 / 1.25).abs() < 1e-12);
        assert!((parallel_efficiency(&p, 8, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stall_fraction_baseline_is_alpha() {
        // u = 1, local latency (factor 1): stall share equals alpha.
        assert!((stall_fraction(1.0, 0.3, 1.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn latency_inflation_shape() {
        // flat at idle, ~3x at saturation with defaults
        assert!((latency_inflation(0.0, 2.0, 4.0) - 1.0).abs() < 1e-12);
        assert!(latency_inflation(0.5, 2.0, 4.0) < 1.2);
        assert!((latency_inflation(1.0, 2.0, 4.0) - 3.0).abs() < 1e-12);
        // monotone
        let mut prev = 0.0;
        for i in 0..=10 {
            let v = latency_inflation(i as f64 / 10.0, 2.0, 4.0);
            assert!(v >= prev);
            prev = v;
        }
        // ablated
        assert_eq!(latency_inflation(0.9, 0.0, 4.0), 1.0);
    }

    #[test]
    fn stall_fraction_grows_with_starvation_and_latency() {
        let base = stall_fraction(1.0, 0.3, 1.0);
        assert!(stall_fraction(0.5, 0.3, 1.0) > base);
        assert!(stall_fraction(1.0, 0.3, 1.5) > base);
        assert_eq!(stall_fraction(0.0, 0.3, 1.0), 1.0);
    }
}
