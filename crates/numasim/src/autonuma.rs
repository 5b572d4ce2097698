//! AutoNUMA: the Linux locality-driven page-placement daemon the paper
//! compares against (§IV, baseline `autonuma`).
//!
//! Real AutoNUMA unmaps pages periodically and uses the resulting NUMA
//! hinting faults to migrate each page toward the node that accesses it.
//! The emergent behaviour (documented by the paper and by Dashti et al.'s
//! Carrefour study) is:
//!
//! * thread-private pages converge to their accessor's node;
//! * pages shared by threads on several nodes bounce between, and end up
//!   spread over, the *worker* nodes only — AutoNUMA never exploits
//!   non-worker bandwidth and ignores interconnect asymmetry.
//!
//! We model that converged behaviour directly: each scan period the daemon
//! nudges private pages home and shared pages toward a uniform spread over
//! the worker set, both rate-limited like the kernel's NUMA-balancing
//! migration budget.

use crate::daemon::Daemon;
use crate::engine::Simulator;
use crate::mem::migrate::PendingRange;
use crate::process::ProcessId;
use bwap_topology::{NodeId, PAGE_SIZE};

/// Configuration of the AutoNUMA daemon.
#[derive(Debug, Clone)]
pub struct AutoNumaConfig {
    /// Scan period (seconds); the daemon fires once per period.
    pub scan_period: f64,
    /// Migration budget per scan, in bytes (the kernel rate-limits NUMA
    /// balancing to ~256 MB/s by default).
    pub bytes_per_scan: f64,
}

impl Default for AutoNumaConfig {
    fn default() -> Self {
        AutoNumaConfig { scan_period: 0.1, bytes_per_scan: 256e6 * 0.1 }
    }
}

/// The daemon. Register with
/// `sim.add_daemon(Box::new(auto_numa), cfg.scan_period, cfg.scan_period)`.
#[derive(Debug)]
pub struct AutoNuma {
    cfg: AutoNumaConfig,
    /// Processes to balance; empty = all running processes.
    scope: Vec<ProcessId>,
}

impl AutoNuma {
    /// Balance every running process.
    pub fn new(cfg: AutoNumaConfig) -> Self {
        AutoNuma { cfg, scope: Vec::new() }
    }

    /// Balance only the given processes.
    pub fn for_processes(cfg: AutoNumaConfig, pids: Vec<ProcessId>) -> Self {
        AutoNuma { cfg, scope: pids }
    }

    /// Scan period for daemon registration.
    pub fn period(&self) -> f64 {
        self.cfg.scan_period
    }

    fn balance_process(&self, sim: &mut Simulator, pid: ProcessId, budget_pages: &mut u64) {
        let Ok(p) = sim.process(pid) else { return };
        if !p.is_running() || *budget_pages == 0 {
            return;
        }
        let n = sim.machine().node_count();
        let mut moves: Vec<PendingRange> = Vec::new();
        let mut queued = 0u64;

        // 1. Private pages home to their owner's node. The scan walks the
        // segment's placement runs (O(extents)), emitting one constant
        // range per misplaced run — the expanded page order matches the
        // historical page-by-page scan exactly.
        for &(owner, seg) in &p.private_segs {
            if *budget_pages == queued {
                break;
            }
            let segment = p.aspace.segment(seg).expect("segment exists");
            if segment.node_counts()[owner.idx()] == segment.len() {
                continue;
            }
            segment.for_each_run(0, segment.len(), |run_start, run_len, at| {
                if at != owner {
                    let take = run_len.min(*budget_pages - queued);
                    moves.push(PendingRange::constant(seg, run_start, take, at, owner));
                    queued += take;
                }
                queued < *budget_pages
            });
        }

        // 2. Shared pages toward a uniform spread over worker nodes: move
        // pages off non-workers (and off over-weight workers) onto the
        // most underweight workers.
        let workers = p.workers;
        let shared = p.shared_seg;
        let segment = p.aspace.segment(shared).expect("shared segment");
        let len = segment.len();
        if len > 0 && queued < *budget_pages {
            let target_per_worker = len as f64 / workers.len() as f64;
            // Deficit per worker node.
            let mut deficit: Vec<(NodeId, f64)> = workers
                .iter()
                .map(|w| (w, target_per_worker - segment.node_counts()[w.idx()] as f64))
                .filter(|&(_, d)| d > 0.5)
                .collect();
            deficit.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
            if !deficit.is_empty() {
                // Sources: nodes holding pages beyond their target (target
                // is zero for non-workers). Snapshot at scan start, as the
                // page-by-page scan always did.
                let over: Vec<bool> = (0..n)
                    .map(|i| {
                        let tgt = if workers.contains(NodeId(i as u16)) {
                            target_per_worker
                        } else {
                            0.0
                        };
                        segment.node_counts()[i] as f64 > tgt + 0.5
                    })
                    .collect();
                let mut di = 0usize;
                let mut remaining: Vec<f64> = deficit.iter().map(|&(_, d)| d).collect();
                segment.for_each_run(0, len, |run_start, run_len, at| {
                    if di >= deficit.len() {
                        return false;
                    }
                    if !over[at.idx()] {
                        return true;
                    }
                    // Split the run across deficit targets: each accepts
                    // pages until its (fractional) deficit is exhausted,
                    // exactly one page at a time in the historical scan.
                    let mut off = 0u64;
                    while off < run_len && di < deficit.len() && queued < *budget_pages {
                        let (to, _) = deficit[di];
                        if at == to {
                            // Pages already on the current target stay put
                            // (and consume neither deficit nor budget).
                            break;
                        }
                        let accepts = remaining[di].ceil().max(1.0) as u64;
                        let take = (run_len - off).min(accepts).min(*budget_pages - queued);
                        moves.push(PendingRange::constant(shared, run_start + off, take, at, to));
                        remaining[di] -= take as f64;
                        if remaining[di] <= 0.0 {
                            di += 1;
                        }
                        off += take;
                        queued += take;
                    }
                    queued < *budget_pages && di < deficit.len()
                });
            }
        }

        *budget_pages = budget_pages.saturating_sub(queued);
        if !moves.is_empty() {
            let _ = sim.enqueue_move_ranges(pid, moves);
        }
    }
}

impl Daemon for AutoNuma {
    fn name(&self) -> &str {
        "autonuma"
    }

    fn tick(&mut self, sim: &mut Simulator) {
        let mut budget = (self.cfg.bytes_per_scan / PAGE_SIZE as f64) as u64;
        let pids: Vec<ProcessId> = if self.scope.is_empty() {
            (0..usize::MAX).map_while(|i| sim.process(ProcessId(i)).ok().map(|p| p.id)).collect()
        } else {
            self.scope.clone()
        };
        for pid in pids {
            // Skip processes that still have queued migrations from the
            // previous scan: re-queuing the same pages would double-move.
            if sim.pending_migrations(pid) > 0 {
                continue;
            }
            self.balance_process(sim, pid, &mut budget);
            if budget == 0 {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AppProfile, SimConfig, Simulator};
    use crate::mem::policy::MemPolicy;
    use bwap_topology::{machines, NodeSet};

    fn profile() -> AppProfile {
        AppProfile {
            name: "app".into(),
            read_gbps_per_thread: 1.0,
            write_gbps_per_thread: 0.0,
            private_frac: 0.3,
            latency_sensitivity: 0.1,
            serial_frac: 0.0,
            multinode_penalty: 0.0,
            shared_pages: 8_000,
            private_pages_per_thread: 100,
            total_traffic_gb: f64::INFINITY,
            open_loop: false,
        }
    }

    #[test]
    fn autonuma_spreads_shared_pages_over_workers_only() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let workers = NodeSet::from_nodes([NodeId(1), NodeId(2)]);
        // Start with everything bound to node 0 (a non-worker).
        let pid = sim.spawn(profile(), workers, None, MemPolicy::Bind(NodeId(0))).unwrap();
        let an = AutoNuma::new(AutoNumaConfig::default());
        let period = an.period();
        sim.add_daemon(Box::new(an), period, period);
        sim.run_for(20.0);
        let d = sim.shared_distribution(pid).unwrap();
        assert!(d[0] < 0.02, "non-worker drained: {d:?}");
        assert!((d[1] - 0.5).abs() < 0.05, "{d:?}");
        assert!((d[2] - 0.5).abs() < 0.05, "{d:?}");
        // Private pages went home.
        let full = sim.full_distribution(pid).unwrap();
        assert!(full[0] < 0.02, "{full:?}");
    }

    #[test]
    fn autonuma_is_rate_limited() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let workers = NodeSet::from_nodes([NodeId(1), NodeId(2)]);
        let pid = sim.spawn(profile(), workers, None, MemPolicy::Bind(NodeId(0))).unwrap();
        let cfg = AutoNumaConfig { scan_period: 0.1, bytes_per_scan: 40.0 * 4096.0 };
        let an = AutoNuma::new(cfg);
        sim.add_daemon(Box::new(an), 0.1, 0.1);
        sim.run_for(0.35);
        // At most 3 scans x 40 pages have been queued/moved.
        let moved = sim.migrated_pages(pid) + sim.pending_migrations(pid) as u64;
        assert!(moved <= 120, "moved {moved}");
        assert!(moved > 0);
    }

    #[test]
    fn autonuma_never_migrates_pages_to_memory_only_nodes() {
        // AutoNUMA is locality-driven: it drags pages toward their
        // accessors, and threads can never run on the CPU-less tier — so
        // on a tiered machine it must drain the expanders, not fill them.
        let m = machines::machine_tiered();
        let mut sim = Simulator::new(m.clone(), SimConfig::default());
        let workers = m.worker_nodes();
        let mut p = profile();
        p.shared_pages = 4_000;
        // Start with everything spread over the whole machine, expanders
        // included.
        let pid = sim.spawn(p, workers, None, MemPolicy::Interleave(m.all_nodes())).unwrap();
        let before = sim.shared_distribution(pid).unwrap();
        assert!(before[2] > 0.2 && before[3] > 0.2);
        let an = AutoNuma::new(AutoNumaConfig::default());
        let period = an.period();
        sim.add_daemon(Box::new(an), period, period);
        sim.run_for(20.0);
        let d = sim.shared_distribution(pid).unwrap();
        assert!(d[2] < 0.02 && d[3] < 0.02, "expanders drained: {d:?}");
        assert!((d[0] - 0.5).abs() < 0.05 && (d[1] - 0.5).abs() < 0.05, "{d:?}");
    }

    #[test]
    fn autonuma_scoped_to_processes() {
        let mut sim = Simulator::new(machines::machine_b(), SimConfig::default());
        let w1 = NodeSet::single(NodeId(1));
        let w2 = NodeSet::single(NodeId(2));
        let a = sim.spawn(profile(), w1, None, MemPolicy::Bind(NodeId(0))).unwrap();
        let b = sim.spawn(profile(), w2, None, MemPolicy::Bind(NodeId(0))).unwrap();
        let an = AutoNuma::for_processes(AutoNumaConfig::default(), vec![a]);
        sim.add_daemon(Box::new(an), 0.1, 0.1);
        sim.run_for(10.0);
        let da = sim.shared_distribution(a).unwrap();
        let db = sim.shared_distribution(b).unwrap();
        assert!(da[1] > 0.9, "scoped process balanced: {da:?}");
        assert!((db[0] - 1.0).abs() < 1e-9, "unscoped untouched: {db:?}");
    }
}
