//! Periodic daemons: OS or runtime components that observe and mutate the
//! simulated system (AutoNUMA, the BWAP DWP tuner, co-schedule monitors).

use crate::engine::Simulator;

/// A periodic task the engine fires at a fixed cadence. Daemons receive the
/// whole simulator and use its public API (counters, `mbind`, placement
/// queries), exactly like a privileged userspace daemon or kernel thread.
pub trait Daemon {
    /// Human-readable name for diagnostics.
    fn name(&self) -> &str;

    /// Called every period; `sim.clock()` gives the current time.
    fn tick(&mut self, sim: &mut Simulator);

    /// Whether the daemon has finished its job and can be dropped
    /// (default: never).
    fn done(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulator};
    use bwap_topology::machines;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct CountingDaemon {
        fires: Rc<RefCell<Vec<f64>>>,
        stop_after: usize,
    }

    impl Daemon for CountingDaemon {
        fn name(&self) -> &str {
            "counting"
        }
        fn tick(&mut self, sim: &mut Simulator) {
            self.fires.borrow_mut().push(sim.clock());
        }
        fn done(&self) -> bool {
            self.fires.borrow().len() >= self.stop_after
        }
    }

    #[test]
    fn daemons_fire_on_schedule_and_retire() {
        let fires = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(machines::twin(), SimConfig::default());
        sim.add_daemon(Box::new(CountingDaemon { fires: fires.clone(), stop_after: 3 }), 0.1, 0.1);
        sim.run_for(1.0);
        let fired = fires.borrow();
        assert_eq!(fired.len(), 3, "daemon should retire after 3 fires: {fired:?}");
        assert!((fired[0] - 0.1).abs() < 0.011, "first fire at ~0.1s, got {}", fired[0]);
        assert!((fired[1] - fired[0] - 0.1).abs() < 0.011);
    }

    fn register(period: f64, phase: f64) {
        let fires = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(machines::twin(), SimConfig::default());
        sim.add_daemon(Box::new(CountingDaemon { fires, stop_after: 1 }), period, phase);
    }

    #[test]
    #[should_panic(expected = "daemon period must be finite and positive")]
    fn an_infinite_period_is_rejected() {
        register(f64::INFINITY, 0.1);
    }

    #[test]
    #[should_panic(expected = "daemon period must be finite and positive")]
    fn a_nan_phase_is_rejected() {
        register(0.1, f64::NAN);
    }
}
