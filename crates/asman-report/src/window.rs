//! Windowed measurement of spinlock waiting behaviour.
//!
//! The paper's Figures 1(b), 2 and 8 observe spinlock waits over a fixed
//! 30-second period while the benchmark runs. [`WaitWindow`] reproduces
//! that: it advances a machine to the window start, snapshots the wait
//! histogram, arms the observed VM's flight `lock` stream, runs the
//! window, and reports the in-window population.

use asman_hypervisor::Machine;
use asman_sim::{CatMask, Cycles, Log2Histogram, TraceCat};
use serde::{Deserialize, Serialize};

/// Smallest wait kept as a scatter sample (the paper collects spinlocks
/// with waits over 2^10 cycles).
pub(crate) const SCATTER_FLOOR: u64 = 1 << 10;

/// Retained `lock` events per window. The stream holds every contend,
/// acquire and release, so this sits far above the longest window's
/// traffic; an overflow panics instead of cutting the scatter short.
const LOCK_CAPACITY: usize = 1 << 24;

/// Spinlock-wait observations collected over one time window.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WaitWindow {
    /// Window start (simulated seconds).
    pub start_secs: f64,
    /// Window length (simulated seconds).
    pub length_secs: f64,
    /// Spinlock acquisitions inside the window.
    pub locks: u64,
    /// In-window waits ≥ 2^10 cycles.
    pub over_2_10: u64,
    /// In-window waits ≥ 2^20 cycles.
    pub over_2_20: u64,
    /// In-window waits ≥ 2^25 cycles.
    pub over_2_25: u64,
    /// Individual wait samples ≥ 2^10 cycles, in observation order (the
    /// scatter series of Figures 2 and 8), as `log2`-style raw cycles.
    pub samples: Vec<u64>,
}

impl WaitWindow {
    /// Run `machine` and collect the wait behaviour of VM `vm` during
    /// `[start, start + length]`. The VM's guest flight recorder is
    /// armed for the window only, replacing any earlier one, and is
    /// disarmed afterwards.
    ///
    /// # Panics
    ///
    /// If the window's `lock` stream overflows its capacity.
    pub fn collect(machine: &mut Machine, vm: usize, start: Cycles, length: Cycles) -> Self {
        let clk = machine.config().clock;
        machine.run_until(start);
        let before: Log2Histogram = machine.vm_kernel(vm).stats().wait_hist.clone();
        let locks_before = machine.vm_kernel(vm).stats().lock_acquisitions;
        machine
            .vm_kernel_mut(vm)
            .enable_flight(CatMask::only(TraceCat::Lock), LOCK_CAPACITY);
        machine.run_until(start + length);
        // Taking the recorder leaves a disabled one in its place.
        let flight = std::mem::take(machine.vm_kernel_mut(vm).flight_mut());
        assert_eq!(
            flight.dropped(TraceCat::Lock),
            0,
            "wait window of vm {vm} overflowed the {LOCK_CAPACITY}-event lock stream; \
             the scatter would be cut short"
        );
        let stats = machine.vm_kernel(vm).stats();
        let after = &stats.wait_hist;
        let cum = |h: &Log2Histogram, e: u32| h.count_at_least_pow2(e);
        WaitWindow {
            start_secs: clk.to_secs(start),
            length_secs: clk.to_secs(length),
            locks: stats.lock_acquisitions - locks_before,
            over_2_10: cum(after, 10) - cum(&before, 10),
            over_2_20: cum(after, 20) - cum(&before, 20),
            over_2_25: cum(after, 25) - cum(&before, 25),
            samples: flight
                .events(TraceCat::Lock)
                .iter()
                .filter_map(|e| e.ev.lock_wait())
                .filter(|&w| w >= SCATTER_FLOOR)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Sched, SingleVmScenario};
    use asman_sim::Clock;
    use asman_workloads::{NasBenchmark, NasSpec, ProblemClass};

    #[test]
    fn window_counts_match_samples() {
        let clk = Clock::default();
        let sc = SingleVmScenario::new(Sched::Credit, 64, 3);
        let lu = NasSpec::new(NasBenchmark::LU, ProblemClass::S, 4).build(1);
        let mut m = sc.build(Box::new(lu));
        let w = WaitWindow::collect(&mut m, 1, clk.ms(500), clk.secs(2));
        assert!(w.locks > 0, "window must observe lock activity");
        assert_eq!(w.samples.len() as u64, w.over_2_10);
        assert!(w.over_2_20 <= w.over_2_10);
        assert!(w.over_2_25 <= w.over_2_20);
        // Every retained sample is above the collection floor.
        assert!(w.samples.iter().all(|&s| s >= 1 << 10));
        assert!(!m.vm_kernel(1).flight().is_enabled(), "recorder disarmed");
    }
}
