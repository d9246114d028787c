//! The clocks that time ops, set-ups and layer calls.
//!
//! The end-to-end run has one worker thread and times it by its CPU
//! clock (`CLOCK_THREAD_CPUTIME_ID`), scaled by the speed [`Gauge`]. On
//! a shared virtual machine that clock leaves out the time the
//! hypervisor took the vCPU away (the kernel subtracts steal time from
//! it) and the time other processes ran, which wall time counts and
//! which swings with other tenants' load; the gauge takes out the rest
//! of the host's drift. The traced run times its `nproc` workers by
//! plain wall time, because its layer figures are shares of the
//! cluster's wall-time profile.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::calib::Gauge;

/// `clockid_t` of the calling thread's CPU clock on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpClock {
    /// Monotonic wall time.
    #[default]
    Wall,
    /// CPU time of the calling thread.
    ThreadCpu,
}

impl OpClock {
    /// Nanoseconds since an arbitrary origin fixed per clock (per thread
    /// for [`OpClock::ThreadCpu`]); differences of two readings on one
    /// thread are durations.
    pub fn now_ns(self) -> u64 {
        match self {
            OpClock::Wall => {
                static ORIGIN: OnceLock<Instant> = OnceLock::new();
                ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
            }
            OpClock::ThreadCpu => {
                let mut ts = Timespec {
                    tv_sec: 0,
                    tv_nsec: 0,
                };
                // SAFETY: `ts` is a valid, writable `timespec`, and the
                // call writes nothing else.
                let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
                assert_eq!(rc, 0, "the thread CPU clock is unavailable");
                ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
            }
        }
    }

    /// Nanoseconds `f` took on this clock, and its result.
    pub fn time<R>(self, f: impl FnOnce() -> R) -> (R, u64) {
        let t0 = self.now_ns();
        let out = f();
        (out, self.now_ns().saturating_sub(t0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_clocks_advance_over_work() {
        for clock in [OpClock::Wall, OpClock::ThreadCpu] {
            let (x, ns) =
                clock.time(|| (0..2_000_000u64).fold(0u64, |a, i| a ^ i.wrapping_mul(a | 1)));
            std::hint::black_box(x);
            assert!(ns > 0, "{clock:?}");
        }
    }
}

/// Times the workload's calls: by wall time, or by the thread CPU clock
/// scaled to the reference speed. Clones share one gauge.
#[derive(Clone, Default)]
pub struct Timer {
    clock: OpClock,
    gauge: Option<Arc<Mutex<Gauge>>>,
}

impl Timer {
    /// Plain wall time.
    pub fn wall() -> Timer {
        Timer::default()
    }

    /// The calling thread's CPU time, scaled to the reference speed.
    /// Every timed call must run on the thread that creates the timer:
    /// the gauge measures that thread's speed.
    pub fn scaled_cpu() -> Timer {
        Timer {
            clock: OpClock::ThreadCpu,
            gauge: Some(Arc::new(Mutex::new(Gauge::new()))),
        }
    }

    /// The unscaled clock reading, for spans that are layer figures only.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// `f`'s result and the (scaled) nanoseconds it took.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, u64) {
        let (out, ns) = self.clock.time(f);
        let ns = match &self.gauge {
            Some(g) => {
                let mut g = g.lock().expect("gauge poisoned");
                assert_eq!(
                    g.owner,
                    std::thread::current().id(),
                    "a CPU-clock timer timed another thread"
                );
                g.scale(ns)
            }
            None => ns,
        };
        (out, ns)
    }

    /// Every gauge burst's kernel ns per event, in order.
    pub fn gauge_history(&self) -> Vec<f64> {
        self.gauge
            .as_ref()
            .map(|g| g.lock().expect("gauge poisoned").history.clone())
            .unwrap_or_default()
    }
}
