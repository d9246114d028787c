//! A gauge of the host's current speed, to which op times are scaled.
//!
//! The host is a virtual machine shared with other tenants, and how fast
//! it runs the same code drifts by tens of percent over seconds and
//! minutes as their load comes and goes. The gauge runs a fixed
//! reference kernel in short bursts between ops, and each op's time is
//! scaled by how much slower than [`REFERENCE_NS_PER_EVENT`] the kernel
//! ran in the bursts just before it. Drift then moves the kernel and the
//! op alike and cancels out of the scaled time, which reads as the time
//! the op would take on a host where the kernel runs at the reference
//! speed.
//!
//! The kernel is a small discrete-event loop, like the simulator's inner
//! loop: a binary-heap event queue, a 1 MiB table of per-entity state,
//! and a data-dependent branch per event. It does not depend on the
//! simulator crates, so a change to them cannot move it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::thread::{self, ThreadId};

use crate::clock::OpClock;

/// The kernel's speed on the reference host, ns per event: about its
/// speed on a quiet 2-vCPU Intel Xeon virtual machine.
pub const REFERENCE_NS_PER_EVENT: f64 = 100.0;

/// Entities whose state the kernel touches (1 MiB of `u64`s).
const ENTITIES: usize = 1 << 17;
/// Pending events held in the queue.
const PENDING: usize = 4096;
/// Events per burst: about 3 ms.
const BURST_EVENTS: u64 = 50_000;
/// Op time between bursts. Bursts add about 6% to a run's length.
const PERIOD_NS: u64 = 50_000_000;
/// Bursts whose median speed scales the next ops: about the last
/// quarter second of work.
const WINDOW: usize = 5;
/// Bursts whose history is kept without reallocating: more than a
/// 60-second run makes. Bursts run inside passes, whose heap peak the
/// benchmark measures, so they do not allocate.
const HISTORY: usize = 4096;

/// The reference kernel's state, kept between bursts so that a burst
/// measures the kernel and not page faults of fresh memory.
struct Kernel {
    state: Vec<u64>,
    queue: BinaryHeap<Reverse<(u64, u32)>>,
    rng: u64,
    acc: u64,
}

impl Kernel {
    fn new() -> Kernel {
        let mut k = Kernel {
            state: vec![0; ENTITIES],
            queue: BinaryHeap::with_capacity(PENDING),
            rng: 0x9E37_79B9_7F4A_7C15,
            acc: 0,
        };
        for id in 0..PENDING as u32 {
            let t = k.next() % 1_000;
            k.queue.push(Reverse((t, id)));
        }
        k
    }

    /// Xorshift64.
    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    fn run(&mut self, events: u64) {
        for _ in 0..events {
            let Reverse((t, id)) = self.queue.pop().expect("the queue never drains");
            let r = self.next();
            let s = &mut self.state[(r as usize ^ id as usize) % ENTITIES];
            let dt = if *s & 1 == 0 {
                *s = s.wrapping_add(r | 1);
                1 + (r >> 40) % 97
            } else {
                *s = s.rotate_left(7) ^ t;
                1 + (r >> 48) % 13
            };
            self.acc = self.acc.wrapping_add(*s);
            self.queue.push(Reverse((t + dt, id)));
        }
        std::hint::black_box(self.acc);
    }
}

/// Scales op times on one thread's CPU clock to the reference speed.
pub struct Gauge {
    /// The thread whose speed the gauge measures.
    pub owner: ThreadId,
    kernel: Kernel,
    /// Kernel ns per event of the latest bursts, oldest first.
    recent: VecDeque<f64>,
    /// Op time since the latest burst, ns.
    since: u64,
    /// [`REFERENCE_NS_PER_EVENT`] over the median of `recent`.
    factor: f64,
    /// The first [`HISTORY`] bursts' ns per event, for the run's summary.
    pub history: Vec<f64>,
}

impl Gauge {
    /// A gauge primed with a full window of bursts.
    pub fn new() -> Gauge {
        let mut g = Gauge {
            owner: thread::current().id(),
            kernel: Kernel::new(),
            recent: VecDeque::with_capacity(WINDOW + 1),
            since: 0,
            factor: 1.0,
            history: Vec::with_capacity(HISTORY),
        };
        g.kernel.run(BURST_EVENTS);
        for _ in 0..WINDOW {
            g.burst();
        }
        g
    }

    fn burst(&mut self) {
        let clock = OpClock::ThreadCpu;
        let ((), ns) = clock.time(|| self.kernel.run(BURST_EVENTS));
        let per_event = ns as f64 / BURST_EVENTS as f64;
        if self.history.len() < HISTORY {
            self.history.push(per_event);
        }
        self.recent.push_back(per_event);
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        let mut recent = [0.0; WINDOW];
        let n = self.recent.len();
        for (r, &x) in recent.iter_mut().zip(&self.recent) {
            *r = x;
        }
        recent[..n].sort_by(f64::total_cmp);
        self.factor = REFERENCE_NS_PER_EVENT / recent[n / 2].max(f64::MIN_POSITIVE);
    }

    /// `ns` of op time scaled to the reference speed; runs a burst once
    /// [`PERIOD_NS`] of op time has passed since the last one.
    pub fn scale(&mut self, ns: u64) -> u64 {
        let scaled = (ns as f64 * self.factor).round() as u64;
        self.since += ns;
        if self.since >= PERIOD_NS {
            self.since = 0;
            self.burst();
        }
        scaled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_by_the_reference_over_the_measured_speed() {
        let mut g = Gauge::new();
        assert_eq!(g.history.len(), WINDOW);
        let factor = g.factor;
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(g.scale(1_000), (1_000.0 * factor).round() as u64);
        // A period of op time triggers one more burst.
        g.scale(PERIOD_NS);
        assert_eq!(g.history.len(), WINDOW + 1);
    }
}
