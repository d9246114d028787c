//! What every workload shares: the run context (seed pool, correctness
//! pins, span recorder), the end-to-end tally, exact per-layer counts,
//! and the timing `Program` wrapper.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asman_hypervisor::Machine;
use asman_sim::TraceCat;
use asman_workloads::{Op, Program};

use crate::clock::Timer;
use crate::stats;
use crate::trace::Tracer;

/// Scenario seeds whose simulated results are pinned in `pins.txt`. A
/// workload cycles through the first few of them, and the workload seed
/// picks where in that cycle the run starts, so any seed yields inputs
/// whose correct outputs are known.
pub const POOL: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Set-ups measured back to back before every pass. Set-up takes a
/// millisecond or less; spreading the samples over the whole run keeps
/// their median from hanging on the host's speed in one instant.
const SETUP_REPS: usize = 5;

/// Offset added to scenario seeds by [`Mutate::Seed`]: the inputs change,
/// the pins looked up do not, so every checked op must fail.
const SEED_MUTATION: u64 = 1000;

/// A deliberate defect, injected by `--self-test` to show the
/// correctness check is not vacuous.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutate {
    /// No defect.
    None,
    /// Run different scenario seeds than the ones whose pins are checked.
    Seed,
    /// Halve the migration model's dirty-page rate (the config-level
    /// mutation of `repro bisect`); changes every migrating run.
    DirtyUndercount,
}

/// The run's fixed inputs and shared recorders.
pub struct Ctx {
    /// Measurement time: a pass starts only if one more pass as long
    /// as the previous one still fits.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    pub mutate: Mutate,
    /// Worker threads: one in the end-to-end run, so its threads do not
    /// contend with each other for the host's few cores; `nproc` in the
    /// traced run, whose layer figures include parallel efficiency.
    pub jobs: usize,
    /// Times ops, set-ups and layer calls: the worker's CPU clock scaled
    /// to the reference speed in the end-to-end run, wall time in the
    /// traced run.
    pub timer: Timer,
    /// Pool entries the workload cycles through: pass `p` runs entry
    /// `(start + p) % cycle`.
    pub cycle: usize,
    /// Position of pass 0 in the cycle, derived from the workload seed.
    pub start: usize,
    /// Passes run even when `seconds` is already used up: one whole
    /// cycle, so every run measures the same inputs, in another order.
    pub min_passes: usize,
    pub tracer: Tracer,
    pins: BTreeMap<String, u64>,
    /// `Some` in pin-generation mode: digests are recorded, not checked.
    recorded: Option<Mutex<BTreeMap<String, u64>>>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, mutate: Mutate, cycle: usize) -> Ctx {
        assert!((1..=POOL.len()).contains(&cycle), "cycle outside the pool");
        Ctx {
            seconds,
            trace,
            mutate,
            jobs: if trace { nproc() } else { 1 },
            timer: if trace {
                Timer::wall()
            } else {
                Timer::scaled_cpu()
            },
            cycle,
            start: (splitmix64(seed) % cycle as u64) as usize,
            min_passes: cycle,
            tracer: Tracer::new(trace),
            pins: parse_pins(include_str!("../pins.txt")),
            recorded: None,
        }
    }

    /// A context that records the digests of passes `0..POOL.len()`
    /// instead of checking them.
    pub fn pinning() -> Ctx {
        Ctx {
            jobs: nproc(),
            start: 0,
            recorded: Some(Mutex::new(BTreeMap::new())),
            ..Ctx::new(0, 0.0, false, Mutate::None, POOL.len())
        }
    }

    /// Pool index of the entry `k` passes after the start.
    pub fn slot(&self, k: usize) -> usize {
        (self.start + k) % self.cycle
    }

    /// Pool entry `k` passes after the start: `(pinned seed, input seed)`.
    /// The two differ only under [`Mutate::Seed`].
    pub fn seed(&self, k: usize) -> (u64, u64) {
        let s = POOL[self.slot(k)];
        let input = if self.mutate == Mutate::Seed {
            s + SEED_MUTATION
        } else {
            s
        };
        (s, input)
    }

    /// Whether `digest` is the pinned value for `key`. A missing pin is a
    /// failure: an unchecked op is not a correct one.
    pub fn check(&self, key: String, digest: u64) -> bool {
        if let Some(rec) = &self.recorded {
            rec.lock().expect("pin table poisoned").insert(key, digest);
            return true;
        }
        self.pins.get(&key) == Some(&digest)
    }

    /// The recorded digests as `pins.txt` lines.
    pub fn recorded_pins(&self) -> String {
        let rec = self.recorded.as_ref().expect("not a pinning context");
        let rec = rec.lock().expect("pin table poisoned");
        rec.iter().map(|(k, v)| format!("{k} {v:016x}\n")).collect()
    }
}

fn parse_pins(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((k.to_string(), u64::from_str_radix(v.trim(), 16).ok()?))
        })
        .collect()
}

/// Cores available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64: spreads consecutive workload seeds over the pool.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end measurements of a run's passes.
///
/// A run repeats the same few passes: pass `p` has the inputs of cycle
/// slot `p % cycle`. So every op is timed more than once, and the metrics
/// are taken over each op's median time, with every slot counted once
/// however often the run visited it. A run thus measures the same work
/// whatever its seed, and an op slowed by a burst of host noise in one
/// visit does not move them.
#[derive(Default)]
pub struct Tally {
    /// One sample per set-up, s.
    pub setup_s: Vec<f64>,
    /// One sample per op, ms, in the order run.
    pub op_ms: Vec<f64>,
    /// Per pass: ops per second of work.
    pub op_rates: Vec<f64>,
    /// Per pass: peak heap above the live heap at its start, bytes.
    pub peak_heap: Vec<f64>,
    slots: BTreeMap<usize, Slot>,
    pub attempted: u64,
    pub failed: u64,
}

/// The visits of one cycle slot.
#[derive(Default)]
struct Slot {
    /// Per op, its time in every visit, ms.
    op_ms: Vec<Vec<f64>>,
    /// Per visit, the workload's work outside its ops, ms: the
    /// checkpoint and resume calls of `soak-churn`, none elsewhere.
    rest_ms: Vec<f64>,
    /// Simulated events of one visit; the same in every visit.
    events: u64,
}

impl Tally {
    /// Time [`SETUP_REPS`] runs of `setup` on `timer`.
    pub fn setups(&mut self, timer: &Timer, mut setup: impl FnMut()) {
        for _ in 0..SETUP_REPS {
            let ((), ns) = timer.time(&mut setup);
            self.setup_s.push(ns as f64 / 1e9);
        }
    }

    /// Record one pass on cycle slot `slot`: its ops' times, the
    /// simulated events and the seconds of work they took (ops
    /// included), and its peak heap.
    pub fn pass(&mut self, slot: usize, op_ms: &[f64], events: u64, work_s: f64, peak_heap: usize) {
        self.op_rates
            .push(op_ms.len() as f64 / work_s.max(f64::MIN_POSITIVE));
        self.peak_heap.push(peak_heap as f64);
        self.op_ms.extend_from_slice(op_ms);
        let s = self.slots.entry(slot).or_default();
        s.op_ms
            .resize_with(s.op_ms.len().max(op_ms.len()), Vec::new);
        for (samples, &ms) in s.op_ms.iter_mut().zip(op_ms) {
            samples.push(ms);
        }
        let rest = work_s * 1e3 - op_ms.iter().sum::<f64>();
        s.rest_ms.push(rest.max(0.0));
        s.events = events;
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order. The rates are
    /// those of one visit of every slot with each op and each slot's
    /// other work at its median time; the latency quantiles are over
    /// the ops' median times. The heap peak is the run's highest.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut typical = Vec::new();
        let mut work_ms = 0.0;
        let mut events = 0;
        for s in self.slots.values() {
            let ops: Vec<f64> = s.op_ms.iter().map(|v| stats::median(v)).collect();
            work_ms += ops.iter().sum::<f64>() + stats::median(&s.rest_ms);
            events += s.events;
            typical.extend(ops);
        }
        let work_s = (work_ms / 1e3).max(f64::MIN_POSITIVE);
        let peak = self.peak_heap.iter().copied().fold(0.0, f64::max);
        vec![
            ("setup_s", stats::median(&self.setup_s)),
            ("ops_per_s", typical.len() as f64 / work_s),
            ("op_ms_p50", stats::quantile(&typical, 0.5)),
            ("op_ms_p90", stats::quantile(&typical, 0.9)),
            ("engine_events_per_s", events as f64 / work_s),
            ("peak_heap_mb", peak / (1024.0 * 1024.0)),
        ]
    }
}

/// Exact counts of simulated work, read from the layers' public
/// accessors after a run. A speed-only change must not move them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub next_op_calls: u64,
    pub dispatches: u64,
    pub cosched_bursts: u64,
    pub vcrd_raises: u64,
    pub lock_acquisitions: u64,
    pub holder_preemptions: u64,
    pub spin_cycles: u64,
    /// Flight-recorder events seen, by [`TraceCat`] index.
    pub flight: [u64; TraceCat::ALL.len()],
}

impl Counts {
    /// Add one machine's counts over its live VMs.
    pub fn add_machine(&mut self, m: &Machine) {
        self.events += m.events_processed();
        for vm in (0..m.vm_count()).filter(|&vm| !m.vm_evacuated(vm)) {
            let st = m.vm_kernel(vm).stats();
            self.lock_acquisitions += st.lock_acquisitions;
            self.holder_preemptions += st.holder_preemptions;
            self.spin_cycles +=
                (st.spin_kernel_cycles + st.spin_barrier_cycles + st.spin_pipeline_cycles).as_u64();
            let acct = m.vm_accounting(vm);
            self.dispatches += acct.dispatches.iter().sum::<u64>();
            self.cosched_bursts += acct.cosched_bursts;
            self.vcrd_raises += acct.vcrd_raises;
        }
        for (cat, seen, _) in m.flight_totals() {
            self.flight[cat as usize] += seen;
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.next_op_calls += o.next_op_calls;
        self.dispatches += o.dispatches;
        self.cosched_bursts += o.cosched_bursts;
        self.vcrd_raises += o.vcrd_raises;
        self.lock_acquisitions += o.lock_acquisitions;
        self.holder_preemptions += o.holder_preemptions;
        self.spin_cycles += o.spin_cycles;
        for (a, b) in self.flight.iter_mut().zip(o.flight) {
            *a += b;
        }
    }

    /// The count metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("sim.events", self.events as f64),
            ("workloads.next_op_calls", self.next_op_calls as f64),
            ("hypervisor.dispatches", self.dispatches as f64),
            ("core.cosched_bursts", self.cosched_bursts as f64),
            ("core.vcrd_raises", self.vcrd_raises as f64),
            ("guest.lock_acquisitions", self.lock_acquisitions as f64),
            ("guest.holder_preemptions", self.holder_preemptions as f64),
            ("guest.spin_cycles", self.spin_cycles as f64),
        ];
        for cat in TraceCat::ALL {
            v.push((flight_metric(cat), self.flight[cat as usize] as f64));
        }
        v
    }
}

fn flight_metric(cat: TraceCat) -> &'static str {
    match cat {
        TraceCat::Sched => "sim.flight.events.sched",
        TraceCat::Credit => "sim.flight.events.credit",
        TraceCat::Cosched => "sim.flight.events.cosched",
        TraceCat::Lock => "sim.flight.events.lock",
        TraceCat::Futex => "sim.flight.events.futex",
        TraceCat::Barrier => "sim.flight.events.barrier",
        TraceCat::Fault => "sim.flight.events.fault",
    }
}

/// `next_op` calls and the time spent in them, for one machine's
/// programs. Each machine runs on one thread, so the counters are never
/// contended; they are atomics only because the machine owns the
/// wrapper and the benchmark reads them from outside.
#[derive(Debug, Default)]
pub struct Probe {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

/// A forwarding [`Program`] that times every `next_op` call.
pub struct Timed {
    inner: Box<dyn Program>,
    probe: Arc<Probe>,
}

impl Timed {
    pub fn wrap(inner: Box<dyn Program>, probe: &Arc<Probe>) -> Box<dyn Program> {
        Box::new(Timed {
            inner,
            probe: Arc::clone(probe),
        })
    }
}

impl Program for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn thread_count(&self) -> usize {
        self.inner.thread_count()
    }
    fn next_op(&mut self, tid: usize) -> Op {
        let t0 = Instant::now();
        let op = self.inner.next_op(tid);
        self.probe
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.probe.calls.fetch_add(1, Relaxed);
        op
    }
    fn kernel_locks(&self) -> u32 {
        self.inner.kernel_locks()
    }
    fn barriers(&self) -> u32 {
        self.inner.barriers()
    }
    fn semaphores(&self) -> u32 {
        self.inner.semaphores()
    }
    fn finite(&self) -> bool {
        self.inner.finite()
    }
}

/// A workload's result: correctness, the end-to-end tally and, for a
/// traced run, its per-layer metrics.
pub struct Outcome {
    pub tally: Tally,
    /// Per-layer metrics this workload measured (traced runs only);
    /// every other per-layer metric reads 0.
    pub layer: Vec<(&'static str, f64)>,
    /// Traced and untraced passes produced identical digests.
    pub parity: bool,
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pins_parse_and_skip_comments() {
        let p = parse_pins("# header\na/1 00000000000000ff\nbad line\n");
        assert_eq!(p.get("a/1"), Some(&255));
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn metrics_take_each_op_at_its_median_once_per_slot() {
        let mut t = Tally::default();
        // Slot 0 visited three times, one visit slowed; slot 1 once.
        t.pass(0, &[1.0, 3.0], 10, 0.005, 0);
        t.pass(0, &[9.0, 9.0], 10, 0.020, 0);
        t.pass(0, &[1.0, 3.0], 10, 0.005, 0);
        t.pass(1, &[2.0], 5, 0.002, 1 << 20);
        let m: BTreeMap<_, _> = t.metrics().into_iter().collect();
        // Work: ops 1 + 3 + 2 ms, plus slot 0's other work of 1 ms.
        assert!((m["ops_per_s"] - 3.0 / 0.007).abs() < 1e-6);
        assert!((m["engine_events_per_s"] - 15.0 / 0.007).abs() < 1e-6);
        assert_eq!(m["op_ms_p50"], 2.0);
        assert_eq!(m["peak_heap_mb"], 1.0);
    }

    #[test]
    fn seed_mutation_keeps_the_pinned_key() {
        let c = Ctx::new(5, 1.0, false, Mutate::Seed, POOL.len());
        let (pinned, input) = c.seed(0);
        assert!(POOL.contains(&pinned));
        assert_ne!(pinned, input);
        let c = Ctx::new(5, 1.0, false, Mutate::None, 3);
        assert!(c.start < 3 && c.min_passes == 3);
        assert_eq!(c.seed(3).0, c.seed(3).1);
    }
}
