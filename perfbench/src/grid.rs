//! `paper-grid`: the single-host cells behind Figures 9–12, at class S.
//!
//! One pass builds every cell's machine (the set-up), then runs the
//! machines through `SweepRunner::map`; one op is one machine run. The
//! engine does all the work and the cluster and checkpoint layers none.
//! Sync-heavy cells (LU or SP at 22.2%) run beside sync-free ones (EP),
//! so a change to the guest lock path or to coscheduling shows in some
//! cells and not in others.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use asman_guest::GuestCosts;
use asman_hypervisor::{Machine, MachineConfig, VmSpec};
use asman_report::{
    dom0_vm, machine_for, paper_combination, JbbScenario, MultiVmScenario, Sched, SingleVmScenario,
    VmWorkload, WEIGHT_RATES,
};
use asman_sim::{CatMask, Clock, SweepRunner};
use asman_workloads::{
    NasBenchmark, NasSpec, ProblemClass, Program, SpecCpuRate, SpecJbb, SpecJbbConfig,
};

use crate::alloc;
use crate::bench::{ratio, Counts, Ctx, Outcome, Probe, Tally, Timed};
use crate::trace::{Tracer, ROOT};

/// Pool entries the grid cycles through. Cell `i` of pass `p` runs entry
/// `(start + p + i) % CYCLE`, so one pass covers them all across its
/// cells, and two passes run every cell on every entry.
pub const CYCLE: usize = 2;
/// Online rates of the warehouse sweep (Figure 10's three panels).
const JBB_WEIGHTS: [u32; 3] = [128, 64, 32];
const JBB_WAREHOUSES: usize = 8;
/// Rounds per multi-VM cell. Figures 11–12 average ten; one keeps these
/// cells from dominating a pass, so a run has enough passes for steady
/// medians.
const MULTI_ROUNDS: usize = 1;
/// Give-up horizon of every cell, simulated seconds (the figures' value).
const HORIZON_SECS: u64 = 4_000;
/// Retained flight events per category and recorder in traced passes;
/// the recorder counts every event and keeps the first this many.
const FLIGHT_CAPACITY: usize = 4096;

/// Cell groups, in `grid.cell_ms.*` order.
const GROUPS: [(&str, &str); 9] = [
    ("BT", "grid.cell_ms.BT"),
    ("CG", "grid.cell_ms.CG"),
    ("EP", "grid.cell_ms.EP"),
    ("FT", "grid.cell_ms.FT"),
    ("MG", "grid.cell_ms.MG"),
    ("SP", "grid.cell_ms.SP"),
    ("LU", "grid.cell_ms.LU"),
    ("jbb", "grid.cell_ms.jbb"),
    ("multivm", "grid.cell_ms.multivm"),
];

#[derive(Clone, Copy, Debug)]
enum Kind {
    /// NAS benchmark on V1 at the given weight (Figure 9).
    Nas(NasBenchmark, u32),
    /// SPECjbb at the given weight and warehouse count (Figure 10).
    Jbb(u32, usize),
    /// Paper combination 1–4 (Figures 11–12).
    Multi(u8),
}

#[derive(Clone, Copy, Debug)]
struct Cell {
    kind: Kind,
    sched: Sched,
}

impl Cell {
    fn label(&self) -> String {
        let s = self.sched.label();
        match self.kind {
            Kind::Nas(b, w) => format!("nas-{}-w{w}-{s}", b.name()),
            Kind::Jbb(w, wh) => format!("jbb-w{w}-wh{wh}-{s}"),
            Kind::Multi(k) => format!("multivm-{k}-{s}"),
        }
    }

    fn group(&self) -> usize {
        match self.kind {
            Kind::Nas(b, _) => GROUPS
                .iter()
                .position(|(g, _)| *g == b.name())
                .expect("every NAS benchmark has a group"),
            Kind::Jbb(..) => 7,
            Kind::Multi(_) => 8,
        }
    }
}

/// The grid, largest cells first so the sweep's tail stays short.
fn cells() -> Vec<Cell> {
    let scheds = [Sched::Credit, Sched::Asman];
    let mut v = Vec::new();
    for k in 1..=4 {
        for sched in scheds {
            v.push(Cell {
                kind: Kind::Multi(k),
                sched,
            });
        }
    }
    for w in JBB_WEIGHTS {
        for sched in scheds {
            for wh in 1..=JBB_WAREHOUSES {
                v.push(Cell {
                    kind: Kind::Jbb(w, wh),
                    sched,
                });
            }
        }
    }
    for b in NasBenchmark::ALL {
        for (w, _) in WEIGHT_RATES {
            for sched in scheds {
                v.push(Cell {
                    kind: Kind::Nas(b, w),
                    sched,
                });
            }
        }
    }
    v
}

fn multi_scenario(sched: Sched, k: u8, seed: u64) -> MultiVmScenario {
    MultiVmScenario {
        rounds: MULTI_ROUNDS,
        horizon_secs: HORIZON_SECS,
        ..MultiVmScenario::new(sched, paper_combination(k), ProblemClass::S, seed)
    }
}

/// [`MultiVmScenario::build`] with every workload program wrapped. The
/// traced pass builds through this copy and the untraced pass through
/// the original, so tracing parity also checks the copy.
fn build_multi_wrapped(sc: &MultiVmScenario, probe: &Arc<Probe>) -> Machine {
    let cfg = MachineConfig {
        seed: sc.seed,
        ..MachineConfig::default()
    };
    let mut specs = vec![dom0_vm("V0", 8, sc.seed ^ 0xD0)];
    for (i, w) in sc.workloads.iter().enumerate() {
        let seed = sc.seed.wrapping_add(1 + i as u64);
        let program: Box<dyn Program> = match w {
            VmWorkload::Nas(b) => Box::new(NasSpec::new(*b, sc.class, 4).repeating().build(seed)),
            VmWorkload::Spec(k) => Box::new(SpecCpuRate::new(*k, 4, seed)),
        };
        let mut spec = VmSpec::new(format!("V{}", i + 1), 4, Timed::wrap(program, probe));
        if w.concurrent() {
            spec = spec.concurrent();
        }
        specs.push(spec);
    }
    machine_for(sc.sched, cfg, specs)
}

/// Build a cell's machine the way its figure does, with the workload
/// VM's program wrapped when `probe` is given.
fn build(cell: Cell, seed: u64, probe: Option<&Arc<Probe>>) -> Machine {
    let wrap = |p: Box<dyn Program>| match probe {
        Some(pr) => Timed::wrap(p, pr),
        None => p,
    };
    match cell.kind {
        Kind::Nas(b, w) => {
            let program = NasSpec::new(b, ProblemClass::S, 4).build(seed ^ 7);
            SingleVmScenario::new(cell.sched, w, seed).build(wrap(Box::new(program)))
        }
        Kind::Jbb(w, wh) => {
            // As `JbbScenario::run`: the JVM's larger safepoint spin budget.
            let mut sc = SingleVmScenario::new(cell.sched, w, seed);
            sc.costs = Some(GuestCosts {
                barrier_spin_budget: Clock::default().ms(3),
                ..GuestCosts::default()
            });
            let cfg = SpecJbbConfig {
                warehouses: wh,
                ..SpecJbbConfig::default()
            };
            sc.build(wrap(Box::new(SpecJbb::new(cfg, seed ^ 0x1BB))))
        }
        Kind::Multi(k) => {
            let sc = multi_scenario(cell.sched, k, seed);
            match probe {
                Some(pr) => build_multi_wrapped(&sc, pr),
                None => sc.build(),
            }
        }
    }
}

/// Run a built cell to its end; true when the workload finished before
/// its horizon. Each engine call is a span under `parent`.
fn run_cell(cell: Cell, m: &mut Machine, tr: &Tracer, parent: u32) -> bool {
    let clk = m.config().clock;
    match cell.kind {
        Kind::Nas(..) => tr.span("Machine::run_to_completion", parent, |_| {
            m.run_to_completion(clk.secs(HORIZON_SECS))
        }),
        Kind::Jbb(w, _) => {
            let j = JbbScenario::new(cell.sched, w, 0);
            let (warm, end) = (j.warmup_secs, j.warmup_secs + j.window_secs);
            tr.span("Machine::run_until", parent, |_| {
                m.run_until(clk.secs(warm))
            });
            tr.span("Machine::run_until", parent, |_| m.run_until(clk.secs(end)));
            m.now() >= clk.secs(end)
        }
        Kind::Multi(_) => {
            let vms = m.vm_count() - 1;
            tr.span("Machine::run_while", parent, |_| {
                m.run_while(clk.secs(HORIZON_SECS), |m| {
                    (1..=vms).any(|vm| m.vm_kernel(vm).stats().vm_rounds_completed() < MULTI_ROUNDS)
                })
            })
        }
    }
}

/// Whether the jbb cells' copy of `JbbScenario::run`'s set-up (spin
/// budget, program seed, warm-up and window) still measures what
/// Figure 10 does: for one cell per scheduler, the copy's throughput
/// over the window must equal `JbbScenario::run`'s, bit for bit.
pub fn jbb_copy_matches(seed: u64) -> bool {
    let (w, wh) = (JBB_WEIGHTS[2], 4);
    [Sched::Credit, Sched::Asman].into_iter().all(|sched| {
        let j = JbbScenario::new(sched, w, seed);
        let mut m = build(
            Cell {
                kind: Kind::Jbb(w, wh),
                sched,
            },
            seed,
            None,
        );
        let clk = m.config().clock;
        m.run_until(clk.secs(j.warmup_secs));
        let (tx0, t0) = (m.vm_kernel(1).stats().transactions, m.now());
        m.run_until(clk.secs(j.warmup_secs + j.window_secs));
        let tx1 = m.vm_kernel(1).stats().transactions;
        let bops = (tx1 - tx0) as f64 / clk.to_secs(m.now() - t0);
        bops.to_bits() == j.run(wh).bops.to_bits()
    })
}

struct CellOut {
    idx: usize,
    done: bool,
    digest: u64,
    events: u64,
    /// Wall time of the engine calls.
    run_ns: u64,
    /// Wall time of the whole cell on its worker.
    cell_ns: u64,
    counts: Counts,
    next_op_ns: u64,
}

struct PassOut {
    /// Peak heap of the pass above its start, set-up included.
    peak_heap: usize,
    map_s: f64,
    /// Empty when a cell panicked.
    cells: Vec<CellOut>,
}

fn build_all(
    list: &[Cell],
    ctx: &Ctx,
    p: usize,
    traced: bool,
) -> Vec<(usize, Machine, Option<Arc<Probe>>)> {
    list.iter()
        .enumerate()
        .map(|(i, &cell)| {
            let probe = traced.then(|| Arc::new(Probe::default()));
            let mut m = build(cell, ctx.seed(p + i).1, probe.as_ref());
            if traced {
                m.enable_flight(CatMask::ALL, FLIGHT_CAPACITY);
            }
            (i, m, probe)
        })
        .collect()
}

/// Pass `p`: cell `i` runs scenario seed `ctx.seed(p + i)`.
fn pass(ctx: &Ctx, list: &[Cell], p: usize, traced: bool) -> PassOut {
    let off = Tracer::new(false);
    let tr = if traced { &ctx.tracer } else { &off };
    tr.span("pass", ROOT, |pass_id| {
        let base = alloc::reset_peak();
        let items = tr.span("setup", pass_id, |_| build_all(list, ctx, p, traced));
        let runner = SweepRunner::new(ctx.jobs);
        let timer = &ctx.timer;
        let t1 = timer.now_ns();
        let cells = catch_unwind(AssertUnwindSafe(|| {
            tr.span("SweepRunner::map", pass_id, |map_id| {
                runner.map(items, |(idx, mut m, probe)| {
                    tr.span("cell", map_id, |cell_id| {
                        let t = timer.now_ns();
                        let (done, run_ns) =
                            timer.time(|| run_cell(list[idx], &mut m, tr, cell_id));
                        let mut counts = Counts::default();
                        let mut next_op_ns = 0;
                        if let Some(pr) = &probe {
                            counts.add_machine(&m);
                            counts.next_op_calls = pr.calls.load(Relaxed);
                            next_op_ns = pr.ns.load(Relaxed);
                        }
                        CellOut {
                            idx,
                            done,
                            digest: m.state_fingerprint(),
                            events: m.events_processed(),
                            run_ns,
                            cell_ns: timer.now_ns() - t,
                            counts,
                            next_op_ns,
                        }
                    })
                })
            })
        }))
        .unwrap_or_default();
        PassOut {
            peak_heap: alloc::peak_bytes().saturating_sub(base),
            map_s: (timer.now_ns() - t1) as f64 / 1e9,
            cells,
        }
    })
}

fn account(ctx: &Ctx, list: &[Cell], p: usize, out: &PassOut, tally: &mut Tally) {
    tally.attempted += list.len() as u64;
    if out.cells.len() != list.len() {
        tally.failed += list.len() as u64;
        return;
    }
    for c in &out.cells {
        let pinned = ctx.seed(p + c.idx).0;
        let key = format!("grid/{}/{pinned}", list[c.idx].label());
        if !(c.done && ctx.check(key, c.digest)) {
            tally.failed += 1;
        }
    }
    let op_ms: Vec<f64> = out.cells.iter().map(|c| c.run_ns as f64 / 1e6).collect();
    let events = out.cells.iter().map(|c| c.events).sum();
    // The work is the cells' runs: in the end-to-end run the map's wall
    // time also holds the speed gauge's bursts.
    let work_s = op_ms.iter().sum::<f64>() / 1e3;
    tally.pass(ctx.slot(p), &op_ms, events, work_s, out.peak_heap);
}

pub fn run(ctx: &Ctx) -> Outcome {
    let list = cells();
    let mut tally = Tally::default();
    let mut layer = Layer::default();
    let mut parity = true;
    let t0 = Instant::now();
    let mut p = 0;
    let mut last = 0.0;
    while p < ctx.min_passes || t0.elapsed().as_secs_f64() + last <= ctx.seconds {
        let tp = Instant::now();
        tally.setups(&ctx.timer, || drop(build_all(&list, ctx, p, false)));
        if !ctx.trace {
            let plain = pass(ctx, &list, p, false);
            account(ctx, &list, p, &plain, &mut tally);
        } else {
            // Alternate which twin runs first, so warm-up does not bias
            // the tracing overhead.
            let (plain, traced) = if p % 2 == 0 {
                (pass(ctx, &list, p, false), pass(ctx, &list, p, true))
            } else {
                let traced = pass(ctx, &list, p, true);
                (pass(ctx, &list, p, false), traced)
            };
            account(ctx, &list, p, &plain, &mut tally);
            account(ctx, &list, p, &traced, &mut tally);
            parity &= plain.cells.len() == traced.cells.len()
                && plain
                    .cells
                    .iter()
                    .zip(&traced.cells)
                    .all(|(a, b)| a.digest == b.digest);
            layer.add(&list, &plain, &traced);
        }
        p += 1;
        last = tp.elapsed().as_secs_f64();
    }
    Outcome {
        tally,
        layer: if ctx.trace {
            layer.metrics(ctx.jobs)
        } else {
            Vec::new()
        },
        parity,
    }
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layer {
    counts: Option<Counts>,
    group_ns: [f64; GROUPS.len()],
    group_n: [f64; GROUPS.len()],
    sched_ns: [f64; 2],
    sched_n: [f64; 2],
    run_ns: f64,
    cell_ns: f64,
    next_op_ns: f64,
    events: f64,
    map_s: f64,
    /// The same sums over the untraced twins of the traced passes.
    plain_run_ns: f64,
    plain_events: f64,
    plain_map_s: f64,
}

impl Layer {
    fn add(&mut self, list: &[Cell], plain: &PassOut, traced: &PassOut) {
        let mut counts = Counts::default();
        for c in &traced.cells {
            counts.add(&c.counts);
            let cell = list[c.idx];
            let g = cell.group();
            self.group_ns[g] += c.run_ns as f64;
            self.group_n[g] += 1.0;
            let s = usize::from(cell.sched == Sched::Asman);
            self.sched_ns[s] += c.run_ns as f64;
            self.sched_n[s] += 1.0;
            self.run_ns += c.run_ns as f64;
            self.cell_ns += c.cell_ns as f64;
            self.next_op_ns += c.next_op_ns as f64;
            self.events += c.events as f64;
        }
        self.counts.get_or_insert(counts);
        self.map_s += traced.map_s;
        for c in &plain.cells {
            self.plain_run_ns += c.run_ns as f64;
            self.plain_events += c.events as f64;
        }
        self.plain_map_s += plain.map_s;
    }

    fn metrics(&self, jobs: usize) -> Vec<(&'static str, f64)> {
        let mut v = self.counts.unwrap_or_default().metrics();
        let plain_ns_per_event = ratio(self.plain_run_ns, self.plain_events);
        let traced_ns_per_event = ratio(self.run_ns, self.events);
        let map_ns = self.map_s * 1e9;
        v.extend([
            ("sim.ns_per_event", plain_ns_per_event),
            (
                "workloads.next_op_share",
                100.0 * ratio(self.next_op_ns, self.run_ns),
            ),
            (
                "grid.credit_ms_per_cell",
                ratio(self.sched_ns[0], self.sched_n[0]) / 1e6,
            ),
            (
                "grid.asman_ms_per_cell",
                ratio(self.sched_ns[1], self.sched_n[1]) / 1e6,
            ),
            (
                "sim.sweep.parallel_efficiency",
                ratio(self.cell_ns, jobs as f64 * map_ns),
            ),
            (
                "grid.unattributed_share",
                100.0 * ratio(map_ns - self.cell_ns / jobs as f64, map_ns),
            ),
            (
                "sim.flight.overhead_pct",
                100.0 * (ratio(traced_ns_per_event, plain_ns_per_event) - 1.0),
            ),
            (
                "trace.overhead_pct",
                100.0 * (ratio(self.map_s, self.plain_map_s) - 1.0),
            ),
        ]);
        for (g, (_, name)) in GROUPS.iter().enumerate() {
            v.push((name, ratio(self.group_ns[g], self.group_n[g]) / 1e6));
        }
        v
    }
}
