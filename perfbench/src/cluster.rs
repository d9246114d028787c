//! The cluster workloads; one op is one `Cluster::run_epoch`.
//!
//! * `cluster-64` — `scenario::hotspot(64, seed)` under the vcrd-aware
//!   policy. Advancing the hosts is nearly all of an epoch's time, and
//!   hot and cold hosts are unequal; with `nproc` workers (the traced
//!   run) the slowest host sets each epoch's time. Gains in the host
//!   advance or the per-host engine show here.
//! * `soak-churn` — the `repro soak` cluster under `rand:<seed>:5`
//!   churn. The serial barrier is a large share of the time, VMs arrive
//!   and leave thousands of times, and a checkpoint is captured and
//!   encoded every `SOAK_CKPT_EVERY` epochs; each pass then resumes from
//!   its mid-horizon checkpoint and must end where the straight run did.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use asman_cluster::{
    scenario, Checkpoint, CheckpointConfig, ChurnSpec, Cluster, ClusterConfig, EpochProfile, Policy,
};
use asman_report::cluster::digest_report;
use asman_report::soak::{SoakParams, SOAK_SERIES_CAPACITY};

use crate::alloc;
use crate::bench::{ratio, Counts, Ctx, Mutate, Outcome, Tally};
use crate::clock::Timer;
use crate::stats;
use crate::trace::{Tracer, ROOT};

const C64_HOSTS: usize = 64;
const C64_EPOCH_MS: u64 = 60;
/// The CLI's default move budget at 64 hosts, `max(1, hosts / 8)`.
const C64_MOVES: usize = 8;
/// Epochs per pass: the hotspot rebalances in the first few, the rest
/// measure the settled cluster. Short enough that a run's passes visit
/// every pool seed.
const C64_EPOCHS: u64 = 200;

/// Scenario seeds `cluster-64` cycles through, one per pass.
pub const C64_CYCLE: usize = 4;

const SOAK_HOSTS: usize = 3;
const SOAK_GANGS: usize = 2;
const SOAK_EPOCH_MS: u64 = 5;
const SOAK_EPOCHS: u64 = 5_000;
const SOAK_AUDIT_EVERY: u64 = 1_000;
const SOAK_CKPT_EVERY: u64 = 500;
const SOAK_CHURN_PCT: u32 = 5;
/// Scenario seeds `soak-churn` cycles through, one per pass.
pub const SOAK_CYCLE: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Which {
    C64,
    Soak,
}

impl Which {
    /// Epochs of the 1-vs-`nproc` worker busy-time comparison.
    fn inflation_prefix(self) -> u64 {
        match self {
            Which::C64 => 6,
            Which::Soak => 2_000,
        }
    }
}

fn c64_cluster(ctx: &Ctx, seed: u64, jobs: usize) -> Cluster {
    let mut cfg = ClusterConfig {
        epoch_ms: C64_EPOCH_MS,
        epochs: C64_EPOCHS,
        policy: Policy::VcrdAware,
        jobs,
        max_moves: C64_MOVES,
        ..ClusterConfig::default()
    };
    if ctx.mutate == Mutate::DirtyUndercount {
        cfg.model.dirty_pages_per_mcycle /= 2;
    }
    Cluster::new(cfg, scenario::hotspot(C64_HOSTS, seed))
}

/// The rebuild recipe of the soak cluster, exactly as `repro soak`
/// resolves it.
fn soak_config(ctx: &Ctx, seed: u64) -> CheckpointConfig {
    let churn = ChurnSpec::parse(&format!("rand:{seed}:{SOAK_CHURN_PCT}"))
        .expect("the soak churn spec is well-formed")
        .resolve(SOAK_EPOCHS, SOAK_HOSTS);
    let params = SoakParams {
        hosts: SOAK_HOSTS,
        gangs: SOAK_GANGS,
        epochs: SOAK_EPOCHS,
        epoch_ms: SOAK_EPOCH_MS,
        seed,
        jobs: ctx.jobs,
        churn,
        audit_every: SOAK_AUDIT_EVERY,
        max_moves: 1,
        ..SoakParams::default()
    };
    let mut cfg = params.checkpoint_config(SOAK_EPOCHS);
    if ctx.mutate == Mutate::DirtyUndercount {
        cfg.model.dirty_pages_per_mcycle /= 2;
    }
    cfg
}

fn build(which: Which, ctx: &Ctx, seed: u64, jobs: usize) -> Cluster {
    match which {
        Which::C64 => c64_cluster(ctx, seed, jobs),
        Which::Soak => soak_config(ctx, seed).build_cluster(jobs),
    }
}

/// Checkpoint and resume timings of one soak pass, ns.
#[derive(Default)]
struct CkptTimes {
    capture: Vec<u64>,
    encode: Vec<u64>,
    bytes: u64,
    decode: u64,
    replay: u64,
    validate: u64,
    apply: u64,
    resume: u64,
}

#[derive(Default)]
struct ClusterPass {
    /// Times the pass's ops and layer calls.
    timer: Timer,
    /// Peak heap of the pass above its start, set-up and resume included.
    peak_heap: usize,
    op_ns: Vec<u64>,
    /// Time of the workload's own calls (epochs, checkpoint and
    /// resume), without the benchmark's checks.
    work_ns: u64,
    events: u64,
    attempted: u64,
    failed: u64,
    /// Every digest the pass checked, in order, for tracing parity.
    digests: Vec<u64>,
    prof: Vec<EpochProfile>,
    allocs: u64,
    counts: Counts,
    migrations: u64,
    aborts: u64,
    arrivals: u64,
    departures: u64,
    slots_peak: u64,
    ckpt: CkptTimes,
}

impl ClusterPass {
    /// One op. False when the epoch panicked (a failed audit); the
    /// cluster is then unusable.
    fn epoch(&mut self, c: &mut Cluster, tr: &Tracer, parent: u32) -> bool {
        let a0 = alloc::allocs();
        let (ok, ns) = self.timer.time(|| {
            tr.span("Cluster::run_epoch", parent, |_| {
                catch_unwind(AssertUnwindSafe(|| c.run_epoch())).is_ok()
            })
        });
        self.allocs += alloc::allocs() - a0;
        self.op_ns.push(ns);
        self.work_ns += ns;
        ok
    }

    /// Time `f` as workload work inside a span.
    fn work<R>(
        &mut self,
        tr: &Tracer,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let (out, ns) = self.timer.time(|| tr.span(name, parent, |_| f()));
        self.work_ns += ns;
        (out, ns)
    }

    /// Read the per-layer state of a finished cluster.
    fn collect(&mut self, c: &Cluster) {
        self.events += c.hosts().iter().map(|m| m.events_processed()).sum::<u64>();
        self.prof.extend_from_slice(c.profile());
    }

    fn collect_layers(&mut self, c: &Cluster) {
        for m in c.hosts() {
            self.counts.add_machine(m);
        }
        let (arrivals, departures, ..) = c.churn_counts();
        self.migrations = c.records().len() as u64;
        self.aborts = c.aborts().len() as u64;
        self.arrivals = arrivals;
        self.departures = departures;
        self.slots_peak = self.slots_peak.max(c.occupancy().slots as u64);
    }
}

/// Run the cluster's invariant auditor; false when an invariant broke.
fn audit(c: &Cluster) -> bool {
    catch_unwind(AssertUnwindSafe(|| c.audit_check())).is_ok()
}

fn c64_pass(ctx: &Ctx, tr: &Tracer, p: usize) -> ClusterPass {
    let (pinned, input) = ctx.seed(p);
    tr.span("pass", ROOT, |pid| {
        let mut out = ClusterPass {
            timer: ctx.timer.clone(),
            ..ClusterPass::default()
        };
        let mut c = tr.span("setup", pid, |_| c64_cluster(ctx, input, ctx.jobs));
        if tr.on() {
            c.enable_profiling();
        }
        out.attempted = C64_EPOCHS;
        for e in 1..=C64_EPOCHS {
            if !out.epoch(&mut c, tr, pid) {
                out.failed = out.attempted;
                return out;
            }
            let d = c.state_digest();
            out.digests.push(d);
            if !ctx.check(format!("c64/{pinned}/{e}"), d) {
                out.failed += 1;
            }
        }
        out.collect(&c);
        if tr.on() {
            out.collect_layers(&c);
        }
        out
    })
}

/// Occupancy invariants of `soak::run`, checked without panicking.
fn occupancy_ok(c: &Cluster, initial: u64) -> bool {
    let occ = c.occupancy();
    occ.registry as u64 == initial + c.churn_counts().0
        && occ.slots == occ.resident + occ.tombstones
        && occ.pending_retries <= 1
        && occ.series_len <= SOAK_SERIES_CAPACITY
}

fn soak_pass(ctx: &Ctx, tr: &Tracer, p: usize) -> ClusterPass {
    let (pinned, input) = ctx.seed(p);
    tr.span("pass", ROOT, |pid| {
        let mut out = ClusterPass {
            timer: ctx.timer.clone(),
            ..ClusterPass::default()
        };
        let cfg = soak_config(ctx, input);
        let mut c = tr.span("setup", pid, |_| cfg.build_cluster(ctx.jobs));
        if tr.on() {
            c.enable_profiling();
        }
        // Straight run, then the resumed one: 2 × SOAK_EPOCHS ops. A
        // failed boundary check fails the epochs since the previous one;
        // a failed final audit or report digest fails the whole straight
        // run; a failed resume fails every resumed epoch.
        out.attempted = 2 * SOAK_EPOCHS;
        let initial = c.vm_count() as u64;
        let mut mid = None;
        let mut straight_failed = 0;
        for e in 1..=SOAK_EPOCHS {
            if !out.epoch(&mut c, tr, pid) {
                out.failed = out.attempted;
                return out;
            }
            if e % SOAK_CKPT_EVERY == 0 {
                let (ck, capture) = out.work(tr, "Checkpoint::capture", pid, || {
                    Checkpoint::capture(&c, cfg.clone())
                });
                let (bytes, encode) = out.work(tr, "Checkpoint::to_value", pid, || {
                    serde_json::to_vec_pretty(&ck.to_value()).expect("a checkpoint serializes")
                });
                out.ckpt.capture.push(capture);
                out.ckpt.encode.push(encode);
                out.digests.push(ck.digest);
                let ok = ctx.check(format!("soak/{pinned}/{e}"), ck.digest)
                    && (e % SOAK_AUDIT_EVERY != 0 || occupancy_ok(&c, initial));
                if !ok {
                    straight_failed += SOAK_CKPT_EVERY;
                }
                if e == SOAK_EPOCHS / 2 {
                    out.ckpt.bytes = bytes.len() as u64;
                    mid = Some(bytes);
                }
            }
            if tr.on() && e % SOAK_AUDIT_EVERY == 0 {
                out.slots_peak = out.slots_peak.max(c.occupancy().slots as u64);
            }
        }
        let (audited, _) = out.work(tr, "Cluster::audit_check", pid, || audit(&c));
        let digest = u64::from_str_radix(&digest_report(&c.report()), 16).expect("hex digest");
        out.digests.push(digest);
        if !(audited && ctx.check(format!("soak/{pinned}/report"), digest)) {
            straight_failed = SOAK_EPOCHS;
        }
        out.collect(&c);
        if tr.on() {
            out.collect_layers(&c);
        }
        drop(c);
        let resumed = resume(&mut out, ctx, tr, pid, mid.as_deref(), digest);
        out.failed = straight_failed + if resumed { 0 } else { SOAK_EPOCHS };
        out
    })
}

/// Resume from the mid-horizon checkpoint: decode, rebuild, replay,
/// validate, apply, finish. True when every step succeeded and the run
/// ended on the straight run's report digest.
fn resume(
    out: &mut ClusterPass,
    ctx: &Ctx,
    tr: &Tracer,
    parent: u32,
    bytes: Option<&[u8]>,
    want: u64,
) -> bool {
    let Some(bytes) = bytes else {
        return false;
    };
    tr.span("resume", parent, |rid| {
        let t0 = out.timer.now_ns();
        let (ck, decode) = out.work(tr, "Checkpoint::from_value", rid, || {
            std::str::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
                .and_then(|v| Checkpoint::from_value(&v))
        });
        out.ckpt.decode = decode;
        let Ok(ck) = ck else {
            return false;
        };
        let (mut c, _) = out.work(tr, "CheckpointConfig::build_cluster", rid, || {
            ck.config.build_cluster(ctx.jobs)
        });
        if tr.on() {
            c.enable_profiling();
        }
        let epochs = ck.config.epochs;
        let t_replay = out.timer.now_ns();
        for _ in 0..ck.state.epoch {
            if !out.epoch(&mut c, tr, rid) {
                return false;
            }
        }
        out.ckpt.replay = out.timer.now_ns() - t_replay;
        let (errs, validate) = out.work(tr, "Checkpoint::validate", rid, || ck.validate(&c));
        let ((), apply) = out.work(tr, "Checkpoint::apply", rid, || ck.apply(&mut c));
        out.ckpt.validate = validate;
        out.ckpt.apply = apply;
        for _ in ck.state.epoch..epochs {
            if !out.epoch(&mut c, tr, rid) {
                return false;
            }
        }
        let (audited, _) = out.work(tr, "Cluster::audit_check", rid, || audit(&c));
        out.ckpt.resume = out.timer.now_ns() - t0;
        let digest = u64::from_str_radix(&digest_report(&c.report()), 16).expect("hex digest");
        out.digests.push(digest);
        out.collect(&c);
        errs.is_empty() && audited && digest == want
    })
}

/// Summed worker busy time over the first `n` epochs with `jobs` workers.
fn busy_ns(which: Which, ctx: &Ctx, seed: u64, jobs: usize, n: u64) -> f64 {
    let mut c = build(which, ctx, seed, jobs);
    c.enable_profiling();
    for _ in 0..n {
        c.run_epoch();
    }
    c.profile().iter().map(|p| p.worker_busy_ns as f64).sum()
}

/// Per-layer sums over the traced passes.
#[derive(Default)]
struct Layer {
    first: Option<ClusterPass>,
    epochs: f64,
    op_ns: f64,
    plain_op_ns: f64,
    events: f64,
    parallel_ns: f64,
    busy_ns: f64,
    stall_ns: f64,
    serial_ns: f64,
    allocs: f64,
    capture: Vec<f64>,
    encode: Vec<f64>,
    decode: Vec<f64>,
    replay: Vec<f64>,
    validate: Vec<f64>,
    apply: Vec<f64>,
    resume: Vec<f64>,
}

impl Layer {
    fn add(&mut self, plain: &ClusterPass, traced: ClusterPass) {
        self.epochs += traced.op_ns.len() as f64;
        self.op_ns += traced.op_ns.iter().sum::<u64>() as f64;
        self.plain_op_ns += plain.op_ns.iter().sum::<u64>() as f64;
        self.events += traced.events as f64;
        for p in &traced.prof {
            self.parallel_ns += p.parallel_wall_ns as f64;
            self.busy_ns += p.worker_busy_ns as f64;
            self.stall_ns += p.barrier_stall_ns as f64;
            self.serial_ns += p.serial_wall_ns as f64;
        }
        self.allocs += traced.allocs as f64;
        let ck = &traced.ckpt;
        self.capture.extend(ck.capture.iter().map(|&n| n as f64));
        self.encode.extend(ck.encode.iter().map(|&n| n as f64));
        if ck.resume > 0 {
            self.decode.push(ck.decode as f64);
            self.replay.push(ck.replay as f64);
            self.validate.push(ck.validate as f64);
            self.apply.push(ck.apply as f64);
            self.resume.push(ck.resume as f64);
        }
        if self.first.is_none() {
            self.first = Some(traced);
        }
    }

    fn metrics(&self, jobs: usize, inflation: f64) -> Vec<(&'static str, f64)> {
        let first = self.first.as_ref().expect("at least one traced pass");
        let mut v = first.counts.metrics();
        let ms = |xs: &[f64]| stats::median(xs) / 1e6;
        v.extend([
            ("sim.ns_per_event", ratio(self.busy_ns, self.events)),
            (
                "cluster.parallel_ms",
                ratio(self.parallel_ns, self.epochs) / 1e6,
            ),
            (
                "cluster.worker_busy_ms",
                ratio(self.busy_ns, self.epochs) / 1e6,
            ),
            (
                "cluster.barrier_stall_share",
                100.0 * ratio(self.stall_ns, jobs as f64 * self.parallel_ns),
            ),
            (
                "cluster.serial_ms",
                ratio(self.serial_ns, self.epochs) / 1e6,
            ),
            (
                "cluster.serial_share",
                100.0 * ratio(self.serial_ns, self.op_ns),
            ),
            (
                "cluster.unattributed_share",
                100.0 * ratio(self.op_ns - self.parallel_ns - self.serial_ns, self.op_ns),
            ),
            ("cluster.busy_inflation", inflation),
            ("cluster.migrations", first.migrations as f64),
            ("cluster.aborts", first.aborts as f64),
            ("churn.arrivals", first.arrivals as f64),
            ("churn.departures", first.departures as f64),
            ("cluster.slots_peak", first.slots_peak as f64),
            ("heap.allocs_per_epoch", ratio(self.allocs, self.epochs)),
            ("checkpoint.capture_ms", ms(&self.capture)),
            ("checkpoint.encode_ms", ms(&self.encode)),
            ("checkpoint.bytes", first.ckpt.bytes as f64),
            ("checkpoint.decode_ms", ms(&self.decode)),
            ("checkpoint.replay_s", stats::median(&self.replay) / 1e9),
            ("checkpoint.validate_ms", ms(&self.validate)),
            ("checkpoint.apply_ms", ms(&self.apply)),
            ("checkpoint.resume_s", stats::median(&self.resume) / 1e9),
            (
                "trace.overhead_pct",
                100.0 * (ratio(self.op_ns, self.plain_op_ns) - 1.0),
            ),
        ]);
        v
    }
}

fn account(slot: usize, out: &ClusterPass, tally: &mut Tally) {
    let op_ms: Vec<f64> = out.op_ns.iter().map(|&n| n as f64 / 1e6).collect();
    tally.pass(
        slot,
        &op_ms,
        out.events,
        out.work_ns as f64 / 1e9,
        out.peak_heap,
    );
    tally.attempted += out.attempted;
    tally.failed += out.failed;
}

fn run(which: Which, ctx: &Ctx) -> Outcome {
    let pass = |tr: &Tracer, p: usize| {
        let base = alloc::reset_peak();
        let mut out = match which {
            Which::C64 => c64_pass(ctx, tr, p),
            Which::Soak => soak_pass(ctx, tr, p),
        };
        out.peak_heap = alloc::peak_bytes().saturating_sub(base);
        out
    };
    let off = Tracer::new(false);
    let mut tally = Tally::default();
    let mut layer = Layer::default();
    let mut parity = true;
    let t0 = Instant::now();
    let mut p = 0;
    let mut last = 0.0;
    while p < ctx.min_passes || t0.elapsed().as_secs_f64() + last <= ctx.seconds {
        let tp = Instant::now();
        tally.setups(&ctx.timer, || {
            drop(build(which, ctx, ctx.seed(p).1, ctx.jobs))
        });
        if !ctx.trace {
            account(ctx.slot(p), &pass(&off, p), &mut tally);
        } else {
            // Alternate which twin runs first, so warm-up does not bias
            // the tracing overhead.
            let (plain, traced) = if p % 2 == 0 {
                (pass(&off, p), pass(&ctx.tracer, p))
            } else {
                let traced = pass(&ctx.tracer, p);
                (pass(&off, p), traced)
            };
            account(ctx.slot(p), &plain, &mut tally);
            account(ctx.slot(p), &traced, &mut tally);
            parity &= plain.digests == traced.digests;
            layer.add(&plain, traced);
        }
        p += 1;
        last = tp.elapsed().as_secs_f64();
    }
    let layer = if ctx.trace {
        let (n, seed) = (which.inflation_prefix(), ctx.seed(0).1);
        let busy = |jobs| {
            catch_unwind(AssertUnwindSafe(|| busy_ns(which, ctx, seed, jobs, n))).unwrap_or(0.0)
        };
        let (one, many) = (busy(1), busy(ctx.jobs));
        layer.metrics(ctx.jobs, ratio(many, one))
    } else {
        Vec::new()
    };
    Outcome {
        tally,
        layer,
        parity,
    }
}

pub fn run_c64(ctx: &Ctx) -> Outcome {
    run(Which::C64, ctx)
}

pub fn run_soak(ctx: &Ctx) -> Outcome {
    run(Which::Soak, ctx)
}
