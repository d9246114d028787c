//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <paper-grid|cluster-64|soak-churn> --seed N --seconds S --trace <0|1>
//! perfbench --pin        # rewrite pins.txt from the current simulator
//! perfbench --self-test  # show that a wrong seed or a mutation fails ops
//! ```
//!
//! Each workload is a closed loop of whole passes for `--seconds`, on one
//! worker thread (`--trace 0`) or on `nproc` (`--trace 1`). Every op's
//! simulated result is checked against the digest pinned in `pins.txt`;
//! only host time is measured.
//! The last stdout line is the result object; the lines before it give
//! the run's provenance and a readable summary, and the same is written
//! under `.bench_out/` in the checkout.

mod alloc;
mod bench;
mod calib;
mod clock;
mod cluster;
mod grid;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{nproc, Ctx, Mutate, Outcome, POOL};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 3] = ["paper-grid", "cluster-64", "soak-churn"];

/// Pool entries each workload cycles through (see [`Ctx::cycle`]). A run
/// visits each at least once and, at the benchmark's `--seconds`, two or
/// more times, so each op has a median time: a `paper-grid` pass visits
/// every entry across its cells and takes seconds; the cluster passes
/// take one seed each and about a second (`soak-churn`) or three.
fn cycle(workload: &str) -> usize {
    match workload {
        "paper-grid" => grid::CYCLE,
        "cluster-64" => cluster::C64_CYCLE,
        _ => cluster::SOAK_CYCLE,
    }
}

/// End-to-end metrics and units, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("engine_events_per_s", "1/s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order. A workload
/// whose layers do not do the work behind a metric reports 0 for it.
const PER_LAYER: [(&str, &str); 54] = [
    ("sim.events", "count"),
    ("workloads.next_op_calls", "count"),
    ("hypervisor.dispatches", "count"),
    ("core.cosched_bursts", "count"),
    ("core.vcrd_raises", "count"),
    ("guest.lock_acquisitions", "count"),
    ("guest.holder_preemptions", "count"),
    ("guest.spin_cycles", "cycles"),
    ("sim.flight.events.sched", "count"),
    ("sim.flight.events.credit", "count"),
    ("sim.flight.events.cosched", "count"),
    ("sim.flight.events.lock", "count"),
    ("sim.flight.events.futex", "count"),
    ("sim.flight.events.barrier", "count"),
    ("sim.flight.events.fault", "count"),
    ("sim.ns_per_event", "ns"),
    ("workloads.next_op_share", "%"),
    ("grid.cell_ms.BT", "ms"),
    ("grid.cell_ms.CG", "ms"),
    ("grid.cell_ms.EP", "ms"),
    ("grid.cell_ms.FT", "ms"),
    ("grid.cell_ms.MG", "ms"),
    ("grid.cell_ms.SP", "ms"),
    ("grid.cell_ms.LU", "ms"),
    ("grid.cell_ms.jbb", "ms"),
    ("grid.cell_ms.multivm", "ms"),
    ("grid.credit_ms_per_cell", "ms"),
    ("grid.asman_ms_per_cell", "ms"),
    ("sim.sweep.parallel_efficiency", "ratio"),
    ("grid.unattributed_share", "%"),
    ("sim.flight.overhead_pct", "%"),
    ("cluster.parallel_ms", "ms"),
    ("cluster.worker_busy_ms", "ms"),
    ("cluster.barrier_stall_share", "%"),
    ("cluster.serial_ms", "ms"),
    ("cluster.serial_share", "%"),
    ("cluster.unattributed_share", "%"),
    ("cluster.busy_inflation", "ratio"),
    ("cluster.migrations", "count"),
    ("cluster.aborts", "count"),
    ("churn.arrivals", "count"),
    ("churn.departures", "count"),
    ("cluster.slots_peak", "count"),
    ("heap.allocs_per_epoch", "count"),
    ("checkpoint.capture_ms", "ms"),
    ("checkpoint.encode_ms", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.decode_ms", "ms"),
    ("checkpoint.replay_s", "s"),
    ("checkpoint.validate_ms", "ms"),
    ("checkpoint.apply_ms", "ms"),
    ("checkpoint.resume_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Pin,
    SelfTest,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>\n       \
         perfbench --pin | --self-test",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--pin" => return Ok(Mode::Pin),
            "--self-test" => return Ok(Mode::SelfTest),
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload `{w}`"));
                }
                workload = Some(w.clone());
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds wants a number")?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// The checkout root: the parent of this package's directory.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the checkout")
        .to_path_buf()
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "paper-grid" => grid::run(ctx),
        "cluster-64" => cluster::run_c64(ctx),
        _ => cluster::run_soak(ctx),
    }
}

/// Git revision of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".to_string()
        } else {
            head.to_string()
        };
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|rev| rev.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("a string serializes")
}

fn provenance(a: &Args, argv: &[String]) -> String {
    let argv: Vec<String> = argv.iter().map(|s| json_str(s)).collect();
    format!(
        "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"profile\":{},\"features\":[],\
         \"git_rev\":{},\"argv\":[{}],\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_rev(&root())),
        argv.join(","),
        json_str(&a.workload),
        a.seed,
        a.seconds,
        u8::from(a.trace),
    )
}

/// Finite JSON number (`0` for NaN or infinities).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn result_line(a: &Args, out: &Outcome, spans: usize) -> String {
    let t = &out.tally;
    // Every listed metric, in list order; one a workload does not
    // measure reads 0.
    let pick = |list: &[(&'static str, &'static str)], values: &[(&str, f64)]| {
        list.iter()
            .map(|&(name, unit)| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |&(_, v)| v);
                (name, v, unit)
            })
            .collect::<Vec<_>>()
    };
    let metrics = if a.trace {
        let mut layer = out.layer.clone();
        layer.push(("trace.spans", spans as f64));
        pick(&PER_LAYER, &layer)
    } else {
        pick(&END_TO_END, &t.metrics())
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let correct = t.failed == 0 && out.parity && t.attempted > 0;
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted.max(1),
        t.failed,
        body.join(",")
    )
}

fn summary(a: &Args, out: &Outcome, ctx: &Ctx) -> String {
    let t = &out.tally;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{} seed {} trace {}: {} ops attempted, {} failed, {} set-ups, {} op samples, parity {}",
        a.workload,
        a.seed,
        u8::from(a.trace),
        t.attempted,
        t.failed,
        t.setup_s.len(),
        t.op_ms.len(),
        if out.parity { "ok" } else { "BROKEN" }
    );
    let q: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
        .iter()
        .map(|&q| format!("{:.3}", stats::quantile(&t.op_ms, q)))
        .collect();
    let by_pass = |xs: &[f64], scale: f64| {
        xs.iter()
            .map(|x| format!("{:.3}", x * scale))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(s, "op ms p10/p25/p50/p75/p90/p99: {}", q.join(" / "));
    let gauge = ctx.timer.gauge_history();
    if !gauge.is_empty() {
        let q: Vec<String> = [0.1, 0.5, 0.9]
            .iter()
            .map(|&q| format!("{:.2}", stats::quantile(&gauge, q)))
            .collect();
        let _ = writeln!(
            s,
            "speed gauge: {} bursts, kernel ns/event p10/p50/p90 {} (reference {})",
            gauge.len(),
            q.join(" / "),
            calib::REFERENCE_NS_PER_EVENT
        );
    }

    let _ = writeln!(s, "by pass, ops/s: {}", by_pass(&t.op_rates, 1.0));
    let _ = writeln!(
        s,
        "by pass, peak heap MiB: {}",
        by_pass(&t.peak_heap, 1.0 / 1048576.0)
    );
    if ctx.tracer.on() {
        let _ = writeln!(s, "span self time (name: count, total ms, self ms):");
        for (name, tot) in trace::totals(&ctx.tracer.spans()) {
            let _ = writeln!(
                s,
                "  {name}: {}, {:.3}, {:.3}",
                tot.count,
                tot.total_ns as f64 / 1e6,
                tot.self_ns as f64 / 1e6
            );
        }
    }
    s
}

/// Write the run's record and, for a traced run, its spans under
/// `.bench_out/`. Failing to write is reported, not fatal: the result
/// line on stdout is the run's output.
fn write_out(a: &Args, prov: &str, result: &str, ctx: &Ctx) {
    let dir = root().join(".bench_out");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let name = format!(
            "{}-seed{}-trace{}.json",
            a.workload,
            a.seed,
            u8::from(a.trace)
        );
        std::fs::write(
            dir.join(name),
            format!("{{\"provenance\":{prov},\"result\":{result}}}\n"),
        )?;
        if ctx.tracer.on() {
            let spans = trace::to_jsonl(&ctx.tracer.spans());
            std::fs::write(dir.join(format!("spans-{}.jsonl", a.workload)), spans)?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("perfbench: cannot write {}: {e}", dir.display());
    }
}

fn run(a: &Args, argv: &[String]) -> ExitCode {
    let ctx = Ctx::new(a.seed, a.seconds, a.trace, Mutate::None, cycle(&a.workload));
    let out = run_workload(&a.workload, &ctx);
    let prov = provenance(a, argv);
    let spans = if ctx.tracer.on() {
        ctx.tracer.spans().len()
    } else {
        0
    };
    let result = result_line(a, &out, spans);
    write_out(a, &prov, &result, &ctx);
    print!("{{\"provenance\":{prov}}}\n{}", summary(a, &out, &ctx));
    println!("{result}");
    ExitCode::SUCCESS
}

/// Regenerate `pins.txt`: the digests of passes `0..POOL.len()` of every
/// workload, which between them cover every pool seed of every op.
fn pin() -> ExitCode {
    let ctx = Ctx::pinning();
    let mut body = String::from(
        "# Pinned simulated results: `<workload>/<op>/<scenario seed>[/<epoch>] <digest>`.\n\
         # Regenerate with `bash perfbench/run.sh --pin` only when a change is meant to\n\
         # alter simulated results.\n",
    );
    for w in WORKLOADS {
        eprintln!("pinning {w}");
        drop(run_workload(w, &ctx));
    }
    body.push_str(&ctx.recorded_pins());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("pins.txt");
    match std::fs::write(&path, body) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Show the correctness check is not vacuous: unmutated runs fail no op,
/// a changed seed fails ops on every workload, and the dirty-page
/// mutation fails ops on both cluster workloads. Also check the jbb
/// cells' copy of Figure 10's set-up against the original.
fn self_test() -> ExitCode {
    let cases = [
        ("paper-grid", Mutate::None, false),
        ("paper-grid", Mutate::Seed, true),
        ("cluster-64", Mutate::None, false),
        ("cluster-64", Mutate::Seed, true),
        ("cluster-64", Mutate::DirtyUndercount, true),
        ("soak-churn", Mutate::None, false),
        ("soak-churn", Mutate::Seed, true),
        ("soak-churn", Mutate::DirtyUndercount, true),
    ];
    let mut ok = true;
    for (w, mutate, should_fail) in cases {
        let ctx = Ctx::new(1, 0.0, false, mutate, cycle(w));
        let t = run_workload(w, &ctx).tally;
        let ratio = t.failed as f64 / t.attempted.max(1) as f64;
        let pass = (ratio > 0.0) == should_fail;
        ok &= pass;
        println!(
            "{w} mutate={mutate:?}: failed_op_ratio {ratio:.4} ({} of {}) -> {}",
            t.failed,
            t.attempted,
            if pass { "as expected" } else { "WRONG" }
        );
    }
    let jbb = grid::jbb_copy_matches(POOL[0]);
    ok &= jbb;
    println!(
        "paper-grid jbb cells vs JbbScenario::run: {}",
        if jbb { "same throughput" } else { "WRONG" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    asman_report::logger::set_quiet(true);
    match parse(&argv) {
        Ok(Mode::Run(a)) => run(&a, &argv),
        Ok(Mode::Pin) => pin(),
        Ok(Mode::SelfTest) => self_test(),
        Err(msg) => usage(&msg),
    }
}
