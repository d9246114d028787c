//! Regenerate the paper's figures.
//!
//! ```text
//! repro [fig1|fig2|fig7|fig8|fig9|fig10|fig11|fig12|all|timeline|extensions|perf|trace|audit]
//!       [--class s|w|a] [--seed N] [--rounds N] [--jobs N] [--json DIR]
//!       [--trace DIR] [--trace-cats LIST] [--cells N] [-q]
//! ```
//!
//! `timeline` renders an ASCII Gantt chart of the guest VM's VCPU duty
//! cycles at a 22.2% online rate, under Credit and under ASMan — the
//! visual core of the paper in two panels.
//!
//! `perf` benchmarks the simulation engine itself (events/sec with the
//! flight recorder disabled, gated — armed but recording nothing — and
//! fully capturing) and writes `BENCH_engine.json`.
//!
//! `audit` runs the differential oracle harness: `--cells N` randomized
//! scenario cells (default 200), each executed on both the optimized
//! engine and the naive oracle, comparing digests and full flight-event
//! streams; exits non-zero on any divergence. Build with
//! `--features audit` to also run the in-engine invariant auditor.
//!
//! `trace` flight-records the Figure 1 testbed (LU at the 22.2% online
//! rate) under Credit and ASMan, and writes Perfetto-loadable Chrome
//! trace JSON, LHP episode summaries and a metrics dump into the
//! `--trace` directory. Passing `--trace DIR` alongside figure targets
//! appends the trace bundle to the run.
//!
//! `series` re-runs the consolidation cluster with the telemetry layer
//! armed and renders the epoch × metric sparkline timeline, the
//! trailing-window Nσ anomaly pass, per-host scheduler-latency
//! quantiles and the reaction-latency summary; `--json DIR` writes
//! `CLUSTER_series_<policy>.json` per policy.
//!
//! Prints each figure's table and shape checks; `--json DIR` additionally
//! writes the raw series as JSON artifacts.

use std::fs;
use std::path::PathBuf;

use asman_cluster::{ChurnSpec, Policy};
use asman_report::bisect::Mutation;
use asman_report::figures::{
    fig01, fig02, fig07, fig08, fig09, fig10, fig11, fig12, FigureParams, ShapeCheck,
};
use asman_report::{flightrec, logger, progress};
use asman_sim::{CatMask, FaultPlan, FaultSpec};
use asman_workloads::ProblemClass;

struct Args {
    which: Vec<String>,
    params: FigureParams,
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    trace_cats: CatMask,
    audit_cells: usize,
    hosts: usize,
    cluster_vms: usize,
    cluster_epochs: u64,
    cluster_policy: Option<Policy>,
    cluster_faults: FaultPlan,
    cluster_churn: ChurnSpec,
    cluster_epochs_set: bool,
    audit_every: u64,
    cluster_bench: bool,
    bench_hosts: Vec<usize>,
    bench_jobs: Vec<usize>,
    series_window: usize,
    series_nsigma: f64,
    max_moves: Option<usize>,
    checkpoint_every: u64,
    resume: Option<PathBuf>,
    scenario_flags_set: Vec<&'static str>,
    b_policy: Option<Policy>,
    b_seed: Option<u64>,
    b_faults: Option<FaultSpec>,
    b_churn: Option<ChurnSpec>,
    b_mutate: Option<Mutation>,
}

impl Args {
    /// The resolved per-epoch move budget: explicit `--max-moves`, or
    /// the scale default `max(1, hosts/8)` — 1 for every pinned
    /// scenario (hosts <= 8), so defaults keep golden digests intact.
    fn resolved_max_moves(&self) -> usize {
        self.max_moves.unwrap_or_else(|| (self.hosts / 8).max(1))
    }
}

const KNOWN_TARGETS: [&str; 17] = [
    "fig1",
    "fig2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "timeline",
    "extensions",
    "perf",
    "trace",
    "audit",
    "cluster",
    "series",
    "soak",
    "bisect",
];

fn usage() -> String {
    format!(
        "usage: repro [TARGET ...] [OPTIONS]\n\n\
         Targets (default: all figures):\n  \
         {}\n  \
         all         every figN target\n\n\
         Options:\n  \
         --class s|w|a   NAS problem class (default w)\n  \
         --seed N        base RNG seed (default 42)\n  \
         --rounds N      measured rounds for round-based figures (default 5)\n  \
         --jobs N        sweep worker threads; 0 = one per core (default 0).\n                  \
         Results are bit-identical for every value.\n  \
         --json DIR      also write raw series as JSON artifacts into DIR\n  \
         --trace DIR     write the flight-recorder bundle (Chrome trace,\n                  \
         LHP episodes, metrics) into DIR; implies the `trace` target\n  \
         --trace-cats L  comma-separated categories to record\n                  \
         (sched,credit,cosched,lock,futex,barrier; default all)\n  \
         --cells N       audit grid size for the `audit` target (default 200)\n  \
         --hosts N       cluster target: simulated hosts (default 3)\n  \
         --vms N         cluster target: gang VMs consolidated on host 0 (default 2)\n  \
         --epochs N      cluster target: balancer epochs (default 8)\n  \
         --policy P      cluster target: compare only static vs P\n                  \
         (static|least-loaded|vcrd-aware; default: all three)\n  \
         --faults PLAN   cluster target: inject faults. PLAN is either a\n                  \
         comma list of crash@E:hH | slow@E:hH:P | abort@E tokens,\n                  \
         or rand:SEED for a generated plan\n  \
         --churn PLAN    soak target: VM arrival/departure schedule. PLAN is\n                  \
         a comma list of arrive@E:gangN[:wW] | arrive@E:bgN[:wW] |\n                  \
         depart@E:hH:vV tokens, or rand:SEED:RATE for a generated\n                  \
         plan (RATE%% arrival + RATE%% departure chance per epoch)\n  \
         --audit-every N soak target: audit + occupancy-checkpoint cadence\n                  \
         in epochs (default 1000; the end-of-run audit always runs)\n  \
         --max-moves N   cluster-family targets: concurrent migrations the\n                  \
         balancer may plan per epoch (default: hosts/8, floored at 1;\n                  \
         1 reproduces the historical single-move driver bit-for-bit)\n  \
         --checkpoint-every N\n                  \
         soak target: write a CKPT_<epoch>.json checkpoint into the\n                  \
         --json directory every N epochs (requires --json DIR)\n  \
         --resume CKPT   soak target: resume from a checkpoint file, or from\n                  \
         a directory (picks the newest CKPT_<epoch>.json by\n                  \
         numeric epoch). The run\n                  \
         replays to the checkpoint epoch, verifies the replay against\n                  \
         the artifact, applies its state, and continues — output is\n                  \
         byte-identical to the uninterrupted run. The scenario comes\n                  \
         from the checkpoint: --hosts/--vms/--seed/--churn/--faults\n                  \
         conflict with --resume (--epochs/--jobs/--json still apply)\n  \
         --b-policy P    bisect target: side B's policy (default: side A's)\n  \
         --b-seed N      bisect target: side B's seed (default: side A's)\n  \
         --b-faults PLAN bisect target: side B's fault plan\n  \
         --b-churn PLAN  bisect target: side B's churn plan\n  \
         --b-mutate M    bisect target: inject a behavioral mutation into\n                  \
         side B: dirty-undercount (halved dirty-page rate) or\n                  \
         boost-skip (host 0 skips BOOST; needs --features audit)\n  \
         --bench         cluster target: run the hosts x jobs performance\n                  \
         grid instead of the consolidation experiment and write\n                  \
         BENCH_cluster.json (warmup + median-of-3 per cell)\n  \
         --bench-hosts L comma list of host counts for --bench (default 2,4,8)\n  \
         --bench-jobs L  comma list of worker counts for --bench\n                  \
         (default 1,2,4,8; 0 = one per core)\n  \
         --window N      series target: trailing-window length in epochs\n                  \
         for the anomaly pass (default 4)\n  \
         --nsigma X      series target: flag samples more than X sigma\n                  \
         above the trailing mean (default 3.0)\n  \
         -q, --quiet     suppress progress lines on stderr\n  \
         -h, --help      show this help",
        KNOWN_TARGETS.join(" "),
    )
}

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut which = Vec::new();
    let mut params = FigureParams::default();
    let mut json_dir = None;
    let mut trace_dir = None;
    let mut trace_cats = CatMask::ALL;
    let mut audit_cells = 200usize;
    let mut hosts = 3usize;
    let mut cluster_vms = 2usize;
    let mut cluster_epochs = 8u64;
    let mut cluster_policy = None;
    let mut cluster_faults: Option<FaultSpec> = None;
    let mut cluster_churn: Option<ChurnSpec> = None;
    let mut cluster_epochs_set = false;
    let mut audit_every = 1_000u64;
    let mut cluster_bench = false;
    let mut bench_hosts = vec![2usize, 4, 8];
    let mut bench_jobs = vec![1usize, 2, 4, 8];
    let mut series_window = asman_report::series::DEFAULT_WINDOW;
    let mut series_nsigma = asman_report::series::DEFAULT_NSIGMA;
    let mut max_moves: Option<usize> = None;
    let mut checkpoint_every = 0u64;
    let mut resume = None;
    let mut scenario_flags_set: Vec<&'static str> = Vec::new();
    let mut b_policy = None;
    let mut b_seed = None;
    let mut b_faults: Option<FaultSpec> = None;
    let mut b_churn: Option<ChurnSpec> = None;
    let mut b_mutate = None;
    // Comma-separated numeric list for the bench grid flags; any
    // non-numeric element exits 2 like every other malformed value.
    fn parse_list(flag: &str, v: &str) -> Vec<usize> {
        let vals: Vec<usize> = v
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("{flag} `{tok}` is not a number")))
            })
            .collect();
        if vals.is_empty() {
            fail(&format!("{flag} needs at least one value"));
        }
        vals
    }
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "-q" | "--quiet" => logger::set_quiet(true),
            "--trace" => {
                trace_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| fail("--trace needs a directory")),
                ));
            }
            "--trace-cats" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--trace-cats needs a category list"));
                trace_cats = CatMask::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "--trace-cats `{v}` has an unknown category \
                         (known: sched,credit,cosched,lock,futex,barrier,fault)"
                    ))
                });
            }
            "--class" => {
                params.class = match it.next().as_deref().map(str::to_ascii_lowercase).as_deref() {
                    Some("s") => ProblemClass::S,
                    Some("w") => ProblemClass::W,
                    Some("a") => ProblemClass::A,
                    Some(other) => fail(&format!("unknown class `{other}` (use s|w|a)")),
                    None => fail("--class needs a value (s|w|a)"),
                };
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| fail("--seed needs a value"));
                params.seed = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--seed `{v}` is not a number")));
                scenario_flags_set.push("--seed");
            }
            "--rounds" => {
                let v = it.next().unwrap_or_else(|| fail("--rounds needs a value"));
                params.rounds = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--rounds `{v}` is not a number")));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| fail("--jobs needs a value"));
                params.jobs = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--jobs `{v}` is not a number")));
            }
            "--json" => {
                json_dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| fail("--json needs a directory")),
                ));
            }
            "--cells" => {
                let v = it.next().unwrap_or_else(|| fail("--cells needs a value"));
                audit_cells = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--cells `{v}` is not a number")));
            }
            "--hosts" => {
                let v = it.next().unwrap_or_else(|| fail("--hosts needs a value"));
                hosts = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--hosts `{v}` is not a number")));
                if hosts < 2 {
                    fail("--hosts must be at least 2 (migration needs a destination)");
                }
                scenario_flags_set.push("--hosts");
            }
            "--vms" => {
                let v = it.next().unwrap_or_else(|| fail("--vms needs a value"));
                cluster_vms = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--vms `{v}` is not a number")));
                if cluster_vms < 1 {
                    fail("--vms must be at least 1");
                }
                scenario_flags_set.push("--vms");
            }
            "--epochs" => {
                let v = it.next().unwrap_or_else(|| fail("--epochs needs a value"));
                cluster_epochs = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--epochs `{v}` is not a number")));
                if cluster_epochs < 1 {
                    fail("--epochs must be at least 1");
                }
                cluster_epochs_set = true;
            }
            "--faults" => {
                let v = it.next().unwrap_or_else(|| fail("--faults needs a plan"));
                cluster_faults = Some(
                    FaultSpec::parse(&v).unwrap_or_else(|e| fail(&format!("--faults {e}"))),
                );
                scenario_flags_set.push("--faults");
            }
            "--churn" => {
                let v = it.next().unwrap_or_else(|| fail("--churn needs a plan"));
                cluster_churn = Some(
                    ChurnSpec::parse(&v).unwrap_or_else(|e| fail(&format!("--churn {e}"))),
                );
                scenario_flags_set.push("--churn");
            }
            "--audit-every" => {
                let v = it.next().unwrap_or_else(|| fail("--audit-every needs a value"));
                audit_every = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--audit-every `{v}` is not a number")));
                if audit_every < 1 {
                    fail("--audit-every must be at least 1");
                }
            }
            "--window" => {
                let v = it.next().unwrap_or_else(|| fail("--window needs a value"));
                series_window = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--window `{v}` is not a number")));
                if series_window < 1 {
                    fail("--window must be at least 1");
                }
            }
            "--nsigma" => {
                let v = it.next().unwrap_or_else(|| fail("--nsigma needs a value"));
                series_nsigma = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--nsigma `{v}` is not a number")));
                if !series_nsigma.is_finite() || series_nsigma <= 0.0 {
                    fail("--nsigma must be a positive finite number");
                }
            }
            "--max-moves" => {
                let v = it.next().unwrap_or_else(|| fail("--max-moves needs a value"));
                let n: usize = v
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--max-moves `{v}` is not a number")));
                if n < 1 {
                    fail("--max-moves must be at least 1");
                }
                max_moves = Some(n);
                scenario_flags_set.push("--max-moves");
            }
            "--checkpoint-every" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--checkpoint-every needs a value"));
                checkpoint_every = v.parse().unwrap_or_else(|_| {
                    fail(&format!("--checkpoint-every `{v}` is not a number"))
                });
                if checkpoint_every < 1 {
                    fail("--checkpoint-every must be at least 1");
                }
            }
            "--resume" => {
                resume = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| fail("--resume needs a checkpoint file")),
                ));
            }
            "--b-policy" => {
                let v = it.next().unwrap_or_else(|| {
                    fail("--b-policy needs a value (static|least-loaded|vcrd-aware)")
                });
                b_policy = Some(Policy::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown policy `{v}` (use static|least-loaded|vcrd-aware)"
                    ))
                }));
            }
            "--b-seed" => {
                let v = it.next().unwrap_or_else(|| fail("--b-seed needs a value"));
                b_seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| fail(&format!("--b-seed `{v}` is not a number"))),
                );
            }
            "--b-faults" => {
                let v = it.next().unwrap_or_else(|| fail("--b-faults needs a plan"));
                b_faults = Some(
                    FaultSpec::parse(&v).unwrap_or_else(|e| fail(&format!("--b-faults {e}"))),
                );
            }
            "--b-churn" => {
                let v = it.next().unwrap_or_else(|| fail("--b-churn needs a plan"));
                b_churn = Some(
                    ChurnSpec::parse(&v).unwrap_or_else(|e| fail(&format!("--b-churn {e}"))),
                );
            }
            "--b-mutate" => {
                let v = it.next().unwrap_or_else(|| {
                    fail("--b-mutate needs a value (dirty-undercount|boost-skip)")
                });
                b_mutate = Some(Mutation::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown mutation `{v}` (use dirty-undercount|boost-skip)"
                    ))
                }));
            }
            "--bench" => cluster_bench = true,
            "--bench-hosts" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--bench-hosts needs a comma list"));
                bench_hosts = parse_list("--bench-hosts", &v);
                if bench_hosts.iter().any(|&h| h < 2) {
                    fail("--bench-hosts values must be at least 2");
                }
            }
            "--bench-jobs" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail("--bench-jobs needs a comma list"));
                bench_jobs = parse_list("--bench-jobs", &v);
            }
            "--policy" => {
                let v = it.next().unwrap_or_else(|| {
                    fail("--policy needs a value (static|least-loaded|vcrd-aware)")
                });
                cluster_policy = Some(Policy::parse(&v).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown policy `{v}` (use static|least-loaded|vcrd-aware)"
                    ))
                }));
            }
            flag if flag.starts_with('-') => fail(&format!("unknown option `{flag}`")),
            "all" => which.push("all".to_string()),
            fig if KNOWN_TARGETS.contains(&fig) => which.push(fig.to_string()),
            other => fail(&format!("unknown target `{other}`")),
        }
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        let mut all: Vec<String> = [
            "fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
        ]
        .map(String::from)
        .to_vec();
        // Keep explicitly named non-figure targets alongside `all`.
        all.extend(which.into_iter().filter(|w| w != "all" && !w.starts_with("fig")));
        which = all;
    }
    // `--trace DIR` alongside figure targets appends the trace bundle.
    if trace_dir.is_some() && !which.iter().any(|w| w == "trace") {
        which.push("trace".to_string());
    }
    // Resolve the fault spec now that epochs/hosts are final, and
    // reject plans naming hosts the cluster won't have.
    let cluster_faults = match cluster_faults {
        Some(spec) => {
            let plan = spec.resolve(cluster_epochs, hosts);
            if let Some(h) = plan.max_host() {
                if h >= hosts {
                    fail(&format!(
                        "--faults names host {h} but the cluster only has {hosts} hosts"
                    ));
                }
            }
            plan
        }
        None => FaultPlan::empty(),
    };
    // A soak with no explicit --epochs runs the full default horizon,
    // not the 8-epoch cluster-experiment default.
    let cluster_churn = cluster_churn.unwrap_or_default();
    if let Some(h) = cluster_churn.resolve(1, hosts).max_host() {
        if h >= hosts {
            fail(&format!(
                "--churn names host {h} but the cluster only has {hosts} hosts"
            ));
        }
    }
    // Checkpoints are artifacts: they need somewhere to land.
    if checkpoint_every != 0 && json_dir.is_none() {
        fail("--checkpoint-every needs --json DIR to write checkpoints into");
    }
    if let Some(m) = b_mutate {
        if !m.available() {
            fail(&format!(
                "--b-mutate {} requires a build with --features audit",
                m.label()
            ));
        }
    }
    Args {
        which,
        params,
        json_dir,
        trace_dir,
        trace_cats,
        audit_cells,
        hosts,
        cluster_vms,
        cluster_epochs,
        cluster_policy,
        cluster_faults,
        cluster_churn,
        cluster_epochs_set,
        audit_every,
        cluster_bench,
        bench_hosts,
        bench_jobs,
        series_window,
        series_nsigma,
        max_moves,
        checkpoint_every,
        resume,
        scenario_flags_set,
        b_policy,
        b_seed,
        b_faults,
        b_churn,
        b_mutate,
    }
}

fn emit<T: serde::Serialize>(
    args: &Args,
    name: &str,
    table: String,
    checks: Vec<ShapeCheck>,
    value: &T,
) {
    println!("{table}");
    for c in &checks {
        println!(
            "  [{}] {} — {}",
            if c.holds { "PASS" } else { "MISS" },
            c.claim,
            c.evidence
        );
    }
    println!();
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join(format!("{name}.json"));
        fs::write(&path, serde_json::to_vec_pretty(value).expect("serialize")).expect("write json");
        progress!("wrote {}", path.display());
    }
}

/// Flight-record the Figure 1 testbed under both schedulers and write
/// the bundle (Chrome trace, LHP episodes, metrics, text summary) into
/// the `--trace` directory (falling back to `--json`, then `.`).
fn run_trace(args: &Args) {
    let dir = args
        .trace_dir
        .clone()
        .or_else(|| args.json_dir.clone())
        .unwrap_or_else(|| PathBuf::from("."));
    let bundles =
        flightrec::capture_bundles(&args.params, args.trace_cats, flightrec::TRACE_CAPACITY);
    for b in &bundles {
        println!("{}", b.summary);
    }
    let paths = flightrec::write_bundles(&dir, &bundles).expect("write trace bundle");
    for p in paths {
        progress!("wrote {}", p.display());
    }
}

fn run_timeline(p: &FigureParams) {
    use asman_report::{Sched, SingleVmScenario, Timeline};
    use asman_sim::{Clock, TraceCat};
    use asman_workloads::{NasBenchmark, NasSpec};
    let clk = Clock::default();
    // Render both panels as strings on the sweep runner, then print in
    // the fixed Credit-then-ASMan order.
    let panels = p
        .runner()
        .map(vec![Sched::Credit, Sched::Asman], |sched| {
            let sc = SingleVmScenario::new(sched, 32, p.seed);
            let lu = NasSpec::new(NasBenchmark::LU, p.class, 4).build(p.seed ^ 7);
            let mut m = sc.build(Box::new(lu));
            m.enable_flight(CatMask::only(TraceCat::Sched).with(TraceCat::Credit), 500_000);
            m.run_until(clk.secs(3));
            let tl = Timeline::from_machine(&m);
            format!(
                "LU @ 22.2% under {} — guest VCPU duty cycles, 400 ms window\n(# online, + partial, . offline; rows: dom0 x8 then guest x4)\n{}",
                sched.label(),
                tl.gantt(clk.secs(2), clk.secs(2) + clk.ms(400), 100)
            )
        });
    for panel in panels {
        println!("{panel}");
    }
}

/// Benchmark the simulation engine: run the reference LU scenario under
/// both schedulers single-threaded and report events/sec from
/// `Machine::perf()`. Writes `BENCH_engine.json` (into the `--json`
/// directory, or the working directory).
fn run_perf(args: &Args) {
    use asman_report::{Sched, SingleVmScenario};
    use asman_workloads::{NasBenchmark, NasSpec};
    use serde::Serialize;

    #[derive(Serialize)]
    struct PerfRow {
        sched: &'static str,
        events: u64,
        wall_secs: f64,
        events_per_sec: f64,
        gated_events_per_sec: f64,
        gated_overhead_pct: f64,
        traced_events_per_sec: f64,
        tracing_overhead_pct: f64,
    }
    #[derive(Serialize)]
    struct Bench {
        class: String,
        seed: u64,
        rows: Vec<PerfRow>,
        total_events: u64,
        total_wall_secs: f64,
        events_per_sec: f64,
        gated_events_per_sec: f64,
        traced_events_per_sec: f64,
    }

    /// Flight-recorder state during a measurement run.
    #[derive(Clone, Copy, PartialEq)]
    enum Rec {
        /// Recorder fully disabled: record sites are a single branch.
        Off,
        /// Recorder armed with an empty category mask: record sites
        /// build their payloads and are rejected per category — the
        /// worst case of "tracing compiled in but not recording".
        Gated,
        /// Full capture of every category.
        Traced,
    }

    // Measurement discipline (this used to be a single cold pass per
    // recorder state, which let `gated_overhead_pct` go negative):
    //
    // * **warmup** — one discarded run per recorder state eats one-off
    //   costs (cold page cache, allocator growth, branch training);
    // * **interleaving** — each sample measures Off, then Gated, then
    //   Traced back to back, so slow host-load drift lands on every
    //   state of a sample equally instead of on whichever state
    //   happened to run during a busy period;
    // * **min-of-N** — the simulation is deterministic, so every run of
    //   a state does identical work and all wall-time variance is host
    //   interference; the minimum sample is therefore the best estimate
    //   of the true cost (the standard `timeit` argument).
    const SAMPLES: usize = 5;
    const REPS: usize = 2;
    const TRACED_CAPACITY: usize = 250_000;
    const STATES: [Rec; 3] = [Rec::Off, Rec::Gated, Rec::Traced];
    let p = &args.params;
    let run_once = |sched: Sched, rec: Rec| -> (u64, f64) {
        let sc = SingleVmScenario::new(sched, 32, p.seed);
        let lu = NasSpec::new(NasBenchmark::LU, p.class, 4).build(p.seed ^ 7);
        let mut m = sc.build(Box::new(lu));
        match rec {
            Rec::Off => {}
            Rec::Gated => m.enable_flight(asman_sim::CatMask(0), 0),
            Rec::Traced => m.enable_flight(asman_sim::CatMask::ALL, TRACED_CAPACITY),
        }
        let clk = m.config().clock;
        m.run_to_completion(clk.secs(sc.horizon_secs));
        let perf = m.perf();
        (perf.events, perf.wall.as_secs_f64())
    };
    // All three recorder states of one scheduler, measured together:
    // returns the median (events, wall) per state in STATES order.
    let measure_states = |sched: Sched| -> [(u64, f64); 3] {
        for rec in STATES {
            run_once(sched, rec); // warmup, discarded
        }
        let mut samples: [Vec<(u64, f64)>; 3] = Default::default();
        for _ in 0..SAMPLES {
            for (k, &rec) in STATES.iter().enumerate() {
                let (mut events, mut wall) = (0u64, 0.0f64);
                for _ in 0..REPS {
                    let (e, w) = run_once(sched, rec);
                    events += e;
                    wall += w;
                }
                samples[k].push((events, wall));
            }
        }
        samples.map(|mut s| {
            // Event counts are identical across samples (the simulation
            // is deterministic), so the min-by-wall sample is the
            // max-by-rate sample.
            s.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("wall times are finite"));
            s[0]
        })
    };
    let rate_of = |events: u64, wall: f64| if wall > 0.0 { events as f64 / wall } else { 0.0 };
    // Gated and traced runs execute a strict superset of the Off run's
    // instructions (same deterministic simulation plus gate checks /
    // ring writes), so their true overhead is >= 0 by construction; a
    // negative reading is residual interference and is floored at zero.
    let overhead_vs = |base: f64, rate: f64| {
        if base > 0.0 {
            ((base - rate) / base * 100.0).max(0.0)
        } else {
            0.0
        }
    };
    println!(
        "Engine benchmark — LU @ 22.2% online rate, sequential, \
         warmup + min of {SAMPLES} interleaved samples x {REPS} reps"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>14} {:>13} {:>7} {:>13} {:>7}",
        "sched", "events", "wall(s)", "events/sec", "gated ev/s", "gate%", "traced ev/s", "trace%"
    );
    let mut rows = Vec::new();
    let (mut total_events, mut total_wall) = (0u64, 0.0f64);
    let (mut total_gt_events, mut total_gt_wall) = (0u64, 0.0f64);
    let (mut total_tr_events, mut total_tr_wall) = (0u64, 0.0f64);
    for sched in [Sched::Credit, Sched::Asman] {
        let [(events, wall), (gt_events, gt_wall), (tr_events, tr_wall)] = measure_states(sched);
        let rate = rate_of(events, wall);
        let gt_rate = rate_of(gt_events, gt_wall);
        let tr_rate = rate_of(tr_events, tr_wall);
        println!(
            "{:>8} {:>12} {:>10.3} {:>14.0} {:>13.0} {:>6.1}% {:>13.0} {:>6.1}%",
            sched.label(),
            events,
            wall,
            rate,
            gt_rate,
            overhead_vs(rate, gt_rate),
            tr_rate,
            overhead_vs(rate, tr_rate),
        );
        total_events += events;
        total_wall += wall;
        total_gt_events += gt_events;
        total_gt_wall += gt_wall;
        total_tr_events += tr_events;
        total_tr_wall += tr_wall;
        rows.push(PerfRow {
            sched: sched.label(),
            events,
            wall_secs: wall,
            events_per_sec: rate,
            gated_events_per_sec: gt_rate,
            gated_overhead_pct: overhead_vs(rate, gt_rate),
            traced_events_per_sec: tr_rate,
            tracing_overhead_pct: overhead_vs(rate, tr_rate),
        });
    }
    let combined = rate_of(total_events, total_wall);
    let gt_combined = rate_of(total_gt_events, total_gt_wall);
    let tr_combined = rate_of(total_tr_events, total_tr_wall);
    println!(
        "{:>8} {:>12} {:>10.3} {:>14.0} {:>13.0} {:>7} {:>13.0}",
        "total", total_events, total_wall, combined, gt_combined, "", tr_combined
    );
    let bench = Bench {
        class: format!("{:?}", p.class),
        seed: p.seed,
        rows,
        total_events,
        total_wall_secs: total_wall,
        events_per_sec: combined,
        gated_events_per_sec: gt_combined,
        traced_events_per_sec: tr_combined,
    };
    let dir = args.json_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    fs::create_dir_all(&dir).expect("create json dir");
    let path = dir.join("BENCH_engine.json");
    fs::write(&path, serde_json::to_vec_pretty(&bench).expect("serialize")).expect("write json");
    progress!("wrote {}", path.display());
}

/// Differential oracle audit: run the optimized engine and the naive
/// oracle over a randomized scenario grid and demand bit-identical
/// behavior, then cross-check that the sweep digests are independent
/// of the worker count. Exits non-zero on any divergence, printing the
/// first mismatching event of each divergent cell with context.
fn run_audit(args: &Args) {
    use asman_report::audit;
    let report = audit::run_grid(args.audit_cells, args.params.seed, args.params.jobs);
    println!("{}", report.render());
    // jobs cross-check: the same leading cells under 1 and 4 workers
    // must produce identical digests.
    let sub = args.audit_cells.min(18);
    let seq = audit::run_grid(sub, args.params.seed, 1);
    let par = audit::run_grid(sub, args.params.seed, 4);
    let jobs_ok = seq.digests == par.digests;
    println!(
        "jobs cross-check over {sub} cells: {}",
        if jobs_ok {
            "1 and 4 workers bit-identical"
        } else {
            "FAILED — digests depend on worker count"
        }
    );
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        let path = dir.join("AUDIT_diff.json");
        fs::write(&path, serde_json::to_vec_pretty(&report).expect("serialize"))
            .expect("write json");
        progress!("wrote {}", path.display());
    }
    if !report.ok() || !jobs_ok {
        std::process::exit(1);
    }
}

/// The policies a cluster-family target compares, from `--policy`.
fn cluster_policies(args: &Args) -> Vec<Policy> {
    match args.cluster_policy {
        // A single policy is always compared against the static
        // baseline, which anchors every shape check.
        Some(Policy::Static) => vec![Policy::Static],
        Some(p) => vec![Policy::Static, p],
        None => Policy::ALL.to_vec(),
    }
}

/// The multi-host consolidation experiment: compare placement policies
/// on the same seeded cluster, print the table and shape checks, and —
/// when an output directory is available — write the host-tagged
/// flight-recorder streams and migration-span cost table of each
/// compared policy.
fn run_cluster(args: &Args) {
    use asman_report::cluster;
    use serde::Serialize;

    if args.cluster_bench {
        run_cluster_bench(args);
        return;
    }
    let policies = cluster_policies(args);
    let p = cluster::ClusterParams {
        hosts: args.hosts,
        gangs: args.cluster_vms,
        epochs: args.cluster_epochs,
        seed: args.params.seed,
        jobs: args.params.jobs,
        policies: policies.clone(),
        faults: args.cluster_faults.clone(),
        max_moves: args.resolved_max_moves(),
    };
    let exp = cluster::run(&p);
    emit(args, "CLUSTER_consolidation", exp.render(), exp.shape_checks(), &exp);

    // Flight streams, tagged by host id, one artifact per policy.
    if let Some(dir) = args.trace_dir.clone().or_else(|| args.json_dir.clone()) {
        #[derive(Serialize)]
        struct HostStream {
            host: usize,
            events: Vec<asman_sim::FlightEvent>,
        }
        fs::create_dir_all(&dir).expect("create trace dir");
        for policy in policies {
            let (streams, metrics) = cluster::capture_flight(
                &p,
                policy,
                args.trace_cats,
                flightrec::TRACE_CAPACITY,
                cluster::CLUSTER_STREAM_BUDGET,
            );
            // Migration-span cost table: derived from the merged,
            // budgeted streams — it covers exactly what the flight
            // artifact shows.
            let merged = asman_sim::merge_streams(
                streams.iter().map(|(_, events)| events.clone()).collect(),
            );
            let spans = flightrec::migration_spans(&merged);
            let tagged: Vec<HostStream> = streams
                .into_iter()
                .map(|(host, events)| HostStream { host, events })
                .collect();
            let path = dir.join(format!("CLUSTER_flight_{}.json", policy.label()));
            fs::write(&path, serde_json::to_vec(&tagged).expect("serialize"))
                .expect("write flight streams");
            progress!("wrote {}", path.display());
            let path = dir.join(format!("CLUSTER_spans_{}.json", policy.label()));
            fs::write(&path, serde_json::to_vec_pretty(&spans).expect("serialize"))
                .expect("write migration spans");
            progress!("wrote {}", path.display());
            let path = dir.join(format!("CLUSTER_metrics_{}.json", policy.label()));
            fs::write(&path, serde_json::to_vec_pretty(&metrics).expect("serialize"))
                .expect("write cluster metrics");
            progress!("wrote {}", path.display());
        }
    }
}

/// The telemetry series report (`repro series`): the consolidation
/// cluster with the epoch sampler and latency histograms armed. Prints
/// the sparkline timeline, anomaly flags and reaction summary; with
/// `--json DIR`, writes one `CLUSTER_series_<policy>.json` per policy
/// (byte-identical for every `--jobs` value).
fn run_series(args: &Args) {
    use asman_report::{cluster, series};

    let p = series::SeriesParams {
        cluster: cluster::ClusterParams {
            hosts: args.hosts,
            gangs: args.cluster_vms,
            epochs: args.cluster_epochs,
            seed: args.params.seed,
            jobs: args.params.jobs,
            policies: cluster_policies(args),
            faults: args.cluster_faults.clone(),
            max_moves: args.resolved_max_moves(),
        },
        window: args.series_window,
        nsigma: args.series_nsigma,
    };
    let rep = series::run(&p);
    println!("{}", rep.render());
    if let Some(dir) = &args.json_dir {
        fs::create_dir_all(dir).expect("create json dir");
        for o in &rep.outcomes {
            let path = dir.join(format!("CLUSTER_series_{}.json", o.policy));
            fs::write(&path, serde_json::to_vec_pretty(o).expect("serialize"))
                .expect("write series json");
            progress!("wrote {}", path.display());
        }
    }
}

/// The long-horizon soak (`repro soak`): the consolidation cluster
/// driven for `--epochs` boundaries (default 100k) under `--churn`,
/// with amortized audits, occupancy checkpoints asserting the
/// bounded-memory invariant, and a jobs-1-vs-4 determinism prefix.
/// Exits non-zero when the cross-check digests diverge.
fn run_soak(args: &Args) {
    use asman_report::{checkpoint, soak};

    let defaults = soak::SoakParams::default();
    let p = if let Some(path) = &args.resume {
        // The checkpoint carries the scenario; flags that would rebuild
        // a *different* scenario are contradictions, not overrides.
        if let Some(flag) = args.scenario_flags_set.first() {
            fail(&format!(
                "{flag} conflicts with --resume: the scenario is rebuilt from the \
                 checkpoint (only --epochs, --jobs, --json and --checkpoint-every apply)"
            ));
        }
        // A directory means "the newest checkpoint in here", found by
        // numeric epoch (lexicographic order lies past epoch 999,999).
        let path = if path.is_dir() {
            checkpoint::latest_checkpoint(path).unwrap_or_else(|e| fail(&format!("--resume {e}")))
        } else {
            path.clone()
        };
        let ck = checkpoint::read_checkpoint(&path)
            .unwrap_or_else(|e| fail(&format!("--resume {e}")));
        // --epochs may extend or shorten the horizon; default to the
        // horizon the checkpointed run was headed for.
        let epochs = if args.cluster_epochs_set {
            args.cluster_epochs
        } else {
            ck.config.epochs
        };
        if ck.state.epoch >= epochs {
            fail(&format!(
                "--resume checkpoint is at epoch {} but the horizon is {epochs}; \
                 raise --epochs past the checkpoint",
                ck.state.epoch
            ));
        }
        soak::SoakParams {
            hosts: ck.config.scenario.hosts,
            gangs: ck.config.scenario.gangs,
            epochs,
            epoch_ms: ck.config.epoch_ms,
            seed: ck.config.scenario.seed,
            jobs: args.params.jobs,
            churn: ck.config.churn.clone(),
            audit_every: ck.config.audit_every,
            checkpoint_every: args.checkpoint_every,
            ckpt_dir: args.json_dir.clone(),
            max_moves: ck.config.max_moves,
            resume: Some(ck),
            ..defaults
        }
    } else {
        // A soak with no explicit --epochs runs its own long-horizon
        // default, not the 8-epoch cluster-experiment default.
        let epochs = if args.cluster_epochs_set {
            args.cluster_epochs
        } else {
            defaults.epochs
        };
        soak::SoakParams {
            hosts: args.hosts,
            gangs: args.cluster_vms,
            epochs,
            seed: args.params.seed,
            jobs: args.params.jobs,
            churn: args.cluster_churn.resolve(epochs, args.hosts),
            audit_every: args.audit_every.min(epochs),
            checkpoint_every: args.checkpoint_every,
            ckpt_dir: args.json_dir.clone(),
            max_moves: args.resolved_max_moves(),
            ..defaults
        }
    };
    let rep = soak::run(&p);
    emit(args, "SOAK_report", rep.render(), rep.shape_checks(), &rep);
    if !rep.jobs_identical() {
        std::process::exit(1);
    }
}

/// The divergence bisector (`repro bisect`): build side A from the
/// cluster-family flags and side B from the `--b-*` overrides (or an
/// injected `--b-mutate` behavioral mutation), then binary-search the
/// first epoch boundary whose cluster state digests differ and report
/// the first divergent flight event in context. Exits 0 when the runs
/// are bit-identical, 1 on divergence.
fn run_bisect(args: &Args) {
    use asman_cluster::{scenario::ConsolidationSpec, CheckpointConfig, ClusterConfig};
    use asman_report::bisect;

    let d = ClusterConfig::default();
    let epochs = args.cluster_epochs;
    let churn_a = args.cluster_churn.resolve(epochs, args.hosts);
    let a = CheckpointConfig {
        scenario: ConsolidationSpec {
            hosts: args.hosts,
            gangs: args.cluster_vms,
            seed: args.params.seed,
            ..ConsolidationSpec::default()
        },
        epoch_ms: d.epoch_ms,
        epochs,
        policy: args.cluster_policy.unwrap_or(Policy::VcrdAware),
        cooldown_epochs: d.cooldown_epochs,
        retry_cap: d.retry_cap,
        audit_every: d.audit_every,
        model: d.model,
        faults: args.cluster_faults.clone(),
        slot_reuse: !churn_a.is_empty(),
        churn: churn_a,
        series_capacity: 0,
        max_moves: args.resolved_max_moves(),
    };
    let mut b = a.clone();
    if let Some(p) = args.b_policy {
        b.policy = p;
    }
    if let Some(s) = args.b_seed {
        b.scenario.seed = s;
    }
    if let Some(spec) = &args.b_faults {
        b.faults = spec.resolve(epochs, args.hosts);
        if let Some(h) = b.faults.max_host() {
            if h >= args.hosts {
                fail(&format!(
                    "--b-faults names host {h} but the cluster only has {} hosts",
                    args.hosts
                ));
            }
        }
    }
    if let Some(spec) = &args.b_churn {
        b.churn = spec.resolve(epochs, args.hosts);
        if let Some(h) = b.churn.max_host() {
            if h >= args.hosts {
                fail(&format!(
                    "--b-churn names host {h} but the cluster only has {} hosts",
                    args.hosts
                ));
            }
        }
        b.slot_reuse = b.slot_reuse || !b.churn.is_empty();
    }
    // Slot reuse changes tombstone behavior, so both sides must agree
    // on it or the bisector would report the knob, not the real cause.
    let slot_reuse = a.slot_reuse || b.slot_reuse;
    let (mut a, mut b) = (a, b);
    a.slot_reuse = slot_reuse;
    b.slot_reuse = slot_reuse;
    let out = bisect::run(&bisect::BisectParams {
        a,
        b,
        jobs: args.params.jobs,
        mutate: args.b_mutate,
    });
    println!("{}", out.render());
    if !out.identical() {
        std::process::exit(1);
    }
}

/// The cluster performance grid (`repro cluster --bench`): hosts × jobs
/// cells on the uniform scaling scenario, warmup + median-of-3 each,
/// written to `BENCH_cluster.json` (into `--json` DIR, or the working
/// directory). Every cell cross-checks its report digest against the
/// row's `jobs = 1` baseline, so a nondeterministic "speedup" aborts
/// the bench instead of producing a lying artifact.
fn run_cluster_bench(args: &Args) {
    use asman_report::clusterbench;

    let p = clusterbench::BenchParams {
        hosts_grid: args.bench_hosts.clone(),
        jobs_grid: args.bench_jobs.clone(),
        epochs: args.cluster_epochs,
        seed: args.params.seed,
        max_moves: args.max_moves,
        ..clusterbench::BenchParams::default()
    };
    let bench = clusterbench::run(&p);
    println!("{}", bench.render());
    let dir = args.json_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    fs::create_dir_all(&dir).expect("create json dir");
    let path = dir.join("BENCH_cluster.json");
    fs::write(&path, serde_json::to_vec_pretty(&bench).expect("serialize")).expect("write json");
    progress!("wrote {}", path.display());
}

fn main() {
    let args = parse_args();
    let p = &args.params;
    progress!(
        "class={:?} seed={} rounds={} figures={:?}",
        p.class,
        p.seed,
        p.rounds,
        args.which
    );
    for fig in args.which.clone() {
        let t0 = std::time::Instant::now();
        match fig.as_str() {
            "fig1" => {
                let f = fig01::run(p);
                emit(&args, "fig01", f.render(), f.shape_checks(), &f);
            }
            "fig2" => {
                let f = fig02::run(p);
                emit(&args, "fig02", f.render(), f.shape_checks(), &f);
            }
            "fig7" => {
                let f = fig07::run(p);
                emit(&args, "fig07", f.render(), f.shape_checks(), &f);
            }
            "fig8" => {
                let f = fig08::run(p);
                emit(&args, "fig08", f.render(), f.shape_checks(), &f);
            }
            "fig9" => {
                let f = fig09::run(p);
                emit(&args, "fig09", f.render(), f.shape_checks(), &f);
            }
            "fig10" => {
                let f = fig10::run(p);
                emit(&args, "fig10", f.render(), f.shape_checks(), &f);
            }
            "fig11" => {
                let f = fig11::run(p);
                emit(&args, "fig11", f.render(), f.shape_checks(), &f);
            }
            "fig12" => {
                let f = fig12::run(p);
                emit(&args, "fig12", f.render(), f.shape_checks(), &f);
            }
            "perf" => run_perf(&args),
            "trace" => run_trace(&args),
            "audit" => run_audit(&args),
            "cluster" => run_cluster(&args),
            "series" => run_series(&args),
            "soak" => run_soak(&args),
            "bisect" => run_bisect(&args),
            "timeline" => run_timeline(p),
            "extensions" => {
                let f = asman_report::extensions::run(p);
                emit(&args, "extensions", f.render(), f.shape_checks(), &f);
            }
            other => unreachable!("target `{other}` validated in parse_args"),
        }
        progress!("[{fig} took {:.1?}]", t0.elapsed());
    }
}
